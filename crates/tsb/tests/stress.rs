use immortaldb_btree::{SplitTimeSource, TemporalIndex, VersionCursor};
use immortaldb_common::{Tid, Timestamp, TreeId, NULL_LSN};
use immortaldb_storage::buffer::BufferPool;
use immortaldb_storage::disk::DiskManager;
use immortaldb_storage::wal::Wal;
use immortaldb_storage::TimestampResolver;
use immortaldb_tsb::TsbTree;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Default)]
struct Auth {
    committed: Mutex<HashMap<Tid, Timestamp>>,
    max: Mutex<Timestamp>,
}
impl Auth {
    fn commit(&self, tid: Tid, ts: Timestamp) {
        self.committed.lock().insert(tid, ts);
        let mut m = self.max.lock();
        if ts > *m {
            *m = ts;
        }
    }
}
impl TimestampResolver for Auth {
    fn resolve(&self, tid: Tid) -> Option<Timestamp> {
        self.committed.lock().get(&tid).copied()
    }
}
impl SplitTimeSource for Auth {
    fn current_split_ts(&self) -> Timestamp {
        let m = *self.max.lock();
        Timestamp::new(m.ttime + 20, 0)
    }
}

#[test]
fn stress_reads_at_all_depths() {
    let dir = std::env::temp_dir().join(format!("tsb-stress-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (disk, _) = DiskManager::open(dir.join("d.idb")).unwrap();
    let wal = Arc::new(Wal::open(dir.join("w.log")).unwrap());
    let pool = Arc::new(BufferPool::new(Arc::new(disk), Arc::clone(&wal), 4096));
    let auth = Arc::new(Auth::default());
    let tsb = TsbTree::create(
        Arc::clone(&pool),
        Arc::clone(&wal),
        TreeId(61),
        Arc::clone(&auth) as Arc<dyn SplitTimeSource>,
    )
    .unwrap();
    let keys = 200u64;
    let rounds = 150u64;
    let value = vec![5u8; 100];
    let mut tid = 0u64;
    let mut tick = 0u64;
    for k in 0..keys {
        tid += 1;
        tick += 1;
        let kb = immortaldb_common::codec::key_from_u64(k);
        tsb.insert(Tid(tid), NULL_LSN, &kb, &value, auth.as_ref())
            .unwrap();
        auth.commit(Tid(tid), Timestamp::new(tick * 20, 0));
    }
    let mut marks = vec![Timestamp::new(tick * 20, 1)];
    for r in 1..=rounds {
        for k in 0..keys {
            tid += 1;
            tick += 1;
            let kb = immortaldb_common::codec::key_from_u64(k);
            tsb.update(Tid(tid), NULL_LSN, &kb, &value, auth.as_ref())
                .unwrap();
            auth.commit(Tid(tid), Timestamp::new(tick * 20, 0));
        }
        if r % 15 == 0 {
            marks.push(Timestamp::new(tick * 20, 1));
        }
    }
    for (mi, at) in marks.iter().enumerate() {
        for k in 0..keys {
            let kb = immortaldb_common::codec::key_from_u64(k);
            let got = tsb
                .get_as_of(&kb, *at, None, auth.as_ref())
                .unwrap_or_else(|e| panic!("mark {mi} key {k}: {e}"));
            assert_eq!(got, Some(value.clone()), "mark {mi} key {k}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
