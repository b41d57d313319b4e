//! Property tests for the optimistic page-latch protocol (DESIGN.md
//! §11): the seqlock version counter, torn-copy rejection, the bounded
//! retry loop, and the pessimistic fallback.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use immortaldb_common::{PageId, Timestamp};
use immortaldb_storage::buffer::{BufferPool, FrameRef, OPTIMISTIC_RETRIES};
use immortaldb_storage::disk::DiskManager;
use immortaldb_storage::page::PageType;
use immortaldb_storage::wal::Wal;

fn setup(name: &str, capacity: usize) -> (BufferPool, PathBuf, PathBuf) {
    let mut db = std::env::temp_dir();
    db.push(format!(
        "immortal-latchprop-{name}-{}.db",
        std::process::id()
    ));
    let mut wal = std::env::temp_dir();
    wal.push(format!(
        "immortal-latchprop-{name}-{}.wal",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&db);
    let _ = std::fs::remove_file(&wal);
    let (disk, _) = DiskManager::open(&db).unwrap();
    let w = Arc::new(Wal::open(&wal).unwrap());
    let pool = BufferPool::new(Arc::new(disk), Arc::clone(&w), capacity);
    (pool, db, wal)
}

fn cleanup(db: PathBuf, wal: PathBuf) {
    let _ = std::fs::remove_file(db);
    let _ = std::fs::remove_file(wal);
}

/// A frame with one fixed-size record readers can check for tearing:
/// every byte of the record must always hold the same value.
fn uniform_frame(pool: &BufferPool, len: usize) -> FrameRef {
    let f = pool.new_page(PageType::Leaf, 0, 0).unwrap();
    {
        let mut g = f.write();
        g.insert_sorted(b"torn", &vec![0u8; len], 0).unwrap();
    }
    f
}

/// Seeded multi-threaded stress: a writer rewrites the record's bytes to
/// a new uniform value — and the header's time range and history pointer
/// to three renderings of one counter — under the write latch while
/// readers copy the page, or peek just its header, via the optimistic
/// protocol. A torn copy that survived validation would show up as a
/// record with mixed byte values, or a header from a half-written page
/// as fields that disagree.
fn torn_read_stress(seed: u64, writes: u32, readers: usize, len: usize) {
    let (pool, db, wal) = setup(&format!("torn-{seed}"), 16);
    let frame = uniform_frame(&pool, len);
    frame.write().set_end_ts(Timestamp::ZERO); // all three fields render 0
    let metrics = pool.metrics().clone();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let frame = &frame;
        let done = &done;
        let metrics = &metrics;
        scope.spawn(move || {
            let mut v = seed as u8;
            for n in 1..=writes {
                let mut g = frame.write();
                // Header fields first and last, the record in between:
                // the widest spread a racing copy could straddle.
                g.set_start_ts(Timestamp::new(u64::from(n), n));
                let off = g.slot(0);
                g.rec_data_mut(off).fill(v);
                g.set_history_page(PageId(n));
                g.set_end_ts(Timestamp::new(u64::from(n), n));
                v = v.wrapping_add(1);
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..readers {
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let uniform = frame.read_optimistic(metrics, |p| {
                        let d = p.rec_data(p.slot(0));
                        d.iter().all(|b| *b == d[0])
                    });
                    assert!(uniform, "optimistic read observed a torn record");
                    let h = frame.peek_header(metrics);
                    let n = h.history_page().0;
                    let stamp = Timestamp::new(u64::from(n), n);
                    assert_eq!(
                        (h.start_ts(), h.end_ts()),
                        (stamp, stamp),
                        "header peek observed a half-written header (history page {n})"
                    );
                }
            });
        }
    });
    drop(frame);
    drop(pool);
    cleanup(db, wal);
}

#[test]
fn no_torn_reads_under_concurrent_writes_seed1() {
    torn_read_stress(0xA11CE, 3_000, 2, 512);
}

#[test]
fn no_torn_reads_under_concurrent_writes_seed2() {
    torn_read_stress(0xB0B, 3_000, 2, 2_048);
}

/// With a writer holding the latch, every `read_optimistic` burns exactly
/// `OPTIMISTIC_RETRIES` attempts and then engages the pessimistic
/// fallback — which blocks until the writer releases and then sees the
/// committed state.
#[test]
fn retry_bound_respected_and_fallback_engages() {
    let (pool, db, wal) = setup("fallback", 16);
    let frame = uniform_frame(&pool, 64);
    let metrics = pool.metrics().clone();
    for round in 1..=3u64 {
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let frame = &frame;
            scope.spawn(move || {
                let mut g = frame.write();
                let off = g.slot(0);
                g.rec_data_mut(off).fill(round as u8);
                held_tx.send(()).unwrap();
                // Keep the counter odd long past the (nanosecond-scale)
                // optimistic attempts; the fallback read blocks on the
                // latch until this guard drops.
                std::thread::sleep(std::time::Duration::from_millis(30));
            });
            held_rx.recv().unwrap();
            assert_eq!(frame.latch_version() & 1, 1, "writer must hold the latch");
            let seen = frame.read_optimistic(&metrics, |p| p.rec_data(p.slot(0))[0]);
            assert_eq!(seen, round as u8, "fallback must see the writer's data");
        });
        assert_eq!(
            metrics.latch.optimistic_retries.get(),
            round * OPTIMISTIC_RETRIES as u64,
            "each blocked read burns exactly OPTIMISTIC_RETRIES attempts"
        );
        assert_eq!(metrics.latch.pessimistic_fallbacks.get(), round);
    }
    drop(frame);
    drop(pool);
    cleanup(db, wal);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// Seqlock parity invariant: the counter is even whenever no writer
    /// is active, each write-latch hold advances it by exactly 2, and
    /// optimistic reads succeed between (never during) writes.
    #[test]
    fn version_parity_tracks_writers(ops in proptest::collection::vec(any::<bool>(), 1..60)) {
        let (pool, db, wal) = setup("parity", 16);
        let frame = uniform_frame(&pool, 32);
        let base = frame.latch_version(); // setup already wrote once
        let mut writes = 0u64;
        for do_write in ops {
            if do_write {
                let before = frame.latch_version();
                prop_assert_eq!(before & 1, 0);
                {
                    let mut g = frame.write();
                    prop_assert_eq!(frame.latch_version(), before + 1); // odd: writer active
                    let off = g.slot(0);
                    g.rec_data_mut(off).fill(writes as u8);
                }
                prop_assert_eq!(frame.latch_version(), before + 2);
                writes += 1;
            } else {
                let seen = frame.try_read_optimistic(|p| p.rec_data(p.slot(0))[0]);
                // No writer is active, so the attempt must validate and
                // must see the last committed fill value.
                prop_assert_eq!(seen, Some(writes.saturating_sub(1) as u8));
            }
        }
        prop_assert_eq!(frame.latch_version(), base + writes * 2);
        drop(frame);
        drop(pool);
        cleanup(db, wal);
    }
}
