//! The log's bytes are pinned. One record of every `LogRecord` variant
//! goes through `Wal::append`, and the file — magic, then each record's
//! `len | crc | tid | prev_lsn | body` frame — must equal, byte for byte,
//! the hex committed beside this test (`log_format.hex`). A change to
//! the record codec or the framing that moves a single byte fails here:
//! logs already on disk, and replicas fed shipped log bytes, read them.

use immortaldb_common::{Lsn, PageId, Tid, Timestamp, TreeId};
use immortaldb_storage::logrec::LogRecord;
use immortaldb_storage::wal::{Durability, Wal};

/// One record of each variant, in declaration order.
fn every_variant(image: &[u8]) -> Vec<LogRecord<&[u8]>> {
    let (tree, page) = (TreeId(3), PageId(17));
    vec![
        LogRecord::Begin,
        LogRecord::Commit {
            ts: Timestamp::new(1_700_000_000_020, 9),
        },
        LogRecord::Abort,
        LogRecord::End,
        LogRecord::AddVersion {
            tree,
            page,
            key: b"\x80\x00\x00\x07",
            data: b"version data",
            stub: false,
        },
        LogRecord::ClrPopVersion {
            tree,
            page,
            key: b"\x80\x00\x00\x07",
            undo_next: Lsn(4_242),
        },
        LogRecord::InsertRecord {
            tree,
            page,
            key: b"ins",
            data: b"inserted",
        },
        LogRecord::UpdateRecord {
            tree,
            page,
            key: b"upd",
            old: b"old value",
            new: b"new value",
        },
        LogRecord::DeleteRecord {
            tree,
            page,
            key: b"del",
            old: b"deleted",
        },
        LogRecord::ClrDeleteRecord {
            tree,
            page,
            key: b"ins",
            undo_next: Lsn(77),
        },
        LogRecord::ClrUpdateRecord {
            tree,
            page,
            key: b"upd",
            data: b"old value",
            undo_next: Lsn(78),
        },
        LogRecord::ClrInsertRecord {
            tree,
            page,
            key: b"del",
            data: b"deleted",
            undo_next: Lsn(79),
        },
        LogRecord::EagerStamp {
            tree,
            page,
            key: b"\x80\x00\x00\x07",
            ts: Timestamp::new(1_700_000_000_040, 2),
        },
        LogRecord::PageImages {
            pages: vec![(PageId(5), image), (PageId(0), &image[..16])],
        },
        LogRecord::CheckpointBegin,
        LogRecord::CheckpointEnd {
            att: vec![(Tid(21), Lsn(300)), (Tid(22), Lsn(0))],
            dpt: vec![(PageId(5), Lsn(8)), (PageId(9), Lsn(512))],
        },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_record_frames_to_the_pinned_bytes() {
    let path = std::env::temp_dir().join(format!("immortal-log-format-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let wal = Wal::open(&path).unwrap();
    let image: Vec<u8> = (0..64u32).map(|i| (i * 37 + 11) as u8).collect();
    let records = every_variant(&image);
    let mut prev = Lsn(0);
    for (i, rec) in records.iter().enumerate() {
        prev = wal.append(Tid(100 + i as u64), prev, rec);
    }
    wal.flush(Durability::Buffered).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let pinned: String = include_str!("log_format.hex").split_whitespace().collect();
    assert_eq!(hex(&bytes), pinned, "the log's bytes moved");
    // And they read back as what was appended.
    let back: Vec<LogRecord> = wal
        .iter_from(Lsn(0))
        .unwrap()
        .map(|e| e.unwrap().record)
        .collect();
    assert_eq!(back.len(), records.len());
    for (got, want) in back.iter().zip(&records) {
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
    drop(wal);
    std::fs::remove_file(&path).unwrap();
}
