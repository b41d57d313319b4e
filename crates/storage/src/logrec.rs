//! Log record types and their on-disk codec.
//!
//! Version operations get **physiological redo** (replayed against the
//! logged page, guarded by the page LSN) and **logical undo** (the record
//! is found again by key, because splits may have moved it). Structure
//! modifications (time splits, key splits, root changes) are logged as a
//! single atomic [`LogRecord::PageImages`] record — a redo-only nested top
//! action. Timestamp application is *never* logged (§2.2 of the paper).
//!
//! A record's byte strings are a type parameter: the log writes records
//! that borrow them from the caller (`LogRecord<&[u8]>`, encoded once,
//! straight into the log buffer by [`LogRecord::encode_into`]) and reads
//! back records that own them (`LogRecord`, i.e. `LogRecord<Vec<u8>>`).

use immortaldb_common::codec::{Reader, Writer};
use immortaldb_common::{Error, Lsn, PageId, Result, Tid, Timestamp, TreeId};

/// A log record body. The WAL framing adds `(lsn, tid, prev_lsn)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRecord<B = Vec<u8>> {
    /// Transaction start.
    Begin,
    /// Transaction commit, carrying the commit timestamp chosen by the
    /// timestamp authority.
    Commit { ts: Timestamp },
    /// Transaction rollback has been initiated.
    Abort,
    /// Transaction fully finished (committed or rolled back).
    End,
    /// Push a version (insert / update / delete-stub) for `key` on a
    /// versioned leaf. Undo = pop the newest version of `key`.
    AddVersion {
        tree: TreeId,
        page: PageId,
        key: B,
        data: B,
        stub: bool,
    },
    /// CLR compensating [`LogRecord::AddVersion`]: redo re-pops.
    ClrPopVersion {
        tree: TreeId,
        page: PageId,
        key: B,
        undo_next: Lsn,
    },
    /// Insert on an unversioned (conventional) leaf. Undo = delete.
    InsertRecord {
        tree: TreeId,
        page: PageId,
        key: B,
        data: B,
    },
    /// In-place update on an unversioned leaf. Undo = restore `old`.
    UpdateRecord {
        tree: TreeId,
        page: PageId,
        key: B,
        old: B,
        new: B,
    },
    /// Delete on an unversioned leaf. Undo = re-insert `old`.
    DeleteRecord {
        tree: TreeId,
        page: PageId,
        key: B,
        old: B,
    },
    /// CLR compensating [`LogRecord::InsertRecord`].
    ClrDeleteRecord {
        tree: TreeId,
        page: PageId,
        key: B,
        undo_next: Lsn,
    },
    /// CLR compensating [`LogRecord::UpdateRecord`] (restores the old
    /// data).
    ClrUpdateRecord {
        tree: TreeId,
        page: PageId,
        key: B,
        data: B,
        undo_next: Lsn,
    },
    /// CLR compensating [`LogRecord::DeleteRecord`] (re-inserts).
    ClrInsertRecord {
        tree: TreeId,
        page: PageId,
        key: B,
        data: B,
        undo_next: Lsn,
    },
    /// Eager-timestamping baseline (§2.2): stamp all of `tid`'s versions
    /// in `key`'s chain with the commit timestamp, *logged* so recovery
    /// can redo it — the logging overhead the paper's lazy scheme avoids.
    /// No undo action: a loser's versions are popped anyway.
    EagerStamp {
        tree: TreeId,
        page: PageId,
        key: B,
        ts: Timestamp,
    },
    /// Atomic multi-page after-images for structure modifications.
    /// Redo-only; never undone (nested top action).
    PageImages { pages: Vec<(PageId, B)> },
    /// Fuzzy checkpoint start marker.
    CheckpointBegin,
    /// Fuzzy checkpoint end: active-transaction table and dirty-page table
    /// snapshots.
    CheckpointEnd {
        att: Vec<(Tid, Lsn)>,
        dpt: Vec<(PageId, Lsn)>,
    },
}

const K_BEGIN: u8 = 1;
const K_COMMIT: u8 = 2;
const K_ABORT: u8 = 3;
const K_END: u8 = 4;
const K_ADD_VERSION: u8 = 5;
const K_CLR_POP_VERSION: u8 = 6;
const K_INSERT: u8 = 7;
const K_UPDATE: u8 = 8;
const K_DELETE: u8 = 9;
const K_CLR_DELETE: u8 = 10;
const K_CLR_UPDATE: u8 = 11;
const K_CLR_INSERT: u8 = 12;
const K_PAGE_IMAGES: u8 = 13;
const K_CKPT_BEGIN: u8 = 14;
const K_CKPT_END: u8 = 15;
const K_EAGER_STAMP: u8 = 16;

impl<B> LogRecord<B> {
    /// The page this record's redo applies to, if page-oriented.
    pub fn target_page(&self) -> Option<PageId> {
        match self {
            LogRecord::AddVersion { page, .. }
            | LogRecord::ClrPopVersion { page, .. }
            | LogRecord::InsertRecord { page, .. }
            | LogRecord::UpdateRecord { page, .. }
            | LogRecord::DeleteRecord { page, .. }
            | LogRecord::ClrDeleteRecord { page, .. }
            | LogRecord::ClrUpdateRecord { page, .. }
            | LogRecord::ClrInsertRecord { page, .. }
            | LogRecord::EagerStamp { page, .. } => Some(*page),
            _ => None,
        }
    }

    /// True for compensation records (redo-only during undo traversal).
    pub fn is_clr(&self) -> bool {
        matches!(
            self,
            LogRecord::ClrPopVersion { .. }
                | LogRecord::ClrDeleteRecord { .. }
                | LogRecord::ClrUpdateRecord { .. }
                | LogRecord::ClrInsertRecord { .. }
        )
    }

    /// For CLRs: where undo continues.
    pub fn undo_next(&self) -> Option<Lsn> {
        match self {
            LogRecord::ClrPopVersion { undo_next, .. }
            | LogRecord::ClrDeleteRecord { undo_next, .. }
            | LogRecord::ClrUpdateRecord { undo_next, .. }
            | LogRecord::ClrInsertRecord { undo_next, .. } => Some(*undo_next),
            _ => None,
        }
    }
}

impl<B: AsRef<[u8]>> LogRecord<B> {
    /// Append the encoded record to `w` (the log appends each record
    /// this way, once, into its buffer).
    pub fn encode_into(&self, w: &mut Writer) {
        match self {
            LogRecord::Begin => {
                w.u8(K_BEGIN);
            }
            LogRecord::Commit { ts } => {
                w.u8(K_COMMIT).u64(ts.ttime).u32(ts.sn);
            }
            LogRecord::Abort => {
                w.u8(K_ABORT);
            }
            LogRecord::End => {
                w.u8(K_END);
            }
            LogRecord::AddVersion {
                tree,
                page,
                key,
                data,
                stub,
            } => {
                w.u8(K_ADD_VERSION)
                    .u32(tree.0)
                    .u32(page.0)
                    .u8(*stub as u8)
                    .bytes(key.as_ref())
                    .bytes(data.as_ref());
            }
            LogRecord::ClrPopVersion {
                tree,
                page,
                key,
                undo_next,
            } => {
                w.u8(K_CLR_POP_VERSION)
                    .u32(tree.0)
                    .u32(page.0)
                    .u64(undo_next.0)
                    .bytes(key.as_ref());
            }
            LogRecord::InsertRecord {
                tree,
                page,
                key,
                data,
            } => {
                w.u8(K_INSERT)
                    .u32(tree.0)
                    .u32(page.0)
                    .bytes(key.as_ref())
                    .bytes(data.as_ref());
            }
            LogRecord::UpdateRecord {
                tree,
                page,
                key,
                old,
                new,
            } => {
                w.u8(K_UPDATE)
                    .u32(tree.0)
                    .u32(page.0)
                    .bytes(key.as_ref())
                    .bytes(old.as_ref())
                    .bytes(new.as_ref());
            }
            LogRecord::DeleteRecord {
                tree,
                page,
                key,
                old,
            } => {
                w.u8(K_DELETE)
                    .u32(tree.0)
                    .u32(page.0)
                    .bytes(key.as_ref())
                    .bytes(old.as_ref());
            }
            LogRecord::ClrDeleteRecord {
                tree,
                page,
                key,
                undo_next,
            } => {
                w.u8(K_CLR_DELETE)
                    .u32(tree.0)
                    .u32(page.0)
                    .u64(undo_next.0)
                    .bytes(key.as_ref());
            }
            LogRecord::ClrUpdateRecord {
                tree,
                page,
                key,
                data,
                undo_next,
            } => {
                w.u8(K_CLR_UPDATE)
                    .u32(tree.0)
                    .u32(page.0)
                    .u64(undo_next.0)
                    .bytes(key.as_ref())
                    .bytes(data.as_ref());
            }
            LogRecord::ClrInsertRecord {
                tree,
                page,
                key,
                data,
                undo_next,
            } => {
                w.u8(K_CLR_INSERT)
                    .u32(tree.0)
                    .u32(page.0)
                    .u64(undo_next.0)
                    .bytes(key.as_ref())
                    .bytes(data.as_ref());
            }
            LogRecord::EagerStamp {
                tree,
                page,
                key,
                ts,
            } => {
                w.u8(K_EAGER_STAMP)
                    .u32(tree.0)
                    .u32(page.0)
                    .u64(ts.ttime)
                    .u32(ts.sn)
                    .bytes(key.as_ref());
            }
            LogRecord::PageImages { pages } => {
                w.u8(K_PAGE_IMAGES).u32(pages.len() as u32);
                for (id, img) in pages {
                    w.u32(id.0).bytes(img.as_ref());
                }
            }
            LogRecord::CheckpointBegin => {
                w.u8(K_CKPT_BEGIN);
            }
            LogRecord::CheckpointEnd { att, dpt } => {
                w.u8(K_CKPT_END).u32(att.len() as u32);
                for (tid, lsn) in att {
                    w.u64(tid.0).u64(lsn.0);
                }
                w.u32(dpt.len() as u32);
                for (page, lsn) in dpt {
                    w.u32(page.0).u64(lsn.0);
                }
            }
        }
    }
}

impl LogRecord {
    pub fn decode(buf: &[u8]) -> Result<LogRecord> {
        let mut r = Reader::new(buf);
        let kind = r.u8()?;
        let rec = match kind {
            K_BEGIN => LogRecord::Begin,
            K_COMMIT => LogRecord::Commit {
                ts: Timestamp::new(r.u64()?, r.u32()?),
            },
            K_ABORT => LogRecord::Abort,
            K_END => LogRecord::End,
            K_ADD_VERSION => {
                let tree = TreeId(r.u32()?);
                let page = PageId(r.u32()?);
                let stub = r.u8()? != 0;
                let key = r.bytes()?.to_vec();
                let data = r.bytes()?.to_vec();
                LogRecord::AddVersion {
                    tree,
                    page,
                    key,
                    data,
                    stub,
                }
            }
            K_CLR_POP_VERSION => LogRecord::ClrPopVersion {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                undo_next: Lsn(r.u64()?),
                key: r.bytes()?.to_vec(),
            },
            K_INSERT => LogRecord::InsertRecord {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                key: r.bytes()?.to_vec(),
                data: r.bytes()?.to_vec(),
            },
            K_UPDATE => LogRecord::UpdateRecord {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                key: r.bytes()?.to_vec(),
                old: r.bytes()?.to_vec(),
                new: r.bytes()?.to_vec(),
            },
            K_DELETE => LogRecord::DeleteRecord {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                key: r.bytes()?.to_vec(),
                old: r.bytes()?.to_vec(),
            },
            K_CLR_DELETE => LogRecord::ClrDeleteRecord {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                undo_next: Lsn(r.u64()?),
                key: r.bytes()?.to_vec(),
            },
            K_CLR_UPDATE => LogRecord::ClrUpdateRecord {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                undo_next: Lsn(r.u64()?),
                key: r.bytes()?.to_vec(),
                data: r.bytes()?.to_vec(),
            },
            K_CLR_INSERT => LogRecord::ClrInsertRecord {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                undo_next: Lsn(r.u64()?),
                key: r.bytes()?.to_vec(),
                data: r.bytes()?.to_vec(),
            },
            K_EAGER_STAMP => LogRecord::EagerStamp {
                tree: TreeId(r.u32()?),
                page: PageId(r.u32()?),
                ts: Timestamp::new(r.u64()?, r.u32()?),
                key: r.bytes()?.to_vec(),
            },
            K_PAGE_IMAGES => {
                let n = r.u32()? as usize;
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    let id = PageId(r.u32()?);
                    pages.push((id, r.bytes()?.to_vec()));
                }
                LogRecord::PageImages { pages }
            }
            K_CKPT_BEGIN => LogRecord::CheckpointBegin,
            K_CKPT_END => {
                let n = r.u32()? as usize;
                let mut att = Vec::with_capacity(n);
                for _ in 0..n {
                    att.push((Tid(r.u64()?), Lsn(r.u64()?)));
                }
                let m = r.u32()? as usize;
                let mut dpt = Vec::with_capacity(m);
                for _ in 0..m {
                    dpt.push((PageId(r.u32()?), Lsn(r.u64()?)));
                }
                LogRecord::CheckpointEnd { att, dpt }
            }
            other => {
                return Err(Error::Corruption(format!(
                    "unknown log record kind {other}"
                )));
            }
        };
        r.expect_end()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode(rec: &LogRecord) -> Vec<u8> {
        let mut w = Writer::new();
        rec.encode_into(&mut w);
        w.finish()
    }

    fn roundtrip(rec: LogRecord) {
        let dec = LogRecord::decode(&encode(&rec)).unwrap();
        assert_eq!(rec, dec);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(LogRecord::Begin);
        roundtrip(LogRecord::Commit {
            ts: Timestamp::new(12345, 9),
        });
        roundtrip(LogRecord::Abort);
        roundtrip(LogRecord::End);
        roundtrip(LogRecord::AddVersion {
            tree: TreeId(3),
            page: PageId(17),
            key: b"key".to_vec(),
            data: b"value".to_vec(),
            stub: true,
        });
        roundtrip(LogRecord::ClrPopVersion {
            tree: TreeId(3),
            page: PageId(17),
            key: b"key".to_vec(),
            undo_next: Lsn(42),
        });
        roundtrip(LogRecord::InsertRecord {
            tree: TreeId(1),
            page: PageId(2),
            key: b"k".to_vec(),
            data: b"d".to_vec(),
        });
        roundtrip(LogRecord::UpdateRecord {
            tree: TreeId(1),
            page: PageId(2),
            key: b"k".to_vec(),
            old: b"o".to_vec(),
            new: b"n".to_vec(),
        });
        roundtrip(LogRecord::DeleteRecord {
            tree: TreeId(1),
            page: PageId(2),
            key: b"k".to_vec(),
            old: b"o".to_vec(),
        });
        roundtrip(LogRecord::ClrDeleteRecord {
            tree: TreeId(1),
            page: PageId(2),
            key: b"k".to_vec(),
            undo_next: Lsn(1),
        });
        roundtrip(LogRecord::ClrUpdateRecord {
            tree: TreeId(1),
            page: PageId(2),
            key: b"k".to_vec(),
            data: b"o".to_vec(),
            undo_next: Lsn(1),
        });
        roundtrip(LogRecord::ClrInsertRecord {
            tree: TreeId(1),
            page: PageId(2),
            key: b"k".to_vec(),
            data: b"o".to_vec(),
            undo_next: Lsn(1),
        });
        roundtrip(LogRecord::EagerStamp {
            tree: TreeId(2),
            page: PageId(4),
            key: b"ek".to_vec(),
            ts: Timestamp::new(80, 3),
        });
        roundtrip(LogRecord::PageImages {
            pages: vec![(PageId(5), vec![1, 2, 3]), (PageId(6), vec![4, 5])],
        });
        roundtrip(LogRecord::CheckpointBegin);
        roundtrip(LogRecord::CheckpointEnd {
            att: vec![(Tid(1), Lsn(10)), (Tid(2), Lsn(20))],
            dpt: vec![(PageId(3), Lsn(5))],
        });
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(LogRecord::decode(&[200]).is_err());
        assert!(LogRecord::decode(&[]).is_err());
        // Trailing bytes rejected.
        let mut enc = encode(&LogRecord::Begin);
        enc.push(0);
        assert!(LogRecord::decode(&enc).is_err());
    }

    #[test]
    fn clr_classification() {
        let clr: LogRecord = LogRecord::ClrPopVersion {
            tree: TreeId(1),
            page: PageId(1),
            key: vec![],
            undo_next: Lsn(7),
        };
        assert!(clr.is_clr());
        assert_eq!(clr.undo_next(), Some(Lsn(7)));
        assert!(!LogRecord::<&[u8]>::Begin.is_clr());
        assert_eq!(LogRecord::<&[u8]>::Begin.undo_next(), None);
    }

    #[test]
    fn target_page_classification() {
        let rec = LogRecord::AddVersion {
            tree: TreeId(1),
            page: PageId(8),
            key: vec![1],
            data: vec![],
            stub: false,
        };
        assert_eq!(rec.target_page(), Some(PageId(8)));
        assert_eq!(LogRecord::<&[u8]>::CheckpointBegin.target_page(), None);
        // PageImages applies to many pages; handled specially.
        let imgs: LogRecord = LogRecord::PageImages { pages: vec![] };
        assert_eq!(imgs.target_page(), None);
    }
}
