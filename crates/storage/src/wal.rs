//! Write-ahead log manager.
//!
//! Framing per record: `len:u32 | crc:u32 | body`, where `body` is
//! `tid:u64 | prev_lsn:u64 | encoded LogRecord`, `len = body.len()` and
//! `crc = crc32(body)`. A record's LSN is the file offset of its length
//! field, so LSNs are strictly increasing and recovery can seek directly.
//! A torn tail (zero length, truncated body, CRC mismatch) cleanly ends
//! the scan.
//!
//! Appends accumulate in an in-memory buffer, each record encoded once,
//! straight into it; [`Wal::flush`] writes (and optionally fsyncs) it.
//! The buffer pool calls [`Wal::flush_to`] before writing any page,
//! enforcing the WAL rule.
//!
//! The log ends at the written LSN, not at the file's length: the
//! commit sync keeps a chunk of zeros ahead of the records (see
//! `EXTEND_CHUNK`), which a zero length field ends like any torn tail,
//! open cuts off and a clean close ([`Wal::trim_tail`]) truncates.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex, MutexGuard};

use immortaldb_common::codec::{crc32, Writer};
use immortaldb_common::{blocking, Error, Lsn, Result, Tid};
use immortaldb_obs::MetricsRegistry;

use crate::logrec::LogRecord;
use crate::vfs::{std_fs, Vfs, VfsFile};

/// Size of the per-record frame header (`len` + `crc`).
const FRAME_HDR: u64 = 8;
/// Body prefix: `tid` + `prev_lsn`.
const BODY_HDR: usize = 16;
/// File magic at offset 0; real LSNs therefore start at 8, keeping LSN 0
/// unambiguous as [`immortaldb_common::NULL_LSN`].
const WAL_MAGIC: &[u8; 8] = b"IMDBWAL1";
/// First valid record LSN.
pub const WAL_START: Lsn = Lsn(8);
/// Zeros the commit sync keeps written ahead of the log's end. A sync
/// that only overwrites blocks the file already holds changes neither
/// its size nor its block map, so its `fdatasync` needs no file-system
/// journal commit; one that appends needs one on every commit. Once
/// less than half a chunk is left, a commit sync writes the next chunk.
const EXTEND_CHUNK: usize = 1 << 20;
/// The chunk's source, so that an extension allocates nothing.
static ZEROS: [u8; EXTEND_CHUNK] = [0; EXTEND_CHUNK];

/// Durability level applied when flushing the log at commit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Durability {
    /// Write to the OS page cache only; fsync happens at checkpoints.
    /// Survives process crashes (the failure model of the experiments) but
    /// not OS crashes since the last checkpoint.
    Buffered,
    /// fsync on every commit.
    Fsync,
}

/// Group-commit setting for [`Wal::commit_durable`].
///
/// With group commit enabled, concurrent committers share fsyncs through
/// a leader/follower barrier: the first committer to reach the barrier
/// becomes the leader and syncs once for everyone queued behind it.
/// Batches form while a sync is in flight — committers that arrive during
/// the leader's fsync pile up and are covered by the next leader's single
/// sync — so a lone committer never waits for company.
#[derive(Clone, Copy, Debug)]
pub struct GroupCommitConfig {
    pub enabled: bool,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig { enabled: true }
    }
}

struct WalInner {
    /// File offset where the in-memory buffer begins: the length written
    /// to the file, which is durable only once a sync has covered it
    /// (under `Durability::Buffered` that waits for a checkpoint).
    buf_start: u64,
    buf: Vec<u8>,
    /// End of the file's zero-filled room for the log: the end of the
    /// last extension, or the log's end at open. At or below `buf_start`
    /// once the log outgrew it (or never extended).
    owned_end: u64,
}

/// Shared state of the commit barrier, guarded by `GroupBarrier::inner`.
struct GroupInner {
    /// A leader currently owns the sync (it writes and fsyncs with the
    /// barrier unlocked; this keeps the sync single-flight).
    leader_active: bool,
    /// A leader's failed sync attempt: `(attempted end LSN, error)`.
    /// Every committer whose records the attempt covered must see the
    /// error — no one in a failed batch is acknowledged. Cleared once a
    /// later successful sync covers the attempted LSN.
    failed: Option<(u64, String)>,
}

struct GroupBarrier {
    inner: Mutex<GroupInner>,
    /// Signalled when a sync attempt (success or failure) completes.
    done: Condvar,
}

/// The write-ahead log.
pub struct Wal {
    path: PathBuf,
    /// The VFS the log (and the recovery master record next to it) lives
    /// on.
    vfs: Arc<dyn Vfs>,
    file: Arc<dyn VfsFile>,
    inner: Mutex<WalInner>,
    /// Highest LSN guaranteed written to the file (not necessarily
    /// fsynced).
    written_lsn: AtomicU64,
    /// Highest LSN known fsynced, by whichever sync of the log
    /// ([`Wal::sync_file`]) covered it.
    durable_lsn: AtomicU64,
    /// Committers currently inside `commit_durable` (sizes batches for
    /// the `wal.batch_size` metric; includes threads still blocked on the
    /// barrier mutex).
    commit_waiters: AtomicU64,
    group_cfg: GroupCommitConfig,
    group: GroupBarrier,
    metrics: MetricsRegistry,
}

/// A decoded WAL entry together with its framing metadata.
#[derive(Debug, Clone)]
pub struct WalEntry {
    pub lsn: Lsn,
    pub tid: Tid,
    pub prev_lsn: Lsn,
    pub record: LogRecord,
    /// LSN of the next record (this record's end offset).
    pub next_lsn: Lsn,
}

impl Wal {
    /// Open (or create) the log at `path`, positioned to append after the
    /// last complete record. Records into a private metrics registry; use
    /// [`Self::with_metrics`] to share the engine-wide one.
    pub fn open(path: impl AsRef<Path>) -> Result<Wal> {
        Self::with_metrics(path, MetricsRegistry::new())
    }

    /// [`Self::open`], recording into a shared registry.
    pub fn with_metrics(path: impl AsRef<Path>, metrics: MetricsRegistry) -> Result<Wal> {
        Self::open_with(std_fs(), path, metrics)
    }

    /// [`Self::open`] through the given VFS.
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        metrics: MetricsRegistry,
    ) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let file = vfs.open(&path)?;
        if file.len()? < WAL_START.0 {
            file.set_len(0)?;
            file.write_all_at(WAL_MAGIC, 0)?;
        } else {
            let mut magic = [0u8; 8];
            file.read_exact_at(&mut magic, 0)?;
            if &magic != WAL_MAGIC {
                return Err(Error::Corruption("WAL magic mismatch".into()));
            }
        }
        // Find the end of the valid prefix so a torn tail is overwritten.
        let end = scan_valid_end(file.as_ref())?;
        file.set_len(end)?;
        metrics.wal.end_lsn.set(end);
        Ok(Wal {
            path,
            vfs,
            file,
            inner: Mutex::new(WalInner {
                buf_start: end,
                buf: Vec::with_capacity(64 * 1024),
                owned_end: end,
            }),
            written_lsn: AtomicU64::new(end),
            durable_lsn: AtomicU64::new(0),
            commit_waiters: AtomicU64::new(0),
            group_cfg: GroupCommitConfig::default(),
            group: GroupBarrier {
                inner: Mutex::new(GroupInner {
                    leader_active: false,
                    failed: None,
                }),
                done: Condvar::new(),
            },
            metrics,
        })
    }

    /// Configure the group-commit barrier (call before sharing the log
    /// across threads; the engine sets this from `DbConfig::group_commit`
    /// at open).
    pub fn set_group_commit(&mut self, cfg: GroupCommitConfig) {
        self.group_cfg = cfg;
    }

    /// The active group-commit configuration.
    pub fn group_commit(&self) -> GroupCommitConfig {
        self.group_cfg
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The VFS this log lives on (also used for the recovery master
    /// record, which sits next to the log file).
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The registry this log records into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Append a record; returns its LSN. The record is buffered — call
    /// [`Self::flush`] (or let the buffer pool's WAL-rule flush do it) to
    /// make it durable. It is encoded once, into the buffer: the frame
    /// header is reserved, the body written after it, and the header
    /// filled in from the body in place.
    pub fn append(&self, tid: Tid, prev_lsn: Lsn, record: &LogRecord<&[u8]>) -> Lsn {
        let mut inner = self.inner.lock();
        let at = inner.buf.len();
        let lsn = Lsn(inner.buf_start + at as u64);
        let mut w = Writer::from(std::mem::take(&mut inner.buf));
        w.raw(&[0; FRAME_HDR as usize]).u64(tid.0).u64(prev_lsn.0);
        record.encode_into(&mut w);
        inner.buf = w.finish();
        let body = &inner.buf[at + FRAME_HDR as usize..];
        let (len, crc) = (body.len() as u32, crc32(body));
        inner.buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
        inner.buf[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
        let end = inner.buf_start + inner.buf.len() as u64;
        self.metrics.wal.appends.inc();
        self.metrics.wal.bytes.add(end - lsn.0);
        self.metrics.wal.end_lsn.set(end);
        lsn
    }

    /// The LSN one past the last appended record (the "end of log"). Used
    /// for the VTT `stable_lsn` bookkeeping that gates PTT GC.
    pub fn end_lsn(&self) -> Lsn {
        let inner = self.inner.lock();
        Lsn(inner.buf_start + inner.buf.len() as u64)
    }

    /// Highest LSN written to the file.
    pub fn written_lsn(&self) -> Lsn {
        Lsn(self.written_lsn.load(Ordering::SeqCst))
    }

    /// Write the whole buffer out (optionally fsync).
    ///
    /// The buffer is only consumed once the write succeeds: a failed (or
    /// torn) write leaves it intact, and the positioned rewrite at
    /// `buf_start` on the next flush is idempotent.
    pub fn flush(&self, durability: Durability) -> Result<()> {
        if durability == Durability::Fsync {
            blocking::about_to_block();
        }
        // Held through the sync: no append lands between write and fsync.
        let inner = self.write_buffer()?;
        if durability == Durability::Fsync {
            self.sync_file(Lsn(inner.buf_start))?;
        }
        Ok(())
    }

    /// One fsync of the log file, counted and timed, after everything
    /// below `covered` was written: the one place [`Self::durable_lsn`]
    /// advances, and only when the sync succeeds.
    fn sync_file(&self, covered: Lsn) -> Result<()> {
        self.metrics.wal.fsyncs.inc();
        let _timer = self.metrics.wal.fsync_ns.start_timer();
        self.file.sync()?;
        self.durable_lsn.fetch_max(covered.0, Ordering::SeqCst);
        self.metrics.wal.durable_lsn.raise(covered.0);
        Ok(())
    }

    /// Write the buffer out without fsyncing, and return the buffer
    /// lock: everything below its `buf_start` is in the file. A group
    /// leader drops the lock and fsyncs while new appends proceed — that
    /// overlap is what lets the next batch form during the current
    /// batch's fsync; [`Self::flush`] syncs with it held.
    fn write_buffer(&self) -> Result<MutexGuard<'_, WalInner>> {
        let mut inner = self.inner.lock();
        if !inner.buf.is_empty() {
            let start = inner.buf_start;
            self.file.write_all_at(&inner.buf, start)?;
            inner.buf_start += inner.buf.len() as u64;
            inner.buf.clear();
            let start = inner.buf_start;
            self.written_lsn.store(start, Ordering::SeqCst);
        }
        Ok(inner)
    }

    /// [`Self::write_buffer`] for a commit sync: once less than half of
    /// [`EXTEND_CHUNK`] of zero-filled room is left past the written
    /// end, the next chunk of zeros goes strictly past it, so the sync
    /// that follows makes them durable and the syncs after it only
    /// overwrite. A write that outran the room by more than half a chunk
    /// (a bulk load's commit) grows the file whatever follows it, and
    /// zeros behind it would only double its flush: it takes the file's
    /// new end as the room's, and the next commit sync extends. A failed
    /// extension fails no commit by itself: it is retried by the next
    /// commit sync, and a fault it meant reaches the sync that follows.
    fn write_buffer_ahead(&self) -> Result<MutexGuard<'_, WalInner>> {
        const HALF: u64 = EXTEND_CHUNK as u64 / 2;
        let mut inner = self.write_buffer()?;
        if inner.owned_end + HALF < inner.buf_start {
            inner.owned_end = inner.buf_start;
        } else if inner.owned_end < inner.buf_start + HALF {
            let at = inner.owned_end.max(inner.buf_start);
            if self.file.write_all_at(&ZEROS, at).is_ok() {
                inner.owned_end = at + EXTEND_CHUNK as u64;
                self.metrics.wal.extensions.inc();
            }
        }
        Ok(inner)
    }

    /// Write the buffer out and cut the file at the log's end, dropping
    /// the zeros the commit sync wrote ahead: a cleanly closed log is
    /// its records and nothing after them. Anything appended later
    /// extends the file again.
    pub fn trim_tail(&self) -> Result<()> {
        let mut inner = self.write_buffer()?;
        if inner.owned_end > inner.buf_start {
            self.file.set_len(inner.buf_start)?;
            inner.owned_end = inner.buf_start;
        }
        Ok(())
    }

    /// Highest LSN known durable: covered by a successful fsync of the
    /// log, a commit's, a group leader's or a [`Self::flush`]'s.
    pub fn durable_lsn(&self) -> Lsn {
        Lsn(self.durable_lsn.load(Ordering::SeqCst))
    }

    /// Make everything up to `upto` durable at the given durability level,
    /// sharing fsyncs between concurrent committers when group commit is
    /// enabled (the commit barrier).
    ///
    /// `Buffered` just writes the buffer (the off-switch semantics of
    /// [`Durability`] are preserved: with group commit disabled, `Fsync`
    /// falls back to one [`Self::flush`]` + fsync per caller). Returns
    /// only once the caller's records at or below `upto` are durable, or
    /// with the error of the sync attempt that covered them — a failed
    /// batch acknowledges nobody.
    pub fn commit_durable(&self, upto: Lsn, durability: Durability) -> Result<()> {
        if durability == Durability::Buffered {
            return self.flush(Durability::Buffered);
        }
        if !self.group_cfg.enabled {
            blocking::about_to_block();
            let inner = self.write_buffer_ahead()?;
            return self.sync_file(Lsn(inner.buf_start));
        }
        // Fast path: a leader already synced past us.
        if self.durable_lsn.load(Ordering::SeqCst) >= upto.0 {
            return Ok(());
        }
        // Before parking in the barrier, not inside it: whoever takes
        // over this thread's other work may bring the next commit of the
        // same batch.
        blocking::about_to_block();
        self.commit_waiters.fetch_add(1, Ordering::SeqCst);
        let res = self.commit_barrier(upto);
        self.commit_waiters.fetch_sub(1, Ordering::SeqCst);
        res
    }

    fn commit_barrier(&self, upto: Lsn) -> Result<()> {
        let mut g = self.group.inner.lock();
        loop {
            if let Some((attempted, msg)) = &g.failed {
                // Our records were part of a sync attempt that failed:
                // all-or-nothing, nobody in that batch commits.
                if *attempted >= upto.0 {
                    return Err(Error::Io(std::io::Error::other(format!(
                        "group commit batch failed: {msg}"
                    ))));
                }
            }
            if self.durable_lsn().0 >= upto.0 {
                return Ok(());
            }
            if !g.leader_active {
                // Become the leader for the next batch.
                g.leader_active = true;
                let batch = self.commit_waiters.load(Ordering::SeqCst).max(1);
                // Sync with the barrier UNLOCKED: committers arriving
                // during the fsync append their records and park, forming
                // the next batch, and followers satisfied by an earlier
                // sync drain without waiting on us. `leader_active` keeps
                // the sync single-flight.
                drop(g);
                let res = match self.write_buffer_ahead().map(|inner| Lsn(inner.buf_start)) {
                    Ok(covered) => {
                        // Failed fsync: exactly the records the write
                        // covered were attempted and are not durable.
                        self.sync_file(covered).map_err(|e| (covered.0, e))
                    }
                    // Failed write: the buffer (everything appended so
                    // far) stays queued; treat it all as attempted.
                    Err(e) => Err((self.end_lsn().0, e)),
                };
                g = self.group.inner.lock();
                match res {
                    Ok(()) => {
                        if let Some((attempted, _)) = g.failed {
                            if attempted <= self.durable_lsn().0 {
                                g.failed = None;
                            }
                        }
                        self.metrics.wal.group_commits.inc();
                        self.metrics.wal.batch_size.observe(batch);
                    }
                    Err((attempted, e)) => {
                        // No committer whose records the attempt covered
                        // may be acknowledged: all-or-nothing per batch.
                        g.failed = Some((attempted.max(self.durable_lsn().0), e.to_string()));
                    }
                }
                g.leader_active = false;
                self.group.done.notify_all();
                // Loop to observe the outcome exactly like a follower
                // would (our own records were covered by the attempt).
            } else {
                self.group.done.wait(&mut g);
            }
        }
    }

    /// Ensure everything up to and including `lsn` is in the file (the
    /// WAL rule, called by the buffer pool before page writes).
    pub fn flush_to(&self, lsn: Lsn) -> Result<()> {
        if self.written_lsn().0 > lsn.0 {
            return Ok(());
        }
        self.flush(Durability::Buffered)
    }

    /// Iterate over all complete records starting at `from`, up to the
    /// log's end when called (it writes the buffer out first).
    pub fn iter_from(&self, from: Lsn) -> Result<WalIter> {
        // Make sure everything appended so far is scannable.
        self.flush(Durability::Buffered)?;
        Ok(WalIter {
            file: Arc::clone(&self.file),
            pos: from.0.max(WAL_START.0),
            end: self.written_lsn().0,
        })
    }

    /// Read and decode the single record at `lsn`.
    pub fn read_at(&self, lsn: Lsn) -> Result<WalEntry> {
        let mut it = self.iter_from(lsn)?;
        it.next()
            .transpose()?
            .ok_or_else(|| Error::Corruption(format!("no log record at {lsn:?}")))
    }

    /// Read raw, frame-aligned log bytes starting at `from` for WAL
    /// shipping: flushes the append buffer, then returns up to
    /// `max_bytes` of *complete* records (always at least one whole
    /// record when any exists, so a record larger than the budget still
    /// ships) together with the LSN just past them. An empty slice with
    /// `next == from` means the subscriber is caught up. Bounded by the
    /// written LSN, never the file's length: past it lie zeros, or a
    /// record still being written. Announces its file reads through
    /// [`blocking::about_to_block`]; a caught-up call reads nothing and
    /// does not.
    pub fn read_raw(&self, from: Lsn, max_bytes: usize) -> Result<(Vec<u8>, Lsn)> {
        self.flush(Durability::Buffered)?;
        let end = self.written_lsn().0;
        let start = from.0.max(WAL_START.0);
        if start + FRAME_HDR <= end {
            // There is log to read, and reading it may wait on the disk.
            blocking::about_to_block();
        }
        let mut pos = start;
        while pos + FRAME_HDR <= end {
            let mut hdr = [0u8; 8];
            self.file.read_exact_at(&mut hdr, pos)?;
            let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as u64;
            if len == 0 || pos + FRAME_HDR + len > end {
                // Never ship a torn tail (only possible under fault
                // injection; normal flushes end on record boundaries).
                break;
            }
            let next = pos + FRAME_HDR + len;
            if pos > start && (next - start) as usize > max_bytes {
                break;
            }
            pos = next;
        }
        let mut buf = vec![0u8; (pos - start) as usize];
        if !buf.is_empty() {
            self.file.read_exact_at(&mut buf, start)?;
        }
        Ok((buf, Lsn(pos)))
    }

    /// Replication apply: append raw frame-aligned bytes shipped from a
    /// primary at exactly offset `at` (which must be the current end of
    /// this log). The local append buffer must be empty — replicas never
    /// write their own records — so the shipped file stays a
    /// byte-identical prefix of the primary's and primary LSNs remain
    /// valid here. Returns the new end-of-log LSN.
    pub fn append_raw(&self, at: Lsn, bytes: &[u8]) -> Result<Lsn> {
        let mut inner = self.inner.lock();
        if !inner.buf.is_empty() {
            return Err(Error::Internal(
                "append_raw: local records buffered on a replica log".into(),
            ));
        }
        if at.0 != inner.buf_start {
            return Err(Error::Corruption(format!(
                "replication stream out of order: batch starts at {}, log ends at {}",
                at.0, inner.buf_start
            )));
        }
        self.file.write_all_at(bytes, at.0)?;
        inner.buf_start += bytes.len() as u64;
        self.written_lsn.store(inner.buf_start, Ordering::SeqCst);
        self.metrics.wal.end_lsn.set(inner.buf_start);
        Ok(Lsn(inner.buf_start))
    }
}

/// Sequential reader over the log file (shares the writer's handle;
/// positioned reads carry no cursor state).
pub struct WalIter {
    file: Arc<dyn VfsFile>,
    pos: u64,
    end: u64,
}

impl WalIter {
    fn read_exact_at(&mut self, buf: &mut [u8], off: u64) -> Result<()> {
        self.file.read_exact_at(buf, off)
    }
}

impl Iterator for WalIter {
    type Item = Result<WalEntry>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + FRAME_HDR > self.end {
            return None;
        }
        let mut hdr = [0u8; 8];
        if let Err(e) = self.read_exact_at(&mut hdr, self.pos) {
            return Some(Err(e));
        }
        let len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as u64;
        let crc = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
        if len == 0 || self.pos + FRAME_HDR + len > self.end {
            // Torn tail: end of valid log.
            return None;
        }
        let mut body = vec![0u8; len as usize];
        if let Err(e) = self.read_exact_at(&mut body, self.pos + FRAME_HDR) {
            return Some(Err(e));
        }
        if crc32(&body) != crc {
            // Corrupt/torn record ends the scan.
            return None;
        }
        let tid = Tid(u64::from_le_bytes(body[0..8].try_into().unwrap()));
        let prev_lsn = Lsn(u64::from_le_bytes(body[8..16].try_into().unwrap()));
        let record = match LogRecord::decode(&body[BODY_HDR..]) {
            Ok(r) => r,
            Err(e) => return Some(Err(e)),
        };
        let lsn = Lsn(self.pos);
        self.pos += FRAME_HDR + len;
        Some(Ok(WalEntry {
            lsn,
            tid,
            prev_lsn,
            record,
            next_lsn: Lsn(self.pos),
        }))
    }
}

/// Scan the file from the start and return the offset just past the last
/// complete, CRC-valid record.
fn scan_valid_end(file: &dyn VfsFile) -> Result<u64> {
    let len = file.len()?;
    let mut pos = WAL_START.0;
    loop {
        if pos + FRAME_HDR > len {
            return Ok(pos);
        }
        let mut hdr = [0u8; 8];
        file.read_exact_at(&mut hdr, pos)?;
        let rec_len = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) as u64;
        let crc = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
        if rec_len == 0 || pos + FRAME_HDR + rec_len > len {
            return Ok(pos);
        }
        let mut body = vec![0u8; rec_len as usize];
        file.read_exact_at(&mut body, pos + FRAME_HDR)?;
        if crc32(&body) != crc {
            return Ok(pos);
        }
        pos += FRAME_HDR + rec_len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use immortaldb_common::{PageId, Timestamp, TreeId};
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("immortal-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn append_flush_iterate() {
        let path = tmp("basic");
        let wal = Wal::open(&path).unwrap();
        let l1 = wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        let l2 = wal.append(
            Tid(1),
            l1,
            &LogRecord::AddVersion {
                tree: TreeId(5),
                page: PageId(3),
                key: b"k",
                data: b"v",
                stub: false,
            },
        );
        let l3 = wal.append(
            Tid(1),
            l2,
            &LogRecord::Commit {
                ts: Timestamp::new(20, 0),
            },
        );
        assert!(l1 < l2 && l2 < l3);
        wal.flush(Durability::Fsync).unwrap();
        let entries: Vec<_> = wal.iter_from(Lsn(0)).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].record, LogRecord::Begin);
        assert_eq!(entries[1].prev_lsn, l1);
        assert_eq!(entries[2].lsn, l3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_at_fetches_single_record() {
        let path = tmp("readat");
        let wal = Wal::open(&path).unwrap();
        wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        let l2 = wal.append(Tid(1), Lsn(0), &LogRecord::Abort);
        wal.flush(Durability::Buffered).unwrap();
        let e = wal.read_at(l2).unwrap();
        assert_eq!(e.record, LogRecord::Abort);
        assert_eq!(e.tid, Tid(1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_trimmed_on_reopen() {
        let path = tmp("torn");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
            wal.append(Tid(1), Lsn(0), &LogRecord::End);
            wal.flush(Durability::Fsync).unwrap();
        }
        // Simulate a torn write: append garbage bytes.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0xFF, 0x03, 0x00, 0x00, 0xAA]).unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        let entries: Vec<_> = wal.iter_from(Lsn(0)).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 2);
        // New appends land where the garbage was.
        let l = wal.append(Tid(2), Lsn(0), &LogRecord::Begin);
        wal.flush(Durability::Buffered).unwrap();
        let entries: Vec<_> = wal.iter_from(Lsn(0)).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].lsn, l);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_every_truncation_point_replays_prefix() {
        // Cut the file at every byte offset inside the last two records —
        // both hard truncation and garbage-fill (a torn sector write) —
        // and assert reopen replays exactly the records whose bytes fully
        // survive, ignoring the tail.
        let path = tmp("everyoff");
        let wal = Wal::open(&path).unwrap();
        wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        let l2 = wal.append(
            Tid(1),
            Lsn(0),
            &LogRecord::Commit {
                ts: Timestamp::new(20, 0),
            },
        );
        let l3 = wal.append(Tid(1), l2, &LogRecord::End);
        wal.flush(Durability::Fsync).unwrap();
        let end = wal.end_lsn();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        assert_eq!(full.len() as u64, end.0);
        for cut in l2.0..end.0 {
            let expect = if cut >= l3.0 { 2 } else { 1 };
            // Hard truncation at `cut`.
            std::fs::write(&path, &full[..cut as usize]).unwrap();
            let wal = Wal::open(&path).unwrap();
            let n = wal.iter_from(Lsn(0)).unwrap().fold(0, |n, e| {
                e.unwrap();
                n + 1
            });
            assert_eq!(n, expect, "truncated at {cut}");
            drop(wal);
            // Garbage tail: the cut record's remaining bytes replaced.
            let mut garbled = full.clone();
            garbled[cut as usize..].fill(0xAA);
            std::fs::write(&path, &garbled).unwrap();
            let wal = Wal::open(&path).unwrap();
            let n = wal.iter_from(Lsn(0)).unwrap().fold(0, |n, e| {
                e.unwrap();
                n + 1
            });
            assert_eq!(n, expect, "garbled from {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_record_ends_scan() {
        let path = tmp("crc");
        {
            let wal = Wal::open(&path).unwrap();
            wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
            let l2 = wal.append(Tid(1), Lsn(0), &LogRecord::End);
            wal.flush(Durability::Fsync).unwrap();
            // Flip a byte inside the second record's body.
            use std::os::unix::fs::FileExt;
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0x77], l2.0 + FRAME_HDR + 2).unwrap();
        }
        let wal = Wal::open(&path).unwrap();
        let entries: Vec<_> = wal.iter_from(Lsn(0)).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_to_honors_wal_rule() {
        let path = tmp("rule");
        let wal = Wal::open(&path).unwrap();
        let l1 = wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        assert_eq!(wal.written_lsn(), WAL_START);
        wal.flush_to(l1).unwrap();
        assert!(wal.written_lsn() > l1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn end_lsn_tracks_appends() {
        let path = tmp("endlsn");
        let wal = Wal::open(&path).unwrap();
        let e0 = wal.end_lsn();
        wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        assert!(wal.end_lsn() > e0);
        std::fs::remove_file(&path).unwrap();
    }

    /// The LSN just past a single appended record (commit_durable's wait
    /// target for that record).
    fn past(wal: &Wal, tid: u64) -> Lsn {
        let lsn = wal.append(Tid(tid), Lsn(0), &LogRecord::Begin);
        Lsn(lsn.0 + 1)
    }

    #[test]
    fn group_commit_batches_under_contention() {
        // 8 committer threads on the default config: far fewer fsyncs
        // than commits, and at least one multi-committer batch — formed
        // by committers that arrive while a leader's fsync is in flight.
        let path = tmp("gcbatch");
        let wal = std::sync::Arc::new(Wal::open(&path).unwrap());
        let threads: u64 = 8;
        let per: u64 = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                let wal = std::sync::Arc::clone(&wal);
                s.spawn(move || {
                    for i in 0..per {
                        let upto = past(&wal, t * 1000 + i);
                        wal.commit_durable(upto, Durability::Fsync).unwrap();
                        assert!(wal.durable_lsn() >= upto);
                    }
                });
            }
        });
        let m = wal.metrics();
        let commits = threads * per;
        assert!(
            m.wal.fsyncs.get() < commits,
            "no batching: {} fsyncs for {commits} commits",
            m.wal.fsyncs.get()
        );
        assert!(m.wal.group_commits.get() >= 1);
        assert!(
            m.wal.batch_size.snapshot().max >= 2,
            "no batch ever had more than one committer"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_adds_no_latency_for_lone_committer() {
        // A single committer behaves like a plain fsync: there is no
        // window in which a leader waits for followers.
        let path = tmp("gczero");
        let wal = Wal::open(&path).unwrap();
        assert!(wal.group_commit().enabled);
        let upto = past(&wal, 1);
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        assert!(wal.durable_lsn() >= upto);
        let m = wal.metrics();
        assert_eq!(m.wal.group_commits.get(), 1);
        assert_eq!(m.wal.batch_size.snapshot().max, 1);
        assert_eq!(m.wal.leader_waits_ns.snapshot().count, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_disabled_falls_back_to_per_commit_fsync() {
        let path = tmp("gcoff");
        let mut wal = Wal::open(&path).unwrap();
        wal.set_group_commit(GroupCommitConfig { enabled: false });
        for i in 0..5 {
            let upto = past(&wal, i);
            wal.commit_durable(upto, Durability::Fsync).unwrap();
        }
        let m = wal.metrics();
        assert_eq!(m.wal.fsyncs.get(), 5);
        assert_eq!(m.wal.group_commits.get(), 0);
        // Each commit's own sync moved the durable LSN and its gauge.
        assert_eq!(wal.durable_lsn(), wal.end_lsn());
        assert_eq!(m.wal.durable_lsn.get(), wal.end_lsn().0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_forced_flush_moves_the_durable_lsn_and_a_buffered_one_does_not() {
        let path = tmp("flushdurable");
        let wal = Wal::open(&path).unwrap();
        let m = wal.metrics().clone();
        past(&wal, 0);
        wal.flush(Durability::Buffered).unwrap();
        assert_eq!(wal.durable_lsn(), Lsn(0));
        assert_eq!(m.wal.durable_lsn.get(), 0);
        wal.flush(Durability::Fsync).unwrap();
        assert_eq!(wal.durable_lsn(), wal.end_lsn());
        assert_eq!(m.wal.durable_lsn.get(), wal.end_lsn().0);
        // A commit the forced flush already covered syncs nothing more.
        let upto = wal.end_lsn();
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        assert_eq!(m.wal.fsyncs.get(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn iter_stops_at_torn_tail_and_resumes_after_next_flush() {
        // The shipper's core loop: an iterator taken while a torn tail
        // sits past the valid prefix must stop cleanly (no error), and a
        // fresh iterator from the stop point must pick up the records the
        // next flush lays down over the garbage.
        let path = tmp("resume");
        let wal = Wal::open(&path).unwrap();
        wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        let l2 = wal.append(Tid(1), Lsn(0), &LogRecord::End);
        wal.flush(Durability::Fsync).unwrap();
        let valid_end = wal.end_lsn();
        // Torn tail: garbage written past the valid prefix, as a crashed
        // writer would leave it (bypassing the Wal's own buffer).
        wal.file
            .write_all_at(&[0x2C, 0x00, 0x00, 0x00, 0xAA, 0xBB], valid_end.0)
            .unwrap();
        let mut it = wal.iter_from(Lsn(0)).unwrap();
        let mut last_end = Lsn(0);
        let mut n = 0;
        for e in &mut it {
            let e = e.unwrap();
            last_end = e.next_lsn;
            n += 1;
        }
        assert_eq!(n, 2, "torn tail must end the scan cleanly");
        assert_eq!(last_end, valid_end);
        assert!(last_end > l2);
        // Writer keeps going: the next flush overwrites the garbage.
        let l3 = wal.append(Tid(2), Lsn(0), &LogRecord::Begin);
        let l4 = wal.append(Tid(2), l3, &LogRecord::Abort);
        wal.flush(Durability::Buffered).unwrap();
        // Resume exactly where the last scan stopped: a fresh iterator
        // (iter_from snapshots the log's end) sees only the new records.
        let resumed: Vec<_> = wal
            .iter_from(last_end)
            .unwrap()
            .map(|e| e.unwrap())
            .collect();
        assert_eq!(resumed.len(), 2);
        assert_eq!(resumed[0].lsn, l3);
        assert_eq!(resumed[1].lsn, l4);
        assert_eq!(resumed[1].record, LogRecord::Abort);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_raw_ships_whole_records_within_budget() {
        let path = tmp("readraw");
        let wal = Wal::open(&path).unwrap();
        let l1 = wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        let l2 = wal.append(Tid(1), l1, &LogRecord::End);
        let l3 = wal.append(Tid(2), Lsn(0), &LogRecord::Begin);
        let end = wal.end_lsn();
        // Tiny budget: still ships the first whole record.
        let (bytes, next) = wal.read_raw(WAL_START, 1).unwrap();
        assert_eq!(next, l2);
        assert_eq!(bytes.len() as u64, l2.0 - l1.0);
        // Budget for two records exactly.
        let (bytes, next) = wal.read_raw(WAL_START, (l3.0 - l1.0) as usize).unwrap();
        assert_eq!(next, l3);
        assert_eq!(bytes.len() as u64, l3.0 - l1.0);
        // Large budget: everything; then caught-up returns empty.
        let (bytes, next) = wal.read_raw(WAL_START, 1 << 20).unwrap();
        assert_eq!(next, end);
        assert_eq!(bytes.len() as u64, end.0 - WAL_START.0);
        let (bytes, next) = wal.read_raw(end, 1 << 20).unwrap();
        assert!(bytes.is_empty());
        assert_eq!(next, end);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_raw_replays_byte_identical_prefix() {
        let src = tmp("rawsrc");
        let dst = tmp("rawdst");
        let primary = Wal::open(&src).unwrap();
        let l1 = primary.append(Tid(1), Lsn(0), &LogRecord::Begin);
        primary.append(
            Tid(1),
            l1,
            &LogRecord::Commit {
                ts: Timestamp::new(40, 1),
            },
        );
        let replica = Wal::open(&dst).unwrap();
        // Ship in two batches and verify LSN-for-LSN equality.
        let (b1, n1) = primary.read_raw(WAL_START, 1).unwrap();
        assert_eq!(replica.append_raw(WAL_START, &b1).unwrap(), n1);
        // Out-of-order batch is rejected.
        assert!(replica.append_raw(WAL_START, &b1).is_err());
        let (b2, n2) = primary.read_raw(n1, 1 << 20).unwrap();
        assert_eq!(replica.append_raw(n1, &b2).unwrap(), n2);
        let a: Vec<_> = primary
            .iter_from(Lsn(0))
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.lsn, e.tid, e.record)
            })
            .collect();
        let b: Vec<_> = replica
            .iter_from(Lsn(0))
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.lsn, e.tid, e.record)
            })
            .collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        std::fs::remove_file(&src).unwrap();
        std::fs::remove_file(&dst).unwrap();
    }

    #[test]
    fn end_and_durable_lsn_gauges_track_log_state() {
        let path = tmp("gauges");
        let wal = Wal::open(&path).unwrap();
        let m = wal.metrics().clone();
        assert_eq!(m.wal.end_lsn.get(), WAL_START.0);
        let upto = past(&wal, 1);
        assert_eq!(m.wal.end_lsn.get(), wal.end_lsn().0);
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        assert_eq!(m.wal.durable_lsn.get(), wal.durable_lsn().0);
        assert!(m.wal.durable_lsn.get() >= upto.0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_commit_buffered_durability_skips_fsync() {
        let path = tmp("gcbuf");
        let wal = Wal::open(&path).unwrap();
        let upto = past(&wal, 1);
        wal.commit_durable(upto, Durability::Buffered).unwrap();
        // Written to the file (scannable) but never fsynced.
        assert!(wal.written_lsn() >= upto);
        assert_eq!(wal.metrics().wal.fsyncs.get(), 0);
        let n = wal.iter_from(Lsn(0)).unwrap().count();
        assert_eq!(n, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_killed_log_with_a_zero_tail_reopens_at_its_last_whole_record() {
        let path = tmp("zerotail");
        let wal = Wal::open(&path).unwrap();
        let l1 = wal.append(Tid(1), Lsn(0), &LogRecord::Begin);
        let upto = past(&wal, 2);
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        assert_eq!(wal.metrics().wal.extensions.get(), 1);
        let end = wal.written_lsn();
        let len = |p: &PathBuf| std::fs::metadata(p).unwrap().len();
        assert_eq!(len(&path), end.0 + EXTEND_CHUNK as u64);
        // Killed mid-write: a record's header and the start of its body
        // landed inside the zeros, the rest of it did not.
        let torn = LogRecord::AddVersion {
            tree: TreeId(5),
            page: PageId(3),
            key: &b"key"[..],
            data: &[0xAB; 64][..],
            stub: false,
        };
        let torn_at = wal.append(Tid(3), Lsn(0), &torn);
        let frame = wal.inner.lock().buf.clone();
        assert_eq!(frame.len() as u64, wal.end_lsn().0 - torn_at.0);
        wal.file.write_all_at(&frame[..40], torn_at.0).unwrap();
        drop(wal);

        let wal = Wal::open(&path).unwrap();
        assert_eq!(wal.end_lsn(), end, "reopened past the last whole record");
        assert_eq!(len(&path), end.0, "open cuts the zeros and the torn record");
        let lsns: Vec<_> = wal
            .iter_from(Lsn(0))
            .unwrap()
            .map(|e| e.unwrap().lsn)
            .collect();
        assert_eq!(lsns, [l1, Lsn(upto.0 - 1)]);
        // LSNs continue where the whole records end, and the first
        // commit sync extends again.
        let next = wal.append(Tid(4), Lsn(0), &LogRecord::Abort);
        assert_eq!(next, end);
        wal.commit_durable(Lsn(next.0 + 1), Durability::Fsync)
            .unwrap();
        assert_eq!(wal.metrics().wal.extensions.get(), 1);
        let entries: Vec<_> = wal.iter_from(Lsn(0)).unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[2].lsn, next);
        assert_eq!(entries[2].record, LogRecord::Abort);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn commit_syncs_extend_by_chunks_and_trim_cuts_the_zeros() {
        let path = tmp("extend");
        let wal = Wal::open(&path).unwrap();
        let image = [0x5Au8; immortaldb_common::PAGE_SIZE];
        let record = LogRecord::PageImages {
            pages: vec![(PageId(7), &image[..])],
        };
        let len = |p: &PathBuf| std::fs::metadata(p).unwrap().len();
        // Buffered flushes and log forces never extend.
        wal.append(Tid(1), Lsn(0), &record);
        wal.flush(Durability::Buffered).unwrap();
        wal.flush(Durability::Fsync).unwrap();
        assert_eq!(wal.metrics().wal.extensions.get(), 0);
        assert_eq!(len(&path), wal.written_lsn().0);
        // Commit syncs keep between half a chunk and a chunk and a half
        // of zeros ahead of the written end.
        for i in 0..300 {
            let lsn = wal.append(Tid(2), Lsn(0), &record);
            wal.commit_durable(Lsn(lsn.0 + 1), Durability::Fsync)
                .unwrap();
            let (written, file) = (wal.written_lsn().0, len(&path));
            let ahead = file - written;
            assert!(
                ahead >= EXTEND_CHUNK as u64 / 2 && ahead <= 3 * EXTEND_CHUNK as u64 / 2,
                "commit {i}: {ahead} bytes ahead"
            );
        }
        let logged = wal.written_lsn().0 - WAL_START.0;
        let chunks = wal.metrics().wal.extensions.get();
        assert!(
            chunks >= 2 && chunks <= 1 + logged / EXTEND_CHUNK as u64,
            "{chunks} extensions"
        );
        // A bulk commit that outruns the room grows the file and writes
        // no zeros behind itself; the next small commit sync extends.
        let mut upto = Lsn(0);
        for _ in 0..300 {
            upto = Lsn(wal.append(Tid(3), Lsn(0), &record).0 + 1);
        }
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        assert_eq!(wal.metrics().wal.extensions.get(), chunks);
        assert_eq!(len(&path), wal.written_lsn().0);
        let upto = past(&wal, 4);
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        assert_eq!(wal.metrics().wal.extensions.get(), chunks + 1);
        assert_eq!(len(&path), wal.written_lsn().0 + EXTEND_CHUNK as u64);
        wal.trim_tail().unwrap();
        assert_eq!(len(&path), wal.end_lsn().0);
        assert_eq!(wal.iter_from(Lsn(0)).unwrap().count(), 602);
        std::fs::remove_file(&path).unwrap();
    }

    /// Parse `bytes` as whole log frames: every length field non-zero,
    /// every CRC valid, the last frame ending at the last byte. Returns
    /// how many there are.
    fn whole_frames(bytes: &[u8]) -> usize {
        let (mut pos, mut n) = (0, 0);
        while pos < bytes.len() {
            let hdr = &bytes[pos..pos + FRAME_HDR as usize];
            let len = u32::from_le_bytes(hdr[0..4].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
            assert!(len > 0, "a zero length field shipped at {pos}");
            let body = &bytes[pos + FRAME_HDR as usize..pos + FRAME_HDR as usize + len];
            assert_eq!(crc32(body), crc, "a torn record shipped at {pos}");
            pos += FRAME_HDR as usize + len;
            n += 1;
        }
        assert_eq!(pos, bytes.len(), "a batch ends inside a frame");
        n
    }

    #[test]
    fn concurrent_shipping_reads_stop_at_the_written_lsn() {
        // A shipper reading beside a committer that appends page images:
        // past the written LSN lie zeros or a record still being
        // written, and neither may ship.
        let path = tmp("shipping");
        let wal = Wal::open(&path).unwrap();
        let upto = past(&wal, 1);
        wal.commit_durable(upto, Durability::Fsync).unwrap();
        // First, a whole frame whose write is still in flight: its bytes
        // are in the file, the written LSN has not moved over them.
        let end = wal.written_lsn();
        let lsn = wal.append(Tid(2), Lsn(0), &LogRecord::Abort);
        assert_eq!(lsn, end);
        let frame = std::mem::take(&mut wal.inner.lock().buf);
        wal.file.write_all_at(&frame, end.0).unwrap();
        assert_eq!(wal.read_raw(end, 1 << 20).unwrap(), (vec![], end));
        assert_eq!(wal.iter_from(end).unwrap().count(), 0);
        // The write returns.
        wal.inner.lock().buf = frame.clone();
        wal.flush(Durability::Buffered).unwrap();
        assert_eq!(
            wal.read_raw(end, 1 << 20).unwrap(),
            (frame, wal.written_lsn())
        );

        const RECORDS: usize = 400;
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut image = [0u8; immortaldb_common::PAGE_SIZE];
                for i in 0..RECORDS {
                    image.fill(i as u8 | 1);
                    let record = LogRecord::PageImages {
                        pages: (0..4).map(|p| (PageId(p), &image[..])).collect(),
                    };
                    let lsn = wal.append(Tid(i as u64), Lsn(0), &record);
                    if i % 8 == 0 {
                        wal.commit_durable(Lsn(lsn.0 + 1), Durability::Fsync)
                            .unwrap();
                    } else {
                        wal.flush(Durability::Buffered).unwrap();
                    }
                }
                done.store(true, Ordering::SeqCst);
            });
            let (mut shipped, mut iterated) = (0, 0);
            let (mut raw_from, mut iter_from) = (end, end);
            loop {
                let finished = done.load(Ordering::SeqCst);
                let (bytes, next) = wal.read_raw(raw_from, 1 << 20).unwrap();
                assert!(next <= wal.written_lsn(), "shipped past the written LSN");
                assert_eq!(next.0 - raw_from.0, bytes.len() as u64);
                shipped += whole_frames(&bytes);
                raw_from = next;
                for e in wal.iter_from(iter_from).unwrap() {
                    let e = e.unwrap();
                    assert_eq!(e.lsn, iter_from, "the scan skipped a record");
                    iter_from = e.next_lsn;
                    iterated += 1;
                }
                assert!(
                    iter_from <= wal.written_lsn(),
                    "scanned past the written LSN"
                );
                if finished && raw_from == wal.written_lsn() {
                    break;
                }
            }
            assert_eq!(shipped, RECORDS + 1);
            assert_eq!(iterated, RECORDS + 1);
        });
        assert!(wal.metrics().wal.extensions.get() >= 2);
        std::fs::remove_file(&path).unwrap();
    }
}
