//! Deterministic fault-injecting VFS.
//!
//! [`FaultVfs`] wraps any [`Vfs`] and injects, from a single seed:
//!
//! * **torn writes** — a crashing write persists only a short prefix of
//!   its buffer, modelling a page write interrupted mid-sector;
//! * **fsync errors** — `sync` fails at a configurable rate while the
//!   preceding writes survive (the bytes reached the OS, the barrier
//!   didn't);
//! * **transient read errors** — `read_exact_at` fails at a configurable
//!   rate without corrupting anything;
//! * **crash cut-points** — after a chosen operation the whole "file
//!   system" goes offline: every subsequent operation fails until
//!   [`FaultState::clear_crash`], modelling a process kill. Bytes written
//!   before the cut survive; buffered engine state does not.
//!
//! All scheduling is deterministic per seed (the harness is
//! single-threaded), every injected fault is counted, and the counters
//! are mirrored into a shared [`MetricsRegistry`] (`faults.*`) so one
//! `SHOW STATS` snapshot covers the engine and the fault layer.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use immortaldb_common::{Error, Result};
use immortaldb_obs::MetricsRegistry;
use immortaldb_storage::vfs::{Vfs, VfsFile};

/// `crash_at` value meaning "no cut-point armed".
const DISARMED: u64 = u64::MAX;

/// How many bytes of a torn write actually reach the file. Short enough
/// that any page whose body changed fails CRC verification afterwards,
/// and any multi-frame WAL flush is cut mid-record.
pub const TEAR_PREFIX: usize = 128;

fn offline() -> Error {
    Error::Io(std::io::Error::other(
        "simulated crash: file system offline",
    ))
}

/// Shared mutable state of a [`FaultVfs`]: the operation counter, the
/// armed cut-point, the error rates and the fault counters. The harness
/// keeps a handle to arm crashes and read counters while the engine owns
/// the VFS.
pub struct FaultState {
    /// Mutating operations performed (writes, syncs, atomic file writes).
    ops: AtomicU64,
    /// Crash when `ops` reaches this value.
    crash_at: AtomicU64,
    /// Crash on the next write whose path contains this substring
    /// (e.g. `"data.idb"` to target a data-page write).
    crash_on_path: Mutex<Option<String>>,
    /// Whether the crashing write is torn (prefix persisted) or lost.
    tear_on_crash: AtomicBool,
    crashed: AtomicBool,
    /// Rate-based faults only fire while enabled (the harness disables
    /// them across recovery so reopening is deterministic).
    enabled: AtomicBool,
    read_error_rate: Mutex<f64>,
    fsync_error_rate: Mutex<f64>,
    rng: Mutex<StdRng>,
    pub torn_writes: AtomicU64,
    pub fsync_errors: AtomicU64,
    pub read_errors: AtomicU64,
    pub crashes: AtomicU64,
    metrics: Mutex<Option<MetricsRegistry>>,
}

impl FaultState {
    fn new(seed: u64) -> FaultState {
        FaultState {
            ops: AtomicU64::new(0),
            crash_at: AtomicU64::new(DISARMED),
            crash_on_path: Mutex::new(None),
            tear_on_crash: AtomicBool::new(false),
            crashed: AtomicBool::new(false),
            enabled: AtomicBool::new(true),
            read_error_rate: Mutex::new(0.0),
            fsync_error_rate: Mutex::new(0.0),
            rng: Mutex::new(StdRng::seed_from_u64(seed ^ 0xFA17_FA17_FA17_FA17)),
            torn_writes: AtomicU64::new(0),
            fsync_errors: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            metrics: Mutex::new(None),
        }
    }

    /// Mirror fault counters into `metrics.faults.*`.
    pub fn set_metrics(&self, metrics: MetricsRegistry) {
        *self.metrics.lock() = Some(metrics);
    }

    /// Probability that a read / fsync fails (while enabled).
    pub fn set_error_rates(&self, read: f64, fsync: f64) {
        *self.read_error_rate.lock() = read;
        *self.fsync_error_rate.lock() = fsync;
    }

    /// Enable rate-based faults and armed cut-points.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::SeqCst);
    }

    /// Disable all fault injection (pass-through), e.g. during recovery.
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::SeqCst);
    }

    /// Mutating operations performed so far.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Crash once `delta` more mutating operations have happened.
    pub fn arm_crash_in(&self, delta: u64, tear: bool) {
        self.crash_at.store(
            self.op_count().saturating_add(delta.max(1)),
            Ordering::SeqCst,
        );
        self.tear_on_crash.store(tear, Ordering::SeqCst);
    }

    /// Crash on the next write to a file whose path contains `substr`
    /// (`"data.idb"` targets a data-page write; `"wal"` a log write).
    pub fn arm_crash_on_write_to(&self, substr: &str, tear: bool) {
        *self.crash_on_path.lock() = Some(substr.to_string());
        self.tear_on_crash.store(tear, Ordering::SeqCst);
    }

    /// Trip the crash immediately (a plain process kill, no torn write).
    pub fn force_crash(&self) {
        self.trip();
    }

    /// Whether a crash has tripped and the VFS is offline.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Bring the "file system" back online (before reopening the engine);
    /// disarms any pending cut-point.
    pub fn clear_crash(&self) {
        self.crashed.store(false, Ordering::SeqCst);
        self.crash_at.store(DISARMED, Ordering::SeqCst);
        *self.crash_on_path.lock() = None;
        self.tear_on_crash.store(false, Ordering::SeqCst);
    }

    fn trip(&self) {
        if !self.crashed.swap(true, Ordering::SeqCst) {
            self.crashes.fetch_add(1, Ordering::SeqCst);
            if let Some(m) = self.metrics.lock().as_ref() {
                m.faults.crashes.inc();
            }
        }
    }

    fn count_torn(&self) {
        self.torn_writes.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.faults.torn_writes.inc();
        }
    }

    fn count_fsync_error(&self) {
        self.fsync_errors.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.faults.fsync_errors.inc();
        }
    }

    fn count_read_error(&self) {
        self.read_errors.fetch_add(1, Ordering::SeqCst);
        if let Some(m) = self.metrics.lock().as_ref() {
            m.faults.read_errors.inc();
        }
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Count one mutating op; true if it is the armed cut-point.
    fn tick_crashes(&self) -> bool {
        let op = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        self.enabled() && op >= self.crash_at.load(Ordering::SeqCst)
    }

    fn path_triggers_crash(&self, path: &Path) -> bool {
        if !self.enabled() {
            return false;
        }
        let guard = self.crash_on_path.lock();
        match guard.as_ref() {
            Some(sub) => path.to_string_lossy().contains(sub.as_str()),
            None => false,
        }
    }

    fn draw_read_error(&self) -> bool {
        if !self.enabled() {
            return false;
        }
        let rate = *self.read_error_rate.lock();
        rate > 0.0 && self.rng.lock().gen_bool(rate)
    }

    fn draw_fsync_error(&self) -> bool {
        if !self.enabled() {
            return false;
        }
        let rate = *self.fsync_error_rate.lock();
        rate > 0.0 && self.rng.lock().gen_bool(rate)
    }
}

/// A [`Vfs`] that injects deterministic faults around an inner VFS.
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultVfs {
    pub fn new(inner: Arc<dyn Vfs>, seed: u64) -> FaultVfs {
        FaultVfs {
            inner,
            state: Arc::new(FaultState::new(seed)),
        }
    }

    /// Wrap the production `std::fs` VFS.
    pub fn wrap_std(seed: u64) -> FaultVfs {
        FaultVfs::new(immortaldb_storage::vfs::std_fs(), seed)
    }

    /// Control handle shared with the harness.
    pub fn state(&self) -> Arc<FaultState> {
        Arc::clone(&self.state)
    }
}

struct FaultFile {
    inner: Arc<dyn VfsFile>,
    path: PathBuf,
    state: Arc<FaultState>,
}

impl FaultFile {
    /// Persist only [`TEAR_PREFIX`] bytes of the crashing write.
    fn tear(&self, data: &[u8], offset: u64) {
        let cut = TEAR_PREFIX.min(data.len().saturating_sub(1)).max(1);
        let _ = self.inner.write_all_at(&data[..cut], offset);
        self.state.count_torn();
    }
}

impl VfsFile for FaultFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        if self.state.crashed() {
            return Err(offline());
        }
        if self.state.draw_read_error() {
            self.state.count_read_error();
            return Err(Error::Io(std::io::Error::other(
                "injected transient read error",
            )));
        }
        self.inner.read_exact_at(buf, offset)
    }

    fn write_all_at(&self, data: &[u8], offset: u64) -> Result<()> {
        if self.state.crashed() {
            return Err(offline());
        }
        let cut_point = self.state.tick_crashes();
        let path_hit = self.state.path_triggers_crash(&self.path);
        if cut_point || path_hit {
            self.state.trip();
            if self.state.tear_on_crash.load(Ordering::SeqCst) {
                self.tear(data, offset);
            }
            return Err(offline());
        }
        self.inner.write_all_at(data, offset)
    }

    fn sync(&self) -> Result<()> {
        if self.state.crashed() {
            return Err(offline());
        }
        if self.state.tick_crashes() {
            self.state.trip();
            return Err(offline());
        }
        if self.state.draw_fsync_error() {
            self.state.count_fsync_error();
            return Err(Error::Io(std::io::Error::other("injected fsync failure")));
        }
        self.inner.sync()
    }

    fn len(&self) -> Result<u64> {
        if self.state.crashed() {
            return Err(offline());
        }
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        if self.state.crashed() {
            return Err(offline());
        }
        self.inner.set_len(len)
    }
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        if self.state.crashed() {
            return Err(offline());
        }
        Ok(Arc::new(FaultFile {
            inner: self.inner.open(path)?,
            path: path.to_path_buf(),
            state: Arc::clone(&self.state),
        }))
    }

    fn read_file(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        if self.state.crashed() {
            return Err(offline());
        }
        self.inner.read_file(path)
    }

    fn write_file_atomic(&self, path: &Path, data: &[u8]) -> Result<()> {
        if self.state.crashed() {
            return Err(offline());
        }
        // Atomic replace crashes whole (temp file + rename): the old
        // content survives, never a prefix.
        if self.state.tick_crashes() || self.state.path_triggers_crash(path) {
            self.state.trip();
            return Err(offline());
        }
        self.inner.write_file_atomic(path, data)
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        if self.state.crashed() {
            return Err(offline());
        }
        self.inner.remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TempDir;

    #[test]
    fn rate_faults_fire_and_are_counted() {
        let dir = TempDir::new("fault");
        let path = dir.path().join("rates");
        let vfs = FaultVfs::wrap_std(7);
        let state = vfs.state();
        state.set_error_rates(1.0, 1.0);
        let f = vfs.open(&path).unwrap();
        f.write_all_at(b"payload", 0).unwrap();
        let mut buf = [0u8; 7];
        assert!(f.read_exact_at(&mut buf, 0).is_err());
        assert!(f.sync().is_err());
        assert_eq!(state.read_errors.load(Ordering::SeqCst), 1);
        assert_eq!(state.fsync_errors.load(Ordering::SeqCst), 1);
        // Faults off: everything works again, nothing was corrupted.
        state.set_error_rates(0.0, 0.0);
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"payload");
        f.sync().unwrap();
    }

    #[test]
    fn cut_point_crash_takes_fs_offline_until_cleared() {
        let dir = TempDir::new("fault");
        let path = dir.path().join("cut");
        let vfs = FaultVfs::wrap_std(7);
        let state = vfs.state();
        let f = vfs.open(&path).unwrap();
        f.write_all_at(b"before", 0).unwrap();
        state.arm_crash_in(2, false);
        f.write_all_at(b"x", 6).unwrap(); // op 2 of 3: still fine
        assert!(f.write_all_at(b"lost", 7).is_err()); // cut-point
        assert!(state.crashed());
        assert_eq!(state.crashes.load(Ordering::SeqCst), 1);
        // Everything fails while offline.
        let mut buf = [0u8; 6];
        assert!(f.read_exact_at(&mut buf, 0).is_err());
        assert!(f.sync().is_err());
        assert!(vfs.open(&path).is_err());
        // Back online: pre-crash bytes survived, the lost write did not.
        state.clear_crash();
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"before");
        assert_eq!(f.len().unwrap(), 7);
    }

    #[test]
    fn torn_write_persists_only_a_prefix() {
        let dir = TempDir::new("fault");
        let path = dir.path().join("fault-tear");
        let vfs = FaultVfs::wrap_std(7);
        let state = vfs.state();
        let f = vfs.open(&path).unwrap();
        f.write_all_at(&vec![0xAAu8; 8192], 0).unwrap();
        state.arm_crash_on_write_to("fault-tear", true);
        assert!(f.write_all_at(&vec![0xBBu8; 8192], 0).is_err());
        assert_eq!(state.torn_writes.load(Ordering::SeqCst), 1);
        state.clear_crash();
        let mut buf = vec![0u8; 8192];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert!(buf[..TEAR_PREFIX].iter().all(|&b| b == 0xBB));
        assert!(buf[TEAR_PREFIX..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn determinism_per_seed() {
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let vfs = FaultVfs::wrap_std(1234);
                let state = vfs.state();
                state.set_error_rates(0.3, 0.0);
                let dir = TempDir::new("fault");
                let path = dir.path().join("det");
                let f = vfs.open(&path).unwrap();
                f.write_all_at(b"abcdef", 0).unwrap();
                let mut buf = [0u8; 6];
                (0..64)
                    .map(|_| f.read_exact_at(&mut buf, 0).is_err())
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].iter().any(|&e| e), "rate 0.3 over 64 draws");
        assert!(!runs[0].iter().all(|&e| e));
    }
}
