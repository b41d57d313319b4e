//! Virtual file system seam.
//!
//! Every byte the engine persists — data pages, WAL frames, the recovery
//! master record — flows through the [`Vfs`] / [`VfsFile`] traits instead
//! of `std::fs` directly. Production uses [`StdFs`] (a thin wrapper over
//! positioned `File` I/O); the chaos crate wraps any `Vfs` in a
//! deterministic fault injector to simulate torn writes, failed fsyncs,
//! transient read errors and mid-operation crashes without touching the
//! engine itself.
//!
//! The trait surface is deliberately tiny and positional (`pread`/
//! `pwrite` style): no seek state, so one handle can serve concurrent
//! readers and the writer. [`VfsFile::read_cached_at`] is the one read
//! that may decline: it answers only from what the OS already holds.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use immortaldb_common::Result;

/// An open file: positioned reads/writes plus durability control.
pub trait VfsFile: Send + Sync {
    /// Read exactly `buf.len()` bytes at `offset`.
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()>;
    /// Fill `buf` from `offset` only if that needs no wait for the
    /// device (the OS page cache holds every byte); `false` says nothing
    /// about the bytes, and the caller takes [`Self::read_exact_at`].
    /// The default always declines, so a wrapping VFS keeps every read
    /// on the path it instruments.
    fn read_cached_at(&self, _buf: &mut [u8], _offset: u64) -> bool {
        false
    }
    /// Write all of `data` at `offset`.
    fn write_all_at(&self, data: &[u8], offset: u64) -> Result<()>;
    /// Flush file contents to stable storage (`fdatasync`).
    fn sync(&self) -> Result<()>;
    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;
    /// True if the file is empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
    /// Truncate (or extend with zeroes) to `len` bytes.
    fn set_len(&self, len: u64) -> Result<()>;
}

/// A file system: opens files and provides the whole-file operations the
/// recovery master record needs (atomic replace).
pub trait Vfs: Send + Sync {
    /// Open `path` read-write, creating it if absent (never truncating).
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>>;
    /// Read an entire small file (master record). `Ok(None)` if absent.
    fn read_file(&self, path: &Path) -> Result<Option<Vec<u8>>>;
    /// Atomically replace `path` with `data` (write temp, fsync, rename).
    fn write_file_atomic(&self, path: &Path, data: &[u8]) -> Result<()>;
    /// Remove a file; absence is not an error.
    fn remove_file(&self, path: &Path) -> Result<()>;
    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The production VFS: `std::fs` with positioned I/O.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

/// A [`VfsFile`] over a real `std::fs::File`.
pub struct StdFile {
    file: File,
    /// The kernel refused `RWF_NOWAIT` on this file once: every later
    /// [`VfsFile::read_cached_at`] declines without asking.
    nowait_unsupported: AtomicBool,
}

impl VfsFile for StdFile {
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn read_cached_at(&self, buf: &mut [u8], offset: u64) -> bool {
        if self.nowait_unsupported.load(Ordering::Relaxed) {
            return false;
        }
        match nowait::pread(&self.file, buf, offset) {
            Ok(n) => n == buf.len(),
            Err(nowait::Refusal::NotCached) => false,
            Err(nowait::Refusal::Unsupported) => {
                self.nowait_unsupported.store(true, Ordering::Relaxed);
                false
            }
        }
    }

    fn write_all_at(&self, data: &[u8], offset: u64) -> Result<()> {
        self.file.write_all_at(data, offset)?;
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn set_len(&self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        Ok(())
    }
}

impl Vfs for StdFs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Arc::new(StdFile {
            file,
            nowait_unsupported: AtomicBool::new(false),
        }))
    }

    fn read_file(&self, path: &Path) -> Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_file_atomic(&self, path: &Path, data: &[u8]) -> Result<()> {
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    fn remove_file(&self, path: &Path) -> Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// `preadv2(…, RWF_NOWAIT)`: a positioned read that returns what the
/// page cache holds instead of waiting for the device. Declared directly
/// against the system C library, as the serving loop declares `epoll`.
mod nowait {
    use std::fs::File;

    /// Why a read did not answer.
    pub enum Refusal {
        /// Some byte was not cached (`EAGAIN`), or another error, which
        /// the blocking read then meets and reports: this read declines,
        /// the next may not.
        NotCached,
        /// The kernel or file system has no `RWF_NOWAIT` (`EOPNOTSUPP`,
        /// `EINVAL`, `ENOSYS`): no read on this file will answer.
        Unsupported,
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn pread(file: &File, buf: &mut [u8], offset: u64) -> Result<usize, Refusal> {
        use std::os::raw::{c_int, c_void};
        use std::os::unix::io::AsRawFd;

        /// `struct iovec`.
        #[repr(C)]
        struct IoVec {
            base: *mut c_void,
            len: usize,
        }
        const RWF_NOWAIT: c_int = 0x0000_0008;
        const EINVAL: i32 = 22;
        const ENOSYS: i32 = 38;
        const EOPNOTSUPP: i32 = 95;
        extern "C" {
            fn preadv2(
                fd: c_int,
                iov: *const IoVec,
                iovcnt: c_int,
                offset: i64,
                flags: c_int,
            ) -> isize;
        }

        let iov = IoVec {
            base: buf.as_mut_ptr().cast(),
            len: buf.len(),
        };
        // SAFETY: `iov` describes `buf`, which is valid for writes of
        // `buf.len()` bytes and borrowed mutably for the whole call; the
        // descriptor is `file`'s, open for as long as the borrow lasts.
        let n = unsafe { preadv2(file.as_raw_fd(), &iov, 1, offset as i64, RWF_NOWAIT) };
        if n >= 0 {
            return Ok(n as usize);
        }
        match std::io::Error::last_os_error().raw_os_error() {
            Some(EOPNOTSUPP | EINVAL | ENOSYS) => Err(Refusal::Unsupported),
            _ => Err(Refusal::NotCached),
        }
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    pub fn pread(_file: &File, _buf: &mut [u8], _offset: u64) -> Result<usize, Refusal> {
        Err(Refusal::Unsupported)
    }
}

/// The default VFS as a trait object (what every `open(path)` convenience
/// constructor uses).
pub fn std_fs() -> Arc<dyn Vfs> {
    Arc::new(StdFs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("immortal-vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn positioned_io_roundtrip() {
        let path = tmp("pos");
        let fs = StdFs;
        let f = fs.open(&path).unwrap();
        f.write_all_at(b"hello world", 0).unwrap();
        f.write_all_at(b"WORLD", 6).unwrap();
        let mut buf = [0u8; 11];
        f.read_exact_at(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"hello WORLD");
        assert_eq!(f.len().unwrap(), 11);
        f.set_len(5).unwrap();
        assert_eq!(f.len().unwrap(), 5);
        f.sync().unwrap();
        fs.remove_file(&path).unwrap();
        assert!(!fs.exists(&path));
    }

    #[test]
    fn cached_read_fills_only_from_the_page_cache() {
        let path = tmp("cached");
        let fs = StdFs;
        let f = fs.open(&path).unwrap();
        f.write_all_at(b"hello world", 0).unwrap();
        // Just written, so cached: the read answers, byte for byte.
        let mut buf = [0u8; 5];
        if cfg!(target_os = "linux") {
            assert!(f.read_cached_at(&mut buf, 6));
            assert_eq!(&buf, b"world");
        }
        // Past the end is short: declined, as an uncached read is.
        let mut past = [0u8; 8];
        assert!(!f.read_cached_at(&mut past, 8));
        fs.remove_file(&path).unwrap();
    }

    #[test]
    fn atomic_file_replace() {
        let path = tmp("atomic");
        let fs = StdFs;
        assert_eq!(fs.read_file(&path).unwrap(), None);
        fs.write_file_atomic(&path, b"v1").unwrap();
        assert_eq!(fs.read_file(&path).unwrap(), Some(b"v1".to_vec()));
        fs.write_file_atomic(&path, b"v2").unwrap();
        assert_eq!(fs.read_file(&path).unwrap(), Some(b"v2".to_vec()));
        fs.remove_file(&path).unwrap();
        // Removing a missing file is not an error.
        fs.remove_file(&path).unwrap();
    }
}
