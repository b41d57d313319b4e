//! Minimal readiness-polling layer for the serving loop: raw `epoll`.
//! Declared directly against the system C library — no external crate —
//! because the loop needs exactly four calls and nothing else.
//!
//! The [`Poller`] is level-triggered: an event keeps firing while the
//! condition holds, so the loop may stop reading a socket mid-burst
//! (fairness, backpressure) or drop the rest of a batch, and pick it up
//! on the next wait. One thread at a time waits on a
//! `Poller` (the loop's leader); any thread may change registrations.
//! The [`Waker`] pipe registered with it gets the leader out of a wait.

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// What a registration wants to be told about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Nothing but hang-up and error, which cannot be masked. The serving
    /// loop deregisters instead, and uses this to mean "not registered".
    None,
    Read,
    Write,
    Both,
}

/// One readiness notification.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hangup or socket error: the connection is done regardless of
    /// buffered data.
    pub closed: bool,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// Mirrors glibc's `struct epoll_event`, which is packed on x86_64
/// (a 12-byte struct) and naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

fn mask(interest: Interest) -> u32 {
    let m = match interest {
        Interest::None => 0,
        Interest::Read => EPOLLIN,
        Interest::Write => EPOLLOUT,
        Interest::Both => EPOLLIN | EPOLLOUT,
    };
    // RDHUP lets a half-closed peer surface as `closed` instead of a
    // read returning 0 much later.
    m | EPOLLRDHUP
}

pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        // SAFETY: takes no pointer; a failure is the negative return.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: mask(interest),
            data: token,
        };
        let arg = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `arg` is null (DEL) or points at `ev`, which outlives
        // the call; `epfd` is this poller's open descriptor.
        if unsafe { epoll_ctl(self.epfd, op, fd, arg) } < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::None)
    }

    /// Wait for readiness, up to `timeout` (`None` = forever).
    /// Clears and refills `out`.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
        out.clear();
        let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
        let ms: c_int = match timeout {
            None => -1,
            // Round up so a 0 < t < 1ms deadline never busy-spins.
            Some(t) => {
                t.as_millis().min(i32::MAX as u128) as c_int
                    + if t.subsec_nanos() % 1_000_000 != 0 {
                        1
                    } else {
                        0
                    }
            }
        };
        // SAFETY: the kernel writes at most `buf.len()` events into `buf`,
        // a local array that outlives the call.
        let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), buf.len() as c_int, ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for ev in buf.iter().take(n as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: the poller owns `epfd` and closes it exactly once, here.
        unsafe {
            close(self.epfd);
        }
    }
}

/// Cross-thread wake-up for a [`Poller`]: a socketpair whose read end is
/// registered like any connection. `wake` writes one byte; the waiting
/// thread drains on readability. Writes into a full pipe are dropped — a wake
/// is already pending, which is all a wake means.
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
}

impl Waker {
    pub fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker { tx, rx })
    }

    /// Fd to register with the poller (read interest).
    pub fn fd(&self) -> RawFd {
        use std::os::unix::io::AsRawFd;
        self.rx.as_raw_fd()
    }

    pub fn wake(&self) {
        use std::io::Write;
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consume pending wake bytes (waiting side, on readability).
    pub fn drain(&self) {
        use std::io::Read;
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_sees_readable_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), 7, Interest::Read).unwrap();

        let mut events = Vec::new();
        // Nothing yet: times out empty.
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        (&a).write_all(b"x").unwrap();
        p.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));

        // Level-triggered: still readable until drained.
        p.wait(&mut events, Some(Duration::from_millis(100)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 8];
        let _ = (&b).read(&mut buf);

        // Parked interest goes silent.
        p.modify(b.as_raw_fd(), 7, Interest::None).unwrap();
        (&a).write_all(b"y").unwrap();
        p.wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == 7 && e.readable));

        // Re-armed interest sees the buffered byte again.
        p.modify(b.as_raw_fd(), 7, Interest::Read).unwrap();
        p.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        p.delete(b.as_raw_fd()).unwrap();
    }

    #[test]
    fn waker_round_trip() {
        let p = Poller::new().unwrap();
        let w = Waker::new().unwrap();
        p.add(w.fd(), 0, Interest::Read).unwrap();
        let mut events = Vec::new();
        w.wake();
        w.wake(); // coalesces
        p.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 0 && e.readable));
        w.drain();
        p.wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!events.iter().any(|e| e.token == 0 && e.readable));
    }

    #[test]
    fn hangup_is_reported_closed() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.add(b.as_raw_fd(), 3, Interest::Read).unwrap();
        drop(a);
        let mut events = Vec::new();
        p.wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.closed));
    }
}
