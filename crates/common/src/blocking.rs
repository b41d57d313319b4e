//! The engine's "this thread is about to stop making progress" signal.
//!
//! A thread that multiplexes other work (the wire server's poll-loop
//! leader, `crates/net/src/reactor.rs`) installs a hook with
//! [`set_thread_hook`]; the engine calls [`about_to_block`] just before it
//! parks or does I/O that waits for a device, and [`about_to_run_long`]
//! before work whose length grows with the data. A read the OS page
//! cache answers is not a wait: the buffer pool asks for a page without
//! waiting first, and signals only when the device is needed. The hook must not block and must
//! not call back into the engine: call sites may hold an engine latch.
//! On every other thread both calls are a thread-local load and a branch.
//!
//! The call sites are listed, with the wait counter each one sits beside,
//! in DESIGN.md §8 ("Server runtime"); a new call site goes on that list.

use std::cell::Cell;

/// Why the calling thread is about to stop making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cause {
    /// It will park or wait for a device.
    Wait,
    /// It will run for a time that grows with the data it touches.
    Long,
}

thread_local! {
    static HOOK: Cell<Option<fn(Cause)>> = const { Cell::new(None) };
}

/// Install `hook` for the calling thread, for the rest of its life.
pub fn set_thread_hook(hook: fn(Cause)) {
    HOOK.set(Some(hook));
}

#[inline]
fn signal(cause: Cause) {
    if let Some(hook) = HOOK.get() {
        hook(cause);
    }
}

/// The calling thread is about to park or wait for a device.
#[inline]
pub fn about_to_block() {
    signal(Cause::Wait);
}

/// The calling thread is about to do work whose length grows with the
/// data: a scan, a checkpoint, a compaction pass.
#[inline]
pub fn about_to_run_long() {
    signal(Cause::Long);
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        static SEEN: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
    }

    fn count(cause: Cause) {
        let (wait, long) = SEEN.get();
        SEEN.set(match cause {
            Cause::Wait => (wait + 1, long),
            Cause::Long => (wait, long + 1),
        });
    }

    #[test]
    fn hook_is_per_thread_and_a_no_op_without_one() {
        about_to_block(); // no hook on this thread yet
        set_thread_hook(count);
        about_to_block();
        about_to_run_long();
        about_to_run_long();
        assert_eq!(SEEN.get(), (1, 2));
        std::thread::spawn(|| {
            about_to_block();
            assert_eq!(SEEN.get(), (0, 0));
        })
        .join()
        .unwrap();
    }
}
