//! Blocking readiness waits for the server's threads: `poll(2)` over
//! a set of sockets, and a [`Waker`] that interrupts such a wait from
//! another thread.
//!
//! `poll` is declared by hand (the build is std-only, so there is no
//! `libc` crate); its one call is the only `unsafe` in `cned-serve`.
//! The constants and the `pollfd` layout are the same on Linux, macOS
//! and the BSDs; only `nfds_t` differs in width.

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Data may be read without blocking.
pub(crate) const POLLIN: c_short = 0x001;
/// Data may be written without blocking.
pub(crate) const POLLOUT: c_short = 0x004;
/// An error is pending (always reported, never requested).
pub(crate) const POLLERR: c_short = 0x008;
/// The peer hung up (always reported, never requested).
pub(crate) const POLLHUP: c_short = 0x010;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::os::raw::c_uint;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Wait on `fd` for `events`. With no events the entry is
    /// disabled (`fd = -1`): the kernel would otherwise still report
    /// `POLLHUP`/`POLLERR` for it, and a loop that is not ready to act
    /// on that socket would wake for it again and again.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }

    /// The events the last [`poll`] reported for this entry.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    #[link_name = "poll"]
    fn sys_poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`:
/// no timeout). Returns the number of ready entries; an interrupted
/// wait returns 0, like a timeout, and the caller simply looks again.
/// The timeout rounds up to whole milliseconds so a wait never ends
/// before its deadline.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: c_int = match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    };
    let nfds = NfdsT::try_from(fds.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many poll entries"))?;
    // SAFETY: `fds` is a live, exclusively borrowed slice of
    // `#[repr(C)]` `pollfd` records and `nfds` is its length, so the
    // kernel reads and writes only inside it, and only for the
    // duration of the call.
    let ready = unsafe { sys_poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if ready >= 0 {
        return Ok(ready as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(err)
    }
}

/// Interrupts another thread's `poll(2)`: that thread waits on one
/// end of a non-blocking socket pair beside its sockets, and
/// [`Waker::wake`] writes a byte to the other end. Waking never
/// blocks, and a wake sent while the thread is busy is not lost: it
/// stays pending until the thread drains the pair before its next
/// look at its own state. Only the first wake after a drain writes:
/// later ones find a wake already pending and skip the syscall, so a
/// busy scheduler answering many requests pings a loop once per sweep,
/// not once per answer.
///
/// The server pings an event loop's waker when an answer to one of
/// its requests is ready, when the accept thread hands it a
/// connection, when a replica it serves has a write to stream, and at
/// shutdown. A [`crate::server::ReplicaHub`] receives the waker of
/// each subscribing loop and must call [`Waker::wake`] after every
/// op it sends.
#[derive(Debug)]
pub struct Waker {
    tx: UnixStream,
    rx: UnixStream,
    /// Set by the first wake after the last drain, which writes the
    /// byte; cleared by the drain.
    pending: AtomicBool,
}

impl Waker {
    /// A fresh waker with no wake pending.
    pub(crate) fn new() -> io::Result<Waker> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        Ok(Waker {
            tx,
            rx,
            pending: AtomicBool::new(false),
        })
    }

    /// Make the waiting thread's next (or current) `poll` return.
    /// Never blocks. Call it after publishing what the wake announces:
    /// the release here pairs with the acquire in the waiting thread's
    /// drain.
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            // A full pair (`WouldBlock`) already holds a pending wake.
            let _ = (&self.tx).write(&[1]);
        }
    }

    /// The descriptor to wait on for [`POLLIN`].
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consume every pending wake. Call it before looking at the
    /// state the wakes announce, so a wake sent after the look is
    /// still pending at the next wait.
    ///
    /// The bytes go first and the flag after: a wake that finds the
    /// flag still set skips its write, and is then covered either by
    /// the byte of the wake that set the flag (written after the
    /// previous drain, so not yet read) or by the acquire below, which
    /// makes what it announced visible to the look that follows.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.rx).read(&mut buf) {
                Ok(n) if n > 0 => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                _ => break,
            }
        }
        self.pending.swap(false, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn a_wait_with_nothing_ready_times_out() {
        let waker = Waker::new().unwrap();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        let start = Instant::now();
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(fds[0].revents(), 0);
    }

    #[test]
    fn a_wake_from_another_thread_ends_an_unbounded_wait() {
        let waker = Arc::new(Waker::new().unwrap());
        let remote = Arc::clone(&waker);
        let pinger = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            remote.wake();
        });
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert_ne!(fds[0].revents() & POLLIN, 0);
        pinger.join().unwrap();
    }

    #[test]
    fn wakes_before_a_drain_coalesce_and_a_wake_after_it_is_pending() {
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake();
        }
        let mut buf = [0u8; 64];
        // One byte for all of them.
        assert_eq!((&waker.rx).read(&mut buf).unwrap(), 1);
        waker.drain();
        let mut fds = [PollFd::new(waker.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        waker.wake();
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
    }

    #[test]
    fn an_entry_without_events_is_disabled() {
        let waker = Waker::new().unwrap();
        waker.wake();
        let mut fds = [PollFd::new(waker.fd(), 0)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert_eq!(fds[0].fd, -1);
    }
}
