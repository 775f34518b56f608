//! OS primitives for the daemon: a thin `poll(2)` wrapper and a
//! self-wakeup channel for the event loop, and a per-thread priority drop
//! for the compile workers.
//!
//! The build environment has no package registry, so there is no `mio` /
//! `libc` to lean on. We declare the `poll(2)` and `setpriority(2)` ABIs
//! ourselves (every Rust binary already links libc on these platforms);
//! their two `unsafe` calls, both here, are the only ones in the
//! workspace. Off Unix [`poll_wait`] degrades to a bounded sleep that
//! reports every descriptor ready; all socket I/O is nonblocking, so the
//! fallback costs spurious `WouldBlock` syscalls, never correctness. Off
//! Linux [`lower_thread_priority`] does nothing.

/// One descriptor's registered interest and, after [`poll_wait`], its
/// readiness.
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The raw descriptor.
    pub fd: RawFd,
    /// Interest: wake when readable.
    pub want_read: bool,
    /// Interest: wake when writable.
    pub want_write: bool,
    /// Result: the descriptor is readable (or at EOF/HUP — a read will
    /// not block either way).
    pub readable: bool,
    /// Result: the descriptor is writable.
    pub writable: bool,
    /// Result: error/hangup condition; the owner should try I/O and reap
    /// the connection on failure.
    pub error: bool,
}

impl PollFd {
    /// Register `fd` with the given interest, readiness cleared.
    pub fn new(fd: RawFd, want_read: bool, want_write: bool) -> PollFd {
        PollFd { fd, want_read, want_write, readable: false, writable: false, error: false }
    }
}

#[cfg(unix)]
pub use unix_impl::{poll_wait, RawFd, Waker};

#[cfg(unix)]
mod unix_impl {
    use super::PollFd;
    use std::io::{ErrorKind, Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Duration;

    /// Raw descriptor type (std's, re-exported so `mod net` stays
    /// platform-agnostic).
    pub type RawFd = std::os::fd::RawFd;

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;
    const POLLNVAL: i16 = 0x020;

    /// `struct pollfd` from `<poll.h>`: identical layout on every Unix we
    /// can run on (fd, events, revents — no padding surprises; the kernel
    /// ABI fixes it).
    #[repr(C)]
    struct RawPollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // int poll(struct pollfd *fds, nfds_t nfds, int timeout);
        // nfds_t is `unsigned long` on Linux and the BSDs.
        fn poll(
            fds: *mut RawPollFd,
            nfds: std::os::raw::c_ulong,
            timeout: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }

    /// Block until at least one registered descriptor is ready or the
    /// timeout elapses; fills in the readiness fields of `fds`. Returns
    /// the number of ready descriptors (0 = timeout).
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than `EINTR` (which is
    /// reported as a zero-ready wakeup so the caller just loops).
    pub fn poll_wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
        let mut raw: Vec<RawPollFd> = fds
            .iter()
            .map(|f| RawPollFd {
                fd: f.fd,
                events: if f.want_read { POLLIN } else { 0 }
                    | if f.want_write { POLLOUT } else { 0 },
                revents: 0,
            })
            .collect();
        let ms: i32 = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `raw` is a live, exclusively-borrowed slice of
        // `#[repr(C)]` pollfd records whose length is passed alongside;
        // poll(2) only writes the `revents` field of each record and
        // never retains the pointer past the call.
        let rc = unsafe { poll(raw.as_mut_ptr(), raw.len() as std::os::raw::c_ulong, ms) };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for (f, r) in fds.iter_mut().zip(&raw) {
            f.readable = r.revents & (POLLIN | POLLHUP) != 0;
            f.writable = r.revents & POLLOUT != 0;
            f.error = r.revents & (POLLERR | POLLNVAL | POLLHUP) != 0;
        }
        Ok(rc as usize)
    }

    /// A self-wakeup channel: the read end sits in the poll set, and any
    /// thread holding a [`Waker`] clone can make the poll return early by
    /// writing a byte. Built on a nonblocking `UnixStream` pair — a full
    /// pipe means a wakeup is already pending, so `WouldBlock` on the
    /// write side is success, not failure.
    pub struct Waker {
        write: UnixStream,
    }

    /// The pollable read side of a [`Waker`] pair.
    pub struct WakeReader {
        read: UnixStream,
    }

    impl Waker {
        /// Create the pair. The returned reader is registered with the
        /// poller; the writer is cloned into completion handles.
        pub fn pair() -> std::io::Result<(Waker, WakeReader)> {
            let (read, write) = UnixStream::pair()?;
            read.set_nonblocking(true)?;
            write.set_nonblocking(true)?;
            Ok((Waker { write }, WakeReader { read }))
        }

        /// Make the event loop's current (or next) poll return.
        pub fn wake(&self) {
            // Any outcome is fine: a written byte wakes the poller, a
            // full buffer means a wakeup is already pending, and a
            // closed pair means the loop is gone.
            let _ = (&self.write).write(&[1]);
        }
    }

    impl Clone for Waker {
        fn clone(&self) -> Waker {
            Waker { write: self.write.try_clone().expect("clone waker stream") }
        }
    }

    impl WakeReader {
        /// The descriptor to register for read interest.
        pub fn fd(&self) -> RawFd {
            self.read.as_raw_fd()
        }

        /// Swallow all pending wakeup bytes.
        pub fn drain(&mut self) {
            let mut buf = [0u8; 64];
            while matches!((&self.read).read(&mut buf), Ok(n) if n > 0) {}
        }
    }
}

/// Raise the calling thread's nice value to `nice` (lower its CPU
/// priority). On Linux, `setpriority(PRIO_PROCESS, 0, ..)` applies to the
/// calling thread only, so the rest of the process keeps its priority.
/// Failure is ignored: raising one's own nice value needs no privilege,
/// and a thread left at its old priority is still correct.
#[cfg(target_os = "linux")]
pub fn lower_thread_priority(nice: i32) {
    extern "C" {
        // int setpriority(int which, id_t who, int prio); id_t is u32.
        fn setpriority(
            which: std::os::raw::c_int,
            who: u32,
            prio: std::os::raw::c_int,
        ) -> std::os::raw::c_int;
    }
    const PRIO_PROCESS: std::os::raw::c_int = 0;
    // SAFETY: a plain syscall wrapper taking integers only; `who = 0`
    // names the calling thread.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, nice) };
}

/// Off Linux, thread priorities are left alone.
#[cfg(not(target_os = "linux"))]
pub fn lower_thread_priority(_nice: i32) {}

#[cfg(not(unix))]
pub use portable_impl::{poll_wait, RawFd, Waker};

#[cfg(not(unix))]
mod portable_impl {
    use super::PollFd;
    use std::time::Duration;

    /// Raw descriptor stand-in: readiness is not observable without an OS
    /// poller, so the value is never dereferenced — only carried.
    pub type RawFd = i64;

    /// Fallback "poller": sleep briefly, then report everything ready.
    /// All I/O in the event loop is nonblocking, so optimistic readiness
    /// costs spurious `WouldBlock`s, never blocking or lost events.
    ///
    /// # Errors
    ///
    /// Never fails.
    pub fn poll_wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        for f in fds.iter_mut() {
            f.readable = f.want_read;
            f.writable = f.want_write;
            f.error = false;
        }
        Ok(fds.len())
    }

    /// No-op waker: the fallback poller never sleeps more than 2 ms, so
    /// completions are picked up on the next tick anyway.
    #[derive(Clone)]
    pub struct Waker;

    /// The pollable side of the no-op waker.
    pub struct WakeReader;

    impl Waker {
        /// Create the (inert) pair.
        pub fn pair() -> std::io::Result<(Waker, WakeReader)> {
            Ok((Waker, WakeReader))
        }

        /// Nothing to wake: the fallback poll tick is the wakeup.
        pub fn wake(&self) {}
    }

    impl WakeReader {
        /// A sentinel descriptor (never polled on this platform).
        pub fn fd(&self) -> RawFd {
            -1
        }

        /// Nothing buffered to drain.
        pub fn drain(&mut self) {}
    }
}

#[cfg(not(unix))]
pub use portable_impl::WakeReader;
#[cfg(unix)]
pub use unix_impl::WakeReader;

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn waker_wakes_a_blocked_poll() {
        let (waker, mut reader) = Waker::pair().unwrap();
        let t0 = std::time::Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut fds = [PollFd::new(reader.fd(), true, false)];
        // Generous timeout: the wake must cut it short.
        poll_wait(&mut fds, Duration::from_secs(10)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(5), "wake cut the poll short");
        reader.drain();
        handle.join().unwrap();
    }

    #[test]
    fn poll_times_out_without_events() {
        let (_waker, reader) = Waker::pair().unwrap();
        let mut fds = [PollFd::new(reader.fd(), true, false)];
        let t0 = std::time::Instant::now();
        let n = poll_wait(&mut fds, Duration::from_millis(20)).unwrap();
        // Unix: a clean timeout reports zero ready; the portable fallback
        // reports optimistic readiness instead — both return promptly.
        assert!(t0.elapsed() < Duration::from_secs(5));
        let _ = n;
    }
}
