//! The reactor's readiness wait: block until the listener or a
//! connection is ready, for at most a bound.
//!
//! On Linux this is `ppoll(2)`, declared here because `std` already
//! links the C library — the one place in the workspace that calls
//! foreign code. Elsewhere the wait is a plain park for the bound, the
//! reactor's behaviour before it learned to wait on sockets.

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// One wait's interest set, rebuilt by the reactor before each wait.
#[derive(Default)]
pub(crate) struct PollSet {
    #[cfg(target_os = "linux")]
    fds: Vec<sys::PollFd>,
}

impl PollSet {
    /// Forgets the previous wait's interest.
    pub(crate) fn clear(&mut self) {
        #[cfg(target_os = "linux")]
        self.fds.clear();
    }

    /// Wakes the wait when a connection is pending on `listener`.
    pub(crate) fn listener(&mut self, listener: &TcpListener) {
        #[cfg(target_os = "linux")]
        self.push(std::os::fd::AsRawFd::as_raw_fd(listener), sys::POLLIN);
        #[cfg(not(target_os = "linux"))]
        let _ = listener;
    }

    /// Wakes the wait when `stream` is readable (`read`) or writable
    /// (`write`). A stream with neither is left out: the kernel would
    /// still report its hang-up, forever, and the reactor would spin.
    pub(crate) fn stream(&mut self, stream: &TcpStream, read: bool, write: bool) {
        #[cfg(target_os = "linux")]
        {
            let events = if read { sys::POLLIN } else { 0 } | if write { sys::POLLOUT } else { 0 };
            let fd = if events == 0 {
                -1 // ppoll skips a negative fd
            } else {
                std::os::fd::AsRawFd::as_raw_fd(stream)
            };
            self.push(fd, events);
        }
        #[cfg(not(target_os = "linux"))]
        let _ = (stream, read, write);
    }

    #[cfg(target_os = "linux")]
    fn push(&mut self, fd: std::os::raw::c_int, events: std::os::raw::c_short) {
        self.fds.push(sys::PollFd {
            fd,
            events,
            revents: 0,
        });
    }

    /// Blocks until something in the set is ready, or for `bound`. A
    /// signal ends the wait early like readiness does; any other
    /// failure of the wait itself sleeps `bound` instead, so a broken
    /// poll degrades to the old fixed park rather than a spin.
    pub(crate) fn wait(&mut self, bound: Duration) {
        #[cfg(target_os = "linux")]
        if sys::wait(&mut self.fds, bound).is_ok() {
            return;
        }
        std::thread::park_timeout(bound);
    }
}

#[cfg(target_os = "linux")]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
    use std::time::Duration;

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: c_int,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    /// `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
    }

    /// Waits on `fds` for at most `bound`; `EINTR` counts as a wake-up.
    pub(super) fn wait(fds: &mut [PollFd], bound: Duration) -> io::Result<()> {
        let timeout = Timespec {
            tv_sec: c_long::try_from(bound.as_secs()).unwrap_or(c_long::MAX),
            // Below 10^9, so it fits a `long` of any width.
            tv_nsec: bound.subsec_nanos() as c_long,
        };
        let nfds = c_ulong::try_from(fds.len()).expect("fd count fits nfds_t");
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` pollfd records and `nfds` is its length, so the
        // kernel reads and writes only inside it; `timeout` outlives the
        // call; a null sigmask keeps the signal mask unchanged.
        let ready = unsafe { ppoll(fds.as_mut_ptr(), nfds, &timeout, std::ptr::null()) };
        if ready >= 0 {
            return Ok(());
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            Ok(())
        } else {
            Err(err)
        }
    }
}
