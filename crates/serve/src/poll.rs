//! `poll(2)` readiness for the daemon's event loop and the router's accept
//! thread, declared straight against the C library std already links (no
//! crate). Level-triggered: a descriptor left unread or unwritten reports
//! ready again on the next call, so a caller never loses an event by
//! handling only part of it.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_short};
use std::time::Duration;

/// Data to read (or a hang-up to observe by reading).
pub(crate) const POLLIN: c_short = 0x001;
/// Room in the send buffer.
pub(crate) const POLLOUT: c_short = 0x004;

/// Linux's `nfds_t`.
#[cfg(target_os = "linux")]
type Nfds = std::os::raw::c_ulong;
/// The BSDs' (and macOS's) `nfds_t`.
#[cfg(not(target_os = "linux"))]
type Nfds = std::os::raw::c_uint;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    /// Filled by the kernel: the requested events that are ready, plus
    /// `POLLERR` / `POLLHUP` / `POLLNVAL`, which are always reported.
    pub(crate) revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: RawFd, events: c_short) -> Self {
        PollFd { fd, events, revents: 0 }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until one of `fds` is ready or `timeout` passes (`None` waits
/// forever) and returns how many are ready. Sub-millisecond remainders
/// round up, so a deadline is never polled for early and then spun on.
/// A signal interrupting the wait counts as a timeout.
///
/// # Errors
/// `poll` itself failed (`EINVAL`, `ENOMEM`).
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms =
        timeout.map_or(-1, |t| c_int::try_from(t.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX));
    let nfds = Nfds::try_from(fds.len()).expect("poll set fits nfds_t");
    // SAFETY: `fds` is a live, exclusively borrowed slice of `#[repr(C)]`
    // `struct pollfd`s and `nfds` is its exact length; the kernel writes
    // only the `revents` fields inside it.
    let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if ready < 0 {
        let error = io::Error::last_os_error();
        return if error.kind() == io::ErrorKind::Interrupted { Ok(0) } else { Err(error) };
    }
    Ok(ready as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readable_and_times_out_when_idle() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(fds[0].revents, 0);

        tx.write_all(&[1]).unwrap();
        assert_eq!(wait(&mut fds, None).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_not_down() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), POLLIN)];
        let start = Instant::now();
        assert_eq!(wait(&mut fds, Some(Duration::from_micros(300))).unwrap(), 0);
        assert!(start.elapsed() >= Duration::from_micros(300));
    }
}
