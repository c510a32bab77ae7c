//! Minimal epoll, eventfd and signal-mask bindings via `extern "C"` libc
//! symbol declarations (std already links libc, so no dependency is
//! needed). Only the handful of calls the daemon needs are declared;
//! descriptors are wrapped in RAII types so they cannot leak.

use std::io;
use std::os::unix::io::RawFd;

/// Readable event.
pub const EPOLLIN: u32 = 0x001;
/// Writable event.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;
const EINTR: i32 = 4;
/// `pthread_sigmask`'s "add to the mask" (generic Linux: x86, Arm).
const SIG_BLOCK: i32 = 0;
const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

/// The kernel's `struct epoll_event`. Packed on x86-64 (the kernel ABI
/// quirk); naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Event mask (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen token identifying the fd.
    pub token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
    fn sigemptyset(set: *mut SignalSet) -> i32;
    fn sigaddset(set: *mut SignalSet, signum: i32) -> i32;
    fn pthread_sigmask(how: i32, set: *const SignalSet, old: *mut SignalSet) -> i32;
    fn sigwait(set: *const SignalSet, signum: *mut i32) -> i32;
}

fn last_errno() -> io::Error {
    io::Error::last_os_error()
}

/// An epoll instance (closed on drop).
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Create a close-on-exec epoll instance.
    pub fn new() -> io::Result<Self> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(last_errno());
        }
        Ok(Epoll { fd })
    }

    /// Register `fd` with the given interest mask and token.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change the interest mask of an already-registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    // No explicit deregistration: connections are removed by closing
    // their fd (dropping the `TcpStream`), which the kernel handles.

    fn ctl(&self, op: i32, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut event = EpollEvent { events: interest, token };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut event) };
        if rc < 0 {
            return Err(last_errno());
        }
        Ok(())
    }

    /// Wait for events. `timeout_ms < 0` blocks indefinitely. Returns the
    /// filled prefix of `events`; a wait interrupted by a signal (`EINTR`)
    /// returns an empty batch, and the caller's next turn waits again. The
    /// daemon's stop signals never interrupt it: they are blocked on every
    /// thread and taken by `sigwait` ([`wait_for_stop_signal`]).
    pub fn wait<'e>(
        &self,
        events: &'e mut [EpollEvent],
        timeout_ms: i32,
    ) -> io::Result<&'e [EpollEvent]> {
        // SAFETY: `self.fd` is the epoll instance this value owns, and the
        // kernel writes at most `events.len()` entries into `events`, which
        // stays mutably borrowed for the whole call.
        let rc =
            unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
        if rc >= 0 {
            return Ok(&events[..rc as usize]);
        }
        let err = last_errno();
        if err.raw_os_error() == Some(EINTR) {
            return Ok(&events[..0]);
        }
        Err(err)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// An eventfd used to wake an event loop's `epoll_wait` from other
/// threads (connection hand-offs, shutdown). Closed on drop.
pub struct WakeFd {
    fd: RawFd,
}

impl WakeFd {
    /// Create a non-blocking close-on-exec eventfd.
    pub fn new() -> io::Result<Self> {
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(last_errno());
        }
        Ok(WakeFd { fd })
    }

    /// The raw fd, for epoll registration.
    pub fn raw(&self) -> RawFd {
        self.fd
    }

    /// Wake the event loop. A full counter (`EAGAIN`) already means a
    /// wake is pending, so errors are ignored.
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Drain pending wakeups (reset the counter). Called by the loop
    /// *before* it takes hand-offs from its inbox, so a producer that
    /// enqueues after the drain leaves a fresh wake behind; a stale
    /// extra wake is harmless.
    pub fn drain(&self) {
        let mut counter = [0u8; 8];
        unsafe { read(self.fd, counter.as_mut_ptr(), 8) };
    }
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

/// SIGTERM and SIGINT, the signals that stop the daemon, as a C
/// `sigset_t` (1,024 bits on Linux).
#[repr(C)]
struct SignalSet([u64; 16]);

fn stop_signals() -> SignalSet {
    let mut set = SignalSet([0; 16]);
    // SAFETY: `set` is a writable buffer of `sigset_t`'s size and
    // alignment, and both signal numbers are valid.
    unsafe {
        sigemptyset(&mut set);
        sigaddset(&mut set, SIGTERM);
        sigaddset(&mut set, SIGINT);
    }
    set
}

/// Block SIGTERM and SIGINT on the calling thread. A thread starts with
/// the signal mask of the thread that starts it, so call this first thing
/// in `main`, before any thread starts: a thread that left them unblocked
/// could take one and end the daemon undrained.
/// [`stop_on_signal`](crate::stop_on_signal) then takes them.
pub fn block_stop_signals() -> io::Result<()> {
    // SAFETY: the set is initialized and a null `old` asks for no copy of
    // the previous mask. Both calls return the error number instead of
    // setting `errno`.
    match unsafe { pthread_sigmask(SIG_BLOCK, &stop_signals(), std::ptr::null_mut()) } {
        0 => Ok(()),
        errno => Err(io::Error::from_raw_os_error(errno)),
    }
}

/// Wait until SIGTERM or SIGINT is pending and take it. Every thread must
/// block both ([`block_stop_signals`]), or one that does not may take the
/// signal first.
pub fn wait_for_stop_signal() -> io::Result<()> {
    let mut signum = 0;
    // SAFETY: the set is initialized and `signum` a writable `int`, both
    // alive for the whole call.
    match unsafe { sigwait(&stop_signals(), &mut signum) } {
        0 => Ok(()),
        errno => Err(io::Error::from_raw_os_error(errno)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn epoll_reports_readable_listener() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), EPOLLIN, 7).unwrap();
        let mut events = [EpollEvent { events: 0, token: 0 }; 8];
        // Nothing pending yet.
        let ready = epoll.wait(&mut events, 0).unwrap();
        assert!(ready.is_empty());
        let _client = std::net::TcpStream::connect(addr).unwrap();
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        let token = ready[0].token;
        assert_eq!(token, 7);
    }

    #[test]
    fn wakefd_wakes_and_drains() {
        let epoll = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        epoll.add(wake.raw(), EPOLLIN, 42).unwrap();
        let mut events = [EpollEvent { events: 0, token: 0 }; 4];
        assert!(epoll.wait(&mut events, 0).unwrap().is_empty());
        wake.wake();
        wake.wake();
        let ready = epoll.wait(&mut events, 1000).unwrap();
        assert_eq!(ready.len(), 1);
        wake.drain();
        // Drained: level-triggered poll goes quiet again.
        assert!(epoll.wait(&mut events, 0).unwrap().is_empty());
    }
}
