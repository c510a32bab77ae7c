//! CPU time of the process and of the calling thread.
//!
//! On a shared host the hypervisor takes CPU away from the guest at
//! will ("steal"): wall-clock rates then move with the neighbours' load,
//! while the CPU time a thread was actually given does not, since the
//! kernel accounts stolen time separately. The benchmark's cost metrics
//! are therefore counted in CPU time.

use std::time::Duration;

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read(clock: i32) -> Duration {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a live, writable `struct timespec` of the
    // platform's layout and `clock` is a clock id Linux always provides;
    // the call writes only into that struct.
    let rc = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(time.sec as u64, time.nsec as u32)
}

/// CPU time of every thread of this process, exited ones included.
pub fn process() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread.
pub fn thread() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;
    use std::time::Instant;

    #[test]
    fn busy_work_shows_up_in_thread_and_process_time() {
        let (thread0, process0) = (thread(), process());
        let started = Instant::now();
        let mut x = 0u64;
        while started.elapsed() < Duration::from_millis(200) {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let spent = thread() - thread0;
        assert!(spent >= Duration::from_millis(50), "{spent:?}");
        assert!(process() - process0 >= spent);
        std::thread::sleep(Duration::from_millis(100));
        assert!(
            thread() - thread0 < spent + Duration::from_millis(20),
            "sleeping costs no CPU"
        );
    }
}
