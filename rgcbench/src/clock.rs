//! On-CPU time of the calling thread.
//!
//! Read with `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`: the C library is
//! linked by `std` already, so this needs no dependency. The obvious
//! alternative, `/proc/thread-self/schedstat`, is refreshed only at
//! scheduler ticks for the calling thread; on a 250 Hz kernel it moves
//! in 4 ms steps and reads 0 for a sub-millisecond run, which is most of
//! the served requests this benchmark times.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Nanoseconds of CPU time the calling thread has used.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is
    // a constant the kernel supports for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_resolves_sub_millisecond_work() {
        let t0 = thread_cpu_ns();
        let mut x = 0u64;
        for i in 0..200_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let used = thread_cpu_ns() - t0;
        assert!(used > 0, "CPU clock did not move over {x} steps");
        assert!(used < 1_000_000_000, "CPU clock jumped {used} ns");
    }
}
