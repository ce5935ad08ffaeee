//! CPU clocks and core pinning, through the three libc functions `std`
//! already links (`clock_gettime`, `sched_getaffinity`,
//! `sched_setaffinity`); there is no libc crate in `vendor/`. Linux only,
//! like the `/proc` readers beside it.
//!
//! CPU time comes from the scheduler's nanosecond accounting rather than
//! the 10 ms ticks of `/proc/self/stat`: a 0.3 s leg read in ticks takes one
//! of three values, which is both 3 % of noise and a number that repeats
//! exactly between runs.

mod sys {
    use std::ffi::{c_int, c_long};

    /// `cpu_set_t` of glibc and musl: 1024 bits.
    pub const MASK_WORDS: usize = 16;
    pub const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    /// `struct timespec` (`time_t` and `long` are both `long` on Linux).
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: c_long,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
        pub fn sched_getaffinity(pid: c_int, bytes: usize, mask: *mut u64) -> c_int;
        pub fn sched_setaffinity(pid: c_int, bytes: usize, mask: *const u64) -> c_int;
    }

    /// Seconds on a CPU-time clock (0 if the kernel lacks it).
    pub fn clock_secs(clock: c_int) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec`; the call
        // writes nothing else.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        if rc == 0 {
            ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
        } else {
            0.0
        }
    }

    /// Affinity mask of the calling thread.
    pub fn affinity() -> Option<[u64; MASK_WORDS]> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is writable for the `size_of_val(&mask)` bytes
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Set the calling thread's affinity mask.
    pub fn set_affinity(mask: &[u64; MASK_WORDS]) -> bool {
        // SAFETY: `mask` is readable for the `size_of_val(mask)` bytes
        // passed; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

/// CPU seconds (user + system) the whole process has consumed, threads that
/// have exited included.
pub fn process_cpu_secs() -> f64 {
    sys::clock_secs(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has consumed.
pub fn thread_cpu_secs() -> f64 {
    sys::clock_secs(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// The calling thread confined to one core until dropped. Threads spawned
/// meanwhile inherit the confinement and keep it.
///
/// The socket legs run under one: a one-segment message crosses four
/// threads (client, connection reader, service loop, connection writer),
/// and where the kernel wakes each of them decides the round trip — 25 µs
/// when they share a core, 80 µs and more when every wake-up crosses to an
/// idle one, changing from run to run and within a run (closed-loop rates
/// of 1.1 k, 6.8 k, 8.1 k, 11–12 k and 34 k msgs/s were all measured on the
/// same code). On one core every wake-up is local, so what is left is the
/// work the code does per message, which is what a change to it can move.
#[derive(Debug)]
pub struct OneCore {
    /// The mask to put back; `None` when the kernel refused the pin.
    restore: Option<[u64; sys::MASK_WORDS]>,
}

impl OneCore {
    /// Confine the calling thread to the lowest-numbered core it may run
    /// on. Where the kernel refuses, nothing changes and
    /// [`pinned`](Self::pinned) says so.
    pub fn pin() -> Self {
        let restore = sys::affinity().filter(|all| {
            let mut one = [0u64; sys::MASK_WORDS];
            match all.iter().position(|w| *w != 0) {
                Some(i) => {
                    one[i] = 1 << all[i].trailing_zeros();
                    sys::set_affinity(&one)
                }
                None => false,
            }
        });
        Self { restore }
    }

    /// Whether the confinement took effect.
    pub fn pinned(&self) -> bool {
        self.restore.is_some()
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        if let Some(all) = &self.restore {
            sys::set_affinity(all);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_nest() {
        let (p0, t0) = (process_cpu_secs(), thread_cpu_secs());
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        let (p1, t1) = (process_cpu_secs(), thread_cpu_secs());
        assert!(t1 > t0, "the thread clock saw the loop");
        // Other test threads only add to the process clock.
        assert!(p1 - p0 >= (t1 - t0) * 0.5);
    }

    #[test]
    fn pinning_confines_to_one_core_and_is_undone() {
        let before = sys::affinity().expect("affinity is readable");
        let cores = |m: &[u64; sys::MASK_WORDS]| m.iter().map(|w| w.count_ones()).sum::<u32>();
        {
            let pin = OneCore::pin();
            assert!(pin.pinned());
            let during = sys::affinity().unwrap();
            assert_eq!(cores(&during), 1);
            // A thread spawned under the pin inherits it.
            let child = std::thread::spawn(|| sys::affinity().unwrap())
                .join()
                .unwrap();
            assert_eq!(child, during);
        }
        assert_eq!(sys::affinity().unwrap(), before);
    }
}
