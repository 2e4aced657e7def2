//! Process and thread readings from the OS (Linux): resident memory from
//! `/proc/self/status` and per-thread CPU time from the thread CPU clocks.

use std::os::raw::{c_int, c_long, c_ulong};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clk: c_int, ts: *mut Timespec) -> c_int;
    fn pthread_getcpuclockid(thread: c_ulong, clk: *mut c_int) -> c_int;
    fn pthread_self() -> c_ulong;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
}

const MASK_WORDS: usize = 16;

/// CPUs the calling thread may run on (ascending).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: pid 0 is the calling thread; `mask` is a valid buffer of
    // the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } < 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread to CPU `cpu`; false when refused.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpu >= MASK_WORDS * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` outlives the call.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// A `kB` field of `/proc/self/status` (e.g. `VmHWM`), in kB.
fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

/// Peak resident set size of this process (VmHWM), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Current resident set size of this process (VmRSS), MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads of this process (`/proc/self/task` entries).
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// A thread's CPU clock, readable from any thread of the process.
#[derive(Clone, Copy, Debug)]
pub struct ThreadClock(c_int);

impl ThreadClock {
    /// The clock of the pthread `thread` (see
    /// `std::os::unix::thread::JoinHandleExt::as_pthread_t`).
    pub fn of(thread: c_ulong) -> Option<Self> {
        let mut clk: c_int = 0;
        // SAFETY: `thread` names a live thread of this process and `clk`
        // is a valid out-pointer.
        (unsafe { pthread_getcpuclockid(thread, &mut clk) } == 0).then_some(ThreadClock(clk))
    }

    /// The calling thread's clock.
    pub fn current() -> Option<Self> {
        // SAFETY: pthread_self has no preconditions.
        Self::of(unsafe { pthread_self() })
    }

    /// CPU time (user + system) the thread has used, ns.
    pub fn cpu_ns(self) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid out-pointer; a bad clock id only makes
        // the call fail, which reads as 0.
        if unsafe { clock_gettime(self.0, &mut ts) } != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_plausible() {
        assert!(peak_rss_mb() > 0.0);
        assert!(rss_mb() > 0.0 && rss_mb() <= peak_rss_mb() + 1.0);
        assert!(thread_count() >= 1);
        assert!(!allowed_cpus().is_empty());
        let clk = ThreadClock::current().expect("own clock");
        let a = clk.cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(clk.cpu_ns() > a, "{x}");
    }
}
