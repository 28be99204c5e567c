//! Process settings that keep run-to-run noise down: one CPU, one
//! malloc arena.
//!
//! On a small virtual machine whose vCPUs the host deschedules (steal
//! time), a request that hops between CPUs pays a cross-CPU wake-up at
//! every hand-off. On a 2-vCPU Xeon VM, unpinned serve-steady throughput
//! ranged from 0.8k to 2.9k steps/s from one second to the next within a
//! single run; pinned to one CPU it varied by a few percent. So the
//! timed work runs on one CPU. The oracle, which measures nothing, gets
//! every CPU back.
//!
//! glibc gives new threads new malloc arenas, and offline-eval starts
//! fresh pipeline threads on every call, so its peak RSS ranged from 19
//! to 26 MB between runs. With one arena it held at 11.7 MB. On one CPU
//! a single arena costs no lock contention.

/// Peak resident set (`VmHWM`) of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Limits glibc malloc to one arena (no-op elsewhere).
pub fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// glibc's `M_ARENA_MAX`.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two plain integers and only adjusts
        // allocator tuning; it is called before this process spawns
        // any thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// A `cpu_set_t`: 1024 CPU bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn get() -> Option<Mask> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    pub fn set(mask: &Mask) -> bool {
        // SAFETY: `mask` is a live buffer of exactly the size passed, only
        // read by the call, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub type Mask = ();
    pub fn get() -> Option<Mask> {
        None
    }
    pub fn set(_: &Mask) -> bool {
        false
    }
}

/// The calling thread's CPU set before [`pin_last`], handed back by
/// [`Pinned::release`]. Threads spawned while pinned inherit the pin.
pub struct Pinned {
    original: Option<sys::Mask>,
    pub cpu: Option<usize>,
}

/// Pins the calling thread to `cpu`; false if the system refused.
#[cfg(target_os = "linux")]
fn pin_to(cpu: usize) -> bool {
    let mut one: sys::Mask = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    sys::set(&one)
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_: usize) -> bool {
    false
}

#[cfg(target_os = "linux")]
fn cpus_of(mask: &sys::Mask) -> Vec<usize> {
    (0..1024)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
fn cpus_of(_: &sys::Mask) -> Vec<usize> {
    Vec::new()
}

/// Pins the calling thread (and every thread it spawns afterwards) to the
/// highest-numbered CPU it may run on.
pub fn pin_last() -> Pinned {
    let original = sys::get();
    let cpu = original
        .as_ref()
        .and_then(|m| cpus_of(m).last().copied())
        .filter(|&c| pin_to(c));
    Pinned { original, cpu }
}

impl Pinned {
    /// Gives the calling thread its original CPU set back.
    pub fn release(&self) {
        if let (Some(mask), Some(_)) = (&self.original, self.cpu) {
            sys::set(mask);
        }
    }

    /// Pins the calling thread to the `n`-th CPU of the original set
    /// (cyclically), so parallel checkers each keep one CPU.
    pub fn pin_nth(&self, n: usize) {
        let cpus = self.original.as_ref().map(cpus_of).unwrap_or_default();
        if !cpus.is_empty() {
            pin_to(cpus[n % cpus.len()]);
        }
    }
}
