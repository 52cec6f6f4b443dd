//! CPU placement of the whole process for the request/response phases.
//!
//! A warm query or a CHECK is a few microseconds of work between two
//! thread wake-ups, one on each side of the loopback connection. When
//! the client and the server thread sit on different CPUs of a virtual
//! machine, each wake-up of an idle CPU goes through the hypervisor, and
//! its latency varies with the host's load far more than the program's
//! own path does. [`one_cpu`] moves every thread of the process onto one
//! CPU, so a round trip is two context switches on that CPU plus the
//! program's work; [`all_cpus`] gives every thread back the CPUs the
//! process started with, for cold queries (whose shards run in parallel)
//! and the direct sweeps. Threads spawned meanwhile inherit the mask of
//! the thread that spawned them.

/// Linux's `cpu_set_t`: a 1024-bit mask.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The process's CPU mask as it started (taken on first use, before any
/// call here changes it).
#[cfg(target_os = "linux")]
fn initial() -> CpuSet {
    static INITIAL: std::sync::OnceLock<CpuSet> = std::sync::OnceLock::new();
    *INITIAL.get_or_init(|| {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) };
        if rc == 0 {
            mask
        } else {
            [u64::MAX; 16]
        }
    })
}

/// Applies `mask` to every thread of the process; the number of threads
/// it could not move (threads that exit meanwhile are not counted).
#[cfg(target_os = "linux")]
fn apply(mask: &CpuSet) -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 1;
    };
    tasks
        .filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok())
        .filter(|&tid| {
            // SAFETY: `mask` is a valid `cpu_set_t`-sized buffer.
            let rc = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), mask) };
            rc != 0 && std::path::Path::new(&format!("/proc/self/task/{tid}")).exists()
        })
        .count()
}

/// Moves every thread of the process onto the lowest CPU it may use.
/// Returns false when some thread could not be moved.
#[cfg(target_os = "linux")]
pub fn one_cpu() -> bool {
    let init = initial();
    let Some(word) = init.iter().position(|&w| w != 0) else {
        return false;
    };
    let mut mask = [0u64; 16];
    mask[word] = 1 << init[word].trailing_zeros();
    apply(&mask) == 0
}

/// Gives every thread of the process the CPUs the process started with.
/// Returns false when some thread could not be moved.
#[cfg(target_os = "linux")]
pub fn all_cpus() -> bool {
    apply(&initial()) == 0
}

#[cfg(not(target_os = "linux"))]
pub fn one_cpu() -> bool {
    false
}

#[cfg(not(target_os = "linux"))]
pub fn all_cpus() -> bool {
    false
}
