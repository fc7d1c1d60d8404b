//! CPU affinity of the calling thread, through `sched_{get,set}affinity`.
//!
//! The `serve` workload pins its servers and load generator to one CPU.
//! Its routed path is a chain of blocking hops between threads (load
//! generator → router → shard → router). On a shared virtual machine a hop
//! to an idle CPU waits for the hypervisor to wake that CPU, and the wait
//! moves with the host's load: routed bursts of one seed took 0.24 s in one
//! half hour and 0.12 s in the next. On one CPU a hop is a context switch,
//! so the chain costs the program's own work. Synthesis keeps every CPU.

/// Words of a kernel `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<[u64; WORDS]> {
    let mut mask = [0u64; WORDS];
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; WORDS]) -> bool {
    // SAFETY: the kernel reads `size` bytes from `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<[u64; WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &[u64; WORDS]) -> bool {
    false
}

/// The CPUs the calling thread may run on when this was made. Threads
/// inherit their creator's affinity, so what the calling thread is allowed
/// when it starts servers or load threads is what they are allowed.
/// Dropping it lets the calling thread use every one of these CPUs again.
pub struct Cpus {
    all: Option<[u64; WORDS]>,
}

impl Cpus {
    pub fn current() -> Cpus {
        Cpus { all: get() }
    }

    /// Lets the calling thread run on every CPU it started with.
    pub fn widen(&self) {
        if let Some(all) = &self.all {
            set(all);
        }
    }

    /// Pins the calling thread to the lowest CPU it started with; that CPU,
    /// or `None` when the kernel refused.
    pub fn pin_first(&self) -> Option<usize> {
        let all = self.all.as_ref()?;
        let cpu = first_cpu(all)?;
        let mut one = [0u64; WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set(&one).then_some(cpu)
    }
}

impl Drop for Cpus {
    fn drop(&mut self) {
        self.widen();
    }
}

/// Lowest CPU set in `mask`.
fn first_cpu(mask: &[u64; WORDS]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cpu_of_a_mask() {
        let mut mask = [0u64; WORDS];
        assert_eq!(first_cpu(&mask), None);
        mask[1] = 0b1010_0000;
        assert_eq!(first_cpu(&mask), Some(69));
        mask[0] = 1;
        assert_eq!(first_cpu(&mask), Some(0));
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn pinning_and_widening_the_calling_thread() {
        // Runs on a thread of its own so the test harness keeps its mask.
        std::thread::spawn(|| {
            let cpus = Cpus::current();
            let before = get().expect("affinity readable");
            let cpu = cpus.pin_first().expect("pinning allowed");
            let pinned = get().expect("affinity readable");
            assert_eq!(pinned.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
            assert_eq!(first_cpu(&pinned), Some(cpu));
            drop(cpus);
            assert_eq!(get(), Some(before));
        })
        .join()
        .unwrap();
    }
}
