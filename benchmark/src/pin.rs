//! Thread placement: after set-up, the whole process runs on one CPU and
//! leaves the other idle.
//!
//! The reference box is a 2-vCPU guest of a shared host. Left to the
//! scheduler, a request/response over a unix socket there costs either
//! ~8 µs (client and reader thread happen to share a CPU, the wake-up is a
//! context switch) or ~60 µs (they sit on different CPUs, each wake-up is an
//! inter-processor interrupt into a halted vCPU that the hypervisor has to
//! schedule first). Which one a run gets is decided by scheduler history the
//! benchmark neither sees nor sets; with clients and servers pinned to
//! *different* CPUs every request pays the hypervisor twice, and that cost
//! moved by a quarter and more between runs of one binary. Neither number
//! says anything about the program.
//!
//! The two vCPUs also share their caches: a busy thread on one slows
//! cache-resident work on the other by up to 1.7× (measured with a pointer
//! chase). With the writer moved to the second CPU, rounds of wire reads
//! ran at 5 µs or at 8 µs, by round, and batch times spread three times as
//! far between runs.
//!
//! So every timed leg runs with clients, readers, batcher, writer, repair
//! workers and router on the same CPU: a wake-up is a context switch, the
//! CPU never halts while a wire leg runs (the open-loop generator yields
//! instead of sleeping, see `legs::wait_until`), the other CPU stays idle,
//! and what is left in a latency is the program's own path — syscalls,
//! framing, locks, index work. Set-up (the two build threads) runs before
//! the pin and uses both CPUs.

extern "C" {
    /// `sched_setaffinity(2)`; `pid` is a thread id, 0 the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    /// `sched_getaffinity(2)`.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// CPUs the calling thread may run on, as a bit mask (CPUs 0..64); 0 when
/// the kernel does not say.
fn allowed() -> u64 {
    let mut mask = 0u64;
    // SAFETY: the kernel writes at most `cpusetsize` = 8 bytes into `mask`.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) };
    if rc < 0 {
        0
    } else {
        mask
    }
}

/// The CPU of `mask` the process is pinned to: the highest, because the
/// lowest is where a small guest takes its interrupts and runs its other
/// processes.
fn choose(mask: u64) -> Option<u32> {
    (mask != 0).then(|| 63 - mask.leading_zeros())
}

/// Confine the calling thread, and so every thread spawned from here on
/// (affinity is inherited), to one of the CPUs it may run on. Call it from
/// the main thread once set-up is done and before any server starts.
/// Returns the CPU, or `None` when the affinity could not be read or set
/// (the run goes on unpinned and says so).
pub fn to_one_cpu() -> Option<u32> {
    let cpu = choose(allowed())?;
    let mask = 1u64 << cpu;
    // SAFETY: the mask is a live u64 and the size passed is its size; the
    // call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (rc == 0).then_some(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_allowed_cpu_is_chosen() {
        assert_eq!(choose(0b0110), Some(2));
        assert_eq!(choose(0b0001), Some(0));
        assert_eq!(choose(1 << 63), Some(63));
        assert_eq!(choose(0), None);
    }

    #[test]
    fn spawned_threads_inherit_the_pin() {
        std::thread::spawn(|| {
            let before = allowed();
            if let Some(cpu) = to_one_cpu() {
                assert!(before & (1 << cpu) != 0);
                assert_eq!(allowed(), 1 << cpu);
                let child = std::thread::spawn(allowed).join().unwrap();
                assert_eq!(child, 1 << cpu);
            }
        })
        .join()
        .unwrap();
    }
}
