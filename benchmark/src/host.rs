//! Host control: the one thing about the machine the benchmark fixes.

use std::ffi::c_int;

// Symbols of the libc that `std` already links (as `bep-server`'s reactor
// does for epoll); no dependency is added for two calls.
extern "C" {
    fn sched_getcpu() -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Pins the calling thread — and every thread it starts afterwards — to
/// the CPU it is running on. Returns that CPU, or `None` when the host
/// refuses (the run then goes on unpinned, and says so).
///
/// Why: on a virtualised host a wake-up that crosses vCPUs costs whatever
/// the hypervisor's halt-polling makes it cost at that moment. Measured
/// here, the same loopback round trip swings between 9 µs and 60 µs and
/// the wire workloads between 6k and 13k stmt/s for minutes at a time. On
/// one CPU the client and the reactor hand over by a context switch and
/// the swing is gone. One closed-loop client leaves nothing to run in
/// parallel, so no capacity is lost.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: takes no arguments and only returns a value.
    let cpu = unsafe { sched_getcpu() };
    let mut mask = [0u64; 16];
    let word = mask.get_mut(usize::try_from(cpu).ok()? / 64)?;
    *word = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly the size passed,
    // which the kernel only reads; pid 0 names the calling thread.
    let refused = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (refused == 0).then_some(cpu as usize)
}
