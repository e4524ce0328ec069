//! Which vCPUs the calling thread may run on.
//!
//! The wire workloads keep two threads busy: the generator, which
//! spin-polls, and the product's `fvs-coordinator`. Left to the kernel,
//! the coordinator is sometimes woken onto the generator's vCPU while
//! the other one idles; the two then take turns, and *budget drop →
//! ceiling* reads 9 ms in one run and 3.8 ms in the next. So the
//! generator takes one vCPU for itself and leaves the rest to the
//! product — what `taskset` does for a load generator. A thread inherits
//! the mask of the thread that spawns it, which is how the product's
//! threads get theirs without the product knowing.

use std::io;

/// Room for 1 024 CPUs, the kernel's default `CONFIG_NR_CPUS` ceiling.
const WORDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl CpuSet {
    /// The CPUs the calling thread may run on now.
    pub fn current() -> io::Result<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: `mask` points at `WORDS` writable u64s and the size
        // passed is exactly their size in bytes; pid 0 is this thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        if rc == 0 {
            Ok(set)
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// Restrict the calling thread (and threads it spawns from now on).
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `mask` points at `WORDS` readable u64s and the size
        // passed is exactly their size in bytes; pid 0 is this thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }

    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Split off the lowest CPU: `(that one, the rest)`. `None` when
    /// there are fewer than two to split.
    pub fn split_first(&self) -> Option<(CpuSet, CpuSet)> {
        if self.len() < 2 {
            return None;
        }
        let word = self.0.iter().position(|w| *w != 0)?;
        let bit = 1u64 << self.0[word].trailing_zeros();
        let mut first = CpuSet([0; WORDS]);
        first.0[word] = bit;
        let mut rest = *self;
        rest.0[word] &= !bit;
        Some((first, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_takes_the_lowest_cpu() {
        let mut set = CpuSet([0; WORDS]);
        set.0[0] = 0b1010;
        set.0[1] = 0b1;
        let (first, rest) = set.split_first().unwrap();
        assert_eq!((first.0[0], first.len()), (0b0010, 1));
        assert_eq!((rest.0[0], rest.0[1], rest.len()), (0b1000, 0b1, 2));
        assert!(first.split_first().is_none());
    }

    #[test]
    fn current_mask_applies_to_itself() {
        let now = CpuSet::current().unwrap();
        assert!(now.len() >= 1);
        now.apply().unwrap();
        assert_eq!(CpuSet::current().unwrap(), now);
    }
}
