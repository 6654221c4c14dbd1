//! Host-speed calibration.
//!
//! On a shared virtual machine the CPU a run gets runs slower or faster
//! with the neighbours' load: over minutes, the same run's times drifted
//! by ±30%. So each run also times a fixed reference kernel owned by the
//! benchmark — a pointer chase over a 4 MiB random cycle plus ordered-map
//! churn, the memory-bound mix the program runs — a few times before and
//! after its measured window and once a second within it (see
//! [`crate::driver::Driver`]), and around every whole-DC build. Each
//! end-to-end time is then reported at the reference host speed of the
//! samples taken beside it: divided by (median kernel time ÷
//! [`REFERENCE_KERNEL_S`]), goodputs multiplied by it. The kernel is not
//! program code, so no change to the program can move the factor.
//! `dc_build`, whose builds fan out over every CPU, times the kernel on
//! every CPU at once ([`Calibration::wide`]).

use std::collections::BTreeMap;

use crate::clock::Clock;
use crate::metrics::Values;
use crate::stats::Samples;

/// The kernel's time on the reference host (a shared 2-vCPU virtual
/// machine in a quiet period), s.
pub const REFERENCE_KERNEL_S: f64 = 0.05;
/// Kernel runs before and after a measured window each.
const RUNS: usize = 4;

/// Entries in the pointer-chase cycle (4 MiB of `u32`).
const CYCLE: usize = 1 << 20;
/// Keys inserted into the ordered map.
const MAP_KEYS: u64 = 100_000;

/// One run of the reference kernel; returns a checksum so it cannot be
/// optimised away.
fn kernel() -> u64 {
    // Sattolo's shuffle: one cycle through every slot, from a fixed
    // xorshift stream.
    let mut next: Vec<u32> = (0..CYCLE as u32).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in (1..CYCLE).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let mut p = 0u32;
    for _ in 0..CYCLE {
        p = next[p as usize];
    }
    let mut map = BTreeMap::new();
    for k in 0..MAP_KEYS {
        map.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
    }
    let sum: u64 = map.values().sum();
    u64::from(p) ^ sum
}

/// Kernel times of one run, on the [`Clock`].
#[derive(Debug)]
pub struct Calibration {
    samples: Samples,
    /// Copies of the kernel timed at once, one per thread.
    threads: usize,
}

impl Default for Calibration {
    /// The kernel on one thread, for work done mostly on the driver thread.
    fn default() -> Calibration {
        Calibration {
            samples: Samples::new(),
            threads: 1,
        }
    }
}

impl Calibration {
    /// The kernel on as many threads at once as the program's `par_iter`
    /// fan-out uses (one per CPU), for work that fans out over every CPU:
    /// such work slows down when any CPU the host gives the run is slow
    /// or shared, which one thread does not see. On `dc_build`'s 20-pod
    /// builds, eight runs in a noisy period spread 0.37 of their median
    /// unscaled, 0.15 rescaled by the one-thread kernel and 0.12 by this
    /// one.
    pub fn wide() -> Calibration {
        Calibration {
            samples: Samples::new(),
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Times the kernel once more: its copies start together, and the
    /// time runs until the last ends.
    pub fn once(&mut self) {
        let mut clock = Clock::start();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(|| std::hint::black_box(kernel()));
            }
            std::hint::black_box(kernel());
        });
        self.samples.push(clock.settle());
    }

    /// Times the kernel [`RUNS`] more times.
    pub fn sample(&mut self) {
        for _ in 0..RUNS {
            self.once();
        }
    }

    /// This run's host speed relative to the reference host: above 1 when
    /// the host ran slower.
    pub fn slowdown(&self) -> f64 {
        let median = self.samples.median();
        if median > 0.0 {
            median / REFERENCE_KERNEL_S
        } else {
            1.0
        }
    }

    /// Rescales the end-to-end metrics `names`, measured while these
    /// samples were taken, to the reference host speed: `goodput_per_s`
    /// is multiplied by the slowdown, times are divided by it. Prints the
    /// calibration.
    pub fn to_reference(&self, v: &mut Values, names: &[&str]) {
        let slowdown = self.slowdown();
        println!(
            "{{\"calibration\":{{\"metrics\":{names:?},\"threads\":{},\"kernel_s\":{:?},\"reference_kernel_s\":{REFERENCE_KERNEL_S:?},\"slowdown\":{slowdown:?}}}}}",
            self.threads,
            self.samples.median()
        );
        for &name in names {
            let factor = if name == "goodput_per_s" { slowdown } else { 1.0 / slowdown };
            v.set(name, v.get(name) * factor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_the_slowdown_positive() {
        assert_eq!(kernel(), kernel());
        let mut c = Calibration::default();
        c.sample();
        assert!(c.slowdown() > 0.0);
        let mut wide = Calibration::wide();
        wide.once();
        assert!(wide.slowdown() > 0.0);
    }
}
