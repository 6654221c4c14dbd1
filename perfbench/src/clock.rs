//! The benchmark's clock: wall time, less the host's steal from serial
//! driver work.
//!
//! On a shared virtual machine the host takes a vCPU away for milliseconds
//! at a time (*steal*); in bursts it took 4–12% of a run. A batch hit by a
//! burst reads several milliseconds slower on the wall clock, so tail
//! latencies measured the neighbours more than the program. This clock
//! advances with wall time except for time the host provably stole from
//! the driver thread while no other thread of the program was working.
//!
//! Over an interval the driver thread was on its CPU for its CPU time
//! (which excludes steal), waited in the guest's run queue for the time
//! `/proc/thread-self/schedstat` reports, and was away for the rest:
//! stolen, or asleep while the program's fan-out threads worked (the
//! program's `par_iter` blocks the driver on scoped threads). The clock
//! counts as asleep up to all the CPU time the process's other threads
//! used in the interval, and removes only what is left. So time on other
//! threads always counts as wall time: an uneven split shows, and serial
//! work moved to one spawned thread is charged in full, never halved.
//! Without schedstat the clock is the wall clock.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // Provided by the C library every Rust program on Linux links against.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_s(clock: i32) -> f64 {
    let mut tp = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `tp` is a valid, writable timespec and the clock ids are
    // the Linux constants; on failure `tp` stays zero.
    let rc = unsafe { clock_gettime(clock, &mut tp) };
    if rc != 0 {
        return 0.0;
    }
    tp.tv_sec as f64 + tp.tv_nsec as f64 * 1e-9
}

/// The calling thread's run-queue wait so far, s, if the kernel reports it.
fn run_delay_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: f64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(ns * 1e-9)
}

#[derive(Debug, Clone, Copy)]
struct Sample {
    wall: Instant,
    own_cpu: f64,
    process_cpu: f64,
    run_delay: Option<f64>,
}

impl Sample {
    fn take() -> Sample {
        let run_delay = run_delay_s();
        let process_cpu = cpu_s(CLOCK_PROCESS_CPUTIME_ID);
        let own_cpu = cpu_s(CLOCK_THREAD_CPUTIME_ID);
        Sample {
            wall: Instant::now(),
            own_cpu,
            process_cpu,
            run_delay,
        }
    }

    /// Steal the driver thread suffered between `self` and `later` while
    /// no other thread worked, s.
    fn steal_until(&self, later: &Sample) -> f64 {
        let (Some(before), Some(after)) = (self.run_delay, later.run_delay) else {
            return 0.0;
        };
        let wall = later.wall.duration_since(self.wall).as_secs_f64();
        let own = later.own_cpu - self.own_cpu;
        let others = (later.process_cpu - self.process_cpu - own).max(0.0);
        let away = wall - own - (after - before);
        (away - others).max(0.0)
    }
}

/// A clock owned by one thread: wall seconds since it started, less the
/// steal [`Clock::settle`] found and the time spent in [`Clock::pause`].
/// Read and settle it from the thread that started it.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
    last: Sample,
    removed_s: f64,
}

impl Clock {
    /// A clock reading 0 now.
    pub fn start() -> Clock {
        let last = Sample::take();
        Clock {
            origin: last.wall,
            last,
            removed_s: 0.0,
        }
    }

    /// Seconds since the start, less what was removed up to the last
    /// settle.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() - self.removed_s
    }

    /// Removes the steal since the last settle and returns [`Clock::now`].
    pub fn settle(&mut self) -> f64 {
        let sample = Sample::take();
        self.removed_s += self.last.steal_until(&sample);
        self.last = sample;
        self.now()
    }

    /// Runs `f` off the clock.
    pub fn pause<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.settle();
        let start = Instant::now();
        let out = f();
        self.removed_s += start.elapsed().as_secs_f64();
        self.last = Sample::take();
        out
    }

    /// Seconds removed so far.
    pub fn removed_s(&self) -> f64 {
        self.removed_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(until: Instant) -> u64 {
        let mut x = 0u64;
        while Instant::now() < until {
            x = x.wrapping_add(std::hint::black_box(x ^ 7));
        }
        x
    }

    #[test]
    fn work_on_a_spawned_thread_counts_at_wall_time() {
        // The driver sleeps in `join` while one scoped thread works, as
        // it does in the program's fan-out: nothing may be removed, or
        // serial work moved to a thread would read as a speed-up.
        let mut clock = Clock::start();
        let wall = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| spin(Instant::now() + std::time::Duration::from_millis(200)));
        });
        let read = clock.settle();
        let elapsed = wall.elapsed().as_secs_f64();
        assert!(read >= 0.9 * elapsed, "clock {read} s, wall {elapsed} s");
        assert!(read <= clock.origin.elapsed().as_secs_f64() + 1e-9);
    }

    #[test]
    fn serial_work_reads_about_wall_time_and_pauses_are_removed() {
        let mut clock = Clock::start();
        let wall = Instant::now();
        spin(Instant::now() + std::time::Duration::from_millis(100));
        let read = clock.settle();
        // A burst of steal may remove a little, never more than it took.
        assert!(read > 0.5 * wall.elapsed().as_secs_f64());
        assert!(read <= wall.elapsed().as_secs_f64());
        clock.pause(|| spin(Instant::now() + std::time::Duration::from_millis(50)));
        assert!(clock.removed_s() >= 0.05);
        assert!(clock.settle() < wall.elapsed().as_secs_f64() - 0.045);
    }
}
