//! The benchmark's only reads of host time: the monotonic wall clock and
//! the process CPU clock. Simulated time never passes through here.

use std::time::Instant;

/// A running wall-clock measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

/// Starts a wall-clock measurement.
#[inline]
pub fn start() -> Stopwatch {
    // `TracedLogic` is a `RouterLogic` impl, so simlint's taint pass sees
    // this read as reachable from a replay root. That reachability is the
    // tracer's purpose; the read never feeds back into the simulation.
    // simlint: allow(wall-clock, taint-wall-clock) host-time measurement
    Stopwatch(Instant::now())
}

impl Stopwatch {
    /// Nanoseconds since [`start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Seconds since [`start`].
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU clock binding below is written for 64-bit Linux");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPUTIME: i32 = 2;

/// User plus system CPU seconds this process has burnt so far, summed over
/// all its threads, live or joined. `/proc/self/stat` reports the same
/// quantity in 10 ms ticks, too coarse for repetitions of about a second.
pub fn cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec`-layout struct (two 64-bit
    // fields on every 64-bit Linux target) and the clock id is a constant
    // the kernel defines; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// What one timed interval costs, measured at start-up.
#[derive(Debug, Clone, Copy)]
pub struct ClockCost {
    /// Wall cost of one `start()` + `elapsed_ns()` pair: what each traced
    /// callback adds to the traced repetition.
    pub pair_ns: f64,
    /// What an empty interval reads: the part of the pair that lands
    /// inside the measured interval and is subtracted from every callback.
    pub gap_ns: f64,
}

/// Measures [`ClockCost`] over `pairs` back-to-back empty intervals.
pub fn calibrate(pairs: u32) -> ClockCost {
    let mut inside = 0u64;
    let outer = start();
    for _ in 0..pairs {
        let t = start();
        inside += std::hint::black_box(t.elapsed_ns());
    }
    let total = outer.elapsed_ns();
    ClockCost {
        pair_ns: total as f64 / pairs as f64,
        gap_ns: inside as f64 / pairs as f64,
    }
}
