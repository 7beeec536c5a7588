//! The host-speed reference: a fixed loop of indirect calls, run right
//! after every timed call into the simulator.
//!
//! On a shared host, other tenants slow the benchmark's CPU by up to 2×
//! in episodes from under a second to several minutes long, often for
//! a whole run. A throughput-bound loop of indirect calls slows almost
//! as much as a rung-6 boot does (on a 2-vCPU Xeon VM, over 3-second
//! buckets of a contended stretch, log-slowdown correlation 0.93 and
//! slope 0.91), while a single dependent ALU chain does not slow at
//! all. Dividing each call's host time by the loop's time right after
//! it removes most of the host's speed from the timing; the RTL design
//! slows less and is divided by less (see
//! [`crate::Workload::host_sensitivity`]). The loop is the benchmark's
//! own code, so a change to the simulator moves the simulator's times
//! and not the loop's.

use crate::SplitMix64;
use std::hint::black_box;
use std::time::Instant;

/// The loop's host seconds on the uncontended development host (a
/// 2-vCPU Xeon VM): the time unit normalised timings are given in.
pub const NOMINAL_SECS: f64 = 0.28e-3;

/// Indirect calls per pass.
const CALLS: usize = 150_000;

struct Loop {
    table: Vec<Box<dyn Fn(u64) -> u64>>,
    picks: Vec<u8>,
}

impl Loop {
    fn new() -> Self {
        let table = (0..64u64)
            .map(|k| Box::new(move |x: u64| x.wrapping_mul(2 * k + 1) ^ (x >> (k % 13))) as _)
            .collect();
        let mut rng = SplitMix64(0x5EED);
        let picks = (0..CALLS).map(|_| rng.next() as u8 & 63).collect();
        Loop { table, picks }
    }

    fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut x = 1u64;
        for &p in &self.picks {
            x = (self.table[usize::from(p)])(black_box(x));
        }
        black_box(x);
        t.elapsed().as_secs_f64()
    }
}

thread_local! {
    static LOOP: Loop = Loop::new();
}

/// Host seconds of one pass of the reference loop, now.
pub fn pass_secs() -> f64 {
    LOOP.with(Loop::pass)
}

/// A timed call: its host seconds, and the reference loop's right
/// after it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// Host seconds of the call.
    pub secs: f64,
    /// Host seconds of the reference pass that followed it.
    pub ref_secs: f64,
}

impl Timing {
    /// Times the reference loop after a call that took `secs`.
    pub fn after(secs: f64) -> Self {
        Timing { secs, ref_secs: pass_secs() }
    }

    /// The call's seconds at the nominal host speed: its host seconds
    /// scaled by how much faster than at that moment the reference
    /// loop runs on the uncontended development host, raised to the
    /// power `sensitivity` (see [`crate::Workload::host_sensitivity`]).
    pub fn normalised(&self, sensitivity: f64) -> f64 {
        self.secs * (NOMINAL_SECS / self.ref_secs.max(1e-12)).powf(sensitivity)
    }
}
