//! A free-running clock, the analogue of `sc_clock`.
//!
//! Unlike `sc_clock`, which is a module with a generator process, the
//! clock is a kernel primitive: a timed-queue entry that requests the
//! signal's next level every half period and re-arms itself. The edge
//! commits in the same update phase a generator thread's write would, so
//! waveforms, edge events and delta counts are those of a process-driven
//! clock — minus the two process activations per cycle. All synchronous
//! platform processes are statically sensitive to the rising-edge event.

use crate::kernel::{EventId, Simulator};
use crate::signal::Signal;
use crate::time::SimTime;
use crate::value::SigValue;
use std::fmt;

/// A periodic clock over any single-bit signal type (`bool` for native
/// models, [`Logic`](crate::Logic) for resolved ones).
///
/// The first rising edge occurs at the start of the first `run_*` call
/// after construction (committing in that call's first delta); subsequent
/// edges every `period`.
///
/// # Examples
///
/// ```
/// use sysc::{Clock, SimTime, Simulator};
///
/// let sim = Simulator::new();
/// let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
/// let count = std::rc::Rc::new(std::cell::Cell::new(0u32));
/// let c = count.clone();
/// sim.process("counter")
///     .sensitive(clk.posedge())
///     .no_init()
///     .method(move |_| c.set(c.get() + 1));
/// sim.run_for(SimTime::from_ns(95));
/// assert_eq!(count.get(), 10); // edges at 0,10,...,90
/// ```
pub struct Clock<B: SigValue + From<bool>> {
    sig: Signal<B>,
    period: SimTime,
}

impl<B: SigValue + From<bool>> fmt::Debug for Clock<B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("name", &self.sig.name())
            .field("period", &self.period)
            .finish()
    }
}

impl<B: SigValue + From<bool>> Clock<B> {
    /// Creates a clock toggling `name` with the given `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or an odd number of picoseconds.
    pub fn new(sim: &Simulator, name: &str, period: SimTime) -> Self {
        assert!(!period.is_zero(), "clock period must be nonzero");
        assert!(period.as_ps().is_multiple_of(2), "clock period must be an even number of ps");
        let sig = sim.signal_with::<B>(name, B::from(false));
        sig.drive_as_clock(&sim.k, period / 2);
        Clock { sig, period }
    }

    /// The rising-edge event — the platform's "every cycle" trigger.
    pub fn posedge(&self) -> EventId {
        self.sig.posedge()
    }

    /// The falling-edge event.
    pub fn negedge(&self) -> EventId {
        self.sig.negedge()
    }

    /// The underlying clock signal (for tracing or level-sensitive logic).
    pub fn signal(&self) -> &Signal<B> {
        &self.sig
    }

    /// The clock period.
    pub fn period(&self) -> SimTime {
        self.period
    }

    /// Converts a cycle count to simulated time at this clock's rate.
    pub fn cycles(&self, n: u64) -> SimTime {
        self.period * n
    }
}
