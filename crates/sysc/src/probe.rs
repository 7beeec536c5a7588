//! Design-graph extraction and delta-cycle instrumentation.
//!
//! The probe records the *elaborated design graph* of a simulation —
//! processes, signals, events, static sensitivity edges, driver
//! registrations — plus, while enabled, the runtime-observed read/write
//! sets, per-process activation counts, same-delta write races on
//! unresolved signals, and a bounded-delta livelock watchdog. The static
//! analysis crate (`sclint`) consumes the [`DesignGraph`] snapshot to run
//! its detectors; see `crates/lint`.
//!
//! Cost model: the static registry (signal/process/event names and
//! wiring) is recorded unconditionally at elaboration time and costs
//! nothing while running. The runtime observation is **off by default** —
//! a single flag test on the signal read/write paths — and is enabled
//! with [`Simulator::probe_enable`](crate::Simulator::probe_enable).
//! While enabled, each signal core filters repeat accesses through
//! per-signal `Cell` caches (a reader/writer bitmap for the first 64
//! process ids, a last-recorded fallback beyond that), so the steady
//! state costs a couple of loads and a predictable branch per access;
//! only genuinely novel (process, signal) pairs — a handful per run —
//! reach the bit-matrix sets here. Benchmarked ≤ 5 % on the platform
//! models; see `crates/bench/benches/lint_overhead.rs`.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

/// Process flavour, mirroring `SC_METHOD` / `SC_THREAD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcKind {
    /// Direct-dispatch callback (`SC_METHOD`).
    Method,
    /// Resumable body returning its next wait (`SC_THREAD`).
    Thread,
}

/// Runtime lifecycle state of a process — the dynamic partial
/// reconfiguration (DPR) analogue of a region's personality being loaded,
/// parked, or unloaded. All processes start `Live`; the state changes only
/// through [`Simulator::suspend`](crate::Simulator::suspend),
/// [`Simulator::resume`](crate::Simulator::resume) and
/// [`Simulator::kill`](crate::Simulator::kill).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifeState {
    /// Normally scheduled.
    Live,
    /// Parked by `suspend()`: triggers are remembered, not executed, until
    /// `resume()` — a swapped-out personality.
    Suspended,
    /// Permanently removed by `kill()`; the body (and its captured ports)
    /// has been dropped.
    Killed,
}

/// What an event notifies (derived from the signal registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The value-changed event of signal `.0`.
    SignalChanged(usize),
    /// The rising-edge event of signal `.0`.
    SignalPosedge(usize),
    /// The falling-edge event of signal `.0`.
    SignalNegedge(usize),
    /// A user-created notification event.
    User,
}

/// A process node of the design graph.
#[derive(Debug, Clone)]
pub struct ProcNode {
    /// Process id (index into [`DesignGraph::processes`]).
    pub id: usize,
    /// Registration name.
    pub name: String,
    /// Method or thread.
    pub kind: ProcKind,
    /// Evaluation phase within a delta cycle (see
    /// [`ProcBuilder::phase`](crate::ProcBuilder::phase)): lower phases
    /// run to completion first; processes in the same phase must be
    /// order-independent.
    pub phase: u8,
    /// Event ids of the static sensitivity list.
    pub sensitivity: Vec<usize>,
    /// Body executions observed while the probe was enabled.
    pub activations: u64,
    /// Runtime lifecycle state at snapshot time. Detectors should treat
    /// `Suspended` / `Killed` processes as swapped out, not dead.
    pub state: LifeState,
    /// `true` if the process ever parked on a timed or event wait
    /// (dynamic sensitivity) — such processes schedule themselves and are
    /// exempt from sensitivity-completeness checks.
    pub used_dynamic_wait: bool,
    /// `Some(reason)` while the component is bypassed by a faster
    /// modelling tier (set via
    /// [`Ctx::set_bypass_note`](crate::Ctx::set_bypass_note)) — e.g. a
    /// slave decode process whose region the transaction/DMI access tier
    /// serves directly. Detectors treat such inactivity as expected.
    pub bypassed: Option<&'static str>,
    /// `true` if the process was spawned while replaying a checkpoint's
    /// late-spawn log (see
    /// [`Simulator::mark_restored_spawn`](crate::Simulator::mark_restored_spawn)):
    /// its activation history restarts at the restore point, so detectors
    /// treat a zero count as expected, mirroring the swapped-out
    /// convention.
    pub restored_spawn: bool,
    /// Signal ids read by this process (observed).
    pub reads: Vec<usize>,
    /// Signal ids written by this process (observed).
    pub writes: Vec<usize>,
}

/// A signal node of the design graph.
#[derive(Debug, Clone)]
pub struct SignalNode {
    /// Signal id (index into [`DesignGraph::signals`]).
    pub id: usize,
    /// Construction name.
    pub name: String,
    /// `true` for resolved (four-state) value types.
    pub resolved: bool,
    /// Value width in bits.
    pub width: usize,
    /// Writing ports currently attached (driver registrations).
    pub driver_slots: usize,
    /// `true` if a kernel primitive — a [`Clock`](crate::Clock) — drives
    /// the signal rather than a process. Recorded statically at
    /// elaboration; such a signal counts as written even though no
    /// process appears in [`writers`](SignalNode::writers).
    pub kernel_driven: bool,
    /// Event id of the value-changed event.
    pub changed_event: usize,
    /// Event id of the rising-edge event (single-bit signals).
    pub posedge_event: Option<usize>,
    /// Event id of the falling-edge event (single-bit signals).
    pub negedge_event: Option<usize>,
    /// `true` if registered with the VCD tracer.
    pub traced: bool,
    /// Process ids observed reading this signal.
    pub readers: Vec<usize>,
    /// Process ids observed writing this signal.
    pub writers: Vec<usize>,
    /// `true` if non-process code (the testbench) read this signal while
    /// the probe was enabled.
    pub external_reads: bool,
    /// `true` if non-process code wrote this signal while the probe was
    /// enabled.
    pub external_writes: bool,
    /// Commits that produced an `X` lane (resolved driver conflicts).
    pub resolved_conflicts: u64,
}

/// An event node of the design graph.
#[derive(Debug, Clone)]
pub struct EventNode {
    /// Event id (index into [`DesignGraph::events`]).
    pub id: usize,
    /// Construction name.
    pub name: String,
    /// What the event notifies.
    pub kind: EventKind,
    /// Process ids statically subscribed.
    pub subscribers: Vec<usize>,
}

/// A same-delta write race observed on an unresolved signal: two distinct
/// processes requested *different* values for the same signal within one
/// delta cycle, so the committed value depends on scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WriteRace {
    /// The fought-over signal id.
    pub signal: usize,
    /// Lower-numbered racing process id.
    pub writer_a: usize,
    /// Higher-numbered racing process id.
    pub writer_b: usize,
}

/// Flavour of a registered plain-state element (non-signal shared state
/// observable by the race detector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StateKind {
    /// A [`Traced`](crate::Traced) shared cell (or an externally
    /// registered [`StateTouch`](crate::StateTouch) hook point).
    Cell,
    /// A [`Fifo`](crate::Fifo) channel.
    Fifo,
}

/// How a process touched a plain-state element within one evaluate phase.
///
/// The conflict matrix ([`AccessOp::conflicts_with`]) encodes which same
/// delta, same-phase combinations make the outcome depend on runnable
/// queue order. Signals are *not* covered here: their request–update
/// semantics make read-vs-write order irrelevant, so only same-delta
/// write–write conflicts matter for them (see [`SchedRace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessOp {
    /// Observed the current value of a shared cell.
    Read,
    /// Mutated a shared cell in place (immediately visible, unlike a
    /// signal write).
    Write,
    /// Queued an item into a FIFO (`try_put` success).
    Produce,
    /// Consumed an item from a FIFO (`try_get` success) — immediately
    /// visible to later readers in the same delta.
    Consume,
    /// Observed FIFO occupancy (`num_available` / `num_free`), which sees
    /// same-delta produces and consumes.
    Peek,
}

impl AccessOp {
    /// `true` if two accesses by *different* processes in the same delta
    /// and phase give a schedule-dependent outcome.
    ///
    /// Pure observations never conflict with each other, and FIFO
    /// produce/consume commute (a produce lands in the incoming buffer,
    /// invisible to `try_get`; a consume pops the committed queue,
    /// invisible to `num_free`'s reservation until the update phase).
    /// Everything else — write–write, read–write, peek-vs-mutation —
    /// depends on evaluation order.
    pub fn conflicts_with(self, other: AccessOp) -> bool {
        use AccessOp::*;
        !matches!(
            (self, other),
            (Read, Read)
                | (Peek, Peek)
                | (Read, Peek)
                | (Peek, Read)
                | (Produce, Consume)
                | (Consume, Produce)
        )
    }
}

/// What a scheduling race was detected on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceElem {
    /// Signal id (index into [`DesignGraph::signals`]): two same-phase
    /// processes requested different next values.
    Signal(usize),
    /// Plain-state id (index into [`DesignGraph::states`]): conflicting
    /// same-phase accesses per [`AccessOp::conflicts_with`].
    State(usize),
}

/// A delta-cycle scheduling race observed by the dynamic race detector
/// ([`Simulator::race_detect_enable`](crate::Simulator::race_detect_enable)):
/// two processes runnable in the same delta *and the same phase* touched
/// one element such that the outcome depends on runnable-queue order.
///
/// Processes in different [phases](crate::ProcBuilder::phase) have a
/// kernel-defined order and are never reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SchedRace {
    /// The fought-over element.
    pub elem: RaceElem,
    /// Lower-numbered participant process id.
    pub proc_a: usize,
    /// `proc_a`'s access.
    pub op_a: AccessOp,
    /// Higher-numbered participant process id.
    pub proc_b: usize,
    /// `proc_b`'s access.
    pub op_b: AccessOp,
}

impl SchedRace {
    /// Normalises participant order so the pair dedups in a set.
    pub(crate) fn new(elem: RaceElem, a: u32, op_a: AccessOp, b: u32, op_b: AccessOp) -> Self {
        if a <= b {
            SchedRace { elem, proc_a: a as usize, op_a, proc_b: b as usize, op_b }
        } else {
            SchedRace { elem, proc_a: b as usize, op_a: op_b, proc_b: a as usize, op_b: op_a }
        }
    }
}

/// A plain-state node of the design graph: a non-signal shared-state
/// element registered through [`Simulator::traced`](crate::Simulator::traced),
/// [`Simulator::state_touch`](crate::Simulator::state_touch) or
/// [`Fifo::new`](crate::Fifo::new).
#[derive(Debug, Clone)]
pub struct StateNode {
    /// State id (index into [`DesignGraph::states`]).
    pub id: usize,
    /// Registration name.
    pub name: String,
    /// Cell or FIFO.
    pub kind: StateKind,
    /// `file:line` of the registration site.
    pub location: String,
    /// `Some(reason)` if the element was marked as safely arbitrated
    /// (e.g. partitioned per region, or single-master by construction) —
    /// detectors downgrade findings on it to advisory.
    pub arbitrated: Option<String>,
    /// Process ids observed reading (or peeking) this element while the
    /// race detector was enabled.
    pub readers: Vec<usize>,
    /// Process ids observed mutating this element while the race
    /// detector was enabled.
    pub writers: Vec<usize>,
    /// `true` if non-process (testbench) code touched the element.
    pub external: bool,
}

/// Static per-state facts, registered at elaboration (always on).
pub(crate) struct StateStatic {
    pub(crate) name: String,
    pub(crate) kind: StateKind,
    pub(crate) location: String,
    pub(crate) arbitrated: RefCell<Option<String>>,
}

/// The delta-cycle watchdog tripped: one timestep exceeded the bounded
/// delta count, i.e. zero-delay activity never settled (a combinational
/// oscillation).
#[derive(Debug, Clone)]
pub struct DeltaOverflow {
    /// Simulated time (ps) of the runaway timestep.
    pub at_ps: u64,
    /// The configured bound that was exceeded.
    pub limit: u64,
    /// Signal ids still committing changes when the watchdog fired — the
    /// oscillating set.
    pub oscillating: Vec<usize>,
}

/// Snapshot of the elaborated design graph plus runtime observations.
///
/// Produced by [`Simulator::design_graph`](crate::Simulator::design_graph);
/// consumed by the `sclint` detectors.
#[derive(Debug, Clone)]
pub struct DesignGraph {
    /// All registered processes.
    pub processes: Vec<ProcNode>,
    /// All created signals.
    pub signals: Vec<SignalNode>,
    /// All created events.
    pub events: Vec<EventNode>,
    /// All registered plain-state elements (shared cells, FIFOs).
    pub states: Vec<StateNode>,
    /// Same-delta write races observed on unresolved signals.
    pub races: Vec<WriteRace>,
    /// Scheduling races found by the dynamic race detector (same-delta,
    /// same-phase conflicts on signals and plain state).
    pub sched_races: Vec<SchedRace>,
    /// Delta-watchdog trip, if one occurred.
    pub overflow: Option<DeltaOverflow>,
    /// `true` if runtime observation was enabled at any point (read/write
    /// sets and activation counts are only meaningful then).
    pub observed: bool,
    /// `true` if the dynamic race detector was enabled at any point
    /// ([`sched_races`](DesignGraph::sched_races) and the per-state
    /// reader/writer sets are only meaningful then).
    pub race_observed: bool,
}

impl DesignGraph {
    /// The signal a given event belongs to, if any.
    pub fn event_signal(&self, event: usize) -> Option<usize> {
        match self.events.get(event)?.kind {
            EventKind::SignalChanged(s)
            | EventKind::SignalPosedge(s)
            | EventKind::SignalNegedge(s) => Some(s),
            EventKind::User => None,
        }
    }
}

/// Static per-signal facts, registered at elaboration (always on).
pub(crate) struct SigStatic {
    pub(crate) name: String,
    pub(crate) resolved: bool,
    pub(crate) width: usize,
    pub(crate) changed: usize,
    pub(crate) posedge: Option<usize>,
    pub(crate) negedge: Option<usize>,
    pub(crate) driver_slots: Cell<usize>,
    pub(crate) kernel_driven: Cell<bool>,
    pub(crate) traced: Cell<bool>,
}

/// Growable bit matrix: `rows × cols` of booleans.
#[derive(Default)]
struct BitMatrix {
    rows: RefCell<Vec<Vec<u64>>>,
}

impl BitMatrix {
    #[inline]
    fn set(&self, row: usize, col: usize) {
        let mut rows = self.rows.borrow_mut();
        if rows.len() <= row {
            rows.resize_with(row + 1, Vec::new);
        }
        let r = &mut rows[row];
        let word = col / 64;
        if r.len() <= word {
            r.resize(word + 1, 0);
        }
        r[word] |= 1 << (col % 64);
    }

    fn row_cols(&self, row: usize) -> Vec<usize> {
        let rows = self.rows.borrow();
        let Some(r) = rows.get(row) else { return Vec::new() };
        let mut out = Vec::new();
        for (w, bits) in r.iter().enumerate() {
            let mut b = *bits;
            while b != 0 {
                let i = b.trailing_zeros() as usize;
                out.push(w * 64 + i);
                b &= b - 1;
            }
        }
        out
    }

    fn col_rows(&self, col: usize, nrows: usize) -> Vec<usize> {
        (0..nrows)
            .filter(|&row| {
                let rows = self.rows.borrow();
                rows.get(row)
                    .and_then(|r| r.get(col / 64))
                    .is_some_and(|bits| bits & (1 << (col % 64)) != 0)
            })
            .collect()
    }
}

/// Default bound on delta cycles within one timestep before the livelock
/// watchdog fires (the platform models settle in < 10 deltas per cycle;
/// the RTL ripple-carry ALU in < 100).
pub const DEFAULT_DELTA_LIMIT: u64 = 10_000;

/// Encoding of "no process is running" (testbench code) on the hub's
/// current-process cell. Process ids are vector indices and never get
/// anywhere near this.
pub(crate) const NO_PROC: u32 = u32::MAX;

/// Runtime observation state; allocated when the probe is enabled.
///
/// The per-access hot paths live on the signal cores themselves (a
/// `(generation, writer)` cache cell per signal filters repeated accesses
/// before they reach this state — see `SignalCore` in the signal module);
/// these methods are the once-per-novel-pair slow paths.
pub(crate) struct ProbeState {
    reads: BitMatrix,
    writes: BitMatrix,
    external_reads: RefCell<BTreeSet<usize>>,
    external_writes: RefCell<BTreeSet<usize>>,
    races: RefCell<BTreeSet<WriteRace>>,
    commits_this_delta: RefCell<Vec<usize>>,
    commits_last_delta: RefCell<Vec<usize>>,
    resolved_conflicts: RefCell<Vec<u64>>,
    overflow: RefCell<Option<DeltaOverflow>>,
    /// Plain-state access sets (row = process, col = state id). Only
    /// populated while the race detector is on.
    state_reads: BitMatrix,
    state_writes: BitMatrix,
    state_external: RefCell<BTreeSet<usize>>,
    /// Per-delta access log of the race detector: `(state, proc, phase,
    /// op)` tuples, drained and cross-checked at the end of every delta.
    delta_log: RefCell<Vec<(u32, u32, u8, AccessOp)>>,
    sched_races: RefCell<BTreeSet<SchedRace>>,
}

/// One delta-cycle access log entry (state id, process, phase, op).
type LogEntry = (u32, u32, u8, AccessOp);

impl ProbeState {
    pub(crate) fn new() -> Self {
        ProbeState {
            reads: BitMatrix::default(),
            writes: BitMatrix::default(),
            external_reads: RefCell::new(BTreeSet::new()),
            external_writes: RefCell::new(BTreeSet::new()),
            races: RefCell::new(BTreeSet::new()),
            commits_this_delta: RefCell::new(Vec::new()),
            commits_last_delta: RefCell::new(Vec::new()),
            resolved_conflicts: RefCell::new(Vec::new()),
            overflow: RefCell::new(None),
            state_reads: BitMatrix::default(),
            state_writes: BitMatrix::default(),
            state_external: RefCell::new(BTreeSet::new()),
            delta_log: RefCell::new(Vec::new()),
            sched_races: RefCell::new(BTreeSet::new()),
        }
    }

    pub(crate) fn note_read(&self, sig: usize, proc: u32) {
        if proc == NO_PROC {
            self.external_reads.borrow_mut().insert(sig);
        } else {
            self.reads.set(proc as usize, sig);
        }
    }

    pub(crate) fn note_write(&self, sig: usize, writer: u32) {
        if writer == NO_PROC {
            self.external_writes.borrow_mut().insert(sig);
        } else {
            self.writes.set(writer as usize, sig);
        }
    }

    /// Records a same-delta write race between two distinct processes that
    /// requested different values (detected on the signal's cache cell).
    pub(crate) fn note_race(&self, sig: usize, a: u32, b: u32) {
        self.races.borrow_mut().insert(WriteRace {
            signal: sig,
            writer_a: a.min(b) as usize,
            writer_b: a.max(b) as usize,
        });
    }

    /// Records a plain-state access for the race detector: updates the
    /// reader/writer sets and appends to the per-delta log (process
    /// accesses only; testbench touches go to the external set).
    pub(crate) fn note_state(&self, state: u32, proc: u32, phase: u8, op: AccessOp) {
        if proc == NO_PROC {
            self.state_external.borrow_mut().insert(state as usize);
            return;
        }
        match op {
            AccessOp::Read | AccessOp::Peek => self.state_reads.set(proc as usize, state as usize),
            AccessOp::Write | AccessOp::Produce | AccessOp::Consume => {
                self.state_writes.set(proc as usize, state as usize);
            }
        }
        let mut log = self.delta_log.borrow_mut();
        let entry: LogEntry = (state, proc, phase, op);
        // A body typically touches its state several times per
        // activation; collapsing immediate repeats keeps the log short.
        if log.last() != Some(&entry) {
            log.push(entry);
        }
    }

    /// Records a same-delta, same-phase scheduling race on a signal
    /// (write–write with differing values, detected on the signal core's
    /// last-writer window).
    pub(crate) fn note_sched_race_signal(&self, sig: usize, a: u32, b: u32) {
        self.sched_races.borrow_mut().insert(SchedRace::new(
            RaceElem::Signal(sig),
            a,
            AccessOp::Write,
            b,
            AccessOp::Write,
        ));
    }

    /// Closes the evaluate phase of one delta cycle for the race
    /// detector: cross-checks the access log for conflicting same-phase
    /// accesses by distinct processes, then clears it. Quadratic in the
    /// per-delta log length, which repeat-collapsing keeps small.
    pub(crate) fn end_delta_races(&self) {
        let mut log = self.delta_log.borrow_mut();
        if log.len() > 1 {
            let mut races = self.sched_races.borrow_mut();
            for i in 0..log.len() {
                let (state_a, proc_a, phase_a, op_a) = log[i];
                for &(state_b, proc_b, phase_b, op_b) in log.iter().skip(i + 1) {
                    if state_a == state_b
                        && proc_a != proc_b
                        && phase_a == phase_b
                        && op_a.conflicts_with(op_b)
                    {
                        races.insert(SchedRace::new(
                            RaceElem::State(state_a as usize),
                            proc_a,
                            op_a,
                            proc_b,
                            op_b,
                        ));
                    }
                }
            }
        }
        log.clear();
    }

    pub(crate) fn note_commit(&self, sig: usize, conflict: bool) {
        self.commits_this_delta.borrow_mut().push(sig);
        if conflict {
            let mut v = self.resolved_conflicts.borrow_mut();
            if v.len() <= sig {
                v.resize(sig + 1, 0);
            }
            v[sig] += 1;
        }
    }

    /// Closes a delta cycle near the watchdog bound (the kernel only
    /// calls this while commit recording is armed — far from the bound the
    /// per-delta bookkeeping is a pair of counter cells on the hub).
    /// `deltas` is the just-completed delta count of this timestep;
    /// returns `true` if the watchdog tripped and the simulation should
    /// stop.
    pub(crate) fn end_of_delta(&self, now_ps: u64, deltas: u64, limit: u64) -> bool {
        {
            let mut last = self.commits_last_delta.borrow_mut();
            let mut this = self.commits_this_delta.borrow_mut();
            std::mem::swap(&mut *last, &mut *this);
            this.clear();
        }
        if deltas > limit && self.overflow.borrow().is_none() {
            let mut oscillating: Vec<usize> = self.commits_last_delta.borrow().clone();
            oscillating.sort_unstable();
            oscillating.dedup();
            *self.overflow.borrow_mut() = Some(DeltaOverflow { at_ps: now_ps, limit, oscillating });
            return true;
        }
        false
    }
}

/// Per-process facts handed to [`snapshot`] by the kernel (which owns the
/// process table, including the probe-gated activation counters).
pub(crate) struct ProcInfo {
    pub(crate) name: String,
    pub(crate) kind: ProcKind,
    pub(crate) phase: u8,
    pub(crate) activations: u64,
    pub(crate) state: LifeState,
    pub(crate) used_dynamic_wait: bool,
    pub(crate) bypassed: Option<&'static str>,
    pub(crate) restored_spawn: bool,
}

/// Assembles the [`DesignGraph`] snapshot. Called by
/// [`Simulator::design_graph`](crate::Simulator::design_graph).
pub(crate) fn snapshot(
    registry: &[SigStatic],
    states: &[StateStatic],
    proc_info: &[ProcInfo],
    event_info: &[(String, Vec<usize>)],
    probe: Option<&ProbeState>,
    race_observed: bool,
) -> DesignGraph {
    let nprocs = proc_info.len();

    // Classify events from the signal registry.
    let mut event_kind = vec![EventKind::User; event_info.len()];
    for (sig, s) in registry.iter().enumerate() {
        if let Some(k) = event_kind.get_mut(s.changed) {
            *k = EventKind::SignalChanged(sig);
        }
        if let Some(p) = s.posedge {
            event_kind[p] = EventKind::SignalPosedge(sig);
        }
        if let Some(n) = s.negedge {
            event_kind[n] = EventKind::SignalNegedge(sig);
        }
    }

    // Invert static subscriptions: event -> procs becomes proc -> events.
    let mut sensitivity: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
    for (ev, (_, subs)) in event_info.iter().enumerate() {
        for pid in subs {
            if let Some(s) = sensitivity.get_mut(*pid) {
                s.push(ev);
            }
        }
    }

    let processes = proc_info
        .iter()
        .enumerate()
        .map(|(id, info)| ProcNode {
            id,
            name: info.name.clone(),
            kind: info.kind,
            phase: info.phase,
            sensitivity: std::mem::take(&mut sensitivity[id]),
            activations: info.activations,
            state: info.state,
            used_dynamic_wait: info.used_dynamic_wait,
            bypassed: info.bypassed,
            restored_spawn: info.restored_spawn,
            reads: probe.map_or_else(Vec::new, |p| p.reads.row_cols(id)),
            writes: probe.map_or_else(Vec::new, |p| p.writes.row_cols(id)),
        })
        .collect();

    let signals = registry
        .iter()
        .enumerate()
        .map(|(id, s)| SignalNode {
            id,
            name: s.name.clone(),
            resolved: s.resolved,
            width: s.width,
            driver_slots: s.driver_slots.get(),
            kernel_driven: s.kernel_driven.get(),
            changed_event: s.changed,
            posedge_event: s.posedge,
            negedge_event: s.negedge,
            traced: s.traced.get(),
            readers: probe.map_or_else(Vec::new, |p| p.reads.col_rows(id, nprocs)),
            writers: probe.map_or_else(Vec::new, |p| p.writes.col_rows(id, nprocs)),
            external_reads: probe.is_some_and(|p| p.external_reads.borrow().contains(&id)),
            external_writes: probe.is_some_and(|p| p.external_writes.borrow().contains(&id)),
            resolved_conflicts: probe
                .map_or(0, |p| p.resolved_conflicts.borrow().get(id).copied().unwrap_or(0)),
        })
        .collect();

    let events = event_info
        .iter()
        .enumerate()
        .map(|(id, (name, subs))| EventNode {
            id,
            name: name.clone(),
            kind: event_kind[id],
            subscribers: subs.clone(),
        })
        .collect();

    let state_nodes = states
        .iter()
        .enumerate()
        .map(|(id, s)| StateNode {
            id,
            name: s.name.clone(),
            kind: s.kind,
            location: s.location.clone(),
            arbitrated: s.arbitrated.borrow().clone(),
            readers: probe.map_or_else(Vec::new, |p| p.state_reads.col_rows(id, nprocs)),
            writers: probe.map_or_else(Vec::new, |p| p.state_writes.col_rows(id, nprocs)),
            external: probe.is_some_and(|p| p.state_external.borrow().contains(&id)),
        })
        .collect();

    DesignGraph {
        processes,
        signals,
        events,
        states: state_nodes,
        races: probe.map_or_else(Vec::new, |p| p.races.borrow().iter().copied().collect()),
        sched_races: probe
            .map_or_else(Vec::new, |p| p.sched_races.borrow().iter().copied().collect()),
        overflow: probe.and_then(|p| p.overflow.borrow().clone()),
        observed: probe.is_some(),
        race_observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_matrix_set_and_readback() {
        let m = BitMatrix::default();
        m.set(0, 3);
        m.set(0, 64);
        m.set(2, 3);
        assert_eq!(m.row_cols(0), vec![3, 64]);
        assert_eq!(m.row_cols(1), Vec::<usize>::new());
        assert_eq!(m.col_rows(3, 3), vec![0, 2]);
        assert_eq!(m.col_rows(64, 3), vec![0]);
    }

    #[test]
    fn races_are_normalised_and_deduplicated() {
        let p = ProbeState::new();
        p.note_race(5, 3, 1);
        p.note_race(5, 1, 3); // same pair, either order
        assert_eq!(
            p.races.borrow().iter().copied().collect::<Vec<_>>(),
            vec![WriteRace { signal: 5, writer_a: 1, writer_b: 3 }]
        );
    }

    #[test]
    fn external_accesses_are_kept_apart_from_process_sets() {
        let p = ProbeState::new();
        p.note_read(4, NO_PROC);
        p.note_write(4, NO_PROC);
        p.note_read(4, 2);
        p.note_write(4, 2);
        assert!(p.external_reads.borrow().contains(&4));
        assert!(p.external_writes.borrow().contains(&4));
        assert_eq!(p.reads.col_rows(4, 3), vec![2]);
        assert_eq!(p.writes.col_rows(4, 3), vec![2]);
    }

    #[test]
    fn access_conflict_matrix() {
        use AccessOp::*;
        // Pure observations commute.
        assert!(!Read.conflicts_with(Read));
        assert!(!Peek.conflicts_with(Peek));
        assert!(!Read.conflicts_with(Peek));
        // FIFO produce/consume commute within a delta (request–update on
        // the produce side, committed-queue pop on the consume side).
        assert!(!Produce.conflicts_with(Consume));
        assert!(!Consume.conflicts_with(Produce));
        // Mutations conflict with everything else.
        assert!(Write.conflicts_with(Write));
        assert!(Write.conflicts_with(Read));
        assert!(Read.conflicts_with(Write));
        assert!(Produce.conflicts_with(Produce));
        assert!(Consume.conflicts_with(Consume));
        assert!(Peek.conflicts_with(Produce));
        assert!(Peek.conflicts_with(Consume));
    }

    #[test]
    fn delta_log_flags_same_phase_conflicts_only() {
        let p = ProbeState::new();
        // Same phase, distinct procs, read vs write: a race.
        p.note_state(3, 0, 1, AccessOp::Read);
        p.note_state(3, 1, 1, AccessOp::Write);
        // Different phases: ordered by the kernel, not a race.
        p.note_state(4, 0, 0, AccessOp::Write);
        p.note_state(4, 1, 2, AccessOp::Write);
        // Same proc: self-conflicts are fine.
        p.note_state(5, 2, 1, AccessOp::Write);
        p.note_state(5, 2, 1, AccessOp::Read);
        p.end_delta_races();
        let races: Vec<SchedRace> = p.sched_races.borrow().iter().copied().collect();
        assert_eq!(
            races,
            vec![SchedRace {
                elem: RaceElem::State(3),
                proc_a: 0,
                op_a: AccessOp::Read,
                proc_b: 1,
                op_b: AccessOp::Write,
            }]
        );
        // The log is per-delta: a second delta starts clean.
        p.note_state(3, 1, 1, AccessOp::Write);
        p.end_delta_races();
        assert_eq!(p.sched_races.borrow().len(), 1);
    }

    #[test]
    fn sched_races_are_normalised_and_deduplicated() {
        let p = ProbeState::new();
        p.note_state(7, 5, 0, AccessOp::Write);
        p.note_state(7, 2, 0, AccessOp::Read);
        p.end_delta_races();
        p.note_state(7, 2, 0, AccessOp::Read);
        p.note_state(7, 5, 0, AccessOp::Write);
        p.end_delta_races();
        let races: Vec<SchedRace> = p.sched_races.borrow().iter().copied().collect();
        assert_eq!(races.len(), 1, "either access order is the same race");
        assert_eq!((races[0].proc_a, races[0].op_a), (2, AccessOp::Read));
        assert_eq!((races[0].proc_b, races[0].op_b), (5, AccessOp::Write));
    }

    #[test]
    fn external_state_touches_stay_out_of_the_delta_log() {
        let p = ProbeState::new();
        p.note_state(1, NO_PROC, 0, AccessOp::Write);
        p.note_state(1, 0, 0, AccessOp::Read);
        p.end_delta_races();
        assert!(p.sched_races.borrow().is_empty(), "testbench code cannot race");
        assert!(p.state_external.borrow().contains(&1));
        assert_eq!(p.state_reads.col_rows(1, 2), vec![0]);
    }

    #[test]
    fn watchdog_trips_after_limit() {
        let p = ProbeState::new();
        let limit = 4;
        for i in 1..=limit {
            p.note_commit(7, false);
            assert!(!p.end_of_delta(i, i, limit), "delta {i} within bound");
        }
        p.note_commit(7, false);
        p.note_commit(9, false);
        p.note_commit(9, false);
        assert!(p.end_of_delta(99, limit + 1, limit));
        let o = p.overflow.borrow().clone().unwrap();
        assert_eq!(o.at_ps, 99);
        assert_eq!(o.limit, limit);
        assert_eq!(o.oscillating, vec![7, 9]);
        // Back within the bound (a fresh timestep): no second trip.
        assert!(!p.end_of_delta(100, 1, limit));
    }
}
