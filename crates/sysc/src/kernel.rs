//! The discrete-event simulation kernel.
//!
//! The kernel follows SystemC's two-phase *evaluate / update* scheduler:
//!
//! 1. **Evaluate** — every runnable process executes. Signal writes are
//!    *requests*: they record a next value but do not change what readers
//!    see.
//! 2. **Update** — requested signal writes are committed; each committed
//!    change notifies the signal's value-changed (and edge) events, which
//!    schedules the sensitive processes for the **next delta cycle**.
//! 3. When no more delta cycles are pending, simulated time advances to the
//!    earliest entry of the timed-event queue.
//!
//! Processes come in two flavours mirroring `SC_METHOD` and `SC_THREAD`;
//! see [`module@crate::process`] docs for the cost model, which is what the
//! paper's §4.3 experiment measures.

use crate::process::{Body, Ctx, Next, ProcId, ProcSlot, Wait};
use crate::signal::{ChannelCkpt, ClockLine, Update, WriteHub};
use crate::time::SimTime;
use crate::trace::{TraceSource, Vcd};
use crate::value::SigValue;
use checkpoint::CkptError;
use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::io;
use std::path::Path;
use std::rc::Rc;

/// Identifies a notification event (value change, clock edge, or a
/// user-created event).
///
/// `EventId` is a cheap copyable handle; events live for the lifetime of
/// the [`Simulator`] that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) usize);

pub(crate) struct EventState {
    pub(crate) name: String,
    /// Permanently subscribed processes (static sensitivity).
    pub(crate) static_subs: Vec<ProcId>,
    /// One-shot waiters (dynamic sensitivity, `Next::Event`).
    pub(crate) dyn_subs: Vec<ProcId>,
}

/// A timed action in the kernel's future-event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// Resume a thread / method parked with a timed wait.
    Resume(ProcId),
    /// Notify an event (delta semantics at the target time).
    Notify(EventId),
    /// Edge of kernel clock `n`: request the clock signal's next level,
    /// then re-arm half a period later.
    Clock(usize),
}

/// A kernel-driven clock line (see [`Clock`](crate::Clock)).
struct ClockEntry {
    line: Rc<dyn ClockLine>,
    half: SimTime,
    /// The first edge has been requested; until then the clock has no
    /// timed entry.
    started: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimedEntry {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl Ord for TimedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for TimedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Pop order of the kernel's runnable queue within one evaluation phase —
/// the schedule-perturbation knob.
///
/// The determinism contract (DESIGN.md §13) is: a well-formed model
/// produces bit-identical results under *every* variant, because processes
/// sharing a [phase](ProcBuilder::phase) are order-independent and
/// cross-phase ordering is pinned by the kernel. `Fifo` is the default
/// (and the historical behaviour); the others exist to *prove* schedule
/// independence by perturbation, not to be faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleOrder {
    /// Trigger order (arrival order in the runnable queue). The default.
    #[default]
    Fifo,
    /// Reversed trigger order.
    Lifo,
    /// Deterministic seeded shuffle (splitmix64 Fisher–Yates): equal
    /// seeds give equal schedules, different seeds explore different
    /// interleavings.
    SeededShuffle(u64),
}

impl ScheduleOrder {
    /// Parses the CLI spelling: `fifo`, `lifo`, or `shuffle:<seed>`.
    pub fn parse(s: &str) -> Option<ScheduleOrder> {
        match s {
            "fifo" => Some(ScheduleOrder::Fifo),
            "lifo" => Some(ScheduleOrder::Lifo),
            _ => {
                let seed = s.strip_prefix("shuffle:")?;
                Some(ScheduleOrder::SeededShuffle(seed.parse().ok()?))
            }
        }
    }
}

impl fmt::Display for ScheduleOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleOrder::Fifo => f.write_str("fifo"),
            ScheduleOrder::Lifo => f.write_str("lifo"),
            ScheduleOrder::SeededShuffle(seed) => write!(f, "shuffle:{seed}"),
        }
    }
}

/// Why [`Simulator::run_until`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunReason {
    /// The time limit was reached with work still outstanding.
    TimeReached,
    /// No timed events remain and no process is runnable — the model has
    /// gone quiet (usually a modelling error for clocked systems).
    Starved,
    /// A process (or external code) called `stop()`.
    Stopped,
}

/// Aggregate scheduler statistics, useful both for performance analysis
/// (the paper's CPS metric divides wall time by these) and for asserting
/// scheduling behaviour in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stats {
    /// Number of process body executions.
    pub activations: u64,
    /// Number of completed delta cycles.
    pub deltas: u64,
    /// Number of committed signal updates.
    pub updates: u64,
    /// Number of distinct points in time visited.
    pub timed_steps: u64,
    /// Number of resolved-signal writes that produced an `X` lane
    /// (detected driver conflicts). Always zero for native data types —
    /// the detection loss the paper accepts in §4.2.
    pub conflicts: u64,
    /// Number of registered processes.
    pub processes: usize,
    /// Number of registered events.
    pub events: usize,
}

#[derive(Default)]
pub(crate) struct StatCells {
    pub(crate) activations: Cell<u64>,
    pub(crate) deltas: Cell<u64>,
    pub(crate) updates: Cell<u64>,
    pub(crate) timed_steps: Cell<u64>,
}

/// Shared kernel state. Public API is on [`Simulator`].
pub(crate) struct KernelShared {
    pub(crate) now: Cell<SimTime>,
    /// Processes scheduled for the next delta cycle.
    pub(crate) pending: RefCell<Vec<ProcId>>,
    pub(crate) hub: Rc<WriteHub>,
    timed: RefCell<BinaryHeap<Reverse<TimedEntry>>>,
    seq: Cell<u64>,
    pub(crate) procs: RefCell<Vec<ProcSlot>>,
    pub(crate) events: RefCell<Vec<EventState>>,
    pub(crate) vcd: RefCell<Option<Vcd>>,
    pub(crate) stop: Cell<bool>,
    pub(crate) stats: StatCells,
    /// Pop order of the runnable queue within one phase (the schedule-
    /// perturbation knob; `Fifo` by default).
    order: Cell<ScheduleOrder>,
    /// splitmix64 state for [`ScheduleOrder::SeededShuffle`].
    rng: Cell<u64>,
    /// Highest phase any registered process uses; the per-delta phase
    /// sort is skipped entirely while this is zero.
    max_phase: Cell<u8>,
    /// Every checkpointable channel, in creation order (see
    /// [`ChannelCkpt`]); identically elaborated models share this order,
    /// which is what lets a snapshot restore by index.
    pub(crate) channels: RefCell<Vec<Rc<dyn ChannelCkpt>>>,
    /// Kernel-driven clocks, indexed by [`Action::Clock`].
    clocks: RefCell<Vec<ClockEntry>>,
    /// Spare buffers of the delta loop — the delta batch, the update list
    /// and one timed step's actions — swapped with the live queues each
    /// step so the steady state allocates nothing.
    batch_buf: RefCell<Vec<ProcId>>,
    update_buf: RefCell<Vec<Rc<dyn Update>>>,
    action_buf: RefCell<Vec<Action>>,
}

impl Drop for KernelShared {
    /// Breaks the `SignalCore → hub → updates → SignalCore` cycle that an
    /// uncommitted write (one never settled by a `run_*` call) leaves
    /// behind, so dropping the simulator frees its signals.
    fn drop(&mut self) {
        drop(self.hub.updates.take());
    }
}

impl KernelShared {
    fn new() -> Self {
        KernelShared {
            now: Cell::new(SimTime::ZERO),
            pending: RefCell::new(Vec::new()),
            hub: Rc::new(WriteHub::default()),
            timed: RefCell::new(BinaryHeap::new()),
            seq: Cell::new(0),
            procs: RefCell::new(Vec::new()),
            events: RefCell::new(Vec::new()),
            vcd: RefCell::new(None),
            stop: Cell::new(false),
            stats: StatCells::default(),
            order: Cell::new(ScheduleOrder::Fifo),
            rng: Cell::new(0),
            max_phase: Cell::new(0),
            channels: RefCell::new(Vec::new()),
            clocks: RefCell::new(Vec::new()),
            batch_buf: RefCell::new(Vec::new()),
            update_buf: RefCell::new(Vec::new()),
            action_buf: RefCell::new(Vec::new()),
        }
    }

    /// A cheap structural identity of the elaborated model: process and
    /// event names plus the channel count. Two models agree on it exactly
    /// when they were built by the same elaboration sequence — the
    /// precondition for index-based checkpoint restore.
    fn elab_digest(&self) -> u64 {
        let mut ident = String::new();
        for p in self.procs.borrow().iter() {
            ident.push_str(&p.name);
            ident.push('\n');
        }
        ident.push('\x1f');
        for e in self.events.borrow().iter() {
            ident.push_str(&e.name);
            ident.push('\n');
        }
        ident.push('\x1f');
        ident.push_str(&self.channels.borrow().len().to_string());
        checkpoint::fnv1a(ident.as_bytes())
    }

    /// Advances the splitmix64 stream (SeededShuffle's PRNG).
    fn next_rand(&self) -> u64 {
        let s = self.rng.get().wrapping_add(0x9E37_79B9_7F4A_7C15);
        self.rng.set(s);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Arranges one delta batch for execution: applies the configured
    /// perturbation, then restores the cross-phase contract with a stable
    /// sort by process phase — so perturbation only ever reorders
    /// processes *within* a phase. Under the default `Fifo` order with no
    /// phases in use this is a no-op on the trigger order.
    fn arrange(&self, batch: &mut [ProcId]) {
        match self.order.get() {
            ScheduleOrder::Fifo => {}
            ScheduleOrder::Lifo => batch.reverse(),
            ScheduleOrder::SeededShuffle(_) => {
                // Fisher–Yates over the batch, driven by the seeded
                // stream: equal seeds give equal schedules.
                for i in (1..batch.len()).rev() {
                    let j = (self.next_rand() % (i as u64 + 1)) as usize;
                    batch.swap(i, j);
                }
            }
        }
        if self.max_phase.get() > 0 && batch.len() > 1 {
            let procs = self.procs.borrow();
            batch.sort_by_key(|pid| procs[pid.0].phase);
        }
    }

    pub(crate) fn create_event(&self, name: &str) -> EventId {
        let mut events = self.events.borrow_mut();
        let id = EventId(events.len());
        events.push(EventState {
            name: name.to_string(),
            static_subs: Vec::new(),
            dyn_subs: Vec::new(),
        });
        id
    }

    fn push_timed(&self, time: SimTime, action: Action) {
        let seq = self.seq.get();
        self.seq.set(seq + 1);
        self.timed.borrow_mut().push(Reverse(TimedEntry { time, seq, action }));
    }

    pub(crate) fn schedule_timed_notify(&self, after: SimTime, ev: EventId) {
        self.push_timed(self.now.get().saturating_add(after), Action::Notify(ev));
    }

    /// Registers a kernel clock toggling `line` every `half`. Its first
    /// edge is requested by the next `run_*` call, not here: a pending
    /// update of a never-run simulator would sit in the hub until drop.
    pub(crate) fn register_clock(&self, line: Rc<dyn ClockLine>, half: SimTime) {
        self.clocks.borrow_mut().push(ClockEntry { line, half, started: false });
    }

    /// Requests the first edge of every clock not yet started.
    fn start_clocks(&self) {
        let n = self.clocks.borrow().len();
        for i in 0..n {
            let started = std::mem::replace(&mut self.clocks.borrow_mut()[i].started, true);
            if !started {
                self.clock_edge(i);
            }
        }
    }

    /// One edge of clock `n`: an ordinary plain write request, committed
    /// in this time step's first update phase — where a generator
    /// thread's write would commit — then the re-arm half a period later.
    fn clock_edge(&self, n: usize) {
        let half = {
            let clocks = self.clocks.borrow();
            let c = &clocks[n];
            if c.line.request_toggle() {
                self.hub.updates.borrow_mut().push(c.line.clone());
            }
            c.half
        };
        self.push_timed(self.now.get().saturating_add(half), Action::Clock(n));
    }

    /// Schedules `pid` to run in the next delta cycle. `from_static` marks
    /// a static-sensitivity trigger, which is ignored while the process is
    /// parked in a dynamic (timed or event) wait — SystemC semantics.
    fn schedule_proc(&self, pid: ProcId, from_static: bool) {
        let mut procs = self.procs.borrow_mut();
        let slot = &mut procs[pid.0];
        if from_static && !matches!(slot.wait, Wait::Static) {
            return;
        }
        if matches!(slot.wait, Wait::Done) {
            return;
        }
        if matches!(slot.life, crate::probe::LifeState::Suspended) {
            // A swapped-out process remembers (coalesced) that it was
            // triggered; `resume()` replays the wake-up.
            slot.woken_while_suspended = true;
            return;
        }
        if !slot.scheduled {
            slot.scheduled = true;
            drop(procs);
            self.pending.borrow_mut().push(pid);
        }
    }

    /// Notifies `ev` with delta semantics: subscribers run in the next
    /// delta cycle of the current time point.
    pub(crate) fn notify_now(&self, ev: EventId) {
        let dyn_subs = {
            let mut events = self.events.borrow_mut();
            let e = &mut events[ev.0];
            // Static subscribers: iterate without allocating when possible.
            for i in 0..e.static_subs.len() {
                let pid = e.static_subs[i];
                // schedule_proc borrows procs/pending, not events.
                self.schedule_proc(pid, true);
            }
            std::mem::take(&mut e.dyn_subs)
        };
        for pid in dyn_subs {
            {
                let mut procs = self.procs.borrow_mut();
                let slot = &mut procs[pid.0];
                if matches!(slot.wait, Wait::DynEvent) {
                    slot.wait = Wait::Static;
                } else {
                    continue;
                }
            }
            self.schedule_proc(pid, false);
        }
    }

    /// Executes one process activation and re-arms its wait state.
    /// `probe_on` is the probe flag, sampled once per delta batch.
    fn run_process(&self, pid: ProcId, probe_on: bool) {
        let (mut body, phase) = {
            let mut procs = self.procs.borrow_mut();
            let slot = &mut procs[pid.0];
            slot.scheduled = false;
            if matches!(slot.wait, Wait::Done) {
                return;
            }
            if matches!(slot.life, crate::probe::LifeState::Suspended) {
                // Suspended after being queued: defer to resume().
                slot.woken_while_suspended = true;
                return;
            }
            if slot.skip > 0 {
                slot.skip -= 1;
                return;
            }
            match slot.body.take() {
                Some(b) => {
                    if probe_on {
                        slot.activations += 1;
                    }
                    (b, slot.phase)
                }
                None => return, // re-entrant trigger while running; ignore
            }
        };
        self.stats.activations.set(self.stats.activations.get() + 1);
        if probe_on {
            self.hub.cur_proc.set(pid.0 as u32);
            self.hub.cur_bit.set(if pid.0 < 64 { 1 << pid.0 } else { 0 });
            self.hub.cur_phase.set(phase);
        }
        let mut ctx = Ctx::new(self, pid);
        let next = match &mut body {
            Body::Method(f) => {
                f(&mut ctx);
                ctx.take_next_trigger().unwrap_or(Next::Static)
            }
            Body::Thread(f) => {
                // SC_THREAD cost model: a real SystemC thread performs two
                // coroutine stack switches per activation. Rust state-
                // machine threads have no stacks to switch, so the
                // equivalent-magnitude cost is modelled by a per-
                // activation wait-frame allocation that carries the
                // thread's resumption decision through the scheduler (see
                // the process module docs and DESIGN.md §3). Methods skip
                // this entirely — which is the §4.3 trade-off.
                let mut frame = std::hint::black_box(Box::new(Next::Static));
                *frame = f(&mut ctx);
                *std::hint::black_box(frame)
            }
        };
        let mut procs = self.procs.borrow_mut();
        let slot = &mut procs[pid.0];
        if matches!(slot.life, crate::probe::LifeState::Killed) {
            // Killed from inside its own activation (or by a peer in this
            // batch): discard the body so its captured ports release.
            return;
        }
        slot.body = Some(body);
        if probe_on && matches!(next, Next::In(_) | Next::Event(_)) {
            slot.used_dynamic_wait = true;
        }
        match next {
            Next::Static => slot.wait = Wait::Static,
            Next::Cycles(n) => {
                slot.wait = Wait::Static;
                slot.skip = n.saturating_sub(1);
            }
            Next::Delta => {
                slot.wait = Wait::Static;
                if matches!(slot.life, crate::probe::LifeState::Suspended) {
                    slot.woken_while_suspended = true;
                } else if !slot.scheduled {
                    slot.scheduled = true;
                    drop(procs);
                    self.pending.borrow_mut().push(pid);
                }
            }
            Next::In(d) => {
                slot.wait = Wait::DynTime;
                drop(procs);
                self.push_timed(self.now.get().saturating_add(d), Action::Resume(pid));
            }
            Next::Event(e) => {
                slot.wait = Wait::DynEvent;
                drop(procs);
                self.events.borrow_mut()[e.0].dyn_subs.push(pid);
            }
            Next::Done => slot.wait = Wait::Done,
        }
    }

    /// Runs delta cycles until quiescent at the current time point.
    fn settle(&self) {
        loop {
            if self.pending.borrow().is_empty() && self.hub.updates.borrow().is_empty() {
                break;
            }
            let mut batch = self.batch_buf.take();
            std::mem::swap(&mut *self.pending.borrow_mut(), &mut batch);
            self.arrange(&mut batch);
            let probe_on = self.hub.probe_on.get();
            for &pid in &batch {
                self.run_process(pid, probe_on);
            }
            if probe_on {
                // Each activation names itself; accesses after the batch
                // are the testbench's.
                self.hub.cur_proc.set(crate::probe::NO_PROC);
                self.hub.cur_bit.set(0);
            }
            batch.clear();
            self.batch_buf.replace(batch);
            if self.hub.race_on.get() {
                // Race detector: cross-check this delta's evaluate-phase
                // plain-state access log.
                if let Some(p) = self.hub.probe.borrow().as_deref() {
                    p.end_delta_races();
                }
            }
            // Update phase: commit signal writes, firing change events.
            // Commits apply in canonical (registration) key order, not in
            // evaluation (request) order, so commit side effects — change
            // notifications, VCD records — are schedule-independent.
            let mut ups = self.update_buf.take();
            std::mem::swap(&mut *self.hub.updates.borrow_mut(), &mut ups);
            if ups.len() > 1 {
                ups.sort_by_key(|u| u.order_key());
            }
            self.stats.updates.set(self.stats.updates.get() + ups.len() as u64);
            for u in ups.drain(..) {
                u.apply(self);
            }
            self.update_buf.replace(ups);
            self.stats.deltas.set(self.stats.deltas.get() + 1);
            if self.hub.probe_on.get() {
                let n = self.hub.deltas_this_step.get() + 1;
                self.hub.deltas_this_step.set(n);
                let limit = self.hub.delta_limit.get();
                if n + 1 >= limit {
                    // Near the watchdog bound: arm commit recording (to
                    // name oscillating signals) and run the trip check.
                    // Far from it — the steady state — delta bookkeeping
                    // is just the two counter cells above.
                    self.hub.commit_armed.set(true);
                    let tripped = self
                        .hub
                        .probe
                        .borrow()
                        .as_deref()
                        .is_some_and(|p| p.end_of_delta(self.now.get().as_ps(), n, limit));
                    if tripped {
                        // Livelock watchdog: this timestep exceeded the
                        // delta bound; stop so the caller can inspect the
                        // graph.
                        self.stop.set(true);
                    }
                }
            }
            if self.stop.get() {
                break;
            }
        }
    }

    pub(crate) fn vcd_record(&self, var: usize, value: &str) {
        if let Some(vcd) = self.vcd.borrow_mut().as_mut() {
            vcd.record(var, self.now.get(), value);
        }
    }
}

/// The top-level simulator: create signals, events and processes, then run.
///
/// `Simulator` is a cheaply clonable handle (internally reference counted);
/// clones refer to the same kernel. It is single-threaded by design, like
/// the OSCI SystemC reference kernel the paper used.
///
/// # Examples
///
/// ```
/// use sysc::{Next, SimTime, Simulator};
///
/// let sim = Simulator::new();
/// let sig = sim.signal::<u32>("count");
/// let s = sig.clone();
/// sim.process("producer").thread(move |_| {
///     s.write(s.read() + 1);
///     Next::In(SimTime::from_ns(10))
/// });
/// sim.run_for(SimTime::from_ns(95));
/// assert_eq!(sig.read(), 10); // runs at 0,10,...,90
/// ```
#[derive(Clone)]
pub struct Simulator {
    pub(crate) k: Rc<KernelShared>,
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("now", &self.now())
            .field("processes", &self.k.procs.borrow().len())
            .field("events", &self.k.events.borrow().len())
            .finish()
    }
}

impl Simulator {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator { k: Rc::new(KernelShared::new()) }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.k.now.get()
    }

    /// Creates a named notification event.
    pub fn event(&self, name: &str) -> EventId {
        self.k.create_event(name)
    }

    /// Creates a signal carrying values of type `T`, initialised to
    /// `T::default()`.
    pub fn signal<T: SigValue>(&self, name: &str) -> crate::signal::Signal<T> {
        crate::signal::Signal::new(&self.k, name, T::default())
    }

    /// Creates a signal with an explicit initial value.
    pub fn signal_with<T: SigValue>(&self, name: &str, init: T) -> crate::signal::Signal<T> {
        crate::signal::Signal::new(&self.k, name, init)
    }

    /// Starts building a process. See [`ProcBuilder`].
    pub fn process(&self, name: impl Into<String>) -> ProcBuilder<'_> {
        ProcBuilder { sim: self, name: name.into(), sens: Vec::new(), init: true, phase: 0 }
    }

    /// Notifies `ev` after `after` simulated time (timed notification).
    pub fn notify_after(&self, ev: EventId, after: SimTime) {
        self.k.schedule_timed_notify(after, ev);
    }

    /// Requests the running simulation to stop at the end of the current
    /// delta cycle.
    pub fn stop(&self) {
        self.k.stop.set(true);
    }

    /// Runs until simulated time reaches `limit` (inclusive of events *at*
    /// `limit`), the event queue starves, or `stop()` is called.
    pub fn run_until(&self, limit: SimTime) -> RunReason {
        let k = &self.k;
        k.stop.set(false);
        k.start_clocks();
        loop {
            k.settle();
            if k.stop.get() {
                return RunReason::Stopped;
            }
            // Advance time.
            let t = match k.timed.borrow().peek() {
                None => return RunReason::Starved,
                Some(Reverse(e)) => e.time,
            };
            if t > limit {
                k.now.set(limit);
                return RunReason::TimeReached;
            }
            k.now.set(t);
            k.stats.timed_steps.set(k.stats.timed_steps.get() + 1);
            if k.hub.probe_on.get() {
                k.hub.commit_armed.set(false);
                k.hub.deltas_this_step.set(0);
            }
            let mut actions = k.action_buf.take();
            {
                let mut timed = k.timed.borrow_mut();
                while let Some(Reverse(e)) = timed.peek() {
                    if e.time != t {
                        break;
                    }
                    actions.push(timed.pop().expect("peeked").0.action);
                }
            }
            for &a in &actions {
                match a {
                    Action::Resume(pid) => {
                        let resumable = {
                            let mut procs = k.procs.borrow_mut();
                            let slot = &mut procs[pid.0];
                            if matches!(slot.wait, Wait::DynTime) {
                                slot.wait = Wait::Static;
                                true
                            } else {
                                false
                            }
                        };
                        if resumable {
                            k.schedule_proc(pid, false);
                        }
                    }
                    Action::Notify(ev) => k.notify_now(ev),
                    Action::Clock(n) => k.clock_edge(n),
                }
            }
            actions.clear();
            k.action_buf.replace(actions);
        }
    }

    /// Runs for `duration` of simulated time from `now()`.
    pub fn run_for(&self, duration: SimTime) -> RunReason {
        self.run_until(self.now().saturating_add(duration))
    }

    /// Returns a snapshot of scheduler statistics.
    pub fn stats(&self) -> Stats {
        Stats {
            activations: self.k.stats.activations.get(),
            deltas: self.k.stats.deltas.get(),
            updates: self.k.stats.updates.get(),
            timed_steps: self.k.stats.timed_steps.get(),
            conflicts: self.k.hub.conflicts.get(),
            processes: self.k.procs.borrow().len(),
            events: self.k.events.borrow().len(),
        }
    }

    /// Enables VCD waveform tracing to `path`. Register signals with
    /// [`Simulator::trace`] *before* the first `run_*` call; the VCD header
    /// is emitted on the first recorded change.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the file.
    pub fn trace_vcd(&self, path: impl AsRef<Path>) -> io::Result<()> {
        *self.k.vcd.borrow_mut() = Some(Vcd::create(path.as_ref())?);
        Ok(())
    }

    /// Adds `sig` to the VCD trace under `name`.
    ///
    /// Tracing a signal is what separates the paper's "initial model with
    /// trace" row (32.6 kHz) from the untraced one (61 kHz): every
    /// committed value change now formats and buffers a VCD record.
    ///
    /// # Panics
    ///
    /// Panics if tracing was not enabled with [`Simulator::trace_vcd`].
    pub fn trace<T: SigValue>(&self, sig: &crate::signal::Signal<T>, name: &str) {
        let mut vcd = self.k.vcd.borrow_mut();
        let vcd = vcd.as_mut().expect("trace_vcd() must be called before trace()");
        let src: Rc<dyn TraceSource> = sig.core_rc();
        let idx = vcd.add_var(name, T::VCD_WIDTH, src);
        sig.set_trace_index(idx);
    }

    /// Flushes (and finalises) the VCD trace, if enabled.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from flushing the file.
    pub fn flush_trace(&self) -> io::Result<()> {
        if let Some(vcd) = self.k.vcd.borrow_mut().as_mut() {
            vcd.flush()?;
        }
        Ok(())
    }

    /// Enables runtime probe observation (read/write sets, activation
    /// counts, write races, the delta-cycle watchdog). Off by default;
    /// while off the only cost is one flag test per signal access. Safe to
    /// call before or after elaboration — the static design graph is
    /// always recorded.
    pub fn probe_enable(&self) {
        let mut p = self.k.hub.probe.borrow_mut();
        if p.is_none() {
            *p = Some(Box::new(crate::probe::ProbeState::new()));
        }
        self.k.hub.probe_on.set(true);
    }

    /// Pauses runtime probe observation; accumulated observations are
    /// kept and reported by [`Simulator::design_graph`].
    pub fn probe_disable(&self) {
        self.k.hub.probe_on.set(false);
        self.k.hub.race_on.set(false);
    }

    /// `true` while runtime probe observation is enabled.
    pub fn probe_enabled(&self) -> bool {
        self.k.hub.probe_on.get()
    }

    /// Enables the dynamic delta-cycle race detector (implies
    /// [`Simulator::probe_enable`]): records per-evaluate-phase access
    /// sets — signal writes plus plain-state touches via
    /// [`Traced`](crate::Traced) / [`StateTouch`](crate::StateTouch) /
    /// [`Fifo`](crate::Fifo) — and flags conflicting same-delta,
    /// same-phase accesses by distinct processes as
    /// [`SchedRace`](crate::SchedRace)s in the design graph. Off by
    /// default; while off the plain-state hooks cost one flag test.
    pub fn race_detect_enable(&self) {
        self.probe_enable();
        self.k.hub.race_on.set(true);
        self.k.hub.race_ever.set(true);
    }

    /// Pauses the race detector (the probe stays enabled); accumulated
    /// races are kept and reported by [`Simulator::design_graph`].
    pub fn race_detect_disable(&self) {
        self.k.hub.race_on.set(false);
    }

    /// `true` while the dynamic race detector is enabled.
    pub fn race_detect_enabled(&self) -> bool {
        self.k.hub.race_on.get()
    }

    /// Sets the runnable-queue pop order (see [`ScheduleOrder`]). For
    /// `SeededShuffle` the stream is (re)seeded, so setting the same
    /// order twice reproduces the same schedule from that point.
    pub fn set_schedule_order(&self, order: ScheduleOrder) {
        self.k.order.set(order);
        if let ScheduleOrder::SeededShuffle(seed) = order {
            self.k.rng.set(seed);
        }
    }

    /// The configured runnable-queue pop order.
    pub fn schedule_order(&self) -> ScheduleOrder {
        self.k.order.get()
    }

    /// Sets the delta-cycle livelock bound (default
    /// [`probe::DEFAULT_DELTA_LIMIT`](crate::probe::DEFAULT_DELTA_LIMIT))
    /// and enables the probe. When one timestep exceeds `limit` delta
    /// cycles the simulation stops ([`RunReason::Stopped`]) and the graph's
    /// [`overflow`](crate::probe::DesignGraph::overflow) names the
    /// oscillating signals.
    pub fn probe_set_delta_limit(&self, limit: u64) {
        self.probe_enable();
        self.k.hub.delta_limit.set(limit.max(2));
    }

    /// Snapshots the elaborated design graph plus any runtime observations
    /// (see [`module@crate::probe`]). The static structure — processes,
    /// signals, events, sensitivity edges, driver registrations — is always
    /// present; read/write sets, activations, races and the watchdog state
    /// are populated only if [`Simulator::probe_enable`] was called.
    pub fn design_graph(&self) -> crate::probe::DesignGraph {
        let registry = self.k.hub.registry.borrow();
        let procs = self.k.procs.borrow();
        let proc_info: Vec<crate::probe::ProcInfo> = procs
            .iter()
            .map(|s| crate::probe::ProcInfo {
                name: s.name.clone(),
                kind: s.kind,
                phase: s.phase,
                activations: s.activations,
                state: s.life,
                used_dynamic_wait: s.used_dynamic_wait,
                bypassed: s.bypass_note,
                restored_spawn: s.restored_spawn,
            })
            .collect();
        let events = self.k.events.borrow();
        let event_info: Vec<(String, Vec<usize>)> = events
            .iter()
            .map(|e| (e.name.clone(), e.static_subs.iter().map(|p| p.0).collect()))
            .collect();
        let probe = self.k.hub.probe.borrow();
        let states = self.k.hub.states.borrow();
        crate::probe::snapshot(
            &registry,
            &states,
            &proc_info,
            &event_info,
            probe.as_deref(),
            self.k.hub.race_ever.get(),
        )
    }

    /// Suspends a process: from now on, triggers (static or dynamic) are
    /// *remembered* but not executed. Registered
    /// [`release_on_park`](Simulator::release_on_park) hooks run, so a
    /// suspended sole driver lets go of its nets exactly as
    /// [`OutPort::release`](crate::OutPort::release) would.
    ///
    /// This is the kernel half of dynamic partial reconfiguration: a
    /// region's outgoing personality is suspended (cheap, resumable), the
    /// incoming one is spawned or resumed. No-op unless the process is
    /// [`LifeState::Live`](crate::probe::LifeState).
    pub fn suspend(&self, pid: ProcId) {
        let hooks = {
            let mut procs = self.k.procs.borrow_mut();
            let slot = &mut procs[pid.0];
            if !matches!(slot.life, crate::probe::LifeState::Live)
                || matches!(slot.wait, Wait::Done)
            {
                return;
            }
            slot.life = crate::probe::LifeState::Suspended;
            slot.park_hooks.clone()
        };
        for h in &hooks {
            h();
        }
    }

    /// Resumes a suspended process. If any trigger arrived while it was
    /// suspended, one (coalesced) activation is scheduled for the next
    /// delta cycle — SystemC `resume()` semantics. The process re-acquires
    /// its drives itself on that first activation (a release hook writes
    /// the released value; nothing re-drives automatically).
    pub fn resume(&self, pid: ProcId) {
        let wake = {
            let mut procs = self.k.procs.borrow_mut();
            let slot = &mut procs[pid.0];
            if !matches!(slot.life, crate::probe::LifeState::Suspended) {
                return;
            }
            slot.life = crate::probe::LifeState::Live;
            std::mem::take(&mut slot.woken_while_suspended)
        };
        if wake {
            self.k.schedule_proc(pid, false);
        }
    }

    /// Kills a process: it never runs again and its body closure is
    /// dropped, which drops every [`OutPort`](crate::OutPort) the body
    /// captured — releasing their driver slots (see the port `Drop`
    /// semantics). Registered park hooks run first. Killing a process from
    /// inside its own activation is allowed: the body is discarded when
    /// the activation returns.
    ///
    /// The process keeps its slot, name and activation counts in
    /// [`Simulator::design_graph`] with
    /// [`LifeState::Killed`](crate::probe::LifeState) — ids stay stable
    /// across a module swap.
    pub fn kill(&self, pid: ProcId) {
        let (body, hooks) = {
            let mut procs = self.k.procs.borrow_mut();
            let slot = &mut procs[pid.0];
            if matches!(slot.life, crate::probe::LifeState::Killed) {
                return;
            }
            slot.life = crate::probe::LifeState::Killed;
            slot.wait = Wait::Done;
            slot.woken_while_suspended = false;
            (slot.body.take(), std::mem::take(&mut slot.park_hooks))
        };
        for h in &hooks {
            h();
        }
        drop(body);
    }

    /// Registers a driver-release hook for `pid`: when the process is
    /// suspended or killed, the hook releases the port's driver slot
    /// ([`OutPort::release`](crate::OutPort::release) semantics), so a
    /// parked personality cannot keep driving shared wires. The port
    /// itself usually lives inside the process body closure; take the
    /// hook with [`OutPort::release_hook`](crate::OutPort::release_hook)
    /// *before* moving the port in.
    pub fn release_on_park(&self, pid: ProcId, hook: crate::signal::ReleaseHook) {
        self.k.procs.borrow_mut()[pid.0].park_hooks.push(hook.0);
    }

    /// The runtime lifecycle state of a process.
    pub fn process_state(&self, pid: ProcId) -> crate::probe::LifeState {
        self.k.procs.borrow()[pid.0].life
    }

    /// The name of an event (diagnostics).
    pub fn event_name(&self, ev: EventId) -> String {
        self.k.events.borrow()[ev.0].name.clone()
    }

    pub(crate) fn hub(&self) -> Rc<crate::signal::WriteHub> {
        self.k.hub.clone()
    }

    /// Marks `pid` as spawned by restore-time late-spawn replay: its
    /// activation history restarts at the restore point, which lint
    /// detectors then report as advisory (mirroring the swapped-out
    /// convention) rather than as a dead process.
    pub fn mark_restored_spawn(&self, pid: ProcId) {
        self.k.procs.borrow_mut()[pid.0].restored_spawn = true;
    }

    /// Serializes the complete kernel state — time, schedule order and
    /// PRNG stream, statistics, every process's wait/lifecycle state, the
    /// runnable queue, the timed-event queue, event subscriptions, which
    /// clocks have started, and every channel's committed value — into
    /// `w` as the `KERN` and `CHAN` sections of a checkpoint payload.
    ///
    /// Must be called at quiescence (after a `run_*` call has returned):
    /// the update queue is then empty, so channel state is exactly the
    /// committed values.
    ///
    /// # Panics
    ///
    /// Panics if called with signal updates still pending (i.e. not at
    /// quiescence).
    pub fn ckpt_save(&self, w: &mut checkpoint::Writer) {
        let k = &self.k;
        assert!(
            k.hub.updates.borrow().is_empty(),
            "checkpoint requires quiescence (pending signal updates exist)"
        );
        w.begin_section(b"KERN");
        w.u64(k.now.get().as_ps());
        w.u64(k.seq.get());
        w.u64(k.rng.get());
        match k.order.get() {
            ScheduleOrder::Fifo => w.u8(0),
            ScheduleOrder::Lifo => w.u8(1),
            ScheduleOrder::SeededShuffle(seed) => {
                w.u8(2);
                w.u64(seed);
            }
        }
        w.u64(k.stats.activations.get());
        w.u64(k.stats.deltas.get());
        w.u64(k.stats.updates.get());
        w.u64(k.stats.timed_steps.get());
        w.u64(k.hub.conflicts.get());
        w.u64(k.elab_digest());

        let procs = k.procs.borrow();
        w.u32(procs.len() as u32);
        for p in procs.iter() {
            w.u8(match p.wait {
                Wait::Static => 0,
                Wait::DynTime => 1,
                Wait::DynEvent => 2,
                Wait::Done => 3,
            });
            w.u32(p.skip);
            w.bool(p.scheduled);
            w.u8(match p.life {
                crate::probe::LifeState::Live => 0,
                crate::probe::LifeState::Suspended => 1,
                crate::probe::LifeState::Killed => 2,
            });
            w.bool(p.woken_while_suspended);
            w.u64(p.activations);
            w.bool(p.used_dynamic_wait);
            w.bool(p.restored_spawn);
        }
        drop(procs);

        let pending = k.pending.borrow();
        w.u32(pending.len() as u32);
        for pid in pending.iter() {
            w.u32(pid.0 as u32);
        }
        drop(pending);

        // The binary heap is not ordered in memory; serialize its entries
        // sorted by (time, seq) so identical kernel states produce
        // identical bytes.
        let timed = k.timed.borrow();
        let mut entries: Vec<TimedEntry> = timed.iter().map(|Reverse(e)| *e).collect();
        drop(timed);
        entries.sort();
        w.u32(entries.len() as u32);
        for e in entries {
            w.u64(e.time.as_ps());
            w.u64(e.seq);
            match e.action {
                Action::Resume(pid) => {
                    w.u8(0);
                    w.u32(pid.0 as u32);
                }
                Action::Notify(ev) => {
                    w.u8(1);
                    w.u32(ev.0 as u32);
                }
                Action::Clock(n) => {
                    w.u8(2);
                    w.u32(n as u32);
                }
            }
        }

        let events = k.events.borrow();
        w.u32(events.len() as u32);
        for e in events.iter() {
            w.u32(e.static_subs.len() as u32);
            w.u32(e.dyn_subs.len() as u32);
            for pid in &e.dyn_subs {
                w.u32(pid.0 as u32);
            }
        }
        drop(events);

        let clocks = k.clocks.borrow();
        w.u32(clocks.len() as u32);
        for c in clocks.iter() {
            w.bool(c.started);
        }
        drop(clocks);
        w.end_section();

        w.begin_section(b"CHAN");
        let channels = k.channels.borrow();
        w.u32(channels.len() as u32);
        for c in channels.iter() {
            c.ckpt_save(w);
        }
        w.end_section();
    }

    /// Restores kernel state saved by [`Simulator::ckpt_save`] onto this
    /// simulator, which must be an identically elaborated model (same
    /// processes, events and channels in the same registration order) —
    /// validated via a structural digest before any state is touched.
    ///
    /// Process bodies are not serialized: restore re-aims each live
    /// closure's *data* state (wait, skip, lifecycle, queues, channel
    /// values); the bodies themselves come from the fresh elaboration.
    ///
    /// # Errors
    ///
    /// Returns a typed [`CkptError`] on structural mismatch or corrupt
    /// input; never panics on bad data.
    pub fn ckpt_restore(&self, r: &mut checkpoint::Reader<'_>) -> Result<(), CkptError> {
        let k = &self.k;
        r.begin_section(b"KERN", "KERN")?;
        let now_ps = r.u64()?;
        let seq = r.u64()?;
        let rng = r.u64()?;
        let order = match r.u8()? {
            0 => ScheduleOrder::Fifo,
            1 => ScheduleOrder::Lifo,
            2 => ScheduleOrder::SeededShuffle(r.u64()?),
            _ => return Err(CkptError::Corrupt("schedule order tag out of range")),
        };
        let activations = r.u64()?;
        let deltas = r.u64()?;
        let updates = r.u64()?;
        let timed_steps = r.u64()?;
        let conflicts = r.u64()?;
        if r.u64()? != k.elab_digest() {
            return Err(CkptError::Corrupt("elaboration digest mismatch"));
        }

        let nprocs = k.procs.borrow().len();
        if r.u32()? as usize != nprocs {
            return Err(CkptError::Corrupt("process count mismatch"));
        }
        // Decode fully before mutating, so a corrupt tail cannot leave
        // the kernel half-restored.
        struct ProcState {
            wait: Wait,
            skip: u32,
            scheduled: bool,
            life: crate::probe::LifeState,
            woken: bool,
            activations: u64,
            used_dynamic_wait: bool,
            restored_spawn: bool,
        }
        let mut proc_states = Vec::with_capacity(nprocs);
        for _ in 0..nprocs {
            let wait = match r.u8()? {
                0 => Wait::Static,
                1 => Wait::DynTime,
                2 => Wait::DynEvent,
                3 => Wait::Done,
                _ => return Err(CkptError::Corrupt("wait tag out of range")),
            };
            let skip = r.u32()?;
            let scheduled = r.bool()?;
            let life = match r.u8()? {
                0 => crate::probe::LifeState::Live,
                1 => crate::probe::LifeState::Suspended,
                2 => crate::probe::LifeState::Killed,
                _ => return Err(CkptError::Corrupt("life tag out of range")),
            };
            proc_states.push(ProcState {
                wait,
                skip,
                scheduled,
                life,
                woken: r.bool()?,
                activations: r.u64()?,
                used_dynamic_wait: r.bool()?,
                restored_spawn: r.bool()?,
            });
        }

        let npending = r.u32()? as usize;
        let mut pending = Vec::with_capacity(npending);
        for _ in 0..npending {
            let pid = r.u32()? as usize;
            if pid >= nprocs {
                return Err(CkptError::Corrupt("runnable process id out of range"));
            }
            pending.push(ProcId(pid));
        }

        let nevents = k.events.borrow().len();
        let nclocks = k.clocks.borrow().len();
        let ntimed = r.u32()? as usize;
        let mut timed = Vec::with_capacity(ntimed);
        for _ in 0..ntimed {
            let time = SimTime::from_ps(r.u64()?);
            let eseq = r.u64()?;
            let action = match r.u8()? {
                0 => {
                    let pid = r.u32()? as usize;
                    if pid >= nprocs {
                        return Err(CkptError::Corrupt("timed process id out of range"));
                    }
                    Action::Resume(ProcId(pid))
                }
                1 => {
                    let ev = r.u32()? as usize;
                    if ev >= nevents {
                        return Err(CkptError::Corrupt("timed event id out of range"));
                    }
                    Action::Notify(EventId(ev))
                }
                2 => {
                    let n = r.u32()? as usize;
                    if n >= nclocks {
                        return Err(CkptError::Corrupt("timed clock id out of range"));
                    }
                    Action::Clock(n)
                }
                _ => return Err(CkptError::Corrupt("timed action tag out of range")),
            };
            timed.push(Reverse(TimedEntry { time, seq: eseq, action }));
        }

        if r.u32()? as usize != nevents {
            return Err(CkptError::Corrupt("event count mismatch"));
        }
        let mut dyn_subs = Vec::with_capacity(nevents);
        {
            let events = k.events.borrow();
            for e in events.iter() {
                if r.u32()? as usize != e.static_subs.len() {
                    return Err(CkptError::Corrupt("static subscription count mismatch"));
                }
                let nsubs = r.u32()? as usize;
                let mut subs = Vec::with_capacity(nsubs);
                for _ in 0..nsubs {
                    let pid = r.u32()? as usize;
                    if pid >= nprocs {
                        return Err(CkptError::Corrupt("dynamic subscriber id out of range"));
                    }
                    subs.push(ProcId(pid));
                }
                dyn_subs.push(subs);
            }
        }
        if r.u32()? as usize != nclocks {
            return Err(CkptError::Corrupt("clock count mismatch"));
        }
        let mut clocks_started = Vec::with_capacity(nclocks);
        for _ in 0..nclocks {
            clocks_started.push(r.bool()?);
        }
        r.end_section()?;

        // Channels restore before the kernel commits to the snapshot's
        // scalar state; a failure here leaves values partially loaded but
        // the caller discards the simulator on error anyway.
        r.begin_section(b"CHAN", "CHAN")?;
        {
            let channels = k.channels.borrow();
            if r.u32()? as usize != channels.len() {
                return Err(CkptError::Corrupt("channel count mismatch"));
            }
            for c in channels.iter() {
                c.ckpt_load(r)?;
            }
        }
        r.end_section()?;

        // All input validated: commit.
        k.now.set(SimTime::from_ps(now_ps));
        k.seq.set(seq);
        k.rng.set(rng);
        k.order.set(order);
        k.stats.activations.set(activations);
        k.stats.deltas.set(deltas);
        k.stats.updates.set(updates);
        k.stats.timed_steps.set(timed_steps);
        k.hub.conflicts.set(conflicts);
        {
            let mut procs = k.procs.borrow_mut();
            for (slot, st) in procs.iter_mut().zip(proc_states) {
                slot.wait = st.wait;
                slot.skip = st.skip;
                slot.scheduled = st.scheduled;
                // A process killed before the snapshot keeps its fresh
                // body: dropping it here would fire the captured ports'
                // release writes *after* the channel restore. The body is
                // unreachable (wait == Done), so keeping it is inert.
                slot.life = st.life;
                slot.woken_while_suspended = st.woken;
                slot.activations = st.activations;
                slot.used_dynamic_wait = st.used_dynamic_wait;
                slot.restored_spawn = st.restored_spawn;
            }
        }
        *k.pending.borrow_mut() = pending;
        *k.timed.borrow_mut() = BinaryHeap::from(timed);
        {
            let mut events = k.events.borrow_mut();
            for (e, subs) in events.iter_mut().zip(dyn_subs) {
                e.dyn_subs = subs;
            }
        }
        for (c, started) in k.clocks.borrow_mut().iter_mut().zip(clocks_started) {
            c.started = started;
        }
        k.stop.set(false);
        Ok(())
    }

    /// The VCD writer's continuation state — whether the header has been
    /// emitted and the last written timestamp — or `None` when tracing is
    /// off. Saved alongside the trace file's bytes, the pair lets a
    /// restored simulation keep appending to a byte-identical trace.
    pub fn trace_mark(&self) -> Option<(bool, Option<u64>)> {
        self.k.vcd.borrow().as_ref().map(Vcd::mark)
    }

    /// Primes this simulator's VCD writer to continue a saved trace:
    /// replaces the trace file's contents with `prefix` and restores the
    /// writer state captured by [`Simulator::trace_mark`]. The same
    /// signals must already be registered with [`Simulator::trace`].
    ///
    /// # Errors
    ///
    /// Returns an I/O error from rewriting the file, or
    /// [`io::ErrorKind::InvalidInput`] if tracing is not enabled.
    pub fn trace_resume(
        &self,
        header_done: bool,
        last_ts: Option<u64>,
        prefix: &[u8],
    ) -> io::Result<()> {
        let mut vcd = self.k.vcd.borrow_mut();
        let vcd = vcd
            .as_mut()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "tracing not enabled"))?;
        vcd.resume_from(header_done, last_ts, prefix)
    }
}

/// Builder for registering a process on a [`Simulator`].
///
/// A process is either a **method** (the analogue of `SC_METHOD`: a plain
/// callback, cheapest to schedule) or a **thread** (the analogue of
/// `SC_THREAD`: a resumable body that chooses its next wake-up by
/// returning a [`Next`]).
#[must_use = "a ProcBuilder does nothing until .method() or .thread() is called"]
pub struct ProcBuilder<'s> {
    sim: &'s Simulator,
    name: String,
    sens: Vec<EventId>,
    init: bool,
    phase: u8,
}

impl fmt::Debug for ProcBuilder<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcBuilder").field("name", &self.name).finish()
    }
}

impl ProcBuilder<'_> {
    /// Adds a static sensitivity: the process triggers whenever `ev` fires.
    pub fn sensitive(mut self, ev: EventId) -> Self {
        self.sens.push(ev);
        self
    }

    /// Adds several static sensitivities.
    pub fn sensitive_to(mut self, evs: &[EventId]) -> Self {
        self.sens.extend_from_slice(evs);
        self
    }

    /// Suppresses the initial execution at time zero (SystemC's
    /// `dont_initialize()`); the process then first runs on its first
    /// trigger.
    pub fn no_init(mut self) -> Self {
        self.init = false;
        self
    }

    /// Assigns the process to evaluation phase `n` (default `0`).
    ///
    /// Within each delta cycle the kernel runs all runnable phase-0
    /// processes to completion, then phase 1, and so on — a pinned
    /// sub-delta ordering that is part of the determinism contract.
    /// Schedule perturbation ([`ScheduleOrder`]) only ever reorders
    /// processes *within* a phase, and the race detector never flags
    /// cross-phase access pairs. Use phases to make a legitimate
    /// same-delta producer→consumer hand-off over plain shared state
    /// explicit (e.g. device tick in phase 0, interrupt sampler in phase
    /// 1) instead of relying on registration order.
    pub fn phase(mut self, n: u8) -> Self {
        self.phase = n;
        self
    }

    fn register(self, body: Body) -> ProcId {
        let k = &self.sim.k;
        let kind = match &body {
            Body::Method(_) => crate::probe::ProcKind::Method,
            Body::Thread(_) => crate::probe::ProcKind::Thread,
        };
        let pid = {
            let mut procs = k.procs.borrow_mut();
            let pid = ProcId(procs.len());
            if self.phase > k.max_phase.get() {
                k.max_phase.set(self.phase);
            }
            procs.push(ProcSlot {
                name: self.name,
                kind,
                phase: self.phase,
                body: Some(body),
                wait: Wait::Static,
                skip: 0,
                scheduled: self.init,
                life: crate::probe::LifeState::Live,
                woken_while_suspended: false,
                park_hooks: Vec::new(),
                activations: 0,
                used_dynamic_wait: false,
                bypass_note: None,
                restored_spawn: false,
            });
            pid
        };
        {
            let mut events = k.events.borrow_mut();
            for ev in &self.sens {
                events[ev.0].static_subs.push(pid);
            }
        }
        if self.init {
            k.pending.borrow_mut().push(pid);
        }
        pid
    }

    /// Registers a method process (direct callback dispatch). Use
    /// [`Ctx::next_trigger_cycles`] / [`Ctx::next_trigger_in`] from inside
    /// the body for multicycle sleep (§4.5.2 of the paper).
    pub fn method(self, f: impl FnMut(&mut Ctx) + 'static) -> ProcId {
        self.register(Body::Method(Box::new(f)))
    }

    /// Registers a thread process. The body runs to completion on every
    /// activation and *returns* its next wait via [`Next`]; this explicit
    /// wait bookkeeping is the scheduling overhead that makes threads
    /// slower than methods (§4.3).
    pub fn thread(self, f: impl FnMut(&mut Ctx) -> Next + 'static) -> ProcId {
        self.register(Body::Thread(Box::new(f)))
    }
}
