//! Signals and ports with SystemC request–update semantics.
//!
//! A [`Signal`] holds a *current* value (what readers see) and a *next*
//! value (what writers requested this delta). Writes take effect in the
//! update phase, after every process of the delta has run — so all readers
//! within one delta observe a consistent pre-write snapshot, exactly like
//! `sc_signal`.
//!
//! Resolved value types ([`Logic`](crate::Logic), [`Lv32`](crate::Lv32))
//! get per-driver storage: each [`OutPort`] owns a driver slot and the
//! committed value is the lane-wise resolution of all drivers, like
//! `sc_signal_rv`. Native types skip all of that — the last write of a
//! delta wins and driver conflicts go undetected, the trade the paper
//! makes in §4.2 for a 132 % speedup.

use crate::kernel::{EventId, KernelShared};
use crate::probe::{AccessOp, ProbeState, SigStatic, StateKind, StateStatic, NO_PROC};
use crate::time::SimTime;
use crate::trace::TraceSource;
use crate::value::SigValue;
use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

/// Pending-update queue shared between the kernel and every signal.
///
/// Kept separate from the kernel so signals never hold a reference cycle
/// back to it. Also hosts the probe (see [`module@crate::probe`]): the
/// static signal registry is always recorded at elaboration; runtime
/// observation happens only while `probe_on` is set.
pub(crate) struct WriteHub {
    pub(crate) updates: RefCell<Vec<Rc<dyn Update>>>,
    /// Count of resolved writes that produced an `X` lane.
    pub(crate) conflicts: Cell<u64>,
    /// Static per-signal facts, indexed by `SignalCore::probe_id`.
    pub(crate) registry: RefCell<Vec<SigStatic>>,
    /// Fast flag: runtime probe observation enabled.
    pub(crate) probe_on: Cell<bool>,
    /// Runtime observation state, allocated on first enable.
    pub(crate) probe: RefCell<Option<Box<ProbeState>>>,
    /// The process whose body is currently executing ([`NO_PROC`] outside
    /// any process). Maintained by the kernel only while the probe is on.
    pub(crate) cur_proc: Cell<u32>,
    /// `1 << cur_proc` for process ids below 64 (the width of the
    /// per-signal reader/writer bitmaps), `0` otherwise: the steady-state
    /// access hook is one load and one bit test against the bitmap.
    pub(crate) cur_bit: Cell<u64>,
    /// Fast flag: record signal commits this delta. Only set while the
    /// delta count of the current timestep approaches the watchdog bound —
    /// commit recording exists solely to name the oscillating signals.
    pub(crate) commit_armed: Cell<bool>,
    /// Delta cycles completed in the current timestep (watchdog counter).
    pub(crate) deltas_this_step: Cell<u64>,
    /// Watchdog bound on `deltas_this_step`.
    pub(crate) delta_limit: Cell<u64>,
    /// Fast flag: the dynamic delta-cycle race detector is enabled
    /// (implies `probe_on`). Off by default; while off the only cost on
    /// plain-state touch paths is this flag test.
    pub(crate) race_on: Cell<bool>,
    /// `true` if the race detector was ever enabled (snapshot metadata).
    pub(crate) race_ever: Cell<bool>,
    /// Evaluation phase of the process currently executing. Maintained by
    /// the kernel only while the probe is on.
    pub(crate) cur_phase: Cell<u8>,
    /// Static per-state registry of plain shared-state elements
    /// ([`Traced`](crate::Traced) cells, FIFOs), indexed by state id.
    pub(crate) states: RefCell<Vec<StateStatic>>,
    /// Registration counter handing out canonical update-commit keys:
    /// pending updates commit in key order each delta, making commit
    /// order (and thus VCD bytes) independent of evaluation order.
    pub(crate) order_seq: Cell<u64>,
}

impl Default for WriteHub {
    fn default() -> Self {
        WriteHub {
            updates: RefCell::new(Vec::new()),
            conflicts: Cell::new(0),
            registry: RefCell::new(Vec::new()),
            probe_on: Cell::new(false),
            probe: RefCell::new(None),
            cur_proc: Cell::new(NO_PROC),
            cur_bit: Cell::new(0),
            commit_armed: Cell::new(false),
            deltas_this_step: Cell::new(0),
            delta_limit: Cell::new(crate::probe::DEFAULT_DELTA_LIMIT),
            race_on: Cell::new(false),
            race_ever: Cell::new(false),
            cur_phase: Cell::new(0),
            states: RefCell::new(Vec::new()),
            order_seq: Cell::new(0),
        }
    }
}

impl WriteHub {
    /// Hands out the next canonical update-commit key (one per channel,
    /// in registration order).
    pub(crate) fn next_order_key(&self) -> u64 {
        let k = self.order_seq.get();
        self.order_seq.set(k + 1);
        k
    }

    /// Registers a plain shared-state element; returns its state id.
    pub(crate) fn register_state(&self, name: String, kind: StateKind, location: String) -> u32 {
        let mut states = self.states.borrow_mut();
        states.push(StateStatic { name, kind, location, arbitrated: RefCell::new(None) });
        (states.len() - 1) as u32
    }

    /// Records a plain-state access for the race detector. The off path —
    /// the default — is a single flag test.
    #[inline]
    pub(crate) fn state_access(&self, id: u32, op: AccessOp) {
        if self.race_on.get() {
            self.state_access_slow(id, op);
        }
    }

    #[cold]
    #[inline(never)]
    fn state_access_slow(&self, id: u32, op: AccessOp) {
        if let Some(p) = self.probe.borrow().as_deref() {
            p.note_state(id, self.cur_proc.get(), self.cur_phase.get(), op);
        }
    }

    /// Marks a registered state element as safely arbitrated, with a
    /// short reason; detectors downgrade findings on it to advisory.
    pub(crate) fn mark_state_arbitrated(&self, id: u32, reason: &str) {
        *self.states.borrow()[id as usize].arbitrated.borrow_mut() = Some(reason.to_string());
    }
}

/// A primitive channel with a pending update (internal).
pub(crate) trait Update {
    fn apply(&self, k: &KernelShared);
    /// Canonical commit key: updates taken in one delta are committed in
    /// ascending key order (registration order), so commit side effects —
    /// change events, VCD records — do not depend on evaluation order.
    fn order_key(&self) -> u64;
}

/// A signal the kernel toggles as a clock line (internal; see
/// [`Clock`](crate::Clock)).
pub(crate) trait ClockLine: Update {
    /// Requests the inverse of the committed level as a plain write,
    /// bypassing the probe's per-access hooks: the clock is recorded once,
    /// statically, as its signal's kernel driver. Returns `true` if the
    /// signal was not yet pending, i.e. the caller must queue its update.
    fn request_toggle(&self) -> bool;
}

/// A channel whose value state can be checkpointed (internal). Every
/// channel registers itself with the kernel at creation, so save/restore
/// walks channels in registration order — which two identically
/// elaborated models share.
pub(crate) trait ChannelCkpt {
    /// Serializes the committed value and driver contributions.
    fn ckpt_save(&self, w: &mut checkpoint::Writer);
    /// Restores state saved by `ckpt_save` onto an identically
    /// elaborated channel.
    fn ckpt_load(&self, r: &mut checkpoint::Reader<'_>) -> Result<(), checkpoint::CkptError>;
}

impl<T: SigValue> ChannelCkpt for SignalCore<T> {
    fn ckpt_save(&self, w: &mut checkpoint::Writer) {
        // Channels are only saved at quiescence, where every requested
        // write has committed: `pending` is clear and next == cur.
        debug_assert!(!self.pending.get(), "checkpoint of a signal with a pending update");
        self.cur.borrow().encode_ckpt(w);
        let drivers = self.drivers.borrow();
        w.u32(drivers.len() as u32);
        for d in drivers.iter() {
            d.encode_ckpt(w);
        }
    }

    fn ckpt_load(&self, r: &mut checkpoint::Reader<'_>) -> Result<(), checkpoint::CkptError> {
        let v = T::decode_ckpt(r)?;
        let n = r.u32()? as usize;
        if n != self.drivers.borrow().len() {
            return Err(checkpoint::CkptError::Corrupt("signal driver count mismatch"));
        }
        {
            let mut drivers = self.drivers.borrow_mut();
            for d in drivers.iter_mut() {
                *d = T::decode_ckpt(r)?;
            }
        }
        *self.cur.borrow_mut() = v.clone();
        *self.next.borrow_mut() = v;
        self.pending.set(false);
        Ok(())
    }
}

pub(crate) struct SignalCore<T: SigValue> {
    name: String,
    cur: RefCell<T>,
    next: RefCell<T>,
    pending: Cell<bool>,
    changed: EventId,
    posedge: Option<EventId>,
    negedge: Option<EventId>,
    /// Per-driver contributions; only populated for resolved types.
    drivers: RefCell<Vec<T>>,
    hub: Rc<WriteHub>,
    trace_idx: Cell<Option<usize>>,
    /// Index into the hub's signal registry.
    probe_id: usize,
    /// Probe cache: bitmap of processes (ids 0..64) whose reads of this
    /// signal are already recorded. Read/write *sets* are idempotent, so
    /// a repeat access tests one bit and does nothing more — that is what
    /// keeps the probe within its ≤ 5 % overhead budget.
    probe_read_lo: Cell<u64>,
    /// Probe cache for readers outside the bitmap range (process ids ≥ 64
    /// and external/testbench reads): the last one recorded.
    probe_read: Cell<u32>,
    /// Writer bitmap, the write-set counterpart of `probe_read_lo`.
    probe_write_lo: Cell<u64>,
    /// Writer counterpart of `probe_read`.
    probe_rec: Cell<u32>,
    /// Race window: who last wrote this signal. Only consulted while
    /// `pending` is set — and a pending signal was by definition written
    /// earlier in the *current* delta, so no generation counter is needed.
    /// A second process writing a different value while pending is a
    /// scheduling race.
    probe_last_writer: Cell<u32>,
    /// Evaluation phase of the last writer (race-detector companion of
    /// `probe_last_writer`; maintained only while the detector is on).
    probe_last_phase: Cell<u8>,
    /// Canonical commit key (see [`Update::order_key`]).
    order_key: u64,
}

/// Initial value of the `probe_read` cache: matches neither a process id
/// nor [`NO_PROC`], so the first read always records.
const READ_CACHE_INIT: u32 = u32::MAX - 1;

impl<T: SigValue> SignalCore<T> {
    fn write_plain(self: &Rc<Self>, v: T) {
        if self.hub.probe_on.get() {
            self.probe_plain_write(&v);
        }
        *self.next.borrow_mut() = v;
        self.mark_pending();
    }

    /// Probe hook for unresolved writes: detect same-delta races on the
    /// last-writer window cell and record the (writer, signal) pair once.
    /// The common case — the sole writer of a signal requesting its next
    /// value — touches only `Cell`s.
    #[inline]
    fn probe_plain_write(&self, v: &T) {
        let writer = self.hub.cur_proc.get();
        // A race needs an earlier request by a *different* process for a
        // *different* value within this same delta cycle — and `pending`
        // set means exactly "already written this delta".
        if self.pending.get() {
            let prev = self.probe_last_writer.get();
            if prev != writer && prev != NO_PROC && writer != NO_PROC && *self.next.borrow() != *v {
                self.probe_race_miss(prev, writer);
            }
        }
        self.probe_last_writer.set(writer);
        if self.hub.race_on.get() {
            self.probe_last_phase.set(self.hub.cur_phase.get());
        }
        self.probe_record_write(writer);
    }

    #[cold]
    #[inline(never)]
    fn probe_race_miss(&self, prev: u32, writer: u32) {
        if let Some(p) = self.hub.probe.borrow().as_deref() {
            p.note_race(self.probe_id, prev, writer);
            // Writers in different phases are ordered by the kernel; only
            // a same-phase pair is a scheduling race.
            if self.hub.race_on.get() && self.probe_last_phase.get() == self.hub.cur_phase.get() {
                p.note_sched_race_signal(self.probe_id, prev, writer);
            }
        }
    }

    /// Records the (writer, signal) pair once; repeats cost one bit test.
    #[inline]
    fn probe_record_write(&self, writer: u32) {
        let b = self.hub.cur_bit.get();
        let m = self.probe_write_lo.get();
        if m & b != 0 {
            return;
        }
        if b != 0 {
            self.probe_write_lo.set(m | b);
            self.probe_write_miss(writer);
        } else if self.probe_rec.get() != writer {
            self.probe_rec.set(writer);
            self.probe_write_miss(writer);
        }
    }

    #[cold]
    #[inline(never)]
    fn probe_write_miss(&self, writer: u32) {
        if let Some(p) = self.hub.probe.borrow().as_deref() {
            p.note_write(self.probe_id, writer);
        }
    }

    /// Records the (reader, signal) pair once; repeats cost one bit test.
    #[inline]
    fn probe_record_read(&self) {
        let b = self.hub.cur_bit.get();
        let m = self.probe_read_lo.get();
        if m & b != 0 {
            return;
        }
        let reader = self.hub.cur_proc.get();
        if b != 0 {
            self.probe_read_lo.set(m | b);
            self.probe_read_miss(reader);
        } else if self.probe_read.get() != reader {
            self.probe_read.set(reader);
            self.probe_read_miss(reader);
        }
    }

    #[cold]
    #[inline(never)]
    fn probe_read_miss(&self, reader: u32) {
        if let Some(p) = self.hub.probe.borrow().as_deref() {
            p.note_read(self.probe_id, reader);
        }
    }

    fn write_driver(self: &Rc<Self>, driver: usize, v: T) {
        if self.hub.probe_on.get() {
            self.probe_driver_write();
        }
        let resolved = {
            let mut drivers = self.drivers.borrow_mut();
            drivers[driver] = v;
            T::resolve(&drivers)
        };
        *self.next.borrow_mut() = resolved;
        self.mark_pending();
    }

    /// Probe hook for driver-slot writes. No race window: conflicts on
    /// resolved signals surface as `X` lanes at commit instead.
    fn probe_driver_write(&self) {
        self.probe_record_write(self.hub.cur_proc.get());
    }

    fn mark_pending(self: &Rc<Self>) {
        if !self.pending.replace(true) {
            self.hub.updates.borrow_mut().push(self.clone() as Rc<dyn Update>);
        }
    }
}

impl<T: SigValue> Update for SignalCore<T> {
    fn order_key(&self) -> u64 {
        self.order_key
    }

    fn apply(&self, k: &KernelShared) {
        self.pending.set(false);
        let next = self.next.borrow().clone();
        let old_level;
        {
            let mut cur = self.cur.borrow_mut();
            if *cur == next {
                return;
            }
            old_level = cur.edge_level();
            *cur = next.clone();
        }
        let conflict = T::RESOLVED && next.has_conflict();
        if conflict {
            // An X that appears on commit means two drivers fought during
            // this delta.
            self.hub.conflicts.set(self.hub.conflicts.get() + 1);
        }
        if self.hub.probe_on.get() && (conflict || self.hub.commit_armed.get()) {
            if let Some(p) = self.hub.probe.borrow().as_deref() {
                p.note_commit(self.probe_id, conflict);
            }
        }
        k.notify_now(self.changed);
        let new_level = next.edge_level();
        if let Some(pe) = self.posedge {
            if new_level == Some(true) && old_level != Some(true) {
                k.notify_now(pe);
            }
        }
        if let Some(ne) = self.negedge {
            if new_level == Some(false) && old_level != Some(false) {
                k.notify_now(ne);
            }
        }
        if let Some(idx) = self.trace_idx.get() {
            let mut s = String::with_capacity(T::VCD_WIDTH);
            next.write_vcd(&mut s);
            k.vcd_record(idx, &s);
        }
    }
}

impl<T: SigValue + From<bool>> ClockLine for SignalCore<T> {
    fn request_toggle(&self) -> bool {
        // The next level is derived from the committed value, so the
        // clock carries no hidden state and a checkpoint restore resumes
        // the waveform seamlessly.
        let level = self.cur.borrow().edge_level().unwrap_or(false);
        *self.next.borrow_mut() = T::from(!level);
        !self.pending.replace(true)
    }
}

impl<T: SigValue> TraceSource for SignalCore<T> {
    fn sample_vcd(&self) -> String {
        let mut s = String::with_capacity(T::VCD_WIDTH);
        self.cur.borrow().write_vcd(&mut s);
        s
    }
}

/// A signal: the primitive channel connecting component ports.
///
/// Cheap to clone; clones alias the same underlying channel.
///
/// # Examples
///
/// ```
/// use sysc::{SimTime, Simulator, Next};
///
/// let sim = Simulator::new();
/// let sig = sim.signal_with::<u32>("data", 7);
/// let (r, w) = (sig.clone(), sig.clone());
/// sim.process("writer").thread(move |_| { w.write(42); sysc::Next::Done });
/// assert_eq!(r.read(), 7);        // request–update: not yet visible
/// sim.run_for(SimTime::ZERO);     // one delta cycle
/// assert_eq!(r.read(), 42);
/// ```
pub struct Signal<T: SigValue> {
    core: Rc<SignalCore<T>>,
}

impl<T: SigValue> Clone for Signal<T> {
    fn clone(&self) -> Self {
        Signal { core: self.core.clone() }
    }
}

impl<T: SigValue> fmt::Debug for Signal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Signal")
            .field("name", &self.core.name)
            .field("value", &*self.core.cur.borrow())
            .finish()
    }
}

impl<T: SigValue> Signal<T> {
    pub(crate) fn new(k: &Rc<KernelShared>, name: &str, init: T) -> Self {
        let changed = k.create_event(&format!("{name}.changed"));
        let (posedge, negedge) = if T::VCD_WIDTH == 1 {
            (
                Some(k.create_event(&format!("{name}.pos"))),
                Some(k.create_event(&format!("{name}.neg"))),
            )
        } else {
            (None, None)
        };
        let probe_id = {
            let mut registry = k.hub.registry.borrow_mut();
            registry.push(SigStatic {
                name: name.to_string(),
                resolved: T::RESOLVED,
                width: T::VCD_WIDTH,
                changed: changed.0,
                posedge: posedge.map(|e| e.0),
                negedge: negedge.map(|e| e.0),
                driver_slots: Cell::new(0),
                kernel_driven: Cell::new(false),
                traced: Cell::new(false),
            });
            registry.len() - 1
        };
        let core = Rc::new(SignalCore {
            name: name.to_string(),
            cur: RefCell::new(init.clone()),
            next: RefCell::new(init),
            pending: Cell::new(false),
            changed,
            posedge,
            negedge,
            drivers: RefCell::new(Vec::new()),
            hub: k.hub.clone(),
            trace_idx: Cell::new(None),
            probe_id,
            probe_read_lo: Cell::new(0),
            probe_read: Cell::new(READ_CACHE_INIT),
            probe_write_lo: Cell::new(0),
            probe_rec: Cell::new(READ_CACHE_INIT),
            probe_last_writer: Cell::new(NO_PROC),
            probe_last_phase: Cell::new(0),
            order_key: k.hub.next_order_key(),
        });
        // Channel registry: checkpoints walk channels in creation order.
        k.channels.borrow_mut().push(core.clone() as Rc<dyn ChannelCkpt>);
        Signal { core }
    }

    /// The signal's name.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// Reads the current (committed) value.
    ///
    /// Every call walks the port → channel → current-value chain, as in
    /// SystemC; the paper's §4.4 "reduced port reading" optimisation is
    /// exactly caching the result of this call in a local variable.
    #[inline]
    pub fn read(&self) -> T {
        if self.core.hub.probe_on.get() {
            self.core.probe_record_read();
        }
        self.core.cur.borrow().clone()
    }

    /// Requests a write; takes effect in the update phase of this delta.
    ///
    /// For resolved types this writes *without* a driver slot (useful for
    /// tests and single-driver nets); bus models should write through an
    /// [`OutPort`] so multi-driver resolution applies.
    #[inline]
    pub fn write(&self, v: T) {
        self.core.write_plain(v);
    }

    /// Sets both current and next value immediately, bypassing the
    /// scheduler. Only for initialisation before the simulation runs.
    pub fn set_init(&self, v: T) {
        *self.core.cur.borrow_mut() = v.clone();
        *self.core.next.borrow_mut() = v;
    }

    /// The value-changed event (static sensitivity target).
    pub fn changed(&self) -> EventId {
        self.core.changed
    }

    /// The rising-edge event.
    ///
    /// # Panics
    ///
    /// Panics for multi-bit value types, which have no edges.
    pub fn posedge(&self) -> EventId {
        self.core.posedge.expect("posedge only exists on single-bit signals")
    }

    /// The falling-edge event.
    ///
    /// # Panics
    ///
    /// Panics for multi-bit value types, which have no edges.
    pub fn negedge(&self) -> EventId {
        self.core.negedge.expect("negedge only exists on single-bit signals")
    }

    /// Creates a reading port bound to this signal.
    pub fn in_port(&self) -> InPort<T> {
        InPort { sig: self.clone() }
    }

    /// Creates a writing port bound to this signal. For resolved types a
    /// fresh driver slot (initialised to `T::default()`, i.e. released) is
    /// allocated.
    pub fn out_port(&self) -> OutPort<T> {
        let driver = if T::RESOLVED {
            let mut drivers = self.core.drivers.borrow_mut();
            drivers.push(T::default());
            Some(drivers.len() - 1)
        } else {
            None
        };
        {
            // Driver registration is a static fact for the design graph,
            // recorded for native types too (where writes are unarbitrated).
            let registry = self.core.hub.registry.borrow();
            let slots = &registry[self.core.probe_id].driver_slots;
            slots.set(slots.get() + 1);
        }
        OutPort { sig: self.clone(), driver }
    }

    /// Number of attached drivers (resolved types only; `0` otherwise).
    pub fn driver_count(&self) -> usize {
        self.core.drivers.borrow().len()
    }

    pub(crate) fn core_rc(&self) -> Rc<SignalCore<T>> {
        self.core.clone()
    }

    /// Hands this signal to the kernel as a clock line toggling every
    /// `half`, and records the kernel as its static driver.
    pub(crate) fn drive_as_clock(&self, k: &KernelShared, half: SimTime)
    where
        T: From<bool>,
    {
        self.core.hub.registry.borrow()[self.core.probe_id].kernel_driven.set(true);
        k.register_clock(self.core.clone(), half);
    }

    pub(crate) fn set_trace_index(&self, idx: usize) {
        self.core.trace_idx.set(Some(idx));
        self.core.hub.registry.borrow()[self.core.probe_id].traced.set(true);
    }
}

/// A reading port: a component's handle onto a signal it consumes.
///
/// Functionally a thin wrapper over [`Signal::read`]; it exists to make
/// component interfaces explicit about direction, as `sc_in` does.
pub struct InPort<T: SigValue> {
    sig: Signal<T>,
}

impl<T: SigValue> Clone for InPort<T> {
    fn clone(&self) -> Self {
        InPort { sig: self.sig.clone() }
    }
}

impl<T: SigValue> fmt::Debug for InPort<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InPort({})", self.sig.name())
    }
}

impl<T: SigValue> InPort<T> {
    /// Reads the bound signal's current value (the §4.4 hot path).
    #[inline]
    pub fn read(&self) -> T {
        self.sig.read()
    }

    /// The bound signal's value-changed event.
    pub fn changed(&self) -> EventId {
        self.sig.changed()
    }

    /// The bound signal's rising-edge event.
    ///
    /// # Panics
    ///
    /// Panics for multi-bit value types.
    pub fn posedge(&self) -> EventId {
        self.sig.posedge()
    }

    /// The bound signal's falling-edge event.
    ///
    /// # Panics
    ///
    /// Panics for multi-bit value types.
    pub fn negedge(&self) -> EventId {
        self.sig.negedge()
    }
}

/// A writing port. For resolved signal types each `OutPort` owns one
/// driver slot that participates in resolution; for native types writes go
/// straight to the signal (last write wins).
pub struct OutPort<T: SigValue> {
    sig: Signal<T>,
    driver: Option<usize>,
}

impl<T: SigValue> fmt::Debug for OutPort<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OutPort({}, driver={:?})", self.sig.name(), self.driver)
    }
}

impl<T: SigValue> OutPort<T> {
    /// Requests a write through this port's driver.
    #[inline]
    pub fn write(&self, v: T) {
        match self.driver {
            Some(d) => self.sig.core.write_driver(d, v),
            None => self.sig.core.write_plain(v),
        }
    }

    /// Releases the driver (writes `T::default()`, which is `Z` for logic
    /// types) — how a bus master gets off the bus.
    ///
    /// Releasing the last actively-driving port is well-defined: the
    /// signal resolves to the released value (`Z` for logic types,
    /// `T::default()` for native ones) in the next update phase; no stale
    /// previously-driven value can resurface, because each port's slot is
    /// overwritten, not removed, and resolution always recomputes from the
    /// slots.
    pub fn release(&self) {
        self.write(T::default());
    }

    /// Reads back the signal's current (resolved) value.
    #[inline]
    pub fn read(&self) -> T {
        self.sig.read()
    }

    /// Returns a type-erased hook that releases this port's driver slot if
    /// it is actively driving (the conditional variant of
    /// [`OutPort::release`], matching the port's `Drop` behaviour).
    ///
    /// Register it with
    /// [`Simulator::release_on_park`](crate::Simulator::release_on_park)
    /// *before* moving the port into a process body: the kernel then
    /// releases the drive whenever the owning process is suspended or
    /// killed, so a swapped-out module cannot keep winning resolution on
    /// shared wires.
    pub fn release_hook(&self) -> ReleaseHook {
        let core = self.sig.core.clone();
        let driver = self.driver;
        ReleaseHook(Rc::new(move || match driver {
            Some(d) => {
                let driving = core.drivers.borrow()[d] != T::default();
                if driving {
                    core.write_driver(d, T::default());
                }
            }
            None => core.write_plain(T::default()),
        }))
    }
}

/// A type-erased driver-release hook produced by [`OutPort::release_hook`]
/// and consumed by
/// [`Simulator::release_on_park`](crate::Simulator::release_on_park).
pub struct ReleaseHook(pub(crate) Rc<dyn Fn()>);

impl fmt::Debug for ReleaseHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReleaseHook")
    }
}

impl<T: SigValue> Drop for OutPort<T> {
    /// Dropping a port releases its driver slot, so a value driven by a
    /// since-destroyed component cannot keep winning resolution forever
    /// (stale-value resurrection). The slot itself stays allocated —
    /// `driver_count` is a registration count, not a live count.
    fn drop(&mut self) {
        if let Some(d) = self.driver {
            let driving = self.sig.core.drivers.borrow()[d] != T::default();
            if driving {
                self.sig.core.write_driver(d, T::default());
            }
        }
    }
}
