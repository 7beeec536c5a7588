//! # sysc — a SystemC-style discrete-event simulation kernel in Rust
//!
//! This crate is the simulation substrate for the workspace's reproduction
//! of *"Evaluation of SystemC Modelling of Reconfigurable Embedded
//! Systems"* (Rissa, Donlin, Luk — DATE 2005). It implements the subset of
//! SystemC 2.0 the paper's models exercise:
//!
//! * a **two-phase evaluate/update scheduler** with delta cycles and a
//!   timed event queue ([`Simulator`]);
//! * **method** and **thread** processes with static and dynamic
//!   sensitivity, including multicycle sleep (`wait(n)` /
//!   `next_trigger(t)`) — see [`Next`] and [`Ctx`];
//! * **signals and ports** with request–update semantics ([`Signal`],
//!   [`InPort`], [`OutPort`]);
//! * **four-state resolved logic** ([`Logic`], [`Lv32`]) mirroring
//!   `sc_signal_rv`, alongside fast native data types — switchable per
//!   model through [`WireFamily`];
//! * **VCD tracing** compatible with GTKWave.
//!
//! ## Quick start
//!
//! ```
//! use sysc::{Clock, Next, SimTime, Simulator};
//!
//! let sim = Simulator::new();
//! let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
//! let q = sim.signal::<u32>("q");
//!
//! // A synchronous counter: a method sensitive to the clock's rising edge.
//! let q_w = q.clone();
//! sim.process("counter")
//!     .sensitive(clk.posedge())
//!     .no_init()
//!     .method(move |_| q_w.write(q_w.read().wrapping_add(1)));
//!
//! sim.run_for(SimTime::from_ns(95)); // edges at 0, 10, ..., 90
//! assert_eq!(q.read(), 10);
//! ```
//!
//! ## Design notes
//!
//! The kernel is single-threaded, like the OSCI reference simulator the
//! paper used; determinism is total (no host-dependent ordering). Threads
//! are resumable closures rather than stackful coroutines; see the
//! [`process`] module docs for how this preserves the paper's
//! thread-vs-method cost asymmetry.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod clock;
mod fifo;
mod kernel;
mod logic;
pub mod probe;
pub mod process;
mod signal;
mod time;
mod trace;
mod traced;
mod value;
pub mod vcd_read;
mod wire;

pub use clock::Clock;
pub use fifo::Fifo;
pub use kernel::{EventId, ProcBuilder, RunReason, ScheduleOrder, Simulator, Stats};
pub use logic::{Logic, Lv32};
pub use probe::{
    AccessOp, DeltaOverflow, DesignGraph, EventKind, EventNode, LifeState, ProcKind, ProcNode,
    RaceElem, SchedRace, SignalNode, StateKind, StateNode, WriteRace,
};
pub use process::{Ctx, Next, ProcId};
pub use signal::{InPort, OutPort, ReleaseHook, Signal};
pub use time::SimTime;
pub use traced::{StateTouch, Traced};
pub use value::SigValue;
pub use wire::{Native, Rv, WireBit, WireFamily, WireWord};

/// Commonly used items, for glob import in model code.
pub mod prelude {
    pub use crate::{
        Clock, Ctx, EventId, Fifo, InPort, LifeState, Logic, Lv32, Native, Next, OutPort, ProcId,
        ReleaseHook, RunReason, Rv, ScheduleOrder, SigValue, Signal, SimTime, Simulator,
        StateTouch, Stats, Traced, WireBit, WireFamily, WireWord,
    };
}

#[cfg(test)]
mod kernel_tests {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    #[test]
    fn request_update_semantics() {
        let sim = Simulator::new();
        let sig = sim.signal_with::<u32>("s", 1);
        let seen = Rc::new(Cell::new(0));
        let (s, v) = (sig.clone(), seen.clone());
        sim.process("p").thread(move |_| {
            s.write(2);
            v.set(s.read()); // must still see the old value
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        assert_eq!(seen.get(), 1, "write must not be visible within the same delta");
        assert_eq!(sig.read(), 2, "write must be committed by the update phase");
    }

    #[test]
    fn delta_chain_between_processes() {
        // a -> b -> c through two signals, all at time zero.
        let sim = Simulator::new();
        let ab = sim.signal::<u32>("ab");
        let bc = sim.signal::<u32>("bc");
        let (ab_w, ab_r, bc_w, bc_r) = (ab.clone(), ab.clone(), bc.clone(), bc.clone());
        sim.process("a").thread(move |_| {
            ab_w.write(5);
            Next::Done
        });
        sim.process("b")
            .sensitive(ab.changed())
            .no_init()
            .method(move |_| bc_w.write(ab_r.read() * 2));
        let out = Rc::new(Cell::new(0));
        let o = out.clone();
        sim.process("c").sensitive(bc.changed()).no_init().method(move |_| o.set(bc_r.read()));
        sim.run_for(SimTime::ZERO);
        assert_eq!(out.get(), 10);
        assert!(sim.stats().deltas >= 3, "chain needs three delta cycles");
    }

    #[test]
    fn no_event_when_value_unchanged() {
        let sim = Simulator::new();
        let sig = sim.signal_with::<u32>("s", 7);
        let fires = Rc::new(Cell::new(0));
        let f = fires.clone();
        sim.process("watcher")
            .sensitive(sig.changed())
            .no_init()
            .method(move |_| f.set(f.get() + 1));
        let s = sig.clone();
        sim.process("writer").thread(move |_| {
            s.write(7); // same value: no change event
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        assert_eq!(fires.get(), 0);
    }

    #[test]
    fn timed_wait_resumes_at_right_time() {
        let sim = Simulator::new();
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = times.clone();
        sim.process("p").thread(move |ctx| {
            t.borrow_mut().push(ctx.now().as_ns());
            if t.borrow().len() < 4 {
                Next::In(SimTime::from_ns(25))
            } else {
                Next::Done
            }
        });
        assert_eq!(sim.run_until(SimTime::from_us(1)), RunReason::Starved);
        assert_eq!(*times.borrow(), vec![0, 25, 50, 75]);
    }

    #[test]
    fn cycles_wait_skips_triggers() {
        let sim = Simulator::new();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        let runs = Rc::new(Cell::new(0));
        let r = runs.clone();
        sim.process("slow").sensitive(clk.posedge()).no_init().thread(move |_| {
            r.set(r.get() + 1);
            Next::Cycles(4) // run every 4th edge
        });
        sim.run_for(SimTime::from_ns(159)); // 16 edges at 0..150
        assert_eq!(runs.get(), 4, "edges 0, 40, 80, 120");
    }

    #[test]
    fn method_next_trigger_cycles() {
        let sim = Simulator::new();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        let runs = Rc::new(Cell::new(0u32));
        let r = runs.clone();
        sim.process("m").sensitive(clk.posedge()).no_init().method(move |ctx| {
            r.set(r.get() + 1);
            ctx.next_trigger_cycles(3);
        });
        sim.run_for(SimTime::from_ns(89)); // edges at 0,10,...,80 => 9 edges
        assert_eq!(runs.get(), 3, "edges 0, 30, 60");
    }

    #[test]
    fn dynamic_event_wait_ignores_static_sensitivity() {
        let sim = Simulator::new();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        let go = sim.event("go");
        let log = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let first = Rc::new(Cell::new(true));
        sim.process("p").sensitive(clk.posedge()).no_init().thread(move |ctx| {
            l.borrow_mut().push(ctx.now().as_ns());
            if first.replace(false) {
                Next::Event(go) // park; clock edges must not wake us
            } else {
                Next::Done
            }
        });
        sim.notify_after(go, SimTime::from_ns(55));
        sim.run_for(SimTime::from_ns(100));
        assert_eq!(*log.borrow(), vec![0, 55]);
    }

    #[test]
    fn stop_from_process() {
        let sim = Simulator::new();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        let count = Rc::new(Cell::new(0));
        let c = count.clone();
        sim.process("p").sensitive(clk.posedge()).no_init().method(move |ctx| {
            c.set(c.get() + 1);
            if c.get() == 5 {
                ctx.stop();
            }
        });
        assert_eq!(sim.run_until(SimTime::from_sec(1)), RunReason::Stopped);
        assert_eq!(count.get(), 5);
        assert_eq!(sim.now(), SimTime::from_ns(40));
    }

    #[test]
    fn resolved_signal_multi_driver() {
        let sim = Simulator::new();
        let bus = sim.signal::<Lv32>("bus");
        let d1 = bus.out_port();
        let d2 = bus.out_port();
        assert_eq!(bus.driver_count(), 2);
        d1.write(Lv32::from_u32(0xFF));
        sim.run_for(SimTime::ZERO);
        assert_eq!(bus.read().to_u32(), Some(0xFF), "single active driver");
        d2.write(Lv32::from_u32(0x00));
        sim.run_for(SimTime::ZERO);
        assert!(bus.read().has_x(), "driver conflict must surface as X");
        assert!(sim.stats().conflicts > 0, "conflict must be counted");
        d1.release();
        sim.run_for(SimTime::ZERO);
        assert_eq!(bus.read().to_u32(), Some(0x00), "release leaves one driver");
    }

    #[test]
    fn native_signal_last_write_wins_no_detection() {
        let sim = Simulator::new();
        let bus = sim.signal::<u32>("bus");
        let d1 = bus.out_port();
        let d2 = bus.out_port();
        d1.write(1);
        d2.write(2);
        sim.run_for(SimTime::ZERO);
        assert_eq!(bus.read(), 2, "last write wins for native types");
        assert_eq!(sim.stats().conflicts, 0, "no conflict detection (paper §4.2)");
    }

    #[test]
    fn posedge_negedge_events() {
        let sim = Simulator::new();
        let sig = sim.signal::<bool>("b");
        let pos = Rc::new(Cell::new(0));
        let neg = Rc::new(Cell::new(0));
        let (p, n) = (pos.clone(), neg.clone());
        sim.process("pw").sensitive(sig.posedge()).no_init().method(move |_| p.set(p.get() + 1));
        sim.process("nw").sensitive(sig.negedge()).no_init().method(move |_| n.set(n.get() + 1));
        let s = sig.clone();
        let step = Rc::new(Cell::new(0));
        sim.process("drv").thread(move |_| {
            let i = step.get();
            step.set(i + 1);
            s.write(i % 2 == 0); // t,f,t,f...
            if i < 5 {
                Next::In(SimTime::from_ns(10))
            } else {
                Next::Done
            }
        });
        sim.run_for(SimTime::from_us(1));
        // Writes: T,F,T,F,T,F starting from initial false.
        assert_eq!(pos.get(), 3);
        assert_eq!(neg.get(), 3);
    }

    #[test]
    fn starvation_reported() {
        let sim = Simulator::new();
        assert_eq!(sim.run_until(SimTime::from_ns(100)), RunReason::Starved);
    }

    #[test]
    fn time_limit_reached() {
        let sim = Simulator::new();
        let _clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        assert_eq!(sim.run_until(SimTime::from_ns(95)), RunReason::TimeReached);
        assert_eq!(sim.now(), SimTime::from_ns(95));
        // Can continue running afterwards.
        assert_eq!(sim.run_until(SimTime::from_ns(200)), RunReason::TimeReached);
        assert_eq!(sim.now(), SimTime::from_ns(200));
    }

    #[test]
    fn initialization_runs_unless_suppressed() {
        let sim = Simulator::new();
        let a = Rc::new(Cell::new(0));
        let b = Rc::new(Cell::new(0));
        let (ac, bc) = (a.clone(), b.clone());
        sim.process("init").method(move |ctx| {
            ac.set(1);
            ctx.next_trigger_never();
        });
        sim.process("noinit").no_init().method(move |_| bc.set(1));
        sim.run_for(SimTime::ZERO);
        assert_eq!(a.get(), 1);
        assert_eq!(b.get(), 0);
    }

    #[test]
    fn vcd_trace_writes_file() {
        let dir = std::env::temp_dir().join("sysc_vcd_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.vcd");
        let sim = Simulator::new();
        sim.trace_vcd(&path).unwrap();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        let data = sim.signal::<u32>("data");
        sim.trace(clk.signal(), "clk");
        sim.trace(&data, "data");
        let d = data.clone();
        sim.process("w").sensitive(clk.posedge()).no_init().method(move |_| d.write(d.read() + 3));
        sim.run_for(SimTime::from_ns(50));
        sim.flush_trace().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("$timescale 1ps $end"));
        assert!(text.contains("$var wire 1"));
        assert!(text.contains("$var reg 32"));
        assert!(text.contains("#10000"), "clock change at 10ns = 10000ps: {text}");
        assert!(text.contains("b00000000000000000000000000000011 "), "data=3 recorded");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_accumulate() {
        let sim = Simulator::new();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        sim.process("m").sensitive(clk.posedge()).no_init().method(|_| {});
        sim.run_for(SimTime::from_ns(100));
        let st = sim.stats();
        // The clock is a kernel primitive, not a process: the only
        // activations are the method's, one per rising edge (0, 10, ...,
        // 100 ns). Deltas, updates and timed steps are those of a
        // process-driven clock: every edge commits in its step's first
        // delta, and a rising edge adds the method's delta.
        assert_eq!(st.processes, 1, "no clock process: {st:?}");
        assert_eq!(st.activations, 11, "one activation per rising edge: {st:?}");
        assert_eq!(st.deltas, 11 * 2 + 10, "{st:?}");
        assert_eq!(st.updates, 21, "one commit per edge: {st:?}");
        assert_eq!(st.timed_steps, 20, "every half period after time zero: {st:?}");
    }

    #[test]
    fn dropping_an_unsettled_simulator_frees_its_signals() {
        // An uncommitted write parks the signal core in the hub's update
        // list, which the core itself keeps alive through its hub handle.
        let sim = Simulator::new();
        let sig = sim.signal::<u32>("s");
        sig.write(1);
        let core = Rc::downgrade(&sig.core_rc());
        drop(sig);
        drop(sim);
        assert!(core.upgrade().is_none(), "the simulator leaked its written signal");
    }

    #[test]
    fn a_never_run_clock_leaves_nothing_pending() {
        // The first edge is requested by the first run, not at
        // construction, so a built-but-never-run clock holds no update.
        let sim = Simulator::new();
        let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        let core = Rc::downgrade(&clk.signal().core_rc());
        let mut w = checkpoint::Writer::new();
        sim.ckpt_save(&mut w); // asserts quiescence
        drop(clk);
        drop(sim);
        assert!(core.upgrade().is_none(), "the simulator leaked its clock signal");
    }

    #[test]
    fn determinism_same_model_same_stats() {
        let build_and_run = || {
            let sim = Simulator::new();
            let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
            let s = sim.signal::<u32>("s");
            let sw = s.clone();
            sim.process("a").sensitive(clk.posedge()).no_init().method(move |_| {
                sw.write(sw.read().wrapping_mul(1664525).wrapping_add(1013904223));
            });
            let sr = s.clone();
            let acc = Rc::new(Cell::new(0u64));
            let a = acc.clone();
            sim.process("b").sensitive(s.changed()).no_init().method(move |_| {
                a.set(a.get().wrapping_add(sr.read() as u64));
            });
            sim.run_for(SimTime::from_us(10));
            (acc.get(), sim.stats())
        };
        let (a1, s1) = build_and_run();
        let (a2, s2) = build_and_run();
        assert_eq!(a1, a2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn phases_pin_same_delta_execution_order() {
        // Registered in reverse phase order and perturbed with LIFO, the
        // batch must still run phase 0 before phase 1 before phase 2.
        for order in
            [ScheduleOrder::Fifo, ScheduleOrder::Lifo, ScheduleOrder::SeededShuffle(0xBEEF)]
        {
            let sim = Simulator::new();
            sim.set_schedule_order(order);
            let log = Rc::new(RefCell::new(Vec::new()));
            for (phase, tag) in [(2u8, "late"), (1, "mid"), (0, "early")] {
                let l = log.clone();
                sim.process(tag).phase(phase).thread(move |_| {
                    l.borrow_mut().push(tag);
                    Next::Done
                });
            }
            sim.run_for(SimTime::ZERO);
            assert_eq!(*log.borrow(), vec!["early", "mid", "late"], "order {order}");
        }
    }

    #[test]
    fn update_commits_apply_in_registration_order() {
        // One process writes the later-registered signal first; commits
        // (and thus change notifications) must still fire in signal
        // registration order — the canonical commit order that makes VCD
        // bytes schedule-independent.
        let sim = Simulator::new();
        let first = sim.signal::<u32>("first");
        let second = sim.signal::<u32>("second");
        let (fw, sw) = (first.clone(), second.clone());
        sim.process("writer").thread(move |_| {
            sw.write(2); // requested first...
            fw.write(1);
            Next::Done
        });
        let log = Rc::new(RefCell::new(Vec::new()));
        let l1 = log.clone();
        sim.process("w1").sensitive(first.changed()).no_init().method(move |_| {
            l1.borrow_mut().push("first");
        });
        let l2 = log.clone();
        sim.process("w2").sensitive(second.changed()).no_init().method(move |_| {
            l2.borrow_mut().push("second");
        });
        sim.run_for(SimTime::ZERO);
        assert_eq!(*log.borrow(), vec!["first", "second"], "...but committed in creation order");
    }

    #[test]
    fn race_detector_flags_same_phase_shared_cell_conflict() {
        let sim = Simulator::new();
        sim.race_detect_enable();
        let shared = sim.traced("shared", 0u32);
        let (a, b) = (shared.clone(), shared.clone());
        sim.process("writer").thread(move |_| {
            *a.borrow_mut() += 1;
            Next::Done
        });
        sim.process("reader").thread(move |_| {
            let _ = *b.borrow();
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        let g = sim.design_graph();
        assert!(g.race_observed);
        assert_eq!(g.sched_races.len(), 1, "read-vs-write on shared state is a race");
        let r = g.sched_races[0];
        assert_eq!(r.elem, RaceElem::State(0));
        assert_eq!((r.proc_a, r.proc_b), (0, 1));
        assert_eq!(g.states.len(), 1);
        assert_eq!(g.states[0].name, "shared");
        assert!(
            g.states[0].location.contains("lib.rs"),
            "registration site: {}",
            g.states[0].location
        );
        assert_eq!(g.states[0].writers, vec![0]);
        assert_eq!(g.states[0].readers, vec![1]);
    }

    #[test]
    fn race_detector_accepts_phase_separated_handoff() {
        // The same shared-cell hand-off, made explicit with phases: the
        // writer runs in phase 0, the reader in phase 1 — a pinned
        // sub-delta order, so no race.
        let sim = Simulator::new();
        sim.race_detect_enable();
        let shared = sim.traced("shared", 0u32);
        let (a, b) = (shared.clone(), shared.clone());
        sim.process("writer").phase(0).thread(move |_| {
            *a.borrow_mut() += 1;
            Next::Done
        });
        let seen = Rc::new(Cell::new(0));
        let s = seen.clone();
        sim.process("reader").phase(1).thread(move |_| {
            s.set(*b.borrow());
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        assert_eq!(seen.get(), 1, "phase 1 sees the phase-0 mutation");
        assert!(sim.design_graph().sched_races.is_empty());
    }

    #[test]
    fn race_detector_flags_same_phase_signal_write_write() {
        let sim = Simulator::new();
        sim.race_detect_enable();
        let sig = sim.signal::<u32>("fought");
        let (w1, w2) = (sig.clone(), sig.clone());
        sim.process("p").thread(move |_| {
            w1.write(1);
            Next::Done
        });
        sim.process("q").thread(move |_| {
            w2.write(2);
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        let g = sim.design_graph();
        assert_eq!(g.sched_races.len(), 1);
        assert_eq!(g.sched_races[0].elem, RaceElem::Signal(0));
        assert_eq!(g.races.len(), 1, "also visible as a plain write race");
    }

    #[test]
    fn race_detector_ignores_cross_phase_signal_writes() {
        let sim = Simulator::new();
        sim.race_detect_enable();
        let sig = sim.signal::<u32>("staged");
        let (w1, w2) = (sig.clone(), sig.clone());
        sim.process("p").phase(0).thread(move |_| {
            w1.write(1);
            Next::Done
        });
        sim.process("q").phase(1).thread(move |_| {
            w2.write(2);
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        assert!(sim.design_graph().sched_races.is_empty(), "phases pin the winner");
        assert_eq!(sig.read(), 2);
    }

    #[test]
    fn race_free_model_is_schedule_independent() {
        let run = |order: ScheduleOrder| {
            let sim = Simulator::new();
            sim.set_schedule_order(order);
            let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
            let a = sim.signal::<u32>("a");
            let b = sim.signal::<u32>("b");
            // Two independent counters plus a combiner: communication
            // only through signals, so every order must agree.
            let aw = a.clone();
            sim.process("ca").sensitive(clk.posedge()).no_init().method(move |_| {
                aw.write(aw.read().wrapping_add(3));
            });
            let bw = b.clone();
            sim.process("cb").sensitive(clk.posedge()).no_init().method(move |_| {
                bw.write(bw.read().wrapping_mul(5).wrapping_add(1));
            });
            let acc = Rc::new(Cell::new(0u64));
            let (ar, br, ac) = (a.clone(), b.clone(), acc.clone());
            sim.process("mix").sensitive(a.changed()).sensitive(b.changed()).no_init().method(
                move |_| {
                    ac.set(ac.get().wrapping_mul(31).wrapping_add((ar.read() ^ br.read()) as u64));
                },
            );
            sim.run_for(SimTime::from_us(1));
            (acc.get(), a.read(), b.read(), sim.stats().deltas)
        };
        let golden = run(ScheduleOrder::Fifo);
        assert_eq!(run(ScheduleOrder::Lifo), golden);
        assert_eq!(run(ScheduleOrder::SeededShuffle(1)), golden);
        assert_eq!(run(ScheduleOrder::SeededShuffle(0xD00D)), golden);
    }

    #[test]
    fn fifo_same_phase_consumers_race_and_peek_vs_produce() {
        let sim = Simulator::new();
        sim.race_detect_enable();
        let f: Fifo<u32> = Fifo::new(&sim, "pipe", 4);
        f.try_put(1); // external: seed two committed items
        f.try_put(2);
        sim.run_for(SimTime::ZERO);
        let (c1, c2) = (f.clone(), f.clone());
        sim.process("rx1").thread(move |_| {
            c1.try_get();
            Next::Done
        });
        sim.process("rx2").thread(move |_| {
            c2.try_get();
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        let g = sim.design_graph();
        assert!(
            g.sched_races.iter().any(|r| matches!(r.elem, RaceElem::State(_))
                && r.op_a == AccessOp::Consume
                && r.op_b == AccessOp::Consume),
            "two same-phase consumers race on who gets the item: {:?}",
            g.sched_races
        );
        assert_eq!(g.states[0].kind, StateKind::Fifo);
    }

    #[test]
    fn kernel_checkpoint_round_trip_continues_identically() {
        // Build twice via the same elaboration; run A to t1, checkpoint,
        // restore into B, then run both to t2: every observable must
        // agree — including a thread parked on a timed wait, a dynamic
        // event wait, and a multicycle sleep in flight.
        let build = |acc: &Rc<Cell<u64>>| {
            let sim = Simulator::new();
            let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
            let s = sim.signal::<u32>("s");
            let go = sim.event("go");
            let sw = s.clone();
            sim.process("lcg").sensitive(clk.posedge()).no_init().method(move |_| {
                sw.write(sw.read().wrapping_mul(1664525).wrapping_add(1013904223));
            });
            let sr = s.clone();
            let a = acc.clone();
            sim.process("mix").sensitive(s.changed()).no_init().method(move |_| {
                a.set(a.get().wrapping_mul(31).wrapping_add(sr.read() as u64));
            });
            let a2 = acc.clone();
            sim.process("ticker").thread(move |ctx| {
                a2.set(a2.get() ^ ctx.now().as_ps());
                Next::In(SimTime::from_ns(37))
            });
            let a3 = acc.clone();
            sim.process("waiter").sensitive(clk.posedge()).no_init().thread(move |ctx| {
                a3.set(a3.get().rotate_left(1));
                // Branch on time, not captured state: closure-local state is
                // invisible to a checkpoint, so processes must derive their
                // behaviour from kernel-visible facts.
                if ctx.now().is_zero() {
                    Next::Event(go)
                } else {
                    Next::Cycles(7)
                }
            });
            let a4 = acc.clone();
            sim.process("evwait").thread(move |_| {
                a4.set(a4.get().wrapping_add(0x9e37));
                Next::Event(go) // parked on a dynamic event at checkpoint time
            });
            sim.notify_after(go, SimTime::from_ns(333));
            (sim, s)
        };

        let acc_a = Rc::new(Cell::new(0u64));
        let (sim_a, sig_a) = build(&acc_a);
        sim_a.run_until(SimTime::from_ns(500));
        let mut w = checkpoint::Writer::new();
        sim_a.ckpt_save(&mut w);
        let blob = w.finish(0);
        // The accumulator is plain component state, outside the kernel:
        // carry it over by hand, as the platform layer does for its own.
        let acc_mid = acc_a.get();

        let acc_b = Rc::new(Cell::new(0u64));
        let (sim_b, sig_b) = build(&acc_b);
        let (_, payload) = checkpoint::read_header(&blob).unwrap();
        let mut r = checkpoint::Reader::new(payload);
        sim_b.ckpt_restore(&mut r).unwrap();
        assert!(r.at_end());
        acc_b.set(acc_mid);

        assert_eq!(sim_b.now(), sim_a.now());
        assert_eq!(sig_b.read(), sig_a.read());
        assert_eq!(sim_b.stats(), sim_a.stats());

        sim_a.run_until(SimTime::from_ns(2000));
        sim_b.run_until(SimTime::from_ns(2000));
        assert_eq!(acc_b.get(), acc_a.get(), "restored run must continue bit-identically");
        assert_eq!(sig_b.read(), sig_a.read());
        assert_eq!(sim_b.stats(), sim_a.stats());

        // Save/restore/save must be byte-identical (fingerprint stable).
        let mut w2 = checkpoint::Writer::new();
        sim_a.ckpt_save(&mut w2);
        let mut w3 = checkpoint::Writer::new();
        sim_b.ckpt_save(&mut w3);
        assert_eq!(w2.finish(0), w3.finish(0));
    }

    #[test]
    fn kernel_checkpoint_rejects_structural_mismatch() {
        let sim = Simulator::new();
        let _clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
        sim.run_until(SimTime::from_ns(100));
        let mut w = checkpoint::Writer::new();
        sim.ckpt_save(&mut w);
        let blob = w.finish(0);

        // A differently elaborated model must refuse the snapshot.
        let other = Simulator::new();
        let _clk2: Clock<bool> = Clock::new(&other, "clk", SimTime::from_ns(10));
        let _extra = other.signal::<u32>("extra");
        let (_, payload) = checkpoint::read_header(&blob).unwrap();
        let mut r = checkpoint::Reader::new(payload);
        assert_eq!(
            other.ckpt_restore(&mut r).unwrap_err(),
            checkpoint::CkptError::Corrupt("elaboration digest mismatch")
        );
    }

    #[test]
    fn seeded_shuffle_equal_seeds_give_equal_schedules() {
        let run = |seed: u64| {
            let sim = Simulator::new();
            sim.set_schedule_order(ScheduleOrder::SeededShuffle(seed));
            let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
            let log = Rc::new(RefCell::new(Vec::new()));
            for tag in ["a", "b", "c", "d", "e"] {
                let l = log.clone();
                sim.process(tag).sensitive(clk.posedge()).no_init().method(move |_| {
                    l.borrow_mut().push(tag);
                });
            }
            sim.run_for(SimTime::from_ns(200));
            let schedule = log.borrow().clone();
            schedule
        };
        assert_eq!(run(42), run(42), "equal seeds must give identical schedules");
        assert_ne!(
            run(42),
            run(43),
            "different seeds should explore a different interleaving here"
        );
    }
}
