//! Integration tests for the probe/design-graph instrumentation and the
//! request–update ordering + driver-release audits that ride along with it.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use sysc::prelude::*;
use sysc::probe::{EventKind, ProcKind};

// --- request–update ordering audit -----------------------------------------

/// Same-delta reads after a write must return the *old* value, through every
/// write path: plain writes, native out-ports and resolved driver slots.
#[test]
fn same_delta_read_after_write_returns_old_value() {
    let sim = Simulator::new();
    let plain = sim.signal_with::<u32>("plain", 10);
    let ported = sim.signal_with::<u32>("ported", 20);
    let rv = sim.signal::<Lv32>("rv");
    rv.set_init(Lv32::from_u32(30));
    let port = ported.out_port();
    let drv = rv.out_port();

    let observed = Rc::new(RefCell::new(Vec::new()));
    let (p, q, r, o) = (plain.clone(), ported.clone(), rv.clone(), observed.clone());
    sim.process("writer").thread(move |_| {
        p.write(11);
        port.write(21);
        drv.write(Lv32::from_u32(31));
        // All three reads happen in the same delta as the writes.
        o.borrow_mut().push((p.read(), q.read(), r.read().to_u32()));
        // A second write in the same delta must also not become visible.
        p.write(12);
        o.borrow_mut().push((p.read(), q.read(), r.read().to_u32()));
        Next::Done
    });
    sim.run_for(SimTime::ZERO);

    let obs = observed.borrow();
    assert_eq!(obs[0], (10, 20, Some(30)), "reads in the writing delta see pre-write values");
    assert_eq!(obs[1], (10, 20, Some(30)), "re-writing does not leak either");
    // After the update phase the last request wins.
    assert_eq!(plain.read(), 12);
    assert_eq!(ported.read(), 21);
    assert_eq!(rv.read().to_u32(), Some(31));
}

/// A process triggered by a change event reads the *committed* value in the
/// following delta — the other half of the request–update contract.
#[test]
fn next_delta_sees_committed_value() {
    let sim = Simulator::new();
    let sig = sim.signal_with::<u32>("s", 1);
    let seen = Rc::new(Cell::new(0));
    let (r, v) = (sig.clone(), seen.clone());
    sim.process("reader").sensitive(sig.changed()).no_init().method(move |_| v.set(r.read()));
    let w = sig.clone();
    sim.process("writer").thread(move |_| {
        w.write(99);
        Next::Done
    });
    sim.run_for(SimTime::ZERO);
    assert_eq!(seen.get(), 99);
}

// --- OutPort release / Drop audit -------------------------------------------

/// Releasing the last actively-driving port resolves to Z — the previously
/// driven value must not resurface.
#[test]
fn release_of_last_driver_is_well_defined() {
    let sim = Simulator::new();
    let bus = sim.signal::<Lv32>("bus");
    let d1 = bus.out_port();
    let d2 = bus.out_port();
    d1.write(Lv32::from_u32(0xAB));
    sim.run_for(SimTime::ZERO);
    assert_eq!(bus.read().to_u32(), Some(0xAB));
    d2.release(); // was never driving; releasing it changes nothing
    sim.run_for(SimTime::ZERO);
    assert_eq!(bus.read().to_u32(), Some(0xAB));
    d1.release(); // the single remaining active driver lets go
    sim.run_for(SimTime::ZERO);
    assert!(bus.read().is_all_z(), "released bus floats to Z, not 0xAB: {:?}", bus.read());
    assert_eq!(bus.driver_count(), 2, "release keeps the registration slots");
}

/// Dropping an OutPort mid-simulation releases its slot: a destroyed
/// component's drive cannot keep winning resolution (stale-value
/// resurrection).
#[test]
fn dropped_port_releases_its_drive() {
    let sim = Simulator::new();
    let bus = sim.signal::<Lv32>("bus");
    let keeper = bus.out_port();
    {
        let transient = bus.out_port();
        transient.write(Lv32::from_u32(0xFF));
        sim.run_for(SimTime::ZERO);
        assert_eq!(bus.read().to_u32(), Some(0xFF));
    } // `transient` dropped while driving
    sim.run_for(SimTime::ZERO);
    assert!(bus.read().is_all_z(), "dropped driver must stop driving: {:?}", bus.read());
    keeper.write(Lv32::from_u32(0x12));
    sim.run_for(SimTime::ZERO);
    assert_eq!(bus.read().to_u32(), Some(0x12), "survivor must win cleanly, not conflict");
    assert_eq!(bus.driver_count(), 2, "slots are registrations, not live handles");
}

/// Killing a process that is the sole driver of a signal releases its
/// driver registration — the kill drops the body closure, whose captured
/// port releases on `Drop`, exactly like an explicit `OutPort::release`.
#[test]
fn killed_sole_driver_releases_its_registration() {
    let sim = Simulator::new();
    let bus = sim.signal::<Lv32>("bus");
    let port = bus.out_port();
    let pid = sim.process("drv").thread(move |_| {
        port.write(Lv32::from_u32(0x55));
        Next::Static
    });
    sim.run_for(SimTime::ZERO);
    assert_eq!(bus.read().to_u32(), Some(0x55));
    sim.kill(pid);
    sim.run_for(SimTime::ZERO);
    assert!(bus.read().is_all_z(), "killed driver must stop driving: {:?}", bus.read());
    assert_eq!(bus.driver_count(), 1, "the registration slot outlives the process");
}

/// Suspending a sole driver releases its drive through the registered
/// park hook (the body — and its port — stay alive for `resume()`).
#[test]
fn suspended_sole_driver_releases_and_redrives_on_resume() {
    let sim = Simulator::new();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let bus = sim.signal::<Lv32>("bus");
    let port = bus.out_port();
    let hook = port.release_hook();
    let pid = sim
        .process("drv")
        .sensitive(clk.posedge())
        .no_init()
        .method(move |_| port.write(Lv32::from_u32(0x77)));
    sim.release_on_park(pid, hook);
    sim.run_for(SimTime::from_ns(5));
    assert_eq!(bus.read().to_u32(), Some(0x77));
    sim.suspend(pid);
    sim.run_for(SimTime::from_ns(20));
    assert!(bus.read().is_all_z(), "suspended driver must let go: {:?}", bus.read());
    sim.resume(pid);
    sim.run_for(SimTime::from_ns(20));
    assert_eq!(bus.read().to_u32(), Some(0x77), "resumed process re-drives on its next trigger");
}

/// Dropping a native-typed port is inert — it has no driver slot, so the
/// signal keeps its last committed value.
#[test]
fn dropped_native_port_does_not_clobber_value() {
    let sim = Simulator::new();
    let sig = sim.signal::<u32>("s");
    {
        let port = sig.out_port();
        port.write(77);
        sim.run_for(SimTime::ZERO);
    }
    sim.run_for(SimTime::ZERO);
    assert_eq!(sig.read(), 77);
}

// --- design graph: static structure ------------------------------------------

#[test]
fn static_graph_records_elaboration_without_probe() {
    let sim = Simulator::new();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let data = sim.signal::<u32>("data");
    let _p1 = data.out_port();
    let _p2 = data.out_port();
    let d = data.clone();
    sim.process("count").sensitive(clk.posedge()).no_init().method(move |_| d.write(d.read() + 1));

    let g = sim.design_graph();
    assert!(!g.observed, "probe not enabled: graph is static-only");
    let data_node = g.signals.iter().find(|s| s.name == "data").expect("data registered");
    assert!(!data_node.resolved);
    assert_eq!(data_node.width, 32);
    assert_eq!(data_node.driver_slots, 2);
    assert!(data_node.readers.is_empty(), "no runtime observation without probe");
    let clk_node = g.signals.iter().find(|s| s.name == "clk").expect("clock registered");
    assert_eq!(clk_node.width, 1);
    let pos = clk_node.posedge_event.expect("single-bit signal has posedge");
    assert_eq!(g.events[pos].kind, EventKind::SignalPosedge(clk_node.id));
    let count = g.processes.iter().find(|p| p.name == "count").expect("process registered");
    assert_eq!(count.kind, ProcKind::Method);
    assert_eq!(count.sensitivity, vec![pos], "static sensitivity edge recorded");
    assert!(g.events[pos].subscribers.contains(&count.id));
    assert!(clk_node.kernel_driven, "the clock is recorded as its signal's kernel driver");
    assert!(!data_node.kernel_driven);
    assert_eq!(g.processes.len(), 1, "the clock registers no process");
}

// --- design graph: runtime observation ----------------------------------------

#[test]
fn probe_observes_reads_writes_and_activations() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let a = sim.signal::<u32>("a");
    let b = sim.signal::<u32>("b");
    let (ar, bw) = (a.clone(), b.clone());
    sim.process("f").sensitive(clk.posedge()).no_init().method(move |_| bw.write(ar.read() * 2));
    a.write(5); // external (testbench) write
    sim.run_for(SimTime::from_ns(45));
    let _ = b.read(); // external read

    let g = sim.design_graph();
    assert!(g.observed);
    let f = g.processes.iter().find(|p| p.name == "f").unwrap();
    assert_eq!(f.activations, 5, "edges at 0,10,20,30,40");
    assert!(!f.used_dynamic_wait);
    let a_node = g.signals.iter().find(|s| s.name == "a").unwrap();
    let b_node = g.signals.iter().find(|s| s.name == "b").unwrap();
    assert_eq!(f.reads, vec![a_node.id]);
    assert_eq!(f.writes, vec![b_node.id]);
    assert_eq!(a_node.readers, vec![f.id]);
    assert_eq!(b_node.writers, vec![f.id]);
    assert!(a_node.external_writes, "testbench write recorded as external");
    assert!(b_node.external_reads, "testbench read recorded as external");
    assert_eq!(g.processes.len(), 1, "the clock registers no process");
    let clk_node = g.signals.iter().find(|s| s.name == "clk").unwrap();
    assert!(clk_node.kernel_driven, "the clock is shown as kernel-driven");
    assert!(clk_node.writers.is_empty(), "per-edge clock writes skip the probe hooks");
    assert!(!clk_node.external_writes);
    assert!(g.races.is_empty());
    assert!(g.overflow.is_none());
}

#[test]
fn probe_detects_same_delta_write_race_on_native_signal() {
    let sim = Simulator::new();
    sim.probe_enable();
    let sig = sim.signal::<u32>("fought");
    let (w1, w2) = (sig.clone(), sig.clone());
    sim.process("p1").thread(move |_| {
        w1.write(1);
        Next::Done
    });
    sim.process("p2").thread(move |_| {
        w2.write(2);
        Next::Done
    });
    sim.run_for(SimTime::ZERO);

    let g = sim.design_graph();
    assert_eq!(g.races.len(), 1, "two processes, different values, one delta");
    let race = g.races[0];
    assert_eq!(g.signals[race.signal].name, "fought");
    let names: Vec<&str> =
        [race.writer_a, race.writer_b].iter().map(|&p| g.processes[p].name.as_str()).collect();
    assert_eq!(names, vec!["p1", "p2"]);
}

#[test]
fn probe_ignores_agreeing_writers_and_cross_delta_writes() {
    let sim = Simulator::new();
    sim.probe_enable();
    let same = sim.signal::<u32>("same");
    let staged = sim.signal::<u32>("staged");
    let (s1, s2) = (same.clone(), same.clone());
    sim.process("a").thread(move |_| {
        s1.write(7);
        Next::Done
    });
    sim.process("b").thread(move |_| {
        s2.write(7); // same value: not an observable race
        Next::Done
    });
    let t1 = staged.clone();
    sim.process("c").thread(move |_| {
        t1.write(1);
        Next::Done
    });
    let t2 = staged.clone();
    let fired = Rc::new(Cell::new(false));
    sim.process("d").sensitive(staged.changed()).no_init().method(move |_| {
        if !fired.replace(true) {
            t2.write(2); // next delta: ordinary sequencing, not a race
        }
    });
    sim.run_for(SimTime::ZERO);
    assert!(sim.design_graph().races.is_empty());
}

#[test]
fn delta_watchdog_names_oscillating_signals() {
    let sim = Simulator::new();
    sim.probe_set_delta_limit(50);
    let ping = sim.signal::<bool>("ping");
    let pong = sim.signal::<bool>("pong");
    // Two zero-delay methods wired head-to-tail with net inversion: a
    // combinational ring oscillator.
    let (pi, po) = (ping.clone(), pong.clone());
    sim.process("fwd").sensitive(ping.changed()).method(move |_| po.write(!pi.read()));
    let (qi, qo) = (pong.clone(), ping.clone());
    sim.process("bwd").sensitive(pong.changed()).no_init().method(move |_| qo.write(qi.read()));
    let reason = sim.run_for(SimTime::from_ns(100));
    assert_eq!(reason, RunReason::Stopped, "watchdog must stop the runaway timestep");

    let g = sim.design_graph();
    let overflow = g.overflow.expect("watchdog tripped");
    assert_eq!(overflow.limit, 50);
    let names: Vec<&str> =
        overflow.oscillating.iter().map(|&s| g.signals[s].name.as_str()).collect();
    assert!(
        names.contains(&"ping") || names.contains(&"pong"),
        "oscillating set names the ping/pong pair: {names:?}"
    );
}

#[test]
fn bounded_design_does_not_trip_watchdog() {
    let sim = Simulator::new();
    sim.probe_set_delta_limit(50);
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let q = sim.signal::<u32>("q");
    let qw = q.clone();
    sim.process("count")
        .sensitive(clk.posedge())
        .no_init()
        .method(move |_| qw.write(qw.read() + 1));
    assert_eq!(sim.run_for(SimTime::from_ns(1000)), RunReason::TimeReached);
    assert!(sim.design_graph().overflow.is_none());
}

#[test]
fn probe_disable_pauses_but_keeps_observations() {
    let sim = Simulator::new();
    sim.probe_enable();
    let sig = sim.signal::<u32>("s");
    let s = sig.clone();
    sim.process("w").thread(move |_| {
        s.write(1);
        Next::In(SimTime::from_ns(10))
    });
    sim.run_for(SimTime::ZERO);
    sim.probe_disable();
    assert!(!sim.probe_enabled());
    sim.run_for(SimTime::from_ns(50));
    let g = sim.design_graph();
    assert!(g.observed, "graph keeps what was observed while enabled");
    let w = g.processes.iter().find(|p| p.name == "w").unwrap();
    assert_eq!(w.activations, 1, "counting stopped at disable");
}
