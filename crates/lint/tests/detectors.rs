//! Per-detector fixtures: one intentionally-buggy toy design per rule
//! asserting the exact diagnostic fires, and a clean design per rule
//! asserting silence.

use sclint::{analyze, Rule, Severity};
use std::cell::Cell;
use std::rc::Rc;
use sysc::prelude::*;

// --- multi-driver -------------------------------------------------------------

#[test]
fn multi_driver_fires_on_resolved_conflict() {
    let sim = Simulator::new();
    sim.probe_enable();
    let bus = sim.signal::<Lv32>("bus");
    let (d1, d2) = (bus.out_port(), bus.out_port());
    sim.process("m1").thread(move |_| {
        d1.write(Lv32::from_u32(0xFF));
        Next::Done
    });
    sim.process("m2").thread(move |_| {
        d2.write(Lv32::from_u32(0x00));
        Next::Done
    });
    sim.run_for(SimTime::ZERO);

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::MultiDriver);
    let err = hits.iter().find(|f| f.severity == Severity::Error).expect("X conflict is an error");
    assert!(err.message.contains("'bus'"), "{}", err.message);
    assert!(err.message.contains("resolved to X"), "{}", err.message);
    assert!(!report.is_clean());
}

#[test]
fn multi_driver_warns_on_native_same_delta_race() {
    let sim = Simulator::new();
    sim.probe_enable();
    let rail = sim.signal::<u32>("rail");
    let (w1, w2) = (rail.out_port(), rail.out_port());
    sim.process("w1").thread(move |_| {
        w1.write(1);
        Next::Done
    });
    sim.process("w2").thread(move |_| {
        w2.write(2);
        Next::Done
    });
    sim.run_for(SimTime::ZERO);

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::MultiDriver);
    let warn = hits.iter().find(|f| f.severity == Severity::Warning).expect("race must warn");
    assert!(warn.message.contains("'rail'"), "{}", warn.message);
    assert!(warn.message.contains("§4.2"), "{}", warn.message);
    assert!(warn.subjects.contains(&"w1".to_string()));
    assert!(warn.subjects.contains(&"w2".to_string()));
    // A silent race is a warning, not an error: still lint-clean.
    assert!(report.is_clean());
}

#[test]
fn multi_driver_silent_on_clean_tristate_handoff() {
    let sim = Simulator::new();
    sim.probe_enable();
    let bus = sim.signal::<Lv32>("bus");
    let (d1, d2) = (bus.out_port(), bus.out_port());
    let step = Rc::new(Cell::new(0u32));
    let r = bus.clone();
    sim.process("master").thread(move |_| {
        let i = step.replace(step.get() + 1);
        match i {
            0 => d1.write(Lv32::from_u32(5)),
            1 => {
                let _ = r.read();
                d1.release(); // proper handoff: release before the other drives
            }
            2 => d2.write(Lv32::from_u32(9)),
            _ => {
                let _ = r.read();
                return Next::Done;
            }
        }
        Next::In(SimTime::from_ns(10))
    });
    sim.run_for(SimTime::from_ns(100));

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::MultiDriver).is_empty(), "{}", report.to_text());
    assert!(report.is_clean());
}

// --- comb-loop ----------------------------------------------------------------

#[test]
fn comb_loop_fires_on_method_cycle() {
    let sim = Simulator::new();
    sim.probe_enable();
    let a = sim.signal::<bool>("a");
    let b = sim.signal::<bool>("b");
    // fwd copies a -> b, bwd copies b -> a: a zero-delay cycle that happens
    // to converge, so only static detection can see it.
    let (ar, bw) = (a.clone(), b.clone());
    sim.process("fwd").sensitive(a.changed()).method(move |_| bw.write(ar.read()));
    let (br, aw) = (b.clone(), a.clone());
    sim.process("bwd").sensitive(b.changed()).method(move |_| aw.write(br.read()));
    sim.run_for(SimTime::ZERO);

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::CombLoop);
    assert_eq!(hits.len(), 1, "{}", report.to_text());
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].message.contains("fwd"), "{}", hits[0].message);
    assert!(hits[0].message.contains("bwd"), "{}", hits[0].message);
    assert!(!report.is_clean());
}

#[test]
fn comb_loop_silent_on_acyclic_chain() {
    let sim = Simulator::new();
    sim.probe_enable();
    let a = sim.signal::<u32>("a");
    let b = sim.signal::<u32>("b");
    let c = sim.signal::<u32>("c");
    let (ar, bw) = (a.clone(), b.clone());
    sim.process("s1").sensitive(a.changed()).method(move |_| bw.write(ar.read() + 1));
    let (br, cw) = (b.clone(), c.clone());
    sim.process("s2").sensitive(b.changed()).method(move |_| cw.write(br.read() + 1));
    let cr = c.clone();
    let seen = Rc::new(Cell::new(0));
    let s = seen.clone();
    sim.process("sink").sensitive(c.changed()).method(move |_| s.set(cr.read()));
    a.write(10);
    sim.run_for(SimTime::ZERO);
    assert_eq!(seen.get(), 12);

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::CombLoop).is_empty(), "{}", report.to_text());
}

// --- sensitivity --------------------------------------------------------------

#[test]
fn incomplete_sensitivity_fires_on_missing_input() {
    let sim = Simulator::new();
    sim.probe_enable();
    let a = sim.signal::<u32>("a");
    let b = sim.signal::<u32>("b");
    let sum = sim.signal::<u32>("sum");
    let (ar, br, sw) = (a.clone(), b.clone(), sum.clone());
    // Classic bug: an adder sensitive to a only; b changes won't recompute.
    sim.process("adder").sensitive(a.changed()).method(move |_| sw.write(ar.read() + br.read()));
    let sr = sum.clone();
    sim.process("sink").sensitive(sum.changed()).no_init().method(move |_| {
        let _ = sr.read();
    });
    a.write(1);
    sim.run_for(SimTime::ZERO);

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::IncompleteSensitivity);
    assert_eq!(hits.len(), 1, "{}", report.to_text());
    assert_eq!(hits[0].severity, Severity::Warning);
    assert!(hits[0].message.contains("'adder'"), "{}", hits[0].message);
    assert!(hits[0].message.contains('b'), "names the missing input: {}", hits[0].message);
    assert!(!hits[0].subjects.contains(&"a".to_string()), "covered input not listed");
}

#[test]
fn incomplete_sensitivity_silent_when_covered_or_sequential() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let a = sim.signal::<u32>("a");
    let b = sim.signal::<u32>("b");
    let sum = sim.signal::<u32>("sum");
    let q = sim.signal::<u32>("q");
    // Complete combinational sensitivity: fine.
    let (ar, br, sw) = (a.clone(), b.clone(), sum.clone());
    sim.process("adder")
        .sensitive(a.changed())
        .sensitive(b.changed())
        .method(move |_| sw.write(ar.read() + br.read()));
    // Sequential process reading a data input on the clock edge: exempt.
    let (sr, qw) = (sum.clone(), q.clone());
    sim.process("reg").sensitive(clk.posedge()).no_init().method(move |_| qw.write(sr.read()));
    let qr = q.clone();
    sim.process("sink").sensitive(q.changed()).no_init().method(move |_| {
        let _ = qr.read();
    });
    a.write(3);
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::IncompleteSensitivity).is_empty(), "{}", report.to_text());
}

// --- dead ---------------------------------------------------------------------

#[test]
fn dead_elements_fire_on_unconsumed_unbound_and_idle() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let debug = sim.signal::<u32>("debug"); // written, never consumed
    let ghost = sim.signal::<u32>("ghost"); // read, never written
    let dw = debug.clone();
    let gr = ghost.clone();
    sim.process("worker").sensitive(clk.posedge()).no_init().method(move |_| {
        dw.write(gr.read() + 1);
    });
    let never = sim.event("never");
    sim.process("idle").sensitive(never).no_init().method(|_| {});
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::DeadElement);
    let dead_write =
        hits.iter().find(|f| f.subjects == ["debug"]).expect("written-never-read must fire");
    assert_eq!(dead_write.severity, Severity::Warning);
    assert!(dead_write.message.contains("never read"), "{}", dead_write.message);
    let unbound = hits.iter().find(|f| f.subjects == ["ghost"]).expect("read-never-written");
    assert_eq!(unbound.severity, Severity::Info);
    let idle = hits.iter().find(|f| f.subjects == ["idle"]).expect("never-activated process");
    assert_eq!(idle.severity, Severity::Warning);
    assert!(idle.message.contains("never activated"), "{}", idle.message);
}

#[test]
fn dead_elements_silent_on_fully_wired_design() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let q = sim.signal::<u32>("q");
    let qw = q.clone();
    sim.process("count").sensitive(clk.posedge()).no_init().method(move |_| {
        qw.write(qw.read() + 1);
    });
    let qr = q.clone();
    let acc = Rc::new(Cell::new(0u32));
    let a = acc.clone();
    sim.process("watch").sensitive(q.changed()).no_init().method(move |_| a.set(qr.read()));
    sim.run_for(SimTime::from_ns(100));
    assert!(acc.get() > 0);

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::DeadElement).is_empty(), "{}", report.to_text());
    assert!(report.is_clean());
}

/// The clock is driven by the kernel, not by a process, so its signal has
/// no observed writer; a process reading the clock level must still not
/// make it look unbound.
#[test]
fn dead_elements_count_a_kernel_clock_as_written() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let level = clk.signal().clone();
    let highs = Rc::new(Cell::new(0u32));
    let h = highs.clone();
    sim.process("sampler").sensitive(clk.signal().changed()).no_init().method(move |_| {
        h.set(h.get() + u32::from(level.read()));
    });
    sim.run_for(SimTime::from_ns(50));
    assert!(highs.get() > 0);

    let g = sim.design_graph();
    let clk_node = g.signals.iter().find(|s| s.name == "clk").expect("clock signal");
    assert!(clk_node.writers.is_empty() && clk_node.kernel_driven);
    let report = analyze(&g);
    assert!(report.by_rule(Rule::DeadElement).is_empty(), "{}", report.to_text());
}

/// Buggy-looking fixture: after a module swap the parked and retired
/// personalities never activate again — which must read as `info`
/// ("swapped out"), not as the false-positive dead-process warning.
#[test]
fn swapped_out_personalities_downgrade_to_info() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let out = sim.signal::<u32>("region.out");
    let ow = out.clone();
    let old = sim.process("region.pers_a").sensitive(clk.posedge()).no_init().method(move |_| {
        ow.write(ow.read() + 1);
    });
    // A personality that was loaded but never scheduled before parking —
    // the worst case for a naive zero-activations check.
    let parked = sim.process("region.pers_b").sensitive(clk.posedge()).no_init().method(|_| {});
    sim.suspend(parked);
    sim.run_for(SimTime::from_ns(30));
    sim.kill(old);
    let ow2 = out.clone();
    sim.process("region.pers_c").sensitive(clk.posedge()).no_init().method(move |_| {
        ow2.write(ow2.read() + 2);
    });
    let or = out.clone();
    sim.process("sink").sensitive(out.changed()).no_init().method(move |_| {
        let _ = or.read();
    });
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::DeadElement);
    for name in ["region.pers_a", "region.pers_b"] {
        let f = hits
            .iter()
            .find(|f| f.subjects == [name])
            .unwrap_or_else(|| panic!("swapped-out '{name}' reported\n{}", report.to_text()));
        assert_eq!(f.severity, Severity::Info, "swapped out is informational: {}", f.message);
        assert!(f.message.contains("swapped out"), "{}", f.message);
    }
    assert!(report.is_clean(), "a swap is not a defect:\n{}", report.to_text());
    // The sensitivity detector must likewise skip swapped-out processes.
    assert!(report.by_rule(Rule::IncompleteSensitivity).is_empty(), "{}", report.to_text());
}

/// Clean counterpart: the same region with its live personality only —
/// no dead-element findings of any severity.
#[test]
fn live_personality_after_swap_stays_silent() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let out = sim.signal::<u32>("region.out");
    let ow = out.clone();
    sim.process("region.pers_c").sensitive(clk.posedge()).no_init().method(move |_| {
        ow.write(ow.read() + 2);
    });
    let or = out.clone();
    sim.process("sink").sensitive(out.changed()).no_init().method(move |_| {
        let _ = or.read();
    });
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::DeadElement).is_empty(), "{}", report.to_text());
    assert!(report.is_clean());
}

// --- dead: tier-bypassed components ------------------------------------------

/// Buggy-looking fixture: a bus slave whose traffic the unified access
/// layer serves at a faster tier. The process marks itself bypassed (as
/// `vanillanet`'s `attach_slave` does when a §5 suppression toggle takes
/// its region) and then idles — which must read as `info` with the
/// "bypassed by access tier" reason, not as a dead-process warning, and
/// the sensitivity detector must skip it.
#[test]
fn tier_bypassed_components_downgrade_to_info() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let sel = sim.signal::<u32>("bus.sel");
    let addr = sim.signal::<u32>("bus.addr");
    // The master keeps the rails moving every clock.
    let (sw, adw) = (sel.clone(), addr.clone());
    sim.process("master").sensitive(clk.posedge()).no_init().method(move |_| {
        sw.write(sw.read() + 1);
        adw.write(adw.read() + 4);
    });
    // A combinational decode that reads `addr` without being sensitive
    // to it — an IncompleteSensitivity warning on a live slave. It marks
    // itself bypassed (as `vanillanet`'s `attach_slave` does when a §5
    // suppression toggle takes its region), so both that warning and the
    // dead-process check must stand down to the Info note.
    let (sr, adr) = (sel.clone(), addr.clone());
    sim.process("slave.decode").sensitive(sel.changed()).no_init().method(move |ctx| {
        ctx.set_bypass_note(Some(
            "bypassed by access tier (the memory dispatcher owns this region)",
        ));
        let _ = sr.read();
        let _ = adr.read();
    });
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::DeadElement);
    let f = hits
        .iter()
        .find(|f| f.subjects == ["slave.decode"])
        .unwrap_or_else(|| panic!("bypassed process reported\n{}", report.to_text()));
    assert_eq!(f.severity, Severity::Info, "bypass is informational: {}", f.message);
    assert!(f.message.contains("bypassed by access tier"), "{}", f.message);
    assert!(report.is_clean(), "a tier bypass is not a defect:\n{}", report.to_text());
    assert!(report.by_rule(Rule::IncompleteSensitivity).is_empty(), "{}", report.to_text());
}

/// Clean counterpart: the same slave actively decoding (no bypass note)
/// gets no dead-element finding of any severity — and clearing the note
/// after a toggle flips back re-arms the ordinary detectors.
#[test]
fn active_slave_without_bypass_note_stays_silent() {
    let sim = Simulator::new();
    sim.probe_enable();
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let ack = sim.signal::<u32>("slave.ack");
    let aw = ack.clone();
    sim.process("slave.decode").sensitive(clk.posedge()).no_init().method(move |ctx| {
        ctx.set_bypass_note(None); // suppression off: normal decode duty
        aw.write(aw.read() + 1);
    });
    let ar = ack.clone();
    sim.process("master").sensitive(ack.changed()).no_init().method(move |_| {
        let _ = ar.read();
    });
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::DeadElement).is_empty(), "{}", report.to_text());
    assert!(report.is_clean());
}

// --- delta-livelock -----------------------------------------------------------

#[test]
fn delta_livelock_fires_and_names_oscillators() {
    let sim = Simulator::new();
    sim.probe_set_delta_limit(30);
    let ping = sim.signal::<bool>("ping");
    let pong = sim.signal::<bool>("pong");
    // Net inversion around the loop: a genuine ring oscillator.
    let (pi, po) = (ping.clone(), pong.clone());
    sim.process("inv").sensitive(ping.changed()).method(move |_| po.write(!pi.read()));
    let (qi, qo) = (pong.clone(), ping.clone());
    sim.process("buf").sensitive(pong.changed()).no_init().method(move |_| qo.write(qi.read()));
    assert_eq!(sim.run_for(SimTime::from_ns(10)), RunReason::Stopped);

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::DeltaLivelock);
    assert_eq!(hits.len(), 1, "{}", report.to_text());
    assert_eq!(hits[0].severity, Severity::Error);
    assert!(hits[0].message.contains("30 delta cycles"), "{}", hits[0].message);
    assert!(
        hits[0].subjects.iter().any(|s| s == "ping" || s == "pong"),
        "oscillating signals named: {:?}",
        hits[0].subjects
    );
    // The runaway loop is, of course, also a combinational loop.
    assert!(!report.by_rule(Rule::CombLoop).is_empty());
}

#[test]
fn delta_livelock_silent_on_settling_design() {
    let sim = Simulator::new();
    sim.probe_set_delta_limit(30);
    let clk: Clock<bool> = Clock::new(&sim, "clk", SimTime::from_ns(10));
    let q = sim.signal::<u32>("q");
    let qw = q.clone();
    sim.process("count").sensitive(clk.posedge()).no_init().method(move |_| {
        qw.write(qw.read() + 1);
    });
    let qr = q.clone();
    sim.process("watch").sensitive(q.changed()).no_init().method(move |_| {
        let _ = qr.read();
    });
    assert_eq!(sim.run_for(SimTime::from_ns(500)), RunReason::TimeReached);

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::DeltaLivelock).is_empty(), "{}", report.to_text());
    assert!(report.is_clean());
}

// --- restored-spawn -----------------------------------------------------------

#[test]
fn restored_spawn_reports_replayed_processes_as_advisory() {
    // A checkpoint restore replays the reconfigurable region's late-spawn
    // log into a freshly elaborated kernel and marks every spawned
    // process; this fixture performs the marking directly, as
    // `ReconfigRegion::replay_spawns` does.
    let sim = Simulator::new();
    sim.probe_enable();
    let never = sim.event("never");
    let pid = sim.process("region.timer_lite.count").sensitive(never).no_init().method(|_| {});
    sim.mark_restored_spawn(pid);
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    let hits = report.by_rule(Rule::RestoredSpawn);
    assert_eq!(hits.len(), 1, "{}", report.to_text());
    assert_eq!(hits[0].severity, Severity::Info, "advisory, like a swapped-out personality");
    assert!(hits[0].message.contains("checkpoint restore"), "{}", hits[0].message);
    assert_eq!(hits[0].subjects, ["region.timer_lite.count"]);
    // Its zeroed activation history is a restore artefact, not dead
    // weight: the never-activated warning must NOT also fire.
    assert!(
        !report
            .by_rule(Rule::DeadElement)
            .iter()
            .any(|f| f.subjects == ["region.timer_lite.count"]),
        "{}",
        report.to_text()
    );
    assert!(report.is_clean());
}

#[test]
fn restored_spawn_silent_on_ordinary_processes() {
    // The same design without the restore marking: SC009 stays silent and
    // the idle process is reported as never-activated, as usual.
    let sim = Simulator::new();
    sim.probe_enable();
    let never = sim.event("never");
    sim.process("region.timer_lite.count").sensitive(never).no_init().method(|_| {});
    sim.run_for(SimTime::from_ns(50));

    let report = analyze(&sim.design_graph());
    assert!(report.by_rule(Rule::RestoredSpawn).is_empty(), "{}", report.to_text());
    assert!(
        report
            .by_rule(Rule::DeadElement)
            .iter()
            .any(|f| f.subjects == ["region.timer_lite.count"]
                && f.message.contains("never activated")),
        "{}",
        report.to_text()
    );
}
