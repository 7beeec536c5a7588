//! The schedule-perturbation oracle (DESIGN.md §13): a race-free model
//! must compute the same thing no matter how the kernel orders the
//! processes that are runnable in one delta cycle.
//!
//! The kernel's [`ScheduleOrder`] knob perturbs the runnable-queue pop
//! order *within* each evaluation phase (Fifo — the pinned default —,
//! Lifo, and seeded Fisher–Yates shuffles). This suite boots the full
//! uClinux workload and runs the reconfiguration end-to-end under every
//! order and asserts bit-identical results: boot cycle counts, retired
//! instructions, the final [`ArchSnapshot`], and byte-identical VCD
//! traces. A failure here means two same-phase processes share state in
//! an order-dependent way — exactly what `mb-lint --races` exists to
//! localise.
//!
//! Set `MB_SCHED_QUICK=1` (ci.sh does) to check two orders instead of
//! four, halving the wall-clock cost.

use campaign::fnv1a;
use reconfig::personality::crc_regs;
use std::sync::atomic::{AtomicUsize, Ordering};
use sysc::{Native, Next, ScheduleOrder, SimTime, Simulator};
use vanillanet::{ArchSnapshot, ModelConfig, Platform};
use workload::{Boot, BootParams, DONE_MARKER, PANIC_MARKER};

const BUDGET: u64 = 12_000_000;
/// Cycles for the traced comparison runs: enough to cover reset,
/// decompression and the first phase marker without a multi-MB VCD.
const TRACE_CYCLES: u64 = 20_000;

/// The perturbations under test. The issue's contract asks for at least
/// three runnable-queue orders; quick mode keeps the two cheapest that
/// still bracket the perturbation space (identity and full reversal).
fn orders() -> Vec<ScheduleOrder> {
    if std::env::var_os("MB_SCHED_QUICK").is_some() {
        vec![ScheduleOrder::Fifo, ScheduleOrder::Lifo]
    } else {
        vec![
            ScheduleOrder::Fifo,
            ScheduleOrder::Lifo,
            ScheduleOrder::SeededShuffle(0xC0FFEE),
            ScheduleOrder::SeededShuffle(7),
        ]
    }
}

/// Everything a boot under one schedule order leaves behind.
#[derive(Debug, Clone, PartialEq)]
struct OrderDigest {
    boot_cycles: u64,
    instructions: u64,
    snapshot: ArchSnapshot,
    vcd_len: usize,
    vcd_hash: u64,
}

fn boot_under(order: ScheduleOrder, boot: &Boot) -> OrderDigest {
    // Full untraced boot: cycles, instructions, architectural state.
    let config = ModelConfig { schedule_order: order, ..ModelConfig::default() };
    let p = Platform::<Native>::build(&config).expect("platform build");
    p.load_image(&boot.image);
    assert!(p.run_until_gpio(DONE_MARKER, BUDGET), "{order}: boot must complete");
    let (boot_cycles, instructions, snapshot) = (p.cycles(), p.instructions(), p.snapshot());

    // Short traced run: the VCD pins every signal transition, so a
    // byte-identical file is the strongest schedule-independence witness.
    let dir = std::env::temp_dir().join("mbsim_sched_independence");
    std::fs::create_dir_all(&dir).unwrap();
    // Tests run on parallel threads and two of them trace the FIFO order:
    // a per-call file name keeps one from reading or deleting the other's.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!("sched_{}_{call}_{order}.vcd", std::process::id()));
    let config = ModelConfig {
        schedule_order: order,
        trace_path: Some(path.clone()),
        ..ModelConfig::default()
    };
    let p = Platform::<Native>::build(&config).expect("platform build");
    p.load_image(&boot.image);
    p.run_cycles(TRACE_CYCLES);
    p.sim().flush_trace().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(bytes.len() > 1_000, "{order}: the traced run must produce a real VCD");

    OrderDigest {
        boot_cycles,
        instructions,
        snapshot,
        vcd_len: bytes.len(),
        vcd_hash: fnv1a(&bytes),
    }
}

/// The golden NativeData boot row (tests/determinism.rs) under an
/// *explicitly requested* FIFO order: the default pop order is part of
/// the determinism contract, so spelling it out must reproduce the
/// pinned digests bit-for-bit.
#[test]
fn explicit_fifo_reproduces_golden_boot_digests() {
    let boot = Boot::build(BootParams { scale: 1, reconfig: false });
    let d = boot_under(ScheduleOrder::Fifo, &boot);
    assert_eq!(d.boot_cycles, 743_288, "FIFO boot cycle count drifted from golden");
    assert_eq!(d.instructions, 109_004, "FIFO retired instructions drifted from golden");
    assert_eq!(
        fnv1a(format!("{:?}", d.snapshot).as_bytes()),
        0x83b7aff6c97892d5,
        "FIFO architectural snapshot drifted from golden"
    );
}

#[test]
fn boot_is_schedule_independent() {
    let boot = Boot::build(BootParams { scale: 1, reconfig: false });
    let orders = orders();
    let golden = boot_under(orders[0], &boot);
    for &order in &orders[1..] {
        let d = boot_under(order, &boot);
        assert_eq!(d.boot_cycles, golden.boot_cycles, "{order}: boot cycle count diverged");
        assert_eq!(d.instructions, golden.instructions, "{order}: retired instructions diverged");
        assert_eq!(d.snapshot, golden.snapshot, "{order}: architectural state diverged");
        assert_eq!(
            (d.vcd_len, d.vcd_hash),
            (golden.vcd_len, golden.vcd_hash),
            "{order}: VCD bytes diverged"
        );
    }
}

#[test]
fn reconfig_e2e_is_schedule_independent() {
    let boot = Boot::build(BootParams { scale: 1, reconfig: true });
    let run = |order: ScheduleOrder| {
        let config =
            ModelConfig { reconfig: true, schedule_order: order, ..ModelConfig::default() };
        let p = Platform::<Native>::build(&config).expect("platform build");
        p.load_image(&boot.image);
        assert!(p.run_until_gpio(DONE_MARKER, BUDGET), "{order}: reconfig boot must complete");
        assert!(
            !p.gpio_writes().iter().any(|(_, v)| *v == PANIC_MARKER),
            "{order}: guest panicked"
        );
        p.run_cycles(300); // drain the console
        let crc = p.reconf_region().expect("reconfig platform").borrow_mut().access(
            crc_regs::RESULT,
            true,
            0,
        );
        (p.cycles(), p.snapshot(), crc)
    };
    let orders = orders();
    let golden = run(orders[0]);
    assert_ne!(golden.2, 0, "the CRC engine saw no data");
    for &order in &orders[1..] {
        assert_eq!(run(order), golden, "{order}: reconfig e2e diverged");
    }
}

/// The counter-fixture: a deliberately racy two-process design must be
/// *visible* to the harness — otherwise a passing oracle proves nothing.
/// Two same-phase processes do a read-modify-write and a blind write to
/// one plain shared cell; FIFO and LIFO must disagree on the result, and
/// the dynamic race detector must flag the pair.
#[test]
fn racy_fixture_diverges_and_is_flagged() {
    let run = |order: ScheduleOrder, detect: bool| {
        let sim = Simulator::new();
        sim.set_schedule_order(order);
        if detect {
            sim.race_detect_enable();
        }
        let cell = sim.traced("racy.counter", 0u32);
        let c = cell.clone();
        sim.process("doubler").thread(move |_| {
            let v = *c.borrow();
            *c.borrow_mut() = v * 2;
            Next::Done
        });
        let c = cell.clone();
        sim.process("incrementer").thread(move |_| {
            *c.borrow_mut() += 3;
            Next::Done
        });
        sim.run_for(SimTime::ZERO);
        let races = sim.design_graph().sched_races.len();
        let value = *cell.borrow();
        (value, races)
    };
    let (fifo, _) = run(ScheduleOrder::Fifo, false);
    let (lifo, _) = run(ScheduleOrder::Lifo, false);
    assert_eq!(fifo, 3, "FIFO: doubler first (0*2), then +3");
    assert_eq!(lifo, 6, "LIFO: incrementer first (0+3), then *2");
    assert_ne!(fifo, lifo, "the fixture must actually diverge under perturbation");

    let (_, races) = run(ScheduleOrder::Fifo, true);
    assert!(races > 0, "the dynamic race detector must flag the divergent fixture");
}
