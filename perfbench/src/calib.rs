//! Unit-cost calibration loops, written against the layers' public APIs
//! only. Each cost is the median of [`REPS`] repetitions, like the
//! workload timings it is reconciled with; the kernel costs are
//! marginal: the same design with and without `M` extra processes,
//! divided by the extra work.

use crate::median;
use microblaze::isa::Size;
use microblaze::{Cpu, FlatRam};
use std::hint::black_box;
use std::time::Instant;
use sysc::{Clock, Next, SimTime, Simulator};
use vanillanet::{map, AccessPath, Counters, DmiTable, MemStore, Routed, Toggles};

/// Repetitions per calibration loop.
const REPS: usize = 5;
/// Extra processes in the marginal-cost designs: enough that their
/// cost dwarfs the bare clock's, so the differences resolve.
const M: usize = 64;
const PERIOD: SimTime = SimTime::from_ns(10);

/// Measured unit costs, in host nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCosts {
    /// One cycle of a bare `Clock` with no other process.
    pub clock_ns: f64,
    /// One activation of a clocked method.
    pub method_ns: f64,
    /// One activation of a clocked thread.
    pub thread_ns: f64,
    /// One committed signal update (write + commit).
    pub update_ns: f64,
    /// One delta cycle beyond the first of a time step.
    pub delta_ns: f64,
    /// One timed step (queue pop, time advance, its first delta),
    /// without the activation it wakes.
    pub timed_step_ns: f64,
    /// One `Cpu::step` on `FlatRam`.
    pub iss_ns_per_insn: f64,
    /// One DMI-hit data load through `AccessPath`.
    pub dmi_hit_ns: f64,
}

/// What to hang off the clock in a kernel calibration design.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Extra {
    None,
    Methods,
    Threads,
    WritingMethods,
    DeltaChain,
}

/// Host ns per simulated cycle of a clocked design with `extra`.
fn clocked_ns_per_cycle(extra: Extra, cycles: u64) -> f64 {
    let sim = Simulator::new();
    let clk: Clock<bool> = Clock::new(&sim, "clk", PERIOD);
    let pos = clk.posedge();
    match extra {
        Extra::None => {}
        Extra::Methods => {
            for i in 0..M {
                sim.process(format!("m{i}")).sensitive(pos).no_init().method(|_| {});
            }
        }
        Extra::Threads => {
            for i in 0..M {
                sim.process(format!("t{i}")).sensitive(pos).no_init().thread(|_| Next::Static);
            }
        }
        Extra::WritingMethods | Extra::DeltaChain => {
            // WritingMethods: M+1 methods at the rising edge, each
            // writing its own signal. DeltaChain: the same processes and
            // writes, but each after the first wakes on its predecessor's
            // signal, so the time step runs M more delta cycles.
            let sigs: Vec<_> = (0..=M).map(|i| sim.signal::<u32>(&format!("s{i}"))).collect();
            for i in 0..=M {
                let trigger =
                    if extra == Extra::DeltaChain && i > 0 { sigs[i - 1].changed() } else { pos };
                let s = sigs[i].clone();
                sim.process(format!("w{i}"))
                    .sensitive(trigger)
                    .no_init()
                    .method(move |_| s.write(s.read().wrapping_add(1)));
            }
        }
    }
    let t = Instant::now();
    sim.run_for(PERIOD * cycles);
    t.elapsed().as_nanos() as f64 / cycles as f64
}

/// Host ns per wake of a lone thread that re-arms a timed wait.
fn timed_wake_ns(wakes: u64) -> f64 {
    let sim = Simulator::new();
    sim.process("timer").thread(|_| Next::In(PERIOD));
    let t = Instant::now();
    sim.run_for(PERIOD * wakes);
    t.elapsed().as_nanos() as f64 / wakes as f64
}

/// A loop with the boot's instruction classes: ALU, immediate, store,
/// load and a taken branch.
const ISS_LOOP: &str = r#"
_start: addik r3, r0, 0x7FFF
loop:   addik r4, r4, 3
        add   r5, r4, r3
        xor   r6, r5, r4
        swi   r6, r0, 0x1000
        lwi   r7, r0, 0x1000
        addik r3, r3, -1
        bnei  r3, loop
        addik r3, r0, 0x7FFF
        bri   loop
"#;

/// Host ns per `Cpu::step` on `FlatRam`.
fn iss_ns_per_insn(insns: u64) -> f64 {
    let img = microblaze::asm::assemble(ISS_LOOP).expect("calibration loop assembles");
    let mut ram = FlatRam::new(0x1_0000);
    for (addr, bytes) in &img.chunks {
        let a = *addr as usize;
        ram.bytes_mut()[a..a + bytes.len()].copy_from_slice(bytes);
    }
    let mut cpu = Cpu::new(0);
    let t = Instant::now();
    for _ in 0..insns {
        black_box(cpu.step(&mut ram).expect("the loop never faults"));
    }
    t.elapsed().as_nanos() as f64 / insns as f64
}

/// Host ns per DMI-hit word load from SDRAM through `AccessPath`.
fn dmi_hit_ns(loads: u64) -> f64 {
    let toggles = Toggles::new();
    toggles.suppress_ifetch.set(true);
    toggles.suppress_main_mem.set(true);
    toggles.dmi.set(true);
    let counters = Counters::new();
    let access =
        AccessPath::new(MemStore::new_shared(), toggles, counters.clone(), DmiTable::new());
    // The first load misses and earns the grant; time only hits.
    black_box(access.load(map::SDRAM.base, Size::Word));
    let hits0 = counters.dmi_hits.get();
    let t = Instant::now();
    for i in 0..loads {
        let addr = map::SDRAM.base + ((i as u32).wrapping_mul(4) & 0xF_FFFC);
        let r = access.load(black_box(addr), Size::Word);
        debug_assert!(matches!(r, Routed::Done { .. }));
        black_box(r);
    }
    let ns = t.elapsed().as_nanos() as f64 / loads as f64;
    assert_eq!(counters.dmi_hits.get() - hits0, loads, "every timed load must be a DMI hit");
    ns
}

/// One repetition of every loop, with the marginal costs derived from
/// loops run back to back, so host-speed drift between repetitions
/// cancels out of the differences.
fn one_rep(cycles: u64, insns: u64) -> UnitCosts {
    let clock = clocked_ns_per_cycle(Extra::None, cycles);
    let methods = clocked_ns_per_cycle(Extra::Methods, cycles);
    let threads = clocked_ns_per_cycle(Extra::Threads, cycles);
    let writing = clocked_ns_per_cycle(Extra::WritingMethods, cycles);
    let chain = clocked_ns_per_cycle(Extra::DeltaChain, cycles);
    let method_ns = (methods - clock) / M as f64;
    let thread_ns = (threads - clock) / M as f64;
    UnitCosts {
        clock_ns: clock,
        method_ns,
        thread_ns,
        // WritingMethods has M+1 writing methods; Methods has M silent
        // ones: the difference is one method plus M+1 updates.
        update_ns: (writing - methods - method_ns) / (M + 1) as f64,
        delta_ns: (chain - writing) / M as f64,
        timed_step_ns: timed_wake_ns(cycles) - thread_ns,
        iss_ns_per_insn: iss_ns_per_insn(insns),
        dmi_hit_ns: dmi_hit_ns(insns),
    }
}

/// Runs every calibration loop [`REPS`] times and keeps each cost's
/// median. `size` scales the work per loop (1.0 is the benchmark's
/// size; the self-test uses less).
pub fn run(size: f64) -> UnitCosts {
    let n = |base: f64| ((base * size) as u64).max(100);
    let reps: Vec<UnitCosts> = (0..REPS).map(|_| one_rep(n(10_000.0), n(1_000_000.0))).collect();
    let med = |f: fn(&UnitCosts) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    UnitCosts {
        clock_ns: med(|u| u.clock_ns),
        method_ns: med(|u| u.method_ns),
        thread_ns: med(|u| u.thread_ns),
        update_ns: med(|u| u.update_ns),
        delta_ns: med(|u| u.delta_ns),
        timed_step_ns: med(|u| u.timed_step_ns),
        iss_ns_per_insn: med(|u| u.iss_ns_per_insn),
        dmi_hit_ns: med(|u| u.dmi_hit_ns),
    }
}
