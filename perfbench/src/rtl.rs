//! `rtl_countdown`: the RTL-row countdown programme on `RtlSystem`, run
//! in fixed cycle slices. The seed picks the programme's data operands;
//! the instruction sequence, and so its timing, never changes. After
//! every slice the RTL registers and the stored word are checked
//! against the functional ISS stepped to the same retired count.

use crate::golden::{RTL_FIRST_SLICE_RETIRED, RTL_RETIRED_PER_SLICE};
use crate::reference::Timing;
use crate::trace::Tracer;
use crate::{probe_split, Bench, Counts, OpStats, Segment, SplitMix64};
use microblaze::isa::Size;
use microblaze::{Bus, Cpu, FlatRam};
use rtlsim::RtlSystem;
use std::time::Instant;

/// Simulated cycles per op: one 61-cycle loop iteration, so every
/// slice ends at the same point of the loop, and a slice is short
/// enough (some 50 host ms) that a run repeats it hundreds of times.
pub const SLICE_CYCLES: u64 = 61;
/// Registers the programme computes with.
const CHECKED_REGS: [usize; 6] = [3, 4, 5, 6, 7, 8];

/// The countdown programme with the seed's operands: a countdown start
/// far above what any run reaches, a counter start, a step, an XOR key
/// and the scratch word's address.
pub fn programme(seed: u64) -> (String, u32) {
    let mut rng = SplitMix64(seed);
    let countdown = 0x0100_0000 | (rng.next() as u32 & 0x3FFF_FFFF);
    let counter = rng.next() as u32;
    let key = rng.next() as u32;
    let step = 1 + (rng.next() % 255) as u32;
    let addr = 0x1000 + ((rng.next() as u32 % 0x1C00) << 2);
    let li = |reg: &str, v: u32| {
        format!("        imm   {}\n        addik {reg}, r0, {}\n", v >> 16, v as u16 as i16)
    };
    let src = format!(
        "_start:\n{}{}{}\
loop:   addik r4, r4, {step}
        add   r5, r4, r3
        xor   r6, r5, r8
        swi   r6, r0, {addr}
        lwi   r7, r0, {addr}
        addik r3, r3, -1
        bnei  r3, loop
halt:   bri   halt
",
        li("r3", countdown),
        li("r4", counter),
        li("r8", key),
    );
    (src, addr)
}

/// The RTL benchmark state: the RTL system and its ISS reference.
#[derive(Debug)]
pub struct RtlBench {
    sys: RtlSystem,
    iss: Cpu,
    ram: FlatRam,
    addr: u32,
    slices: u64,
    /// Pinned retired counts: (first slice, every later slice).
    retired: (u64, u64),
}

/// Setup result: the bench, assembly seconds and build seconds.
pub type RtlSetup = (RtlBench, f64, f64);

impl RtlBench {
    /// Assembles the seed's programme and builds the RTL system and the
    /// ISS reference.
    pub fn setup(seed: u64) -> RtlSetup {
        let t = Instant::now();
        let (src, addr) = programme(seed);
        let img = microblaze::asm::assemble(&src).expect("countdown programme assembles");
        let assemble = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sys = RtlSystem::new();
        sys.load_image(&img);
        let build = t.elapsed().as_secs_f64();
        let mut ram = FlatRam::new(0x1_0000);
        for (a, bytes) in &img.chunks {
            let a = *a as usize;
            ram.bytes_mut()[a..a + bytes.len()].copy_from_slice(bytes);
        }
        let bench = RtlBench {
            sys,
            iss: Cpu::new(0),
            ram,
            addr,
            slices: 0,
            retired: (RTL_FIRST_SLICE_RETIRED, RTL_RETIRED_PER_SLICE),
        };
        (bench, assemble, build)
    }

    /// Steps the ISS to `retired` instructions and compares state.
    fn matches_iss(&mut self, retired: u64) -> bool {
        while self.iss.retired_count() < retired {
            if self.iss.step(&mut self.ram).is_err() {
                return false;
            }
        }
        CHECKED_REGS.iter().all(|&r| self.sys.peek_reg(r) == self.iss.reg(r))
            && self.ram.read(self.addr, Size::Word).ok() == Some(self.sys.peek_word(self.addr))
    }
}

impl Bench for RtlBench {
    fn op(&mut self, k: u64, tr: &mut Tracer, probe: bool) -> OpStats {
        let mut st = OpStats::default();
        // The probe counts activations only while enabled; `probe_pass`
        // reads the totals once (a design-graph snapshot of 14k
        // processes is far too slow to take per op).
        if probe {
            self.sys.sim().probe_enable();
        }
        let s0 = self.sys.sim().stats();
        let r0 = self.sys.retired();
        let span = tr.begin("RtlSystem::run_cycles", k, self.slices);
        self.sys.run_cycles(SLICE_CYCLES);
        let time = Timing::after(tr.end(span));
        self.sys.sim().probe_disable();
        self.slices += 1;
        let s1 = self.sys.sim().stats();
        let retired = self.sys.retired() - r0;
        // Every slice but the first runs the same loop iteration.
        let key = u64::from(self.slices > 1);
        st.segments.push(Segment { key, cycles: SLICE_CYCLES, insns: retired, time });
        st.counts = Counts {
            cycles: SLICE_CYCLES,
            activations: s1.activations - s0.activations,
            deltas: s1.deltas - s0.deltas,
            updates: s1.updates - s0.updates,
            timed_steps: s1.timed_steps - s0.timed_steps,
            rtl_retired: retired,
            ..Counts::default()
        };
        let total = self.sys.retired();
        st.ok = self.sys.cycles() == self.slices * SLICE_CYCLES
            && !self.sys.halted()
            && total == self.retired.0 + (self.slices - 1) * self.retired.1
            && self.matches_iss(total);
        st
    }

    fn corrupt_golden(&mut self) {
        self.retired.0 += 1;
        self.retired.1 += 1;
    }

    fn probe_pass(&mut self, _tr: &mut Tracer) -> Counts {
        probe_split(self.sys.sim())
    }
}
