//! Oracle 1: ISS vs RTL datapath lockstep.
//!
//! Generates random-but-valid MicroBlaze programs over the RTL subset
//! (ADD/RSUB families, logic, barrel shifts, `IMM`, word loads/stores,
//! branches with and without delay slots), runs them to a
//! branch-to-self halt through both the interpreting ISS
//! ([`microblaze::Cpu`]) and the bit-level multicycle RTL datapath
//! ([`rtlsim::RtlSystem`]), and diffs the two models retirement by
//! retirement:
//!
//! * same retirement stream — `(pc, raw)` per retired instruction;
//! * same architectural register file after every retirement (the RTL
//!   write port lands one clock after WriteBack, which the harness
//!   accounts for);
//! * same final data memory;
//! * RTL cycle spacing per retirement matches the per-class timing
//!   table ([`expected_cycles`]) — the RTL FSM's cycle counts are part
//!   of the contract, not just its results.
//!
//! MSR is *not* diffed directly: the RTL datapath keeps carry as
//! internal FSM state with no architectural readout. Carry correctness
//! is still covered — `ADDC`/`RSUBC` results feed the register diff.
//!
//! # Generator validity constraints
//!
//! The generator constrains programs so both models terminate and stay
//! inside the comparable subset: branches are forward-only (a delayed
//! branch's slot is filled with a register-form ALU instruction),
//! loads/stores are word-sized, `r0`-based, and aligned inside a data
//! window both memories cover, `IMM` prefixes are always immediately
//! followed by their immediate-form consumer, and `BRK`-decoding flag
//! combinations are never emitted. The final slot is always `bri 0`,
//! the RTL halt idiom.

use crate::rng::SplitMix64;
use crate::shrink;
use microblaze::isa::{self, decode, Op, Size};
use microblaze::{Cpu, CpuSnapshot, FlatRam, Retired};
use rtlsim::RtlSystem;

/// Body slots per generated program (the halt lives in one more slot).
pub const CODE_SLOTS: usize = 48;
/// Base of the load/store data window (inside both models' memories,
/// clear of the code).
pub const DATA_BASE: u32 = 0x4000;
/// Size of the data window, in words.
pub const DATA_WORDS: u32 = 256;
/// `addk r0, r0, r0`: a true NOP in both models (keeps carry). The
/// shrinker substitutes it for masked-out body slots.
pub const NOP: u32 = 0x1000_0000;
/// `bri 0`: the branch-to-self halt idiom both harnesses stop on.
pub const HALT: u32 = 0xB800_0000;
/// Both the ISS `FlatRam` and the RTL memory model 64 KiB.
const MEM_BYTES: usize = 0x1_0000;
/// ISS step budget: forward-only branches retire each slot at most
/// once, so anything past this is a generator bug, not a divergence.
const MAX_ISS_STEPS: usize = 4 * (CODE_SLOTS + 2);

/// Encodes `mnemonic` through the instruction table.
fn enc(mnemonic: &str, rd: u32, ra: u32, rb: u32, imm: u32) -> u32 {
    isa::row(mnemonic).expect("generator mnemonics are table rows").encode(rd, ra, rb, imm)
}

fn reg(rng: &mut SplitMix64) -> u32 {
    rng.below(32) as u32
}

/// The logic register forms (the PCMP ones are outside the RTL subset).
const LOGIC: [&str; 4] = ["or", "and", "xor", "andn"];

/// One of the eight ADD/RSUB register forms (`cmp`/`cmpu` are outside
/// the RTL subset).
fn arith_reg(rng: &mut SplitMix64) -> u32 {
    const M: [&str; 8] = ["add", "rsub", "addc", "rsubc", "addk", "rsubk", "addkc", "rsubkc"];
    enc(M[rng.below(8) as usize], reg(rng), reg(rng), reg(rng), 0)
}

/// One of the eight ADD/RSUB immediate forms.
fn arith_imm(rng: &mut SplitMix64) -> u32 {
    const M: [&str; 8] =
        ["addi", "rsubi", "addic", "rsubic", "addik", "rsubik", "addikc", "rsubikc"];
    enc(M[rng.below(8) as usize], reg(rng), reg(rng), 0, rng.next_u32())
}

/// OR/AND/XOR/ANDN, register or immediate form.
fn logic(rng: &mut SplitMix64) -> u32 {
    let k = rng.below(4) as usize;
    if rng.chance(1, 2) {
        enc(LOGIC[k], reg(rng), reg(rng), reg(rng), 0)
    } else {
        enc(["ori", "andi", "xori", "andni"][k], reg(rng), reg(rng), 0, rng.next_u32())
    }
}

/// Barrel shift right-logical, right-arithmetic or left, register or
/// immediate form.
fn barrel(rng: &mut SplitMix64) -> u32 {
    let k = rng.below(3) as usize;
    if rng.chance(1, 2) {
        enc(["bsrl", "bsra", "bsll"][k], reg(rng), reg(rng), reg(rng), 0)
    } else {
        enc(["bsrli", "bsrai", "bslli"][k], reg(rng), reg(rng), 0, rng.below(32) as u32)
    }
}

/// A word address inside the data window.
fn data_addr(rng: &mut SplitMix64) -> u32 {
    DATA_BASE + 4 * rng.below(u64::from(DATA_WORDS)) as u32
}

/// `lw rd, r0, imm` — word-sized, aligned, `r0`-based: never faults.
fn load(rng: &mut SplitMix64) -> u32 {
    enc("lwi", reg(rng), 0, 0, data_addr(rng))
}

/// `sw rd, r0, imm`.
fn store(rng: &mut SplitMix64) -> u32 {
    enc("swi", reg(rng), 0, 0, data_addr(rng))
}

/// Register-form ALU instruction for a delay slot (never a branch,
/// memory op or `IMM`, so slots cannot nest control flow).
fn filler(rng: &mut SplitMix64) -> u32 {
    if rng.chance(1, 2) {
        arith_reg(rng)
    } else {
        enc(LOGIC[rng.below(4) as usize], reg(rng), reg(rng), reg(rng), 0)
    }
}

/// The fuzzed program for `seed`: `CODE_SLOTS` body slots, then `HALT`.
/// Loaded at address 0 in both models.
pub fn gen_program(seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::new(seed);
    let n = CODE_SLOTS;
    let mut prog = vec![NOP; n + 1];
    prog[n] = HALT;
    let mut i = 0usize;
    while i < n {
        let roll = rng.below(100);
        if roll < 26 {
            prog[i] = if rng.chance(1, 2) { arith_reg(&mut rng) } else { arith_imm(&mut rng) };
            i += 1;
        } else if roll < 42 {
            prog[i] = logic(&mut rng);
            i += 1;
        } else if roll < 52 {
            prog[i] = barrel(&mut rng);
            i += 1;
        } else if roll < 60 && i + 1 < n {
            // IMM prefix, always paired with its immediate-form consumer.
            prog[i] = enc("imm", 0, 0, 0, rng.next_u32());
            prog[i + 1] = arith_imm(&mut rng);
            i += 2;
        } else if roll < 72 {
            prog[i] = load(&mut rng);
            i += 1;
        } else if roll < 84 {
            prog[i] = store(&mut rng);
            i += 1;
        } else {
            // Forward branch, conditional or not, delayed or not. The
            // target range keeps every branch strictly forward (a
            // delayed branch needs its slot at i+1, so targets start at
            // i+2); targets may be the halt slot itself.
            let delay = rng.chance(1, 2) && i + 2 <= n;
            let lo = i + if delay { 2 } else { 1 };
            let t = lo + rng.below((n - lo + 1) as u64) as usize;
            let off = 4 * (t - i) as u32;
            if rng.chance(1, 2) {
                const BCC: [[&str; 6]; 2] = [
                    ["beqi", "bnei", "blti", "blei", "bgti", "bgei"],
                    ["beqid", "bneid", "bltid", "bleid", "bgtid", "bgeid"],
                ];
                let m = BCC[usize::from(delay)][rng.below(6) as usize];
                prog[i] = enc(m, 0, reg(&mut rng), 0, off);
            } else {
                // Absolute + link without a delay slot decodes as BRK, so
                // that corner drops the link.
                let abs = rng.chance(1, 4);
                let wants_link = rng.chance(1, 3);
                let link = wants_link && (delay || !abs);
                let m = match (abs, link, delay) {
                    (false, false, false) => "bri",
                    (false, false, true) => "brid",
                    (true, false, false) => "brai",
                    (true, false, true) => "braid",
                    (false, true, false) => "brli",
                    (false, true, true) => "brlid",
                    (true, true, _) => "bralid",
                };
                let rd = if link { 1 + rng.below(31) as u32 } else { 0 };
                let imm = if abs { 4 * t as u32 } else { off };
                prog[i] = enc(m, rd, 0, 0, imm);
            }
            if delay {
                prog[i + 1] = filler(&mut rng);
                i += 2;
            } else {
                i += 1;
            }
        }
    }
    prog
}

/// Expected RTL clock cycles from one retirement to the next, by
/// instruction class. Calibrated against the FSM + one-wait-state
/// memory handshake and locked in as the timing half of the oracle:
/// fetch costs 4 cycles (request/busy/serve/ack-observe), decode and
/// execute one each, ALU ops add an ALU settle + writeback, memory ops
/// add the same data-side handshake.
pub fn expected_cycles(raw: u32) -> u64 {
    match decode(raw).op {
        Op::Arith { .. } | Op::Logic(_) => 8,
        Op::Load(_) | Op::Store(_) => 11,
        _ => 7,
    }
}

/// Expected cycles for the halt retirement (no writeback: the FSM
/// stops in Execute).
pub const HALT_CYCLES: u64 = 6;

/// The ISS half of a lockstep run.
struct IssRun {
    /// One entry per retirement: what retired plus the architectural
    /// state after it.
    trace: Vec<(Retired, CpuSnapshot)>,
    /// Final data-window contents.
    data: Vec<u32>,
}

/// Runs `prog` on the ISS to the halt address. `checkpoint_at`
/// round-trips the CPU and memory through the checkpoint layer after
/// that many retirements — the checkpoint-under-fuzz satellite's hook.
fn run_iss(prog: &[u32], checkpoint_at: Option<usize>) -> Result<IssRun, String> {
    let mut ram = FlatRam::new(MEM_BYTES);
    for (i, &w) in prog.iter().enumerate() {
        microblaze::be::write(ram.bytes_mut(), 4 * i, w, Size::Word);
    }
    let halt = 4 * (prog.len() - 1) as u32;
    let mut cpu = Cpu::new(0);
    let mut trace = Vec::new();
    while cpu.pc() != halt {
        if trace.len() >= MAX_ISS_STEPS {
            return Err(format!("iss: no halt within {MAX_ISS_STEPS} steps (generator bug)"));
        }
        let r = cpu.step(&mut ram).map_err(|f| format!("iss: fetch fault {f:?}"))?;
        if let Some(cause) = r.exception {
            return Err(format!("iss: exception {cause:#x} at pc {:#010x} (generator bug)", r.pc));
        }
        trace.push((r, cpu.snapshot()));
        if checkpoint_at == Some(trace.len()) {
            let mut w = checkpoint::Writer::new();
            cpu.ckpt_save(&mut w);
            w.bytes(ram.bytes());
            let blob = w.finish(0);
            let (_, payload) = checkpoint::read_header(&blob)
                .map_err(|e| format!("iss: checkpoint header rejected: {e}"))?;
            let mut r = checkpoint::Reader::new(payload);
            let mut restored = Cpu::new(0);
            restored
                .ckpt_load(&mut r)
                .map_err(|e| format!("iss: checkpoint restore failed: {e}"))?;
            let image = r.bytes().map_err(|e| format!("iss: checkpoint memory: {e}"))?;
            let mut fresh = FlatRam::new(MEM_BYTES);
            fresh.bytes_mut().copy_from_slice(image);
            cpu = restored;
            ram = fresh;
        }
    }
    let data = (0..DATA_WORDS)
        .map(|i| microblaze::be::read(ram.bytes(), (DATA_BASE + 4 * i) as usize, Size::Word))
        .collect();
    Ok(IssRun { trace, data })
}

/// The RTL half of a lockstep run.
struct RtlRun {
    trace: Vec<rtlsim::RtlRetire>,
    /// Register file after each retirement (sampled one clock after
    /// WriteBack, when the clocked write port has landed).
    regs: Vec<[u32; 32]>,
    cycles: Vec<u64>,
    sys: RtlSystem,
}

fn run_rtl(prog: &[u32]) -> Result<RtlRun, String> {
    let sys = RtlSystem::with_shadow_words(0);
    let mut bytes = Vec::with_capacity(prog.len() * 4);
    for &w in prog {
        bytes.extend_from_slice(&w.to_be_bytes());
    }
    let image = microblaze::asm::Image { chunks: vec![(0, bytes)], symbols: Default::default() };
    sys.load_image(&image);
    sys.set_retire_trace(true);

    let budget = 16 * (prog.len() as u64 + 4) + 64;
    let mut regs = Vec::new();
    let mut cycles = Vec::new();
    let mut seen = 0u64;
    while !sys.halted() {
        if sys.cycles() > budget {
            return Err(format!("rtl: no halt within {budget} cycles"));
        }
        sys.run_cycles(1);
        let r = sys.retired();
        if r > seen {
            if r != seen + 1 {
                return Err("rtl: two retirements in one clock".into());
            }
            seen = r;
            cycles.push(sys.cycles());
            // The register write port is clocked: the WriteBack value
            // lands at the *next* posedge. Consume it before sampling.
            sys.run_cycles(1);
            regs.push(std::array::from_fn(|i| sys.peek_reg(i)));
        }
    }
    Ok(RtlRun { trace: sys.take_retire_trace(), regs, cycles, sys })
}

/// Runs the full differential check for one generated program. `Ok` on
/// agreement; `Err` describes the first divergence.
fn diff(prog: &[u32], checkpoint_at: Option<usize>) -> Result<(), String> {
    let iss = run_iss(prog, checkpoint_at)?;
    let rtl = run_rtl(prog)?;
    let n = iss.trace.len();

    // The RTL retires the halt instruction itself; the ISS stops at its
    // address. So the RTL stream must be exactly one entry longer.
    if rtl.trace.len() != n + 1 {
        return Err(format!("retirement count: iss {} (+halt) vs rtl {}", n, rtl.trace.len()));
    }
    let halt_pc = 4 * (prog.len() - 1) as u32;
    let last = rtl.trace[n];
    if last.pc != halt_pc || last.raw != HALT {
        return Err(format!(
            "rtl final retirement is not the halt: pc {:#010x} raw {:#010x}",
            last.pc, last.raw
        ));
    }

    for i in 0..n {
        let (ref r, ref snap) = iss.trace[i];
        let t = rtl.trace[i];
        if (t.pc, t.raw) != (r.pc, r.raw) {
            return Err(format!(
                "retirement {i}: iss (pc {:#010x}, raw {:#010x}) vs rtl (pc {:#010x}, raw {:#010x})",
                r.pc, r.raw, t.pc, t.raw
            ));
        }
        for reg in 0..32 {
            let (a, b) = (snap.regs[reg], rtl.regs[i][reg]);
            if a != b {
                return Err(format!(
                    "retirement {i} (pc {:#010x}, raw {:#010x}): r{reg} iss {a:#010x} vs rtl {b:#010x}",
                    r.pc, r.raw
                ));
            }
        }
        if i > 0 {
            let delta = rtl.cycles[i] - rtl.cycles[i - 1];
            let want = expected_cycles(t.raw);
            if delta != want {
                return Err(format!(
                    "retirement {i} (pc {:#010x}, raw {:#010x}): {delta} cycles, timing table says {want}",
                    t.pc, t.raw
                ));
            }
        }
    }
    if n > 0 {
        let delta = rtl.cycles[n] - rtl.cycles[n - 1];
        if delta != HALT_CYCLES {
            return Err(format!(
                "halt retirement: {delta} cycles, timing table says {HALT_CYCLES}"
            ));
        }
    }

    let final_iss = iss.trace.last().map(|(_, s)| s.regs).unwrap_or([0; 32]);
    let final_rtl = rtl.regs.last().copied().unwrap_or([0; 32]);
    if final_iss != final_rtl {
        return Err("final register files differ".into());
    }
    for i in 0..DATA_WORDS {
        let addr = DATA_BASE + 4 * i;
        let rv = rtl.sys.peek_word(addr);
        if iss.data[i as usize] != rv {
            return Err(format!(
                "data word {addr:#010x}: iss {:#010x} vs rtl {rv:#010x}",
                iss.data[i as usize]
            ));
        }
    }
    Ok(())
}

/// Runs the lockstep oracle for one seed.
pub fn run_seed(seed: u64) -> Result<(), String> {
    diff(&gen_program(seed), None)
}

/// Runs the differential check on an explicit program (last word must
/// be the halt). Lets tests prove the oracle *detects*: a program
/// using an op outside the RTL subset (which the RTL retires as a NOP)
/// must come back as a divergence.
pub fn check_program(prog: &[u32]) -> Result<(), String> {
    diff(prog, None)
}

/// Runs the lockstep oracle with the ISS side checkpoint-restored after
/// `split` retirements. The verdict must be identical to
/// [`run_seed`] — a checkpoint round-trip is architecturally invisible.
pub fn run_seed_with_iss_checkpoint(seed: u64, split: usize) -> Result<(), String> {
    diff(&gen_program(seed), Some(split))
}

/// Applies a shrink mask to a generated program: masked-out body slots
/// become [`NOP`]; the halt slot is pinned.
pub fn apply_mask(prog: &[u32], mask: &[bool]) -> Vec<u32> {
    let mut out = prog.to_vec();
    for (slot, &keep) in mask.iter().enumerate() {
        if !keep {
            out[slot] = NOP;
        }
    }
    out
}

/// Shrinks a failing seed: returns the minimized program and the diff
/// detail it still produces, or `None` if the seed does not fail.
pub fn shrink_seed(seed: u64) -> Option<(Vec<u32>, String)> {
    let prog = gen_program(seed);
    crate::caught(|| diff(&prog, None)).err()?;
    let mask = shrink::shrink_mask(CODE_SLOTS, |mask| {
        crate::caught(|| diff(&apply_mask(&prog, mask), None)).is_err()
    });
    let minimal = apply_mask(&prog, &mask);
    let detail = match crate::caught(|| diff(&minimal, None)) {
        Err(d) => d,
        Ok(()) => return None,
    };
    Some((minimal, detail))
}
