//! Property tests of the ISS's arithmetic core against scalar host
//! oracles: multi-word carry/borrow chains, barrel shifts vs the host's
//! `>>`/`<<`, IMM-prefix immediate composition, and the `idiv` corner
//! cases (division by zero, `i32::MIN / -1`). Table-wide properties
//! check every [`isa::TABLE`] row through the decoder, the
//! disassembler and the assembler.
//!
//! Each case assembles a tiny program, loads it into a [`FlatRam`] and
//! drives [`Cpu::step`] — the same split-phase engine the platform
//! wraps — so the properties cover decode, operand selection and
//! writeback, not just the ALU expression.

use microblaze::asm::assemble;
use microblaze::disasm::disassemble;
use microblaze::isa::{self, decode, esr, msr, vectors, Opnd, Row, SREG_NAMES, TABLE};
use microblaze::{Cpu, FlatRam};
use proptest::prelude::*;

const BASE: u32 = 0x100;

/// Assembles `src` at [`BASE`], seeds registers, and steps one
/// instruction per assembled word. Returns the CPU for inspection.
fn exec(src: &str, seed: &[(usize, u32)]) -> Cpu {
    let img = assemble(&format!(".org {BASE:#x}\n{src}\n")).expect("test program assembles");
    let words = img.size() / 4;
    let flat = img.flatten(0, 0x1000);
    let mut ram = FlatRam::with_image(0x1000, &flat);
    let mut cpu = Cpu::new(BASE);
    for &(r, v) in seed {
        cpu.set_reg(r, v);
    }
    for _ in 0..words {
        cpu.step(&mut ram).expect("program stays inside the RAM");
    }
    cpu
}

fn carry(cpu: &Cpu) -> bool {
    cpu.msr() & msr::C != 0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn add_addc_chain_is_64_bit_addition(a: u64, b: u64) {
        // r4:r3 = r6:r5 + r8:r7, low lane first, carry rippling through
        // addc — the canonical multi-precision idiom.
        let cpu = exec(
            "add  r3, r5, r7\n\
             addc r4, r6, r8",
            &[
                (5, a as u32), (6, (a >> 32) as u32),
                (7, b as u32), (8, (b >> 32) as u32),
            ],
        );
        let sum = a.wrapping_add(b);
        prop_assert_eq!(cpu.reg(3), sum as u32, "low lane of {:#x} + {:#x}", a, b);
        prop_assert_eq!(cpu.reg(4), (sum >> 32) as u32, "high lane of {:#x} + {:#x}", a, b);
        prop_assert_eq!(carry(&cpu), a.checked_add(b).is_none(), "carry out of the 64-bit sum");
    }

    #[test]
    fn rsub_rsubc_chain_is_64_bit_subtraction(a: u64, b: u64) {
        // rsub computes rB - rA (the subtrahend is operand A); the chain
        // computes r4:r3 = b - a with the borrow carried in MSR[C]
        // (which MicroBlaze keeps as NOT-borrow).
        let cpu = exec(
            "rsub  r3, r5, r7\n\
             rsubc r4, r6, r8",
            &[
                (5, a as u32), (6, (a >> 32) as u32),
                (7, b as u32), (8, (b >> 32) as u32),
            ],
        );
        let diff = b.wrapping_sub(a);
        prop_assert_eq!(cpu.reg(3), diff as u32, "low lane of {:#x} - {:#x}", b, a);
        prop_assert_eq!(cpu.reg(4), (diff >> 32) as u32, "high lane of {:#x} - {:#x}", b, a);
        prop_assert_eq!(carry(&cpu), b >= a, "MSR[C] is NOT-borrow after a subtract chain");
    }

    #[test]
    fn barrel_shifts_match_host_semantics(v: u32, amount in 0u32..64) {
        // Register-form shifts use only the low five bits of the amount,
        // like the hardware barrel shifter; amounts 32..63 prove the
        // masking (where host `>>` would panic or wrap differently).
        let cpu = exec(
            "bsrl r3, r5, r6\n\
             bsra r4, r5, r6\n\
             bsll r7, r5, r6",
            &[(5, v), (6, amount)],
        );
        let a = amount & 31;
        prop_assert_eq!(cpu.reg(3), v >> a, "bsrl {:#x} by {} (masked {})", v, amount, a);
        prop_assert_eq!(cpu.reg(4), ((v as i32) >> a) as u32, "bsra {:#x} by {}", v, amount);
        prop_assert_eq!(cpu.reg(7), v << a, "bsll {:#x} by {}", v, amount);
    }

    #[test]
    fn immediate_barrel_shifts_match_register_forms(v: u32, amount in 0u32..32) {
        let imm = exec(
            &format!(
                "bsrli r3, r5, {amount}\n\
                 bsrai r4, r5, {amount}\n\
                 bslli r7, r5, {amount}"
            ),
            &[(5, v)],
        );
        prop_assert_eq!(imm.reg(3), v >> amount);
        prop_assert_eq!(imm.reg(4), ((v as i32) >> amount) as u32);
        prop_assert_eq!(imm.reg(7), v << amount);
    }

    #[test]
    fn imm_prefix_composes_full_32_bit_immediates(base: u32, hi: u16, lo: u16) {
        // An IMM prefix supplies the upper halfword; the following
        // type-B instruction's imm16 is then *not* sign-extended — the
        // composed operand is exactly (hi << 16) | lo.
        let cpu = exec(
            &format!("imm {}\naddik r3, r5, {}", hi as i16, lo as i16),
            &[(5, base)],
        );
        let composed = ((hi as u32) << 16) | lo as u32;
        prop_assert_eq!(
            cpu.reg(3),
            base.wrapping_add(composed),
            "imm {:#06x} + imm16 {:#06x} must compose, not sign-extend",
            hi, lo
        );
    }

    #[test]
    fn imm16_without_prefix_sign_extends(base: u32, lo: u16) {
        let cpu = exec(&format!("addik r3, r5, {}", lo as i16), &[(5, base)]);
        prop_assert_eq!(cpu.reg(3), base.wrapping_add(lo as i16 as i32 as u32));
    }

    #[test]
    fn idiv_matches_host_division(a: u32, b: u32) {
        // rd = rB / rA. Exclude the two architectural corner cases —
        // they get their own deterministic tests below.
        let divisor = if a == 0 { 1 } else { a };
        let (divisor, dividend) = if divisor == u32::MAX && b == 0x8000_0000 {
            (1, b)
        } else {
            (divisor, b)
        };
        let cpu = exec(
            "idiv  r3, r5, r6\n\
             idivu r4, r5, r6",
            &[(5, divisor), (6, dividend)],
        );
        prop_assert_eq!(
            cpu.reg(3),
            (dividend as i32).wrapping_div(divisor as i32) as u32,
            "idiv {:#x} / {:#x}", dividend, divisor
        );
        prop_assert_eq!(cpu.reg(4), dividend / divisor, "idivu {:#x} / {:#x}", dividend, divisor);
        prop_assert_eq!(cpu.msr() & msr::DZ, 0, "no divide-by-zero flag");
    }
}

#[test]
fn idiv_by_zero_traps_with_zero_result() {
    let img = assemble(&format!(".org {BASE:#x}\nidiv r3, r5, r6\n")).unwrap();
    let flat = img.flatten(0, 0x1000);
    let mut ram = FlatRam::with_image(0x1000, &flat);
    let mut cpu = Cpu::new(BASE);
    cpu.set_reg(3, 0xDEAD_BEEF);
    cpu.set_reg(5, 0); // divisor
    cpu.set_reg(6, 1234);
    let retired = cpu.step(&mut ram).unwrap();
    assert_eq!(retired.exception, Some(esr::DIV_ZERO));
    assert_eq!(cpu.reg(3), 0, "the destination is zeroed, not left stale");
    assert_ne!(cpu.msr() & msr::DZ, 0, "MSR[DZ] latches");
    assert_eq!(cpu.esr() & 0x1F, esr::DIV_ZERO);
    assert_eq!(cpu.pc(), vectors::HW_EXCEPTION, "control transfers to the exception vector");
}

#[test]
fn idiv_overflow_returns_min_without_trapping() {
    // i32::MIN / -1 does not fit in i32; MicroBlaze defines the result
    // as the dividend and raises nothing (a host `i32::wrapping_div`
    // agrees, but a naive `/` would panic in Rust — the ISS must not).
    let cpu = exec("idiv r3, r5, r6", &[(5, u32::MAX), (6, 0x8000_0000)]);
    assert_eq!(cpu.reg(3), 0x8000_0000);
    assert_eq!(cpu.msr() & msr::DZ, 0);
    assert_eq!(cpu.pc(), BASE + 4, "no trap: execution falls through");
}

/// Every table row encoded with random register and immediate fields,
/// the immediate drawn from the named special registers when the row
/// takes one (unnamed ones print as `.word`): `(row, imm, word)`.
fn table_cases(
    rd: u32,
    ra: u32,
    rb: u32,
    imm: u32,
) -> impl Iterator<Item = (&'static Row, u32, u32)> {
    TABLE.iter().map(move |row| {
        let imm = if row.syntax.contains(&Opnd::Sreg) {
            u32::from(SREG_NAMES[imm as usize % SREG_NAMES.len()].1)
        } else {
            imm
        };
        (row, imm, row.encode(rd, ra, rb, imm))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_table_row_decodes_to_itself_and_its_fields(rd: u32, ra: u32, rb: u32, imm: u32) {
        for (row, imm, raw) in table_cases(rd, ra, rb, imm) {
            prop_assert_eq!(isa::row_of(raw), Some(row), "{:#010x}", raw);
            let d = decode(raw);
            prop_assert_eq!(d.op, row.op, "{} {:#010x}", row.mnemonic, raw);
            for &opnd in row.syntax {
                let (got, want) = match opnd {
                    Opnd::Rd => (u32::from(d.rd), rd & 31),
                    Opnd::Ra => (u32::from(d.ra), ra & 31),
                    Opnd::Rb => (u32::from(d.rb), rb & 31),
                    _ => (u32::from(d.imm16) & opnd.field(), imm & opnd.field()),
                };
                prop_assert_eq!(got, want, "{:?} of {} {:#010x}", opnd, row.mnemonic, raw);
            }
        }
    }

    #[test]
    fn every_table_row_reassembles_from_its_disassembly(rd: u32, ra: u32, rb: u32, imm: u32) {
        for (row, _, raw) in table_cases(rd, ra, rb, imm) {
            let text = disassemble(raw);
            let img = assemble(&text).unwrap_or_else(|e| panic!("`{text}` ({raw:#010x}): {e}"));
            prop_assert_eq!(img.size(), 4, "`{}` of {}", text, row.mnemonic);
            let round = u32::from_be_bytes(img.flatten(0, 4).try_into().unwrap());
            prop_assert_eq!(round, raw, "`{}` of {}", text, row.mnemonic);
        }
    }
}
