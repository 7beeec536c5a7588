//! MicroBlaze instruction set: formats, the instruction table and the
//! decoder.
//!
//! The MicroBlaze is a 32-bit big-endian RISC soft processor with two
//! instruction formats:
//!
//! * **Type A**: `opcode[6] rd[5] ra[5] rb[5] func[11]` — register-register;
//! * **Type B**: `opcode[6] rd[5] ra[5] imm[16]` — register-immediate, with
//!   the [`Op::Imm`] prefix instruction supplying the upper 16 immediate
//!   bits when a full 32-bit immediate is needed.
//!
//! [`TABLE`] lists every instruction once: mnemonic, encoding, operand
//! syntax and decoded [`Op`]. The decoder, the assembler, the
//! disassembler and the differential-fuzz generator all derive from it.
//! It covers the integer ISA of the era the paper targets (MicroBlaze
//! v2–v4 as used by the uClinux port): no FPU, no MMU, FSL link
//! instructions decoded but treated as no-ops.

use std::collections::HashMap;
use std::sync::OnceLock;

/// Condition codes for conditional branches (`BEQ` … `BGE`), testing
/// register `ra` against zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// `ra == 0`
    Eq,
    /// `ra != 0`
    Ne,
    /// `ra < 0` (signed)
    Lt,
    /// `ra <= 0` (signed)
    Le,
    /// `ra > 0` (signed)
    Gt,
    /// `ra >= 0` (signed)
    Ge,
}

impl Cond {
    /// Evaluates the condition against a register value.
    #[inline]
    pub fn eval(self, v: u32) -> bool {
        let s = v as i32;
        match self {
            Cond::Eq => v == 0,
            Cond::Ne => v != 0,
            Cond::Lt => s < 0,
            Cond::Le => s <= 0,
            Cond::Gt => s > 0,
            Cond::Ge => s >= 0,
        }
    }
}

/// `MUL` family selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulKind {
    /// Low 32 bits of the signed product.
    Low,
    /// High 32 bits of the signed×signed product.
    HighSigned,
    /// High 32 bits of the signed×unsigned product.
    HighSignedUnsigned,
    /// High 32 bits of the unsigned×unsigned product.
    HighUnsigned,
}

/// Barrel-shift direction/type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BsKind {
    /// Logical shift right (`BSRL`).
    RightLogical,
    /// Arithmetic shift right (`BSRA`).
    RightArithmetic,
    /// Logical shift left (`BSLL`).
    LeftLogical,
}

/// Two-operand logic operation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicKind {
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Bitwise XOR.
    Xor,
    /// Bitwise AND with complement of operand B.
    Andn,
}

/// Pattern-compare selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PcmpKind {
    /// `PCMPBF`: index (1-based) of the first byte of `rb` equal to the
    /// corresponding byte of `ra`, or 0.
    ByteFind,
    /// `PCMPEQ`: 1 if equal, else 0.
    Eq,
    /// `PCMPNE`: 1 if not equal, else 0.
    Ne,
}

/// Single-bit shift selector (`SRA`/`SRC`/`SRL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftKind {
    /// Arithmetic right by one; carry out of bit 0.
    Arithmetic,
    /// Right through carry.
    Carry,
    /// Logical right by one.
    Logical,
}

/// Return-from selector (opcode `0x2D`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RtKind {
    /// `RTSD`: return from subroutine.
    Sub,
    /// `RTID`: return from interrupt (sets `MSR[IE]`).
    Interrupt,
    /// `RTBD`: return from break (clears `MSR[BIP]`).
    Break,
    /// `RTED`: return from exception (clears `MSR[EIP]`, sets `MSR[EE]`).
    Exception,
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Size {
    /// 8-bit access.
    Byte,
    /// 16-bit access (halfword-aligned).
    Half,
    /// 32-bit access (word-aligned).
    Word,
}

impl Size {
    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            Size::Byte => 1,
            Size::Half => 2,
            Size::Word => 4,
        }
    }
}

/// A decoded MicroBlaze operation. Immediate (`*I`) forms share variants
/// with their register forms; [`Decoded::imm_form`] distinguishes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// ADD/RSUB family. `sub` selects reverse-subtract (`rd = b - a`),
    /// `keep` suppresses the carry update (`K`), `use_carry` chains the
    /// carry in (`C`).
    Arith {
        /// Reverse subtract (`RSUB*`) rather than add.
        sub: bool,
        /// `K` suffix: keep `MSR[C]` unchanged.
        keep: bool,
        /// `C` suffix: use `MSR[C]` as carry-in.
        use_carry: bool,
    },
    /// `CMP`/`CMPU`: reverse subtract with bit 31 forced to the
    /// comparison outcome.
    Cmp {
        /// Unsigned comparison (`CMPU`).
        unsigned: bool,
    },
    /// Hardware multiply.
    Mul(MulKind),
    /// Barrel shift.
    Bs(BsKind),
    /// Hardware divide (`rd = rb / ra`).
    Idiv {
        /// Unsigned divide (`IDIVU`).
        unsigned: bool,
    },
    /// Two-operand logic.
    Logic(LogicKind),
    /// Pattern compare.
    Pcmp(PcmpKind),
    /// Single-bit shift of `ra`.
    Shift(ShiftKind),
    /// Sign-extend byte (`SEXT8`).
    Sext8,
    /// Sign-extend halfword (`SEXT16`).
    Sext16,
    /// Data/instruction cache line ops (`WDC`/`WIC`) — no-ops here.
    CacheOp,
    /// Move from special register (`MFS`); special register in
    /// [`Decoded::imm16`] low bits.
    Mfs,
    /// Move to special register (`MTS`).
    Mts,
    /// Set MSR bits from a 15-bit immediate, old MSR to `rd` (`MSRSET`).
    Msrset,
    /// Clear MSR bits (`MSRCLR`).
    Msrclr,
    /// Immediate prefix: latches the upper 16 bits for the next type-B
    /// instruction.
    Imm,
    /// Unconditional branch.
    Br {
        /// Absolute target (`A`): target is the operand itself.
        abs: bool,
        /// Link (`L`): `rd` receives the branch instruction's own PC.
        link: bool,
        /// Delay slot (`D`).
        delay: bool,
    },
    /// Break (`BRK`/`BRKI`): absolute link branch that sets `MSR[BIP]`.
    Brk,
    /// Conditional branch on `ra` against zero; PC-relative target.
    Bcc {
        /// The tested condition.
        cond: Cond,
        /// Delay slot (`D`).
        delay: bool,
    },
    /// Return-from-* (`RTSD` etc): `PC = ra + operand`, always delayed.
    Rt(RtKind),
    /// Unsigned load.
    Load(Size),
    /// Store.
    Store(Size),
    /// FSL `GET`/`PUT` — decoded, executed as a no-op (no FSL links on
    /// the VanillaNet platform).
    Fsl,
    /// Undecodable instruction word; raises the illegal-opcode exception.
    Illegal,
}

/// A fully decoded instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decoded {
    /// The operation.
    pub op: Op,
    /// Destination register index (0–31).
    pub rd: u8,
    /// Source register A index.
    pub ra: u8,
    /// Source register B index (type A only).
    pub rb: u8,
    /// Raw 16-bit immediate (type B only).
    pub imm16: u16,
    /// `true` for type-B (immediate) forms.
    pub imm_form: bool,
    /// The raw instruction word.
    pub raw: u32,
}

impl Decoded {
    /// The sign-extended 16-bit immediate (ignoring any `IMM` prefix).
    #[inline]
    pub fn simm(&self) -> i32 {
        self.imm16 as i16 as i32
    }
}

/// One operand slot of an instruction's assembler syntax, in source
/// order. Each slot names the instruction-word field it fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opnd {
    /// Destination register, word bits 25..21.
    Rd,
    /// Source register A, bits 20..16.
    Ra,
    /// Source register B, bits 15..11.
    Rb,
    /// 32-bit value in `imm16`; wider values take an [`Op::Imm`] prefix.
    Imm,
    /// Branch target, stored in `imm16` as a PC-relative displacement
    /// (prefixed like [`Opnd::Imm`]).
    Target,
    /// Signed 16-bit displacement that never takes a prefix (`RT*D`).
    Simm16,
    /// The raw 16 bits of an `IMM` prefix.
    Uimm16,
    /// Barrel-shift amount, `imm16[4:0]`.
    Shamt,
    /// MSR bit mask, `imm16[14:0]`.
    Mask15,
    /// Special register ([`SREG_NAMES`]), `imm16[13:0]`.
    Sreg,
}

impl Opnd {
    /// The slot's field: its width mask and its bit position.
    const fn layout(self) -> (u32, u32) {
        match self {
            Opnd::Rd => (0x1F, 21),
            Opnd::Ra => (0x1F, 16),
            Opnd::Rb => (0x1F, 11),
            Opnd::Imm | Opnd::Target | Opnd::Simm16 | Opnd::Uimm16 => (0xFFFF, 0),
            Opnd::Shamt => (0x1F, 0),
            Opnd::Mask15 => (0x7FFF, 0),
            Opnd::Sreg => (0x3FFF, 0),
        }
    }

    /// The instruction-word bits this slot fills.
    pub const fn field(self) -> u32 {
        let (mask, shift) = self.layout();
        mask << shift
    }

    /// `v` placed in this slot's field; bits beyond the field's width
    /// are dropped.
    pub const fn place(self, v: u32) -> u32 {
        let (mask, shift) = self.layout();
        (v & mask) << shift
    }

    /// This slot's value in `raw`.
    pub const fn get(self, raw: u32) -> u32 {
        let (mask, shift) = self.layout();
        (raw >> shift) & mask
    }
}

/// One row of the instruction table: a mnemonic, its encoding and the
/// [`Op`] it decodes to. A word belongs to the row when its primary
/// opcode is `opcode` and `word & mask == bits`; every bit outside
/// `mask` and the operand fields is don't-care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Assembler mnemonic; empty for rows that only decode (FSL).
    pub mnemonic: &'static str,
    /// Primary opcode, word bits 31..26.
    pub opcode: u8,
    /// Fixed bits the row tests, within word bits 25..0.
    pub mask: u32,
    /// Required value of the bits under `mask`.
    pub bits: u32,
    /// Operand syntax, in source order.
    pub syntax: &'static [Opnd],
    /// The decoded operation.
    pub op: Op,
}

impl Row {
    /// Encodes the row with the given operand fields. `imm` is the
    /// 16-bit immediate-field value (its low bits for the narrower
    /// slots); fields the row's syntax does not name are ignored.
    pub fn encode(&self, rd: u32, ra: u32, rb: u32, imm: u32) -> u32 {
        let base = (u32::from(self.opcode) << 26) | self.bits;
        self.syntax.iter().fold(base, |word, &opnd| {
            word | opnd.place(match opnd {
                Opnd::Rd => rd,
                Opnd::Ra => ra,
                Opnd::Rb => rb,
                _ => imm,
            })
        })
    }
}

const fn rd(v: u32) -> u32 {
    v << 21
}
const fn ra(v: u32) -> u32 {
    v << 16
}
const fn arith(sub: bool, keep: bool, use_carry: bool) -> Op {
    Op::Arith { sub, keep, use_carry }
}
const fn br(abs: bool, link: bool, delay: bool) -> Op {
    Op::Br { abs, link, delay }
}
const fn bcc(cond: Cond, delay: bool) -> Op {
    Op::Bcc { cond, delay }
}
const fn r(
    mnemonic: &'static str,
    opcode: u8,
    mask: u32,
    bits: u32,
    syntax: &'static [Opnd],
    op: Op,
) -> Row {
    Row { mnemonic, opcode, mask, bits, syntax, op }
}

/// The MicroBlaze instruction table: the one description of the
/// encoding that [`decode`], the assembler, the disassembler and the
/// differential-fuzz generator all derive from. Rows of one opcode are
/// adjacent and tried in order, so a more specific row precedes the
/// row it refines (`cmp` before `rsubk`, `pcmpbf` before `or`).
#[rustfmt::skip]
pub static TABLE: &[Row] = &{
    use Cond::*;
    use Op::*;
    use Opnd::{Imm as I, Mask15, Ra as A, Rb as B, Rd as D, Shamt, Simm16, Sreg, Target, Uimm16};
    use Size::*;
    const RRR: &[Opnd] = &[D, A, B];
    const RRI: &[Opnd] = &[D, A, I];
    const RRS: &[Opnd] = &[D, A, Shamt];
    const RR: &[Opnd] = &[D, A];
    const AB: &[Opnd] = &[A, B];
    const AT: &[Opnd] = &[A, Target];
    const AD: &[Opnd] = &[A, Simm16];
    const DB: &[Opnd] = &[D, B];
    const DT: &[Opnd] = &[D, Target];
    const DI: &[Opnd] = &[D, I];
    const DS: &[Opnd] = &[D, Sreg];
    const SA: &[Opnd] = &[Sreg, A];
    const DM: &[Opnd] = &[D, Mask15];
    const DECODE_ONLY: &[Opnd] = &[];
    /// The `rd` field, which holds the condition of `Bcc` and the kind of `RT*D`.
    const RD: u32 = 0x1F << 21;
    /// The `ra` field.
    const RA: u32 = 0x1F << 16;
    /// The branch flags `ra[4:2]`: delay (0x10), absolute (0x08), link (0x04).
    const BR: u32 = 0x1C << 16;
    /// Barrel-shift `S` (left, bit 10) and `T` (arithmetic, bit 9).
    const ST: u32 = 0x600;
    const S: u32 = 0x400;
    const T: u32 = 0x200;
    /// Bit 10 turns OR/XOR/ANDN register forms into pattern compares.
    const PCMP: u32 = 0x400;
    /// The function code of type-A words.
    const LOW11: u32 = 0x7FF;
    const IMM16: u32 = 0xFFFF;
    [
        r("add",       0x00, 0,           0,                RRR, arith(false, false, false)),
        r("rsub",      0x01, 0,           0,                RRR, arith(true, false, false)),
        r("addc",      0x02, 0,           0,                RRR, arith(false, false, true)),
        r("rsubc",     0x03, 0,           0,                RRR, arith(true, false, true)),
        r("addk",      0x04, 0,           0,                RRR, arith(false, true, false)),
        r("cmp",       0x05, 3,           1,                RRR, Cmp { unsigned: false }),
        r("cmpu",      0x05, 3,           3,                RRR, Cmp { unsigned: true }),
        r("rsubk",     0x05, 0,           0,                RRR, arith(true, true, false)),
        r("addkc",     0x06, 0,           0,                RRR, arith(false, true, true)),
        r("rsubkc",    0x07, 0,           0,                RRR, arith(true, true, true)),
        r("addi",      0x08, 0,           0,                RRI, arith(false, false, false)),
        r("rsubi",     0x09, 0,           0,                RRI, arith(true, false, false)),
        r("addic",     0x0A, 0,           0,                RRI, arith(false, false, true)),
        r("rsubic",    0x0B, 0,           0,                RRI, arith(true, false, true)),
        r("addik",     0x0C, 0,           0,                RRI, arith(false, true, false)),
        r("rsubik",    0x0D, 0,           0,                RRI, arith(true, true, false)),
        r("addikc",    0x0E, 0,           0,                RRI, arith(false, true, true)),
        r("rsubikc",   0x0F, 0,           0,                RRI, arith(true, true, true)),
        r("mul",       0x10, 3,           0,                RRR, Mul(MulKind::Low)),
        r("mulh",      0x10, 3,           1,                RRR, Mul(MulKind::HighSigned)),
        r("mulhsu",    0x10, 3,           2,                RRR, Mul(MulKind::HighSignedUnsigned)),
        r("mulhu",     0x10, 3,           3,                RRR, Mul(MulKind::HighUnsigned)),
        r("bsrl",      0x11, ST,          0,                RRR, Bs(BsKind::RightLogical)),
        r("bsra",      0x11, ST,          T,                RRR, Bs(BsKind::RightArithmetic)),
        r("bsll",      0x11, ST,          S,                RRR, Bs(BsKind::LeftLogical)),
        r("idiv",      0x12, 2,           0,                RRR, Idiv { unsigned: false }),
        r("idivu",     0x12, 2,           2,                RRR, Idiv { unsigned: true }),
        r("",          0x13, 0,           0,        DECODE_ONLY, Fsl),
        r("muli",      0x18, 0,           0,                RRI, Mul(MulKind::Low)),
        r("bsrli",     0x19, ST,          0,                RRS, Bs(BsKind::RightLogical)),
        r("bsrai",     0x19, ST,          T,                RRS, Bs(BsKind::RightArithmetic)),
        r("bslli",     0x19, ST,          S,                RRS, Bs(BsKind::LeftLogical)),
        r("",          0x1B, 0,           0,        DECODE_ONLY, Fsl),
        r("pcmpbf",    0x20, PCMP,        PCMP,             RRR, Pcmp(PcmpKind::ByteFind)),
        r("or",        0x20, 0,           0,                RRR, Logic(LogicKind::Or)),
        r("and",       0x21, 0,           0,                RRR, Logic(LogicKind::And)),
        r("pcmpeq",    0x22, PCMP,        PCMP,             RRR, Pcmp(PcmpKind::Eq)),
        r("xor",       0x22, 0,           0,                RRR, Logic(LogicKind::Xor)),
        r("pcmpne",    0x23, PCMP,        PCMP,             RRR, Pcmp(PcmpKind::Ne)),
        r("andn",      0x23, 0,           0,                RRR, Logic(LogicKind::Andn)),
        r("sra",       0x24, IMM16,       0x0001,           RR,  Shift(ShiftKind::Arithmetic)),
        r("src",       0x24, IMM16,       0x0021,           RR,  Shift(ShiftKind::Carry)),
        r("srl",       0x24, IMM16,       0x0041,           RR,  Shift(ShiftKind::Logical)),
        r("sext8",     0x24, IMM16,       0x0060,           RR,  Sext8),
        r("sext16",    0x24, IMM16,       0x0061,           RR,  Sext16),
        r("wdc",       0x24, LOW11,       0x064,            AB,  CacheOp),
        r("wdc.clear", 0x24, LOW11,       0x066,            AB,  CacheOp),
        r("wic",       0x24, LOW11,       0x068,            AB,  CacheOp),
        r("wdc.flush", 0x24, LOW11,       0x074,            AB,  CacheOp),
        r("mfs",       0x25, 0xC000,      0x8000,           DS,  Mfs),
        r("mts",       0x25, 0xC000,      0xC000,           SA,  Mts),
        r("msrset",    0x25, RA | 0x8000, ra(0),            DM,  Msrset),
        r("msrclr",    0x25, RA | 0x8000, ra(1),            DM,  Msrclr),
        r("br",        0x26, BR,          ra(0x00),         &[B], br(false, false, false)),
        r("brd",       0x26, BR,          ra(0x10),         &[B], br(false, false, true)),
        r("bra",       0x26, BR,          ra(0x08),         &[B], br(true, false, false)),
        r("brad",      0x26, BR,          ra(0x18),         &[B], br(true, false, true)),
        r("brl",       0x26, BR,          ra(0x04),         DB,  br(false, true, false)),
        r("brld",      0x26, BR,          ra(0x14),         DB,  br(false, true, true)),
        r("brald",     0x26, BR,          ra(0x1C),         DB,  br(true, true, true)),
        r("brk",       0x26, BR,          ra(0x0C),         DB,  Brk),
        r("beq",       0x27, RD,          rd(0x00),         AB,  bcc(Eq, false)),
        r("bne",       0x27, RD,          rd(0x01),         AB,  bcc(Ne, false)),
        r("blt",       0x27, RD,          rd(0x02),         AB,  bcc(Lt, false)),
        r("ble",       0x27, RD,          rd(0x03),         AB,  bcc(Le, false)),
        r("bgt",       0x27, RD,          rd(0x04),         AB,  bcc(Gt, false)),
        r("bge",       0x27, RD,          rd(0x05),         AB,  bcc(Ge, false)),
        r("beqd",      0x27, RD,          rd(0x10),         AB,  bcc(Eq, true)),
        r("bned",      0x27, RD,          rd(0x11),         AB,  bcc(Ne, true)),
        r("bltd",      0x27, RD,          rd(0x12),         AB,  bcc(Lt, true)),
        r("bled",      0x27, RD,          rd(0x13),         AB,  bcc(Le, true)),
        r("bgtd",      0x27, RD,          rd(0x14),         AB,  bcc(Gt, true)),
        r("bged",      0x27, RD,          rd(0x15),         AB,  bcc(Ge, true)),
        r("ori",       0x28, 0,           0,                RRI, Logic(LogicKind::Or)),
        r("andi",      0x29, 0,           0,                RRI, Logic(LogicKind::And)),
        r("xori",      0x2A, 0,           0,                RRI, Logic(LogicKind::Xor)),
        r("andni",     0x2B, 0,           0,                RRI, Logic(LogicKind::Andn)),
        r("imm",       0x2C, 0,           0,           &[Uimm16], Imm),
        r("rtsd",      0x2D, RD,          rd(0x10),         AD,  Rt(RtKind::Sub)),
        r("rtid",      0x2D, RD,          rd(0x11),         AD,  Rt(RtKind::Interrupt)),
        r("rtbd",      0x2D, RD,          rd(0x12),         AD,  Rt(RtKind::Break)),
        r("rted",      0x2D, RD,          rd(0x14),         AD,  Rt(RtKind::Exception)),
        r("bri",       0x2E, BR,          ra(0x00),   &[Target], br(false, false, false)),
        r("brid",      0x2E, BR,          ra(0x10),   &[Target], br(false, false, true)),
        r("brai",      0x2E, BR,          ra(0x08),         &[I], br(true, false, false)),
        r("braid",     0x2E, BR,          ra(0x18),         &[I], br(true, false, true)),
        r("brli",      0x2E, BR,          ra(0x04),         DT,  br(false, true, false)),
        r("brlid",     0x2E, BR,          ra(0x14),         DT,  br(false, true, true)),
        r("bralid",    0x2E, BR,          ra(0x1C),         DI,  br(true, true, true)),
        r("brki",      0x2E, BR,          ra(0x0C),         DI,  Brk),
        r("beqi",      0x2F, RD,          rd(0x00),         AT,  bcc(Eq, false)),
        r("bnei",      0x2F, RD,          rd(0x01),         AT,  bcc(Ne, false)),
        r("blti",      0x2F, RD,          rd(0x02),         AT,  bcc(Lt, false)),
        r("blei",      0x2F, RD,          rd(0x03),         AT,  bcc(Le, false)),
        r("bgti",      0x2F, RD,          rd(0x04),         AT,  bcc(Gt, false)),
        r("bgei",      0x2F, RD,          rd(0x05),         AT,  bcc(Ge, false)),
        r("beqid",     0x2F, RD,          rd(0x10),         AT,  bcc(Eq, true)),
        r("bneid",     0x2F, RD,          rd(0x11),         AT,  bcc(Ne, true)),
        r("bltid",     0x2F, RD,          rd(0x12),         AT,  bcc(Lt, true)),
        r("bleid",     0x2F, RD,          rd(0x13),         AT,  bcc(Le, true)),
        r("bgtid",     0x2F, RD,          rd(0x14),         AT,  bcc(Gt, true)),
        r("bgeid",     0x2F, RD,          rd(0x15),         AT,  bcc(Ge, true)),
        r("lbu",       0x30, 0,           0,                RRR, Load(Byte)),
        r("lhu",       0x31, 0,           0,                RRR, Load(Half)),
        r("lw",        0x32, 0,           0,                RRR, Load(Word)),
        r("sb",        0x34, 0,           0,                RRR, Store(Byte)),
        r("sh",        0x35, 0,           0,                RRR, Store(Half)),
        r("sw",        0x36, 0,           0,                RRR, Store(Word)),
        r("lbui",      0x38, 0,           0,                RRI, Load(Byte)),
        r("lhui",      0x39, 0,           0,                RRI, Load(Half)),
        r("lwi",       0x3A, 0,           0,                RRI, Load(Word)),
        r("sbi",       0x3C, 0,           0,                RRI, Store(Byte)),
        r("shi",       0x3D, 0,           0,                RRI, Store(Half)),
        r("swi",       0x3E, 0,           0,                RRI, Store(Word)),
    ]
};

/// Per primary opcode: its table rows, and whether it is a type-B
/// (immediate) form. Bit 3 of the opcode selects the type-B form;
/// opcodes without an assembler row (FSL, unassigned) decode as type A.
#[derive(Clone, Copy)]
struct Slot {
    rows: &'static [Row],
    imm_form: bool,
}

static INDEX: [Slot; 64] = {
    let mut index = [Slot { rows: &[], imm_form: false }; 64];
    let mut start = 0;
    while start < TABLE.len() {
        let opcode = TABLE[start].opcode;
        let mut end = start;
        let mut imm_form = false;
        while end < TABLE.len() && TABLE[end].opcode == opcode {
            imm_form |= opcode & 0x08 != 0 && !TABLE[end].mnemonic.is_empty();
            end += 1;
        }
        assert!(index[opcode as usize].rows.is_empty(), "rows of one opcode must be adjacent");
        index[opcode as usize] = Slot { rows: TABLE.split_at(end).0.split_at(start).1, imm_form };
        start = end;
    }
    index
};

/// The table row an instruction word belongs to, if any.
#[inline]
pub fn row_of(raw: u32) -> Option<&'static Row> {
    INDEX[(raw >> 26) as usize].rows.iter().find(|row| raw & row.mask == row.bits)
}

/// The table row for an assembler mnemonic (lower case).
pub fn row(mnemonic: &str) -> Option<&'static Row> {
    static BY_NAME: OnceLock<HashMap<&'static str, &'static Row>> = OnceLock::new();
    BY_NAME
        .get_or_init(|| {
            TABLE
                .iter()
                .filter(|row| !row.mnemonic.is_empty())
                .map(|row| (row.mnemonic, row))
                .collect()
        })
        .get(mnemonic)
        .copied()
}

/// `or r0, r0, r0`, the word the assembler's `nop` stands for.
pub const NOP: u32 = 0x8000_0000;

/// Decodes one big-endian instruction word through [`TABLE`].
///
/// Unknown encodings decode to [`Op::Illegal`] rather than panicking, so a
/// runaway PC produces an architecturally visible exception, as on the
/// real core.
///
/// # Examples
///
/// ```
/// use microblaze::isa::{decode, Op};
///
/// // add r3, r1, r2  =>  opcode 0x00, rd=3, ra=1, rb=2
/// let d = decode(0x0061_1000);
/// assert_eq!(d.op, Op::Arith { sub: false, keep: false, use_carry: false });
/// assert_eq!((d.rd, d.ra, d.rb), (3, 1, 2));
/// ```
#[inline]
pub fn decode(raw: u32) -> Decoded {
    Decoded {
        op: row_of(raw).map_or(Op::Illegal, |row| row.op),
        rd: ((raw >> 21) & 31) as u8,
        ra: ((raw >> 16) & 31) as u8,
        rb: ((raw >> 11) & 31) as u8,
        imm16: (raw & 0xFFFF) as u16,
        imm_form: INDEX[(raw >> 26) as usize].imm_form,
        raw,
    }
}

/// Special-purpose register numbers as used by `MFS`/`MTS` (the low 14
/// bits of the immediate field).
pub mod sreg {
    /// Program counter (read-only).
    pub const PC: u16 = 0x0000;
    /// Machine status register.
    pub const MSR: u16 = 0x0001;
    /// Exception address register.
    pub const EAR: u16 = 0x0003;
    /// Exception status register.
    pub const ESR: u16 = 0x0005;
    /// Floating-point status register (unused here).
    pub const FSR: u16 = 0x0007;
    /// Branch target register.
    pub const BTR: u16 = 0x000B;
}

/// The special registers by assembler name.
pub const SREG_NAMES: [(&str, u16); 6] = [
    ("rpc", sreg::PC),
    ("rmsr", sreg::MSR),
    ("rear", sreg::EAR),
    ("resr", sreg::ESR),
    ("rfsr", sreg::FSR),
    ("rbtr", sreg::BTR),
];

/// MSR bit masks (value view, bit 0 = LSB).
pub mod msr {
    /// Buslock enable.
    pub const BE: u32 = 1 << 0;
    /// Interrupt enable.
    pub const IE: u32 = 1 << 1;
    /// Arithmetic carry.
    pub const C: u32 = 1 << 2;
    /// Break in progress.
    pub const BIP: u32 = 1 << 3;
    /// Division-by-zero flag.
    pub const DZ: u32 = 1 << 6;
    /// Exception enable.
    pub const EE: u32 = 1 << 8;
    /// Exception in progress.
    pub const EIP: u32 = 1 << 9;
    /// Carry copy (mirrors `C` in bit 31 on reads).
    pub const CC: u32 = 1 << 31;
}

/// Exception cause codes stored in `ESR[4:0]`.
pub mod esr {
    /// Unaligned data access.
    pub const UNALIGNED: u32 = 0x01;
    /// Illegal opcode.
    pub const ILLEGAL: u32 = 0x02;
    /// Instruction-bus error.
    pub const IBUS_ERROR: u32 = 0x03;
    /// Data-bus error.
    pub const DBUS_ERROR: u32 = 0x04;
    /// Divide by zero.
    pub const DIV_ZERO: u32 = 0x05;
}

/// Architectural vector addresses.
pub mod vectors {
    /// Reset.
    pub const RESET: u32 = 0x00;
    /// User vector (software exception).
    pub const USER: u32 = 0x08;
    /// Hardware interrupt.
    pub const INTERRUPT: u32 = 0x10;
    /// Break.
    pub const BREAK: u32 = 0x18;
    /// Hardware exception.
    pub const HW_EXCEPTION: u32 = 0x20;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn type_a(opcode: u32, rd: u32, ra: u32, rb: u32, low11: u32) -> u32 {
        (opcode << 26) | (rd << 21) | (ra << 16) | (rb << 11) | low11
    }

    fn type_b(opcode: u32, rd: u32, ra: u32, imm: u32) -> u32 {
        (opcode << 26) | (rd << 21) | (ra << 16) | (imm & 0xFFFF)
    }

    #[test]
    fn table_rows_are_well_formed() {
        for row in TABLE {
            let operands = row.syntax.iter().fold(0, |m, o| m | o.field());
            assert_eq!(row.bits & !row.mask, 0, "{}: fixed bits outside the mask", row.mnemonic);
            assert_eq!(row.mask & (0xFC00_0000 | operands), 0, "{}: mask overlaps", row.mnemonic);
            if !row.mnemonic.is_empty() {
                assert_eq!(super::row(row.mnemonic), Some(row), "mnemonics are unique");
            }
        }
    }

    #[test]
    fn decode_arith_family() {
        let d = decode(type_a(0x00, 3, 1, 2, 0));
        assert_eq!(d.op, Op::Arith { sub: false, keep: false, use_carry: false });
        assert!(!d.imm_form);

        let d = decode(type_a(0x01, 3, 1, 2, 0)); // RSUB
        assert_eq!(d.op, Op::Arith { sub: true, keep: false, use_carry: false });

        let d = decode(type_a(0x06, 3, 1, 2, 0)); // ADDKC
        assert_eq!(d.op, Op::Arith { sub: false, keep: true, use_carry: true });

        let d = decode(type_b(0x0C, 3, 1, 0xFFFF)); // ADDIK
        assert_eq!(d.op, Op::Arith { sub: false, keep: true, use_carry: false });
        assert!(d.imm_form);
        assert_eq!(d.simm(), -1);
    }

    #[test]
    fn decode_cmp() {
        let d = decode(type_a(0x05, 3, 1, 2, 1));
        assert_eq!(d.op, Op::Cmp { unsigned: false });
        let d = decode(type_a(0x05, 3, 1, 2, 3));
        assert_eq!(d.op, Op::Cmp { unsigned: true });
        let d = decode(type_a(0x05, 3, 1, 2, 0)); // plain RSUBK
        assert_eq!(d.op, Op::Arith { sub: true, keep: true, use_carry: false });
    }

    #[test]
    fn decode_mul_div() {
        assert_eq!(decode(type_a(0x10, 3, 1, 2, 0)).op, Op::Mul(MulKind::Low));
        assert_eq!(decode(type_a(0x10, 3, 1, 2, 1)).op, Op::Mul(MulKind::HighSigned));
        assert_eq!(decode(type_a(0x10, 3, 1, 2, 3)).op, Op::Mul(MulKind::HighUnsigned));
        let d = decode(type_b(0x18, 3, 1, 100));
        assert_eq!(d.op, Op::Mul(MulKind::Low));
        assert!(d.imm_form);
        assert_eq!(decode(type_a(0x12, 3, 1, 2, 0)).op, Op::Idiv { unsigned: false });
        assert_eq!(decode(type_a(0x12, 3, 1, 2, 2)).op, Op::Idiv { unsigned: true });
    }

    #[test]
    fn decode_barrel_shift() {
        assert_eq!(decode(type_a(0x11, 3, 1, 2, 0)).op, Op::Bs(BsKind::RightLogical));
        assert_eq!(decode(type_a(0x11, 3, 1, 2, 1 << 9)).op, Op::Bs(BsKind::RightArithmetic));
        assert_eq!(decode(type_a(0x11, 3, 1, 2, 1 << 10)).op, Op::Bs(BsKind::LeftLogical));
        let d = decode(type_b(0x19, 3, 1, (1 << 10) | 5)); // BSLLI r3, r1, 5
        assert_eq!(d.op, Op::Bs(BsKind::LeftLogical));
        assert!(d.imm_form);
    }

    #[test]
    fn decode_logic_and_pcmp() {
        assert_eq!(decode(type_a(0x20, 3, 1, 2, 0)).op, Op::Logic(LogicKind::Or));
        assert_eq!(decode(type_a(0x20, 3, 1, 2, 1 << 10)).op, Op::Pcmp(PcmpKind::ByteFind));
        assert_eq!(decode(type_a(0x22, 3, 1, 2, 1 << 10)).op, Op::Pcmp(PcmpKind::Eq));
        assert_eq!(decode(type_a(0x23, 3, 1, 2, 1 << 10)).op, Op::Pcmp(PcmpKind::Ne));
        assert_eq!(decode(type_b(0x29, 3, 1, 0xFF)).op, Op::Logic(LogicKind::And));
    }

    #[test]
    fn decode_shift_sext() {
        assert_eq!(decode(type_b(0x24, 3, 1, 0x0001)).op, Op::Shift(ShiftKind::Arithmetic));
        assert_eq!(decode(type_b(0x24, 3, 1, 0x0021)).op, Op::Shift(ShiftKind::Carry));
        assert_eq!(decode(type_b(0x24, 3, 1, 0x0041)).op, Op::Shift(ShiftKind::Logical));
        assert_eq!(decode(type_b(0x24, 3, 1, 0x0060)).op, Op::Sext8);
        assert_eq!(decode(type_b(0x24, 3, 1, 0x0061)).op, Op::Sext16);
    }

    #[test]
    fn decode_special_regs() {
        let d = decode(type_b(0x25, 3, 0, 0x8001)); // MFS r3, rmsr
        assert_eq!(d.op, Op::Mfs);
        let d = decode(type_b(0x25, 0, 3, 0xC001)); // MTS rmsr, r3
        assert_eq!(d.op, Op::Mts);
        assert_eq!(decode(type_b(0x25, 3, 0, 0x0002)).op, Op::Msrset);
        assert_eq!(decode(type_b(0x25, 3, 1, 0x0002)).op, Op::Msrclr);
    }

    #[test]
    fn decode_branches() {
        // BRI
        let d = decode(type_b(0x2E, 0, 0x00, 0x100));
        assert_eq!(d.op, Op::Br { abs: false, link: false, delay: false });
        // BRID
        assert_eq!(
            decode(type_b(0x2E, 0, 0x10, 0)).op,
            Op::Br { abs: false, link: false, delay: true }
        );
        // BRAI
        assert_eq!(
            decode(type_b(0x2E, 0, 0x08, 0)).op,
            Op::Br { abs: true, link: false, delay: false }
        );
        // BRLID r15
        assert_eq!(
            decode(type_b(0x2E, 15, 0x14, 0)).op,
            Op::Br { abs: false, link: true, delay: true }
        );
        // BRALID
        assert_eq!(
            decode(type_b(0x2E, 15, 0x1C, 0)).op,
            Op::Br { abs: true, link: true, delay: true }
        );
        // BRKI
        assert_eq!(decode(type_b(0x2E, 16, 0x0C, 0x18)).op, Op::Brk);
        // Register forms share the decoder path.
        assert_eq!(
            decode(type_a(0x26, 0, 0x10, 5, 0)).op,
            Op::Br { abs: false, link: false, delay: true }
        );
    }

    #[test]
    fn decode_conditional_branches() {
        let d = decode(type_b(0x2F, 0, 3, 0xFFF0)); // BEQI r3, -16
        assert_eq!(d.op, Op::Bcc { cond: Cond::Eq, delay: false });
        assert_eq!(d.simm(), -16);
        let d = decode(type_b(0x2F, 0x15, 3, 8)); // BGTID? rd=10101 => delay + cond5
        assert_eq!(d.op, Op::Bcc { cond: Cond::Ge, delay: true });
        let d = decode(type_a(0x27, 1, 3, 4, 0)); // BNE r3, r4
        assert_eq!(d.op, Op::Bcc { cond: Cond::Ne, delay: false });
    }

    #[test]
    fn decode_returns() {
        assert_eq!(decode(type_b(0x2D, 0x10, 15, 8)).op, Op::Rt(RtKind::Sub));
        assert_eq!(decode(type_b(0x2D, 0x11, 14, 0)).op, Op::Rt(RtKind::Interrupt));
        assert_eq!(decode(type_b(0x2D, 0x12, 16, 0)).op, Op::Rt(RtKind::Break));
        assert_eq!(decode(type_b(0x2D, 0x14, 17, 0)).op, Op::Rt(RtKind::Exception));
    }

    #[test]
    fn decode_loads_stores() {
        assert_eq!(decode(type_a(0x30, 3, 1, 2, 0)).op, Op::Load(Size::Byte));
        assert_eq!(decode(type_a(0x31, 3, 1, 2, 0)).op, Op::Load(Size::Half));
        assert_eq!(decode(type_a(0x32, 3, 1, 2, 0)).op, Op::Load(Size::Word));
        assert_eq!(decode(type_a(0x34, 3, 1, 2, 0)).op, Op::Store(Size::Byte));
        assert_eq!(decode(type_a(0x35, 3, 1, 2, 0)).op, Op::Store(Size::Half));
        assert_eq!(decode(type_a(0x36, 3, 1, 2, 0)).op, Op::Store(Size::Word));
        let d = decode(type_b(0x3A, 3, 1, 0x20));
        assert_eq!(d.op, Op::Load(Size::Word));
        assert!(d.imm_form);
        let d = decode(type_b(0x3E, 3, 1, 0x20));
        assert_eq!(d.op, Op::Store(Size::Word));
        assert!(d.imm_form);
    }

    #[test]
    fn decode_imm_prefix() {
        let d = decode(type_b(0x2C, 0, 0, 0xDEAD));
        assert_eq!(d.op, Op::Imm);
        assert_eq!(d.imm16, 0xDEAD);
    }

    #[test]
    fn decode_illegal() {
        assert_eq!(decode(0xFFFF_FFFF).op, Op::Illegal);
        assert_eq!(decode(type_b(0x24, 3, 1, 0x7777)).op, Op::Illegal);
    }

    #[test]
    fn cond_eval() {
        assert!(Cond::Eq.eval(0));
        assert!(!Cond::Eq.eval(1));
        assert!(Cond::Ne.eval(5));
        assert!(Cond::Lt.eval(0x8000_0000));
        assert!(!Cond::Lt.eval(0));
        assert!(Cond::Le.eval(0));
        assert!(Cond::Gt.eval(1));
        assert!(!Cond::Gt.eval(0xFFFF_FFFF));
        assert!(Cond::Ge.eval(0));
    }

    #[test]
    fn sizes() {
        assert_eq!(Size::Byte.bytes(), 1);
        assert_eq!(Size::Half.bytes(), 2);
        assert_eq!(Size::Word.bytes(), 4);
    }
}
