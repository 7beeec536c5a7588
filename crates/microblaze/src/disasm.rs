//! A MicroBlaze disassembler, primarily for debugging models and for
//! round-trip testing the assembler. It prints each word's
//! [`isa::TABLE`](crate::isa::TABLE) row: the mnemonic, then the
//! operands in the row's syntax.

use crate::isa::{self, Opnd, SREG_NAMES};
use std::fmt::Write;

/// Disassembles one instruction word into GNU-`as`-style text.
///
/// The result re-assembles to the same word for every encoding the
/// assembler can produce (round-trip tested). Words without an
/// assembler row, and special registers without a name, print as
/// `.word`.
///
/// # Examples
///
/// ```
/// use microblaze::disasm::disassemble;
///
/// assert_eq!(disassemble(0x3060_002A), "addik r3, r0, 42");
/// ```
pub fn disassemble(raw: u32) -> String {
    if raw == isa::NOP {
        return "nop".to_string();
    }
    let word = || format!(".word {raw:#010x}");
    let Some(row) = isa::row_of(raw).filter(|row| !row.mnemonic.is_empty()) else {
        return word();
    };
    let mut text = row.mnemonic.to_string();
    for (i, &opnd) in row.syntax.iter().enumerate() {
        text.push_str(if i == 0 { " " } else { ", " });
        let v = opnd.get(raw);
        let _ = match opnd {
            Opnd::Rd | Opnd::Ra | Opnd::Rb => write!(text, "r{v}"),
            Opnd::Imm | Opnd::Target | Opnd::Simm16 => write!(text, "{}", v as u16 as i16),
            Opnd::Uimm16 | Opnd::Mask15 => write!(text, "{v:#x}"),
            Opnd::Shamt => write!(text, "{v}"),
            Opnd::Sreg => match SREG_NAMES.iter().find(|&&(_, n)| u32::from(n) == v) {
                Some((name, _)) => write!(text, "{name}"),
                None => return word(),
            },
        };
    }
    text
}
