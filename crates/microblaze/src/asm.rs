//! A two-pass MicroBlaze assembler with GNU-`as`-style syntax.
//!
//! The workload crate authors the synthetic uClinux boot in assembly; this
//! assembler turns it into a loadable memory image with a symbol table
//! (the symbol table is how the kernel-function capture of §5.4 finds
//! `memset`/`memcpy`).
//!
//! Supported: every mnemonic of the [`isa::TABLE`] with the
//! operand syntax its row gives, labels, `label±offset` expressions,
//! `.org .word .half .byte .ascii .asciz .space .align .equ` directives,
//! and the pseudo-instructions `nop`, `la rd, ra, expr` and `li rd, expr`
//! (spellings of `or r0, r0, r0` and `addik`). A mnemonic resolves to its
//! table row when the source is parsed. Immediates and branch targets
//! that do not fit in 16 bits take an `IMM` prefix automatically; layout
//! is iterated to a fixed point.
//!
//! # Examples
//!
//! ```
//! use microblaze::asm::assemble;
//!
//! let img = assemble(r#"
//!         .org 0x0
//! start:  addik r3, r0, 5
//! loop:   addik r3, r3, -1
//!         bneid r3, loop
//!         nop
//! done:   bri done
//! "#)?;
//! assert_eq!(img.symbol("loop"), Some(0x4));
//! # Ok::<(), microblaze::asm::AsmError>(())
//! ```

use crate::isa::{self, Opnd, Row, SREG_NAMES};
use std::collections::HashMap;
use std::fmt;

/// An assembled program: byte chunks at absolute addresses plus the
/// symbol table.
#[derive(Debug, Clone, Default)]
pub struct Image {
    /// `(base address, bytes)` chunks in source order.
    pub chunks: Vec<(u32, Vec<u8>)>,
    /// Label → address.
    pub symbols: HashMap<String, u32>,
}

impl Image {
    /// Looks up a label.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Streams every assembled byte to `store(addr, byte)`.
    pub fn load_into(&self, mut store: impl FnMut(u32, u8)) {
        for (base, bytes) in &self.chunks {
            for (i, b) in bytes.iter().enumerate() {
                store(base + i as u32, *b);
            }
        }
    }

    /// The first assembled address outside `[base, base + len)`, if any.
    pub fn first_outside(&self, base: u32, len: usize) -> Option<u32> {
        let end = u64::from(base) + len as u64;
        self.chunks.iter().filter(|(_, bytes)| !bytes.is_empty()).find_map(|(start, bytes)| {
            let chunk_end = u64::from(*start) + bytes.len() as u64;
            if *start < base {
                Some(*start)
            } else if chunk_end > end {
                Some(end.max(u64::from(*start)) as u32)
            } else {
                None
            }
        })
    }

    /// Flattens into a single buffer covering `[base, base + len)`.
    ///
    /// # Panics
    ///
    /// Panics if any chunk falls outside the window (see
    /// [`Image::first_outside`]).
    pub fn flatten(&self, base: u32, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        self.load_into(|addr, b| {
            let off = addr.checked_sub(base).expect("chunk below base") as usize;
            assert!(off < len, "chunk beyond window: {addr:#x}");
            out[off] = b;
        });
        out
    }

    /// Total assembled byte count.
    pub fn size(&self) -> usize {
        self.chunks.iter().map(|(_, b)| b.len()).sum()
    }

    /// Appends `bytes` at `addr`, extending the last chunk when it ends
    /// exactly there.
    fn emit(&mut self, addr: u32, bytes: &[u8]) {
        match self.chunks.last_mut() {
            Some((base, buf)) if u64::from(*base) + buf.len() as u64 == u64::from(addr) => {
                buf.extend_from_slice(bytes)
            }
            _ => self.chunks.push((addr, bytes.to_vec())),
        }
    }
}

/// An assembly error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based line number.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, AsmError> {
    Err(AsmError { line, message: message.into() })
}

#[derive(Debug, Clone)]
enum Item {
    Label(String),
    Org(String),
    Word(Vec<String>),
    Half(Vec<String>),
    Byte(Vec<String>),
    Ascii(Vec<u8>),
    Space(String),
    Align(String),
    Equ(String, String),
    /// An instruction, resolved to its table row at parse time, with
    /// one operand per slot of the row's syntax.
    Insn {
        row: &'static Row,
        ops: Vec<Operand>,
    },
}

/// An instruction operand. Registers and special registers are known
/// once parsed; expressions are evaluated in every layout round.
#[derive(Debug, Clone)]
enum Operand {
    Known(u32),
    Expr(String),
}

struct Line {
    no: usize,
    item: Item,
}

/// Splits an operand list on commas (tolerating spaces).
fn split_ops(rest: &str) -> Vec<String> {
    if rest.trim().is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(|s| s.trim().to_string()).collect()
    }
}

fn parse_string_literal(line: usize, s: &str, zero_terminate: bool) -> Result<Vec<u8>, AsmError> {
    let s = s.trim();
    if !s.starts_with('"') || !s.ends_with('"') || s.len() < 2 {
        return err(line, format!("expected quoted string, got `{s}`"));
    }
    let inner = &s[1..s.len() - 1];
    let mut out = Vec::new();
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push(b'\n'),
                Some('t') => out.push(b'\t'),
                Some('r') => out.push(b'\r'),
                Some('0') => out.push(0),
                Some('\\') => out.push(b'\\'),
                Some('"') => out.push(b'"'),
                other => return err(line, format!("bad escape `\\{other:?}`")),
            }
        } else if c.is_ascii() {
            out.push(c as u8);
        } else {
            return err(line, format!("non-ASCII character `{c}` in string"));
        }
    }
    if zero_terminate {
        out.push(0);
    }
    Ok(out)
}

fn parse_lines(src: &str) -> Result<Vec<Line>, AsmError> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let no = i + 1;
        // Strip comments ('#', ';', '//') outside string literals.
        let mut text = String::new();
        let mut in_str = false;
        let mut prev = ' ';
        for c in raw.chars() {
            if c == '"' && prev != '\\' {
                in_str = !in_str;
            }
            if !in_str {
                if c == '#' || c == ';' {
                    break;
                }
                if c == '/' && prev == '/' {
                    text.pop();
                    break;
                }
            }
            text.push(c);
            prev = c;
        }
        let mut rest = text.trim();
        // Leading labels.
        while let Some(colon) = rest.find(':') {
            let (head, tail) = rest.split_at(colon);
            let name = head.trim();
            if name.is_empty()
                || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
                || name.chars().next().is_some_and(|c| c.is_ascii_digit())
            {
                break;
            }
            out.push(Line { no, item: Item::Label(name.to_string()) });
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        let (word, tail) = match rest.find(char::is_whitespace) {
            Some(p) => rest.split_at(p),
            None => (rest, ""),
        };
        let word_lc = word.to_ascii_lowercase();
        let item = match word_lc.as_str() {
            ".org" => Item::Org(tail.trim().to_string()),
            ".word" | ".long" => Item::Word(split_ops(tail)),
            ".half" | ".short" => Item::Half(split_ops(tail)),
            ".byte" => Item::Byte(split_ops(tail)),
            ".ascii" => Item::Ascii(parse_string_literal(no, tail, false)?),
            ".asciz" | ".string" => Item::Ascii(parse_string_literal(no, tail, true)?),
            ".space" | ".skip" => Item::Space(tail.trim().to_string()),
            ".align" => Item::Align(tail.trim().to_string()),
            ".equ" | ".set" => {
                let ops = split_ops(tail);
                if ops.len() != 2 {
                    return err(no, ".equ needs `name, value`");
                }
                Item::Equ(ops[0].clone(), ops[1].clone())
            }
            d if d.starts_with('.') => return err(no, format!("unknown directive `{word}`")),
            _ => parse_insn(no, &word_lc, split_ops(tail))?,
        };
        out.push(Line { no, item });
    }
    Ok(out)
}

/// Resolves an instruction to its table row and parses its register
/// operands. The pseudo-ops are spellings of real rows.
fn parse_insn(line: usize, mnemonic: &str, mut ops: Vec<String>) -> Result<Item, AsmError> {
    let name = match mnemonic {
        "nop" => {
            expect_ops(line, &ops, 0, mnemonic)?;
            ops = vec!["r0".into(); 3];
            "or"
        }
        "la" => {
            expect_ops(line, &ops, 3, mnemonic)?;
            "addik"
        }
        "li" => {
            expect_ops(line, &ops, 2, mnemonic)?;
            ops.insert(1, "r0".into());
            "addik"
        }
        m => m,
    };
    let Some(row) = isa::row(name) else {
        return err(line, format!("unknown mnemonic `{mnemonic}`"));
    };
    expect_ops(line, &ops, row.syntax.len(), mnemonic)?;
    let ops = row
        .syntax
        .iter()
        .zip(ops)
        .map(|(opnd, text)| match opnd {
            Opnd::Rd | Opnd::Ra | Opnd::Rb => parse_reg(line, &text).map(Operand::Known),
            Opnd::Sreg => parse_sreg(line, &text).map(Operand::Known),
            _ => Ok(Operand::Expr(text)),
        })
        .collect::<Result<_, _>>()?;
    Ok(Item::Insn { row, ops })
}

/// Evaluates `number`, `label`, `label+n`, `label-n`.
fn eval(line: usize, expr: &str, symbols: &HashMap<String, i64>) -> Result<i64, AsmError> {
    let expr = expr.trim();
    if expr.is_empty() {
        return err(line, "empty expression");
    }
    // Split at the rightmost +/- that is not a leading sign, for left
    // associativity.
    let mut split = None;
    for (idx, c) in expr.char_indices().skip(1) {
        if c == '+' || c == '-' {
            split = Some((idx, c));
        }
    }
    if let Some((idx, c)) = split {
        let lhs = eval(line, &expr[..idx], symbols)?;
        let rhs = eval(line, &expr[idx + 1..], symbols)?;
        let v = if c == '+' { lhs.checked_add(rhs) } else { lhs.checked_sub(rhs) };
        return v.ok_or_else(|| AsmError { line, message: format!("`{expr}` overflows") });
    }
    let (neg, body) = match expr.strip_prefix('-') {
        Some(b) => (true, b.trim()),
        None => (false, expr),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16)
            .map_err(|e| AsmError { line, message: format!("bad hex literal `{body}`: {e}") })?
    } else if body.chars().all(|c| c.is_ascii_digit()) {
        body.parse::<i64>()
            .map_err(|e| AsmError { line, message: format!("bad literal `{body}`: {e}") })?
    } else if body == '\''.to_string() {
        return err(line, "bad char literal");
    } else if body.starts_with('\'') && body.ends_with('\'') && body.len() == 3 {
        body.as_bytes()[1] as i64
    } else {
        match symbols.get(body) {
            Some(v) => *v,
            None => return err(line, format!("undefined symbol `{body}`")),
        }
    };
    Ok(if neg { -v } else { v })
}

fn parse_reg(line: usize, s: &str) -> Result<u32, AsmError> {
    let s = s.trim().to_ascii_lowercase();
    let body = s
        .strip_prefix('r')
        .ok_or_else(|| AsmError { line, message: format!("expected register, got `{s}`") })?;
    let n: u32 =
        body.parse().map_err(|_| AsmError { line, message: format!("bad register `{s}`") })?;
    if n > 31 {
        return err(line, format!("register out of range `{s}`"));
    }
    Ok(n)
}

fn parse_sreg(line: usize, s: &str) -> Result<u32, AsmError> {
    let s = s.trim().to_ascii_lowercase();
    match SREG_NAMES.iter().find(|(name, _)| *name == s) {
        Some(&(_, n)) => Ok(u32::from(n)),
        None => err(line, format!("unknown special register `{s}`")),
    }
}

fn expect_ops(line: usize, ops: &[String], n: usize, mnem: &str) -> Result<(), AsmError> {
    if ops.len() != n {
        return err(line, format!("`{mnem}` expects {n} operands, got {}", ops.len()));
    }
    Ok(())
}

/// The values a `bits`-wide field accepts: its signed and its unsigned
/// reading.
fn width(bits: u32) -> (i64, i64) {
    (-(1 << (bits - 1)), (1 << bits) - 1)
}

/// Checks `v` against `(lo, hi)`.
fn in_range(line: usize, what: &str, v: i64, (lo, hi): (i64, i64)) -> Result<i64, AsmError> {
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        err(line, format!("{what} {v} out of range {lo}..={hi}"))
    }
}

/// What an expression slot may hold: its name and range.
fn operand_range(opnd: Opnd) -> (&'static str, (i64, i64)) {
    match opnd {
        Opnd::Imm => ("immediate", width(32)),
        Opnd::Target => ("branch target", width(32)),
        Opnd::Simm16 => ("displacement", (-0x8000, 0x7FFF)),
        Opnd::Uimm16 => ("IMM value", width(16)),
        Opnd::Shamt => ("shift amount", (0, 31)),
        Opnd::Mask15 => ("MSR bit mask", (0, 0x7FFF)),
        Opnd::Rd | Opnd::Ra | Opnd::Rb | Opnd::Sreg => unreachable!("parsed with the source"),
    }
}

fn fits16(v: i64) -> bool {
    (-32768..=32767).contains(&v)
}

struct InsnCtx<'a> {
    line: usize,
    addr: u32,
    symbols: &'a HashMap<String, i64>,
    /// The sticky "this instruction needed an `IMM` prefix in an earlier
    /// round" flag: the encoding keeps the wide form so layout converges.
    wide: bool,
}

/// Encodes one instruction: the word, preceded by an `IMM` prefix when
/// its `Imm`/`Target` operand does not fit in 16 bits or `ctx.wide`.
fn encode(row: &Row, ops: &[Operand], ctx: &InsnCtx<'_>) -> Result<(Option<u32>, u32), AsmError> {
    let mut word = row.encode(0, 0, 0, 0);
    let mut prefix = None;
    for (&opnd, op) in row.syntax.iter().zip(ops) {
        let v = match op {
            Operand::Known(v) => *v,
            Operand::Expr(expr) => {
                let (what, range) = operand_range(opnd);
                let mut v = in_range(ctx.line, what, eval(ctx.line, expr, ctx.symbols)?, range)?;
                if opnd == Opnd::Target {
                    // PC-relative to the branch itself, after any prefix.
                    v -= i64::from(ctx.addr) + if ctx.wide { 4 } else { 0 };
                }
                let word = v as u32; // the two's-complement view
                if matches!(opnd, Opnd::Imm | Opnd::Target) && (ctx.wide || !fits16(v)) {
                    prefix = Some(word >> 16);
                }
                word
            }
        };
        word |= opnd.place(v);
    }
    let imm = isa::row("imm").expect("the table has the IMM prefix");
    Ok((prefix.map(|high| imm.encode(0, 0, 0, high)), word))
}

/// Assembles MicroBlaze source into an [`Image`].
///
/// # Errors
///
/// Returns the first [`AsmError`] (with line number) encountered: unknown
/// mnemonics/directives, malformed or out-of-range operands, undefined
/// symbols, or a location counter that leaves the 32-bit address space.
pub fn assemble(src: &str) -> Result<Image, AsmError> {
    let lines = parse_lines(src)?;
    let mut wide = vec![false; lines.len()];
    let mut symbols = HashMap::new();
    // Layout rounds: addresses and sticky wide flags to a fixed point.
    for round in 0..32 {
        let (defined, changed) = walk(&lines, &symbols, &mut wide, round == 0, None)?;
        let settled = !changed && defined == symbols;
        symbols = defined;
        if settled && round > 0 {
            break;
        }
    }
    let mut image = Image::default();
    walk(&lines, &symbols, &mut wide, false, Some(&mut image))?;
    image.symbols =
        symbols.into_iter().filter_map(|(k, v)| u32::try_from(v).ok().map(|v| (k, v))).collect();
    Ok(image)
}

/// One pass over the program: places every item, returning the symbols
/// it defines and whether a wide flag flipped. `symbols` are the
/// previous round's; `first` marks round 0, where an instruction that
/// fails to encode (a forward reference) is assumed narrow. With `image`
/// the pass also emits bytes.
fn walk(
    lines: &[Line],
    symbols: &HashMap<String, i64>,
    wide: &mut [bool],
    first: bool,
    mut image: Option<&mut Image>,
) -> Result<(HashMap<String, i64>, bool), AsmError> {
    let mut defined: HashMap<String, i64> = HashMap::new();
    let mut addr: u64 = 0;
    let mut changed = false;
    let emitting = image.is_some();
    let mut bytes: Vec<u8> = Vec::new();
    for (idx, l) in lines.iter().enumerate() {
        let no = l.no;
        // Directive operands may name symbols defined earlier in this
        // pass, or (for forward references) last round's.
        let value = |e: &str, defined: &HashMap<String, i64>| {
            eval(no, e, defined).or_else(|_| eval(no, e, symbols))
        };
        bytes.clear();
        let size = match &l.item {
            Item::Label(name) => {
                defined.insert(name.clone(), addr as i64);
                continue;
            }
            Item::Equ(name, e) => {
                let v = value(e, &defined)?;
                defined.insert(name.clone(), v);
                continue;
            }
            Item::Org(e) => {
                let v = value(e, &defined)?;
                addr = in_range(no, "`.org` address", v, (0, u32::MAX.into()))? as u64;
                continue;
            }
            Item::Word(vs) | Item::Half(vs) | Item::Byte(vs) => {
                let n: usize = match l.item {
                    Item::Word(_) => 4,
                    Item::Half(_) => 2,
                    _ => 1,
                };
                if emitting {
                    for e in vs {
                        let v = in_range(no, "value", eval(no, e, symbols)?, width(8 * n as u32))?;
                        bytes.extend_from_slice(&(v as u32).to_be_bytes()[4 - n..]);
                    }
                }
                (n * vs.len()) as u64
            }
            Item::Ascii(text) => {
                if emitting {
                    bytes.extend_from_slice(text);
                }
                text.len() as u64
            }
            Item::Space(e) => {
                let room = (1 << 32) - addr as i64;
                let n = in_range(no, "`.space` size", value(e, &defined)?, (0, room))? as u64;
                if emitting {
                    bytes.resize(n as usize, 0);
                }
                n
            }
            Item::Align(e) => {
                let v = value(e, &defined)?;
                let v = in_range(no, "`.align` boundary", v, (0, u32::MAX.into()))? as u64;
                let pad = if v > 0 { addr.next_multiple_of(v) - addr } else { 0 };
                if pad == 0 {
                    continue;
                }
                if emitting {
                    bytes.resize(pad as usize, 0);
                }
                pad
            }
            Item::Insn { row, ops } => {
                let ctx = InsnCtx { line: no, addr: addr as u32, symbols, wide: wide[idx] };
                match encode(row, ops, &ctx) {
                    Ok((prefix, word)) => {
                        if prefix.is_some() && !wide[idx] {
                            wide[idx] = true;
                            changed = true;
                        }
                        if emitting {
                            for w in prefix.into_iter().chain([word]) {
                                bytes.extend_from_slice(&w.to_be_bytes());
                            }
                        }
                    }
                    Err(_) if first => {}
                    Err(e) => return Err(e),
                }
                if wide[idx] {
                    8
                } else {
                    4
                }
            }
        };
        let end = addr + size;
        if end > 1 << 32 {
            return err(no, format!("location counter passes the 32-bit address space ({end:#x})"));
        }
        // `.space` and strings open a chunk even when empty; data lists
        // emit per value.
        let opens_chunk = matches!(l.item, Item::Space(_) | Item::Ascii(_));
        if let Some(image) = image.as_deref_mut().filter(|_| opens_chunk || !bytes.is_empty()) {
            image.emit(addr as u32, &bytes);
        }
        addr = end;
    }
    Ok((defined, changed))
}
