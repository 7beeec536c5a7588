//! `mb-asm` — assemble MicroBlaze source to a flat binary image.
//!
//! ```text
//! mb-asm input.s [-o out.bin] [--base ADDR] [--size BYTES] [--symbols] [--hex]
//! ```
//!
//! The output is the flattened window `[base, base + size)`; `--symbols`
//! prints the symbol table to stderr, `--hex` writes one word per line
//! instead of raw bytes.

use microblaze::asm::assemble;
use std::process::exit;

fn parse_num(s: &str) -> Option<u64> {
    if let Some(h) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(h, 16).ok()
    } else {
        s.parse().ok()
    }
}

const USAGE: &str =
    "usage: mb-asm input.s [-o out.bin] [--base ADDR] [--size BYTES] [--symbols] [--hex]";

/// Reports a command-line error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("mb-asm: {message}\n{USAGE}");
    exit(2);
}

/// The value after `flag`, converted by `parse`.
fn flag_value<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    match args.next() {
        Some(v) => parse(&v).unwrap_or_else(|| usage_error(&format!("bad value `{v}` for {flag}"))),
        None => usage_error(&format!("{flag} needs a value")),
    }
}

fn main() {
    let mut input = None;
    let mut output = None;
    let mut base: u32 = 0;
    let mut size: u64 = 0;
    let mut symbols = false;
    let mut hex = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-o" => output = Some(flag_value(&mut args, "-o", |v| Some(v.to_string()))),
            "--base" => {
                base = flag_value(&mut args, "--base", |v| parse_num(v)?.try_into().ok());
            }
            "--size" => size = flag_value(&mut args, "--size", parse_num),
            "--symbols" => symbols = true,
            "--hex" => hex = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if input.is_none() => input = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument `{other}`")),
        }
    }
    if u64::from(base) + size > 1 << 32 {
        usage_error("--base + --size passes the 32-bit address space");
    }
    let Some(input) = input else {
        usage_error("no input file");
    };
    let src = match std::fs::read_to_string(&input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{input}: {e}");
            exit(1);
        }
    };
    let img = match assemble(&src) {
        Ok(img) => img,
        Err(e) => {
            eprintln!("{input}:{e}");
            exit(1);
        }
    };
    if symbols {
        let mut syms: Vec<_> = img.symbols.iter().collect();
        syms.sort_by_key(|(_, a)| **a);
        for (name, addr) in syms {
            eprintln!("{addr:#010x} {name}");
        }
    }
    let end = img.chunks.iter().map(|(b, bytes)| *b as u64 + bytes.len() as u64).max().unwrap_or(0);
    let window = if size > 0 { size } else { end.saturating_sub(base as u64) }.max(4) as usize;
    if let Some(addr) = img.first_outside(base, window) {
        eprintln!("{input}: {addr:#010x} lies outside the output window {base:#010x}+{window:#x}");
        exit(1);
    }
    let flat = img.flatten(base, window);
    let out = output.unwrap_or_else(|| format!("{input}.bin"));
    let bytes = if hex {
        let mut text = String::new();
        for w in flat.chunks(4) {
            let mut word = [0u8; 4];
            word[..w.len()].copy_from_slice(w);
            text.push_str(&format!("{:08x}\n", u32::from_be_bytes(word)));
        }
        text.into_bytes()
    } else {
        flat
    };
    if let Err(e) = std::fs::write(&out, &bytes) {
        eprintln!("{out}: {e}");
        exit(1);
    }
    eprintln!("{out}: {} bytes from {base:#010x}", window);
}
