//! `mb-run` — assemble and run a MicroBlaze programme on the functional
//! ISS (flat RAM, no platform), printing registers at the end.
//!
//! ```text
//! mb-run input.s [--max N] [--trace] [--ram BYTES] [--entry ADDR|label]
//! ```
//!
//! Execution stops at a `halt:`-labelled branch-to-self, after `--max`
//! instructions, or on a bus fault. `--trace` disassembles every retired
//! instruction to stderr.

use microblaze::asm::assemble;
use microblaze::disasm::disassemble;
use microblaze::{Cpu, FlatRam};
use std::process::exit;

const USAGE: &str = "usage: mb-run input.s [--max N] [--trace] [--ram BYTES] [--entry ADDR|label]";

/// Reports a command-line error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("mb-run: {message}\n{USAGE}");
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
    let mut max: u64 = 10_000_000;
    let mut trace = false;
    let mut ram_size: usize = 1 << 20;
    let mut entry: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--max" => max = flag_value(&mut args, "--max", |v| v.parse().ok()),
            "--trace" => trace = true,
            "--ram" => {
                // The RAM maps from address 0, so it cannot pass 4 GiB.
                ram_size = flag_value(&mut args, "--ram", |v| {
                    v.parse().ok().filter(|&n: &usize| n as u64 <= 1 << 32)
                });
            }
            "--entry" => entry = Some(flag_value(&mut args, "--entry", |v| Some(v.to_string()))),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if input.is_none() => input = Some(other.to_string()),
            other => usage_error(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(input) = input else {
        usage_error("no input file");
    };
    let src = std::fs::read_to_string(&input).unwrap_or_else(|e| {
        eprintln!("{input}: {e}");
        exit(1);
    });
    let img = assemble(&src).unwrap_or_else(|e| {
        eprintln!("{input}:{e}");
        exit(1);
    });
    if let Some(addr) = img.first_outside(0, ram_size) {
        eprintln!("{input}: {addr:#010x} lies outside the {ram_size:#x}-byte RAM");
        exit(1);
    }
    let start = match entry.as_deref() {
        None => img.symbol("_start").unwrap_or(0),
        Some(e) => img
            .symbol(e)
            .or_else(|| e.strip_prefix("0x").and_then(|h| u32::from_str_radix(h, 16).ok()))
            .unwrap_or_else(|| {
                eprintln!("unknown entry `{e}`");
                exit(2);
            }),
    };
    let halt = img.symbol("halt");
    let mut ram = FlatRam::with_image(ram_size, &img.flatten(0, ram_size));
    let mut cpu = Cpu::new(start);

    let mut n = 0;
    while n < max {
        if Some(cpu.pc()) == halt {
            break;
        }
        if trace {
            if let Ok(word) = microblaze::Bus::fetch(&mut ram, cpu.pc()) {
                eprintln!("{:08x}: {}", cpu.pc(), disassemble(word));
            }
        }
        match cpu.step(&mut ram) {
            Ok(_) => n += 1,
            Err(e) => {
                eprintln!("stopped: {e}");
                break;
            }
        }
    }
    println!(
        "retired {} instructions, pc = {:#010x}, msr = {:#010x}",
        cpu.retired_count(),
        cpu.pc(),
        cpu.msr()
    );
    for row in 0..8 {
        let cols: Vec<String> =
            (0..4).map(|c| format!("r{:<2}={:08x}", row * 4 + c, cpu.reg(row * 4 + c))).collect();
        println!("{}", cols.join("  "));
    }
}
