//! `mb-asm` and `mb-run` report bad command lines and images that do
//! not fit, with exit status 2 for a usage error and 1 for an input
//! error, and never panic.

use std::path::PathBuf;
use std::process::Command;

/// Writes `src` to a per-test source file and returns its path.
fn source(name: &str, src: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("mb_cli_{}_{name}.s", std::process::id()));
    std::fs::write(&path, src).expect("write test source");
    path
}

/// Runs `bin` with `args` and returns (exit code, stderr).
fn run(bin: &str, args: &[&str]) -> (i32, String) {
    let out = Command::new(bin).args(args).output().expect("run the binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{bin} {args:?} panicked: {stderr}");
    (out.status.code().expect("exit code"), stderr)
}

const MB_ASM: &str = env!("CARGO_BIN_EXE_mb-asm");
const MB_RUN: &str = env!("CARGO_BIN_EXE_mb-run");

#[test]
fn mb_asm_rejects_bad_flag_values_with_a_usage_error() {
    let path = source("asm_flags", "nop\n");
    let src = path.to_str().unwrap();
    for args in [
        vec![src, "--base", "zero"],
        vec![src, "--base", "0x100000000"],
        vec![src, "--size", "-4"],
        vec![src, "--size"],
        vec![src, "--base", "0xFFFFFFF0", "--size", "0x20"],
    ] {
        let (code, stderr) = run(MB_ASM, &args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn mb_asm_reports_an_image_outside_its_window() {
    let src_path = source("asm_window", ".org 0x100\nnop\nnop\n");
    let out_path = src_path.with_extension("bin");
    let (src, out) = (src_path.to_str().unwrap(), out_path.to_str().unwrap());
    for args in [[src, "-o", out, "--base", "0x104"], [src, "-o", out, "--size", "0x104"]] {
        let (code, stderr) = run(MB_ASM, &args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains("outside the output window"), "{args:?}: {stderr}");
    }
    let (code, stderr) = run(MB_ASM, &[src, "-o", out, "--base", "0x100", "--size", "8"]);
    assert_eq!(code, 0, "{stderr}");
    assert_eq!(std::fs::read(out).unwrap(), [0x80, 0, 0, 0, 0x80, 0, 0, 0]);
    std::fs::remove_file(&src_path).ok();
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn mb_run_rejects_bad_flag_values_with_a_usage_error() {
    let path = source("run_flags", "halt: bri halt\n");
    let src = path.to_str().unwrap();
    for args in [
        vec![src, "--max", "lots"],
        vec![src, "--ram", "1M"],
        vec![src, "--ram", "4294967297"],
        vec![src, "--entry"],
    ] {
        let (code, stderr) = run(MB_RUN, &args);
        assert_eq!(code, 2, "{args:?}: {stderr}");
        assert!(stderr.contains("usage"), "{args:?}: {stderr}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn mb_run_reports_an_image_larger_than_its_ram() {
    let path = source("run_ram", ".org 0x40\nhalt: bri halt\n");
    let (code, stderr) = run(MB_RUN, &[path.to_str().unwrap(), "--ram", "16"]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("outside"), "{stderr}");
    std::fs::remove_file(path).ok();
}
