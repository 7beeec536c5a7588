//! Assembler coverage: directive corner cases, error reporting, layout
//! convergence with forward references, and encoding details that the
//! execution tests do not reach.

use microblaze::asm::{assemble, AsmError};
use microblaze::disasm::disassemble;
use microblaze::isa::{decode, Op};

fn first_word(src: &str) -> u32 {
    let img = assemble(src).unwrap();
    let flat = img.flatten(0, 4);
    u32::from_be_bytes(flat[0..4].try_into().unwrap())
}

#[test]
fn org_moves_the_cursor_and_symbols_follow() {
    let img = assemble(
        "
        .org 0x100
a:      nop
        .org 0x200
b:      nop
        .org 0x180
c:      nop
    ",
    )
    .unwrap();
    assert_eq!(img.symbol("a"), Some(0x100));
    assert_eq!(img.symbol("b"), Some(0x200));
    assert_eq!(img.symbol("c"), Some(0x180));
    assert_eq!(img.chunks.len(), 3, "non-contiguous chunks");
}

#[test]
fn equ_and_arithmetic_in_operands() {
    let img = assemble(
        "
        .equ BASE, 0x1000
        .equ SIZE, 0x20
        li r3, BASE+SIZE
        li r4, BASE-16
    ",
    )
    .unwrap();
    let flat = img.flatten(0, img.size());
    assert_eq!(u32::from_be_bytes(flat[0..4].try_into().unwrap()) & 0xFFFF, 0x1020);
    assert_eq!(u32::from_be_bytes(flat[4..8].try_into().unwrap()) & 0xFFFF, 0x0FF0);
}

#[test]
fn half_and_byte_directives_pack_big_endian() {
    let img = assemble(".half 0x1234, 0x5678\n.byte 1, 2, 0xFF\n").unwrap();
    let flat = img.flatten(0, 7);
    assert_eq!(flat, vec![0x12, 0x34, 0x56, 0x78, 1, 2, 0xFF]);
}

#[test]
fn string_escapes() {
    let img = assemble(r#".ascii "a\n\t\r\0\\\"b""#).unwrap();
    let flat = img.flatten(0, img.size());
    assert_eq!(flat, b"a\n\t\r\0\\\"b");
}

#[test]
fn align_pads_with_zeros() {
    let img = assemble(".byte 1\n.align 8\nx: .byte 2\n").unwrap();
    assert_eq!(img.symbol("x"), Some(8));
    let flat = img.flatten(0, 9);
    assert_eq!(flat[0], 1);
    assert_eq!(&flat[1..8], &[0; 7]);
    assert_eq!(flat[8], 2);
}

#[test]
fn multiple_labels_on_one_line() {
    let img = assemble("a: b: c: nop\n").unwrap();
    for l in ["a", "b", "c"] {
        assert_eq!(img.symbol(l), Some(0));
    }
}

#[test]
fn char_literals() {
    let w = first_word("li r3, 'A'");
    assert_eq!(w & 0xFFFF, 65);
}

#[test]
fn error_messages_name_the_problem() {
    let cases: [(&str, &str); 6] = [
        ("addik r3, r0", "expects 3 operands"),
        ("addik r99, r0, 1", "out of range"),
        ("addik r3, 5, 1", "expected register"),
        ("mfs r3, rfoo", "unknown special register"),
        (".bogus 3", "unknown directive"),
        ("bslli r3, r0, 40", "out of range"),
    ];
    for (src, needle) in cases {
        let e: AsmError = assemble(src).unwrap_err();
        assert!(
            e.message.contains(needle),
            "`{src}` should report `{needle}`, got `{}`",
            e.message
        );
    }
}

#[test]
fn forward_branch_chain_converges() {
    // A chain of forward branches where early sizes depend on later
    // label positions; the layout loop must reach a fixed point.
    let img = assemble(
        "
start:  bri  l1
        nop
l1:     bri  l2
        nop
l2:     bri  l3
        .space 0x100
l3:     nop
    ",
    )
    .unwrap();
    let l3 = img.symbol("l3").unwrap();
    let l2 = img.symbol("l2").unwrap();
    assert_eq!(l3 - l2, 4 + 0x100);
}

#[test]
fn far_forward_branch_gets_imm_prefix() {
    let img = assemble(
        "
start:  bri  far
        .space 0x20000
far:    nop
    ",
    )
    .unwrap();
    let flat = img.flatten(0, img.size());
    let w0 = u32::from_be_bytes(flat[0..4].try_into().unwrap());
    assert_eq!(w0 >> 26, 0x2C, "IMM prefix for a >32k displacement");
    // Displacement accounts for the branch sitting after the IMM.
    let w1 = u32::from_be_bytes(flat[4..8].try_into().unwrap());
    let disp = ((w0 & 0xFFFF) << 16) | (w1 & 0xFFFF);
    assert_eq!(disp, img.symbol("far").unwrap() - 4);
}

#[test]
fn all_carry_variants_encode_distinctly() {
    let words = [
        first_word("add r1, r2, r3"),
        first_word("addc r1, r2, r3"),
        first_word("addk r1, r2, r3"),
        first_word("addkc r1, r2, r3"),
        first_word("rsub r1, r2, r3"),
        first_word("rsubc r1, r2, r3"),
        first_word("rsubk r1, r2, r3"),
        first_word("rsubkc r1, r2, r3"),
    ];
    let unique: std::collections::HashSet<_> = words.iter().collect();
    assert_eq!(unique.len(), 8);
    // Opcode layout: bit0 = sub, bit1 = use-carry, bit2 = keep.
    let expect = [0x00u32, 0x02, 0x04, 0x06, 0x01, 0x03, 0x05, 0x07];
    for (w, e) in words.iter().zip(expect) {
        assert_eq!(*w >> 26, e, "opcode layout");
    }
}

#[test]
fn branch_family_flags() {
    assert!(matches!(
        decode(first_word("brad r5")).op,
        Op::Br { abs: true, link: false, delay: true }
    ));
    assert!(matches!(
        decode(first_word("brld r15, r5")).op,
        Op::Br { abs: false, link: true, delay: true }
    ));
    assert!(matches!(
        decode(first_word("bralid r15, 0x100")).op,
        Op::Br { abs: true, link: true, delay: true }
    ));
    assert!(matches!(decode(first_word("brki r16, 0x18")).op, Op::Brk));
    assert!(matches!(decode(first_word("brk r16, r5")).op, Op::Brk));
}

#[test]
fn store_then_disassemble_whole_program() {
    // Every word of a representative program must disassemble to
    // something readable (no panics, no `.word` for valid encodings).
    let img = assemble(
        "
        li    r5, 0x80001000
        lwi   r6, r5, 0
        swi   r6, r5, 4
        beqid r6, done
        nop
        rtsd  r15, 8
        nop
done:   nop
    ",
    )
    .unwrap();
    let flat = img.flatten(0, img.size());
    for chunk in flat.chunks(4) {
        let raw = u32::from_be_bytes(chunk.try_into().unwrap());
        let text = disassemble(raw);
        assert!(!text.starts_with(".word"), "{raw:#010x} -> {text}");
    }
}

#[test]
fn image_helpers() {
    let img = assemble("x: .word 0x11223344\n").unwrap();
    assert_eq!(img.size(), 4);
    let mut collected = Vec::new();
    img.load_into(|a, b| collected.push((a, b)));
    assert_eq!(collected, vec![(0, 0x11), (1, 0x22), (2, 0x33), (3, 0x44)]);
}

#[test]
fn cache_ops_decode_with_any_rb_and_disassemble_to_their_own_mnemonic() {
    // The sub-code lives in the low 11 bits; rb sits above it.
    let wdc = first_word("wdc r3, r5");
    assert_eq!(wdc, 0x9003_2864);
    assert_eq!(decode(wdc).op, Op::CacheOp);
    assert_eq!(disassemble(wdc), "wdc r3, r5");
    let wic = first_word("wic r3, r0");
    assert_eq!(wic, 0x9003_0068);
    assert_eq!(disassemble(wic), "wic r3, r0");
    assert_eq!(decode(first_word("wic r3, r5")).op, Op::CacheOp);
}

#[test]
fn msr_set_and_clear_take_a_full_15_bit_mask() {
    let set = first_word("msrset r3, 0x4000");
    assert_eq!(set, 0x9460_4000);
    assert_eq!(decode(set).op, Op::Msrset);
    let clr = first_word("msrclr r3, 0x7fff");
    assert_eq!(decode(clr).op, Op::Msrclr);
    assert_eq!(disassemble(clr), "msrclr r3, 0x7fff");
}

#[test]
fn negative_space_is_an_error() {
    let e = assemble("nop\n.space -1\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("out of range"), "{e}");
}

#[test]
fn location_counter_overflow_is_an_error() {
    // The last word of the address space is usable; one more is not.
    assert!(assemble(".org 0xFFFFFFFC\nnop\n").is_ok());
    let e = assemble(".org 0xFFFFFFFC\nnop\nnop\n").unwrap_err();
    assert_eq!(e.line, 3);
    assert!(e.message.contains("address space"), "{e}");
}

#[test]
fn overflowing_expressions_and_non_ascii_strings_are_errors() {
    let e = assemble("li r3, 0x7FFFFFFFFFFFFFFF+1").unwrap_err();
    assert!(e.message.contains("overflows"), "{e}");
    let e = assemble(".ascii \"caf\u{e9}\"").unwrap_err();
    assert!(e.message.contains("non-ASCII"), "{e}");
}

#[test]
fn imm_value_wider_than_16_bits_is_an_error() {
    let e = assemble("imm 0x123456789").unwrap_err();
    assert!(e.message.contains("out of range"), "{e}");
    assert_eq!(first_word("imm 0xdead"), 0xB000_DEAD);
    assert_eq!(first_word("imm -1"), 0xB000_FFFF);
}

#[test]
fn unknown_mnemonic_is_rejected_when_parsed() {
    // Reported before layout, so ahead of line 1's undefined symbol.
    let e = assemble("li r3, nosuch\nbogus r1\n").unwrap_err();
    assert_eq!(e.line, 2);
    assert!(e.message.contains("unknown mnemonic `bogus`"), "{e}");
}

#[test]
fn values_outside_the_signed_16_bit_range_take_an_imm_prefix() {
    // 0xFFFFFFFF and -1 are the same 32-bit value, but only -1 is
    // written as one; logic masks 0x8000..=0xFFFF are widened too.
    for (src, words) in [
        ("li r3, -1", 1),
        ("li r3, 0xFFFFFFFF", 2),
        ("ori r3, r3, 0x7FFF", 1),
        ("ori r3, r3, 0x8000", 2),
        ("andi r3, r3, 0xFFFF", 2),
    ] {
        assert_eq!(assemble(src).unwrap().size(), 4 * words, "{src}");
    }
}
