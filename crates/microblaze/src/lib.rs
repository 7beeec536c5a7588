//! # microblaze — instruction-set simulator, assembler and disassembler
//!
//! A functional model of the Xilinx MicroBlaze soft processor (the
//! integer, no-MMU configuration the MicroBlaze uClinux port of the DATE
//! 2005 paper targets), plus the tooling needed to author workloads:
//!
//! * [`Cpu`] — split-phase execution engine ([`Request`] / completion
//!   calls) so a cycle-accurate platform wrapper can stretch each memory
//!   access over bus cycles, with a one-call [`Cpu::step`] for functional
//!   use;
//! * [`isa`] — the instruction table, decoder and architectural constants;
//! * [`asm`] — two-pass assembler with automatic `IMM`-prefix sizing;
//! * [`disasm`] — disassembler;
//! * [`abi`] — C calling-convention register map (used by the paper's
//!   §5.4 `memset`/`memcpy` capture).
//!
//! ## Example: assemble and run
//!
//! ```
//! use microblaze::{asm::assemble, Cpu, FlatRam, Bus};
//! use microblaze::isa::Size;
//!
//! let img = assemble(r#"
//!         li   r3, 6            # factorial accumulator
//!         li   r4, 1
//! loop:   mul  r4, r4, r3
//!         addik r3, r3, -1
//!         bneid r3, loop
//!         nop
//!         swi  r4, r0, 0x100    # result -> memory
//! halt:   bri  halt
//! "#)?;
//! let mut ram = FlatRam::with_image(0x200, &img.flatten(0, 0x200));
//! let mut cpu = Cpu::new(0);
//! cpu.run(&mut ram, 1_000, |pc| pc == img.symbol("halt").unwrap())?;
//! assert_eq!(ram.read(0x100, Size::Word)?, 720);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod abi;
pub mod asm;
mod bus;
mod cpu;
pub mod disasm;
pub mod isa;

pub use bus::{be, Bus, BusFault, FlatRam};
pub use cpu::{Completion, Cpu, CpuSnapshot, Request, Retired};

#[cfg(test)]
mod exec_tests {
    use super::isa::{self, msr, Size};
    use super::*;

    /// Assembles, runs up to `max` steps or until `halt` label, returns
    /// (cpu, ram).
    fn run(src: &str, max: u64) -> (Cpu, FlatRam) {
        let img = asm::assemble(src).expect("assemble");
        let mut ram = FlatRam::with_image(0x4000, &img.flatten(0, 0x4000));
        let mut cpu = Cpu::new(0);
        let halt = img.symbol("halt");
        cpu.run(&mut ram, max, |pc| Some(pc) == halt).expect("run");
        (cpu, ram)
    }

    #[test]
    fn arith_carry_chain() {
        let (cpu, _) = run(
            r#"
            li   r3, -1
            addik r4, r0, 1
            add  r5, r3, r4        # 0xFFFFFFFF + 1 = 0, carry out
            addc r6, r0, r0        # r6 = carry = 1
            add  r7, r0, r0        # clears carry
            addc r8, r0, r0        # r8 = 0
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), 0);
        assert_eq!(cpu.reg(6), 1);
        assert_eq!(cpu.reg(8), 0);
    }

    #[test]
    fn rsub_and_cmp() {
        let (cpu, _) = run(
            r#"
            li   r3, 10
            li   r4, 3
            rsub r5, r4, r3        # r5 = r3 - r4 = 7
            cmp  r6, r3, r4        # ra=10 > rb=3 -> MSB set
            cmp  r7, r4, r3        # 3 > 10 false -> MSB clear
            li   r8, -1
            cmpu r9, r8, r4        # unsigned: 0xFFFFFFFF > 3 -> MSB set
            cmp  r10, r8, r4       # signed: -1 > 3 false -> MSB clear
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), 7);
        assert!(cpu.reg(6) & 0x8000_0000 != 0);
        assert!(cpu.reg(7) & 0x8000_0000 == 0);
        assert!(cpu.reg(9) & 0x8000_0000 != 0);
        assert!(cpu.reg(10) & 0x8000_0000 == 0);
    }

    #[test]
    fn subtract_borrow_semantics() {
        // RSUB's carry-out is the NOT-borrow, as on real hardware:
        // rb >= ra  =>  carry set.
        let (cpu, _) = run(
            r#"
            li    r3, 5
            li    r4, 7
            rsub  r5, r3, r4       # 7 - 5 = 2, no borrow -> C = 1
            addc  r6, r0, r0       # r6 = 1
            rsub  r7, r4, r3       # 5 - 7 = -2, borrow -> C = 0
            addc  r8, r0, r0       # r8 = 0
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), 2);
        assert_eq!(cpu.reg(6), 1);
        assert_eq!(cpu.reg(7), (-2i32) as u32);
        assert_eq!(cpu.reg(8), 0);
    }

    #[test]
    fn multiply_variants() {
        let (cpu, _) = run(
            r#"
            li    r3, -3
            li    r4, 100
            mul   r5, r3, r4       # low(-300)
            mulh  r6, r3, r4       # high(-300) = 0xFFFFFFFF
            mulhu r7, r3, r4       # high(0xFFFFFFFD * 100)
            muli  r8, r4, 7        # 700
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), (-300i32) as u32);
        assert_eq!(cpu.reg(6), 0xFFFF_FFFF);
        assert_eq!(cpu.reg(7), ((0xFFFF_FFFDu64 * 100) >> 32) as u32);
        assert_eq!(cpu.reg(8), 700);
    }

    #[test]
    fn divide() {
        let (cpu, _) = run(
            r#"
            li    r3, 7
            li    r4, -63
            idiv  r5, r3, r4       # rd = rb / ra = -63 / 7 = -9
            li    r6, 63
            idivu r7, r3, r6       # 63 / 7 = 9
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), (-9i32) as u32);
        assert_eq!(cpu.reg(7), 9);
    }

    #[test]
    fn divide_by_zero_traps() {
        let img = asm::assemble(
            r#"
            .org 0x20
            bri  handler           # hw exception vector
            .org 0x100
start:      li   r3, 5
            idiv r4, r0, r3        # divide by zero
            bri  start
handler:
halt:       bri  halt
        "#,
        )
        .unwrap();
        let mut ram = FlatRam::with_image(0x1000, &img.flatten(0, 0x1000));
        let mut cpu = Cpu::new(0x100);
        let halt = img.symbol("halt").unwrap();
        cpu.run(&mut ram, 100, |pc| pc == halt).unwrap();
        assert_eq!(cpu.pc(), halt);
        assert!(cpu.msr() & msr::DZ != 0);
        assert_eq!(cpu.esr() & 0x1F, isa::esr::DIV_ZERO);
        assert_eq!(cpu.reg(4), 0);
    }

    #[test]
    fn barrel_shifts() {
        let (cpu, _) = run(
            r#"
            li    r3, -16
            li    r4, 2
            bsra  r5, r3, r4       # -16 >> 2 = -4
            bsrl  r6, r3, r4       # logical
            bsll  r7, r4, r4       # 2 << 2 = 8
            bsrai r8, r3, 3        # -2
            bslli r9, r4, 10       # 2048
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), (-4i32) as u32);
        assert_eq!(cpu.reg(6), 0xFFFF_FFF0u32 >> 2);
        assert_eq!(cpu.reg(7), 8);
        assert_eq!(cpu.reg(8), (-2i32) as u32);
        assert_eq!(cpu.reg(9), 2048);
    }

    #[test]
    fn single_bit_shifts_and_carry() {
        let (cpu, _) = run(
            r#"
            li    r3, 5            # 0b101
            sra   r4, r3           # 2, C=1
            src   r5, r4           # C(1) << 31 | 1, C=0
            srl   r6, r3           # 2, C=1
            sext8 r7, r3
            li    r8, 0x80
            sext8 r9, r8           # -128
            li    r10, 0x1234
            sext16 r11, r10
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(4), 2);
        assert_eq!(cpu.reg(5), 0x8000_0001);
        assert_eq!(cpu.reg(6), 2);
        assert_eq!(cpu.reg(7), 5);
        assert_eq!(cpu.reg(9), (-128i32) as u32);
        assert_eq!(cpu.reg(11), 0x1234);
    }

    #[test]
    fn logic_and_pcmp() {
        let (cpu, _) = run(
            r#"
            li     r3, 0xF0F0
            li     r4, 0x0FF0
            and    r5, r3, r4
            or     r6, r3, r4
            xor    r7, r3, r4
            andn   r8, r3, r4
            pcmpeq r9, r3, r4
            pcmpeq r10, r3, r3
            pcmpne r11, r3, r4
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(5), 0x00F0);
        assert_eq!(cpu.reg(6), 0xFFF0);
        assert_eq!(cpu.reg(7), 0xFF00);
        assert_eq!(cpu.reg(8), 0xF000);
        assert_eq!(cpu.reg(9), 0);
        assert_eq!(cpu.reg(10), 1);
        assert_eq!(cpu.reg(11), 1);
    }

    #[test]
    fn loads_stores_big_endian() {
        let (cpu, _ram) = run(
            r#"
            li    r3, 0x11223344
            swi   r3, r0, 0x200
            lbui  r4, r0, 0x200    # MSB first
            lbui  r5, r0, 0x203
            lhui  r6, r0, 0x202
            lwi   r7, r0, 0x200
            sbi   r3, r0, 0x210    # stores low byte 0x44
            lbui  r8, r0, 0x210
            shi   r3, r0, 0x212
            lhui  r9, r0, 0x212
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(4), 0x11);
        assert_eq!(cpu.reg(5), 0x44);
        assert_eq!(cpu.reg(6), 0x3344);
        assert_eq!(cpu.reg(7), 0x1122_3344);
        assert_eq!(cpu.reg(8), 0x44);
        assert_eq!(cpu.reg(9), 0x3344);
    }

    #[test]
    fn unaligned_access_traps() {
        let img = asm::assemble(
            r#"
            .org 0x20
halt:       bri  halt
            .org 0x100
start:      li   r3, 0x201
            lw   r4, r3, r0
            bri  start
        "#,
        )
        .unwrap();
        let mut ram = FlatRam::with_image(0x1000, &img.flatten(0, 0x1000));
        let mut cpu = Cpu::new(0x100);
        cpu.run(&mut ram, 50, |pc| pc == 0x20).unwrap();
        assert_eq!(cpu.esr() & 0x1F, isa::esr::UNALIGNED);
        assert_eq!(cpu.ear(), 0x201);
    }

    #[test]
    fn delay_slot_executes_before_jump() {
        let (cpu, _) = run(
            r#"
            li    r3, 1
            brid  over
            addik r3, r3, 10       # delay slot: runs
            addik r3, r3, 100      # skipped
over:       addik r4, r3, 0
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(4), 11);
    }

    #[test]
    fn conditional_branch_loop() {
        let (cpu, _) = run(
            r#"
            li    r3, 10
            li    r4, 0
loop:       addik r4, r4, 2
            addik r3, r3, -1
            bneid r3, loop
            nop
halt:       bri halt
        "#,
            200,
        );
        assert_eq!(cpu.reg(4), 20);
        assert_eq!(cpu.reg(3), 0);
    }

    #[test]
    fn subroutine_call_and_return() {
        let (cpu, _) = run(
            r#"
            li     r5, 21
            brlid  r15, double
            nop                    # delay slot of the call
            addik  r6, r3, 0       # after return
halt:       bri halt

double:     addk   r3, r5, r5
            rtsd   r15, 8
            nop                    # return delay slot
        "#,
            100,
        );
        assert_eq!(cpu.reg(6), 42);
    }

    #[test]
    fn imm_prefix_builds_32bit_constants() {
        let (cpu, _) = run(
            r#"
            li    r3, 0xDEADBEEF
            li    r4, 0x12345678
            imm   0xABCD
            addik r5, r0, 0x1234   # explicit imm pair
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(3), 0xDEAD_BEEF);
        assert_eq!(cpu.reg(4), 0x1234_5678);
        assert_eq!(cpu.reg(5), 0xABCD_1234);
    }

    #[test]
    fn msr_ops_and_special_regs() {
        let (cpu, _) = run(
            r#"
            msrset r3, 0x2         # set IE, r3 = old MSR
            mfs    r4, rmsr
            msrclr r5, 0x2
            mfs    r6, rmsr
            mfs    r7, rpc
halt:       bri halt
        "#,
            100,
        );
        assert_eq!(cpu.reg(3) & msr::IE, 0);
        assert!(cpu.reg(4) & msr::IE != 0);
        assert_eq!(cpu.reg(6) & msr::IE, 0);
        // mfs r7, rpc is the 5th instruction (each 4 bytes).
        assert_eq!(cpu.reg(7), 16);
    }

    #[test]
    fn interrupt_entry_and_return() {
        let img = asm::assemble(
            r#"
            .org 0x10
            bri  isr               # interrupt vector
            .org 0x100
start:      msrset r0, 0x2         # IE on
            li     r3, 0
spin:       addik  r3, r3, 1
            bri    spin
isr:        li     r4, 0x99
            rtid   r14, 0
            nop
        "#,
        )
        .unwrap();
        let mut ram = FlatRam::with_image(0x1000, &img.flatten(0, 0x1000));
        let mut cpu = Cpu::new(0x100);
        for _ in 0..5 {
            cpu.step(&mut ram).unwrap();
        }
        assert!(cpu.interruptible());
        let resume_pc = cpu.pc();
        cpu.take_interrupt();
        assert_eq!(cpu.pc(), 0x10);
        assert!(cpu.msr() & msr::IE == 0);
        assert_eq!(cpu.reg(14), resume_pc);
        // Run the ISR until it returns: bri isr; li; rtid; nop(delay).
        for _ in 0..4 {
            cpu.step(&mut ram).unwrap();
        }
        assert_eq!(cpu.reg(4), 0x99);
        assert!(cpu.msr() & msr::IE != 0, "rtid must re-enable interrupts");
        assert_eq!(cpu.pc(), resume_pc);
    }

    #[test]
    fn interrupt_inhibited_in_delay_and_imm() {
        let img = asm::assemble(
            r#"
start:      msrset r0, 0x2
            brid   target
            nop
target:     imm    0x1234
            addik  r3, r0, 1
halt:       bri halt
        "#,
        )
        .unwrap();
        let mut ram = FlatRam::with_image(0x1000, &img.flatten(0, 0x1000));
        let mut cpu = Cpu::new(0);
        cpu.step(&mut ram).unwrap(); // msrset
        cpu.step(&mut ram).unwrap(); // brid: delay pending
        assert!(!cpu.interruptible(), "delay slot pending");
        cpu.step(&mut ram).unwrap(); // nop in slot
        assert!(cpu.interruptible());
        cpu.step(&mut ram).unwrap(); // imm
        assert!(!cpu.interruptible(), "imm pair in flight");
        cpu.step(&mut ram).unwrap(); // addik completes the pair
        assert!(cpu.interruptible());
        assert_eq!(cpu.reg(3), 0x1234_0001);
    }

    #[test]
    fn illegal_opcode_traps() {
        let mut ram = FlatRam::new(0x100);
        ram.write(0x40, 0xFFFF_FFFF, Size::Word).unwrap();
        let mut cpu = Cpu::new(0x40);
        let r = cpu.step(&mut ram).unwrap();
        assert_eq!(r.exception, Some(isa::esr::ILLEGAL));
        assert_eq!(cpu.pc(), isa::vectors::HW_EXCEPTION);
        assert_eq!(cpu.reg(17), 0x44);
    }

    #[test]
    fn data_bus_error_traps() {
        let img = asm::assemble("start: lwi r3, r0, 0x2000\nhalt: bri halt").unwrap();
        let mut ram = FlatRam::with_image(0x100, &img.flatten(0, 0x100));
        let mut cpu = Cpu::new(0);
        let r = cpu.step(&mut ram).unwrap();
        assert_eq!(r.exception, Some(isa::esr::DBUS_ERROR));
        assert_eq!(cpu.pc(), isa::vectors::HW_EXCEPTION);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (cpu, _) = run(
            r#"
            addik r0, r0, 55
            addik r3, r0, 0
halt:       bri halt
        "#,
            10,
        );
        assert_eq!(cpu.reg(0), 0);
        assert_eq!(cpu.reg(3), 0);
    }
}

#[cfg(test)]
mod asm_tests {
    use super::asm::assemble;

    #[test]
    fn labels_and_directives() {
        let img = assemble(
            r#"
            .org 0x50
            .equ MAGIC, 0x1234
entry:      li r3, MAGIC
data:       .word 0xAABBCCDD, 42
text:       .asciz "hi"
            .align 4
buf:        .space 8
end:
        "#,
        )
        .unwrap();
        assert_eq!(img.symbol("entry"), Some(0x50));
        let data = img.symbol("data").unwrap();
        assert_eq!(data, 0x54, "li with a small value is a single insn");
        assert_eq!(img.symbol("text"), Some(data + 8));
        let buf = img.symbol("buf").unwrap();
        assert_eq!(buf % 4, 0);
        assert_eq!(img.symbol("end"), Some(buf + 8));
        let flat = img.flatten(0x50, 0x40);
        assert_eq!(&flat[4..8], &[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(&flat[8..12], &[0, 0, 0, 42]);
        assert_eq!(&flat[12..15], b"hi\0");
    }

    #[test]
    fn wide_immediates_get_imm_prefix() {
        let img = assemble("li r3, 0x12345678").unwrap();
        let flat = img.flatten(0, 8);
        let w0 = u32::from_be_bytes(flat[0..4].try_into().unwrap());
        let w1 = u32::from_be_bytes(flat[4..8].try_into().unwrap());
        assert_eq!(w0 >> 26, 0x2C, "first word is IMM");
        assert_eq!(w0 & 0xFFFF, 0x1234);
        assert_eq!(w1 & 0xFFFF, 0x5678);
    }

    #[test]
    fn narrow_immediates_stay_narrow() {
        let img = assemble("li r3, -5").unwrap();
        assert_eq!(img.size(), 4);
    }

    #[test]
    fn forward_branch_resolves() {
        let img = assemble(
            r#"
start:      bri  fwd
            nop
fwd:        nop
        "#,
        )
        .unwrap();
        let flat = img.flatten(0, img.size());
        let w0 = u32::from_be_bytes(flat[0..4].try_into().unwrap());
        assert_eq!(w0 >> 26, 0x2E);
        assert_eq!(w0 & 0xFFFF, 8, "relative displacement to fwd");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\n bogus r1, r2\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("bogus"));
        let e = assemble("addik r3, r0, nosuchsym").unwrap_err();
        assert!(e.message.contains("nosuchsym"));
    }

    #[test]
    fn comments_and_blank_lines() {
        let img = assemble("\n# full line comment\nnop // trailing\nnop ; also\n  \n").unwrap();
        assert_eq!(img.size(), 8);
    }

    #[test]
    fn label_plus_offset_expressions() {
        let img = assemble(
            r#"
base:       .space 16
            li r3, base+8
            li r4, base-4+20
        "#,
        )
        .unwrap();
        let flat = img.flatten(0, img.size());
        let w = u32::from_be_bytes(flat[16..20].try_into().unwrap());
        assert_eq!(w & 0xFFFF, 8);
        let w = u32::from_be_bytes(flat[20..24].try_into().unwrap());
        assert_eq!(w & 0xFFFF, 16);
    }
}
