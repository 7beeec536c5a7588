//! Self-checks of the fuzzing harness: the oracles *detect* planted
//! divergences, replay is bit-exact, shrinking is deterministic and
//! minimal, and the campaign batch runner keeps findings in seed order.

use diffuzz::iss_rtl::{self, CODE_SLOTS, HALT, NOP};
use diffuzz::{fuzz_oracle, run_seed, shrink, Oracle};

/// Encodes `mnemonic` through the instruction table.
fn enc(mnemonic: &str, rd: u32, ra: u32, rb: u32, imm: u32) -> u32 {
    microblaze::isa::row(mnemonic).expect("table row").encode(rd, ra, rb, imm)
}

/// `addik rd, r0, imm`.
fn addik(rd: u32, imm: u32) -> u32 {
    enc("addik", rd, 0, 0, imm)
}

/// A program whose body is `insns` padded with NOPs, halt-terminated.
fn program(insns: &[u32]) -> Vec<u32> {
    let mut prog = vec![NOP; CODE_SLOTS + 1];
    prog[..insns.len()].copy_from_slice(insns);
    prog[CODE_SLOTS] = HALT;
    prog
}

#[test]
fn lockstep_oracle_agrees_on_a_handwritten_program() {
    // r1 = 5; r2 = 7; r3 = r1 + r2.
    let add = enc("add", 3, 1, 2, 0);
    iss_rtl::check_program(&program(&[addik(1, 5), addik(2, 7), add])).unwrap();
}

#[test]
fn lockstep_oracle_detects_an_out_of_subset_divergence() {
    // `cmp r3, r1, r2` (reg-form 0x05 with low11 bit 0) is outside the
    // RTL subset: the RTL retires it as a NOP while the ISS computes a
    // result into r3. The oracle must flag the register divergence —
    // this is the negative control proving the diff has teeth.
    let cmp = enc("cmp", 3, 1, 2, 0);
    let err = iss_rtl::check_program(&program(&[addik(1, 5), addik(2, 7), cmp])).unwrap_err();
    assert!(err.contains("r3"), "divergence should name the register: {err}");
}

#[test]
fn lockstep_oracle_detects_planted_memory_divergence() {
    // `shi r1, r0, addr`, a *halfword* store: the RTL only implements
    // word stores and retires others as NOPs, so the data regions differ.
    let sh = enc("shi", 1, 0, 0, iss_rtl::DATA_BASE);
    let err = iss_rtl::check_program(&program(&[addik(1, 0x1234), sh])).unwrap_err();
    assert!(err.contains("data word") || err.contains("r"), "unexpected detail: {err}");
}

#[test]
fn replay_is_bit_identical() {
    for seed in [0u64, 7, 99, 12345] {
        assert_eq!(iss_rtl::gen_program(seed), iss_rtl::gen_program(seed));
        assert_eq!(
            diffuzz::bitstream_fuzz::gen_events(seed),
            diffuzz::bitstream_fuzz::gen_events(seed)
        );
        assert_eq!(diffuzz::access_fuzz::gen_ops(seed), diffuzz::access_fuzz::gen_ops(seed));
    }
}

#[test]
fn planted_failure_shrinks_to_the_culprit() {
    // Plant a 3-instruction divergence (the CMP from the negative
    // control) in a full-size random-looking body of NOP-equivalent
    // arithmetic, then ddmin it with the real oracle as the predicate.
    let cmp = enc("cmp", 3, 1, 2, 0);
    let mut body = vec![NOP; CODE_SLOTS];
    body[10] = addik(1, 5);
    body[20] = addik(2, 7);
    body[30] = cmp;
    let mut prog = body.clone();
    prog.push(HALT);
    assert!(iss_rtl::check_program(&prog).is_err());

    let mask = shrink::shrink_mask(CODE_SLOTS, |mask| {
        diffuzz::caught(|| iss_rtl::check_program(&iss_rtl::apply_mask(&prog, mask))).is_err()
    });
    let kept = shrink::kept(&mask);
    // CMP of two zero registers writes 0 — indistinguishable from the
    // RTL's NOP — so the true minimum is the CMP plus exactly one of
    // the register set-ups. ddmin must find that pair, nothing more.
    assert_eq!(kept, 2, "expected CMP + one setup to survive, kept {kept}");
    assert!(mask[30], "the planted CMP must survive");
    assert!(mask[10] ^ mask[20], "exactly one register set-up must survive");

    // Determinism: the same predicate shrinks to the same mask.
    let again = shrink::shrink_mask(CODE_SLOTS, |mask| {
        diffuzz::caught(|| iss_rtl::check_program(&iss_rtl::apply_mask(&prog, mask))).is_err()
    });
    assert_eq!(mask, again);
}

#[test]
fn batch_runner_matches_serial_execution() {
    // The pooled campaign path must report exactly what serial
    // per-seed execution reports (here: nothing), over every oracle.
    for oracle in Oracle::ALL {
        let report = fuzz_oracle(oracle, 100, 24, 2);
        assert_eq!(report.seeds_run, 24);
        let serial: Vec<u64> = (100..124).filter(|&s| run_seed(oracle, s).is_err()).collect();
        let pooled: Vec<u64> = report.findings.iter().map(|f| f.seed).collect();
        assert_eq!(pooled, serial, "{} pooled vs serial findings differ", oracle.name());
    }
}

#[test]
fn checkpoint_split_does_not_change_the_verdict() {
    for seed in 0..4u64 {
        for split in [1usize, 5, 17] {
            assert_eq!(
                iss_rtl::run_seed(seed),
                iss_rtl::run_seed_with_iss_checkpoint(seed, split),
                "seed {seed} split {split}: checkpoint round-trip changed the verdict"
            );
        }
    }
}

#[test]
fn generated_programs_match_their_pinned_digest() {
    // The committed `iss_rtl.seeds` corpus names programs by seed, so
    // the generator's output per seed is part of its contract.
    let mut bytes = Vec::with_capacity(1000 * 4 * (CODE_SLOTS + 1));
    for seed in 0..1000 {
        for w in iss_rtl::gen_program(seed) {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
    }
    let got = campaign::fnv1a(&bytes);
    assert_eq!(got, 0x702e148453752bf6);
}
