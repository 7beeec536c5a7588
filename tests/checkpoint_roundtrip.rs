//! Checkpoint round-trip properties (DESIGN.md §14).
//!
//! Two contracts pinned here:
//!
//! * **save → restore → save is the identity** on the blob: restoring a
//!   snapshot onto a freshly elaborated identical platform and
//!   checkpointing again must reproduce the original blob byte for byte
//!   (and therefore its fingerprint) — on every bootable ladder rung and
//!   under every runnable-queue [`ScheduleOrder`]. Anything less means
//!   some state was dropped, defaulted, or perturbed by the restore.
//! * **malformed input is a typed error, never a panic**: truncation at
//!   every length, arbitrary single-bit corruption, wrong version words
//!   and wrong magic all come back as a [`CkptError`] variant.

use checkpoint::{read_header, CkptError};
use mbsim::harness::build_boot_sim_ordered;
use mbsim::{build_boot_sim, ModelKind, ALL_MODELS};
use proptest::prelude::*;
use std::sync::OnceLock;
use sysc::{Native, ScheduleOrder};
use vanillanet::Platform;
use workload::{Boot, BootParams, DONE_MARKER};

const BUDGET: u64 = 12_000_000;

fn boot() -> &'static Boot {
    static BOOT: OnceLock<Boot> = OnceLock::new();
    BOOT.get_or_init(|| Boot::build(BootParams { scale: 1, reconfig: false }))
}

/// A mid-boot snapshot of the NativeData rung, shared by the
/// malformed-input property tests (the blob is plain bytes, so it can
/// cross threads even though a platform cannot).
fn reference_blob() -> &'static [u8] {
    static BLOB: OnceLock<Vec<u8>> = OnceLock::new();
    BLOB.get_or_init(|| {
        let sim = build_boot_sim(ModelKind::NativeData, boot()).expect("boot sim");
        assert!(sim.run_until_gpio(3, BUDGET), "must reach phase marker 3");
        sim.checkpoint(false).expect("checkpoint")
    })
}

/// A fresh restore target matching [`reference_blob`]'s configuration.
/// No image is loaded: restore must fully repopulate memory itself.
fn fresh_target() -> Platform<Native> {
    Platform::<Native>::build(&ModelKind::NativeData.model_config()).expect("platform build")
}

#[test]
fn save_restore_save_is_byte_identical_on_every_rung_and_order() {
    let orders =
        [ScheduleOrder::Fifo, ScheduleOrder::Lifo, ScheduleOrder::SeededShuffle(0x00C0_FFEE)];
    for &kind in ALL_MODELS.iter().filter(|k| !k.is_rtl()) {
        for order in orders {
            let a = build_boot_sim_ordered(kind, boot(), order).expect("boot sim");
            assert!(a.run_until_gpio(3, BUDGET), "{kind}/{order:?}: must reach phase marker 3");
            let first = a.checkpoint(false).expect("first save");

            let b = build_boot_sim_ordered(kind, boot(), order).expect("boot sim");
            b.restore(&first).expect("restore");
            let second = b.checkpoint(false).expect("save after restore");

            let (h1, _) = read_header(&first).expect("first blob validates");
            let (h2, _) = read_header(&second).expect("second blob validates");
            assert_eq!(
                h1.fingerprint, h2.fingerprint,
                "{kind}/{order:?}: fingerprint changed across save/restore/save"
            );
            assert!(
                first == second,
                "{kind}/{order:?}: blob not byte-identical across save/restore/save \
                 ({} vs {} bytes)",
                first.len(),
                second.len()
            );
        }
    }
}

#[test]
fn restore_rejects_a_blob_from_a_different_configuration() {
    let sim = build_boot_sim(ModelKind::ReducedScheduling2, boot()).expect("boot sim");
    assert!(sim.run_until_gpio(3, BUDGET), "must reach phase marker 3");
    let blob = sim.checkpoint(false).expect("checkpoint");
    assert_eq!(
        fresh_target().restore(&blob),
        Err(CkptError::Corrupt("model configuration mismatch")),
        "a snapshot must only restore onto its own model configuration"
    );
}

#[test]
fn wrong_magic_and_wrong_version_are_typed_errors() {
    let blob = reference_blob();

    let mut bad_magic = blob.to_vec();
    bad_magic[0] ^= 0xFF;
    assert_eq!(fresh_target().restore(&bad_magic), Err(CkptError::BadMagic));

    let mut bad_version = blob.to_vec();
    bad_version[4] = 0xCD;
    bad_version[5] = 0xAB;
    assert_eq!(fresh_target().restore(&bad_version), Err(CkptError::UnsupportedVersion(0xABCD)));

    // Version 1 predates kernel-driven clocks (its KERN section has a
    // clock generator process and no clock timed entries): refused up
    // front rather than misread.
    let mut v1 = blob.to_vec();
    v1[4..6].copy_from_slice(&1u16.to_le_bytes());
    assert_eq!(fresh_target().restore(&v1), Err(CkptError::UnsupportedVersion(1)));

    assert_eq!(fresh_target().restore(&[]), Err(CkptError::Truncated));
    let mut grown = blob.to_vec();
    grown.push(0);
    assert_eq!(
        fresh_target().restore(&grown),
        Err(CkptError::Truncated),
        "a blob longer than its declared payload must not validate"
    );
}

/// `Platform::build` runs no cycles, so a checkpoint can be taken before
/// the clock's first edge. Restored onto a fresh platform, that clock
/// must still start on the first run and reproduce the uninterrupted
/// boot exactly.
#[test]
fn never_run_checkpoint_restores_a_clock_that_still_starts() {
    let kind = ModelKind::KernelCapture;
    let a = build_boot_sim(kind, boot()).expect("boot sim");
    let blob = a.checkpoint(false).expect("checkpoint before the first cycle");
    assert!(a.run_until_gpio(DONE_MARKER, BUDGET), "uninterrupted boot must complete");

    let b = build_boot_sim(kind, boot()).expect("boot sim");
    b.restore(&blob).expect("restore");
    assert_eq!(b.cycles(), 0, "restored at time zero");
    assert!(b.run_until_gpio(DONE_MARKER, BUDGET), "restored boot must complete");
    assert_eq!(b.cycles(), a.cycles(), "boot cycle count");
    assert_eq!(b.instructions(), a.instructions(), "retired instructions");
    assert_eq!(b.arch_snapshot(), a.arch_snapshot(), "architectural state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncation at any length — header-only prefixes, mid-section cuts,
    /// off-by-one at the very end — is a typed error, never a panic.
    #[test]
    fn truncated_blob_is_a_typed_error(len: usize) {
        let blob = reference_blob();
        let cut = len % blob.len();
        let err = fresh_target().restore(&blob[..cut]).expect_err("truncated blob must not restore");
        prop_assert!(
            matches!(err, CkptError::Truncated | CkptError::FingerprintMismatch),
            "unexpected error for truncation at {cut}: {err:?}"
        );
    }

    /// Any single-bit flip is caught — payload flips by the fingerprint,
    /// header flips by the magic/version/length checks.
    #[test]
    fn corrupted_blob_is_a_typed_error(pos: usize, bit: u8) {
        let mut blob = reference_blob().to_vec();
        let pos = pos % blob.len();
        blob[pos] ^= 1 << (bit % 8);
        let err = fresh_target().restore(&blob).expect_err("corrupted blob must not restore");
        // Any variant is acceptable; reaching here without a panic is
        // the property. Exercise Display while we hold a real error.
        prop_assert!(!err.to_string().is_empty());
    }
}

/// Checkpoint-under-fuzz (diffuzz tie-in): restoring the ISS mid-way
/// through a lockstep co-simulation run must not change the fuzzing
/// verdict. The diffuzz ISS-vs-RTL oracle exposes a variant that
/// serializes the CPU + memory through the checkpoint layer after a
/// chosen retirement and resumes from the restored state; for any seed
/// the interrupted run and the uninterrupted run must agree exactly —
/// on these known-clean seeds, both agree on `Ok`.
#[test]
fn lockstep_fuzz_verdict_survives_a_midstream_checkpoint() {
    for seed in [0u64, 3, 11, 42] {
        let uninterrupted = diffuzz::iss_rtl::run_seed(seed);
        assert_eq!(uninterrupted, Ok(()), "seed {seed} must be clean to begin with");
        for split in [2usize, 9, 33] {
            assert_eq!(
                diffuzz::iss_rtl::run_seed_with_iss_checkpoint(seed, split),
                uninterrupted,
                "seed {seed}: checkpoint/restore after retirement {split} changed the verdict"
            );
        }
    }
}
