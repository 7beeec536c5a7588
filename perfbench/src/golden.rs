//! Pinned simulated results. Every timed op is checked against these,
//! so a speed figure can never come from a wrong simulation.
//!
//! The values were recorded with the simulator as it stood when the
//! benchmark was defined; a change that moves any of them changes what
//! is simulated, not how fast, and must be re-pinned deliberately.

/// What a full boot of one rung at one workload scale must produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootGolden {
    /// Clock cycles from reset to `DONE_MARKER`.
    pub cycles: u64,
    /// Instructions retired (capture-accounted included).
    pub instructions: u64,
    /// `mbsim::arch_digest` of the final architectural state (registers,
    /// PC, MSR, GPIO and the whole console transcript).
    pub digest: u64,
}

/// Lines the console transcript of every boot must contain.
pub const BANNER: [&str; 2] = ["Linux version 2.0.38.4-uclinux", "Sash command shell"];

/// Rung 6 ("Red. scheduling"), the fastest cycle-accurate rung.
pub fn rung6(scale: u32) -> Option<BootGolden> {
    match scale {
        1 => Some(BootGolden {
            cycles: 743_288,
            instructions: 109_004,
            digest: 0xa49f_059b_d4c3_22cc,
        }),
        _ => None,
    }
}

/// Rung 11 ("DMI backdoor"): rung 9 timing plus DMI grants.
pub fn rung11(scale: u32) -> Option<BootGolden> {
    match scale {
        1 => Some(BootGolden {
            cycles: 133_219,
            instructions: 110_641,
            digest: 0xb521_ac53_75c7_fa46,
        }),
        16 => Some(BootGolden {
            cycles: 1_962_041,
            instructions: 1_672_543,
            digest: 0x8921_f495_8f39_c92b,
        }),
        _ => None,
    }
}

/// Rung-6 boot cycles at `scale`: the cycle-accurate reference that
/// `accuracy.timing_error` compares a compromised-accuracy boot with.
pub fn rung6_cycles(scale: u32) -> Option<u64> {
    match scale {
        16 => Some(11_418_940),
        _ => rung6(scale).map(|g| g.cycles),
    }
}

/// Instructions the RTL countdown programme retires in its first
/// [`crate::rtl::SLICE_CYCLES`]-cycle slice (the end of the
/// six-instruction prologue and the first loop iteration).
pub const RTL_FIRST_SLICE_RETIRED: u64 = 8;
/// Instructions retired in every later slice: one iteration of the
/// seven-instruction loop. The loop's timing does not depend on its
/// data, so this holds for every seed.
pub const RTL_RETIRED_PER_SLICE: u64 = 7;
