//! `boot_accurate` and `boot_dmi`: one op is one cold boot of the
//! synthetic uClinux workload, from `Platform::build` to `DONE_MARKER`.
//! The end-to-end run times the boot in fixed cycle chunks, the traced
//! run phase by phase.

use crate::golden::{self, BootGolden, BANNER};
use crate::reference::Timing;
use crate::trace::Tracer;
use crate::{probe_split, Bench, Counts, OpStats, Segment};
use mbsim::{arch_digest, ModelKind};
use std::time::Instant;
use sysc::Native;
use vanillanet::{CaptureSymbols, Platform};
use workload::{memcpy_cost, memset_cost, Boot, BootParams, DONE_MARKER, PHASE_COUNT};

/// Builds rung `kind`'s platform with `boot` loaded and its runtime
/// toggles applied. Rungs 6 and 11 use native wires and no VCD trace.
pub fn build_platform(kind: ModelKind, boot: &Boot) -> std::io::Result<Platform<Native>> {
    let mut config = kind.model_config();
    config.capture =
        Some(CaptureSymbols { memset: boot.memset, memcpy: boot.memcpy, memset_cost, memcpy_cost });
    let p = Platform::<Native>::build(&config)?;
    p.load_image(&boot.image);
    kind.apply_toggles(p.toggles());
    Ok(p)
}

/// Simulated cycles per timed chunk of an end-to-end boot: some 10 to
/// 40 host ms, short enough that the reference loop run after each
/// chunk sees the host's speed while the chunk ran.
pub const CHUNK_CYCLES: u64 = 20_000;

/// Cycle budget for one boot phase: far above any phase's length, so
/// only a hung model runs into it.
pub fn phase_budget(scale: u32) -> u64 {
    6_000_000 * u64::from(scale.max(1))
}

/// Layer counts of `p` since it was built.
pub fn platform_counts(p: &Platform<Native>) -> Counts {
    let s = p.sim().stats();
    let c = p.counters();
    Counts {
        cycles: p.cycles(),
        activations: s.activations,
        deltas: s.deltas,
        updates: s.updates,
        timed_steps: s.timed_steps,
        insns: p.instructions(),
        opb_transfers: c.opb_transfers.get(),
        dmi_hits: c.dmi_hits.get(),
        dmi_misses: c.dmi_misses.get(),
        ..Counts::default()
    }
}

/// Checks a finished boot against its golden values.
pub fn boot_matches(p: &Platform<Native>, golden: &BootGolden) -> bool {
    let console = p.console().borrow().output_string();
    p.cycles() == golden.cycles
        && p.instructions() == golden.instructions
        && arch_digest(&p.snapshot()) == golden.digest
        && BANNER.iter().all(|line| console.contains(line))
}

/// The boot benchmark state.
#[derive(Debug)]
pub struct BootBench {
    kind: ModelKind,
    boot: Boot,
    golden: BootGolden,
    /// Time the boot in [`CHUNK_CYCLES`] chunks rather than by phase.
    chunked: bool,
    /// The last op's booted platform, kept for the traced run's one-off
    /// checkpoint measurement.
    last: Option<Platform<Native>>,
}

impl BootBench {
    /// Assembles the workload at `scale` for rung `kind`; `chunked`
    /// times ops in fixed cycle chunks, otherwise phase by phase.
    /// Returns the bench and the assembly time in seconds.
    pub fn setup(kind: ModelKind, scale: u32, golden: BootGolden, chunked: bool) -> (Self, f64) {
        let t = Instant::now();
        let boot = Boot::build(BootParams { scale, reconfig: false });
        let secs = t.elapsed().as_secs_f64();
        (BootBench { kind, boot, golden, chunked, last: None }, secs)
    }

    /// The golden values for `kind` at `scale`, if pinned.
    pub fn golden_for(kind: ModelKind, scale: u32) -> Option<BootGolden> {
        match kind {
            ModelKind::ReducedScheduling => golden::rung6(scale),
            ModelKind::DmiBackdoor => golden::rung11(scale),
            _ => None,
        }
    }
}

impl Bench for BootBench {
    fn op(&mut self, k: u64, tr: &mut Tracer, probe: bool) -> OpStats {
        let mut st = OpStats::default();
        let budget = phase_budget(self.boot.params.scale);
        let span = tr.begin("Platform::build", k, 0);
        let Ok(p) = build_platform(self.kind, &self.boot) else { return st };
        st.build = Some(Timing::after(tr.end(span)));
        if probe {
            p.sim().probe_enable();
        }
        // Reset stub up to the first marker: part of the op, not of the
        // paper's ten measured phases.
        let span = tr.begin("run_until_gpio", k, 0);
        let reached = p.run_until_gpio(1, budget);
        st.stub = Some(Timing::after(tr.end(span)));
        let reached = reached
            && if self.chunked {
                run_chunks(&p, self.golden.cycles, k, tr, &mut st.segments)
            } else {
                run_phases(&p, budget, k, tr, &mut st.segments)
            };
        if !reached {
            return st;
        }
        let span = tr.begin("stats+counters", k, 0);
        st.counts = platform_counts(&p);
        if probe {
            let split = probe_split(p.sim());
            st.counts.thread_activations = split.thread_activations;
            st.counts.probed_activations = split.probed_activations;
        }
        tr.end(span);
        st.ok = boot_matches(&p, &self.golden);
        self.last = Some(p);
        st
    }

    fn corrupt_golden(&mut self) {
        self.golden.digest ^= 1;
    }

    fn checkpoint_costs(&mut self, tr: &mut Tracer) -> Option<(f64, f64, usize)> {
        let p = self.last.as_ref()?;
        let span = tr.begin("checkpoint", u64::MAX, 0);
        let blob = p.checkpoint(false).ok()?;
        let save = tr.end(span);
        let fresh = build_platform(self.kind, &self.boot).ok()?;
        let span = tr.begin("restore", u64::MAX, 0);
        fresh.restore(&blob).ok()?;
        let restore = tr.end(span);
        boot_matches(&fresh, &self.golden).then_some((save, restore, blob.len()))
    }
}

/// Runs phases 1 to 10 with one `run_until_gpio` each, keyed by phase.
fn run_phases(
    p: &Platform<Native>,
    budget: u64,
    k: u64,
    tr: &mut Tracer,
    segments: &mut Vec<Segment>,
) -> bool {
    for phase in 1..=PHASE_COUNT {
        let (cycles0, insns0) = (p.cycles(), p.instructions());
        let target = if phase == PHASE_COUNT { DONE_MARKER } else { phase + 1 };
        let span = tr.begin("run_until_gpio", k, u64::from(phase));
        let reached = p.run_until_gpio(target, budget);
        let time = Timing::after(tr.end(span));
        if !reached {
            return false;
        }
        segments.push(Segment {
            key: u64::from(phase),
            cycles: p.cycles() - cycles0,
            insns: p.instructions() - insns0,
            time,
        });
    }
    true
}

/// Runs phases 1 to 10 as `run_until_cycle` calls of [`CHUNK_CYCLES`]
/// from the end of the reset stub, then one `run_until_gpio` to the
/// done marker at cycle `end`; segment `i` is chunk `i`. The boot is a
/// fixed programme, so chunk `i` is the same work in every op.
fn run_chunks(
    p: &Platform<Native>,
    end: u64,
    k: u64,
    tr: &mut Tracer,
    segments: &mut Vec<Segment>,
) -> bool {
    let mut i = 0;
    loop {
        let (cycles0, insns0) = (p.cycles(), p.instructions());
        let target = cycles0 + CHUNK_CYCLES;
        let last = target >= end;
        let span = tr.begin(if last { "run_until_gpio" } else { "run_until_cycle" }, k, i);
        let reached = if last {
            p.run_until_gpio(DONE_MARKER, 2 * CHUNK_CYCLES)
        } else {
            p.run_until_cycle(target);
            p.cycles() == target
        };
        let time = Timing::after(tr.end(span));
        if !reached {
            return false;
        }
        segments.push(Segment {
            key: i,
            cycles: p.cycles() - cycles0,
            insns: p.instructions() - insns0,
            time,
        });
        if last {
            return true;
        }
        i += 1;
    }
}
