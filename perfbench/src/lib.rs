//! # perfbench — simulation speed of the VanillaNet model ladder
//!
//! A closed-loop, single-threaded benchmark: each op starts when the
//! previous one finishes, every op checks its simulated result against
//! pinned values, and a run reports the end-to-end metrics (tracing off)
//! or the per-layer metrics and cost reconciliation (tracing on). See
//! `NOTES.md` beside this crate for the workloads and the cost model.

pub mod boot;
pub mod calib;
pub mod golden;
pub mod reference;
pub mod rtl;
pub mod selftest;
pub mod trace;

use boot::BootBench;
use calib::UnitCosts;
use mbsim::ModelKind;
use reference::Timing;
use rtl::RtlBench;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold full boot on rung 6, the fastest cycle-accurate rung.
    BootAccurate,
    /// Cold full boot on rung 11, the DMI backdoor.
    BootDmi,
    /// The RTL countdown programme in fixed cycle slices.
    RtlCountdown,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::BootAccurate, Workload::BootDmi, Workload::RtlCountdown];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BootAccurate => "boot_accurate",
            Workload::BootDmi => "boot_dmi",
            Workload::RtlCountdown => "rtl_countdown",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The ladder rung the workload simulates.
    pub fn rung(self) -> ModelKind {
        match self {
            Workload::BootAccurate => ModelKind::ReducedScheduling,
            Workload::BootDmi => ModelKind::DmiBackdoor,
            Workload::RtlCountdown => ModelKind::RtlHdl,
        }
    }

    /// How the workload's host time scales with the reference loop's
    /// (see [`reference`]) when other tenants contend for the host: the
    /// exponent in time ∝ loop time^s. The RTL design's 36 MB working
    /// set makes it slow with the shared cache more than with the core
    /// that other tenants contend for, so it slows less than the loop.
    /// Measured on a contended 2-vCPU Xeon VM as the log-log slope of
    /// the workload's speed against the loop's: 0.85–1.18 for the
    /// platform workloads over ten runs each, and for RTL 0.62 over ten
    /// runs and 0.54 over 3-second stretches of one long run.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Workload::RtlCountdown => 0.6,
            _ => 1.0,
        }
    }

    /// Boot workload scale. Rung 6 boots at scale 1, so that a run
    /// repeats every chunk of the boot some twenty times. Rung 11's boot
    /// takes a sixth of the cycles at a faster rate, so it boots at
    /// scale 16 (scale 1 at minimal size).
    fn scale(self, minimal: bool) -> u32 {
        match (self, minimal) {
            (Workload::BootDmi, false) => 16,
            _ => 1,
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds of timed ops (the traced run alternates untraced
    /// and traced ops over them).
    pub seconds: f64,
    /// Per-layer run instead of end-to-end run.
    pub trace: bool,
    /// Smallest sizes, for the self-test.
    pub minimal: bool,
    /// Corrupt one golden value, for the self-test.
    pub corrupt_golden: bool,
}

/// Deterministic seed expansion (SplitMix64). The benchmark keeps its
/// own rather than borrowing the fuzzer's, so that a change to the
/// program can never change which inputs a seed selects.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Work counted in each layer over some simulated cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated clock cycles.
    pub cycles: u64,
    /// Kernel process activations.
    pub activations: u64,
    /// Of the activations seen with the probe on, those of threads.
    pub thread_activations: u64,
    /// Activations seen with the probe on.
    pub probed_activations: u64,
    /// Delta cycles.
    pub deltas: u64,
    /// Committed signal updates.
    pub updates: u64,
    /// Timed steps.
    pub timed_steps: u64,
    /// ISS instructions retired.
    pub insns: u64,
    /// Pin-level OPB transfers.
    pub opb_transfers: u64,
    /// DMI-hit accesses.
    pub dmi_hits: u64,
    /// DMI lookups that missed.
    pub dmi_misses: u64,
    /// RTL instructions retired.
    pub rtl_retired: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.activations += o.activations;
        self.thread_activations += o.thread_activations;
        self.probed_activations += o.probed_activations;
        self.deltas += o.deltas;
        self.updates += o.updates;
        self.timed_steps += o.timed_steps;
        self.insns += o.insns;
        self.opb_transfers += o.opb_transfers;
        self.dmi_hits += o.dmi_hits;
        self.dmi_misses += o.dmi_misses;
        self.rtl_retired += o.rtl_retired;
    }

    /// `self − o`, field by field (for counters that only grow).
    pub fn minus(&self, o: &Counts) -> Counts {
        Counts {
            cycles: self.cycles - o.cycles,
            activations: self.activations - o.activations,
            thread_activations: self.thread_activations - o.thread_activations,
            probed_activations: self.probed_activations - o.probed_activations,
            deltas: self.deltas - o.deltas,
            updates: self.updates - o.updates,
            timed_steps: self.timed_steps - o.timed_steps,
            insns: self.insns - o.insns,
            opb_transfers: self.opb_transfers - o.opb_transfers,
            dmi_hits: self.dmi_hits - o.dmi_hits,
            dmi_misses: self.dmi_misses - o.dmi_misses,
            rtl_retired: self.rtl_retired - o.rtl_retired,
        }
    }

    fn per_cycle(&self, n: u64) -> f64 {
        n as f64 / self.cycles.max(1) as f64
    }
}

/// The activations the kernel probe has seen on `sim` since it was
/// enabled, and how many of them were thread activations.
pub fn probe_split(sim: &sysc::Simulator) -> Counts {
    let g = sim.design_graph();
    let sum = |threads_only: bool| {
        g.processes
            .iter()
            .filter(|p| !threads_only || p.kind == sysc::ProcKind::Thread)
            .map(|p| p.activations)
            .sum()
    };
    Counts { thread_activations: sum(true), probed_activations: sum(false), ..Counts::default() }
}

/// One timed simulation-advancing call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// What was simulated: the boot phase or chunk, or the RTL slice
    /// shape. Segments with equal keys simulate identical work.
    pub key: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Host time.
    pub time: Timing,
}

/// The outcome of one op.
#[derive(Debug, Clone, Default)]
pub struct OpStats {
    /// The simulated result matched its golden values.
    pub ok: bool,
    /// The op's simulation-advancing calls.
    pub segments: Vec<Segment>,
    /// Layer counts over the op's simulated cycles.
    pub counts: Counts,
    /// `Platform::build` time.
    pub build: Option<Timing>,
    /// Time of a boot's reset stub, up to the first phase marker.
    pub stub: Option<Timing>,
}

/// A workload's op loop.
pub trait Bench {
    /// Runs op `k`, recording spans on `tr`; `probe` asks for the
    /// kernel probe's thread/method activation split.
    fn op(&mut self, k: u64, tr: &mut Tracer, probe: bool) -> OpStats;
    /// Breaks one golden value, so every later op must fail.
    fn corrupt_golden(&mut self);
    /// One checkpoint save and restore of a finished op's state:
    /// (save seconds, restore seconds, blob bytes).
    fn checkpoint_costs(&mut self, _tr: &mut Tracer) -> Option<(f64, f64, usize)> {
        None
    }
    /// The probe's thread/method split for workloads whose ops do not
    /// report it themselves.
    fn probe_pass(&mut self, _tr: &mut Tracer) -> Counts {
        Counts::default()
    }
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Peak resident set size in MiB (`VmHWM`), 0 if unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Stable name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics in emission order.
#[derive(Debug, Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric { name: name.into(), value, unit });
    }
}

/// A run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// No op failed and setup met its goldens.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed a check or panicked.
    pub failed: u64,
    /// Metrics in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub text: String,
    /// Chrome trace-event JSON of the traced ops (traced runs only).
    pub trace_json: Option<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ =
                write!(s, "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit);
        }
        s.push_str("}}");
        s
    }
}

/// The paper's simulation speed for the workload's rung, measured on
/// the authors' 2004 host.
fn paper_khz(w: Workload) -> Option<f64> {
    match w {
        Workload::BootAccurate | Workload::RtlCountdown => w.rung().paper_cps_khz(),
        _ => None,
    }
}

/// Set-up timings: `setup` at the nominal host speed (see
/// [`reference`]), assembly and RTL build in host seconds.
#[derive(Default)]
struct Setups {
    setup: Vec<f64>,
    assemble: Vec<f64>,
    build: Vec<f64>,
}

/// Sets the workload up several times, keeping the last bench. The
/// shorter a set-up, the more often it repeats: a boot's is only the
/// assembler (under 1 ms), RTL's the assembler and `RtlSystem::new`
/// (some 20 ms).
fn setup(o: &Options) -> (Box<dyn Bench>, Setups) {
    let reps = match (o.minimal, o.workload) {
        (true, _) => 1,
        (false, Workload::BootAccurate | Workload::BootDmi) => 101,
        (false, Workload::RtlCountdown) => 15,
    };
    let mut times = Setups::default();
    let mut bench = None;
    for _ in 0..reps {
        // One bench at a time, so that peak RSS counts one set-up.
        drop(bench.take());
        let t = Instant::now();
        let (b, asm): (Box<dyn Bench>, f64) = match o.workload {
            Workload::BootAccurate | Workload::BootDmi => {
                let kind = o.workload.rung();
                let scale = o.workload.scale(o.minimal);
                let golden = BootBench::golden_for(kind, scale).expect("goldens pinned");
                let (b, asm) = BootBench::setup(kind, scale, golden, !o.trace);
                (Box::new(b), asm)
            }
            Workload::RtlCountdown => {
                let (b, asm, build) = RtlBench::setup(o.seed);
                times.build.push(build);
                (Box::new(b), asm)
            }
        };
        let secs = Timing::after(t.elapsed().as_secs_f64());
        times.setup.push(secs.normalised(o.workload.host_sensitivity()));
        times.assemble.push(asm);
        bench = Some(b);
    }
    (bench.expect("at least one set-up"), times)
}

/// Runs ops until `seconds` have passed (at least one op, two with
/// `alternate`). With `alternate`, every odd op is traced (spans and
/// probe on), so traced and untraced ops interleave and host-speed
/// drift hits both alike. Also returns the peak RSS right after the
/// first op: later ops only recycle memory, and how much of it the
/// allocator keeps resident depends on how many ops the run happened
/// to fit in.
fn op_loop(
    bench: &mut dyn Bench,
    seconds: f64,
    tr: &mut Tracer,
    alternate: bool,
) -> (Vec<OpStats>, f64) {
    let t0 = Instant::now();
    let mut ops = Vec::new();
    let mut rss = 0.0;
    let mut k = 0;
    let min_ops = if alternate { 2 } else { 1 };
    while ops.len() < min_ops || t0.elapsed().as_secs_f64() < seconds {
        let traced = alternate && k % 2 == 1;
        tr.set_on(traced);
        let span = tr.begin("op", k, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| bench.op(k, tr, traced)));
        let st = r.unwrap_or_default();
        tr.end(span);
        if ops.is_empty() {
            rss = peak_rss_mb();
        }
        ops.push(st);
        k += 1;
    }
    (ops, rss)
}

/// Ops attempted and failed, and the layer counts summed over ok ops.
struct Totals {
    attempted: u64,
    failed: u64,
    counts: Counts,
}

fn totals(ops: &[OpStats]) -> Totals {
    let mut t = Totals { attempted: 0, failed: 0, counts: Counts::default() };
    for op in ops {
        t.attempted += 1;
        if op.ok {
            t.counts.add(&op.counts);
        } else {
            t.failed += 1;
        }
    }
    t
}

/// Each distinct segment of the ok ops once, with the median of its
/// host times. On a shared host the median over the repeats of equal
/// pieces of work is steadier from run to run than their mean or their
/// fastest.
fn typical_segments(ops: &[OpStats]) -> Vec<Segment> {
    let mut by_key: BTreeMap<u64, (Segment, Vec<f64>)> = BTreeMap::new();
    for seg in ops.iter().filter(|o| o.ok).flat_map(|o| &o.segments) {
        by_key.entry(seg.key).or_insert((*seg, Vec::new())).1.push(seg.time.secs);
    }
    by_key
        .into_values()
        .map(|(seg, secs)| Segment { time: Timing { secs: median(&secs), ..seg.time }, ..seg })
        .collect()
}

/// An op's timed calls as (call, key, time). Calls with equal names
/// and keys do equal work in every op.
fn timed_calls(op: &OpStats) -> Vec<(&'static str, u64, Timing)> {
    let mut calls: Vec<_> = op.segments.iter().map(|g| ("run", g.key, g.time)).collect();
    let others = [("build", op.build), ("stub", op.stub)];
    calls.extend(others.into_iter().filter_map(|(name, time)| Some((name, 0, time?))));
    calls
}

/// The ok ops of workload `w` at the nominal host speed: every timed
/// call at the median normalised time (see [`reference`]) of the same
/// call and key in the run. Returns (Σ cycles, Σ instructions, Σ seconds of the
/// simulation-advancing calls, mean seconds per op).
fn at_nominal_speed(w: Workload, ops: &[OpStats]) -> (u64, u64, f64, f64) {
    let ok: Vec<&OpStats> = ops.iter().filter(|o| o.ok).collect();
    let mut by_call: BTreeMap<(&str, u64), Vec<f64>> = BTreeMap::new();
    for (name, key, time) in ok.iter().flat_map(|o| timed_calls(o)) {
        by_call.entry((name, key)).or_default().push(time.normalised(w.host_sensitivity()));
    }
    let typical: BTreeMap<_, f64> = by_call.into_iter().map(|(c, v)| (c, median(&v))).collect();
    let (mut cycles, mut insns, mut run_secs, mut op_secs) = (0, 0, 0.0, 0.0);
    for op in &ok {
        for g in &op.segments {
            cycles += g.cycles;
            insns += g.insns;
            run_secs += typical[&("run", g.key)];
        }
        op_secs += timed_calls(op).iter().map(|&(name, key, _)| typical[&(name, key)]).sum::<f64>();
    }
    (cycles, insns, run_secs, op_secs / ok.len().max(1) as f64)
}

/// (Σ cycles, Σ instructions, Σ host seconds) of `segs`.
fn sums<'a>(segs: impl IntoIterator<Item = &'a Segment>) -> (u64, u64, f64) {
    segs.into_iter().fold((0, 0, 0.0), |(c, i, s), g| (c + g.cycles, i + g.insns, s + g.time.secs))
}

fn ok_values(ops: &[OpStats], f: impl Fn(&OpStats) -> Option<f64>) -> Vec<f64> {
    ops.iter().filter(|o| o.ok).filter_map(f).collect()
}

/// Runs one benchmark invocation.
pub fn run(o: &Options) -> Report {
    let text = format!(
        "# perfbench {} seed={} trace={} rung=\"{}\"{}\n",
        o.workload.name(),
        o.seed,
        u8::from(o.trace),
        o.workload.rung().label(),
        if o.minimal { " (minimal size)" } else { "" }
    );
    let (mut bench, setups) = setup(o);
    if o.corrupt_golden {
        bench.corrupt_golden();
    }
    if o.trace {
        run_traced(o, bench, setups, text)
    } else {
        run_end_to_end(o, bench, setups, text)
    }
}

/// The end-to-end run: tracing off.
fn run_end_to_end(
    o: &Options,
    mut bench: Box<dyn Bench>,
    setups: Setups,
    mut text: String,
) -> Report {
    let mut tr = Tracer::new(false);
    let (ops, rss_mb) = op_loop(bench.as_mut(), o.seconds, &mut tr, false);
    let t = totals(&ops);
    let (cycles, insns, secs, op_s) = at_nominal_speed(o.workload, &ops);
    let mut m = Metrics::default();
    m.put("cps_khz", cycles as f64 / secs.max(1e-12) / 1e3, "kHz");
    m.put("mips", insns as f64 / secs.max(1e-12) / 1e6, "MIPS");
    m.put("op_s", op_s, "s");
    m.put("setup_s", median(&setups.setup), "s");
    m.put("peak_rss_mb", rss_mb, "MiB");
    let metrics = m.0;
    for m in &metrics {
        let _ = write!(text, "#   {:<12} {:>14.6} {}", m.name, m.value, m.unit);
        if m.name == "cps_khz" {
            if let Some(p) = paper_khz(o.workload) {
                let _ = write!(
                    text,
                    "   (paper, same rung, measured on the authors' 2004 host: {p} kHz; \
                     a different host, not an error figure)"
                );
            }
        }
        text.push('\n');
    }
    let mut cps = ok_values(&ops, |op| {
        let (c, _, s) = sums(&op.segments);
        Some(c as f64 / s.max(1e-12) / 1e3)
    });
    cps.sort_by(f64::total_cmp);
    let slowdown = median(&ok_values(&ops, |op| {
        Some(median(&op.segments.iter().map(|g| g.time.ref_secs).collect::<Vec<_>>()))
    })) / reference::NOMINAL_SECS;
    let _ = writeln!(
        text,
        "#   ops {} failed {}; raw host kHz per op min {:.1} median {:.1} max {:.1}; \
         reference loop at {slowdown:.2}x its nominal time",
        t.attempted,
        t.failed,
        cps.first().copied().unwrap_or(0.0),
        median(&cps),
        cps.last().copied().unwrap_or(0.0)
    );
    Report {
        correct: t.failed == 0,
        attempted: t.attempted,
        failed: t.failed,
        metrics,
        text,
        trace_json: None,
    }
}

/// The per-layer run: calibrate, then alternate untraced ops (the
/// ns/cycle the reconciliation is checked against) with traced ops
/// (spans, probe split); the difference between the two is the tracing
/// overhead.
fn run_traced(o: &Options, mut bench: Box<dyn Bench>, setups: Setups, mut text: String) -> Report {
    let mut tr = Tracer::new(false);
    let costs = calib::run(if o.minimal { 0.02 } else { 1.0 });
    let (all, _) = op_loop(bench.as_mut(), o.seconds, &mut tr, true);
    tr.set_on(true);
    let ckpt = bench.checkpoint_costs(&mut tr);
    let extra = bench.probe_pass(&mut tr);
    let every_other =
        |odd: usize| -> Vec<OpStats> { all.iter().skip(odd).step_by(2).cloned().collect() };
    let (plain, traced) = (every_other(0), every_other(1));
    let t_all = totals(&all);
    let t_traced = totals(&traced);
    let mut counts = t_traced.counts;
    counts.thread_activations += extra.thread_activations;
    counts.probed_activations += extra.probed_activations;
    let ns_per_cycle = |ops: &[OpStats]| {
        let (c, _, s) = sums(&typical_segments(ops));
        s * 1e9 / c.max(1) as f64
    };
    let ns_plain = ns_per_cycle(&plain);
    let ns_traced = ns_per_cycle(&traced);
    let recon = Reconciliation::new(&counts, &costs, ns_plain);

    let ms = |v: Vec<f64>| median(&v) * 1e3;
    let build_ms = if matches!(o.workload, Workload::RtlCountdown) {
        median(&setups.build) * 1e3
    } else {
        ms(ok_values(&all, |op| op.build.map(|t| t.secs)))
    };
    let (save_ms, restore_ms, blob_kb) =
        ckpt.map_or((0.0, 0.0, 0.0), |(s, r, b)| (s * 1e3, r * 1e3, b as f64 / 1024.0));
    let is_boot = matches!(o.workload, Workload::BootAccurate | Workload::BootDmi);
    let typical_plain = typical_segments(&plain);
    let phase_khz: Vec<f64> = (1..=u64::from(workload::PHASE_COUNT))
        .map(|p| match typical_plain.iter().find(|g| g.key == p) {
            Some(g) if is_boot => g.cycles as f64 / g.time.secs.max(1e-12) / 1e3,
            _ => 0.0,
        })
        .collect();
    let phase_mean = if phase_khz.iter().all(|&v| v > 0.0) {
        phase_khz.iter().sum::<f64>() / phase_khz.len() as f64
    } else {
        0.0
    };
    let timing_error = match o.workload {
        Workload::BootDmi => {
            let scale = o.workload.scale(o.minimal);
            let accurate = golden::rung6_cycles(scale).expect("rung-6 cycles pinned") as f64;
            let dmi = golden::rung11(scale).expect("rung-11 goldens pinned").cycles as f64;
            (dmi - accurate).abs() / accurate
        }
        _ => 0.0,
    };
    let thread_frac = counts.thread_activations as f64 / counts.probed_activations.max(1) as f64;
    let dmi_lookups = counts.dmi_hits + counts.dmi_misses;
    let per = |n: u64| counts.per_cycle(n);
    let mut m = Metrics::default();
    m.put("sysc.activations_per_cycle", per(counts.activations), "1/cycle");
    m.put("sysc.thread_activations_per_cycle", per(counts.activations) * thread_frac, "1/cycle");
    m.put("sysc.deltas_per_cycle", per(counts.deltas), "1/cycle");
    m.put("sysc.updates_per_cycle", per(counts.updates), "1/cycle");
    m.put("sysc.timed_steps_per_cycle", per(counts.timed_steps), "1/cycle");
    m.put("sysc.ns_per_cycle", ns_plain, "ns");
    m.put("sysc.clock_ns", costs.clock_ns, "ns");
    m.put("sysc.method_ns", costs.method_ns, "ns");
    m.put("sysc.thread_ns", costs.thread_ns, "ns");
    m.put("sysc.update_ns", costs.update_ns, "ns");
    m.put("sysc.delta_ns", costs.delta_ns, "ns");
    m.put("sysc.timed_step_ns", costs.timed_step_ns, "ns");
    m.put("iss.insn_per_cycle", per(counts.insns), "1/cycle");
    m.put("iss.ns_per_insn", costs.iss_ns_per_insn, "ns");
    m.put("access.opb_transfers_per_cycle", per(counts.opb_transfers), "1/cycle");
    m.put("access.dmi_hits_per_cycle", per(counts.dmi_hits), "1/cycle");
    let hit_ratio = counts.dmi_hits as f64 / dmi_lookups.max(1) as f64;
    m.put("access.dmi_hit_ratio", hit_ratio, "ratio");
    m.put("access.dmi_hit_ns", costs.dmi_hit_ns, "ns");
    m.put("platform.build_ms", build_ms, "ms");
    m.put("rtl.retired_per_cycle", per(counts.rtl_retired), "1/cycle");
    m.put("checkpoint.save_ms", save_ms, "ms");
    m.put("checkpoint.restore_ms", restore_ms, "ms");
    m.put("checkpoint.blob_kb", blob_kb, "KiB");
    m.put("workload.assemble_ms", median(&setups.assemble) * 1e3, "ms");
    for (p, khz) in phase_khz.iter().enumerate() {
        m.put(format!("phase.{}.cps_khz", p + 1), *khz, "kHz");
    }
    m.put("phase.mean_cps_khz", phase_mean, "kHz");
    m.put("recon.modelled_ns_per_cycle", recon.modelled, "ns");
    m.put("recon.residual_frac", recon.residual_frac, "ratio");
    m.put("recon.sysc_share", recon.share(Layer::Sysc), "ratio");
    m.put("recon.iss_share", recon.share(Layer::Iss), "ratio");
    m.put("recon.access_share", recon.share(Layer::Access), "ratio");
    m.put("trace.overhead_frac", ns_traced / ns_plain.max(1e-12) - 1.0, "ratio");
    m.put("accuracy.timing_error", timing_error, "ratio");
    let metrics = m.0;
    recon.render(&mut text, o.workload.name());
    for m in &metrics {
        let _ = writeln!(text, "#   {:<36} {:>14.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(text, "#   ops {} failed {}", t_all.attempted, t_all.failed);
    Report {
        correct: t_all.failed == 0,
        attempted: t_all.attempted,
        failed: t_all.failed,
        metrics,
        text,
        trace_json: Some(tr.to_chrome_json()),
    }
}

/// The layer a cost-model term belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Sysc,
    Iss,
    Access,
}

/// Σ(count × unit cost) per simulated cycle against the measured
/// ns/cycle.
#[derive(Debug)]
struct Reconciliation {
    /// (term, layer, count per cycle, unit ns).
    terms: Vec<(&'static str, Layer, f64, f64)>,
    modelled: f64,
    measured: f64,
    residual_frac: f64,
}

impl Reconciliation {
    fn new(c: &Counts, u: &UnitCosts, measured: f64) -> Self {
        let per = |n: u64| c.per_cycle(n);
        let acts = per(c.activations);
        let thread_frac = c.thread_activations as f64 / c.probed_activations.max(1) as f64;
        let terms = vec![
            ("thread activation", Layer::Sysc, acts * thread_frac, u.thread_ns),
            ("method activation", Layer::Sysc, acts * (1.0 - thread_frac), u.method_ns),
            ("signal update", Layer::Sysc, per(c.updates), u.update_ns),
            ("timed step", Layer::Sysc, per(c.timed_steps), u.timed_step_ns),
            ("extra delta", Layer::Sysc, per(c.deltas.saturating_sub(c.timed_steps)), u.delta_ns),
            ("ISS instruction", Layer::Iss, per(c.insns), u.iss_ns_per_insn),
            ("DMI hit", Layer::Access, per(c.dmi_hits), u.dmi_hit_ns),
        ];
        let modelled: f64 = terms.iter().map(|t| t.2 * t.3).sum();
        let residual_frac = (measured - modelled) / measured.max(1e-12);
        Reconciliation { terms, modelled, measured, residual_frac }
    }

    fn share(&self, layer: Layer) -> f64 {
        let part: f64 = self.terms.iter().filter(|t| t.1 == layer).map(|t| t.2 * t.3).sum();
        part / self.modelled.max(1e-12)
    }

    fn render(&self, out: &mut String, workload: &str) {
        let _ = writeln!(out, "# reconciliation ({workload}), per simulated cycle:");
        let _ = writeln!(
            out,
            "#   {:<18} {:>12} {:>10} {:>10} {:>7}",
            "term", "count", "unit ns", "ns", "share"
        );
        for &(name, _, count, unit) in &self.terms {
            let ns = count * unit;
            let _ = writeln!(
                out,
                "#   {name:<18} {count:>12.4} {unit:>10.2} {ns:>10.2} {:>6.1}%",
                100.0 * ns / self.modelled.max(1e-12)
            );
        }
        let _ = writeln!(out, "#   {:<18} {:>34.2}", "modelled", self.modelled);
        let _ = writeln!(out, "#   {:<18} {:>34.2}", "measured", self.measured);
        let _ = writeln!(out, "#   {:<18} {:>33.1}%", "residual", 100.0 * self.residual_frac);
    }
}
