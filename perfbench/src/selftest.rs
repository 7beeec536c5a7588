//! The benchmark's self-test: every workload at minimal size, untraced
//! and traced, must pass its checks and emit exactly the metrics
//! `BENCHMARK.json` names; a corrupted golden value must make ops fail.

use crate::{run, Options, Workload};
use std::path::Path;

/// The `"name"` values of one section of `BENCHMARK.json`, which lists
/// its sections in the order workloads, end_to_end, per_layer.
fn names_in(json: &str, section: &str, next: Option<&str>) -> Vec<String> {
    let start = json.find(&format!("\"{section}\"")).unwrap_or(json.len());
    let end = next.and_then(|n| json.find(&format!("\"{n}\""))).unwrap_or(json.len());
    json[start..end.max(start)]
        .split("\"name\":")
        .skip(1)
        .filter_map(|s| s.trim_start().strip_prefix('"')?.split('"').next().map(String::from))
        .collect()
}

/// Runs the self-test; `Err` names the first problem.
pub fn run_all() -> Result<(), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("BENCHMARK.json");
    let json = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let workloads = names_in(&json, "workloads", Some("end_to_end"));
    let e2e = names_in(&json, "end_to_end", Some("per_layer"));
    let layer = names_in(&json, "per_layer", None);
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if workloads != ours {
        return Err(format!(
            "BENCHMARK.json lists workloads {workloads:?}, the benchmark {ours:?}"
        ));
    }
    for w in Workload::ALL {
        let opts = |trace, corrupt_golden| Options {
            workload: w,
            seed: 7,
            seconds: 0.05,
            trace,
            minimal: true,
            corrupt_golden,
        };
        for (trace, want) in [(false, &e2e), (true, &layer)] {
            let r = run(&opts(trace, false));
            let tag = format!("{} trace={}", w.name(), u8::from(trace));
            if !r.correct || r.failed != 0 || r.attempted == 0 {
                return Err(format!("{tag}: {} of {} ops failed", r.failed, r.attempted));
            }
            let got: Vec<&String> = r.metrics.iter().map(|m| &m.name).collect();
            if got != want.iter().collect::<Vec<_>>() {
                return Err(format!("{tag}: emitted {got:?}, BENCHMARK.json names {want:?}"));
            }
            if let Some(m) = r.metrics.iter().find(|m| !m.value.is_finite()) {
                return Err(format!("{tag}: {} is not finite", m.name));
            }
            if let Some(m) = r.metrics.iter().find(|m| !trace && m.value <= 0.0) {
                return Err(format!("{tag}: end-to-end metric {} is {}", m.name, m.value));
            }
            let line = r.json();
            if line.contains('\n') || !line.starts_with("{\"correct\": true") {
                return Err(format!("{tag}: malformed result line {line}"));
            }
        }
        let r = run(&opts(false, true));
        let fail_frac = r.failed as f64 / r.attempted.max(1) as f64;
        if r.correct || fail_frac <= 0.0 {
            return Err(format!("{}: a corrupted golden value went unnoticed", w.name()));
        }
    }
    Ok(())
}
