//! The eight detectors. Each pushes zero or more [`Finding`]s; `analyze`
//! ranks the combined list by severity.

use crate::{Finding, Rule, Severity};
use sysc::probe::{AccessOp, DesignGraph, EventKind, LifeState, ProcKind, RaceElem};

/// Signal ids a process is statically sensitive to via *value-changed*
/// (level) events — the combinational-style sensitivity.
fn changed_sensitivity(g: &DesignGraph, proc: usize) -> Vec<usize> {
    g.processes[proc]
        .sensitivity
        .iter()
        .filter_map(|&ev| match g.events[ev].kind {
            EventKind::SignalChanged(s) => Some(s),
            _ => None,
        })
        .collect()
}

/// `true` if the process has any edge (posedge/negedge) sensitivity —
/// the sequential-logic idiom, exempt from combinational checks.
fn has_edge_sensitivity(g: &DesignGraph, proc: usize) -> bool {
    g.processes[proc].sensitivity.iter().any(|&ev| {
        matches!(g.events[ev].kind, EventKind::SignalPosedge(_) | EventKind::SignalNegedge(_))
    })
}

/// `true` if any of the signal's events has a static subscriber — some
/// process consumes it even if no `read()` was observed (e.g. a clock
/// consumed purely through edge sensitivity).
fn has_subscribers(g: &DesignGraph, sig: usize) -> bool {
    let s = &g.signals[sig];
    let mut evs = vec![s.changed_event];
    evs.extend(s.posedge_event);
    evs.extend(s.negedge_event);
    evs.iter().any(|&ev| !g.events[ev].subscribers.is_empty())
}

/// Rule `delta-livelock`: the bounded-delta watchdog tripped.
pub(crate) fn delta_livelock(g: &DesignGraph, out: &mut Vec<Finding>) {
    let Some(of) = &g.overflow else { return };
    let names: Vec<String> = of.oscillating.iter().map(|&s| g.signals[s].name.clone()).collect();
    let list = if names.is_empty() { "<none committed>".to_string() } else { names.join(", ") };
    out.push(Finding {
        rule: Rule::DeltaLivelock,
        severity: Severity::Error,
        message: format!(
            "timestep at {} ps exceeded {} delta cycles without settling; \
             oscillating signals: {list}",
            of.at_ps, of.limit
        ),
        subjects: names,
    });
}

/// Rule `multi-driver`: conflicting writers on one signal.
///
/// Three tiers, mirroring the §4.2 trade-off:
/// * resolved signals that committed an `X` — the kernel *proved* a
///   conflict: **Error**;
/// * native signals where two processes wrote different values in one
///   delta — last write wins silently: **Warning**;
/// * native signals with several registered writing ports — a shared rail
///   with no arbitration, fine if writes are disjoint by protocol: **Info**.
pub(crate) fn multi_driver(g: &DesignGraph, out: &mut Vec<Finding>) {
    for s in &g.signals {
        if s.resolved && s.resolved_conflicts > 0 {
            out.push(Finding {
                rule: Rule::MultiDriver,
                severity: Severity::Error,
                message: format!(
                    "signal '{}': {} committed value(s) resolved to X — drivers conflicted",
                    s.name, s.resolved_conflicts
                ),
                subjects: vec![s.name.clone()],
            });
        }
    }
    let mut raced: Vec<usize> = Vec::new();
    for r in &g.races {
        raced.push(r.signal);
        let sig = &g.signals[r.signal];
        let (a, b) = (&g.processes[r.writer_a].name, &g.processes[r.writer_b].name);
        out.push(Finding {
            rule: Rule::MultiDriver,
            severity: Severity::Warning,
            message: format!(
                "signal '{}': processes '{a}' and '{b}' wrote different values in the same \
                 delta cycle; the later write wins silently (native data types perform no \
                 resolution — the §4.2 detection loss)",
                sig.name
            ),
            subjects: vec![sig.name.clone(), a.clone(), b.clone()],
        });
    }
    for s in &g.signals {
        if !s.resolved && s.driver_slots > 1 && !raced.contains(&s.id) {
            out.push(Finding {
                rule: Rule::MultiDriver,
                severity: Severity::Info,
                message: format!(
                    "signal '{}': {} writing ports share an unarbitrated native rail; \
                     conflicting writes would go undetected (§4.2)",
                    s.name, s.driver_slots
                ),
                subjects: vec![s.name.clone()],
            });
        }
    }
}

/// Rule `comb-loop`: a cycle in the zero-delay sensitivity→write graph.
///
/// Nodes are processes that can re-fire with zero delay: method-style
/// level-sensitive processes that never park on a dynamic wait. There is
/// an edge P → Q when P writes a signal whose value-changed event Q is
/// statically sensitive to. Any strongly connected component with a cycle
/// is a combinational loop: activity circulates without time advancing.
/// Needs observed write sets, so it only runs on probed graphs.
pub(crate) fn comb_loop(g: &DesignGraph, out: &mut Vec<Finding>) {
    if !g.observed {
        return;
    }
    let n = g.processes.len();
    let in_scope: Vec<bool> = (0..n)
        .map(|p| {
            let pr = &g.processes[p];
            pr.kind == ProcKind::Method
                && !pr.used_dynamic_wait
                && !changed_sensitivity(g, p).is_empty()
        })
        .collect();
    // signal -> level-sensitive subscriber processes (in scope only)
    let mut subs: Vec<Vec<usize>> = vec![Vec::new(); g.signals.len()];
    for (p, _) in in_scope.iter().enumerate().filter(|(_, ok)| **ok) {
        for s in changed_sensitivity(g, p) {
            subs[s].push(p);
        }
    }
    let adj: Vec<Vec<usize>> = (0..n)
        .map(|p| {
            if !in_scope[p] {
                return Vec::new();
            }
            let mut tos: Vec<usize> =
                g.processes[p].writes.iter().flat_map(|&s| subs[s].iter().copied()).collect();
            tos.sort_unstable();
            tos.dedup();
            tos
        })
        .collect();

    // Iterative DFS cycle search with tri-colour marking; reports the
    // first cycle found through each root, which is enough to name the
    // loop without enumerating every elementary cycle.
    let mut colour = vec![0u8; n]; // 0 white, 1 grey, 2 black
    let mut reported: Vec<Vec<usize>> = Vec::new();
    for root in 0..n {
        if colour[root] != 0 || !in_scope[root] {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        let mut path: Vec<usize> = vec![root];
        colour[root] = 1;
        while let Some(&mut (p, ref mut i)) = stack.last_mut() {
            if *i < adj[p].len() {
                let q = adj[p][*i];
                *i += 1;
                match colour[q] {
                    0 => {
                        colour[q] = 1;
                        stack.push((q, 0));
                        path.push(q);
                    }
                    1 => {
                        // Back edge: the cycle is the path suffix from q.
                        let start = path.iter().position(|&x| x == q).expect("grey on path");
                        let mut cycle = path[start..].to_vec();
                        // Canonicalise so the same loop reports once.
                        let min_pos = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, &v)| v)
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        cycle.rotate_left(min_pos);
                        if !reported.contains(&cycle) {
                            reported.push(cycle);
                        }
                    }
                    _ => {}
                }
            } else {
                colour[p] = 2;
                stack.pop();
                path.pop();
            }
        }
    }
    for cycle in reported {
        let names: Vec<String> = cycle.iter().map(|&p| g.processes[p].name.clone()).collect();
        let ring = names
            .iter()
            .chain(std::iter::once(&names[0]))
            .cloned()
            .collect::<Vec<_>>()
            .join(" -> ");
        out.push(Finding {
            rule: Rule::CombLoop,
            severity: Severity::Error,
            message: format!(
                "zero-delay combinational loop: {ring}; delta cycles will circulate without \
                 time advancing"
            ),
            subjects: names,
        });
    }
}

/// Rule `sensitivity`: a combinational-style process reads a signal its
/// static sensitivity list does not cover, so it will not re-evaluate
/// when that input changes — the classic stale-output bug.
///
/// Scope: methods with at least one value-changed sensitivity, no edge
/// sensitivity (edge-triggered processes are sequential: reading
/// non-sensitive data inputs on a clock edge is the *point*), and no
/// dynamic waits (those schedule themselves). Needs observed read sets.
pub(crate) fn incomplete_sensitivity(g: &DesignGraph, out: &mut Vec<Finding>) {
    if !g.observed {
        return;
    }
    for p in &g.processes {
        if p.kind != ProcKind::Method
            || p.used_dynamic_wait
            || p.activations == 0
            || p.state != LifeState::Live
            || p.bypassed.is_some()
            || has_edge_sensitivity(g, p.id)
        {
            // Suspended / killed processes are swapped out (DPR), and
            // tier-bypassed processes are idled by the access layer —
            // either way their read sets reflect traffic that no longer
            // reaches them.
            continue;
        }
        let sens = changed_sensitivity(g, p.id);
        if sens.is_empty() {
            continue;
        }
        let missing: Vec<&str> = p
            .reads
            .iter()
            .filter(|s| !sens.contains(s))
            .map(|&s| g.signals[s].name.as_str())
            .collect();
        if missing.is_empty() {
            continue;
        }
        let list = missing.join(", ");
        out.push(Finding {
            rule: Rule::IncompleteSensitivity,
            severity: Severity::Warning,
            message: format!(
                "process '{}' reads [{list}] without being sensitive to them; it will hold a \
                 stale output when they change",
                p.name
            ),
            subjects: std::iter::once(p.name.clone())
                .chain(missing.iter().map(|s| s.to_string()))
                .collect(),
        });
    }
}

/// Rule `dead`: elements that never participate — signals written but
/// never consumed, signals consumed but never driven, and processes that
/// never activated. All observation-gated: without runtime read/write
/// sets, "never" cannot be established.
pub(crate) fn dead_elements(g: &DesignGraph, out: &mut Vec<Finding>) {
    if !g.observed {
        return;
    }
    let mut dead_writes: Vec<&str> = Vec::new();
    for s in &g.signals {
        let written = !s.writers.is_empty() || s.external_writes || s.kernel_driven;
        let read = !s.readers.is_empty() || s.external_reads;
        let consumed = read || has_subscribers(g, s.id) || s.traced;
        if written && !consumed {
            dead_writes.push(&s.name);
        } else if read && !written {
            out.push(Finding {
                rule: Rule::DeadElement,
                severity: Severity::Info,
                message: format!(
                    "signal '{}' is read but never written; every read returns its \
                     initial value (unbound input?)",
                    s.name
                ),
                subjects: vec![s.name.clone()],
            });
        }
    }
    // Collapse per-component floods (e.g. a netlist shadow's thousands of
    // per-bit wires) into one finding per component prefix.
    let component = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let mut by_comp: Vec<(String, Vec<&str>)> = Vec::new();
    for name in dead_writes {
        let comp = component(name);
        match by_comp.iter_mut().find(|(c, _)| *c == comp) {
            Some((_, names)) => names.push(name),
            None => by_comp.push((comp, vec![name])),
        }
    }
    for (comp, names) in by_comp {
        if names.len() >= 4 {
            out.push(Finding {
                rule: Rule::DeadElement,
                severity: Severity::Warning,
                message: format!(
                    "component '{comp}': {} signals are written but never read, watched or \
                     traced — dead load (first: '{}')",
                    names.len(),
                    names[0]
                ),
                subjects: names.iter().map(|n| n.to_string()).collect(),
            });
        } else {
            for name in names {
                out.push(Finding {
                    rule: Rule::DeadElement,
                    severity: Severity::Warning,
                    message: format!(
                        "signal '{name}' is written but never read, watched or traced — \
                         dead load"
                    ),
                    subjects: vec![name.to_string()],
                });
            }
        }
    }
    for p in &g.processes {
        if p.state != LifeState::Live {
            // A parked or retired personality (DPR) is intentionally
            // inactive — report for visibility, not as a defect.
            let what = match p.state {
                LifeState::Suspended => "suspended",
                _ => "killed",
            };
            out.push(Finding {
                rule: Rule::DeadElement,
                severity: Severity::Info,
                message: format!(
                    "process '{}' is swapped out ({what}); inactivity is expected for a \
                     parked reconfiguration personality",
                    p.name
                ),
                subjects: vec![p.name.clone()],
            });
        } else if let Some(reason) = p.bypassed {
            // The unified access layer serves this component's traffic
            // at a faster tier (§5 suppressions / DMI), so the process
            // idles by design — report for visibility, like a parked
            // personality, never as a dead-process defect.
            out.push(Finding {
                rule: Rule::DeadElement,
                severity: Severity::Info,
                message: format!(
                    "process '{}' is {reason}; inactivity is expected while the access \
                     layer serves its traffic",
                    p.name
                ),
                subjects: vec![p.name.clone()],
            });
        } else if p.activations == 0 && !p.restored_spawn {
            // A restored-spawn process's zeroed activation count is an
            // artefact of the checkpoint restore; SC009 covers it.
            out.push(Finding {
                rule: Rule::DeadElement,
                severity: Severity::Warning,
                message: format!(
                    "process '{}' never activated — unreachable sensitivity or missing \
                     initialisation",
                    p.name
                ),
                subjects: vec![p.name.clone()],
            });
        }
    }
}

/// Rule `restored-spawn`: processes spawned while replaying a
/// checkpoint's late-spawn log. Advisory and always available (the flag
/// is static structure, not an observation): like a swapped-out
/// personality, such a process is in an unusual-but-intended state — its
/// activation history starts at the restore point, so activation-count
/// consumers should not read absence of history as a defect.
pub(crate) fn restored_spawn(g: &DesignGraph, out: &mut Vec<Finding>) {
    for p in &g.processes {
        if p.restored_spawn {
            out.push(Finding {
                rule: Rule::RestoredSpawn,
                severity: Severity::Info,
                message: format!(
                    "process '{}' was spawned by checkpoint restore (late-spawn replay); its \
                     activation history starts at the restore point, as expected for a \
                     reconfiguration personality",
                    p.name
                ),
                subjects: vec![p.name.clone()],
            });
        }
    }
}

fn op_name(op: AccessOp) -> &'static str {
    match op {
        AccessOp::Read => "read",
        AccessOp::Write => "write",
        AccessOp::Produce => "produce",
        AccessOp::Consume => "consume",
        AccessOp::Peek => "peek",
    }
}

/// Rule `delta-race`: the dynamic race detector *observed* two same-phase
/// processes make conflicting accesses to one element within a single
/// delta cycle. Unlike the static checks this is a concrete witness, so
/// the default severity is **Error**; races on elements whose sharing is
/// [marked arbitrated](sysc::StateTouch::mark_arbitrated) are downgraded
/// to **Info** with the recorded arbitration argument.
pub(crate) fn delta_race(g: &DesignGraph, out: &mut Vec<Finding>) {
    for r in &g.sched_races {
        let (a, b) = (&g.processes[r.proc_a], &g.processes[r.proc_b]);
        let pair = format!(
            "processes '{}' ({}) and '{}' ({}) collided in the same delta cycle and phase \
             (phase {})",
            a.name,
            op_name(r.op_a),
            b.name,
            op_name(r.op_b),
            a.phase
        );
        match r.elem {
            RaceElem::Signal(s) => {
                let sig = &g.signals[s];
                out.push(Finding {
                    rule: Rule::DeltaRace,
                    severity: Severity::Error,
                    message: format!(
                        "signal '{}': {pair}; the committed value depends on runnable-queue \
                         order",
                        sig.name
                    ),
                    subjects: vec![sig.name.clone(), a.name.clone(), b.name.clone()],
                });
            }
            RaceElem::State(s) => {
                let st = &g.states[s];
                let (severity, note) = match &st.arbitrated {
                    Some(reason) => (Severity::Info, format!("; marked arbitrated: {reason}")),
                    None => (Severity::Error, String::new()),
                };
                out.push(Finding {
                    rule: Rule::DeltaRace,
                    severity,
                    message: format!(
                        "shared state '{}' (registered at {}): {pair}; plain state has no \
                         request–update protection, so the result depends on runnable-queue \
                         order{note}",
                        st.name, st.location
                    ),
                    subjects: vec![st.name.clone(), a.name.clone(), b.name.clone()],
                });
            }
        }
    }
}

/// Rule `same-delta-read-after-write`: *potential* hazard — same-phase
/// processes share a plain-state element with at least one writer among
/// them. Even if no run has coincided yet, nothing stops them from
/// landing in one delta, where the outcome would depend on pop order.
///
/// Gated on race observation (the per-state toucher sets come from the
/// race detector); states the dynamic detector already caught
/// ([`delta_race`]) are skipped so one defect yields one finding.
pub(crate) fn same_delta_raw(g: &DesignGraph, out: &mut Vec<Finding>) {
    if !g.race_observed {
        return;
    }
    let raced: Vec<usize> = g
        .sched_races
        .iter()
        .filter_map(|r| match r.elem {
            RaceElem::State(s) => Some(s),
            RaceElem::Signal(_) => None,
        })
        .collect();
    for st in &g.states {
        if raced.contains(&st.id) {
            continue;
        }
        // Same-phase groups among the touchers; hazardous when a group
        // holds a writer plus at least one other process.
        let mut touchers: Vec<(usize, bool)> = st.writers.iter().map(|&p| (p, true)).collect();
        touchers.extend(st.readers.iter().filter(|p| !st.writers.contains(p)).map(|&p| (p, false)));
        let mut phases: Vec<u8> = touchers.iter().map(|&(p, _)| g.processes[p].phase).collect();
        phases.sort_unstable();
        phases.dedup();
        for phase in phases {
            let group: Vec<&(usize, bool)> =
                touchers.iter().filter(|&&(p, _)| g.processes[p].phase == phase).collect();
            if group.len() < 2 || !group.iter().any(|&&(_, w)| w) {
                continue;
            }
            let names: Vec<String> = group
                .iter()
                .map(|&&(p, w)| {
                    format!("'{}' ({})", g.processes[p].name, if w { "writes" } else { "reads" })
                })
                .collect();
            let (severity, note) = match &st.arbitrated {
                Some(reason) => (Severity::Info, format!("; marked arbitrated: {reason}")),
                None => (Severity::Warning, String::new()),
            };
            out.push(Finding {
                rule: Rule::SameDeltaReadAfterWrite,
                severity,
                message: format!(
                    "shared state '{}' (registered at {}): phase-{phase} processes {} share \
                     it with a writer in the set; if they coincide in one delta cycle the \
                     result depends on runnable-queue order{note}",
                    st.name,
                    st.location,
                    names.join(", ")
                ),
                subjects: std::iter::once(st.name.clone())
                    .chain(group.iter().map(|&&(p, _)| g.processes[p].name.clone()))
                    .collect(),
            });
        }
    }
}

/// Rule `shared-nonsignal-state`: inventory of plain-state elements
/// touched by two or more processes. Always **Info**: sharing is not a
/// defect by itself, but each entry is state living outside the signal
/// request–update discipline and deserves an explicit arbitration
/// argument (listed when [marked](sysc::StateTouch::mark_arbitrated)).
pub(crate) fn shared_nonsignal_state(g: &DesignGraph, out: &mut Vec<Finding>) {
    if !g.race_observed {
        return;
    }
    for st in &g.states {
        let mut procs: Vec<usize> = st.readers.iter().chain(&st.writers).copied().collect();
        procs.sort_unstable();
        procs.dedup();
        if procs.len() < 2 {
            continue;
        }
        let names: Vec<String> = procs
            .iter()
            .map(|&p| format!("'{}' (phase {})", g.processes[p].name, g.processes[p].phase))
            .collect();
        let arb = match &st.arbitrated {
            Some(reason) => format!("arbitrated: {reason}"),
            None => "no arbitration recorded".to_string(),
        };
        out.push(Finding {
            rule: Rule::SharedNonsignalState,
            severity: Severity::Info,
            message: format!(
                "shared state '{}' (registered at {}) is touched by {} processes: {} — {arb}",
                st.name,
                st.location,
                procs.len(),
                names.join(", ")
            ),
            subjects: std::iter::once(st.name.clone())
                .chain(procs.iter().map(|&p| g.processes[p].name.clone()))
                .collect(),
        });
    }
}
