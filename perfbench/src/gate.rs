//! The checks every run must pass before its numbers count.

use std::collections::BTreeMap;
use std::sync::Arc;

use alvc::topology::DataCenter;

use crate::driver::{control_plane, Driver, Executed};
use crate::replay::{replay, EndState, Timings};
use crate::spec::Spec;

/// A kind's share of attempted intents may miss its intended share by
/// this much of the intended share plus [`SHARE_TOLERANCE_ABSOLUTE`].
const SHARE_TOLERANCE_RELATIVE: f64 = 0.25;
/// See [`SHARE_TOLERANCE_RELATIVE`].
const SHARE_TOLERANCE_ABSOLUTE: f64 = 0.005;
/// Failed intents at most, as a share of attempted ones.
const MAX_FAILED_RATIO: f64 = 0.01;
/// Rejected intents at most, as a share of attempted ones.
const MAX_REJECTED_RATIO: f64 = 0.01;

/// The verdict of [`check_run`] plus the replay's timings.
pub struct Checked {
    /// Failed checks, empty when the run is correct.
    pub problems: Vec<String>,
    /// Per-call timings of the bare-orchestrator replay.
    pub timings: Timings,
}

/// Checks a finished intent run:
///
/// 1. `ControlPlane::replay` of the log on a fresh control plane gives a
///    bit-identical `StateView`;
/// 2. `recompute_view()` equals the published view;
/// 3. the cluster manager's ALs are OPS-disjoint and no chain references
///    a failed element;
/// 4. replaying the log on a bare `Orchestrator` reproduces every
///    outcome and ends in the live run's state (chain count, committed
///    kb/s, flow rules).
///
/// The two replays are independent. Without `probes` they run side by
/// side on two threads, which halves the checks' wall time; with
/// `probes` the bare replay times each call, so it runs alone.
pub fn check_run(dc: &Arc<DataCenter>, d: &Driver, from_batch: u64, probes: bool) -> Checked {
    let mut problems = Vec::new();
    let log = d.cp.intent_log();
    let live = d.cp.view();
    let (replayed, bare) = if probes {
        let replayed = control_plane(dc).replay(&log);
        (replayed, replay(dc, &log, from_batch, probes))
    } else {
        std::thread::scope(|s| {
            let replayed = s.spawn(|| control_plane(dc).replay(&log));
            let bare = replay(dc, &log, from_batch, probes);
            (replayed.join().expect("control-plane replay panicked"), bare)
        })
    };
    if *replayed != *live {
        problems.push("control-plane replay of the log differs from the live view".into());
    }
    if *d.cp.recompute_view() != *live {
        problems.push("recompute_view() differs from the published view".into());
    }
    let (disjoint, clean) = d.cp.inspect(|o| {
        (
            o.manager().verify_disjoint(),
            o.verify_no_failed_references(dc),
        )
    });
    if !disjoint {
        problems.push("abstraction layers are not OPS-disjoint".into());
    }
    if !clean {
        problems.push("a chain references a failed element".into());
    }
    if bare.outcome_mismatches > 0 {
        problems.push(format!(
            "bare-orchestrator replay changed {} outcomes",
            bare.outcome_mismatches
        ));
    }
    let want = EndState::of_view(&live);
    let got = EndState::of_orchestrator(dc, &bare.orch);
    if want != got {
        problems.push(format!(
            "bare-orchestrator replay ends in {got:?}, the live run in {want:?}"
        ));
    }
    Checked {
        problems,
        timings: bare.timings,
    }
}

/// Per intent kind: attempted, completed, failed, rejected.
type Mix = BTreeMap<&'static str, [usize; 4]>;

/// Tallies the executed intents per kind.
fn tally(executed: &[Executed]) -> Mix {
    let mut mix = Mix::new();
    for e in executed {
        let row = mix.entry(e.kind).or_default();
        row[0] += 1;
        match e.outcome {
            "completed" => row[1] += 1,
            "failed" => row[2] += 1,
            _ => row[3] += 1,
        }
    }
    mix
}

/// Prints the mix the run produced and checks it against the intended mix
/// for `workload` in the spec: each kind's share of attempted intents
/// within the tolerance, and rejected and failed intents rare. A generator
/// that drifts into no-op rejections fails here.
pub fn traffic_check(spec: &Spec, workload: &str, executed: &[Executed]) -> Vec<String> {
    let mix = tally(executed);
    let total = executed.len().max(1) as f64;
    let rows: Vec<String> = mix
        .iter()
        .map(|(kind, [a, c, f, r])| {
            format!(
                "\"{kind}\":{{\"attempted\":{a},\"completed\":{c},\"failed\":{f},\"rejected\":{r}}}"
            )
        })
        .collect();
    println!("{{\"traffic\":{{{}}}}}", rows.join(","));

    let mut problems = Vec::new();
    let intended = spec.mix(workload);
    for (kind, share) in &intended {
        let got = mix.get(kind.as_str()).map_or(0, |r| r[0]) as f64 / total;
        let tolerance = SHARE_TOLERANCE_RELATIVE * share + SHARE_TOLERANCE_ABSOLUTE;
        if (got - share).abs() > tolerance {
            problems.push(format!(
                "{kind} is {got:.4} of the traffic, intended {share:.4} ± {tolerance:.4}"
            ));
        }
    }
    for (kind, row) in &mix {
        if !intended.iter().any(|(k, _)| k == kind) {
            problems.push(format!("unintended intent kind {kind} ({} attempted)", row[0]));
        }
    }
    for (what, col, max) in [("failed", 2, MAX_FAILED_RATIO), ("rejected", 3, MAX_REJECTED_RATIO)] {
        let n: usize = mix.values().map(|r| r[col]).sum();
        if n as f64 / total > max {
            problems.push(format!("{n} of {total} intents {what}, above {max}"));
        }
    }
    problems
}
