//! The benchmark's own contract: seeded inputs, and every named metric
//! printed with the unit `BENCHMARK.json` declares.

use std::path::Path;

use alvc::nfv::Intent;
use alvc::sim::MixWeights;
use alvc_bench::{Json, Scale};
use alvc_perfbench::metrics::{catalog, result_line, Outcome, Values};
use alvc_perfbench::spec::Spec;
use alvc_perfbench::tenants::{tenant_groups, Limits, Tenant};
use alvc_perfbench::workloads::{run, Args, WORKLOADS};

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// The first `n` intents of every tenant of a run seeded with `seed`; each
/// deployment completes with a fresh chain id, so later operations have
/// live chains to resolve against.
fn op_stream(seed: u64, n: usize) -> Vec<Intent> {
    use alvc::nfv::{IntentEffect, IntentOutcome, NfcId, VnfInstanceId};
    use alvc_perfbench::tenants::Pending;

    let dc = Scale::LADDER[1].build(12);
    let limits = Limits {
        live_chains: 6,
        replicas_per_chain: 2,
    };
    let mut next_chain = 0;
    let mut out = Vec::new();
    for (i, group) in tenant_groups(&dc, 4, 24).into_iter().enumerate() {
        let mut t = Tenant::new(i, group, MixWeights::default(), limits, seed);
        for k in 0..n {
            let Some((intent, pending)) = t.next_intent() else {
                continue;
            };
            let effect = match (&intent, pending) {
                (Intent::DeployChain { .. }, _) => {
                    next_chain += 1;
                    IntentEffect::Deployed {
                        chain: NfcId(next_chain),
                    }
                }
                (Intent::TeardownChain { chain }, _) => IntentEffect::TornDown { chain: *chain },
                (Intent::ModifyChain { chain, .. }, _) => IntentEffect::Modified { chain: *chain },
                (Intent::ScaleOut { chain, .. }, _) => IntentEffect::ScaledOut {
                    chain: *chain,
                    replica: VnfInstanceId(k),
                },
                (_, Pending::ScaleIn(_, replica)) => IntentEffect::ScaledIn { replica },
                (other, _) => panic!("tenants do not submit {other:?}"),
            };
            t.settle(pending, &IntentOutcome::Completed(effect));
            out.push(intent);
        }
    }
    out
}

#[test]
fn one_seed_gives_one_op_stream() {
    let a = op_stream(7, 200);
    assert_eq!(a.len(), 800, "every draw resolves");
    assert_eq!(a, op_stream(7, 200));
    assert_ne!(a, op_stream(8, 200));
    let kinds: std::collections::BTreeSet<_> = a.iter().map(|i| i.kind().label()).collect();
    for kind in ["deploy_chain", "teardown_chain", "modify_chain", "scale_out", "scale_in"] {
        assert!(kinds.contains(kind), "{kind} missing from the stream");
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let bench = benchmark_json();
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let declared: Vec<(String, String)> = bench
            .get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).expect("name").to_string(),
                    m.get("unit").and_then(Json::as_str).expect("unit").to_string(),
                )
            })
            .collect();
        let printed: Vec<(String, String)> = catalog(traced)
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared, printed, "{key} in BENCHMARK.json");
    }
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}

#[test]
fn every_per_layer_metric_names_what_it_should_move() {
    let spec = Spec::load();
    let moves = spec.get(&["per_layer_moves"]);
    for (name, _) in catalog(true) {
        assert!(moves.get(&name).is_some(), "{name} has no per_layer_moves entry");
    }
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    for traced in [false, true] {
        let mut values = Values::default();
        for (i, (name, _)) in catalog(traced).iter().enumerate() {
            values.set(name.clone(), 0.5 + i as f64);
        }
        let line = result_line(
            &Outcome {
                correct: true,
                attempted: 10,
                failed: 0,
                values,
            },
            traced,
        );
        let json = Json::parse(&line).expect("result line parses");
        let metrics = json.get("metrics").expect("metrics");
        for (i, (name, unit)) in catalog(traced).iter().enumerate() {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.5 + i as f64));
        }
    }
}

#[test]
fn a_short_run_passes_its_gate_and_prints_every_metric() {
    // Long enough for the produced mix to settle within the traffic
    // check's tolerance.
    let outcome = run(&Args {
        workload: "churn_saturate".into(),
        seed: 3,
        seconds: 3.0,
        traced: false,
    });
    assert!(outcome.correct);
    assert!(outcome.attempted > 0);
    assert_eq!(outcome.failed, 0);
    let line = result_line(&outcome, false);
    for (name, unit) in catalog(false) {
        assert!(line.contains(&format!("\"{name}\":")), "{name} missing");
        assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        assert!(outcome.values.get(&name) > 0.0, "{name} is 0");
    }
}
