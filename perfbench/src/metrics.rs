//! The metric catalog and the result line.
//!
//! Every run prints every metric of its mode: the end-to-end metrics with
//! tracing off, the per-layer metrics with tracing on. A metric a workload
//! does not exercise reads 0 (see `perfbench/README.md`); no end-to-end
//! metric is ever 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("goodput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p99_ms_low", "ms"),
    ("completed_ratio", "share"),
    ("slo_met_ratio", "share"),
    ("serving_ratio", "share"),
    ("build_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Intent kinds as named in per-layer metrics, with the control plane's
/// label for each.
pub const KINDS: [(&str, &str); 10] = [
    ("deploy", "deploy_chain"),
    ("modify", "modify_chain"),
    ("teardown", "teardown_chain"),
    ("scale_out", "scale_out"),
    ("scale_in", "scale_in"),
    ("fail", "fail_element"),
    ("restore", "restore_element"),
    ("reoptimize", "reoptimize"),
    ("recluster", "recluster"),
    ("set_power", "set_power_state"),
];

/// Per-layer metrics that are not per intent kind: `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 25] = [
    ("topology.build_s", "s"),
    ("control.queue_wait_ms.p50", "ms"),
    ("control.queue_wait_ms.p99", "ms"),
    ("control.batch_us.p50", "us"),
    ("control.batch_us.p99", "us"),
    ("control.batch_fill", "intents/batch"),
    ("control.busy_ratio", "share"),
    ("control.submit_us.p50", "us"),
    ("control.rejected_ratio", "share"),
    ("control.attributed_ratio", "share"),
    ("core.construct_us.p50", "us"),
    ("optical.route_us.p50", "us"),
    ("placement.place_us.p50", "us"),
    ("nfv.admit_bandwidth_us.p50", "us"),
    ("nfv.install_rules_us.p50", "us"),
    ("affinity.plan_us.p50", "us"),
    ("energy.plan_us.p50", "us"),
    ("core.construct_sharded_s", "s"),
    ("core.pod_construct_s", "s"),
    ("core.fallbacks", "count"),
    ("core.merged_clusters", "count"),
    ("core.al_ops_total", "count"),
    ("telemetry.overhead_ratio", "share"),
    ("error_ratio", "share"),
    ("slo_miss_ratio", "share"),
];

/// Every per-layer metric: `(name, unit)`, in catalog order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (short, _) in KINDS {
        out.push((format!("nfv.{short}_us.p50"), "us"));
        out.push((format!("nfv.{short}_us.p99"), "us"));
    }
    for (short, _) in KINDS {
        out.push((format!("nfv.failed_ratio.{short}"), "share"));
    }
    out
}

/// The metrics of one mode: `(name, unit)`.
pub fn catalog(traced: bool) -> Vec<(String, &'static str)> {
    if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    }
}

/// Metric values of one run, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<String, f64>);

impl Values {
    /// Sets one metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    /// One metric's value, 0 when unset.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The outcome of one run, as printed on the last line.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations attempted in the measured window.
    pub attempted: usize,
    /// Operations that did not complete.
    pub failed: usize,
    /// Metric values; ignored when the run is not correct.
    pub values: Values,
}

/// Renders the result line. A correct run carries every catalog metric
/// of its mode (unset ones read 0); an incorrect one carries none.
///
/// # Panics
///
/// Panics if a metric value is not finite.
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let mut metrics = String::new();
    if outcome.correct {
        for (i, (name, unit)) in catalog(traced).iter().enumerate() {
            let v = outcome.values.get(name);
            assert!(v.is_finite(), "metric {name} is not finite: {v}");
            if i > 0 {
                metrics.push(',');
            }
            write!(metrics, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
                .expect("writing to a String");
        }
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        outcome.correct,
        outcome.attempted.max(1),
        outcome.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_short() {
        let mut all: Vec<String> = catalog(false).into_iter().map(|(n, _)| n).collect();
        all.extend(catalog(true).into_iter().map(|(n, _)| n));
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(all.iter().all(|m| m.len() <= 64));
    }

    #[test]
    fn result_line_lists_every_metric() {
        let mut values = Values::default();
        values.set("setup_s", 0.25);
        let line = result_line(
            &Outcome {
                correct: true,
                attempted: 3,
                failed: 0,
                values,
            },
            false,
        );
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":0.25,\"unit\":\"s\"}"));
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\":")));
        }
    }
}
