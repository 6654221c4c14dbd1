//! What the benchmark records about its workloads in `perfbench/spec.json`
//! (compiled in): the topology seed, each workload's latency limit and
//! intended intent mix, and the end-to-end metric and workload each
//! per-layer metric should move.

use alvc_bench::Json;

/// The spec file's text.
pub const SPEC_JSON: &str = include_str!("../spec.json");

/// The parsed spec.
pub struct Spec(Json);

impl Spec {
    /// Parses the compiled-in spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not valid JSON.
    pub fn load() -> Spec {
        Spec(Json::parse(SPEC_JSON).expect("perfbench/spec.json parses"))
    }

    /// The value under `keys`.
    ///
    /// # Panics
    ///
    /// Panics if there is none.
    pub fn get(&self, keys: &[&str]) -> &Json {
        keys.iter().fold(&self.0, |node, key| {
            node.get(key)
                .unwrap_or_else(|| panic!("spec.json has no {}", keys.join("/")))
        })
    }

    /// Seed of every topology the benchmark builds.
    pub fn topology_seed(&self) -> u64 {
        self.get(&["topology", "seed"])
            .as_f64()
            .expect("the topology seed is a number") as u64
    }

    /// Latency limit of `workload`, ms.
    pub fn latency_limit_ms(&self, workload: &str) -> f64 {
        self.get(&[workload, "latency_limit_ms"])
            .as_f64()
            .expect("latency limits are numbers")
    }

    /// The intended `kind → share` of attempted intents of `workload`.
    pub fn mix(&self, workload: &str) -> Vec<(String, f64)> {
        self.get(&[workload, "mix"])
            .as_object()
            .expect("a mix is an object")
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().expect("shares are numbers")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_intent_workload_has_a_limit_and_a_mix() {
        let spec = Spec::load();
        assert_eq!(spec.topology_seed(), 12);
        for w in ["churn_saturate", "operator_storm"] {
            assert!(spec.latency_limit_ms(w) > 0.0);
            let total: f64 = spec.mix(w).iter().map(|(_, s)| s).sum();
            assert!((total - 1.0).abs() < 0.01, "{w} mix sums to {total}");
        }
        assert!(spec.latency_limit_ms("dc_build") > 0.0);
    }
}
