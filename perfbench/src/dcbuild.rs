//! Whole-DC abstraction-layer builds: slice a data center into one
//! abstraction layer per service cluster with `construct_layers_sharded`.
//!
//! The `dc_build` workload does this, with no control plane, on a
//! multi-pod tier between dc-100k and dc-1m; the intent workloads do the
//! same on dc-100k for their `build_s`. Each whole-tier build is followed
//! by a block of builds of one pod of the same shape, the low-scale
//! point: sharded time minus pods × pod time is the cross-pod and merge
//! share.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alvc::core::construction::PaperGreedy;
use alvc::core::{construct_layers_sharded, service_clusters, AbstractionLayer, OpsAvailability};
use alvc::telemetry::trace::set_tracing_enabled;
use alvc::topology::{DataCenter, VmId};
use alvc_bench::Scale;

use crate::calibrate::Calibration;
use crate::clock::Clock;
use crate::metrics::{Outcome, Values};
use crate::spec::Spec;
use crate::stats::{interquartile_mean, quantile, windowed_quantile, Samples};
use crate::workloads::{peak_rss_mb, report_problems, Args};

/// Pods of the `dc_build` tier.
const PODS: usize = 20;
/// Tier builds behind `dc_build`'s `setup_s`.
const SETUP_REPETITIONS: usize = 5;
/// Whole-tier builds of a `dc_build` run at least, however short.
const MIN_REPETITIONS: usize = 2;
/// One-pod builds per block; a pod build takes milliseconds.
const POD_BUILDS_PER_BLOCK: usize = 20;

/// A data center and its service clusters.
pub struct Tier {
    dc: Arc<DataCenter>,
    clusters: Vec<Vec<VmId>>,
}

impl Tier {
    /// `dc` sliced by its service clusters.
    pub fn of(dc: Arc<DataCenter>) -> Tier {
        let clusters = service_clusters(&dc).into_iter().map(|c| c.vms).collect();
        Tier { dc, clusters }
    }

    /// dc-100k's shape with `pods` pods. Four services, as the sharded
    /// construction needs for OPS-disjoint layers within the ToR uplink
    /// budget (see `Scale::build_four_services`).
    pub fn with_pods(spec: &Spec, pods: usize) -> Tier {
        let scale = Scale {
            name: "dc_build",
            pods,
            ..Scale::DC_LADDER[0]
        };
        Tier::of(Arc::new(scale.build_four_services(spec.topology_seed())))
    }
}

/// One timed whole-tier construction and whether its layers are sound.
pub struct Build {
    /// Time on the [`Clock`], s.
    pub s: f64,
    /// Clusters that got a layer.
    pub ok: usize,
    /// Clusters whose layer validates against the cluster.
    pub valid: usize,
    /// Whether the layers are pairwise OPS-disjoint.
    pub disjoint: bool,
    /// `ShardReport::fallbacks`.
    pub fallbacks: usize,
    /// `ShardReport::merged_clusters`.
    pub merged: usize,
    /// OPSs over all layers.
    pub al_ops: usize,
}

/// Builds every cluster's layer of `t` from scratch, timed.
pub fn build(t: &Tier) -> Build {
    let mut clock = Clock::start();
    let (layers, report) =
        construct_layers_sharded(&t.dc, &t.clusters, &PaperGreedy::new(), &OpsAvailability::all());
    let s = clock.settle();
    let ok_layers: Vec<&AbstractionLayer> = layers.iter().flatten().collect();
    let valid = layers
        .iter()
        .zip(&t.clusters)
        .filter(|(l, vms)| l.as_ref().is_ok_and(|al| al.validate(&t.dc, vms).is_ok()))
        .count();
    let mut seen = BTreeSet::new();
    let disjoint = ok_layers
        .iter()
        .flat_map(|al| al.ops())
        .all(|&ops| seen.insert(ops));
    Build {
        s,
        ok: ok_layers.len(),
        valid,
        disjoint,
        fallbacks: report.fallbacks,
        merged: report.merged_clusters,
        al_ops: ok_layers.iter().map(|al| al.ops_count()).sum(),
    }
}

/// Whole-tier builds, each followed by a block of one-pod builds.
#[derive(Default)]
pub struct Builds {
    /// The whole-tier builds, in order.
    pub whole: Vec<Build>,
    /// The one-pod build times, s, block after block.
    pub pod_s: Vec<f64>,
}

impl Builds {
    /// One more whole-tier build of `t` and block of one-pod builds of
    /// `pod`.
    pub fn sample(&mut self, t: &Tier, pod: &Tier) {
        self.whole.push(build(t));
        self.pod_s
            .extend((0..POD_BUILDS_PER_BLOCK).map(|_| build(pod).s));
    }

    /// Interquartile mean of the whole-tier build times, s: the host's
    /// speed drifts by ±15% within seconds, and the mean of the middle
    /// half of the builds varies less from run to run than their median.
    pub fn typical_s(&self) -> f64 {
        let s: Vec<f64> = self.whole.iter().map(|b| b.s).collect();
        interquartile_mean(&s)
    }

    /// Failed checks over every whole-tier build of `t`: a cluster without
    /// a layer that covers it, or layers that share an OPS.
    pub fn problems(&self, t: &Tier) -> Vec<String> {
        let attempted = self.whole.len() * t.clusters.len();
        let sound: usize = self.whole.iter().map(|b| b.ok.min(b.valid)).sum();
        let mut problems = Vec::new();
        if sound < attempted {
            problems.push(format!(
                "{} of {attempted} cluster layers missing or not covering their cluster",
                attempted - sound
            ));
        }
        if !self.whole.iter().all(|b| b.disjoint) {
            problems.push("abstraction layers are not pairwise OPS-disjoint".into());
        }
        problems
    }

    /// Sets the `core.*` per-layer metrics of the whole-tier builds.
    pub fn set_core_metrics(&self, v: &mut Values) {
        let last = self.whole.last().expect("at least one build");
        v.set("core.construct_sharded_s", self.typical_s());
        v.set("core.pod_construct_s", quantile(&self.pod_s, 0.5));
        v.set("core.fallbacks", last.fallbacks as f64);
        v.set("core.merged_clusters", last.merged as f64);
        v.set("core.al_ops_total", last.al_ops as f64);
    }
}

/// Runs `dc_build`.
pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let mut setup_s = Samples::new();
    let mut t = None;
    for _ in 0..SETUP_REPETITIONS {
        drop(t.take());
        let mut clock = Clock::start();
        t = Some(Tier::with_pods(spec, PODS));
        setup_s.push(clock.settle());
    }
    let t = t.expect("at least one set-up");
    let pod = Tier::with_pods(spec, 1);
    // One untimed build of each tier warms caches and the allocator. The
    // peak RSS is read after it, before the calibration kernel first runs
    // beside the tiers, so the kernel's copies do not count; every later
    // build repeats the same work.
    build(&t);
    build(&pod);
    let peak_rss = peak_rss_mb();

    // Untraced builds alternate with, in a traced run, traced ones; the
    // traced builds only give the tracing overhead.
    let mut calibration = Calibration::wide();
    calibration.sample();
    let until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut builds = Builds::default();
    let mut traced = Builds::default();
    while builds.whole.len() < MIN_REPETITIONS || Instant::now() < until {
        // The kernel brackets every build: the host's speed moves within
        // seconds, and the builds take about two.
        calibration.once();
        builds.sample(&t, &pod);
        calibration.once();
        if args.traced {
            set_tracing_enabled(true);
            traced.whole.push(build(&t));
            set_tracing_enabled(false);
        }
    }
    calibration.sample();

    let mut problems = builds.problems(&t);
    problems.extend(traced.problems(&t));
    let clusters = t.clusters.len();
    let all = builds.whole.iter().chain(&traced.whole);
    let attempted: usize = all.clone().count() * clusters;
    let completed: usize = all.clone().map(|b| b.ok).sum();
    let valid: usize = all.map(|b| b.valid).sum();
    let ms: Vec<f64> = builds.whole.iter().map(|b| b.s * 1e3).collect();
    let limit = spec.latency_limit_ms("dc_build");

    let mut v = Values::default();
    if args.traced {
        v.set("topology.build_s", setup_s.median());
        builds.set_core_metrics(&mut v);
        v.set("telemetry.overhead_ratio", traced.typical_s() / builds.typical_s() - 1.0);
        v.set("error_ratio", (attempted - completed) as f64 / attempted as f64);
        let over = ms.iter().filter(|&&m| m > limit).count();
        v.set("slo_miss_ratio", over as f64 / ms.len() as f64);
    } else {
        let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
        v.set("setup_s", setup_s.median());
        v.set("goodput_per_s", (builds.whole.len() * clusters) as f64 / total_s);
        v.set("latency_p50_ms", quantile(&ms, 0.5));
        v.set("latency_p99_ms", quantile(&ms, 0.99));
        v.set(
            "latency_p99_ms_low",
            windowed_quantile(&builds.pod_s, POD_BUILDS_PER_BLOCK, 0.99) * 1e3,
        );
        v.set("completed_ratio", completed as f64 / attempted as f64);
        let within = ms.iter().filter(|&&m| m <= limit).count();
        v.set("slo_met_ratio", within as f64 / ms.len() as f64);
        v.set("serving_ratio", valid as f64 / attempted as f64);
        v.set("build_s", builds.typical_s());
        v.set("peak_rss_mb", peak_rss);
        calibration.to_reference(
            &mut v,
            &[
                "setup_s",
                "goodput_per_s",
                "latency_p50_ms",
                "latency_p99_ms",
                "latency_p99_ms_low",
                "build_s",
            ],
        );
    }
    report_problems(&problems);
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - completed,
        values: v,
    }
}
