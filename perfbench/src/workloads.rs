//! The workloads, and the measurements common to the two intent
//! workloads.
//!
//! An intent workload sets up dc-100k with prefilled tenants several
//! times (the median is `setup_s`), drives the last set-up through its
//! load shape, checks the run (see [`crate::gate`]) and derives the
//! metrics. With tracing on it first runs the same workload untraced on a
//! fresh set-up, for `telemetry.overhead_ratio`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use alvc::sim::MixWeights;
use alvc::topology::DataCenter;
use alvc_bench::Scale;

use crate::calibrate::Calibration;
use crate::clock::Clock;
use crate::dcbuild::{build, Builds, Tier};
use crate::driver::{control_plane, Driver, Executed};
use crate::gate::{check_run, traffic_check};
use crate::metrics::{Outcome, Values, KINDS};
use crate::spans::SpanStats;
use crate::spec::Spec;
use crate::stats::{quantile, windowed_quantile, windowed_rate, Samples};
use crate::storm::Storm;
use crate::tenants::{tenant_groups, Limits, Tenant};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["churn_saturate", "operator_storm", "dc_build"];

/// Tenants of an intent workload, all of equal weight.
const TENANTS: usize = 16;
/// VMs in each tenant's group.
const GROUP_VMS: usize = 24;
/// Every tenant's caps.
const LIMITS: Limits = Limits {
    live_chains: 6,
    replicas_per_chain: 2,
};
/// Set-ups behind an intent workload's `setup_s`.
const SETUP_REPETITIONS: usize = 15;
/// Intents each tenant keeps in flight on `churn_saturate`: 16 × 4 fills
/// every 64-intent batch.
const OUTSTANDING_PER_TENANT: usize = 4;
/// The same in `churn_saturate`'s low-concurrency phase.
const LOW_OUTSTANDING_PER_TENANT: usize = 1;
/// Completions per goodput window.
const GOODPUT_WINDOW_INTENTS: usize = 1000;
/// Timed whole-DC builds behind an intent workload's `build_s`.
const BUILD_REPETITIONS: usize = 9;
/// Intents per tail-latency window: each window holds ten samples beyond
/// its p99.
const TAIL_WINDOW_INTENTS: usize = 1000;
/// The same for the storm's tenant stream. Every tenant batch there runs
/// right after an operator step, and a window of 1,000 tenant intents
/// always holds the batch after the costliest step, whose length depends
/// on which element failed: windows of 250 (about four operator cycles)
/// make its tail vary a fifth as much from run to run.
const STORM_TENANT_TAIL_WINDOW_INTENTS: usize = 250;

/// Executed intents after which `peak_rss_mb` is read: about a third of
/// what a 15 s window executes on a shared 2-vCPU virtual machine.
fn rss_after_intents(workload: &str) -> usize {
    if workload == "operator_storm" {
        4_000
    } else {
        30_000
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub traced: bool,
}

/// Runs one workload and returns its outcome.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(args: &Args) -> Outcome {
    let spec = Spec::load();
    match args.workload.as_str() {
        "dc_build" => crate::dcbuild::run(&spec, args),
        "churn_saturate" | "operator_storm" => intent_workload(&spec, args),
        other => panic!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One set-up: dc-100k plus prefilled tenants.
struct Setup {
    dc: Arc<DataCenter>,
    driver: Driver,
    topology_s: f64,
    total_s: f64,
}

fn setup(spec: &Spec, workload: &str, seed: u64) -> Setup {
    let mut clock = Clock::start();
    // Four services, so every service cluster's AL fits the ToR uplink
    // budget (see `Scale::build_four_services`).
    let dc = Arc::new(Scale::DC_LADDER[0].build_four_services(spec.topology_seed()));
    let topology_s = clock.settle();
    let weights = if workload == "operator_storm" {
        MixWeights::deploy_only()
    } else {
        MixWeights::default()
    };
    let tenants = tenant_groups(&dc, TENANTS, GROUP_VMS)
        .into_iter()
        .enumerate()
        .map(|(i, group)| Tenant::new(i, group, weights, LIMITS, seed))
        .collect();
    let mut driver = Driver::new(control_plane(&dc), tenants);
    driver.prefill();
    Setup {
        dc,
        driver,
        topology_s,
        total_s: clock.settle(),
    }
}

/// Phase of the intents behind goodput and the main latencies.
const MAIN: usize = 1;
/// Phase of the low-load latency (`latency_p99_ms_low`), where there is one.
const LOW: usize = 2;

/// What the measured window leaves beside the driver's records.
struct Window {
    /// Clock time of the window, s.
    clock_s: f64,
    /// The storm's operator, for its planner timings and recoveries.
    storm: Option<Storm>,
}

fn measure(args: &Args, s: &mut Setup, traced: bool) -> (Window, Option<SpanStats>) {
    let seconds = Duration::from_secs_f64(args.seconds);
    let d = &mut s.driver;
    d.start_recording(traced, rss_after_intents(&args.workload));
    let start = Instant::now();
    let mut storm = None;
    match args.workload.as_str() {
        "churn_saturate" => {
            // Three quarters at full batches, the rest with one intent per
            // tenant in flight (the low-concurrency latency).
            d.phase = MAIN;
            d.closed_loop(OUTSTANDING_PER_TENANT, start + seconds.mul_f64(0.75));
            d.phase = LOW;
            d.closed_loop(LOW_OUTSTANDING_PER_TENANT, start + seconds);
        }
        "operator_storm" => {
            d.phase = MAIN;
            let mut operator = Storm::new(&s.dc, d, args.seed);
            operator.run(&s.dc, d, start + seconds);
            storm = Some(operator);
        }
        other => unreachable!("{other} is not an intent workload"),
    }
    d.drain();
    let clock_s = d.now();
    println!(
        "{{\"clock\":{{\"window_s\":{clock_s:?},\"removed_s\":{:?}}}}}",
        d.removed_s()
    );
    let spans = d.stop_recording();
    (Window { clock_s, storm }, spans)
}

fn latencies(executed: &[Executed], keep: impl Fn(&Executed) -> bool) -> Vec<f64> {
    executed
        .iter()
        .filter(|e| keep(e))
        .map(|e| e.latency_ms)
        .collect()
}

fn intent_workload(spec: &Spec, args: &Args) -> Outcome {
    let workload = args.workload.as_str();

    // Untraced reference pass for the tracing overhead.
    let untraced_cost = args.traced.then(|| {
        let mut s = setup(spec, workload, args.seed);
        measure(args, &mut s, false);
        busy_per_completed(&s.driver)
    });

    // Calibrating first keeps the kernel's memory out of the peak RSS.
    let mut calibration = Calibration::default();
    calibration.sample();
    let mut setup_s = Samples::new();
    let mut topology_s = Samples::new();
    let mut s = None;
    for _ in 0..SETUP_REPETITIONS {
        drop(s.take());
        let next = setup(spec, workload, args.seed);
        setup_s.push(next.total_s);
        topology_s.push(next.topology_s);
        s = Some(next);
    }
    let mut s = s.expect("at least one set-up");
    s.driver.calibration = calibration;
    let (w, spans) = measure(args, &mut s, args.traced);
    // The footprint of the set-ups and a fixed share of the window; a
    // window too short to reach it counts whole.
    let peak_rss = s.driver.peak_rss_mb.unwrap_or_else(peak_rss_mb);
    s.driver.calibration.sample();

    // The operator's whole-DC AL build of the tier the workload runs on,
    // after one untimed build that warms caches and the allocator. It has
    // its own calibration: the host's speed a few seconds after the
    // window may differ from the window's.
    let tier = Tier::of(s.dc.clone());
    let pod = Tier::with_pods(spec, 1);
    build(&tier);
    let mut build_calibration = Calibration::default();
    build_calibration.sample();
    let mut builds = Builds::default();
    for _ in 0..BUILD_REPETITIONS {
        builds.sample(&tier, &pod);
        build_calibration.once();
    }

    let d = &s.driver;
    let mut problems = traffic_check(spec, workload, &d.executed);
    let checked = check_run(&s.dc, d, d.measured_from_batch, args.traced);
    problems.extend(checked.problems.iter().cloned());
    problems.extend(builds.problems(&tier));
    let executed = &d.executed;
    let attempted = executed.len();
    let completed = executed.iter().filter(|e| e.outcome == "completed").count();
    let limit = spec.latency_limit_ms(workload);
    let within = executed
        .iter()
        .filter(|e| e.outcome == "completed" && e.latency_ms <= limit)
        .count();
    let main = latencies(executed, |e| e.phase == MAIN);
    let (low, low_window) = if w.storm.is_some() {
        // The storm's low-rate stream is the tenants' intents.
        (latencies(executed, |e| !e.operator), STORM_TENANT_TAIL_WINDOW_INTENTS)
    } else {
        (latencies(executed, |e| e.phase == LOW), TAIL_WINDOW_INTENTS)
    };
    let done: Vec<f64> = executed
        .iter()
        .filter(|e| e.outcome == "completed" && e.phase == MAIN)
        .map(|e| e.done_s)
        .collect();
    let goodput = if w.storm.is_some() {
        // The storm completes intents in bursts between recovery batches
        // of very different lengths: a window of 1,000 completions holds
        // only a handful of ToR failures, so the whole window's rate is
        // the steadier figure.
        done.len() as f64 / w.clock_s
    } else {
        windowed_rate(&done, GOODPUT_WINDOW_INTENTS)
    };
    let serving_ratio = match &w.storm {
        Some(storm) => storm.serving_ratio(executed),
        None => {
            let view = d.cp.view();
            let believed: usize = d.tenants.iter().map(|t| t.live().len()).sum();
            let serving = d
                .tenants
                .iter()
                .flat_map(|t| t.live())
                .filter(|c| view.chains.contains_key(c))
                .count();
            serving as f64 / believed.max(1) as f64
        }
    };

    let mut v = Values::default();
    if args.traced {
        let rejected = executed.iter().filter(|e| e.outcome == "rejected").count();
        let batch_us: Vec<f64> = d.batches.iter().map(|b| b.us).collect();
        let busy_s: f64 = batch_us.iter().sum::<f64>() / 1e6;
        let waits: Vec<f64> = executed.iter().map(|e| e.queue_wait_ms).collect();
        let spans = spans.as_ref().expect("traced runs record spans");
        v.set("topology.build_s", topology_s.median());
        v.set("control.queue_wait_ms.p50", quantile(&waits, 0.5));
        v.set("control.queue_wait_ms.p99", quantile(&waits, 0.99));
        v.set("control.batch_us.p50", quantile(&batch_us, 0.5));
        v.set("control.batch_us.p99", quantile(&batch_us, 0.99));
        v.set(
            "control.batch_fill",
            d.batches.iter().map(|b| b.intents).sum::<usize>() as f64
                / d.batches.len().max(1) as f64,
        );
        v.set("control.busy_ratio", busy_s / w.clock_s);
        v.set("control.submit_us.p50", d.submit_us.median());
        v.set("control.rejected_ratio", rejected as f64 / attempted.max(1) as f64);
        v.set("control.attributed_ratio", spans.attributed_ratio());
        let t = &checked.timings;
        v.set("core.construct_us.p50", t.construct_us.median());
        v.set("optical.route_us.p50", t.route_us.median());
        v.set("placement.place_us.p50", spans.layer_p50("nfv.place"));
        v.set("nfv.admit_bandwidth_us.p50", spans.layer_p50("nfv.admit_bandwidth"));
        v.set("nfv.install_rules_us.p50", spans.layer_p50("nfv.install_rules"));
        for (short, label) in KINDS {
            if let Some(samples) = t.call_us.get(label) {
                v.set(format!("nfv.{short}_us.p50"), samples.quantile(0.5));
                v.set(format!("nfv.{short}_us.p99"), samples.quantile(0.99));
            }
            let of_kind: Vec<&Executed> = executed.iter().filter(|e| e.kind == label).collect();
            let failed = of_kind.iter().filter(|e| e.outcome == "failed").count();
            v.set(
                format!("nfv.failed_ratio.{short}"),
                failed as f64 / of_kind.len().max(1) as f64,
            );
        }
        if let Some(storm) = &w.storm {
            v.set("affinity.plan_us.p50", storm.affinity_plan_us.median());
            v.set("energy.plan_us.p50", storm.energy_plan_us.median());
        }
        builds.set_core_metrics(&mut v);
        if let Some(reference) = untraced_cost {
            v.set(
                "telemetry.overhead_ratio",
                busy_per_completed(d) / reference - 1.0,
            );
        }
        v.set("error_ratio", (attempted - completed) as f64 / attempted.max(1) as f64);
        v.set("slo_miss_ratio", (attempted - within) as f64 / attempted.max(1) as f64);
    } else {
        v.set("setup_s", setup_s.median());
        v.set("goodput_per_s", goodput);
        v.set("latency_p50_ms", quantile(&main, 0.5));
        v.set("latency_p99_ms", windowed_quantile(&main, TAIL_WINDOW_INTENTS, 0.99));
        v.set("latency_p99_ms_low", windowed_quantile(&low, low_window, 0.99));
        v.set("completed_ratio", completed as f64 / attempted.max(1) as f64);
        v.set("slo_met_ratio", within as f64 / attempted.max(1) as f64);
        v.set("serving_ratio", serving_ratio);
        v.set("build_s", builds.typical_s());
        v.set("peak_rss_mb", peak_rss);
        d.calibration.to_reference(
            &mut v,
            &["setup_s", "goodput_per_s", "latency_p50_ms", "latency_p99_ms", "latency_p99_ms_low"],
        );
        build_calibration.to_reference(&mut v, &["build_s"]);
    }
    report_problems(&problems);
    Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: attempted - completed,
        values: v,
    }
}

/// Time inside `process_batch` per completed intent, s.
fn busy_per_completed(d: &Driver) -> f64 {
    let busy: f64 = d.batches.iter().map(|b| b.us).sum::<f64>() / 1e6;
    let done = d
        .executed
        .iter()
        .filter(|e| e.outcome == "completed")
        .count();
    busy / done.max(1) as f64
}

/// Prints every failed check on stdout.
pub fn report_problems(problems: &[String]) {
    for p in problems {
        println!("check failed: {p}");
    }
}
