//! Replays a live run's intent log on a bare [`Orchestrator`] through its
//! public methods, timing each call — the `nfv` layer measured without
//! the control plane around it — and checks the replay ends in the live
//! run's state.
//!
//! Batches are replayed as the control plane executes them: rejected
//! intents are skipped, and a batch's consecutive admitted deployments go
//! into one [`Orchestrator::deploy_chains`] call (one
//! [`Orchestrator::deploy_chain`] when the run holds a single
//! deployment), flushed before any other admitted intent.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use alvc::core::construct_layers;
use alvc::core::construction::PaperGreedy;
use alvc::nfv::{
    ChainSpec, ElectronicOnlyPlacer, Error, Intent, IntentLog, IntentOutcome, NfcId,
    Orchestrator, StateView,
};
use alvc::optical::routing::route_flow_within;
use alvc::topology::{DataCenter, Element, VmId};

use crate::stats::Samples;

/// Per-call timings of one replay.
#[derive(Debug, Default)]
pub struct Timings {
    /// Wall time per call, µs, keyed by intent kind label. A
    /// `deploy_chains` call contributes its time divided by its size once
    /// per deployment.
    pub call_us: BTreeMap<&'static str, Samples>,
    /// `construct_layers` on each deployment run's groups, µs per cluster
    /// (probes only).
    pub construct_us: Samples,
    /// `route_flow_within` over each new chain's slice and waypoints, µs
    /// (probes only).
    pub route_us: Samples,
}

/// The end state the live run and the replay are compared on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndState {
    /// Deployed chains.
    pub chains: usize,
    /// Total committed bandwidth, kb/s.
    pub committed_kbps: u64,
    /// Installed flow rules.
    pub rules: usize,
}

impl EndState {
    /// The end state a published view reports.
    pub fn of_view(view: &StateView) -> EndState {
        EndState {
            chains: view.chain_count(),
            committed_kbps: view.total_committed_kbps,
            rules: view.sdn_rules,
        }
    }

    /// The end state of a bare orchestrator.
    pub fn of_orchestrator(dc: &DataCenter, orch: &Orchestrator) -> EndState {
        let gbps: f64 = dc
            .links()
            .map(|(e, _)| orch.committed_bandwidth_gbps(e))
            .sum();
        EndState {
            chains: orch.chain_count(),
            committed_kbps: (gbps * 1e6).round() as u64,
            rules: orch.sdn().total_rules(),
        }
    }
}

/// The replay's verdict and timings.
#[derive(Debug)]
pub struct Replay {
    /// The bare orchestrator after the replay.
    pub orch: Orchestrator,
    /// Per-call timings.
    pub timings: Timings,
    /// Intents whose replayed outcome (ok / error) differs from the log's.
    pub outcome_mismatches: usize,
}

type Deploy = (String, Vec<VmId>, ChainSpec);

struct Replayer<'a> {
    dc: &'a DataCenter,
    orch: Orchestrator,
    ctor: PaperGreedy,
    placer: ElectronicOnlyPlacer,
    probes: bool,
    /// Whether the batch being replayed is in the measured window.
    timing: bool,
    timings: Timings,
    mismatches: usize,
}

impl Replayer<'_> {
    fn record(&mut self, kind: &'static str, us: f64) {
        if !self.timing {
            return;
        }
        self.timings.call_us.entry(kind).or_default().push(us);
    }

    fn check<T>(&mut self, logged: &IntentOutcome, result: &Result<T, Error>) {
        let ok = result.is_ok();
        if ok != logged.is_completed() {
            self.mismatches += 1;
        }
    }

    fn flush(&mut self, run: &mut Vec<Deploy>, logged: &[IntentOutcome]) {
        if run.is_empty() {
            return;
        }
        let run = std::mem::take(run);
        if self.probes && self.timing {
            let clusters: Vec<Vec<VmId>> = run
                .iter()
                .map(|(_, vms, _)| {
                    let mut vms = vms.clone();
                    vms.sort();
                    vms.dedup();
                    vms
                })
                .collect();
            let t = Instant::now();
            let layers = construct_layers(
                self.dc,
                &clusters,
                &self.ctor,
                self.orch.manager().availability(),
            );
            let us = t.elapsed().as_secs_f64() * 1e6 / clusters.len() as f64;
            std::hint::black_box(layers);
            self.timings.construct_us.push(us);
        }
        let n = run.len();
        let t = Instant::now();
        let results: Vec<Result<NfcId, Error>> = if n == 1 {
            let (tenant, vms, spec) = run.into_iter().next().expect("one deployment");
            let r = self.orch.deploy_chain(
                self.dc,
                tenant.as_str(),
                vms,
                spec,
                &self.ctor,
                &self.placer,
            );
            vec![r]
        } else {
            self.orch
                .deploy_chains(self.dc, run, &self.ctor, &self.placer)
        };
        let us = t.elapsed().as_secs_f64() * 1e6 / n as f64;
        for (result, outcome) in results.iter().zip(logged) {
            self.record("deploy_chain", us);
            self.check(outcome, result);
            if let (true, Ok(chain)) = (self.probes && self.timing, result) {
                self.probe_route(*chain);
            }
        }
    }

    /// Times `route_flow_within` for `chain` over the slice and waypoints
    /// rebuilt from its public deployed state.
    fn probe_route(&mut self, chain: NfcId) {
        let dc = self.dc;
        let Some(deployed) = self.orch.chain(chain) else {
            return;
        };
        let Some(cluster) = self.orch.manager().cluster(deployed.cluster()) else {
            return;
        };
        let spec = deployed.nfc().spec();
        let mut allowed: HashSet<_> = cluster.al().switch_nodes(dc).into_iter().collect();
        for &vm in cluster.vms() {
            allowed.insert(dc.node_of_server(dc.server_of_vm(vm)));
        }
        let mut waypoints = vec![dc.node_of_server(dc.server_of_vm(spec.ingress))];
        for h in deployed.hosts() {
            let node = match h {
                alvc::nfv::HostLocation::Server(s) => dc.node_of_server(*s),
                alvc::nfv::HostLocation::OptoRouter(o) => dc.node_of_ops(*o),
            };
            allowed.insert(node);
            waypoints.push(node);
        }
        waypoints.push(dc.node_of_server(dc.server_of_vm(spec.egress)));
        let t = Instant::now();
        let path = route_flow_within(dc, &allowed, &waypoints);
        self.timings.route_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(path.is_ok());
    }

    fn other(&mut self, intent: &Intent, logged: &IntentOutcome) {
        let dc = self.dc;
        let kind = intent.kind().label();
        let t = Instant::now();
        let ok = match intent {
            Intent::DeployChain { .. } => unreachable!("deployments are flushed in runs"),
            Intent::TeardownChain { chain } => self.orch.teardown_chain(*chain).map(drop),
            Intent::ModifyChain { chain, spec } => {
                self.orch
                    .modify_chain(dc, *chain, spec.clone(), &self.placer)
            }
            Intent::ScaleOut { chain, position } => {
                self.orch.scale_out(dc, *chain, *position).map(drop)
            }
            Intent::ScaleIn { replica } => self.orch.scale_in(*replica),
            Intent::FailElement { element } => {
                let report = match *element {
                    Element::Ops(ops) => self.orch.fail_ops(dc, ops, &self.ctor, &self.placer),
                    Element::Server(s) => self.orch.fail_server(dc, s, &self.placer),
                    Element::Tor(tor) => self.orch.fail_tor(dc, tor, &self.placer),
                };
                std::hint::black_box(report.serving_count());
                Ok(())
            }
            Intent::RestoreElement { element } => {
                std::hint::black_box(match *element {
                    Element::Ops(ops) => self.orch.restore_ops(ops),
                    Element::Server(s) => self.orch.restore_server(s),
                    Element::Tor(tor) => self.orch.restore_tor(tor),
                });
                Ok(())
            }
            Intent::Reoptimize => {
                std::hint::black_box(self.orch.reoptimize_degraded(dc, &self.placer).len());
                Ok(())
            }
            Intent::Recluster { moves } => {
                let report = self
                    .orch
                    .apply_recluster(dc, moves, &self.ctor, &self.placer);
                std::hint::black_box(report.applied);
                Ok(())
            }
            Intent::SetPowerState { element, state } => self
                .orch
                .set_power_state(dc, *element, *state)
                .map(drop)
                .map_err(Error::from),
            other => panic!("intent kind {:?} is not replayed", other.kind()),
        };
        self.record(kind, t.elapsed().as_secs_f64() * 1e6);
        self.check(logged, &ok);
    }
}

/// Replays `log` on a bare orchestrator over `dc`, timing the calls of
/// batches from `from_batch` on. With `probes`, those batches also time
/// `construct_layers` before each deployment run and `route_flow_within`
/// after each new chain.
pub fn replay(dc: &DataCenter, log: &IntentLog, from_batch: u64, probes: bool) -> Replay {
    let mut r = Replayer {
        dc,
        orch: Orchestrator::new(),
        ctor: PaperGreedy::new(),
        placer: ElectronicOnlyPlacer::new(),
        probes,
        timing: false,
        timings: Timings::default(),
        mismatches: 0,
    };
    let records = log.records();
    let mut i = 0;
    while i < records.len() {
        let batch = records[i].batch;
        r.timing = batch >= from_batch;
        let mut run: Vec<Deploy> = Vec::new();
        let mut run_outcomes: Vec<IntentOutcome> = Vec::new();
        while i < records.len() && records[i].batch == batch {
            let rec = &records[i];
            i += 1;
            if rec.outcome.is_rejected() {
                continue;
            }
            match &rec.intent {
                Intent::DeployChain { vms, spec } => {
                    run.push((rec.tenant.clone(), vms.clone(), spec.clone()));
                    run_outcomes.push(rec.outcome.clone());
                }
                other => {
                    r.flush(&mut run, &run_outcomes);
                    run_outcomes.clear();
                    r.other(other, &rec.outcome);
                }
            }
        }
        r.flush(&mut run, &run_outcomes);
    }
    Replay {
        orch: r.orch,
        timings: r.timings,
        outcome_mismatches: r.mismatches,
    }
}
