//! `operator_storm`: whole-state operator mutations beside a light stream
//! of tenant deployments.
//!
//! Each round, every tenant runs one intent (a deploy, or a teardown at
//! its live-chain cap) in a batch of their own; then the operator runs
//! the next step of its cycle in a batch of its own, so a tenant never
//! targets a chain that an operator step in the same batch has just lost:
//!
//! 1. `FailElement` + `RestoreElement` on an OPS, a server or a ToR (in
//!    turn) that carries a live chain;
//! 2. `Reoptimize`;
//! 3. `Recluster`, with the moves `MigrationPlanner::plan` prices for one
//!    VM drifting into another tenant's newest cluster;
//! 4. one `DiurnalLoad` epoch: `ConsolidationPlanner::plan` over the
//!    observed tenant traffic, lowered to `SetPowerState` intents. Elements
//!    next to a tenant group are never powered off, so tenant deployments
//!    always find their slice.

use std::collections::BTreeSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use alvc::affinity::{CollectorConfig, HysteresisPolicy, MigrationPlanner, TrafficCollector, VmMove};
use alvc::core::ClusterSpec;
use alvc::energy::{ConsolidationConfig, ConsolidationPlanner};
use alvc::nfv::{HostLocation, Intent};
use alvc::sim::DiurnalLoad;
use alvc::topology::{DataCenter, Element, PowerState, VmId};

use crate::driver::{Driver, Executed};
use crate::stats::Samples;

/// One diurnal epoch per operator cycle, 1 s of traffic clock.
const EPOCH_NS: u64 = 1_000_000_000;
/// Diurnal epochs per phase (trough, ramp-up, peak, ramp-down).
const EPOCHS_PER_PHASE: u64 = 2;
/// The day starts at its peak, so the planner has seen the peak before
/// the first trough.
const FIRST_EPOCH: u64 = 2 * EPOCHS_PER_PHASE;
/// Pair weight of one tenant-ring VM pair at the diurnal peak.
const PEAK_PAIR_BYTES: f64 = 1e6;
/// Power-downs per plan at most.
const MAX_POWER_DOWNS: usize = 16;
/// Operator steps per cycle.
const STEPS: u64 = 4;

/// The operator's state across rounds.
pub struct Storm {
    rng: StdRng,
    round: u64,
    epoch: u64,
    day: DiurnalLoad,
    collector: TrafficCollector,
    migration: MigrationPlanner,
    consolidation: ConsolidationPlanner,
    /// Elements next to a tenant group: never powered off.
    protected: BTreeSet<Element>,
    /// Ring traffic of every tenant group at weight 1.
    ring: Vec<(VmId, VmId)>,
    /// `MigrationPlanner::plan` wall times, µs.
    pub affinity_plan_us: Samples,
    /// `ConsolidationPlanner::plan` wall times, µs.
    pub energy_plan_us: Samples,
}

impl Storm {
    /// The operator for a prefilled driver.
    pub fn new(dc: &DataCenter, d: &Driver, seed: u64) -> Storm {
        let mut protected = BTreeSet::new();
        let mut ring = Vec::new();
        for t in &d.tenants {
            for (i, &vm) in t.group.iter().enumerate() {
                ring.push((vm, t.group[(i + 1) % t.group.len()]));
                protected.insert(Element::Server(dc.server_of_vm(vm)));
                for &tor in dc.tors_of_vm(vm) {
                    protected.insert(Element::Tor(tor));
                    protected.extend(dc.ops_of_tor(tor).into_iter().map(Element::Ops));
                }
            }
        }
        let mut storm = Storm {
            rng: StdRng::seed_from_u64(seed ^ 0x0057_0e4d),
            round: 0,
            epoch: 0,
            day: DiurnalLoad::standard_day(EPOCHS_PER_PHASE),
            collector: TrafficCollector::new(CollectorConfig {
                capacity: 4 * ring.len(),
                half_life_s: EPOCH_NS as f64 / 2e9,
            }),
            // The operator approves every priced plan: the workload
            // measures executing moves, not the hysteresis gate.
            migration: MigrationPlanner::new(HysteresisPolicy {
                min_gain: -1.0,
                max_moves: 256,
            }),
            consolidation: ConsolidationPlanner::new(ConsolidationConfig {
                max_power_downs: MAX_POWER_DOWNS,
                pack_clusters: false,
                ..ConsolidationConfig::default()
            }),
            protected,
            ring,
            affinity_plan_us: Samples::new(),
            energy_plan_us: Samples::new(),
        };
        storm.observe_epoch();
        storm
    }

    fn observe_epoch(&mut self) {
        let level = self.day.level(FIRST_EPOCH + self.epoch);
        let bytes = (level * PEAK_PAIR_BYTES) as u64;
        self.collector.observe_pairs(
            self.ring.iter().map(|&(a, b)| (a, b, bytes)),
            (self.epoch + 1) * EPOCH_NS,
        );
    }

    /// Rounds until `until`.
    pub fn run(&mut self, dc: &DataCenter, d: &mut Driver, until: Instant) {
        while Instant::now() < until {
            d.top_up(1);
            d.drain();
            let intents = self.step(dc, d);
            for intent in intents {
                d.submit(None, intent, None);
            }
            d.drain();
            let view = d.cp.view();
            for t in &mut d.tenants {
                t.sync_with(&view);
            }
        }
    }

    /// The operator's next step.
    fn step(&mut self, dc: &DataCenter, d: &Driver) -> Vec<Intent> {
        let step = self.round % STEPS;
        let cycle = self.round / STEPS;
        self.round += 1;
        match step {
            0 => self.fail_restore(d, cycle),
            1 => vec![Intent::Reoptimize],
            2 => self.recluster(dc, d),
            _ => self.energy_epoch(dc, d),
        }
    }

    /// Fails and restores an element carrying a random live chain: its
    /// AL's OPS, a server hosting one of its VNFs, or its AL's ToR.
    fn fail_restore(&mut self, d: &Driver, cycle: u64) -> Vec<Intent> {
        let rng = &mut self.rng;
        let element = d.cp.inspect(|o| {
            let chains: Vec<_> = o.chains().collect();
            if chains.is_empty() {
                return None;
            }
            let chain = chains[rng.random_range(0..chains.len())];
            let al = o.manager().cluster(chain.cluster())?.al();
            let servers: Vec<_> = chain
                .hosts()
                .iter()
                .filter_map(|h| match h {
                    HostLocation::Server(s) => Some(*s),
                    HostLocation::OptoRouter(_) => None,
                })
                .collect();
            let ops = Element::Ops(al.ops()[rng.random_range(0..al.ops().len())]);
            Some(match cycle % 3 {
                0 => ops,
                1 if !servers.is_empty() => {
                    Element::Server(servers[rng.random_range(0..servers.len())])
                }
                1 => ops,
                _ => Element::Tor(al.tors()[rng.random_range(0..al.tors().len())]),
            })
        });
        match element {
            Some(element) => vec![
                Intent::FailElement { element },
                Intent::RestoreElement { element },
            ],
            None => Vec::new(),
        }
    }

    /// One VM of a random tenant drifts into the newest cluster of another
    /// tenant; the migration planner prices the move.
    fn recluster(&mut self, dc: &DataCenter, d: &Driver) -> Vec<Intent> {
        let stats = self.collector.snapshot();
        let rng = &mut self.rng;
        let planner = &self.migration;
        let plan_us = &mut self.affinity_plan_us;
        let tenants = &d.tenants;
        d.cp.inspect(|o| {
            let current = MigrationPlanner::current_specs(o.manager());
            let (newest, newest_spec) = current.last()?.clone();
            let label = o.manager().cluster(newest)?.label();
            let pinned: BTreeSet<VmId> = o
                .chains()
                .flat_map(|c| [c.nfc().spec().ingress, c.nfc().spec().egress])
                .collect();
            let others: Vec<_> = tenants.iter().filter(|t| t.name != label).collect();
            let tenant = others.get(rng.random_range(0..others.len().max(1)))?;
            let free: Vec<VmId> = tenant
                .group
                .iter()
                .copied()
                .filter(|v| !pinned.contains(v) && !newest_spec.vms.contains(v))
                .collect();
            let vm = *free.get(rng.random_range(0..free.len().max(1)))?;
            // The planner reads membership as VM → last cluster holding it.
            let from = current.iter().rposition(|(_, s)| s.vms.contains(&vm))?;
            let proposed: Vec<ClusterSpec> = current
                .iter()
                .enumerate()
                .map(|(i, (id, s))| {
                    let mut vms = s.vms.clone();
                    if i == from {
                        vms.retain(|&v| v != vm);
                    } else if *id == newest {
                        vms.push(vm);
                    }
                    ClusterSpec::new(s.label, vms)
                })
                .collect();
            let t = Instant::now();
            let plan = planner.plan(dc, o.manager(), &current, &proposed, &stats);
            plan_us.push(t.elapsed().as_secs_f64() * 1e6);
            let moves: Vec<VmMove> = plan.moves;
            (plan.approved && !moves.is_empty()).then_some(Intent::Recluster { moves })
        })
        .into_iter()
        .collect()
    }

    /// Advances the diurnal day one epoch and lowers the consolidation
    /// plan to power-state intents.
    fn energy_epoch(&mut self, dc: &DataCenter, d: &Driver) -> Vec<Intent> {
        self.epoch += 1;
        self.observe_epoch();
        let stats = self.collector.snapshot();
        let t = Instant::now();
        let plan = d.cp.inspect(|o| self.consolidation.plan(dc, o, &stats));
        self.energy_plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        plan.intents()
            .into_iter()
            .filter(|i| match i {
                Intent::SetPowerState {
                    element,
                    state: PowerState::PoweredOff,
                } => !self.protected.contains(element),
                _ => true,
            })
            .collect()
    }

    /// The mean over the run's element failures that touched a chain of
    /// the share of affected chains still serving after recovery. Each
    /// failure weighs the same, so the few ToR failures that touch many
    /// chains do not drown the rest.
    pub fn serving_ratio(&self, executed: &[Executed]) -> f64 {
        let shares: Vec<f64> = executed
            .iter()
            .filter_map(|e| e.recovered)
            .filter(|&(affected, _)| affected > 0)
            .map(|(affected, serving)| serving as f64 / affected as f64)
            .collect();
        shares.iter().sum::<f64>() / shares.len().max(1) as f64
    }
}
