//! One admission pipeline and one commit/release pair for every chain
//! mutation, plus the whole-state audit that checks their result.
//!
//! A chain's *footprint* is what its [`DeployedChain`] record already
//! carries: the VNF demand on each host, the bandwidth on each edge of its
//! path, and one flow rule per node of that path (§IV.A's "network
//! resource requirements (node and links)"). Deploy, modify, teardown and
//! every recovery rung go through the same three steps:
//!
//! 1. [`Orchestrator::admit`] — place (unless the hosts are kept), route
//!    inside the allowed nodes, check bandwidth, the latency budget and the
//!    flow tables. Read-only: a failure leaves nothing to roll back.
//! 2. [`Orchestrator::commit`] — charge the record's footprint onto the
//!    ledgers, start its VNF instances and install its rules.
//! 3. [`Orchestrator::release`] — the exact inverse.
//!
//! Planning "without this chain's own usage" (modification and
//! re-placement may reuse their own capacity) runs inside
//! [`Orchestrator::plan_without`], which takes the chain's demand out of
//! the live ledgers and afterwards writes the saved values back, so no
//! ledger is cloned and f64 host usage comes back bit for bit.
//!
//! [`Orchestrator::audit`] recomputes every derived map from the chain and
//! replica records and reports each disagreement.

use std::collections::{BTreeMap, HashSet};

use alvc_core::{AbstractionLayer, ClusterId};
use alvc_graph::{EdgeId, NodeId};
use alvc_optical::routing::try_path_edges;
use alvc_optical::{route_flow_within, HybridPath, RoutingError};
use alvc_topology::{DataCenter, Element, ServerId};

use crate::chain::{ChainSpec, NfcId};
use crate::error::DeployError;
use crate::lifecycle::{HostLocation, VnfInstance, VnfInstanceId, VnfState};
use crate::orchestrator::{kbps, DeployedChain, Orchestrator};
use crate::placement::{PlacementContext, VnfPlacer};
use crate::vnf::{ResourceDemand, VnfSpec};

/// Where admission may route a chain. Either way VNFs are placed on the
/// usable part of the slice's abstraction layer only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scope {
    /// Inside the slice: its layer's usable switches and the tenant's
    /// usable servers.
    Slice,
    /// Over every usable node of the data center (recovery's degraded
    /// rung).
    Fabric,
}

/// How admission picks the chain's VNF hosts.
pub(crate) enum Hosts<'a> {
    /// Keep these hosts (recovery's reroute rung).
    Keep(Vec<HostLocation>),
    /// Ask the placer.
    Place(&'a dyn VnfPlacer),
}

/// An admitted placement and route, not yet committed.
pub(crate) struct Admitted {
    pub(crate) hosts: Vec<HostLocation>,
    pub(crate) path: HybridPath,
    pub(crate) edges: Vec<EdgeId>,
}

impl DeployedChain {
    /// Takes over an admitted placement and route (not yet committed).
    pub(crate) fn adopt(&mut self, admitted: Admitted) {
        self.hosts = admitted.hosts;
        self.path = admitted.path;
        self.edges = admitted.edges;
    }
}

/// Which part of a chain's footprint a commit or release covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Part {
    /// VNF demand on the hosts, and the VNF instances.
    Hosts,
    /// Flow rules on the path, and bandwidth on its edges.
    Network,
    /// Both.
    All,
}

impl Part {
    fn hosts(self) -> bool {
        self != Part::Network
    }

    fn network(self) -> bool {
        self != Part::Hosts
    }
}

/// One disagreement between the orchestrator's derived state and a
/// recomputation from its chain and replica records (see
/// [`Orchestrator::audit`]). Tuples read `(key, live, expected)`.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// A link's committed kb/s is not the sum over the chains routed on it.
    Bandwidth(EdgeId, u64, u64),
    /// A host's usage is off the demands placed on it by more than 1e-9
    /// in some component.
    HostUsage(HostLocation, ResourceDemand, ResourceDemand),
    /// A switch's rule count is not the number of chain path visits.
    Rules(NodeId, usize, usize),
    /// An instance is not exactly a serving chain member or replica on its
    /// recorded host (`None`: absent, not serving, or owned by nothing).
    Instance(VnfInstanceId, Option<HostLocation>, Option<HostLocation>),
    /// A chain's rules do not follow its path, or it lacks its 1:1 slice
    /// binding to a live cluster.
    Chain(NfcId),
    /// A replica's instance is gone or its chain position does not exist.
    Replica(VnfInstanceId),
    /// Slice bindings or rule sets exist for chains that do not.
    Orphans,
    /// A degraded chain does not exist.
    Degraded(NfcId),
    /// Live state references a failed element.
    FailedReference(Element),
}

/// Per-component tolerance of the host-usage audit: the ledgers add and
/// subtract f64 demands in mutation order, the audit sums in chain order.
const USAGE_TOLERANCE: f64 = 1e-9;

impl Orchestrator {
    /// Plans a chain: places its VNFs (or keeps `hosts`), routes ingress →
    /// VNFs → egress over `scope`, and checks bandwidth, the latency
    /// budget and the flow tables, in that order. Each step runs in its
    /// `nfv.place` / `nfv.route` / `nfv.admit_bandwidth` /
    /// `nfv.install_rules` span. Touches no state.
    pub(crate) fn admit(
        &self,
        dc: &DataCenter,
        id: NfcId,
        spec: &ChainSpec,
        cluster: ClusterId,
        hosts: Hosts<'_>,
        scope: Scope,
    ) -> Result<Admitted, DeployError> {
        let vc = self.manager.cluster(cluster).expect("slice cluster exists");
        let mut servers: Vec<ServerId> = vc.vms().iter().map(|&v| dc.server_of_vm(v)).collect();
        servers.sort();
        servers.dedup();
        servers.retain(|&s| self.server_usable(s));

        let hosts = match hosts {
            Hosts::Keep(hosts) => hosts,
            Hosts::Place(placer) => {
                // A layer whose rebuild failed still lists its failed
                // switch; placement must not see it.
                let al = AbstractionLayer::new(
                    vc.al()
                        .tors()
                        .iter()
                        .copied()
                        .filter(|&t| self.tor_usable(t))
                        .collect(),
                    vc.al()
                        .ops()
                        .iter()
                        .copied()
                        .filter(|&o| self.ops_usable(o))
                        .collect(),
                );
                let mut place_span = alvc_telemetry::trace::child_span("nfv.place");
                let ctx = PlacementContext {
                    dc,
                    al: &al,
                    opto_used: &self.opto_used,
                    server_used: &self.server_used,
                    servers: &servers,
                };
                let hosts = placer.place(&ctx, spec).map_err(|e| {
                    place_span.fail("placement");
                    DeployError::from(e)
                })?;
                drop(place_span);
                debug_assert_eq!(hosts.len(), spec.vnfs.len());
                // Defense in depth: whatever the placer did, a placement
                // that violates the spec's rules is rejected before
                // routing, so rule enforcement does not depend on which
                // `VnfPlacer` the caller supplied.
                if let Some(rule) = spec.violated_rule(dc, &hosts) {
                    return Err(DeployError::RuleViolated { rule });
                }
                hosts
            }
        };

        let mut allowed: HashSet<NodeId> = match scope {
            Scope::Slice => vc
                .al()
                .switch_nodes(dc)
                .into_iter()
                .filter(|&n| self.node_usable(dc, n))
                .chain(servers.iter().map(|&s| dc.node_of_server(s)))
                .collect(),
            Scope::Fabric => dc
                .server_ids()
                .filter(|&s| self.server_usable(s))
                .map(|s| dc.node_of_server(s))
                .chain(
                    dc.tor_ids()
                        .filter(|&t| self.tor_usable(t))
                        .map(|t| dc.node_of_tor(t)),
                )
                .chain(
                    dc.ops_ids()
                        .filter(|&o| self.ops_usable(o))
                        .map(|o| dc.node_of_ops(o)),
                )
                .collect(),
        };
        let mut waypoints = Vec::with_capacity(hosts.len() + 2);
        waypoints.push(dc.node_of_server(dc.server_of_vm(spec.ingress)));
        for h in &hosts {
            let node = match h {
                HostLocation::Server(s) => dc.node_of_server(*s),
                HostLocation::OptoRouter(o) => dc.node_of_ops(*o),
            };
            allowed.insert(node);
            waypoints.push(node);
        }
        waypoints.push(dc.node_of_server(dc.server_of_vm(spec.egress)));
        let path = {
            let mut route_span = alvc_telemetry::trace::child_span("nfv.route");
            route_flow_within(dc, &allowed, &waypoints).map_err(|e| {
                route_span.fail("routing");
                DeployError::from(e)
            })?
        };

        let edges = {
            let mut admit_span = alvc_telemetry::trace::child_span("nfv.admit_bandwidth");
            self.check_bandwidth(dc, &path, spec.bandwidth_gbps)
                .and_then(|edges| self.check_latency(spec, &path).map(|()| edges))
                .inspect_err(|e| admit_span.fail(e.code()))?
        };

        let mut install_span = alvc_telemetry::trace::child_span("nfv.install_rules");
        self.sdn.check_fits(id, &path).map_err(|e| {
            install_span.fail("rule_table_full");
            DeployError::RuleTableFull(e)
        })?;
        Ok(Admitted { hosts, path, edges })
    }

    /// Latency-budget admission against the spec's effective budget (the
    /// tighter of `max_latency_us` and the QoS latency SLO).
    fn check_latency(&self, spec: &ChainSpec, path: &HybridPath) -> Result<(), DeployError> {
        if let Some(budget) = spec.effective_latency_budget_us() {
            let path_us = self.path_latency_us(path);
            if path_us > budget {
                return Err(DeployError::LatencyBudgetExceeded {
                    budget_us: budget,
                    path_us,
                });
            }
        }
        Ok(())
    }

    /// Verifies `bandwidth_gbps` fits on every edge of `path` on top of the
    /// ledger. A path hop with no corresponding link in the topology (a
    /// path computed before a switch or link failed) surfaces as
    /// [`DeployError::MissingEdge`], never a panic.
    fn check_bandwidth(
        &self,
        dc: &DataCenter,
        path: &HybridPath,
        bandwidth_gbps: f64,
    ) -> Result<Vec<EdgeId>, DeployError> {
        let edges = try_path_edges(dc, path).map_err(|e| match e {
            RoutingError::MissingLink { from, to } => DeployError::MissingEdge { from, to },
            other => DeployError::Routing(other),
        })?;
        let requested = kbps(bandwidth_gbps);
        for &e in &edges {
            let capacity = kbps(
                dc.graph()
                    .edge_weight(e)
                    .expect("edge from try_path_edges exists")
                    .bandwidth_gbps,
            );
            let committed = self.link_committed.committed(e);
            if committed + requested > capacity {
                return Err(DeployError::InsufficientBandwidth {
                    requested_gbps: bandwidth_gbps,
                    available_gbps: capacity.saturating_sub(committed) as f64 / 1e6,
                });
            }
        }
        Ok(edges)
    }

    /// Runs `plan` against ledgers without chain `id`'s own host demand and
    /// bandwidth, then writes the saved values back. Subtract-then-add does
    /// not round-trip f64 usage, so the saved values are restored, not
    /// re-added; integer kb/s re-commits exactly.
    pub(crate) fn plan_without<T>(&mut self, id: NfcId, plan: impl FnOnce(&Self) -> T) -> T {
        let chain = &self.chains[&id];
        let kb = kbps(chain.nfc.spec().bandwidth_gbps);
        let edges = chain.edges.clone();
        let members = members(chain);
        let mut saved = Vec::with_capacity(members.len());
        for (host, vnf) in members {
            if let Some(used) = self.usage_mut(host) {
                saved.push((host, *used));
                *used = used.saturating_minus(&vnf.demand);
            }
        }
        for &e in &edges {
            self.link_committed.release(e, kb);
        }
        let out = plan(self);
        for &e in &edges {
            self.link_committed.commit(e, kb);
        }
        // Reverse order: a host listed twice gets its first saved value.
        for (host, used) in saved.into_iter().rev() {
            *self.usage_mut(host).expect("saved entry exists") = used;
        }
        out
    }

    /// Commits `part` of chain `id`'s footprint as its record states it:
    /// [`Part::Hosts`] charges each VNF's demand on its host and starts one
    /// active instance per VNF (recorded on the chain); [`Part::Network`]
    /// installs one rule per path node and commits the bandwidth on every
    /// edge. Marks everything it touches in the change set.
    pub(crate) fn commit(&mut self, id: NfcId, part: Part) {
        let chain = &self.chains[&id];
        let cluster = chain.cluster;
        if part.network() {
            let kb = kbps(chain.nfc.spec().bandwidth_gbps);
            self.sdn.install_path(id, &chain.path);
            for &e in &chain.edges {
                self.link_committed.commit(e, kb);
            }
            self.changes.edges(&chain.edges);
        }
        if part.hosts() {
            let instances = members(chain)
                .into_iter()
                .map(|(host, vnf)| {
                    self.charge(host, &vnf.demand);
                    self.spawn(vnf, host)
                })
                .collect();
            self.chains.get_mut(&id).expect("chain exists").instances = instances;
        }
        self.changes.chain(id);
        self.changes.cluster(cluster);
    }

    /// Releases `part` of chain `id`'s footprint — the exact inverse of
    /// [`Orchestrator::commit`]: [`Part::Hosts`] refunds the demand and
    /// terminates and collects the instances, [`Part::Network`] removes the
    /// rules and releases the bandwidth. The record itself is left as is.
    pub(crate) fn release(&mut self, id: NfcId, part: Part) {
        let chain = &self.chains[&id];
        let cluster = chain.cluster;
        if part.network() {
            let kb = kbps(chain.nfc.spec().bandwidth_gbps);
            self.sdn.remove_chain(id);
            for &e in &chain.edges {
                self.link_committed.release(e, kb);
            }
            self.changes.edges(&chain.edges);
        }
        if part.hosts() {
            let instances = chain.instances.clone();
            for (iid, (host, vnf)) in instances.into_iter().zip(members(chain)) {
                self.terminate_and_collect(iid);
                self.refund(host, &vnf.demand);
            }
        }
        self.changes.chain(id);
        self.changes.cluster(cluster);
    }

    /// Releases chain `id`'s whole footprint (its replicas first) and
    /// removes it together with its slice binding and virtual cluster.
    pub(crate) fn remove_chain(&mut self, id: NfcId) -> DeployedChain {
        for replica in self.replicas_of(id) {
            let _ = self.scale_in(replica);
        }
        self.release(id, Part::All);
        let chain = self.chains.remove(&id).expect("chain exists");
        self.slices.unbind(id);
        self.degraded.remove(&id);
        self.manager.remove_cluster(chain.cluster);
        chain
    }

    /// Adds `demand` to `host`'s usage.
    pub(crate) fn charge(&mut self, host: HostLocation, demand: &ResourceDemand) {
        let used = match host {
            HostLocation::Server(s) => self.server_used.entry(s).or_default(),
            HostLocation::OptoRouter(o) => self.opto_used.entry(o).or_default(),
        };
        *used = used.plus(demand);
    }

    /// Subtracts `demand` from `host`'s usage, clamped at zero.
    pub(crate) fn refund(&mut self, host: HostLocation, demand: &ResourceDemand) {
        if let Some(used) = self.usage_mut(host) {
            *used = used.saturating_minus(demand);
        }
    }

    fn usage_mut(&mut self, host: HostLocation) -> Option<&mut ResourceDemand> {
        match host {
            HostLocation::Server(s) => self.server_used.get_mut(&s),
            HostLocation::OptoRouter(o) => self.opto_used.get_mut(&o),
        }
    }

    /// Starts a fresh active instance of `vnf` on `host`.
    pub(crate) fn spawn(&mut self, vnf: VnfSpec, host: HostLocation) -> VnfInstanceId {
        let iid = VnfInstanceId(self.next_instance);
        self.next_instance += 1;
        let mut inst = VnfInstance::new(iid, vnf, host);
        inst.activate().expect("fresh instance activates");
        self.instances.insert(iid, inst);
        self.changes.instance(iid);
        iid
    }

    /// Terminates an instance (if it is still serving) and removes it from
    /// the instance map. Keeping terminated instances around grows memory
    /// without bound under churn.
    pub(crate) fn terminate_and_collect(&mut self, iid: VnfInstanceId) -> Option<VnfInstance> {
        let mut inst = self.instances.remove(&iid)?;
        if inst.state() != VnfState::Terminated {
            inst.transition(VnfState::Terminated)
                .expect("serving states may terminate");
        }
        self.changes.instance(iid);
        Some(inst)
    }

    /// Recomputes every derived map from the chain and replica records and
    /// returns each disagreement with the live state (empty when
    /// consistent): the kb/s ledger exactly, host usage within 1e-9 per
    /// component, flow rules per switch and per chain, the instance map
    /// (members and replicas, serving, on their recorded hosts, nothing
    /// else), the 1:1 chain ↔ slice ↔ cluster binding, degraded chains,
    /// and references to failed elements.
    ///
    /// A violation snapshots the flight recorder (post-mortem reason
    /// `audit`). Debug builds of the control plane run this after every
    /// batch.
    pub fn audit(&self, dc: &DataCenter) -> Vec<AuditViolation> {
        use AuditViolation as V;
        let mut out = Vec::new();
        let mut bandwidth = BTreeMap::new();
        let mut usage = BTreeMap::new();
        let mut rules = BTreeMap::new();
        let mut instances = BTreeMap::new();
        let mut add_usage = |host: HostLocation, demand: &ResourceDemand| {
            let used: &mut ResourceDemand = usage.entry(host).or_default();
            *used = used.plus(demand);
        };
        for (&id, chain) in &self.chains {
            let kb = kbps(chain.nfc.spec().bandwidth_gbps);
            for &e in &chain.edges {
                *bandwidth.entry(e).or_insert(0) += kb;
            }
            for &n in chain.path.nodes() {
                *rules.entry(n).or_insert(0) += 1;
            }
            for (&iid, (host, vnf)) in chain.instances.iter().zip(members(chain)) {
                instances.insert(iid, Some(host));
                add_usage(host, &vnf.demand);
            }
            let installed = self.sdn.rules_for_chain(id).iter().map(|r| r.switch);
            let bound = self.slices.cluster_of(id) == Some(chain.cluster)
                && self.slices.chain_of(chain.cluster) == Some(id)
                && self.manager.cluster(chain.cluster).is_some();
            if !bound || !installed.eq(chain.path.nodes().iter().copied()) {
                out.push(V::Chain(id));
            }
        }
        for (&iid, &(chain, position)) in &self.replicas {
            let owned = self
                .chains
                .get(&chain)
                .is_some_and(|c| position < c.hosts.len());
            match self.instances.get(&iid) {
                Some(inst) if owned => {
                    instances.insert(iid, Some(inst.host()));
                    add_usage(inst.host(), &inst.spec().demand);
                }
                _ => out.push(V::Replica(iid)),
            }
        }
        if self.slices.len() != self.chains.len() || self.sdn.chain_count() != self.chains.len() {
            out.push(V::Orphans);
        }
        diff(
            self.link_committed.iter(),
            bandwidth,
            |e, live, want| (live != want).then_some(V::Bandwidth(e, live, want)),
            &mut out,
        );
        let recorded = self
            .server_used
            .iter()
            .map(|(&s, &d)| (HostLocation::Server(s), d))
            .chain(
                self.opto_used
                    .iter()
                    .map(|(&o, &d)| (HostLocation::OptoRouter(o), d)),
            );
        diff(
            recorded,
            usage,
            |h, live, want| (!usage_close(&live, &want)).then_some(V::HostUsage(h, live, want)),
            &mut out,
        );
        diff(
            self.sdn.switch_loads(),
            rules,
            |n, live, want| (live != want).then_some(V::Rules(n, live, want)),
            &mut out,
        );
        let live = self
            .instances
            .iter()
            .map(|(&iid, i)| (iid, i.is_serving().then(|| i.host())));
        diff(
            live,
            instances,
            |iid, live, want| (live != want).then_some(V::Instance(iid, live, want)),
            &mut out,
        );
        out.extend(
            self.degraded
                .iter()
                .filter(|id| !self.chains.contains_key(id))
                .map(|&id| V::Degraded(id)),
        );
        out.extend(
            self.health
                .failed()
                .into_iter()
                .filter(|&e| self.element_in_use(dc, e))
                .map(V::FailedReference),
        );
        if !out.is_empty() {
            alvc_telemetry::recorder::postmortem("audit");
        }
        out
    }
}

/// Compares live `(key, value)` pairs with the expected map, a key missing
/// on one side counting as the default value there, and collects what
/// `check` reports.
fn diff<K: Ord + Copy, T: Default + Copy>(
    live: impl IntoIterator<Item = (K, T)>,
    mut expected: BTreeMap<K, T>,
    check: impl Fn(K, T, T) -> Option<AuditViolation>,
    out: &mut Vec<AuditViolation>,
) {
    for (key, value) in live {
        let want = expected.remove(&key).unwrap_or_default();
        out.extend(check(key, value, want));
    }
    out.extend(
        expected
            .into_iter()
            .filter_map(|(key, want)| check(key, T::default(), want)),
    );
}

/// A chain's VNFs with their hosts, in chain order.
fn members(chain: &DeployedChain) -> Vec<(HostLocation, VnfSpec)> {
    chain
        .hosts
        .iter()
        .copied()
        .zip(chain.nfc.vnfs().iter().copied())
        .collect()
}

/// Whether two usages agree within [`USAGE_TOLERANCE`] per component.
fn usage_close(a: &ResourceDemand, b: &ResourceDemand) -> bool {
    (a.cpu - b.cpu).abs() <= USAGE_TOLERANCE
        && (a.memory_gib - b.memory_gib).abs() <= USAGE_TOLERANCE
        && (a.storage_gib - b.storage_gib).abs() <= USAGE_TOLERANCE
}
