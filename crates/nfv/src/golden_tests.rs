//! Golden regression runs for the orchestrator's mutation paths.
//!
//! Two seeded scripts drive every chain mutation the orchestrator has —
//! deploy (single and bulk), teardown, modify, scale out/in, lifecycle
//! events, server/ToR/OPS failure and restore, re-optimization,
//! re-clustering and power-state changes — and fold an FNV-1a 64 digest
//! over a canonical dump of the whole derived state after every step.
//! The pinned digests fix the exact state every step leaves behind: they
//! change only when placement, routing, recovery outcomes or a ledger
//! change on purpose.

use std::collections::{BTreeMap, HashMap};

use alvc_affinity::VmMove;
use alvc_core::clustering::{tenant_clusters, ClusterSpec};
use alvc_core::construction::PaperGreedy;
use alvc_core::LabelId;
use alvc_topology::{
    AlvcTopologyBuilder, DataCenter, Element, OpsId, OpsInterconnect, PowerState, ServerId, TorId,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::chain::{fig5, ChainSpec};
use crate::error::PlacementError;
use crate::lifecycle::HostLocation;
use crate::orchestrator::Orchestrator;
use crate::placement::{ElectronicOnlyPlacer, PlacementContext, VnfPlacer};
use crate::vnf::ResourceDemand;
use crate::NfcId;

/// Best-fit optoelectronic router first, least-loaded server otherwise:
/// exercises both host ledgers (the electronic-only placer never touches
/// the optical one).
struct OpticalFirst;

impl VnfPlacer for OpticalFirst {
    fn name(&self) -> &'static str {
        "golden-optical-first"
    }

    fn place(
        &self,
        ctx: &PlacementContext<'_>,
        chain: &ChainSpec,
    ) -> Result<Vec<HostLocation>, PlacementError> {
        let opto = ctx.opto_candidates();
        let mut opto_used: BTreeMap<OpsId, ResourceDemand> =
            opto.iter().map(|&o| (o, ctx.used_on_opto(o))).collect();
        let mut load: BTreeMap<ServerId, f64> = ctx
            .servers
            .iter()
            .map(|&s| (s, ctx.used_on_server(s).cpu))
            .collect();
        let mut hosts = Vec::with_capacity(chain.vnfs.len());
        for (i, vnf) in chain.vnfs.iter().enumerate() {
            let best = opto
                .iter()
                .copied()
                .filter(|&o| {
                    let cap = ctx.dc.opto_capacity(o).expect("opto candidate");
                    vnf.demand.fits_in(&cap, &opto_used[&o])
                })
                .min_by(|&a, &b| {
                    opto_used[&b]
                        .cpu
                        .total_cmp(&opto_used[&a].cpu)
                        .then(a.cmp(&b))
                });
            if let Some(o) = best {
                let e = opto_used.get_mut(&o).expect("tracked");
                *e = e.plus(&vnf.demand);
                hosts.push(HostLocation::OptoRouter(o));
                continue;
            }
            let server = load
                .iter()
                .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
                .map(|(&s, _)| s)
                .ok_or(PlacementError::NoCapacity { chain_position: i })?;
            *load.get_mut(&server).expect("tracked") += vnf.demand.cpu;
            hosts.push(HostLocation::Server(server));
        }
        Ok(hosts)
    }
}

/// FNV-1a 64 over a canonical byte dump.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.u(x.to_bits());
    }

    fn host(&mut self, h: HostLocation) {
        match h {
            HostLocation::Server(s) => {
                self.u(0);
                self.u(s.index() as u64);
            }
            HostLocation::OptoRouter(o) => {
                self.u(1);
                self.u(o.index() as u64);
            }
        }
    }

    fn usage<K: Ord + Copy>(&mut self, map: &HashMap<K, ResourceDemand>, key: impl Fn(K) -> u64) {
        let sorted: BTreeMap<K, ResourceDemand> = map.iter().map(|(&k, &d)| (k, d)).collect();
        self.u(sorted.len() as u64);
        for (k, d) in sorted {
            self.u(key(k));
            self.f(d.cpu);
            self.f(d.memory_gib);
            self.f(d.storage_gib);
        }
    }

    /// Folds the orchestrator's whole derived state into the digest.
    fn state(&mut self, dc: &DataCenter, orch: &Orchestrator) {
        self.u(orch.chains.len() as u64);
        for (id, c) in &orch.chains {
            self.u(id.index() as u64);
            self.u(c.cluster.index() as u64);
            self.f(c.nfc.spec().bandwidth_gbps);
            self.u(c.hosts.len() as u64);
            for &h in &c.hosts {
                self.host(h);
            }
            self.u(c.path.nodes().len() as u64);
            for n in c.path.nodes() {
                self.u(n.index() as u64);
            }
            self.u(c.edges.len() as u64);
            for e in &c.edges {
                self.u(e.index() as u64);
            }
            self.u(c.instances.len() as u64);
            for i in &c.instances {
                self.u(i.index() as u64);
            }
        }
        self.u(orch.instances.len() as u64);
        for (iid, inst) in &orch.instances {
            self.u(iid.index() as u64);
            self.host(inst.host());
            self.u(inst.state() as u64);
            self.u(inst.history().len() as u64);
        }
        self.u(orch.replicas.len() as u64);
        for (iid, &(chain, pos)) in &orch.replicas {
            self.u(iid.index() as u64);
            self.u(chain.index() as u64);
            self.u(pos as u64);
        }
        self.usage(&orch.server_used, |s| s.index() as u64);
        self.usage(&orch.opto_used, |o| o.index() as u64);
        let ledger: BTreeMap<_, _> = orch.link_committed.iter().collect();
        self.u(ledger.len() as u64);
        for (e, kb) in ledger {
            self.u(e.index() as u64);
            self.u(kb);
        }
        for n in dc.graph().node_ids() {
            let rules = orch.sdn.rules_on_switch(n);
            if rules > 0 {
                self.u(n.index() as u64);
                self.u(rules as u64);
            }
        }
        self.u(orch.degraded.len() as u64);
        for id in &orch.degraded {
            self.u(id.index() as u64);
        }
    }
}

/// The `tests/chaos.rs` operation mix on its topology, with both host
/// ledgers in play. Returns the digest folded over every step.
fn chaos_digest(steps: usize) -> u64 {
    let dc = AlvcTopologyBuilder::new()
        .racks(10)
        .servers_per_rack(4)
        .vms_per_server(2)
        .ops_count(40)
        .tor_ops_degree(8)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .seed(777)
        .build();
    // Tight flow tables make rule installation a live failure mode for
    // deploy, modify and every recovery rung.
    let mut orch = Orchestrator::builder()
        .sdn_table_limit(6)
        .quiet(true)
        .build();
    let mut rng = StdRng::seed_from_u64(31337);
    let all_vms: Vec<_> = dc.vm_ids().collect();
    let tenants = tenant_clusters(&all_vms, 6);
    let mut live: Vec<(NfcId, usize)> = Vec::new();
    let mut free: Vec<usize> = (0..tenants.len()).collect();
    let mut digest = Fnv::new();

    for step in 0..steps {
        match rng.random_range(0..7u8) {
            0 => {
                if let Some(pos) = (!free.is_empty()).then(|| rng.random_range(0..free.len())) {
                    let group = &tenants[free[pos]];
                    let (a, b) = (group.vms[0], *group.vms.last().unwrap());
                    let spec = match step % 3 {
                        0 => fig5::blue(a, b),
                        1 => fig5::black(a, b),
                        _ => fig5::green(a, b),
                    };
                    if let Ok(id) = orch.deploy_chain(
                        &dc,
                        group.label,
                        group.vms.clone(),
                        spec,
                        &PaperGreedy::new(),
                        &OpticalFirst,
                    ) {
                        live.push((id, free.swap_remove(pos)));
                    }
                }
            }
            1 if !live.is_empty() => {
                let (id, tenant) = live.swap_remove(rng.random_range(0..live.len()));
                orch.teardown_chain(id).expect("live chain");
                free.push(tenant);
            }
            2 => {
                if let Some(&(id, tenant)) = live.first() {
                    let group = &tenants[tenant];
                    let (a, b) = (group.vms[0], *group.vms.last().unwrap());
                    // Plain, bandwidth-heavy and latency-bound upgrades, so
                    // modification fails at admission as well as succeeds.
                    let spec = match step % 4 {
                        0 => fig5::black(a, b),
                        1 => fig5::green(a, b),
                        2 => ChainSpec {
                            bandwidth_gbps: 12.0,
                            ..fig5::blue(a, b)
                        },
                        _ => ChainSpec {
                            max_latency_us: Some(6.0),
                            ..fig5::black(a, b)
                        },
                    };
                    let placer: &dyn VnfPlacer = if step % 8 < 4 {
                        &OpticalFirst
                    } else {
                        &ElectronicOnlyPlacer::new()
                    };
                    let _ = orch.modify_chain(&dc, id, spec, placer);
                }
            }
            3 => {
                if let Some(&(id, _)) = live.first() {
                    if let Ok(replica) = orch.scale_out(&dc, id, 0) {
                        if rng.random::<f64>() < 0.5 {
                            orch.scale_in(replica).expect("fresh replica");
                        }
                    }
                }
            }
            4 => {
                if let Some(&(id, _)) = live.first() {
                    if let Some(&iid) = orch.chain(id).unwrap().instances().first() {
                        let _ = orch.begin_update(iid);
                        let _ = orch.complete_operation(iid);
                    }
                }
            }
            5 => {
                if rng.random::<f64>() < 0.45 {
                    match rng.random_range(0..3u8) {
                        0 => {
                            // Half the time, a server hosting a live VNF.
                            let hosted = live.first().and_then(|&(id, _)| {
                                orch.chain(id)
                                    .unwrap()
                                    .hosts()
                                    .iter()
                                    .find_map(|h| match h {
                                        HostLocation::Server(s) => Some(*s),
                                        HostLocation::OptoRouter(_) => None,
                                    })
                            });
                            let s = match hosted {
                                Some(s) if rng.random::<f64>() < 0.5 => s,
                                _ => ServerId(rng.random_range(0..dc.server_count())),
                            };
                            let _ = orch.fail_server(&dc, s, &OpticalFirst);
                        }
                        1 => {
                            let t = TorId(rng.random_range(0..dc.tor_count()));
                            let _ = orch.fail_tor(&dc, t, &OpticalFirst);
                        }
                        _ => {
                            let o = OpsId(rng.random_range(0..dc.ops_count()));
                            let _ = orch.fail_ops(&dc, o, &PaperGreedy::new(), &OpticalFirst);
                        }
                    }
                } else if let Some(&element) = orch.health().failed().first() {
                    match element {
                        Element::Server(s) => assert!(orch.restore_server(s)),
                        Element::Tor(t) => assert!(orch.restore_tor(t)),
                        Element::Ops(o) => assert!(orch.restore_ops(o)),
                    }
                    let _ = orch.reoptimize_degraded(&dc, &OpticalFirst);
                }
                live.retain(|&(id, tenant)| {
                    let alive = orch.chain(id).is_some();
                    if !alive {
                        free.push(tenant);
                    }
                    alive
                });
            }
            _ => {}
        }
        digest.u(step as u64);
        digest.state(&dc, &orch);
    }
    digest.0
}

/// Bulk deploys, re-clustering moves, power-state changes and churn on a
/// multi-pod topology. Returns the digest folded over every step.
fn multipod_digest(steps: usize) -> u64 {
    let dc = AlvcTopologyBuilder::new()
        .racks(6)
        .servers_per_rack(2)
        .vms_per_server(2)
        .ops_count(16)
        .tor_ops_degree(4)
        .opto_fraction(0.5)
        .interconnect(OpsInterconnect::FullMesh)
        .pods(3)
        .boundary_gateways(2)
        .seed(4242)
        .build();
    let mut orch = Orchestrator::builder().quiet(true).build();
    let mut rng = StdRng::seed_from_u64(2718);
    // Six consecutive VMs (three servers) per tenant keep every group
    // inside one pod.
    let all_vms: Vec<_> = dc.vm_ids().collect();
    let tenants: Vec<ClusterSpec> = all_vms
        .chunks(6)
        .enumerate()
        .map(|(i, vms)| ClusterSpec::new(LabelId::intern(&format!("pod-tenant-{i}")), vms.to_vec()))
        .collect();
    let mut live: Vec<(NfcId, usize)> = Vec::new();
    let mut digest = Fnv::new();
    let elements: Vec<Element> = dc
        .server_ids()
        .map(Element::Server)
        .chain(dc.tor_ids().map(Element::Tor))
        .chain(dc.ops_ids().map(Element::Ops))
        .collect();

    for step in 0..steps {
        match rng.random_range(0..6u8) {
            // Bulk deploy for up to four free tenants.
            0 | 1 => {
                let mut requests = Vec::new();
                let mut picked = Vec::new();
                for (t, g) in tenants.iter().enumerate() {
                    if requests.len() == 4 {
                        break;
                    }
                    if live.iter().any(|&(_, lt)| lt == t) || rng.random::<f64>() < 0.4 {
                        continue;
                    }
                    let (a, b) = (g.vms[0], *g.vms.last().unwrap());
                    let spec = if (step + t) % 2 == 0 {
                        fig5::black(a, b)
                    } else {
                        fig5::blue(a, b)
                    };
                    requests.push((g.label, g.vms.clone(), spec));
                    picked.push(t);
                }
                let results = orch.deploy_chains(&dc, requests, &PaperGreedy::new(), &OpticalFirst);
                for (t, r) in picked.into_iter().zip(results) {
                    if let Ok(id) = r {
                        live.push((id, t));
                    }
                }
            }
            // Teardown.
            2 if !live.is_empty() => {
                let (id, _) = live.swap_remove(rng.random_range(0..live.len()));
                orch.teardown_chain(id).expect("live chain");
            }
            // Re-cluster: move a few non-endpoint VMs between live slices.
            3 if live.len() >= 2 => {
                let mut moves = Vec::new();
                for _ in 0..3 {
                    let a = live[rng.random_range(0..live.len())].0;
                    let b = live[rng.random_range(0..live.len())].0;
                    let (ca, cb) = (
                        orch.chain(a).unwrap().cluster,
                        orch.chain(b).unwrap().cluster,
                    );
                    let spec = orch.chain(a).unwrap().nfc.spec().clone();
                    let vms = orch.manager.cluster(ca).unwrap().vms().to_vec();
                    let candidates: Vec<_> = vms
                        .into_iter()
                        .filter(|&v| v != spec.ingress && v != spec.egress)
                        .collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    let vm = candidates[rng.random_range(0..candidates.len())];
                    moves.push(VmMove {
                        vm,
                        from: ca,
                        to: cb,
                    });
                }
                let _ = orch.apply_recluster(&dc, &moves, &PaperGreedy::new(), &OpticalFirst);
            }
            // Power-state changes (rejections are part of the script).
            4 => {
                for _ in 0..4 {
                    let element = elements[rng.random_range(0..elements.len())];
                    let state = match rng.random_range(0..3u8) {
                        0 => PowerState::Active,
                        1 => PowerState::Idle,
                        _ => PowerState::PoweredOff,
                    };
                    let _ = orch.set_power_state(&dc, element, state);
                }
            }
            // Modify, scale, or an OPS failure/restore with re-optimization.
            5 if !live.is_empty() => {
                let (id, t) = live[rng.random_range(0..live.len())];
                match rng.random_range(0..5u8) {
                    0 => {
                        let g = &tenants[t];
                        let spec = fig5::green(g.vms[0], *g.vms.last().unwrap());
                        let _ = orch.modify_chain(&dc, id, spec, &OpticalFirst);
                    }
                    1 => {
                        if let Ok(r) = orch.scale_out(&dc, id, 0) {
                            if rng.random::<f64>() < 0.5 {
                                orch.scale_in(r).expect("fresh replica");
                            }
                        }
                    }
                    2 => {
                        let o = OpsId(rng.random_range(0..dc.ops_count()));
                        let _ = orch.fail_ops(&dc, o, &PaperGreedy::new(), &OpticalFirst);
                    }
                    3 => {
                        let t = TorId(rng.random_range(0..dc.tor_count()));
                        let _ = orch.fail_tor(&dc, t, &OpticalFirst);
                    }
                    _ => {
                        if let Some(&element) = orch.health().failed().first() {
                            match element {
                                Element::Server(s) => orch.restore_server(s),
                                Element::Tor(t) => orch.restore_tor(t),
                                Element::Ops(o) => orch.restore_ops(o),
                            };
                        }
                        let _ = orch.reoptimize_degraded(&dc, &OpticalFirst);
                    }
                }
                live.retain(|&(id, _)| orch.chain(id).is_some());
            }
            _ => {}
        }
        digest.u(step as u64);
        digest.state(&dc, &orch);
    }
    digest.0
}

/// The chaos-mix digest after 600 steps.
const CHAOS_DIGEST: u64 = 0xb646_5daa_15db_3b26;
/// The multi-pod digest after 300 steps.
const MULTIPOD_DIGEST: u64 = 0x6b9d_bcb1_bc1f_9ab0;

#[test]
fn chaos_mix_digest_is_pinned() {
    assert_eq!(chaos_digest(600), CHAOS_DIGEST, "{:#x}", chaos_digest(600));
}

#[test]
fn multipod_script_digest_is_pinned() {
    assert_eq!(
        multipod_digest(300),
        MULTIPOD_DIGEST,
        "{:#x}",
        multipod_digest(300)
    );
}
