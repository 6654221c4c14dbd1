//! Seeded tenant intent streams, resolved against each tenant's own live
//! chains.
//!
//! Each tenant draws abstract operations from its own [`IntentMix`] and
//! turns them into concrete intents against what it knows it owns: the
//! chains whose deployment it saw complete, minus the ones it tore down.
//! A chain with an intent still in flight is *busy* and is never targeted
//! a second time, so concurrent intents of one tenant never race on one
//! chain. When an operation has no valid target (a teardown with no idle
//! chain, a deploy at the tenant's live-chain cap, ...), the tenant
//! substitutes the complementary operation (a deploy at the cap becomes a
//! teardown of the oldest idle chain) or draws again, so almost every
//! submitted intent is valid and the stream never degenerates into no-op
//! rejections.

use std::collections::{BTreeMap, BTreeSet};

use alvc::nfv::{
    ChainSpec, Intent, IntentEffect, IntentOutcome, NfcId, StateView, VnfInstanceId, VnfSpec,
    VnfType,
};
use alvc::sim::{ChainBlueprint, ChainWorkload, IntentMix, IntentOp, MixWeights};
use alvc::topology::{DataCenter, VmId};

/// Draws per resolution before a tenant gives up for this round.
const MAX_DRAWS: usize = 16;

/// Chain shape shared by every tenant: 1–4 VNFs, 40% heavy.
pub fn chain_workload(seed: u64) -> ChainWorkload {
    ChainWorkload::new(1, 4, 0.4, seed)
}

/// Bandwidth every chain reserves. Low enough that a tenant at its
/// live-chain cap never exhausts its servers' 10 Gb/s access links, so
/// deployments do not fail for bandwidth.
pub const CHAIN_GBPS: f64 = 0.1;

/// Maps a blueprint onto a concrete chain spec: heavy VNFs become DPI
/// (electronic-only), light ones firewalls.
pub fn spec_of(bp: &ChainBlueprint) -> ChainSpec {
    let vnfs: Vec<VnfSpec> = bp
        .heavy
        .iter()
        .map(|&h| VnfSpec::of(if h { VnfType::Dpi } else { VnfType::Firewall }))
        .collect();
    let b = ChainSpec::builder("bench")
        .ingress(bp.ingress)
        .egress(bp.egress)
        .bandwidth_gbps(CHAIN_GBPS);
    let b = if vnfs.is_empty() {
        b.passthrough()
    } else {
        b.linear(vnfs)
    };
    b.build().expect("blueprint specs are valid")
}

/// `n` tenant VM groups of `size` VMs each, spread evenly over the data
/// center. Each group straddles a rack boundary (half the VMs at the end of
/// one rack, half at the start of the next), so its slices span two ToRs.
pub fn tenant_groups(dc: &DataCenter, n: usize, size: usize) -> Vec<Vec<VmId>> {
    let vms: Vec<VmId> = dc.vm_ids().collect();
    let racks = dc.rack_count();
    let per_rack = vms.len() / racks;
    (0..n)
        .map(|t| {
            let rack = t * racks / n;
            let start = (rack + 1) * per_rack - size / 2;
            let group = vms[start..start + size].to_vec();
            let first = dc.rack_of_server(dc.server_of_vm(group[0]));
            let last = dc.rack_of_server(dc.server_of_vm(group[size - 1]));
            assert_ne!(first, last, "tenant group straddles two racks");
            group
        })
        .collect()
}

/// What a submitted intent will change in its tenant's bookkeeping once
/// its outcome is known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pending {
    /// A deployment: completes into a new live chain.
    Deploy,
    /// An intent targeting one live chain (teardown, modify, scale-out).
    Chain(NfcId),
    /// A scale-in of `replica`, which belongs to `chain`.
    ScaleIn(NfcId, VnfInstanceId),
}

/// Limits that keep a tenant at steady occupancy.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Live chains (confirmed plus in flight) a tenant keeps at most.
    pub live_chains: usize,
    /// Scale-out replicas per chain at most.
    pub replicas_per_chain: usize,
}

/// One tenant: its VM group, op generator and view of its own chains.
#[derive(Debug)]
pub struct Tenant {
    /// Tenant name as submitted to the control plane.
    pub name: String,
    /// The tenant's VMs; every chain's endpoints are drawn from these.
    pub group: Vec<VmId>,
    limits: Limits,
    mix: IntentMix,
    /// Blueprints for substituted deployments.
    spare: ChainWorkload,
    /// Confirmed live chains, oldest first.
    live: Vec<NfcId>,
    pending_deploys: usize,
    busy: BTreeSet<NfcId>,
    /// Confirmed replicas per chain, oldest first.
    replicas: BTreeMap<NfcId, Vec<VnfInstanceId>>,
}

impl Tenant {
    /// Tenant `index` of a run seeded with `seed`.
    pub fn new(
        index: usize,
        group: Vec<VmId>,
        weights: MixWeights,
        limits: Limits,
        seed: u64,
    ) -> Tenant {
        let s = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1 + index as u64);
        Tenant {
            name: format!("tenant-{index}"),
            group,
            limits,
            mix: IntentMix::new(weights, chain_workload(s), s),
            spare: chain_workload(s ^ 0x5eed),
            live: Vec::new(),
            pending_deploys: 0,
            busy: BTreeSet::new(),
            replicas: BTreeMap::new(),
        }
    }

    /// Chains the tenant believes live.
    pub fn live(&self) -> &[NfcId] {
        &self.live
    }

    /// Whether the tenant is below its live-chain cap.
    pub fn below_cap(&self) -> bool {
        self.live.len() + self.pending_deploys < self.limits.live_chains
    }

    fn idle(&self) -> impl Iterator<Item = NfcId> + '_ {
        self.live.iter().copied().filter(|c| !self.busy.contains(c))
    }

    /// A deployment of a fresh blueprint, bypassing the mix (prefill).
    pub fn deploy_intent(&mut self) -> (Intent, Pending) {
        let bp = self.spare.generate(&self.group, 1).pop().expect("one blueprint");
        self.pending_deploys += 1;
        (
            Intent::DeployChain {
                vms: self.group.clone(),
                spec: spec_of(&bp),
            },
            Pending::Deploy,
        )
    }

    fn deploy(&mut self, bp: &ChainBlueprint) -> (Intent, Pending) {
        self.pending_deploys += 1;
        (
            Intent::DeployChain {
                vms: self.group.clone(),
                spec: spec_of(bp),
            },
            Pending::Deploy,
        )
    }

    fn teardown_oldest(&mut self) -> Option<(Intent, Pending)> {
        let chain = self.idle().next()?;
        self.busy.insert(chain);
        Some((Intent::TeardownChain { chain }, Pending::Chain(chain)))
    }

    fn resolve(&mut self, op: &IntentOp) -> Option<(Intent, Pending)> {
        match op {
            IntentOp::Deploy(bp) => {
                if self.below_cap() {
                    Some(self.deploy(bp))
                } else {
                    self.teardown_oldest()
                }
            }
            IntentOp::Teardown => self.teardown_oldest(),
            IntentOp::Modify(bp) => {
                let chain = self.idle().last()?;
                self.busy.insert(chain);
                // The replacement keeps the chain's slice, so its
                // endpoints come from the same group.
                Some((
                    Intent::ModifyChain {
                        chain,
                        spec: spec_of(bp),
                    },
                    Pending::Chain(chain),
                ))
            }
            IntentOp::ScaleOut => {
                let cap = self.limits.replicas_per_chain;
                let chain = self
                    .idle()
                    .find(|c| self.replicas.get(c).map_or(0, Vec::len) < cap)?;
                self.busy.insert(chain);
                Some((
                    Intent::ScaleOut { chain, position: 0 },
                    Pending::Chain(chain),
                ))
            }
            IntentOp::ScaleIn => {
                let (chain, replica) = self.idle().find_map(|c| {
                    self.replicas
                        .get(&c)
                        .and_then(|r| r.first())
                        .map(|&r| (c, r))
                })?;
                self.busy.insert(chain);
                Some((Intent::ScaleIn { replica }, Pending::ScaleIn(chain, replica)))
            }
        }
    }

    /// The tenant's next intent: draws operations from its mix until one
    /// resolves against its own chains. `None` when nothing resolves
    /// within a bounded number of draws (every chain busy).
    pub fn next_intent(&mut self) -> Option<(Intent, Pending)> {
        for _ in 0..MAX_DRAWS {
            let op = self.mix.next(&self.group);
            if let Some(resolved) = self.resolve(&op) {
                return Some(resolved);
            }
        }
        None
    }

    /// Applies an executed intent's outcome to the tenant's bookkeeping.
    pub fn settle(&mut self, pending: Pending, outcome: &IntentOutcome) {
        match pending {
            Pending::Deploy => {
                self.pending_deploys -= 1;
                if let IntentOutcome::Completed(IntentEffect::Deployed { chain }) = outcome {
                    self.live.push(*chain);
                }
            }
            Pending::Chain(chain) => {
                self.busy.remove(&chain);
                match outcome {
                    IntentOutcome::Completed(IntentEffect::TornDown { .. }) => {
                        self.live.retain(|&c| c != chain);
                        self.replicas.remove(&chain);
                    }
                    // A modification scales the chain's replicas in.
                    IntentOutcome::Completed(IntentEffect::Modified { .. }) => {
                        self.replicas.remove(&chain);
                    }
                    IntentOutcome::Completed(IntentEffect::ScaledOut { replica, .. }) => {
                        self.replicas.entry(chain).or_default().push(*replica);
                    }
                    _ => {}
                }
            }
            Pending::ScaleIn(chain, replica) => {
                self.busy.remove(&chain);
                if outcome.is_completed() {
                    if let Some(r) = self.replicas.get_mut(&chain) {
                        r.retain(|&x| x != replica);
                    }
                }
            }
        }
    }

    /// Forgets chains that are no longer in the published view (lost to
    /// an unrecoverable failure), with their replicas. Returns how many
    /// idle chains were dropped.
    pub fn sync_with(&mut self, view: &StateView) -> usize {
        let before = self.live.len();
        let busy = &self.busy;
        self.live
            .retain(|c| busy.contains(c) || view.chains.contains_key(c));
        let live = &self.live;
        self.replicas.retain(|c, _| live.contains(c));
        before - self.live.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_of_maps_heavy_to_dpi() {
        let bp = ChainBlueprint {
            ingress: VmId(0),
            egress: VmId(1),
            heavy: vec![true, false],
        };
        let spec = spec_of(&bp);
        assert_eq!(spec.vnfs.len(), 2);
        assert_eq!(spec.vnfs[0].vnf_type, VnfType::Dpi);
    }
}
