//! Per-link load accounting and hotspot analysis.
//!
//! §III.B motivates the OPS core with "higher bandwidth"; this module makes
//! link-level load observable: accumulate the bytes each physical link
//! carries for a set of routed flows, then report utilization against link
//! capacity and locate hotspots.

use std::collections::HashMap;

use alvc_graph::{EdgeId, NodeId};
use alvc_optical::HybridPath;
use alvc_topology::{DataCenter, Domain};
use serde::{Deserialize, Serialize};

/// Accumulates bytes per physical link.
///
/// # Example
///
/// ```
/// use alvc_optical::routing::route_flow;
/// use alvc_sim::linkload::LinkLoad;
/// use alvc_topology::{AlvcTopologyBuilder, ServerId};
///
/// let dc = AlvcTopologyBuilder::new().seed(1).build();
/// let mut load = LinkLoad::new();
/// let a = dc.node_of_server(ServerId(0));
/// let b = dc.node_of_server(ServerId(5));
/// let path = route_flow(&dc, &[a, b])?;
/// load.add_path(&dc, &path, 1_000_000);
/// assert!(load.total_byte_hops() >= 1_000_000);
/// # Ok::<(), alvc_optical::RoutingError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinkLoad {
    bytes_per_edge: HashMap<EdgeId, u64>,
}

/// A loaded link in a report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkReportEntry {
    /// The physical edge.
    pub edge: EdgeId,
    /// Link endpoints.
    pub endpoints: (NodeId, NodeId),
    /// The link's domain.
    pub domain: Domain,
    /// Bytes carried.
    pub bytes: u64,
    /// Bytes relative to capacity over `window_s` seconds (1.0 = the link
    /// is exactly full over the window).
    pub utilization: f64,
}

impl LinkLoad {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        LinkLoad::default()
    }

    /// Charges `bytes` to every link along `path` (the cheapest-latency
    /// parallel link between consecutive nodes, matching the router's
    /// choice).
    ///
    /// # Panics
    ///
    /// Panics if consecutive path nodes are not adjacent in `dc`.
    pub fn add_path(&mut self, dc: &DataCenter, path: &HybridPath, bytes: u64) {
        for w in path.nodes().windows(2) {
            let edge = dc
                .graph()
                .incident_edges(w[0])
                .filter(|&(_, n)| n == w[1])
                .min_by(|&(a, _), &(b, _)| {
                    let la = dc.graph().edge_weight(a).expect("edge exists").latency_us;
                    let lb = dc.graph().edge_weight(b).expect("edge exists").latency_us;
                    la.partial_cmp(&lb).expect("finite latency")
                })
                .map(|(e, _)| e)
                .expect("path nodes must be adjacent");
            *self.bytes_per_edge.entry(edge).or_insert(0) += bytes;
        }
    }

    /// Number of distinct links that carried traffic.
    pub fn loaded_link_count(&self) -> usize {
        self.bytes_per_edge.len()
    }

    /// Total byte·hops (sum of bytes over all links).
    pub fn total_byte_hops(&self) -> u64 {
        self.bytes_per_edge.values().sum()
    }

    /// Total bytes carried per domain: `(electronic, optical)`.
    pub fn bytes_by_domain(&self, dc: &DataCenter) -> (u64, u64) {
        let mut e = 0;
        let mut o = 0;
        for (&edge, &bytes) in &self.bytes_per_edge {
            match dc.graph().edge_weight(edge).expect("edge exists").domain {
                Domain::Electronic => e += bytes,
                Domain::Optical => o += bytes,
            }
        }
        (e, o)
    }

    /// The `n` most loaded links, with utilization computed against each
    /// link's capacity over a `window_s`-second interval.
    pub fn hotspots(&self, dc: &DataCenter, window_s: f64, n: usize) -> Vec<LinkReportEntry> {
        let mut entries: Vec<LinkReportEntry> = self
            .bytes_per_edge
            .iter()
            .map(|(&edge, &bytes)| {
                let attrs = dc.graph().edge_weight(edge).expect("edge exists");
                let capacity_bytes = attrs.bandwidth_gbps * 1e9 / 8.0 * window_s;
                let (a, b) = dc.graph().edge_endpoints(edge).expect("edge exists");
                LinkReportEntry {
                    edge,
                    endpoints: (a, b),
                    domain: attrs.domain,
                    bytes,
                    utilization: if capacity_bytes > 0.0 {
                        bytes as f64 / capacity_bytes
                    } else {
                        f64::INFINITY
                    },
                }
            })
            .collect();
        entries.sort_by(|x, y| {
            y.utilization
                .partial_cmp(&x.utilization)
                .expect("finite utilization")
                .then(x.edge.cmp(&y.edge))
        });
        entries.truncate(n);
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alvc_optical::routing::route_flow;
    use alvc_topology::{AlvcTopologyBuilder, OpsInterconnect, ServerId};

    fn dc() -> DataCenter {
        AlvcTopologyBuilder::new()
            .racks(4)
            .servers_per_rack(2)
            .ops_count(6)
            .tor_ops_degree(2)
            .interconnect(OpsInterconnect::FullMesh)
            .seed(3)
            .build()
    }

    #[test]
    fn empty_load_is_zero() {
        let load = LinkLoad::new();
        assert_eq!(load.loaded_link_count(), 0);
        assert_eq!(load.total_byte_hops(), 0);
        assert!(load.hotspots(&dc(), 1.0, 5).is_empty());
    }

    #[test]
    fn path_load_charges_every_hop() {
        let dc = dc();
        let mut load = LinkLoad::new();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(7));
        let path = route_flow(&dc, &[a, b]).unwrap();
        load.add_path(&dc, &path, 1000);
        assert_eq!(load.loaded_link_count(), path.hop_count());
        assert_eq!(load.total_byte_hops(), 1000 * path.hop_count() as u64);
    }

    #[test]
    fn repeated_flows_accumulate() {
        let dc = dc();
        let mut load = LinkLoad::new();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(1));
        let path = route_flow(&dc, &[a, b]).unwrap();
        load.add_path(&dc, &path, 500);
        load.add_path(&dc, &path, 500);
        let hot = load.hotspots(&dc, 1.0, 10);
        assert!(!hot.is_empty());
        assert!(hot.iter().all(|e| e.bytes == 1000));
    }

    #[test]
    fn domain_split_matches_path_domains() {
        let dc = dc();
        let mut load = LinkLoad::new();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(7)); // cross-rack: uses the core
        let path = route_flow(&dc, &[a, b]).unwrap();
        load.add_path(&dc, &path, 100);
        let (e, o) = load.bytes_by_domain(&dc);
        let (eh, oh) = path.hops_by_domain();
        assert_eq!(e, 100 * eh as u64);
        assert_eq!(o, 100 * oh as u64);
    }

    #[test]
    fn hotspots_sorted_by_utilization() {
        let dc = dc();
        let mut load = LinkLoad::new();
        // Access links (10 Gb/s) saturate before optical ones (100 Gb/s):
        // charge the same bytes on a cross-core route.
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(7));
        let path = route_flow(&dc, &[a, b]).unwrap();
        load.add_path(&dc, &path, 10_000_000);
        let hot = load.hotspots(&dc, 1.0, 100);
        for w in hot.windows(2) {
            assert!(w[0].utilization >= w[1].utilization);
        }
        assert_eq!(hot[0].domain, Domain::Electronic, "access links hottest");
    }

    #[test]
    fn hotspot_utilization_formula() {
        let dc = dc();
        let mut load = LinkLoad::new();
        let a = dc.node_of_server(ServerId(0));
        let b = dc.node_of_server(ServerId(1));
        let path = route_flow(&dc, &[a, b]).unwrap();
        // 10 Gb/s access link over 1 s = 1.25e9 bytes of capacity.
        load.add_path(&dc, &path, 1_250_000_000);
        let hot = load.hotspots(&dc, 1.0, 1);
        assert!((hot[0].utilization - 1.0).abs() < 1e-9);
    }
}
