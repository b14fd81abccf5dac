//! Topologies: nodes, static routing, and the experiment shape builders.
//!
//! The study's network (paper Fig. 1) is a dumbbell: sender hosts at Clemson,
//! router 1 (WASH), router 2 (NCSA), receiver hosts at TACC, with the
//! bottleneck — rate limit, queue length, AQM — configured on the
//! router 1 → router 2 interface, and a measured RTT of 62 ms.
//!
//! Beyond the dumbbell, [`TopologySpec`] names the shapes the experiment
//! layer can request: `parking-lot:K` (one long flow crossing K shaped
//! hops, each also loaded by a one-hop cross flow) and `multi-dumbbell`
//! (one shared bottleneck, per-group access delays realizing
//! heterogeneous RTTs — the FaiRTT-style BBR unfairness setup). All three
//! are one chain of shaped hops that differ only in where each flow group
//! attaches (`chain`). Every hop of the chain is a designated *bottleneck
//! link*; the simulator instruments and checks each.

use crate::link::{Link, LinkId, LinkSpec};
use crate::packet::NodeId;
use crate::queue::Aqm;
use crate::time::SimDuration;
use crate::units::Bandwidth;
use elephants_json::{impl_json_unit_enum, FromJson, JsonError, ToJson, Value};

/// What role a node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Terminates flows (runs protocol endpoints).
    Host,
    /// Forwards packets by static routes.
    Router,
}

impl_json_unit_enum!(NodeKind { Host, Router });

/// A static-routed network: links plus per-node next-hop tables.
pub struct Topology {
    kinds: Vec<NodeKind>,
    links: Vec<Link>,
    /// `routes[node][dst]` = outgoing link towards `dst`.
    routes: Vec<Vec<Option<LinkId>>>,
    sender_hosts: Vec<NodeId>,
    receiver_hosts: Vec<NodeId>,
    /// Designated bottleneck links, in builder order; the first is the
    /// primary (the dumbbell's single shaped trunk).
    bottlenecks: Vec<LinkId>,
    base_rtt: SimDuration,
}

impl Topology {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0 as usize]
    }

    /// Add a link with a large droptail queue; the AQM under test goes in
    /// afterwards ([`Topology::set_aqm_on`]).
    fn add_link_big_fifo(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::with_big_fifo(id, src, dst, spec));
        id
    }

    /// Next-hop link for a packet at `node` heading to `dst`.
    #[inline]
    pub fn route(&self, node: NodeId, dst: NodeId) -> Option<LinkId> {
        self.routes[node.0 as usize][dst.0 as usize]
    }

    /// Mutable access to a link.
    #[inline]
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0 as usize]
    }

    /// Shared access to a link.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The primary designated bottleneck link (set by the builders).
    pub fn bottleneck_link(&self) -> Option<LinkId> {
        self.bottlenecks.first().copied()
    }

    /// All designated bottleneck links, in builder order. The dumbbell has
    /// one; a parking lot has one per shaped hop.
    pub fn bottleneck_links(&self) -> &[LinkId] {
        &self.bottlenecks
    }

    /// Replace the queue discipline on the primary bottleneck link.
    pub fn set_bottleneck_aqm(&mut self, aqm: Box<dyn Aqm>) {
        let id = self.bottleneck_link().expect("topology has no designated bottleneck");
        self.links[id.0 as usize].aqm = aqm;
    }

    /// Replace the queue discipline on an arbitrary link (multi-bottleneck
    /// topologies install one AQM instance per shaped hop).
    pub fn set_aqm_on(&mut self, id: LinkId, aqm: Box<dyn Aqm>) {
        self.links[id.0 as usize].aqm = aqm;
    }

    /// Sender-side host nodes (traffic sources).
    pub fn sender_hosts(&self) -> &[NodeId] {
        &self.sender_hosts
    }

    /// Receiver-side host nodes (traffic sinks).
    pub fn receiver_hosts(&self) -> &[NodeId] {
        &self.receiver_hosts
    }

    /// The designed round-trip propagation time of the reference path: the
    /// common RTT on a dumbbell, the long (all-hops) path on a parking
    /// lot, the shortest group RTT on a multi-dumbbell. Per-pair RTTs come
    /// from [`Topology::path_rtt`].
    pub fn base_rtt(&self) -> SimDuration {
        self.base_rtt
    }

    /// Round-trip propagation delay between two nodes, following the
    /// installed routes there and back. `None` when either direction has
    /// no route (or the route tables loop).
    pub fn path_rtt(&self, a: NodeId, b: NodeId) -> Option<SimDuration> {
        Some(self.one_way_prop(a, b)? + self.one_way_prop(b, a)?)
    }

    /// Sum of link propagation delays along the routed path `from → to`.
    fn one_way_prop(&self, from: NodeId, to: NodeId) -> Option<SimDuration> {
        let mut cur = from;
        let mut sum = SimDuration::ZERO;
        let mut hops = 0usize;
        while cur != to {
            let link = self.link(self.route(cur, to)?);
            sum += link.prop;
            cur = link.dst;
            hops += 1;
            if hops > self.n_nodes() {
                return None;
            }
        }
        Some(sum)
    }
}

/// Populate `topo`'s route tables towards every host by shortest hop
/// count over the directed links, breaking ties by lowest link id (so
/// routing is a deterministic function of the link list).
fn auto_route(topo: &mut Topology) {
    let n = topo.n_nodes();
    let hosts: Vec<NodeId> = (0..n as u32)
        .map(NodeId)
        .filter(|&nd| topo.kind(nd) == NodeKind::Host)
        .collect();
    for &dst in &hosts {
        // Hop distance from every node to `dst`; the graphs are tiny, so
        // iterate-to-fixpoint relaxation is plenty and fully deterministic.
        let mut dist = vec![u32::MAX; n];
        dist[dst.0 as usize] = 0;
        loop {
            let mut changed = false;
            for link in &topo.links {
                let (s, d) = (link.src.0 as usize, link.dst.0 as usize);
                if dist[d] != u32::MAX && dist[d] + 1 < dist[s] {
                    dist[s] = dist[d] + 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for node in 0..n {
            if node == dst.0 as usize || dist[node] == u32::MAX {
                continue;
            }
            for (l, link) in topo.links.iter().enumerate() {
                let d = link.dst.0 as usize;
                if link.src.0 as usize == node && dist[d] != u32::MAX && dist[d] + 1 == dist[node] {
                    topo.routes[node][dst.0 as usize] = Some(LinkId(l as u32));
                    break;
                }
            }
        }
    }
}

impl std::fmt::Debug for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Topology")
            .field("nodes", &self.kinds.len())
            .field("links", &self.links.len())
            .field("senders", &self.sender_hosts)
            .field("receivers", &self.receiver_hosts)
            .field("bottlenecks", &self.bottlenecks)
            .finish()
    }
}

/// Where one flow group joins a [`chain`]: its sender reaches router `src`
/// over `access`, and router `dst` reaches its receiver over `leaf`. The
/// same links, mirrored, carry the group's ACKs back.
#[derive(Debug, Clone, Copy)]
struct Attach {
    src: usize,
    dst: usize,
    access: LinkSpec,
    leaf: LinkSpec,
}

/// Rate of the raw router interconnect that carries every reverse hop
/// (the paper shapes only the forward direction with `tc`).
const INTERCONNECT: Bandwidth = Bandwidth::from_gbps(100);

/// Lay out routers `0..=K` joined by the K shaped `hops`, plus one sender
/// and one receiver host per attached group. Every named shape is built
/// here.
///
/// Nodes are numbered senders, then routers, then receivers. Links go in
/// as forward access, hops and leaf, then the mirrored reverse path, whose
/// hops run at the [`INTERCONNECT`] rate. Link ids follow that order, and
/// shortest-hop routing breaks its ties by them. Every hop is a designated
/// bottleneck and starts as a big droptail queue.
fn chain(hops: &[LinkSpec], groups: &[Attach], base_rtt: SimDuration) -> Topology {
    let (g, k) = (groups.len(), hops.len());
    let sender = |j: usize| NodeId(j as u32);
    let router = |i: usize| NodeId((g + i) as u32);
    let receiver = |j: usize| NodeId((g + k + 1 + j) as u32);
    let mut kinds = vec![NodeKind::Host; 2 * g + k + 1];
    kinds[g..=g + k].fill(NodeKind::Router);
    let n = kinds.len();
    let mut topo = Topology {
        kinds,
        links: Vec::new(),
        routes: vec![vec![None; n]; n],
        sender_hosts: (0..g).map(sender).collect(),
        receiver_hosts: (0..g).map(receiver).collect(),
        bottlenecks: Vec::new(),
        base_rtt,
    };
    for (j, a) in groups.iter().enumerate() {
        topo.add_link_big_fifo(sender(j), router(a.src), a.access);
    }
    for (i, &hop) in hops.iter().enumerate() {
        let id = topo.add_link_big_fifo(router(i), router(i + 1), hop);
        topo.bottlenecks.push(id);
    }
    for (j, a) in groups.iter().enumerate() {
        topo.add_link_big_fifo(router(a.dst), receiver(j), a.leaf);
    }
    for (j, a) in groups.iter().enumerate() {
        topo.add_link_big_fifo(receiver(j), router(a.dst), a.leaf);
    }
    for (i, hop) in hops.iter().enumerate() {
        let rev = LinkSpec::new(INTERCONNECT, hop.prop);
        topo.add_link_big_fifo(router(i + 1), router(i), rev);
    }
    for (j, a) in groups.iter().enumerate() {
        topo.add_link_big_fifo(router(a.src), sender(j), a.access);
    }
    auto_route(&mut topo);
    topo
}

/// One-way delay the paper-style edges add to a path (1 ms access + 2 ms
/// leaf); the trunk absorbs the rest of an end-to-end RTT, which therefore
/// has to exceed twice this.
pub const EDGE_ONE_WAY: SimDuration = SimDuration::from_millis(3);

/// The paper's sender NIC: 25 GbE, 1 ms to the first router.
const PAPER_ACCESS: LinkSpec =
    LinkSpec { rate: Bandwidth::from_gbps(25), prop: SimDuration::from_millis(1) };

/// The paper's receiver NIC: 25 GbE, 2 ms from the last router.
const PAPER_LEAF: LinkSpec =
    LinkSpec { rate: Bandwidth::from_gbps(25), prop: SimDuration::from_millis(2) };

/// One-way trunk delay that, between the paper's edges, makes a path's
/// round trip `rtt`.
fn trunk_one_way(rtt: SimDuration) -> Result<SimDuration, String> {
    if rtt <= EDGE_ONE_WAY * 2 {
        return Err(format!("RTT {rtt:?} must exceed the 6 ms edge budget"));
    }
    Ok((rtt / 2).saturating_sub(EDGE_ONE_WAY))
}

/// Builder for the paper's dumbbell (Fig. 1).
///
/// `n_pairs` sender hosts connect through router 1 → router 2 to `n_pairs`
/// receiver hosts. Propagation delays of access (sender↔router1), bottleneck
/// (router1↔router2) and leaf (router2↔receiver) links sum to half the RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DumbbellSpec {
    /// Number of sender/receiver host pairs (the paper uses 2).
    pub n_pairs: usize,
    /// Router1 → router2 link (rate = bottleneck BW under test).
    pub bottleneck: LinkSpec,
    /// Sender host ↔ router1 links (25 GbE NICs in the paper).
    pub access: LinkSpec,
    /// Router2 ↔ receiver host links.
    pub leaf: LinkSpec,
}

impl DumbbellSpec {
    /// The paper's topology: 2 host pairs, 25 Gbps access/leaf NICs, and a
    /// bottleneck of `bw` shaped on router 1, with one-way delays
    /// 1 + 28 + 2 ms so the end-to-end RTT is 62 ms.
    pub fn paper(bw: Bandwidth) -> Self {
        Self::paper_with_rtt(bw, SimDuration::from_millis(62))
    }

    /// The paper's topology with a custom end-to-end RTT (the paper's
    /// future-work "different RTTs" extension). Access/leaf one-way delays
    /// keep the paper's 1 + 2 ms; the trunk absorbs the rest.
    ///
    /// # Panics
    /// Panics unless `rtt` exceeds the 6 ms the access/leaf links
    /// contribute; [`TopologySpec::build`] returns that as an error.
    pub fn paper_with_rtt(bw: Bandwidth, rtt: SimDuration) -> Self {
        let trunk = trunk_one_way(rtt).unwrap_or_else(|e| panic!("{e}"));
        DumbbellSpec {
            n_pairs: 2,
            bottleneck: LinkSpec::new(bw, trunk),
            access: PAPER_ACCESS,
            leaf: PAPER_LEAF,
        }
    }

    /// Node id of sender host `i`.
    pub fn sender(&self, i: usize) -> NodeId {
        assert!(i < self.n_pairs);
        NodeId(i as u32)
    }

    /// Node id of receiver host `i`.
    pub fn receiver(&self, i: usize) -> NodeId {
        assert!(i < self.n_pairs);
        NodeId((self.n_pairs + 2 + i) as u32)
    }

    /// Materialize the topology: a one-hop chain with every pair attached
    /// across the hop. The bottleneck link gets a large droptail queue by
    /// default; install the AQM under test with
    /// [`Topology::set_bottleneck_aqm`].
    pub fn build(&self) -> Topology {
        assert!(self.n_pairs >= 1, "dumbbell needs at least one host pair");
        let pair = Attach { src: 0, dst: 1, access: self.access, leaf: self.leaf };
        let base_rtt = (self.access.prop + self.bottleneck.prop + self.leaf.prop) * 2;
        chain(&[self.bottleneck], &vec![pair; self.n_pairs], base_rtt)
    }
}

/// The shape of the network a scenario runs on.
///
/// `Dumbbell` is the default and routes through the exact pre-existing
/// [`DumbbellSpec`] path, so default-topology runs stay byte-identical to
/// the single-bottleneck engine. The other variants build
/// multi-bottleneck / heterogeneous-RTT shapes parameterized by the
/// scenario's bandwidth and base RTT.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum TopologySpec {
    /// The paper's 2-pair dumbbell (Fig. 1); one shaped bottleneck.
    #[default]
    Dumbbell,
    /// A `hops`-hop parking lot: one long flow group crossing every
    /// shaped hop plus one cross-flow group per hop.
    ParkingLot {
        /// Number of shaped hops (each a bottleneck), 2..=8.
        hops: usize,
    },
    /// One shared bottleneck with one flow group per entry, group `g`'s
    /// end-to-end RTT fixed at `rtts_ms[g]` (heterogeneous-RTT fairness).
    MultiDumbbell {
        /// Per-group RTTs in milliseconds.
        rtts_ms: Vec<u64>,
    },
}

impl TopologySpec {
    /// Number of flow groups the built topology will carry.
    pub fn n_groups(&self) -> usize {
        match self {
            TopologySpec::Dumbbell => 2,
            TopologySpec::ParkingLot { hops } => hops + 1,
            TopologySpec::MultiDumbbell { rtts_ms } => rtts_ms.len(),
        }
    }

    /// Number of designated bottleneck links.
    pub fn n_bottlenecks(&self) -> usize {
        match self {
            TopologySpec::Dumbbell | TopologySpec::MultiDumbbell { .. } => 1,
            TopologySpec::ParkingLot { hops } => *hops,
        }
    }

    /// Validate the spec's own parameters (bounds that don't depend on
    /// the scenario's bandwidth/RTT).
    pub fn validate(&self) -> Result<(), String> {
        match self {
            TopologySpec::Dumbbell => Ok(()),
            TopologySpec::ParkingLot { hops } => {
                if !(2..=8).contains(hops) {
                    return Err(format!("parking-lot hops must be 2..=8, got {hops}"));
                }
                Ok(())
            }
            TopologySpec::MultiDumbbell { rtts_ms } => {
                if !(2..=8).contains(&rtts_ms.len()) {
                    return Err(format!(
                        "multi-dumbbell needs 2..=8 RTTs, got {}",
                        rtts_ms.len()
                    ));
                }
                for &r in rtts_ms {
                    if !(8..=2000).contains(&r) {
                        return Err(format!("multi-dumbbell RTT must be 8..=2000 ms, got {r}"));
                    }
                }
                Ok(())
            }
        }
    }

    /// Build the topology for a scenario's bottleneck bandwidth and base
    /// RTT: choose the chain's hops and where each flow group attaches.
    /// `MultiDumbbell` carries its own absolute per-group RTTs and ignores
    /// `base_rtt`; the other shapes fail when `base_rtt` does not exceed
    /// the 6 ms edge budget.
    pub fn build(&self, bw: Bandwidth, base_rtt: SimDuration) -> Result<Topology, String> {
        self.validate()?;
        match self {
            TopologySpec::Dumbbell => {
                let bottleneck = LinkSpec::new(bw, trunk_one_way(base_rtt)?);
                Ok(DumbbellSpec { bottleneck, ..DumbbellSpec::paper(bw) }.build())
            }
            TopologySpec::ParkingLot { hops: k } => {
                let k = *k;
                let trunk = trunk_one_way(base_rtt)?;
                let hop_prop = trunk / k as u64;
                if hop_prop.is_zero() {
                    return Err("parking-lot RTT too small to split across hops".to_string());
                }
                // The integer division can truncate; park the remainder on
                // the last hop so the hop delays sum to exactly `trunk` and
                // the long path realizes the configured RTT to the
                // nanosecond.
                let mut hops = vec![LinkSpec::new(bw, hop_prop); k];
                hops[k - 1].prop = trunk - hop_prop * (k as u64 - 1);
                // Group 0 crosses every hop; group g >= 1 loads hop g - 1.
                let groups: Vec<Attach> = (0..=k)
                    .map(|g| if g == 0 { (0, k) } else { (g - 1, g) })
                    .map(|(src, dst)| Attach { src, dst, access: PAPER_ACCESS, leaf: PAPER_LEAF })
                    .collect();
                let long_rtt = (PAPER_ACCESS.prop + trunk + PAPER_LEAF.prop) * 2;
                Ok(chain(&hops, &groups, long_rtt))
            }
            TopologySpec::MultiDumbbell { rtts_ms } => {
                // The shortest group keeps the paper's 1 ms access delay;
                // the trunk absorbs the rest of its RTT, and longer groups
                // stretch only their own access links.
                let min_ms = rtts_ms.iter().min().expect("validate() requires at least two RTTs");
                let min_rtt = SimDuration::from_millis(*min_ms);
                let trunk = trunk_one_way(min_rtt)?;
                let groups: Vec<Attach> = rtts_ms
                    .iter()
                    .map(|&ms| {
                        let rtt = SimDuration::from_millis(ms);
                        let prop = (rtt / 2).saturating_sub(trunk + PAPER_LEAF.prop);
                        let access = LinkSpec { prop, ..PAPER_ACCESS };
                        Attach { src: 0, dst: 1, access, leaf: PAPER_LEAF }
                    })
                    .collect();
                Ok(chain(&[LinkSpec::new(bw, trunk)], &groups, min_rtt))
            }
        }
    }
}

impl std::fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologySpec::Dumbbell => write!(f, "dumbbell"),
            TopologySpec::ParkingLot { hops } => write!(f, "parking-lot:{hops}"),
            TopologySpec::MultiDumbbell { rtts_ms } => {
                let joined: Vec<String> = rtts_ms.iter().map(|r| r.to_string()).collect();
                write!(f, "multi-dumbbell:{}", joined.join(","))
            }
        }
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = String;

    /// Parse the CLI spelling: `dumbbell`, `parking-lot:K`, or
    /// `multi-dumbbell:R1,R2[,..]` (RTTs in ms).
    fn from_str(s: &str) -> Result<Self, String> {
        let spec = if s == "dumbbell" {
            TopologySpec::Dumbbell
        } else if let Some(hops) = s.strip_prefix("parking-lot:") {
            let hops: usize =
                hops.parse().map_err(|_| format!("bad parking-lot hop count: {hops:?}"))?;
            TopologySpec::ParkingLot { hops }
        } else if let Some(rtts) = s.strip_prefix("multi-dumbbell:") {
            let rtts_ms: Vec<u64> = rtts
                .split(',')
                .map(|r| r.trim().parse().map_err(|_| format!("bad RTT in list: {r:?}")))
                .collect::<Result<_, String>>()?;
            TopologySpec::MultiDumbbell { rtts_ms }
        } else {
            return Err(format!(
                "unknown topology {s:?} (want dumbbell, parking-lot:K, or \
                 multi-dumbbell:R1,R2,..)"
            ));
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl ToJson for TopologySpec {
    fn to_json(&self) -> Value {
        match self {
            TopologySpec::Dumbbell => Value::Str("Dumbbell".to_string()),
            TopologySpec::ParkingLot { hops } => Value::Object(vec![(
                "ParkingLot".to_string(),
                Value::Object(vec![("hops".to_string(), hops.to_json())]),
            )]),
            TopologySpec::MultiDumbbell { rtts_ms } => Value::Object(vec![(
                "MultiDumbbell".to_string(),
                Value::Object(vec![("rtts_ms".to_string(), rtts_ms.to_json())]),
            )]),
        }
    }
}

impl FromJson for TopologySpec {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) if s == "Dumbbell" => Ok(TopologySpec::Dumbbell),
            Value::Object(fields) => match fields.first().map(|(k, _)| k.as_str()) {
                Some("ParkingLot") => {
                    let body = v.get_field("ParkingLot")?;
                    Ok(TopologySpec::ParkingLot {
                        hops: usize::from_json(body.get_field("hops")?)?,
                    })
                }
                Some("MultiDumbbell") => {
                    let body = v.get_field("MultiDumbbell")?;
                    Ok(TopologySpec::MultiDumbbell {
                        rtts_ms: Vec::from_json(body.get_field("rtts_ms")?)?,
                    })
                }
                _ => Err(JsonError::new("unknown TopologySpec variant".to_string())),
            },
            other => Err(JsonError::new(format!(
                "expected TopologySpec, got {}",
                other.kind_name()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DumbbellSpec {
        DumbbellSpec::paper(Bandwidth::from_mbps(100))
    }

    /// The paper dumbbell and its two routers, read off the bottleneck.
    fn paper_dumbbell() -> (DumbbellSpec, Topology, NodeId, NodeId) {
        let s = spec();
        let topo = s.build();
        let bn = topo.link(topo.bottleneck_link().unwrap());
        let (r1, r2) = (bn.src, bn.dst);
        (s, topo, r1, r2)
    }

    #[test]
    fn paper_dumbbell_shape() {
        let (s, topo, r1, r2) = paper_dumbbell();
        assert_eq!(topo.n_nodes(), 6);
        // 2 fwd access + bottleneck + 2 fwd leaf + 2 rev leaf + rev bottleneck + 2 rev access
        assert_eq!(topo.links().len(), 10);
        assert_eq!(topo.base_rtt(), SimDuration::from_millis(62));
        assert_eq!(topo.bottleneck_links().len(), 1);
        assert_eq!(topo.sender_hosts(), &[NodeId(0), NodeId(1)]);
        assert_eq!(topo.receiver_hosts(), &[NodeId(4), NodeId(5)]);
        assert_eq!((r1, r2), (NodeId(2), NodeId(3)), "routers sit between the hosts");
        assert_eq!(topo.kind(r1), NodeKind::Router);
        assert_eq!(topo.kind(s.sender(0)), NodeKind::Host);
    }

    #[test]
    fn forward_path_routes_through_bottleneck() {
        let (s, topo, r1, r2) = paper_dumbbell();
        let bn = topo.bottleneck_link().unwrap();
        // sender0 -> receiver0: access, bottleneck, leaf.
        let l1 = topo.route(s.sender(0), s.receiver(0)).unwrap();
        assert_eq!(topo.link(l1).dst, r1);
        let l2 = topo.route(r1, s.receiver(0)).unwrap();
        assert_eq!(l2, bn);
        let l3 = topo.route(r2, s.receiver(0)).unwrap();
        assert_eq!(topo.link(l3).dst, s.receiver(0));
    }

    #[test]
    fn reverse_path_avoids_bottleneck() {
        let (s, topo, r1, r2) = paper_dumbbell();
        let bn = topo.bottleneck_link().unwrap();
        let l1 = topo.route(s.receiver(1), s.sender(1)).unwrap();
        assert_eq!(topo.link(l1).dst, r2);
        let l2 = topo.route(r2, s.sender(1)).unwrap();
        assert_ne!(l2, bn);
        assert_eq!(topo.link(l2).dst, r1);
        // Reverse trunk is the unshaped 100G interconnect.
        assert_eq!(topo.link(l2).rate, INTERCONNECT);
    }

    #[test]
    fn bottleneck_rate_matches_spec() {
        let s = DumbbellSpec::paper(Bandwidth::from_gbps(10));
        let topo = s.build();
        let bn = topo.bottleneck_link().unwrap();
        assert_eq!(topo.link(bn).rate, Bandwidth::from_gbps(10));
        assert_eq!(topo.link(bn).prop, SimDuration::from_millis(28));
    }

    #[test]
    fn cross_pair_routes_exist() {
        // sender0 can reach receiver1 (needed for arbitrary flow placement).
        let (s, topo, r1, _) = paper_dumbbell();
        assert!(topo.route(s.sender(0), s.receiver(1)).is_some());
        assert!(topo.route(r1, s.receiver(1)).is_some());
    }

    #[test]
    fn path_rtt_matches_base_rtt_on_the_dumbbell() {
        let s = spec();
        let topo = s.build();
        for g in 0..2 {
            assert_eq!(
                topo.path_rtt(s.sender(g), s.receiver(g)),
                Some(SimDuration::from_millis(62))
            );
        }
        // Cross-pair paths share the same prop budget on the dumbbell.
        assert_eq!(
            topo.path_rtt(s.sender(0), s.receiver(1)),
            Some(SimDuration::from_millis(62))
        );
    }

    #[test]
    fn parking_lot_shape_routes_and_rtts() {
        let topo = TopologySpec::ParkingLot { hops: 3 }
            .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
            .unwrap();
        let sender = |g: usize| topo.sender_hosts()[g];
        let receiver = |g: usize| topo.receiver_hosts()[g];
        // 4 groups: 4 access + 3 hops + 4 leaf forward, mirrored reverse.
        assert_eq!(topo.n_nodes(), 12);
        assert_eq!(topo.links().len(), 22);
        assert_eq!(topo.bottleneck_links().len(), 3);
        assert_eq!(topo.sender_hosts().len(), 4);
        // The long group crosses every bottleneck hop in order.
        let mut cur = sender(0);
        let mut crossed = Vec::new();
        while cur != receiver(0) {
            let l = topo.route(cur, receiver(0)).unwrap();
            if topo.bottleneck_links().contains(&l) {
                crossed.push(l);
            }
            cur = topo.link(l).dst;
        }
        assert_eq!(crossed, topo.bottleneck_links());
        // Long path keeps the configured RTT (hop budget splits evenly at
        // this RTT); cross groups see a shorter one-hop RTT.
        assert_eq!(topo.path_rtt(sender(0), receiver(0)), Some(SimDuration::from_millis(62)));
        assert_eq!(topo.base_rtt(), SimDuration::from_millis(62));
        let cross = topo.path_rtt(sender(1), receiver(1)).unwrap();
        assert!(cross < SimDuration::from_millis(62), "cross RTT {cross:?}");
        // Cross group g loads exactly hop g-1.
        for g in 1..=3usize {
            let hop = topo.bottleneck_links()[g - 1];
            let at = topo.link(hop).src;
            assert_eq!(topo.route(at, receiver(g)), Some(hop));
        }
        // Reverse paths avoid every shaped hop.
        let mut cur = receiver(0);
        while cur != sender(0) {
            let l = topo.route(cur, sender(0)).unwrap();
            assert!(!topo.bottleneck_links().contains(&l), "ACK path hits shaped hop");
            cur = topo.link(l).dst;
        }
    }

    #[test]
    fn multi_dumbbell_realizes_heterogeneous_rtts() {
        let topo = TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] }
            .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
            .unwrap();
        let (tx, rx) = (topo.sender_hosts(), topo.receiver_hosts());
        assert_eq!(topo.bottleneck_links().len(), 1);
        assert_eq!(topo.base_rtt(), SimDuration::from_millis(31));
        assert_eq!(topo.path_rtt(tx[0], rx[0]), Some(SimDuration::from_millis(31)));
        assert_eq!(topo.path_rtt(tx[1], rx[1]), Some(SimDuration::from_millis(124)));
        // Both groups share the single shaped trunk.
        let bn = topo.bottleneck_link().unwrap();
        let r1 = topo.link(bn).src;
        for &r in rx {
            assert_eq!(topo.route(r1, r), Some(bn));
        }
    }

    #[test]
    fn topology_spec_parses_builds_and_round_trips() {
        use std::str::FromStr;
        use elephants_json::{FromJson, ToJson};
        let cases = [
            ("dumbbell", TopologySpec::Dumbbell),
            ("parking-lot:3", TopologySpec::ParkingLot { hops: 3 }),
            (
                "multi-dumbbell:62,124",
                TopologySpec::MultiDumbbell { rtts_ms: vec![62, 124] },
            ),
        ];
        for (text, want) in cases {
            let spec = TopologySpec::from_str(text).unwrap();
            assert_eq!(spec, want);
            assert_eq!(format!("{spec}"), text, "Display must round-trip the CLI spelling");
            let back = TopologySpec::from_json_str(&spec.to_json_string()).unwrap();
            assert_eq!(back, spec, "JSON must round-trip");
            let topo = spec
                .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
                .unwrap();
            assert_eq!(topo.bottleneck_links().len(), spec.n_bottlenecks());
            assert_eq!(topo.sender_hosts().len(), spec.n_groups());
            // A scenario RTT inside the edge budget is an error, not a
            // panic, for every shape that uses it.
            let tight = spec.build(Bandwidth::from_mbps(100), EDGE_ONE_WAY * 2);
            let uses_base_rtt = !matches!(spec, TopologySpec::MultiDumbbell { .. });
            assert_eq!(tight.is_err(), uses_base_rtt, "{text} at 6 ms: {tight:?}");
        }
        assert!(TopologySpec::from_str("parking-lot:1").is_err(), "1 hop is a dumbbell");
        assert!(TopologySpec::from_str("multi-dumbbell:62").is_err(), "one group is no contest");
        assert!(TopologySpec::from_str("triangle").is_err());
    }
}
