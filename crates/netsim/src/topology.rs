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
//! heterogeneous RTTs — the FaiRTT-style BBR unfairness setup), plus an
//! explicit link-list escape hatch. Every built topology designates one
//! or more *bottleneck links*; the simulator instruments and checks each.

use crate::link::{Link, LinkId, LinkSpec};
use crate::packet::NodeId;
use crate::queue::Aqm;
use crate::time::SimDuration;
use crate::units::Bandwidth;
use elephants_json::{
    impl_json_struct, impl_json_unit_enum, FromJson, JsonError, ToJson, Value,
};

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
    /// Create an empty topology with `n` nodes of the given kinds.
    pub fn new(kinds: Vec<NodeKind>) -> Self {
        let n = kinds.len();
        Topology {
            kinds,
            links: Vec::new(),
            routes: vec![vec![None; n]; n],
            sender_hosts: Vec::new(),
            receiver_hosts: Vec::new(),
            bottlenecks: Vec::new(),
            base_rtt: SimDuration::ZERO,
        }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of `node`.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.0 as usize]
    }

    /// Add a link and return its id. The builders fill the route tables
    /// once every link is in (`auto_route`).
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec, aqm: Box<dyn Aqm>) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(id, src, dst, spec, aqm));
        id
    }

    /// Add a link with a large droptail queue (non-bottleneck default).
    pub fn add_link_big_fifo(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> LinkId {
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
/// routing is a deterministic function of the link list). Every builder
/// routes through this.
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

/// One-way delay the paper-style edges add to a path (1 ms access + 2 ms
/// leaf); the trunk absorbs the rest of an end-to-end RTT, which therefore
/// has to exceed twice this.
pub const EDGE_ONE_WAY: SimDuration = SimDuration::from_millis(3);

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

impl_json_struct!(DumbbellSpec { n_pairs, bottleneck, access, leaf });

impl DumbbellSpec {
    /// The paper's topology: 2 host pairs, 25 Gbps access/leaf NICs, and a
    /// bottleneck of `bw` shaped on router 1, with one-way delays
    /// 1 + 28 + 2 ms so the end-to-end RTT is 62 ms.
    pub fn paper(bw: crate::units::Bandwidth) -> Self {
        Self::paper_with_rtt(bw, SimDuration::from_millis(62))
    }

    /// The paper's topology with a custom end-to-end RTT (the paper's
    /// future-work "different RTTs" extension). Access/leaf one-way delays
    /// keep the paper's 1 + 2 ms; the trunk absorbs the rest.
    pub fn paper_with_rtt(bw: crate::units::Bandwidth, rtt: SimDuration) -> Self {
        assert!(
            rtt > EDGE_ONE_WAY * 2,
            "RTT must exceed the 6 ms the access/leaf links contribute"
        );
        let trunk_one_way = (rtt / 2).saturating_sub(EDGE_ONE_WAY);
        DumbbellSpec {
            n_pairs: 2,
            bottleneck: LinkSpec::new(bw, trunk_one_way),
            access: LinkSpec::new(crate::units::Bandwidth::from_gbps(25), SimDuration::from_millis(1)),
            leaf: LinkSpec::new(crate::units::Bandwidth::from_gbps(25), SimDuration::from_millis(2)),
        }
    }

    /// Node id of sender host `i`.
    pub fn sender(&self, i: usize) -> NodeId {
        assert!(i < self.n_pairs);
        NodeId(i as u32)
    }

    /// Node id of router 1 (owns the bottleneck egress queue).
    pub fn router1(&self) -> NodeId {
        NodeId(self.n_pairs as u32)
    }

    /// Node id of router 2.
    pub fn router2(&self) -> NodeId {
        NodeId(self.n_pairs as u32 + 1)
    }

    /// Node id of receiver host `i`.
    pub fn receiver(&self, i: usize) -> NodeId {
        assert!(i < self.n_pairs);
        NodeId((self.n_pairs + 2 + i) as u32)
    }

    /// Materialize the topology. The bottleneck link gets a large droptail
    /// queue by default; install the AQM under test with
    /// [`Topology::set_bottleneck_aqm`].
    pub fn build(&self) -> Topology {
        assert!(self.n_pairs >= 1, "dumbbell needs at least one host pair");
        let n = self.n_pairs;
        let mut kinds = Vec::with_capacity(2 * n + 2);
        kinds.extend(std::iter::repeat_n(NodeKind::Host, n));
        kinds.push(NodeKind::Router);
        kinds.push(NodeKind::Router);
        kinds.extend(std::iter::repeat_n(NodeKind::Host, n));
        let mut topo = Topology::new(kinds);

        let r1 = self.router1();
        let r2 = self.router2();

        // Forward direction: senders -> r1 -> r2 -> receivers.
        for i in 0..n {
            topo.add_link_big_fifo(self.sender(i), r1, self.access);
        }
        let bottleneck = topo.add_link_big_fifo(r1, r2, self.bottleneck);
        topo.bottlenecks.push(bottleneck);
        for i in 0..n {
            topo.add_link_big_fifo(r2, self.receiver(i), self.leaf);
        }

        // Reverse direction: receivers -> r2 -> r1 -> senders. The reverse
        // bottleneck segment runs at the raw 100 Gbps router interconnect
        // (the paper shapes only the forward direction with `tc`).
        for i in 0..n {
            topo.add_link_big_fifo(self.receiver(i), r2, self.leaf);
        }
        let rev_spec = LinkSpec::new(crate::units::Bandwidth::from_gbps(100), self.bottleneck.prop);
        topo.add_link_big_fifo(r2, r1, rev_spec);
        for i in 0..n {
            topo.add_link_big_fifo(r1, self.sender(i), self.access);
        }

        for i in 0..n {
            topo.sender_hosts.push(self.sender(i));
            topo.receiver_hosts.push(self.receiver(i));
        }
        // Every path on a dumbbell is unique, so shortest-hop routing is
        // the only routing there is.
        auto_route(&mut topo);

        topo.base_rtt = (self.access.prop + self.bottleneck.prop + self.leaf.prop) * 2;
        topo
    }
}

/// Builder for a K-hop parking-lot chain.
///
/// Routers `R0..RK` are joined by `K` shaped hop links (each its own
/// bottleneck with its own queue). Flow group 0 runs the long path
/// `S0 → R0 → … → RK → T0` across every hop; group `g` (1-based) is a
/// one-hop cross flow loading only hop `g-1`. Reverse paths run on an
/// unshaped 100 Gbps chain, mirroring the dumbbell's `tc`-shaped-forward
/// convention. Per-hop propagation splits the long path's trunk budget
/// evenly so the long flow keeps the configured end-to-end RTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkingLotSpec {
    /// Number of shaped hops (≥ 2; 1 would be a dumbbell).
    pub hops: usize,
    /// Rate of each shaped hop.
    pub bw: Bandwidth,
    /// End-to-end RTT of the long (all-hops) path.
    pub rtt: SimDuration,
}

impl ParkingLotSpec {
    /// Paper-style edges (25 Gbps access at 1 ms, leaf at 2 ms) around
    /// `hops` shaped trunk segments.
    pub fn paper_with_rtt(bw: Bandwidth, rtt: SimDuration, hops: usize) -> Self {
        ParkingLotSpec { hops, bw, rtt }
    }

    /// Node id of sender host `g` (group `g`'s source).
    pub fn sender(&self, g: usize) -> NodeId {
        assert!(g <= self.hops);
        NodeId(g as u32)
    }

    /// Node id of router `i` (`0..=hops`).
    pub fn router(&self, i: usize) -> NodeId {
        assert!(i <= self.hops);
        NodeId((self.hops + 1 + i) as u32)
    }

    /// Node id of receiver host `g` (group `g`'s sink).
    pub fn receiver(&self, g: usize) -> NodeId {
        assert!(g <= self.hops);
        NodeId((2 * (self.hops + 1) + g) as u32)
    }

    /// Router the group-`g` sender attaches to.
    fn attach_src(&self, g: usize) -> NodeId {
        if g == 0 { self.router(0) } else { self.router(g - 1) }
    }

    /// Router the group-`g` receiver attaches to.
    fn attach_dst(&self, g: usize) -> NodeId {
        if g == 0 { self.router(self.hops) } else { self.router(g) }
    }

    /// Materialize the chain. Every shaped hop starts as a big droptail
    /// queue; install the AQM under test per hop with
    /// [`Topology::set_aqm_on`].
    pub fn build(&self) -> Result<Topology, String> {
        if self.hops < 2 {
            return Err(format!("parking lot needs >= 2 hops, got {}", self.hops));
        }
        if self.rtt <= EDGE_ONE_WAY * 2 {
            return Err(format!(
                "parking-lot RTT {:?} must exceed the 6 ms edge budget",
                self.rtt
            ));
        }
        let k = self.hops;
        let trunk_one_way = (self.rtt / 2).saturating_sub(EDGE_ONE_WAY);
        let hop_prop = trunk_one_way / (k as u64);
        if hop_prop.is_zero() {
            return Err("parking-lot RTT too small to split across hops".to_string());
        }
        // The integer division above can truncate; park the remainder on the
        // last hop so the hop delays sum to exactly `trunk_one_way` and the
        // long path realizes the configured RTT to the nanosecond.
        let last_hop_prop = trunk_one_way - hop_prop * (k as u64 - 1);
        let hop_prop_of = |i: usize| if i + 1 == k { last_hop_prop } else { hop_prop };
        let groups = k + 1;
        let access = LinkSpec::new(Bandwidth::from_gbps(25), SimDuration::from_millis(1));
        let leaf = LinkSpec::new(Bandwidth::from_gbps(25), SimDuration::from_millis(2));

        let mut kinds = Vec::with_capacity(3 * groups);
        kinds.extend(std::iter::repeat_n(NodeKind::Host, groups));
        kinds.extend(std::iter::repeat_n(NodeKind::Router, k + 1));
        kinds.extend(std::iter::repeat_n(NodeKind::Host, groups));
        let mut topo = Topology::new(kinds);

        for g in 0..groups {
            topo.add_link_big_fifo(self.sender(g), self.attach_src(g), access);
        }
        for i in 0..k {
            let hop = LinkSpec::new(self.bw, hop_prop_of(i));
            let id = topo.add_link_big_fifo(self.router(i), self.router(i + 1), hop);
            topo.bottlenecks.push(id);
        }
        for g in 0..groups {
            topo.add_link_big_fifo(self.attach_dst(g), self.receiver(g), leaf);
        }
        for g in 0..groups {
            topo.add_link_big_fifo(self.receiver(g), self.attach_dst(g), leaf);
        }
        for i in 0..k {
            let rev_hop = LinkSpec::new(Bandwidth::from_gbps(100), hop_prop_of(i));
            topo.add_link_big_fifo(self.router(i + 1), self.router(i), rev_hop);
        }
        for g in 0..groups {
            topo.add_link_big_fifo(self.attach_src(g), self.sender(g), access);
        }

        for g in 0..groups {
            topo.sender_hosts.push(self.sender(g));
            topo.receiver_hosts.push(self.receiver(g));
        }
        auto_route(&mut topo);
        topo.base_rtt = (access.prop + trunk_one_way + leaf.prop) * 2;
        Ok(topo)
    }
}

/// Builder for a heterogeneous-RTT dumbbell: one shared shaped bottleneck,
/// one sender/receiver pair per flow group, and per-group access delays
/// chosen so group `g`'s end-to-end RTT equals `rtts[g]`.
///
/// This is the FaiRTT-style shape: a short-RTT BBR group competing with a
/// long-RTT group through the same queue.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiDumbbellSpec {
    /// Shared bottleneck rate.
    pub bw: Bandwidth,
    /// Per-group end-to-end RTTs; `rtts.len()` is the number of groups.
    pub rtts: Vec<SimDuration>,
}

impl MultiDumbbellSpec {
    /// Node id of sender host `g`.
    pub fn sender(&self, g: usize) -> NodeId {
        assert!(g < self.rtts.len());
        NodeId(g as u32)
    }

    /// Node id of router 1 (owns the shared bottleneck queue).
    pub fn router1(&self) -> NodeId {
        NodeId(self.rtts.len() as u32)
    }

    /// Node id of router 2.
    pub fn router2(&self) -> NodeId {
        NodeId(self.rtts.len() as u32 + 1)
    }

    /// Node id of receiver host `g`.
    pub fn receiver(&self, g: usize) -> NodeId {
        assert!(g < self.rtts.len());
        NodeId((self.rtts.len() + 2 + g) as u32)
    }

    /// Materialize the topology; the shared bottleneck starts as a big
    /// droptail queue (install the AQM under test on
    /// [`Topology::bottleneck_link`]).
    pub fn build(&self) -> Result<Topology, String> {
        let n = self.rtts.len();
        if n < 2 {
            return Err(format!("multi-dumbbell needs >= 2 groups, got {n}"));
        }
        let leaf_prop = SimDuration::from_millis(2);
        let min_rtt = *self.rtts.iter().min().unwrap();
        // The shortest group keeps the dumbbell's 1 ms access delay; the
        // trunk absorbs the rest of its RTT, and longer groups stretch
        // only their own access links.
        if min_rtt <= EDGE_ONE_WAY * 2 {
            return Err(format!(
                "multi-dumbbell min RTT {min_rtt:?} must exceed the 6 ms edge budget"
            ));
        }
        let trunk = (min_rtt / 2).saturating_sub(EDGE_ONE_WAY);

        let mut kinds = Vec::with_capacity(2 * n + 2);
        kinds.extend(std::iter::repeat_n(NodeKind::Host, n));
        kinds.push(NodeKind::Router);
        kinds.push(NodeKind::Router);
        kinds.extend(std::iter::repeat_n(NodeKind::Host, n));
        let mut topo = Topology::new(kinds);

        let r1 = self.router1();
        let r2 = self.router2();
        let access_prop = |rtt: SimDuration| (rtt / 2).saturating_sub(trunk + leaf_prop);
        let nic = Bandwidth::from_gbps(25);

        for g in 0..n {
            let spec = LinkSpec::new(nic, access_prop(self.rtts[g]));
            topo.add_link_big_fifo(self.sender(g), r1, spec);
        }
        let bn = topo.add_link_big_fifo(r1, r2, LinkSpec::new(self.bw, trunk));
        topo.bottlenecks.push(bn);
        for g in 0..n {
            topo.add_link_big_fifo(r2, self.receiver(g), LinkSpec::new(nic, leaf_prop));
        }
        for g in 0..n {
            topo.add_link_big_fifo(self.receiver(g), r2, LinkSpec::new(nic, leaf_prop));
        }
        topo.add_link_big_fifo(r2, r1, LinkSpec::new(Bandwidth::from_gbps(100), trunk));
        for g in 0..n {
            let spec = LinkSpec::new(nic, access_prop(self.rtts[g]));
            topo.add_link_big_fifo(r1, self.sender(g), spec);
        }

        for g in 0..n {
            topo.sender_hosts.push(self.sender(g));
            topo.receiver_hosts.push(self.receiver(g));
        }
        auto_route(&mut topo);
        topo.base_rtt = min_rtt;
        Ok(topo)
    }
}

/// One directed link in an [`ExplicitSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDef {
    /// Source node id.
    pub src: u32,
    /// Destination node id.
    pub dst: u32,
    /// Serialization rate in bits/s.
    pub bw_bps: u64,
    /// One-way propagation delay in microseconds.
    pub delay_us: u64,
    /// True for links the experiment layer should treat as bottlenecks
    /// (instrumented, AQM-under-test installed, checked per link).
    pub shaped: bool,
}

impl_json_struct!(LinkDef { src, dst, bw_bps, delay_us, shaped });

/// One flow group (sender → receiver pair) in an [`ExplicitSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupDef {
    /// Sender host node id.
    pub sender: u32,
    /// Receiver host node id.
    pub receiver: u32,
}

impl_json_struct!(GroupDef { sender, receiver });

/// An explicit link-list topology: the JSON-only escape hatch for shapes
/// the named presets don't cover. Nodes referenced by a group are hosts;
/// every other node is a router. Routing is shortest-hop ([`auto_route`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ExplicitSpec {
    /// Total node count (ids `0..n_nodes`).
    pub n_nodes: u32,
    /// Directed links, in id order.
    pub links: Vec<LinkDef>,
    /// Flow groups; group order fixes sender/receiver host order.
    pub groups: Vec<GroupDef>,
}

impl_json_struct!(ExplicitSpec { n_nodes, links, groups });

impl ExplicitSpec {
    /// Structural validation (cheap, no build).
    pub fn validate(&self) -> Result<(), String> {
        if self.n_nodes < 2 {
            return Err("explicit topology needs >= 2 nodes".to_string());
        }
        if self.groups.is_empty() {
            return Err("explicit topology needs >= 1 flow group".to_string());
        }
        if !self.links.iter().any(|l| l.shaped) {
            return Err("explicit topology needs >= 1 shaped (bottleneck) link".to_string());
        }
        for l in &self.links {
            if l.src >= self.n_nodes || l.dst >= self.n_nodes || l.src == l.dst {
                return Err(format!("bad link endpoints {} -> {}", l.src, l.dst));
            }
            if l.bw_bps == 0 {
                return Err("explicit link rate must be positive".to_string());
            }
        }
        for g in &self.groups {
            if g.sender >= self.n_nodes || g.receiver >= self.n_nodes || g.sender == g.receiver {
                return Err(format!("bad group endpoints {} -> {}", g.sender, g.receiver));
            }
        }
        Ok(())
    }

    /// Materialize the topology; errors if any group's forward or reverse
    /// path is unroutable.
    pub fn build(&self) -> Result<Topology, String> {
        self.validate()?;
        let mut kinds = vec![NodeKind::Router; self.n_nodes as usize];
        for g in &self.groups {
            kinds[g.sender as usize] = NodeKind::Host;
            kinds[g.receiver as usize] = NodeKind::Host;
        }
        let mut topo = Topology::new(kinds);
        for l in &self.links {
            let spec = LinkSpec::new(
                Bandwidth::from_bps(l.bw_bps),
                SimDuration::from_micros(l.delay_us),
            );
            let id = topo.add_link_big_fifo(NodeId(l.src), NodeId(l.dst), spec);
            if l.shaped {
                topo.bottlenecks.push(id);
            }
        }
        for g in &self.groups {
            topo.sender_hosts.push(NodeId(g.sender));
            topo.receiver_hosts.push(NodeId(g.receiver));
        }
        auto_route(&mut topo);
        for g in &self.groups {
            if topo.path_rtt(NodeId(g.sender), NodeId(g.receiver)).is_none() {
                return Err(format!(
                    "group {} -> {} has no round-trip route",
                    g.sender, g.receiver
                ));
            }
        }
        topo.base_rtt = topo
            .path_rtt(NodeId(self.groups[0].sender), NodeId(self.groups[0].receiver))
            .unwrap_or(SimDuration::ZERO);
        Ok(topo)
    }
}

/// The shape of the network a scenario runs on.
///
/// `Dumbbell` is the default and routes through the exact pre-existing
/// [`DumbbellSpec::paper_with_rtt`] path, so default-topology runs stay
/// byte-identical to the single-bottleneck engine. The other variants
/// build multi-bottleneck / heterogeneous-RTT shapes parameterized by the
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
    /// An explicit link list (JSON-only; no CLI spelling).
    Explicit(ExplicitSpec),
}

impl TopologySpec {
    /// Number of flow groups the built topology will carry.
    pub fn n_groups(&self) -> usize {
        match self {
            TopologySpec::Dumbbell => 2,
            TopologySpec::ParkingLot { hops } => hops + 1,
            TopologySpec::MultiDumbbell { rtts_ms } => rtts_ms.len(),
            TopologySpec::Explicit(spec) => spec.groups.len(),
        }
    }

    /// Number of designated bottleneck links.
    pub fn n_bottlenecks(&self) -> usize {
        match self {
            TopologySpec::Dumbbell | TopologySpec::MultiDumbbell { .. } => 1,
            TopologySpec::ParkingLot { hops } => *hops,
            TopologySpec::Explicit(spec) => spec.links.iter().filter(|l| l.shaped).count(),
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
            TopologySpec::Explicit(spec) => spec.validate(),
        }
    }

    /// Build the topology for a scenario's bottleneck bandwidth and base
    /// RTT. `MultiDumbbell` carries its own absolute per-group RTTs and
    /// `Explicit` its own link rates/delays; both ignore `base_rtt`.
    pub fn build(&self, bw: Bandwidth, base_rtt: SimDuration) -> Result<Topology, String> {
        self.validate()?;
        match self {
            TopologySpec::Dumbbell => Ok(DumbbellSpec::paper_with_rtt(bw, base_rtt).build()),
            TopologySpec::ParkingLot { hops } => {
                ParkingLotSpec::paper_with_rtt(bw, base_rtt, *hops).build()
            }
            TopologySpec::MultiDumbbell { rtts_ms } => MultiDumbbellSpec {
                bw,
                rtts: rtts_ms.iter().map(|&ms| SimDuration::from_millis(ms)).collect(),
            }
            .build(),
            TopologySpec::Explicit(spec) => spec.build(),
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
            TopologySpec::Explicit(spec) => write!(f, "explicit[{} links]", spec.links.len()),
        }
    }
}

impl std::str::FromStr for TopologySpec {
    type Err = String;

    /// Parse the CLI spelling: `dumbbell`, `parking-lot:K`, or
    /// `multi-dumbbell:R1,R2[,..]` (RTTs in ms). Explicit link lists are
    /// JSON-only.
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
            TopologySpec::Explicit(spec) => {
                Value::Object(vec![("Explicit".to_string(), spec.to_json())])
            }
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
                Some("Explicit") => Ok(TopologySpec::Explicit(ExplicitSpec::from_json(
                    v.get_field("Explicit")?,
                )?)),
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
    use crate::units::Bandwidth;

    fn spec() -> DumbbellSpec {
        DumbbellSpec::paper(Bandwidth::from_mbps(100))
    }

    #[test]
    fn paper_dumbbell_shape() {
        let s = spec();
        let topo = s.build();
        assert_eq!(topo.n_nodes(), 6);
        // 2 fwd access + bottleneck + 2 fwd leaf + 2 rev leaf + rev bottleneck + 2 rev access
        assert_eq!(topo.links().len(), 10);
        assert_eq!(topo.base_rtt(), SimDuration::from_millis(62));
        assert_eq!(topo.bottleneck_links().len(), 1);
        assert_eq!(topo.sender_hosts(), &[NodeId(0), NodeId(1)]);
        assert_eq!(topo.receiver_hosts(), &[NodeId(4), NodeId(5)]);
        assert_eq!(topo.kind(s.router1()), NodeKind::Router);
        assert_eq!(topo.kind(s.sender(0)), NodeKind::Host);
    }

    #[test]
    fn forward_path_routes_through_bottleneck() {
        let s = spec();
        let topo = s.build();
        let bn = topo.bottleneck_link().unwrap();
        // sender0 -> receiver0: access, bottleneck, leaf.
        let l1 = topo.route(s.sender(0), s.receiver(0)).unwrap();
        assert_eq!(topo.link(l1).dst, s.router1());
        let l2 = topo.route(s.router1(), s.receiver(0)).unwrap();
        assert_eq!(l2, bn);
        let l3 = topo.route(s.router2(), s.receiver(0)).unwrap();
        assert_eq!(topo.link(l3).dst, s.receiver(0));
    }

    #[test]
    fn reverse_path_avoids_bottleneck() {
        let s = spec();
        let topo = s.build();
        let bn = topo.bottleneck_link().unwrap();
        let l1 = topo.route(s.receiver(1), s.sender(1)).unwrap();
        assert_eq!(topo.link(l1).dst, s.router2());
        let l2 = topo.route(s.router2(), s.sender(1)).unwrap();
        assert_ne!(l2, bn);
        assert_eq!(topo.link(l2).dst, s.router1());
        // Reverse trunk is the unshaped 100G interconnect.
        assert_eq!(topo.link(l2).rate, Bandwidth::from_gbps(100));
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
        let s = spec();
        let topo = s.build();
        assert!(topo.route(s.sender(0), s.receiver(1)).is_some());
        assert!(topo.route(s.router1(), s.receiver(1)).is_some());
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
        let s = ParkingLotSpec::paper_with_rtt(
            Bandwidth::from_mbps(100),
            SimDuration::from_millis(62),
            3,
        );
        let topo = s.build().unwrap();
        // 4 groups: 4 access + 3 hops + 4 leaf forward, mirrored reverse.
        assert_eq!(topo.n_nodes(), 12);
        assert_eq!(topo.links().len(), 22);
        assert_eq!(topo.bottleneck_links().len(), 3);
        assert_eq!(topo.sender_hosts().len(), 4);
        // The long group crosses every bottleneck hop in order.
        let mut cur = s.sender(0);
        let mut crossed = Vec::new();
        while cur != s.receiver(0) {
            let l = topo.route(cur, s.receiver(0)).unwrap();
            if topo.bottleneck_links().contains(&l) {
                crossed.push(l);
            }
            cur = topo.link(l).dst;
        }
        assert_eq!(crossed, topo.bottleneck_links());
        // Long path keeps the configured RTT (hop budget splits evenly at
        // this RTT); cross groups see a shorter one-hop RTT.
        assert_eq!(
            topo.path_rtt(s.sender(0), s.receiver(0)),
            Some(SimDuration::from_millis(62)),
        );
        assert_eq!(topo.base_rtt(), SimDuration::from_millis(62));
        let cross = topo.path_rtt(s.sender(1), s.receiver(1)).unwrap();
        assert!(cross < SimDuration::from_millis(62), "cross RTT {cross:?}");
        // Cross group g loads exactly hop g-1.
        for g in 1..=3usize {
            let hop = topo.bottleneck_links()[g - 1];
            let at = topo.link(hop).src;
            assert_eq!(topo.route(at, s.receiver(g)), Some(hop));
        }
        // Reverse paths avoid every shaped hop.
        let mut cur = s.receiver(0);
        while cur != s.sender(0) {
            let l = topo.route(cur, s.sender(0)).unwrap();
            assert!(!topo.bottleneck_links().contains(&l), "ACK path hits shaped hop");
            cur = topo.link(l).dst;
        }
    }

    #[test]
    fn multi_dumbbell_realizes_heterogeneous_rtts() {
        let s = MultiDumbbellSpec {
            bw: Bandwidth::from_mbps(100),
            rtts: vec![SimDuration::from_millis(31), SimDuration::from_millis(124)],
        };
        let topo = s.build().unwrap();
        assert_eq!(topo.bottleneck_links().len(), 1);
        assert_eq!(topo.base_rtt(), SimDuration::from_millis(31));
        assert_eq!(
            topo.path_rtt(s.sender(0), s.receiver(0)),
            Some(SimDuration::from_millis(31))
        );
        assert_eq!(
            topo.path_rtt(s.sender(1), s.receiver(1)),
            Some(SimDuration::from_millis(124))
        );
        // Both groups share the single shaped trunk.
        let bn = topo.bottleneck_link().unwrap();
        for g in 0..2 {
            assert_eq!(topo.route(s.router1(), s.receiver(g)), Some(bn));
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
        }
        assert!(TopologySpec::from_str("parking-lot:1").is_err(), "1 hop is a dumbbell");
        assert!(TopologySpec::from_str("multi-dumbbell:62").is_err(), "one group is no contest");
        assert!(TopologySpec::from_str("triangle").is_err());
    }

    #[test]
    fn explicit_spec_builds_and_validates() {
        use elephants_json::{FromJson, ToJson};
        // 0 -> 2 -> 3 -> 1 forward, 1 -> 3 -> 2 -> 0 reverse; the middle
        // link is shaped.
        let mk_link = |src, dst, shaped| LinkDef {
            src,
            dst,
            bw_bps: if shaped { 100_000_000 } else { 25_000_000_000 },
            delay_us: 1_000,
            shaped,
        };
        let spec = ExplicitSpec {
            n_nodes: 4,
            links: vec![
                mk_link(0, 2, false),
                mk_link(2, 3, true),
                mk_link(3, 1, false),
                mk_link(1, 3, false),
                mk_link(3, 2, false),
                mk_link(2, 0, false),
            ],
            groups: vec![GroupDef { sender: 0, receiver: 1 }],
        };
        let topo = TopologySpec::Explicit(spec.clone())
            .build(Bandwidth::from_mbps(100), SimDuration::from_millis(62))
            .unwrap();
        assert_eq!(topo.bottleneck_links().len(), 1);
        assert_eq!(topo.kind(NodeId(0)), NodeKind::Host);
        assert_eq!(topo.kind(NodeId(2)), NodeKind::Router);
        assert_eq!(topo.path_rtt(NodeId(0), NodeId(1)), Some(SimDuration::from_millis(6)));
        let ts = TopologySpec::Explicit(spec.clone());
        assert_eq!(TopologySpec::from_json_str(&ts.to_json_string()).unwrap(), ts);

        // Unroutable group: no reverse path.
        let broken = ExplicitSpec {
            links: spec.links[..3].to_vec(),
            ..spec.clone()
        };
        assert!(broken.build().is_err());
        // No shaped link.
        let unshaped = ExplicitSpec {
            links: spec.links.iter().map(|l| LinkDef { shaped: false, ..*l }).collect(),
            ..spec
        };
        assert!(unshaped.validate().is_err());
    }
}
