//! Packet, flow and node identifiers.
//!
//! Packets are small `Copy` structs carrying headers only; payload bytes are
//! virtual (`size` is the on-wire size used for serialization and queue
//! accounting). Data packets are sequenced in **MSS units**: one `seq` is one
//! maximum-size segment, which keeps the sender scoreboard and the receiver
//! reorder buffer simple and allocation-free without changing the dynamics
//! the study measures.

use crate::time::SimTime;

/// Identifier of a flow (an independent TCP connection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

/// Identifier of a node (host or router) in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Which endpoint of a flow a packet or timer is addressed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// The data sender (runs the congestion controller).
    Sender,
    /// The data receiver (generates ACKs).
    Receiver,
}

/// Maximum number of SACK ranges carried in one ACK (mirrors the common
/// 3-block limit of a real TCP header with timestamps).
pub const SACK_MAX: usize = 3;

/// Selective-acknowledgment information carried by ACK packets.
///
/// `cum` is the next expected sequence number (everything below `cum` has
/// been received in order). `sacks[..n_sacks]` are half-open `[start, end)`
/// ranges received above `cum`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckInfo {
    /// Cumulative ACK: next expected in-order sequence number.
    pub cum: u64,
    /// Out-of-order received ranges, half-open, most recent first.
    pub sacks: [(u64, u64); SACK_MAX],
    /// How many entries of `sacks` are valid.
    pub n_sacks: u8,
    /// ECN echo: the receiver saw a Congestion Experienced mark.
    pub ecn_echo: bool,
}

impl AckInfo {
    /// An ACK with only a cumulative component.
    pub fn cumulative(cum: u64) -> Self {
        AckInfo { cum, ..Default::default() }
    }

    /// Iterate over the valid SACK ranges.
    pub fn sack_ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.sacks.iter().copied().take(self.n_sacks as usize)
    }

    /// Whether `seq` is covered by the cumulative ACK or any SACK range.
    pub fn covers(&self, seq: u64) -> bool {
        seq < self.cum || self.sack_ranges().any(|(s, e)| seq >= s && seq < e)
    }
}

/// What kind of segment a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment of one MSS (identified by `Packet::seq`).
    Data,
    /// A pure acknowledgment.
    Ack(AckInfo),
}

/// A packet on the wire. `Copy`, header-only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Origin node.
    pub src: NodeId,
    /// Destination node (used by routers for next-hop lookup).
    pub dst: NodeId,
    /// Sequence number in MSS units (data) or ACK serial number (acks).
    pub seq: u64,
    /// On-wire size in bytes, including headers.
    pub size: u32,
    /// Data or ACK.
    pub kind: PacketKind,
    /// Time the segment was (re)transmitted by the sender host.
    pub sent_at: SimTime,
    /// Time the packet entered the most recent queue (set by the AQM; used
    /// for sojourn-time disciplines like CoDel).
    pub enqueued_at: SimTime,
    /// Whether the sender negotiated ECN for this packet (ECT(0)).
    pub ecn_capable: bool,
    /// Congestion Experienced mark applied by an AQM.
    pub ecn_ce: bool,
    /// Whether this is a retransmission (diagnostic only).
    pub retx: bool,
}

impl Packet {
    /// Construct a data segment.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, size: u32, now: SimTime) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq,
            size,
            kind: PacketKind::Data,
            sent_at: now,
            enqueued_at: now,
            ecn_capable: false,
            ecn_ce: false,
            retx: false,
        }
    }

    /// Construct a pure ACK.
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, serial: u64, info: AckInfo, now: SimTime) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq: serial,
            size: ACK_SIZE,
            kind: PacketKind::Ack(info),
            sent_at: now,
            enqueued_at: now,
            ecn_capable: false,
            ecn_ce: false,
            retx: false,
        }
    }

    /// `true` for data segments.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }
}

/// On-wire size of a pure ACK (bytes): IP + TCP headers with options.
const ACK_SIZE: u32 = 72;

/// Handle carried by a `Deliver` event: the link whose delivery pipe holds
/// the packet at its head (see [`crate::event`]). The event queue's
/// `take_packet` takes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(pub(crate) u32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ackinfo_covers() {
        let mut a = AckInfo::cumulative(10);
        a.sacks[0] = (15, 18);
        a.n_sacks = 1;
        assert!(a.covers(0));
        assert!(a.covers(9));
        assert!(!a.covers(10));
        assert!(!a.covers(14));
        assert!(a.covers(15));
        assert!(a.covers(17));
        assert!(!a.covers(18));
    }

    #[test]
    fn ackinfo_iterates_only_valid_ranges() {
        let mut a = AckInfo::cumulative(0);
        a.sacks = [(1, 2), (3, 4), (5, 6)];
        a.n_sacks = 2;
        let v: Vec<_> = a.sack_ranges().collect();
        assert_eq!(v, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn packet_constructors() {
        let now = SimTime::from_nanos(42);
        let d = Packet::data(FlowId(1), NodeId(0), NodeId(5), 7, 8900, now);
        assert!(d.is_data());
        assert_eq!(d.size, 8900);
        assert_eq!(d.sent_at, now);

        let a = Packet::ack(FlowId(1), NodeId(5), NodeId(0), 3, AckInfo::cumulative(8), now);
        assert!(!a.is_data());
        assert_eq!(a.size, ACK_SIZE);
        match a.kind {
            PacketKind::Ack(info) => assert_eq!(info.cum, 8),
            _ => unreachable!(),
        }
    }

    #[test]
    fn packet_is_small_and_copy() {
        // Keep the hot-loop struct compact; delivery pipes store these inline.
        assert!(std::mem::size_of::<Packet>() <= 128);
        fn assert_copy<T: Copy>() {}
        assert_copy::<Packet>();
    }
}
