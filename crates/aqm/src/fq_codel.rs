//! FQ-CoDel — flow-queuing CoDel (RFC 8290, `tc fq_codel`).
//!
//! Arriving packets are hashed by flow into one of `FLOWS` (1024)
//! sub-queues. Sub-queues are served by deficit round robin (quantum = one
//! MTU, as in tc) with the usual new-flow priority list, and each sub-queue is
//! governed by its own CoDel instance. On overflow, packets are dropped from
//! the head of the *fattest* sub-queue, which is what protects light flows
//! from heavy ones.

use crate::codel::CodelState;
use elephants_netsim::{Aqm, AqmStats, CheckFailure, DequeueResult, Packet, PacketFifo, SimTime, Verdict};
use elephants_netsim::SmallRng;
use std::collections::VecDeque;

/// Number of hash buckets (tc default 1024).
const FLOWS: usize = 1024;
const _: () = assert!(FLOWS.is_power_of_two(), "bucket_of masks the hash with FLOWS - 1");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListState {
    Idle,
    New,
    Old,
}

#[derive(Debug)]
struct Bucket {
    queue: PacketFifo,
    codel: CodelState,
    deficit: i64,
    state: ListState,
}

impl Bucket {
    fn new() -> Self {
        Bucket {
            queue: PacketFifo::default(),
            codel: CodelState::default(),
            deficit: 0,
            state: ListState::Idle,
        }
    }
}

/// The FQ-CoDel discipline.
pub struct FqCodel {
    /// Hard limit on total queued packets.
    limit_pkts: usize,
    /// Hard limit on total queued bytes (tc `memory_limit`).
    memory_limit: u64,
    /// Link MTU: the DRR quantum (as in tc), and the backlog under which
    /// each bucket's CoDel stops dropping.
    mtu: u32,
    /// Mark ECN-capable packets instead of dropping them.
    ecn: bool,
    /// Salt mixed into the flow hash (set per run for collision realism).
    hash_salt: u64,
    buckets: Vec<Bucket>,
    new_flows: VecDeque<usize>,
    old_flows: VecDeque<usize>,
    total_pkts: usize,
    total_bytes: u64,
    /// Packets accepted (counted in `stats.enqueued`) and later evicted by
    /// the fattest-flow overflow policy. Unlike the other disciplines, those
    /// drops remove packets that were already on the `enqueued` side of the
    /// ledger, so the accounting invariant needs them as a separate term.
    evicted_accepted: u64,
    stats: AqmStats,
}

impl FqCodel {
    /// Build an FQ-CoDel queue with the `tc fq_codel` defaults for `mtu`
    /// and the byte capacity of the experiment's `buffer_bytes`; with `ecn`
    /// its CoDels mark ECN-capable packets instead of dropping them, and
    /// `hash_salt` perturbs the flow hash.
    pub fn new(buffer_bytes: u64, mtu: u32, ecn: bool, hash_salt: u64) -> Self {
        assert!(mtu > 0);
        FqCodel {
            // tc defaults to 10240 packets; honour the experiment's buffer
            // size in packets so the "queue length" knob stays meaningful.
            limit_pkts: ((buffer_bytes / mtu as u64) as usize).clamp(64, 10240 * 64),
            memory_limit: buffer_bytes.max(4 * mtu as u64),
            mtu,
            ecn,
            hash_salt,
            buckets: (0..FLOWS).map(|_| Bucket::new()).collect(),
            new_flows: VecDeque::new(),
            old_flows: VecDeque::new(),
            total_pkts: 0,
            total_bytes: 0,
            evicted_accepted: 0,
            stats: AqmStats::default(),
        }
    }

    /// Bucket index for a flow (exposed for tests).
    pub fn bucket_of(&self, flow: u32) -> usize {
        // Fibonacci hashing mixed with the per-run salt.
        let h = (flow as u64 ^ self.hash_salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & (FLOWS - 1)
    }

    /// Number of distinct non-empty buckets (diagnostic).
    pub fn active_buckets(&self) -> usize {
        self.buckets.iter().filter(|b| !b.queue.is_empty()).count()
    }

    fn drop_from_fattest(&mut self) -> Option<Packet> {
        let (idx, _) = self
            .buckets
            .iter()
            .enumerate()
            .max_by_key(|(_, b)| b.queue.bytes())?;
        let pkt = self.buckets[idx].queue.pop()?;
        self.total_pkts -= 1;
        self.total_bytes -= pkt.size as u64;
        self.stats.dropped_enqueue += 1;
        Some(pkt)
    }
}

impl Aqm for FqCodel {
    fn enqueue(&mut self, mut pkt: Packet, now: SimTime, _rng: &mut SmallRng) -> Verdict {
        let idx = self.bucket_of(pkt.flow.0);
        pkt.enqueued_at = now;
        let key = (pkt.flow, pkt.seq, pkt.kind);
        {
            let b = &mut self.buckets[idx];
            b.queue.push(pkt);
            if b.state == ListState::Idle {
                b.state = ListState::New;
                b.deficit = self.mtu as i64;
                self.new_flows.push_back(idx);
            }
        }
        self.total_pkts += 1;
        self.total_bytes += pkt.size as u64;
        self.stats.enqueued += 1;

        let mut own_dropped = false;
        while self.total_pkts > self.limit_pkts || self.total_bytes > self.memory_limit {
            match self.drop_from_fattest() {
                Some(d) => {
                    if (d.flow, d.seq, d.kind) == key {
                        own_dropped = true;
                    } else {
                        self.evicted_accepted += 1;
                    }
                }
                None => break,
            }
        }
        if own_dropped {
            // The just-enqueued packet itself was evicted.
            self.stats.enqueued -= 1;
            Verdict::Dropped
        } else {
            Verdict::Enqueued
        }
    }

    fn dequeue(&mut self, now: SimTime, _rng: &mut SmallRng) -> DequeueResult {
        let mut dropped_total = 0u32;
        loop {
            let (idx, from_new) = if let Some(&idx) = self.new_flows.front() {
                (idx, true)
            } else if let Some(&idx) = self.old_flows.front() {
                (idx, false)
            } else {
                return DequeueResult { pkt: None, dropped: dropped_total };
            };

            if self.buckets[idx].deficit <= 0 {
                let q = self.mtu as i64;
                let b = &mut self.buckets[idx];
                b.deficit += q;
                b.state = ListState::Old;
                if from_new {
                    self.new_flows.pop_front();
                } else {
                    self.old_flows.pop_front();
                }
                self.old_flows.push_back(idx);
                continue;
            }

            // Run CoDel on this bucket.
            let b = &mut self.buckets[idx];
            let bytes_before = b.queue.bytes();
            let (pkt, outcome) = b.codel.dequeue(self.mtu, self.ecn, now, &mut b.queue);
            let popped_bytes = bytes_before - b.queue.bytes();
            let popped = outcome.dropped as usize + pkt.is_some() as usize;
            self.total_pkts -= popped;
            self.total_bytes -= popped_bytes;
            dropped_total += outcome.dropped;
            self.stats.dropped_dequeue += outcome.dropped as u64;
            self.stats.marked += outcome.marked as u64;

            match pkt {
                Some(p) => {
                    let b = &mut self.buckets[idx];
                    b.deficit -= p.size as i64;
                    self.stats.dequeued += 1;
                    return DequeueResult { pkt: Some(p), dropped: dropped_total };
                }
                None => {
                    // Bucket emptied (possibly after CoDel drops).
                    let b = &mut self.buckets[idx];
                    if from_new {
                        // Move to old list so it keeps its turn if it refills
                        // within this round (RFC 8290 §4.2.2).
                        self.new_flows.pop_front();
                        b.state = ListState::Old;
                        self.old_flows.push_back(idx);
                    } else {
                        self.old_flows.pop_front();
                        b.state = ListState::Idle;
                    }
                    continue;
                }
            }
        }
    }

    fn backlog_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn backlog_pkts(&self) -> usize {
        self.total_pkts
    }

    fn stats(&self) -> AqmStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "fq_codel"
    }

    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure> {
        let mut fails = Vec::new();
        // FQ-CoDel's overflow policy evicts packets that were already counted
        // as enqueued, so the shared accounting identity gains an eviction
        // term relative to the other disciplines.
        let s = self.stats;
        let expect = s.dequeued + s.dropped_dequeue + self.evicted_accepted + self.total_pkts as u64;
        if s.enqueued != expect {
            let (e, d, dd, ev, r) =
                (s.enqueued, s.dequeued, s.dropped_dequeue, self.evicted_accepted, self.total_pkts);
            fails.push(CheckFailure::new(
                "queue_accounting",
                format!("enqueued {e} != dequeued {d} + dropped_dequeue {dd} + evicted {ev} + resident {r}"),
            ));
        }
        if deep {
            let mut pkts = 0usize;
            let mut bytes = 0u64;
            for (idx, b) in self.buckets.iter().enumerate() {
                pkts += b.queue.len();
                bytes += b.queue.bytes();
                b.queue.check_deep(now, format_args!("bucket {idx}"), &mut fails);
                // DRR list discipline: a non-idle bucket sits on exactly one
                // service list, and an idle bucket never holds packets
                // (eviction may leave a listed bucket empty; dequeue reaps it
                // lazily, so the converse is allowed).
                let on_new = self.new_flows.iter().filter(|&&i| i == idx).count();
                let on_old = self.old_flows.iter().filter(|&&i| i == idx).count();
                let want = match b.state {
                    ListState::Idle => (0, 0),
                    ListState::New => (1, 0),
                    ListState::Old => (0, 1),
                };
                if (on_new, on_old) != want {
                    let state = b.state;
                    fails.push(CheckFailure::new(
                        "fq_codel_drr_lists",
                        format!("bucket {idx} state {state:?} but appears {on_new}x on new / {on_old}x on old list"),
                    ));
                }
                if b.state == ListState::Idle && !b.queue.is_empty() {
                    fails.push(CheckFailure::new(
                        "fq_codel_drr_lists",
                        format!("bucket {idx} idle with {} resident packets", b.queue.len()),
                    ));
                }
            }
            if pkts != self.total_pkts || bytes != self.total_bytes {
                let (tp, tb) = (self.total_pkts, self.total_bytes);
                fails.push(CheckFailure::new(
                    "fq_codel_totals",
                    format!("totals ({tp} pkts, {tb} bytes) != bucket sums ({pkts} pkts, {bytes} bytes)"),
                ));
            }
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_netsim::{FlowId, NodeId, SimDuration};
    use elephants_netsim::SeedableRng;

    fn pkt(flow: u32, seq: u64, size: u32, t: SimTime) -> Packet {
        Packet::data(FlowId(flow), NodeId(0), NodeId(1), seq, size, t)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    /// A 1 MB FQ-CoDel on a 1000-byte MTU: 1000 packets, one-packet quantum.
    fn fq_codel() -> FqCodel {
        FqCodel::new(1_000_000, 1000, false, 0)
    }

    #[test]
    fn single_flow_fifo_order() {
        let mut q = fq_codel();
        let mut r = rng();
        for i in 0..10 {
            assert_eq!(q.enqueue(pkt(7, i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r), Verdict::Enqueued);
        }
        for i in 0..10 {
            let p = q.dequeue(SimTime::ZERO, &mut r).pkt.unwrap();
            assert_eq!(p.seq, i);
        }
        assert!(q.dequeue(SimTime::ZERO, &mut r).pkt.is_none());
        assert_eq!(q.backlog_bytes(), 0);
        assert_eq!(q.backlog_pkts(), 0);
    }

    #[test]
    fn two_flows_interleave_round_robin() {
        let mut q = fq_codel();
        let mut r = rng();
        // Flow 1 queues 10 packets, flow 2 queues 10 packets, equal sizes.
        for i in 0..10 {
            q.enqueue(pkt(1, i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        for i in 0..10 {
            q.enqueue(pkt(2, i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        // Service alternates between the flows (quantum = 1 packet here).
        let mut seen = vec![];
        for _ in 0..20 {
            let p = q.dequeue(SimTime::ZERO, &mut r).pkt.unwrap();
            seen.push(p.flow.0);
        }
        let f1_first_half = seen[..10].iter().filter(|&&f| f == 1).count();
        assert!(
            (4..=6).contains(&f1_first_half),
            "flows must interleave, got {seen:?}"
        );
    }

    #[test]
    fn heavy_flow_cannot_starve_light_flow() {
        let mut q = fq_codel();
        let mut r = rng();
        // Heavy flow floods; light flow sends one packet afterwards.
        for i in 0..500 {
            q.enqueue(pkt(1, i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        q.enqueue(pkt(2, 0, 1000, SimTime::ZERO), SimTime::ZERO, &mut r);
        // The light flow's packet must be served within the first few
        // dequeues (it sits on the new-flows list).
        let mut position = None;
        for i in 0..10 {
            let p = q.dequeue(SimTime::ZERO, &mut r).pkt.unwrap();
            if p.flow.0 == 2 {
                position = Some(i);
                break;
            }
        }
        assert!(position.is_some() && position.unwrap() <= 2, "light flow served at {position:?}");
    }

    #[test]
    fn overflow_drops_from_fattest_flow() {
        // 64 kB over a 1000-byte MTU: a 64-packet limit, which 100-byte
        // packets reach far below the byte limit.
        let mut q = FqCodel::new(64_000, 1000, false, 0);
        let mut r = rng();
        // Flow 1 fills most of the queue; flow 2 adds two packets.
        for i in 0..63 {
            q.enqueue(pkt(1, i, 100, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        for i in 0..2 {
            let v = q.enqueue(pkt(2, i, 100, SimTime::ZERO), SimTime::ZERO, &mut r);
            // Flow 2's packets survive: the fattest flow (1) takes the hit.
            assert_eq!(v, Verdict::Enqueued);
        }
        assert_eq!(q.backlog_pkts(), 64);
        assert_eq!(q.stats().dropped_enqueue, 1);
    }

    #[test]
    fn memory_limit_enforced() {
        // 10 kB: the byte limit binds at 10 full packets, under the
        // 64-packet floor of the packet limit.
        let mut q = FqCodel::new(10_000, 1000, false, 0);
        let mut r = rng();
        for i in 0..50 {
            q.enqueue(pkt(1, i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        assert!(q.backlog_bytes() <= 10_000);
    }

    #[test]
    fn codel_drops_under_sustained_per_flow_delay() {
        let mut q = fq_codel();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        for i in 0..800 {
            q.enqueue(pkt(1, i, 1000, t0), t0, &mut r);
        }
        let mut dropped = 0;
        let mut t = t0 + SimDuration::from_millis(120);
        for _ in 0..400 {
            t += SimDuration::from_millis(2);
            dropped += q.dequeue(t, &mut r).dropped;
        }
        assert!(dropped > 0, "per-bucket CoDel must engage");
        assert_eq!(q.stats().dropped_dequeue as u32, dropped);
    }

    #[test]
    fn byte_and_packet_accounting_consistent() {
        let mut q = fq_codel();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        for f in 0..8 {
            for i in 0..50 {
                q.enqueue(pkt(f, i, 500 + 100 * f, t0), t0, &mut r);
            }
        }
        let mut t = t0 + SimDuration::from_millis(150);
        while q.backlog_pkts() > 0 {
            t += SimDuration::from_micros(100);
            q.dequeue(t, &mut r);
        }
        assert_eq!(q.backlog_bytes(), 0, "bytes must return to zero");
        let s = q.stats();
        assert_eq!(s.enqueued, s.dequeued + s.dropped_dequeue + s.dropped_enqueue);
    }

    #[test]
    fn hashing_is_stable_and_salted() {
        let q1 = fq_codel();
        assert_eq!(q1.bucket_of(42), q1.bucket_of(42));
        let q2 = FqCodel::new(1_000_000, 1000, false, 0xDEAD_BEEF);
        // Different salts should move at least some flows.
        let moved = (0..1000u32).filter(|&f| q1.bucket_of(f) != q2.bucket_of(f)).count();
        assert!(moved > 900, "salt must perturb the hash ({moved}/1000 moved)");
    }

    #[test]
    fn quantum_respects_packet_size_fairness() {
        // Flow 1 sends big packets, flow 2 small; byte shares should be
        // approximately equal over a long service sequence (quantum 1000).
        let mut q = fq_codel();
        let mut r = rng();
        for i in 0..300 {
            q.enqueue(pkt(1, i, 2000, SimTime::ZERO), SimTime::ZERO, &mut r);
            q.enqueue(pkt(2, 1000 + i, 500, SimTime::ZERO), SimTime::ZERO, &mut r);
            q.enqueue(pkt(2, 2000 + i, 500, SimTime::ZERO), SimTime::ZERO, &mut r);
            q.enqueue(pkt(2, 3000 + i, 500, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        let (mut b1, mut b2) = (0u64, 0u64);
        for _ in 0..600 {
            if let Some(p) = q.dequeue(SimTime::ZERO, &mut r).pkt {
                if p.flow.0 == 1 {
                    b1 += p.size as u64;
                } else {
                    b2 += p.size as u64;
                }
            }
        }
        let ratio = b1 as f64 / b2 as f64;
        assert!((0.8..=1.25).contains(&ratio), "byte-fair DRR, ratio {ratio}");
    }
}
