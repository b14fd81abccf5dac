//! PIE — Proportional Integral controller Enhanced (RFC 8033).
//!
//! Not part of the paper's grid (FIFO/RED/FQ_CODEL), but the paper closes
//! by calling for "future research on optimizing these algorithms to
//! operate in a wide range of BW scenarios"; PIE is the obvious modern
//! candidate next to CoDel, so the reproduction ships it as an extension
//! for ablations and follow-up experiments.
//!
//! This is the timestamp variant (RFC 8033 §5.3): queueing delay is
//! measured directly from packet sojourn times, and the drop probability
//! is updated by a proportional-integral controller every `T_UPDATE`:
//!
//! ```text
//! p += ALPHA * (qdelay - TARGET) + BETA * (qdelay - qdelay_old)
//! ```
//!
//! with the RFC's auto-scaling of `ALPHA`/`BETA` when `p` is small, burst
//! allowance, and the p < 0.2 ⇒ "don't drop below-target" safeguards.

use elephants_netsim::{
    Aqm, AqmStats, CheckFailure, DequeueResult, DropTail, Packet, SimDuration, SimTime, Verdict,
};
use elephants_netsim::{RngExt, SmallRng};

/// Target queueing delay (RFC 8033 default 15 ms).
const TARGET: SimDuration = SimDuration::from_millis(15);
/// Controller update interval (RFC 8033 default 15 ms).
const T_UPDATE: SimDuration = SimDuration::from_millis(15);
const _: () = assert!(!T_UPDATE.is_zero(), "maybe_update steps the clock by T_UPDATE");
/// Proportional gain per update (RFC 8033: 0.125 Hz).
const ALPHA: f64 = 0.125;
/// Derivative gain per update (RFC 8033: 1.25 Hz).
const BETA: f64 = 1.25;
/// Initial burst allowance (RFC 8033 default 150 ms).
const MAX_BURST: SimDuration = SimDuration::from_millis(150);
/// Drop probability below which ECN marking stands in for a drop (RFC
/// 8033: 10 %).
const MARK_ECN_THRESH: f64 = 0.1;

/// The PIE queue discipline (timestamp variant): its PI controller over a [`DropTail`].
#[derive(Debug)]
pub struct Pie {
    /// Mark ECN-capable packets instead of dropping, below `MARK_ECN_THRESH`.
    ecn: bool,
    queue: DropTail,
    /// Current drop probability.
    p: f64,
    qdelay_old: SimDuration,
    /// Most recent sojourn observation.
    qdelay: SimDuration,
    burst_left: SimDuration,
    next_update: SimTime,
}

impl Pie {
    /// Build a PIE queue of `limit_bytes`; with `ecn` it marks ECN-capable
    /// packets instead of dropping them while p is under 10 %.
    pub fn new(limit_bytes: u64, ecn: bool) -> Self {
        Pie {
            ecn,
            burst_left: MAX_BURST,
            queue: DropTail::new(limit_bytes),
            p: 0.0,
            qdelay_old: SimDuration::ZERO,
            qdelay: SimDuration::ZERO,
            next_update: SimTime::ZERO,
        }
    }

    /// Current drop probability (test hook).
    pub fn drop_probability(&self) -> f64 {
        self.p
    }

    /// Latest queue-delay estimate (test hook).
    pub fn qdelay(&self) -> SimDuration {
        self.qdelay
    }

    /// RFC 8033 §4.2 auto-tuning: scale the gains down while p is small so
    /// the controller stays stable near zero.
    fn scale(&self) -> f64 {
        if self.p < 0.000001 {
            1.0 / 2048.0
        } else if self.p < 0.00001 {
            1.0 / 512.0
        } else if self.p < 0.0001 {
            1.0 / 128.0
        } else if self.p < 0.001 {
            1.0 / 32.0
        } else if self.p < 0.01 {
            1.0 / 8.0
        } else if self.p < 0.1 {
            1.0 / 2.0
        } else {
            1.0
        }
    }

    fn maybe_update(&mut self, now: SimTime) {
        while now >= self.next_update {
            let qd = self.qdelay.as_secs_f64();
            let target = TARGET.as_secs_f64();
            let s = self.scale();
            let mut p = self.p
                + ALPHA * s * (qd - target)
                + BETA * s * (qd - self.qdelay_old.as_secs_f64());

            // RFC 8033: exponential decay when the queue is idle/empty.
            if self.queue.backlog_bytes() == 0 && self.qdelay.is_zero() {
                p *= 0.98;
            }
            self.p = p.clamp(0.0, 1.0);
            self.qdelay_old = self.qdelay;

            // Burn down the burst allowance.
            self.burst_left = self.burst_left.saturating_sub(T_UPDATE);
            self.next_update += T_UPDATE;
        }
    }

    fn should_drop(&mut self, rng: &mut SmallRng) -> bool {
        if self.burst_left > SimDuration::ZERO {
            return false;
        }
        // Safeguards (RFC 8033 §4.1): don't drop when the delay is clearly
        // below half target and p is modest, or when only one packet sits
        // in the queue.
        if (self.p < 0.2 && self.qdelay < TARGET.mul_f64(0.5)) || self.queue.backlog_pkts() <= 1 {
            return false;
        }
        rng.random::<f64>() < self.p
    }
}

impl Aqm for Pie {
    fn enqueue(&mut self, pkt: Packet, now: SimTime, rng: &mut SmallRng) -> Verdict {
        self.maybe_update(now);
        if !self.queue.fits(&pkt) {
            return self.queue.refuse();
        }
        let early = self.should_drop(rng);
        let mark = early && self.ecn && pkt.ecn_capable && self.p < MARK_ECN_THRESH;
        if early && !mark {
            return self.queue.refuse();
        }
        self.queue.admit(pkt, now, mark)
    }

    fn dequeue(&mut self, now: SimTime, rng: &mut SmallRng) -> DequeueResult {
        self.maybe_update(now);
        let res = self.queue.dequeue(now, rng);
        self.qdelay = res.pkt.map_or(SimDuration::ZERO, |pkt| now.since(pkt.enqueued_at));
        res
    }

    fn backlog_bytes(&self) -> u64 {
        self.queue.backlog_bytes()
    }

    fn backlog_pkts(&self) -> usize {
        self.queue.backlog_pkts()
    }

    fn stats(&self) -> AqmStats {
        self.queue.stats()
    }

    fn name(&self) -> &'static str {
        "pie"
    }

    fn control_state(&self) -> Option<f64> {
        Some(self.drop_probability())
    }

    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure> {
        let mut fails = self.queue.check_invariants(now, deep);
        if !self.p.is_finite() || !(0.0..=1.0).contains(&self.p) {
            let p = self.p;
            fails.push(CheckFailure::new(
                "pie_drop_probability",
                format!("drop probability {p} outside [0, 1]"),
            ));
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_netsim::{FlowId, NodeId};
    use elephants_netsim::SeedableRng;

    fn pkt(seq: u64, size: u32, t: SimTime) -> Packet {
        Packet::data(FlowId(0), NodeId(0), NodeId(1), seq, size, t)
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(0)
    }

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// A 32 MiB PIE, ECN off.
    fn pie() -> Pie {
        Pie::new(32 * 1024 * 1024, false)
    }

    #[test]
    fn no_drops_while_burst_allowance_lasts() {
        let mut q = pie();
        let mut r = rng();
        // Heavy overload inside the first 150 ms.
        let mut t = SimTime::ZERO;
        for i in 0..500 {
            t += SimDuration::from_micros(200); // 100 ms total
            assert_ne!(q.enqueue(pkt(i, 1000, t), t, &mut r), Verdict::Dropped);
        }
        assert_eq!(q.stats().dropped_enqueue, 0);
    }

    #[test]
    fn sustained_overload_raises_p_and_drops() {
        let mut q = pie();
        let mut r = rng();
        let mut t = SimTime::ZERO;
        let mut seq = 0;
        // 2 s of 2:1 overload: enqueue twice per dequeue.
        for _ in 0..2000 {
            t += ms(1);
            q.enqueue(pkt(seq, 1000, t), t, &mut r);
            seq += 1;
            q.enqueue(pkt(seq, 1000, t), t, &mut r);
            seq += 1;
            q.dequeue(t, &mut r);
        }
        assert!(q.drop_probability() > 0.01, "p = {}", q.drop_probability());
        assert!(q.stats().dropped_enqueue > 0);
    }

    #[test]
    fn p_decays_when_queue_drains() {
        let mut q = pie();
        let mut r = rng();
        let mut t = SimTime::ZERO;
        let mut seq = 0;
        for _ in 0..2000 {
            t += ms(1);
            q.enqueue(pkt(seq, 1000, t), t, &mut r);
            seq += 1;
            q.enqueue(pkt(seq, 1000, t), t, &mut r);
            seq += 1;
            q.dequeue(t, &mut r);
        }
        let p_high = q.drop_probability();
        assert!(p_high > 0.0);
        // Drain completely and idle for 5 s.
        while q.dequeue(t, &mut r).pkt.is_some() {}
        t += SimDuration::from_secs(5);
        q.dequeue(t, &mut r); // trigger updates
        assert!(
            q.drop_probability() < p_high / 2.0,
            "p must decay: {} -> {}",
            p_high,
            q.drop_probability()
        );
    }

    #[test]
    fn below_half_target_never_drops_at_modest_p() {
        let mut q = pie();
        let mut r = rng();
        q.p = 0.19;
        q.burst_left = SimDuration::ZERO;
        q.qdelay = ms(5); // below target/2 = 7.5 ms
        let mut t = SimTime::from_nanos(1);
        for i in 0..100 {
            t += SimDuration::from_micros(100);
            // keep p pinned: bypass updates by setting next_update far out
            q.next_update = SimTime::MAX;
            assert_ne!(q.enqueue(pkt(i, 1000, t), t, &mut r), Verdict::Dropped);
        }
    }

    #[test]
    fn hard_limit_always_enforced() {
        let mut q = Pie::new(5_000, false);
        let mut r = rng();
        for i in 0..10 {
            q.enqueue(pkt(i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r);
        }
        assert_eq!(q.backlog_bytes(), 5_000);
        assert_eq!(q.stats().dropped_enqueue, 5);
    }

    #[test]
    fn qdelay_tracks_sojourn() {
        let mut q = pie();
        let mut r = rng();
        let t0 = SimTime::ZERO;
        q.enqueue(pkt(0, 1000, t0), t0, &mut r);
        let t1 = t0 + ms(42);
        q.dequeue(t1, &mut r);
        assert_eq!(q.qdelay(), ms(42));
    }
}
