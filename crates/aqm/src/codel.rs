//! CoDel — Controlled Delay AQM (Nichols & Jacobson, RFC 8289).
//!
//! CoDel watches each packet's *sojourn time* through the queue. If the
//! sojourn stays above `target` for longer than `interval`, it enters a
//! dropping state and drops packets on dequeue at increasing frequency
//! (`interval / sqrt(count)`) until the delay falls back under `target`.
//!
//! [`CodelState`] is the reusable control-law core; [`Codel`] wraps it into
//! a standalone discipline, and `FqCodel` embeds one state per flow queue.

use elephants_netsim::{
    Aqm, AqmStats, CheckFailure, DequeueResult, DropTail, Packet, PacketFifo, SimDuration, SimTime,
    Verdict,
};
use elephants_json::impl_json_struct;
use elephants_netsim::SmallRng;

/// CoDel parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodelConfig {
    /// Acceptable standing queue delay (RFC default 5 ms).
    pub target: SimDuration,
    /// Sliding window over which to observe the minimum sojourn
    /// (RFC default 100 ms — a worst-case expected RTT).
    pub interval: SimDuration,
    /// Hard byte limit on the queue.
    pub limit_bytes: u64,
    /// Link MTU: dropping is suppressed when less than one MTU is queued.
    pub mtu: u32,
    /// Mark ECN-capable packets instead of dropping them.
    pub ecn: bool,
}

impl_json_struct!(CodelConfig { target, interval, limit_bytes, mtu, ecn });

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: SimDuration::from_millis(5),
            interval: SimDuration::from_millis(100),
            limit_bytes: 32 * 1024 * 1024,
            mtu: 8900,
            ecn: false,
        }
    }
}

/// The CoDel control-law state machine (one per queue).
#[derive(Debug, Clone, Copy, Default)]
pub struct CodelState {
    first_above_time: Option<SimTime>,
    drop_next: SimTime,
    /// Drops since entering the current dropping state.
    pub count: u32,
    lastcount: u32,
    /// Whether we are in the dropping state.
    pub dropping: bool,
}

/// What `CodelState::dequeue` did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodelOutcome {
    /// Packets dropped during this dequeue.
    pub dropped: u32,
    /// Packets ECN-marked during this dequeue.
    pub marked: u32,
}

impl CodelState {
    #[inline]
    fn control_law(t: SimTime, interval: SimDuration, count: u32) -> SimTime {
        t + interval.mul_f64(1.0 / (count.max(1) as f64).sqrt())
    }

    /// Check a freshly popped packet's sojourn time; returns `true` if the
    /// delay has been above target for a full interval ("ok to drop").
    fn sojourn_above(
        &mut self,
        cfg: &CodelConfig,
        now: SimTime,
        pkt: &Packet,
        backlog_after: u64,
    ) -> bool {
        let sojourn = now.since(pkt.enqueued_at);
        if sojourn < cfg.target || backlog_after <= cfg.mtu as u64 {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + cfg.interval);
                    false
                }
                Some(fat) => now >= fat,
            }
        }
    }

    /// RFC 8289 dequeue: pop packets from `q`, dropping (or marking)
    /// according to the control law.
    pub(crate) fn dequeue(
        &mut self,
        cfg: &CodelConfig,
        now: SimTime,
        q: &mut PacketFifo,
    ) -> (Option<Packet>, CodelOutcome) {
        let mut out = CodelOutcome { dropped: 0, marked: 0 };

        let mut pkt = match q.pop() {
            Some(p) => p,
            None => {
                self.first_above_time = None;
                return (None, out);
            }
        };
        let mut ok_to_drop = self.sojourn_above(cfg, now, &pkt, q.bytes());

        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
            } else {
                while self.dropping && now >= self.drop_next {
                    if cfg.ecn && pkt.ecn_capable {
                        pkt.ecn_ce = true;
                        out.marked += 1;
                        self.count += 1;
                        self.drop_next = Self::control_law(self.drop_next, cfg.interval, self.count);
                        // Marked packets are delivered, not dropped: stop here.
                        return (Some(pkt), out);
                    }
                    out.dropped += 1;
                    self.count += 1;
                    pkt = match q.pop() {
                        Some(p) => p,
                        None => {
                            self.dropping = false;
                            self.first_above_time = None;
                            return (None, out);
                        }
                    };
                    ok_to_drop = self.sojourn_above(cfg, now, &pkt, q.bytes());
                    if !ok_to_drop {
                        self.dropping = false;
                    } else {
                        self.drop_next = Self::control_law(self.drop_next, cfg.interval, self.count);
                    }
                }
            }
        } else if ok_to_drop {
            // Enter dropping state.
            if cfg.ecn && pkt.ecn_capable {
                pkt.ecn_ce = true;
                out.marked += 1;
            } else {
                out.dropped += 1;
                pkt = match q.pop() {
                    Some(p) => p,
                    None => {
                        self.first_above_time = None;
                        self.dropping = true;
                        self.count = 1;
                        self.lastcount = 1;
                        self.drop_next = Self::control_law(now, cfg.interval, 1);
                        return (None, out);
                    }
                };
                let _ = self.sojourn_above(cfg, now, &pkt, q.bytes());
            }
            self.dropping = true;
            // If we recently stopped dropping, resume the drop rate where we
            // left off instead of restarting from 1 (RFC 8289 §5.4).
            let delta = self.count.saturating_sub(self.lastcount);
            self.count = if delta > 1 && now.since(self.drop_next) < cfg.interval * 16 {
                delta
            } else {
                1
            };
            self.drop_next = Self::control_law(now, cfg.interval, self.count);
            self.lastcount = self.count;
        }
        (Some(pkt), out)
    }
}

/// Standalone CoDel queue discipline: the control law over a [`DropTail`].
#[derive(Debug)]
pub struct Codel {
    cfg: CodelConfig,
    state: CodelState,
    queue: DropTail,
}

impl Codel {
    /// Build a CoDel queue.
    pub fn new(cfg: CodelConfig) -> Self {
        Codel { cfg, state: CodelState::default(), queue: DropTail::new(cfg.limit_bytes) }
    }

    /// The configuration in force.
    pub fn config(&self) -> &CodelConfig {
        &self.cfg
    }

    /// The control-law state (for tests).
    pub fn state(&self) -> &CodelState {
        &self.state
    }
}

impl Aqm for Codel {
    fn enqueue(&mut self, pkt: Packet, now: SimTime, rng: &mut SmallRng) -> Verdict {
        self.queue.enqueue(pkt, now, rng)
    }

    fn dequeue(&mut self, now: SimTime, _rng: &mut SmallRng) -> DequeueResult {
        self.queue.dequeue_by(|fifo| {
            let (pkt, out) = self.state.dequeue(&self.cfg, now, fifo);
            (pkt, out.dropped, out.marked)
        })
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
        "codel"
    }

    fn check_invariants(&self, now: SimTime, deep: bool) -> Vec<CheckFailure> {
        self.queue.check_invariants(now, deep)
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

    #[test]
    fn no_drops_when_sojourn_below_target() {
        let mut q = Codel::new(CodelConfig::default());
        let mut r = rng();
        let t0 = SimTime::ZERO;
        for i in 0..100 {
            q.enqueue(pkt(i, 1000, t0), t0, &mut r);
        }
        // Dequeue 2 ms later: sojourn 2 ms < 5 ms target.
        let t1 = t0 + ms(2);
        for _ in 0..100 {
            let res = q.dequeue(t1, &mut r);
            assert_eq!(res.dropped, 0);
        }
        assert_eq!(q.stats().dropped_dequeue, 0);
    }

    #[test]
    fn sustained_delay_triggers_dropping_state() {
        let mut q = Codel::new(CodelConfig::default());
        let mut r = rng();
        // Fill with packets all enqueued at t=0.
        let t0 = SimTime::ZERO;
        for i in 0..5000 {
            q.enqueue(pkt(i, 1000, t0), t0, &mut r);
        }
        // Dequeue slowly starting 50 ms later: sojourn far above target.
        let mut t = t0 + ms(50);
        let mut dropped = 0;
        for _ in 0..2000 {
            t += ms(1);
            let res = q.dequeue(t, &mut r);
            dropped += res.dropped;
        }
        assert!(dropped > 0, "CoDel must start dropping under sustained delay");
        assert!(q.state().count > 0);
    }

    #[test]
    fn first_drop_only_after_full_interval() {
        let mut q = Codel::new(CodelConfig::default());
        let mut r = rng();
        let t0 = SimTime::ZERO;
        for i in 0..1000 {
            q.enqueue(pkt(i, 1000, t0), t0, &mut r);
        }
        // First dequeue at t=10ms: sojourn 10 ms > target, starts the clock.
        let res = q.dequeue(t0 + ms(10), &mut r);
        assert_eq!(res.dropped, 0);
        // 50 ms later (short of 10+100 ms): still no drop.
        let res = q.dequeue(t0 + ms(60), &mut r);
        assert_eq!(res.dropped, 0);
        // Past the interval: drops begin.
        let res = q.dequeue(t0 + ms(111), &mut r);
        assert!(res.dropped >= 1);
    }

    #[test]
    fn drop_clock_resets_when_queue_drains() {
        let mut q = Codel::new(CodelConfig::default());
        let mut r = rng();
        let t0 = SimTime::ZERO;
        for i in 0..10 {
            q.enqueue(pkt(i, 9000, t0), t0, &mut r);
        }
        let _ = q.dequeue(t0 + ms(10), &mut r); // starts first_above clock
        // Drain to below one MTU.
        let mut t = t0 + ms(11);
        while q.backlog_pkts() > 0 {
            t += ms(1);
            q.dequeue(t, &mut r);
        }
        assert_eq!(q.stats().dropped_dequeue, 0);
        // Refill; the old clock must not carry over.
        for i in 0..1000 {
            q.enqueue(pkt(i, 1000, t), t, &mut r);
        }
        let res = q.dequeue(t + ms(10), &mut r);
        assert_eq!(res.dropped, 0, "clock must restart after drain");
    }

    #[test]
    fn control_law_shrinks_interval_with_sqrt_count() {
        let t = SimTime::ZERO;
        let i = ms(100);
        let d1 = CodelState::control_law(t, i, 1) - t;
        let d4 = CodelState::control_law(t, i, 4) - t;
        let d16 = CodelState::control_law(t, i, 16) - t;
        assert_eq!(d1, ms(100));
        assert_eq!(d4, ms(50));
        assert_eq!(d16, ms(25));
    }

    #[test]
    fn hard_limit_tail_drops() {
        let cfg = CodelConfig { limit_bytes: 5_000, ..Default::default() };
        let mut q = Codel::new(cfg);
        let mut r = rng();
        let mut drops = 0;
        for i in 0..10 {
            if q.enqueue(pkt(i, 1000, SimTime::ZERO), SimTime::ZERO, &mut r) == Verdict::Dropped {
                drops += 1;
            }
        }
        assert_eq!(drops, 5);
        assert_eq!(q.backlog_bytes(), 5_000);
    }

    #[test]
    fn ecn_marks_instead_of_dropping() {
        let cfg = CodelConfig { ecn: true, ..Default::default() };
        let mut q = Codel::new(cfg);
        let mut r = rng();
        let t0 = SimTime::ZERO;
        for i in 0..1000 {
            let mut p = pkt(i, 1000, t0);
            p.ecn_capable = true;
            q.enqueue(p, t0, &mut r);
        }
        let mut marked = 0;
        let mut t = t0 + ms(120);
        for _ in 0..500 {
            t += ms(2);
            let res = q.dequeue(t, &mut r);
            if let Some(p) = res.pkt {
                if p.ecn_ce {
                    marked += 1;
                }
            }
        }
        assert!(marked > 0, "expected CE marks");
        assert_eq!(q.stats().dropped_dequeue, 0);
    }
}
