//! The sender's per-segment SACK scoreboard.
//!
//! Segments are sequenced in MSS units, so the scoreboard is a `VecDeque`
//! indexed by `seq - snd_una` — O(1) lookup, no allocation in steady state,
//! and exact conservation accounting (every segment is in exactly one of
//! the four states).

use elephants_netsim::SimTime;

/// Where a transmitted-but-unacked segment stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PktState {
    /// In flight, no evidence either way.
    Outstanding,
    /// SACKed by the receiver (delivered out of order).
    Sacked,
    /// Declared lost, retransmission pending.
    Lost,
    /// Declared lost and retransmitted; the retransmission is in flight.
    LostRetx,
}

/// Per-segment bookkeeping (transmission time + rate-sampler snapshot).
#[derive(Debug, Clone, Copy)]
pub struct PktMeta {
    /// Current state.
    pub state: PktState,
    /// Most recent transmission time.
    pub tx_time: SimTime,
    /// Whether this segment was ever retransmitted (Karn's rule).
    pub retx: bool,
    /// `delivered` counter at (most recent) send.
    pub delivered_at_send: u64,
    /// `delivered_time` at (most recent) send.
    pub delivered_time_at_send: SimTime,
    /// Connection `first_tx_time` at (most recent) send.
    pub first_tx_at_send: SimTime,
    /// Whether the connection was app-limited at send.
    pub app_limited_at_send: bool,
}

/// Aggregate of everything ACK processing needs from the segments removed
/// by one cumulative-ACK advance ([`Scoreboard::advance_una_batch`]).
///
/// All four facts are associative folds over the removed segments, so one
/// GRO-coalesced ACK covering dozens of segments costs one scoreboard pass
/// and one fixed-size summary — no per-segment callback into the sender.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckBatch {
    /// Removed segments that were not already SACK-delivered: the ones
    /// this ACK newly accounts as delivered.
    pub newly_acked: u64,
    /// Some removed segment was marked Lost and never retransmitted —
    /// its *original* transmission arrived, the F-RTO/Eifel evidence that
    /// a timeout in progress was spurious.
    pub lost_never_retx: bool,
    /// The removed segment with the highest `delivered_at_send` (later
    /// sequence wins ties): the delivery-rate and round-accounting sample
    /// candidate.
    pub sample: Option<PktMeta>,
    /// Latest transmission time among never-retransmitted segments
    /// (Karn's rule): `now - latest_clean_tx` is the smallest — i.e. the
    /// taken — RTT sample of the batch.
    pub latest_clean_tx: Option<SimTime>,
}

impl AckBatch {
    /// Fold one removed segment into the aggregate (in sequence order —
    /// the tie-breaks match the per-segment callback spelling exactly).
    fn fold(&mut self, meta: &PktMeta) {
        if meta.state != PktState::Sacked {
            self.newly_acked += 1;
        }
        if meta.state == PktState::Lost && !meta.retx {
            self.lost_never_retx = true;
        }
        if !meta.retx {
            self.latest_clean_tx =
                Some(self.latest_clean_tx.map_or(meta.tx_time, |t| t.max(meta.tx_time)));
        }
        match self.sample {
            Some(best) if meta.delivered_at_send < best.delivered_at_send => {}
            _ => self.sample = Some(*meta),
        }
    }
}

/// The scoreboard proper.
#[derive(Debug, Default)]
pub struct Scoreboard {
    /// Sequence number of the first entry (== snd_una).
    base: u64,
    entries: std::collections::VecDeque<PktMeta>,
    n_outstanding: usize,
    n_sacked: usize,
    n_lost: usize,
    n_lost_retx: usize,
    /// Highest SACKed sequence number still above `snd_una` (None until a
    /// SACK arrives, and again once the cumulative ACK passes it).
    highest_sacked: Option<u64>,
    // Forward-only scan cursors: absolute sequence numbers, clamped to
    // `snd_una` on use, so `push_sent` and `advance_una` never touch them.
    /// No `Outstanding` entry below this: where `detect_losses` resumes.
    loss_scan: u64,
    /// No `Lost` entry below this: where `next_lost` resumes.
    next_retx: u64,
    /// No in-flight (`Outstanding` | `LostRetx`) entry below this: where
    /// `first_inflight_tx_time` resumes.
    first_inflight: u64,
}

impl Scoreboard {
    /// Empty scoreboard starting at sequence 0.
    pub fn new() -> Self {
        Scoreboard::default()
    }

    /// First unacknowledged sequence number.
    pub fn snd_una(&self) -> u64 {
        self.base
    }

    /// One past the last tracked sequence (== snd_nxt).
    pub fn snd_nxt(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Number of tracked segments.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Segments currently in flight (outstanding + retransmitted).
    pub fn inflight_segments(&self) -> u64 {
        (self.n_outstanding + self.n_lost_retx) as u64
    }

    /// Segments declared lost and not yet retransmitted.
    pub fn lost_pending(&self) -> usize {
        self.n_lost
    }

    /// Segments in the Sacked state.
    pub fn sacked_count(&self) -> usize {
        self.n_sacked
    }

    /// Highest SACKed sequence number not yet covered by the cumulative ACK.
    pub fn highest_sacked(&self) -> Option<u64> {
        self.highest_sacked
    }

    /// Track a newly transmitted segment (must be `snd_nxt`).
    pub fn push_sent(&mut self, seq: u64, meta: PktMeta) {
        debug_assert_eq!(seq, self.snd_nxt(), "segments must be pushed in order");
        debug_assert_eq!(meta.state, PktState::Outstanding);
        self.entries.push_back(meta);
        self.n_outstanding += 1;
    }

    /// Look up a segment.
    pub fn get(&self, seq: u64) -> Option<&PktMeta> {
        let idx = seq.checked_sub(self.base)? as usize;
        self.entries.get(idx)
    }

    fn dec_state(&mut self, st: PktState) {
        match st {
            PktState::Outstanding => self.n_outstanding -= 1,
            PktState::Sacked => self.n_sacked -= 1,
            PktState::Lost => self.n_lost -= 1,
            PktState::LostRetx => self.n_lost_retx -= 1,
        }
    }

    fn inc_state(&mut self, st: PktState) {
        match st {
            PktState::Outstanding => self.n_outstanding += 1,
            PktState::Sacked => self.n_sacked += 1,
            PktState::Lost => self.n_lost += 1,
            PktState::LostRetx => self.n_lost_retx += 1,
        }
    }

    fn set_state(&mut self, seq: u64, st: PktState) {
        let idx = (seq - self.base) as usize;
        let old = self.entries[idx].state;
        if old != st {
            self.dec_state(old);
            self.inc_state(st);
            self.entries[idx].state = st;
        }
    }

    /// Advance the cumulative ACK point to `new_una`, invoking `f` for every
    /// segment removed (newly fully acknowledged), in sequence order.
    pub fn advance_una(&mut self, new_una: u64, mut f: impl FnMut(u64, &PktMeta)) {
        // An ACK below snd_una is old or reordered — a legitimate no-op.
        // Subtracting without this guard would wrap in release builds and
        // drain the whole scoreboard.
        if new_una <= self.base {
            return;
        }
        let n = (new_una - self.base).min(self.entries.len() as u64);
        for _ in 0..n {
            let meta = self.entries.pop_front().expect("length checked");
            self.dec_state(meta.state);
            f(self.base, &meta);
            self.base += 1;
        }
        if self.highest_sacked.is_some_and(|hs| hs < self.base) {
            self.highest_sacked = None;
        }
    }

    /// Advance the cumulative ACK point to `new_una`, folding the removed
    /// segments into one [`AckBatch`] in a single pass.
    ///
    /// This is the coalescing-era spelling of [`Scoreboard::advance_una`]:
    /// a GRO-batched ACK can cover dozens of segments, and everything the
    /// sender's ACK processing needs from them is associative — so the
    /// scoreboard folds the batch itself instead of invoking a callback
    /// per segment. The fold is exactly equivalent to the callback
    /// spelling (same iteration order, same tie-breaks), so non-coalesced
    /// runs are byte-identical either way.
    pub fn advance_una_batch(&mut self, new_una: u64) -> AckBatch {
        let mut batch = AckBatch::default();
        self.advance_una(new_una, |_, meta| batch.fold(meta));
        batch
    }

    /// Apply a SACK range `[start, end)`; invokes `f` for every segment
    /// *newly* marked Sacked.
    pub fn apply_sack(&mut self, start: u64, end: u64, mut f: impl FnMut(u64, &PktMeta)) {
        let lo = start.max(self.base);
        let hi = end.min(self.snd_nxt());
        for seq in lo..hi {
            let idx = (seq - self.base) as usize;
            let st = self.entries[idx].state;
            if st != PktState::Sacked {
                self.set_state(seq, PktState::Sacked);
                let meta = self.entries[(seq - self.base) as usize];
                f(seq, &meta);
            }
        }
        if hi > lo {
            self.highest_sacked = Some(self.highest_sacked.map_or(hi - 1, |h| h.max(hi - 1)));
        }
    }

    /// FACK-style loss marking: any Outstanding segment more than
    /// `dupthresh` below the highest SACK is lost. Invokes `f` per newly
    /// lost segment; returns the count. Resumes at the loss-scan cursor, so
    /// a recovery episode visits each segment once, not once per ACK.
    pub fn detect_losses(&mut self, dupthresh: u64, mut f: impl FnMut(u64)) -> u64 {
        let Some(hs) = self.highest_sacked else { return 0 };
        // dupthresh == 0 would underflow below (debug panic, huge cutoff in
        // release); treat it as the most aggressive sensible threshold.
        let dupthresh = dupthresh.max(1);
        // seq < cutoff ⇒ lost
        let cutoff = hs.saturating_sub(dupthresh - 1).min(self.snd_nxt());
        let start = self.loss_scan.max(self.base);
        let mut newly = 0;
        for seq in start..cutoff {
            if self.entries[(seq - self.base) as usize].state == PktState::Outstanding {
                // Lost segments always sit below Outstanding ones (this scan
                // marks a prefix, an RTO marks everything, the undo clears
                // them all), so `next_lost` has never walked past `seq`.
                debug_assert!(self.next_retx <= seq, "newly lost {seq} below retransmit cursor");
                self.set_state(seq, PktState::Lost);
                f(seq);
                newly += 1;
            }
        }
        self.loss_scan = start.max(cutoff);
        debug_assert!(self.loss_scan <= self.snd_nxt());
        newly
    }

    /// Undo an RTO's loss marking (spurious-RTO recovery): segments still
    /// waiting for retransmission go back to Outstanding — their original
    /// transmissions are evidently still being delivered.
    pub fn revert_lost_to_outstanding(&mut self) -> usize {
        let mut reverted = 0;
        for idx in 0..self.entries.len() {
            if self.entries[idx].state == PktState::Lost {
                let seq = self.base + idx as u64;
                self.set_state(seq, PktState::Outstanding);
                reverted += 1;
            }
        }
        // Outstanding segments reappeared below both cursors.
        self.loss_scan = self.base;
        self.first_inflight = self.base;
        reverted
    }

    /// Mark every non-SACKed segment lost (RTO recovery).
    pub fn mark_all_lost(&mut self) {
        for idx in 0..self.entries.len() {
            let seq = self.base + idx as u64;
            match self.entries[idx].state {
                PktState::Outstanding | PktState::LostRetx => self.set_state(seq, PktState::Lost),
                _ => {}
            }
        }
        // The retransmission sweep restarts from snd_una.
        self.next_retx = self.base;
    }

    /// Transmission time of the oldest segment currently in flight
    /// (Outstanding or LostRetx). Anchors the retransmission timer, so that
    /// a stalled head-of-line hole eventually times out even while later
    /// SACK-carrying ACKs keep arriving (Linux `tcp_rearm_rto` semantics).
    pub fn first_inflight_tx_time(&mut self) -> Option<SimTime> {
        let in_flight =
            |m: &PktMeta| matches!(m.state, PktState::Outstanding | PktState::LostRetx);
        // Outside recovery the head is in flight: answer without the cursor.
        let head = self.entries.front()?;
        if in_flight(head) {
            return Some(head.tx_time);
        }
        let start = self.first_inflight.max(self.base);
        debug_assert!(start <= self.snd_nxt());
        let found = self.entries.range((start - self.base) as usize..).position(in_flight);
        self.first_inflight = found.map_or(self.snd_nxt(), |off| start + off as u64);
        self.get(self.first_inflight).map(|m| m.tx_time)
    }

    /// Next lost segment to retransmit (lowest sequence first).
    pub fn next_lost(&mut self) -> Option<u64> {
        if self.n_lost == 0 {
            return None;
        }
        let start = self.next_retx.max(self.base);
        debug_assert!(start <= self.snd_nxt());
        let is_lost = |m: &PktMeta| m.state == PktState::Lost;
        let found = self.entries.range((start - self.base) as usize..).position(is_lost);
        debug_assert!(found.is_some(), "a Lost entry sits below the next-retransmit cursor");
        self.next_retx = start + found? as u64;
        Some(self.next_retx)
    }

    /// Record the retransmission of `seq` with a fresh rate-sampler snapshot.
    pub fn mark_retransmitted(&mut self, seq: u64, meta_update: PktMeta) {
        let idx = (seq - self.base) as usize;
        debug_assert_eq!(self.entries[idx].state, PktState::Lost, "only lost segments are retransmitted");
        self.set_state(seq, PktState::LostRetx);
        self.first_inflight = self.first_inflight.min(seq);
        let e = &mut self.entries[idx];
        e.tx_time = meta_update.tx_time;
        e.retx = true;
        e.delivered_at_send = meta_update.delivered_at_send;
        e.delivered_time_at_send = meta_update.delivered_time_at_send;
        e.first_tx_at_send = meta_update.first_tx_at_send;
        e.app_limited_at_send = meta_update.app_limited_at_send;
    }

    /// Conservation check: segments in each state sum to the total
    /// (diagnostic; enforced per event by the strict-mode checker).
    pub fn check_conservation(&self) -> bool {
        self.n_outstanding + self.n_sacked + self.n_lost + self.n_lost_retx == self.entries.len()
    }

    /// The incrementally maintained per-state counters:
    /// `(outstanding, sacked, lost, lost_retx)`.
    pub fn state_counts(&self) -> (usize, usize, usize, usize) {
        (self.n_outstanding, self.n_sacked, self.n_lost, self.n_lost_retx)
    }

    /// Recount the states by scanning every entry — the O(n) ground truth
    /// the incremental counters must agree with. Diagnostic; used by the
    /// property suite, not the per-event checker.
    pub fn recount_states(&self) -> (usize, usize, usize, usize) {
        let (mut o, mut s, mut l, mut r) = (0, 0, 0, 0);
        for e in &self.entries {
            match e.state {
                PktState::Outstanding => o += 1,
                PktState::Sacked => s += 1,
                PktState::Lost => l += 1,
                PktState::LostRetx => r += 1,
            }
        }
        (o, s, l, r)
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(t: u64) -> PktMeta {
        PktMeta {
            state: PktState::Outstanding,
            tx_time: SimTime::from_nanos(t),
            retx: false,
            delivered_at_send: 0,
            delivered_time_at_send: SimTime::ZERO,
            first_tx_at_send: SimTime::ZERO,
            app_limited_at_send: false,
        }
    }

    fn board_with(n: u64) -> Scoreboard {
        let mut sb = Scoreboard::new();
        for seq in 0..n {
            sb.push_sent(seq, meta(seq));
        }
        sb
    }

    #[test]
    fn push_and_cumulative_ack() {
        let mut sb = board_with(5);
        assert_eq!(sb.snd_una(), 0);
        assert_eq!(sb.snd_nxt(), 5);
        assert_eq!(sb.inflight_segments(), 5);
        let mut acked = vec![];
        sb.advance_una(3, |seq, _| acked.push(seq));
        assert_eq!(acked, vec![0, 1, 2]);
        assert_eq!(sb.snd_una(), 3);
        assert_eq!(sb.inflight_segments(), 2);
        assert!(sb.check_conservation());
    }

    #[test]
    fn sack_marks_and_counts_once() {
        let mut sb = board_with(10);
        let mut newly = vec![];
        sb.apply_sack(4, 7, |seq, _| newly.push(seq));
        assert_eq!(newly, vec![4, 5, 6]);
        assert_eq!(sb.sacked_count(), 3);
        // Re-applying the same range marks nothing new.
        let mut again = vec![];
        sb.apply_sack(4, 7, |seq, _| again.push(seq));
        assert!(again.is_empty());
        assert_eq!(sb.highest_sacked(), Some(6));
        assert!(sb.check_conservation());
    }

    #[test]
    fn fack_loss_detection() {
        let mut sb = board_with(10);
        // SACK 5..8: highest_sacked = 7; dupthresh 3 ⇒ seqs < 5 are lost.
        sb.apply_sack(5, 8, |_, _| {});
        let mut lost = vec![];
        let n = sb.detect_losses(3, |s| lost.push(s));
        assert_eq!(n, 5);
        assert_eq!(lost, vec![0, 1, 2, 3, 4]);
        assert_eq!(sb.lost_pending(), 5);
        assert_eq!(sb.inflight_segments(), 2); // seqs 8, 9
        assert!(sb.check_conservation());
    }

    #[test]
    fn loss_detection_respects_dupthresh_boundary() {
        let mut sb = board_with(6);
        sb.apply_sack(3, 4, |_, _| {}); // highest_sacked = 3
        let mut lost = vec![];
        sb.detect_losses(3, |s| lost.push(s));
        // cutoff = 3 - 2 = 1: only seq 0 is lost.
        assert_eq!(lost, vec![0]);
    }

    #[test]
    fn retransmit_cycle() {
        let mut sb = board_with(6);
        sb.apply_sack(3, 6, |_, _| {});
        sb.detect_losses(3, |_| {});
        assert_eq!(sb.next_lost(), Some(0));
        sb.mark_retransmitted(0, meta(99));
        assert_eq!(sb.next_lost(), Some(1));
        assert!(sb.get(0).unwrap().retx);
        assert_eq!(sb.get(0).unwrap().tx_time, SimTime::from_nanos(99));
        // Only the retransmitted segment is in flight (3..6 are SACKed,
        // 1 and 2 are still awaiting retransmission).
        assert_eq!(sb.inflight_segments(), 1);
        assert!(sb.check_conservation());
    }

    #[test]
    fn rto_marks_everything_unsacked_lost() {
        let mut sb = board_with(8);
        sb.apply_sack(5, 6, |_, _| {});
        sb.mark_all_lost();
        assert_eq!(sb.lost_pending(), 7);
        assert_eq!(sb.sacked_count(), 1);
        assert_eq!(sb.inflight_segments(), 0);
        assert!(sb.check_conservation());
    }

    #[test]
    fn cumulative_ack_clears_sacked_and_lost() {
        let mut sb = board_with(10);
        sb.apply_sack(4, 8, |_, _| {});
        sb.detect_losses(3, |_| {});
        let mut removed = 0;
        sb.advance_una(10, |_, _| removed += 1);
        assert_eq!(removed, 10);
        assert!(sb.is_empty());
        assert_eq!(sb.inflight_segments(), 0);
        assert_eq!(sb.lost_pending(), 0);
        assert!(sb.check_conservation());
    }

    #[test]
    fn stale_ack_below_una_is_a_noop() {
        let mut sb = board_with(8);
        sb.advance_una(5, |_, _| {});
        assert_eq!(sb.snd_una(), 5);
        // A reordered ACK for an already-acknowledged point must not drain
        // the scoreboard (regression: `new_una - base` wrapped in release).
        let mut removed = 0;
        sb.advance_una(3, |_, _| removed += 1);
        assert_eq!(removed, 0);
        assert_eq!(sb.snd_una(), 5);
        assert_eq!(sb.len(), 3);
        assert!(sb.check_conservation());
    }

    #[test]
    fn detect_losses_with_zero_dupthresh() {
        let mut sb = board_with(6);
        sb.apply_sack(3, 4, |_, _| {}); // highest_sacked = 3
        let mut lost = vec![];
        // dupthresh 0 is clamped to 1 (regression: `dupthresh - 1`
        // underflowed): cutoff = 3, so seqs 0..3 are lost.
        let n = sb.detect_losses(0, |s| lost.push(s));
        assert_eq!(n, 3);
        assert_eq!(lost, vec![0, 1, 2]);
        assert!(sb.check_conservation());
    }

    #[test]
    fn random_op_sequences_conserve_the_scoreboard() {
        use elephants_netsim::prop::{run_cases, DEFAULT_CASES};
        use elephants_netsim::{prop_check, prop_check_eq, RngExt};
        // Drive random push/ack/sack/loss/retransmit sequences and assert
        // the checker's scoreboard invariants after every single operation:
        // conservation, counter-vs-scan agreement, and window ordering.
        run_cases("scoreboard_random_ops", DEFAULT_CASES, |rng| {
            let mut sb = Scoreboard::new();
            let mut tx = 0u64;
            let ops = rng.random_range(20usize..120);
            for _ in 0..ops {
                match rng.random_range(0u32..7) {
                    0 | 1 => {
                        for _ in 0..rng.random_range(1u64..8) {
                            sb.push_sent(sb.snd_nxt(), meta(tx));
                            tx += 1;
                        }
                    }
                    2 => {
                        // Anywhere from a stale ACK to one past snd_nxt.
                        let target = rng.random_range(0..sb.snd_nxt() + 3);
                        sb.advance_una(target, |_, _| {});
                    }
                    3 => {
                        let lo = rng.random_range(0..sb.snd_nxt() + 2);
                        let hi = lo + rng.random_range(0u64..5);
                        sb.apply_sack(lo, hi, |_, _| {});
                    }
                    4 => {
                        // Includes the once-underflowing dupthresh == 0.
                        sb.detect_losses(rng.random_range(0u64..4), |_| {});
                    }
                    5 => {
                        if let Some(seq) = sb.next_lost() {
                            sb.mark_retransmitted(seq, meta(tx));
                            tx += 1;
                        }
                    }
                    _ => {
                        if rng.random_range(0u32..2) == 0 {
                            sb.mark_all_lost();
                        } else {
                            sb.revert_lost_to_outstanding();
                        }
                    }
                }
                prop_check!(
                    sb.check_conservation(),
                    "state counters {:?} do not sum to len {}",
                    sb.state_counts(),
                    sb.len()
                );
                prop_check_eq!(sb.state_counts(), sb.recount_states());
                prop_check!(sb.snd_una() <= sb.snd_nxt());
                prop_check!(sb.inflight_segments() <= sb.len() as u64);
                if let Some(hs) = sb.highest_sacked() {
                    prop_check!(
                        sb.snd_una() <= hs && hs < sb.snd_nxt(),
                        "highest_sacked {hs} outside [snd_una {}, snd_nxt {})",
                        sb.snd_una(),
                        sb.snd_nxt()
                    );
                }
            }
            Ok(())
        });
    }

    #[test]
    fn sack_ranges_clamped_to_window() {
        let mut sb = board_with(5);
        let mut newly = vec![];
        sb.apply_sack(0, 100, |seq, _| newly.push(seq));
        assert_eq!(newly, vec![0, 1, 2, 3, 4]);
        sb.advance_una(5, |_, _| {});
        // SACK below snd_una is a no-op.
        let mut again = vec![];
        sb.apply_sack(0, 3, |seq, _| again.push(seq));
        assert!(again.is_empty());
    }
}
