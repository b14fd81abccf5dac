//! The linear-scan scoreboard, kept as the reference model.
//!
//! [`RefScoreboard`] is the implementation `Scoreboard` had before PR 22
//! gave its scans cursors, verbatim: `detect_losses`, `next_lost` and
//! `first_inflight_tx_time` each walk from `snd_una`, so there is no cursor
//! to get wrong. The differential test drives both through the same random
//! operation sequences and requires the same answers after every step.

use super::*;
use elephants_netsim::prop::{run_cases, DEFAULT_CASES};
use elephants_netsim::{prop_check, prop_check_eq, RngExt, SmallRng};
use std::collections::VecDeque;

#[derive(Debug, Default)]
struct RefScoreboard {
    base: u64,
    entries: VecDeque<PktMeta>,
    n_outstanding: usize,
    n_sacked: usize,
    n_lost: usize,
    n_lost_retx: usize,
    highest_sacked: Option<u64>,
}

impl RefScoreboard {
    fn snd_una(&self) -> u64 {
        self.base
    }

    fn snd_nxt(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    fn push_sent(&mut self, meta: PktMeta) {
        self.entries.push_back(meta);
        self.n_outstanding += 1;
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

    fn advance_una_batch(&mut self, new_una: u64) -> AckBatch {
        let mut batch = AckBatch::default();
        if new_una <= self.base {
            return batch;
        }
        let n = (new_una - self.base).min(self.entries.len() as u64);
        for _ in 0..n {
            let meta = self.entries.pop_front().expect("length checked");
            self.dec_state(meta.state);
            batch.fold(&meta);
            self.base += 1;
        }
        batch
    }

    fn apply_sack(&mut self, start: u64, end: u64, mut f: impl FnMut(u64, &PktMeta)) {
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

    fn detect_losses(&mut self, dupthresh: u64, mut f: impl FnMut(u64)) -> u64 {
        let Some(hs) = self.highest_sacked else { return 0 };
        let dupthresh = dupthresh.max(1);
        let cutoff = hs.saturating_sub(dupthresh - 1); // seq < cutoff ⇒ lost
        let mut newly = 0;
        let base = self.base;
        let limit = cutoff.saturating_sub(base).min(self.entries.len() as u64) as usize;
        for idx in 0..limit {
            if self.entries[idx].state == PktState::Outstanding {
                let seq = base + idx as u64;
                self.set_state(seq, PktState::Lost);
                f(seq);
                newly += 1;
            }
        }
        newly
    }

    fn revert_lost_to_outstanding(&mut self) -> usize {
        let mut reverted = 0;
        for idx in 0..self.entries.len() {
            if self.entries[idx].state == PktState::Lost {
                let seq = self.base + idx as u64;
                self.set_state(seq, PktState::Outstanding);
                reverted += 1;
            }
        }
        reverted
    }

    fn mark_all_lost(&mut self) {
        for idx in 0..self.entries.len() {
            let seq = self.base + idx as u64;
            match self.entries[idx].state {
                PktState::Outstanding | PktState::LostRetx => self.set_state(seq, PktState::Lost),
                _ => {}
            }
        }
    }

    fn first_inflight_tx_time(&self) -> Option<SimTime> {
        self.entries
            .iter()
            .find(|m| matches!(m.state, PktState::Outstanding | PktState::LostRetx))
            .map(|m| m.tx_time)
    }

    fn next_lost(&self) -> Option<u64> {
        if self.n_lost == 0 {
            return None;
        }
        self.entries
            .iter()
            .position(|m| m.state == PktState::Lost)
            .map(|idx| self.base + idx as u64)
    }

    fn mark_retransmitted(&mut self, seq: u64, meta_update: PktMeta) {
        let idx = (seq - self.base) as usize;
        self.set_state(seq, PktState::LostRetx);
        let e = &mut self.entries[idx];
        e.tx_time = meta_update.tx_time;
        e.retx = true;
        e.delivered_at_send = meta_update.delivered_at_send;
        e.delivered_time_at_send = meta_update.delivered_time_at_send;
        e.first_tx_at_send = meta_update.first_tx_at_send;
        e.app_limited_at_send = meta_update.app_limited_at_send;
    }

    fn state_counts(&self) -> (usize, usize, usize, usize) {
        (self.n_outstanding, self.n_sacked, self.n_lost, self.n_lost_retx)
    }
}

impl Scoreboard {
    /// The three cursor invariants, checked by walking the board (O(n)).
    fn cursors_hold(&self) -> bool {
        let below =
            |cursor: u64| self.entries.iter().take(cursor.saturating_sub(self.base) as usize);
        [self.loss_scan, self.next_retx, self.first_inflight].iter().all(|&c| c <= self.snd_nxt())
            && below(self.loss_scan).all(|m| m.state != PktState::Outstanding)
            && below(self.next_retx).all(|m| m.state != PktState::Lost)
            && below(self.first_inflight)
                .all(|m| !matches!(m.state, PktState::Outstanding | PktState::LostRetx))
    }
}

/// Both boards under test, and the clock that stamps transmissions.
#[derive(Default)]
struct Pair {
    new: Scoreboard,
    old: RefScoreboard,
    tx: u64,
}

impl Pair {
    /// A fresh send-time snapshot; `delivered_at_send` takes few values so
    /// the `AckBatch` sample tie-break (later sequence wins) is exercised.
    fn meta(&mut self, rng: &mut SmallRng) -> PktMeta {
        self.tx += 1;
        PktMeta {
            state: PktState::Outstanding,
            tx_time: SimTime::from_nanos(self.tx),
            retx: false,
            delivered_at_send: rng.random_range(0u64..4),
            delivered_time_at_send: SimTime::ZERO,
            first_tx_at_send: SimTime::ZERO,
            app_limited_at_send: false,
        }
    }

    fn push(&mut self, n: u64, rng: &mut SmallRng) {
        for _ in 0..n {
            let meta = self.meta(rng);
            self.new.push_sent(self.new.snd_nxt(), meta);
            self.old.push_sent(meta);
        }
    }

    fn cum_ack(&mut self, target: u64) -> Result<(), String> {
        let (got, want) = (self.new.advance_una_batch(target), self.old.advance_una_batch(target));
        prop_check_eq!(format!("{got:?}"), format!("{want:?}"));
        Ok(())
    }

    fn sack(&mut self, lo: u64, hi: u64) -> Result<(), String> {
        let (mut got, mut want) = (vec![], vec![]);
        self.new.apply_sack(lo, hi, |seq, m| got.push((seq, m.tx_time)));
        self.old.apply_sack(lo, hi, |seq, m| want.push((seq, m.tx_time)));
        prop_check_eq!(got, want);
        Ok(())
    }

    fn detect(&mut self, dupthresh: u64) -> Result<(), String> {
        let (mut got, mut want) = (vec![], vec![]);
        let n_got = self.new.detect_losses(dupthresh, |seq| got.push(seq));
        let n_want = self.old.detect_losses(dupthresh, |seq| want.push(seq));
        prop_check_eq!((n_got, got), (n_want, want));
        Ok(())
    }

    /// Retransmit up to `n` lost segments, lowest first, as `try_send` does.
    fn retransmit(&mut self, n: u64, rng: &mut SmallRng) -> Result<(), String> {
        for _ in 0..n {
            let (got, want) = (self.new.next_lost(), self.old.next_lost());
            prop_check_eq!(got, want);
            let Some(seq) = got else { break };
            let meta = self.meta(rng);
            self.new.mark_retransmitted(seq, meta);
            self.old.mark_retransmitted(seq, meta);
        }
        Ok(())
    }

    fn rto(&mut self) {
        self.new.mark_all_lost();
        self.old.mark_all_lost();
    }

    fn revert(&mut self) -> Result<(), String> {
        let (got, want) = (self.new.revert_lost_to_outstanding(), self.old.revert_lost_to_outstanding());
        prop_check_eq!(got, want);
        Ok(())
    }
}

#[test]
fn cursor_scoreboard_matches_the_linear_scan_reference() {
    run_cases("scoreboard_vs_reference", DEFAULT_CASES, |rng| {
        let mut p = Pair::default();
        // Most cases stay at tens of segments, where one case covers many
        // recovery episodes; one in four grows to a few hundred.
        let window_cap = if rng.random_range(0u32..4) == 0 { 400 } else { 48 };
        for _ in 0..rng.random_range(20usize..160) {
            let (una, nxt) = (p.new.snd_una(), p.new.snd_nxt());
            match rng.random_range(0u32..16) {
                0..=2 if nxt - una < window_cap => p.push(rng.random_range(1u64..48), rng),
                // Cumulative ACKs: stale, a few segments, anywhere up to
                // exactly snd_nxt, and past it.
                0..=2 => p.cum_ack(rng.random_range(una..nxt + 1))?,
                3 => p.cum_ack(rng.random_range(0..una + 1))?,
                4 => p.cum_ack(una + rng.random_range(1u64..6))?,
                5 => p.cum_ack(nxt + rng.random_range(0u64..3))?,
                // SACK ranges starting below snd_una, inside the window
                // and beyond snd_nxt; some empty, some overrunning.
                6..=8 => {
                    let lo = rng.random_range(una.saturating_sub(4)..nxt + 4);
                    p.sack(lo, lo + rng.random_range(0u64..12))?;
                }
                9..=10 => p.detect(rng.random_range(0u64..4))?,
                11..=13 => p.retransmit(rng.random_range(1u64..8), rng)?,
                // The RTO shapes, where cursors move backwards.
                _ => match rng.random_range(0u32..4) {
                    0 => p.rto(),
                    1 => {
                        // Spurious RTO: collapse, retransmit the head, undo.
                        p.rto();
                        p.retransmit(rng.random_range(0u64..4), rng)?;
                        p.revert()?;
                    }
                    // Undo with whatever (often nothing) is marked lost.
                    2 => p.revert()?,
                    _ => {
                        // Back-to-back timeouts around a partial sweep.
                        p.rto();
                        p.retransmit(rng.random_range(0u64..4), rng)?;
                        p.rto();
                    }
                },
            }
            // The two queries move cursors, so ask on a coin flip: boards
            // whose cursors trail far behind must stay reachable.
            if rng.random_range(0u32..2) == 0 {
                prop_check_eq!(p.new.next_lost(), p.old.next_lost());
            }
            if rng.random_range(0u32..2) == 0 {
                prop_check_eq!(p.new.first_inflight_tx_time(), p.old.first_inflight_tx_time());
            }
            prop_check!(p.new.cursors_hold(), "a cursor invariant broke: {:?}", p.new);
            prop_check_eq!(p.new.state_counts(), p.old.state_counts());
            prop_check_eq!(p.new.state_counts(), p.new.recount_states());
            prop_check_eq!((p.new.snd_una(), p.new.snd_nxt()), (p.old.snd_una(), p.old.snd_nxt()));
        }
        Ok(())
    });
}
