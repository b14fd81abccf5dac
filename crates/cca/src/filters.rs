//! Windowed max/min filters used by the BBR bandwidth/RTT models.
//!
//! Both are monotonic-deque sliding-window filters: `O(1)` amortized per
//! update, exact (unlike the 3-sample approximation in Linux `minmax.c`,
//! which these are behaviourally equivalent to for BBR's purposes).

use elephants_netsim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Sliding-window **maximum** keyed by round-trip count.
///
/// BBR's bottleneck-bandwidth estimate is the max delivery-rate sample over
/// the last `window` rounds.
#[derive(Debug, Clone)]
pub struct WindowedMaxByRound {
    window: u64,
    /// (round, value), values strictly decreasing front→back.
    samples: VecDeque<(u64, u64)>,
}

impl WindowedMaxByRound {
    /// A filter over the last `window` rounds.
    pub fn new(window: u64) -> Self {
        assert!(window > 0);
        WindowedMaxByRound { window, samples: VecDeque::new() }
    }

    /// Insert a sample observed in `round`.
    pub fn update(&mut self, round: u64, value: u64) {
        while self.samples.back().is_some_and(|&(_, v)| v <= value) {
            self.samples.pop_back();
        }
        self.samples.push_back((round, value));
        self.expire(round);
    }

    /// Advance time without a new sample (expire old entries).
    pub fn expire(&mut self, current_round: u64) {
        let cutoff = current_round.saturating_sub(self.window);
        while self.samples.front().is_some_and(|&(r, _)| r < cutoff) {
            self.samples.pop_front();
        }
    }

    /// Current windowed maximum, or `None` if no samples survive.
    pub fn get(&self) -> Option<u64> {
        self.samples.front().map(|&(_, v)| v)
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.samples.clear();
    }

    /// Structural invariant of the monotonic deque (checker probe):
    /// values strictly decreasing and rounds nondecreasing front→back.
    pub fn is_monotone(&self) -> bool {
        self.samples
            .iter()
            .zip(self.samples.iter().skip(1))
            .all(|(&(r0, v0), &(r1, v1))| v0 > v1 && r0 <= r1)
    }
}

/// Sliding-window **minimum** keyed by timestamp.
///
/// BBR's propagation-delay estimate is the min RTT sample over the last
/// `window` of wall-clock time.
#[derive(Debug, Clone)]
pub struct WindowedMinByTime {
    window: SimDuration,
    /// (time, value), values strictly increasing front→back.
    samples: VecDeque<(SimTime, SimDuration)>,
}

impl WindowedMinByTime {
    /// A filter over the last `window` of time.
    pub fn new(window: SimDuration) -> Self {
        WindowedMinByTime { window, samples: VecDeque::new() }
    }

    /// Insert a sample observed at `now`.
    pub fn update(&mut self, now: SimTime, value: SimDuration) {
        while self.samples.back().is_some_and(|&(_, v)| v >= value) {
            self.samples.pop_back();
        }
        self.samples.push_back((now, value));
        self.expire(now);
    }

    /// Expire entries older than the window.
    pub fn expire(&mut self, now: SimTime) {
        while self.samples.front().is_some_and(|&(t, _)| now.since(t) > self.window) {
            self.samples.pop_front();
        }
    }

    /// Current windowed minimum.
    pub fn get(&self) -> Option<SimDuration> {
        self.samples.front().map(|&(_, v)| v)
    }

    /// Drop all state.
    pub fn reset(&mut self) {
        self.samples.clear();
    }

    /// Structural invariant of the monotonic deque (checker probe):
    /// values strictly increasing and timestamps nondecreasing front→back.
    pub fn is_monotone(&self) -> bool {
        self.samples
            .iter()
            .zip(self.samples.iter().skip(1))
            .all(|(&(t0, v0), &(t1, v1))| v0 < v1 && t0 <= t1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn at(x: u64) -> SimTime {
        SimTime::from_nanos(x * 1_000_000)
    }

    #[test]
    fn max_filter_tracks_peak() {
        let mut f = WindowedMaxByRound::new(10);
        f.update(0, 100);
        f.update(1, 300);
        f.update(2, 200);
        assert_eq!(f.get(), Some(300));
    }

    #[test]
    fn max_filter_expires_old_peak() {
        let mut f = WindowedMaxByRound::new(3);
        f.update(0, 1000);
        f.update(1, 100);
        f.update(2, 100);
        assert_eq!(f.get(), Some(1000));
        f.update(4, 100); // round 0 now outside [1..4]
        assert_eq!(f.get(), Some(100));
    }

    #[test]
    fn max_filter_equal_values_refresh_window() {
        let mut f = WindowedMaxByRound::new(3);
        f.update(0, 500);
        f.update(2, 500); // same value, newer round → window slides
        f.update(4, 100);
        assert_eq!(f.get(), Some(500));
        f.update(6, 100);
        assert_eq!(f.get(), Some(100));
    }

    #[test]
    fn min_filter_tracks_trough_and_expiry() {
        let mut f = WindowedMinByTime::new(ms(100));
        f.update(at(0), ms(50));
        f.update(at(10), ms(30));
        f.update(at(20), ms(40));
        assert_eq!(f.get(), Some(ms(30)));
        // At t=150 the t=10 sample (value 30) is stale; 40 survives.
        f.update(at(115), ms(45));
        assert_eq!(f.get(), Some(ms(40)));
        f.expire(at(125));
        assert_eq!(f.get(), Some(ms(45)));
    }

    #[test]
    fn min_filter_staleness() {
        let mut f = WindowedMinByTime::new(ms(100));
        assert_eq!(f.get(), None);
        f.update(at(0), ms(10));
        f.expire(at(50));
        assert_eq!(f.get(), Some(ms(10)), "inside the window");
        f.expire(at(150));
        assert_eq!(f.get(), None, "older than the window");
    }

    #[test]
    fn brute_force_equivalence_max() {
        // Compare against a naive windowed max over a pseudo-random stream.
        let mut f = WindowedMaxByRound::new(5);
        let mut hist: Vec<(u64, u64)> = vec![];
        let mut x: u64 = 0x12345678;
        for round in 0..200 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x >> 48;
            f.update(round, v);
            hist.push((round, v));
            let naive = hist
                .iter()
                .filter(|&&(r, _)| r + 5 >= round && r <= round)
                .map(|&(_, v)| v)
                .max();
            assert_eq!(f.get(), naive, "round {round}");
        }
    }
}
