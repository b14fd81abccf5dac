//! The delivery-rate sample's arithmetic.
//!
//! [`crate::sender::TcpSender`] takes the per-segment snapshots from its
//! scoreboard and calls [`delivery_rate_bps`] for every ACK that yields a
//! sample; keeping the arithmetic here lets it be property-tested alone.
//!
//! The estimator follows Linux `tcp_rate.c`: every transmitted segment
//! records `(delivered, delivered_time, first_tx_time)` at send; when a
//! segment is delivered, the rate sample is
//!
//! ```text
//! interval = max(send_interval, ack_interval)
//!          = max(tx_time - first_tx_at_send, now - delivered_time_at_send)
//! rate     = (delivered_now - delivered_at_send) / interval
//! ```
//!
//! Using the *max* of the two intervals makes the estimator robust to both
//! sender-limited and ACK-compressed periods: it can underestimate but not
//! overestimate the true delivery rate.

use elephants_netsim::SimTime;

/// Compute a delivery-rate sample in bits/s.
///
/// Returns `None` when the interval is degenerate (zero-width sample).
#[inline]
pub fn delivery_rate_bps(
    delivered_now: u64,
    delivered_at_send: u64,
    tx_time: SimTime,
    first_tx_at_send: SimTime,
    now: SimTime,
    delivered_time_at_send: SimTime,
) -> Option<u64> {
    let snd = tx_time.since(first_tx_at_send);
    let ack = now.since(delivered_time_at_send);
    let interval = snd.max(ack);
    if interval.is_zero() {
        return None;
    }
    let delta = delivered_now.saturating_sub(delivered_at_send);
    Some((delta as f64 * 8.0 / interval.as_secs_f64()) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn steady_stream_measures_true_rate() {
        // 10 segments of 1000 B delivered over 10 ms = 8 Mbps.
        let rate = delivery_rate_bps(10_000, 0, t(10), t(0), t(20), t(10)).unwrap();
        assert_eq!(rate, 8_000_000);
    }

    #[test]
    fn ack_compression_does_not_inflate_rate() {
        // All ACKs arrive in a burst: ack interval tiny, send interval 100 ms.
        // The max() picks the send interval, keeping the sample honest.
        let rate = delivery_rate_bps(100_000, 0, t(100), t(0), t(101), t(100)).unwrap();
        assert_eq!(rate, 8_000_000); // 100 kB over 100 ms
    }

    #[test]
    fn sender_pause_does_not_inflate_rate() {
        // Sender idled: send interval tiny, ack interval long.
        let rate = delivery_rate_bps(10_000, 0, t(1), t(0), t(100), t(0)).unwrap();
        assert_eq!(rate, 800_000); // 10 kB over 100 ms
    }

    #[test]
    fn degenerate_interval_is_rejected() {
        assert!(delivery_rate_bps(1000, 0, t(5), t(5), t(5), t(5)).is_none());
    }
}
