//! Bandwidth units and bandwidth-delay-product helpers.

use crate::time::{SimDuration, NANOS_PER_SEC};
use elephants_json::impl_json_newtype;
use std::fmt;

/// A link or path bandwidth, stored as bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl_json_newtype!(Bandwidth);

impl Bandwidth {
    /// Zero bandwidth (used as a sentinel for "unknown").
    pub const ZERO: Bandwidth = Bandwidth(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Construct from kilobits per second.
    #[inline]
    pub const fn from_kbps(kbps: u64) -> Self {
        Bandwidth(kbps * 1_000)
    }

    /// Construct from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Megabits per second, fractional.
    #[inline]
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time to serialize `bytes` onto a link of this bandwidth.
    ///
    /// Uses 128-bit intermediate math so that 25 Gbps × multi-gigabyte values
    /// cannot overflow.
    #[inline]
    pub fn serialization_time(self, bytes: u64) -> SimDuration {
        assert!(self.0 > 0, "serialization over zero-bandwidth link");
        let bits = (bytes as u128) * 8;
        let ns = bits * NANOS_PER_SEC as u128 / self.0 as u128;
        SimDuration::from_nanos(ns as u64)
    }

    /// How many bytes this bandwidth delivers in `d`.
    #[inline]
    pub fn bytes_in(self, d: SimDuration) -> u64 {
        ((self.0 as u128 * d.as_nanos() as u128) / (8 * NANOS_PER_SEC as u128)) as u64
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else if self.0 >= 1_000_000 {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// Bandwidth-delay product in bytes (paper Eq. 1): `BDP = BW * RTT / 8`.
///
/// ```
/// use elephants_netsim::units::{bdp_bytes, Bandwidth};
/// use elephants_netsim::time::SimDuration;
/// // 100 Mbps * 62 ms = 775 kB
/// assert_eq!(bdp_bytes(Bandwidth::from_mbps(100), SimDuration::from_millis(62)), 775_000);
/// ```
#[inline]
pub fn bdp_bytes(bw: Bandwidth, rtt: SimDuration) -> u64 {
    ((bw.as_bps() as u128 * rtt.as_nanos() as u128) / (8 * NANOS_PER_SEC as u128)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        assert_eq!(Bandwidth::from_gbps(25).as_bps(), 25_000_000_000);
        assert_eq!(Bandwidth::from_mbps(100).as_mbps_f64(), 100.0);
        assert_eq!(Bandwidth::from_kbps(10).as_bps(), 10_000);
    }

    #[test]
    fn serialization_time_exact() {
        // 1250 bytes at 10 Mbps = 1 ms.
        let bw = Bandwidth::from_mbps(10);
        assert_eq!(bw.serialization_time(1250), SimDuration::from_millis(1));
        // 8900-byte jumbo frame at 25 Gbps = 2848 ns.
        let bw = Bandwidth::from_gbps(25);
        assert_eq!(bw.serialization_time(8900).as_nanos(), 2848);
    }

    #[test]
    fn serialization_time_no_overflow_at_scale() {
        let bw = Bandwidth::from_gbps(100);
        // 16 BDP of a 25G*62ms path is about 3.1 GB; must not overflow.
        let big = 4_000_000_000u64;
        let t = bw.serialization_time(big);
        assert!((t.as_secs_f64() - 0.32).abs() < 1e-6);
    }

    #[test]
    fn bdp_matches_paper_eq1() {
        let rtt = SimDuration::from_millis(62);
        assert_eq!(bdp_bytes(Bandwidth::from_mbps(100), rtt), 775_000);
        assert_eq!(bdp_bytes(Bandwidth::from_mbps(500), rtt), 3_875_000);
        assert_eq!(bdp_bytes(Bandwidth::from_gbps(1), rtt), 7_750_000);
        assert_eq!(bdp_bytes(Bandwidth::from_gbps(10), rtt), 77_500_000);
        assert_eq!(bdp_bytes(Bandwidth::from_gbps(25), rtt), 193_750_000);
    }

    #[test]
    fn bytes_in_inverts_serialization() {
        let bw = Bandwidth::from_gbps(1);
        let d = bw.serialization_time(123_456);
        let b = bw.bytes_in(d);
        assert!((b as i64 - 123_456).abs() <= 1);
    }

    #[test]
    fn display() {
        assert_eq!(Bandwidth::from_gbps(25).to_string(), "25Gbps");
        assert_eq!(Bandwidth::from_mbps(500).to_string(), "500Mbps");
    }
}
