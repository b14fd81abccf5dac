//! Uniform construction of every queue discipline from scenario parameters:
//! one table row per [`AqmKind`], read by everything that names, parses,
//! lists or builds one.

use crate::codel::{Codel, CodelConfig};
use crate::fq_codel::{FqCodel, FqCodelConfig};
use crate::pie::{Pie, PieConfig};
use crate::red::{Red, RedConfig};
use elephants_netsim::{Aqm, DropTail};

/// A row's constructor: [`build_aqm`]'s arguments after the kind, in order
/// (`buffer_bytes`, `bandwidth_bps`, `mtu`, `ecn`, `hash_salt`).
type BuildAqm = fn(u64, u64, u32, bool, u64) -> Box<dyn Aqm>;

elephants_json::kind_table! {
    /// The queue disciplines: one row per kind, the only list of them in
    /// the workspace (DESIGN.md §3h). Adding one is its module plus its
    /// row here.
    pub enum AqmKind("AQM") -> BuildAqm {
        /// Droptail FIFO.
        Fifo: "fifo", ["pfifo", "droptail"], paper: true,
            |buffer, _, mtu, _, _| Box::new(DropTail::new(buffer.max(mtu as u64)));
        /// Flow-queuing CoDel (`tc fq_codel`).
        FqCodel: "fq_codel", ["fqcodel", "fq-codel"], paper: true, |buffer, _, mtu, ecn, hash_salt| {
            let mut cfg = FqCodelConfig::tc_defaults(buffer, mtu);
            cfg.codel.ecn = ecn;
            cfg.hash_salt = hash_salt;
            Box::new(FqCodel::new(cfg))
        };
        /// Random Early Detection.
        Red: "red", [], paper: true, |buffer, bandwidth_bps, mtu, ecn, _| {
            let mut cfg = RedConfig::tc_defaults(buffer.max(4 * mtu as u64), bandwidth_bps, mtu);
            cfg.ecn = ecn;
            Box::new(Red::new(cfg))
        };
        /// Plain single-queue CoDel (not in the paper's grid; kept for ablations).
        Codel: "codel", [], paper: false, |buffer, _, mtu, ecn, _| {
            let limit_bytes = buffer.max(4 * mtu as u64);
            Box::new(Codel::new(CodelConfig { limit_bytes, mtu, ecn, ..Default::default() }))
        };
        /// PIE, RFC 8033 (extension: the paper's "future AQM" direction).
        Pie: "pie", [], paper: false, |buffer, _, mtu, ecn, _| {
            let limit_bytes = buffer.max(4 * mtu as u64);
            Box::new(Pie::new(PieConfig { limit_bytes, ecn, ..Default::default() }))
        };
    }
}

/// Build the bottleneck queue discipline for a scenario.
///
/// * `buffer_bytes` — the experiment's queue length (a BDP multiple).
/// * `bandwidth_bps` — bottleneck rate (RED uses it for idle decay).
/// * `mtu` — the jumbo-frame size (8900 in the paper).
/// * `ecn` — enable ECN marking (off in the paper).
/// * `hash_salt` — per-run salt for FQ-CoDel's flow hash.
pub fn build_aqm(
    kind: AqmKind,
    buffer_bytes: u64,
    bandwidth_bps: u64,
    mtu: u32,
    ecn: bool,
    hash_salt: u64,
) -> Box<dyn Aqm> {
    kind.row()(buffer_bytes, bandwidth_bps, mtu, ecn, hash_salt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let mut spellings = std::collections::HashSet::new();
        for kind in AqmKind::ALL {
            for s in kind.spellings() {
                assert_eq!(s.parse::<AqmKind>().unwrap(), kind, "{s}");
                assert_eq!(s.to_ascii_uppercase().parse::<AqmKind>().unwrap(), kind, "{s}");
                assert!(spellings.insert(*s), "'{s}' is claimed by two rows");
            }
            assert_eq!(kind.to_string(), kind.name());
        }
        let err = "bogus".parse::<AqmKind>().unwrap_err();
        for kind in AqmKind::ALL {
            assert!(err.contains(kind.name()), "{err}");
        }
    }

    #[test]
    fn json_spelling_is_the_variant_name_and_round_trips() {
        use elephants_json::{FromJson, ToJson};
        for kind in AqmKind::ALL {
            let text = kind.to_json_string();
            assert_eq!(text, format!("\"{kind:?}\""));
            assert_eq!(AqmKind::from_json_str(&text).unwrap(), kind);
        }
        assert!(AqmKind::from_json_str("\"fq_codel\"").is_err(), "JSON takes the variant name only");
        assert!(AqmKind::from_json_str("1").is_err());
    }

    #[test]
    fn builds_every_kind() {
        for kind in AqmKind::ALL {
            let aqm = build_aqm(kind, 1_000_000, 100_000_000, 8900, false, 1);
            assert_eq!(aqm.name(), kind.name());
            assert_eq!(aqm.backlog_pkts(), 0);
        }
    }

    #[test]
    fn every_discipline_holds_its_invariants_under_drop_heavy_traffic() {
        use elephants_netsim::{FlowId, NodeId, Packet, SeedableRng, SimDuration, SimTime, SmallRng};
        for (kind, ecn) in AqmKind::ALL.into_iter().flat_map(|k| [(k, false), (k, true)]) {
            // A buffer small enough that the workload overflows it, forcing
            // every drop path (tail, probabilistic, eviction) to fire — and,
            // with ECN on, every mark path. 400 ms of 4:1 overload outlasts
            // CoDel's 100 ms interval and PIE's 150 ms burst allowance.
            let mut aqm = build_aqm(kind, 40_000, 100_000_000, 1000, ecn, 7);
            let mut rng = SmallRng::seed_from_u64(42);
            let mut t = SimTime::ZERO;
            for round in 0..400u64 {
                t += SimDuration::from_millis(1);
                for f in 0..4u32 {
                    let mut p = Packet::data(FlowId(f), NodeId(0), NodeId(1), round, 900 + 50 * f, t);
                    p.ecn_capable = true;
                    aqm.enqueue(p, t, &mut rng);
                }
                aqm.dequeue(t, &mut rng);
                let fails = aqm.check_invariants(t, false);
                assert!(fails.is_empty(), "{kind} ecn={ecn}: shallow check failed: {fails:?}");
            }
            // Drain, deep-checking along the way.
            loop {
                t += SimDuration::from_micros(200);
                let done = aqm.dequeue(t, &mut rng).pkt.is_none();
                let fails = aqm.check_invariants(t, true);
                assert!(fails.is_empty(), "{kind} ecn={ecn}: deep check failed: {fails:?}");
                if done {
                    break;
                }
            }
            let s = aqm.stats();
            assert_eq!(aqm.backlog_pkts(), 0, "{kind} ecn={ecn}: queue must drain");
            assert!(s.dropped_total() > 0, "{kind} ecn={ecn}: workload must overflow");
            assert_eq!(s.marked > 0, ecn && kind != AqmKind::Fifo, "{kind} ecn={ecn}: marks {}", s.marked);
        }
    }

    #[test]
    fn tiny_buffers_are_clamped_to_sane_minimums() {
        // A 0.5 BDP buffer at 100 Mbps is ~390 kB, but make sure degenerate
        // small values don't produce unusable queues.
        let aqm = build_aqm(AqmKind::Red, 1, 100_000_000, 8900, false, 0);
        assert_eq!(aqm.name(), "red");
        let aqm = build_aqm(AqmKind::Fifo, 1, 100_000_000, 8900, false, 0);
        assert_eq!(aqm.name(), "fifo");
    }
}
