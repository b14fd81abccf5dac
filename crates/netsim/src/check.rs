//! Runtime invariant checking (`elephants-check`).
//!
//! The simulator's results are quantitative: a silent accounting bug in the
//! scoreboard, a queue, or a CCA shifts Jain's index without failing any
//! test. This module makes such drift loud. A [`Checker`] rides the event
//! loop as an optional hook — off by default and zero-cost when disabled
//! (one `Option` branch per event, the same discipline as the flight
//! recorder) — and enforces, per event and at finalize:
//!
//! * **Packet conservation** — every packet injected by a host is, at
//!   finalize, exactly one of:
//!   delivered to a host, dropped (AQM, down link, fault loss), resident in
//!   a queue, or on the wire in a link's delivery pipe awaiting delivery.
//! * **Scoreboard conservation** — via [`crate::sim::FlowEndpoint::check_invariants`],
//!   which TCP senders implement over their SACK scoreboard.
//! * **CCA sanity** — delegated through the same endpoint hook (cwnd floor,
//!   gain-cycle bounds, filter monotonicity).
//! * **AQM byte/packet accounting** — via [`crate::queue::Aqm::check_invariants`]:
//!   `enqueued == dequeued + dropped_dequeue + resident` per queue, plus
//!   discipline-specific control-law bounds.
//! * **Time monotonicity** — event timestamps never decrease across the
//!   timer wheel, including level spillover and cancelled-timer lazy pops.
//!
//! Violations become structured [`Violation`]s inside a [`CheckReport`]
//! (serializable through `elephants-json`). In [`CheckMode::Strict`] the
//! first violation panics with the full context; in [`CheckMode::Audit`]
//! violations are counted and the bounded report is surfaced to the caller.

use crate::time::SimTime;
use elephants_json::{impl_json_struct, impl_json_unit_enum};

/// How much invariant checking a run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckMode {
    /// No checking; the hot loop pays one untaken branch per event.
    #[default]
    Off,
    /// Check every invariant; count violations into a [`CheckReport`].
    Audit,
    /// Check every invariant; panic on the first violation.
    Strict,
}

impl_json_unit_enum!(CheckMode { Off, Audit, Strict });

impl std::str::FromStr for CheckMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Ok(CheckMode::Off),
            "audit" => Ok(CheckMode::Audit),
            "strict" => Ok(CheckMode::Strict),
            other => Err(format!("unknown check mode '{other}' (expected off, audit, strict)")),
        }
    }
}

/// One failed invariant, as reported by a component probe.
///
/// Component hooks ([`crate::queue::Aqm::check_invariants`],
/// [`crate::sim::FlowEndpoint::check_invariants`]) return a
/// `Vec<CheckFailure>`; the empty vector — the overwhelmingly common case —
/// never allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckFailure {
    /// Stable invariant name (e.g. `"scoreboard_conservation"`).
    pub invariant: &'static str,
    /// Human-readable detail: the numbers that failed to balance.
    pub detail: String,
}

impl CheckFailure {
    /// Construct a failure.
    pub fn new(invariant: &'static str, detail: impl Into<String>) -> Self {
        CheckFailure { invariant, detail: detail.into() }
    }
}

/// One recorded invariant violation, with full event context.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant name.
    pub invariant: String,
    /// Flow the violation is attributed to, if any.
    pub flow: Option<u64>,
    /// Link/queue the violation is attributed to, if any.
    pub link: Option<u64>,
    /// Processed-event sequence number at detection time.
    pub event_seq: u64,
    /// Simulated time at detection.
    pub t: SimTime,
    /// The numbers that failed to balance.
    pub detail: String,
}

impl_json_struct!(Violation { invariant, flow, link, event_seq, t, detail });

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {} (event {})", self.invariant, self.t, self.event_seq)?;
        if let Some(flow) = self.flow {
            write!(f, " flow {flow}")?;
        }
        if let Some(link) = self.link {
            write!(f, " link {link}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// At most this many violations are stored verbatim (keep-first, like the
/// event-trace ring); the total count keeps rising past the cap.
pub const MAX_STORED_VIOLATIONS: usize = 64;

/// The structured outcome of a checked run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckReport {
    /// Mode the run was checked under.
    pub mode: CheckMode,
    /// Events that went through the per-event checks.
    pub events_checked: u64,
    /// Total violations detected (may exceed `violations.len()`).
    pub violations_total: u64,
    /// The first [`MAX_STORED_VIOLATIONS`] violations, in detection order.
    pub violations: Vec<Violation>,
}

impl_json_struct!(CheckReport { mode, events_checked, violations_total, violations });

impl CheckReport {
    /// Whether the run was clean.
    pub fn is_clean(&self) -> bool {
        self.violations_total == 0
    }

    /// One-line summary for CLI output.
    pub fn summary_line(&self) -> String {
        format!(
            "mode={:?} events_checked={} violations={}",
            self.mode, self.events_checked, self.violations_total
        )
    }
}

/// The start of every strict-mode violation's panic message; the chaos
/// judge classifies a run's panic as an invariant failure by it.
pub const STRICT_VIOLATION_PREFIX: &str = "invariant violated";

/// The runtime checker the simulator drives.
///
/// Owns the conservation counters and the accumulating report. Installed
/// into the simulator behind an `Option`, so a run without checking pays
/// one predictable branch per event.
#[derive(Debug)]
pub struct Checker {
    mode: CheckMode,
    /// Timestamp of the previous event (monotonicity witness).
    last_event_at: SimTime,
    /// Packets emitted by host endpoints and accepted onto a first link.
    injected: u64,
    /// Packets delivered to a host endpoint.
    delivered: u64,
    report: CheckReport,
}

impl Checker {
    /// A checker in `mode` (which must not be `Off`).
    pub fn new(mode: CheckMode) -> Self {
        assert!(mode != CheckMode::Off, "a Checker is only built for Audit or Strict");
        Checker {
            mode,
            last_event_at: SimTime::ZERO,
            injected: 0,
            delivered: 0,
            report: CheckReport { mode, ..CheckReport::default() },
        }
    }

    /// Count a host-emitted packet accepted onto its first link.
    #[inline]
    pub fn note_injected(&mut self) {
        self.injected += 1;
    }

    /// Count a packet delivered to a host endpoint.
    #[inline]
    pub fn note_delivered(&mut self) {
        self.delivered += 1;
    }

    /// Per-event preamble: time monotonicity across the wheel (including
    /// level spillover and cancelled-timer lazy pops, which still pop in
    /// `(time, seq)` order) and the checked-event counter.
    #[inline]
    pub fn on_event(&mut self, at: SimTime, event_seq: u64) {
        self.report.events_checked += 1;
        if at < self.last_event_at {
            let last = self.last_event_at;
            self.fail(
                CheckFailure::new(
                    "time_monotonicity",
                    format!("event at {at} popped after {last}"),
                ),
                None,
                None,
                event_seq,
                at,
            );
        }
        self.last_event_at = at;
    }

    /// Record one failure (panic in strict mode).
    pub fn fail(
        &mut self,
        failure: CheckFailure,
        flow: Option<u64>,
        link: Option<u64>,
        event_seq: u64,
        t: SimTime,
    ) {
        let v = Violation {
            invariant: failure.invariant.to_string(),
            flow,
            link,
            event_seq,
            t,
            detail: failure.detail,
        };
        if self.mode == CheckMode::Strict {
            panic!("{STRICT_VIOLATION_PREFIX}: {v}");
        }
        self.report.violations_total += 1;
        if self.report.violations.len() < MAX_STORED_VIOLATIONS {
            self.report.violations.push(v);
        }
    }

    /// Record a batch of component failures against one flow/link.
    pub fn record(
        &mut self,
        failures: Vec<CheckFailure>,
        flow: Option<u64>,
        link: Option<u64>,
        event_seq: u64,
        t: SimTime,
    ) {
        for f in failures {
            self.fail(f, flow, link, event_seq, t);
        }
    }

    /// Finalize-time global packet conservation:
    ///
    /// `injected == delivered + dropped + resident + in_flight`
    ///
    /// where `dropped` sums every terminal drop class over all links,
    /// `resident` sums queue backlogs, and `in_flight` counts the packets in
    /// the links' delivery pipes (scheduled deliveries not yet taken).
    pub fn check_packet_conservation(
        &mut self,
        dropped: u64,
        resident: u64,
        in_flight: u64,
        event_seq: u64,
        t: SimTime,
    ) {
        let accounted = self.delivered + dropped + resident + in_flight;
        if self.injected != accounted {
            let (injected, delivered) = (self.injected, self.delivered);
            self.fail(
                CheckFailure::new(
                    "packet_conservation",
                    format!(
                        "injected {injected} != \
                         delivered {delivered} + dropped {dropped} + \
                         resident {resident} + in_flight {in_flight}"
                    ),
                ),
                None,
                None,
                event_seq,
                t,
            );
        }
    }

    /// Consume the checker into its report.
    pub fn into_report(self) -> CheckReport {
        self.report
    }

    /// The report so far.
    pub fn report(&self) -> &CheckReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elephants_json::{FromJson, ToJson};

    #[test]
    fn mode_parses_and_round_trips() {
        assert_eq!("strict".parse::<CheckMode>().unwrap(), CheckMode::Strict);
        assert_eq!("AUDIT".parse::<CheckMode>().unwrap(), CheckMode::Audit);
        assert_eq!("off".parse::<CheckMode>().unwrap(), CheckMode::Off);
        assert!("loose".parse::<CheckMode>().is_err());
    }

    #[test]
    fn audit_counts_instead_of_panicking() {
        let mut ck = Checker::new(CheckMode::Audit);
        ck.fail(CheckFailure::new("test_invariant", "a != b"), Some(3), None, 17, SimTime::ZERO);
        assert_eq!(ck.report().violations_total, 1);
        let v = &ck.report().violations[0];
        assert_eq!(v.invariant, "test_invariant");
        assert_eq!(v.flow, Some(3));
        assert_eq!(v.link, None);
        assert_eq!(v.event_seq, 17);
    }

    #[test]
    #[should_panic(expected = "invariant violated")]
    fn strict_panics_on_first_violation() {
        let mut ck = Checker::new(CheckMode::Strict);
        ck.fail(CheckFailure::new("test_invariant", "boom"), None, Some(1), 1, SimTime::ZERO);
    }

    #[test]
    fn stored_violations_are_bounded_but_counted() {
        let mut ck = Checker::new(CheckMode::Audit);
        for i in 0..(MAX_STORED_VIOLATIONS as u64 + 10) {
            ck.fail(CheckFailure::new("x", "y"), None, None, i, SimTime::ZERO);
        }
        let r = ck.report();
        assert_eq!(r.violations.len(), MAX_STORED_VIOLATIONS);
        assert_eq!(r.violations_total, MAX_STORED_VIOLATIONS as u64 + 10);
    }

    #[test]
    fn time_monotonicity_flags_regressions_only() {
        let mut ck = Checker::new(CheckMode::Audit);
        ck.on_event(SimTime::from_nanos(10), 1);
        ck.on_event(SimTime::from_nanos(10), 2); // equal is fine
        ck.on_event(SimTime::from_nanos(20), 3);
        assert!(ck.report().is_clean());
        ck.on_event(SimTime::from_nanos(5), 4);
        assert_eq!(ck.report().violations_total, 1);
        assert_eq!(ck.report().violations[0].invariant, "time_monotonicity");
    }

    #[test]
    fn packet_conservation_balances() {
        let mut ck = Checker::new(CheckMode::Audit);
        for _ in 0..10 {
            ck.note_injected();
        }
        for _ in 0..6 {
            ck.note_delivered();
        }
        // 10 injected = 6 delivered + 2 dropped + 1 resident + 1 in flight.
        ck.check_packet_conservation(2, 1, 1, 100, SimTime::ZERO);
        assert!(ck.report().is_clean());
        ck.check_packet_conservation(2, 2, 1, 101, SimTime::ZERO);
        assert_eq!(ck.report().violations_total, 1);
        assert_eq!(ck.report().violations[0].invariant, "packet_conservation");
    }

    #[test]
    fn report_serializes_and_parses_back() {
        let mut ck = Checker::new(CheckMode::Audit);
        ck.on_event(SimTime::from_nanos(7), 1);
        ck.fail(
            CheckFailure::new("queue_accounting", "1 != 2"),
            None,
            Some(4),
            2,
            SimTime::from_nanos(7),
        );
        let report = ck.into_report();
        let json = report.to_json_string();
        let back = CheckReport::from_json_str(&json).unwrap();
        assert_eq!(back, report);
        assert!(json.contains("queue_accounting"), "{json}");
    }
}
