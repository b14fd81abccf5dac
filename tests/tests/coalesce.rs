//! Receive-side coalescing conservation test.
//!
//! The TCP receiver has an opt-in GRO-style coalescing layer. With it
//! enabled, runs across the 5×5 CCA×AQM grid must stay clean under the
//! strict invariant checker (packet conservation: aggregation must not
//! create or destroy data) and keep goodput physically conserved — below
//! link capacity, above collapse — relative to the non-coalesced run.
//! (That coalescing *off* changes nothing is `topology_equiv`'s dumbbell
//! identity test: the same five cells against the same pinned metrics.)
//! The coalesced runs themselves are pinned too: each cell's `RunMetrics`
//! JSON and event count, one line per cell, in
//! `tests/fixtures/coalesce/grid.jsonl`.

use elephants::cca::CcaKind;
use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
use elephants::json::ToJson;
use elephants::netsim::CheckMode;
use elephants::{AqmKind, SimDuration};

const SEED: u64 = 42;

/// Every CCA×AQM cell of the paper grid, run with coalescing enabled under
/// the strict runtime checker: the batched ACK path must satisfy the same
/// packet-conservation invariants as the per-segment default (no packet
/// created or destroyed by aggregation — that is what the checker proves),
/// and the goodput it delivers must stay physically conserved: bounded by
/// link capacity above and by no-collapse below. Exact goodput equality is
/// *not* asserted — ACK timing feeds back into the congestion controller,
/// so coalescing legitimately shifts short-window dynamics (Reno under PIE
/// moves by ~40% over a 2 s window; per-ACK window growth makes loss-based
/// CCAs ramp slower under ACK thinning); what it must never do is
/// manufacture bytes or wedge the transfer. Every coalesced run is also
/// compared byte for byte with the pinned grid.
#[test]
fn coalesce_on_conserves_delivery_across_the_grid_under_strict_check() {
    let mut pinned = String::new();
    for cca in CcaKind::ALL {
        for aqm in AqmKind::ALL {
            let build = |coalesce: bool| {
                // 8 s (6 s measurement window past warmup) lets steady
                // state dominate the slower ACK-thinned ramp while keeping
                // the CCA x AQM grid debug-mode tractable.
                ScenarioConfig::builder(
                    cca,
                    CcaKind::Cubic,
                    aqm,
                    2.0,
                    100_000_000,
                    &RunOptions::quick(),
                )
                .duration(SimDuration::from_secs(8))
                .coalesce(coalesce)
                .build()
                .unwrap()
            };
            let run = |cfg: &ScenarioConfig| {
                let outcome = Runner::new(cfg)
                    .seed(SEED)
                    .check(CheckMode::Strict)
                    .run()
                    .unwrap_or_else(|e| panic!("{} failed: {e}", cfg.label()));
                assert!(
                    outcome.check_reports.iter().all(|r| r.is_clean()),
                    "{}: strict checker reported violations",
                    cfg.label()
                );
                outcome.into_first()
            };
            let plain = run(&build(false));
            let gro_cfg = build(true);
            let gro = run(&gro_cfg);
            pinned += &format!(
                "{{\"cell\":\"{}\",\"events_processed\":{},\"metrics\":{}}}\n",
                gro_cfg.label(),
                gro.events,
                gro.metrics().to_json_string()
            );

            let total = |r: &elephants::experiments::RunResult| -> f64 {
                r.sender_mbps.iter().sum()
            };
            let (p, g) = (total(&plain), total(&gro));
            assert!(g > 0.0, "{cca}/{aqm}: coalesced run delivered nothing");
            // Window-average goodput can exceed the link rate by the queue
            // standing at the window boundary: the 2-BDP queue holds
            // 12.4 Mbit, worth a few Mbps over the 6 s window.
            assert!(
                g <= 106.0,
                "{cca}/{aqm}: coalesced goodput {g:.2} Mbps exceeds the \
                 100 Mbps bottleneck plus queue drain — bytes were manufactured"
            );
            assert!(
                g >= 0.5 * p,
                "{cca}/{aqm}: coalescing collapsed goodput \
                 ({p:.2} Mbps plain vs {g:.2} Mbps coalesced)"
            );
        }
    }
    integration_tests::assert_pinned("coalesce", "grid.jsonl", &pinned, "coalesced grid");
}
