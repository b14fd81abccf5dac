//! Receive-side coalescing conservation: the `grid/` rows of the table of
//! pinned runs (`integration_tests::pinned`).
//!
//! Every CCA x AQM cell against CUBIC runs twice, with per-segment ACKs
//! and with the GRO-style coalescing receiver, under the strict invariant
//! checker (packet conservation: aggregation must not create or destroy
//! data). Exact goodput equality is not asked for: ACK timing feeds back
//! into the congestion controller, and per-ACK window growth ramps slower
//! under ACK thinning. What coalescing must never do is manufacture bytes
//! or wedge the transfer, so each coalesced run is held to its plain twin.
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test coalesce
//! ```

/// Every grid cell, plain and coalesced, runs strict-clean; a coalesced
/// run delivers more than nothing, at most the bottleneck plus its queue
/// and at least half of its plain twin; both match their pinned lines.
#[test]
fn coalesce_on_conserves_delivery_across_the_grid_under_strict_check() {
    integration_tests::pinned::check("grid/");
}
