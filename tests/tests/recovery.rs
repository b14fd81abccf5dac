//! Loss-recovery byte identity: the `recovery/` rows of the table of
//! pinned runs (`integration_tests::pinned`).
//!
//! The benchmark's `recovery_10g` loss shapes at 100 Mbps (a shallow
//! buffer under BBRv1, bursty random loss, a link flap) run SACK marking,
//! FACK loss detection, retransmit selection, RTO and spurious-RTO undo
//! hundreds of times a cell. Their lines were pinned before the
//! scoreboard's scans got cursors; any diff means a change altered which
//! segment is declared lost or retransmitted, or when.
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test recovery
//! ```

/// Each cell runs strict-clean, retransmits, and matches its pinned line.
#[test]
fn loss_recovery_is_byte_identical_to_pre_change_fixtures() {
    integration_tests::pinned::check("recovery/");
}
