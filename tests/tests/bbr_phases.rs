//! BBR phase-machine byte identity: the `bbr/` rows of the table of
//! pinned runs (`integration_tests::pinned`).
//!
//! Six cells drive the branches BBRv1 and BBRv2 do not share, and the
//! ProbeRTT step they do, hundreds of times each. Their lines, with the
//! per-flow sample counts by phase label, were pinned before the shared
//! model moved into `cca::bbr::BbrCore`; any diff means a change altered a
//! gain, a phase transition or a window.
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test bbr_phases
//! ```

/// Each cell runs strict-clean, is sampled in the phases it exists to
/// reach, and matches its pinned line.
#[test]
fn bbr_phase_machines_are_byte_identical_to_pre_change_fixtures() {
    integration_tests::pinned::check("bbr/");
}
