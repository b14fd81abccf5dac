//! The table of pinned runs as a whole, and its `ecn/` rows.
//!
//! The table, its driver and the rule every row follows (strict-checked,
//! then pinned as one line of `tests/fixtures/runs.jsonl`) are
//! `integration_tests::pinned`; the other sections run in the test files
//! its table names.
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test pinned_runs
//! ```

use integration_tests::pinned;

/// Every row is in one section, has a name of its own and a line of the
/// fixture, in table order: no row goes unrun and no line unchecked.
#[test]
fn every_row_has_one_section_and_one_pinned_line() {
    pinned::check_table();
}

/// BBRv2 against CUBIC with ECN on, over every discipline but RED (a
/// `bbr/` row has RED): PIE marks at enqueue, CoDel and FQ-CoDel at
/// dequeue, FIFO not at all.
#[test]
fn ecn_rows_run_strict_clean_and_match_their_pinned_lines() {
    pinned::check("ecn/");
}
