//! The `chaos` binary's usage errors.

use std::process::Command;

/// Run `chaos args..`, assert it exits 2 before fuzzing anything, and
/// return its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_chaos")).args(args).output().expect("run chaos");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?}: a usage error prints no summary");
    assert!(!stderr.contains("chaos: fuzzing"), "{args:?}: refused, yet reports work: {stderr}");
    stderr
}

#[test]
fn seed_range_past_u64_max_is_a_usage_error() {
    for cases in ["2", "0"] {
        let stderr = usage_error(&["--seed", "18446744073709551615", "--cases", cases]);
        assert!(stderr.contains("--seed") && stderr.contains("--cases"), "{stderr}");
    }
    let stderr = usage_error(&["--cases", "0"]);
    assert!(stderr.contains("zero cases"), "{stderr}");
}

#[test]
fn non_finite_or_unrepresentable_flap_is_a_usage_error() {
    for flap in ["nan,1", "1,nan", "inf,1", "1,inf", "1e300,1"] {
        let stderr = usage_error(&["--flap", flap, "--cases", "1"]);
        assert!(stderr.starts_with("bad --flap"), "{flap}: {stderr}");
    }
}
