//! The `chaos` binary's usage errors.

use std::process::Command;

/// Run `chaos args.. --no-commit --corpus DIR`, assert it exits 2 and
/// writes nothing, and return its stderr.
fn usage_error(args: &[&str]) -> String {
    let corpus = std::env::temp_dir().join(format!("chaos-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(args)
        .args(["--no-commit", "--corpus"])
        .arg(&corpus)
        .output()
        .expect("run chaos");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!corpus.exists(), "a usage error writes nothing");
    stderr
}

#[test]
fn seed_range_past_u64_max_is_a_usage_error() {
    let stderr = usage_error(&["--seed", "18446744073709551615", "--cases", "2"]);
    assert!(stderr.contains("--seed") && stderr.contains("--cases"), "{stderr}");
}

#[test]
fn non_finite_or_unrepresentable_flap_is_a_usage_error() {
    for flap in ["nan,1", "1,nan", "inf,1", "1,inf", "1e300,1"] {
        let stderr = usage_error(&["--flap", flap, "--cases", "1"]);
        assert!(stderr.starts_with("bad --flap"), "{flap}: {stderr}");
    }
}
