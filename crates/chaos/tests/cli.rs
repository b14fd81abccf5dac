//! The `chaos` binary's usage errors.

use std::process::Command;

#[test]
fn seed_range_past_u64_max_is_a_usage_error() {
    let corpus = std::env::temp_dir().join(format!("chaos-cli-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_chaos"))
        .args(["--seed", "18446744073709551615", "--cases", "2", "--no-commit", "--corpus"])
        .arg(&corpus)
        .output()
        .expect("run chaos");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--seed") && stderr.contains("--cases"), "{stderr}");
    assert!(!corpus.exists(), "a usage error writes nothing");
}
