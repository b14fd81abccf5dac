//! How each binary wires its flag list to the one parser: a flag it does
//! not take, a malformed count or bandwidth, `--help`, and probe's own
//! flags. Each call is refused (or answered) before any run, or is a probe
//! run that records nothing, so nothing lands under `--out`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `bin args.. --out DIR` and assert that `DIR` stays absent.
fn run(bin: &str, args: &[&str]) -> Output {
    let out_dir = std::env::temp_dir()
        .join(format!("elephants-cli-{}-{bin}-{}", std::process::id(), args.join("_")));
    let out = Command::new(bin_path(bin))
        .args(args)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("spawn the binary");
    assert!(!out_dir.exists(), "{bin} {args:?} wrote under --out");
    out
}

fn bin_path(bin: &str) -> PathBuf {
    PathBuf::from(match bin {
        "repro" => env!("CARGO_BIN_EXE_repro"),
        "sweep" => env!("CARGO_BIN_EXE_sweep"),
        "dataset" => env!("CARGO_BIN_EXE_dataset"),
        _ => env!("CARGO_BIN_EXE_probe"),
    })
}

/// `bin args..` exits 2 with a message that starts with `starts`.
fn refused(bin: &str, args: &[&str], starts: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.starts_with(starts), "{bin} {args:?}: {stderr}");
}

#[test]
fn flags_that_change_nothing_are_refused_by_name() {
    for (bin, args, flag) in [
        ("repro", &["table2", "--check", "audit"][..], "--check"),
        ("repro", &["table2", "--bw", "100M", "--quick"], "--quick"),
        ("repro", &["table2", "--seed", "9"], "--seed"),
        ("repro", &["rttsweep", "--full"], "--full"),
        ("repro", &["dynamics", "--repeats", "2"], "--repeats"),
        ("repro", &["rtt_unfair", "--no-cache"], "--no-cache"),
        ("repro", &["aqm_frontier", "--quick", "--repeats", "2"], "--repeats"),
        ("dataset", &["--quick", "--repeats", "2"], "--repeats"),
        ("dataset", &["--quick", "--no-cache"], "--no-cache"),
    ] {
        refused(bin, args, flag);
    }
}

#[test]
fn flags_refused_before_stay_refused() {
    for (bin, args, flag) in [
        ("repro", &["fig3", "--quick", "--loss", "bernoulli:0.01"][..], "--loss"),
        ("repro", &["fig3", "--quick", "--record", "flows"], "--record"),
        ("repro", &["rtt_unfair", "--bw", "1G"], "--bw"),
        ("repro", &["fig2", "--quick", "--limit", "1"], "--limit"),
        ("repro", &["fig2", "--bogus"], "--bogus"),
        ("repro", &["ablate"], "usage: repro <"),
        ("sweep", &["--quick", "--record", "flows"], "--record"),
        ("dataset", &["--quick", "--limit", "1"], "--limit"),
        ("probe", &["--repeats", "2"], "--repeats"),
        ("probe", &["--bw1", "100M"], "--bw1"),
    ] {
        refused(bin, args, flag);
    }
}

#[test]
fn zero_bandwidths_and_counts_are_refused() {
    for (bin, args) in [
        ("repro", &["fig2", "--quick"][..]),
        ("repro", &["aqm_frontier", "--quick"]),
        ("repro", &["table2"]),
        ("sweep", &["--quick"]),
        ("dataset", &["--quick"]),
        ("probe", &[]),
    ] {
        refused(bin, &[args, &["--bw", "0"]].concat(), "bad bandwidth");
    }
    refused("sweep", &["--quick", "--bw", "100M", "--limit", "1", "--repeats", "0"], "--repeats");
    refused("sweep", &["--quick", "--bw", "100M", "--limit", "0"], "--limit");
}

#[test]
fn runs_that_cannot_mean_anything_are_refused() {
    for (bin, args) in [("probe", &[][..]), ("sweep", &["--quick"]), ("dataset", &["--quick"])] {
        for flap in ["nan,1", "1,nan", "inf,1", "1e300,1"] {
            refused(bin, &[args, &["--flap", flap]].concat(), "bad --flap");
        }
    }
    refused("probe", &["--secs", "0"], "invalid scenario: duration");
    refused("probe", &["--secs", "18446744073709551615"], "--secs");
    for queue in ["1e300", "1e-300"] {
        let args = ["--queue", queue, "--secs", "1", "--record", "flows"];
        refused("probe", &args, "invalid scenario: queue_bdp");
    }
    let under_a_ms = ["--record", "flows", "--sample-interval", "0.000001"];
    refused("probe", &under_a_ms, "--sample-interval");
    refused("dataset", &[&["--quick"], &under_a_ms[..]].concat(), "--sample-interval");
}

#[test]
fn help_prints_the_flag_list_and_exits_0() {
    for (bin, args, takes, refuses) in [
        ("repro", &["table2"][..], "--out", "--seed"),
        ("repro", &["fig2"], "--repeats", "--record"),
        ("repro", &["rttsweep"], "--record", "--repeats"),
        ("sweep", &[], "--limit", "--record"),
        ("dataset", &[], "--record", "--repeats"),
        ("probe", &[], "--cca1", "--repeats"),
    ] {
        let out = run(bin, &[args, &["--help"]].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stdout}");
        assert!(stdout.contains(&format!("\n  {takes} ")), "{bin} {args:?}: {stdout}");
        assert!(!stdout.contains(&format!("\n  {refuses} ")), "{bin} {args:?}: {stdout}");
    }
    let out = run("repro", &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rtt_unfair"), "{stdout}");
    assert!(!stdout.contains("ablate"), "{stdout}");
}

#[test]
fn probe_reads_each_of_its_own_flags() {
    let probe = |secs: &str| {
        let args = ["--cca1", "bbr1", "--cca2", "reno", "--aqm", "red", "--queue", "3"];
        let out = run("probe", &[&args[..], &["--bw", "10M", "--secs", secs]].concat());
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stdout}");
        stdout
    };
    let one = probe("1");
    assert!(one.starts_with("BBRv1 vs Reno, red, 3 BDP, 10Mbps\n"), "{one}");
    assert_ne!(one, probe("2"), "--secs changes the run");
}
