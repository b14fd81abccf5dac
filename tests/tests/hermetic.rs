//! Dependency guard: the workspace must stay hermetic.
//!
//! Every `[dependencies]` / `[dev-dependencies]` / `[build-dependencies]`
//! entry in every workspace manifest must resolve to an in-repo path crate
//! — either directly (`path = "..."`) or through `workspace = true`
//! inheritance from the root `[workspace.dependencies]` table, whose
//! entries must themselves be path deps. A registry dependency (`foo =
//! "1.0"` or `foo = { version = "..." }`) fails this test with the
//! offending manifest and line, before it gets a chance to break the
//! offline build.
//!
//! The same walk guards a second property of the sources: no crate keeps
//! process-wide mutable state. A `static` holding an `Atomic*`, `Mutex`,
//! `OnceLock` or `RefCell` outside `#[cfg(test)]` is shared by every
//! `Runner`, sweep and test in the process (the `--check` default used to
//! be one, and a test that set it put every concurrently running test into
//! audit mode); state belongs on the instance that owns it, as the cache
//! counters are.
//!
//! A third: no crate reads the environment outside tests, so what a run
//! does is its config and seed, never a variable set in the shell that
//! started it. The property-test harness is the one exception.

use std::path::{Path, PathBuf};

/// Collect every file whose name ends in `suffix` under `root`, skipping
/// build output and VCS metadata.
fn find_files(root: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(suffix) {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// Does a dependency-table line declare an in-repo dependency?
fn line_is_path_dep(line: &str) -> bool {
    line.contains("path =") || line.contains("path=") || line.contains("workspace = true")
}

/// Scan one manifest; returns `(line_number, line)` for every dependency
/// entry that is not an in-repo path/workspace dependency.
fn scan_manifest(text: &str) -> Vec<(usize, String)> {
    let mut offending = Vec::new();
    let mut in_dep_table = false;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') {
            // `[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
            // `[workspace.dependencies]`, and `[target.'...'.dependencies]`
            // all end in "dependencies]". Dotted headers like
            // `[dependencies.foo]` name a single dep as a sub-table; those
            // are checked entry-by-entry below.
            in_dep_table = line.ends_with("dependencies]");
            if line.contains("dependencies.") {
                // Sub-table form: the table itself must declare a path.
                in_dep_table = true;
            }
            continue;
        }
        if !in_dep_table {
            continue;
        }
        // Inside a dependency table every `name = value` entry must point
        // at an in-repo crate. Sub-table bodies (`path = "..."`, `version`)
        // are key/value lines too; `path` keys pass the same check.
        if line.contains('=') && !line_is_path_dep(line) {
            // Allow pure structural keys inside a `[dependencies.foo]`
            // sub-table that has a `path` key elsewhere; to stay simple and
            // strict, only `features`/`default-features` keys are excused.
            let key = line.split('=').next().unwrap_or("").trim();
            if key == "features" || key == "default-features" || key == "optional" {
                continue;
            }
            offending.push((idx + 1, raw.to_string()));
        }
    }
    offending
}

/// The lines of one source file outside `#[cfg(test)]` items, as
/// `(line_number, trimmed line)`.
fn outside_test_items(text: &str) -> Vec<(usize, &str)> {
    let depth_change = |line: &str| {
        line.matches('{').count() as i64 - line.matches('}').count() as i64
    };
    let mut kept = Vec::new();
    let mut after_cfg_test = false;
    let mut test_item_depth = 0i64;
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if test_item_depth > 0 {
            test_item_depth += depth_change(line);
            continue;
        }
        if line == "#[cfg(test)]" {
            after_cfg_test = true;
            continue;
        }
        if after_cfg_test {
            // Further attributes and doc comments belong to the same item;
            // the item itself is skipped whole, block or one-liner.
            if !(line.starts_with("#[") || line.starts_with("//")) {
                after_cfg_test = false;
                test_item_depth = depth_change(line).max(0);
            }
            continue;
        }
        kept.push((idx + 1, line));
    }
    kept
}

/// Scan one source file; returns `(line_number, declaration)` for every
/// `static` outside a `#[cfg(test)]` item whose type allows mutation
/// through a shared reference.
fn scan_statics(text: &str) -> Vec<(usize, String)> {
    const SHARED_MUT: [&str; 4] = ["Atomic", "Mutex", "OnceLock", "RefCell"];
    let mut hits = Vec::new();
    let mut lines = outside_test_items(text).into_iter();
    while let Some((line_no, line)) = lines.next() {
        // `'static` lifetimes have no space in front of the keyword.
        if !(line.starts_with("static ") || (line.starts_with("pub") && line.contains(" static "))) {
            continue;
        }
        let mut decl = line.to_string();
        while !decl.contains(';') {
            let Some((_, more)) = lines.next() else { break };
            decl.push(' ');
            decl.push_str(more);
        }
        if SHARED_MUT.iter().any(|marker| decl.contains(marker)) {
            hits.push((line_no, decl));
        }
    }
    hits
}

/// Scan one source file; returns `(line_number, line)` for every read of
/// the environment (`env::var`, `env::var_os`) outside a `#[cfg(test)]`
/// item.
fn scan_env_reads(text: &str) -> Vec<(usize, String)> {
    outside_test_items(text)
        .into_iter()
        .filter(|(_, line)| line.contains("env::var"))
        .map(|(line_no, line)| (line_no, line.to_string()))
        .collect()
}

/// Every `.rs` file under a `src/` directory of `crates/`.
fn crate_sources() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root").to_path_buf();
    let sources: Vec<PathBuf> = find_files(&root.join("crates"), ".rs")
        .into_iter()
        .filter(|path| path.components().any(|c| c.as_os_str() == "src"))
        .collect();
    assert!(sources.len() >= 50, "expected every crate's sources, found {} files", sources.len());
    sources
}

#[test]
fn no_crate_keeps_process_wide_mutable_state() {
    let mut violations = Vec::new();
    for source in &crate_sources() {
        let text = std::fs::read_to_string(source).expect("source readable");
        for (line_no, decl) in scan_statics(&text) {
            violations.push(format!("{}:{line_no}: {decl}", source.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "process-wide mutable state found (keep it on the instance that owns it):\n{}",
        violations.join("\n")
    );
}

#[test]
fn static_scanner_flags_shared_mutable_state_outside_tests() {
    // The four statics `elephants-experiments` used to keep.
    let bad = "use std::sync::atomic::{AtomicU64, AtomicU8};\n\
        static DEGENERATE_WINDOW_RUNS: AtomicU64 = AtomicU64::new(0);\n\
        static CHECK_MODE: AtomicU8 = AtomicU8::new(CheckMode::Off as u8);\n\
        /// Cache writes that failed.\n\
        pub(crate) static CACHE_PUT_ERRORS: AtomicU64 = AtomicU64::new(0);\n\
        pub static CACHE_QUARANTINED:\n    AtomicU64 = AtomicU64::new(0);\n\
        thread_local! {\n    static SCRATCH: RefCell<Vec<u8>> = RefCell::new(Vec::new());\n}\n";
    let hits = scan_statics(bad);
    assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), [2, 3, 5, 6, 9], "{hits:?}");

    let good = "static NAMES: [&str; 2] = [\"a\", \"b\"];\n\
        pub fn name() -> &'static str { NAMES[0] }\n\
        #[cfg(test)]\nstatic CALLS: AtomicU64 = AtomicU64::new(0);\n\
        #[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n    use super::*;\n\
        \x20   static SEEN: Mutex<Vec<u32>> = Mutex::new(Vec::new());\n\
        \x20   fn f() { if true { } }\n}\n\
        pub const AFTER: u32 = 1;\n";
    assert!(scan_statics(good).is_empty(), "{:?}", scan_statics(good));
    // Code after a test module is scanned again.
    let tail = format!("{good}static LATE: OnceLock<u32> = OnceLock::new();\n");
    assert_eq!(scan_statics(&tail).len(), 1);
}

/// A run's behaviour is its config and seed. The one source that reads
/// the environment is the property-test harness (`netsim/src/prop.rs`),
/// for its case count and replay seed.
#[test]
fn no_crate_reads_the_environment_outside_tests() {
    let mut reads = Vec::new();
    for source in &crate_sources() {
        if source.ends_with("netsim/src/prop.rs") {
            continue;
        }
        let text = std::fs::read_to_string(source).expect("source readable");
        for (line_no, line) in scan_env_reads(&text) {
            reads.push(format!("{}:{line_no}: {line}", source.display()));
        }
    }
    assert!(
        reads.is_empty(),
        "environment read outside a test (take the value as an argument):\n{}",
        reads.join("\n")
    );
}

#[test]
fn env_scanner_flags_reads_outside_tests() {
    let text = "fn threshold() -> Option<u64> {\n\
        \x20   std::env::var(\"N\").ok()?.parse().ok()\n}\n\
        use std::env;\nfn home() -> bool { env::var_os(\"HOME\").is_some() }\n\
        #[cfg(test)]\nmod tests {\n    fn set() { std::env::var(\"N\").ok(); }\n}\n";
    let hits = scan_env_reads(text);
    assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), [2, 5], "{hits:?}");
}

#[test]
fn every_workspace_dependency_is_a_path_dependency() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("workspace root").to_path_buf();
    let manifests = find_files(&root, "Cargo.toml");
    assert!(
        manifests.len() >= 16,
        "expected the full workspace (root + members incl. crates/analysis), found {} manifests",
        manifests.len()
    );

    let mut violations = Vec::new();
    for manifest in &manifests {
        let text = std::fs::read_to_string(manifest).expect("manifest readable");
        for (line_no, line) in scan_manifest(&text) {
            violations.push(format!("{}:{line_no}: {line}", manifest.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "non-path dependencies found (the workspace must stay hermetic):\n{}",
        violations.join("\n")
    );
}

#[test]
fn scanner_flags_registry_dependencies() {
    let bad = "[package]\nname = \"x\"\n[dependencies]\nrand = \"0.9\"\nserde = { version = \"1\", features = [\"derive\"] }\n";
    let hits = scan_manifest(bad);
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits[0].1.contains("rand"));
    assert!(hits[1].1.contains("serde"));
}

#[test]
fn scanner_accepts_path_and_workspace_dependencies() {
    let good = "[package]\nname = \"x\"\nversion.workspace = true\n[dependencies]\nfoo = { path = \"../foo\" }\nbar = { workspace = true }\n[dev-dependencies]\nbaz = { path = \"../baz\", features = [\"extra\"] }\n";
    assert!(scan_manifest(good).is_empty());
}
