//! What the benchmark reads from the host: CPU time, peak memory, and the
//! stamp that says which build on which machine produced a number.

use elephants_json::Value;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux user-space ABI).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, from `/proc/self/stat` (fields 14 and 15).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    cpu_seconds_of(&stat).expect("parse /proc/self/stat")
}

fn cpu_seconds_of(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces and parentheses; fields
    // are counted from the last ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SEC)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// FNV-1a over a byte stream: pins simulated statistics without keeping
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Which build, on which machine, with which settings.
#[derive(Debug, Clone)]
pub struct Stamp {
    pub git_rev: String,
    pub rustc: String,
    pub profile: &'static str,
    pub nproc: usize,
    pub workers: usize,
    pub seed: u64,
    pub smoke: bool,
}

impl Stamp {
    /// `run.sh` passes the revision and compiler through the environment;
    /// a bare binary reports them as unknown.
    pub fn collect(seed: u64, smoke: bool) -> Stamp {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Stamp {
            git_rev: env("BENCH_GIT_REV"),
            rustc: env("BENCH_RUSTC"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: 1,
            seed,
            smoke,
        }
    }

    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("git_rev".into(), Value::Str(self.git_rev.clone())),
            ("rustc".into(), Value::Str(self.rustc.clone())),
            ("profile".into(), Value::Str(self.profile.into())),
            ("nproc".into(), Value::Int(self.nproc as i128)),
            ("workers".into(), Value::Int(self.workers as i128)),
            ("seed".into(), Value::Int(self.seed as i128)),
            ("smoke".into(), Value::Bool(self.smoke)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_fields_are_counted_after_the_command_name() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 1 2 3";
        assert_eq!(cpu_seconds_of(stat), Some(3.0));
        assert_eq!(cpu_seconds_of("garbage"), None);
    }

    #[test]
    fn host_readings_are_positive() {
        assert!(peak_rss_mib() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = Digest::new();
        a.feed(b"{\"jain\":1}");
        a.feed(b"42");
        // Pinned: a changed constant or fold order would silently detach
        // every recorded digest from the runs it describes.
        assert_eq!(a.hex(), "a3f24a153389c876");
        let mut b = Digest::new();
        b.feed(b"42");
        b.feed(b"{\"jain\":1}");
        assert_ne!(a, b);
    }
}
