//! The one command-line parser of `repro`, `sweep`, `dataset`, `probe` and
//! the `chaos` fuzzer.
//!
//! `FLAGS` is every flag the binaries share: its spelling, its value and
//! what it does. Each binary, and each `repro` target, is the list of the
//! shared flags it honours ([`SWEEP`], [`DATASET`], [`PROBE`], [`CHAOS`]
//! and the `repro` lists [`FIGURE`] … [`RTTSWEEP`]) plus the rows of its own
//! flags, which live in its bin file (probe's `--cca1` … `--secs`, chaos's
//! `--cases` … `--verbose`). A flag is listed exactly when giving it
//! changes what that binary or target does. [`Cli::parse_from`] walks the
//! arguments once against the list: a flag off it exits 2 with a message
//! that starts with the flag, and `--help` prints the list and exits 0.
//!
//! The flags that shape a scenario or its run (`--loss` … `--fault-link`)
//! parse into [`SharedFlags`], which `chaos` also pins onto the cases it
//! generates. A binary's own flags are kept as given and read with
//! [`Cli::value`] and [`Cli::given`].

use crate::cache::RunCache;
use crate::runner::{repeat_seeds, Recording};
use crate::scenario::{DurationPreset, RunOptions, ScenarioConfig, PAPER_BWS};
use elephants_netsim::{CheckMode, FaultPlan, LossModel, SimDuration, TopologySpec};
use std::fmt::Display;
use std::str::FromStr;

/// Print `msg` and exit with the usage-error status.
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A flag's spelling, its value (`""` for a switch) and what it does.
pub type Flag = (&'static str, &'static str, &'static str);

/// Every flag the binaries share. `--help` prints a binary's own rows,
/// then its shared ones in this order.
const FLAGS: &[Flag] = &[
    ("--quick", "", "short duration preset (default: standard)"),
    ("--full", "", "the paper's durations; raises --repeats to 5"),
    ("--repeats", "N", "seeded repetitions per config (paper: 5)"),
    ("--scale", "F", "Table 2 flow-count scale in (0, 1]"),
    ("--seed", "N", "base seed (default 1)"),
    ("--bw", "LIST", "comma-separated bandwidths, e.g. 100M,1G,25G"),
    ("--no-cache", "", "recompute every run instead of reading OUT/cache"),
    ("--out", "DIR", "output directory (default results)"),
    ("--limit", "N", "keep only the first N cells of the grid"),
    ("--loss", "MODEL", "bottleneck loss: none, bernoulli:P or ge:P_GB,P_BG"),
    ("--flap", "START,DUR", "take the bottleneck down at START s for DUR s"),
    ("--record", "CHANNELS", "flight recorder: a subset of flows,queue,events"),
    ("--sample-interval", "MS", "flight-recorder sample spacing (needs --record)"),
    ("--check", "MODE", "invariant checking: off, audit or strict"),
    ("--coalesce", "", "GRO-style receive coalescing on every receiver"),
    ("--topology", "SPEC", "dumbbell, parking-lot:K or multi-dumbbell:R1,R2[,..]"),
    ("--fault-link", "N", "aim --loss / --flap at bottleneck hop N (default 0)"),
];

/// `repro fig2` … `fig8` and `table3`: grids of cached, repeated runs.
pub const FIGURE: &[&str] = &[
    "--quick", "--full", "--repeats", "--scale", "--seed", "--bw", "--no-cache", "--out", "--check",
];
/// `repro aqm_frontier`: a grid of cached runs at one seed.
pub const AQM_FRONTIER: &[&str] =
    &["--quick", "--full", "--scale", "--seed", "--bw", "--no-cache", "--out", "--check"];
/// `repro table2`: no runs, one row per bandwidth.
pub const TABLE2: &[&str] = &["--bw", "--out"];
/// `repro dynamics` and `rtt_unfair`: fixed-length, uncached runs at one
/// seed and a fixed bandwidth.
pub const CLAIM: &[&str] = &["--scale", "--seed", "--check", "--out"];
/// `repro rttsweep`: as [`CLAIM`], and it can record its 62 ms run.
pub const RTTSWEEP: &[&str] =
    &["--scale", "--seed", "--check", "--out", "--record", "--sample-interval"];
/// `sweep`: the grid through the cache; it records nothing.
pub const SWEEP: &[&str] = &[
    "--quick", "--full", "--repeats", "--scale", "--seed", "--bw", "--no-cache", "--out", "--limit",
    "--check", "--loss", "--flap", "--coalesce", "--topology", "--fault-link",
];
/// `dataset`: one recorded, uncached run at one seed per cell of its slice.
pub const DATASET: &[&str] = &[
    "--quick", "--full", "--scale", "--seed", "--bw", "--out", "--record", "--sample-interval",
    "--check", "--loss", "--flap", "--coalesce", "--topology", "--fault-link",
];
/// `probe`: one run of one cell.
pub const PROBE: &[&str] = &[
    "--bw", "--seed", "--scale", "--out", "--record", "--sample-interval", "--check", "--loss",
    "--flap", "--coalesce", "--topology", "--fault-link",
];
/// `chaos`: its judge runs the strict checker and owns its artifacts, so
/// of the shared flags it takes only `--seed` and the scenario-shaping
/// ones, as pins.
pub const CHAOS: &[&str] = &["--seed", "--loss", "--flap", "--coalesce", "--topology", "--fault-link"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run options derived from flags.
    pub opts: RunOptions,
    /// Bandwidths to sweep.
    pub bws: Vec<u64>,
    /// Results cache (possibly disabled), carrying the `--check` mode to
    /// the runs it makes.
    pub cache: RunCache,
    /// CSV output directory.
    pub out_dir: String,
    /// Keep only the first N grid configs (smoke runs; `None` = all).
    pub limit: Option<usize>,
    /// Flight recording requested with `--record`, rooted at
    /// `OUT/records` (`None` = don't record).
    pub record: Option<Recording>,
    /// The shared flags as parsed; put the scenario-shaping ones on a
    /// config with `cli.shared.apply(&mut cfg)`.
    pub shared: SharedFlags,
    /// The rows of the binary's own flags.
    own_flags: &'static [Flag],
    /// The binary's own flags that were given, with their values.
    own: Vec<(&'static str, String)>,
}

/// The flags that shape a scenario or its run (`--loss` … `--fault-link`).
///
/// Every field is optional ("was this flag given?") so callers that pin
/// knobs onto existing configs (chaos overrides) can distinguish "leave
/// the generated value alone" from "force the default".
#[derive(Debug, Clone, Default)]
pub struct SharedFlags {
    /// `--loss MODEL`.
    pub loss: Option<LossModel>,
    /// `--flap START,DUR`.
    pub faults: Option<FaultPlan>,
    /// `--record CHANNELS`.
    pub record: Option<Recording>,
    /// `--sample-interval MS` (requires `--record`).
    pub sample_interval: Option<SimDuration>,
    /// `--check MODE`.
    pub check: Option<CheckMode>,
    /// `--coalesce` (presence = on).
    pub coalesce: bool,
    /// `--topology SPEC`.
    pub topology: Option<TopologySpec>,
    /// `--fault-link N`.
    pub fault_link: Option<u32>,
}

impl SharedFlags {
    /// The first scenario-shaping flag that was given (`--loss`, `--flap`,
    /// `--coalesce`, `--topology`, `--fault-link`), if any: the ones
    /// [`Self::apply`] writes onto a config.
    pub fn scenario_flag(&self) -> Option<&'static str> {
        [
            ("--loss", self.loss.is_some()),
            ("--flap", self.faults.is_some()),
            ("--coalesce", self.coalesce),
            ("--topology", self.topology.is_some()),
            ("--fault-link", self.fault_link.is_some()),
        ]
        .into_iter()
        .find_map(|(flag, given)| given.then_some(flag))
    }

    /// Copy the flags that were given onto a scenario and validate the
    /// combination (a `--fault-link` outside the `--topology`'s bottleneck
    /// list fails here, with the config named in the message).
    pub fn apply(&self, cfg: &mut ScenarioConfig) -> Result<(), String> {
        if let Some(loss) = self.loss {
            cfg.loss = loss;
        }
        if let Some(faults) = &self.faults {
            cfg.faults = faults.clone();
        }
        if self.coalesce {
            cfg.coalesce = true;
        }
        if let Some(topology) = &self.topology {
            cfg.topology = topology.clone();
        }
        if let Some(fault_link) = self.fault_link {
            cfg.fault_link = fault_link;
        }
        cfg.validate()
    }

    /// Resolve the recording flags against an output directory: applies
    /// `--sample-interval` (erroring if it was given without `--record`)
    /// and roots the artifact directory at `OUT/records`.
    pub fn recording(&self, out_dir: &str) -> Result<Option<Recording>, String> {
        match (&self.record, self.sample_interval) {
            (None, Some(_)) => Err("--sample-interval requires --record".into()),
            (None, None) => Ok(None),
            (Some(rec), interval) => {
                let mut rec = rec.clone().out_dir(format!("{out_dir}/records"));
                if let Some(interval) = interval {
                    rec = rec.interval(interval);
                }
                Ok(Some(rec))
            }
        }
    }
}

/// `v` parsed as the value of `flag`, or an error naming both.
fn parse_value<T: FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse().map_err(|e| format!("bad {flag} '{v}': {e}"))
}

/// A count that must be at least 1 (`--repeats`, `--limit`).
fn parse_count<T: FromStr + Default + PartialEq>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    let n = parse_value(flag, v)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

fn parse_loss(s: &str) -> Result<LossModel, String> {
    let s = s.trim();
    if s.eq_ignore_ascii_case("none") {
        return Ok(LossModel::None);
    }
    let model = if let Some(p) = s.strip_prefix("bernoulli:") {
        let p: f64 = p.parse().map_err(|e| format!("bad --loss probability '{p}': {e}"))?;
        LossModel::Bernoulli { p }
    } else if let Some(rest) = s.strip_prefix("ge:") {
        let (gb, bg) = rest
            .split_once(',')
            .ok_or_else(|| format!("bad --loss '{s}': expected ge:P_GB,P_BG"))?;
        LossModel::GilbertElliott {
            p_gb: gb.parse().map_err(|e| format!("bad --loss p_gb '{gb}': {e}"))?,
            p_bg: bg.parse().map_err(|e| format!("bad --loss p_bg '{bg}': {e}"))?,
        }
    } else {
        return Err(format!("bad --loss '{s}': expected none, bernoulli:P, or ge:P_GB,P_BG"));
    };
    model.validate().map_err(|e| format!("bad --loss '{s}': {e}"))?;
    Ok(model)
}

fn parse_flap(s: &str) -> Result<FaultPlan, String> {
    let (start, dur) =
        s.split_once(',').ok_or_else(|| format!("bad --flap '{s}': expected START,DUR seconds"))?;
    let start: f64 = start.parse().map_err(|e| format!("bad --flap start '{start}': {e}"))?;
    let dur: f64 = dur.parse().map_err(|e| format!("bad --flap duration '{dur}': {e}"))?;
    if !(start.is_finite() && dur.is_finite() && start >= 0.0 && dur > 0.0) {
        return Err(format!("bad --flap '{s}': start must be >= 0 and duration > 0, both finite"));
    }
    let (start, dur) = (SimDuration::from_secs_f64(start), SimDuration::from_secs_f64(dur));
    if start.as_nanos().checked_add(dur.as_nanos()).is_none() {
        return Err(format!("bad --flap '{s}': the link comes back up past the simulator's clock"));
    }
    let plan = FaultPlan::flap(start, dur);
    plan.validate().map_err(|e| format!("bad --flap '{s}': {e}"))?;
    Ok(plan)
}

fn parse_sample_interval(v: &str) -> Result<SimDuration, String> {
    let ms: f64 = parse_value("--sample-interval", v)?;
    // Sample ticks do not count against `max_events`, and every sample is
    // held until the record is written: a finer spacing fills memory.
    if !(ms >= 1.0 && ms.is_finite()) {
        return Err(format!("--sample-interval must be a finite 1 ms or more, got {v}"));
    }
    Ok(SimDuration::from_secs_f64(ms / 1e3))
}

/// Parse one bandwidth: a positive integer in bit/s with an optional `K`,
/// `M` or `G` suffix (`100M`, `100900K`, `25g`).
pub fn parse_bw(s: &str) -> Result<u64, String> {
    let s = s.trim().to_ascii_uppercase();
    let (num, mult) = if let Some(x) = s.strip_suffix('G') {
        (x, 1_000_000_000u64)
    } else if let Some(x) = s.strip_suffix('M') {
        (x, 1_000_000u64)
    } else if let Some(x) = s.strip_suffix('K') {
        (x, 1_000u64)
    } else {
        (s.as_str(), 1u64)
    };
    let n = num.parse::<u64>().map_err(|e| format!("bad bandwidth '{s}': {e}"))?;
    match n.checked_mul(mult) {
        Some(0) => Err(format!("bad bandwidth '{s}': must be positive")),
        Some(bps) => Ok(bps),
        None => Err(format!("bad bandwidth '{s}': more than u64 bit/s")),
    }
}

/// The rows of a binary that takes its `own` flags and the shared ones in
/// `takes`.
fn listed<'a>(takes: &'a [&str], own: &'a [Flag]) -> impl Iterator<Item = &'a Flag> {
    own.iter().chain(FLAGS.iter().filter(|f| takes.contains(&f.0)))
}

/// `who`'s flag list, as `--help` prints it.
fn usage(who: &str, takes: &[&str], own: &[Flag]) -> String {
    let mut text = format!("usage: {who} [flags]\n");
    for (flag, value, what) in listed(takes, own) {
        text += &format!("  {:<27} {what}\n", format!("{flag} {value}"));
    }
    text + &format!("  {:<27} print this list", "--help")
}

impl Cli {
    /// Parse `args` (the arguments after the program name and any
    /// subcommand) for `who`, which takes the rows of its own flags,
    /// `own_flags`, and the shared flags in `takes`. A flag off the list is
    /// an error that starts with the flag; `--help` prints the list and
    /// exits 0.
    pub fn parse_from<I: IntoIterator<Item = String>>(
        who: &str,
        takes: &[&str],
        own_flags: &'static [Flag],
        args: I,
    ) -> Result<Cli, String> {
        let mut opts = RunOptions::standard();
        let mut bws: Vec<u64> = PAPER_BWS.to_vec();
        let mut use_cache = true;
        let mut out_dir = "results".to_string();
        let mut limit = None;
        let mut shared = SharedFlags::default();
        let mut own = Vec::new();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                println!("{}", usage(who, takes, own_flags));
                std::process::exit(0);
            }
            let Some(&(flag, value, _)) = listed(takes, own_flags).find(|f| f.0 == arg) else {
                return Err(format!("{arg} is not a flag of {who} (`{who} --help` lists them)"));
            };
            let v = match value {
                "" => String::new(),
                _ => it.next().ok_or(format!("{flag} needs a value"))?,
            };
            match flag {
                "--quick" => opts.preset = DurationPreset::Quick,
                "--full" => {
                    opts.preset = DurationPreset::Full;
                    opts.repeats = opts.repeats.max(5);
                }
                "--repeats" => opts.repeats = parse_count(flag, &v)?,
                "--scale" => {
                    opts.flow_scale = parse_value(flag, &v)?;
                    if !(opts.flow_scale > 0.0 && opts.flow_scale <= 1.0) {
                        return Err("--scale must be in (0,1]".into());
                    }
                }
                "--seed" => opts.seed = parse_value(flag, &v)?,
                "--bw" => bws = v.split(',').map(parse_bw).collect::<Result<_, _>>()?,
                "--no-cache" => use_cache = false,
                "--out" => out_dir = v,
                "--limit" => limit = Some(parse_count(flag, &v)?),
                "--loss" => shared.loss = Some(parse_loss(&v)?),
                "--flap" => shared.faults = Some(parse_flap(&v)?),
                "--record" => shared.record = Some(Recording::parse(&v)?),
                "--sample-interval" => shared.sample_interval = Some(parse_sample_interval(&v)?),
                "--check" => shared.check = Some(parse_value(flag, &v)?),
                "--coalesce" => shared.coalesce = true,
                "--topology" => shared.topology = Some(parse_value(flag, &v)?),
                "--fault-link" => shared.fault_link = Some(parse_value(flag, &v)?),
                _ => own.push((flag, v)),
            }
        }
        if repeat_seeds(opts.seed, opts.repeats).is_err() {
            return Err(format!(
                "--seed {} with --repeats {} runs past the largest seed, {}",
                opts.seed,
                opts.repeats,
                u64::MAX
            ));
        }
        let cache = if use_cache { RunCache::new(format!("{out_dir}/cache")) } else { RunCache::disabled() };
        let cache = cache.check(shared.check.unwrap_or_default());
        let record = shared.recording(&out_dir)?;
        Ok(Cli { opts, bws, cache, out_dir, limit, record, shared, own_flags, own })
    }

    /// [`Self::parse_from`], exiting with the message on error.
    pub fn parse_or_exit<I>(who: &str, takes: &[&str], own_flags: &'static [Flag], args: I) -> Cli
    where
        I: IntoIterator<Item = String>,
    {
        Cli::parse_from(who, takes, own_flags, args).unwrap_or_else(|msg| exit_usage(&msg))
    }

    /// [`Self::parse_or_exit`] over the process arguments.
    pub fn parse(who: &str, takes: &[&str], own_flags: &'static [Flag]) -> Cli {
        Cli::parse_or_exit(who, takes, own_flags, std::env::args().skip(1))
    }

    /// The values given to one of the binary's own flags. Panics when
    /// `flag` is not one of its rows, so a misspelt read fails on every
    /// run instead of reading a default.
    fn own_values<'a>(&'a self, flag: &'a str) -> impl DoubleEndedIterator<Item = &'a String> {
        assert!(self.own_flags.iter().any(|f| f.0 == flag), "{flag} is not one of the binary's own flags");
        self.own.iter().filter(move |(f, _)| *f == flag).map(|(_, v)| v)
    }

    /// The value of one of the binary's own flags (the last one given), or
    /// `default` when it was not given. A value that does not parse exits
    /// 2, naming the flag.
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> T
    where
        T::Err: Display,
    {
        match self.own_values(flag).next_back() {
            Some(v) => parse_value(flag, v).unwrap_or_else(|msg| exit_usage(&msg)),
            None => default,
        }
    }

    /// Whether one of the binary's own switches was given.
    pub fn given(&self, flag: &str) -> bool {
        self.own_values(flag).next().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Parse for a binary that takes every shared flag.
    fn parse(given: &[&str]) -> Result<Cli, String> {
        let every: Vec<&str> = FLAGS.iter().map(|f| f.0).collect();
        Cli::parse_from("test", &every, &[], args(given))
    }

    /// A binary's own rows, as chaos and probe list theirs.
    const OWN: &[Flag] = &[
        ("--cases", "N", "generated cases"),
        ("--secs", "S", "simulated seconds"),
        ("--verbose", "", "print every case"),
    ];

    /// A valid value for each flag that takes one.
    fn example(flag: &str) -> &'static str {
        match flag {
            "--repeats" | "--limit" | "--fault-link" => "1",
            "--scale" => "0.5",
            "--seed" => "3",
            "--bw" => "100M",
            "--out" => "o",
            "--loss" => "bernoulli:0.01",
            "--flap" => "2,0.5",
            "--record" => "flows",
            "--sample-interval" => "50",
            "--check" => "audit",
            "--topology" => "parking-lot:2",
            _ => unreachable!("{flag} has no example value"),
        }
    }

    #[test]
    fn defaults() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.bws, PAPER_BWS.to_vec());
        assert_eq!(cli.opts.repeats, 1);
        assert_eq!(cli.out_dir, "results");
    }

    #[test]
    fn full_bumps_repeats() {
        let cli = parse(&["--full"]).unwrap();
        assert_eq!(cli.opts.preset, DurationPreset::Full);
        assert_eq!(cli.opts.repeats, 5);
        // Every repeat's seed must fit a u64: refused, naming both flags.
        let max = u64::MAX.to_string();
        for args in [&["--seed", &max, "--repeats", "2"][..], &["--full", "--seed", &max]] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("--seed") && err.contains("--repeats"), "{err}");
        }
        for flag in ["--repeats", "--limit"] {
            let err = parse(&[flag, "0"]).unwrap_err();
            assert!(err.starts_with(flag), "{err}");
        }
        assert!(parse(&["--seed", &max]).is_ok());
        assert!(parse(&["--seed", &(u64::MAX - 1).to_string(), "--repeats", "2"]).is_ok());
    }

    #[test]
    fn bw_list_parsing() {
        let cli = parse(&["--bw", "100M,1G,100900K,25g,1234"]).unwrap();
        assert_eq!(cli.bws, vec![100_000_000, 1_000_000_000, 100_900_000, 25_000_000_000, 1234]);
        assert!(parse(&["--bw", "12X"]).is_err());
        // 99999999999 x 1e9 does not fit a u64: an error, not a wrapped rate.
        let err = parse(&["--bw", "99999999999G"]).unwrap_err();
        assert!(err.starts_with("bad bandwidth"), "{err}");
        assert_eq!(parse_bw("18446744073G"), Ok(18_446_744_073_000_000_000));
        // A zero rate is refused before any binary builds a scenario on it.
        for bw in ["0", "0G", "100M,0"] {
            let err = parse(&["--bw", bw]).unwrap_err();
            assert!(err.starts_with("bad bandwidth"), "{err}");
        }
    }

    #[test]
    fn scale_validation() {
        assert!(parse(&["--scale", "0.5"]).is_ok());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(&["--bogus"]).unwrap_err().starts_with("--bogus"));
        assert!(parse(&["--seed"]).unwrap_err().starts_with("--seed needs a value"));
    }

    #[test]
    fn loss_flag_parses_and_validates() {
        let loss = |args: &[&str]| parse(args).unwrap().shared.loss;
        assert_eq!(loss(&[]), None);
        assert_eq!(loss(&["--loss", "none"]), Some(LossModel::None));
        assert_eq!(loss(&["--loss", "bernoulli:0.01"]), Some(LossModel::Bernoulli { p: 0.01 }));
        assert_eq!(
            loss(&["--loss", "ge:0.002,0.2"]),
            Some(LossModel::GilbertElliott { p_gb: 0.002, p_bg: 0.2 })
        );
        // Validation rejects out-of-range probabilities and junk.
        assert!(parse(&["--loss", "bernoulli:1.5"]).is_err());
        assert!(parse(&["--loss", "ge:0.5"]).is_err());
        assert!(parse(&["--loss", "uniform:0.1"]).is_err());
    }

    #[test]
    fn flap_flag_builds_a_plan() {
        let cli = parse(&["--flap", "2,0.5"]).unwrap();
        assert_eq!(cli.shared.faults.unwrap().events.len(), 2, "flap = LinkDown + LinkUp");
        assert!(parse(&["--flap", "2"]).is_err());
        assert!(parse(&["--flap", "-1,2"]).is_err());
        assert!(parse(&["--flap", "1,0"]).is_err());
        for flap in ["nan,1", "1,nan", "inf,1", "1e300,1"] {
            let err = parse(&["--flap", flap]).unwrap_err();
            assert!(err.starts_with("bad --flap"), "{flap}: {err}");
        }
    }

    #[test]
    fn record_flag_builds_a_recording() {
        assert!(parse(&[]).unwrap().record.is_none());
        let cli = parse(&["--record", "flows,queue", "--out", "o"]).unwrap();
        let rec = cli.record.unwrap();
        assert!(rec.flows && rec.queue && !rec.events);
        assert_eq!(rec.out_dir, std::path::PathBuf::from("o/records"));
        assert_eq!(rec.interval, crate::runner::DEFAULT_SAMPLE_INTERVAL);

        let cli = parse(&["--record", "flows", "--sample-interval", "50"]).unwrap();
        assert_eq!(cli.record.unwrap().interval, SimDuration::from_millis(50));
        assert!(parse(&["--record", "nope"]).is_err());
        assert!(parse(&["--sample-interval", "50"]).is_err(), "needs --record");
        assert!(parse(&["--record", "flows", "--sample-interval", "0"]).is_err());
        for under_a_ms in ["0.0000001", "0.000001", "0.999", "nan", "inf"] {
            let err = parse(&["--record", "flows", "--sample-interval", under_a_ms]).unwrap_err();
            assert!(err.starts_with("--sample-interval"), "{under_a_ms}: {err}");
        }
    }

    #[test]
    fn check_flag_parses() {
        let check = |args: &[&str]| parse(args).unwrap().shared.check;
        assert_eq!(check(&[]), None);
        assert_eq!(check(&["--check", "off"]), Some(CheckMode::Off));
        assert_eq!(check(&["--check", "audit"]), Some(CheckMode::Audit));
        assert_eq!(check(&["--check", "strict"]), Some(CheckMode::Strict));
        assert_eq!(check(&["--check", "STRICT"]), Some(CheckMode::Strict));
        assert!(parse(&["--check", "paranoid"]).is_err());
        assert!(parse(&["--check"]).is_err());
    }

    #[test]
    fn parsed_cli_applies_its_shared_flags_to_a_config() {
        use elephants_aqm::AqmKind;
        use elephants_cca::CcaKind;
        let cli = parse(&["--loss", "ge:0.002,0.2", "--flap", "1,0.25", "--coalesce"]).unwrap();
        let mut cfg = ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &RunOptions::quick(),
        );
        cli.shared.apply(&mut cfg).unwrap();
        assert_eq!(Some(cfg.loss), cli.shared.loss);
        assert_eq!(Some(cfg.faults), cli.shared.faults);
        assert!(cfg.coalesce);
    }

    #[test]
    fn coalesce_flag_defaults_off() {
        assert!(!parse(&[]).unwrap().shared.coalesce);
        assert!(parse(&["--coalesce"]).unwrap().shared.coalesce);
    }

    #[test]
    fn topology_flag_parses_all_spellings() {
        let topology = |args: &[&str]| parse(args).unwrap().shared.topology;
        assert_eq!(topology(&[]), None);
        assert_eq!(topology(&["--topology", "dumbbell"]), Some(TopologySpec::Dumbbell));
        assert_eq!(
            topology(&["--topology", "parking-lot:3"]),
            Some(TopologySpec::ParkingLot { hops: 3 })
        );
        assert_eq!(
            topology(&["--topology", "multi-dumbbell:31,124"]),
            Some(TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] })
        );
        assert!(parse(&["--topology", "torus"]).is_err());
        assert!(parse(&["--topology", "parking-lot:1"]).is_err(), "needs >= 2 hops");
        assert!(parse(&["--topology"]).is_err());
    }

    #[test]
    fn fault_link_flag_parses_and_validates_through_apply() {
        use elephants_aqm::AqmKind;
        use elephants_cca::CcaKind;
        assert_eq!(parse(&[]).unwrap().shared.fault_link, None);
        let cli =
            parse(&["--topology", "parking-lot:3", "--fault-link", "2", "--loss", "bernoulli:0.01"])
                .unwrap();
        assert_eq!(cli.shared.fault_link, Some(2));
        let mut cfg = ScenarioConfig::new(
            CcaKind::Cubic,
            CcaKind::Cubic,
            AqmKind::Fifo,
            1.0,
            100_000_000,
            &RunOptions::quick(),
        );
        cli.shared.apply(&mut cfg).unwrap();
        assert_eq!(cfg.topology, TopologySpec::ParkingLot { hops: 3 });
        assert_eq!(cfg.fault_link, 2);
        // A dumbbell has one hop: fault_link 2 must fail validation.
        let bad = parse(&["--fault-link", "2"]).unwrap();
        let mut cfg2 = cfg.clone();
        cfg2.topology = TopologySpec::Dumbbell;
        assert!(bad.shared.apply(&mut cfg2).is_err());
        assert!(parse(&["--fault-link", "x"]).is_err());
    }

    #[test]
    fn flags_a_binary_cannot_honour_are_refused_by_name() {
        for (takes, refused) in [
            (FIGURE, "--loss --flap --coalesce --topology --fault-link --limit --record"),
            (AQM_FRONTIER, "--repeats --topology --limit --record"),
            (TABLE2, "--quick --full --repeats --scale --seed --no-cache --check --record"),
            (CLAIM, "--quick --full --repeats --no-cache --bw --limit --record --sample-interval"),
            (RTTSWEEP, "--quick --full --repeats --no-cache --bw --coalesce"),
            (SWEEP, "--record --sample-interval --cca1"),
            (DATASET, "--repeats --no-cache --limit"),
            (PROBE, "--quick --full --repeats --no-cache --limit --cases"),
            (CHAOS, "--record --check --sample-interval --out --bw --repeats --scale"),
        ] {
            for flag in refused.split(' ') {
                assert!(!takes.contains(&flag), "{flag}");
                let err = Cli::parse_from("test", takes, &[], args(&[flag, "1"])).unwrap_err();
                assert!(err.starts_with(&format!("{flag} is not a flag of test")), "{err}");
            }
        }
    }

    #[test]
    fn every_listed_flag_is_taken() {
        let lists = [FIGURE, AQM_FRONTIER, TABLE2, CLAIM, RTTSWEEP, SWEEP, DATASET, PROBE, CHAOS];
        for takes in lists {
            let mut given = Vec::new();
            for &flag in takes {
                let &(_, value, _) = FLAGS.iter().find(|f| f.0 == flag).expect("listed in FLAGS");
                given.push(flag);
                if !value.is_empty() {
                    given.push(example(flag));
                }
            }
            assert!(Cli::parse_from("test", takes, &[], args(&given)).is_ok(), "{given:?}");
        }
    }

    #[test]
    fn own_flags_are_listed_and_read_by_name() {
        let parse = |given: &[&str]| Cli::parse_from("test", &["--seed"], OWN, args(given));
        let cli = parse(&["--cases", "4", "--seed", "3", "--cases", "7", "--verbose"]).unwrap();
        assert_eq!(cli.value("--cases", 200u32), 7, "the last one given");
        assert_eq!(cli.value("--secs", 20u64), 20, "not given: the default");
        assert!(cli.given("--verbose"));
        assert_eq!(cli.opts.seed, 3);
        let cli = parse(&[]).unwrap();
        assert!(!cli.given("--verbose"));
        assert!(parse(&["--cases"]).unwrap_err().starts_with("--cases needs a value"));
        // Own rows are the binary's alone, and it takes no unlisted shared flag.
        assert!(parse(&["--bw", "1G"]).unwrap_err().starts_with("--bw is not a flag of test"));
        let err = Cli::parse_from("test", SWEEP, &[], args(&["--cases", "1"])).unwrap_err();
        assert!(err.starts_with("--cases is not a flag of test"), "{err}");
        let help = usage("test", &["--seed"], OWN);
        for row in ["--cases N", "--secs S", "--verbose ", "--seed N", "--help"] {
            assert!(help.contains(&format!("\n  {row}")), "{help}");
        }
        assert!(!help.contains("--bw"), "{help}");
    }

    #[test]
    #[should_panic(expected = "--case is not one of the binary's own flags")]
    fn reading_an_unlisted_own_flag_panics() {
        Cli::parse_from("test", &[], OWN, args(&["--cases", "3"])).unwrap().value("--case", 1u32);
    }

    // One round-trip test per shared flag: the spelling parsed by
    // SharedFlags lands on the scenario exactly as the scenario's own
    // validated field value.
    #[test]
    fn shared_flags_round_trip_onto_configs() {
        use elephants_aqm::AqmKind;
        use elephants_cca::CcaKind;
        let base = || {
            ScenarioConfig::new(
                CcaKind::Cubic,
                CcaKind::Cubic,
                AqmKind::Fifo,
                1.0,
                100_000_000,
                &RunOptions::quick(),
            )
        };
        let through = |args: &[&str]| {
            let shared = parse(args).unwrap().shared;
            let mut cfg = base();
            shared.apply(&mut cfg).unwrap();
            (shared, cfg)
        };

        let (_, cfg) = through(&["--loss", "bernoulli:0.01"]);
        assert_eq!(cfg.loss, LossModel::Bernoulli { p: 0.01 });
        let (_, cfg) = through(&["--flap", "2,0.5"]);
        assert_eq!(cfg.faults.events.len(), 2);
        let (_, cfg) = through(&["--coalesce"]);
        assert!(cfg.coalesce);
        let (_, cfg) = through(&["--topology", "multi-dumbbell:31,124"]);
        assert_eq!(cfg.topology, TopologySpec::MultiDumbbell { rtts_ms: vec![31, 124] });
        let (_, cfg) = through(&["--topology", "parking-lot:2", "--fault-link", "1"]);
        assert_eq!(cfg.fault_link, 1);
        let (shared, cfg) = through(&["--check", "strict"]);
        assert_eq!(shared.check, Some(CheckMode::Strict));
        assert_eq!(cfg, base(), "--check shapes the runner, not the scenario");
        let (shared, _) = through(&["--record", "flows,queue", "--sample-interval", "50"]);
        let rec = shared.recording("o").unwrap().unwrap();
        assert!(rec.flows && rec.queue && !rec.events);
        assert_eq!(rec.interval, SimDuration::from_millis(50));
        assert_eq!(rec.out_dir, std::path::PathBuf::from("o/records"));

        // `scenario_flag` names each flag `apply` writes, and no other: these
        // are the flags chaos pins onto its cases.
        for flag in ["--loss", "--flap", "--coalesce", "--topology", "--fault-link"] {
            let given: &[&str] = if flag == "--coalesce" { &[flag] } else { &[flag, example(flag)] };
            assert_eq!(parse(given).unwrap().shared.scenario_flag(), Some(flag));
        }
        let shared =
            parse(&["--check", "audit", "--record", "flows", "--sample-interval", "50"]).unwrap().shared;
        assert_eq!(shared.scenario_flag(), None);

        // Flags not given leave the scenario untouched.
        let shared = SharedFlags::default();
        let mut cfg = base();
        cfg.loss = LossModel::Bernoulli { p: 0.5 };
        cfg.topology = TopologySpec::ParkingLot { hops: 2 };
        let expect = cfg.clone();
        shared.apply(&mut cfg).unwrap();
        assert_eq!(cfg, expect, "empty SharedFlags must be the identity");
        assert!(shared.recording("o").unwrap().is_none());
        assert!(
            SharedFlags { sample_interval: Some(SimDuration::from_millis(1)), ..Default::default() }
                .recording("o")
                .is_err(),
            "--sample-interval without --record"
        );
    }
}
