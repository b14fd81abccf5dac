//! Minimal argument parsing shared by `repro` and the experiment binaries.
//!
//! Flags:
//!
//! * `--quick` / `--full` — duration preset (default: standard)
//! * `--repeats N` — seeded repetitions per config (paper: 5)
//! * `--scale F` — Table 2 flow-count scale in (0, 1]
//! * `--seed N` — base seed
//! * `--bw LIST` — comma-separated bandwidths (e.g. `100M,1G,25G`)
//! * `--no-cache` — recompute everything
//! * `--out DIR` — output directory for CSVs (default `results`)
//! * `--loss MODEL` — bottleneck loss model: `none`, `bernoulli:P`, or
//!   `ge:P_GB,P_BG` (Gilbert–Elliott)
//! * `--flap START,DUR` — take the bottleneck down at `START` seconds for
//!   `DUR` seconds (simulated time)
//! * `--record CHANNELS` — attach the flight recorder to the base-seed run:
//!   a comma-separated subset of `flows`, `queue`, `events`
//! * `--sample-interval MS` — flight-recorder sample spacing in ms
//! * `--check MODE` — runtime invariant checking: `off` (default), `audit`
//!   (count violations; a sweep ends with `check_violations: N`) or
//!   `strict` (panic on the first violation; a sweep degrades the cell to
//!   a failed run). The mode rides on [`Cli::cache`], which every cell a
//!   sweep or figure runs goes through.
//! * `--coalesce` — enable GRO-style receive coalescing on every receiver
//!   (off by default; changes cache keys, so coalesced and plain results
//!   never mix)
//! * `--topology SPEC` — network shape: `dumbbell` (default, the paper
//!   testbed), `parking-lot:K` (K shaped hops, K+1 flow groups) or
//!   `multi-dumbbell:R1,R2[,..]` (heterogeneous per-group RTTs in ms)
//! * `--fault-link N` — aim `--loss`/`--flap` at bottleneck hop `N`
//!   (default 0, the only hop on a dumbbell)
//!
//! `--loss` … `--fault-link` live in [`SharedFlags`], which `probe` and the
//! `chaos` fuzzer reuse so every binary spells these flags identically;
//! [`Cli`] holds the parsed set as [`Cli::shared`]. Every binary parses all
//! of them, and one that cannot honour a flag refuses it with exit 2
//! ([`Cli::refuse_scenario_flags`], [`Cli::refuse_record`]) instead of
//! running as if it had not been given: `repro` takes no scenario-shaping
//! flags, no `--record` (`repro rttsweep` apart) and, in its fixed-bandwidth
//! targets (`rttsweep`, `ablate`, `dynamics`, `rtt_unfair`), no `--bw`
//! ([`Cli::refuse_bw`]); `sweep` takes no `--record`; `dataset` takes all.

use crate::cache::RunCache;
use crate::runner::{repeat_seeds, Recording};
use crate::scenario::{DurationPreset, RunOptions, ScenarioConfig, PAPER_BWS};
use elephants_netsim::{CheckMode, FaultPlan, LossModel, SimDuration, TopologySpec};

/// Print `msg` and exit with the usage-error status.
pub fn exit_usage(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// Parsed command line for a figure binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Run options derived from flags.
    pub opts: RunOptions,
    /// Bandwidths to sweep.
    pub bws: Vec<u64>,
    /// Whether `--bw` was given (`bws` is `PAPER_BWS` otherwise).
    pub bw_given: bool,
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
}

/// The per-scenario flags every scenario-building binary shares (`probe`,
/// `sweep`, the figure binaries, and — for the scenario-shaping subset —
/// the `chaos` fuzzer). One parser, one spelling, one validation path:
/// a binary's argument loop hands unrecognized flags to [`Self::try_parse`]
/// and keeps its own binary-specific flags in its own `match`.
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
    /// Try to consume `arg` (plus any value it needs from `it`). Returns
    /// `Ok(true)` when the flag was one of the shared set, `Ok(false)` when
    /// the caller should handle it, and `Err` on a malformed value.
    pub fn try_parse(
        &mut self,
        arg: &str,
        it: &mut dyn Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut need = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match arg {
            "--loss" => self.loss = Some(parse_loss(&need("--loss")?)?),
            "--flap" => self.faults = Some(parse_flap(&need("--flap")?)?),
            "--record" => self.record = Some(Recording::parse(&need("--record")?)?),
            "--check" => self.check = Some(need("--check")?.parse()?),
            "--coalesce" => self.coalesce = true,
            "--topology" => self.topology = Some(need("--topology")?.parse()?),
            "--fault-link" => {
                self.fault_link = Some(
                    need("--fault-link")?.parse().map_err(|e| format!("bad --fault-link: {e}"))?,
                )
            }
            "--sample-interval" => {
                let ms: f64 = need("--sample-interval")?
                    .parse()
                    .map_err(|e| format!("bad --sample-interval: {e}"))?;
                if ms <= 0.0 || !ms.is_finite() {
                    return Err("--sample-interval must be positive".into());
                }
                self.sample_interval = Some(SimDuration::from_secs_f64(ms / 1e3));
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

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
    if start < 0.0 || dur <= 0.0 {
        return Err(format!("bad --flap '{s}': start must be >= 0 and duration > 0"));
    }
    let plan =
        FaultPlan::flap(SimDuration::from_secs_f64(start), SimDuration::from_secs_f64(dur));
    plan.validate().map_err(|e| format!("bad --flap '{s}': {e}"))?;
    Ok(plan)
}

/// Parse one bandwidth: an integer in bit/s with an optional `K`, `M` or
/// `G` suffix (`100M`, `100900K`, `25g`).
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
    n.checked_mul(mult).ok_or_else(|| format!("bad bandwidth '{s}': more than u64 bit/s"))
}

impl Cli {
    /// Parse an argument list (excluding the program name).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut opts = RunOptions::standard();
        let mut bws: Vec<u64> = PAPER_BWS.to_vec();
        let mut bw_given = false;
        let mut use_cache = true;
        let mut out_dir = "results".to_string();
        let mut limit = None;
        let mut shared = SharedFlags::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            if shared.try_parse(&arg, &mut it)? {
                continue;
            }
            let mut need = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--quick" => opts.preset = DurationPreset::Quick,
                "--full" => {
                    opts.preset = DurationPreset::Full;
                    opts.repeats = opts.repeats.max(5);
                }
                "--repeats" => opts.repeats = need("--repeats")?.parse().map_err(|e| format!("{e}"))?,
                "--scale" => {
                    opts.flow_scale = need("--scale")?.parse().map_err(|e| format!("{e}"))?;
                    if !(opts.flow_scale > 0.0 && opts.flow_scale <= 1.0) {
                        return Err("--scale must be in (0,1]".into());
                    }
                }
                "--seed" => opts.seed = need("--seed")?.parse().map_err(|e| format!("{e}"))?,
                "--bw" => {
                    bws = need("--bw")?.split(',').map(parse_bw).collect::<Result<_, _>>()?;
                    if bws.is_empty() {
                        return Err("--bw list is empty".into());
                    }
                    bw_given = true;
                }
                "--no-cache" => use_cache = false,
                "--out" => out_dir = need("--out")?,
                "--limit" => {
                    let n: usize =
                        need("--limit")?.parse().map_err(|e| format!("bad --limit: {e}"))?;
                    if n == 0 {
                        return Err("--limit must be at least 1".into());
                    }
                    limit = Some(n);
                }
                "--help" | "-h" => return Err(HELP.to_string()),
                other => return Err(format!("unknown flag '{other}'\n{HELP}")),
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
        Ok(Cli { opts, bws, bw_given, cache, out_dir, limit, record, shared })
    }

    /// `Err` naming the flag when a scenario-shaping one was given: for
    /// binaries whose configs are fixed by what they reproduce.
    pub fn refuse_scenario_flags(&self) -> Result<(), String> {
        match self.shared.scenario_flag() {
            Some(flag) => Err(format!(
                "{flag} is not supported here: this binary runs fixed scenarios \
                 (sweep, dataset and probe take it)"
            )),
            None => Ok(()),
        }
    }

    /// `Err` when `--record` was given: for binaries whose runs go through
    /// the cache, which stores results and not flight records, or record
    /// on their own terms (`repro dynamics`).
    pub fn refuse_record(&self) -> Result<(), String> {
        match self.record {
            Some(_) => Err("--record is not supported here: these runs go through the result \
                            cache or record on their own (dataset, repro rttsweep and probe \
                            take it)"
                .to_string()),
            None => Ok(()),
        }
    }

    /// `Err` when `--bw` was given: for targets that run at fixed
    /// bandwidths.
    pub fn refuse_bw(&self) -> Result<(), String> {
        if self.bw_given {
            return Err("--bw is not supported here: this target runs at a fixed bandwidth \
                        (repro fig2..fig8, table2, table3 and aqm_frontier take it)"
                .to_string());
        }
        Ok(())
    }

    /// Parse the process arguments, exiting with a message on error.
    pub fn parse() -> Cli {
        Cli::parse_or_exit(std::env::args().skip(1))
    }

    /// Parse `args` (the process arguments after the program name and any
    /// subcommand), exiting with a message on error.
    pub fn parse_or_exit<I: IntoIterator<Item = String>>(args: I) -> Cli {
        Cli::parse_from(args).unwrap_or_else(|msg| exit_usage(&msg))
    }
}

const HELP: &str = "\
usage: <figure-binary> [--quick|--full] [--repeats N] [--scale F] [--seed N]
                       [--bw 100M,1G,25G] [--no-cache] [--out DIR]
                       [--loss none|bernoulli:P|ge:P_GB,P_BG] [--flap START,DUR]
                       [--limit N] [--record flows[,queue,events]]
                       [--sample-interval MS] [--check off|audit|strict]
                       [--coalesce]
                       [--topology dumbbell|parking-lot:K|multi-dumbbell:R1,R2[,..]]
                       [--fault-link N]
a flag the binary cannot honour is refused (exit 2): repro takes neither
--loss/--flap/--coalesce/--topology/--fault-link nor (repro rttsweep apart)
--record, and repro rttsweep/ablate/dynamics/rtt_unfair no --bw; sweep takes
no --record; dataset takes them all";

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse_from(args.iter().map(|s| s.to_string()))
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
    }

    #[test]
    fn scale_validation() {
        assert!(parse(&["--scale", "0.5"]).is_ok());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
    }

    #[test]
    fn unknown_flag_errors() {
        assert!(parse(&["--bogus"]).is_err());
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
        for (args, flag) in [
            (&["--loss", "bernoulli:0.01"][..], "--loss"),
            (&["--flap", "2,0.5"], "--flap"),
            (&["--coalesce"], "--coalesce"),
            (&["--topology", "parking-lot:2"], "--topology"),
            (&["--fault-link", "0"], "--fault-link"),
            (&["--bw", "1G"], "--bw"),
        ] {
            let cli = parse(args).unwrap();
            let msg = cli.refuse_scenario_flags().and_then(|_| cli.refuse_bw()).unwrap_err();
            assert!(msg.starts_with(flag), "{msg}");
            assert!(cli.refuse_record().is_ok());
        }
        // Flags that shape the runner, not the scenario, are not pins.
        let cli = parse(&["--check", "audit", "--record", "flows", "--sample-interval", "50"]).unwrap();
        assert_eq!(cli.shared.scenario_flag(), None);
        assert!(cli.refuse_scenario_flags().is_ok());
        assert!(cli.refuse_record().unwrap_err().starts_with("--record"));
        let plain = parse(&["--quick", "--bw", "100M"]).unwrap();
        assert!(plain.refuse_scenario_flags().is_ok() && plain.refuse_record().is_ok());
        assert!(parse(&["--quick"]).unwrap().refuse_bw().is_ok());
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
            let mut shared = SharedFlags::default();
            let mut it = args.iter().map(|s| s.to_string());
            while let Some(arg) = it.next() {
                assert!(shared.try_parse(&arg, &mut it).unwrap(), "unconsumed flag {arg}");
            }
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

        // Flags not given leave the scenario untouched.
        let mut shared = SharedFlags::default();
        assert!(!shared.try_parse("--cca1", &mut std::iter::empty()).unwrap());
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
