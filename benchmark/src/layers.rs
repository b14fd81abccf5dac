//! Layer readings the decorators cannot give: layers with no trait object
//! to wrap are timed through their public functions on inputs shaped like
//! the workload, and whole-unit variants (audit, two workers, recorder
//! off) are run beside the reference unit.

use crate::host::cpu_seconds;
use crate::workloads::{wipe, Cell};
use elephants_cca::{WindowedMaxByRound, WindowedMinByTime};
use elephants_experiments::runner::{RunResult, Runner};
use elephants_experiments::{try_sweep_with_workers, RunCache, ScenarioConfig};
use elephants_json::{FromJson, ToJson};
use elephants_netsim::{
    bdp_bytes, CheckMode, Dir, DropTail, Event, EventQueue, FlowId, Link, LinkId, LinkSpec, NodeId,
    Packet, RngExt, SeedableRng, SimDuration, SimTime, SmallRng, TimerKind,
};
use elephants_tcp::{PktMeta, PktState, Scoreboard};
use elephants_workload::plan_flows;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Operations per batch of a micro-measurement in a full run, and in a
/// smoke run (a debug build).
pub const OPS: u64 = 500_000;
pub const SMOKE_OPS: u64 = 20_000;

/// Nanoseconds per call of `op`, the best of three batches of `n`.
fn ns_per_op(n: u64, mut op: impl FnMut()) -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..n {
                op();
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Packets one round trip of the cell keeps in flight.
fn bdp_pkts(cfg: &ScenarioConfig) -> u64 {
    (bdp_bytes(cfg.bandwidth(), cfg.rtt()) / u64::from(cfg.mss)).max(1)
}

/// `EventQueue` schedule + pop in a hold model: the queue is kept at the
/// occupancy the cell's in-flight packets and timers give it.
pub fn wheel_ns_per_op(cfg: &ScenarioConfig, flows: u32, ops: u64) -> f64 {
    let occupancy = bdp_pkts(cfg) + 2 * u64::from(flows);
    let rtt_ns = cfg.rtt().as_nanos();
    let mut rng = SmallRng::seed_from_u64(1);
    let deltas: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_nanos(rng.random_range(1..rtt_ns)))
        .collect();
    let timer = |i: u64| Event::Timer {
        flow: FlowId(i as u32),
        dir: Dir::Sender,
        kind: TimerKind::Rto,
        gen: 0,
    };
    let mut q = EventQueue::new();
    for i in 0..occupancy {
        q.schedule(SimTime::ZERO + deltas[i as usize % deltas.len()], timer(i));
    }
    let mut i = 0usize;
    ns_per_op(ops, || {
        let (at, ev) = q.pop().expect("the hold model never drains");
        q.schedule(at + deltas[i % deltas.len()], ev);
        i += 1;
    })
}

/// `Link::offer` + `on_tx_done` per packet on a link at the cell's rate,
/// the delivery event taken back out of the queue.
pub fn link_ns_per_pkt(cfg: &ScenarioConfig, ops: u64) -> f64 {
    let spec = LinkSpec::new(cfg.bandwidth(), SimDuration::from_millis(1));
    let mut link = Link::new(
        LinkId(0),
        NodeId(0),
        NodeId(1),
        spec,
        Box::new(DropTail::new(1 << 30)),
    );
    let mut events = EventQueue::new();
    let mut rng = SmallRng::seed_from_u64(1);
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    ns_per_op(ops, || {
        let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), seq, cfg.mss, now);
        link.offer(pkt, now, &mut events, &mut rng);
        seq += 1;
        while let Some((at, ev)) = events.pop() {
            now = at;
            match ev {
                Event::LinkTxDone { .. } => link.on_tx_done(at, &mut events, &mut rng),
                Event::Deliver { pkt, .. } => {
                    black_box(events.take_packet(pkt));
                }
                _ => unreachable!("a bare link schedules only its own events"),
            }
        }
    })
}

/// The public `Scoreboard` at one flow's share of the cell's window:
/// nanoseconds per delayed cumulative ACK, and per SACK loss episode
/// (SACK above a hole, loss detection, retransmission, repair).
pub fn scoreboard_ns_per_op(cfg: &ScenarioConfig, flows: u32, ops: u64) -> (f64, f64) {
    let window = (bdp_pkts(cfg) / u64::from(flows.max(1))).max(8);
    let meta = PktMeta {
        state: PktState::Outstanding,
        tx_time: SimTime::ZERO,
        retx: false,
        delivered_at_send: 0,
        delivered_time_at_send: SimTime::ZERO,
        first_tx_at_send: SimTime::ZERO,
        app_limited_at_send: false,
    };
    let filled = || {
        let mut sb = Scoreboard::new();
        for seq in 0..window {
            sb.push_sent(seq, meta);
        }
        sb
    };
    let mut sb = filled();
    let cumack = ns_per_op(ops, || {
        let una = sb.snd_una();
        black_box(sb.advance_una_batch(una + 2));
        for _ in 0..2 {
            sb.push_sent(sb.snd_nxt(), meta);
        }
    });
    let mut sb = filled();
    let sack = ns_per_op(ops, || {
        let hole = sb.snd_una();
        sb.apply_sack(hole + 1, hole + 4, |seq, m| {
            black_box((seq, m));
        });
        black_box(sb.detect_losses(3, |seq| {
            black_box(seq);
        }));
        if let Some(lost) = sb.next_lost() {
            sb.mark_retransmitted(lost, meta);
        }
        black_box(sb.advance_una_batch(hole + 4));
        for _ in 0..4 {
            sb.push_sent(sb.snd_nxt(), meta);
        }
    });
    (cumack, sack)
}

/// `cca::filters`: one round of BBR's bookkeeping, a windowed-max update
/// and expiry by round plus a windowed-min update and expiry by time.
pub fn filters_ns_per_update(ops: u64) -> f64 {
    let mut max = WindowedMaxByRound::new(10);
    let mut min = WindowedMinByTime::new(SimDuration::from_secs(10));
    let mut rng = SmallRng::seed_from_u64(1);
    let samples: Vec<u64> = (0..4096)
        .map(|_| rng.random_range(1_000u64..1_000_000))
        .collect();
    let mut round = 0u64;
    ns_per_op(ops, || {
        let v = samples[round as usize % samples.len()];
        max.update(round, v);
        max.expire(round);
        let now = SimTime::from_nanos(round * 1_000_000);
        min.update(now, SimDuration::from_nanos(v));
        min.expire(now);
        black_box((max.get(), min.get()));
        round += 1;
    }) / 2.0
}

/// `workload::plan_flows` for every cell: host milliseconds and the flows
/// planned.
pub fn plan(cells: &[Cell], seed: u64) -> (f64, u32) {
    let t = Instant::now();
    let flows = cells
        .iter()
        .map(|c| {
            let groups = c.cfg.topology.n_groups() as u32;
            plan_flows(c.cfg.bandwidth(), groups, c.cfg.flow_scale, seed).total()
        })
        .sum();
    (t.elapsed().as_secs_f64() * 1e3, flows)
}

/// `elephants-json` on the documents the unit produced: encode and parse
/// rates in MB/s over `docs`, and their summed size.
pub fn json_rates<T: ToJson + FromJson>(docs: &[T]) -> (f64, f64, u64) {
    let texts: Vec<String> = docs.iter().map(|d| d.to_json_string()).collect();
    let bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();
    if bytes == 0 {
        return (0.0, 0.0, 0);
    }
    // Small documents are repeated until a pass moves about 4 MB.
    let passes = (4_000_000 / bytes).max(1);
    let encode_ns = ns_per_op(passes, || {
        for d in docs {
            black_box(d.to_json_string());
        }
    });
    let parse_ns = ns_per_op(passes, || {
        for t in &texts {
            black_box(T::from_json_str(t).expect("a document this process encoded"));
        }
    });
    let mb_per_s = |ns: f64| bytes as f64 / 1e6 / (ns / 1e9);
    (mb_per_s(encode_ns), mb_per_s(parse_ns), bytes)
}

/// Every cell once more under `CheckMode::Audit`: violations found and
/// host seconds inside the runner.
pub fn audit_unit(cells: &[Cell], seed: u64) -> Result<(u64, f64), String> {
    let mut violations = 0;
    let mut wall_s = 0.0;
    for cell in cells {
        let mut runner = Runner::new(&cell.cfg).seed(seed).check(CheckMode::Audit);
        if let Some(rec) = &cell.recording {
            runner = runner.recorder(rec.clone());
        }
        let t = Instant::now();
        let out = runner
            .run()
            .map_err(|e| format!("audit of {}: {e}", cell.cfg.label()))?;
        wall_s += t.elapsed().as_secs_f64();
        violations += out.check_violations();
    }
    Ok((violations, wall_s))
}

/// The first cell with the recorder off: host seconds inside the runner,
/// to set against the recorded run of the same cell.
pub fn unrecorded_wall_s(cell: &Cell, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    Runner::new(&cell.cfg)
        .seed(seed)
        .run()
        .map_err(|e| e.to_string())?;
    Ok(t.elapsed().as_secs_f64())
}

/// What the on-disk cache costs per entry and holds after a cold pass.
pub struct CacheCosts {
    pub put_us: f64,
    pub get_us: f64,
    pub hits: u64,
    pub misses: u64,
    pub bytes: u64,
}

/// Drive `RunCache` directly with the unit's results: every key is looked
/// up in an empty cache (misses), stored, and looked up again (hits).
pub fn cache_costs(cells: &[Cell], results: &[RunResult], seed: u64, dir: &Path) -> CacheCosts {
    wipe(dir);
    let cache = RunCache::new(dir);
    let entries: Vec<_> = cells.iter().zip(results).collect();
    let misses = entries
        .iter()
        .filter(|(c, _)| cache.get(&c.cfg, seed).is_none())
        .count() as u64;
    let t = Instant::now();
    for (c, r) in &entries {
        cache.put(&c.cfg, seed, r);
    }
    let put_us = t.elapsed().as_secs_f64() * 1e6 / entries.len() as f64;
    let t = Instant::now();
    let hits = entries
        .iter()
        .filter(|(c, _)| cache.get(&c.cfg, seed).is_some())
        .count() as u64;
    let get_us = t.elapsed().as_secs_f64() * 1e6 / entries.len() as f64;
    let bytes = std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0);
    CacheCosts {
        put_us,
        get_us,
        hits,
        misses,
        bytes,
    }
}

/// The cold sweep once more with two workers against a fresh cache: host
/// wall and CPU seconds.
pub fn cold_sweep_two_workers(cells: &[Cell], dir: &Path) -> (f64, f64) {
    wipe(dir);
    let configs: Vec<ScenarioConfig> = cells.iter().map(|c| c.cfg.clone()).collect();
    let cache = RunCache::new(dir);
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    black_box(try_sweep_with_workers(&configs, 1, &cache, 2));
    (t.elapsed().as_secs_f64(), cpu_seconds() - cpu0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{cells, Workload};

    #[test]
    fn micro_readings_are_positive_on_a_smoke_cell() {
        let cell = &cells(Workload::Steady25g, 1, true, Path::new("unused"))[0];
        assert!(wheel_ns_per_op(&cell.cfg, 2, SMOKE_OPS) > 0.0);
        assert!(link_ns_per_pkt(&cell.cfg, SMOKE_OPS) > 0.0);
        let (cumack, sack) = scoreboard_ns_per_op(&cell.cfg, 2, SMOKE_OPS);
        assert!(cumack > 0.0 && sack > 0.0);
        assert!(filters_ns_per_update(SMOKE_OPS) > 0.0);
    }

    #[test]
    fn json_rates_count_bytes_and_survive_empty_input() {
        let docs = vec![vec![1u64, 2, 3], vec![4u64]];
        let (enc, parse, bytes) = json_rates(&docs);
        assert_eq!(bytes, "[1,2,3]".len() as u64 + "[4]".len() as u64);
        assert!(enc > 0.0 && parse > 0.0);
        assert_eq!(json_rates::<Vec<u64>>(&[]), (0.0, 0.0, 0));
    }
}
