//! Property-based tests over the public APIs (seeded harness).

use elephants::aqm::{Codel, CodelConfig, FqCodel, FqCodelConfig, Red, RedConfig};
use elephants::metrics::{jain_index, relative_retransmissions, Summary};
use elephants::netsim::prelude::*;
use elephants::netsim::prop::{run_cases, vec_of, DEFAULT_CASES};
use elephants::netsim::{prop_check, prop_check_eq, Aqm, FlowId, NodeId, Packet};

fn gen_throughputs(rng: &mut SmallRng) -> Vec<f64> {
    vec_of(rng, 1, 20, |r| r.random_range(0.0f64..1e10))
}

#[test]
fn jain_index_is_in_unit_interval() {
    run_cases("jain_index_is_in_unit_interval", DEFAULT_CASES, |rng| {
        let tputs = gen_throughputs(rng);
        let j = jain_index(&tputs);
        prop_check!(j > 0.0 && j <= 1.0 + 1e-12, "J = {j}");
        Ok(())
    });
}

#[test]
fn jain_index_is_scale_invariant() {
    run_cases("jain_index_is_scale_invariant", DEFAULT_CASES, |rng| {
        let tputs = gen_throughputs(rng);
        let k = rng.random_range(0.001f64..1000.0);
        let a = jain_index(&tputs);
        let scaled: Vec<f64> = tputs.iter().map(|&x| x * k).collect();
        let b = jain_index(&scaled);
        prop_check!((a - b).abs() < 1e-9, "{a} vs {b}");
        Ok(())
    });
}

#[test]
fn jain_equals_one_iff_all_equal() {
    run_cases("jain_equals_one_iff_all_equal", DEFAULT_CASES, |rng| {
        let x = rng.random_range(1.0f64..1e9);
        let n = rng.random_range(2usize..10);
        let v = vec![x; n];
        prop_check!((jain_index(&v) - 1.0).abs() < 1e-12);
        Ok(())
    });
}

#[test]
fn rr_is_multiplicative_identity_on_self() {
    run_cases("rr_is_multiplicative_identity_on_self", DEFAULT_CASES, |rng| {
        let r = rng.random_range(1u64..1_000_000);
        prop_check_eq!(relative_retransmissions(r, r), 1.0);
        Ok(())
    });
}

#[test]
fn summary_bounds_hold() {
    run_cases("summary_bounds_hold", DEFAULT_CASES, |rng| {
        let xs = vec_of(rng, 1, 50, |r| r.random_range(-1e12f64..1e12));
        let s = Summary::of(&xs);
        prop_check!(s.min <= s.mean + 1e-6 && s.mean <= s.max + 1e-6);
        prop_check!(s.std >= 0.0);
        prop_check_eq!(s.n, xs.len());
        Ok(())
    });
}

fn mk_pkt(flow: u32, seq: u64, size: u32) -> Packet {
    Packet::data(FlowId(flow), NodeId(0), NodeId(1), seq, size, SimTime::ZERO)
}

/// A random enqueue/dequeue script applied to a queue discipline.
#[derive(Debug, Clone)]
enum Op {
    Enq { flow: u32, size: u32 },
    Deq,
    Advance { us: u64 },
}

fn gen_ops(rng: &mut SmallRng) -> Vec<Op> {
    vec_of(rng, 1, 200, |r| match r.random_range(0u32..3) {
        0 => Op::Enq { flow: r.random_range(0u32..8), size: r.random_range(64u32..9001) },
        1 => Op::Deq,
        _ => Op::Advance { us: r.random_range(1u64..5_000) },
    })
}

fn exercise(aqm: &mut dyn Aqm, ops: &[Op]) -> Result<(), String> {
    let mut rng = SmallRng::seed_from_u64(99);
    let mut now = SimTime::ZERO;
    let mut seq = 0u64;
    for op in ops {
        match *op {
            Op::Enq { flow, size } => {
                seq += 1;
                let _ = aqm.enqueue(mk_pkt(flow, seq, size), now, &mut rng);
            }
            Op::Deq => {
                let _ = aqm.dequeue(now, &mut rng);
            }
            Op::Advance { us } => now += SimDuration::from_micros(us),
        }
        // Conservation: every accepted packet is delivered, dropped at
        // dequeue, or still queued. FQ-CoDel may additionally evict
        // *accepted* packets on overflow (fattest-flow drop), so its
        // `enqueued` counter sits between the strict sum and the sum plus
        // evictions.
        let s = aqm.stats();
        let rhs = s.dequeued + s.dropped_dequeue + aqm.backlog_pkts() as u64;
        if aqm.name() == "fq_codel" {
            prop_check!(
                s.enqueued >= rhs && s.enqueued <= rhs + s.dropped_enqueue,
                "conservation violated for fq_codel: enq={} rhs={} evict={}",
                s.enqueued,
                rhs,
                s.dropped_enqueue
            );
        } else {
            prop_check_eq!(s.enqueued, rhs, "conservation violated for {}", aqm.name());
        }
    }
    Ok(())
}

#[test]
fn droptail_conserves_packets() {
    run_cases("droptail_conserves_packets", 64, |rng| {
        let ops = gen_ops(rng);
        let mut q = DropTail::new(100_000);
        exercise(&mut q, &ops)
    });
}

#[test]
fn red_conserves_packets() {
    run_cases("red_conserves_packets", 64, |rng| {
        let ops = gen_ops(rng);
        let mut q = Red::new(RedConfig::tc_defaults(200_000, 100_000_000, 1500));
        exercise(&mut q, &ops)
    });
}

#[test]
fn codel_conserves_packets() {
    run_cases("codel_conserves_packets", 64, |rng| {
        let ops = gen_ops(rng);
        let mut q =
            Codel::new(CodelConfig { limit_bytes: 100_000, mtu: 1500, ..Default::default() });
        exercise(&mut q, &ops)
    });
}

#[test]
fn fq_codel_conserves_packets() {
    run_cases("fq_codel_conserves_packets", 64, |rng| {
        let ops = gen_ops(rng);
        let mut q = FqCodel::new(FqCodelConfig::tc_defaults(100_000, 1500));
        exercise(&mut q, &ops)
    });
}

#[test]
fn fq_codel_backlog_bytes_never_negative_nor_leaks() {
    run_cases("fq_codel_backlog_bytes_never_negative_nor_leaks", 64, |rng| {
        let ops = gen_ops(rng);
        let mut q = FqCodel::new(FqCodelConfig::tc_defaults(50_000, 1500));
        let mut rng2 = SmallRng::seed_from_u64(3);
        let mut now = SimTime::ZERO;
        let mut seq = 0;
        for op in &ops {
            match *op {
                Op::Enq { flow, size } => {
                    seq += 1;
                    q.enqueue(mk_pkt(flow, seq, size), now, &mut rng2);
                }
                Op::Deq => {
                    q.dequeue(now, &mut rng2);
                }
                Op::Advance { us } => now += SimDuration::from_micros(us),
            }
        }
        // Drain completely; accounting must return exactly to zero.
        now += SimDuration::from_secs(10);
        let mut guard = 0;
        while q.backlog_pkts() > 0 {
            let r = q.dequeue(now, &mut rng2);
            prop_check!(r.pkt.is_some() || r.dropped > 0, "backlog stuck at {}", q.backlog_pkts());
            guard += 1;
            prop_check!(guard < 10_000);
        }
        prop_check_eq!(q.backlog_bytes(), 0);
        Ok(())
    });
}

/// End-to-end determinism over random scenario knobs: two identical
/// short runs must agree exactly.
#[test]
fn simulation_is_deterministic() {
    run_cases("simulation_is_deterministic", 16, |rng| {
        use elephants::cca::CcaKind;
        use elephants::experiments::{RunOptions, Runner, ScenarioConfig};
        use elephants::AqmKind;
        let seed = rng.random_range(0u64..1000);
        let q = rng.random_range(1usize..4);
        let cca = CcaKind::ALL[rng.random_range(0..CcaKind::ALL.len())];
        let cfg = ScenarioConfig::new(
            cca,
            CcaKind::Cubic,
            AqmKind::PAPER_SET[q % AqmKind::PAPER_SET.len()],
            [0.5, 2.0, 16.0][q - 1],
            100_000_000,
            &RunOptions::quick(),
        );
        let a = Runner::new(&cfg).seed(seed).run().expect("run must succeed").into_first();
        let b = Runner::new(&cfg).seed(seed).run().expect("run must succeed").into_first();
        prop_check_eq!(a.events, b.events);
        prop_check_eq!(a.sender_mbps, b.sender_mbps);
        prop_check_eq!(a.retransmits, b.retransmits);
        Ok(())
    });
}

/// The run-cache key is sound: over generated scenarios, the smallest
/// step in any one config field, or in the run seed, is a different key.
#[test]
fn cache_key_separates_every_field_and_run_seed() {
    use elephants::cca::CcaKind;
    use elephants::experiments::ScenarioConfig;
    use elephants::netsim::{ExplicitSpec, FaultAction, GroupDef, LinkDef, LossModel};
    use elephants::AqmKind;

    fn next<T: Copy + PartialEq>(menu: &[T], now: T) -> T {
        menu[(menu.iter().position(|&k| k == now).unwrap() + 1) % menu.len()]
    }
    const NS: SimDuration = SimDuration::from_nanos(1);
    const LINK: LinkDef = LinkDef { src: 0, dst: 1, bw_bps: 1, delay_us: 1, shaped: true };
    // One step per `ScenarioConfig` field other than `seed`.
    type Step = fn(&mut ScenarioConfig);
    let steps: [(&str, Step); 18] = [
        ("cca1", |c| c.cca1 = next(&CcaKind::ALL, c.cca1)),
        ("cca2", |c| c.cca2 = next(&CcaKind::ALL, c.cca2)),
        ("aqm", |c| c.aqm = next(&AqmKind::ALL, c.aqm)),
        ("queue_bdp", |c| c.queue_bdp += 0.004),
        ("bw_bps", |c| c.bw_bps += 1),
        ("duration", |c| c.duration += NS),
        ("warmup", |c| c.warmup += NS),
        ("flow_scale", |c| c.flow_scale -= 0.0004),
        ("mss", |c| c.mss += 1),
        ("ecn", |c| c.ecn = !c.ecn),
        ("rtt_ms", |c| c.rtt_ms += 1),
        ("loss", |c| {
            c.loss = match c.loss {
                LossModel::None => LossModel::Bernoulli { p: 1e-9 },
                _ => LossModel::None,
            }
        }),
        ("faults", |c| c.faults = c.faults.clone().with(NS, FaultAction::LinkUp)),
        ("max_events", |c| c.max_events -= 1),
        ("coalesce", |c| c.coalesce = !c.coalesce),
        ("topology", |c| match &mut c.topology {
            TopologySpec::Dumbbell => c.topology = TopologySpec::ParkingLot { hops: 2 },
            TopologySpec::ParkingLot { hops } => *hops += 1,
            TopologySpec::MultiDumbbell { rtts_ms } => rtts_ms.push(1),
            TopologySpec::Explicit(spec) => spec.links.push(LINK),
        }),
        ("fault_link", |c| c.fault_link += 1),
        ("start_offset_ms", |c| match c.start_offset_ms.last_mut() {
            Some(last) => *last += 1,
            None => c.start_offset_ms = vec![0, 1],
        }),
    ];

    run_cases("cache_key_separates_every_field_and_run_seed", DEFAULT_CASES, |rng| {
        let mut base = elephants::chaos::generate_case(rng.random_range(0u64..1 << 40));
        // The generator draws no explicit topologies; they make the longest
        // config JSON, so make some here.
        if rng.random_bool(0.25) {
            base.topology = TopologySpec::Explicit(ExplicitSpec {
                n_nodes: 64,
                links: vec![LINK; rng.random_range(1usize..64)],
                groups: vec![GroupDef { sender: 0, receiver: 1 }],
            });
        }
        let seed = rng.random_range(0u64..u64::MAX);
        let key = base.cache_key(seed);
        prop_check_eq!(&key, &base.clone().cache_key(seed), "deterministic");
        prop_check!(key.len() < 120, "{} bytes: {key}", key.len());
        prop_check!(
            key.bytes().all(|b| b.is_ascii_alphanumeric() || b"._-".contains(&b)),
            "not a portable file name: {key}"
        );
        prop_check!(key != base.cache_key(seed + 1), "run seed is not in {key}");
        let reseeded = ScenarioConfig { seed: base.seed ^ 1, ..base.clone() };
        prop_check_eq!(&key, &reseeded.cache_key(seed), "`cfg.seed` is overridden by the run seed");
        for (field, step) in &steps {
            let mut stepped = base.clone();
            step(&mut stepped);
            prop_check!(stepped != base, "the {field} step changed nothing");
            prop_check!(key != stepped.cache_key(seed), "a step in {field} kept the key {key}");
        }
        Ok(())
    });
}
