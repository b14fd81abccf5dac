//! Property-based tests for the DES engine primitives (seeded harness).

use elephants_netsim::prelude::*;
use elephants_netsim::prop::{run_cases, vec_of, DEFAULT_CASES};
use elephants_netsim::{bdp_bytes, prop_check, prop_check_eq, Event, EventQueue};

/// The event queue is a total order: pops come out sorted by time, and
/// equal times preserve insertion order.
#[test]
fn event_queue_total_order() {
    run_cases("event_queue_total_order", DEFAULT_CASES, |rng| {
        let times = vec_of(rng, 1, 200, |r| r.random_range(0u64..1_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(
                SimTime::from_nanos(t),
                Event::Timer {
                    flow: FlowId(i as u32),
                    dir: Dir::Sender,
                    kind: TimerKind::Rto,
                    gen: 0,
                },
            );
        }
        let mut last: Option<(u64, u32)> = None;
        let mut popped = 0;
        while let Some((at, ev)) = q.pop() {
            popped += 1;
            let Event::Timer { flow, .. } = ev else { unreachable!() };
            if let Some((lt, lf)) = last {
                prop_check!(
                    at.as_nanos() > lt || (at.as_nanos() == lt && flow.0 > lf),
                    "order violated: ({lt},{lf}) then ({},{})",
                    at.as_nanos(),
                    flow.0
                );
            }
            last = Some((at.as_nanos(), flow.0));
        }
        prop_check_eq!(popped, times.len());
        Ok(())
    });
}

/// The timer wheel and its delivery pipes agree with a sorted reference
/// model under interleaved schedule/pop traffic spanning every wheel level
/// and the overflow heap. Deliveries go on 1-3 links, each link's arrival
/// times non-decreasing (a link delivers in the order it sends).
#[test]
fn event_queue_matches_reference_model() {
    run_cases("event_queue_matches_reference_model", DEFAULT_CASES, |rng| {
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, u32)> = Vec::new();
        let mut popped: Vec<(u64, u32)> = Vec::new();
        let mut id = 0u32;
        let mut now = 0u64;
        let links = rng.random_range(1u32..4);
        // Each link's newest arrival: the floor of its next one.
        let mut floor = [0u64; 3];
        // Each event carries its id: a timer in its flow, a packet in `seq`.
        let pop = |q: &mut EventQueue| -> Result<Option<(u64, u32)>, String> {
            let Some((at, ev)) = q.pop() else { return Ok(None) };
            let id = match ev {
                Event::Timer { flow, .. } => flow.0,
                Event::Deliver { node, pkt } => {
                    let pkt = q.take_packet(pkt);
                    prop_check_eq!(node, pkt.dst);
                    pkt.seq as u32
                }
                _ => unreachable!(),
            };
            Ok(Some((at.as_nanos(), id)))
        };
        for _ in 0..rng.random_range(1usize..40) {
            // A burst of schedules at or after the last popped time, with
            // offsets from sub-µs up to beyond the ~17 s wheel horizon.
            for _ in 0..rng.random_range(1usize..8) {
                let exp = rng.random_range(0u32..36);
                let t = now + rng.random_range(0u64..(1u64 << exp));
                q.schedule(
                    SimTime::from_nanos(t),
                    Event::Timer {
                        flow: FlowId(id),
                        dir: Dir::Sender,
                        kind: TimerKind::Rto,
                        gen: 0,
                    },
                );
                reference.push((t, id));
                id += 1;
            }
            for _ in 0..rng.random_range(0usize..8) {
                let link = rng.random_range(0..links);
                let exp = rng.random_range(0u32..30);
                let t = floor[link as usize].max(now) + rng.random_range(0u64..(1u64 << exp));
                floor[link as usize] = t;
                let node = NodeId(100 + link);
                let pkt = Packet::data(FlowId(0), NodeId(0), node, id.into(), 1500, SimTime::ZERO);
                q.schedule_deliver(SimTime::from_nanos(t), LinkId(link), node, pkt);
                reference.push((t, id));
                id += 1;
            }
            for _ in 0..rng.random_range(0usize..6) {
                let Some(e) = pop(&mut q)? else { break };
                now = e.0;
                popped.push(e);
            }
        }
        while let Some(e) = pop(&mut q)? {
            popped.push(e);
        }
        prop_check_eq!(q.packets_live(), 0);
        prop_check!(q.is_empty(), "{} events left after the last pop", q.len());
        // Ids increase in insertion order, so sorting by (time, id) is
        // exactly the (time, seq) total order the queue must produce.
        reference.sort_unstable();
        prop_check_eq!(popped, reference);
        Ok(())
    });
}

/// Serialization time is consistent with bytes_in (inverse functions).
#[test]
fn serialization_inverts() {
    run_cases("serialization_inverts", DEFAULT_CASES, |rng| {
        let bps = rng.random_range(1_000_000u64..100_000_000_000);
        let bytes = rng.random_range(1u64..10_000_000);
        let bw = Bandwidth::from_bps(bps);
        let t = bw.serialization_time(bytes);
        let back = bw.bytes_in(t);
        // Rounding may lose at most one byte per nanosecond boundary.
        prop_check!(
            (back as i128 - bytes as i128).abs() <= 1 + bps as i128 / 8_000_000_000,
            "bytes {bytes} -> {t:?} -> {back}"
        );
        Ok(())
    });
}

/// Random structurally-valid fault plans (including Gilbert–Elliott and
/// Bernoulli loss payloads) survive a JSON encode → decode round trip
/// bit-exactly, so committed anomaly scenarios reload as authored.
#[test]
fn fault_plan_json_round_trips() {
    use elephants_json::{FromJson, ToJson};
    use elephants_netsim::{FaultAction, FaultPlan, LossModel};
    run_cases("fault_plan_json_round_trips", DEFAULT_CASES, |rng| {
        let mut at = 0u64;
        let mut plan = FaultPlan::none();
        for _ in 0..rng.random_range(0usize..8) {
            at += rng.random_range(0u64..2_000_000_000);
            let action = match rng.random_range(0u32..3) {
                0 => FaultAction::LinkDown,
                1 => FaultAction::LinkUp,
                _ => FaultAction::SetLossModel(match rng.random_range(0u32..3) {
                    0 => LossModel::None,
                    1 => LossModel::Bernoulli { p: rng.random::<f64>() },
                    _ => LossModel::GilbertElliott {
                        p_gb: rng.random::<f64>(),
                        p_bg: rng.random::<f64>(),
                    },
                }),
            };
            plan = plan.with(SimDuration::from_nanos(at), action);
        }
        plan.validate().map_err(|e| format!("generated plan must be valid: {e}"))?;
        let json = plan.to_json_string();
        let back =
            FaultPlan::from_json_str(&json).map_err(|e| format!("decode failed: {e}\n{json}"))?;
        prop_check_eq!(back, plan);
        Ok(())
    });
}

/// BDP is monotone in both bandwidth and RTT.
#[test]
fn bdp_monotone() {
    run_cases("bdp_monotone", DEFAULT_CASES, |rng| {
        let bps = rng.random_range(1_000_000u64..50_000_000_000);
        let ms = rng.random_range(1u64..500);
        let b1 = bdp_bytes(Bandwidth::from_bps(bps), SimDuration::from_millis(ms));
        let b2 = bdp_bytes(Bandwidth::from_bps(bps * 2), SimDuration::from_millis(ms));
        let b3 = bdp_bytes(Bandwidth::from_bps(bps), SimDuration::from_millis(ms * 2));
        prop_check!(b2 >= b1);
        prop_check!(b3 >= b1);
        // And linear: doubling either doubles the product (within rounding).
        prop_check!((b2 as i128 - 2 * b1 as i128).abs() <= 1);
        prop_check!((b3 as i128 - 2 * b1 as i128).abs() <= 1);
        Ok(())
    });
}

/// Time arithmetic: (t + d) - t == d for all representable values.
#[test]
fn time_add_sub_roundtrip() {
    run_cases("time_add_sub_roundtrip", DEFAULT_CASES, |rng| {
        let t = rng.random_range(0u64..u64::MAX / 2);
        let d = rng.random_range(0u64..u64::MAX / 4);
        let t0 = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_check_eq!((t0 + dur) - t0, dur);
        prop_check_eq!((t0 + dur).since(t0), dur);
        Ok(())
    });
}

/// Droptail backlog never exceeds its limit and conserves bytes.
#[test]
fn droptail_limit_invariant() {
    run_cases("droptail_limit_invariant", DEFAULT_CASES, |rng| {
        let sizes = vec_of(rng, 1, 300, |r| r.random_range(64u32..9001));
        let limit = rng.random_range(10_000u64..200_000);
        let mut q = DropTail::new(limit);
        let mut qrng = SmallRng::seed_from_u64(5);
        let mut accepted_bytes = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            let pkt = Packet::data(FlowId(0), NodeId(0), NodeId(1), i as u64, size, SimTime::ZERO);
            if q.enqueue(pkt, SimTime::ZERO, &mut qrng) == Verdict::Enqueued {
                accepted_bytes += size as u64;
            }
            prop_check!(q.backlog_bytes() <= limit);
        }
        // Drain and verify byte conservation.
        let mut drained = 0u64;
        while let Some(p) = q.dequeue(SimTime::ZERO, &mut qrng).pkt {
            drained += p.size as u64;
        }
        prop_check_eq!(drained, accepted_bytes);
        Ok(())
    });
}

/// Deterministic mini-simulations with randomized blast sizes: the engine
/// must deliver every packet exactly once regardless of load pattern.
mod delivery {
    use super::*;
    use elephants_netsim::{Ctx, EndpointReport, FlowEndpoint, PacketKind};
    use std::any::Any;

    struct Blast {
        peer: NodeId,
        n: u64,
        acked: u64,
    }

    impl FlowEndpoint for Blast {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for seq in 0..self.n {
                ctx.send(Packet::data(ctx.flow, ctx.local, self.peer, seq, 1000, ctx.now));
            }
        }
        fn on_packet(&mut self, pkt: &Packet, _ctx: &mut Ctx) {
            if let PacketKind::Ack(info) = pkt.kind {
                self.acked = self.acked.max(info.cum);
            }
        }
        fn on_timer(&mut self, _k: TimerKind, _c: &mut Ctx) {}
        fn report(&self) -> EndpointReport {
            EndpointReport::default()
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    struct Sink {
        peer: NodeId,
        next: u64,
        report: EndpointReport,
    }

    impl FlowEndpoint for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx) {}
        fn on_packet(&mut self, pkt: &Packet, ctx: &mut Ctx) {
            if pkt.is_data() {
                if pkt.seq == self.next {
                    self.next += 1;
                    self.report.delivered_segments += 1;
                }
                let ack = Packet::ack(
                    ctx.flow,
                    ctx.local,
                    self.peer,
                    pkt.seq,
                    elephants_netsim::AckInfo::cumulative(self.next),
                    ctx.now,
                );
                ctx.send(ack);
            }
        }
        fn on_timer(&mut self, _k: TimerKind, _c: &mut Ctx) {}
        fn report(&self) -> EndpointReport {
            self.report
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    #[test]
    fn every_packet_delivered_exactly_once() {
        run_cases("every_packet_delivered_exactly_once", 32, |rng| {
            let n1 = rng.random_range(1u64..300);
            let n2 = rng.random_range(1u64..300);
            let seed = rng.random_range(0u64..100);
            let rtt = SimDuration::from_millis(62);
            let topo = TopologySpec::Dumbbell.build(Bandwidth::from_mbps(100), rtt).unwrap();
            let (tx, rx) = (topo.sender_hosts().to_vec(), topo.receiver_hosts().to_vec());
            let mut sim = Simulator::new(
                topo,
                SimConfig {
                    duration: SimDuration::from_secs(5),
                    warmup: SimDuration::ZERO,
                    max_events: 10_000_000,
                },
                seed,
            );
            for (i, n) in [(0usize, n1), (1usize, n2)] {
                let (s, r) = (tx[i], rx[i]);
                sim.add_flow(
                    s,
                    r,
                    Box::new(Blast { peer: r, n, acked: 0 }),
                    Box::new(Sink { peer: s, next: 0, report: EndpointReport::default() }),
                    SimTime::ZERO,
                );
            }
            let summary = sim.run();
            prop_check_eq!(summary.flows[0].receiver.delivered_segments, n1);
            prop_check_eq!(summary.flows[1].receiver.delivered_segments, n2);
            // Blasts fit comfortably in the big access FIFOs: zero drops.
            prop_check_eq!(summary.bottleneck.aqm.dropped_total(), 0);
            Ok(())
        });
    }
}
