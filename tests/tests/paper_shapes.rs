//! Qualitative paper-shape checks (DESIGN.md §4 acceptance criteria).
//!
//! These run at 100–500 Mbps with shortened durations so they are feasible
//! in debug CI; the full-scale shapes are regenerated by the figure
//! binaries and recorded in EXPERIMENTS.md.

use integration_tests::{quick_study, study_secs};

#[test]
fn fifo_small_buffer_favors_bbr1_over_cubic() {
    // Fig 2(a) left side: below the equilibrium point BBRv1 out-throughputs
    // CUBIC through a shallow FIFO.
    let out = quick_study("bbr1", "cubic", "fifo", 0.5, 100);
    assert!(
        out.sender_mbps[0] > out.sender_mbps[1],
        "BBRv1 should win at 0.5 BDP: bbr1={:.1} cubic={:.1}",
        out.sender_mbps[0],
        out.sender_mbps[1]
    );
}

#[test]
fn fifo_reno_close_at_small_buffer_then_loses_at_large() {
    // Fig 2(p)-(t): Reno starts near CUBIC, loses badly as buffers deepen.
    // The deep-buffer equilibrium takes many CUBIC epochs to develop
    // (paper runs 200 s), so the 16 BDP arm runs longer.
    let small = study_secs("reno", "cubic", "fifo", 0.5, 100, 30);
    let large = study_secs("reno", "cubic", "fifo", 16.0, 100, 120);
    let share_small = small.sender_mbps[0] / (small.sender_mbps[0] + small.sender_mbps[1]);
    let share_large = large.sender_mbps[0] / (large.sender_mbps[0] + large.sender_mbps[1]);
    assert!(
        share_large < share_small,
        "Reno's share must shrink with buffer depth: {share_small:.3} -> {share_large:.3}"
    );
}

#[test]
fn red_lets_bbr1_crush_cubic() {
    // Fig 4(a)-(e): under RED, BBRv1 takes nearly everything.
    let out = quick_study("bbr1", "cubic", "red", 2.0, 100);
    assert!(
        out.sender_mbps[0] > 3.0 * out.sender_mbps[1],
        "BBRv1 must dominate under RED: bbr1={:.1} cubic={:.1}",
        out.sender_mbps[0],
        out.sender_mbps[1]
    );
    assert!(out.jain < 0.9, "fairness must be poor, J={:.3}", out.jain);
}

#[test]
fn red_keeps_reno_and_cubic_balanced() {
    // Fig 4(p)-(t) + Fig 5: Reno vs CUBIC is fair under RED.
    let out = quick_study("reno", "cubic", "red", 2.0, 100);
    assert!(out.jain > 0.9, "Reno/CUBIC under RED should be fair, J={:.3}", out.jain);
}

#[test]
fn fq_codel_is_fair_for_every_pairing() {
    // Fig 6: FQ_CODEL pins J ~= 1 for inter- and intra-CCA alike.
    for (a, b) in [("bbr1", "cubic"), ("bbr2", "cubic"), ("reno", "cubic"), ("htcp", "cubic")] {
        let out = quick_study(a, b, "fq_codel", 2.0, 100);
        assert!(out.jain > 0.93, "{a} vs {b} under fq_codel J={:.3}", out.jain);
    }
}

#[test]
fn intra_cca_is_fair_under_fifo() {
    // Fig 3(c)-(d): every CCA shares fairly with itself through FIFO.
    for cca in ["cubic", "reno", "htcp", "bbr2"] {
        let out = quick_study(cca, cca, "fifo", 2.0, 100);
        assert!(out.jain > 0.9, "intra-{cca} FIFO J={:.3}", out.jain);
    }
}

#[test]
fn fifo_sustains_full_utilization() {
    // Fig 7(a)-(b): FIFO reaches ~full utilization at 2 BDP.
    for cca in ["cubic", "bbr1", "bbr2", "htcp"] {
        let out = quick_study(cca, cca, "fifo", 2.0, 100);
        assert!(out.utilization > 0.85, "intra-{cca} FIFO phi={:.3}", out.utilization);
    }
}

#[test]
fn red_lags_fifo_at_gigabit() {
    // Fig 7 / Table 3: at >=1 Gbps FIFO sustains ~full utilization while
    // RED's unscaled thresholds leave capacity on the table.
    let fifo = study_secs("cubic", "cubic", "fifo", 2.0, 1000, 20);
    let red = study_secs("cubic", "cubic", "red", 2.0, 1000, 20);
    assert!(fifo.utilization > 0.97, "1G FIFO phi={:.3}", fifo.utilization);
    assert!(
        red.utilization < fifo.utilization - 0.03,
        "1G RED must lag FIFO: fifo={:.3} red={:.3}",
        fifo.utilization,
        red.utilization
    );
}

#[test]
fn bbr1_retransmits_far_more_than_cubic() {
    // Fig 8 / Table 3: BBRv1's loss blindness shows up as a much higher
    // retransmission count than CUBIC in the same conditions.
    let bbr = quick_study("bbr1", "bbr1", "fifo", 0.5, 100);
    let cubic = quick_study("cubic", "cubic", "fifo", 0.5, 100);
    assert!(
        bbr.retransmits > 2.0 * cubic.retransmits.max(1.0),
        "bbr1 retx {:.0} vs cubic retx {:.0}",
        bbr.retransmits,
        cubic.retransmits
    );
}

#[test]
fn fifo_retransmissions_fall_with_buffer_depth_for_bbr() {
    // Fig 8(a)-(b): the paper's clean buffer-size signal is BBR's: with a
    // 2 BDP inflight cap, a 16 BDP FIFO is never filled, so BBRv1's
    // retransmissions collapse from "highest of all CCAs" at 0.5 BDP to
    // "significantly low" at 16 BDP.
    let shallow = study_secs("bbr1", "bbr1", "fifo", 0.5, 100, 20);
    let deep = study_secs("bbr1", "bbr1", "fifo", 16.0, 100, 20);
    assert!(shallow.retransmits > 100.0, "loss-blind BBRv1 must hammer a small buffer");
    assert!(
        deep.retransmits < shallow.retransmits / 20.0,
        "retx must fall with buffer: 0.5BDP={:.0} 16BDP={:.0}",
        shallow.retransmits,
        deep.retransmits
    );
}

#[test]
fn bbr2_tolerates_red_fairly_in_intra_runs() {
    // Fig 5(c)-(d): intra-BBRv2 under RED stays fair (unlike BBRv1's
    // erratic RTO-driven swings).
    let out = quick_study("bbr2", "bbr2", "red", 2.0, 100);
    assert!(out.jain > 0.9, "intra-bbr2 RED J={:.3}", out.jain);
}
