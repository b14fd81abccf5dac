//! Figure-assembly identity: every paper figure and Table 3, rendered from
//! a cache of synthetic results, must come out byte for byte as pinned.
//!
//! The cache is filled through `RunCache::put` with one made-up
//! `RunResult` per `paper_grid(quick)` cell at 100 Mbps and 10 Gbps, each
//! derived from the FNV-1a of the cell's cache key, so the figures run no
//! simulation and the test takes milliseconds. One FNV-1a row per figure
//! covers its caption and text, each CSV (by name) and each SVG chart (by
//! name): a change to how a panel is laid out, labelled, formatted or
//! plotted shows up here, whatever the simulator computes.
//!
//! Regenerate the pinned fixture (only when intentionally re-baselining,
//! from a build whose figures are known-good) with:
//!
//! ```sh
//! UPDATE_FIXTURES=1 cargo test -q -p integration-tests --test figures
//! ```

use elephants::experiments::{
    fig2, fig3, fig4, fig5, fig6, fig7, fig8, line_chart, paper_grid, render_table3, table3,
    FigureOutput, RunCache, RunOptions, RunResult, PAPER_QUEUES_BDP,
};
use elephants::netsim::rng::fnv1a;

const BWS: [u64; 2] = [100_000_000, 10_000_000_000];

/// A result whose every number is a function of `key` alone.
fn synthetic(key: &str) -> RunResult {
    let h = fnv1a(key.as_bytes());
    let bits = |shift: u32, mask: u64| ((h >> shift) & mask) as f64 / mask as f64;
    RunResult {
        sender_mbps: vec![100.0 * bits(0, 0xffff), 100.0 * bits(16, 0xffff)],
        jain: 0.5 + 0.5 * bits(32, 0xff),
        utilization: 0.6 + 0.4 * bits(40, 0xff),
        retransmits: (h >> 48) & 0x3ff,
        rtos: h >> 58,
        drops: 0,
        down_drops: 0,
        flows: 2,
        events: 0,
        peak_queue_pkts: 0,
        fault_events_applied: 0,
        record_path: None,
        links: Vec::new(),
    }
}

/// Caption, text, every `(name, CSV)` and every `(name, SVG)` in order.
fn digest(fig: &FigureOutput) -> u64 {
    let mut all = format!("{}\n{}", fig.caption, fig.text);
    for (name, table) in &fig.tables {
        all.push_str(&format!("\n{name}.csv\n{}", table.to_csv()));
    }
    for (name, spec, series) in &fig.charts {
        all.push_str(&format!("\n{name}.svg\n{}", line_chart(spec, series)));
    }
    fnv1a(all.as_bytes())
}

#[test]
fn figures_are_byte_identical_to_pre_change_fixtures() {
    let dir = std::env::temp_dir().join(format!("elephants-figures-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cache = RunCache::new(&dir);
    let opts = RunOptions::quick();
    let mut cells = paper_grid(&opts);
    cells.retain(|c| BWS.contains(&c.bw_bps));
    assert_eq!(cells.len(), 324);
    for cfg in &cells {
        cache.put(cfg, cfg.seed, &synthetic(&cfg.cache_key(cfg.seed)));
    }
    assert_eq!(cache.put_errors(), 0);

    let mut rows = Vec::new();
    for fig in [fig2, fig3, fig4, fig5, fig6, fig7, fig8] {
        let out = fig(&opts, &cache, &BWS);
        rows.push(format!(
            "{{\"figure\":\"{}\",\"tables\":{},\"charts\":{},\"fnv1a\":\"{:016x}\"}}",
            out.id,
            out.tables.len(),
            out.charts.len(),
            digest(&out)
        ));
    }
    let t3 = render_table3(&table3(&opts, &cache, &BWS, &PAPER_QUEUES_BDP));
    rows.push(format!(
        "{{\"figure\":\"table3\",\"rows\":{},\"fnv1a\":\"{:016x}\"}}",
        t3.len(),
        fnv1a(format!("{}\n{}", t3.render(), t3.to_csv()).as_bytes())
    ));

    // Every cell was served from the cache: a miss would have simulated
    // and stored a new entry next to the 324.
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 324, "a figure ran a simulation");
    assert_eq!(cache.quarantined(), 0);
    std::fs::remove_dir_all(&dir).ok();

    let got = format!("[\n{}\n]\n", rows.join(",\n"));
    integration_tests::assert_pinned("figures", "digests.json", &got, "figure digests");
}
