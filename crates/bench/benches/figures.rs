//! One bench per paper figure/table: regenerates a reduced-scale slice of
//! the corresponding experiment grid and times it. The *full* regeneration
//! (all bandwidths, paper durations) is done by the `elephants-experiments`
//! `repro` binary (`cargo run --release -p elephants-experiments --bin repro -- fig2` …);
//! these benches keep the assembly paths exercised and their cost tracked.

use elephants_bench::harness::Criterion;
use elephants_bench::{criterion_group, criterion_main};
use elephants_experiments::{
    fig2, fig3, fig4, fig5, fig6, fig7, fig8, table3, RunCache, PAPER_QUEUES_BDP,
};

fn opts() -> elephants_experiments::RunOptions {
    elephants_bench::bench_opts()
}

/// 100 Mbps slice only: 6 queue lengths × the relevant pair set.
const BWS: [u64; 1] = [100_000_000];

fn bench_fig2(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig2_throughput_fifo", |b| {
        b.iter(|| fig2(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_fig3(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig3_jain_fifo", |b| {
        b.iter(|| fig3(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_fig4(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig4_throughput_red", |b| {
        b.iter(|| fig4(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_fig5(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig5_jain_red", |b| {
        b.iter(|| fig5(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig6_jain_fq_codel", |b| {
        b.iter(|| fig6(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_fig7(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig7_utilization", |b| {
        b.iter(|| fig7(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_fig8_retransmissions", |b| {
        b.iter(|| fig8(&opts(), &RunCache::disabled(), &BWS).tables.len())
    });
    g.finish();
}

fn bench_table3(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("bench_table3_overall", |b| {
        // Single queue length keeps the 27-row table affordable per sample.
        b.iter(|| table3(&opts(), &RunCache::disabled(), &BWS, &PAPER_QUEUES_BDP[..1]).len())
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig2,
    bench_fig3,
    bench_fig4,
    bench_fig5,
    bench_fig6,
    bench_fig7,
    bench_fig8,
    bench_table3
);
criterion_main!(benches);
