//! # elephants-experiments
//!
//! The experiment harness that reproduces the paper's evaluation: the
//! Table 1 scenario grid, a deterministic runner, a thread-parallel sweep
//! with an on-disk result cache, and one assembly function per paper figure
//! and table (binaries `repro <fig2…fig8|table2|table3>` and `sweep`), and
//! [`claims`], the one table of the paper's shapes the repo judges.
//!
//! ```no_run
//! use elephants_experiments::prelude::*;
//!
//! let opts = RunOptions::quick();
//! let cache = RunCache::disabled();
//! let fig = fig3(&opts, &cache, &[100_000_000]);
//! println!("{}", fig.text);
//! ```

pub mod cache;
pub mod claims;
pub mod cli;
pub mod figures;
pub mod par;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod svg;
pub mod sweep;

pub use cache::{RunCache, CACHE_SCHEMA_VERSION};
pub use cli::{Cli, SharedFlags};
pub use par::{par_map_with_workers, par_try_map_with_workers};
pub use figures::{
    fig2, fig3, fig4, fig5, fig6, fig7, fig8, render_table3, table3, FigureOutput, Table3Row,
    FIGURE_BUFFERS_BDP,
};
pub use report::{bw_label, TextTable};
pub use runner::{
    emit_dynamics_figures, AveragedResult, LinkResult, Recording, RunError, RunErrorKind,
    RunOutcome, RunResult, Runner, DEFAULT_SAMPLE_INTERVAL, DEFAULT_WALL_LIMIT,
};
pub use scenario::{
    inter_pairs, intra_pairs, paper_grid, paper_pairs, DurationPreset, RunOptions,
    ScenarioBuilder, ScenarioConfig, PAPER_BASELINE, PAPER_BWS, PAPER_MSS, PAPER_QUEUES_BDP,
};
pub use svg::{line_chart, write_chart, ChartSpec, Series};
pub use sweep::{
    sweep, try_sweep_reporting, try_sweep_with_workers, FailedRun, SweepOutput,
};

/// Convenience re-exports for binaries and examples.
pub mod prelude {
    pub use crate::cache::RunCache;
    pub use crate::cli::{Cli, SharedFlags};
    pub use crate::figures::*;
    pub use crate::report::{bw_label, TextTable};
    pub use crate::runner::{Recording, RunError, RunErrorKind, RunOutcome, Runner};
    pub use crate::scenario::*;
    pub use crate::sweep::{sweep, try_sweep_reporting, FailedRun, SweepOutput};
    pub use elephants_aqm::AqmKind;
    pub use elephants_cca::CcaKind;
    pub use elephants_netsim::TopologySpec;
}
