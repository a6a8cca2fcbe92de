//! # dynsum-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) on
//! the synthetic benchmark suite:
//!
//! | binary | artifact |
//! |--------|----------|
//! | `table1`  | Table 1 — DYNSUM's traversal traces for `s1`/`s2` on Figure 2 |
//! | `table2`  | Table 2 — qualitative algorithm comparison |
//! | `table3`  | Table 3 — benchmark statistics (locality, query counts) |
//! | `table4`  | Table 4 — analysis times of NOREFINE/REFINEPTS/DYNSUM × 3 clients |
//! | `figure4` | Figure 4 — per-batch DYNSUM time normalized to REFINEPTS |
//! | `figure5` | Figure 5 — cumulative DYNSUM summaries as % of STASUM |
//! | `ablation`| extra: cache on/off, context sensitivity, budget sweeps |
//!
//! Every binary accepts `--scale <f>` (default 0.02), `--seed <n>`,
//! `--budget <n>` (default 75000) and `--bench <name,...>`; the same
//! experiments are exposed as library functions so the integration tests
//! can run them at tiny scales.
//!
//! Engine throughput, batch scaling, cache pressure, warm starts and
//! daemon latency are measured by the repository benchmark,
//! `layerbench/` (declared in `BENCHMARK.json`), not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod options;
mod table;

pub use experiments::{
    ablation, figure4, figure5, render_ablation, render_figure4, render_figure5, table1, table2,
    table3, table4, AblationRow, BatchSeries, Figure5Row, Table1Output, Table4Cell, Table4Output,
};
pub use options::{EngineKind, ExperimentOptions};
pub use table::Table;
