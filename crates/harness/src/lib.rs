//! # harness — regenerates every table and figure of the paper
//!
//! Everything runs through one binary, `dsm`, whose subcommands are
//! the entry points below (see [`cli`] for the shared command line):
//!
//! | `dsm` command | paper artifact |
//! |---|---|
//! | `table1` | Table 1: data-set sizes and sequential times |
//! | `figure1` | Figure 1: 8-processor speedups, regular apps |
//! | `table2` | Table 2: message/data totals, regular apps |
//! | `figure2_table3` | Figure 2 + Table 3: irregular apps |
//! | `handopt` | §5 "Results of Hand Optimizations" |
//! | `interface_ablation` | §2.3 fork-join interface ablation |
//! | `compiler_opt` | conclusion: SPF vs SPF+CRI vs hand-coded MPL |
//! | `protocol_compare` | LRC vs HLRC protocol comparison (extension) |
//! | `scaling` | 1..8-processor scaling study (extension) |
//! | `page_size` | page-size ablation (extension) |
//! | `races` | race-detection gate over every app and protocol |
//! | `sweep` | simulator-throughput trajectory (`BENCH_sweep.json`, [`bench_sweep`]) |
//! | `trace` | virtual-time breakdown and Perfetto export ([`trace_analysis`]) |
//! | `analyze` | critical path and sharing diagnostics ([`critical_path`]) |
//! | `all` | every table above, in order |
//!
//! Each table command lists the simulations it needs, runs them through
//! one parallel job runner ([`sweep_map`]: one single-threaded
//! simulation per core on the sequential engine) and renders the
//! results as aligned text with [`report`];
//! `cargo run --release -p harness --bin dsm -- all` prints the whole
//! suite.
//!
//! Problem scale: the commands that run simulations take a `scale`
//! (1.0 = paper sizes).
//! Because virtual time is simulated, speedups are deterministic; small
//! scales run in seconds and preserve the paper's qualitative shape,
//! while `scale = 1.0` reproduces the calibrated magnitudes.

mod baseline;
pub mod bench_sweep;
pub mod cli;
pub mod critical_path;
pub mod json;
pub mod report;
pub mod sweep;
pub mod trace_analysis;

pub use bench_sweep::{CellSpec, SweepCell, SweepDoc};
pub use critical_path::{check_dag, CriticalPath, DagCheck, Segment, SegmentKind};
pub use json::Json;
pub use report::{render_table, Table};
pub use sweep::{longest_first, sweep_map};
pub use trace_analysis::{
    analyze, to_chrome_trace, validate_chrome_trace, EpochBreakdown, NodeBreakdown, TraceAnalysis,
};
