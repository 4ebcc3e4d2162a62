//! Benchmark harness support: regenerates every figure of the HFetch paper.
//!
//! Each `figures::figNN` module reproduces one evaluation figure: it
//! builds the paper's workload as one grid of simulation cells (every
//! compared system × workload point) plus the renderer of the figure's
//! [`table::Table`], with the same rows/series the paper plots. Fig. 3a
//! instead measures real threads. The registry [`figures::FIGURES`] names
//! every figure: the `figNN` binaries and `all_figures` (which writes
//! `bench_results/`) regenerate tables from it, and [`trace`] runs the
//! HFetch cells of the same grids with observability on.
//!
//! Absolute numbers come from the simulated testbed; the reproduction
//! target is the *shape* — who wins, by roughly what factor, where
//! crossovers fall (see DESIGN.md §5 and EXPERIMENTS.md).
//!
//! Scale is controlled by `HFETCH_BENCH_SCALE`:
//! * `smoke` — seconds-scale CI plumbing runs,
//! * `quick` (default) — minutes-scale runs, rank ladder 40→320,
//! * `full` — the paper's ladder 320→2560 and data volumes.
//!
//! Worker-thread count for the parallel scenario runner is controlled by
//! `HFETCH_BENCH_THREADS` (default: available parallelism); table output
//! is byte-identical for any thread count. `BENCH_figures.json` and
//! `BENCH_sim_kernel.json` record the perf trajectory (see `perf`).

#![warn(missing_docs)]

pub mod chaos;
pub mod figures;
pub mod json;
pub mod obsdiff;
pub mod perf;
pub mod perfetto;
pub mod runner;
pub mod scale;
pub mod table;
pub mod trace;

pub use scale::BenchScale;
pub use table::Table;
