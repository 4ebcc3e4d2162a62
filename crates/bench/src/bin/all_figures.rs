//! Regenerates every figure of the paper, writes `bench_results/`, and
//! records the wall-clock perf trajectory in `BENCH_figures.json`.
//!
//! Knobs: `HFETCH_BENCH_SCALE` (smoke/quick/full) picks the workload
//! scale; `HFETCH_BENCH_THREADS` caps the parallel scenario runner (the
//! table outputs are byte-identical for any thread count).

use std::time::Instant;

use bench_support::perf::{Metric, PerfReport};
use bench_support::{figures, runner, table, BenchScale};

fn main() {
    let scale = BenchScale::from_env();
    let threads = runner::threads_from_env();
    println!(
        "Regenerating all figures at scale: {} ({} runner thread{})\n",
        scale.label(),
        threads,
        if threads == 1 { "" } else { "s" },
    );

    let mut perf = PerfReport::new("hfetch-bench-figures/1")
        .context("scale", scale.label())
        .context("threads", threads.to_string());
    let total = Instant::now();
    for figure in figures::FIGURES {
        let start = Instant::now();
        let rendered = figure.table(scale, threads);
        let wall = start.elapsed().as_secs_f64();
        rendered.save(figure.name).unwrap_or_else(|e| panic!("saving {}: {e}", figure.name));
        perf.push(Metric::new(figure.name, wall, "s"));
    }
    perf.push(Metric::new("total", total.elapsed().as_secs_f64(), "s"));
    perf.save(&table::results_dir(), "BENCH_figures.json").expect("perf record");
    println!("Results written to {}", table::results_dir().display());
}
