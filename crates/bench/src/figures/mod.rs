//! One module per paper figure, and the registry [`FIGURES`] that names
//! them.
//!
//! Each simulated figure (3b, 4a, 4b, 5, 6a, 6b) builds its [`Grid`] once:
//! a list of independent [`Cell`]s (one policy × one workload point) plus
//! the renderer that turns their reports into the figure's [`Table`]. The
//! same grid serves two consumers:
//!
//! * [`Figure::table`] runs every cell with a disabled recorder, fanned
//!   across worker threads by [`crate::runner`]; reports come back in
//!   submission order, so the table is byte-identical for any thread count;
//! * [`crate::trace::run`] runs the cells that carry a trace label (the
//!   HFetch cells of Figs. 3b, 5, 6a and 6b) with enabled recorders.
//!
//! So the golden traces pin exactly the cells the tables report. Fig. 3a
//! is table-only: it measures *real* thread contention on the DHT and must
//! own the machine while it runs.

pub mod fig3a;
pub mod fig3b;
pub mod fig4a;
pub mod fig4b;
pub mod fig5;
pub mod fig6;

use std::time::Duration;

use sim::engine::{SimConfig, Simulation};
use sim::policy::PrefetchPolicy;
use sim::report::SimReport;
use sim::script::{RankScript, SimFile};
use tiers::topology::Hierarchy;
use tiers::units::GIB;

use crate::scale::BenchScale;
use crate::table::Table;

/// One simulation cell: one policy × one workload point. The body owns its
/// inputs (so it can run on any worker thread) and threads the recorder it
/// is given into both the simulator and, for HFetch, the policy.
pub struct Cell {
    /// Trace label (`fig5/sequential`, …); set on HFetch cells only.
    label: Option<String>,
    body: Box<dyn FnOnce(obs::Recorder) -> SimReport + Send>,
}

impl Cell {
    /// An unlabeled cell: reported in the table, never traced.
    pub fn new(body: impl FnOnce(obs::Recorder) -> SimReport + Send + 'static) -> Self {
        Self { label: None, body: Box::new(body) }
    }

    /// A cell the decision-trace harness also runs, under `label`.
    pub fn traced(
        label: String,
        body: impl FnOnce(obs::Recorder) -> SimReport + Send + 'static,
    ) -> Self {
        Self { label: Some(label), body: Box::new(body) }
    }

    /// Runs the cell with `rec` threaded through it.
    pub fn run(self, rec: obs::Recorder) -> SimReport {
        (self.body)(rec)
    }
}

/// Turns a grid's reports, in cell order, into the figure's table.
type Render = Box<dyn FnOnce(&[SimReport]) -> Table>;

/// A figure's cells and the renderer of their reports.
pub struct Grid {
    /// The cells, in the order the renderer expects their reports.
    cells: Vec<Cell>,
    render: Render,
}

impl Grid {
    /// Pairs `cells` with the renderer of their reports.
    pub fn new(cells: Vec<Cell>, render: impl FnOnce(&[SimReport]) -> Table + 'static) -> Self {
        Self { cells, render: Box::new(render) }
    }
}

/// How a registered figure produces its table.
enum Source {
    /// A grid of simulation cells.
    Grid(fn(BenchScale) -> Grid),
    /// A real-thread measurement (Fig. 3a).
    Measured(fn(BenchScale) -> Table),
}

/// A registered paper figure.
pub struct Figure {
    /// The figure's name: binary, artifact stem and trace-label prefix.
    pub name: &'static str,
    source: Source,
}

/// Every figure of the paper's evaluation, in `all_figures` order.
pub const FIGURES: &[Figure] = &[
    Figure { name: "fig3a", source: Source::Measured(fig3a::run) },
    Figure { name: "fig3b", source: Source::Grid(fig3b::grid) },
    Figure { name: "fig4a", source: Source::Grid(fig4a::grid) },
    Figure { name: "fig4b", source: Source::Grid(fig4b::grid) },
    Figure { name: "fig5", source: Source::Grid(fig5::grid) },
    Figure { name: "fig6a", source: Source::Grid(fig6::montage_grid) },
    Figure { name: "fig6b", source: Source::Grid(fig6::wrf_grid) },
];

/// Looks a figure up by name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

impl Figure {
    /// Regenerates the figure's table, fanning its cells across `threads`
    /// workers with disabled recorders. Output is identical for any thread
    /// count.
    pub fn table(&self, scale: BenchScale, threads: usize) -> Table {
        match self.source {
            Source::Measured(run) => run(scale),
            Source::Grid(grid) => {
                let Grid { cells, render } = grid(scale);
                let jobs = cells
                    .into_iter()
                    .map(|cell| crate::runner::job(move || cell.run(obs::Recorder::disabled())))
                    .collect();
                render(&crate::runner::run_jobs(jobs, threads))
            }
        }
    }

    /// The figure's labeled (traced) cells at `scale` with their labels,
    /// in grid order; empty for a figure without any.
    pub fn traced_cells(&self, scale: BenchScale) -> Vec<(String, Cell)> {
        match self.source {
            Source::Measured(_) => Vec::new(),
            Source::Grid(grid) => {
                grid(scale).cells.into_iter().filter_map(|c| Some((c.label.clone()?, c))).collect()
            }
        }
    }

    /// Regenerates the table at the environment's scale and thread count
    /// and writes it under the figure's name (the `figNN` binaries).
    pub fn save_from_env(&self) {
        self.table(BenchScale::from_env(), crate::runner::threads_from_env())
            .save(self.name)
            .unwrap_or_else(|e| panic!("saving {}: {e}", self.name));
    }
}

/// Runs one policy over one workload under the standard cluster model,
/// with `rec` threaded into the simulator so the fetch lifecycle lands in
/// the same artifact as the policy's placement decisions (pass a clone of
/// it to the policy too, e.g. via `HFetchConfig::obs`).
pub fn run_sim<P: PrefetchPolicy>(
    hierarchy: Hierarchy,
    nodes: u32,
    files: Vec<SimFile>,
    scripts: Vec<RankScript>,
    policy: P,
    rec: obs::Recorder,
) -> SimReport {
    let config = SimConfig::new(hierarchy).with_nodes(nodes).with_obs(rec);
    let (report, _) = Simulation::new(config, files, scripts, policy).run();
    report
}

/// Compute time that overlaps a PFS stage-in of `step_bytes` with 2×
/// headroom — the calibration used by Figs. 4a/4b so prefetchers have a
/// realistic window to work in (DESIGN.md §5). The paper's workloads
/// alternate compute and I/O; 2× slack matches its ~89% parallel-
/// prefetcher hit ratio.
pub fn overlap_compute(step_bytes: u64) -> Duration {
    // PFS aggregate ≈ 24 channels × 100 MiB/s ≈ 2.34 GiB/s.
    let pfs_aggregate = 2.34 * GIB as f64;
    Duration::from_secs_f64(step_bytes as f64 / pfs_aggregate * 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::gib;

    #[test]
    fn overlap_compute_scales_linearly() {
        let a = overlap_compute(gib(1));
        let b = overlap_compute(gib(2));
        assert!((b.as_secs_f64() / a.as_secs_f64() - 2.0).abs() < 1e-6);
        assert!(a.as_secs_f64() > 0.7 && a.as_secs_f64() < 1.0);
    }
}
