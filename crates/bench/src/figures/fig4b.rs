//! Fig. 4(b): extending the prefetching cache with more tiers.
//!
//! "We weak scale the I/O operations by scaling the number of client
//! processes. Each process sequentially reads 16MB in 4 time steps which
//! results in 40 GB of total I/O. We compare HFetch with these
//! prefetchers: a) in-memory optimal, where each process brings data into
//! its own cache, and b) in-memory naive, where each process competes for
//! access to the prefetching cache. The prefetching cache size for both
//! in-memory prefetchers is configured at 5 GB RAM space whereas for
//! HFetch we supplement it with 15 GB NVMe and 20 GB burst buffer space."
//! (§IV-A.2)
//!
//! Expected shape: at the smallest scale everything fits in RAM and all
//! systems tie; as scale grows the in-memory caches thrash — the naive
//! one eventually *loses to no-prefetching* — while HFetch overflows into
//! NVMe/BB and keeps its hit ratio (paper: 35% over optimal, 50% over
//! none at 2560).

use baselines::inmem::{InMemoryNaive, InMemoryOptimal};
use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use sim::policy::NoPrefetch;
use sim::script::{RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::topology::Hierarchy;
use tiers::units::{fmt_bytes, MIB};

use crate::figures::{overlap_compute, run_sim, Cell, Grid};
use crate::scale::BenchScale;
use crate::table::Table;

/// Per-rank volume (paper: 16 MB in 4 steps).
pub const PER_RANK: u64 = 16 * MIB;
/// Time steps per rank.
pub const STEPS: u32 = 4;

/// Builds the weak-scaled workload for one rank count.
pub fn workload(ranks: u32) -> (Vec<SimFile>, Vec<RankScript>) {
    let total = PER_RANK * ranks as u64;
    let request = PER_RANK / STEPS as u64;
    let compute = overlap_compute(request * ranks as u64);
    let files = vec![SimFile { id: FileId(0), size: total }];
    // Barrier-synchronized time steps (see fig4a).
    let scripts = (0..ranks)
        .map(|r| {
            let mut b = ScriptBuilder::new(ProcessId(r), AppId(0)).open(FileId(0));
            for step in 0..STEPS {
                b = b
                    .compute(compute)
                    .read(FileId(0), r as u64 * PER_RANK + step as u64 * request, request)
                    .barrier(step);
            }
            b.close(FileId(0)).build()
        })
        .collect();
    (files, scripts)
}

/// Fig. 4(b): 4 systems × the rank ladder, none traced.
pub fn grid(scale: BenchScale) -> Grid {
    let (ram, nvme, bb) = scale.fig4a_hfetch_budgets();
    let block = MIB; // in-memory prefetchers work in 1 MiB blocks

    let mut cells = Vec::new();
    for ranks in scale.rank_ladder() {
        let nodes = scale.nodes(ranks);
        let (files, scripts) = workload(ranks);
        // HFetch's I/O clients: 4 per node with a floor (a tiny cluster
        // still pipelines requests); the naive prefetcher is per-process
        // and uncoordinated, so its stream count scales with ranks.
        let hfetch_inflight = ((nodes as usize) * 4).max(32);
        let naive_inflight = ((ranks as usize) * 2).min(512);

        cells.push(Cell::new({
            let (files, scripts) = (files.clone(), scripts.clone());
            move |rec| run_sim(Hierarchy::ram_only(ram), nodes, files, scripts, NoPrefetch, rec)
        }));
        cells.push(Cell::new({
            let (files, scripts) = (files.clone(), scripts.clone());
            move |rec| {
                let policy = InMemoryNaive::new(8, block, naive_inflight);
                run_sim(Hierarchy::ram_only(ram), nodes, files, scripts, policy, rec)
            }
        }));
        cells.push(Cell::new({
            let (files, scripts) = (files.clone(), scripts.clone());
            move |rec| {
                let policy = InMemoryOptimal::new(ram, ranks, 4, block, 2);
                run_sim(Hierarchy::ram_only(ram), nodes, files, scripts, policy, rec)
            }
        }));
        cells.push(Cell::new(move |rec| {
            let hier = Hierarchy::with_budgets(ram, nvme, bb);
            let cfg = HFetchConfig {
                max_inflight_fetches: hfetch_inflight,
                obs: rec.clone(),
                ..Default::default()
            };
            let policy = HFetchPolicy::new(cfg, &hier);
            run_sim(hier, nodes, files, scripts, policy, rec)
        }));
    }

    Grid::new(cells, move |reports| {
        let mut table = Table::new(
            format!("Fig 4(b): extending the prefetching cache, {}", scale.label()),
            &["ranks", "none (s)", "naive (s)", "optimal (s)", "hfetch (s)",
              "naive hit%", "optimal hit%", "hfetch hit%"],
        );
        for (ranks, point) in scale.rank_ladder().into_iter().zip(reports.chunks_exact(4)) {
            let [none, naive, optimal, hfetch] = point else { unreachable!("chunks of 4") };
            table.row(vec![
                ranks.to_string(),
                format!("{:.3}", none.seconds()),
                format!("{:.3}", naive.seconds()),
                format!("{:.3}", optimal.seconds()),
                format!("{:.3}", hfetch.seconds()),
                format!("{:.1}", naive.hit_ratio().unwrap_or(0.0) * 100.0),
                format!("{:.1}", optimal.hit_ratio().unwrap_or(0.0) * 100.0),
                format!("{:.1}", hfetch.hit_ratio().unwrap_or(0.0) * 100.0),
            ]);
        }
        table.note(format!(
            "weak scaling, {} per rank in {STEPS} steps; in-memory caches {} RAM; HFetch adds {} NVMe + {} BB",
            fmt_bytes(PER_RANK),
            fmt_bytes(ram),
            fmt_bytes(nvme),
            fmt_bytes(bb),
        ));
        table.note("paper shape: ties at small scale; naive degrades below none at large scale; \
                    HFetch keeps hits via lower tiers (35% over optimal, 50% over none at max)");
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weak_scaling_grows_total() {
        let (f40, s40) = workload(40);
        let (f80, s80) = workload(80);
        assert_eq!(f80[0].size, 2 * f40[0].size);
        assert_eq!(s40[0].read_bytes(), s80[0].read_bytes(), "constant per-rank work");
        assert_eq!(s40[0].read_ops(), STEPS as usize);
    }
}
