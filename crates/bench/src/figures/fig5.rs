//! Fig. 5: application-centric vs data-centric prefetching.
//!
//! "We have 2560 processes in total organized in four different
//! communicator groups representing different applications … Each process
//! issues read requests on the same dataset. We tested four commonly-used
//! patterns: sequential, strided, repetitive, and irregular access
//! patterns. The prefetching cache size is configured to fit the total
//! data size of two out of the four applications … For HFetch the
//! prefetching cache is configured to fit one application's load in RAM
//! and one in NVMe." (§IV-A.3)
//!
//! Expected shape: HFetch ~26% faster on sequential/strided/repetitive
//! with a near-100% hit ratio vs the app-centric prefetcher's lower one;
//! both suffer on irregular, the app-centric approach more.

use std::time::Duration;

use baselines::app_centric::AppCentricPrefetcher;
use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use tiers::topology::Hierarchy;
use tiers::units::{fmt_bytes, mib, MIB};
use workloads::patterns::{AccessPattern, PatternWorkload};

use crate::figures::{run_sim, Cell, Grid};
use crate::scale::BenchScale;
use crate::table::Table;

/// The four patterns of the figure.
pub fn patterns() -> Vec<AccessPattern> {
    vec![
        AccessPattern::Sequential,
        AccessPattern::Strided { stride: 4 },
        AccessPattern::Repetitive { laps: 4 },
        AccessPattern::Irregular,
    ]
}

/// Shared dataset size for a scale.
fn dataset_bytes(scale: BenchScale) -> u64 {
    match scale {
        BenchScale::Smoke => mib(64),
        BenchScale::Quick => mib(1024),
        BenchScale::Full => mib(8192),
    }
}

/// Builds the figure's pattern workload for a scale.
fn pattern_workload(scale: BenchScale, pattern: AccessPattern) -> PatternWorkload {
    PatternWorkload {
        pattern,
        processes: scale.max_ranks(),
        apps: 4,
        dataset: dataset_bytes(scale),
        request: MIB,
        requests_per_process: 32,
        compute: Duration::from_millis(50),
        seed: 0xF165,
    }
}

/// Fig. 5: 2 systems × 4 patterns; the HFetch (data-centric) cells are
/// traced as `fig5/{pattern}`.
pub fn grid(scale: BenchScale) -> Grid {
    let processes = scale.max_ranks();
    let nodes = scale.nodes(processes);
    let dataset = dataset_bytes(scale);
    // Cache fits "two of four applications": half the shared dataset.
    let app_cache = dataset / 2;
    let inflight = (nodes as usize) * 4;

    let mut cells = Vec::new();
    for pattern in patterns() {
        let (files, scripts) = pattern_workload(scale, pattern).build();
        cells.push(Cell::new({
            let (files, scripts) = (files.clone(), scripts.clone());
            move |rec| {
                let policy = AppCentricPrefetcher::new(8, MIB, inflight);
                run_sim(Hierarchy::ram_only(app_cache), nodes, files, scripts, policy, rec)
            }
        }));
        cells.push(Cell::traced(format!("fig5/{}", pattern.label()), move |rec| {
            // HFetch: one application's load in RAM, one in NVMe.
            let hier = Hierarchy::ram_nvme(dataset / 4, dataset / 4);
            let cfg = HFetchConfig {
                max_inflight_fetches: inflight,
                obs: rec.clone(),
                ..Default::default()
            };
            let policy = HFetchPolicy::new(cfg, &hier);
            run_sim(hier, nodes, files, scripts, policy, rec)
        }));
    }

    Grid::new(cells, move |reports| {
        let mut table = Table::new(
            format!("Fig 5: application-centric vs data-centric, {}", scale.label()),
            &["pattern", "app-centric (s)", "data-centric (s)", "app hit%", "data hit%"],
        );
        for (pattern, point) in patterns().into_iter().zip(reports.chunks_exact(2)) {
            let [app_centric, data_centric] = point else { unreachable!("chunks of 2") };
            table.row(vec![
                pattern.label().to_string(),
                format!("{:.3}", app_centric.seconds()),
                format!("{:.3}", data_centric.seconds()),
                format!("{:.1}", app_centric.hit_ratio().unwrap_or(0.0) * 100.0),
                format!("{:.1}", data_centric.hit_ratio().unwrap_or(0.0) * 100.0),
            ]);
        }
        table.note(format!(
            "{processes} processes in 4 apps over one {} dataset; app-centric cache {} RAM; \
             HFetch {} RAM + {} NVMe",
            fmt_bytes(dataset),
            fmt_bytes(app_cache),
            fmt_bytes(dataset / 4),
            fmt_bytes(dataset / 4),
        ));
        table.note("paper shape: data-centric ~26% faster on seq/strided/repetitive with higher \
                    hit ratio; both degrade on irregular, app-centric more");
        table
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_patterns() {
        let p = patterns();
        assert_eq!(p.len(), 4);
        assert_eq!(p[0].label(), "sequential");
        assert_eq!(p[3].label(), "irregular");
    }
}
