//! Application-centric vs data-centric prefetching across access patterns.
//!
//! ```text
//! cargo run --release --example access_patterns
//! ```
//!
//! A miniature of the paper's Fig. 5: four applications issue the same
//! sequential / strided / repetitive / irregular request streams over one
//! shared dataset. The application-centric stride prefetcher optimizes
//! each application in isolation; HFetch scores segments globally.

use std::time::Duration;

use hfetch::prelude::*;

fn main() {
    let dataset = mib(256);
    println!(
        "{:<12} {:>14} {:>14} {:>10} {:>10}",
        "pattern", "app-centric(s)", "data-centric(s)", "app hit%", "data hit%"
    );
    for pattern in [
        AccessPattern::Sequential,
        AccessPattern::Strided { stride: 4 },
        AccessPattern::Repetitive { laps: 4 },
        AccessPattern::Irregular,
    ] {
        let workload = PatternWorkload {
            pattern,
            processes: 64,
            apps: 4,
            dataset,
            request: MIB,
            requests_per_process: 32,
            compute: Duration::from_millis(25),
            seed: 7,
        };
        let (files, scripts) = workload.build();

        // Application-centric: a per-app stride detector over a shared
        // RAM cache half the dataset's size.
        let flat = Hierarchy::ram_only(dataset / 2);
        let (app_centric, _) = Simulation::new(
            SimConfig::new(flat).with_nodes(2),
            files.clone(),
            scripts.clone(),
            AppCentricPrefetcher::new(8, MIB, 16),
        )
        .run();

        // Data-centric: HFetch with one application's load in RAM and one
        // in NVMe (the paper's Fig. 5 configuration).
        let hier = Hierarchy::ram_nvme(dataset / 4, dataset / 4);
        let (data_centric, _) = Simulation::new(
            SimConfig::new(hier.clone()).with_nodes(2),
            files,
            scripts,
            HFetchPolicy::new(
                HFetchConfig { max_inflight_fetches: 32, ..Default::default() },
                &hier,
            ),
        )
        .run();

        println!(
            "{:<12} {:>14.3} {:>14.3} {:>10.1} {:>10.1}",
            pattern.label(),
            app_centric.seconds(),
            data_centric.seconds(),
            app_centric.hit_ratio().unwrap_or(0.0) * 100.0,
            data_centric.hit_ratio().unwrap_or(0.0) * 100.0,
        );
    }
}
