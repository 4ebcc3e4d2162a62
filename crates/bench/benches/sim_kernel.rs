//! Discrete-event simulator kernel throughput: events dispatched per
//! second of wall time, which bounds how large a cluster the figure
//! harnesses can replay. An event is one application open/read/write/close
//! the simulator delivered to the policy (`SimReport::events_delivered`,
//! counted on an untimed run of the same workload). The headline
//! `sim_kernel/hfetch_over_none/64` is HFetch's wall time over NoPrefetch's
//! on the same 64-rank workload.
//!
//! Alongside the end-to-end DES number, two ablations keep the hot-path
//! choices honest as bench comparisons rather than dead code:
//!
//! * `event_state_map/{fx,std}` — the per-event state maps (the
//!   residency map's `(file, tier)` sets, `inflight_any`, …) keyed by small
//!   integer ids, over the in-tree FxHash vs std's SipHash,
//! * `sim_kernel/hfetch/obs_{off,on}` — the same DES workload through the
//!   full HFetch policy with the observability recorder disabled (the
//!   default: instrumented call sites pay one branch) vs enabled (typed
//!   placement trace + metrics recorded). The gap is the cost contract of
//!   `crates/obs`; the disabled side must track `no_prefetch` scaling.
//!
//! Results are printed criterion-style and recorded in
//! `BENCH_sim_kernel.json` under the results directory so successive
//! commits leave a comparable perf trajectory. `--test` runs each
//! measurement once (plumbing mode).

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Duration;

use bench_support::perf::{Metric, PerfReport};
use bench_support::table::results_dir;
use criterion::{black_box, measure, Bencher, Measurement};
use dht::FxHasher;
use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use sim::engine::{SimConfig, Simulation};
use sim::policy::NoPrefetch;
use sim::report::SimReport;
use sim::script::{RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::topology::Hierarchy;
use tiers::units::{gib, MIB};

fn workload(ranks: u32, reads_per_rank: u32) -> (Vec<SimFile>, Vec<RankScript>) {
    let files = vec![SimFile { id: FileId(0), size: gib(64) }];
    let scripts = (0..ranks)
        .map(|r| {
            ScriptBuilder::new(ProcessId(r), AppId(0))
                .open(FileId(0))
                .timestep_reads(
                    FileId(0),
                    r as u64 * reads_per_rank as u64 * MIB,
                    MIB,
                    reads_per_rank,
                    Duration::from_millis(1),
                )
                .close(FileId(0))
                .build()
        })
        .collect();
    (files, scripts)
}

/// The DES per-event state access pattern: upsert into a pair-keyed and a
/// scalar-keyed map per event, periodic lookup + removal — the shape of
/// residency (`(file, tier)`-keyed) and `inflight_any` (file-keyed)
/// maintenance in `sim`.
fn state_map_workout<S: std::hash::BuildHasher + Default>(files: u32, ops: u32) -> u64 {
    let mut by_pair: HashMap<(u32, u32), u64, S> = HashMap::default();
    let mut by_file: HashMap<u32, u64, S> = HashMap::default();
    let mut acc = 0u64;
    for i in 0..ops {
        let f = i.wrapping_mul(2654435761) % files;
        let t = i % 3;
        *by_pair.entry((f, t)).or_insert(0) += 1;
        *by_file.entry(f).or_insert(0) += 1;
        if i % 4 == 0 {
            acc += by_pair.get(&(f, t)).copied().unwrap_or(0);
            by_file.remove(&((f + 1) % files));
        }
    }
    acc + by_pair.len() as u64 + by_file.len() as u64
}

struct Bench {
    perf: PerfReport,
    test_mode: bool,
}

impl Bench {
    fn run(
        &mut self,
        name: &str,
        unit_label: &str,
        units_per_iter: f64,
        f: impl FnMut(&mut Bencher),
    ) -> Measurement {
        let m = measure(self.test_mode, f);
        let rate = units_per_iter / m.mean.as_secs_f64();
        println!(
            "{name:<40} time: {:>12.3?}  rate: {rate:.3e} {unit_label}{}",
            m.mean,
            if self.test_mode { "  [test mode: 1 iter]" } else { "" },
        );
        self.perf.push(Metric::new(name, rate, unit_label));
        m
    }
}

fn main() {
    let test_mode = std::env::args().skip(1).any(|a| a == "--test");
    let mut bench = Bench {
        perf: PerfReport::new("hfetch-bench-sim-kernel/1")
            .context("mode", if test_mode { "test" } else { "full" }),
        test_mode,
    };

    // End-to-end DES throughput.
    let reads = 16u32;
    let mut none_64 = Duration::ZERO;
    for ranks in [64u32, 512] {
        let run = || {
            let (files, scripts) = workload(ranks, reads);
            let config = SimConfig::new(Hierarchy::with_budgets(gib(1), gib(2), gib(4)))
                .with_nodes(ranks.div_ceil(40).max(1));
            Simulation::new(config, files, scripts, NoPrefetch).run().0
        };
        let events = run().events_delivered as f64;
        let m = bench.run(&format!("sim_kernel/no_prefetch/{ranks}"), "events_per_s", events, |b| {
            b.iter(|| run().makespan)
        });
        if ranks == 64 {
            none_64 = m.mean;
        }
    }

    // Ablation 1: hasher for the per-event state maps.
    let ops = 40_000u32;
    bench.run("event_state_map/fx", "ops_per_s", ops as f64, |b| {
        b.iter(|| state_map_workout::<BuildHasherDefault<FxHasher>>(black_box(256), ops))
    });
    bench.run("event_state_map/std", "ops_per_s", ops as f64, |b| {
        b.iter(|| state_map_workout::<std::hash::RandomState>(black_box(256), ops))
    });

    // Ablation 2: observability cost contract — HFetch end to end with
    // the recorder disabled vs enabled. A fresh recorder per iteration so
    // the enabled side pays allocation + every record, not amortization.
    let ranks = 64u32;
    let run_with = |rec: obs::Recorder| -> SimReport {
        let (files, scripts) = workload(ranks, reads);
        let hierarchy = Hierarchy::with_budgets(gib(1), gib(2), gib(4));
        let config = SimConfig::new(hierarchy.clone())
            .with_nodes(ranks.div_ceil(40).max(1))
            .with_obs(rec.clone());
        let policy =
            HFetchPolicy::new(HFetchConfig { obs: rec, ..Default::default() }, &hierarchy);
        Simulation::new(config, files, scripts, policy).run().0
    };
    let events = run_with(obs::Recorder::disabled()).events_delivered as f64;
    let hfetch = bench.run("sim_kernel/hfetch/obs_off", "events_per_s", events, |b| {
        b.iter(|| run_with(obs::Recorder::disabled()).makespan)
    });
    // Headline: what HFetch's policy work costs on top of the bare DES,
    // as a wall-time ratio over the same 64-rank workload.
    let ratio = hfetch.mean.as_secs_f64() / none_64.as_secs_f64();
    println!("{:<40} ratio: {ratio:.1}x", "sim_kernel/hfetch_over_none/64");
    bench.perf.push(Metric::new("sim_kernel/hfetch_over_none/64", ratio, "x"));
    bench.run("sim_kernel/hfetch/obs_on", "events_per_s", events, |b| {
        b.iter(|| run_with(obs::Recorder::enabled()).makespan)
    });

    bench.perf.save(&results_dir(), "BENCH_sim_kernel.json").expect("perf record");
}
