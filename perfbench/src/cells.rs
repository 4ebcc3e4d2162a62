//! The simulated workloads: each is a list of HFetch cells, one
//! `Simulation` run each, built from the public `workloads`, `sim`,
//! `tiers` and `hfetch-core` APIs.

use std::time::{Duration, Instant};

use hfetch_core::config::HFetchConfig;
use hfetch_core::policy::HFetchPolicy;
use sim::engine::{SimConfig, Simulation};
use sim::policy::PrefetchPolicy;
use sim::report::SimReport;
use sim::script::{Op, RankScript, ScriptBuilder, SimFile};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::tier::TierSpec;
use tiers::topology::Hierarchy;
use tiers::units::{gib, GIB, MIB};
use workloads::patterns::{AccessPattern, PatternWorkload};
use workloads::wrf::WrfWorkflow;

/// How a cell's rank scripts are generated (inside the timed set-up).
enum Script {
    /// The `sim_kernel` shape: ranks × timestep reads of one 64 GiB file.
    Stage {
        ranks: u32,
        reads: u32,
        compute: Duration,
    },
    /// One Fig. 5 access pattern.
    Pattern(PatternWorkload),
    /// Fig. 6(b) WRF.
    Wrf(WrfWorkflow),
}

impl Script {
    fn build(&self) -> (Vec<SimFile>, Vec<RankScript>) {
        match self {
            Script::Stage {
                ranks,
                reads,
                compute,
            } => {
                let files = vec![SimFile {
                    id: FileId(0),
                    size: gib(64),
                }];
                let scripts = (0..*ranks)
                    .map(|r| {
                        ScriptBuilder::new(ProcessId(r), AppId(0))
                            .open(FileId(0))
                            .timestep_reads(
                                FileId(0),
                                r as u64 * *reads as u64 * MIB,
                                MIB,
                                *reads,
                                *compute,
                            )
                            .close(FileId(0))
                            .build()
                    })
                    .collect();
                (files, scripts)
            }
            Script::Pattern(w) => w.build(),
            Script::Wrf(w) => w.build(),
        }
    }
}

/// One simulated HFetch run.
pub struct Cell {
    pub hierarchy: Hierarchy,
    nodes: u32,
    pub cfg: HFetchConfig,
    script: Script,
    /// The files the scripts access.
    pub files: Vec<SimFile>,
    /// Application reads in the scripts (checked against each report).
    pub reads: u64,
}

impl Cell {
    fn new(hierarchy: Hierarchy, nodes: u32, cfg: HFetchConfig, script: Script) -> Self {
        let (files, scripts) = script.build();
        let reads = scripts
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|op| matches!(op, Op::Read { .. }))
            .count() as u64;
        Self {
            hierarchy,
            nodes,
            cfg,
            script,
            files,
            reads,
        }
    }

    /// Generates the scripts and builds the policy and simulation: the
    /// timed set-up. With a recorder, both the simulator and the policy
    /// record into it.
    pub fn prepare<P: PrefetchPolicy>(
        &self,
        rec: Option<&obs::Recorder>,
        wrap: impl FnOnce(HFetchPolicy) -> P,
    ) -> Simulation<P> {
        let (files, scripts) = self.script.build();
        let mut config = SimConfig::new(self.hierarchy.clone()).with_nodes(self.nodes);
        let mut cfg = self.cfg.clone();
        if let Some(rec) = rec {
            config = config.with_obs(rec.clone());
            cfg.obs = rec.clone();
        }
        let policy = wrap(HFetchPolicy::new(cfg, &self.hierarchy));
        Simulation::new(config, files, scripts, policy)
    }
}

/// Runs a simulation, timing `Simulation::run` alone.
pub fn run<P: PrefetchPolicy>(sim: Simulation<P>) -> (SimReport, P, Duration) {
    let start = Instant::now();
    let (report, policy) = sim.run();
    (report, policy, start.elapsed())
}

/// The simulated outcome of one pass over a workload's cells: integer
/// sums, so two passes compare bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exact {
    pub makespan_ns: u128,
    pub read_time_ns: u128,
    pub read_requests: u64,
    pub bytes_requested: u64,
    pub hit_bytes: u64,
    pub prefetch_bytes: u64,
    pub prefetch_transfers: u64,
    pub denied_bytes: u64,
    pub events: u64,
}

impl Exact {
    pub fn add(&mut self, r: &SimReport) {
        self.makespan_ns += r.makespan.as_nanos();
        self.read_time_ns += r.read_time.as_nanos();
        self.read_requests += r.read_requests;
        self.bytes_requested += r.bytes_requested;
        self.hit_bytes += r.hit_bytes();
        self.prefetch_bytes += r.prefetch_bytes;
        self.prefetch_transfers += r.prefetch_transfers;
        self.denied_bytes += r.denied_bytes;
        self.events += r.events_delivered;
    }

    pub fn makespan_s(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }

    pub fn read_ms_mean(&self) -> f64 {
        ratio(self.read_time_ns as f64 / 1e6, self.read_requests as f64)
    }

    pub fn hit_ratio(&self) -> f64 {
        ratio(self.hit_bytes as f64, self.bytes_requested as f64)
    }

    pub fn amplification(&self) -> f64 {
        ratio(self.prefetch_bytes as f64, self.bytes_requested as f64)
    }
}

/// `a / b`, or 0 when `b` is 0 (keeps the JSON output finite).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The output checks for one cell. Returns a description of the first
/// failed check.
pub fn check(report: &SimReport, policy: &HFetchPolicy, scripted_reads: u64) -> Result<(), String> {
    let served = report.hit_bytes() + report.miss_bytes();
    if served != report.bytes_requested {
        return Err(format!(
            "hit {} + miss {} != requested {}",
            report.hit_bytes(),
            report.miss_bytes(),
            report.bytes_requested
        ));
    }
    if report.read_requests != scripted_reads {
        return Err(format!(
            "{} reads served, {} scripted",
            report.read_requests, scripted_reads
        ));
    }
    policy.engine().check_invariants()
}

/// `stage`: 64 ranks × 16 × 1 MiB timestep reads of one 64 GiB file over
/// 1/2/4 GiB RAM/NVMe/burst-buffer tiers, default HFetch configuration.
/// Its access order is fixed, so it takes no seed.
pub fn stage() -> Vec<Cell> {
    let ranks = 64u32;
    vec![Cell::new(
        Hierarchy::with_budgets(gib(1), gib(2), gib(4)),
        ranks.div_ceil(40),
        HFetchConfig::default(),
        Script::Stage {
            ranks,
            reads: 16,
            compute: Duration::from_millis(1),
        },
    )]
}

/// `patterns`: Fig. 5 at paper scale, one HFetch cell per pattern.
pub fn patterns(seed: u64) -> Vec<Cell> {
    let processes = 2560u32;
    let nodes = processes.div_ceil(40);
    let dataset = gib(8);
    [
        AccessPattern::Sequential,
        AccessPattern::Strided { stride: 4 },
        AccessPattern::Repetitive { laps: 4 },
        AccessPattern::Irregular,
    ]
    .into_iter()
    .map(|pattern| {
        Cell::new(
            Hierarchy::ram_nvme(dataset / 4, dataset / 4),
            nodes,
            HFetchConfig {
                max_inflight_fetches: nodes as usize * 4,
                ..Default::default()
            },
            Script::Pattern(PatternWorkload {
                pattern,
                processes,
                apps: 4,
                dataset,
                request: MIB,
                requests_per_process: 32,
                compute: Duration::from_millis(50),
                seed,
            }),
        )
    })
    .collect()
}

/// `wrf_rw`: Fig. 6(b) WRF at 2,560 ranks over 1.25 GiB RAM + 2 GiB NVMe
/// with a burst-buffer backing store, using the figure's HFetch tuning.
/// Its access order is fixed, so it takes no seed.
pub fn wrf_rw() -> Vec<Cell> {
    let processes = 2560u32;
    let nodes = processes.div_ceil(40);
    let inflight = (nodes as usize * 4).max(64);
    let bytes_per_step = gib(20);
    // The figure's compute window: one step's model-rank quarter of the
    // data at the burst buffers' ~5 GiB/s aggregate bandwidth.
    let compute = Duration::from_secs_f64((bytes_per_step / 4) as f64 / (5 * GIB) as f64);
    let request = 8 * MIB;
    vec![Cell::new(
        Hierarchy::new(vec![
            TierSpec::ram(gib(5) / 4),
            TierSpec::nvme(gib(2)),
            TierSpec::bb_backing(),
        ])
        .expect("valid bb-backed hierarchy"),
        nodes,
        HFetchConfig {
            max_inflight_fetches: inflight,
            segment_size: request,
            lookahead: 2,
            epoch_base_score: 0.0,
            evict_on_epoch_end: false,
            ..Default::default()
        },
        Script::Wrf(WrfWorkflow {
            processes,
            bytes_per_step,
            time_steps: 4,
            request,
            iterations: 2,
            compute,
        }),
    )]
}
