//! The HFetch benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <stage|patterns|wrf_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs a warm-up pass, repeats the workload for
//! `--seconds` and prints the end-to-end metrics, with host times in
//! reference seconds (see `speed.rs`). With `--trace 1` it alternates
//! untraced and traced passes, then replays the workload on real threads
//! (`stage` and `wrf_rw`, for a third of the time), and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the exit code is 1 when an output check failed. See README.md
//! for the workloads and what each metric should move.

mod cells;
mod real;
mod speed;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cells::{Cell, Exact};
use trace::Timed;

/// End-to-end metrics, `(name, unit)`, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("sim_makespan_s", "sim_s"),
    ("sim_read_ms_mean", "sim_ms"),
    ("hit_ratio", "ratio"),
    ("prefetch_amplification", "ratio"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, printed with `--trace 1`. A metric
/// that does not apply to a workload reads 0.
const PER_LAYER: [(&str, &str); 60] = [
    ("sim.dispatch_self_ns", "ns"),
    ("sim.events", "count"),
    ("sim.transfers", "count"),
    ("sim.denied_bytes", "bytes"),
    ("policy.on_open.calls", "count"),
    ("policy.on_open.ns", "ns"),
    ("policy.on_read.calls", "count"),
    ("policy.on_read.ns", "ns"),
    ("policy.on_write.calls", "count"),
    ("policy.on_write.ns", "ns"),
    ("policy.on_close.calls", "count"),
    ("policy.on_close.ns", "ns"),
    ("policy.on_tick.calls", "count"),
    ("policy.on_tick.ns", "ns"),
    ("policy.on_transfer_done.calls", "count"),
    ("policy.on_transfer_done.ns", "ns"),
    ("policy.engine_runs", "count"),
    ("policy.actions_executed", "count"),
    ("engine.placed_segments", "count"),
    ("auditor.start_epoch.calls", "count"),
    ("auditor.start_epoch.ns", "ns"),
    ("auditor.staged_updates", "count"),
    ("auditor.observe_read.calls", "count"),
    ("auditor.observe_read.ns", "ns"),
    ("auditor.observe_write.calls", "count"),
    ("auditor.observe_write.ns", "ns"),
    ("auditor.drain_updates.calls", "count"),
    ("auditor.drain_updates.ns", "ns"),
    ("auditor.drained_updates", "count"),
    ("auditor.locks_per_event", "ratio"),
    ("engine.run.calls", "count"),
    ("engine.run.ns", "ns"),
    ("engine.actions", "count"),
    ("engine.evict_file.calls", "count"),
    ("engine.evict_file.ns", "ns"),
    ("engine.action_yield", "ratio"),
    ("staging.yield", "ratio"),
    ("effect.reads.timely_hit", "count"),
    ("effect.reads.late_hit", "count"),
    ("effect.reads.demoted_hit", "count"),
    ("effect.reads.miss", "count"),
    ("effect.prefetch.wasted_frac", "ratio"),
    ("agent.read.calls", "count"),
    ("agent.read.p50_us", "us"),
    ("agent.read.p99_us", "us"),
    ("server.events_per_s", "1/s"),
    ("server.quiesce_ns", "ns"),
    ("server.engine_runs", "count"),
    ("server.prefetched_bytes", "bytes"),
    ("server.denied_fetches", "count"),
    ("server.failed_fetches", "count"),
    ("server.retried_copies", "count"),
    ("server.hit_ratio", "ratio"),
    ("server.locks_per_event", "ratio"),
    ("queue.pushed", "count"),
    ("queue.popped", "count"),
    ("queue.dropped", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
    ("replay.engine_runs_delta", "count"),
];

/// The read classes of `sim::effect`, as the recorder names them.
const EFFECT_READS: [&str; 4] = [
    "effect.reads.timely_hit",
    "effect.reads.late_hit",
    "effect.reads.demoted_hit",
    "effect.reads.miss",
];

const USAGE: &str = "usage: perfbench --workload <stage|patterns|wrf_rw> \
                     --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The median; 0 for no samples.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Outcome checks, counted against what was attempted.
#[derive(Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("check failed: {what}: {e}");
        }
    }
}

/// One untraced pass over a workload's cells.
struct Pass {
    /// Set-up time summed over the cells, in reference seconds; 0 when
    /// not normalized.
    setup: f64,
    /// Wall time of `Simulation::run`, per cell.
    walls: Vec<Duration>,
    /// The same, in reference seconds; empty when not normalized.
    reference_walls: Vec<f64>,
    exact: Exact,
}

/// One traced pass: exact counters (gated) and host-time metrics
/// (reported as medians over passes).
#[derive(Default)]
struct TracedPass {
    walls: Vec<Duration>,
    exact: Exact,
    counts: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
}

/// With `normalized`, the reference kernel runs before the first cell and
/// after each cell, and each cell's host times are also converted into
/// reference seconds by the kernel runs on either side of it.
fn sim_pass(cells: &[Cell], checks: &mut Checks, normalized: bool) -> Pass {
    let mut pass = Pass {
        setup: 0.0,
        walls: Vec::new(),
        reference_walls: Vec::new(),
        exact: Exact::default(),
    };
    let mut before = if normalized {
        speed::reference()
    } else {
        Duration::ZERO
    };
    for cell in cells {
        let start = Instant::now();
        let sim = cell.prepare(None, |p| p);
        let setup = start.elapsed();
        let (report, policy, wall) = cells::run(sim);
        pass.walls.push(wall);
        checks.check("sim cell", cells::check(&report, &policy, cell.reads));
        pass.exact.add(&report);
        if normalized {
            let after = speed::reference();
            pass.setup += speed::normalize(setup, before, after);
            pass.reference_walls
                .push(speed::normalize(wall, before, after));
            before = after;
        }
    }
    pass
}

/// Per cell: a timed run, a run with the recorder on for the effect
/// classes, and the replay of the timed run's callback stream. The
/// recorder gets a run of its own so that its cost stays out of the
/// timed run. Also returns each cell's recorded callback stream.
fn traced_sim_pass(cells: &[Cell], checks: &mut Checks) -> (TracedPass, Vec<Vec<trace::Call>>) {
    let mut t = TracedPass::default();
    let mut streams = Vec::new();
    let mut recorded = Exact::default();
    let (mut callback_ns, mut locks, mut replay_events, mut replay_runs) = (0, 0, 0, 0);
    let (mut wasted, mut landed, mut timed_ns, mut replay_ns) = (0, 0, 0, 0);
    for cell in cells {
        let (report, timed, wall) = cells::run(cell.prepare(None, Timed::new));
        t.walls.push(wall);
        checks.check(
            "traced sim cell",
            cells::check(&report, &timed.inner, cell.reads),
        );
        t.exact.add(&report);
        callback_ns += timed.callback_ns();
        for ((calls, ns), s) in trace::CALLBACKS.into_iter().zip(timed.callbacks) {
            *t.counts.entry(calls).or_default() += s.calls as f64;
            *t.values.entry(ns).or_default() += s.ns as f64;
        }
        *t.counts.entry("policy.engine_runs").or_default() += timed.inner.engine().runs() as f64;
        *t.counts.entry("policy.actions_executed").or_default() +=
            timed.inner.actions_executed() as f64;
        *t.counts.entry("engine.placed_segments").or_default() += timed.peak_placed as f64;

        let replay = trace::replay(&timed.calls, &cell.cfg, &cell.hierarchy);
        replay.export(&mut t.counts, &mut t.values);
        locks += replay.locks;
        replay_events += replay.events;
        replay_runs += replay.engine_runs;
        replay_ns += replay.wall_ns;
        timed_ns += replay.timed_ns();
        streams.push(timed.calls);

        let rec = obs::Recorder::enabled();
        let (report, policy, _) = cells::run(cell.prepare(Some(&rec), |p| p));
        checks.check(
            "recorded sim cell",
            cells::check(&report, &policy, cell.reads),
        );
        recorded.add(&report);
        let obs = rec.report();
        let counter = |name: &str| obs.counter(name).unwrap_or(0) as f64;
        for name in EFFECT_READS {
            *t.counts.entry(name).or_default() += counter(name);
        }
        for tier in 0..cell.hierarchy.len() {
            wasted += counter(&format!("effect.prefetch.wasted{{tier={tier}}}")) as u64;
            landed += counter(&format!("effect.prefetch.landed{{tier={tier}}}")) as u64;
        }
    }
    gate_exact(
        &t.exact,
        [recorded].iter(),
        "recording leaves the outcome unchanged",
        checks,
    );
    let e = t.exact;
    let c = &mut t.counts;
    c.insert("sim.events", e.events as f64);
    c.insert("sim.transfers", e.prefetch_transfers as f64);
    c.insert("sim.denied_bytes", e.denied_bytes as f64);
    c.insert(
        "auditor.locks_per_event",
        cells::ratio(locks as f64, replay_events as f64),
    );
    c.insert(
        "engine.action_yield",
        cells::ratio(c["policy.actions_executed"], c["engine.actions"]),
    );
    c.insert(
        "staging.yield",
        cells::ratio(c["engine.placed_segments"], c["auditor.staged_updates"]),
    );
    c.insert(
        "effect.prefetch.wasted_frac",
        cells::ratio(wasted as f64, landed as f64),
    );
    c.insert(
        "replay.engine_runs_delta",
        replay_runs as f64 - c["policy.engine_runs"],
    );
    let dispatch = t.walls.iter().sum::<Duration>().as_nanos() as u64 - callback_ns;
    t.values.insert("sim.dispatch_self_ns", dispatch as f64);
    t.values.insert(
        "trace.coverage_frac",
        cells::ratio(timed_ns as f64, replay_ns as f64),
    );
    (t, streams)
}

/// The host time of one pass at its fastest: per cell, the shortest
/// `Simulation::run` wall time over the passes, summed over the cells.
fn fastest_seconds<'a>(passes: impl Iterator<Item = &'a [Duration]>) -> f64 {
    let mut fastest: Vec<Duration> = Vec::new();
    for walls in passes {
        fastest.resize(walls.len(), Duration::MAX);
        for (best, wall) in fastest.iter_mut().zip(walls) {
            *best = (*best).min(*wall);
        }
    }
    fastest.iter().sum::<Duration>().as_secs_f64()
}

/// Runs `pass` at least once and until `budget` has elapsed.
fn repeat<T>(budget: Duration, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = vec![pass()];
    while start.elapsed() < budget {
        out.push(pass());
    }
    out
}

/// The exactness gate: every pass of one seed must reproduce the first
/// pass's simulated outcome bit for bit.
fn gate_exact<'a>(
    first: &Exact,
    rest: impl Iterator<Item = &'a Exact>,
    what: &str,
    checks: &mut Checks,
) {
    for exact in rest {
        checks.check(
            what,
            if exact == first {
                Ok(())
            } else {
                Err(format!("{exact:?} != {first:?}"))
            },
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Whether `--trace 1` also replays the workload on real threads. One
    // real replay of `patterns` takes over two minutes: ~37,000 of its
    // fetches are denied for capacity, and `do_fetch` backs off 7 ms on
    // each before giving up.
    let (cells, replays_real) = match args.workload.as_str() {
        "stage" => (cells::stage(), true),
        "patterns" => (cells::patterns(args.seed), false),
        "wrf_rw" => (cells::wrf_rw(), true),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut checks = Checks::default();

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        // A warm-up pass, without the reference kernel, so that the peak
        // resident memory is the workload's own.
        let exact = sim_pass(&cells, &mut checks, false).exact;
        let rss = peak_rss_mib();
        let passes = repeat(budget, || sim_pass(&cells, &mut checks, true));
        gate_exact(
            &exact,
            passes.iter().map(|p| &p.exact),
            "exact metrics repeat",
            &mut checks,
        );
        // Per cell, the median over passes of its time in reference
        // seconds, summed over the cells.
        let seconds: f64 = (0..cells.len())
            .map(|c| median(passes.iter().map(|p| p.reference_walls[c]).collect()))
            .sum();
        let rate = cells::ratio(exact.events as f64, seconds);
        let setup = median(passes.iter().map(|p| p.setup).collect());
        println!(
            "{} seed {}: {} passes; events_per_s counts {} delivered events per pass, \
             per reference second ({} s of the reference kernel)",
            args.workload,
            args.seed,
            passes.len(),
            exact.events,
            speed::REFERENCE_S
        );
        let values = [
            rate,
            setup,
            rss,
            exact.makespan_s(),
            exact.read_ms_mean(),
            exact.hit_ratio(),
            exact.amplification(),
            1.0 - cells::ratio(checks.failed as f64, checks.attempted as f64),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    } else {
        // Untraced and traced passes alternate, so that both see the same
        // interference from other tenants of the machine.
        let sim_share = if replays_real { budget * 2 / 3 } else { budget };
        let mut calls = None;
        let (untraced_passes, traced): (Vec<_>, Vec<_>) = repeat(sim_share, || {
            let untraced = sim_pass(&cells, &mut checks, false);
            let (traced, streams) = traced_sim_pass(&cells, &mut checks);
            calls.get_or_insert(streams);
            (untraced, traced)
        })
        .into_iter()
        .unzip();
        let calls = calls.expect("at least one traced pass");
        let real: Vec<_> = if replays_real {
            repeat(budget / 3, || real::pass(&cells, &calls, &mut checks))
                .into_iter()
                .map(real::RealPass::metrics)
                .collect()
        } else {
            Vec::new()
        };
        let exact = untraced_passes[0].exact;
        gate_exact(
            &exact,
            untraced_passes[1..].iter().map(|p| &p.exact),
            "exact metrics repeat",
            &mut checks,
        );
        gate_exact(
            &exact,
            traced.iter().map(|p| &p.exact),
            "tracing leaves the outcome unchanged",
            &mut checks,
        );
        for t in &traced[1..] {
            checks.check(
                "per-layer counts repeat",
                if t.counts == traced[0].counts {
                    Ok(())
                } else {
                    Err("counts differ".into())
                },
            );
        }
        let untraced_wall = fastest_seconds(untraced_passes.iter().map(|p| &p.walls[..]));
        let traced_wall = fastest_seconds(traced.iter().map(|p| &p.walls[..]));
        println!(
            "{} seed {}: {} untraced + {} traced passes + {} real-thread replays",
            args.workload,
            args.seed,
            untraced_passes.len(),
            traced.len(),
            real.len()
        );
        for (name, unit) in PER_LAYER {
            let value = if name == "trace.overhead_frac" {
                cells::ratio(traced_wall, untraced_wall) - 1.0
            } else if let Some(v) = traced[0].counts.get(name) {
                *v
            } else if traced[0].values.contains_key(name) {
                median(traced.iter().map(|p| p.values[name]).collect())
            } else {
                // Real-thread metrics; 0 without real replays.
                median(real.iter().map(|m| m[name]).collect())
            };
            metrics.push((name, value, unit));
        }
        let computed = traced[0].counts.keys().chain(traced[0].values.keys());
        for key in computed.chain(real.iter().flat_map(|m| m.keys())) {
            assert!(
                metrics.iter().any(|(name, _, _)| name == key),
                "metric {key} is computed but not reported"
            );
        }
    }

    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>20.6} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = checks.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
