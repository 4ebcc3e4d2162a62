//! The traced run: times the calls into each layer from outside.
//!
//! * [`Timed`] forwards every `PrefetchPolicy` callback to `HFetchPolicy`
//!   and times it, so DES self time is the run's wall time minus the
//!   callbacks'. It also records the callback stream.
//! * [`replay`] feeds the recorded stream into a fresh `Auditor` and
//!   `PlacementEngine` the way `HFetchPolicy` drives them, timing each
//!   public call. Transfers are not replayed, so the replayed engine
//!   never sees capacity-denied placements being reconciled;
//!   `replay.engine_runs_delta` shows how far that moves the replay.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hfetch_core::auditor::Auditor;
use hfetch_core::config::HFetchConfig;
use hfetch_core::engine::PlacementEngine;
use hfetch_core::policy::HFetchPolicy;
use sim::engine::SimCtl;
use sim::policy::{PrefetchPolicy, TransferDone};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

/// Calls and summed wall time of one timed call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    pub calls: u64,
    pub ns: u64,
}

impl Stat {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(start.elapsed());
        r
    }
}

/// Who issued an application event, and when.
#[derive(Clone, Copy, Debug)]
pub struct By {
    pub process: ProcessId,
    pub app: AppId,
    pub now: Timestamp,
}

/// One recorded policy callback, as the replays need it.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    /// An open, with the file's size.
    Open(FileId, u64, By),
    Read(FileId, ByteRange, By),
    Write(FileId, ByteRange, By),
    Close(FileId, By),
    Tick(Timestamp),
}

/// The metric names of each timed callback, `(calls, ns)`, in the order
/// of [`Timed::callbacks`].
pub const CALLBACKS: [(&str, &str); 6] = [
    ("policy.on_open.calls", "policy.on_open.ns"),
    ("policy.on_read.calls", "policy.on_read.ns"),
    ("policy.on_write.calls", "policy.on_write.ns"),
    ("policy.on_close.calls", "policy.on_close.ns"),
    ("policy.on_tick.calls", "policy.on_tick.ns"),
    (
        "policy.on_transfer_done.calls",
        "policy.on_transfer_done.ns",
    ),
];

/// A forwarding policy that times each `HFetchPolicy` callback.
pub struct Timed {
    pub inner: HFetchPolicy,
    pub callbacks: [Stat; 6],
    /// Wall time inside `on_finish`.
    pub finish_ns: u64,
    pub calls: Vec<Call>,
    /// Largest `placed_segments()` seen after any callback.
    pub peak_placed: usize,
}

impl Timed {
    pub fn new(inner: HFetchPolicy) -> Self {
        Self {
            inner,
            callbacks: [Stat::default(); 6],
            finish_ns: 0,
            calls: Vec::new(),
            peak_placed: 0,
        }
    }

    fn done(&mut self, which: usize, start: Instant) {
        self.callbacks[which].add(start.elapsed());
        self.peak_placed = self.peak_placed.max(self.inner.engine().placed_segments());
    }

    /// Wall time spent inside callbacks, `on_finish` included.
    pub fn callback_ns(&self) -> u64 {
        self.callbacks.iter().map(|s| s.ns).sum::<u64>() + self.finish_ns
    }
}

impl PrefetchPolicy for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_open(
        &mut self,
        file: FileId,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        let by = By { process, app, now };
        self.calls.push(Call::Open(file, ctl.file_size(file), by));
        let start = Instant::now();
        self.inner.on_open(file, process, app, now, ctl);
        self.done(0, start);
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        let by = By { process, app, now };
        self.calls.push(Call::Read(file, range, by));
        let start = Instant::now();
        self.inner.on_read(file, range, process, app, now, ctl);
        self.done(1, start);
    }

    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        let by = By { process, app, now };
        self.calls.push(Call::Write(file, range, by));
        let start = Instant::now();
        self.inner.on_write(file, range, process, app, now, ctl);
        self.done(2, start);
    }

    fn on_close(
        &mut self,
        file: FileId,
        process: ProcessId,
        app: AppId,
        now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        let by = By { process, app, now };
        self.calls.push(Call::Close(file, by));
        let start = Instant::now();
        self.inner.on_close(file, process, app, now, ctl);
        self.done(3, start);
    }

    fn on_tick(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.calls.push(Call::Tick(now));
        let start = Instant::now();
        self.inner.on_tick(now, ctl);
        self.done(4, start);
    }

    fn tick_interval(&self) -> Option<Duration> {
        self.inner.tick_interval()
    }

    fn on_transfer_done(&mut self, done: TransferDone, now: Timestamp, ctl: &mut SimCtl<'_>) {
        let start = Instant::now();
        self.inner.on_transfer_done(done, now, ctl);
        self.done(5, start);
    }

    fn on_finish(&mut self, now: Timestamp, ctl: &mut SimCtl<'_>) {
        let start = Instant::now();
        self.inner.on_finish(now, ctl);
        self.finish_ns += start.elapsed().as_nanos() as u64;
    }
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    pub start_epoch: Stat,
    pub observe_read: Stat,
    pub observe_write: Stat,
    pub drain_updates: Stat,
    pub engine_run: Stat,
    pub evict_file: Stat,
    /// The rest of the timed public calls: `end_epoch`, `stat`/`location`
    /// filtering, `remove_segment`, the tick's `pending_updates`.
    pub other: Stat,
    pub staged_updates: u64,
    pub drained_updates: u64,
    pub engine_actions: u64,
    pub engine_runs: u64,
    /// Ingest lock acquisitions (`ingest_lock_stats().total()`).
    pub locks: u64,
    /// Application events replayed.
    pub events: u64,
    pub wall_ns: u64,
}

impl Replay {
    /// Wall time inside timed calls.
    pub fn timed_ns(&self) -> u64 {
        [
            self.start_epoch,
            self.observe_read,
            self.observe_write,
            self.drain_updates,
            self.engine_run,
            self.evict_file,
            self.other,
        ]
        .iter()
        .map(|s| s.ns)
        .sum()
    }

    /// Adds the replay's counters and summed call times, by metric name.
    pub fn export(
        &self,
        counts: &mut BTreeMap<&'static str, f64>,
        times: &mut BTreeMap<&'static str, f64>,
    ) {
        let stats = [
            (
                "auditor.start_epoch.calls",
                "auditor.start_epoch.ns",
                self.start_epoch,
            ),
            (
                "auditor.observe_read.calls",
                "auditor.observe_read.ns",
                self.observe_read,
            ),
            (
                "auditor.observe_write.calls",
                "auditor.observe_write.ns",
                self.observe_write,
            ),
            (
                "auditor.drain_updates.calls",
                "auditor.drain_updates.ns",
                self.drain_updates,
            ),
            ("engine.run.calls", "engine.run.ns", self.engine_run),
            (
                "engine.evict_file.calls",
                "engine.evict_file.ns",
                self.evict_file,
            ),
        ];
        for (calls, ns, s) in stats {
            *counts.entry(calls).or_default() += s.calls as f64;
            *times.entry(ns).or_default() += s.ns as f64;
        }
        *counts.entry("auditor.staged_updates").or_default() += self.staged_updates as f64;
        *counts.entry("auditor.drained_updates").or_default() += self.drained_updates as f64;
        *counts.entry("engine.actions").or_default() += self.engine_actions as f64;
    }
}

/// Replays `calls` into a fresh auditor and engine built from `cfg`.
pub fn replay(calls: &[Call], cfg: &HFetchConfig, hierarchy: &Hierarchy) -> Replay {
    let mut cfg = cfg.clone();
    cfg.obs = obs::Recorder::disabled();
    let mut r = Replay::default();
    let wall = Instant::now();
    let auditor = Auditor::new(cfg.clone());
    let mut engine =
        PlacementEngine::with_margin(hierarchy, cfg.reactiveness, cfg.displacement_margin);
    let mut events = 0u64;
    for call in calls {
        match *call {
            // Each event's cheap companion calls (`set_file_size`, the
            // engine trigger check) are timed with its main call: timing a
            // ~10 ns call on its own costs more in timer overhead than it
            // measures.
            Call::Open(file, size, By { now, .. }) => {
                events += 1;
                let (staged, trigger) = r.start_epoch.time(|| {
                    auditor.set_file_size(file, size);
                    let before = auditor.pending_updates();
                    auditor.start_epoch(file, now);
                    let pending = auditor.pending_updates();
                    (pending - before, engine.should_trigger(now, pending))
                });
                r.staged_updates += staged as u64;
                if trigger {
                    run_engine(&mut r, &auditor, &mut engine, now);
                }
            }
            Call::Read(file, range, By { process, now, .. }) => {
                events += 1;
                let trigger = r.observe_read.time(|| {
                    auditor.observe_read(file, range, process, now);
                    engine.should_trigger(now, auditor.pending_updates())
                });
                if trigger {
                    run_engine(&mut r, &auditor, &mut engine, now);
                }
            }
            Call::Write(file, range, By { now, .. }) => {
                events += 1;
                let segments = r
                    .observe_write
                    .time(|| auditor.observe_write(file, range, now));
                if !segments.is_empty() {
                    r.other.time(|| {
                        for segment in segments {
                            engine.remove_segment(segment);
                        }
                    });
                }
            }
            Call::Close(file, By { now, .. }) => {
                events += 1;
                if r.other.time(|| auditor.end_epoch(file, now)) && cfg.evict_on_epoch_end {
                    let actions = r.evict_file.time(|| engine.evict_file(file));
                    r.engine_actions += actions.len() as u64;
                }
            }
            Call::Tick(now) => {
                if r.other.time(|| auditor.pending_updates()) > 0 {
                    run_engine(&mut r, &auditor, &mut engine, now);
                }
            }
        }
    }
    r.engine_runs = engine.runs();
    r.locks = auditor.ingest_lock_stats().total();
    r.events = events;
    r.wall_ns = wall.elapsed().as_nanos() as u64;
    r
}

/// One engine pass, filtered as `HFetchPolicy` filters it
/// (fetch-on-second-touch for observed, uncached segments).
fn run_engine(r: &mut Replay, auditor: &Auditor, engine: &mut PlacementEngine, now: Timestamp) {
    let drained = r.drain_updates.time(|| auditor.drain_updates());
    r.drained_updates += drained.len() as u64;
    let updates: Vec<_> = r.other.time(|| {
        drained
            .into_iter()
            .filter(|u| {
                u.anticipated
                    || engine.location(u.segment).is_some()
                    || auditor.stat(u.segment).is_some_and(|st| st.frequency >= 2)
            })
            .collect()
    });
    let actions = r.engine_run.time(|| engine.run(updates, now));
    r.engine_actions += actions.len() as u64;
}
