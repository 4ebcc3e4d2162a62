//! The HFetch server: real-thread deployment (Fig. 1 of the paper).
//!
//! One server per node, hosting:
//!
//! * the in-memory **event queue** tiers push into,
//! * the **hardware monitor**: a pool of daemon threads draining the queue
//!   into the file segment auditor,
//! * the **hierarchical data placement engine**, running on its own trigger
//!   thread (time interval OR score-update count),
//! * the **data-prefetching I/O clients**: one worker per cache tier
//!   copying the bytes the placement executor admits between the tier
//!   backends — the same executor (and engine pass) the simulator runs,
//! * the **agent manager**: hands out [`crate::agent::HFetchAgent`]s that
//!   applications read through.
//!
//! The decision components are the same clock-agnostic [`Auditor`] and
//! [`crate::engine::PlacementEngine`] the simulator drives — here under a wall
//! clock with real bytes moving between backends (in-memory, or directory
//! backends pointed at tmpfs/NVMe mounts).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Sender};
use events::event::{AccessKind, Event};
use events::monitor::{EventSink, HardwareMonitor, MonitorConfig};
use events::queue::EventQueue;
use events::registry::FileRegistry;
use events::shim::PosixShim;
use events::watch::WatchManager;
use obs::SpanCtx;
use parking_lot::Mutex;
use sim::engine::FetchOutcome;
use tiers::backend::{MemoryBackend, StorageBackend};
use tiers::capacity::CapacityLedger;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::mover::{DataMover, RetryPolicy};
use tiers::range::{segment_range, ByteRange};
use tiers::time::{Clock, WallClock};
use tiers::topology::Hierarchy;

use crate::auditor::Auditor;
use crate::config::HFetchConfig;
use crate::engine::PlacementAction;
use crate::executor::{Executor, Transport};

/// Aggregate server counters.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Bytes agents read from cache tiers.
    pub hit_bytes: AtomicU64,
    /// Bytes agents read from the backing store.
    pub miss_bytes: AtomicU64,
    /// Bytes moved into cache tiers by the I/O clients.
    pub prefetched_bytes: AtomicU64,
    /// Bytes evicted from cache tiers.
    pub evicted_bytes: AtomicU64,
    /// Fetches given up after their last capacity denial.
    pub denied_fetches: AtomicU64,
    /// Placement engine runs.
    pub engine_runs: AtomicU64,
    /// Copy attempts retried after a transient backend failure.
    pub retried_copies: AtomicU64,
    /// Copies abandoned after a permanent failure, an offline tier, or an
    /// exhausted retry budget (the reservation is rolled back).
    pub failed_fetches: AtomicU64,
}

impl ServerStats {
    /// Byte hit ratio over agent reads so far.
    pub fn hit_ratio(&self) -> Option<f64> {
        let h = self.hit_bytes.load(Ordering::Relaxed);
        let m = self.miss_bytes.load(Ordering::Relaxed);
        (h + m > 0).then(|| h as f64 / (h + m) as f64)
    }
}

/// A copy the executor admitted, for an I/O client to carry out.
struct Job {
    file: FileId,
    range: ByteRange,
    to: TierId,
    /// The cache tier whose copy this job moves: its capacity was released
    /// at admission, so the eviction after the copy must not release it
    /// again.
    released: Option<TierId>,
    /// The placement decision that scheduled this job, parent of its
    /// transfer span (NONE when observability is off).
    span: SpanCtx,
}

/// The engine and the executor carrying out its plan, under one lock.
struct Placement {
    exec: Executor,
    /// The I/O clients' job channel; `None` once shutdown has closed it.
    jobs: Option<Sender<Job>>,
}

/// Shared server state (the paper's "HFetch server core").
pub struct ServerInner {
    cfg: HFetchConfig,
    hierarchy: Hierarchy,
    auditor: Auditor,
    placement: Mutex<Placement>,
    backends: Vec<Arc<dyn StorageBackend>>,
    ledger: CapacityLedger,
    mover: DataMover,
    retry: RetryPolicy,
    registry: Arc<FileRegistry>,
    queue: EventQueue,
    clock: Arc<dyn Clock>,
    stats: ServerStats,
}

/// The real-thread [`Transport`]: admits copies against the capacity
/// ledger and hands them to the I/O clients.
struct Io<'a> {
    server: &'a ServerInner,
    jobs: Option<&'a Sender<Job>>,
}

impl Transport for Io<'_> {
    fn file_size(&self, file: FileId) -> u64 {
        self.server.auditor.file_size(file)
    }

    /// Admission mirrors `SimCtl::fetch_traced`: a cache-tier source's
    /// capacity is released up front (a planned swap would deadlock if each
    /// side held its reservation until the other completed), the
    /// destination is reserved, and a denial restores the source. It never
    /// blocks: the executor retries a denial on a later completion or tick.
    fn fetch(&mut self, file: FileId, range: ByteRange, to: TierId, span: SpanCtx) -> FetchOutcome {
        let s = self.server;
        let Some(jobs) = self.jobs else {
            // Shutting down: nothing will carry the copy out.
            return FetchOutcome { abandoned: range.len, ..Default::default() };
        };
        let held = s.cache_holder(file, range, to);
        let newly = range.len - s.backends[to.index()].covered_bytes(file, range);
        if newly == 0 {
            // Already at the destination: a redundant source copy goes, to
            // keep residency exclusive.
            if let Some(from) = held {
                s.evict(file, range, from);
            }
            return FetchOutcome { already_resident: range.len, ..Default::default() };
        }
        if let Some(from) = held {
            s.ledger.release_clamped(from, range.len);
        }
        if s.ledger.reserve(to, newly).is_err() {
            if let Some(from) = held {
                let _ = s.ledger.reserve(from, range.len);
            }
            return FetchOutcome { denied: newly, ..Default::default() };
        }
        jobs.send(Job { file, range, to, released: held, span })
            .expect("the I/O clients run while the job channel is open");
        FetchOutcome { scheduled: newly, transfers: 1, ..Default::default() }
    }

    fn discard(&mut self, file: FileId, range: ByteRange, tier: TierId) {
        self.server.evict(file, range, tier);
    }
}

impl ServerInner {
    /// The backend of `tier`.
    pub fn backend(&self, tier: TierId) -> &Arc<dyn StorageBackend> {
        &self.backends[tier.index()]
    }

    /// The hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The auditor.
    pub fn auditor(&self) -> &Auditor {
        &self.auditor
    }

    /// The configuration.
    pub fn config(&self) -> &HFetchConfig {
        &self.cfg
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The clock all components share.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Exports component counters — the event queue and the auditor's
    /// statistics-map shards — into the configured recorder. The counters
    /// are cumulative snapshots, so call once per run (shutdown does).
    pub fn export_obs(&self) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        self.queue.stats().export_obs(&self.cfg.obs);
        self.auditor.export_obs();
    }

    /// The lifecycle span covering `(file, offset)` — the decision that
    /// staged whatever is cached there. Agents parent application-read
    /// spans here so a read chains back to the prefetch that served it.
    /// NONE (and lock-free) when the recorder is disabled.
    pub fn placement_span(&self, file: FileId, offset: u64) -> SpanCtx {
        if !self.cfg.obs.is_enabled() {
            return SpanCtx::NONE;
        }
        let segment = SegmentId::new(file, offset / self.cfg.segment_size);
        self.placement.lock().exec.engine.span_of(segment)
    }

    /// Runs `f` on the executor under the placement lock, with the I/O
    /// clients as its transport.
    fn with_exec<R>(&self, f: impl FnOnce(&mut Executor, &mut Io) -> R) -> R {
        let mut placement = self.placement.lock();
        let Placement { exec, jobs } = &mut *placement;
        let r = f(exec, &mut Io { server: self, jobs: jobs.as_ref() });
        self.stats.denied_fetches.store(exec.denied, Ordering::Relaxed);
        self.stats.engine_runs.store(exec.engine.runs(), Ordering::Relaxed);
        r
    }

    /// The fastest cache tier other than `to` holding all of `range`.
    fn cache_holder(&self, file: FileId, range: ByteRange, to: TierId) -> Option<TierId> {
        self.hierarchy
            .iter_cache()
            .map(|(tier, _)| tier)
            .find(|&tier| tier != to && self.backends[tier.index()].resident(file, range))
    }

    /// Carries out one admitted copy (I/O client body), then reports back
    /// to the executor. The copy runs under a `transfer` child span of the
    /// job's decision, with a `landing` instant on success.
    fn copy(&self, job: Job) {
        let Job { file, range, to, released, span } = job;
        let backing = self.hierarchy.backing();
        let src = self.cache_holder(file, range, to).unwrap_or(backing);
        let rec = &self.cfg.obs;
        let t_span =
            rec.span_start("transfer", span, self.clock.now().as_nanos(), file.0, range.offset);
        // Transient backend failures are retried, sleeping the backoff.
        // Anything else — the source changed under us, a tier offline, a
        // permanent I/O error, an exhausted retry budget — fails the copy:
        // it rolls back here and the executor reconciles the model.
        let copied = self.mover.copy_with_retry(
            file,
            range,
            self.backends[src.index()].as_ref(),
            self.backends[to.index()].as_ref(),
            &self.retry,
            &mut std::thread::sleep,
            rec,
            (src.0, to.0),
        );
        if !t_span.is_none() {
            let at = self.clock.now().as_nanos();
            if copied.is_ok() {
                rec.span_instant("landing", t_span, at, file.0, range.offset);
            }
            rec.span_end(t_span, at);
        }
        let failed = match copied {
            Ok(receipt) => {
                let retries = u64::from(receipt.attempts - 1);
                self.stats.retried_copies.fetch_add(retries, Ordering::Relaxed);
                self.stats.prefetched_bytes.fetch_add(receipt.bytes, Ordering::Relaxed);
                // Exclusive cache: remove from the (cache) source. Admission
                // already released the planned source's accounting; only an
                // unexpected source releases here.
                if src != backing {
                    if let Ok(evicted) = self.backends[src.index()].evict(file, range) {
                        if released != Some(src) {
                            self.ledger.release_clamped(src, evicted);
                        }
                    }
                }
                None
            }
            Err(_) => {
                self.stats.failed_fetches.fetch_add(1, Ordering::Relaxed);
                // A failed chunked copy may leave a partial prefix on the
                // destination; drop it so no unaccounted bytes linger, then
                // return the whole range's accounting to the pool, and
                // account the source's untouched copy to it again.
                let _ = self.backends[to.index()].evict(file, range);
                self.ledger.release_clamped(to, range.len);
                let segment = SegmentId::new(file, range.offset / self.cfg.segment_size);
                Some(match released {
                    Some(from) => {
                        let still = self.backends[from.index()].covered_bytes(file, range);
                        let _ = self.ledger.reserve(from, still);
                        PlacementAction::Move { segment, from, to }
                    }
                    None => PlacementAction::Fetch { segment, to },
                })
            }
        };
        self.with_exec(|exec, io| exec.transfer_done(failed, io));
    }

    /// Drops `range` of `file` from cache tier `tier`.
    fn evict(&self, file: FileId, range: ByteRange, tier: TierId) {
        if let Ok(evicted) = self.backends[tier.index()].evict(file, range) {
            if evicted > 0 {
                self.ledger.release_clamped(tier, evicted);
                self.stats.evicted_bytes.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// One engine pass if triggered (or, with `force`, whenever updates
    /// are pending); otherwise retries queued actions. Returns whether the
    /// engine ran.
    fn tick(&self, force: bool) -> bool {
        let now = self.clock.now();
        let pending = self.auditor.pending_updates();
        self.with_exec(|exec, io| {
            let run = pending > 0 && (force || exec.engine.should_trigger(now, pending));
            if run {
                exec.run_engine(&self.auditor, now, io);
            } else {
                exec.pump(io);
            }
            run
        })
    }

    fn handle_event(&self, event: &Event) {
        let Event::Access(access) = event else { return };
        let now = access.time;
        match access.kind {
            AccessKind::Open => {
                self.auditor.set_file_size(access.file, self.registry.size_of(access.file));
                // Under the placement lock: no pass runs between reading
                // the engine's holdings and queueing the staging batch.
                self.placement.lock().exec.start_epoch(&self.auditor, access.file, now);
            }
            AccessKind::Read => {
                self.auditor.observe_read(access.file, access.range, access.process, now);
            }
            AccessKind::Write => {
                // Consistency: drop stale prefetched bytes everywhere.
                let segments = self.auditor.observe_write(access.file, access.range, now);
                // One size lookup for the whole invalidation sweep:
                // `observe_write` has already grown the file if needed, so
                // the size is stable across the loop.
                let size = self.auditor.file_size(access.file);
                let mut placement = self.placement.lock();
                for seg in segments {
                    placement.exec.engine.remove_segment(seg);
                    let range = segment_range(seg.index, self.cfg.segment_size, size);
                    for (tier, _) in self.hierarchy.iter_cache() {
                        self.evict(access.file, range, tier);
                    }
                }
            }
            AccessKind::Close => {
                if self.auditor.end_epoch(access.file, now) && self.cfg.evict_on_epoch_end {
                    self.with_exec(|exec, io| {
                        let actions = exec.engine.evict_file(access.file);
                        exec.execute(actions, io);
                    });
                }
            }
        }
    }
}

struct ServerSink(Arc<ServerInner>);

impl EventSink for ServerSink {
    fn on_event(&self, event: &Event) {
        self.0.handle_event(event);
    }
}

/// A running HFetch server.
pub struct HFetchServer {
    inner: Arc<ServerInner>,
    shim: Arc<PosixShim>,
    monitor: Option<HardwareMonitor>,
    engine_thread: Option<JoinHandle<()>>,
    io_threads: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl HFetchServer {
    /// Starts a server over explicit backends (`backends[i]` backs tier
    /// `i`; the last one is the backing store).
    pub fn start(
        cfg: HFetchConfig,
        hierarchy: Hierarchy,
        backends: Vec<Arc<dyn StorageBackend>>,
        daemons: usize,
    ) -> Self {
        cfg.validate();
        assert_eq!(
            backends.len(),
            hierarchy.len(),
            "one backend per tier (including the backing store)"
        );
        let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let registry = Arc::new(FileRegistry::new());
        let watches = Arc::new(WatchManager::new());
        let queue = EventQueue::with_capacity(1 << 16);
        let ledger = CapacityLedger::new(&hierarchy);
        let exec = Executor::new(&cfg, &hierarchy);
        let auditor = Auditor::new(cfg.clone());
        let backing = Arc::clone(&backends[hierarchy.backing().index()]);

        let (jobs, io_rx) = unbounded::<Job>();
        let inner = Arc::new(ServerInner {
            cfg,
            hierarchy,
            auditor,
            placement: Mutex::new(Placement { exec, jobs: Some(jobs) }),
            backends,
            ledger,
            mover: DataMover::new(),
            retry: RetryPolicy::default(),
            registry: Arc::clone(&registry),
            queue: queue.clone(),
            clock: Arc::clone(&clock),
            stats: ServerStats::default(),
        });

        let shim = Arc::new(PosixShim::new(registry, watches, queue.clone(), clock, backing));

        // I/O clients: one worker per cache tier, all pulling from the
        // shared job channel (work-stealing keeps a busy tier from
        // starving). The executor bounds the jobs in flight.
        let io_workers = inner.hierarchy.cache_tiers().max(1);
        let mut io_threads = Vec::with_capacity(io_workers);
        for i in 0..io_workers {
            let rx = io_rx.clone();
            let inner_ = Arc::clone(&inner);
            io_threads.push(
                std::thread::Builder::new()
                    .name(format!("hfetch-io-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            inner_.copy(job);
                        }
                    })
                    .expect("spawn io client"),
            );
        }

        // Hardware monitor daemons feed the auditor.
        let monitor = HardwareMonitor::start(
            queue,
            Arc::new(ServerSink(Arc::clone(&inner))),
            MonitorConfig { daemons, poll_interval: Duration::from_millis(2), ..Default::default() },
        );

        // Engine trigger thread.
        let shutdown = Arc::new(AtomicBool::new(false));
        let engine_thread = {
            let inner = Arc::clone(&inner);
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("hfetch-engine".into())
                .spawn(move || loop {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    if !inner.tick(false) {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })
                .expect("spawn engine thread")
        };

        Self {
            inner,
            shim,
            monitor: Some(monitor),
            engine_thread: Some(engine_thread),
            io_threads,
            shutdown,
        }
    }

    /// Convenience: a fully in-memory server (tests, examples).
    pub fn in_memory(cfg: HFetchConfig, hierarchy: Hierarchy) -> Self {
        let backends: Vec<Arc<dyn StorageBackend>> =
            (0..hierarchy.len()).map(|_| Arc::new(MemoryBackend::new()) as _).collect();
        Self::start(cfg, hierarchy, backends, 4)
    }

    /// Shared server state.
    pub fn inner(&self) -> &Arc<ServerInner> {
        &self.inner
    }

    /// The instrumented I/O shim applications go through.
    pub fn shim(&self) -> &Arc<PosixShim> {
        &self.shim
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.inner.stats
    }

    /// Blocks until the event queue is drained, the engine has run over
    /// all pending updates, and the placement executor is idle. Gives tests
    /// and examples a deterministic settle point.
    pub fn quiesce(&self) {
        loop {
            if let Some(m) = &self.monitor {
                m.drain();
            }
            // Allow in-flight daemon handoffs to land.
            std::thread::sleep(Duration::from_millis(5));
            self.inner.tick(true);
            if self.inner.queue.is_empty()
                && self.inner.auditor.pending_updates() == 0
                && self.inner.placement.lock().exec.is_idle()
            {
                break;
            }
        }
    }

    /// Stops all threads, draining outstanding work first.
    pub fn shutdown(mut self) {
        self.quiesce();
        self.inner.export_obs();
        if let Some(m) = self.monitor.take() {
            m.stop();
        }
        self.stop();
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the engine thread and closes the job channel, which stops the
    /// I/O clients once they drain it.
    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        self.inner.placement.lock().jobs = None;
    }
}

impl Drop for HFetchServer {
    fn drop(&mut self) {
        // The monitor stops via its own Drop.
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::{mib, MIB};

    fn small_hierarchy() -> Hierarchy {
        Hierarchy::with_budgets(mib(4), mib(8), mib(16))
    }

    #[test]
    fn server_starts_and_shuts_down() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        server.quiesce();
        server.shutdown();
    }

    #[test]
    fn open_event_triggers_epoch_staging() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let shim = Arc::clone(server.shim());
        shim.stage_file("/data/input", mib(2)).unwrap();
        let (h, _) = shim.fopen(
            "/data/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        // Staging should have prefetched the whole 2 MiB file into RAM.
        let ram = server.inner().backend(TierId(0));
        assert_eq!(ram.resident_bytes(h.file()), mib(2));
        assert!(server.stats().prefetched_bytes.load(Ordering::Relaxed) >= mib(2));
        shim.fclose(&h);
        server.quiesce();
        // Epoch end evicts.
        let ram = server.inner().backend(TierId(0));
        assert_eq!(ram.resident_bytes(h.file()), 0, "evicted on epoch end");
        server.shutdown();
    }

    /// Delegating backend that fails its first `fail_n` writes transiently.
    struct FailsFirstWrites {
        inner: MemoryBackend,
        remaining: AtomicU64,
    }

    impl FailsFirstWrites {
        fn new(fail_n: u64) -> Self {
            Self { inner: MemoryBackend::new(), remaining: fail_n.into() }
        }
    }

    impl StorageBackend for FailsFirstWrites {
        fn write(&self, file: FileId, offset: u64, data: &[u8]) -> tiers::error::Result<()> {
            if self.remaining.load(Ordering::SeqCst) > 0 {
                self.remaining.fetch_sub(1, Ordering::SeqCst);
                return Err(tiers::error::TierError::TransientIo { op: "write" });
            }
            self.inner.write(file, offset, data)
        }
        fn read(&self, file: FileId, range: ByteRange) -> tiers::error::Result<bytes::Bytes> {
            self.inner.read(file, range)
        }
        fn evict(&self, file: FileId, range: ByteRange) -> tiers::error::Result<u64> {
            self.inner.evict(file, range)
        }
        fn delete(&self, file: FileId) -> tiers::error::Result<u64> {
            self.inner.delete(file)
        }
        fn resident(&self, file: FileId, range: ByteRange) -> bool {
            self.inner.resident(file, range)
        }
        fn covered_bytes(&self, file: FileId, range: ByteRange) -> u64 {
            self.inner.covered_bytes(file, range)
        }
        fn covered_ranges(&self, file: FileId, range: ByteRange) -> Vec<ByteRange> {
            self.inner.covered_ranges(file, range)
        }
        fn resident_bytes(&self, file: FileId) -> u64 {
            self.inner.resident_bytes(file)
        }
        fn used_bytes(&self) -> u64 {
            self.inner.used_bytes()
        }
        fn files(&self) -> Vec<FileId> {
            self.inner.files()
        }
    }

    fn backends_with_tier0(tier0: Arc<dyn StorageBackend>, n: usize) -> Vec<Arc<dyn StorageBackend>> {
        let mut v: Vec<Arc<dyn StorageBackend>> = vec![tier0];
        v.extend((1..n).map(|_| Arc::new(MemoryBackend::new()) as Arc<dyn StorageBackend>));
        v
    }

    #[test]
    fn transient_write_faults_are_retried_through() {
        let hierarchy = small_hierarchy();
        let n = hierarchy.len();
        let tier0 = Arc::new(FailsFirstWrites::new(2));
        let server = HFetchServer::start(
            HFetchConfig::default(),
            hierarchy,
            backends_with_tier0(tier0, n),
            2,
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/flaky/input", mib(2)).unwrap();
        let (h, _) = shim.fopen(
            "/flaky/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        // The two injected failures were retried, not fatal: staging still
        // landed the whole file in RAM and nothing was abandoned.
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(h.file()), mib(2));
        assert_eq!(server.stats().retried_copies.load(Ordering::Relaxed), 2);
        assert_eq!(server.stats().failed_fetches.load(Ordering::Relaxed), 0);
        shim.fclose(&h);
        server.shutdown();
    }

    #[test]
    fn offline_tier_rolls_back_and_recovers() {
        use tiers::faults::{FaultConfig, FaultPlan, FlakyBackend};
        let hierarchy = small_hierarchy();
        let n = hierarchy.len();
        // Inert plan: the only fault is the explicit offline switch.
        let flaky = Arc::new(FlakyBackend::new(
            Arc::new(MemoryBackend::new()),
            TierId(0),
            FaultPlan::new(FaultConfig::with_seed(0)),
        ));
        flaky.set_offline(true);
        let server = HFetchServer::start(
            HFetchConfig::default(),
            hierarchy,
            backends_with_tier0(Arc::clone(&flaky) as Arc<dyn StorageBackend>, n),
            2,
        );
        let shim = Arc::clone(server.shim());
        shim.stage_file("/degraded/input", mib(1)).unwrap();
        let (h, _) = shim.fopen(
            "/degraded/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        // Every staging fetch into the offline RAM tier failed and was
        // rolled back: no bytes resident, no capacity leaked, no panic.
        assert!(server.stats().failed_fetches.load(Ordering::Relaxed) > 0);
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(h.file()), 0);
        shim.fclose(&h);
        server.quiesce();
        // Tier repaired: a fresh epoch stages successfully.
        flaky.set_offline(false);
        let (h2, _) = shim.fopen(
            "/degraded/input",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        assert_eq!(server.inner().backend(TierId(0)).resident_bytes(h2.file()), mib(1));
        shim.fclose(&h2);
        server.shutdown();
    }

    /// Model == residency: each segment of `file` (`size` bytes) is held
    /// by exactly the cache tier the engine places it on (or by none), and
    /// every cache tier's ledger equals its backend's resident bytes.
    fn assert_model_matches_backends(inner: &ServerInner, file: FileId, size: u64) {
        let engine = &inner.placement.lock().exec.engine;
        for index in 0..tiers::range::segment_count(size, inner.cfg.segment_size) {
            let segment = SegmentId::new(file, index);
            let range = segment_range(index, inner.cfg.segment_size, size);
            let holders: Vec<TierId> = inner
                .hierarchy
                .iter_cache()
                .map(|(tier, _)| tier)
                .filter(|&tier| inner.backend(tier).covered_bytes(file, range) > 0)
                .collect();
            let modelled = engine.location(segment);
            assert_eq!(holders, modelled.into_iter().collect::<Vec<_>>(), "{segment:?} holders");
            if let Some(tier) = modelled {
                assert!(inner.backend(tier).resident(file, range), "{segment:?} part on {tier:?}");
            }
        }
        for (tier, _) in inner.hierarchy.iter_cache() {
            let used = inner.backend(tier).used_bytes();
            assert_eq!(inner.ledger.used(tier), used, "{tier:?} ledger");
        }
    }

    fn open_staged(server: &HFetchServer, path: &str, size: u64) -> events::shim::FileHandle {
        let shim = server.shim();
        shim.stage_file(path, size).unwrap();
        let (h, _) = shim.fopen(
            path,
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        h
    }

    #[test]
    fn failed_copies_reconcile_the_model() {
        use tiers::faults::{FaultConfig, FaultPlan, FlakyBackend};
        let hierarchy = small_hierarchy();
        let n = hierarchy.len();
        let flaky = Arc::new(FlakyBackend::new(
            Arc::new(MemoryBackend::new()),
            TierId(0),
            FaultPlan::new(FaultConfig::with_seed(0)),
        ));
        flaky.set_offline(true);
        let server = HFetchServer::start(
            HFetchConfig::default(),
            hierarchy,
            backends_with_tier0(flaky, n),
            2,
        );
        // Staging plans segments into the offline RAM tier, and those
        // copies fail: the engine must forget them rather than believe RAM
        // holds them.
        let h = open_staged(&server, "/offline/input", mib(12));
        assert!(server.stats().failed_fetches.load(Ordering::Relaxed) > 0);
        assert!(server.inner().backend(TierId(1)).resident_bytes(h.file()) > 0, "NVMe staged");
        assert_model_matches_backends(server.inner(), h.file(), mib(12));
        server.shim().fclose(&h);
        server.shutdown();
    }

    #[test]
    fn denied_move_source_is_evicted_at_epoch_end() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let h = open_staged(&server, "/moved", MIB);
        let inner = server.inner();
        let segment = SegmentId::new(h.file(), 0);
        assert_eq!(inner.placement.lock().exec.engine.location(segment), Some(TierId(0)));
        // NVMe is full, so demoting the segment there is finally denied.
        let free = inner.ledger.available(TierId(1));
        inner.ledger.reserve(TierId(1), free).unwrap();
        inner.with_exec(|exec, io| {
            let demote = PlacementAction::Move { segment, from: TierId(0), to: TierId(1) };
            exec.execute(vec![demote], io);
        });
        server.quiesce();
        assert_eq!(server.stats().denied_fetches.load(Ordering::Relaxed), 1);
        server.shim().fclose(&h);
        server.quiesce();
        for (tier, _) in inner.hierarchy.iter_cache() {
            assert_eq!(inner.backend(tier).resident_bytes(h.file()), 0, "{tier:?} after epoch end");
        }
        server.shutdown();
    }

    /// Executes a `Move` of a 1 MiB segment that sits on NVMe (tier 1,
    /// accounted in the ledger) up to RAM (tier 0), after `prepare` has
    /// shaped the destination, and waits for the executor to go idle.
    fn move_nvme_to_ram(prepare: impl FnOnce(&ServerInner, FileId)) -> HFetchServer {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let inner = server.inner();
        let file = FileId(77);
        inner.auditor.set_file_size(file, MIB);
        inner.backend(TierId(1)).write(file, 0, &vec![7u8; MIB as usize]).unwrap();
        inner.ledger.reserve(TierId(1), MIB).unwrap();
        prepare(inner, file);
        inner.with_exec(|exec, io| {
            let segment = SegmentId::new(file, 0);
            let promote = PlacementAction::Move { segment, from: TierId(1), to: TierId(0) };
            exec.execute(vec![promote], io);
        });
        server.quiesce();
        server
    }

    #[test]
    fn denied_move_keeps_source_accounted() {
        // RAM is full of another file, so the promotion is finally denied.
        // As in the simulator, the move's source copy is then discarded:
        // no cached bytes linger outside the engine's model.
        let server = move_nvme_to_ram(|inner, _| {
            let free = inner.ledger.available(TierId(0));
            inner.backend(TierId(0)).write(FileId(78), 0, &vec![1u8; free as usize]).unwrap();
            inner.ledger.reserve(TierId(0), free).unwrap();
        });
        let inner = server.inner();
        assert_eq!(server.stats().denied_fetches.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().failed_fetches.load(Ordering::Relaxed), 0, "a denial is not a failure");
        assert_model_matches_backends(inner, FileId(77), MIB);
        server.shutdown();
    }

    #[test]
    fn move_already_at_destination_drops_the_source_copy() {
        // The segment already landed in RAM: the move copies nothing, and
        // the redundant NVMe copy goes so residency stays exclusive.
        let server = move_nvme_to_ram(|inner, file| {
            inner.backend(TierId(0)).write(file, 0, &vec![7u8; MIB as usize]).unwrap();
            inner.ledger.reserve(TierId(0), MIB).unwrap();
        });
        let inner = server.inner();
        let file = FileId(77);
        assert_eq!(inner.backend(TierId(1)).resident_bytes(file), 0, "source copy dropped");
        assert_eq!(inner.ledger.used(TierId(1)), inner.backend(TierId(1)).resident_bytes(file));
        assert_eq!(inner.ledger.used(TierId(0)), inner.backend(TierId(0)).resident_bytes(file));
        server.shutdown();
    }

    #[test]
    fn write_invalidates_prefetched_bytes() {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let shim = Arc::clone(server.shim());
        shim.stage_file("/f", MIB).unwrap();
        let (r, _) = shim.fopen(
            "/f",
            events::shim::OpenMode::Read,
            tiers::ids::ProcessId(0),
            tiers::ids::AppId(0),
        );
        server.quiesce();
        assert!(server.inner().backend(TierId(0)).resident_bytes(r.file()) > 0);
        let (w, _) = shim.fopen(
            "/f",
            events::shim::OpenMode::Write,
            tiers::ids::ProcessId(1),
            tiers::ids::AppId(1),
        );
        shim.fwrite_at(&w, 0, &vec![0u8; MIB as usize]).unwrap();
        server.quiesce();
        let cached: u64 = (0..3)
            .map(|i| server.inner().backend(TierId(i)).resident_bytes(r.file()))
            .sum();
        assert_eq!(cached, 0, "write invalidated all cached bytes");
        shim.fclose(&r);
        shim.fclose(&w);
        server.shutdown();
    }

    /// Polls `done` every millisecond for up to ten seconds.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        for _ in 0..10_000 {
            if done() {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("timed out waiting until {what}");
    }

    /// Opening a file eight times the cache queues only the updates a
    /// pass could place, and the heatmap saved at close is the closed
    /// form: each read segment's score, every other segment's epoch seed
    /// decayed to the close.
    #[test]
    fn staging_is_bounded_by_the_cache_and_the_heatmap_closes_in_closed_form() {
        use tiers::ids::{AppId, ProcessId};
        use tiers::time::Timestamp;
        let rec = obs::Recorder::enabled();
        // No trigger fires on its own: the test drains the staging itself.
        let seg = 64 * tiers::units::KIB;
        let cfg = HFetchConfig {
            segment_size: seg,
            reactiveness: crate::config::Reactiveness {
                interval: Duration::from_secs(3600),
                score_updates: usize::MAX,
            },
            obs: rec.clone(),
            ..Default::default()
        };
        let hierarchy = Hierarchy::with_budgets(4 * seg, 8 * seg, 16 * seg);
        let n = hierarchy.len();
        let backends = (0..n).map(|_| Arc::new(MemoryBackend::new()) as _).collect();
        // One monitor daemon: events apply in order.
        let server = HFetchServer::start(cfg.clone(), hierarchy, backends, 1);
        let shim = Arc::clone(server.shim());
        let size = 8 * 28 * seg + seg / 2;
        shim.stage_file("/data/big", size).unwrap();
        let (h, _) = shim.fopen("/data/big", events::shim::OpenMode::Read, ProcessId(0), AppId(0));
        let auditor = server.inner().auditor();
        wait_until("the open is staged", || auditor.pending_updates() > 0);
        // Nothing of the file was placed or pending: the engine's 4 + 8 +
        // 16 slots, plus the tail.
        let queued: Vec<u64> = auditor.drain_updates().iter().map(|u| u.segment.index).collect();
        let mut expected: Vec<u64> = (0..28).collect();
        expected.push(8 * 28);
        assert_eq!(queued, expected);

        for index in [3, 4, 100] {
            shim.fread_at(&h, ByteRange::new(index * seg, seg)).unwrap();
        }
        shim.fclose(&h);
        wait_until("the heatmap is saved", || auditor.heatmaps().load(h.file()).is_some());
        let saved = auditor.heatmaps().load(h.file()).unwrap();
        let opened = rec
            .trace_events()
            .into_iter()
            .find_map(|e| match e {
                obs::TraceEvent::EpochStart { at, .. } => Some(Timestamp::from_nanos(at)),
                _ => None,
            })
            .unwrap();
        let params = cfg.score;
        let closed_form: Vec<u64> = (0..saved.scores.len() as u64)
            .map(|index| {
                let score = match auditor.stat(SegmentId::new(h.file(), index)) {
                    Some(st) => st.score.peek(saved.saved_at, &params, st.n()),
                    None => {
                        let mut seed = crate::scoring::ScoreState::new();
                        seed.seed(cfg.epoch_base_score, opened);
                        seed.peek(saved.saved_at, &params, 1)
                    }
                };
                score.to_bits()
            })
            .collect();
        let scores: Vec<u64> = saved.scores.iter().map(|s| s.to_bits()).collect();
        assert_eq!(scores.len() as u64, 8 * 28 + 1);
        assert_eq!(scores, closed_form);
        assert!(saved.scores[3] > saved.scores[0], "read segments run hotter");
        server.shutdown();
    }
}
