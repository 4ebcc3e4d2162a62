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
//!   executing the engine's placement plan against the tier backends,
//! * the **agent manager**: hands out [`crate::agent::HFetchAgent`]s that
//!   applications read through.
//!
//! The decision components are the same clock-agnostic [`Auditor`] and
//! [`PlacementEngine`] the simulator drives — here they run under a wall
//! clock with real bytes moving between backends (in-memory, or directory
//! backends pointed at tmpfs/NVMe mounts).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use events::event::{AccessKind, Event};
use events::monitor::{EventSink, HardwareMonitor, MonitorConfig};
use events::queue::EventQueue;
use events::registry::FileRegistry;
use events::shim::PosixShim;
use events::watch::WatchManager;
use parking_lot::Mutex;
use tiers::backend::{MemoryBackend, StorageBackend};
use tiers::capacity::CapacityLedger;
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::mover::{DataMover, RetryPolicy};
use tiers::range::{segment_range, ByteRange};
use tiers::time::{Clock, WallClock};
use tiers::topology::Hierarchy;

use crate::auditor::Auditor;
use crate::config::HFetchConfig;
use crate::engine::{PlacementAction, PlacementEngine};

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
    /// Fetches denied for lack of capacity.
    pub denied_fetches: AtomicU64,
    /// Placement engine runs.
    pub engine_runs: AtomicU64,
    /// Copy attempts retried after a transient backend failure.
    pub retried_copies: AtomicU64,
    /// Fetches abandoned after a permanent failure, an offline tier, or an
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

/// Work items for the per-tier I/O clients.
enum Job {
    Fetch {
        file: FileId,
        range: ByteRange,
        to: TierId,
        /// For moves: the tier whose capacity was already released at
        /// dispatch (see `dispatch_actions`) — the eviction after the copy
        /// must not release it again.
        released_from: Option<TierId>,
        /// Causal parent for the transfer span: the placement decision
        /// that scheduled this job (NONE when observability is off).
        span: obs::SpanCtx,
    },
    Evict { file: FileId, range: ByteRange, from: TierId },
    Stop,
}

/// Shared server state (the paper's "HFetch server core").
pub struct ServerInner {
    cfg: HFetchConfig,
    hierarchy: Hierarchy,
    auditor: Auditor,
    engine: Mutex<PlacementEngine>,
    backends: Vec<Arc<dyn StorageBackend>>,
    ledger: CapacityLedger,
    mover: DataMover,
    retry: RetryPolicy,
    registry: Arc<FileRegistry>,
    watches: Arc<WatchManager>,
    queue: EventQueue,
    clock: Arc<dyn Clock>,
    stats: ServerStats,
    io_tx: Mutex<Option<Sender<Job>>>,
    io_inflight: AtomicU64,
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

    /// The watch table (shared with the shim; lets tools inspect which
    /// files are in an epoch from the server side).
    pub fn watches(&self) -> &Arc<WatchManager> {
        &self.watches
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

    fn submit(&self, job: Job) {
        let tx = self.io_tx.lock();
        if let Some(tx) = tx.as_ref() {
            self.io_inflight.fetch_add(1, Ordering::Release);
            if tx.send(job).is_err() {
                self.io_inflight.fetch_sub(1, Ordering::Release);
            }
        }
    }

    /// The lifecycle span of `segment`'s current placement, for parenting
    /// the transfer span that executes it. NONE (and lock-free) when the
    /// recorder is disabled.
    fn placement_span_of(&self, segment: SegmentId) -> obs::SpanCtx {
        if !self.cfg.obs.is_enabled() {
            return obs::SpanCtx::NONE;
        }
        self.engine.lock().span_of(segment)
    }

    /// The lifecycle span covering `(file, offset)` — the decision that
    /// staged whatever is cached there. Agents parent application-read
    /// spans here so a read chains back to the prefetch that served it.
    pub fn placement_span(&self, file: FileId, offset: u64) -> obs::SpanCtx {
        let segment = SegmentId::new(file, offset / self.cfg.segment_size);
        self.placement_span_of(segment)
    }

    fn dispatch_actions(&self, actions: Vec<PlacementAction>) {
        for action in actions {
            match action {
                PlacementAction::Fetch { segment, to } => {
                    let size = self.auditor.file_size(segment.file);
                    let range = segment_range(segment.index, self.cfg.segment_size, size);
                    if !range.is_empty() {
                        let span = self.placement_span_of(segment);
                        self.submit(Job::Fetch {
                            file: segment.file,
                            range,
                            to,
                            released_from: None,
                            span,
                        });
                    }
                }
                PlacementAction::Move { segment, from, to } => {
                    let size = self.auditor.file_size(segment.file);
                    let range = segment_range(segment.index, self.cfg.segment_size, size);
                    if !range.is_empty() {
                        // Release the source's capacity now: the engine's
                        // plan considers the move done, and a planned swap
                        // (A down, B up) would deadlock if each side held
                        // its reservation until the other completed.
                        let covered = self.backends[from.index()].covered_bytes(segment.file, range);
                        self.ledger.release_clamped(from, covered);
                        let span = self.placement_span_of(segment);
                        self.submit(Job::Fetch {
                            file: segment.file,
                            range,
                            to,
                            released_from: Some(from),
                            span,
                        });
                    }
                }
                PlacementAction::Evict { segment, from } => {
                    let size = self.auditor.file_size(segment.file);
                    let range = segment_range(segment.index, self.cfg.segment_size, size);
                    self.submit(Job::Evict { file: segment.file, range, from });
                }
            }
        }
    }

    /// Executes one fetch job (I/O client body). `span` is the placement
    /// decision the job executes; the copy runs under a `transfer` child
    /// span with a `landing` instant on success.
    fn do_fetch(
        &self,
        file: FileId,
        range: ByteRange,
        to: TierId,
        released_from: Option<TierId>,
        span: obs::SpanCtx,
    ) {
        let dst = &self.backends[to.index()];
        let newly = range.len - dst.covered_bytes(file, range);
        if newly == 0 {
            // Already at the destination: a move's source copy is now
            // redundant, so drop it to keep residency exclusive.
            if let Some(from) = released_from {
                let _ = self.backends[from.index()].evict(file, range);
            }
            self.restore_source(file, range, released_from);
            return;
        }
        // A promotion often races the demotion that frees its space
        // (capacity is released when the demotion's copy completes), so
        // denied reservations retry briefly before giving up.
        let mut reserved = false;
        for attempt in 0..4 {
            if self.ledger.reserve(to, newly).is_ok() {
                reserved = true;
                break;
            }
            if attempt < 3 {
                std::thread::sleep(Duration::from_millis(1 << attempt));
            }
        }
        if !reserved {
            self.stats.denied_fetches.fetch_add(1, Ordering::Relaxed);
            // The placement will never happen: reconcile the engine's
            // model with reality, as the simulator's pump does, or the
            // engine would believe `to` holds a segment it does not.
            let segment = SegmentId::new(file, range.offset / self.cfg.segment_size);
            self.engine.lock().remove_segment(segment);
            self.restore_source(file, range, released_from);
            return;
        }
        // Find the fastest current holder.
        let backing = self.hierarchy.backing();
        let mut src = backing;
        for (tier, _) in self.hierarchy.iter_cache() {
            if tier != to && self.backends[tier.index()].resident(file, range) {
                src = tier;
                break;
            }
        }
        let t_span = if self.cfg.obs.is_enabled() {
            self.cfg.obs.span_start(
                "transfer",
                span,
                self.clock.now().as_nanos(),
                file.0,
                range.offset,
            )
        } else {
            obs::SpanCtx::NONE
        };
        // Transient backend failures (flaky device, injected fault) are
        // retried with exponential backoff; the I/O client sleeps the
        // backoff since it runs on a real thread. Anything else — source
        // changed under us (demotion race), a tier offline, a permanent
        // I/O error, or an exhausted retry budget — abandons the fetch and
        // rolls back so residency and capacity accounting stay consistent.
        match self.mover.copy_with_retry_recorded(
            file,
            range,
            self.backends[src.index()].as_ref(),
            dst.as_ref(),
            &self.retry,
            &mut std::thread::sleep,
            &self.cfg.obs,
            (src.0, to.0),
        ) {
            Ok(receipt) => {
                if receipt.attempts > 1 {
                    self.stats
                        .retried_copies
                        .fetch_add(u64::from(receipt.attempts - 1), Ordering::Relaxed);
                }
                if !t_span.is_none() {
                    let at = self.clock.now().as_nanos();
                    self.cfg.obs.span_instant("landing", t_span, at, file.0, range.offset);
                    self.cfg.obs.span_end(t_span, at);
                }
                self.stats.prefetched_bytes.fetch_add(receipt.bytes, Ordering::Relaxed);
                // Exclusive cache: remove from the (cache) source. The
                // dispatch path already released the planned source's
                // accounting; only an unexpected source releases here.
                if src != backing {
                    if let Ok(evicted) = self.backends[src.index()].evict(file, range) {
                        if released_from != Some(src) {
                            self.ledger.release_clamped(src, evicted);
                        }
                    }
                }
            }
            Err(_) => {
                if !t_span.is_none() {
                    self.cfg.obs.span_end(t_span, self.clock.now().as_nanos());
                }
                self.stats.failed_fetches.fetch_add(1, Ordering::Relaxed);
                // A failed chunked copy may leave a partial prefix on the
                // destination; drop it so no unaccounted bytes linger, then
                // return the whole range's accounting to the pool.
                let _ = self.backends[to.index()].evict(file, range);
                self.ledger.release_clamped(to, range.len);
                self.restore_source(file, range, released_from);
            }
        }
    }

    /// Rolls back a move that did not complete: dispatch released the
    /// source's capacity up front, so whatever the source still holds of
    /// `range` is accounted to it again. No-op for plain fetches.
    fn restore_source(&self, file: FileId, range: ByteRange, released_from: Option<TierId>) {
        if let Some(from) = released_from {
            let still = self.backends[from.index()].covered_bytes(file, range);
            let _ = self.ledger.reserve(from, still);
        }
    }

    fn do_evict(&self, file: FileId, range: ByteRange, from: TierId) {
        if let Ok(evicted) = self.backends[from.index()].evict(file, range) {
            if evicted > 0 {
                let _ = self.ledger.release(from, evicted);
                self.stats.evicted_bytes.fetch_add(evicted, Ordering::Relaxed);
            }
        }
    }

    /// One engine pass if triggered (or forced); returns actions executed.
    fn engine_pass(&self, force: bool) -> usize {
        let now = self.clock.now();
        let mut engine = self.engine.lock();
        let pending = self.auditor.pending_updates();
        if !force && !engine.should_trigger(now, pending) {
            return 0;
        }
        if pending == 0 {
            return 0;
        }
        let updates = self.auditor.drain_updates();
        // Causal root of this pass (see `HFetchPolicy::run_engine` for the
        // simulator twin): ingest window → drain instant → decisions.
        let mut drain = obs::SpanCtx::NONE;
        if let Some(since) = self.auditor.take_pending_since() {
            // A daemon may stamp a push after `now` was sampled (real
            // threads, unlike the simulator): clamp so the span stays
            // well-formed.
            let start = since.as_nanos().min(now.as_nanos());
            self.cfg.obs.span("auditor.drain_latency_ns", obs::Label::None, start, now.as_nanos());
            let ingest =
                self.cfg.obs.span_start("ingest", obs::SpanCtx::NONE, start, 0, engine.runs());
            drain =
                self.cfg.obs.span_instant("drain", ingest, now.as_nanos(), 0, updates.len() as u64);
            self.cfg.obs.span_end(ingest, now.as_nanos());
        }
        let actions = engine.run_traced(updates, now, drain);
        self.stats.engine_runs.fetch_add(1, Ordering::Relaxed);
        let n = actions.len();
        drop(engine);
        self.dispatch_actions(actions);
        n
    }

    fn handle_event(&self, event: &Event) {
        let Event::Access(access) = event else { return };
        let now = access.time;
        match access.kind {
            AccessKind::Open => {
                self.auditor.set_file_size(access.file, self.registry.size_of(access.file));
                self.auditor.start_epoch(access.file, now);
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
                let mut engine = self.engine.lock();
                for seg in segments {
                    engine.remove_segment(seg);
                    let range = segment_range(seg.index, self.cfg.segment_size, size);
                    for (tier, _) in self.hierarchy.iter_cache() {
                        self.do_evict(access.file, range, tier);
                    }
                }
            }
            AccessKind::Close => {
                if self.auditor.end_epoch(access.file, now) && self.cfg.evict_on_epoch_end {
                    let actions = self.engine.lock().evict_file(access.file);
                    self.dispatch_actions(actions);
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
        let mut engine = PlacementEngine::new(&hierarchy, cfg.reactiveness);
        engine.set_recorder(cfg.obs.clone());
        let auditor = Auditor::new(cfg.clone());
        let backing = Arc::clone(&backends[hierarchy.backing().index()]);

        let (io_tx, io_rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let inner = Arc::new(ServerInner {
            cfg,
            hierarchy,
            auditor,
            engine: Mutex::new(engine),
            backends,
            ledger,
            mover: DataMover::new(),
            retry: RetryPolicy::default(),
            registry: Arc::clone(&registry),
            watches: Arc::clone(&watches),
            queue: queue.clone(),
            clock: Arc::clone(&clock),
            stats: ServerStats::default(),
            io_tx: Mutex::new(Some(io_tx)),
            io_inflight: AtomicU64::new(0),
        });

        let shim = Arc::new(PosixShim::new(registry, watches, queue.clone(), clock, backing));

        // I/O clients: one worker per cache tier, all pulling from the
        // shared job channel (work-stealing keeps a busy tier from
        // starving).
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
                            match job {
                                Job::Fetch { file, range, to, released_from, span } => {
                                    inner_.do_fetch(file, range, to, released_from, span)
                                }
                                Job::Evict { file, range, from } => {
                                    inner_.do_evict(file, range, from)
                                }
                                Job::Stop => {
                                    inner_.io_inflight.fetch_sub(1, Ordering::Release);
                                    break;
                                }
                            }
                            inner_.io_inflight.fetch_sub(1, Ordering::Release);
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
                    if inner.engine_pass(false) == 0 {
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
    /// all pending updates, and the I/O clients are idle. Gives tests and
    /// examples a deterministic settle point.
    pub fn quiesce(&self) {
        loop {
            if let Some(m) = &self.monitor {
                m.drain();
            }
            // Allow in-flight daemon handoffs to land.
            std::thread::sleep(Duration::from_millis(5));
            self.inner.engine_pass(true);
            if self.inner.io_inflight.load(Ordering::Acquire) == 0
                && self.inner.queue.is_empty()
                && self.inner.auditor.pending_updates() == 0
            {
                break;
            }
        }
    }

    /// Stops all threads, draining outstanding work first.
    pub fn shutdown(mut self) {
        self.quiesce();
        self.inner.export_obs();
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        if let Some(m) = self.monitor.take() {
            m.stop();
        }
        // Stop the I/O clients.
        {
            let tx_slot = self.inner.io_tx.lock();
            if let Some(tx) = tx_slot.as_ref() {
                for _ in 0..self.io_threads.len() {
                    self.inner.io_inflight.fetch_add(1, Ordering::Release);
                    let _ = tx.send(Job::Stop);
                }
            }
        }
        *self.inner.io_tx.lock() = None;
        for t in self.io_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for HFetchServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(t) = self.engine_thread.take() {
            let _ = t.join();
        }
        // Monitor and I/O threads stop via their own Drop/channel closure.
        *self.inner.io_tx.lock() = None;
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

    /// Dispatches a `Move` of a 1 MiB segment that sits on NVMe (tier 1,
    /// accounted in the ledger) up to RAM (tier 0), after `prepare` has
    /// shaped the destination, and waits for the I/O client to finish.
    fn dispatch_nvme_to_ram_move(prepare: impl FnOnce(&ServerInner, FileId)) -> HFetchServer {
        let server = HFetchServer::in_memory(HFetchConfig::default(), small_hierarchy());
        let inner = server.inner();
        let file = FileId(77);
        inner.auditor.set_file_size(file, MIB);
        inner.backend(TierId(1)).write(file, 0, &vec![7u8; MIB as usize]).unwrap();
        inner.ledger.reserve(TierId(1), MIB).unwrap();
        prepare(inner, file);
        inner.dispatch_actions(vec![PlacementAction::Move {
            segment: SegmentId::new(file, 0),
            from: TierId(1),
            to: TierId(0),
        }]);
        server.quiesce();
        server
    }

    #[test]
    fn denied_move_keeps_source_accounted() {
        // RAM is full, so the promotion is denied and the bytes never
        // leave NVMe: the ledger must account them to NVMe again.
        let server = dispatch_nvme_to_ram_move(|inner, _| {
            let free = inner.ledger.available(TierId(0));
            inner.ledger.reserve(TierId(0), free).unwrap();
        });
        let inner = server.inner();
        let file = FileId(77);
        assert_eq!(server.stats().denied_fetches.load(Ordering::Relaxed), 1);
        assert_eq!(server.stats().failed_fetches.load(Ordering::Relaxed), 0, "a denial is not a failure");
        assert_eq!(inner.backend(TierId(1)).resident_bytes(file), MIB, "bytes stay on the source");
        assert_eq!(inner.ledger.used(TierId(1)), inner.backend(TierId(1)).resident_bytes(file));
        server.shutdown();
    }

    #[test]
    fn move_already_at_destination_drops_the_source_copy() {
        // The segment already landed in RAM: the move copies nothing, and
        // the redundant NVMe copy goes so residency stays exclusive.
        let server = dispatch_nvme_to_ram_move(|inner, file| {
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
}
