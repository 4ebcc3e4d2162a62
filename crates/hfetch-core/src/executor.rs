//! The placement loop both deployments share (§III-A: one engine feeding
//! one set of I/O clients).
//!
//! [`Executor::start_epoch`] stages a file against the engine's capacity;
//! [`Executor::run_engine`] drains the auditor's score updates into one
//! Algorithm 1 pass; [`Executor::execute`] turns placement actions into
//! data movement, bounded by the I/O-client slots, retrying capacity
//! denials and reconciling the engine's model whenever a movement will not
//! happen. The simulator ([`crate::policy`]) and the real server
//! ([`crate::server`]) run this same code; only the [`Transport`] differs.

use std::collections::VecDeque;

use obs::SpanCtx;
use sim::engine::{FetchOutcome, SimCtl};
use tiers::ids::{FileId, SegmentId, TierId};
use tiers::range::{segment_range, ByteRange};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;

use crate::auditor::Auditor;
use crate::config::HFetchConfig;
use crate::engine::{PlacementAction, PlacementEngine};

/// How placement actions reach the tiers.
pub(crate) trait Transport {
    /// Size of `file` in bytes.
    fn file_size(&self, file: FileId) -> u64;
    /// Admits moving `range` of `file` into cache tier `to`, sourcing it
    /// from its fastest current holder; `span` parents the transfer spans.
    /// Each transfer scheduled reports back via [`Executor::transfer_done`].
    fn fetch(&mut self, file: FileId, range: ByteRange, to: TierId, span: SpanCtx) -> FetchOutcome;
    /// Drops `range` of `file` from cache tier `tier`.
    fn discard(&mut self, file: FileId, range: ByteRange, tier: TierId);
}

impl Transport for SimCtl<'_> {
    fn file_size(&self, file: FileId) -> u64 {
        SimCtl::file_size(self, file)
    }

    fn fetch(&mut self, file: FileId, range: ByteRange, to: TierId, span: SpanCtx) -> FetchOutcome {
        self.fetch_traced(file, range, to, span)
    }

    fn discard(&mut self, file: FileId, range: ByteRange, tier: TierId) {
        SimCtl::discard(self, file, range, tier);
    }
}

/// Retry budget for capacity-denied actions.
const RETRIES: u8 = 8;

/// The placement engine and the executor of its actions.
pub(crate) struct Executor {
    pub(crate) engine: PlacementEngine,
    cfg: HFetchConfig,
    /// Placement actions waiting for an I/O-client slot, with a retry
    /// budget: a promotion can be denied because the demotion that makes
    /// room for it is still in flight — capacity frees at transfer
    /// completion, so denied actions requeue and retry as transfers land.
    queue: VecDeque<(PlacementAction, u8)>,
    /// Transfers currently in flight (bounded by
    /// [`HFetchConfig::max_inflight_fetches`]).
    inflight: usize,
    /// Actions executed (for tests/diagnostics).
    pub(crate) actions_executed: u64,
    /// Fetches given up after their last capacity denial.
    pub(crate) denied: u64,
}

impl Executor {
    pub(crate) fn new(cfg: &HFetchConfig, hierarchy: &Hierarchy) -> Self {
        let mut engine =
            PlacementEngine::with_margin(hierarchy, cfg.reactiveness, cfg.displacement_margin);
        engine.set_recorder(cfg.obs.clone());
        Self {
            engine,
            cfg: cfg.clone(),
            queue: VecDeque::new(),
            inflight: 0,
            actions_executed: 0,
            denied: 0,
        }
    }

    /// True when no action is queued and no transfer is in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight == 0
    }

    /// Starts (or joins) `file`'s epoch, staging no more than the engine
    /// could place: its segment slots, plus the segments of `file` it
    /// already holds.
    pub(crate) fn start_epoch(&self, auditor: &Auditor, file: FileId, now: Timestamp) -> bool {
        let slots = self.engine.segment_slots(self.cfg.segment_size);
        auditor.start_epoch_bounded(file, now, slots, || self.engine.placed_indices(file))
    }

    /// One engine pass over the drained updates, then its actions.
    ///
    /// Observed first-touch updates for uncached segments are filtered
    /// out (fetch-on-second-touch): retro-fetching a segment that was
    /// *just* read pays a second backing-store read for data that may
    /// never be touched again. Such segments enter the cache through
    /// anticipation instead — sequencing lookahead, epoch staging, and
    /// heatmap history — or once observed reuse proves them hot.
    pub(crate) fn run_engine(&mut self, auditor: &Auditor, now: Timestamp, t: &mut impl Transport) {
        // Ingest→drain latency: how stale the oldest undrained score update
        // was when this engine pass picked it up (§IV-A.1 reactiveness). A
        // real-thread daemon may stamp a push after `now` was sampled:
        // clamp so the span stays well-formed.
        let rec = &self.cfg.obs;
        let since = auditor.take_pending_since().map(|since| since.min(now));
        if let Some(since) = since {
            rec.span(
                "auditor.drain_latency_ns",
                obs::Label::None,
                since.as_nanos(),
                now.as_nanos(),
            );
        }
        let engine = &mut self.engine;
        let updates: Vec<_> = auditor
            .drain_updates()
            .into_iter()
            .filter(|u| {
                u.anticipated
                    || engine.location(u.segment).is_some()
                    || auditor.stat(u.segment).is_some_and(|st| st.frequency >= 2)
            })
            .collect();
        // Causal root of this pass: an `ingest` span covering the window
        // from the oldest queued update to this drain, with a `drain`
        // instant the pass's fetch decisions parent onto. The span tree
        // then reads ingest → drain → decision → transfer → landing →
        // app_read for every byte this pass stages.
        let mut drain = SpanCtx::NONE;
        if let Some(since) = since {
            let ingest =
                rec.span_start("ingest", SpanCtx::NONE, since.as_nanos(), 0, engine.runs());
            drain = rec.span_instant("drain", ingest, now.as_nanos(), 0, updates.len() as u64);
            rec.span_end(ingest, now.as_nanos());
        }
        let actions = engine.run_traced(updates, now, drain);
        self.execute(actions, t);
    }

    /// Queues `actions` and issues what the I/O-client slots allow.
    pub(crate) fn execute(&mut self, actions: Vec<PlacementAction>, t: &mut impl Transport) {
        self.queue.extend(actions.into_iter().map(|a| (a, RETRIES)));
        self.pump(t);
    }

    /// A transfer finished: frees its slot, reconciles the model if the
    /// movement `failed`, and issues queued actions.
    pub(crate) fn transfer_done(
        &mut self,
        failed: Option<PlacementAction>,
        t: &mut impl Transport,
    ) {
        self.inflight = self.inflight.saturating_sub(1);
        if let Some(action) = failed {
            self.forget(action, t);
        }
        self.pump(t);
    }

    /// Issues queued placement actions while I/O-client slots are free.
    /// Evictions are metadata-only and execute immediately. Capacity-
    /// denied fetches requeue (bounded retries): the space they need is
    /// usually freed by an in-flight demotion.
    pub(crate) fn pump(&mut self, t: &mut impl Transport) {
        let mut budget = self.queue.len() + 8; // one sweep, no spinning
        while self.inflight < self.cfg.max_inflight_fetches && budget > 0 {
            budget -= 1;
            let Some((action, retries)) = self.queue.pop_front() else { break };
            match action {
                PlacementAction::Fetch { segment, to }
                | PlacementAction::Move { segment, to, .. } => {
                    let range = self.segment_bytes(segment, t);
                    let outcome = t.fetch(segment.file, range, to, self.engine.span_of(segment));
                    self.inflight += outcome.transfers as usize;
                    if outcome.scheduled == 0 && outcome.abandoned > 0 {
                        // Fault injection abandoned the movement (offline
                        // destination stack or permanent failure). A retry
                        // would roll against the same fault plan, so
                        // reconcile immediately, like a final denial.
                        self.forget(action, t);
                        continue;
                    }
                    if outcome.rerouted_to.is_some() {
                        // The bytes are landing on a different tier than the
                        // model planned (offline-destination re-route): drop
                        // the model placement. Residency tracks the real
                        // tier, and a later engine run re-places the segment
                        // from fresh scores.
                        self.engine.remove_segment(segment);
                    }
                    if outcome.denied > 0 && outcome.scheduled == 0 {
                        if retries > 0 {
                            self.queue.push_back((action, retries - 1));
                        } else {
                            self.denied += 1;
                            self.forget(action, t);
                        }
                        continue;
                    }
                    self.actions_executed += 1;
                }
                PlacementAction::Evict { segment, from } => {
                    let range = self.segment_bytes(segment, t);
                    t.discard(segment.file, range, from);
                    self.actions_executed += 1;
                }
            }
        }
    }

    /// The placement will never happen (abandoned, finally denied, or its
    /// copy failed): reconcile the engine's model with reality, or the
    /// drift compounds (the engine would believe the tier holds segments
    /// it does not and stop demoting). A move's source copy goes too, so
    /// no cached bytes linger outside the model.
    fn forget(&mut self, action: PlacementAction, t: &mut impl Transport) {
        let (PlacementAction::Fetch { segment, .. }
        | PlacementAction::Move { segment, .. }
        | PlacementAction::Evict { segment, .. }) = action;
        self.engine.remove_segment(segment);
        if let PlacementAction::Move { from, .. } = action {
            t.discard(segment.file, self.segment_bytes(segment, t), from);
        }
    }

    fn segment_bytes(&self, segment: SegmentId, t: &impl Transport) -> ByteRange {
        segment_range(segment.index, self.cfg.segment_size, t.file_size(segment.file))
    }
}
