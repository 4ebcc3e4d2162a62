//! The File Segment Auditor (§III-A.2).
//!
//! The auditor turns the enriched event feed into per-segment knowledge:
//!
//! * **frequency** — how many times each segment was accessed,
//! * **recency** — when it was last accessed (folded into the decaying
//!   score of Eq. 1),
//! * **sequencing** — which segment preceded it, per process; distinct
//!   predecessors raise the segment's reference count `n`, slowing decay,
//! * **epochs** — a file is targeted for prefetching only while open for
//!   reading (fopen→fclose); the first opener starts the epoch, the last
//!   closer ends it. Starting an epoch records the file's Eq. 1 seed (base
//!   score or reloaded heatmap) once, and stages only the segments the
//!   placement engine could hold,
//! * **heatmaps** — on epoch end the score vector is persisted; a re-open
//!   reloads it, giving repeat phases (Montage re-projection, WRF
//!   iterations) instant history without offline profiling.
//!
//! Statistics live in the distributed hashmap ([`dht::DistributedMap`]), so
//! updates from any process are atomic and globally visible — the paper's
//! "global view … while avoiding a global synchronization barrier".
//! Updated scores are pushed into a vector the placement engine drains
//! ("All updated scores are pushed by the auditor into a vector which the
//! engine processes", §III-D).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dht::{DistributedMap, FxHashMap};
use parking_lot::Mutex;
use tiers::ids::{FileId, ProcessId, SegmentId};
use tiers::range::{segment_count, segment_range, segments_of_request, ByteRange};
use tiers::time::Timestamp;

use crate::config::HFetchConfig;
use crate::heatmap::{FileHeatmap, HeatmapStore};
use crate::scoring::ScoreState;
use crate::update_queue::UpdateQueue;

/// Maximum distinct predecessors tracked per segment (`n` saturates here).
const MAX_PREDECESSORS: usize = 8;

/// Score multiplier applied per step of lookahead distance: an anticipated
/// successor `k` segments ahead scores `score × LOOKAHEAD_DECAY^k`.
const LOOKAHEAD_DECAY: f64 = 0.5;

/// Per-segment statistics, stored in the distributed hashmap.
#[derive(Clone, Debug, Default)]
pub struct SegmentStat {
    /// Total accesses observed.
    pub frequency: u64,
    /// Time of the most recent access.
    pub last_access: Timestamp,
    /// Distinct predecessor segments observed (sequencing; capped).
    pub predecessors: Vec<SegmentId>,
    /// Decaying Eq. 1 score state.
    pub score: ScoreState,
}

impl SegmentStat {
    /// The reference count `n ≥ 1` of Eq. 1.
    pub fn n(&self) -> u32 {
        (self.predecessors.len() as u32).max(1)
    }
}

/// One score change, consumed by the placement engine.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreUpdate {
    /// Segment whose score changed.
    pub segment: SegmentId,
    /// The new score.
    pub score: f64,
    /// Segment size in bytes (last segment of a file may be short).
    pub size: u64,
    /// True if this update anticipates a *future* access (sequencing
    /// lookahead or epoch staging) rather than recording an observed one.
    pub anticipated: bool,
}

/// Lock acquisitions across the ingestion path, by lock family.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngestLockStats {
    /// Statistics-map shard locks (read or write).
    pub map_shard: u64,
    /// Update-queue locks.
    pub queue: u64,
    /// Auxiliary mutexes (per-file state, per-process last segment, epoch
    /// refcounts).
    pub auxiliary: u64,
}

impl IngestLockStats {
    /// Total acquisitions across all families.
    pub fn total(&self) -> u64 {
        self.map_shard + self.queue + self.auxiliary
    }
}

/// The Eq. 1 state an epoch gives every segment of its file that has no
/// statistics yet: `score(index)`, seeded at the epoch start. It is
/// applied lazily, with the float ops an eager per-segment seed would use:
/// on the segment's first read, in lookahead peeks and in heatmap
/// snapshots. A later epoch of the file replaces it: a never-read segment
/// the new epoch scores 0 starts from zero rather than from the earlier
/// seed. Heatmaps only grow and the base score is fixed, so that takes a
/// reloaded score decaying to exactly 0.0 (over 1,000 idle time steps at
/// p = 2).
#[derive(Debug)]
struct EpochSeed {
    at: Timestamp,
    base: f64,
    /// Heatmap history, with its decay from the snapshot to `at`.
    history: Option<(Arc<FileHeatmap>, f64)>,
}

impl EpochSeed {
    /// The staging score of segment `index` (0 = not staged).
    fn score(&self, index: u64) -> f64 {
        let historical = self.history.as_ref().map_or(0.0, |(h, decay)| h.score(index) * decay);
        historical.max(self.base)
    }

    /// The seeded score state of segment `index`, if it is staged.
    fn state(&self, index: u64) -> Option<ScoreState> {
        let score = self.score(index);
        (score > 0.0).then(|| {
            let mut state = ScoreState::new();
            state.seed(score, self.at);
            state
        })
    }
}

/// A first opener's staging, deferred in the update queue until the next
/// drain (see [`Auditor::start_epoch_bounded`]).
pub(crate) struct Staging {
    pub(crate) file: FileId,
    size: u64,
    segment_size: u64,
    seed: Arc<EpochSeed>,
    /// Full-size segments the placement engine can hold.
    slots: u64,
}

impl Staging {
    /// The staging update of segment `index`, if it is staged.
    pub(crate) fn update(&self, index: u64) -> Option<ScoreUpdate> {
        let score = self.seed.score(index);
        (score > 0.0 && index < segment_count(self.size, self.segment_size)).then(|| ScoreUpdate {
            segment: SegmentId::new(self.file, index),
            score,
            size: segment_range(index, self.segment_size, self.size).len,
            anticipated: true,
        })
    }

    /// The staging updates a pass could act on among the segments without
    /// a slot: the top `slots` full-size segments in the engine's order
    /// (score descending, index ascending), plus the short tail.
    pub(crate) fn expand(&self, slotted: impl Fn(SegmentId) -> bool) -> Vec<ScoreUpdate> {
        let free = |i: &u64| !slotted(SegmentId::new(self.file, *i));
        let full = self.size / self.segment_size;
        let k = usize::try_from(self.slots).unwrap_or(usize::MAX);
        let mut staged: Vec<ScoreUpdate> = match &self.seed.history {
            // A uniform score: the engine's order is the index order.
            None => (0..full).filter(free).filter_map(|i| self.update(i)).take(k).collect(),
            Some(_) => {
                let mut ranked: Vec<ScoreUpdate> =
                    (0..full).filter(free).filter_map(|i| self.update(i)).collect();
                if ranked.len() > k {
                    if k > 0 {
                        ranked.select_nth_unstable_by(k - 1, |a, b| {
                            b.score.total_cmp(&a.score).then(a.segment.cmp(&b.segment))
                        });
                    }
                    ranked.truncate(k);
                }
                ranked
            }
        };
        let segments = segment_count(self.size, self.segment_size);
        staged.extend((full..segments).filter(free).filter_map(|i| self.update(i)));
        staged
    }
}

/// What the auditor knows per file, under one lock.
#[derive(Debug, Default)]
struct FileState {
    size: u64,
    /// The latest epoch's seed.
    seed: Option<Arc<EpochSeed>>,
    /// Bitset of the segment indices that have statistics (were read).
    read: Vec<u64>,
}

impl FileState {
    fn mark_read(&mut self, first: u64, last: u64) {
        let words = (last / 64 + 1) as usize;
        if self.read.len() < words {
            self.read.resize(words, 0);
        }
        for index in first..=last {
            self.read[(index / 64) as usize] |= 1 << (index % 64);
        }
    }

    /// The indices marked read, ascending.
    fn read_indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.read.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as u64;
                    bits &= bits - 1;
                    w as u64 * 64 + bit
                })
            })
        })
    }
}

/// The File Segment Auditor.
pub struct Auditor {
    cfg: HFetchConfig,
    stats: DistributedMap<SegmentId, SegmentStat>,
    files: Mutex<FxHashMap<FileId, FileState>>,
    last_by_process: Mutex<FxHashMap<ProcessId, SegmentId>>,
    epoch_refs: Mutex<FxHashMap<FileId, u32>>,
    updates: UpdateQueue,
    aux_locks: AtomicU64,
    heatmaps: Arc<HeatmapStore>,
    /// Simulated timestamp of the oldest score update queued since the last
    /// drain. Only touched when `cfg.obs` is enabled (the policy reads it at
    /// drain time to record ingest→drain latency), so the ingestion hot path
    /// stays lock-free with observability off.
    pending_since: Mutex<Option<Timestamp>>,
}

impl Auditor {
    /// Creates an auditor with an in-memory heatmap store.
    pub fn new(cfg: HFetchConfig) -> Self {
        Self::with_heatmaps(cfg, Arc::new(HeatmapStore::in_memory()))
    }

    /// Creates an auditor sharing an existing heatmap store.
    pub fn with_heatmaps(cfg: HFetchConfig, heatmaps: Arc<HeatmapStore>) -> Self {
        cfg.validate();
        Self {
            cfg,
            stats: DistributedMap::new(),
            files: Mutex::new(FxHashMap::default()),
            last_by_process: Mutex::new(FxHashMap::default()),
            epoch_refs: Mutex::new(FxHashMap::default()),
            updates: UpdateQueue::new(),
            aux_locks: AtomicU64::new(0),
            heatmaps,
            pending_since: Mutex::new(None),
        }
    }

    /// Stamps the ingest side of the ingest→drain latency span: the first
    /// update queued after a drain records its simulated arrival time.
    /// No-op (one branch) when observability is disabled.
    fn note_ingest(&self, now: Timestamp) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        let mut since = self.pending_since.lock();
        if since.is_none() {
            *since = Some(now);
        }
    }

    /// Takes the arrival stamp of the oldest update queued since the last
    /// call (the drain side of the ingest→drain latency span). Always
    /// `None` when observability is disabled.
    pub fn take_pending_since(&self) -> Option<Timestamp> {
        if !self.cfg.obs.is_enabled() {
            return None;
        }
        self.pending_since.lock().take()
    }

    /// The configuration in force.
    pub fn config(&self) -> &HFetchConfig {
        &self.cfg
    }

    fn aux_lock(&self) {
        self.aux_locks.fetch_add(1, Ordering::Relaxed);
    }

    /// Registers (or grows) a file's size so segment indices can be
    /// bounded.
    pub fn set_file_size(&self, file: FileId, size: u64) {
        self.aux_lock();
        let mut files = self.files.lock();
        let state = files.entry(file).or_default();
        state.size = state.size.max(size);
    }

    /// The recorded size of `file`.
    pub fn file_size(&self, file: FileId) -> u64 {
        self.aux_lock();
        self.files.lock().get(&file).map_or(0, |f| f.size)
    }

    /// Lock acquisitions across the ingestion path since construction.
    /// Divide by events processed for a locks-per-event figure.
    pub fn ingest_lock_stats(&self) -> IngestLockStats {
        IngestLockStats {
            map_shard: self.stats.stats().snapshot().shard_locks,
            queue: self.updates.lock_acquisitions(),
            auxiliary: self.aux_locks.load(Ordering::Relaxed),
        }
    }

    /// Exports the statistics map's shard counters (inserts, hits, lock
    /// acquisitions, …) into the configured recorder under `dht.map.*`,
    /// plus the ingestion-contention telemetry: lock acquisitions by
    /// family ([`IngestLockStats`]) and the update queue's level. The
    /// counters are cumulative since construction: export once per run
    /// (the golden-trace gate pins them, catching regressions in the
    /// ingestion path).
    pub fn export_obs(&self) {
        if !self.cfg.obs.is_enabled() {
            return;
        }
        self.stats.stats().snapshot().export_obs(&self.cfg.obs);
        let locks = self.ingest_lock_stats();
        let o = &self.cfg.obs;
        o.counter_add("ingest.locks.map_shard", obs::Label::None, locks.map_shard);
        o.counter_add("ingest.locks.queue", obs::Label::None, locks.queue);
        o.counter_add("ingest.locks.auxiliary", obs::Label::None, locks.auxiliary);
        o.gauge_set("ingest.queue.pending", obs::Label::None, self.updates.pending());
    }

    /// Starts (or joins) a prefetching epoch for `file` with no placement
    /// engine to bound the staging: every segment with a positive staging
    /// score is queued. Both deployments stage through the engine instead
    /// ([`Auditor::start_epoch_bounded`] with the engine's capacity).
    pub fn start_epoch(&self, file: FileId, now: Timestamp) -> bool {
        self.start_epoch_bounded(file, now, u64::MAX, Vec::new)
    }

    /// Starts (or joins) a prefetching epoch for `file`. Returns true for
    /// the first concurrent opener, which stages the file: every segment's
    /// staging score — heatmap history if available, otherwise the
    /// configured base score — is recorded once as the file's epoch seed,
    /// and each segment with a positive score gets an anticipated update,
    /// so the engine can pre-load hot regions before the first read.
    ///
    /// Only updates Algorithm 1 could act on are materialised. The
    /// segments `held` returns (those the engine places, which staging
    /// re-settles) and the file's pending slots (which staging overwrites)
    /// are pushed now. The rest stay one deferred staging record that
    /// the next drain expands into the top `slots` full-size segments
    /// still without a slot, in the engine's order, plus the short tail.
    /// A pass holds at most `slots` full-size segments, and a segment that
    /// cannot be placed changes nothing, so the pass plans exactly what it
    /// would with every segment's update queued. The pending count still
    /// grows by one per staged segment, so the engine triggers as before.
    pub fn start_epoch_bounded(
        &self,
        file: FileId,
        now: Timestamp,
        slots: u64,
        held: impl FnOnce() -> Vec<u64>,
    ) -> bool {
        let first = {
            self.aux_lock();
            let mut refs = self.epoch_refs.lock();
            let count = refs.entry(file).or_insert(0);
            *count += 1;
            *count == 1
        };
        if !first {
            return false;
        }
        self.cfg
            .obs
            .trace_event(obs::TraceEvent::EpochStart { at: now.as_nanos(), file: file.0 });
        let history = self.heatmaps.load(file).map(|h| {
            // Decay the stored scores from their snapshot time to now.
            let decay = self.cfg.score.decay(now.since(h.saved_at), 1);
            (h, decay)
        });
        let seed = Arc::new(EpochSeed { at: now, base: self.cfg.epoch_base_score, history });
        let size = {
            self.aux_lock();
            let mut files = self.files.lock();
            let state = files.entry(file).or_default();
            state.seed = Some(Arc::clone(&seed));
            state.size
        };
        let staging =
            Staging { file, size, segment_size: self.cfg.segment_size, seed, slots };
        let segments = segment_count(size, staging.segment_size);
        let staged = match &staging.seed.history {
            None if staging.seed.base > 0.0 => segments,
            None => 0,
            Some(_) => (0..segments).filter(|&i| staging.seed.score(i) > 0.0).count() as u64,
        };
        if staged == 0 {
            return true;
        }
        let mut held: Vec<u64> = held();
        held.retain(|&i| i < segments && staging.seed.score(i) > 0.0);
        held.sort_unstable();
        self.updates.push_staging(staging, staged, &held);
        self.note_ingest(now);
        true
    }

    /// Ends (or leaves) the epoch for `file`. Returns true for the last
    /// concurrent closer; the heatmap is persisted at that point.
    pub fn end_epoch(&self, file: FileId, now: Timestamp) -> bool {
        let last = {
            self.aux_lock();
            let mut refs = self.epoch_refs.lock();
            match refs.get_mut(&file) {
                None => return false,
                Some(count) => {
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        refs.remove(&file);
                        true
                    } else {
                        false
                    }
                }
            }
        };
        if last {
            self.cfg
                .obs
                .trace_event(obs::TraceEvent::EpochEnd { at: now.as_nanos(), file: file.0 });
            self.heatmaps.save(self.snapshot_heatmap(file, now));
        }
        last
    }

    /// True if `file` currently has an open epoch.
    pub fn in_epoch(&self, file: FileId) -> bool {
        self.aux_lock();
        self.epoch_refs.lock().contains_key(&file)
    }

    /// Forcibly ends `file`'s epoch regardless of how many openers are
    /// outstanding, persisting the heatmap as a normal last close would.
    /// Recovery hook for lossy event feeds (dropped close events under
    /// fault injection, crashed clients): without it a single lost close
    /// would pin the epoch open — and its staged data cached — forever.
    /// Returns false if no epoch was open.
    pub fn force_end_epoch(&self, file: FileId, now: Timestamp) -> bool {
        self.aux_lock();
        if self.epoch_refs.lock().remove(&file).is_none() {
            return false;
        }
        self.cfg
            .obs
            .trace_event(obs::TraceEvent::EpochEnd { at: now.as_nanos(), file: file.0 });
        self.heatmaps.save(self.snapshot_heatmap(file, now));
        true
    }

    /// Observes a read: updates frequency/recency/sequencing for every
    /// touched segment, recomputes scores, and emits score updates —
    /// including anticipated updates for the next `lookahead` successors
    /// of the request's last segment.
    ///
    /// Returns the number of (non-anticipated) segment updates.
    pub fn observe_read(
        &self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        now: Timestamp,
    ) -> usize {
        // One file-state acquisition for the whole call: the size, the
        // epoch seed, and the read marks of the touched segments.
        let (size, first, last, seed) = {
            self.aux_lock();
            let mut files = self.files.lock();
            let Some(state) = files.get_mut(&file) else { return 0 };
            let size = state.size;
            if size == 0 || range.offset >= size {
                return 0;
            }
            let clamped = ByteRange::from_bounds(range.offset, range.end().min(size));
            let Some((first, last)) = clamped.segment_span(self.cfg.segment_size) else {
                return 0;
            };
            state.mark_read(first, last);
            (size, first, last, state.seed.clone())
        };
        let keys: Vec<SegmentId> = (first..=last).map(|index| SegmentId::new(file, index)).collect();
        let last_seg = SegmentId::new(file, last);
        self.aux_lock();
        let carried = self.last_by_process.lock().insert(process, last_seg);
        let params = self.cfg.score;
        let seg_size = |index: u64| segment_range(index, self.cfg.segment_size, size).len;
        // Predecessors are known up front: the first touched segment
        // chains from the process's carried-over segment, each later one
        // from its in-request neighbour. That lets every segment apply in
        // one batched pass over the shards (one lock per shard visited).
        let scores = self.stats.update_many_with(&keys, SegmentStat::default, |idx, st| {
            if st.frequency == 0 {
                // First read: start from the epoch's seed.
                if let Some(seeded) = seed.as_ref().and_then(|s| s.state(keys[idx].index)) {
                    st.score = seeded;
                }
            }
            let prev = match idx {
                0 => carried.filter(|p| p.file == file && *p != keys[0]),
                _ => Some(keys[idx - 1]),
            };
            if let Some(p) = prev {
                if st.predecessors.len() < MAX_PREDECESSORS && !st.predecessors.contains(&p) {
                    st.predecessors.push(p);
                }
            }
            st.frequency += 1;
            st.last_access = now;
            let n = st.n();
            st.score.record(now, &params, n)
        });
        let mut batch = Vec::with_capacity(keys.len() + self.cfg.lookahead as usize);
        batch.extend(keys.iter().zip(&scores).map(|(&segment, &score)| ScoreUpdate {
            segment,
            score,
            size: seg_size(segment.index),
            anticipated: false,
        }));
        // Sequencing lookahead: anticipate the successors of the last
        // touched segment. The map update left the last segment's
        // accumulator stamped at `now`, so the score it returned *is* the
        // peek — no map re-read needed.
        let total_segments = segment_count(size, self.cfg.segment_size);
        let mut anticipated = *scores.last().expect("non-empty");
        for step in 1..=self.cfg.lookahead {
            anticipated *= LOOKAHEAD_DECAY;
            let index = last_seg.index + step;
            if index >= total_segments {
                break;
            }
            let succ = SegmentId::new(file, index);
            // In-place peek: no `SegmentStat` clone. A never-read
            // successor peeks its epoch seed (reference count 1).
            let existing = self
                .stats
                .get_with(&succ, |st| st.score.peek(now, &params, st.n()))
                .or_else(|| seed.as_ref()?.state(index).map(|s| s.peek(now, &params, 1)))
                .unwrap_or(0.0);
            let score = existing.max(anticipated);
            if score > 0.0 {
                batch.push(ScoreUpdate { segment: succ, score, size: seg_size(index), anticipated: true });
            }
        }
        // The whole read — observed segments in request order, then the
        // lookahead — enters the queue under one lock.
        self.updates.push(&batch);
        self.note_ingest(now);
        keys.len()
    }

    /// Observes a write: returns the segments whose prefetched data must be
    /// invalidated (consistency, §III-A.1). Statistics are retained — the
    /// region is still hot, just stale.
    pub fn observe_write(&self, file: FileId, range: ByteRange, _now: Timestamp) -> Vec<SegmentId> {
        // Writes may extend the file.
        self.set_file_size(file, range.end());
        segments_of_request(file, range, self.cfg.segment_size)
            .into_iter()
            .map(|(seg, _)| seg)
            .collect()
    }

    /// Drains the pending score updates (engine trigger). The batch is
    /// coalesced to the latest score per segment, in first-touch order.
    pub fn drain_updates(&self) -> Vec<ScoreUpdate> {
        self.updates.drain()
    }

    /// Number of updates accumulated since the last drain. Counts *raw*
    /// pushes, not coalesced slots, so the engine's count-based trigger
    /// (Reactiveness, §III-D) fires at the same cadence it would with an
    /// uncoalesced queue. Drains subtract exactly what they removed, so
    /// the count stays consistent with queue contents under concurrency.
    pub fn pending_updates(&self) -> usize {
        self.updates.pending() as usize
    }

    /// Current statistics for one segment; `None` until it is first read
    /// (a staged segment's seed lives in its file's epoch record).
    pub fn stat(&self, segment: SegmentId) -> Option<SegmentStat> {
        self.stats.get(&segment)
    }

    /// Builds the current heatmap of `file` (scores evaluated at `now`).
    /// Never-read segments decay their epoch seed (one decay factor for
    /// all of them); only the segments marked read are looked up.
    pub fn snapshot_heatmap(&self, file: FileId, now: Timestamp) -> FileHeatmap {
        let (size, seed, read): (u64, Option<Arc<EpochSeed>>, Vec<u64>) = {
            self.aux_lock();
            match self.files.lock().get(&file) {
                Some(f) => (f.size, f.seed.clone(), f.read_indices().collect()),
                None => (0, None, Vec::new()),
            }
        };
        let segments = segment_count(size, self.cfg.segment_size) as usize;
        let params = self.cfg.score;
        let mut heatmap = FileHeatmap::cold(file, self.cfg.segment_size, segments);
        heatmap.saved_at = now;
        if let Some(seed) = seed {
            // `ScoreState::peek` of the seeded state, with `n = 1`.
            let decay = params.decay(now.since(seed.at), 1);
            for (index, score) in heatmap.scores.iter_mut().enumerate() {
                let seeded = seed.score(index as u64);
                if seeded > 0.0 {
                    *score = seeded * decay;
                }
            }
        }
        for index in read.into_iter().filter(|&i| i < segments as u64) {
            let peeked = self
                .stats
                .get_with(&SegmentId::new(file, index), |st| st.score.peek(now, &params, st.n()));
            if let Some(score) = peeked {
                heatmap.scores[index as usize] = score;
            }
        }
        heatmap
    }

    /// The heatmap store (shared with the server for workflow-end cleanup).
    pub fn heatmaps(&self) -> &Arc<HeatmapStore> {
        &self.heatmaps
    }

    /// Forgets everything about `file` (workflow end / file deletion),
    /// including its epoch seed and the score updates still queued for the
    /// engine — a stale pending update would otherwise resurrect placement
    /// for a file whose statistics no longer exist.
    pub fn forget_file(&self, file: FileId) {
        self.stats.retain(|seg, _| seg.file != file);
        self.updates.purge_file(file);
        self.aux_lock();
        self.files.lock().remove(&file);
        self.aux_lock();
        let mut last = self.last_by_process.lock();
        last.retain(|_, seg| seg.file != file);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiers::units::MIB;

    fn auditor() -> Auditor {
        Auditor::new(HFetchConfig::default())
    }

    const F: FileId = FileId(1);

    #[test]
    fn read_decomposes_into_segment_updates() {
        let a = auditor();
        a.set_file_size(F, 10 * MIB);
        // Paper's example: 3 MiB read at offset 0 touches segments 0,1,2.
        let n = a.observe_read(F, ByteRange::new(0, 3 * MIB), ProcessId(0), Timestamp::from_secs(1));
        assert_eq!(n, 3);
        let updates = a.drain_updates();
        let observed: Vec<_> = updates.iter().filter(|u| !u.anticipated).collect();
        assert_eq!(observed.len(), 3);
        assert_eq!(observed[0].segment, SegmentId::new(F, 0));
        assert_eq!(observed[2].segment, SegmentId::new(F, 2));
        // Lookahead anticipates successors of segment 2.
        let anticipated: Vec<_> = updates.iter().filter(|u| u.anticipated).collect();
        assert!(!anticipated.is_empty());
        assert_eq!(anticipated[0].segment, SegmentId::new(F, 3));
        assert!(anticipated[0].score < observed[2].score);
    }

    #[test]
    fn frequency_and_recency_tracked() {
        let a = auditor();
        a.set_file_size(F, MIB);
        let seg = SegmentId::new(F, 0);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(1));
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(1), Timestamp::from_secs(2));
        let st = a.stat(seg).unwrap();
        assert_eq!(st.frequency, 2);
        assert_eq!(st.last_access, Timestamp::from_secs(2));
    }

    #[test]
    fn sequencing_records_distinct_predecessors() {
        let a = auditor();
        a.set_file_size(F, 10 * MIB);
        let t = Timestamp::from_secs(1);
        // Process 0 reads seg 0 then seg 5; process 1 reads seg 2 then seg 5.
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), t);
        a.observe_read(F, ByteRange::new(5 * MIB, MIB), ProcessId(0), t);
        a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(1), t);
        a.observe_read(F, ByteRange::new(5 * MIB, MIB), ProcessId(1), t);
        let st = a.stat(SegmentId::new(F, 5)).unwrap();
        assert_eq!(st.predecessors.len(), 2);
        assert!(st.predecessors.contains(&SegmentId::new(F, 0)));
        assert!(st.predecessors.contains(&SegmentId::new(F, 2)));
        assert_eq!(st.n(), 2);
    }

    #[test]
    fn multi_segment_read_chains_predecessors_internally() {
        let a = auditor();
        a.set_file_size(F, 10 * MIB);
        a.observe_read(F, ByteRange::new(0, 3 * MIB), ProcessId(0), Timestamp::from_secs(1));
        let st1 = a.stat(SegmentId::new(F, 1)).unwrap();
        assert_eq!(st1.predecessors, vec![SegmentId::new(F, 0)]);
        let st2 = a.stat(SegmentId::new(F, 2)).unwrap();
        assert_eq!(st2.predecessors, vec![SegmentId::new(F, 1)]);
    }

    #[test]
    fn epoch_refcounting_first_and_last() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        assert!(a.start_epoch(F, Timestamp::ZERO));
        assert!(!a.start_epoch(F, Timestamp::ZERO));
        assert!(a.in_epoch(F));
        assert!(!a.end_epoch(F, Timestamp::ZERO));
        assert!(a.end_epoch(F, Timestamp::ZERO));
        assert!(!a.in_epoch(F));
        assert!(!a.end_epoch(F, Timestamp::ZERO), "unbalanced close is a no-op");
    }

    #[test]
    fn force_end_epoch_recovers_from_dropped_closes() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        // Two openers, but one close event is lost in transit: the epoch
        // would stay open forever.
        assert!(a.start_epoch(F, Timestamp::ZERO));
        assert!(!a.start_epoch(F, Timestamp::ZERO));
        assert!(!a.end_epoch(F, Timestamp::ZERO));
        assert!(a.in_epoch(F));
        a.drain_updates();
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::ZERO);
        // Forced end closes it anyway and persists the heatmap.
        assert!(a.force_end_epoch(F, Timestamp::from_secs(1)));
        assert!(!a.in_epoch(F));
        assert!(a.heatmaps().load(F).is_some(), "heatmap persisted on forced end");
        // Idempotent on an already-closed epoch.
        assert!(!a.force_end_epoch(F, Timestamp::from_secs(1)));
        // And a fresh epoch starts cleanly afterwards.
        assert!(a.start_epoch(F, Timestamp::from_secs(2)));
    }

    #[test]
    fn epoch_start_stages_all_segments() {
        let a = auditor();
        a.set_file_size(F, 3 * MIB + 1);
        a.start_epoch(F, Timestamp::ZERO);
        let updates = a.drain_updates();
        assert_eq!(updates.len(), 4, "four segments staged (last is 1 byte)");
        assert!(updates.iter().all(|u| u.anticipated));
        assert_eq!(updates[3].size, 1);
        assert!(updates.iter().all(|u| u.score > 0.0));
    }

    /// The epoch seed applies lazily with the float ops of an eagerly
    /// seeded state: on a segment's first read, in the lookahead's peek of
    /// a never-read successor, and in the heatmap snapshot.
    #[test]
    fn first_read_lookahead_and_snapshot_start_from_the_epoch_seed() {
        let cfg = HFetchConfig { epoch_base_score: 3.0, lookahead: 1, ..Default::default() };
        let a = Auditor::new(cfg.clone());
        a.set_file_size(F, 4 * MIB);
        let (t0, t1, t2) =
            (Timestamp::from_secs(1), Timestamp::from_millis(1_700), Timestamp::from_secs(2));
        a.start_epoch(F, t0);
        a.drain_updates();
        a.observe_read(F, ByteRange::new(MIB, MIB), ProcessId(0), t1);
        let seeded = || {
            let mut s = ScoreState::new();
            s.seed(3.0, t0);
            s
        };
        let read = seeded().record(t1, &cfg.score, 1);
        let updates = a.drain_updates();
        assert_eq!(updates[0].score.to_bits(), read.to_bits());
        let peek = seeded().peek(t1, &cfg.score, 1);
        assert!(peek > read * LOOKAHEAD_DECAY, "the seed, not the decayed read, wins");
        assert_eq!(updates[1].segment, SegmentId::new(F, 2));
        assert_eq!(updates[1].score.to_bits(), peek.to_bits());
        let h = a.snapshot_heatmap(F, t2);
        let stat = a.stat(SegmentId::new(F, 1)).unwrap();
        assert_eq!(h.scores[1].to_bits(), stat.score.peek(t2, &cfg.score, 1).to_bits());
        for i in [0, 2, 3] {
            assert_eq!(h.scores[i].to_bits(), seeded().peek(t2, &cfg.score, 1).to_bits());
        }
        assert!(a.stat(SegmentId::new(F, 0)).is_none(), "staging writes no statistics");
    }

    /// Bounded staging queues the top `slots` segments by reloaded score
    /// (index breaks ties), the short tail, the held segments and the
    /// file's pending slots; the pending count still covers every segment.
    #[test]
    fn bounded_staging_queues_what_a_pass_could_place() {
        let a = auditor();
        a.set_file_size(F, 8 * MIB + 1);
        let t = Timestamp::from_secs(1);
        a.start_epoch(F, t);
        a.drain_updates();
        for (index, reads) in [(5, 3), (2, 2), (6, 2)] {
            for p in 0..reads {
                a.observe_read(F, ByteRange::new(index * MIB, MIB), ProcessId(p), t);
            }
        }
        a.end_epoch(F, t);
        // A pending read of segment 7 (plus its lookahead) before re-open.
        a.drain_updates();
        a.observe_read(F, ByteRange::new(7 * MIB, MIB), ProcessId(9), t);
        let before = a.pending_updates();
        a.start_epoch_bounded(F, Timestamp::from_secs(2), 2, || vec![0]);
        assert_eq!(a.pending_updates() - before, 9, "one per staged segment");
        let mut queued: Vec<u64> = a.drain_updates().iter().map(|u| u.segment.index).collect();
        queued.sort_unstable();
        // 5 (hottest), then 2 and 6 tie and 2 wins; 0 held; 7 and the
        // lookahead's 8 (the tail) pending.
        assert_eq!(queued, vec![0, 2, 5, 7, 8]);
    }

    #[test]
    fn heatmap_persists_on_epoch_end_and_seeds_reopen() {
        let a = auditor();
        a.set_file_size(F, 4 * MIB);
        let t1 = Timestamp::from_secs(1);
        a.start_epoch(F, t1);
        a.drain_updates();
        // Segment 2 gets hot.
        for i in 0..5 {
            a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(i), t1);
        }
        a.end_epoch(F, Timestamp::from_secs(2));
        let saved = a.heatmaps().load(F).unwrap();
        assert!(saved.scores[2] > 1.0);

        // Re-open shortly after: staging updates should rank segment 2 first.
        a.start_epoch(F, Timestamp::from_secs(3));
        let updates = a.drain_updates();
        let hottest = updates.iter().max_by(|x, y| x.score.partial_cmp(&y.score).unwrap()).unwrap();
        assert_eq!(hottest.segment, SegmentId::new(F, 2));
    }

    #[test]
    fn write_reports_invalidation_targets() {
        let a = auditor();
        a.set_file_size(F, 4 * MIB);
        let segs = a.observe_write(F, ByteRange::new(MIB / 2, 2 * MIB), Timestamp::ZERO);
        assert_eq!(segs, vec![SegmentId::new(F, 0), SegmentId::new(F, 1), SegmentId::new(F, 2)]);
        // Writes past EOF grow the file.
        let segs = a.observe_write(F, ByteRange::new(9 * MIB, MIB), Timestamp::ZERO);
        assert_eq!(segs.len(), 1);
        assert_eq!(a.file_size(F), 10 * MIB);
    }

    #[test]
    fn reads_of_unknown_or_out_of_range_files_are_ignored() {
        let a = auditor();
        assert_eq!(a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::ZERO), 0);
        a.set_file_size(F, MIB);
        assert_eq!(
            a.observe_read(F, ByteRange::new(2 * MIB, MIB), ProcessId(0), Timestamp::ZERO),
            0
        );
    }

    #[test]
    fn repeated_updates_coalesce_to_latest_score() {
        let a = auditor();
        a.set_file_size(F, MIB);
        for i in 1..=10 {
            a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(i));
        }
        // Raw push count drives the trigger...
        assert_eq!(a.pending_updates(), 10);
        // ...but the drained batch holds one slot per segment, carrying
        // the latest score.
        let updates = a.drain_updates();
        assert_eq!(updates.len(), 1);
        let expected = a.stat(SegmentId::new(F, 0)).unwrap();
        let peeked = expected.score.peek(Timestamp::from_secs(10), &a.config().score, expected.n());
        assert!((updates[0].score - peeked).abs() < 1e-9);
        assert!(a.drain_updates().is_empty(), "drain empties the queue");
    }

    #[test]
    fn pending_update_count_tracks_and_resets() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(1));
        assert!(a.pending_updates() >= 1);
        a.drain_updates();
        assert_eq!(a.pending_updates(), 0);
    }

    #[test]
    fn snapshot_heatmap_reflects_hotness() {
        let a = auditor();
        a.set_file_size(F, 4 * MIB);
        let t = Timestamp::from_secs(1);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), t);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(1), t);
        a.observe_read(F, ByteRange::new(3 * MIB, MIB), ProcessId(2), t);
        let h = a.snapshot_heatmap(F, t);
        assert_eq!(h.scores.len(), 4);
        assert!(h.scores[0] > h.scores[3]);
        assert_eq!(h.scores[1], 0.0);
        assert_eq!(h.hottest_first()[0], 0);
    }

    #[test]
    fn forget_file_clears_state() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        a.observe_read(F, ByteRange::new(0, MIB), ProcessId(0), Timestamp::from_secs(1));
        a.forget_file(F);
        assert!(a.stat(SegmentId::new(F, 0)).is_none());
        assert_eq!(a.file_size(F), 0);
    }

    /// Regression: `forget_file` used to leave the file's queued
    /// `ScoreUpdate`s behind, so the next engine drain would place data
    /// for a file whose statistics were just erased.
    #[test]
    fn forget_file_purges_pending_updates() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB);
        let g = FileId(2);
        a.set_file_size(g, MIB);
        a.observe_read(F, ByteRange::new(0, 2 * MIB), ProcessId(0), Timestamp::from_secs(1));
        a.observe_read(g, ByteRange::new(0, MIB), ProcessId(1), Timestamp::from_secs(1));
        assert!(a.pending_updates() >= 3);
        a.forget_file(F);
        let drained = a.drain_updates();
        assert!(!drained.is_empty(), "other files' updates survive");
        assert!(
            drained.iter().all(|u| u.segment.file == g),
            "no stale updates for the forgotten file: {drained:?}"
        );
        assert_eq!(a.pending_updates(), 0, "purge kept the counter consistent");
    }

    /// A read enters the queue under one lock however many segments it
    /// touches, and its map writes take one lock per shard visited.
    #[test]
    fn a_wide_read_takes_one_queue_lock() {
        let a = auditor();
        a.set_file_size(F, 64 * MIB);
        let lookahead = a.config().lookahead;
        let before = a.ingest_lock_stats();
        a.observe_read(F, ByteRange::new(0, 48 * MIB), ProcessId(0), Timestamp::from_secs(1));
        let after = a.ingest_lock_stats();
        assert_eq!(after.queue - before.queue, 1, "one queue lock per read");
        // 48 segments over 32 shards: by pigeonhole at least 16 share a
        // shard, so the batched write pass must save map locks.
        assert!(after.map_shard - before.map_shard < 48 + lookahead);
        assert_eq!(a.pending_updates() as u64, 48 + lookahead, "every raw push counted");
    }

    #[test]
    fn lookahead_respects_file_end() {
        let a = auditor();
        a.set_file_size(F, 2 * MIB); // segments 0 and 1 only
        a.observe_read(F, ByteRange::new(MIB, MIB), ProcessId(0), Timestamp::from_secs(1));
        let updates = a.drain_updates();
        assert!(
            updates.iter().all(|u| u.segment.index < 2),
            "no anticipation past EOF: {updates:?}"
        );
    }

    #[test]
    fn concurrent_observers_account_every_access() {
        let a = std::sync::Arc::new(auditor());
        a.set_file_size(F, MIB);
        std::thread::scope(|s| {
            for p in 0..8u32 {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        a.observe_read(
                            F,
                            ByteRange::new(0, MIB),
                            ProcessId(p),
                            Timestamp::from_millis(i),
                        );
                    }
                });
            }
        });
        assert_eq!(a.stat(SegmentId::new(F, 0)).unwrap().frequency, 4000);
    }
}
