//! The client-pull cache the baselines share.
//!
//! The baseline prefetchers manage their cache with least-recently-used
//! eviction (the classic read-cache policy the paper's §I describes). The
//! [`LruTracker`] works at *block* granularity — each baseline picks its
//! own block size — and answers "who is the coldest?" in O(log n).
//! [`BlockCache`] wraps it with the rest of a client-pull prefetcher: the
//! RAM tier, a deduplicating request queue and a bounded in-flight window,
//! drained by one [`BlockCache::pump`]. A baseline is then only its
//! predictor (what to request) plus two rules handed to the pump: which
//! requests are stale and which cached blocks may be evicted.

use std::collections::{BTreeSet, HashMap};
use std::ops::RangeInclusive;

use sim::engine::SimCtl;
use tiers::ids::{FileId, TierId};
use tiers::range::ByteRange;

/// The cache tier of every baseline: RAM, the fastest tier.
pub(crate) const RAM: TierId = TierId(0);

/// A cached block: `block`-th chunk of `file`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockKey {
    /// File the block belongs to.
    pub file: FileId,
    /// Block index (offset / block_size).
    pub block: u64,
}

impl BlockKey {
    /// The byte range this block occupies (clamped to `file_size`).
    pub fn range(&self, block_size: u64, file_size: u64) -> ByteRange {
        tiers::range::segment_range(self.block, block_size, file_size)
    }
}

/// LRU order over cached blocks.
#[derive(Debug, Default)]
pub struct LruTracker {
    by_key: HashMap<BlockKey, u64>,
    by_age: BTreeSet<(u64, BlockKey)>,
    clock: u64,
}

impl LruTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or refreshes `key` as most-recently used.
    pub fn touch(&mut self, key: BlockKey) {
        self.clock += 1;
        if let Some(old) = self.by_key.insert(key, self.clock) {
            self.by_age.remove(&(old, key));
        }
        self.by_age.insert((self.clock, key));
    }

    /// True if `key` is tracked.
    pub fn contains(&self, key: &BlockKey) -> bool {
        self.by_key.contains_key(key)
    }

    /// Removes `key` if tracked.
    pub fn remove(&mut self, key: &BlockKey) -> bool {
        match self.by_key.remove(key) {
            Some(age) => {
                self.by_age.remove(&(age, *key));
                true
            }
            None => false,
        }
    }

    /// Removes and returns the least-recently-used block.
    pub fn pop_coldest(&mut self) -> Option<BlockKey> {
        let (age, key) = self.by_age.pop_first()?;
        debug_assert_eq!(self.by_key.get(&key), Some(&age));
        self.by_key.remove(&key);
        Some(key)
    }

    /// The least-recently-used block without removing it.
    pub fn peek_coldest(&self) -> Option<BlockKey> {
        self.by_age.first().map(|(_, k)| *k)
    }

    /// Number of tracked blocks.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Drops every block of `file`, returning the dropped keys.
    pub fn remove_file(&mut self, file: FileId) -> Vec<BlockKey> {
        let keys: Vec<BlockKey> =
            self.by_key.keys().copied().filter(|k| k.file == file).collect();
        for k in &keys {
            self.remove(k);
        }
        keys
    }
}

/// FIFO queue of prefetch requests with O(1) membership tests.
///
/// Baselines enqueue readahead requests per read; at 2560-rank scale a
/// linear `VecDeque::contains` would make enqueueing quadratic.
#[derive(Debug, Default)]
pub struct PendingQueue<T = BlockKey> {
    queue: std::collections::VecDeque<T>,
    members: std::collections::HashSet<T>,
}

impl<T: Copy + Eq + std::hash::Hash> PendingQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self { queue: std::collections::VecDeque::new(), members: std::collections::HashSet::new() }
    }

    /// Appends `item` unless already queued. Returns true if enqueued.
    pub fn push(&mut self, item: T) -> bool {
        if self.members.insert(item) {
            self.queue.push_back(item);
            true
        } else {
            false
        }
    }

    /// Pops the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.queue.pop_front()?;
        self.members.remove(&item);
        Some(item)
    }

    /// True if `item` is queued.
    pub fn contains(&self, item: &T) -> bool {
        self.members.contains(item)
    }

    /// Queued item count.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A shared-pool RAM block cache fed by client-pull prefetch requests.
///
/// Requests carry a tag `T` (the requesting process, a trace position…)
/// that the pump's `stale` rule inspects; requests are deduplicated on
/// (block, tag).
#[derive(Debug)]
pub struct BlockCache<T = ()> {
    block: u64,
    /// Maximum outstanding transfers ("prefetching threads").
    max_inflight: usize,
    inflight: usize,
    pending: PendingQueue<(BlockKey, T)>,
    lru: LruTracker,
}

impl<T: Copy + Eq + std::hash::Hash> BlockCache<T> {
    /// A cache of `block`-byte blocks with at most `max_inflight`
    /// outstanding transfers.
    pub fn new(block: u64, max_inflight: usize) -> Self {
        assert!(block > 0 && max_inflight > 0);
        Self {
            block,
            max_inflight,
            inflight: 0,
            pending: PendingQueue::new(),
            lru: LruTracker::new(),
        }
    }

    /// The block size in bytes.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// Indices of the blocks `range` overlaps.
    pub fn blocks(&self, range: ByteRange) -> RangeInclusive<u64> {
        range.offset / self.block..=range.end().saturating_sub(1) / self.block
    }

    /// Blocks currently tracked in the cache.
    pub fn cached_blocks(&self) -> usize {
        self.lru.len()
    }

    /// Refreshes `key` as most-recently used if it is cached; returns
    /// whether it was.
    pub fn refresh(&mut self, key: BlockKey) -> bool {
        let cached = self.lru.contains(&key);
        if cached {
            self.lru.touch(key);
        }
        cached
    }

    /// Stops tracking `key` (the simulator already invalidated its bytes).
    pub fn forget(&mut self, key: &BlockKey) {
        self.lru.remove(key);
    }

    /// Queues a prefetch of `key` unless it is already cached.
    pub fn request(&mut self, key: BlockKey, tag: T) {
        if !self.lru.contains(&key) {
            self.pending.push((key, tag));
        }
    }

    /// One of this cache's transfers landed: frees its window slot and
    /// pumps.
    pub fn landed(
        &mut self,
        ctl: &mut SimCtl<'_>,
        stale: impl FnMut(BlockKey, &T) -> bool,
        evictable: impl FnMut(BlockKey) -> bool,
    ) {
        self.inflight = self.inflight.saturating_sub(1);
        self.pump(ctl, stale, evictable);
    }

    /// Issues queued prefetches while the window has room. Requests that
    /// are `stale` or past EOF are dropped, and one already in RAM only
    /// refreshes its block; room is made by discarding the coldest block
    /// while it is `evictable`. A coldest
    /// block that is not evictable requeues the request and stops the pump
    /// until a read or a landing frees space; an empty cache fetches anyway
    /// and lets the simulator deny what does not fit.
    pub fn pump(
        &mut self,
        ctl: &mut SimCtl<'_>,
        mut stale: impl FnMut(BlockKey, &T) -> bool,
        mut evictable: impl FnMut(BlockKey) -> bool,
    ) {
        while self.inflight < self.max_inflight {
            let Some((key, tag)) = self.pending.pop() else { break };
            if stale(key, &tag) {
                continue;
            }
            let range = key.range(self.block, ctl.file_size(key.file));
            if range.is_empty() {
                continue; // past EOF
            }
            if ctl.resident_on(key.file, range, RAM) {
                self.lru.touch(key);
                continue;
            }
            while ctl.available(RAM) < range.len {
                let Some(victim) = self.lru.peek_coldest() else { break };
                if !evictable(victim) {
                    self.pending.push((key, tag));
                    return;
                }
                self.lru.remove(&victim);
                ctl.discard(victim.file, victim.range(self.block, ctl.file_size(victim.file)), RAM);
            }
            let outcome = ctl.fetch(key.file, range, RAM);
            if outcome.scheduled > 0 {
                // The simulator reports each transfer's landing separately.
                self.inflight += outcome.transfers as usize;
                self.lru.touch(key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_queue_dedups_and_orders() {
        let mut q: PendingQueue<u32> = PendingQueue::new();
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(1), "duplicate rejected");
        assert_eq!(q.len(), 2);
        assert!(q.contains(&1));
        assert_eq!(q.pop(), Some(1));
        assert!(!q.contains(&1));
        assert!(q.push(1), "re-enqueue after pop is allowed");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    fn key(file: u64, block: u64) -> BlockKey {
        BlockKey { file: FileId(file), block }
    }

    #[test]
    fn coldest_is_least_recently_touched() {
        let mut lru = LruTracker::new();
        lru.touch(key(0, 0));
        lru.touch(key(0, 1));
        lru.touch(key(0, 2));
        lru.touch(key(0, 0)); // refresh block 0
        assert_eq!(lru.peek_coldest(), Some(key(0, 1)));
        assert_eq!(lru.pop_coldest(), Some(key(0, 1)));
        assert_eq!(lru.pop_coldest(), Some(key(0, 2)));
        assert_eq!(lru.pop_coldest(), Some(key(0, 0)));
        assert_eq!(lru.pop_coldest(), None);
        assert!(lru.is_empty());
    }

    #[test]
    fn remove_specific_key() {
        let mut lru = LruTracker::new();
        lru.touch(key(1, 5));
        assert!(lru.contains(&key(1, 5)));
        assert!(lru.remove(&key(1, 5)));
        assert!(!lru.remove(&key(1, 5)));
        assert_eq!(lru.len(), 0);
    }

    #[test]
    fn double_touch_keeps_single_entry() {
        let mut lru = LruTracker::new();
        for _ in 0..10 {
            lru.touch(key(0, 7));
        }
        assert_eq!(lru.len(), 1);
        assert_eq!(lru.pop_coldest(), Some(key(0, 7)));
    }

    #[test]
    fn remove_file_sweeps_only_that_file() {
        let mut lru = LruTracker::new();
        lru.touch(key(1, 0));
        lru.touch(key(1, 1));
        lru.touch(key(2, 0));
        let dropped = lru.remove_file(FileId(1));
        assert_eq!(dropped.len(), 2);
        assert_eq!(lru.len(), 1);
        assert!(lru.contains(&key(2, 0)));
    }

    #[test]
    fn block_key_range_clamps() {
        let k = key(0, 3);
        assert_eq!(k.range(100, 350), ByteRange::new(300, 50));
        assert!(k.range(100, 200).is_empty());
    }

    use sim::engine::{SimConfig, Simulation};
    use sim::policy::{PrefetchPolicy, TransferDone};
    use sim::report::SimReport;
    use sim::script::{ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::ids::{AppId, ProcessId};
    use tiers::time::Timestamp;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    /// Drives a 1 MiB-block cache from one demand read of file 0: requests
    /// `requests`, pumps with fixed `stale`/`evictable` answers and logs
    /// (in flight, queued) after every pump.
    struct Probe {
        cache: BlockCache,
        requests: Vec<u64>,
        stale: bool,
        evictable: bool,
        /// Fetched outside the cache first, so a block fetch overlapping it
        /// splits into two transfers.
        side_fetch: Option<ByteRange>,
        log: Vec<(usize, usize)>,
    }

    impl Probe {
        fn new(max_inflight: usize, requests: &[u64]) -> Self {
            Self {
                cache: BlockCache::new(MIB, max_inflight),
                requests: requests.to_vec(),
                stale: false,
                evictable: true,
                side_fetch: None,
                log: Vec::new(),
            }
        }

        fn pump(&mut self, ctl: &mut SimCtl<'_>, landed: bool) {
            let (stale, evictable) = (self.stale, self.evictable);
            if landed {
                self.cache.landed(ctl, |_, _| stale, |_| evictable);
            } else {
                self.cache.pump(ctl, |_, _| stale, |_| evictable);
            }
            self.log.push((self.cache.inflight, self.cache.pending.len()));
        }

        fn run(self, ram: u64) -> (SimReport, Self) {
            let files = vec![SimFile { id: FileId(0), size: mib(16) }];
            // The compute step outlasts every transfer, so all of them land.
            let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
                .read(FileId(0), 0, MIB)
                .compute(Duration::from_secs(1))
                .build()];
            Simulation::new(SimConfig::new(Hierarchy::ram_only(ram)), files, scripts, self).run()
        }
    }

    impl PrefetchPolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn on_read(
            &mut self,
            _file: FileId,
            _range: ByteRange,
            _process: ProcessId,
            _app: AppId,
            _now: Timestamp,
            ctl: &mut SimCtl<'_>,
        ) {
            if let Some(side) = self.side_fetch {
                ctl.fetch(FileId(0), side, RAM);
            }
            for block in std::mem::take(&mut self.requests) {
                self.cache.request(key(0, block), ());
            }
            self.pump(ctl, false);
        }

        fn on_transfer_done(&mut self, done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
            if Some(done.range) != self.side_fetch {
                self.pump(ctl, true);
            }
        }
    }

    #[test]
    fn stale_request_is_skipped_without_a_fetch() {
        let (fresh, _) = Probe::new(4, &[1, 2]).run(mib(8));
        assert_eq!(fresh.prefetch_bytes, mib(2));
        let (report, probe) = Probe { stale: true, ..Probe::new(4, &[1, 2]) }.run(mib(8));
        assert_eq!(report.prefetch_bytes, 0);
        assert_eq!(probe.cache.cached_blocks(), 0);
        assert_eq!(probe.log, vec![(0, 0)]);
    }

    #[test]
    fn unevictable_coldest_block_requeues_and_stops_the_pump() {
        // RAM holds two blocks; blocks 3 and 4 find only unread ones.
        let probe = Probe { evictable: false, ..Probe::new(4, &[1, 2, 3, 4]) };
        let (report, mut probe) = probe.run(mib(2));
        assert_eq!(report.prefetch_bytes, mib(2));
        assert_eq!(report.evicted_bytes, 0);
        // The window has room, yet the pump stopped with both queued; every
        // landing retries and stops again.
        assert_eq!(probe.log, vec![(2, 2), (1, 2), (0, 2)]);
        assert_eq!(probe.cache.cached_blocks(), 2);
        // Block 4 was never popped; block 3 went back to the end.
        assert_eq!(probe.cache.pending.pop(), Some((key(0, 4), ())));
        assert_eq!(probe.cache.pending.pop(), Some((key(0, 3), ())));
    }

    #[test]
    fn split_fetch_holds_a_window_slot_per_transfer() {
        // The middle of block 1 is already in flight, so the cache's fetch
        // of block 1 goes out as a head and a tail transfer: both slots of
        // the window, so block 2 waits for the first of them to land.
        let side = ByteRange::new(MIB + MIB / 4, MIB / 2);
        let probe = Probe { side_fetch: Some(side), ..Probe::new(2, &[1, 2]) };
        let (report, probe) = probe.run(mib(8));
        assert_eq!(report.prefetch_transfers, 4, "side, head, tail, block 2");
        assert_eq!(probe.log, vec![(2, 1), (2, 0), (1, 0), (0, 0)]);
    }
}
