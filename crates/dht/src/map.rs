//! The sharded concurrent map with an explicit node model.
//!
//! Keys route `hash(key) → virtual node → shard within node`, mirroring how
//! the paper's HCL container distributes buckets across cluster nodes while
//! "avoiding a global synchronization barrier" (§III-A.2). All single-key
//! operations take only the owning shard's lock, so updates to different
//! segments proceed in parallel and updates to the *same* segment are
//! atomic — the property the auditor needs when many ranks read one file
//! region concurrently.

use std::hash::Hash;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::hash::{hash_one, FxHashMap};
use crate::stats::MapStats;

/// Identifies where a key lives in the node/shard model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyLocation {
    /// Virtual node owning the key.
    pub node: usize,
    /// Shard within that node.
    pub shard: usize,
    /// Flat shard index (`node * shards_per_node + shard`).
    pub flat: usize,
}

struct Shard<K, V> {
    entries: RwLock<FxHashMap<K, V>>,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self { entries: RwLock::new(FxHashMap::default()) }
    }
}

/// A concurrent hashmap sharded across virtual nodes.
///
/// Cloning the handle is cheap (it is an `Arc` internally) — every HFetch
/// component holds a clone of the same map, which is how the "global view"
/// of segment statistics is shared without a central lock.
pub struct DistributedMap<K, V> {
    inner: Arc<Inner<K, V>>,
}

struct Inner<K, V> {
    shards: Vec<Shard<K, V>>,
    nodes: usize,
    shards_per_node: usize,
    stats: MapStats,
}

impl<K, V> Clone for DistributedMap<K, V> {
    fn clone(&self) -> Self {
        Self { inner: Arc::clone(&self.inner) }
    }
}

impl<K, V> DistributedMap<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// Creates a map spread over `nodes` virtual nodes with
    /// `shards_per_node` shards each.
    pub fn with_topology(nodes: usize, shards_per_node: usize) -> Self {
        assert!(nodes > 0, "need at least one node");
        assert!(shards_per_node > 0, "need at least one shard per node");
        let shards = (0..nodes * shards_per_node).map(|_| Shard::default()).collect();
        Self { inner: Arc::new(Inner { shards, nodes, shards_per_node, stats: MapStats::default() }) }
    }

    /// Single-node map with a sensible shard count (for tests and
    /// single-process deployments).
    pub fn new() -> Self {
        Self::with_topology(1, 16)
    }

    /// Where `key` lives in the node/shard model.
    pub fn locate(&self, key: &K) -> KeyLocation {
        let h = hash_one(key);
        // High bits pick the node, low bits the shard, so the two choices
        // are effectively independent.
        let node = ((h >> 32) as usize) % self.inner.nodes;
        let shard = (h as usize) % self.inner.shards_per_node;
        KeyLocation { node, shard, flat: node * self.inner.shards_per_node + shard }
    }

    fn shard_of(&self, key: &K) -> &Shard<K, V> {
        &self.inner.shards[self.locate(key).flat]
    }

    /// Inserts `value` under `key`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        let shard = self.shard_of(&key);
        self.inner.stats.record_locks(1);
        let prev = shard.entries.write().insert(key, value);
        if prev.is_none() {
            self.inner.stats.record_insert();
        } else {
            self.inner.stats.record_update();
        }
        prev
    }

    /// Returns a clone of the value under `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.stats.record_locks(1);
        let found = self.shard_of(key).entries.read().get(key).cloned();
        if found.is_some() {
            self.inner.stats.record_hit();
        } else {
            self.inner.stats.record_miss();
        }
        found
    }

    /// Applies `f` to the value under `key` *in place* under the shard's
    /// read lock — no clone. This is what lookahead peeks want: reading a
    /// [`get`]-style clone of a value with owned fields (e.g. a `Vec`)
    /// allocates per peek; `get_with` borrows instead. `f` must not block
    /// (it holds the shard read lock) and cannot re-enter the map.
    ///
    /// [`get`]: DistributedMap::get
    pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.inner.stats.record_locks(1);
        let result = self.shard_of(key).entries.read().get(key).map(f);
        if result.is_some() {
            self.inner.stats.record_hit();
        } else {
            self.inner.stats.record_miss();
        }
        result
    }

    /// True if `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.inner.stats.record_locks(1);
        self.shard_of(key).entries.read().contains_key(key)
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.inner.stats.record_locks(1);
        let removed = self.shard_of(key).entries.write().remove(key);
        if removed.is_some() {
            self.inner.stats.record_remove();
        }
        removed
    }

    /// Atomically updates the value under `key`, inserting
    /// `default()` first if absent. The closure runs under the shard lock;
    /// the return value is passed through.
    ///
    /// This is the auditor's workhorse: "the auditor will atomically update
    /// one or more targeted segments' score in the map" (§III-A.2).
    pub fn update_with<R>(
        &self,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        let shard = self.shard_of(&key);
        self.inner.stats.record_locks(1);
        let mut entries = shard.entries.write();
        self.apply_entry(&mut entries, key, default, f)
    }

    /// Atomically updates every key in `keys`, inserting `default()` for
    /// absent ones, taking each owning shard's **write lock exactly once**
    /// even when several keys share a shard. `f` receives the index of the
    /// key within `keys` plus the mutable value; results come back in
    /// input order.
    ///
    /// This is the batched form of [`update_with`] the auditor uses for
    /// multi-segment reads and epoch staging: a 3-segment request that
    /// lands on one shard costs one lock acquisition instead of three.
    /// Keys are applied grouped by shard in ascending shard order (input
    /// order *within* each shard group), so `f` must not depend on
    /// cross-key application order — per-key mutations in HFetch don't
    /// (each segment's update is self-contained).
    ///
    /// [`update_with`]: DistributedMap::update_with
    pub fn update_many_with<R>(
        &self,
        keys: &[K],
        mut default: impl FnMut() -> V,
        mut f: impl FnMut(usize, &mut V) -> R,
    ) -> Vec<R> {
        if let [key] = keys {
            // Single-key fast path: no grouping scratch.
            return vec![self.update_with(key.clone(), default, |v| f(0, v))];
        }
        // `(flat shard, input index)`, sorted by shard with input order
        // kept within each shard's run (stable sort).
        let mut order: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(i, k)| (self.locate(k).flat, i)).collect();
        order.sort_by_key(|&(flat, _)| flat);
        let mut out: Vec<Option<R>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            self.inner.stats.record_locks(1);
            let mut entries = self.inner.shards[run[0].0].entries.write();
            for &(_, idx) in run {
                out[idx] = Some(self.apply_entry(&mut entries, keys[idx].clone(), &mut default, |v| {
                    f(idx, v)
                }));
            }
        }
        out.into_iter().map(|r| r.expect("every key visited")).collect()
    }

    /// Entry upsert under an already-held shard write lock, with the same
    /// stats accounting as [`update_with`].
    ///
    /// [`update_with`]: DistributedMap::update_with
    fn apply_entry<R>(
        &self,
        entries: &mut FxHashMap<K, V>,
        key: K,
        default: impl FnOnce() -> V,
        f: impl FnOnce(&mut V) -> R,
    ) -> R {
        match entries.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                self.inner.stats.record_update();
                f(e.get_mut())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.inner.stats.record_insert();
                f(e.insert(default()))
            }
        }
    }

    /// Applies `f` to the value under `key` if present; returns its result.
    pub fn with_existing<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        let shard = self.shard_of(key);
        self.inner.stats.record_locks(1);
        let mut entries = shard.entries.write();
        let result = entries.get_mut(key).map(f);
        if result.is_some() {
            self.inner.stats.record_update();
        } else {
            self.inner.stats.record_miss();
        }
        result
    }

    /// Number of entries across all shards. Served from the stats entry
    /// gauge in O(1) — no shard locks are touched, so hot-path callers
    /// (e.g. `snapshot` preallocation, placement-engine sizing) don't
    /// contend with writers. The value is a consistent-ish snapshot, not a
    /// linearizable one: an in-flight insert/remove may or may not be
    /// counted yet, exactly as with the old per-shard sweep.
    pub fn len(&self) -> usize {
        self.inner.stats.entries() as usize
    }

    /// True if the map holds no entries (O(1), gauge-served like [`len`]).
    ///
    /// [`len`]: DistributedMap::len
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes every entry.
    pub fn clear(&self) {
        let mut dropped = 0u64;
        self.inner.stats.record_locks(self.inner.shards.len() as u64);
        for shard in &self.inner.shards {
            let mut entries = shard.entries.write();
            dropped += entries.len() as u64;
            entries.clear();
        }
        self.inner.stats.record_bulk_remove(dropped);
    }

    /// Clones out all `(key, value)` pairs. Order is unspecified.
    pub fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(self.len());
        self.inner.stats.record_locks(self.inner.shards.len() as u64);
        for shard in &self.inner.shards {
            let entries = shard.entries.read();
            out.extend(entries.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }

    /// Applies `f` to every entry, shard by shard (each shard is visited
    /// under its read lock).
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        self.inner.stats.record_locks(self.inner.shards.len() as u64);
        for shard in &self.inner.shards {
            for (k, v) in shard.entries.read().iter() {
                f(k, v);
            }
        }
    }

    /// Removes entries for which `pred` returns false, returning how many
    /// were removed.
    pub fn retain(&self, mut pred: impl FnMut(&K, &mut V) -> bool) -> usize {
        let mut removed = 0;
        self.inner.stats.record_locks(self.inner.shards.len() as u64);
        for shard in &self.inner.shards {
            let mut entries = shard.entries.write();
            let before = entries.len();
            entries.retain(|k, v| pred(k, v));
            removed += before - entries.len();
        }
        self.inner.stats.record_bulk_remove(removed as u64);
        removed
    }

    /// Per-node entry counts — exposes the distribution model for tests
    /// and for the paper's "globality" discussion.
    pub fn node_loads(&self) -> Vec<usize> {
        let mut loads = vec![0usize; self.inner.nodes];
        self.inner.stats.record_locks(self.inner.shards.len() as u64);
        for (i, shard) in self.inner.shards.iter().enumerate() {
            loads[i / self.inner.shards_per_node] += shard.entries.read().len();
        }
        loads
    }

    /// Number of virtual nodes.
    pub fn nodes(&self) -> usize {
        self.inner.nodes
    }

    /// Operation counters.
    pub fn stats(&self) -> &MapStats {
        &self.inner.stats
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Default for DistributedMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn insert_get_remove_round_trip() {
        let m: DistributedMap<u64, String> = DistributedMap::new();
        assert!(m.insert(1, "one".into()).is_none());
        assert_eq!(m.insert(1, "uno".into()), Some("one".into()));
        assert_eq!(m.get(&1), Some("uno".into()));
        assert!(m.contains(&1));
        assert_eq!(m.remove(&1), Some("uno".into()));
        assert!(!m.contains(&1));
        assert_eq!(m.get(&1), None);
        assert!(m.remove(&1).is_none());
    }

    #[test]
    fn update_with_inserts_default() {
        let m: DistributedMap<u64, u64> = DistributedMap::new();
        let r = m.update_with(5, || 100, |v| {
            *v += 1;
            *v
        });
        assert_eq!(r, 101);
        let r = m.update_with(5, || 100, |v| {
            *v += 1;
            *v
        });
        assert_eq!(r, 102, "default not re-applied on existing key");
    }

    #[test]
    fn get_with_reads_in_place() {
        let m: DistributedMap<u64, Vec<u64>> = DistributedMap::new();
        assert_eq!(m.get_with(&1, |v| v.len()), None);
        m.insert(1, vec![10, 20, 30]);
        assert_eq!(m.get_with(&1, |v| v.iter().sum::<u64>()), Some(60));
        // Parity with `get`: a hit and a miss were recorded for get_with
        // exactly as the cloning lookup would have recorded them.
        let s = m.stats().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn update_many_with_matches_sequential_updates() {
        let batched: DistributedMap<u64, u64> = DistributedMap::with_topology(2, 4);
        let sequential: DistributedMap<u64, u64> = DistributedMap::with_topology(2, 4);
        let keys: Vec<u64> = vec![3, 50, 3, 17, 99, 50, 8];
        let got = batched.update_many_with(&keys, || 100, |idx, v| {
            *v += idx as u64 + 1;
            *v
        });
        let want: Vec<u64> = keys
            .iter()
            .enumerate()
            .map(|(idx, &k)| {
                sequential.update_with(k, || 100, |v| {
                    *v += idx as u64 + 1;
                    *v
                })
            })
            .collect();
        // Duplicate keys land in the same shard group in input order, so
        // per-key results and final contents match the one-at-a-time path.
        assert_eq!(got, want);
        let mut a: Vec<(u64, u64)> = batched.snapshot();
        let mut b: Vec<(u64, u64)> = sequential.snapshot();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Stats parity (satellite: batched ops count inserts/updates
        // exactly as single-key ops): 5 distinct keys inserted, 2 updates.
        let sa = batched.stats().snapshot();
        let sb = sequential.stats().snapshot();
        assert_eq!((sa.inserts, sa.updates), (sb.inserts, sb.updates));
        assert_eq!((sa.inserts, sa.updates), (5, 2));
    }

    #[test]
    fn update_many_with_locks_once_per_shard_visited() {
        let m: DistributedMap<u64, u64> = DistributedMap::with_topology(1, 4);
        // All copies of one key share a shard: the batch must take exactly
        // one lock no matter how many keys ride along.
        let keys = vec![7u64; 16];
        let before = m.stats().snapshot().shard_locks;
        m.update_many_with(&keys, || 0, |_, v| *v += 1);
        let after = m.stats().snapshot().shard_locks;
        assert_eq!(after - before, 1, "same-shard batch takes one lock");
        assert_eq!(m.get(&7), Some(16));

        // Mixed batch: lock count equals the number of distinct shards
        // visited, never the key count.
        let keys: Vec<u64> = (0..64).collect();
        let distinct_shards = {
            let mut flats: Vec<usize> = keys.iter().map(|k| m.locate(k).flat).collect();
            flats.sort_unstable();
            flats.dedup();
            flats.len()
        };
        let before = m.stats().snapshot().shard_locks;
        m.update_many_with(&keys, || 0, |_, v| *v += 1);
        let after = m.stats().snapshot().shard_locks;
        assert_eq!(after - before, distinct_shards as u64);
        assert!(distinct_shards < keys.len(), "batching must beat per-key locking");
    }

    #[test]
    fn update_many_with_empty_and_single() {
        let m: DistributedMap<u64, u64> = DistributedMap::new();
        assert!(m.update_many_with(&[], || 0, |_, v| *v).is_empty());
        assert_eq!(m.update_many_with(&[4], || 9, |idx, v| (idx, *v)), vec![(0, 9)]);
    }

    #[test]
    fn with_existing_skips_absent() {
        let m: DistributedMap<u64, u64> = DistributedMap::new();
        assert_eq!(m.with_existing(&9, |v| *v), None);
        m.insert(9, 3);
        assert_eq!(m.with_existing(&9, |v| *v * 2), Some(6));
    }

    #[test]
    fn len_snapshot_clear() {
        let m: DistributedMap<u64, u64> = DistributedMap::with_topology(4, 4);
        for k in 0..100 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.len(), 100);
        let snap: HashMap<u64, u64> = m.snapshot().into_iter().collect();
        assert_eq!(snap.len(), 100);
        assert_eq!(snap[&7], 70);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn retain_filters() {
        let m: DistributedMap<u64, u64> = DistributedMap::new();
        for k in 0..20 {
            m.insert(k, k);
        }
        let removed = m.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 10);
        assert_eq!(m.len(), 10);
        m.for_each(|_, v| assert_eq!(v % 2, 0));
    }

    #[test]
    fn keys_spread_across_nodes() {
        let m: DistributedMap<u64, ()> = DistributedMap::with_topology(8, 4);
        for k in 0..8000 {
            m.insert(k, ());
        }
        let loads = m.node_loads();
        assert_eq!(loads.len(), 8);
        assert_eq!(loads.iter().sum::<usize>(), 8000);
        for (node, &load) in loads.iter().enumerate() {
            assert!(
                (600..=1400).contains(&load),
                "node {node} load {load} badly imbalanced"
            );
        }
    }

    #[test]
    fn locate_is_stable_and_in_range() {
        let m: DistributedMap<u64, ()> = DistributedMap::with_topology(3, 5);
        for k in 0..100 {
            let loc = m.locate(&k);
            assert_eq!(loc, m.locate(&k));
            assert!(loc.node < 3);
            assert!(loc.shard < 5);
            assert_eq!(loc.flat, loc.node * 5 + loc.shard);
        }
    }

    #[test]
    fn concurrent_updates_to_one_key_are_atomic() {
        let m: DistributedMap<u64, u64> = DistributedMap::new();
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..per_thread {
                        m.update_with(0, || 0, |v| *v += 1);
                    }
                });
            }
        });
        assert_eq!(m.get(&0), Some(threads * per_thread));
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let m: DistributedMap<u64, u64> = DistributedMap::with_topology(4, 8);
        let inserted = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                let inserted = &inserted;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let key = t * 1000 + i;
                        if m.insert(key, key).is_none() {
                            inserted.fetch_add(1, Ordering::Relaxed);
                        }
                        assert_eq!(m.get(&key), Some(key));
                    }
                });
            }
        });
        assert_eq!(m.len(), inserted.load(Ordering::Relaxed));
        assert_eq!(m.len(), 8000);
    }

    #[test]
    fn stats_reflect_operations() {
        let m: DistributedMap<u64, u64> = DistributedMap::new();
        m.insert(1, 1);
        m.get(&1);
        m.get(&2);
        m.update_with(1, || 0, |v| *v += 1);
        m.remove(&1);
        let s = m.stats().snapshot();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.removes, 1);
        assert_eq!(s.entries, 0);
    }

    /// `len()` is gauge-served; every removal path (remove / retain /
    /// clear) and a telemetry reset must keep it truthful.
    #[test]
    fn gauge_len_survives_bulk_removals_and_reset() {
        let m: DistributedMap<u64, u64> = DistributedMap::with_topology(4, 4);
        for k in 0..40 {
            m.insert(k, k);
        }
        assert_eq!(m.len(), 40);
        assert_eq!(m.retain(|k, _| *k % 2 == 0), 20);
        assert_eq!(m.len(), 20);
        m.stats().reset();
        assert_eq!(m.len(), 20, "telemetry reset must not fake an empty map");
        m.remove(&0);
        assert_eq!(m.len(), 19);
        m.clear();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        m.insert(7, 7);
        assert_eq!(m.len(), 1);
    }

    /// Threads race upserts and removes over overlapping keys; afterwards
    /// the O(1) gauge-served `len()` must equal an actual shard sweep.
    #[test]
    fn concurrent_upsert_remove_len_is_consistent() {
        let m: DistributedMap<u64, u64> = DistributedMap::with_topology(4, 8);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let key = (t * 977 + i * 13) % 512; // heavy key overlap
                        match i % 6 {
                            0 => {
                                m.insert(key, i);
                            }
                            1 => {
                                m.update_with(key, || 0, |v| *v += 1);
                            }
                            2 => {
                                m.remove(&key);
                            }
                            3 => {
                                // Batched upsert over overlapping keys must
                                // keep the gauge as honest as per-key ops.
                                let keys = [key, (key + 7) % 512, key];
                                m.update_many_with(&keys, || 0, |_, v| *v += 1);
                            }
                            4 => {
                                m.get_with(&key, |v| *v);
                            }
                            _ => {
                                m.retain(|k, _| *k != key);
                            }
                        }
                    }
                });
            }
        });
        let swept: usize = m.snapshot().len();
        assert_eq!(m.len(), swept, "gauge diverged from actual contents");
        let snap = m.stats().snapshot();
        assert_eq!(snap.entries as usize, swept);
        assert_eq!(snap.inserts - snap.removes, snap.entries);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.snapshot().len(), 0);
    }

    proptest! {
        /// The map agrees with a HashMap model under arbitrary op sequences.
        #[test]
        fn prop_matches_model(ops in proptest::collection::vec(
            (0u8..6, 0u64..50, 0u64..1000), 0..200)) {
            let m: DistributedMap<u64, u64> = DistributedMap::with_topology(3, 4);
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(m.insert(k, v), model.insert(k, v));
                    }
                    1 => {
                        prop_assert_eq!(m.get(&k), model.get(&k).copied());
                    }
                    2 => {
                        prop_assert_eq!(m.remove(&k), model.remove(&k));
                    }
                    3 => {
                        prop_assert_eq!(m.get_with(&k, |x| *x), model.get(&k).copied());
                    }
                    4 => {
                        // Batched upsert, duplicate key included: results
                        // must equal applying the ops one at a time.
                        let keys = [k, (k + v) % 50, k];
                        let got = m.update_many_with(&keys, || 0, |_, x| { *x += v; *x });
                        let want: Vec<u64> = keys.iter().map(|&key| {
                            let e = model.entry(key).or_insert(0);
                            *e += v;
                            *e
                        }).collect();
                        prop_assert_eq!(got, want);
                    }
                    _ => {
                        let got = m.update_with(k, || 0, |x| { *x += v; *x });
                        let e = model.entry(k).or_insert(0);
                        *e += v;
                        prop_assert_eq!(got, *e);
                    }
                }
                prop_assert_eq!(m.len(), model.len());
            }
        }
    }
}
