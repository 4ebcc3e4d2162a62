//! The sharded concurrent map behind the auditor's segment statistics.
//!
//! Keys route `hash(key) % SHARDS` to one of a fixed set of shards, so the
//! map avoids "a global synchronization barrier" (§III-A.2). All single-key
//! operations take only the owning shard's lock, so updates to different
//! segments proceed in parallel and updates to the *same* segment are
//! atomic — the property the auditor needs when many ranks read one file
//! region concurrently.

use std::hash::Hash;

use parking_lot::RwLock;

use crate::hash::{hash_one, FxHashMap};
use crate::stats::MapStats;

/// Number of shards. Changing it moves keys between shards, and with them
/// the lock counts the golden ObsReports pin.
const SHARDS: usize = 32;

/// A concurrent hashmap split into 32 independently locked shards.
pub struct DistributedMap<K, V> {
    shards: Vec<RwLock<FxHashMap<K, V>>>,
    stats: MapStats,
}

impl<K, V> DistributedMap<K, V>
where
    K: Eq + Hash + Clone,
    V: Clone,
{
    /// An empty map.
    pub fn new() -> Self {
        let shards = (0..SHARDS).map(|_| RwLock::new(FxHashMap::default())).collect();
        Self { shards, stats: MapStats::default() }
    }

    /// Index of the shard owning `key`.
    fn shard_index(key: &K) -> usize {
        (hash_one(key) as usize) % SHARDS
    }

    /// Returns a clone of the value under `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_with(key, V::clone)
    }

    /// Applies `f` to the value under `key` *in place* under the shard's
    /// read lock — no clone. This is what lookahead peeks want: reading a
    /// [`get`]-style clone of a value with owned fields (e.g. a `Vec`)
    /// allocates per peek; `get_with` borrows instead. `f` must not block
    /// (it holds the shard read lock) and cannot re-enter the map.
    ///
    /// [`get`]: DistributedMap::get
    pub fn get_with<R>(&self, key: &K, f: impl FnOnce(&V) -> R) -> Option<R> {
        self.stats.record_locks(1);
        let result = self.shards[Self::shard_index(key)].read().get(key).map(f);
        if result.is_some() {
            self.stats.record_hit();
        } else {
            self.stats.record_miss();
        }
        result
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
        self.stats.record_locks(1);
        let mut entries = self.shards[Self::shard_index(&key)].write();
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
        // `(shard, input index)`, sorted by shard with input order kept
        // within each shard's run (stable sort).
        let mut order: Vec<(usize, usize)> =
            keys.iter().enumerate().map(|(i, k)| (Self::shard_index(k), i)).collect();
        order.sort_by_key(|&(shard, _)| shard);
        let mut out: Vec<Option<R>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        for run in order.chunk_by(|a, b| a.0 == b.0) {
            self.stats.record_locks(1);
            let mut entries = self.shards[run[0].0].write();
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
                self.stats.record_update();
                f(e.get_mut())
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                self.stats.record_insert();
                f(e.insert(default()))
            }
        }
    }

    /// Removes entries for which `pred` returns false, returning how many
    /// were removed.
    pub fn retain(&self, mut pred: impl FnMut(&K, &mut V) -> bool) -> usize {
        let mut removed = 0;
        self.stats.record_locks(SHARDS as u64);
        for shard in &self.shards {
            let mut entries = shard.write();
            let before = entries.len();
            entries.retain(|k, v| pred(k, v));
            removed += before - entries.len();
        }
        self.stats.record_bulk_remove(removed as u64);
        removed
    }

    /// Operation counters, including the live-entry gauge.
    pub fn stats(&self) -> &MapStats {
        &self.stats
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

    type Map = DistributedMap<u64, u64>;

    fn set(m: &Map, key: u64, value: u64) {
        m.update_with(key, || value, |v| *v = value);
    }

    /// Every `(key, value)` pair, sorted, swept shard by shard.
    fn contents(m: &Map) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        m.retain(|k, v| {
            out.push((*k, *v));
            true
        });
        out.sort_unstable();
        out
    }

    fn entries(m: &Map) -> usize {
        m.stats().snapshot().entries as usize
    }

    #[test]
    fn update_with_inserts_default() {
        let m = Map::new();
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
        m.update_with(1, Vec::new, |v| v.extend([10, 20, 30]));
        assert_eq!(m.get_with(&1, |v| v.iter().sum::<u64>()), Some(60));
        // Parity with `get`: a hit and a miss were recorded for get_with
        // exactly as the cloning lookup would have recorded them.
        let s = m.stats().snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(m.get(&1), Some(vec![10, 20, 30]));
    }

    #[test]
    fn update_many_with_matches_sequential_updates() {
        let batched = Map::new();
        let sequential = Map::new();
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
        assert_eq!(contents(&batched), contents(&sequential));
        // Batched ops count inserts/updates exactly as single-key ops:
        // 5 distinct keys inserted, 2 updates.
        let sa = batched.stats().snapshot();
        let sb = sequential.stats().snapshot();
        assert_eq!((sa.inserts, sa.updates), (sb.inserts, sb.updates));
        assert_eq!((sa.inserts, sa.updates), (5, 2));
    }

    #[test]
    fn update_many_with_locks_once_per_shard_visited() {
        let m = Map::new();
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
            let mut shards: Vec<usize> = keys.iter().map(Map::shard_index).collect();
            shards.sort_unstable();
            shards.dedup();
            shards.len()
        };
        let before = m.stats().snapshot().shard_locks;
        m.update_many_with(&keys, || 0, |_, v| *v += 1);
        let after = m.stats().snapshot().shard_locks;
        assert_eq!(after - before, distinct_shards as u64);
        assert!(distinct_shards < keys.len(), "batching must beat per-key locking");
    }

    #[test]
    fn update_many_with_empty_and_single() {
        let m = Map::new();
        assert!(m.update_many_with(&[], || 0, |_, v| *v).is_empty());
        assert_eq!(m.update_many_with(&[4], || 9, |idx, v| (idx, *v)), vec![(0, 9)]);
    }

    /// Routing is the FxHash of the key modulo the shard count; the golden
    /// ObsReports' lock counts depend on it.
    #[test]
    fn shard_is_hash_mod_shard_count() {
        for k in 0..100u64 {
            assert_eq!(Map::shard_index(&k), (hash_one(&k) % SHARDS as u64) as usize);
        }
    }

    #[test]
    fn retain_filters() {
        let m = Map::new();
        for k in 0..20 {
            set(&m, k, k);
        }
        let removed = m.retain(|_, v| *v % 2 == 0);
        assert_eq!(removed, 10);
        assert_eq!(entries(&m), 10);
        assert!(contents(&m).iter().all(|(_, v)| v % 2 == 0));
    }

    #[test]
    fn concurrent_updates_to_one_key_are_atomic() {
        let m = Map::new();
        let threads = 8;
        let per_thread = 10_000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
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
        let m = Map::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let key = t * 1000 + i;
                        set(m, key, key);
                        assert_eq!(m.get(&key), Some(key));
                    }
                });
            }
        });
        assert_eq!(entries(&m), 8000);
        assert_eq!(contents(&m).len(), 8000);
    }

    #[test]
    fn stats_reflect_operations() {
        let m = Map::new();
        set(&m, 1, 1);
        m.get(&1);
        m.get(&2);
        m.update_with(1, || 0, |v| *v += 1);
        m.retain(|k, _| *k != 1);
        let s = m.stats().snapshot();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.removes, 1);
        assert_eq!(s.entries, 0);
    }

    /// The entry gauge must stay truthful across bulk removals and a
    /// telemetry reset.
    #[test]
    fn gauge_len_survives_bulk_removals_and_reset() {
        let m = Map::new();
        for k in 0..40 {
            set(&m, k, k);
        }
        assert_eq!(entries(&m), 40);
        assert_eq!(m.retain(|k, _| *k % 2 == 0), 20);
        assert_eq!(entries(&m), 20);
        m.stats().reset();
        assert_eq!(entries(&m), 20, "telemetry reset must not fake an empty map");
        m.retain(|k, _| *k != 0);
        assert_eq!(entries(&m), 19);
        m.retain(|_, _| false);
        assert_eq!(entries(&m), 0);
        set(&m, 7, 7);
        assert_eq!(entries(&m), 1);
    }

    /// Threads race upserts and removes over overlapping keys; afterwards
    /// the entry gauge must equal an actual shard sweep.
    #[test]
    fn concurrent_upsert_remove_len_is_consistent() {
        let m = Map::new();
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..4000u64 {
                        let key = (t * 977 + i * 13) % 512; // heavy key overlap
                        match i % 4 {
                            0 => {
                                m.update_with(key, || 0, |v| *v += 1);
                            }
                            1 => {
                                // Batched upsert over overlapping keys must
                                // keep the gauge as honest as per-key ops.
                                let keys = [key, (key + 7) % 512, key];
                                m.update_many_with(&keys, || 0, |_, v| *v += 1);
                            }
                            2 => {
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
        let swept = contents(&m).len();
        let snap = m.stats().snapshot();
        assert_eq!(snap.entries as usize, swept, "gauge diverged from actual contents");
        assert_eq!(snap.inserts - snap.removes, snap.entries);
        m.retain(|_, _| false);
        assert_eq!(entries(&m), 0);
        assert!(contents(&m).is_empty());
    }

    proptest! {
        /// The map agrees with a HashMap model under arbitrary op sequences.
        #[test]
        fn prop_matches_model(ops in proptest::collection::vec(
            (0u8..5, 0u64..50, 0u64..1000), 0..200)) {
            let m = Map::new();
            let mut model: HashMap<u64, u64> = HashMap::new();
            for (op, k, v) in ops {
                match op {
                    0 => {
                        prop_assert_eq!(m.get(&k), model.get(&k).copied());
                    }
                    1 => {
                        prop_assert_eq!(m.get_with(&k, |x| *x), model.get(&k).copied());
                    }
                    2 => {
                        // Remove every key congruent to `k` mod 7.
                        let before = model.len();
                        model.retain(|key, _| key % 7 != k % 7);
                        prop_assert_eq!(m.retain(|key, _| key % 7 != k % 7), before - model.len());
                    }
                    3 => {
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
                prop_assert_eq!(entries(&m), model.len());
            }
            let mut want: Vec<(u64, u64)> = model.into_iter().collect();
            want.sort_unstable();
            prop_assert_eq!(contents(&m), want);
        }
    }
}
