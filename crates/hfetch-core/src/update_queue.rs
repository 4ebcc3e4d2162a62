//! The coalescing score-update queue.
//!
//! "All updated scores are pushed by the auditor into a vector which the
//! engine processes" (§III-D). [`UpdateQueue`] is that vector: one mutex
//! over a slot `Vec` plus a segment → slot index. A repeated update for a
//! pending segment overwrites its slot in place, so a drain returns the
//! latest score per segment in first-touch (insertion) order.
//!
//! A multi-segment read or an epoch's staging pushes its updates as one
//! batch under one lock acquisition, in request order, so the queue costs
//! one lock per ingested event regardless of how many segments it touches.
//! An epoch's staging is mostly deferred: the queue keeps one record per
//! staged file and the drain expands it into the updates a pass could act
//! on ([`crate::auditor::Auditor::start_epoch_bounded`]).
//!
//! Accounting: `pending()` counts **raw pushes** — the engine's
//! count-based trigger (Reactiveness, §III-D) fires on access volume, not
//! on coalesced slot count. Pushes, drains and purges adjust the counter
//! under the queue lock by exactly the raw pushes they add or remove, so
//! it never drifts from queue contents under concurrent push and drain.

use std::sync::atomic::{AtomicU64, Ordering};

use dht::FxHashMap;
use parking_lot::Mutex;
use tiers::ids::{FileId, SegmentId};

use crate::auditor::{ScoreUpdate, Staging};

/// One coalesced slot: the latest update for a segment plus the raw
/// pushes it absorbed.
struct Slot {
    raw: u64,
    update: ScoreUpdate,
}

/// Slots in first-touch order plus a segment → slot index, and the
/// deferred epoch stagings with the raw pushes each stands for.
#[derive(Default)]
struct Slots {
    slots: Vec<Slot>,
    index: FxHashMap<SegmentId, usize>,
    staging: Vec<(Staging, u64)>,
}

impl Slots {
    /// Overwrites `update`'s pending slot, or opens one at the end.
    fn coalesce(&mut self, update: ScoreUpdate) {
        match self.index.entry(update.segment) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let slot = &mut self.slots[*e.get()];
                slot.update = update;
                slot.raw += 1;
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(self.slots.len());
                self.slots.push(Slot { raw: 1, update });
            }
        }
    }
}

/// Pending score updates, coalesced to the latest value per segment.
#[derive(Default)]
pub struct UpdateQueue {
    slots: Mutex<Slots>,
    /// Raw pushes currently represented in the queue (read lock-free by
    /// the engine trigger; written only under `slots`).
    pending: AtomicU64,
    /// Queue lock acquisitions (ingestion telemetry).
    locks: AtomicU64,
}

impl UpdateQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes `updates` in order under one lock acquisition, coalescing
    /// each into its segment's pending slot. The drain is identical to
    /// pushing them one at a time; an empty batch takes no lock.
    pub fn push(&self, updates: &[ScoreUpdate]) {
        if updates.is_empty() {
            return;
        }
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut q = self.slots.lock();
        for &update in updates {
            q.coalesce(update);
        }
        self.pending.fetch_add(updates.len() as u64, Ordering::Relaxed);
    }

    /// Queues an epoch's staging, which stands for `staged` raw pushes:
    /// the updates of the `held` segments (indices, ascending) and of the
    /// file's other pending slots are pushed now, under the same lock; the
    /// rest stay deferred in `staging` until the next drain expands it.
    pub(crate) fn push_staging(&self, staging: Staging, staged: u64, held: &[u64]) {
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut q = self.slots.lock();
        let file = staging.file;
        let mut pushed: Vec<ScoreUpdate> =
            held.iter().filter_map(|&i| staging.update(i)).collect();
        for slot in &q.slots {
            let index = slot.update.segment.index;
            if slot.update.segment.file == file && held.binary_search(&index).is_err() {
                pushed.extend(staging.update(index));
            }
        }
        for &update in &pushed {
            q.coalesce(update);
        }
        // A re-staging before the drain replaces the file's deferred
        // record, keeping the raw pushes it stood for.
        let mut deferred = staged - pushed.len() as u64;
        q.staging.retain(|(s, raw)| {
            let keep = s.file != file;
            if !keep {
                deferred += raw;
            }
            keep
        });
        q.staging.push((staging, deferred));
        self.pending.fetch_add(staged, Ordering::Relaxed);
    }

    /// Takes every pending update in first-touch order, then the
    /// expansion of each deferred staging, and subtracts the raw pushes
    /// they absorbed from the pending counter.
    pub fn drain(&self) -> Vec<ScoreUpdate> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut q = self.slots.lock();
        let slots = std::mem::take(&mut q.slots);
        let staging = std::mem::take(&mut q.staging);
        let mut raw: u64 = slots.iter().map(|slot| slot.raw).sum();
        let mut drained: Vec<ScoreUpdate> = slots.into_iter().map(|slot| slot.update).collect();
        for (staging, deferred) in staging {
            drained.extend(staging.expand(|segment| q.index.contains_key(&segment)));
            raw += deferred;
        }
        q.index.clear();
        self.pending.fetch_sub(raw, Ordering::Relaxed);
        drained
    }

    /// Raw pushes currently represented in the queue (the engine's
    /// count-based trigger currency).
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Removes every pending update for `file`, and its deferred staging,
    /// returning how many slots were dropped. Called when the auditor forgets a file so the engine
    /// never sees scores for state that no longer exists.
    pub fn purge_file(&self, file: FileId) -> usize {
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.slots.lock();
        let q = &mut *guard;
        let before = q.slots.len();
        let mut dropped_raw = 0u64;
        q.slots.retain(|slot| {
            let keep = slot.update.segment.file != file;
            if !keep {
                dropped_raw += slot.raw;
            }
            keep
        });
        q.staging.retain(|(staging, deferred)| {
            let keep = staging.file != file;
            if !keep {
                dropped_raw += deferred;
            }
            keep
        });
        let dropped = before - q.slots.len();
        if dropped > 0 {
            q.index = q.slots.iter().enumerate().map(|(i, slot)| (slot.update.segment, i)).collect();
        }
        self.pending.fetch_sub(dropped_raw, Ordering::Relaxed);
        dropped
    }

    /// Queue lock acquisitions so far (ingestion telemetry; relaxed).
    pub fn lock_acquisitions(&self) -> u64 {
        self.locks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(file: u64, index: u64, score: f64) -> ScoreUpdate {
        ScoreUpdate {
            segment: SegmentId::new(FileId(file), index),
            score,
            size: 1024,
            anticipated: false,
        }
    }

    #[test]
    fn coalesces_to_latest_in_first_touch_order() {
        let q = UpdateQueue::new();
        q.push(&[upd(1, 0, 1.0)]);
        q.push(&[upd(1, 1, 1.0)]);
        q.push(&[upd(1, 0, 5.0)]);
        assert_eq!(q.pending(), 3, "pending counts raw pushes");
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].segment.index, 0, "first-touch order");
        assert_eq!(drained[0].score, 5.0, "latest score wins");
        assert_eq!(drained[1].segment.index, 1);
        assert_eq!(q.pending(), 0);
        assert!(q.drain().is_empty());
    }

    #[test]
    fn pending_is_exact_under_concurrent_push_and_drain() {
        let q = std::sync::Arc::new(UpdateQueue::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let q = q.clone();
                s.spawn(move || {
                    for i in 0..2000 {
                        q.push(&[upd(t, i % 64, i as f64)]);
                    }
                });
            }
            let q = q.clone();
            s.spawn(move || {
                // Racing drains: a counter reset instead of an exact
                // subtraction would drift from the queue contents.
                for _ in 0..200 {
                    q.drain();
                    std::thread::yield_now();
                }
            });
        });
        // Raw accounting: once producers stop, one drain must leave the
        // counter at exactly zero — no drift in either direction.
        q.drain();
        assert_eq!(q.pending(), 0, "counter consistent with (empty) queue");
    }

    #[test]
    fn purge_file_drops_only_that_file() {
        let q = UpdateQueue::new();
        q.push(&[upd(1, 0, 1.0)]);
        q.push(&[upd(2, 0, 1.0)]);
        q.push(&[upd(1, 1, 1.0)]);
        q.push(&[upd(1, 1, 2.0)]);
        assert_eq!(q.pending(), 4);
        assert_eq!(q.purge_file(FileId(1)), 2);
        assert_eq!(q.pending(), 1, "purge subtracts the raw pushes it removed");
        let rest = q.drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].segment.file, FileId(2));
        assert_eq!(q.purge_file(FileId(9)), 0, "purging an absent file is a no-op");
    }

    #[test]
    fn purge_then_push_same_segment_lands_in_a_fresh_slot() {
        let q = UpdateQueue::new();
        q.push(&[upd(1, 5, 1.0)]);
        q.push(&[upd(2, 9, 1.0)]);
        q.purge_file(FileId(1));
        // Index was rebuilt: a new push for the purged segment must not
        // alias the surviving file-2 slot.
        q.push(&[upd(1, 5, 7.0)]);
        let drained = q.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].segment.file, FileId(2), "survivor keeps its position");
        assert_eq!(drained[1].segment, SegmentId::new(FileId(1), 5));
        assert_eq!(drained[1].score, 7.0);
    }

    #[test]
    fn lock_telemetry_counts_one_per_operation() {
        let q = UpdateQueue::new();
        q.push(&[upd(1, 0, 1.0)]);
        q.push(&[upd(1, 1, 1.0), upd(1, 2, 1.0), upd(1, 0, 2.0)]);
        assert_eq!(q.lock_acquisitions(), 2, "a batch takes one lock");
        q.push(&[]);
        assert_eq!(q.lock_acquisitions(), 2, "an empty batch takes no lock");
        assert_eq!(q.pending(), 4);
        q.drain();
        q.purge_file(FileId(1));
        assert_eq!(q.lock_acquisitions(), 4, "drain and purge take one lock each");
    }
}
