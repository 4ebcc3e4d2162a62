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

use crate::auditor::ScoreUpdate;

/// One coalesced slot: the latest update for a segment plus the raw
/// pushes it absorbed.
struct Slot {
    raw: u64,
    update: ScoreUpdate,
}

/// Slots in first-touch order plus a segment → slot index.
#[derive(Default)]
struct Slots {
    slots: Vec<Slot>,
    index: FxHashMap<SegmentId, usize>,
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
        let mut guard = self.slots.lock();
        let q = &mut *guard;
        for &update in updates {
            match q.index.entry(update.segment) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    let slot = &mut q.slots[*e.get()];
                    slot.update = update;
                    slot.raw += 1;
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(q.slots.len());
                    q.slots.push(Slot { raw: 1, update });
                }
            }
        }
        self.pending.fetch_add(updates.len() as u64, Ordering::Relaxed);
    }

    /// Takes every pending update in first-touch order and subtracts the
    /// raw pushes they absorbed from the pending counter.
    pub fn drain(&self) -> Vec<ScoreUpdate> {
        self.locks.fetch_add(1, Ordering::Relaxed);
        let mut q = self.slots.lock();
        q.index.clear();
        let slots = std::mem::take(&mut q.slots);
        let raw: u64 = slots.iter().map(|slot| slot.raw).sum();
        self.pending.fetch_sub(raw, Ordering::Relaxed);
        drop(q);
        slots.into_iter().map(|slot| slot.update).collect()
    }

    /// Raw pushes currently represented in the queue (the engine's
    /// count-based trigger currency).
    pub fn pending(&self) -> u64 {
        self.pending.load(Ordering::Relaxed)
    }

    /// Removes every pending update for `file`, returning how many slots
    /// were dropped. Called when the auditor forgets a file so the engine
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
        let dropped = before - q.slots.len();
        if dropped > 0 {
            q.index = q.slots.iter().enumerate().map(|(i, slot)| (slot.update.segment, i)).collect();
            self.pending.fetch_sub(dropped_raw, Ordering::Relaxed);
        }
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
