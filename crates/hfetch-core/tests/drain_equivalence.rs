//! Drain-equivalence properties of the ingestion path.
//!
//! The update queue coalesces and batches pushes; neither may change
//! *what* the placement engine sees. These tests pin that contract from
//! outside the crate:
//!
//! * a serial push stream drains bit-identically to the first-touch /
//!   latest-score model, whether pushed one at a time or in batches;
//! * interleaved drains partition the stream without loss or duplication;
//! * concurrent producers coalesce to the latest score per segment, with
//!   a raw-push counter that stays exact;
//! * at the auditor level, the same seeded workload driven by 1, 2 or 4
//!   producer threads drains the same canonicalised batch.

use std::collections::HashMap;
use std::sync::Arc;

use hfetch_core::auditor::{Auditor, ScoreUpdate};
use hfetch_core::{HFetchConfig, PlacementEngine, Reactiveness, UpdateQueue};
use proptest::prelude::*;
use tiers::ids::{FileId, ProcessId, SegmentId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;
use tiers::units::MIB;

fn upd(file: u64, index: u64, score: f64) -> ScoreUpdate {
    ScoreUpdate { segment: SegmentId::new(FileId(file), index), score, size: MIB, anticipated: false }
}

/// What a drain must equal for a single-threaded push sequence: latest
/// score per segment, segments in first-touch order.
fn model_drain(pushes: &[(u64, u64, f64)]) -> Vec<ScoreUpdate> {
    let mut order: Vec<SegmentId> = Vec::new();
    let mut latest: HashMap<SegmentId, ScoreUpdate> = HashMap::new();
    for &(file, index, score) in pushes {
        let u = upd(file, index, score);
        if !latest.contains_key(&u.segment) {
            order.push(u.segment);
        }
        latest.insert(u.segment, u);
    }
    order.into_iter().map(|seg| latest[&seg]).collect()
}

fn assert_byte_identical(a: &[ScoreUpdate], b: &[ScoreUpdate]) {
    assert_eq!(a.len(), b.len(), "drain lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.segment, y.segment, "segment order differs");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "score bits differ");
        assert_eq!(x.size, y.size);
        assert_eq!(x.anticipated, y.anticipated);
    }
}

proptest! {
    /// Single-threaded pushes drain to the first-touch/latest-score model
    /// — same order, same bit patterns — whether pushed one at a time or
    /// in batches of any size.
    #[test]
    fn prop_serial_drain_matches_the_model(
        pushes in proptest::collection::vec(
            (0u64..3, 0u64..24, 0.0f64..100.0), 0..200),
        batch in 1usize..50,
    ) {
        let expected = model_drain(&pushes);
        let updates: Vec<ScoreUpdate> =
            pushes.iter().map(|&(file, index, score)| upd(file, index, score)).collect();
        let single = UpdateQueue::new();
        for u in &updates {
            single.push(&[*u]);
        }
        let batched = UpdateQueue::new();
        for chunk in updates.chunks(batch) {
            batched.push(chunk);
        }
        for q in [&single, &batched] {
            prop_assert_eq!(q.pending(), pushes.len() as u64);
            assert_byte_identical(&q.drain(), &expected);
            prop_assert_eq!(q.pending(), 0u64);
        }
    }

    /// Interleaving drains into a serial push stream never loses or
    /// duplicates anything: the concatenated drains equal the model of
    /// the whole stream segment-for-segment *only* in coverage, and each
    /// drained batch is itself coalesced (one slot per segment).
    #[test]
    fn prop_partial_drains_partition_the_stream(
        pushes in proptest::collection::vec(
            (0u64..3, 0u64..16, 0.0f64..100.0), 1..120),
        cadence in 1usize..40,
    ) {
        let q = UpdateQueue::new();
        let mut batches: Vec<Vec<ScoreUpdate>> = Vec::new();
        for (i, &(file, index, score)) in pushes.iter().enumerate() {
            q.push(&[upd(file, index, score)]);
            if (i + 1) % cadence == 0 {
                batches.push(q.drain());
            }
        }
        batches.push(q.drain());
        prop_assert_eq!(q.pending(), 0u64);
        for batch in &batches {
            let mut seen = std::collections::HashSet::new();
            for u in batch {
                prop_assert!(seen.insert(u.segment), "batch not coalesced");
            }
        }
        // Every drained segment's final occurrence carries the latest
        // score pushed before its drain — checked via the last batch each
        // segment appears in against a replay of the push stream.
        let mut last_seen: HashMap<SegmentId, f64> = HashMap::new();
        for batch in &batches {
            for u in batch {
                last_seen.insert(u.segment, u.score);
            }
        }
        let finals = model_drain(&pushes);
        prop_assert_eq!(last_seen.len(), finals.len(), "coverage differs from model");
        for u in finals {
            prop_assert_eq!(last_seen[&u.segment].to_bits(), u.score.to_bits());
        }
    }
}

/// N producers over disjoint files: the drain coalesces to each
/// segment's latest score (scores increase monotonically per thread, so
/// "latest" is checkable), and the raw-push counter drains to exactly 0.
#[test]
fn concurrent_producers_coalesce_to_latest_per_segment() {
    const THREADS: u64 = 4;
    const ROUNDS: u64 = 500;
    const SEGMENTS: u64 = 8;
    let q = Arc::new(UpdateQueue::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let q = Arc::clone(&q);
            s.spawn(move || {
                for r in 0..ROUNDS {
                    for i in 0..SEGMENTS {
                        q.push(&[upd(t, i, (r + 1) as f64)]);
                    }
                }
            });
        }
    });
    assert_eq!(q.pending(), THREADS * ROUNDS * SEGMENTS);
    let drained = q.drain();
    assert_eq!(drained.len(), (THREADS * SEGMENTS) as usize, "one slot per segment");
    for u in &drained {
        assert_eq!(u.score, ROUNDS as f64, "latest (largest) score won");
    }
    assert_eq!(q.pending(), 0);
}

/// Streams (= files) in every auditor run, fixed regardless of thread
/// count so the total workload is comparable across thread counts.
const STREAMS: u64 = 4;
/// Reads per stream.
const READS: u64 = 2_000;
/// File size and request size.
const DATASET: u64 = 64 * MIB;
const REQUEST: u64 = 4 * MIB;

/// One stream's reads: four Fig. 5-style processes (bulk-sequential scans
/// of up to 48 MiB, strided, repetitive, irregular) interleaved
/// round-robin as processes `4 * stream .. 4 * stream + 4`. Streams use
/// disjoint process IDs because the auditor's per-process sequencing
/// state is global. Deterministic in `stream`; time advances 1 ms a read.
fn stream_reads(stream: u64) -> Vec<(ByteRange, ProcessId, Timestamp)> {
    let chunks = DATASET / REQUEST;
    let wide = (48 * MIB / REQUEST).min(chunks);
    let mut rng = 0x5EED + stream;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    (0..READS)
        .map(|i| {
            let round = i / 4;
            let (chunk, len) = match i % 4 {
                0 => ((round * wide) % (chunks - wide + 1), wide),
                1 => ((round * 4) % chunks, 1),
                2 => ((round * 7 + 3) % (chunks / 4), 1),
                _ => (next() % chunks, 1),
            };
            let process = ProcessId((stream * 4 + i % 4) as u32);
            (ByteRange::new(chunk * REQUEST, len * REQUEST), process, Timestamp::from_millis(i))
        })
        .collect()
}

/// Runs the [`STREAMS`] streams round-robin over `threads` producers into
/// one auditor and returns the final drain sorted by segment. A thread
/// processes its streams in order and files are disjoint, so each
/// segment's score history is independent of the interleaving.
fn canonical_drain(threads: usize) -> Vec<ScoreUpdate> {
    let auditor = Auditor::new(HFetchConfig::default());
    // Staging is bounded by what the engine's tiers hold: a hierarchy
    // above the dataset keeps every segment staged.
    let hierarchy = Hierarchy::with_budgets(DATASET, DATASET, 2 * DATASET);
    let engine = PlacementEngine::new(&hierarchy, Reactiveness::default());
    let slots = engine.segment_slots(MIB);
    assert!(slots >= STREAMS * DATASET / MIB);
    let streams: Vec<(FileId, Vec<_>)> =
        (0..STREAMS).map(|j| (FileId(j + 1), stream_reads(j))).collect();
    for (file, _) in &streams {
        auditor.set_file_size(*file, DATASET);
        auditor.start_epoch_bounded(*file, Timestamp::ZERO, slots, || engine.placed_indices(*file));
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            let (auditor, streams) = (&auditor, &streams);
            s.spawn(move || {
                for (file, reads) in streams.iter().skip(t).step_by(threads) {
                    for &(range, process, at) in reads {
                        auditor.observe_read(*file, range, process, at);
                    }
                }
            });
        }
    });
    assert!(auditor.pending_updates() as u64 >= STREAMS * READS, "every read counted");
    let mut drained = auditor.drain_updates();
    assert_eq!(auditor.pending_updates(), 0);
    drained.sort_by_key(|u| (u.segment.file.0, u.segment.index));
    drained
}

/// The same seeded workload drained through 1, 2 and 4 producer threads
/// yields bit-identical canonicalised batches.
#[test]
fn thread_count_does_not_change_the_canonical_drain() {
    let serial = canonical_drain(1);
    assert_eq!(serial.len() as u64, STREAMS * DATASET / MIB, "every segment staged and drained");
    for threads in [2, 4] {
        assert_byte_identical(&canonical_drain(threads), &serial);
    }
}
