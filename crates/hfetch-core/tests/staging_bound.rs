//! Capacity-bounded epoch staging is exact.
//!
//! A first opener queues only the staging updates Algorithm 1 could act
//! on (`Auditor::start_epoch_bounded`). Two auditor + engine twins run the
//! same seeded pre-state; at the epoch under test one stages against its
//! engine's capacity, the other's pass gets the full per-segment staging
//! list, built here from the stored heatmap and the base score. Both must
//! emit the same `PlacementAction` stream and end with the same engine
//! model, over hierarchies whose capacities are not multiples of the
//! segment size, other files' short tail segments already placed, heatmap
//! history, a re-open whose segments are still placed
//! (`evict_on_epoch_end = false`), pending slots of the file, and reads
//! that land between the staging and the pass.

use std::time::Duration;

use hfetch_core::auditor::{Auditor, ScoreUpdate};
use hfetch_core::config::{HFetchConfig, Reactiveness};
use hfetch_core::engine::{PlacementAction, PlacementEngine};
use tiers::ids::{FileId, ProcessId, SegmentId};
use tiers::range::{segment_count, segment_range, ByteRange};
use tiers::time::Timestamp;
use tiers::topology::Hierarchy;
use tiers::units::{KIB, MIB};

/// The file whose epoch is staged.
const F: FileId = FileId(1);
/// Other files, with short tail segments.
const OTHERS: [FileId; 2] = [FileId(2), FileId(3)];

/// One auditor and the engine it feeds.
struct Twin {
    auditor: Auditor,
    engine: PlacementEngine,
}

impl Twin {
    fn new(cfg: &HFetchConfig, hierarchy: &Hierarchy) -> Self {
        Self {
            auditor: Auditor::new(cfg.clone()),
            engine: PlacementEngine::with_margin(
                hierarchy,
                cfg.reactiveness,
                cfg.displacement_margin,
            ),
        }
    }

    /// Starts an epoch the way both deployments do.
    fn open(&self, file: FileId, now: Timestamp) {
        let slots = self.engine.segment_slots(self.auditor.config().segment_size);
        self.auditor.start_epoch_bounded(file, now, slots, || self.engine.placed_indices(file));
    }

    /// One engine pass, with the deployments' fetch-on-second-touch filter.
    fn pass(&mut self, updates: Vec<ScoreUpdate>, now: Timestamp) -> Vec<PlacementAction> {
        let (auditor, engine) = (&self.auditor, &self.engine);
        let updates = updates
            .into_iter()
            .filter(|u| {
                u.anticipated
                    || engine.location(u.segment).is_some()
                    || auditor.stat(u.segment).is_some_and(|st| st.frequency >= 2)
            })
            .collect();
        self.engine.run(updates, now)
    }

    fn drain_pass(&mut self, now: Timestamp) -> Vec<PlacementAction> {
        let updates = self.auditor.drain_updates();
        self.pass(updates, now)
    }

    fn read(&self, file: FileId, index: u64, process: u32, now: Timestamp) {
        self.auditor.observe_read(file, ByteRange::new(index * MIB, MIB), ProcessId(process), now);
    }
}

/// The staging update every positive-score segment of `file` gets when
/// staging is unbounded, with the float ops the auditor's seed uses.
fn full_staging(twin: &Twin, file: FileId, size: u64, now: Timestamp) -> Vec<ScoreUpdate> {
    let cfg = twin.auditor.config();
    let history = twin.auditor.heatmaps().load(file);
    let decay = history.as_ref().map(|h| cfg.score.decay(now.since(h.saved_at), 1));
    (0..segment_count(size, cfg.segment_size))
        .filter_map(|index| {
            let historical = history.as_ref().map_or(0.0, |h| h.score(index) * decay.unwrap());
            let score = historical.max(cfg.epoch_base_score);
            (score > 0.0).then(|| ScoreUpdate {
                segment: SegmentId::new(file, index),
                score,
                size: segment_range(index, cfg.segment_size, size).len,
                anticipated: true,
            })
        })
        .collect()
}

/// `later` coalesced over `base`: the latest update per segment.
fn overlay(base: Vec<ScoreUpdate>, later: Vec<ScoreUpdate>) -> Vec<ScoreUpdate> {
    let mut merged = base;
    for u in later {
        match merged.iter_mut().find(|m| m.segment == u.segment) {
            Some(m) => *m = u,
            None => merged.push(u),
        }
    }
    merged
}

/// Asserts both engines model the same placement.
fn assert_same_model(a: &PlacementEngine, b: &PlacementEngine, files: &[(FileId, u64)]) {
    assert_eq!(a.placed_segments(), b.placed_segments());
    for idx in 0..3 {
        assert_eq!(a.tier_used(idx), b.tier_used(idx), "tier {idx} used");
        assert_eq!(a.watermarks(idx), b.watermarks(idx), "tier {idx} watermarks");
    }
    for &(file, size) in files {
        for index in 0..segment_count(size, MIB) {
            let seg = SegmentId::new(file, index);
            assert_eq!(a.location(seg), b.location(seg), "{seg:?}");
        }
    }
    a.check_invariants().unwrap();
    b.check_invariants().unwrap();
}

#[derive(Debug, Clone)]
struct Case {
    /// Cache-tier capacities in 256 KiB units, plus odd bytes.
    tiers: [(u64, u64); 3],
    base: f64,
    margin: f64,
    lookahead: u64,
    /// Full segments and tail bytes of `F`.
    f_size: (u64, u64),
    /// Full segments and (non-zero) tail bytes of each other file.
    others: [(u64, u64); 2],
    /// A first epoch of `F` before the one under test: heatmap history,
    /// plus segments still placed unless `evict_first`.
    reopen: bool,
    evict_first: bool,
    /// The last other file's epoch ends with an eviction before the epoch
    /// under test, freeing room in the tiers.
    evict_other: bool,
    /// Segment reads `(file slot, index, process)`: the first epoch's,
    /// then the ones left pending, then the ones between staging and the
    /// pass. File slot 0 is `F`.
    first_reads: Vec<(usize, u64, u32)>,
    pending_reads: Vec<(usize, u64, u32)>,
    late_reads: Vec<(usize, u64, u32)>,
}

/// Minimal deterministic generator (no external dependencies).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) % n.max(1)
    }

    fn reads(&mut self) -> Vec<(usize, u64, u32)> {
        (0..self.below(24))
            .map(|_| (self.below(3) as usize, self.below(64), self.below(4) as u32))
            .collect()
    }
}

impl Case {
    fn seeded(seed: u64) -> Self {
        let mut r = Lcg(seed);
        Case {
            tiers: [(); 3].map(|_| (1 + r.below(23), r.below(1000))),
            base: [0.0, 1e-6, 0.3][r.below(3) as usize],
            margin: [1.0, 2.0][r.below(2) as usize],
            lookahead: r.below(3),
            f_size: (1 + r.below(47), r.below(MIB)),
            others: [(); 2].map(|_| (1 + r.below(11), 1 + r.below(MIB - 1))),
            reopen: r.below(2) == 1,
            evict_first: r.below(2) == 1,
            evict_other: r.below(2) == 1,
            first_reads: r.reads(),
            pending_reads: r.reads(),
            late_reads: r.reads(),
        }
    }
}

/// Runs one case; returns whether the bound left some of `F`'s staging
/// updates out of the pass.
fn run(case: &Case) -> bool {
    let capacity = |(units, odd): (u64, u64)| units * 256 * KIB + odd;
    let hierarchy = Hierarchy::with_budgets(
        capacity(case.tiers[0]),
        capacity(case.tiers[1]),
        capacity(case.tiers[2]),
    );
    let cfg = HFetchConfig {
        segment_size: MIB,
        reactiveness: Reactiveness { interval: Duration::from_secs(1), score_updates: 1 },
        lookahead: case.lookahead,
        epoch_base_score: case.base,
        evict_on_epoch_end: false,
        displacement_margin: case.margin,
        ..Default::default()
    };
    let size = |(full, tail): (u64, u64)| full * MIB + tail;
    let mut files = vec![(F, size(case.f_size))];
    files.extend(OTHERS.iter().zip(case.others).map(|(&f, s)| (f, size(s))));
    let file_of = |slot: usize, index: u64| {
        let (file, size) = files[slot];
        (file, index % segment_count(size, MIB))
    };
    let ms = |m: u64| Timestamp::from_millis(m);

    let mut a = Twin::new(&cfg, &hierarchy);
    let mut b = Twin::new(&cfg, &hierarchy);
    // The pre-state, identical in both twins.
    for twin in [&mut a, &mut b] {
        for &(file, size) in &files {
            twin.auditor.set_file_size(file, size);
        }
        // The other files' epochs, read twice so their segments (short
        // tails included) are placed.
        for (i, file) in OTHERS.iter().enumerate() {
            twin.open(*file, ms(10 * i as u64));
            twin.drain_pass(ms(10 * i as u64));
        }
        for (t, &(slot, index, process)) in case.first_reads.iter().enumerate() {
            if slot > 0 || case.reopen {
                let (file, index) = file_of(slot, index);
                twin.read(file, index, process, ms(100 + t as u64));
                twin.read(file, index, process + 4, ms(100 + t as u64));
            }
        }
        if case.reopen {
            twin.open(F, ms(100));
            twin.drain_pass(ms(200));
            assert!(twin.auditor.end_epoch(F, ms(900)), "last closer");
            if case.evict_first {
                twin.engine.evict_file(F);
            }
        } else {
            twin.drain_pass(ms(200));
        }
        if case.evict_other {
            twin.auditor.end_epoch(OTHERS[1], ms(950));
            twin.engine.evict_file(OTHERS[1]);
        }
        for (t, &(slot, index, process)) in case.pending_reads.iter().enumerate() {
            let (file, index) = file_of(slot, index);
            twin.read(file, index, process, ms(1_000 + t as u64));
        }
    }

    // The epoch under test: `a` stages against its engine's capacity,
    // `b`'s pass gets every segment's staging update.
    let now = ms(1_500);
    a.open(F, now);
    b.auditor.start_epoch_bounded(F, now, 0, Vec::new);
    let full = full_staging(&b, F, files[0].1, now);
    for twin in [&a, &b] {
        for (t, &(slot, index, process)) in case.late_reads.iter().enumerate() {
            let (file, index) = file_of(slot, index);
            twin.read(file, index, process, ms(1_600 + t as u64));
        }
    }
    let later = ms(2_000);
    let a_drained = a.auditor.drain_updates();
    let b_drained = overlay(full, b.auditor.drain_updates());
    let of_f = |updates: &[ScoreUpdate]| updates.iter().filter(|u| u.segment.file == F).count();
    let bit = of_f(&a_drained) < of_f(&b_drained);
    let bounded = a.pass(a_drained, later);
    let unbounded = b.pass(b_drained, later);
    assert_eq!(bounded, unbounded, "{case:?}");
    assert_same_model(&a.engine, &b.engine, &files);

    // The seed lives on lazily: later reads score alike in both twins.
    for twin in [&mut a, &mut b] {
        for (t, &(slot, index, process)) in case.first_reads.iter().enumerate() {
            let (file, index) = file_of(slot, index);
            twin.read(file, index, process, ms(2_500 + t as u64));
        }
    }
    assert_eq!(a.drain_pass(ms(3_000)), b.drain_pass(ms(3_000)));
    assert_same_model(&a.engine, &b.engine, &files);
    assert_eq!(a.auditor.snapshot_heatmap(F, ms(4_000)), b.auditor.snapshot_heatmap(F, ms(4_000)));
    bit
}

#[test]
fn bounded_staging_plans_what_full_staging_plans() {
    let cases = 1_000;
    let bitten = (0..cases).filter(|&seed| run(&Case::seeded(seed))).count();
    assert!(bitten * 4 > cases as usize, "the bound left updates out in only {bitten} cases");
}

/// The bound bites: a file eight times the cache queues its top `slots`
/// segments plus its tail, and still plans what full staging plans.
#[test]
fn a_file_larger_than_the_cache_queues_at_most_its_slots() {
    let case = Case {
        tiers: [(4, 17), (8, 0), (16, 999)],
        base: 1e-6,
        margin: 2.0,
        lookahead: 2,
        f_size: (8 * 7, MIB / 3),
        others: [(1, 5), (2, MIB / 2)],
        reopen: true,
        evict_first: false,
        evict_other: true,
        first_reads: vec![(0, 3, 0), (0, 40, 1), (1, 0, 2), (2, 2, 3), (0, 41, 1)],
        pending_reads: vec![(0, 50, 2), (0, 9, 0)],
        late_reads: vec![(0, 0, 3), (0, 1, 3)],
    };
    assert!(run(&case));

    let hierarchy = Hierarchy::with_budgets(MIB + 17, 2 * MIB, 4 * MIB + 999);
    let twin = Twin::new(&HFetchConfig::default(), &hierarchy);
    let size = 8 * 7 * MIB + MIB / 3;
    twin.auditor.set_file_size(F, size);
    twin.open(F, Timestamp::ZERO);
    assert_eq!(twin.auditor.pending_updates() as u64, segment_count(size, MIB), "trigger count");
    let queued = twin.auditor.drain_updates();
    let slots = twin.engine.segment_slots(MIB);
    assert_eq!(slots, 7);
    let indices: Vec<u64> = queued.iter().map(|u| u.segment.index).collect();
    assert_eq!(indices, vec![0, 1, 2, 3, 4, 5, 6, 56], "top slots + the tail");
    assert_eq!(queued[7].size, MIB / 3);
}

/// Twins over `hierarchy` with the strict rule or hysteresis, no
/// lookahead, and a pass per update.
fn twins(hierarchy: &Hierarchy, margin: f64) -> (Twin, Twin) {
    let cfg = HFetchConfig {
        reactiveness: Reactiveness { interval: Duration::from_secs(1), score_updates: 1 },
        lookahead: 0,
        evict_on_epoch_end: false,
        displacement_margin: margin,
        ..Default::default()
    };
    (Twin::new(&cfg, hierarchy), Twin::new(&cfg, hierarchy))
}

/// Stages `F` in both twins at `now`, `a` bounded and `b` with the full
/// list, and asserts the passes agree.
fn stage_both(a: &mut Twin, b: &mut Twin, size: u64, files: &[(FileId, u64)], now: Timestamp) {
    a.open(F, now);
    b.auditor.start_epoch_bounded(F, now, 0, Vec::new);
    let full = overlay(full_staging(b, F, size, now), b.auditor.drain_updates());
    assert_eq!(a.drain_pass(now), b.pass(full, now));
    assert_same_model(&a.engine, &b.engine, files);
}

/// Every top-`slots` segment places, so the next one cannot: it must not
/// demote the other file's tail that shares the last tier before finding
/// that out, or full staging would differ from bounded staging.
#[test]
fn a_placement_beyond_the_bound_has_no_side_effects() {
    let hierarchy = Hierarchy::with_budgets(MIB, MIB, 5 * MIB / 4);
    let (mut a, mut b) = twins(&hierarchy, 1.0);
    let (g, h) = (OTHERS[0], OTHERS[1]);
    let files = [(F, 4 * MIB), (g, MIB / 4), (h, 2 * MIB)];
    let ms = Timestamp::from_millis;
    for twin in [&mut a, &mut b] {
        for (file, size) in files {
            twin.auditor.set_file_size(file, size);
        }
        // History: F's four segments equally hot.
        twin.open(F, ms(0));
        for index in 0..4 {
            twin.read(F, index, 0, ms(100));
            twin.read(F, index, 1, ms(100));
        }
        twin.drain_pass(ms(200));
        twin.auditor.end_epoch(F, ms(900));
        twin.engine.evict_file(F);
        // G's tail lands in the last tier while H holds the others.
        for index in 0..2 {
            twin.read(h, index, 2, ms(950));
            twin.read(h, index, 3, ms(950));
        }
        twin.drain_pass(ms(950));
        twin.open(g, ms(960));
        twin.drain_pass(ms(960));
        assert_eq!(twin.engine.location(SegmentId::new(g, 0)), Some(tiers::ids::TierId(2)));
        twin.engine.evict_file(h);
    }
    stage_both(&mut a, &mut b, 4 * MIB, &files, ms(1_500));
    assert_eq!(a.engine.location(SegmentId::new(g, 0)), Some(tiers::ids::TierId(2)));
}

/// Segments the engine holds re-settle under their new staging score
/// even when they rank below the top `slots`.
#[test]
fn held_segments_outside_the_bound_are_restaged() {
    let hierarchy = Hierarchy::with_budgets(MIB, MIB, MIB / 4);
    let (mut a, mut b) = twins(&hierarchy, 2.0);
    let files = [(F, 4 * MIB)];
    let ms = Timestamp::from_millis;
    for twin in [&mut a, &mut b] {
        twin.auditor.set_file_size(F, 4 * MIB);
        twin.open(F, ms(0));
        twin.drain_pass(ms(0));
        // Segments 0 and 1 are placed early; 2 and 3 run hotter later but
        // cannot beat them by the margin.
        for (indices, at, reads) in [([0, 1], 100, 2), ([2, 3], 800, 3)] {
            for index in indices {
                for p in 0..reads {
                    twin.read(F, index, p, ms(at));
                }
            }
            twin.drain_pass(ms(at + 50));
        }
        twin.auditor.end_epoch(F, ms(900));
    }
    let mut held = a.engine.placed_indices(F);
    held.sort_unstable();
    assert_eq!(held, vec![0, 1]);
    stage_both(&mut a, &mut b, 4 * MIB, &files, ms(1_500));
}
