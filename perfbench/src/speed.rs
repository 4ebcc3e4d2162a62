//! Host speed, measured with a fixed reference kernel.
//!
//! The benchmark runs on shared machines whose speed drifts by up to 2x
//! over minutes: other tenants contend for the caches and the memory bus.
//! The fastest or median pass of one run cannot remove a drift that
//! lasts the whole run. So each cell's host time is divided by the time
//! of a reference kernel run right before and after it, and reported in
//! *reference seconds*: seconds on a host where the kernel takes
//! `REFERENCE_S`. The kernel is part of the benchmark, not of the
//! program, so a change to the program moves the cell time and leaves
//! the kernel alone.
//!
//! The kernel does what the simulator does most: hash-map and B-tree
//! updates and heap pushes over a working set of ~10 MiB, larger than the
//! caches that other tenants evict. A pure arithmetic loop tracks the
//! drift far less well.

use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::time::{Duration, Instant};

/// The kernel's time on the host that defines one reference second.
/// About its fastest time on the 2-vCPU VM where the bounds were set.
pub const REFERENCE_S: f64 = 0.05;

/// Runs the reference kernel once and returns its wall time.
pub fn reference() -> Duration {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, u64> = HashMap::new();
    for _ in 0..400_000 {
        let v = next();
        *map.entry(v % 300_000).or_default() += v;
    }
    let mut tree: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    for i in 0..150_000u64 {
        let v = next();
        tree.entry(v % 60_000).or_default().push(i);
        heap.push(std::cmp::Reverse(v % 1_000_000));
        if i % 3 == 0 {
            heap.pop();
        }
    }
    std::hint::black_box((&map, &tree, &heap));
    start.elapsed()
}

/// Converts host time into reference seconds, given the kernel's times
/// right before and after it.
pub fn normalize(host: Duration, before: Duration, after: Duration) -> f64 {
    let kernel = (before + after).as_secs_f64() / 2.0;
    host.as_secs_f64() * REFERENCE_S / kernel
}
