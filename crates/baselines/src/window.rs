//! Windowed readahead: the serial and parallel baselines.
//!
//! Fig. 4(a) compares HFetch against "a serial prefetcher" (one data piece
//! in flight at a time) and "a parallel prefetcher" (four prefetching
//! threads) that fetch ahead of sequential reads into a single RAM cache.
//! [`WindowPrefetcher`] is both: per-process readahead of the next `depth`
//! blocks into a [`BlockCache`] whose window holds `max_inflight`
//! transfers (1 for the serial row, 4 for the parallel one).

use std::collections::HashMap;

use sim::engine::SimCtl;
use sim::policy::{PrefetchPolicy, TransferDone};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;

use crate::lru::{BlockCache, BlockKey};

/// Client-pull readahead with a bounded in-flight window.
pub struct WindowPrefetcher {
    name: &'static str,
    /// How many blocks ahead of each read to request.
    depth: u64,
    /// Requests are tagged with the reading process.
    cache: BlockCache<ProcessId>,
    /// Highest block each process has read per file: readahead requests
    /// the reader has already passed are stale and get pruned, so a slow
    /// (serial) window spends its budget at the front of the stream.
    position: HashMap<(ProcessId, FileId), u64>,
}

/// The stale rule: the requester already read past this block.
fn passed(
    position: &HashMap<(ProcessId, FileId), u64>,
) -> impl Fn(BlockKey, &ProcessId) -> bool + '_ {
    move |key, process| position.get(&(*process, key.file)).is_some_and(|&pos| key.block <= pos)
}

impl WindowPrefetcher {
    /// Readahead of `depth` blocks of `block` bytes per read, at most
    /// `max_inflight` outstanding transfers.
    pub fn new(name: &'static str, max_inflight: usize, depth: u64, block: u64) -> Self {
        assert!(depth > 0);
        Self {
            name,
            depth,
            cache: BlockCache::new(block, max_inflight),
            position: HashMap::new(),
        }
    }

    /// Blocks currently tracked in the cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.cached_blocks()
    }
}

impl PrefetchPolicy for WindowPrefetcher {
    fn name(&self) -> &str {
        self.name
    }

    fn on_read(
        &mut self,
        file: FileId,
        range: ByteRange,
        process: ProcessId,
        _app: AppId,
        _now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        // Touch the blocks being read (they are useful; keep them warm).
        let blocks = self.cache.blocks(range);
        let last = *blocks.end();
        for block in blocks {
            self.cache.refresh(BlockKey { file, block });
        }
        let pos = self.position.entry((process, file)).or_insert(0);
        *pos = (*pos).max(last);
        // Readahead: the next `depth` blocks after the request.
        for step in 1..=self.depth {
            self.cache.request(BlockKey { file, block: last + step }, process);
        }
        self.cache.pump(ctl, passed(&self.position), |_| true);
    }

    fn on_write(
        &mut self,
        file: FileId,
        range: ByteRange,
        _process: ProcessId,
        _app: AppId,
        _now: Timestamp,
        _ctl: &mut SimCtl<'_>,
    ) {
        // The simulator already invalidated residency; drop our tracking.
        for block in self.cache.blocks(range) {
            self.cache.forget(&BlockKey { file, block });
        }
    }

    fn on_transfer_done(&mut self, _done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.cache.landed(ctl, passed(&self.position), |_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::policy::NoPrefetch;
    use sim::script::{RankScript, ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{gib, mib, MIB};

    fn sequential(ranks: u32, per_rank: u64, steps: u32, compute: Duration) -> (Vec<SimFile>, Vec<RankScript>) {
        let files = vec![SimFile { id: FileId(0), size: per_rank * ranks as u64 }];
        let scripts = (0..ranks)
            .map(|i| {
                ScriptBuilder::new(ProcessId(i), AppId(0))
                    .open(FileId(0))
                    .timestep_reads(
                        FileId(0),
                        i as u64 * per_rank,
                        per_rank / steps as u64,
                        steps,
                        compute,
                    )
                    .close(FileId(0))
                    .build()
            })
            .collect();
        (files, scripts)
    }

    #[test]
    fn parallel_beats_serial_beats_none() {
        // 4 ranks reading 1 MiB every 25 ms demand ~160 MiB/s. One
        // outstanding PFS transfer sustains ~77 MiB/s (serial falls
        // behind); four sustain ~307 MiB/s (parallel keeps up).
        let h = Hierarchy::ram_only(gib(1));
        let (files, scripts) = sequential(4, mib(64), 64, Duration::from_millis(25));
        let run = |p: Box<dyn PrefetchPolicy>| {
            Simulation::new(SimConfig::new(h.clone()), files.clone(), scripts.clone(), p)
                .run()
                .0
        };
        let none = run(Box::new(NoPrefetch));
        let serial = run(Box::new(WindowPrefetcher::new("serial", 1, 4, MIB)));
        let parallel = run(Box::new(WindowPrefetcher::new("parallel", 4, 4, MIB)));
        assert!(
            parallel.seconds() < serial.seconds(),
            "parallel {} < serial {}",
            parallel.seconds(),
            serial.seconds()
        );
        assert!(
            serial.seconds() < none.seconds(),
            "serial {} < none {}",
            serial.seconds(),
            none.seconds()
        );
        assert!(parallel.hit_ratio().unwrap() > serial.hit_ratio().unwrap());
        assert!(parallel.hit_ratio().unwrap() > 0.7, "{:?}", parallel.hit_ratio());
    }

    #[test]
    fn lru_eviction_bounds_cache_usage() {
        // Cache of 4 MiB, workload streams 64 MiB: usage must stay bounded.
        let h = Hierarchy::ram_only(mib(4));
        let (files, scripts) = sequential(1, mib(64), 64, Duration::from_millis(10));
        let p = WindowPrefetcher::new("parallel", 2, 2, MIB);
        let (report, policy) =
            Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert!(report.tiers[0].peak_bytes <= mib(4));
        assert!(report.evicted_bytes > 0, "streaming must evict");
        assert!(policy.cached_blocks() <= 4, "tracked {}", policy.cached_blocks());
    }

    #[test]
    fn write_drops_tracking() {
        let h = Hierarchy::ram_only(mib(8));
        let files = vec![SimFile { id: FileId(0), size: mib(8) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .read(FileId(0), 0, MIB)
            .compute(Duration::from_millis(500))
            .write(FileId(0), MIB, MIB) // clobber the readahead block
            .read(FileId(0), MIB, MIB)
            .build()];
        let p = WindowPrefetcher::new("serial", 1, 2, MIB);
        let (report, _) = Simulation::new(SimConfig::new(h), files, scripts, p).run();
        assert!(report.invalidated_bytes >= MIB);
    }

    #[test]
    #[should_panic(expected = "max_inflight > 0")]
    fn zero_window_rejected() {
        let _ = WindowPrefetcher::new("x", 0, 1, 1);
    }
}
