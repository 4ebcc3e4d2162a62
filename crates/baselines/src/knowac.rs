//! A KnowAc-like history-based prefetcher.
//!
//! KnowAc \[22\] ("I/O prefetch via accumulated knowledge") stores the
//! accesses seen in a previous run, so "access patterns are known when the
//! same application executes again". In the paper's Fig. 6 it posts "the
//! best read performance … since the prefetcher knows exactly what to load
//! next", but "suffers from prolonged profiling costs" — the profiling run
//! is charged separately (the "Profile-Cost" stack).
//!
//! [`KnowAcLike`] replays a recorded trace: for every read a process
//! issues, the prefetcher fetches that process's next `window` recorded
//! reads into RAM. The harness obtains the trace from the workload scripts
//! (a perfect profile) and reports the profiling cost alongside, exactly
//! as the figure does. Its [`BlockCache`] drops requests whose trace
//! position the process already replayed, and recycles only blocks the
//! application has read.

use std::collections::{HashMap, HashSet};

use sim::engine::SimCtl;
use sim::policy::{PrefetchPolicy, TransferDone};
use sim::script::{Op, RankScript};
use tiers::ids::{AppId, FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::time::Timestamp;

use crate::lru::{BlockCache, BlockKey};

/// One recorded access in the profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// File read.
    pub file: FileId,
    /// Range read.
    pub range: ByteRange,
}

/// History-based prefetcher replaying a recorded profile.
pub struct KnowAcLike {
    /// Per-process recorded read sequence.
    trace: HashMap<ProcessId, Vec<TraceEntry>>,
    /// Per-process replay cursor.
    cursor: HashMap<ProcessId, usize>,
    /// How many future accesses to keep prefetched per process.
    window: usize,
    /// Requests are tagged with the process and its trace position.
    cache: BlockCache<(ProcessId, u32)>,
    /// Blocks that have been read since they were prefetched. Eviction
    /// only recycles consumed blocks: evicting data the application has
    /// not read yet would be pure churn (fetch, evict, refetch), so when
    /// the cache is full of unconsumed prefetches the prefetcher applies
    /// backpressure instead.
    consumed: HashSet<BlockKey>,
    /// Reads that deviated from the recorded history.
    deviations: u64,
}

/// The stale rule: the process already replayed past this trace position
/// — fetching it now would only clog the cache.
fn replayed(
    cursor: &HashMap<ProcessId, usize>,
) -> impl Fn(BlockKey, &(ProcessId, u32)) -> bool + '_ {
    move |_, (process, pos)| cursor.get(process).copied().unwrap_or(0) > *pos as usize
}

/// The eviction rule: recycle only blocks the application has already
/// read (consuming the mark).
fn read_already(consumed: &mut HashSet<BlockKey>) -> impl FnMut(BlockKey) -> bool + '_ {
    move |victim| consumed.remove(&victim)
}

impl KnowAcLike {
    /// Builds the prefetcher from an explicit trace.
    pub fn new(
        trace: HashMap<ProcessId, Vec<TraceEntry>>,
        window: usize,
        block: u64,
        max_inflight: usize,
    ) -> Self {
        assert!(window > 0);
        Self {
            trace,
            cursor: HashMap::new(),
            window,
            cache: BlockCache::new(block, max_inflight),
            consumed: HashSet::new(),
            deviations: 0,
        }
    }

    /// Profiles a workload by extracting every read op from its scripts —
    /// the "previous run" KnowAc requires. The cost of that run is charged
    /// by the harness as profile cost.
    pub fn from_scripts(
        scripts: &[RankScript],
        window: usize,
        block: u64,
        max_inflight: usize,
    ) -> Self {
        let mut trace: HashMap<ProcessId, Vec<TraceEntry>> = HashMap::new();
        for script in scripts {
            let entries = trace.entry(script.process).or_default();
            for op in &script.ops {
                if let Op::Read { file, range } = op {
                    entries.push(TraceEntry { file: *file, range: *range });
                }
            }
        }
        Self::new(trace, window, block, max_inflight)
    }

    /// Reads that did not match the recorded history.
    pub fn deviations(&self) -> u64 {
        self.deviations
    }

    /// Requests the blocks of `process`'s next `window` recorded reads and
    /// pumps.
    fn stage_window(&mut self, process: ProcessId, ctl: &mut SimCtl<'_>) {
        let cursor = self.cursor.get(&process).copied().unwrap_or(0);
        if let Some(entries) = self.trace.get(&process) {
            for (pos, e) in entries.iter().enumerate().skip(cursor).take(self.window) {
                for block in self.cache.blocks(e.range) {
                    self.cache.request(BlockKey { file: e.file, block }, (process, pos as u32));
                }
            }
        }
        self.cache.pump(ctl, replayed(&self.cursor), read_already(&mut self.consumed));
    }
}

impl PrefetchPolicy for KnowAcLike {
    fn name(&self) -> &str {
        "knowac"
    }

    fn on_open(
        &mut self,
        _file: FileId,
        process: ProcessId,
        _app: AppId,
        _now: Timestamp,
        ctl: &mut SimCtl<'_>,
    ) {
        // The history tells us what this process reads first: stage its
        // initial window immediately.
        self.stage_window(process, ctl);
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
        let cursor = self.cursor.entry(process).or_insert(0);
        let matched = self
            .trace
            .get(&process)
            .and_then(|t| t.get(*cursor))
            .is_some_and(|e| e.file == file && e.range == range);
        if matched {
            *cursor += 1;
        } else {
            self.deviations += 1;
            // Resynchronize: find the next matching entry.
            if let Some(entries) = self.trace.get(&process) {
                if let Some(pos) = entries
                    .iter()
                    .enumerate()
                    .skip(*cursor)
                    .find(|(_, e)| e.file == file && e.range == range)
                    .map(|(i, _)| i)
                {
                    *cursor = pos + 1;
                }
            }
        }
        // Mark the blocks just read as consumed (evictable), then stage
        // the next window.
        for block in self.cache.blocks(range) {
            let key = BlockKey { file, block };
            if self.cache.refresh(key) {
                self.consumed.insert(key);
            }
        }
        self.stage_window(process, ctl);
    }

    fn on_transfer_done(&mut self, _done: TransferDone, _now: Timestamp, ctl: &mut SimCtl<'_>) {
        self.cache.landed(ctl, replayed(&self.cursor), read_already(&mut self.consumed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::engine::{SimConfig, Simulation};
    use sim::policy::NoPrefetch;
    use sim::script::{ScriptBuilder, SimFile};
    use std::time::Duration;
    use tiers::topology::Hierarchy;
    use tiers::units::{mib, MIB};

    fn strided_scripts(ranks: u32) -> (Vec<SimFile>, Vec<RankScript>) {
        let files = vec![SimFile { id: FileId(0), size: mib(256) }];
        let scripts = (0..ranks)
            .map(|i| {
                let mut b = ScriptBuilder::new(ProcessId(i), AppId(0)).open(FileId(0));
                // A pattern a stride detector would struggle with but a
                // recorded history replays perfectly.
                for k in 0..16u64 {
                    let offset = ((k * 37 + i as u64 * 11) % 250) * MIB;
                    b = b.compute(Duration::from_millis(40)).read(FileId(0), offset, MIB);
                }
                b.close(FileId(0)).build()
            })
            .collect();
        (files, scripts)
    }

    #[test]
    fn trace_extraction_captures_reads_in_order() {
        let (_, scripts) = strided_scripts(2);
        let k = KnowAcLike::from_scripts(&scripts, 4, MIB, 4);
        assert_eq!(k.trace.len(), 2);
        assert_eq!(k.trace[&ProcessId(0)].len(), 16);
        assert_eq!(k.trace[&ProcessId(1)].len(), 16);
        assert_eq!(k.trace[&ProcessId(0)][0].range.offset, 0);
    }

    #[test]
    fn replay_gets_near_perfect_hits() {
        let h = Hierarchy::ram_only(mib(64));
        let (files, scripts) = strided_scripts(4);
        let k = KnowAcLike::from_scripts(&scripts, 4, MIB, 8);
        let (report, policy) =
            Simulation::new(SimConfig::new(h.clone()), files.clone(), scripts.clone(), k).run();
        let (none, _) = Simulation::new(SimConfig::new(h), files, scripts, NoPrefetch).run();
        assert_eq!(policy.deviations(), 0, "trace matches the run");
        assert!(
            report.hit_ratio().unwrap() > 0.8,
            "history replay hits: {:?}",
            report.hit_ratio()
        );
        assert!(report.seconds() < none.seconds());
    }

    #[test]
    fn deviation_resynchronizes() {
        // The trace says reads at 0,1,2 MiB but the run reads 0,2 MiB: the
        // prefetcher counts one deviation and keeps going.
        let trace: HashMap<ProcessId, Vec<TraceEntry>> = HashMap::from([(
            ProcessId(0),
            vec![
                TraceEntry { file: FileId(0), range: ByteRange::new(0, MIB) },
                TraceEntry { file: FileId(0), range: ByteRange::new(MIB, MIB) },
                TraceEntry { file: FileId(0), range: ByteRange::new(2 * MIB, MIB) },
            ],
        )]);
        let h = Hierarchy::ram_only(mib(16));
        let files = vec![SimFile { id: FileId(0), size: mib(16) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .read(FileId(0), 2 * MIB, MIB)
            .close(FileId(0))
            .build()];
        let k = KnowAcLike::new(trace, 2, MIB, 4);
        let (_, policy) = Simulation::new(SimConfig::new(h), files, scripts, k).run();
        assert_eq!(policy.deviations(), 1);
    }

    #[test]
    fn unknown_process_is_harmless() {
        let h = Hierarchy::ram_only(mib(16));
        let files = vec![SimFile { id: FileId(0), size: mib(16) }];
        let scripts = vec![ScriptBuilder::new(ProcessId(0), AppId(0))
            .open(FileId(0))
            .read(FileId(0), 0, MIB)
            .close(FileId(0))
            .build()];
        let k = KnowAcLike::new(HashMap::new(), 2, MIB, 4);
        let (report, policy) = Simulation::new(SimConfig::new(h), files, scripts, k).run();
        assert_eq!(report.hit_ratio(), Some(0.0));
        assert_eq!(policy.deviations(), 1);
    }
}
