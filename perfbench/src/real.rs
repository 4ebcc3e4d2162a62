//! The real-thread replay: the recorded application stream of a cell,
//! issued by one application thread through `HFetchAgent` into a running
//! in-memory `HFetchServer`, with real bytes.
//!
//! It loads what the simulator does not run: the instrumented shim, the
//! event queue, one monitor daemon, DHT shard contention between the
//! daemon, the agent and the engine thread, server dispatch, `do_fetch`
//! and `tiers::mover`. Byte quantities are divided by [`SCALE`] so the
//! tiers fit in a few MiB of memory: a 1 MiB read becomes 4 KiB, a
//! 64 GiB file 256 MiB. The backing store is a [`PatternBackend`] that
//! computes each byte from its file and offset, so nothing is staged in
//! memory and every byte an agent returns can be checked. The replay is
//! closed-loop: the application issues its next call as soon as the
//! last one returns, without the simulated compute gaps.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use events::shim::{FileHandle, OpenMode};
use hfetch_core::agent::HFetchAgent;
use hfetch_core::config::HFetchConfig;
use hfetch_core::server::HFetchServer;
use tiers::backend::{MemoryBackend, StorageBackend};
use tiers::error::{Result, TierError};
use tiers::ids::{FileId, ProcessId};
use tiers::range::ByteRange;
use tiers::tier::TierSpec;
use tiers::topology::Hierarchy;

use crate::cells::{ratio, Cell};
use crate::trace::{By, Call};
use crate::Checks;

/// Byte quantities of the simulated cell over those of the replay.
pub const SCALE: u64 = 256;

/// The content of every file: byte `o` of file `f` is
/// `(o + 31 f) mod 251`.
fn fill(file: FileId, offset: u64, buf: &mut [u8]) {
    let mut v = ((offset + 31 * file.0) % 251) as u8;
    for b in buf {
        *b = v;
        v = if v == 250 { 0 } else { v + 1 };
    }
}

fn pattern(file: FileId, range: ByteRange) -> Vec<u8> {
    let mut buf = vec![0; range.len as usize];
    fill(file, range.offset, &mut buf);
    buf
}

/// A backing store that holds every byte of every file and computes it
/// with [`fill`]. Writes must carry the same content.
struct PatternBackend;

impl StorageBackend for PatternBackend {
    fn write(&self, file: FileId, offset: u64, data: &[u8]) -> Result<()> {
        if pattern(file, ByteRange::new(offset, data.len() as u64)) == data {
            Ok(())
        } else {
            Err(TierError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("write to {file:?} at {offset} changes the content"),
            )))
        }
    }

    fn read(&self, file: FileId, range: ByteRange) -> Result<Bytes> {
        Ok(Bytes::from(pattern(file, range)))
    }

    fn evict(&self, _: FileId, _: ByteRange) -> Result<u64> {
        Ok(0)
    }

    fn delete(&self, _: FileId) -> Result<u64> {
        Ok(0)
    }

    fn resident(&self, _: FileId, _: ByteRange) -> bool {
        true
    }

    fn covered_bytes(&self, _: FileId, range: ByteRange) -> u64 {
        range.len
    }

    fn covered_ranges(&self, _: FileId, range: ByteRange) -> Vec<ByteRange> {
        vec![range]
    }

    fn resident_bytes(&self, _: FileId) -> u64 {
        0
    }

    fn used_bytes(&self) -> u64 {
        0
    }

    fn files(&self) -> Vec<FileId> {
        Vec::new()
    }
}

fn scale_range(range: ByteRange) -> ByteRange {
    ByteRange::new(range.offset / SCALE, range.len.div_ceil(SCALE))
}

/// The per-layer metrics of one replay of every cell of a workload.
#[derive(Default)]
pub struct RealPass {
    read_ns: Vec<u64>,
    events: u64,
    wall_ns: u64,
    quiesce_ns: u64,
    hit_bytes: u64,
    miss_bytes: u64,
    locks: u64,
    counts: BTreeMap<&'static str, u64>,
}

impl RealPass {
    /// The metrics, by name.
    pub fn metrics(mut self) -> BTreeMap<&'static str, f64> {
        self.read_ns.sort_unstable();
        let quantile_us = |q: f64| match self.read_ns.len() {
            0 => 0.0,
            n => self.read_ns[((n - 1) as f64 * q).round() as usize] as f64 / 1e3,
        };
        let mut m: BTreeMap<&'static str, f64> =
            self.counts.iter().map(|(k, v)| (*k, *v as f64)).collect();
        m.insert("agent.read.calls", self.read_ns.len() as f64);
        m.insert("agent.read.p50_us", quantile_us(0.5));
        m.insert("agent.read.p99_us", quantile_us(0.99));
        m.insert(
            "server.events_per_s",
            ratio(self.events as f64, self.wall_ns as f64 / 1e9),
        );
        m.insert("server.quiesce_ns", self.quiesce_ns as f64);
        m.insert(
            "server.hit_ratio",
            ratio(
                self.hit_bytes as f64,
                (self.hit_bytes + self.miss_bytes) as f64,
            ),
        );
        m.insert(
            "server.locks_per_event",
            ratio(self.locks as f64, self.events as f64),
        );
        m
    }
}

/// Replays each cell's recorded calls (`calls[i]` for `cells[i]`)
/// through a fresh server.
pub fn pass(cells: &[Cell], calls: &[Vec<Call>], checks: &mut Checks) -> RealPass {
    let mut p = RealPass::default();
    for (cell, calls) in cells.iter().zip(calls) {
        replay(cell, calls, &mut p, checks);
    }
    p
}

/// The cell's hierarchy with every capacity divided by [`SCALE`].
fn scaled(hierarchy: &Hierarchy) -> Hierarchy {
    let tiers = hierarchy
        .iter()
        .map(|(_, spec)| TierSpec {
            capacity: spec.capacity / SCALE,
            ..spec.clone()
        })
        .collect();
    Hierarchy::new(tiers).expect("a scaled hierarchy stays valid")
}

fn replay(cell: &Cell, calls: &[Call], p: &mut RealPass, checks: &mut Checks) {
    let rec = obs::Recorder::enabled();
    let hierarchy = scaled(&cell.hierarchy);
    let cfg = HFetchConfig {
        segment_size: cell.cfg.segment_size / SCALE,
        obs: rec.clone(),
        ..cell.cfg.clone()
    };
    let mut backends: Vec<Arc<dyn StorageBackend>> = hierarchy
        .iter_cache()
        .map(|_| Arc::new(MemoryBackend::new()) as _)
        .collect();
    backends.push(Arc::new(PatternBackend));
    let server = HFetchServer::start(cfg, hierarchy, backends, 1);
    let shim = server.shim();
    let paths: HashMap<FileId, PathBuf> = cell
        .files
        .iter()
        .map(|f| {
            let path = PathBuf::from(format!("/data/{}", f.id.0));
            shim.registry()
                .register_with_size(&path, f.size.div_ceil(SCALE));
            (f.id, path)
        })
        .collect();

    let mut agents: HashMap<ProcessId, HFetchAgent> = HashMap::new();
    let mut readers: HashMap<(ProcessId, FileId), FileHandle> = HashMap::new();
    let mut writers: HashMap<(ProcessId, FileId), FileHandle> = HashMap::new();
    let mut expected = Vec::new();
    let start = Instant::now();
    for call in calls {
        match *call {
            Call::Open(file, _, By { process, app, .. }) => {
                let agent = agents.entry(process).or_insert_with(|| {
                    HFetchAgent::new(Arc::clone(server.inner()), Arc::clone(shim), process, app)
                });
                readers.insert((process, file), agent.open(&paths[&file]));
            }
            Call::Read(file, range, By { process, .. }) => {
                let (Some(agent), Some(handle)) =
                    (agents.get(&process), readers.get(&(process, file)))
                else {
                    checks.check(
                        "agent read",
                        Err(format!("{process:?} reads {file:?} unopened")),
                    );
                    continue;
                };
                let range = scale_range(range);
                let t = Instant::now();
                let read = agent.read(handle, range);
                p.read_ns.push(t.elapsed().as_nanos() as u64);
                let real = handle.file();
                checks.check(
                    "agent read returns the file's bytes",
                    read.map_err(|e| e.to_string()).and_then(|bytes| {
                        expected.resize(range.len as usize, 0);
                        fill(real, range.offset, &mut expected);
                        if bytes[..] == expected[..] {
                            Ok(())
                        } else {
                            Err(format!("{real:?} {range:?}: wrong bytes"))
                        }
                    }),
                );
            }
            Call::Write(file, range, By { process, app, .. }) => {
                let handle = writers
                    .entry((process, file))
                    .or_insert_with(|| shim.fopen(&paths[&file], OpenMode::Write, process, app).0);
                let range = scale_range(range);
                let data = pattern(handle.file(), range);
                checks.check(
                    "shim write",
                    shim.fwrite_at(handle, range.offset, &data)
                        .map_err(|e| e.to_string()),
                );
            }
            Call::Close(file, By { process, .. }) => {
                if let (Some(agent), Some(handle)) =
                    (agents.get(&process), readers.remove(&(process, file)))
                {
                    agent.close(&handle);
                }
            }
            Call::Tick(_) => continue,
        }
        p.events += 1;
    }
    let quiesce = Instant::now();
    server.quiesce();
    p.quiesce_ns += quiesce.elapsed().as_nanos() as u64;
    p.wall_ns += start.elapsed().as_nanos() as u64;

    let stats = server.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
    p.hit_bytes += load(&stats.hit_bytes);
    p.miss_bytes += load(&stats.miss_bytes);
    let failed = load(&stats.failed_fetches);
    checks.check(
        "server fetches",
        if failed == 0 {
            Ok(())
        } else {
            Err(format!("{failed} fetches failed"))
        },
    );
    for (name, counter) in [
        ("server.engine_runs", &stats.engine_runs),
        ("server.prefetched_bytes", &stats.prefetched_bytes),
        ("server.denied_fetches", &stats.denied_fetches),
        ("server.failed_fetches", &stats.failed_fetches),
        ("server.retried_copies", &stats.retried_copies),
    ] {
        *p.counts.entry(name).or_default() += load(counter);
    }
    p.locks += server.inner().auditor().ingest_lock_stats().total();
    for handle in writers.values() {
        shim.fclose(handle);
    }
    // Shutting down exports the queue counters into the recorder.
    server.shutdown();
    let report = rec.report();
    for (name, key) in [
        ("queue.pushed", "events.queue.pushed"),
        ("queue.popped", "events.queue.popped"),
        ("queue.dropped", "events.queue.dropped"),
    ] {
        *p.counts.entry(name).or_default() += report.counter(key).unwrap_or(0);
    }
}
