//! The sharded hashmap behind the auditor's segment statistics (the
//! paper's HCL container, re-implemented in-process).
//!
//! HFetch keeps *segment statistics* in "a distributed hashmap we have
//! developed \[HCL\]" providing "uniform and fast O(1) insertion and
//! querying capability, support for concurrent access … and low latency"
//! (§III-A.2). The one thing HFetch persists, the file heatmap, has its own
//! format in `hfetch-core`.
//!
//! * [`DistributedMap`] — a concurrent hashmap of 32 shards, each under its
//!   own lock. Single-key operations are atomic (they run under the owning
//!   shard's lock), which is exactly the property the auditor relies on
//!   when several processes update one segment's score concurrently.
//! * [`hash`] — the FxHash function (implemented in-tree; see DESIGN.md §6)
//!   used for shard routing and as a fast drop-in `HashMap` hasher across
//!   the workspace.
//! * [`stats`] — operation counters (inserts, hits, shard-lock
//!   acquisitions, live entries), exported under `dht.map.*`.

#![warn(missing_docs)]

pub mod hash;
pub mod map;
pub mod stats;

pub use hash::{FxHashMap, FxHashSet, FxHasher};
pub use map::DistributedMap;
pub use stats::MapStats;
