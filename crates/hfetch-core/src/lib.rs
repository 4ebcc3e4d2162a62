//! HFetch core: the hierarchical, data-centric, server-push prefetcher.
//!
//! This crate implements the paper's contribution on top of the substrates
//! (`tiers`, `events`, `dht`, `sim`):
//!
//! * [`scoring`] — Eq. 1 segment scoring: decaying frequency/recency with
//!   reference-count-scaled half-life; exact and O(1) incremental forms.
//! * [`auditor`] — the File Segment Auditor (§III-A.2): decomposes the
//!   enriched event feed into per-segment statistics (frequency, recency,
//!   sequencing) held in the distributed hashmap, tracks prefetching epochs
//!   (fopen→fclose), and pushes score updates to the placement engine.
//! * [`heatmap`] — file heatmaps: per-file score vectors, persisted on
//!   epoch close and evolved on re-open (§III-C).
//! * [`engine`] — the Hierarchical Data Placement Engine (Algorithm 1):
//!   maps the score spectrum onto the tier stack with per-tier watermarks,
//!   capacity-aware demotion cascades, and an exclusive placement model.
//! * [`update_queue`] — the coalescing score-update vector the auditor
//!   pushes into and the engine drains: latest score per segment, in
//!   first-touch order.
//! * `executor` (crate-private) — the placement loop both deployments
//!   share: the engine pass (drain, fetch-on-second-touch filter, causal
//!   ingest/drain spans) and the action executor (bounded I/O-client
//!   slots, capacity-denial retries, model reconciliation), generic over
//!   the transport that moves the bytes.
//! * [`policy`] — the simulator adapter: wires auditor + engine + executor
//!   into [`sim::PrefetchPolicy`] so HFetch runs inside the evaluation
//!   harness against the baselines; the simulator is the transport.
//! * [`server`] — the real-thread deployment: event queue + hardware
//!   monitor daemons + engine trigger thread + the same executor, whose
//!   transport is a pool of I/O clients moving actual bytes between tier
//!   backends.
//! * [`agent`] — the client-side agent: applications read through it; hits
//!   are served from whichever tier holds the segment, misses fall through
//!   to the backing store via the instrumented shim.
//!
//! The decision components are clock-agnostic (explicit [`tiers::Timestamp`]
//! parameters) so the *same* auditor/engine code runs under the simulator
//! and under real threads.

#![warn(missing_docs)]

pub mod agent;
pub mod auditor;
pub mod config;
pub mod engine;
mod executor;
pub mod heatmap;
pub mod policy;
pub mod scoring;
pub mod server;
pub mod update_queue;

pub use agent::HFetchAgent;
pub use auditor::{Auditor, IngestLockStats, ScoreUpdate};
pub use update_queue::UpdateQueue;
pub use config::{HFetchConfig, Reactiveness};
pub use engine::{PlacementAction, PlacementEngine};
pub use heatmap::{FileHeatmap, HeatmapStore};
pub use policy::HFetchPolicy;
pub use scoring::{ExactScorer, ScoreParams, ScoreState};
pub use server::HFetchServer;
