//! Baseline prefetchers HFetch is evaluated against (§IV).
//!
//! Every baseline implements [`sim::PrefetchPolicy`], so the figure
//! harnesses can swap them freely against [`hfetch_core::HFetchPolicy`]:
//!
//! * [`window::WindowPrefetcher`] — client-pull readahead; with **one**
//!   outstanding fetch it is the serial prefetcher ("the serial prefetcher
//!   can only bring one data piece at a time", Fig. 4a), with `k` the
//!   parallel one (the paper's parallel prefetcher, 4 threads).
//! * [`inmem::InMemoryOptimal`] — per-process partitioned RAM cache: each
//!   process prefetches its own stream into its own slice, no cross-process
//!   eviction (Fig. 4b's "in-memory optimal").
//! * [`inmem::InMemoryNaive`] — all processes compete for one shared RAM
//!   cache with global LRU eviction; prefetch traffic and demand reads
//!   fight for the PFS (Fig. 4b's "in-memory naive").
//! * [`app_centric::AppCentricPrefetcher`] — a per-application
//!   stride-detecting client-pull prefetcher sharing one cache: the
//!   application-centric comparator of Fig. 5.
//! * [`stacker::StackerLike`] — an online, learn-as-you-go data movement
//!   engine modeled on Stacker \[26\]: first-order Markov prediction over
//!   segment transitions, warm-up required, no offline cost.
//! * [`knowac::KnowAcLike`] — a history-based prefetcher modeled on
//!   KnowAc \[22\]: replays a recorded access trace perfectly, but a
//!   profiling run must be paid for up front (the "Profile-Cost" stack in
//!   Fig. 6).
//!
//! All of these are *client-pull, application-centric* designs: they react
//! to their own application's accesses with no global view — precisely the
//! contrast the paper draws with HFetch's data-centric server-push model.
//!
//! So all but [`inmem::InMemoryOptimal`] (whose per-process quotas are the
//! point of its experiment) share one cache, [`lru::BlockCache`]: the RAM
//! tier, a deduplicating request queue, LRU eviction and a bounded
//! in-flight window, drained by one pump. A baseline is its predictor —
//! readahead, a stride detector, a Markov model, a recorded trace — plus
//! two rules it hands the pump: which queued requests are stale, and which
//! cached blocks may be evicted.

#![warn(missing_docs)]

pub mod app_centric;
pub mod inmem;
pub mod knowac;
pub mod lru;
pub mod stacker;
pub mod window;

pub use app_centric::AppCentricPrefetcher;
pub use inmem::{InMemoryNaive, InMemoryOptimal};
pub use knowac::KnowAcLike;
pub use lru::LruTracker;
pub use stacker::StackerLike;
pub use window::WindowPrefetcher;
