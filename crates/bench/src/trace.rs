//! Decision-trace harness: runs the labeled (HFetch) cells of a figure's
//! grid — the same cells its table reports (see [`crate::figures`]) — with
//! an enabled [`obs::Recorder`] per cell and renders the result three ways:
//!
//! * a **JSONL decision trace** — every placement decision, epoch bracket
//!   and cell marker, in simulation order (`obs::TraceEvent` lines),
//! * a merged **ObsReport** — counters/gauges/histograms across all cells,
//!   as deterministic JSON (sorted keys, simulated time only),
//! * a **timeline** — per-epoch per-tier occupancy, reconstructed by
//!   replaying the placement events.
//!
//! All three are byte-identical across repeated runs and for any
//! `HFETCH_BENCH_THREADS`: every cell owns its recorder, cells are
//! deterministic single-threaded simulations, and merging happens in
//! submission order. The golden-trace suite
//! (`crates/bench/tests/golden_trace.rs`) pins the smoke-scale artifacts;
//! `--bin trace` exposes the same pipeline from the command line.

use std::collections::BTreeMap;

use crate::scale::BenchScale;

/// The registered figures that carry traced cells, in registry order.
/// Which cells are labeled does not depend on scale, so the smoke-scale
/// grids answer for every scale.
pub fn figures() -> Vec<&'static str> {
    crate::figures::FIGURES
        .iter()
        .filter(|f| !f.traced_cells(BenchScale::Smoke).is_empty())
        .map(|f| f.name)
        .collect()
}

/// The rendered artifacts of one traced figure run.
pub struct TraceOutcome {
    /// Concatenated per-cell JSONL decision traces (cell-marker lines
    /// first within each cell).
    pub jsonl: String,
    /// Merged [`obs::ObsReport`] across all cells, as deterministic JSON.
    pub report: String,
    /// Per-epoch per-tier occupancy timeline (text), one block per cell.
    pub timeline: String,
    /// True when at least one placement decision was traced — a run
    /// without any means the instrumentation is disconnected.
    pub ok: bool,
    /// Per-cell `(label, events)` in submission order — the raw material
    /// for alternate renderings (e.g. [`crate::perfetto`]).
    pub cells: Vec<(String, Vec<obs::TraceEvent>)>,
}

/// Runs the labeled (HFetch) cells of `figure` at `scale` across
/// `threads` workers, one enabled recorder per cell, and renders the trace
/// artifacts. Returns `None` for a figure that is unknown or has no traced
/// cells (see [`figures`]).
pub fn run(figure: &str, scale: BenchScale, threads: usize) -> Option<TraceOutcome> {
    let cells = crate::figures::figure(figure)?.traced_cells(scale);
    if cells.is_empty() {
        return None;
    }
    let mut labels = Vec::with_capacity(cells.len());
    let mut recorders = Vec::with_capacity(cells.len());
    let mut jobs = Vec::with_capacity(cells.len());
    for (label, cell) in cells {
        let rec = obs::Recorder::enabled();
        rec.trace_event(obs::TraceEvent::Marker(label.clone()));
        labels.push(label);
        recorders.push(rec.clone());
        jobs.push(crate::runner::job(move || cell.run(rec)));
    }
    let _reports = crate::runner::run_jobs(jobs, threads);

    // Merge in submission order: per-cell recorders make the artifacts
    // independent of which worker ran which cell.
    let mut merged = obs::ObsReport::default();
    let mut jsonl = String::new();
    let mut timeline = String::new();
    let mut out_cells = Vec::with_capacity(labels.len());
    for (rec, label) in recorders.iter().zip(&labels) {
        merged.merge(&rec.report());
        jsonl.push_str(&rec.trace_jsonl());
        let events = rec.trace_events();
        timeline.push_str(&render_timeline(label, &events));
        out_cells.push((label.clone(), events));
    }
    let ok = merged.counter("placement.events").unwrap_or(0) > 0;
    Some(TraceOutcome { jsonl, report: merged.to_json(), timeline, ok, cells: out_cells })
}

/// Replays one cell's placement events into a per-tier occupancy ledger
/// and emits a row at every epoch boundary plus a closing summary. Tier
/// columns are the tiers that appear anywhere in the cell's events, so
/// every row of a block has the same shape.
fn render_timeline(label: &str, events: &[obs::TraceEvent]) -> String {
    let mut out = format!("== {label} ==\n");
    // Pre-register every tier that ever appears.
    let mut occupancy: BTreeMap<u16, u64> = BTreeMap::new();
    for ev in events {
        if let obs::TraceEvent::Placement(p) = ev {
            for tier in [p.from_tier, p.to_tier].into_iter().flatten() {
                occupancy.entry(tier).or_insert(0);
            }
        }
    }
    let fmt_row = |occ: &BTreeMap<u16, u64>| {
        let cols: Vec<String> = occ.iter().map(|(t, b)| format!("t{t}={b}")).collect();
        if cols.is_empty() { "-".to_string() } else { cols.join(" ") }
    };
    // Residency per segment, keyed by the event stream itself (the stream
    // is closed: every model mutation in the placement engine is traced).
    let mut resident: BTreeMap<(u64, u64), (u16, u64)> = BTreeMap::new();
    let mut causes: BTreeMap<&'static str, u64> = BTreeMap::new();
    for ev in events {
        match ev {
            // Spans carry causality, not residency; the Perfetto exporter
            // (`crate::perfetto`) renders them — the occupancy timeline
            // stays a pure placement replay.
            obs::TraceEvent::Marker(_)
            | obs::TraceEvent::SpanStart { .. }
            | obs::TraceEvent::SpanEnd { .. } => {}
            obs::TraceEvent::EpochStart { at, file } => {
                out.push_str(&format!(
                    "at={at} epoch_start file={file} | {}\n",
                    fmt_row(&occupancy)
                ));
            }
            obs::TraceEvent::EpochEnd { at, file } => {
                out.push_str(&format!(
                    "at={at} epoch_end file={file} | {}\n",
                    fmt_row(&occupancy)
                ));
            }
            obs::TraceEvent::Placement(p) => {
                *causes.entry(p.cause.as_str()).or_insert(0) += 1;
                let key = (p.file, p.segment);
                if let Some((tier, size)) = resident.remove(&key) {
                    if let Some(used) = occupancy.get_mut(&tier) {
                        *used = used.saturating_sub(size);
                    }
                }
                if let Some(to) = p.to_tier {
                    resident.insert(key, (to, p.size));
                    *occupancy.entry(to).or_insert(0) += p.size;
                }
            }
        }
    }
    out.push_str(&format!("end | {}", fmt_row(&occupancy)));
    for (cause, n) in &causes {
        out.push_str(&format!(" {cause}={n}"));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_figure_is_none() {
        assert!(run("fig9", BenchScale::Smoke, 1).is_none());
        assert!(run("fig4a", BenchScale::Smoke, 1).is_none());
    }

    #[test]
    fn traced_figures_are_the_golden_set() {
        assert_eq!(figures(), ["fig3b", "fig5", "fig6a", "fig6b"]);
    }

    #[test]
    fn timeline_replays_occupancy() {
        let rec = obs::Recorder::enabled();
        rec.trace_event(obs::TraceEvent::EpochStart { at: 0, file: 0 });
        rec.placement(obs::PlacementEvent {
            at: 1,
            file: 0,
            segment: 0,
            from_tier: None,
            to_tier: Some(1),
            score: 1.0,
            size: 100,
            cause: obs::Cause::Fetch,
        });
        rec.placement(obs::PlacementEvent {
            at: 2,
            file: 0,
            segment: 0,
            from_tier: Some(1),
            to_tier: Some(0),
            score: 2.0,
            size: 100,
            cause: obs::Cause::Promote,
        });
        rec.trace_event(obs::TraceEvent::EpochEnd { at: 3, file: 0 });
        let text = render_timeline("cell", &rec.trace_events());
        assert!(text.starts_with("== cell ==\n"), "{text}");
        assert!(text.contains("at=0 epoch_start file=0 | t0=0 t1=0"), "{text}");
        assert!(text.contains("at=3 epoch_end file=0 | t0=100 t1=0"), "{text}");
        assert!(text.contains("end | t0=100 t1=0 fetch=1 promote=1"), "{text}");
    }
}
