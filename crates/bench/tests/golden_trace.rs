//! Golden-trace regression suite: pins the smoke-scale decision traces,
//! merged ObsReports and occupancy timelines of the figure scenarios, and
//! the table of every simulated figure, byte for byte.
//!
//! Algorithm 1 and the simulator's fetch path are deterministic, so any
//! diff here is a behavior change — either a regression, or an intended
//! change that must be re-blessed:
//!
//! ```text
//! HFETCH_BLESS=1 cargo test -p hfetch-bench --test golden_trace
//! ```
//!
//! then review the `crates/bench/tests/golden/` diff like any other code
//! change before committing it. Every figure is checked at 1 and at 4
//! worker threads: the traces are thread-count invariant (per-cell
//! recorders, submission-order merge). A diverged ObsReport also prints
//! the `obsdiff` verdict, naming the counters, gauges and histograms that
//! moved.
//!
//! The traced cells are the HFetch cells of the figure tables themselves
//! (one grid per figure), and tracing must not perturb them: the last test
//! runs each traced cell with obs off and on and compares the reports, so
//! the goldens (recorded with obs on) pin the tables (run with obs off).
//! The table goldens (`<fig>.table.txt`) also pin the baseline cells,
//! which carry no trace.

use std::fs;
use std::path::{Path, PathBuf};

use bench_support::obsdiff::{self, DiffOptions};
use bench_support::{figures, json, trace, BenchScale};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

/// Compares `got` against the golden file. A divergence is described by
/// its first differing line instead of both multi-kilobyte strings, plus
/// the `obsdiff` verdict for an ObsReport.
fn golden_divergence(name: &str, got: &str) -> Option<String> {
    let path = golden_dir().join(name);
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); bless it with \
             HFETCH_BLESS=1 cargo test -p hfetch-bench --test golden_trace",
            path.display()
        )
    });
    if got == want {
        return None;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .map(|i| i + 1)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()) + 1);
    let show = |s: &str| s.lines().nth(line - 1).unwrap_or("<eof>").to_string();
    let verdict = if name.ends_with(".obs.json") { obs_verdict(&want, got) } else { String::new() };
    Some(format!(
        "{name} diverged from golden at line {line}\n  got:  {}\n  want: {}\n\
         ({} vs {} bytes total)\n{verdict}",
        show(got),
        show(&want),
        got.len(),
        want.len()
    ))
}

/// The `obsdiff` verdict of a diverged ObsReport against its golden.
fn obs_verdict(want: &str, got: &str) -> String {
    let parsed = json::parse(want).and_then(|w| Ok((w, json::parse(got)?)));
    match parsed.and_then(|(w, g)| obsdiff::diff(&w, &g, DiffOptions::default())) {
        Ok(diff) => obsdiff::render_report(&diff),
        Err(e) => format!("obs-diff: cannot compare: {e}\n"),
    }
}

/// Checks `figure`'s artifacts at 1 and at 4 worker threads. Blessing
/// writes the 1-thread artifacts, then checks the 4-thread run against
/// them.
fn check(figure: &str) {
    let bless = std::env::var("HFETCH_BLESS").as_deref() == Ok("1");
    for threads in [1, 4] {
        let outcome = trace::run(figure, BenchScale::Smoke, threads).expect("traced figure");
        assert!(outcome.ok, "{figure}: no placement decisions traced");
        let artifacts = [
            (format!("{figure}.trace.jsonl"), &outcome.jsonl),
            (format!("{figure}.obs.json"), &outcome.report),
            (format!("{figure}.timeline.txt"), &outcome.timeline),
        ];
        if bless && threads == 1 {
            fs::create_dir_all(golden_dir()).expect("create golden dir");
            for (name, content) in &artifacts {
                fs::write(golden_dir().join(name), content).expect("write golden");
            }
            continue;
        }
        let divergences: Vec<String> =
            artifacts.iter().filter_map(|(name, got)| golden_divergence(name, got)).collect();
        assert!(
            divergences.is_empty(),
            "{figure} at {threads} threads:\n{}if intended, re-bless with HFETCH_BLESS=1",
            divergences.concat()
        );
    }
}

#[test]
fn fig3b_trace_matches_golden() {
    check("fig3b");
}

#[test]
fn fig5_trace_matches_golden() {
    check("fig5");
}

#[test]
fn fig6a_trace_matches_golden() {
    check("fig6a");
}

#[test]
fn fig6b_trace_matches_golden() {
    check("fig6b");
}

#[test]
fn simulated_tables_match_golden() {
    let bless = std::env::var("HFETCH_BLESS").as_deref() == Ok("1");
    // Fig. 3a measures wall-clock event rates: not reproducible.
    let divergences: Vec<String> = figures::FIGURES
        .iter()
        .filter(|fig| fig.name != "fig3a")
        .filter_map(|fig| {
            let name = format!("{}.table.txt", fig.name);
            let got = fig.table(BenchScale::Smoke, 1).render();
            if bless {
                fs::create_dir_all(golden_dir()).expect("create golden dir");
                fs::write(golden_dir().join(&name), &got).expect("write golden");
                return None;
            }
            golden_divergence(&name, &got)
        })
        .collect();
    assert!(
        divergences.is_empty(),
        "{}if intended, re-bless with HFETCH_BLESS=1",
        divergences.concat()
    );
}

#[test]
fn traced_cells_report_the_same_with_obs_off_and_on() {
    for name in trace::figures() {
        let fig = figures::figure(name).expect("registered figure");
        let off = fig.traced_cells(BenchScale::Smoke);
        let on = fig.traced_cells(BenchScale::Smoke);
        for ((label, off), (_, on)) in off.into_iter().zip(on) {
            assert_eq!(
                format!("{:?}", off.run(obs::Recorder::disabled())),
                format!("{:?}", on.run(obs::Recorder::enabled())),
                "{label}: enabling the recorder changed the cell's report"
            );
        }
    }
}
