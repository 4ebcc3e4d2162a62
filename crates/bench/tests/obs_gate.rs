//! Fig. 5 smoke-scale observability acceptance checks.
//!
//! Pins the tentpole contracts end-to-end on a real traced figure run:
//!
//! * every causal span in the stream is closed, parented on a span that
//!   started earlier, and agrees with its parent about the lifecycle root
//!   (no orphan spans),
//! * every application read carries an `app_read` span and exactly one
//!   effectiveness class — the class counters sum to the span count,
//! * the Perfetto rendering is schema-valid and byte-identical across
//!   worker-thread counts,
//! * the obs-diff gate passes a report against itself and fails when a
//!   classification counter is perturbed,
//! * the ObsReport is diff-stable: keys sorted within every section, and
//!   no key that names a wall-clock quantity.

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use bench_support::json::{self, Json};
use bench_support::obsdiff::{self, DiffOptions};
use bench_support::{perfetto, trace, BenchScale};

fn fig5() -> &'static trace::TraceOutcome {
    static OUTCOME: OnceLock<trace::TraceOutcome> = OnceLock::new();
    OUTCOME.get_or_init(|| {
        trace::run("fig5", BenchScale::Smoke, 1).expect("fig5 is a known figure")
    })
}

#[test]
fn fig5_span_stream_is_closed_and_covers_every_read() {
    let outcome = fig5();
    assert!(outcome.ok, "no placement decisions traced");
    let mut app_reads = 0u64;
    let mut stages: HashSet<&'static str> = HashSet::new();
    for (label, events) in &outcome.cells {
        let mut started: HashMap<u64, (u64, u64, &'static str)> = HashMap::new();
        let mut ended: HashSet<u64> = HashSet::new();
        for ev in events {
            match ev {
                obs::TraceEvent::SpanStart { id, parent, root, name, .. } => {
                    assert!(
                        started.insert(*id, (*parent, *root, name)).is_none(),
                        "{label}: span id {id} started twice"
                    );
                    stages.insert(name);
                    if *parent == 0 {
                        assert_eq!(root, id, "{label}: root span {id} not self-rooted");
                    } else {
                        let (_, proot, _) = started
                            .get(parent)
                            .unwrap_or_else(|| panic!("{label}: span {id} has unstarted parent {parent}"));
                        assert_eq!(
                            root, proot,
                            "{label}: span {id} disagrees with parent {parent} about its root"
                        );
                    }
                    if *name == "app_read" {
                        app_reads += 1;
                    }
                }
                obs::TraceEvent::SpanEnd { id, .. } => {
                    assert!(started.contains_key(id), "{label}: span {id} ended before start");
                    assert!(ended.insert(*id), "{label}: span {id} ended twice");
                }
                _ => {}
            }
        }
        for id in started.keys() {
            assert!(ended.contains(id), "{label}: span {id} never closed (orphan)");
        }
    }
    for stage in ["ingest", "drain", "decision", "transfer", "landing", "app_read"] {
        assert!(stages.contains(stage), "stage `{stage}` absent from the fig5 stream");
    }
    // Effectiveness classification is total and exclusive: the unlabeled
    // class counters partition exactly the traced application reads.
    let report = json::parse(&outcome.report).expect("ObsReport is valid JSON");
    let counters = report.get("counters").and_then(Json::as_obj).expect("counters section");
    let class_sum: u64 = ["miss", "late_hit", "demoted_hit", "timely_hit"]
        .iter()
        .map(|class| {
            counters
                .get(&format!("effect.reads.{class}"))
                .and_then(Json::as_num)
                .unwrap_or(0.0) as u64
        })
        .sum();
    assert!(app_reads > 0, "fig5 traced no application reads");
    assert_eq!(
        class_sum, app_reads,
        "effectiveness classes must partition the application reads"
    );
}

#[test]
fn fig5_perfetto_is_schema_valid_and_thread_invariant() {
    let base = perfetto::render(&fig5().cells);
    let other = trace::run("fig5", BenchScale::Smoke, 4).expect("fig5 is a known figure");
    assert_eq!(
        base,
        perfetto::render(&other.cells),
        "perfetto rendering must be byte-identical across thread counts"
    );
    let doc = json::parse(&base).expect("perfetto output is valid JSON");
    let events = doc.get("traceEvents").and_then(Json::as_arr).expect("traceEvents array");
    assert!(!events.is_empty());
    let mut open: HashMap<(String, String), u64> = HashMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).expect("every event has ph");
        assert!(ev.get("pid").and_then(Json::as_num).is_some(), "every event has pid");
        assert!(ev.get("name").and_then(Json::as_str).is_some(), "every event has name");
        match ph {
            "M" => {}
            "i" => {
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
            }
            "b" | "e" => {
                assert!(ev.get("ts").and_then(Json::as_num).is_some());
                let key = (
                    ev.get("cat").and_then(Json::as_str).expect("async has cat").to_string(),
                    ev.get("id").and_then(Json::as_str).expect("async has id").to_string(),
                );
                let n = open.entry(key.clone()).or_insert(0);
                if ph == "b" {
                    *n += 1;
                } else {
                    assert!(*n > 0, "async end without open begin: {key:?}");
                    *n -= 1;
                }
            }
            other => panic!("unexpected phase `{other}`"),
        }
    }
    assert!(open.values().all(|&n| n == 0), "unbalanced async events");
}

#[test]
fn obs_diff_gate_passes_identical_and_fails_perturbed_classification() {
    let report = json::parse(&fig5().report).unwrap();
    let same = obsdiff::diff(&report, &report, DiffOptions::default()).unwrap();
    assert!(same.is_match(), "self-diff must pass: {:?}", same.failures);

    let mut perturbed = report.clone();
    let Json::Obj(doc) = &mut perturbed else { panic!("report is an object") };
    let Some(Json::Obj(counters)) = doc.get_mut("counters") else { panic!("counters object") };
    let key = counters
        .keys()
        .find(|k| k.starts_with("effect.reads."))
        .expect("fig5 report carries effectiveness classifications")
        .clone();
    let Some(Json::Num(n)) = counters.get_mut(&key) else { panic!("counter is numeric") };
    *n += 1.0;
    let diff = obsdiff::diff(&report, &perturbed, DiffOptions::default()).unwrap();
    assert!(!diff.is_match(), "perturbing `{key}` must fail the gate");
    assert!(diff.failures.iter().any(|f| f.contains(&key)), "{:?}", diff.failures);
}

/// The byte span of the object value that follows `"name":` in `text`
/// (braces inside string literals are skipped).
fn object_span(text: &str, name: &str) -> std::ops::Range<usize> {
    let header = format!("\"{name}\":");
    let start = text.find(&header).unwrap_or_else(|| panic!("no `{name}` section")) + header.len();
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    for (i, c) in text[start..].char_indices() {
        match (in_str, c) {
            (true, _) if escaped => escaped = false,
            (true, '\\') => escaped = true,
            (true, '"') => in_str = false,
            (false, '"') => in_str = true,
            (false, '{') => depth += 1,
            (false, '}') => {
                depth -= 1;
                if depth == 0 {
                    return start..start + i + 1;
                }
            }
            _ => {}
        }
    }
    panic!("unterminated `{name}` section")
}

#[test]
fn fig5_obs_report_is_sorted_and_sim_clock_only() {
    let text = &fig5().report;
    let report = json::parse(text).expect("ObsReport is valid JSON");
    for section in ["counters", "gauges", "histograms"] {
        // The parsed object is key-sorted, so the raw text is sorted iff
        // each key appears after its predecessor within the section.
        let keys = report.get(section).and_then(Json::as_obj).expect("section object").keys();
        let span = object_span(text, section);
        let mut at = span.start;
        for key in keys {
            let needle = format!("\"{key}\":");
            let found = text[at..span.end].find(&needle).unwrap_or_else(|| {
                panic!("{section} keys are not sorted at `{key}`: diffs will churn")
            });
            at += found + needle.len();
        }
    }
    // Token-exact match (split on non-letters): substring matching would
    // flag legitimate names like `dht.map.updates` ("up-date-s").
    const FORBIDDEN: [&str; 10] = [
        "wall", "walltime", "unix", "date", "datetime", "utc", "stamp", "timestamp", "now", "clock",
    ];
    fn walk(value: &Json) {
        let Some(obj) = value.as_obj() else { return };
        for (key, child) in obj {
            let lower = key.to_lowercase();
            let bad: Vec<&str> = lower
                .split(|c: char| !c.is_ascii_lowercase())
                .filter(|token| FORBIDDEN.contains(token))
                .collect();
            assert!(bad.is_empty(), "wall-clock-ish field: {key} ({bad:?})");
            walk(child);
        }
    }
    walk(&report);
}
