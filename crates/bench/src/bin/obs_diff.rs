//! ObsReport regression gate: compares two ObsReport JSON files under the
//! tolerance rules of DESIGN.md §5.11 (counters/gauges/trace_events exact,
//! histograms within a relative tolerance).
//!
//! ```text
//! obs_diff <baseline.obs.json> <candidate.obs.json> [--hist-tol FRACTION]
//! ```
//!
//! Exit codes: `0` match, `1` differences found (each printed as a
//! `DIFF ...` line), `2` usage / IO / parse errors. The golden-trace suite
//! prints the same verdict when a fresh report diverges from its baseline
//! in `crates/bench/tests/golden/`; this binary compares any two reports.

use bench_support::obsdiff::{self, DiffOptions};

const USAGE: &str = "usage: obs_diff <baseline.obs.json> <candidate.obs.json> [--hist-tol FRACTION]";

fn usage_error(msg: &str) -> ! {
    eprintln!("obs_diff: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn load(path: &str, side: &str) -> bench_support::json::Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs_diff: cannot read {side} `{path}`: {e}");
        std::process::exit(2);
    });
    bench_support::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("obs_diff: {side} `{path}` is not valid JSON: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let mut paths: Vec<String> = Vec::new();
    let mut opts = DiffOptions::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--hist-tol" => {
                let raw = args.next().unwrap_or_else(|| usage_error("--hist-tol takes a fraction"));
                match raw.parse::<f64>() {
                    Ok(t) if (0.0..=1.0).contains(&t) => opts.hist_tol = t,
                    _ => usage_error(&format!("--hist-tol must be a fraction in [0, 1], got `{raw}`")),
                }
            }
            other if !other.starts_with('-') && paths.len() < 2 => paths.push(other.to_string()),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let [baseline_path, candidate_path] = &paths[..] else {
        usage_error("expected exactly two report paths")
    };
    let baseline = load(baseline_path, "baseline");
    let candidate = load(candidate_path, "candidate");
    let diff = obsdiff::diff(&baseline, &candidate, opts).unwrap_or_else(|e| {
        eprintln!("obs_diff: {e}");
        std::process::exit(2);
    });
    print!("{}", obsdiff::render_report(&diff));
    if !diff.is_match() {
        std::process::exit(1);
    }
}
