//! Decision-trace binary: re-runs a figure's HFetch cells with the
//! observability layer enabled and renders the result (see
//! `bench_support::trace`).
//!
//! ```text
//! trace <fig3b|fig5|fig6a|fig6b> [--out PREFIX] [--format timeline|perfetto]
//! ```
//!
//! The default format prints the per-epoch per-tier occupancy timeline to
//! stdout; `--format perfetto` prints the Chrome trace-event JSON instead
//! (loadable in `ui.perfetto.dev`). With `--out PREFIX` the binary always
//! writes `PREFIX.trace.jsonl` (the JSONL decision trace),
//! `PREFIX.obs.json` (the merged ObsReport) and `PREFIX.timeline.txt`;
//! with `--format perfetto` it additionally writes `PREFIX.perfetto.json`.
//! All outputs are byte-identical across repeated runs and for any
//! `HFETCH_BENCH_THREADS` (the golden-trace and obs-gate suites pin that).
//! Scale comes from `HFETCH_BENCH_SCALE` as usual. A figure without traced
//! cells, a usage error or an unwritable output exits with code 2.

const USAGE: &str =
    "usage: trace <fig3b|fig5|fig6a|fig6b> [--out PREFIX] [--format timeline|perfetto]";

fn usage_error(msg: &str) -> ! {
    eprintln!("trace: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut figure: Option<String> = None;
    let mut out: Option<String> = None;
    let mut perfetto = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| usage_error("--out takes a prefix")));
            }
            "--format" => {
                let fmt = args.next().unwrap_or_else(|| usage_error("--format takes a name"));
                match fmt.as_str() {
                    "timeline" => perfetto = false,
                    "perfetto" => perfetto = true,
                    other => usage_error(&format!(
                        "unknown format `{other}` (expected timeline or perfetto)"
                    )),
                }
            }
            other if figure.is_none() && !other.starts_with('-') => {
                figure = Some(other.to_string());
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let Some(figure) = figure else { usage_error("missing figure name") };
    let scale = bench_support::BenchScale::from_env();
    let threads = bench_support::runner::threads_from_env();
    let Some(outcome) = bench_support::trace::run(&figure, scale, threads) else {
        usage_error(&format!(
            "unknown figure `{figure}` (expected one of {:?})",
            bench_support::trace::figures()
        ))
    };
    let perfetto_doc = perfetto.then(|| bench_support::perfetto::render(&outcome.cells));
    if let Some(prefix) = &out {
        let mut artifacts: Vec<(&str, &String)> = vec![
            ("trace.jsonl", &outcome.jsonl),
            ("obs.json", &outcome.report),
            ("timeline.txt", &outcome.timeline),
        ];
        if let Some(doc) = &perfetto_doc {
            artifacts.push(("perfetto.json", doc));
        }
        for (suffix, content) in artifacts {
            let path = format!("{prefix}.{suffix}");
            if let Err(e) = std::fs::write(&path, content) {
                eprintln!("trace: cannot write {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    match &perfetto_doc {
        Some(doc) => print!("{doc}"),
        None => print!("{}", outcome.timeline),
    }
    if !outcome.ok {
        eprintln!("trace: no placement decisions were traced (instrumentation disconnected?)");
        std::process::exit(1);
    }
}
