//! Chaos scenario binary: runs the fault-injected evaluation grid and
//! prints the deterministic report (see `bench_support::chaos`).
//!
//! ```text
//! chaos [--seed N] [--out FILE]
//! ```
//!
//! Exits non-zero if the faulted cells failed to show graceful degradation
//! (no retries / reroutes / abandons observed). The report is
//! byte-identical for equal seeds at any `HFETCH_BENCH_THREADS` (pinned by
//! the `chaos` module's tests).

const USAGE: &str = "usage: chaos [--seed N] [--out FILE]";

fn usage_error(msg: &str) -> ! {
    eprintln!("chaos: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut seed = 42u64;
    let mut out: Option<std::path::PathBuf> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage_error("--seed takes an integer"));
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage_error(&format!("invalid seed `{v}`")));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| usage_error("--out takes a path")).into());
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let outcome = bench_support::chaos::run(seed, bench_support::runner::threads_from_env());
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &outcome.text) {
            eprintln!("chaos: cannot write report to {}: {e}", path.display());
            std::process::exit(2);
        }
    }
    print!("{}", outcome.text);
    if !outcome.ok {
        eprintln!("chaos: degraded-mode counters missing (see report above)");
        std::process::exit(1);
    }
}
