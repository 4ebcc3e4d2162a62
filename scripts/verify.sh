#!/usr/bin/env bash
# Tier-1 verify plus perf-plumbing smoke, intended to run on every PR.
#
#   scripts/verify.sh
#
# Stages:
#   1. tier-1: cargo build --release && cargo test -q  (ROADMAP.md). The
#      root manifest's default-members cover every workspace member, so
#      this runs the whole test suite, including the golden traces and
#      the ObsReport stability lint (crates/bench/tests/obs_gate.rs).
#   2. clippy: every target of the workspace (libs, bins, tests, benches,
#      examples) must be warning-free.
#   3. rustdoc: the workspace docs build with warnings denied, so a deleted
#      or private item cannot leave a dangling intra-doc link behind.
#   4. perfbench build: the standalone benchmark package (perfbench/, its
#      own workspace) builds --locked --offline against the repository's
#      crates, so a change that breaks its use of the public API, or that
#      would rewrite the committed perfbench/Cargo.lock (say, by changing
#      hfetch-core's dependencies), fails here.
#   5. smoke all_figures: seconds-scale figure regeneration through the
#      parallel scenario runner, into a throwaway results dir so committed
#      bench_results/ artifacts are not clobbered by smoke-scale numbers.
#   6. sim_kernel bench in --test mode: one iteration per measurement,
#      exercising the FxHash/std and obs off/on ablations plus the
#      BENCH_sim_kernel.json emission path.
#
# Determinism of the chaos grid, the decision traces and the Perfetto
# export across worker-thread counts, and the golden ObsReports, are
# tier-1 tests (chaos.rs, golden_trace.rs, obs_gate.rs), so stage 1
# already covers them.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== clippy: workspace, all targets, deny warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc: workspace docs, deny warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== perfbench: locked offline build against the public API =="
cargo build --release --locked --offline --manifest-path perfbench/Cargo.toml

SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== smoke all_figures (results -> $SMOKE_DIR) =="
HFETCH_BENCH_SCALE=smoke \
HFETCH_BENCH_RESULTS="$SMOKE_DIR" \
cargo run -p hfetch-bench --release --bin all_figures

echo "== sim_kernel bench, --test mode (results -> $SMOKE_DIR) =="
HFETCH_BENCH_RESULTS="$SMOKE_DIR" \
cargo bench -p hfetch-bench --bench sim_kernel -- --test

for f in BENCH_figures.json BENCH_sim_kernel.json; do
    test -s "$SMOKE_DIR/$f" || { echo "missing perf record: $f" >&2; exit 1; }
done

echo "== verify OK =="
