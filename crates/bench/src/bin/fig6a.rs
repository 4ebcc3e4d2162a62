//! Regenerates the paper's Fig. 6(a) — Montage weak scaling.
fn main() {
    bench_support::figures::figure("fig6a").expect("registered figure").save_from_env();
}
