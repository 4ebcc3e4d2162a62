//! Regenerates the paper's Fig. 6(b) — WRF strong scaling.
fn main() {
    bench_support::figures::figure("fig6b").expect("registered figure").save_from_env();
}
