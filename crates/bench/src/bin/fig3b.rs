//! Regenerates the paper's Fig. 3b (see `bench_support::figures::fig3b`).
fn main() {
    bench_support::figures::figure("fig3b").expect("registered figure").save_from_env();
}
