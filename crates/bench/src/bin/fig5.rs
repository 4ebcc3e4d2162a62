//! Regenerates the paper's Fig. 5 (see `bench_support::figures::fig5`).
fn main() {
    bench_support::figures::figure("fig5").expect("registered figure").save_from_env();
}
