//! Regenerates the paper's Fig. 4b (see `bench_support::figures::fig4b`).
fn main() {
    bench_support::figures::figure("fig4b").expect("registered figure").save_from_env();
}
