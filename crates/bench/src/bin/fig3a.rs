//! Regenerates the paper's Fig. 3a (see `bench_support::figures::fig3a`).
fn main() {
    bench_support::figures::figure("fig3a").expect("registered figure").save_from_env();
}
