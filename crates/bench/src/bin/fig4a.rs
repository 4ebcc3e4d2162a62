//! Regenerates the paper's Fig. 4a (see `bench_support::figures::fig4a`).
fn main() {
    bench_support::figures::figure("fig4a").expect("registered figure").save_from_env();
}
