//! Parallel-vs-serial equivalence: the scenario runner must not change
//! figure output, only wall-clock time. Each figure is regenerated at
//! smoke scale with 1 thread and with several, and the resulting tables
//! must match cell-for-cell (and therefore byte-for-byte once rendered).

use bench_support::figures::figure;
use bench_support::BenchScale;

fn assert_thread_count_invariant(name: &str, threads: usize) {
    let fig = figure(name).expect("registered figure");
    let serial = fig.table(BenchScale::Smoke, 1);
    let parallel = fig.table(BenchScale::Smoke, threads);
    assert_eq!(serial, parallel, "{name}: table contents must not depend on thread count");
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.to_csv(), parallel.to_csv());
}

#[test]
fn fig4a_output_is_thread_count_invariant() {
    assert_thread_count_invariant("fig4a", 4);
}

#[test]
fn fig4b_output_is_thread_count_invariant() {
    assert_thread_count_invariant("fig4b", 8);
}

#[test]
fn fig3b_output_is_thread_count_invariant() {
    assert_thread_count_invariant("fig3b", 3);
}

#[test]
fn fig5_output_is_thread_count_invariant() {
    assert_thread_count_invariant("fig5", 4);
}

#[test]
fn fig6_output_is_thread_count_invariant() {
    assert_thread_count_invariant("fig6a", 4);
    assert_thread_count_invariant("fig6b", 4);
}
