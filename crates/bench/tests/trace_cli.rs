//! CLI contract tests for `--bin trace` and `--bin obs_diff`.
//!
//! Pins the exit-code conventions the scripts rely on: usage errors and
//! unwritable outputs exit 2 (including through the `--format perfetto`
//! path), obs-diff differences exit 1, matches exit 0.

use std::process::Command;

fn trace_bin() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_trace"));
    cmd.env("HFETCH_BENCH_SCALE", "smoke").env("HFETCH_BENCH_THREADS", "1");
    cmd
}

#[test]
fn trace_usage_errors_exit_2() {
    let out = trace_bin().arg("fig99").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown figure must exit 2");
    let out = trace_bin().arg("fig4a").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "a figure without traced cells must exit 2");
    let out = trace_bin().args(["fig5", "--format", "svg"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown format must exit 2");
    let out = trace_bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "missing figure must exit 2");
}

#[test]
fn trace_unwritable_out_exits_2_in_perfetto_mode() {
    // The figure run succeeds; the failure must come from the write path,
    // and must survive the --format=perfetto refactor of the writer loop.
    let out = trace_bin()
        .args(["fig5", "--format", "perfetto", "--out", "/nonexistent-dir-hfetch/px"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unwritable --out must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot write"), "stderr: {stderr}");
}

#[test]
fn obs_diff_exit_codes_follow_the_gate_contract() {
    let dir = std::env::temp_dir().join(format!("hfetch-obsdiff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.obs.json");
    let b = dir.join("b.obs.json");
    let base = "{\"counters\": {\"effect.reads.timely_hit\": 4},\n\"gauges\": {},\n\
                \"histograms\": {},\n\"trace_events\": 9}\n";
    std::fs::write(&a, base).unwrap();
    std::fs::write(&b, base.replace(": 4", ": 5")).unwrap();

    let exe = env!("CARGO_BIN_EXE_obs_diff");
    let same = Command::new(exe).args([&a, &a]).output().unwrap();
    assert_eq!(same.status.code(), Some(0), "identical reports must exit 0");

    let diff = Command::new(exe).args([&a, &b]).output().unwrap();
    assert_eq!(diff.status.code(), Some(1), "perturbed counter must exit 1");
    let stdout = String::from_utf8_lossy(&diff.stdout);
    assert!(stdout.contains("effect.reads.timely_hit"), "stdout: {stdout}");

    let missing = Command::new(exe).arg(&a).output().unwrap();
    assert_eq!(missing.status.code(), Some(2), "missing operand must exit 2");
    let unreadable = Command::new(exe)
        .args([a.to_str().unwrap(), "/nonexistent-dir-hfetch/x.json"])
        .output()
        .unwrap();
    assert_eq!(unreadable.status.code(), Some(2), "unreadable input must exit 2");
    std::fs::remove_dir_all(&dir).ok();
}
