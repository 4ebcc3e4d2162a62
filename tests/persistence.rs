//! Persistence integration: heatmap history carries across store and
//! auditor instances (the paper's "store the file heatmaps on disk").

use std::sync::Arc;

use hfetch::hfetch_core::heatmap::{FileHeatmap, HeatmapStore};
use hfetch::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "hfetch-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn heatmaps_survive_across_store_instances() {
    let dir = temp_dir("heatmap");
    let file = FileId(7);
    {
        let store = HeatmapStore::on_disk(&dir).unwrap();
        let mut h = FileHeatmap::cold(file, MIB, 8);
        h.scores[3] = 9.5;
        h.saved_at = Timestamp::from_secs(10);
        store.save(h);
    }
    let store = HeatmapStore::on_disk(&dir).unwrap();
    let loaded = store.load(file).expect("heatmap reloaded from disk");
    assert_eq!(loaded.scores[3], 9.5);
    assert_eq!(loaded.hottest_first()[0], 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn auditor_heatmap_round_trips_through_store() {
    let cfg = HFetchConfig::default();
    let store = Arc::new(HeatmapStore::in_memory());
    let auditor = hfetch::hfetch_core::Auditor::with_heatmaps(cfg.clone(), Arc::clone(&store));
    let file = FileId(1);
    auditor.set_file_size(file, mib(8));
    auditor.start_epoch(file, Timestamp::from_secs(1));
    for p in 0..6 {
        auditor.observe_read(
            file,
            ByteRange::new(mib(2), MIB),
            ProcessId(p),
            Timestamp::from_secs(1),
        );
    }
    assert!(auditor.end_epoch(file, Timestamp::from_secs(2)), "last closer persists");
    let saved = store.load(file).expect("persisted on epoch end");
    assert_eq!(saved.hottest_first()[0], 2, "segment 2 is the hottest");

    // A fresh auditor sharing the store stages the hot segment first on
    // re-open (the history-based warm start without offline profiling).
    let auditor2 = hfetch::hfetch_core::Auditor::with_heatmaps(cfg, store);
    auditor2.set_file_size(file, mib(8));
    auditor2.start_epoch(file, Timestamp::from_secs(3));
    let updates = auditor2.drain_updates();
    let hottest = updates
        .iter()
        .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
        .unwrap();
    assert_eq!(hottest.segment.index, 2);
}
