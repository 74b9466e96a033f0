//! Resume exactness on a real stream shape: the committed dead-reckoning
//! fixture is decoded through the feed spine and slid through a
//! [`StreamMiner`] that is checkpointed and resumed after *every* event.
//! A stream checkpoint stores only the ledger's patterns, so each resume
//! recomputes every ledger row from the window; those rows, and every
//! later top-k, must match a miner that never stopped, bit for bit.

use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use trajfeed::{FeedOptions, SourceSpec};
use trajgeo::{BBox, Grid};
use trajpattern::MiningParams;
use trajstream::StreamMiner;

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("stream-resume-{}-{name}", std::process::id()))
}

fn assert_same_state(resumed: &StreamMiner, live: &StreamMiner, ctx: &str) {
    assert_eq!(resumed.next_seq(), live.next_seq(), "{ctx}");
    assert_eq!(resumed.stats(), live.stats(), "{ctx}");
    assert_eq!(resumed.ledger().count(), live.ledger().count(), "{ctx}");
    for ((pa, ra), (pb, rb)) in resumed.ledger().zip(live.ledger()) {
        assert_eq!(pa, pb, "{ctx}");
        let bits = |r: &std::collections::VecDeque<f64>| -> Vec<u64> {
            r.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(ra), bits(rb), "{ctx}: ledger row of {pa}");
    }
    assert_eq!(resumed.topk().len(), live.topk().len(), "{ctx}");
    for (a, b) in resumed.topk().iter().zip(live.topk()) {
        assert_eq!(a.pattern, b.pattern, "{ctx}");
        assert_eq!(a.nm.to_bits(), b.nm.to_bits(), "{ctx}");
    }
    assert_eq!(resumed.groups(), live.groups(), "{ctx}");
}

#[test]
fn resuming_at_every_event_of_the_dr_fixture_is_bit_identical() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fleet.drlog");
    let mut feed = trajfeed::open(&SourceSpec::Dr(fixture), &FeedOptions::default()).unwrap();
    let records = trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).unwrap();
    assert_eq!(records.len(), 4, "2 routes x 2 vehicles");

    // The CI live shard's mining settings: grid 8 over the unit square,
    // k 6, δ half a cell, lengths 1–8. A window of 3 makes the last event
    // evict.
    let grid = Grid::new(BBox::unit(), 8, 8).unwrap();
    let params = MiningParams::new(6, 0.5 / 8.0)
        .unwrap()
        .with_max_len(8)
        .unwrap()
        .with_gamma(0.1)
        .unwrap();
    let mut live = StreamMiner::new(grid.clone(), params.clone()).unwrap();
    let mut chained = StreamMiner::new(grid, params).unwrap();
    let path = tmp_path("chained.ckpt");
    for (i, traj) in records.into_iter().enumerate() {
        live.slide(traj.clone(), 3);
        chained.slide(traj, 3);
        chained.checkpoint(&path).unwrap();
        chained = StreamMiner::resume(&path).unwrap();
        assert_same_state(&chained, &live, &format!("event {i}"));
    }
    assert!(live.stats().evictions > 0, "{:?}", live.stats());
    assert!(live.ledger().count() > 64, "{:?}", live.stats());
    std::fs::remove_file(&path).ok();
}
