//! Golden-file tests pinning the on-disk formats byte-for-byte.
//!
//! The fixtures under `tests/golden/` were written by the pre-refactor
//! codecs (before the shared `trajio` primitives existed). Every test here
//! asserts two directions:
//!
//! 1. **Writer stability** — today's writers reproduce the committed
//!    fixture byte-for-byte from the same deterministic inputs.
//! 2. **Reader compatibility** — today's readers load the committed
//!    (pre-refactor) files and reconstruct bit-identical state.
//!
//! Regenerate deliberately with `TRAJ_GOLDEN_REGEN=1 cargo test --test
//! golden_files` — a byte diff without a format-version bump is a bug, not
//! a reason to regenerate.

use std::path::{Path, PathBuf};
use trajdata::eventlog::{parse_event_log, write_event_log};
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::{BBox, Grid, Point2};
use trajpattern::{Miner, MiningParams};
use trajserve::Snapshot;
use trajstream::StreamMiner;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Compares `produced` against the named fixture, or rewrites the fixture
/// when `TRAJ_GOLDEN_REGEN=1` is set.
fn check_golden(name: &str, produced: &str) {
    let path = golden_dir().join(name);
    if std::env::var("TRAJ_GOLDEN_REGEN").as_deref() == Ok("1") {
        std::fs::create_dir_all(golden_dir()).unwrap();
        std::fs::write(&path, produced).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));
    if produced != expected {
        let diff_at = produced
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(produced.len().min(expected.len()));
        let ctx = |s: &str| {
            let start = diff_at.saturating_sub(60);
            s.get(start..(diff_at + 60).min(s.len())).map(String::from)
        };
        panic!(
            "writer output diverged from fixture {name} at byte {diff_at}\n\
             produced …{:?}…\nexpected …{:?}…",
            ctx(produced),
            ctx(&expected)
        );
    }
}

fn read_golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()))
}

fn tmp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trajgolden-{}-{name}", std::process::id()))
}

/// The deterministic batch-mining configuration every fixture derives
/// from: no RNG, fixed analytic trajectories, fixed parameters.
fn batch_fixture() -> (Dataset, Grid, MiningParams) {
    let data: Dataset = (0..6)
        .map(|j| {
            Trajectory::new(
                (0..4)
                    .map(|i| {
                        SnapshotPoint::new(
                            Point2::new(
                                0.125 + i as f64 * 0.25,
                                0.375 + (j % 2) as f64 * 0.25 + i as f64 * 0.003,
                            ),
                            0.02 + 0.005 * j as f64,
                        )
                        .unwrap()
                    })
                    .collect(),
            )
            .unwrap()
        })
        .collect();
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(4, 0.1)
        .unwrap()
        .with_max_len(3)
        .unwrap()
        .with_gamma(0.25)
        .unwrap();
    (data, grid, params)
}

/// The deterministic stream the stream checkpoint fixtures derive from: sliding window of
/// 4 over 8 arrivals with slowly drifting rows (forces both certified
/// passes and repairs).
fn stream_fixture() -> StreamMiner {
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(3, 0.1)
        .unwrap()
        .with_max_len(3)
        .unwrap()
        .with_gamma(0.25)
        .unwrap();
    let mut m = StreamMiner::new(grid, params).unwrap();
    for j in 0..8 {
        m.slide(
            Trajectory::new(
                (0..4)
                    .map(|i| {
                        SnapshotPoint::new(
                            Point2::new(0.125 + i as f64 * 0.25, 0.3 + j as f64 * 0.04),
                            0.03,
                        )
                        .unwrap()
                    })
                    .collect(),
            )
            .unwrap(),
            4,
        );
    }
    m
}

/// Dataset with deliberately awkward floats for the `.events` fixture
/// (shortest-round-trip formatting must stay stable).
fn events_fixture() -> Dataset {
    vec![
        Trajectory::new(vec![
            SnapshotPoint::new(Point2::new(1.0 / 3.0, 2.0f64.sqrt() / 2.0), 0.1 + 0.2).unwrap(),
            SnapshotPoint::new(Point2::new(f64::MIN_POSITIVE, 0.625), 1e-300).unwrap(),
        ])
        .unwrap(),
        Trajectory::new(vec![
            SnapshotPoint::new(Point2::new(0.1, 0.2), 0.0).unwrap(),
            SnapshotPoint::new(Point2::new(0.30000000000000004, 1e300), 3.0).unwrap(),
        ])
        .unwrap(),
    ]
    .into_iter()
    .collect()
}

#[test]
fn checkpoint_v1_writer_matches_golden() {
    let (data, grid, params) = batch_fixture();
    let path = tmp_path("v1.ckpt");
    Miner::new(&data, &grid)
        .params(params)
        .checkpoint(&path)
        .mine()
        .unwrap();
    let produced = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    check_golden("checkpoint_v1.txt", &produced);
}

#[test]
fn checkpoint_v1_reader_loads_prerefactor_file() {
    let (data, grid, params) = batch_fixture();
    let path = tmp_path("v1-resume.ckpt");
    std::fs::write(&path, read_golden("checkpoint_v1.txt")).unwrap();
    let resumed = Miner::new(&data, &grid)
        .params(params.clone())
        .resume(&path)
        .mine()
        .unwrap();
    std::fs::remove_file(&path).ok();
    let fresh = Miner::new(&data, &grid).params(params).mine().unwrap();
    assert_eq!(resumed.patterns.len(), fresh.patterns.len());
    for (a, b) in resumed.patterns.iter().zip(&fresh.patterns) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.nm.to_bits(), b.nm.to_bits());
    }
    assert_eq!(resumed.groups, fresh.groups);
}

#[test]
fn checkpoint_v3_writer_matches_golden() {
    let m = stream_fixture();
    let path = tmp_path("v3.ckpt");
    m.checkpoint(&path).unwrap();
    let produced = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    check_golden("checkpoint_v3.txt", &produced);
}

/// Asserts a miner restored from a committed fixture carries the stream
/// fixture's state bit for bit.
fn assert_restores_stream_fixture(restored: &StreamMiner) {
    let m = stream_fixture();
    assert_eq!(restored.next_seq(), m.next_seq());
    assert_eq!(restored.stats(), m.stats());
    assert_eq!(restored.topk().len(), m.topk().len());
    for (a, b) in restored.topk().iter().zip(m.topk()) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.nm.to_bits(), b.nm.to_bits());
    }
    assert_eq!(restored.groups(), m.groups());
}

#[test]
fn checkpoint_v3_reader_loads_committed_file() {
    let restored = trajstream::parse_checkpoint(&read_golden("checkpoint_v3.txt")).unwrap();
    assert_restores_stream_fixture(&restored);
}

#[test]
fn checkpoint_v2_reader_loads_prerefactor_file() {
    let path = tmp_path("v2-resume.ckpt");
    std::fs::write(&path, read_golden("checkpoint_v2.txt")).unwrap();
    let restored = StreamMiner::resume(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_restores_stream_fixture(&restored);
    let parsed = trajstream::parse_checkpoint(&read_golden("checkpoint_v2.txt")).unwrap();
    assert_restores_stream_fixture(&parsed);
    // v2 is read-only: a restored miner re-checkpoints as the v3 fixture,
    // byte for byte.
    let path2 = tmp_path("v2-rewrite.ckpt");
    restored.checkpoint(&path2).unwrap();
    let rewritten = std::fs::read_to_string(&path2).unwrap();
    std::fs::remove_file(&path2).ok();
    assert_eq!(rewritten, read_golden("checkpoint_v3.txt"));
}

#[test]
fn snapshot_v1_writer_matches_golden() {
    let (data, grid, params) = batch_fixture();
    let out = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .unwrap();
    let produced = Snapshot::from_outcome(&out, &grid, &params).to_json_pretty();
    check_golden("snapshot_v1.json", &produced);
}

#[test]
fn snapshot_v1_reader_loads_prerefactor_file() {
    let (data, grid, params) = batch_fixture();
    let out = Miner::new(&data, &grid)
        .params(params.clone())
        .mine()
        .unwrap();
    let snap = Snapshot::parse(&read_golden("snapshot_v1.json")).unwrap();
    assert_eq!(snap.patterns.len(), out.patterns.len());
    for (a, b) in snap.patterns.iter().zip(&out.patterns) {
        assert_eq!(a.pattern, b.pattern);
        assert_eq!(a.nm.to_bits(), b.nm.to_bits());
    }
    assert_eq!(snap.params.delta.to_bits(), params.delta.to_bits());
    assert_eq!(snap.stats, out.stats);
    assert_eq!(snap.scorer, out.scorer);
    // The sniffing loader also accepts both stream checkpoint fixtures,
    // and they describe the same stream.
    let v3 = Snapshot::parse_any(&read_golden("checkpoint_v3.txt")).unwrap();
    let v2 = Snapshot::parse_any(&read_golden("checkpoint_v2.txt")).unwrap();
    assert!(v3.stream.is_some());
    assert_eq!(v2.to_json_pretty(), v3.to_json_pretty());
}

/// Builds the deterministic trajdb store the segment/manifest fixtures
/// derive from: the awkward-float events dataset appended as three
/// batches, then sealed — one sealed segment, one (empty) active.
fn trajdb_fixture(dir: &std::path::Path) -> trajdb::Store {
    let _ = std::fs::remove_dir_all(dir);
    let data = events_fixture();
    let trajs = data.trajectories();
    let mut store = trajdb::Store::open(
        dir,
        trajdb::StoreOptions {
            fsync: trajdb::FsyncPolicy::Never,
            segment_max_bytes: u64::MAX,
        },
    )
    .unwrap();
    store.append_batch(0, trajs).unwrap();
    store.append_batch(1, &trajs[..1]).unwrap();
    store.append_batch(3, &trajs[1..]).unwrap();
    store.seal_active().unwrap();
    store
}

#[test]
fn trajdb_segment_writer_matches_golden() {
    let dir = tmp_path("trajdb-golden");
    let store = trajdb_fixture(&dir);
    let produced = std::fs::read_to_string(dir.join("seg-000001.log")).unwrap();
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
    check_golden("trajdb_segment.log", &produced);
    check_golden("trajdb_manifest.txt", &manifest);
}

#[test]
fn trajdb_reader_loads_prerefactor_store() {
    use trajdb::store::ReadFilter;
    let dir = tmp_path("trajdb-golden-read");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("MANIFEST"), read_golden("trajdb_manifest.txt")).unwrap();
    std::fs::write(
        dir.join("seg-000001.log"),
        read_golden("trajdb_segment.log"),
    )
    .unwrap();
    let store = trajdb::Store::open(&dir, trajdb::StoreOptions::default()).unwrap();
    let records = store.read(&ReadFilter::all()).unwrap();
    // Batches were (both, first, second): ids 0..4 map back onto the
    // fixture dataset in that order, bit-exactly.
    let data = events_fixture();
    let expected = [
        data.trajectories()[0].clone(),
        data.trajectories()[1].clone(),
        data.trajectories()[0].clone(),
        data.trajectories()[1].clone(),
    ];
    assert_eq!(records.len(), expected.len());
    assert_eq!(
        records.iter().map(|r| r.t).collect::<Vec<_>>(),
        vec![0, 0, 1, 3]
    );
    for (r, want) in records.iter().zip(&expected) {
        for (a, b) in r.trajectory.points().iter().zip(want.points()) {
            assert_eq!(a.mean.x.to_bits(), b.mean.x.to_bits());
            assert_eq!(a.mean.y.to_bits(), b.mean.y.to_bits());
            assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The deterministic dead-reckoning fleet the `trajfeed-dr v1` fixtures
/// derive from (seeded `datagen dr-feed`, planar and geodetic variants).
fn dr_fixture_config() -> datagen::DrFeedConfig {
    datagen::DrFeedConfig {
        routes: 2,
        vehicles_per_route: 2,
        reports_per_vehicle: 6,
        ..datagen::DrFeedConfig::default()
    }
}

#[test]
fn dr_log_writer_matches_golden() {
    check_golden("fleet.drlog", &datagen::dr_log(&dr_fixture_config(), 17));
    let geo = datagen::DrFeedConfig {
        extent: 2000.0,
        geo_origin: Some((47.6062, -122.3321)),
        ..dr_fixture_config()
    };
    check_golden("fleet_geo.drlog", &datagen::dr_log(&geo, 17));
}

#[test]
fn dr_log_reader_reconstructs_prerefactor_file_bit_exactly() {
    use std::sync::atomic::AtomicBool;
    use trajfeed::{FeedOptions, SourceSpec};

    // The committed fixture decodes to the same §3.1/§3.2 reconstruction
    // as a freshly generated log, bit for bit.
    let decode = |name: &str, text: &str| {
        let path = tmp_path(name);
        std::fs::write(&path, text).unwrap();
        let mut feed =
            trajfeed::open(&SourceSpec::Dr(path.clone()), &FeedOptions::default()).unwrap();
        let out = trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).unwrap();
        std::fs::remove_file(&path).ok();
        out
    };
    for (fixture, cfg) in [
        ("fleet.drlog", dr_fixture_config()),
        (
            "fleet_geo.drlog",
            datagen::DrFeedConfig {
                extent: 2000.0,
                geo_origin: Some((47.6062, -122.3321)),
                ..dr_fixture_config()
            },
        ),
    ] {
        let committed = decode(&format!("read-{fixture}"), &read_golden(fixture));
        let fresh = decode(&format!("fresh-{fixture}"), &datagen::dr_log(&cfg, 17));
        assert_eq!(committed.len(), fresh.len(), "{fixture}");
        assert_eq!(committed.len(), 4, "{fixture}: 2 routes x 2 vehicles");
        for (a, b) in committed.iter().zip(&fresh) {
            for (pa, pb) in a.points().iter().zip(b.points()) {
                assert_eq!(pa.mean.x.to_bits(), pb.mean.x.to_bits(), "{fixture}");
                assert_eq!(pa.mean.y.to_bits(), pb.mean.y.to_bits(), "{fixture}");
                assert_eq!(pa.sigma.to_bits(), pb.sigma.to_bits(), "{fixture}");
            }
        }
    }
}

#[test]
fn events_writer_matches_golden() {
    let produced = write_event_log(&events_fixture());
    check_golden("stream.events", &produced);
}

#[test]
fn events_reader_loads_prerefactor_file() {
    let data = events_fixture();
    let events = parse_event_log(&read_golden("stream.events")).unwrap();
    assert_eq!(events.len(), data.len());
    for (orig, parsed) in data.iter().zip(&events) {
        for (a, b) in orig.points().iter().zip(parsed.points()) {
            assert_eq!(a.mean.x.to_bits(), b.mean.x.to_bits());
            assert_eq!(a.mean.y.to_bits(), b.mean.y.to_bits());
            assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
        }
    }
}
