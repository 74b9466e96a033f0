//! The streaming contract: after **every** event (arrival or eviction),
//! the stream miner's top-k is bit-identical — same patterns, same NM bit
//! patterns, same groups — to a from-scratch batch [`trajpattern::Miner`]
//! run over the current window contents. Also across checkpoint/resume:
//! a miner restored from a v3 checkpoint (ledger rows recomputed from the
//! window) continues the stream exactly as one that never stopped.

use proptest::prelude::*;
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::{BBox, Grid, Point2};
use trajpattern::{MinedPattern, Miner, MiningParams};
use trajstream::StreamMiner;

fn arb_trajectories() -> impl Strategy<Value = Vec<Trajectory>> {
    prop::collection::vec(
        prop::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0.01f64..0.25), 2..7),
        3..12,
    )
    .prop_map(|trajs| {
        trajs
            .into_iter()
            .map(|pts| {
                Trajectory::new(
                    pts.into_iter()
                        .map(|(x, y, s)| SnapshotPoint::new(Point2::new(x, y), s).unwrap())
                        .collect(),
                )
                .unwrap()
            })
            .collect()
    })
}

fn batch_mine(data: &Dataset, grid: &Grid, params: &MiningParams) -> Vec<MinedPattern> {
    if data.is_empty() {
        return Vec::new();
    }
    Miner::new(data, grid)
        .params(params.clone())
        .mine()
        .expect("batch mining the window must succeed")
        .patterns
}

fn assert_topk_eq(stream: &StreamMiner, batch: &[MinedPattern], what: &str) {
    assert_eq!(
        stream.topk().len(),
        batch.len(),
        "{what}: top-k size diverged from batch"
    );
    for (i, (a, b)) in stream.topk().iter().zip(batch).enumerate() {
        assert_eq!(a.pattern, b.pattern, "{what}: pattern #{i} diverged");
        assert_eq!(
            a.nm.to_bits(),
            b.nm.to_bits(),
            "{what}: NM bits of #{i} diverged ({} vs {})",
            a.nm,
            b.nm
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Streamed top-k == batch top-k at every prefix of the event
    /// sequence, under interleaved arrivals and window-driven evictions.
    #[test]
    fn streamed_topk_is_bit_identical_to_batch_at_every_prefix(
        trajs in arb_trajectories(),
        nx in 2u32..5,
        ny in 2u32..5,
        k in 1usize..6,
        window in 2u64..5,
        delta in 0.03f64..0.15,
    ) {
        let grid = Grid::new(BBox::unit(), nx, ny).unwrap();
        let params = MiningParams::new(k, delta).unwrap().with_max_len(4).unwrap();
        let mut stream = StreamMiner::new(grid.clone(), params.clone()).unwrap();
        for traj in trajs {
            let seq = stream.push(traj);
            let data = stream.window_dataset();
            assert_topk_eq(&stream, &batch_mine(&data, &grid, &params), "after push");
            if stream.evict_before(seq.saturating_sub(window - 1)) > 0 {
                let data = stream.window_dataset();
                assert_topk_eq(&stream, &batch_mine(&data, &grid, &params), "after evict");
            }
        }
    }

    /// Checkpoint mid-stream, resume, and finish: the resumed miner's
    /// every subsequent snapshot matches both the uninterrupted miner and
    /// the batch miner, bit for bit. Counters survive too.
    #[test]
    fn checkpoint_resume_preserves_bit_identity(
        trajs in arb_trajectories(),
        k in 1usize..5,
        split in 1usize..6,
        delta in 0.04f64..0.12,
    ) {
        let grid = Grid::new(BBox::unit(), 3, 3).unwrap();
        let params = MiningParams::new(k, delta).unwrap().with_max_len(3).unwrap();
        let split = split.min(trajs.len() - 1);
        let mut live = StreamMiner::new(grid.clone(), params.clone()).unwrap();
        for traj in &trajs[..split] {
            let seq = live.push(traj.clone());
            live.evict_before(seq.saturating_sub(3));
        }

        let path = std::env::temp_dir().join(format!(
            "trajstream-prop-{}-{split}-{k}",
            std::process::id()
        ));
        live.checkpoint(&path).unwrap();
        let mut resumed = StreamMiner::resume(&path).unwrap();
        std::fs::remove_file(&path).ok();

        prop_assert_eq!(resumed.stats(), live.stats());
        prop_assert_eq!(resumed.next_seq(), live.next_seq());
        assert_topk_eq(&resumed, &batch_mine(&live.window_dataset(), &grid, &params), "at resume");

        for traj in &trajs[split..] {
            let a = live.push(traj.clone());
            let b = resumed.push(traj.clone());
            prop_assert_eq!(a, b);
            live.evict_before(a.saturating_sub(3));
            resumed.evict_before(b.saturating_sub(3));
            let batch = batch_mine(&live.window_dataset(), &grid, &params);
            assert_topk_eq(&live, &batch, "live after resume point");
            assert_topk_eq(&resumed, &batch, "resumed");
        }
        prop_assert_eq!(resumed.stats(), live.stats());
    }
}

/// Deterministic end-to-end run on a generated workload: stream a
/// zebranet event log through a window, checking bit-identity at every
/// emission point (what the CI smoke job replays through the CLI).
#[test]
fn zebranet_replay_matches_batch() {
    let config = datagen::ZebraConfig {
        ..Default::default()
    };
    let paths = config.paths(7);
    let data = datagen::observe_directly(&paths, 0.02, 7);
    let grid = Grid::new(BBox::unit(), 6, 6).unwrap();
    let params = MiningParams::new(5, 0.05)
        .unwrap()
        .with_max_len(4)
        .unwrap()
        .with_gamma(0.3)
        .unwrap();
    let mut stream = StreamMiner::new(grid.clone(), params.clone()).unwrap();
    for (i, traj) in data.trajectories().iter().take(24).cloned().enumerate() {
        let seq = stream.push(traj);
        stream.evict_before(seq.saturating_sub(9));
        if i % 5 == 4 {
            let window = stream.window_dataset();
            let batch = batch_mine(&window, &grid, &params);
            assert_topk_eq(&stream, &batch, "zebranet replay");
        }
    }
    let s = stream.stats();
    assert_eq!(s.arrivals, 24);
    assert!(s.deltas_applied > 0);
    assert!(s.ledger_patterns > 0);
}
