//! The power-cut crash matrix: for **every byte-level prefix** of the
//! store's write stream (and for mutated tails — garbage bytes, a
//! replayed batch), recovery must yield exactly the committed-batch
//! prefix, and re-mining the recovered store must be bit-identical to a
//! run that never crashed. The same sweep is applied to the `.events`
//! log and to every byte prefix of a stream checkpoint, and the
//! checkpoint writers' atomic-replace protocol is crash-simulated too.

use std::path::PathBuf;
use trajdata::eventlog::{recover_event_log, write_event_log};
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajdb::store::ReadFilter;
use trajdb::{CrashFs, FsyncPolicy, Store, StoreOptions, TailMutation};
use trajgeo::{BBox, Grid, Point2};
use trajio::tail::TailVerdict;
use trajpattern::{Miner, MiningParams};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-matrix-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic trajectories inside the unit square with non-trivial
/// mantissas, 3 snapshots each — small enough that a full byte sweep of
/// the write stream stays fast.
fn traj(seed: u64) -> Trajectory {
    Trajectory::new(
        (0..3)
            .map(|i| {
                let k = seed.wrapping_mul(37).wrapping_add(i);
                SnapshotPoint {
                    mean: Point2::new(0.1 + (k % 7) as f64 / 9.0, 0.1 + (k % 5) as f64 / 7.0),
                    sigma: 0.02 + (k % 3) as f64 / 97.0,
                }
            })
            .collect(),
    )
    .unwrap()
}

fn opts() -> StoreOptions {
    StoreOptions {
        fsync: FsyncPolicy::Never,
        // No auto-roll: the test controls sealing explicitly so the
        // recorded active-segment stream has a known batch structure.
        segment_max_bytes: u64::MAX,
    }
}

/// Builds the reference store: 2 batches sealed into one segment, then
/// 4 more batches in the active segment. Returns the directory and the
/// full trajectory list in id order, with the record count committed by
/// each sealed-plus-active prefix.
fn build_reference(tag: &str) -> (PathBuf, Vec<Trajectory>, Vec<usize>) {
    let dir = tmp_dir(tag);
    let mut store = Store::open(&dir, opts()).unwrap();
    let mut all = Vec::new();
    let mut next = 0u64;
    let mut sizes = Vec::new();
    let mut push_batch = |store: &mut Store, t: u64, n: usize| {
        let batch: Vec<Trajectory> = (0..n)
            .map(|_| {
                next += 1;
                traj(next)
            })
            .collect();
        store.append_batch(t, &batch).unwrap();
        all.extend(batch.iter().cloned());
        sizes.push(n);
    };
    push_batch(&mut store, 0, 2);
    push_batch(&mut store, 1, 1);
    store.seal_active().unwrap();
    for (i, n) in [2usize, 1, 3, 1].into_iter().enumerate() {
        push_batch(&mut store, 2 + i as u64, n);
    }
    store.sync().unwrap();
    let sealed: usize = sizes[..2].iter().sum();
    let mut committed_after = Vec::new();
    let mut acc = sealed;
    committed_after.push(acc);
    for n in &sizes[2..] {
        acc += n;
        committed_after.push(acc);
    }
    (dir, all, committed_after)
}

fn bits(t: &Trajectory) -> Vec<(u64, u64, u64)> {
    t.points()
        .iter()
        .map(|p| (p.mean.x.to_bits(), p.mean.y.to_bits(), p.sigma.to_bits()))
        .collect()
}

fn assert_prefix(records: &[trajdb::Record], originals: &[Trajectory], n: usize, ctx: &str) {
    assert_eq!(records.len(), n, "{ctx}");
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.id, i as u64, "{ctx}");
        assert_eq!(
            bits(&r.trajectory),
            bits(&originals[i]),
            "{ctx}: record {i}"
        );
    }
}

#[test]
fn every_power_cut_recovers_the_committed_batch_prefix() {
    let (src, originals, committed_after) = build_reference("sweep");
    let fs = CrashFs::record(&src).unwrap();
    let commit_offsets: Vec<usize> = fs.commit_offsets().to_vec();

    for cut in 0..=fs.len() {
        let dst = tmp_dir("sweep-dst");
        fs.materialize(&src, &dst, cut, &TailMutation::None)
            .unwrap();
        let store = Store::open(&dst, opts()).unwrap();
        let rec = store.stats().recovery.clone();
        let expected = committed_after[fs.committed_batches(cut)];
        let records = store.read(&ReadFilter::all()).unwrap();
        assert_prefix(&records, &originals, expected, &format!("cut {cut}"));
        if fs.is_commit_boundary(cut) {
            assert_eq!(rec.verdict, TailVerdict::Clean, "cut {cut}");
            assert_eq!(rec.dropped_bytes, 0, "cut {cut}");
        } else {
            assert_ne!(rec.verdict, TailVerdict::Clean, "cut {cut}");
            assert!(rec.dropped_bytes > 0, "cut {cut}");
        }
        // Recovery is idempotent: a second open is clean and identical.
        drop(store);
        let store = Store::open(&dst, opts()).unwrap();
        assert_eq!(
            store.stats().recovery.verdict,
            TailVerdict::Clean,
            "cut {cut} reopen"
        );
        let again = store.read(&ReadFilter::all()).unwrap();
        assert_prefix(&again, &originals, expected, &format!("cut {cut} reopen"));
        std::fs::remove_dir_all(&dst).unwrap();
    }
    assert!(
        commit_offsets.len() >= 5,
        "the sweep must cover several batch boundaries: {commit_offsets:?}"
    );
    std::fs::remove_dir_all(&src).unwrap();
}

#[test]
fn garbage_tails_and_replayed_batches_never_corrupt_the_prefix() {
    let (src, originals, committed_after) = build_reference("mutate");
    let fs = CrashFs::record(&src).unwrap();
    let junk: &[&[u8]] = &[
        b"\x00\x00\x00\x00\x00\x00",
        b"b 999 999 1 10 deadbeef\r 9",
        b"trajdb-segment v1\n",
        b"\xff\xfe binary \x7f garbage",
    ];
    for &cut in fs.commit_offsets() {
        for (j, g) in junk.iter().enumerate() {
            let dst = tmp_dir("mutate-dst");
            fs.materialize(&src, &dst, cut, &TailMutation::Garbage(g.to_vec()))
                .unwrap();
            let store = Store::open(&dst, opts()).unwrap();
            let rec = store.stats().recovery.clone();
            assert_ne!(rec.verdict, TailVerdict::Clean, "cut {cut} junk {j}");
            let expected = committed_after[fs.committed_batches(cut)];
            let records = store.read(&ReadFilter::all()).unwrap();
            assert_prefix(
                &records,
                &originals,
                expected,
                &format!("cut {cut} junk {j}"),
            );
            std::fs::remove_dir_all(&dst).unwrap();
        }
    }
    // An at-least-once writer replaying the previous batch after a cut:
    // the duplicate's stale sequence number gets it dropped.
    for &cut in fs
        .commit_offsets()
        .iter()
        .filter(|&&c| fs.committed_batches(c) > 0)
    {
        let dst = tmp_dir("double-dst");
        fs.materialize(&src, &dst, cut, &TailMutation::DoubleLastBatch)
            .unwrap();
        let store = Store::open(&dst, opts()).unwrap();
        assert!(matches!(
            store.stats().recovery.verdict,
            TailVerdict::Garbage(_)
        ));
        let expected = committed_after[fs.committed_batches(cut)];
        let records = store.read(&ReadFilter::all()).unwrap();
        assert_prefix(&records, &originals, expected, &format!("double at {cut}"));
        std::fs::remove_dir_all(&dst).unwrap();
    }
    std::fs::remove_dir_all(&src).unwrap();
}

#[test]
fn remining_a_recovered_store_is_bit_identical_to_a_never_crashed_run() {
    let (src, originals, committed_after) = build_reference("remine");
    let fs = CrashFs::record(&src).unwrap();
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(3, 0.1).unwrap().with_max_len(3).unwrap();
    for &cut in fs.commit_offsets() {
        let dst = tmp_dir("remine-dst");
        fs.materialize(&src, &dst, cut, &TailMutation::None)
            .unwrap();
        let store = Store::open(&dst, opts()).unwrap();
        let recovered = store.read_dataset(&ReadFilter::all()).unwrap();
        // The never-crashed reference: a dataset holding exactly the
        // records committed before the cut.
        let expected = committed_after[fs.committed_batches(cut)];
        let reference = Dataset::from_trajectories(originals[..expected].to_vec());
        let a = Miner::new(&recovered, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        let b = Miner::new(&reference, &grid)
            .params(params.clone())
            .mine()
            .unwrap();
        assert_eq!(a.patterns.len(), b.patterns.len(), "cut {cut}");
        for (x, y) in a.patterns.iter().zip(&b.patterns) {
            assert_eq!(x.pattern, y.pattern, "cut {cut}");
            assert_eq!(x.nm.to_bits(), y.nm.to_bits(), "cut {cut}");
        }
        std::fs::remove_dir_all(&dst).unwrap();
    }
    std::fs::remove_dir_all(&src).unwrap();
}

#[test]
fn event_log_survives_the_same_byte_sweep() {
    let data: Dataset = (0..4).map(|i| traj(100 + i)).collect();
    let text = write_event_log(&data);
    let header_len = text.find('\n').unwrap() + 1;
    let line_ends: Vec<usize> = text
        .char_indices()
        .filter(|&(_, c)| c == '\n')
        .map(|(i, _)| i + 1)
        .filter(|&e| e > header_len)
        .collect();
    for cut in header_len..=text.len() {
        let rec = recover_event_log(&text[..cut]).unwrap();
        let committed = line_ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(rec.events.len(), committed, "cut {cut}");
        for (a, b) in rec.events.iter().zip(data.iter()) {
            assert_eq!(bits(a), bits(b), "cut {cut}");
        }
        let clean = cut == header_len || line_ends.contains(&cut);
        assert_eq!(rec.scan.verdict == TailVerdict::Clean, clean, "cut {cut}");
    }
}

#[test]
fn checkpoint_crash_leaves_either_old_or_new_state_never_a_hybrid() {
    use trajstream::StreamMiner;
    let dir = tmp_dir("ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(3, 0.1).unwrap().with_max_len(3).unwrap();
    let mut miner = StreamMiner::new(grid, params).unwrap();
    let path = dir.join("stream.ckpt");
    for i in 0..4 {
        miner.slide(traj(200 + i), 4);
    }
    miner.checkpoint(&path).unwrap();
    let state_a = std::fs::read_to_string(&path).unwrap();

    // A crash mid-write of the *next* checkpoint leaves the target file
    // untouched (the write goes to a temp file first) plus a stray tmp.
    for i in 4..6 {
        miner.slide(traj(200 + i), 4);
    }
    let next_state = {
        let probe = dir.join("probe.ckpt");
        miner.checkpoint(&probe).unwrap();
        let s = std::fs::read_to_string(&probe).unwrap();
        std::fs::remove_file(&probe).unwrap();
        s
    };
    assert!(next_state.starts_with("trajpattern-checkpoint v3\n"));
    // Tear the v3 replacement mid-file, right after its ledger pattern
    // list (the rows it no longer stores would have followed each cell
    // list in v2), and just short of the closing `end`.
    let ledger_end = next_state.find("\nmstats ").unwrap() + 1;
    let tmp = dir.join("stream.ckpt.473.tmp");
    for cut in [next_state.len() / 2, ledger_end, next_state.len() - 2] {
        let torn = &next_state[..cut];
        std::fs::write(&tmp, torn).unwrap();
        assert!(
            trajstream::parse_checkpoint(torn).is_err(),
            "torn v3 checkpoint (cut {cut}) must not parse"
        );
        assert!(StreamMiner::resume(&tmp).is_err(), "cut {cut}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            state_a,
            "a torn replacement never reaches the live checkpoint path"
        );
        let resumed = StreamMiner::resume(&path).unwrap();
        assert_eq!(resumed.stats().arrivals, 4, "resume sees the old state");
    }

    // Once the full write lands (the rename committed), resume sees the
    // new state — and re-checkpointing it is byte-identical.
    miner.checkpoint(&path).unwrap();
    assert_eq!(std::fs::read_to_string(&path).unwrap(), next_state);
    let resumed = StreamMiner::resume(&path).unwrap();
    assert_eq!(resumed.stats().arrivals, 6);
    let rewrite = dir.join("rewrite.ckpt");
    resumed.checkpoint(&rewrite).unwrap();
    assert_eq!(std::fs::read_to_string(&rewrite).unwrap(), next_state);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_power_cut_of_a_v3_checkpoint_parses_whole_or_not_at_all() {
    use trajstream::StreamMiner;
    let dir = tmp_dir("ckpt-sweep");
    std::fs::create_dir_all(&dir).unwrap();
    let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
    let params = MiningParams::new(3, 0.1).unwrap().with_max_len(3).unwrap();
    let mut miner = StreamMiner::new(grid, params).unwrap();
    for i in 0..6 {
        miner.slide(traj(300 + i), 4);
    }
    let path = dir.join("stream.ckpt");
    miner.checkpoint(&path).unwrap();
    let full = std::fs::read_to_string(&path).unwrap();
    assert!(full.starts_with("trajpattern-checkpoint v3\n"));
    assert!(full.contains("\nledger ") && full.contains("\nl 1 "));

    // Whatever parses must re-encode to the complete file: a prefix may
    // be rejected, never read as some older or partial stream.
    let rewrite = dir.join("rewrite.ckpt");
    let parses_whole = |text: &str, ctx: &str| -> bool {
        let Ok(m) = trajstream::parse_checkpoint(text) else {
            return false;
        };
        m.checkpoint(&rewrite).unwrap();
        let back = std::fs::read_to_string(&rewrite).unwrap();
        assert_eq!(back, full, "{ctx}: parsed a hybrid state");
        true
    };
    let junk = [
        "\0\0\0\0\0\0\0\0",
        "\u{7f}\u{fffd} binary garbage",
        "deadbeef 0 1\n",
        "trajpattern-checkpoint v3\n",
    ];
    let mut accepted = Vec::new();
    for cut in 0..=full.len() {
        let prefix = &full[..cut];
        if parses_whole(prefix, &format!("cut {cut}")) {
            accepted.push(cut);
        }
        for (j, g) in junk.iter().enumerate() {
            let ctx = format!("cut {cut} junk {j}");
            if parses_whole(&format!("{prefix}{g}"), &ctx) {
                assert!(cut + 1 >= full.len(), "{ctx}: parsed without 'end'");
            }
        }
    }
    // Only the cuts that keep the closing `end` parse: the whole file,
    // and the whole file short of its final newline.
    assert_eq!(accepted, vec![full.len() - 1, full.len()]);
    std::fs::remove_dir_all(&dir).unwrap();
}
