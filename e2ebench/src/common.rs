//! Inputs, parameters and checks shared by the workloads.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use trajdata::Dataset;
use trajgeo::{BBox, Grid};
use trajpattern::{MinedPattern, Miner, MiningOutcome, MiningParams, Pattern, Scorer};
use trajserve::ServerConfig;

/// One benchmark invocation.
pub struct Ctx {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Nominal length of the measured phase; each workload sizes its
    /// fixed amount of work from it.
    pub seconds: u64,
    /// Scratch directory for generated logs and checkpoints (removed at
    /// the end of the run).
    pub work_dir: PathBuf,
    /// Where a traced run writes its spans.
    pub trace_path: PathBuf,
}

/// Operation counts, failures and metric values of one run.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (mines, records, reads, checks).
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation; a `false` outcome is a failure, described
    /// on standard error.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("failed: {}", what());
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }
}

/// splitmix64: derives independent sub-seeds from the workload seed.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1)))
        .wrapping_add(0x5851_f42d_4c95_7f2d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic stream of uniform floats in `[0, 1)`.
pub struct Rng(u64, u64);

impl Rng {
    /// A stream seeded from `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed, 0)
    }

    /// The next float.
    pub fn next_f64(&mut self) -> f64 {
        self.1 += 1;
        (sub_seed(self.0, self.1) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The grid and mining parameters of the dead-reckoning workloads: the
/// settings of CI's `feed-smoke` live shard (`serve --live --window 64
/// --grid 8 --k 6 --bbox 0,0,1,1`), with the rest at the `trajmine`
/// defaults (δ half a cell, lengths 1–8) and the thread count set
/// explicitly to one.
pub fn dr_mining() -> (Grid, MiningParams) {
    let grid = Grid::new(BBox::unit(), 8, 8).expect("an 8×8 grid is valid");
    let delta = grid.cell_width().min(grid.cell_height()) * 0.5;
    let params = MiningParams::new(6, delta)
        .and_then(|p| p.with_min_len(1))
        .and_then(|p| p.with_max_len(8))
        .and_then(|p| p.with_threads(1))
        .expect("feed-smoke mining parameters are valid");
    (grid, params)
}

/// Sliding-window capacity of the dead-reckoning workloads, in records
/// (`--window 64`, the `trajmine` default and CI's `feed-smoke` value).
pub const DR_WINDOW: u64 = 64;

/// The bus fleet of one dead-reckoning log: `trajmine generate
/// --workload dr-feed` at its defaults (3 routes, `--traces 100` → 33
/// vehicles per route, `--snapshots 100` reports each) — 99 records.
pub fn dr_fleet() -> datagen::DrFeedConfig {
    datagen::DrFeedConfig {
        routes: 3,
        vehicles_per_route: 33,
        reports_per_vehicle: 100,
        ..datagen::DrFeedConfig::default()
    }
}

/// Seeds of the `n`-log dead-reckoning corpus, in the order `seed`
/// replays them. Corpus log `j` is
/// `datagen::dr_log(&dr_fleet(), sub_seed(0, j))`.
///
/// A log's cost per record swings more than a hundredfold with its route
/// shapes. Logs drawn by the seed, even nine tenths of a fixed pool, moved
/// a run's figure by more than the host's own noise from seed to seed, so
/// every run replays the same corpus, like a recorded trace set; the seed
/// decides only the order (and, on live-dr, the query points).
pub fn dr_log_seeds(seed: u64, n: u64) -> Vec<u64> {
    let mut corpus: Vec<u64> = (0..n).collect();
    let mut rng = Rng::new(seed);
    for i in (1..corpus.len()).rev() {
        let j = (rng.next_f64() * (i + 1) as f64) as usize;
        corpus.swap(i, j.min(i));
    }
    corpus.into_iter().map(|j| sub_seed(0, j)).collect()
}

/// Batch-mines `data` — the reference answer every check compares to.
pub fn mine(data: &Dataset, grid: &Grid, params: &MiningParams) -> MiningOutcome {
    Miner::new(data, grid)
        .params(params.clone())
        .mine()
        .expect("mining benchmark data succeeds")
}

/// Whether two top-k lists hold the same patterns with the same NM bits.
pub fn same_topk(a: &[MinedPattern], b: &[MinedPattern]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.pattern == y.pattern && x.nm.to_bits() == y.nm.to_bits())
}

/// NM of `pattern` over `data` through the unindexed scorer.
pub fn rescore(data: &Dataset, grid: &Grid, params: &MiningParams, pattern: &Pattern) -> f64 {
    let scorer = Scorer::new(data, grid, params.delta, params.min_prob);
    scorer.query(std::slice::from_ref(pattern)).run()[0]
}

/// Query-server settings, every value explicit.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue: 16,
        read_timeout: Duration::from_secs(30),
        write_timeout: Duration::from_secs(30),
        scorer_threads: 1,
        max_body: 4 * 1024 * 1024,
        confirm_threshold: 0.9,
        watch: false,
        watch_interval: Duration::from_millis(500),
        snapshot_path: None,
        allow_panic_injection: false,
    }
}
