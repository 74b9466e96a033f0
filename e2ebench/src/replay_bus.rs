//! `replay-bus`: closed-loop replay of datagen bus-route dead-reckoning
//! logs from files through the feed spine into `StreamMiner::slide` —
//! `trajmine stream --input x.drlog`, with no HTTP and no per-event
//! checkpoint. Feed decode, §3.1 reconstruction and the stream miner's
//! delta/certify/repair do the work.

use crate::common::{self, Ctx, Report};
use crate::layers;
use crate::stats::{cpu_seconds, geomean, median, rss_mib, trim_heap};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::time::Instant;
use trajdata::Dataset;
use trajfeed::{FeedBatch, FeedOptions, SourceSpec};
use trajpattern::MinedPattern;
use trajstream::StreamMiner;

/// Logs replayed per run, per ten nominal seconds.
const LOGS_PER_TEN_SECONDS: u64 = 14;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;
/// Replays of every log in the measured phase.
const PASSES: usize = 3;

/// Feed options of a file replay (`trajmine stream` defaults, strict).
fn replay_options() -> FeedOptions {
    FeedOptions {
        follow: false,
        policy: trajdata::IngestPolicy::Strict,
        dr: trajfeed::DrConfig::default(),
        ..FeedOptions::default()
    }
}

/// What one replay of one log left behind.
struct Replay {
    records: usize,
    wall_s: f64,
    cpu_s: f64,
    rss_mib: f64,
    topk: Vec<MinedPattern>,
    window: Dataset,
}

/// The product path: `trajfeed::open` + `pump` into `slide`, timed from
/// opening the log until its last record has slid in.
fn replay(path: &Path) -> Result<Replay, String> {
    let (grid, params) = common::dr_mining();
    let mut miner = StreamMiner::new(grid, params).map_err(|e| e.to_string())?;
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut feed = trajfeed::open(&SourceSpec::Dr(path.to_path_buf()), &replay_options())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let stop = AtomicBool::new(false);
    let mut records = 0;
    trajfeed::pump(
        feed.as_mut(),
        &stop,
        0,
        |traj| {
            miner.slide(traj, common::DR_WINDOW);
            records += 1;
            Ok::<(), std::convert::Infallible>(())
        },
        |_| {},
    )
    .map_err(|e| format!("{}: {e}", path.display()))?;
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    trim_heap();
    Ok(Replay {
        records,
        wall_s,
        cpu_s,
        rss_mib: rss_mib(),
        topk: miner.topk().to_vec(),
        window: miner.window_dataset(),
    })
}

/// The traced replay: the pump loop spelled out, one span per
/// `next_batch` and per `slide`.
fn replay_traced(
    path: &Path,
    tracer: &mut Tracer,
    counters: &mut layers::Counters,
) -> Result<Vec<MinedPattern>, String> {
    let (grid, params) = common::dr_mining();
    let mut miner = StreamMiner::new(grid, params).map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let mut record = 0u64;
    let mut feed = tracer
        .span("trajfeed", "open", record, || {
            trajfeed::open(&SourceSpec::Dr(path.to_path_buf()), &replay_options())
        })
        .map_err(|e| format!("{}: {e}", path.display()))?;
    loop {
        let batch = tracer
            .span("trajfeed", "next_batch", record, || feed.next_batch(&stop))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let FeedBatch::Records(trajs) = batch else {
            break;
        };
        for traj in trajs {
            counters.slide(tracer, &mut miner, traj, common::DR_WINDOW, record);
            record += 1;
        }
    }
    counters.finish(feed.stats(), &miner);
    Ok(miner.topk().to_vec())
}

fn setup(ctx: &Ctx) -> Result<Vec<PathBuf>, String> {
    let n = (LOGS_PER_TEN_SECONDS * ctx.seconds).div_ceil(10);
    common::dr_log_seeds(ctx.seed, n)
        .into_iter()
        .enumerate()
        .map(|(i, log_seed)| {
            let log = datagen::dr_log(&common::dr_fleet(), log_seed);
            let path = ctx.work_dir.join(format!("bus{i}.drlog"));
            std::fs::write(&path, log).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(path)
        })
        .collect()
}

pub fn run(ctx: &Ctx, trace: bool, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut logs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        logs = setup(ctx)?;
        setups.push(t.elapsed().as_secs_f64());
    }
    rep.set("setup_s", median(&setups));

    // Every log is replayed PASSES times, round-robin, and keeps its
    // fastest pass: the work repeats exactly, so that is the pass the host
    // disturbed least. The last pass is checked outside the measured
    // sections: each log's streamed top-k must equal a batch mine over its
    // final window.
    let (grid, params) = common::dr_mining();
    let mut wall = vec![f64::INFINITY; logs.len()];
    let mut cpu = vec![f64::INFINITY; logs.len()];
    let mut rss = Vec::with_capacity(logs.len());
    let mut products = Vec::with_capacity(logs.len());
    for pass in 1..=PASSES {
        for (i, path) in logs.iter().enumerate() {
            let r = replay(path)?;
            let records = r.records.max(1) as f64;
            wall[i] = wall[i].min(r.wall_s / records);
            cpu[i] = cpu[i].min(r.cpu_s / records);
            if pass < PASSES {
                continue;
            }
            rss.push(r.rss_mib);
            rep.ok(r.records as u64);
            let reference = common::mine(&r.window, &grid, &params);
            rep.op(common::same_topk(&reference.patterns, &r.topk), || {
                format!("log {i}: streamed top-k differs from Miner::mine over the final window")
            });
            products.push((r.wall_s, r.topk));
        }
    }
    let untraced_s: f64 = products.iter().map(|(s, _)| s).sum();

    if trace {
        let mut tracer = Tracer::new(true);
        let mut counters = layers::Counters::default();
        let t = Instant::now();
        let mut finals = Vec::with_capacity(logs.len());
        for path in &logs {
            finals.push(replay_traced(path, &mut tracer, &mut counters)?);
        }
        let traced_s = t.elapsed().as_secs_f64();
        for (i, (traced, (_, product))) in finals.iter().zip(&products).enumerate() {
            rep.op(common::same_topk(traced, product), || {
                format!("log {i}: traced replay's final top-k differs from the product's")
            });
        }
        counters.report(&tracer, rep);
        rep.set("trace.coverage", tracer.coverage(traced_s));
        rep.set("trace.overhead_s", traced_s - untraced_s);
        tracer
            .write(&ctx.trace_path)
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    rep.set("op_ms", geomean(&wall) * 1e3);
    rep.set("op_cpu_ms", geomean(&cpu) * 1e3);
    rep.set("process.rss_mib", median(&rss));
    Ok(())
}
