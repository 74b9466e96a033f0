//! `e2ebench`: one benchmark for the paths users run.
//!
//! ```text
//! cargo run --offline --release --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload batch-herd --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `README.md` in this directory for why each exists,
//! which layers do its work, and the per-layer predictions):
//!
//! - `batch-herd`: repeated `Miner::mine` over in-memory herd datasets;
//! - `replay-bus`: dead-reckoning logs replayed from files through the
//!   feed spine into `StreamMiner::slide`;
//! - `live-dr`: a live `Fleet` with one `dr+tcp://` shard and a
//!   checkpoint, fed at a fixed record rate while a reader queries it;
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced replay and reports the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. An output that fails a check counts as a failed
//! operation and makes `correct` false.

mod batch_herd;
mod common;
mod http;
mod layers;
mod live_dr;
mod replay_bus;
mod stats;
mod trace;

use common::{Ctx, Report};
use std::path::PathBuf;

/// End-to-end metrics: every workload reports each of them, measured
/// on its own user operation (see `README.md`).
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_ms", "ms"), ("op_cpu_ms", "ms")];

/// Per-layer metrics of the traced run; a layer a workload never calls
/// reports zero.
const PER_LAYER: &[(&str, &str)] = &[
    ("trajpattern.mine_ms", "ms"),
    ("trajpattern.candidates_generated", "count"),
    ("trajpattern.candidates_scored", "count"),
    ("trajpattern.candidates_bound_pruned", "count"),
    ("trajpattern.scored_frac", "ratio"),
    ("trajpattern.nm_evaluations", "count"),
    ("trajpattern.scorer_scorings", "count"),
    ("trajpattern.cached_cells", "count"),
    ("trajfeed.next_batch_ms", "ms"),
    ("trajfeed.records", "count"),
    ("trajfeed.reconstructed", "count"),
    ("trajfeed.resampled_points", "count"),
    ("trajfeed.defect_lines", "count"),
    ("trajstream.slide_delta_ms", "ms"),
    ("trajstream.slide_repair_ms", "ms"),
    ("trajstream.repair_rate", "ratio"),
    ("trajstream.repair_scored", "count"),
    ("trajstream.deltas_applied", "count"),
    ("trajstream.certified", "count"),
    ("trajstream.ledger_patterns", "count"),
    ("trajstream.checkpoint_ms", "ms"),
    ("trajstream.checkpoint_bytes", "bytes"),
    ("trajstream.checkpoints", "count"),
    ("trajquery.build_ms", "ms"),
    ("trajquery.prange_ms", "ms"),
    ("trajquery.pnn_ms", "ms"),
    ("trajserve.snapshot_ms", "ms"),
    ("trajserve.route.v1_topk_shard_p50_ms", "ms"),
    ("trajserve.route.v1_prange_p50_ms", "ms"),
    ("trajserve.route.v1_pnn_p50_ms", "ms"),
    ("trajserve.http_overhead_ms", "ms"),
    ("trajserve.read_p50_ms", "ms"),
    ("trajserve.read_p99_ms", "ms"),
    ("trajfleet.publishes", "count"),
    ("trajfleet.publish_frac", "ratio"),
    ("trajfleet.backlog_max", "records"),
    ("trajfleet.lag_p50_ms", "ms"),
    ("trajfleet.lag_p95_ms", "ms"),
    ("trajfleet.sustained_records_per_s", "records/s"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("process.rss_mib", "MiB"),
    ("process.peak_rss_mib", "MiB"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_: std::num::ParseIntError| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(bad)? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work_dir: out_dir.join(format!("{}-{}", args.workload, std::process::id())),
        trace_path: out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed)),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("error: cannot create {}: {e}", ctx.work_dir.display());
        std::process::exit(2);
    }
    let mut rep = Report::default();
    let run = match args.workload.as_str() {
        "batch-herd" => batch_herd::run,
        "replay-bus" => replay_bus::run,
        "live-dr" => live_dr::run,
        other => {
            eprintln!("error: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let outcome = run(&ctx, args.trace, &mut rep);
    std::fs::remove_dir_all(&ctx.work_dir).ok();
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    if args.trace {
        rep.set("process.peak_rss_mib", stats::peak_rss_mib());
        // The traced run's gate: layer self times must account for at
        // least 90% of its wall time.
        let coverage = rep.values.get("trace.coverage").copied().unwrap_or(0.0);
        rep.op(coverage >= 0.9, || {
            format!("layer self times cover only {coverage:.3} of the traced wall")
        });
    }

    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for name in rep.values.keys() {
        let known = END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| n == name);
        assert!(known, "workload reported undeclared metric {name}");
    }
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = rep.values.get(name).copied();
        if !args.trace {
            let ok = value.is_some_and(|v| v.is_finite() && v > 0.0);
            rep.op(ok, || {
                format!("end-to-end metric {name} missing or not positive: {value:?}")
            });
        }
        let value = value.unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    );
}
