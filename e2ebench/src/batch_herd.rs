//! `batch-herd`: the paper's Fig. 4 path — `Miner::mine` repeated
//! in-process over in-memory ZebraNet-style herd datasets. Only the
//! engine, scorer and pattern index do work here.

use crate::common::{self, Ctx, Report};
use crate::stats::{cpu_seconds, mean, median, rss_mib, trim_heap};
use crate::trace::Tracer;
use bench::fig4::Fig4Config;
use std::time::Instant;
use trajdata::Dataset;
use trajgeo::Grid;
use trajpattern::{MiningOutcome, MiningParams};

/// Distinct datasets per run, per nominal second.
const DATASETS_PER_SECOND: u64 = 5;
/// Times each dataset is mined in the measured phase.
const REPS: usize = 4;
/// Set-up repetitions whose median is `setup_s`.
const SETUPS: usize = 5;

/// The Fig. 4 base configuration (S 60, L 40, G 12², k 10, lengths up
/// to 6, δ 0.03), with two departures: the thread count is set to one,
/// and `min_len` is 2 so that every returned NM can be re-scored
/// through the unindexed scorer (singular NMs are folded differently
/// while mining).
fn fig4_base() -> (Fig4Config, MiningParams) {
    let cfg = Fig4Config::default();
    let params = MiningParams::new(cfg.k, cfg.delta)
        .and_then(|p| p.with_min_len(2))
        .and_then(|p| p.with_max_len(cfg.max_len))
        .and_then(|p| p.with_threads(1))
        .expect("the Fig. 4 base parameters are valid");
    (cfg, params)
}

/// Generates the datasets and loads them back through the JSON dataset
/// format `trajmine mine --input` reads.
fn setup(ctx: &Ctx) -> (Grid, Vec<Dataset>) {
    let (cfg, _) = fig4_base();
    let mut grid = None;
    let data = (0..DATASETS_PER_SECOND * ctx.seconds)
        .map(|i| {
            let w = bench::workloads::zebranet_workload(
                cfg.s,
                cfg.l,
                cfg.grid_side,
                common::sub_seed(ctx.seed, i),
            );
            grid = Some(w.grid);
            Dataset::from_json(&w.data.to_json()).expect("a written dataset loads back")
        })
        .collect();
    (grid.expect("at least one dataset"), data)
}

/// Wall and CPU seconds of each mine of one dataset, and the resident
/// set (MiB) right after it.
#[derive(Clone, Default)]
struct Times {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    rss: Vec<f64>,
}

/// Mines every dataset `reps` times, round-robin; returns each
/// dataset's mine times and its last outcome.
fn mine_all(
    grid: &Grid,
    data: &[Dataset],
    reps: usize,
    tracer: &mut Tracer,
) -> (Vec<Times>, Vec<MiningOutcome>) {
    let (_, params) = fig4_base();
    let mut times = vec![Times::default(); data.len()];
    let mut last = Vec::with_capacity(data.len());
    for rep in 0..reps {
        for (i, d) in data.iter().enumerate() {
            let cpu0 = cpu_seconds();
            let t = Instant::now();
            let out = tracer.span("trajpattern", "mine", i as u64, || {
                common::mine(std::hint::black_box(d), grid, &params)
            });
            times[i].wall.push(t.elapsed().as_secs_f64());
            times[i].cpu.push(cpu_seconds() - cpu0);
            trim_heap();
            times[i].rss.push(rss_mib());
            if rep == 0 {
                last.push(out);
            } else {
                last[i] = out;
            }
        }
    }
    (times, last)
}

/// The median resident set over every mine.
fn median_rss(times: &[Times]) -> f64 {
    let rss: Vec<f64> = times.iter().flat_map(|t| t.rss.iter().copied()).collect();
    median(&rss)
}

/// Re-scores every returned pattern through the unindexed scorer: the
/// NM must match bit for bit.
fn check_outcomes(grid: &Grid, data: &[Dataset], outcomes: &[MiningOutcome], rep: &mut Report) {
    let (_, params) = fig4_base();
    for (i, (d, out)) in data.iter().zip(outcomes).enumerate() {
        rep.op(out.patterns.len() == params.k, || {
            format!(
                "dataset {i}: mined {} patterns, want {}",
                out.patterns.len(),
                params.k
            )
        });
        for m in &out.patterns {
            let nm = common::rescore(d, grid, &params, &m.pattern);
            rep.op(nm.to_bits() == m.nm.to_bits(), || {
                format!(
                    "dataset {i}: {:?} mined NM {} but re-scores to {nm}",
                    m.pattern, m.nm
                )
            });
        }
    }
}

pub fn run(ctx: &Ctx, trace: bool, rep: &mut Report) -> Result<(), String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = Some(setup(ctx));
        setups.push(t.elapsed().as_secs_f64());
    }
    let (grid, data) = inputs.expect("at least one set-up");
    rep.set("setup_s", median(&setups));

    if trace {
        let reps = (REPS / 2).max(1);
        let t = Instant::now();
        let (_, plain) = mine_all(&grid, &data, reps, &mut Tracer::new(false));
        let untraced_s = t.elapsed().as_secs_f64();
        let mut tracer = Tracer::new(true);
        let t = Instant::now();
        let (times, traced) = mine_all(&grid, &data, reps, &mut tracer);
        let traced_s = t.elapsed().as_secs_f64();
        for (i, (a, b)) in plain.iter().zip(&traced).enumerate() {
            rep.op(common::same_topk(&a.patterns, &b.patterns), || {
                format!("dataset {i}: traced mine differs from the untraced one")
            });
        }
        check_outcomes(&grid, &data, &traced, rep);
        let n = traced.len() as f64;
        let sum = |f: &dyn Fn(&MiningOutcome) -> f64| traced.iter().map(f).sum::<f64>() / n;
        let generated = sum(&|o| o.stats.candidates_generated as f64);
        let scored = sum(&|o| o.stats.candidates_scored as f64);
        let all: Vec<f64> = times.iter().flat_map(|t| t.wall.iter().copied()).collect();
        rep.set("process.rss_mib", median_rss(&times));
        rep.set("trajpattern.mine_ms", mean(&all) * 1e3);
        rep.set("trajpattern.candidates_generated", generated);
        rep.set("trajpattern.candidates_scored", scored);
        rep.set(
            "trajpattern.candidates_bound_pruned",
            sum(&|o| o.stats.candidates_bound_pruned as f64),
        );
        rep.set("trajpattern.scored_frac", scored / generated.max(1.0));
        rep.set(
            "trajpattern.nm_evaluations",
            sum(&|o| o.stats.nm_evaluations as f64),
        );
        rep.set(
            "trajpattern.scorer_scorings",
            sum(&|o| o.scorer.scorings as f64),
        );
        rep.set(
            "trajpattern.cached_cells",
            sum(&|o| o.scorer.cached_cells as f64),
        );
        rep.set("trace.coverage", tracer.coverage(traced_s));
        rep.set("trace.overhead_s", traced_s - untraced_s);
        tracer
            .write(&ctx.trace_path)
            .map_err(|e| format!("writing spans: {e}"))?;
        return Ok(());
    }

    let (times, outcomes) = mine_all(&grid, &data, REPS, &mut Tracer::new(false));
    rep.ok((data.len() * REPS) as u64);
    check_outcomes(&grid, &data, &outcomes, rep);

    // A dataset's mines repeat the same work, so its fastest is the one
    // the host disturbed least.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let wall: Vec<f64> = times.iter().map(|t| fastest(&t.wall)).collect();
    let cpu: Vec<f64> = times.iter().map(|t| fastest(&t.cpu)).collect();
    rep.set("op_ms", median(&wall) * 1e3);
    rep.set("op_cpu_ms", median(&cpu) * 1e3);
    rep.set("process.rss_mib", median_rss(&times));
    Ok(())
}
