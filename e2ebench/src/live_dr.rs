//! `live-dr`: `Fleet::launch` with one `dr+tcp://` shard and a
//! checkpoint file, CI `feed-smoke`'s live configuration, fed at a fixed
//! record rate while one reader connection queries it.
//!
//! A run is a series of sessions, each with its own fleet and its own
//! bus log. In set-up the producer sends every `dr` report line and the
//! first [`WARM`] `end` lines, and the session is ready once those
//! records are visible. In the measured phase it sends the remaining
//! `end` lines — each completes one record — in an open loop at
//! [`RATE`]. The reader sends `/v1/topk?shard=`, `/v1/prange` and
//! `/v1/pnn` on a fixed schedule and polls `/v1/shards`: a record's lag
//! runs from its scheduled send time until the shard's feed `records`
//! counter covers it.

use crate::common::{self, Ctx, Report};
use crate::http::{requests_total, Client};
use crate::layers;
use crate::stats::{
    cpu_seconds, geomean, mean, median, quantile, rss_mib, thread_cpu_seconds, trim_heap,
};
use crate::trace::Tracer;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use trajdata::Dataset;
use trajfeed::{FeedBatch, FeedOptions, SourceSpec};
use trajfleet::{Fleet, FleetConfig, ShardSource, ShardSpec};
use trajpattern::MinedPattern;
use trajquery::QuerySet;
use trajserve::{FleetState, Loaded, Snapshot};
use trajstream::StreamMiner;

/// Records per second the producer sends in the measured phase. Once the
/// window is full, the costliest log of the corpus sustains about 60
/// records/s closed-loop (`trajfleet.sustained_records_per_s`, the
/// slowest log's rate, on a 2-vCPU x86-64 VM). 30 records/s is about
/// half load for that log and less for every other, so that lag
/// measures ingest rather than a growing queue.
const RATE: f64 = 30.0;
/// Gap between scheduled reads.
const READ_EVERY: Duration = Duration::from_millis(8);
/// Gap between `/v1/shards` visibility polls.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// How long after the last send a record may take to become visible
/// before it counts as failed.
const DEADLINE: Duration = Duration::from_secs(30);
/// The fleet ingester's idle poll (`--poll-ms 20`, CI's `feed-smoke`).
const INGEST_POLL: Duration = Duration::from_millis(20);
/// `end` lines set-up sends, filling the sliding window, so that the
/// measured phase sees the shard's steady state: every record evicts
/// one, and every checkpoint carries a full window.
const WARM: usize = common::DR_WINDOW as usize;
/// Sessions per run, per ten nominal seconds.
const SESSIONS_PER_TEN_SECONDS: u64 = 4;
/// `end` lines the measured phase paces after the set-up ones; with
/// [`WARM`] they take 96 of a log's 99 vehicles.
const PACED: usize = 32;
/// The read mix, in schedule order.
const READS: [&str; 3] = ["v1_topk", "v1_prange", "v1_pnn"];

/// A dead-reckoning log cut to its first `keep` vehicles to end, split
/// into what set-up sends (version, shapes, those vehicles' reports) and
/// their `end` lines, in log order.
struct SplitLog {
    /// The cut log as one text, `# eof` included.
    text: String,
    head: String,
    ends: Vec<String>,
}

fn split_log(log: &str, keep: usize) -> SplitLog {
    let ends: Vec<String> = log
        .lines()
        .filter(|l| l.starts_with("end "))
        .take(keep)
        .map(|l| format!("{l}\n"))
        .collect();
    let kept: std::collections::HashSet<&str> =
        ends.iter().map(|l| l["end ".len()..].trim_end()).collect();
    let mut head = String::new();
    for line in log.lines() {
        let vehicle = line.strip_prefix("dr ").and_then(|r| r.split(' ').next());
        let keep_line = match vehicle {
            Some(v) => kept.contains(v),
            None => !line.starts_with("end ") && line != "# eof",
        };
        if keep_line {
            head.push_str(line);
            head.push('\n');
        }
    }
    let text = format!("{head}{}# eof\n", ends.concat());
    SplitLog { text, head, ends }
}

/// Accepts the shard feed's connection, giving up after `limit` so a
/// fleet that never dials cannot hang the run.
fn accept_within(listener: &TcpListener, limit: Duration) -> Result<TcpStream, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + limit;
    loop {
        match listener.accept() {
            Ok((sock, _)) => {
                sock.set_nonblocking(false).map_err(|e| e.to_string())?;
                return Ok(sock);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && Instant::now() < deadline => {
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(format!("the shard feed never connected: {e}")),
        }
    }
}

/// The fixed query points: `(x, y, t)` inside the unit square and the
/// reconstructed trajectories' time span.
fn query_points(seed: u64) -> Vec<(f64, f64, f64)> {
    let mut rng = common::Rng::new(seed ^ 0x9e4d);
    (0..16)
        .map(|_| {
            let x = 0.2 + 0.6 * rng.next_f64();
            let y = 0.2 + 0.6 * rng.next_f64();
            let t = (2.0 + 10.0 * rng.next_f64()).floor();
            (x, y, t)
        })
        .collect()
}

fn read_request(kind: usize, p: (f64, f64, f64)) -> (&'static str, String, String) {
    match kind {
        0 => ("v1_topk", "/v1/topk?shard=bus".into(), String::new()),
        1 => (
            "v1_prange",
            "/v1/prange".into(),
            format!(
                "{{\"p\":[{},{}],\"delta\":0.1,\"t\":{},\"tau\":0.05}}",
                p.0, p.1, p.2
            ),
        ),
        _ => (
            "v1_pnn",
            "/v1/pnn".into(),
            format!("{{\"p\":[{},{}],\"t\":{},\"k\":5}}", p.0, p.1, p.2),
        ),
    }
}

/// Measurements over sessions. A record's ingest cost swings several-
/// fold between logs, so `op_ms` takes each session's mean lag and then
/// the geometric mean across sessions; the per-layer tails pool every
/// sample.
#[derive(Default)]
struct Pooled {
    setup: Vec<f64>,
    lag_mean: Vec<f64>,
    cpu_per_record: Vec<f64>,
    rss: Vec<f64>,
    lag: Vec<f64>,
    reads: Vec<f64>,
    route_reads: [Vec<f64>; 3],
    late: Vec<f64>,
    backlog_max: u64,
}

/// Visible feed records of the single shard, from a `/v1/shards` body.
fn visible_records(body: &str) -> Option<u64> {
    let doc: serde_json::Value = serde_json::from_str(body).ok()?;
    doc["shards"][0]["feed"]["stats"]["records"].as_u64()
}

/// Decodes the log offline and batch-mines its last window: the answer
/// the live shard must serve.
fn reference(path: &Path) -> Result<Vec<MinedPattern>, String> {
    let opts = FeedOptions {
        follow: false,
        policy: trajdata::IngestPolicy::Strict,
        ..FeedOptions::default()
    };
    let mut feed =
        trajfeed::open(&SourceSpec::Dr(path.to_path_buf()), &opts).map_err(|e| e.to_string())?;
    let all = trajfeed::drain(feed.as_mut(), &AtomicBool::new(false)).map_err(|e| e.to_string())?;
    let skip = all.len().saturating_sub(common::DR_WINDOW as usize);
    let window: Dataset = all.into_iter().skip(skip).collect();
    let (grid, params) = common::dr_mining();
    Ok(common::mine(&window, &grid, &params).patterns)
}

/// One paced session against a live fleet. Returns its log and the
/// served final top-k.
fn session(
    ctx: &Ctx,
    index: usize,
    log_seed: u64,
    pooled: &mut Pooled,
    rep: &mut Report,
) -> Result<(SplitLog, Vec<MinedPattern>), String> {
    let setup_start = Instant::now();
    let log = split_log(
        &datagen::dr_log(&common::dr_fleet(), log_seed),
        WARM + PACED,
    );
    let dir = ctx.work_dir.join(format!("live{index}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let log_path = dir.join("bus.drlog");
    std::fs::write(&log_path, &log.text).map_err(|e| e.to_string())?;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let feed_addr = listener.local_addr().map_err(|e| e.to_string())?;
    let (grid, params) = common::dr_mining();
    let fleet = Fleet::launch(
        vec![ShardSpec {
            name: "bus".into(),
            source: ShardSource::DrTcp(feed_addr.to_string()),
            checkpoint: Some(dir.join("bus.ckpt")),
        }],
        FleetConfig {
            grid,
            params,
            window: common::DR_WINDOW,
            poll: INGEST_POLL,
            growth_rate: 0.0,
            policy: trajdata::IngestPolicy::Strict,
            dr: trajfeed::DrConfig::default(),
        },
        common::server_config(),
    )
    .map_err(|e| format!("fleet launch: {e}"))?;
    let http_addr = fleet.local_addr().map_err(|e| e.to_string())?;
    let handle = fleet.handle();
    let fleet_thread = thread::spawn(move || fleet.run());

    // The producer: set-up lines at once, then the paced `end` lines.
    let warm = WARM.min(log.ends.len() - 1);
    let (go_tx, go_rx) = mpsc::channel::<Instant>();
    let sent = Arc::new(AtomicU64::new(0));
    let sent_by_producer = Arc::clone(&sent);
    let head = log.head.clone();
    let ends = log.ends.clone();
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let producer = thread::spawn(move || -> Result<Vec<f64>, String> {
        let mut sock = accept_within(&listener, Duration::from_secs(30))?;
        sock.set_nodelay(true).map_err(|e| e.to_string())?;
        sock.write_all(head.as_bytes()).map_err(|e| e.to_string())?;
        sock.write_all(ends[..warm].concat().as_bytes())
            .map_err(|e| e.to_string())?;
        sent_by_producer.store(warm as u64, Ordering::SeqCst);
        let t0 = go_rx.recv().map_err(|e| e.to_string())?;
        let mut late = Vec::with_capacity(ends.len() - warm);
        for (j, line) in ends[warm..].iter().enumerate() {
            let due = t0 + interval * j as u32;
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            sock.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
            late.push(Instant::now().duration_since(due).as_secs_f64());
            sent_by_producer.store((warm + j + 1) as u64, Ordering::SeqCst);
        }
        sock.write_all(b"# eof\n").map_err(|e| e.to_string())?;
        Ok(late)
    });

    let result = drive(
        http_addr,
        &log,
        warm,
        setup_start,
        go_tx,
        &sent,
        interval,
        &log_path,
        ctx.seed,
        pooled,
        rep,
    );
    handle.shutdown();
    let served = fleet_thread
        .join()
        .map_err(|_| "fleet thread panicked".to_string())?;
    let late = producer
        .join()
        .map_err(|_| "producer thread panicked".to_string())?;
    let topk = result?;
    served.map_err(|e| format!("fleet: {e}"))?;
    pooled.late.extend(late?);
    Ok((log, topk))
}

/// The reader side of one session: readiness, the paced phase, and the
/// final checks.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: std::net::SocketAddr,
    log: &SplitLog,
    warm: usize,
    setup_start: Instant,
    go: mpsc::Sender<Instant>,
    sent: &AtomicU64,
    interval: Duration,
    log_path: &Path,
    seed: u64,
    pooled: &mut Pooled,
    rep: &mut Report,
) -> Result<Vec<MinedPattern>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut counts = [0u64; 4]; // topk, prange, pnn, shards
    let poll = |client: &mut Client, counts: &mut [u64; 4]| -> Result<u64, String> {
        counts[3] += 1;
        let (status, body) = client.get("/v1/shards").map_err(|e| e.to_string())?;
        if status != 200 {
            return Err(format!("/v1/shards answered {status}"));
        }
        Ok(visible_records(&body).unwrap_or(0))
    };
    let ready_by = Instant::now() + Duration::from_secs(60);
    while poll(&mut client, &mut counts)? < warm as u64 {
        if Instant::now() > ready_by {
            return Err("the set-up records never became visible".into());
        }
        thread::sleep(Duration::from_micros(250));
    }
    pooled.setup.push(setup_start.elapsed().as_secs_f64());

    let paced = log.ends.len() - warm;
    let points = query_points(seed);
    let t0 = Instant::now() + Duration::from_millis(5);
    let (cpu0, reader_cpu0) = (cpu_seconds(), thread_cpu_seconds());
    go.send(t0).map_err(|e| e.to_string())?;
    let due = |k: usize| t0 + interval * (k as u32 - 1); // record k = 1..=paced
    let span = interval * paced as u32;
    let total_reads = (span.as_secs_f64() / READ_EVERY.as_secs_f64()).ceil() as usize;
    let deadline = due(paced) + DEADLINE;
    // Paced record k (1..=paced) is visible once `warm + k` are.
    let mut visible_at: Vec<Option<Instant>> = vec![None; paced + 1];
    let mut reads = Vec::with_capacity(total_reads);
    let mut reads_done = 0usize;
    let mut next_poll = t0;
    loop {
        let now = Instant::now();
        if reads_done < total_reads && now >= t0 + READ_EVERY * reads_done as u32 {
            let read_due = t0 + READ_EVERY * reads_done as u32;
            let kind = reads_done % READS.len();
            let (_, path, body) = read_request(kind, points[(reads_done / 3) % points.len()]);
            let answer = if body.is_empty() {
                client.get(&path)
            } else {
                client.post(&path, &body)
            };
            let ok = matches!(answer, Ok((200, _)));
            let took = read_due.elapsed().as_secs_f64();
            reads.push(took);
            pooled.route_reads[kind].push(took);
            counts[kind] += 1;
            reads_done += 1;
            rep.op(ok, || format!("read {path} failed: {answer:?}"));
            continue;
        }
        if now >= next_poll {
            let seen = poll(&mut client, &mut counts)?;
            let at = Instant::now();
            let seen_paced = (seen as usize).saturating_sub(warm).min(paced);
            for slot in visible_at.iter_mut().take(seen_paced + 1).skip(1) {
                slot.get_or_insert(at);
            }
            let backlog = sent.load(Ordering::SeqCst).saturating_sub(seen);
            pooled.backlog_max = pooled.backlog_max.max(backlog);
            next_poll = at + POLL_EVERY;
            if seen_paced == paced && reads_done >= total_reads {
                break;
            }
            if at > deadline {
                break;
            }
            continue;
        }
        let mut wake = next_poll;
        if reads_done < total_reads {
            wake = wake.min(t0 + READ_EVERY * reads_done as u32);
        }
        if let Some(wait) = wake.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
    }
    // The product's CPU: the process's, less this reader thread's own.
    // The producer's share, writing the paced lines, stays in; it is
    // well under 1%.
    let cpu = (cpu_seconds() - cpu0) - (thread_cpu_seconds() - reader_cpu0);
    pooled.cpu_per_record.push(cpu / paced as f64);
    trim_heap();
    pooled.rss.push(rss_mib());
    let mut lag = Vec::with_capacity(paced);
    for (k, at) in visible_at.iter().enumerate().skip(1) {
        match at {
            Some(at) => {
                lag.push(at.duration_since(due(k)).as_secs_f64());
                rep.ok(1);
            }
            None => rep.op(false, || format!("record {k} not visible by the deadline")),
        }
    }
    pooled.lag_mean.push(mean(&lag));
    pooled.lag.extend(lag);
    pooled.reads.extend(reads);

    // Final checks: the served top-k against the offline decode, and the
    // requests sent per route against the server's own counters.
    let (status, body) = client
        .get("/v1/topk?shard=bus")
        .map_err(|e| e.to_string())?;
    counts[0] += 1;
    let served = Snapshot::parse(&body)
        .map_err(|e| format!("/v1/topk?shard=bus answered {status}: {e}"))?
        .patterns;
    let want = reference(log_path)?;
    rep.op(common::same_topk(&served, &want), || {
        format!(
            "served top-k differs from Miner::mine over the offline-decoded last window\n  served {:?}\n  want   {:?}",
            served.iter().map(|m| (m.pattern.cells().iter().map(|c| c.0).collect::<Vec<_>>(), m.nm)).collect::<Vec<_>>(),
            want.iter().map(|m| (m.pattern.cells().iter().map(|c| c.0).collect::<Vec<_>>(), m.nm)).collect::<Vec<_>>()
        )
    });
    let (_, metrics) = client.get("/metrics").map_err(|e| e.to_string())?;
    for (i, route) in READS.iter().chain(["v1_shards"].iter()).enumerate() {
        let counted = requests_total(&metrics, route);
        rep.op(counted == Some(counts[i]), || {
            format!(
                "/metrics counts {counted:?} {route} requests, the reader sent {}",
                counts[i]
            )
        });
    }
    Ok(served)
}

/// Counters of the traced ingest replay beyond the shared ones.
#[derive(Default)]
struct Traced {
    layers: layers::Counters,
    publishes: u64,
    checkpoint_bytes: Vec<f64>,
    /// Per log, records per second once the window filled.
    steady_rates: Vec<f64>,
}

/// Replays a log over a `dr+tcp://` feed through the calls
/// `trajfleet`'s shard ingester makes, in its order: `next_batch` →
/// `slide` → `QuerySet::build` → on a `topk_version` tick
/// `Snapshot::from_stream` + `Loaded::build` + `FleetState::swap` +
/// checkpoint — plus the reader's queries as library calls, at the
/// paced run's reads-per-record ratio. Unpaced: the producer sends the
/// whole log at once.
fn ingest_replay(
    log: &SplitLog,
    dir: &Path,
    seed: u64,
    tracer: &mut Tracer,
    c: &mut Traced,
) -> Result<Vec<MinedPattern>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let text = log.text.clone();
    let producer = thread::spawn(move || -> Result<(), String> {
        let mut sock = accept_within(&listener, Duration::from_secs(30))?;
        sock.write_all(text.as_bytes()).map_err(|e| e.to_string())
    });
    let (grid, params) = common::dr_mining();
    let mut miner = StreamMiner::new(grid, params).map_err(|e| e.to_string())?;
    let initial = Loaded::build(Snapshot::from_stream(&miner), 0.9).map_err(|e| e.to_string())?;
    let state =
        FleetState::new(vec![("bus".into(), Arc::new(initial))]).map_err(|e| e.to_string())?;
    let opts = FeedOptions {
        follow: true,
        poll: INGEST_POLL,
        policy: trajdata::IngestPolicy::Strict,
        dr: trajfeed::DrConfig::default(),
        ..FeedOptions::default()
    };
    let ckpt = dir.join("replay.ckpt");
    let stop = AtomicBool::new(false);
    let points = query_points(seed);
    let reads_per_record = (1.0 / RATE) / READ_EVERY.as_secs_f64();
    let mut read_credit = 0.0;
    let mut reads = 0usize;
    let mut record = 0u64;
    let mut last_version = miner.topk_version();
    let mut steady_start = None;
    let mut feed = tracer
        .span("trajfeed", "open", 0, || {
            trajfeed::open(&SourceSpec::DrTcp(addr.to_string()), &opts)
        })
        .map_err(|e| e.to_string())?;
    loop {
        let batch = tracer
            .span("trajfeed", "next_batch", record, || feed.next_batch(&stop))
            .map_err(|e| e.to_string())?;
        let FeedBatch::Records(trajs) = batch else {
            break;
        };
        for traj in trajs {
            if record == WARM as u64 {
                steady_start = Some(Instant::now());
            }
            let step = tracer.begin("trajfleet", "ingest", record);
            c.layers
                .slide(tracer, &mut miner, traj, common::DR_WINDOW, record);
            let set = tracer.span("trajquery", "build", record, || {
                let objects = miner.window().map(|(s, t)| (s, t.clone())).collect();
                QuerySet::build(objects, 0.0)
            });
            tracer.span("trajserve", "swap_window", record, || {
                state.swap_window("bus", Arc::new(set))
            });
            if miner.topk_version() != last_version {
                last_version = miner.topk_version();
                let loaded = tracer
                    .span("trajserve", "snapshot", record, || {
                        Loaded::build(Snapshot::from_stream(&miner), 0.9)
                    })
                    .map_err(|e| e.to_string())?;
                tracer.span("trajserve", "swap", record, || {
                    state.swap("bus", Arc::new(loaded))
                });
                tracer
                    .span("trajstream", "checkpoint", record, || {
                        miner.checkpoint(&ckpt)
                    })
                    .map_err(|e| e.to_string())?;
                c.publishes += 1;
                let bytes = std::fs::metadata(&ckpt).map(|m| m.len()).unwrap_or(0);
                c.checkpoint_bytes.push(bytes as f64);
            }
            tracer.end(step);
            read_credit += reads_per_record;
            while read_credit >= 1.0 {
                read_credit -= 1.0;
                let p = points[(reads / 3) % points.len()];
                let at = trajgeo::Point2::new(p.0, p.1);
                let ok = match reads % READS.len() {
                    0 => tracer.span("trajserve", "topk", record, || {
                        state.shard("bus").is_some_and(|l| !l.topk_json.is_empty())
                    }),
                    1 => tracer.span("trajquery", "prange", record, || {
                        state
                            .window("bus")
                            .is_some_and(|w| w.prange(at, 0.1, p.2, 0.05).is_ok())
                    }),
                    _ => tracer.span("trajquery", "pnn", record, || {
                        state
                            .window("bus")
                            .is_some_and(|w| w.pnn(at, p.2, 5, 0.0, 0.0625).is_ok())
                    }),
                };
                if !ok {
                    return Err("a library read failed".into());
                }
                reads += 1;
            }
            record += 1;
        }
        let stats = feed.stats().clone();
        tracer.span("trajserve", "feed_stats", record, || {
            state.swap_feed_stats("bus", "dr+tcp", stats)
        });
    }
    if let Some(start) = steady_start {
        c.steady_rates
            .push((record - WARM as u64) as f64 / start.elapsed().as_secs_f64());
    }
    tracer
        .span("trajstream", "checkpoint", record, || {
            miner.checkpoint(&ckpt)
        })
        .map_err(|e| e.to_string())?;
    producer
        .join()
        .map_err(|_| "replay producer panicked".to_string())??;
    c.layers.finish(feed.stats(), &miner);
    Ok(miner.topk().to_vec())
}

pub fn run(ctx: &Ctx, trace: bool, rep: &mut Report) -> Result<(), String> {
    let sessions = (SESSIONS_PER_TEN_SECONDS * ctx.seconds).div_ceil(10);
    let mut pooled = Pooled::default();
    let mut logs = Vec::with_capacity(sessions as usize);
    let mut served = Vec::with_capacity(sessions as usize);
    for (i, log_seed) in common::dr_log_seeds(ctx.seed, sessions)
        .into_iter()
        .enumerate()
    {
        let (log, topk) = session(ctx, i, log_seed, &mut pooled, rep)?;
        logs.push(log);
        served.push(topk);
    }

    if trace {
        let mut plain = Traced::default();
        let t = Instant::now();
        for (i, log) in logs.iter().enumerate() {
            let dir = ctx.work_dir.join(format!("live{i}"));
            ingest_replay(log, &dir, ctx.seed, &mut Tracer::new(false), &mut plain)?;
        }
        let untraced_s = t.elapsed().as_secs_f64();
        // The unpaced replay is closed-loop: its record rate once the
        // window is full is what the shard sustains in the paced phase's
        // steady state. The costliest log sets the rate every log keeps
        // up with, against which the paced rate is about half load.
        rep.set(
            "trajfleet.sustained_records_per_s",
            quantile(&plain.steady_rates, 0.0),
        );
        let mut tracer = Tracer::new(true);
        let mut c = Traced::default();
        let t = Instant::now();
        for (i, log) in logs.iter().enumerate() {
            let dir = ctx.work_dir.join(format!("live{i}"));
            let topk = ingest_replay(log, &dir, ctx.seed, &mut tracer, &mut c)?;
            rep.op(common::same_topk(&topk, &served[i]), || {
                format!("session {i}: traced replay's final top-k differs from the fleet's")
            });
        }
        let traced_s = t.elapsed().as_secs_f64();
        c.layers.report(&tracer, rep);
        let records = c.layers.records().max(1) as f64;
        let ckpt = tracer.op("trajstream", "checkpoint");
        rep.set("trajstream.checkpoint_ms", ckpt.mean_ms());
        rep.set(
            "trajstream.checkpoint_bytes",
            crate::stats::mean(&c.checkpoint_bytes),
        );
        rep.set("trajstream.checkpoints", ckpt.count as f64);
        rep.set(
            "trajquery.build_ms",
            tracer.op("trajquery", "build").mean_ms(),
        );
        rep.set(
            "trajquery.prange_ms",
            tracer.op("trajquery", "prange").mean_ms(),
        );
        rep.set("trajquery.pnn_ms", tracer.op("trajquery", "pnn").mean_ms());
        rep.set(
            "trajserve.snapshot_ms",
            tracer.op("trajserve", "snapshot").mean_ms(),
        );
        rep.set(
            "trajserve.route.v1_topk_shard_p50_ms",
            median(&pooled.route_reads[0]) * 1e3,
        );
        rep.set(
            "trajserve.route.v1_prange_p50_ms",
            median(&pooled.route_reads[1]) * 1e3,
        );
        rep.set(
            "trajserve.route.v1_pnn_p50_ms",
            median(&pooled.route_reads[2]) * 1e3,
        );
        let mut library = tracer.durations("trajserve", "topk");
        library.extend(tracer.durations("trajquery", "prange"));
        library.extend(tracer.durations("trajquery", "pnn"));
        rep.set(
            "trajserve.http_overhead_ms",
            (median(&pooled.reads) - median(&library)) * 1e3,
        );
        rep.set("trajfleet.lag_p50_ms", median(&pooled.lag) * 1e3);
        rep.set("trajfleet.lag_p95_ms", quantile(&pooled.lag, 0.95) * 1e3);
        rep.set("trajserve.read_p50_ms", median(&pooled.reads) * 1e3);
        rep.set("trajserve.read_p99_ms", quantile(&pooled.reads, 0.99) * 1e3);
        rep.set("trajfleet.publishes", c.publishes as f64);
        rep.set("trajfleet.publish_frac", c.publishes as f64 / records);
        rep.set("trajfleet.backlog_max", pooled.backlog_max as f64);
        rep.set("loadgen.late_p99_ms", quantile(&pooled.late, 0.99) * 1e3);
        rep.set("loadgen.late_max_ms", quantile(&pooled.late, 1.0) * 1e3);
        rep.set("trace.coverage", tracer.coverage(traced_s));
        rep.set("trace.overhead_s", traced_s - untraced_s);
        tracer
            .write(&ctx.trace_path)
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    rep.set("setup_s", median(&pooled.setup));
    rep.set("op_ms", geomean(&pooled.lag_mean) * 1e3);
    rep.set("op_cpu_ms", geomean(&pooled.cpu_per_record) * 1e3);
    rep.set("process.rss_mib", median(&pooled.rss));
    Ok(())
}
