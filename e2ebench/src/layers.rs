//! The stream-ingest counters both traced replays read off the layers,
//! and the per-layer metrics they become.

use crate::common::Report;
use crate::trace::Tracer;
use trajdata::Trajectory;
use trajfeed::FeedStats;
use trajstream::StreamMiner;

/// Feed, stream-miner and repair-mining counters summed over replays.
#[derive(Default)]
pub struct Counters {
    feed: FeedStats,
    arrivals: u64,
    repairs: u64,
    repair_scored: u64,
    deltas_applied: u64,
    certified: u64,
    ledger: Vec<f64>,
    generated: u64,
    scored: u64,
    bound_pruned: u64,
    nm_evaluations: u64,
    scorings: u64,
    cached_cells: u64,
}

impl Counters {
    /// `miner.slide` inside a span that is named a delta or a repair
    /// once the slide has returned; a repair's mining work is counted.
    pub fn slide(
        &mut self,
        tracer: &mut Tracer,
        miner: &mut StreamMiner,
        traj: Trajectory,
        window: u64,
        record: u64,
    ) {
        let repairs = miner.stats().repairs;
        let id = tracer.begin("trajstream", "slide", record);
        miner.slide(traj, window);
        let repaired = miner.stats().repairs > repairs;
        tracer.end_as(id, Some(if repaired { "repair" } else { "delta" }));
        if repaired {
            let m = miner.last_mining_stats();
            self.generated += m.candidates_generated;
            self.scored += m.candidates_scored;
            self.bound_pruned += m.candidates_bound_pruned;
            self.nm_evaluations += m.nm_evaluations;
            let s = miner.last_scorer_stats();
            self.scorings += s.scorings;
            self.cached_cells += s.cached_cells;
        }
    }

    /// Adds a finished replay's feed and stream counters.
    pub fn finish(&mut self, feed: &FeedStats, miner: &StreamMiner) {
        self.feed.records += feed.records;
        self.feed.reconstructed += feed.reconstructed;
        self.feed.resampled_points += feed.resampled_points;
        self.feed.defect_lines += feed.defect_lines;
        let s = miner.stats();
        self.arrivals += s.arrivals;
        self.repairs += s.repairs;
        self.repair_scored += s.repair_scored;
        self.deltas_applied += s.deltas_applied;
        self.certified += s.certified;
        self.ledger.push(s.ledger_patterns as f64);
    }

    /// Records delivered by the feeds.
    pub fn records(&self) -> u64 {
        self.feed.records
    }

    /// Sets the trajpattern (repair), trajfeed and trajstream mining
    /// metrics.
    pub fn report(&self, tracer: &Tracer, rep: &mut Report) {
        let records = self.feed.records.max(1) as f64;
        let feed_s =
            tracer.op("trajfeed", "next_batch").total_s + tracer.op("trajfeed", "open").total_s;
        rep.set("trajfeed.next_batch_ms", feed_s * 1e3 / records);
        rep.set("trajfeed.records", self.feed.records as f64);
        rep.set("trajfeed.reconstructed", self.feed.reconstructed as f64);
        rep.set(
            "trajfeed.resampled_points",
            self.feed.resampled_points as f64,
        );
        rep.set("trajfeed.defect_lines", self.feed.defect_lines as f64);
        rep.set(
            "trajstream.slide_delta_ms",
            tracer.op("trajstream", "delta").mean_ms(),
        );
        rep.set(
            "trajstream.slide_repair_ms",
            tracer.op("trajstream", "repair").mean_ms(),
        );
        rep.set(
            "trajstream.repair_rate",
            self.repairs as f64 / self.arrivals.max(1) as f64,
        );
        rep.set("trajstream.repair_scored", self.repair_scored as f64);
        rep.set("trajstream.deltas_applied", self.deltas_applied as f64);
        rep.set("trajstream.certified", self.certified as f64);
        rep.set(
            "trajstream.ledger_patterns",
            crate::stats::mean(&self.ledger),
        );
        rep.set("trajpattern.candidates_generated", self.generated as f64);
        rep.set("trajpattern.candidates_scored", self.scored as f64);
        rep.set(
            "trajpattern.candidates_bound_pruned",
            self.bound_pruned as f64,
        );
        rep.set(
            "trajpattern.scored_frac",
            self.scored as f64 / self.generated.max(1) as f64,
        );
        rep.set("trajpattern.nm_evaluations", self.nm_evaluations as f64);
        rep.set("trajpattern.scorer_scorings", self.scorings as f64);
        rep.set("trajpattern.cached_cells", self.cached_cells as f64);
    }
}
