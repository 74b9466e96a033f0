//! Stream-state checkpointing: the `trajpattern-checkpoint v3` format.
//!
//! A v1 checkpoint freezes one *mining run* mid-growth; a stream
//! checkpoint freezes a [`StreamMiner`]: parameters, grid, the window
//! contents, and the contribution ledger's pattern list. It reuses the v1
//! conventions — plain line-oriented text, f64s as 16-hex-digit bit
//! patterns (exact round-trip), atomic tmp+rename writes, and the same
//! typed [`CheckpointError`] — so tooling that understands one
//! understands both.
//!
//! Only what cannot be derived is stored. A ledger row is a pure function
//! of its pattern and the window (the paper's additivity: `NM(P) =
//! Σ_{T∈D} NM(P,T)`), so each `l` line carries just the pattern's cells
//! and decoding recomputes every row with one window [`Scorer`] — the
//! same [`Scorer::nm_contributions`] kernel that produced the rows in the
//! live miner, so the rebuilt ledger is bit-identical and the resumed
//! stream behaves exactly like one that never stopped (property-tested in
//! `tests/stream_batch_identity.rs`). Resume therefore costs one ledger
//! rescore over the window (7–31 ms for a 64-record dead-reckoning
//! window with 190–4400 ledger patterns, on one x86-64 core), while
//! every checkpoint write costs only the window and the pattern list.
//! The cached top-k is stored verbatim (groups are a deterministic
//! function of it and are recomputed on load), so no maintenance pass
//! runs on resume.
//!
//! ```text
//! trajpattern-checkpoint v3
//! params <k> <delta> <min_prob> <min_len> <max_len> <bound> <one_ext> <max_iters> <threads> <gamma|->
//! grid <min.x> <min.y> <max.x> <max.y> <nx> <ny>
//! next_seq <n>
//! stats <arrivals> <evictions> <deltas> <certified> <repairs> <repair_scored> <max_depth> <degraded>
//! window <count>
//! w <seq> <points> <x> <y> <sigma> ...
//! ledger <count>
//! l <cells> <cell ids ...>
//! mstats <iterations> <generated> <scored> <pruned> <final_q> <evaluations> <degraded>
//! topk <count>
//! p <cells> <cell ids ...> <nm>
//! end
//! ```
//!
//! The previous format, `trajpattern-checkpoint v2`, is identical except
//! that each `l` line also stores one contribution per window entry. It
//! is still read (rows taken as stored) so existing checkpoints resume;
//! it is no longer written.

use crate::{Ledger, StreamMiner, StreamStats};
use std::collections::VecDeque;
use std::fmt::Display;
use std::path::Path;
use trajdata::{Dataset, SnapshotPoint, Trajectory};
use trajgeo::{BBox, CellId, Grid, Point2};
use trajpattern::groups::discover_groups;
use trajpattern::{
    CheckpointError, MinedPattern, MiningOutcome, MiningParams, MiningStats, Pattern, Scorer,
};

/// First line of a stream checkpoint — the format [`StreamMiner::checkpoint`]
/// writes.
pub const STREAM_VERSION_LINE: &str = "trajpattern-checkpoint v3";

/// First line of the previous stream format, whose ledger lines also
/// carry the contribution rows. Read-only.
const STREAM_V2_VERSION_LINE: &str = "trajpattern-checkpoint v2";

/// Whether `line` (a file's first content line) starts a stream
/// checkpoint this crate can read.
pub fn is_stream_version_line(line: &str) -> bool {
    line == STREAM_VERSION_LINE || line == STREAM_V2_VERSION_LINE
}

impl StreamMiner {
    /// Atomically writes the complete stream state to `path`.
    pub fn checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        let text = encode(self);
        trajio::write_atomic(path, &text).map_err(|e| CheckpointError::Io {
            path: e.path,
            message: e.message,
        })
    }

    /// Restores a stream miner from a checkpoint written by
    /// [`StreamMiner::checkpoint`] (or a v2 checkpoint from an earlier
    /// release). The restored miner's next event continues the stream
    /// bit-identically to one that never stopped.
    pub fn resume(path: &Path) -> Result<StreamMiner, CheckpointError> {
        let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
            path: path.to_path_buf(),
            message: e.to_string(),
        })?;
        decode(&text)
    }
}

/// Parses a complete stream checkpoint (v3, or read-only v2) from text
/// into a ready [`StreamMiner`] — the public read API used by snapshot
/// consumers (the `trajserve` server loads checkpoints through this).
/// Equivalent to the decoding half of [`StreamMiner::resume`] without
/// touching the filesystem; the same validation applies.
pub fn parse_checkpoint(text: &str) -> Result<StreamMiner, CheckpointError> {
    decode(text)
}

fn err(line: usize, message: impl Into<String>) -> CheckpointError {
    CheckpointError::Format {
        line,
        message: message.into(),
    }
}

/// Appends ` <v>` for a decimal field.
fn push_field(out: &mut String, v: impl Display) {
    use std::fmt::Write;
    write!(out, " {v}").expect("writing to a String cannot fail");
}

/// Appends ` <bit-hex of v>`.
fn push_hex_field(out: &mut String, v: f64) {
    out.push(' ');
    trajio::push_f64_hex(out, v);
}

/// Upper bound on the encoded size, so [`encode`] fills one buffer
/// without regrowing it.
fn encoded_len_bound(m: &StreamMiner) -> usize {
    // Field widths including the separator: bit-hex, any u64, a u32 cell
    // id. The fixed lines (version, params, grid, next_seq, stats, the
    // section counts, mstats, end) take at most 740 bytes.
    const HEX: usize = 17;
    const INT: usize = 21;
    const CELL: usize = 11;
    const HEADER: usize = 1024;
    let window: usize = m
        .window
        .iter()
        .map(|(_, t)| 2 + 2 * INT + 3 * HEX * t.len())
        .sum();
    let ledger: usize = m
        .ledger
        .patterns
        .iter()
        .map(|p| 2 + INT + CELL * p.len())
        .sum();
    let topk: usize = m
        .last
        .patterns
        .iter()
        .map(|mp| 2 + INT + CELL * mp.pattern.len() + HEX)
        .sum();
    HEADER + window + ledger + topk
}

/// Serializes the stream state to the v3 text format in one pre-sized
/// buffer: the window and the ledger's pattern list, never its rows.
pub(crate) fn encode(m: &StreamMiner) -> String {
    let p = &m.params;
    let bound = encoded_len_bound(m);
    let mut out = String::with_capacity(bound);
    out.push_str(STREAM_VERSION_LINE);
    out.push_str("\nparams");
    push_field(&mut out, p.k);
    push_hex_field(&mut out, p.delta);
    push_hex_field(&mut out, p.min_prob);
    push_field(&mut out, p.min_len);
    push_field(&mut out, p.max_len);
    push_field(&mut out, p.use_bound_prune as u8);
    push_field(&mut out, p.use_one_extension_prune as u8);
    push_field(&mut out, p.max_iters);
    push_field(&mut out, p.threads);
    match p.gamma {
        Some(g) => push_hex_field(&mut out, g),
        None => out.push_str(" -"),
    }
    out.push_str("\ngrid");
    let bbox = m.grid.bbox();
    for v in [bbox.min().x, bbox.min().y, bbox.max().x, bbox.max().y] {
        push_hex_field(&mut out, v);
    }
    push_field(&mut out, m.grid.nx());
    push_field(&mut out, m.grid.ny());
    out.push_str("\nnext_seq");
    push_field(&mut out, m.next_seq);
    out.push_str("\nstats");
    for v in m.stats.persisted_values() {
        push_field(&mut out, v);
    }
    out.push_str("\nwindow");
    push_field(&mut out, m.window.len());
    out.push('\n');
    for (seq, traj) in m.window.iter() {
        out.push('w');
        push_field(&mut out, seq);
        push_field(&mut out, traj.len());
        for sp in traj.points() {
            push_hex_field(&mut out, sp.mean.x);
            push_hex_field(&mut out, sp.mean.y);
            push_hex_field(&mut out, sp.sigma);
        }
        out.push('\n');
    }
    out.push_str("ledger");
    push_field(&mut out, m.ledger.patterns.len());
    out.push('\n');
    for pat in &m.ledger.patterns {
        out.push('l');
        push_field(&mut out, pat.len());
        for c in pat.cells() {
            push_field(&mut out, c.0);
        }
        out.push('\n');
    }
    out.push_str("mstats");
    for v in m.last.stats.persisted_values() {
        push_field(&mut out, v);
    }
    out.push_str("\ntopk");
    push_field(&mut out, m.last.patterns.len());
    out.push('\n');
    for mp in &m.last.patterns {
        out.push('p');
        push_field(&mut out, mp.pattern.len());
        for c in mp.pattern.cells() {
            push_field(&mut out, c.0);
        }
        push_hex_field(&mut out, mp.nm);
        out.push('\n');
    }
    out.push_str("end\n");
    debug_assert!(out.len() <= bound, "{} > {bound}", out.len());
    out
}

/// Advances the lenient cursor (v2 skips blank lines and trims), mapping
/// end-of-input to a positional format error.
fn next_line<'a>(cur: &mut trajio::LineCursor<'a>) -> Result<&'a str, CheckpointError> {
    cur.next_line()
        .ok_or_else(|| err(cur.line(), "unexpected end of checkpoint"))
}

fn parse_hex_f64(s: &str, line: usize) -> Result<f64, CheckpointError> {
    trajio::f64_from_hex(s).map_err(|e| err(line, e.message()))
}

fn parse_int<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, CheckpointError> {
    trajio::parse_int(s, what).map_err(|e| err(line, e.message()))
}

/// Parses and fully validates a v3 (or v2) checkpoint, rebuilding the
/// miner. The cached top-k is stored verbatim; groups and the certifier
/// index are derived, and so are v3's ledger rows — recomputed only once
/// the whole text has parsed, so a torn file is rejected without scoring.
pub(crate) fn decode(text: &str) -> Result<StreamMiner, CheckpointError> {
    let mut cur = trajio::LineCursor::lenient(text);

    let version = cur.next_line().ok_or(CheckpointError::Version {
        found: String::new(),
    })?;
    if !is_stream_version_line(version) {
        return Err(CheckpointError::Version {
            found: version.to_string(),
        });
    }
    // v2 stores each ledger row after the pattern's cells; v3 stores none.
    let stored_rows = version == STREAM_V2_VERSION_LINE;

    // params
    let pline = next_line(&mut cur)?;
    let pl = cur.line();
    let f: Vec<&str> = pline.split_whitespace().collect();
    if f.len() != 11 || f[0] != "params" {
        return Err(err(pl, "malformed params line"));
    }
    let k: usize = parse_int(f[1], pl, "k")?;
    let delta = parse_hex_f64(f[2], pl)?;
    let mut params = MiningParams::new(k, delta)
        .map_err(|e| err(pl, format!("invalid checkpointed parameters: {e}")))?;
    params.min_prob = parse_hex_f64(f[3], pl)?;
    params.min_len = parse_int(f[4], pl, "min_len")?;
    params.max_len = parse_int(f[5], pl, "max_len")?;
    params.use_bound_prune = f[6] == "1";
    params.use_one_extension_prune = f[7] == "1";
    params.max_iters = parse_int(f[8], pl, "max_iters")?;
    params.threads = parse_int(f[9], pl, "threads")?;
    params.gamma = if f[10] == "-" {
        None
    } else {
        Some(parse_hex_f64(f[10], pl)?)
    };
    params
        .validate()
        .map_err(|e| err(pl, format!("invalid checkpointed parameters: {e}")))?;

    // grid
    let gline = next_line(&mut cur)?;
    let gl = cur.line();
    let g: Vec<&str> = gline.split_whitespace().collect();
    if g.len() != 7 || g[0] != "grid" {
        return Err(err(gl, "malformed grid line"));
    }
    let min = Point2::new(parse_hex_f64(g[1], gl)?, parse_hex_f64(g[2], gl)?);
    let max = Point2::new(parse_hex_f64(g[3], gl)?, parse_hex_f64(g[4], gl)?);
    let bbox = BBox::new(min, max).ok_or_else(|| err(gl, "degenerate grid bounding box"))?;
    let nx: u32 = parse_int(g[5], gl, "nx")?;
    let ny: u32 = parse_int(g[6], gl, "ny")?;
    let grid = Grid::new(bbox, nx, ny).map_err(|e| err(gl, format!("invalid grid: {e}")))?;
    let num_cells = grid.num_cells() as usize;

    // next_seq
    let nline = next_line(&mut cur)?;
    let nl = cur.line();
    let next_seq: u64 = match nline.split_whitespace().collect::<Vec<_>>()[..] {
        ["next_seq", v] => parse_int(v, nl, "next_seq")?,
        _ => return Err(err(nl, "expected 'next_seq <n>'")),
    };

    // stats — persisted fields only; `window_len` and `ledger_patterns`
    // are recomputed below once window and ledger are rebuilt.
    let sline = next_line(&mut cur)?;
    let sl = cur.line();
    let s: Vec<&str> = sline.split_whitespace().collect();
    let snames = StreamStats::persisted_names();
    if s.len() != snames.len() + 1 || s[0] != "stats" {
        return Err(err(sl, "malformed stats line"));
    }
    let mut svalues = Vec::with_capacity(snames.len());
    for (tok, name) in s[1..].iter().zip(&snames) {
        svalues.push(parse_int::<u64>(tok, sl, name)?);
    }
    let stats = StreamStats::from_persisted(&svalues).expect("length checked above");

    // window
    let wline = next_line(&mut cur)?;
    let wl = cur.line();
    let window_count: usize = match wline.split_whitespace().collect::<Vec<_>>()[..] {
        ["window", v] => parse_int(v, wl, "window count")?,
        _ => return Err(err(wl, "expected 'window <count>'")),
    };
    let mut window: VecDeque<(u64, Trajectory)> = VecDeque::with_capacity(window_count);
    let mut prev_seq: Option<u64> = None;
    for _ in 0..window_count {
        let line = next_line(&mut cur)?;
        let ln = cur.line();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || f[0] != "w" {
            return Err(err(ln, "malformed window entry"));
        }
        let seq: u64 = parse_int(f[1], ln, "sequence number")?;
        if prev_seq.is_some_and(|p| seq <= p) {
            return Err(err(ln, "window sequence numbers must be increasing"));
        }
        if seq >= next_seq {
            return Err(err(ln, "window sequence number beyond next_seq"));
        }
        prev_seq = Some(seq);
        let npoints: usize = parse_int(f[2], ln, "point count")?;
        if f.len() != 3 + npoints * 3 {
            return Err(err(
                ln,
                format!(
                    "window entry declares {npoints} points but has {} fields",
                    f.len() - 3
                ),
            ));
        }
        let points: Vec<SnapshotPoint> = f[3..]
            .chunks_exact(3)
            .map(|c| {
                Ok(SnapshotPoint {
                    mean: Point2::new(parse_hex_f64(c[0], ln)?, parse_hex_f64(c[1], ln)?),
                    sigma: parse_hex_f64(c[2], ln)?,
                })
            })
            .collect::<Result<_, CheckpointError>>()?;
        let traj =
            Trajectory::new(points).map_err(|e| err(ln, format!("invalid trajectory: {e}")))?;
        window.push_back((seq, traj));
    }

    // ledger
    let lline = next_line(&mut cur)?;
    let ll = cur.line();
    let ledger_count: usize = match lline.split_whitespace().collect::<Vec<_>>()[..] {
        ["ledger", v] => parse_int(v, ll, "ledger count")?,
        _ => return Err(err(ll, "expected 'ledger <count>'")),
    };
    let mut ledger = Ledger::default();
    let mut singulars = vec![false; num_cells];
    for _ in 0..ledger_count {
        let line = next_line(&mut cur)?;
        let ln = cur.line();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 2 || f[0] != "l" {
            return Err(err(ln, "malformed ledger entry"));
        }
        let ncells: usize = parse_int(f[1], ln, "cell count")?;
        let row_len = if stored_rows { window_count } else { 0 };
        if f.len() != 2 + ncells + row_len {
            return Err(err(
                ln,
                format!(
                    "ledger entry declares {ncells} cells and {row_len} contributions but has {} fields",
                    f.len() - 2
                ),
            ));
        }
        let cells: Vec<CellId> = f[2..2 + ncells]
            .iter()
            .map(|s| {
                let id: u32 = parse_int(s, ln, "cell id")?;
                if id as usize >= num_cells {
                    return Err(err(ln, format!("cell id {id} outside the grid")));
                }
                Ok(CellId(id))
            })
            .collect::<Result<_, CheckpointError>>()?;
        let pattern = Pattern::new(cells).ok_or_else(|| err(ln, "empty ledger pattern"))?;
        if ledger.contains(&pattern) {
            return Err(err(ln, format!("duplicate ledger pattern {pattern}")));
        }
        if pattern.is_singular() {
            singulars[pattern.cells()[0].index()] = true;
        }
        let row: VecDeque<f64> = f[2 + ncells..]
            .iter()
            .map(|s| {
                let v = parse_hex_f64(s, ln)?;
                if !v.is_finite() {
                    return Err(err(ln, "non-finite ledger contribution"));
                }
                Ok(v)
            })
            .collect::<Result<_, CheckpointError>>()?;
        ledger.add(pattern, row);
    }
    if ledger_count > 0 && !singulars.iter().all(|&s| s) {
        return Err(err(
            cur.line(),
            "ledger is missing singular patterns for some grid cells",
        ));
    }

    // mstats
    let mline = next_line(&mut cur)?;
    let ml = cur.line();
    let ms: Vec<&str> = mline.split_whitespace().collect();
    let mnames = MiningStats::persisted_names();
    if ms.len() != mnames.len() + 1 || ms[0] != "mstats" {
        return Err(err(ml, "malformed mstats line"));
    }
    let mut mvalues = Vec::with_capacity(mnames.len());
    for (tok, name) in ms[1..].iter().zip(&mnames) {
        mvalues.push(parse_int::<u64>(tok, ml, name)?);
    }
    let mstats = MiningStats::from_persisted(&mvalues).expect("length checked above");

    // topk
    let tline = next_line(&mut cur)?;
    let tl = cur.line();
    let topk_count: usize = match tline.split_whitespace().collect::<Vec<_>>()[..] {
        ["topk", v] => parse_int(v, tl, "topk count")?,
        _ => return Err(err(tl, "expected 'topk <count>'")),
    };
    if topk_count > params.k {
        return Err(err(tl, "checkpointed top-k exceeds k"));
    }
    let mut topk: Vec<MinedPattern> = Vec::with_capacity(topk_count);
    for _ in 0..topk_count {
        let line = next_line(&mut cur)?;
        let ln = cur.line();
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 || f[0] != "p" {
            return Err(err(ln, "malformed top-k entry"));
        }
        let ncells: usize = parse_int(f[1], ln, "cell count")?;
        if f.len() != 3 + ncells {
            return Err(err(ln, "top-k entry cell count mismatch"));
        }
        let cells: Vec<CellId> = f[2..2 + ncells]
            .iter()
            .map(|s| {
                let id: u32 = parse_int(s, ln, "cell id")?;
                if id as usize >= num_cells {
                    return Err(err(ln, format!("cell id {id} outside the grid")));
                }
                Ok(CellId(id))
            })
            .collect::<Result<_, CheckpointError>>()?;
        let pattern = Pattern::new(cells).ok_or_else(|| err(ln, "empty top-k pattern"))?;
        let nm = parse_hex_f64(f[2 + ncells], ln)?;
        if !nm.is_finite() {
            return Err(err(ln, "non-finite top-k NM"));
        }
        topk.push(MinedPattern::new(pattern, nm));
    }

    let end = next_line(&mut cur)?;
    if end != "end" {
        return Err(err(cur.line(), "expected 'end'"));
    }

    if !stored_rows {
        // One window scorer, each ledger pattern in ledger order: the same
        // kernel that produced the rows live, so they come back bit for bit.
        let data: Dataset = window.iter().map(|(_, t)| t.clone()).collect();
        let scorer =
            Scorer::with_threads(&data, &grid, params.delta, params.min_prob, params.threads);
        for (pattern, row) in ledger.patterns.iter().zip(&mut ledger.contribs) {
            *row = scorer.nm_contributions(pattern).into();
        }
    }

    // Groups are a deterministic function of the top-k (see `finish` in
    // the batch grower), so they are recomputed rather than stored.
    let groups = match params.gamma {
        Some(gamma) => discover_groups(&topk, &grid, gamma),
        None => Vec::new(),
    };
    let mut stats = stats;
    stats.window_len = window.len();
    stats.ledger_patterns = ledger.patterns.len();
    // The certifier is a pure membership index over the ledger, so it is
    // derived rather than stored.
    let certifier = Some(trajpattern::SeedCertifier::new(&ledger.patterns));
    Ok(StreamMiner {
        grid,
        params,
        next_seq,
        window,
        ledger,
        certifier,
        last: MiningOutcome {
            patterns: topk,
            groups,
            stats: mstats,
            scorer: trajpattern::ScorerStats::default(),
        },
        stats,
        // Like the certifier, the change counter is derived in-process
        // state: consumers track deltas, so it restarts at zero.
        topk_version: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trajgeo::Point2;
    use trajpattern::MiningParams;

    fn sample_miner() -> StreamMiner {
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1)
            .unwrap()
            .with_max_len(3)
            .unwrap()
            .with_gamma(0.2)
            .unwrap();
        let mut m = StreamMiner::new(grid, params).unwrap();
        for j in 0..6 {
            let seq = m.push(Trajectory::from_exact((0..4).map(move |i| {
                Point2::new(0.125 + i as f64 * 0.25, 0.3 + j as f64 * 0.05)
            })));
            m.evict_before(seq.saturating_sub(3));
        }
        m
    }

    #[test]
    fn round_trips_bit_exactly() {
        let m = sample_miner();
        let restored = decode(&encode(&m)).unwrap();
        assert_eq!(restored.next_seq, m.next_seq);
        assert_eq!(restored.stats, *m.stats());
        assert_eq!(restored.window.len(), m.window.len());
        assert_eq!(restored.ledger.patterns, m.ledger.patterns);
        for (a, b) in restored.ledger.contribs.iter().zip(&m.ledger.contribs) {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(restored.topk().len(), m.topk().len());
        for (a, b) in restored.topk().iter().zip(m.topk()) {
            assert_eq!(a.pattern, b.pattern);
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
        assert_eq!(restored.groups().len(), m.groups().len());
    }

    #[test]
    fn save_and_resume_via_files() {
        let m = sample_miner();
        let path = std::env::temp_dir().join(format!("trajstream-ckpt-{}", std::process::id()));
        m.checkpoint(&path).unwrap();
        let restored = StreamMiner::resume(&path).unwrap();
        for (a, b) in restored.topk().iter().zip(m.topk()) {
            assert_eq!(a.nm.to_bits(), b.nm.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_version_and_corruption() {
        let m = sample_miner();
        let text = encode(&m);
        assert!(text.starts_with("trajpattern-checkpoint v3\n"));
        assert!(matches!(
            decode(&text.replace("v3", "v9")),
            Err(CheckpointError::Version { .. })
        ));
        assert!(matches!(decode(""), Err(CheckpointError::Version { .. })));
        // v3 ledger lines carry cells only: a stored contribution is
        // rejected, not silently ignored or trusted.
        let with_row = text.replacen("\nl 1 0\n", "\nl 1 0 3ff0000000000000\n", 1);
        assert_ne!(with_row, text);
        assert!(matches!(
            decode(&with_row),
            Err(CheckpointError::Format { message, .. }) if message.contains("contributions")
        ));
        // The same text under the v2 header is short of contributions.
        assert!(matches!(
            decode(&text.replacen("v3", "v2", 1)),
            Err(CheckpointError::Format { .. })
        ));
        // Truncation: drop the trailing 'end'.
        let truncated = text.trim_end().trim_end_matches("end").to_string();
        assert!(matches!(
            decode(&truncated),
            Err(CheckpointError::Format { .. })
        ));
        // A ledger cell outside the grid.
        let corrupted = text.replacen("\nl 1 0\n", "\nl 1 99999\n", 1);
        assert_ne!(corrupted, text);
        assert!(decode(&corrupted).is_err());
    }

    #[test]
    fn missing_resume_file_is_io_error() {
        let path = std::env::temp_dir().join("trajstream-never-written");
        assert!(matches!(
            StreamMiner::resume(&path),
            Err(CheckpointError::Io { .. })
        ));
    }
}
