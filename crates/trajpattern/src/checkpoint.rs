//! Versioned checkpoint files for interruptible mining runs.
//!
//! After every growth level the [`crate::Miner`] can serialize the full
//! [`GrowthState`] — candidate set Q, pair memo, threshold ω tracker,
//! current high set, counters — to a small text file, and
//! [`crate::Miner`]'s resume path restores it so mining continues exactly
//! where it stopped. The format is dependency-free (like the CSV codec):
//! line-based text, one section per state field, with every `f64` written
//! as its 16-digit hex bit pattern so round-trips are bit-exact.
//!
//! ```text
//! trajpattern-checkpoint v1
//! fingerprint <k> <delta> <min_prob> <min_len> <max_len> <bound> <one_ext> <traj> <snapshots> <cells>
//! omega <hex64>
//! nm_best <hex64>
//! converged <0|1>
//! stats <iterations> <generated> <scored> <bound_pruned> <queue> <nm_evals> <degraded>
//! tracker <n> <hex64>…
//! patterns <n>
//! p <nm hex64> <cell>…           (× n, in store-id order)
//! q <n> <id>…
//! high <n> <id>…
//! enumerated <n> <id>…
//! fresh <n> <id>…
//! tried <n> <key>…
//! end
//! ```
//!
//! The fingerprint binds a checkpoint to the run configuration that wrote
//! it: resuming under different parameters, data, or grid would silently
//! produce garbage, so mismatches are rejected with
//! [`CheckpointError::Incompatible`]. `max_iters`, `threads`, and `gamma`
//! are deliberately *excluded* — they don't affect per-level state, and
//! excluding `max_iters` is what lets a run be interrupted early (low
//! `max_iters`) and resumed with the full budget. Loading validates every
//! value (finite NMs, in-range cell and pattern ids, ω consistent with the
//! tracker) so a corrupted file yields a typed [`CheckpointError::Format`]
//! instead of a panic deep in the mining loop.

use crate::algorithm::MiningStats;
use crate::engine::{GrowthState, Store};
use crate::params::MiningParams;
use crate::pattern::Pattern;
use crate::topk::ThresholdTracker;
use std::fmt;
use std::path::{Path, PathBuf};
use trajdata::Dataset;
use trajgeo::fxhash::FxHashSet;
use trajgeo::{CellId, Grid};

/// First line of every v1 checkpoint file.
pub const VERSION_LINE: &str = "trajpattern-checkpoint v1";

/// Errors reading or writing a checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The operating-system error message.
        message: String,
    },
    /// The file exists but its contents are not a valid checkpoint.
    Format {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// The file's version line is not one this build understands.
    Version {
        /// The version line actually found.
        found: String,
    },
    /// The checkpoint was written under a different configuration
    /// (parameters, dataset, or grid) and cannot be resumed here.
    Incompatible {
        /// The first fingerprint field that differs.
        field: &'static str,
        /// Whether the mismatch is in the mining *parameters* or in the
        /// *data* (dataset / grid) half of the fingerprint.
        kind: FingerprintKind,
        /// The mismatching value recorded in the checkpoint file.
        checkpoint_value: String,
        /// The corresponding value of the current run.
        run_value: String,
    },
}

/// Which half of the fingerprint a field belongs to — lets resume errors
/// say *what category* of mismatch occurred, so a user knows whether to
/// fix their flags (params) or their input file (data).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintKind {
    /// A mining parameter (`k`, `δ`, `min_prob`, length bounds, prunings).
    Params,
    /// The dataset or grid (trajectory count, snapshot count, grid cells).
    Data,
}

impl fmt::Display for FingerprintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FingerprintKind::Params => write!(f, "params"),
            FingerprintKind::Data => write!(f, "data"),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint I/O error at {}: {message}", path.display())
            }
            CheckpointError::Format { line, message } => {
                write!(f, "checkpoint line {line}: {message}")
            }
            CheckpointError::Version { found } => {
                write!(
                    f,
                    "unsupported checkpoint version: '{found}' (expected '{VERSION_LINE}')"
                )
            }
            CheckpointError::Incompatible {
                field,
                kind,
                checkpoint_value,
                run_value,
            } => {
                write!(
                    f,
                    "checkpoint is incompatible with this run: {kind} fingerprint \
                     field '{field}' differs (checkpoint has {checkpoint_value}, \
                     this run has {run_value})"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The run configuration a checkpoint is bound to. Two runs with equal
/// fingerprints walk identical growth levels, so a checkpoint from one can
/// seamlessly continue in the other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    k: usize,
    delta_bits: u64,
    min_prob_bits: u64,
    min_len: usize,
    max_len: usize,
    bound_prune: bool,
    one_ext_prune: bool,
    num_trajectories: usize,
    total_snapshots: usize,
    grid_cells: u32,
}

impl Fingerprint {
    pub(crate) fn new(params: &MiningParams, data: &Dataset, grid: &Grid) -> Fingerprint {
        Fingerprint {
            k: params.k,
            delta_bits: params.delta.to_bits(),
            min_prob_bits: params.min_prob.to_bits(),
            min_len: params.min_len,
            max_len: params.max_len,
            bound_prune: params.use_bound_prune,
            one_ext_prune: params.use_one_extension_prune,
            num_trajectories: data.len(),
            total_snapshots: data.iter().map(|t| t.len()).sum(),
            grid_cells: grid.num_cells(),
        }
    }
}

fn err(line: usize, message: impl Into<String>) -> CheckpointError {
    CheckpointError::Format {
        line,
        message: message.into(),
    }
}

/// Serializes `state` to the v1 text format. Hex tokens go straight into
/// the one output buffer through [`trajio::push_f64_hex`].
pub(crate) fn encode(state: &GrowthState, fp: &Fingerprint) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str(VERSION_LINE);
    out.push_str("\nfingerprint ");
    write!(out, "{} ", fp.k).expect("writing to a String cannot fail");
    trajio::push_bits_hex(&mut out, fp.delta_bits);
    out.push(' ');
    trajio::push_bits_hex(&mut out, fp.min_prob_bits);
    writeln!(
        out,
        " {} {} {} {} {} {} {}",
        fp.min_len,
        fp.max_len,
        fp.bound_prune as u8,
        fp.one_ext_prune as u8,
        fp.num_trajectories,
        fp.total_snapshots,
        fp.grid_cells,
    )
    .expect("writing to a String cannot fail");
    out.push_str("omega ");
    trajio::push_f64_hex(&mut out, state.omega);
    out.push_str("\nnm_best ");
    trajio::push_f64_hex(&mut out, state.nm_best);
    writeln!(out, "\nconverged {}", state.converged as u8)
        .expect("writing to a String cannot fail");
    out.push_str("stats");
    for v in state.stats.persisted_values() {
        write!(out, " {v}").expect("writing to a String cannot fail");
    }
    out.push('\n');
    let tracker_values = state.qual_tracker.values();
    write!(out, "tracker {}", tracker_values.len()).expect("writing to a String cannot fail");
    for v in &tracker_values {
        out.push(' ');
        trajio::push_f64_hex(&mut out, *v);
    }
    writeln!(out, "\npatterns {}", state.store.count()).expect("writing to a String cannot fail");
    for (id, p) in state.store.patterns().iter().enumerate() {
        out.push_str("p ");
        trajio::push_f64_hex(&mut out, state.store.nm(id as u32));
        for c in p.cells() {
            write!(out, " {}", c.0).expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    push_id_section(&mut out, "q", state.q.iter().copied());
    push_id_section(&mut out, "high", state.high.iter().copied());
    push_id_section(
        &mut out,
        "enumerated",
        state.enumerated_high.iter().copied(),
    );
    // `fresh` is ordered — written verbatim, NOT sorted.
    push_ints(&mut out, "fresh", state.fresh.iter());
    let mut tried: Vec<u64> = state.tried.iter().copied().collect();
    tried.sort_unstable();
    push_ints(&mut out, "tried", tried.iter());
    out.push_str("end\n");
    out
}

/// Writes one unordered id-set section, sorted for deterministic output.
fn push_id_section(out: &mut String, name: &str, ids: impl Iterator<Item = u32>) {
    let mut v: Vec<u32> = ids.collect();
    v.sort_unstable();
    push_ints(out, name, v.iter());
}

/// Writes a `name <n> <v>…` section line in the given order.
fn push_ints<T: fmt::Display>(
    out: &mut String,
    name: &str,
    values: impl ExactSizeIterator<Item = T>,
) {
    use std::fmt::Write;
    write!(out, "{name} {}", values.len()).expect("writing to a String cannot fail");
    for v in values {
        write!(out, " {v}").expect("writing to a String cannot fail");
    }
    out.push('\n');
}

/// Advances the strict cursor, mapping end-of-input to a positional
/// format error (v1 treats blank lines as content, so every line counts).
fn next_line<'a>(cur: &mut trajio::LineCursor<'a>) -> Result<&'a str, CheckpointError> {
    cur.next_line()
        .ok_or_else(|| err(cur.line(), "unexpected end of file"))
}

fn parse_hex_f64(s: &str, line: usize) -> Result<f64, CheckpointError> {
    trajio::f64_from_hex(s).map_err(|e| err(line, e.message()))
}

fn parse_int<T: std::str::FromStr>(s: &str, line: usize, what: &str) -> Result<T, CheckpointError> {
    trajio::parse_int(s, what).map_err(|e| err(line, e.message()))
}

/// Splits a `name n v1 … vn` section line, verifying the tag and count.
fn section<'a>(text: &'a str, tag: &str, line: usize) -> Result<Vec<&'a str>, CheckpointError> {
    trajio::section(text, tag).map_err(|e| err(line, e.message()))
}

/// Parses and fully validates a v1 checkpoint, rebuilding the growth
/// state. `expected` is the fingerprint of the *current* run; any mismatch
/// is rejected before state is rebuilt.
pub(crate) fn decode(text: &str, expected: &Fingerprint) -> Result<GrowthState, CheckpointError> {
    let mut cur = trajio::LineCursor::strict(text);

    let version = cur.next_line().ok_or(CheckpointError::Version {
        found: String::new(),
    })?;
    if version.trim() != VERSION_LINE {
        return Err(CheckpointError::Version {
            found: version.trim().to_string(),
        });
    }

    // Fingerprint compatibility, field by field for a precise error.
    let fp_line = next_line(&mut cur)?;
    let fline = cur.line();
    let f: Vec<&str> = fp_line.split_whitespace().collect();
    if f.len() != 11 || f[0] != "fingerprint" {
        return Err(err(fline, "malformed fingerprint line"));
    }
    let found = Fingerprint {
        k: parse_int(f[1], fline, "k")?,
        delta_bits: u64::from_str_radix(f[2], 16).map_err(|_| err(fline, "bad delta bits"))?,
        min_prob_bits: u64::from_str_radix(f[3], 16)
            .map_err(|_| err(fline, "bad min_prob bits"))?,
        min_len: parse_int(f[4], fline, "min_len")?,
        max_len: parse_int(f[5], fline, "max_len")?,
        bound_prune: f[6] == "1",
        one_ext_prune: f[7] == "1",
        num_trajectories: parse_int(f[8], fline, "trajectory count")?,
        total_snapshots: parse_int(f[9], fline, "snapshot count")?,
        grid_cells: parse_int(f[10], fline, "grid cell count")?,
    };
    // Render a bit pattern as its f64 value for human-readable errors.
    let bits = |b: u64| format!("{}", f64::from_bits(b));
    let checks: [(&'static str, FingerprintKind, bool, String, String); 10] = [
        (
            "k",
            FingerprintKind::Params,
            found.k == expected.k,
            found.k.to_string(),
            expected.k.to_string(),
        ),
        (
            "delta",
            FingerprintKind::Params,
            found.delta_bits == expected.delta_bits,
            bits(found.delta_bits),
            bits(expected.delta_bits),
        ),
        (
            "min_prob",
            FingerprintKind::Params,
            found.min_prob_bits == expected.min_prob_bits,
            bits(found.min_prob_bits),
            bits(expected.min_prob_bits),
        ),
        (
            "min_len",
            FingerprintKind::Params,
            found.min_len == expected.min_len,
            found.min_len.to_string(),
            expected.min_len.to_string(),
        ),
        (
            "max_len",
            FingerprintKind::Params,
            found.max_len == expected.max_len,
            found.max_len.to_string(),
            expected.max_len.to_string(),
        ),
        (
            "bound pruning",
            FingerprintKind::Params,
            found.bound_prune == expected.bound_prune,
            found.bound_prune.to_string(),
            expected.bound_prune.to_string(),
        ),
        (
            "one-extension pruning",
            FingerprintKind::Params,
            found.one_ext_prune == expected.one_ext_prune,
            found.one_ext_prune.to_string(),
            expected.one_ext_prune.to_string(),
        ),
        (
            "trajectory count",
            FingerprintKind::Data,
            found.num_trajectories == expected.num_trajectories,
            found.num_trajectories.to_string(),
            expected.num_trajectories.to_string(),
        ),
        (
            "snapshot count",
            FingerprintKind::Data,
            found.total_snapshots == expected.total_snapshots,
            found.total_snapshots.to_string(),
            expected.total_snapshots.to_string(),
        ),
        (
            "grid cells",
            FingerprintKind::Data,
            found.grid_cells == expected.grid_cells,
            found.grid_cells.to_string(),
            expected.grid_cells.to_string(),
        ),
    ];
    for (field, kind, matches, checkpoint_value, run_value) in checks {
        if !matches {
            return Err(CheckpointError::Incompatible {
                field,
                kind,
                checkpoint_value,
                run_value,
            });
        }
    }

    let omega_line = next_line(&mut cur)?;
    let omega = match omega_line.split_whitespace().collect::<Vec<_>>()[..] {
        ["omega", bits] => parse_hex_f64(bits, cur.line())?,
        _ => return Err(err(cur.line(), "expected 'omega <hex>'")),
    };
    let nm_best_line = next_line(&mut cur)?;
    let nm_best = match nm_best_line.split_whitespace().collect::<Vec<_>>()[..] {
        ["nm_best", bits] => parse_hex_f64(bits, cur.line())?,
        _ => return Err(err(cur.line(), "expected 'nm_best <hex>'")),
    };
    if nm_best.is_nan() {
        return Err(err(cur.line(), "nm_best is NaN"));
    }
    let converged_line = next_line(&mut cur)?;
    let converged = match converged_line.split_whitespace().collect::<Vec<_>>()[..] {
        ["converged", "0"] => false,
        ["converged", "1"] => true,
        _ => return Err(err(cur.line(), "expected 'converged 0|1'")),
    };

    let stats_line = next_line(&mut cur)?;
    let sline = cur.line();
    let s: Vec<&str> = stats_line.split_whitespace().collect();
    let names = MiningStats::persisted_names();
    if s.len() != names.len() + 1 || s[0] != "stats" {
        return Err(err(sline, "malformed stats line"));
    }
    let mut values = Vec::with_capacity(names.len());
    for (tok, name) in s[1..].iter().zip(&names) {
        values.push(parse_int::<u64>(tok, sline, name)?);
    }
    let stats = MiningStats::from_persisted(&values).expect("length checked above");

    // Threshold tracker: rebuild from the retained values. Each must be
    // finite — `offer` (correctly) panics on NaN, so we reject first.
    let tracker_values = section(next_line(&mut cur)?, "tracker", cur.line())?;
    let tline = cur.line();
    if tracker_values.len() > expected.k {
        return Err(err(tline, "tracker holds more than k values"));
    }
    let mut qual_tracker = ThresholdTracker::new(expected.k);
    for v in tracker_values {
        let value = parse_hex_f64(v, tline)?;
        if !value.is_finite() {
            return Err(err(tline, "non-finite tracker value"));
        }
        qual_tracker.offer(value);
    }
    // ω must be exactly what the tracker reproduces — anything else means
    // the file was edited or corrupted.
    if qual_tracker.omega().to_bits() != omega.to_bits() {
        return Err(err(tline, "omega does not match tracker contents"));
    }

    // Pattern store, in id order.
    let patterns_header = next_line(&mut cur)?;
    let count: usize = match patterns_header.split_whitespace().collect::<Vec<_>>()[..] {
        ["patterns", n] => parse_int(n, cur.line(), "pattern count")?,
        _ => return Err(err(cur.line(), "expected 'patterns <n>'")),
    };
    let mut store = Store::default();
    for _ in 0..count {
        let row = next_line(&mut cur)?;
        let rline = cur.line();
        let mut fields = row.split_whitespace();
        match fields.next() {
            Some("p") => {}
            _ => return Err(err(rline, "expected 'p <nm> <cells…>'")),
        }
        let nm = parse_hex_f64(
            fields.next().ok_or_else(|| err(rline, "missing NM"))?,
            rline,
        )?;
        if !nm.is_finite() {
            return Err(err(rline, "non-finite pattern NM"));
        }
        let mut cells: Vec<CellId> = Vec::new();
        for c in fields {
            let cell: u32 = parse_int(c, rline, "cell id")?;
            if cell >= expected.grid_cells {
                return Err(err(
                    rline,
                    format!("cell {cell} outside grid of {} cells", expected.grid_cells),
                ));
            }
            cells.push(CellId(cell));
        }
        let pattern = Pattern::new(cells).ok_or_else(|| err(rline, "pattern with no positions"))?;
        if store.id_of(&pattern).is_some() {
            return Err(err(rline, "duplicate pattern in store"));
        }
        store.add(pattern, nm);
    }

    let parse_ids = |values: Vec<&str>, line: usize| -> Result<Vec<u32>, CheckpointError> {
        values
            .into_iter()
            .map(|v| {
                let id: u32 = parse_int(v, line, "pattern id")?;
                if id as usize >= count {
                    return Err(err(line, format!("pattern id {id} out of range")));
                }
                Ok(id)
            })
            .collect()
    };

    let q_ids = parse_ids(section(next_line(&mut cur)?, "q", cur.line())?, cur.line())?;
    let high_ids = parse_ids(
        section(next_line(&mut cur)?, "high", cur.line())?,
        cur.line(),
    )?;
    let enum_ids = parse_ids(
        section(next_line(&mut cur)?, "enumerated", cur.line())?,
        cur.line(),
    )?;
    let fresh = parse_ids(
        section(next_line(&mut cur)?, "fresh", cur.line())?,
        cur.line(),
    )?;

    let tried_values = section(next_line(&mut cur)?, "tried", cur.line())?;
    let kline = cur.line();
    let mut tried: FxHashSet<u64> = FxHashSet::default();
    for v in tried_values {
        let key: u64 = parse_int(v, kline, "pair key")?;
        let (a, b) = ((key >> 32) as usize, (key & 0xffff_ffff) as usize);
        if a >= count || b >= count {
            return Err(err(kline, format!("pair key {key} references unknown ids")));
        }
        tried.insert(key);
    }

    match next_line(&mut cur)? {
        l if l.trim() == "end" => {}
        _ => return Err(err(cur.line(), "expected 'end'")),
    }

    Ok(GrowthState {
        store,
        q: q_ids.into_iter().collect(),
        tried,
        qual_tracker,
        omega,
        high: high_ids.into_iter().collect(),
        enumerated_high: enum_ids.into_iter().collect(),
        fresh,
        nm_best,
        stats,
        converged,
    })
}

/// Atomically writes `state` to `path` (via a sibling `.tmp` file and
/// rename, so an interrupted save never leaves a torn checkpoint).
pub(crate) fn save(
    path: &Path,
    state: &GrowthState,
    fp: &Fingerprint,
) -> Result<(), CheckpointError> {
    let text = encode(state, fp);
    trajio::write_atomic(path, &text).map_err(|e| CheckpointError::Io {
        path: e.path,
        message: e.message,
    })
}

/// Reads, validates, and rebuilds a growth state from `path`.
pub(crate) fn load(path: &Path, expected: &Fingerprint) -> Result<GrowthState, CheckpointError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckpointError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    })?;
    decode(&text, expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::init_state;
    use crate::scorer::Scorer;
    use trajdata::Trajectory;
    use trajgeo::{BBox, Point2};

    fn setup() -> (Dataset, Grid, MiningParams) {
        let data: Dataset = (0..6)
            .map(|j| {
                Trajectory::from_exact((0..4).map(move |i| {
                    Point2::new(0.125 + i as f64 * 0.25, 0.375 + (j % 2) as f64 * 0.25)
                }))
            })
            .collect();
        let grid = Grid::new(BBox::unit(), 4, 4).unwrap();
        let params = MiningParams::new(3, 0.1).unwrap().with_max_len(3).unwrap();
        (data, grid, params)
    }

    fn state_and_fp() -> (GrowthState, Fingerprint) {
        let (data, grid, params) = setup();
        let scorer = Scorer::new(&data, &grid, params.delta, params.min_prob);
        let mut state = init_state(&scorer, &params, &[]).unwrap();
        crate::engine::grow_level(&scorer, &params, &mut state);
        (state, Fingerprint::new(&params, &data, &grid))
    }

    #[test]
    fn round_trip_is_exact() {
        let (state, fp) = state_and_fp();
        let text = encode(&state, &fp);
        let back = decode(&text, &fp).unwrap();
        assert_eq!(back.store.count(), state.store.count());
        for id in 0..state.store.count() as u32 {
            assert_eq!(back.store.get(id), state.store.get(id));
            assert_eq!(back.store.nm(id).to_bits(), state.store.nm(id).to_bits());
        }
        assert_eq!(back.q, state.q);
        assert_eq!(back.high, state.high);
        assert_eq!(back.enumerated_high, state.enumerated_high);
        assert_eq!(back.fresh, state.fresh);
        assert_eq!(back.tried, state.tried);
        assert_eq!(back.omega.to_bits(), state.omega.to_bits());
        assert_eq!(back.nm_best.to_bits(), state.nm_best.to_bits());
        assert_eq!(back.converged, state.converged);
        assert_eq!(back.stats, state.stats);
        assert_eq!(back.qual_tracker.values(), state.qual_tracker.values());
    }

    #[test]
    fn rejects_unknown_version() {
        let (state, fp) = state_and_fp();
        let text = encode(&state, &fp).replace("v1", "v9");
        assert!(matches!(
            decode(&text, &fp),
            Err(CheckpointError::Version { .. })
        ));
        assert!(matches!(
            decode("", &fp),
            Err(CheckpointError::Version { .. })
        ));
    }

    #[test]
    fn rejects_incompatible_fingerprint() {
        let (state, fp) = state_and_fp();
        let text = encode(&state, &fp);
        let mut other = fp.clone();
        other.k += 1;
        let err = decode(&text, &other).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Incompatible {
                field: "k",
                kind: FingerprintKind::Params,
                ..
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("params"), "{msg}");
        assert!(msg.contains(&fp.k.to_string()), "{msg}");
        assert!(msg.contains(&other.k.to_string()), "{msg}");
        let mut other = fp.clone();
        other.grid_cells = 99;
        let err = decode(&text, &other).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            CheckpointError::Incompatible {
                field: "grid cells",
                kind: FingerprintKind::Data,
                ..
            }
        ));
        assert!(err.to_string().contains("data"), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let (state, fp) = state_and_fp();
        let text = encode(&state, &fp);
        let cut = text.len() / 2;
        let truncated = &text[..cut];
        assert!(matches!(
            decode(truncated, &fp),
            Err(CheckpointError::Format { .. })
        ));
    }

    #[test]
    fn rejects_nan_nm_and_bad_cells() {
        let (state, fp) = state_and_fp();
        let text = encode(&state, &fp);
        // Swap one pattern NM for NaN bits.
        let nan_bits = trajio::f64_hex(f64::NAN);
        let poisoned: String = text
            .lines()
            .map(|l| {
                if let Some(rest) = l.strip_prefix("p ") {
                    let mut parts = rest.splitn(2, ' ');
                    let (_, cells) = (parts.next().unwrap(), parts.next().unwrap());
                    format!("p {nan_bits} {cells}\n")
                } else {
                    format!("{l}\n")
                }
            })
            .collect();
        assert!(matches!(
            decode(&poisoned, &fp),
            Err(CheckpointError::Format { .. })
        ));
        // A cell id beyond the grid is caught too.
        let bad_cell = text.replacen("p ", "p_broken ", 1);
        assert!(decode(&bad_cell, &fp).is_err());
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let (state, fp) = state_and_fp();
        let path =
            std::env::temp_dir().join(format!("trajpattern-ckpt-test-{}.txt", std::process::id()));
        save(&path, &state, &fp).unwrap();
        let back = load(&path, &fp).unwrap();
        assert_eq!(back.q, state.q);
        assert_eq!(back.stats, state.stats);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let (_, fp) = state_and_fp();
        let missing = Path::new("/nonexistent/trajpattern.ckpt");
        assert!(matches!(
            load(missing, &fp),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn error_display_reads_well() {
        let e = CheckpointError::Format {
            line: 7,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("line 7"));
        let v = CheckpointError::Version { found: "x".into() };
        assert!(v.to_string().contains("unsupported"));
        let i = CheckpointError::Incompatible {
            field: "k",
            kind: FingerprintKind::Params,
            checkpoint_value: "3".into(),
            run_value: "5".into(),
        };
        assert!(i.to_string().contains("'k'"));
        assert!(i.to_string().contains("params"));
        assert!(i.to_string().contains('3') && i.to_string().contains('5'));
    }
}
