//! One definition per counter set: composable run statistics.
//!
//! Three counter blocks travel with mining results — [`MiningStats`]
//! (the growing process), [`ScorerStats`] (the scoring engine), and
//! `trajstream`'s `StreamStats` (the sliding window). Each block is
//! rendered three ways:
//!
//! - **JSON**, through the serde derives on the struct (the
//!   `trajmine-snapshot/v1` schema `trajmine mine --json` writes and
//!   `trajmine serve` loads);
//! - **checkpoint lines**, as space-separated integers in field order
//!   (the `stats` line of `trajpattern-checkpoint v1`, the `stats` and
//!   `mstats` lines of the `trajpattern-checkpoint` v2 and v3 stream formats);
//! - **Prometheus gauges**, via [`prometheus_counters`] on the trajserve
//!   `/metrics` endpoint.
//!
//! Before this module each rendering hand-listed the fields, so adding a
//! counter meant editing four files and hoping the orders stayed aligned.
//! The [`counter_stats!`] macro generates the struct *and* its renderings
//! from one token list: serde field names, checkpoint line order, and
//! Prometheus gauge names cannot drift apart because they are the same
//! list. On-disk formats are frozen by the golden-file tests — the macro
//! reproduces them byte-for-byte because field order *is* line order.
//!
//! Fields are marked `persisted` (written to / read from checkpoint
//! lines) or `derived` (recomputed from other checkpoint sections on
//! load, e.g. `StreamStats::window_len`); both kinds appear in JSON and
//! Prometheus output.

/// Defines a counter-set struct plus its uniform renderings.
///
/// ```
/// trajpattern::counter_stats! {
///     /// Example counters.
///     pub struct DemoStats {
///         /// Widgets seen.
///         persisted widgets: u64,
///         /// Cache entries (rebuilt on load, not persisted).
///         derived cache_entries: usize,
///     }
/// }
/// let s = DemoStats { widgets: 3, cache_entries: 7 };
/// assert_eq!(s.counters(), vec![("widgets", 3), ("cache_entries", 7)]);
/// assert_eq!(DemoStats::persisted_names(), vec!["widgets"]);
/// assert_eq!(s.persisted_values(), vec![3]);
/// let back = DemoStats::from_persisted(&[3]).unwrap();
/// assert_eq!(back.widgets, 3);
/// assert_eq!(back.cache_entries, 0); // derived: defaulted, caller refills
/// ```
///
/// Every field must be an unsigned integer type (`u64` or `usize`) and be
/// prefixed with `persisted` or `derived`. The struct derives `Debug`,
/// `Clone`, `Default`, `PartialEq`, `Eq`, and (behind the defining
/// crate's `serde` feature) `Serialize`/`Deserialize` with the field
/// names as written.
#[macro_export]
macro_rules! counter_stats {
    (
        $(#[$smeta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $kind:ident $field:ident : $ty:ty
            ),* $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        #[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
        pub struct $name {
            $(
                $(#[$fmeta])*
                pub $field: $ty,
            )*
        }

        impl $name {
            /// Every counter as a `(name, value)` pair, in declaration
            /// order — the single source for Prometheus gauge names and
            /// human-readable dumps.
            pub fn counters(&self) -> ::std::vec::Vec<(&'static str, u64)> {
                ::std::vec![
                    $( (stringify!($field), self.$field as u64) ),*
                ]
            }

            /// Names of the persisted fields, in checkpoint-line order.
            pub fn persisted_names() -> ::std::vec::Vec<&'static str> {
                let mut names = ::std::vec::Vec::new();
                $(
                    if $crate::stats::__field_kind_is_persisted(stringify!($kind)) {
                        names.push(stringify!($field));
                    }
                )*
                names
            }

            /// Values of the persisted fields, in checkpoint-line order.
            pub fn persisted_values(&self) -> ::std::vec::Vec<u64> {
                let mut values = ::std::vec::Vec::new();
                $(
                    if $crate::stats::__field_kind_is_persisted(stringify!($kind)) {
                        values.push(self.$field as u64);
                    }
                )*
                values
            }

            /// Rebuilds the struct from persisted values in
            /// checkpoint-line order; derived fields are defaulted (the
            /// loader recomputes them). `None` if too few values are
            /// given; extras are ignored by the caller's length check.
            pub fn from_persisted(values: &[u64]) -> ::std::option::Option<Self> {
                let mut it = values.iter().copied();
                ::std::option::Option::Some(Self {
                    $(
                        $field: if $crate::stats::__field_kind_is_persisted(stringify!($kind)) {
                            it.next()? as $ty
                        } else {
                            ::std::default::Default::default()
                        },
                    )*
                })
            }
        }
    };
}

/// Implementation detail of [`counter_stats!`]: classifies a field-kind
/// token. Panics on anything but `persisted`/`derived` so a typo fails
/// the defining crate's tests immediately.
#[doc(hidden)]
pub fn __field_kind_is_persisted(kind: &str) -> bool {
    match kind {
        "persisted" => true,
        "derived" => false,
        other => {
            panic!("counter_stats! field kind must be `persisted` or `derived`, got `{other}`")
        }
    }
}

/// Renders counters as Prometheus exposition lines, one
/// `{prefix}_{name} {value}` gauge per counter — the single rendering
/// behind every stats block on trajserve's `/metrics`.
pub fn prometheus_counters(out: &mut String, prefix: &str, counters: &[(&'static str, u64)]) {
    prometheus_labeled_counters(out, prefix, "", counters);
}

/// [`prometheus_counters`] with a fixed label set on every line —
/// `{prefix}_{name}{labels} {value}` — used by trajserve's live mode to
/// emit the same stats blocks once per shard (`labels` like
/// `shard="west"`). Empty `labels` renders the unlabeled form.
pub fn prometheus_labeled_counters(
    out: &mut String,
    prefix: &str,
    labels: &str,
    counters: &[(&'static str, u64)],
) {
    use std::fmt::Write;
    for (name, value) in counters {
        if labels.is_empty() {
            writeln!(out, "{prefix}_{name} {value}").expect("writing to a String cannot fail");
        } else {
            writeln!(out, "{prefix}_{name}{{{labels}}} {value}")
                .expect("writing to a String cannot fail");
        }
    }
}

counter_stats! {
    /// Counters describing one mining run.
    pub struct MiningStats {
        /// Growing iterations executed.
        persisted iterations: usize,
        /// Candidate concatenations considered (distinct ordered pairs).
        persisted candidates_generated: u64,
        /// Candidates whose NM was actually computed against the data.
        persisted candidates_scored: u64,
        /// Candidates skipped by the weighted-mean bound.
        persisted candidates_bound_pruned: u64,
        /// Size of the active set `Q` when mining stopped.
        persisted final_queue_size: usize,
        /// Total pattern scorings performed by the scorer (including the
        /// singular initialization pass counted as one batch of `G`).
        persisted nm_evaluations: u64,
        /// Worker-shard panics absorbed by rescoring the failed shard
        /// sequentially. `0` in a healthy run; a non-zero value means the run
        /// degraded gracefully — results are still bit-identical to a healthy
        /// run, only wall-clock time was lost.
        persisted degraded_shard_rescores: u64,
    }
}

counter_stats! {
    /// Point-in-time snapshot of a [`Scorer`](crate::Scorer)'s counters.
    ///
    /// Unlike [`MiningStats`] these are *engine* counters: they depend on
    /// how much of the cell-row cache a particular scorer instance
    /// happened to build, so a resumed run legitimately reports different
    /// numbers than an uninterrupted one. They are therefore carried on
    /// [`MiningOutcome`](crate::MiningOutcome) beside the stats, never
    /// inside them, and are excluded from checkpoint fingerprints.
    #[derive(Copy)]
    pub struct ScorerStats {
        /// Pattern scorings performed (NM or match evaluations).
        persisted scorings: u64,
        /// Distinct cells whose per-trajectory probability rows are cached.
        persisted cached_cells: u64,
        /// Worker-shard panics absorbed by sequential rescoring.
        persisted degraded_rescores: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_stats! {
        /// Test-only mix of persisted and derived fields.
        pub struct MixedStats {
            /// A persisted counter.
            persisted alpha: u64,
            /// A derived gauge.
            derived beta: usize,
            /// Another persisted counter.
            persisted gamma: u64,
        }
    }

    #[test]
    fn counters_list_every_field_in_order() {
        let s = MixedStats {
            alpha: 1,
            beta: 2,
            gamma: 3,
        };
        assert_eq!(s.counters(), vec![("alpha", 1), ("beta", 2), ("gamma", 3)]);
    }

    #[test]
    fn persistence_skips_derived_fields() {
        let s = MixedStats {
            alpha: 10,
            beta: 20,
            gamma: 30,
        };
        assert_eq!(MixedStats::persisted_names(), vec!["alpha", "gamma"]);
        assert_eq!(s.persisted_values(), vec![10, 30]);
        let back = MixedStats::from_persisted(&[10, 30]).unwrap();
        assert_eq!(back.alpha, 10);
        assert_eq!(back.beta, 0, "derived fields default on load");
        assert_eq!(back.gamma, 30);
        assert!(MixedStats::from_persisted(&[10]).is_none());
    }

    #[test]
    fn mining_stats_line_order_is_frozen() {
        // The checkpoint `stats` / `mstats` line layout — changing this
        // list breaks the v1/v2/v3 formats (and the golden-file tests).
        assert_eq!(
            MiningStats::persisted_names(),
            vec![
                "iterations",
                "candidates_generated",
                "candidates_scored",
                "candidates_bound_pruned",
                "final_queue_size",
                "nm_evaluations",
                "degraded_shard_rescores",
            ]
        );
    }

    #[test]
    fn prometheus_rendering_is_one_gauge_per_line() {
        let s = ScorerStats {
            scorings: 5,
            cached_cells: 2,
            degraded_rescores: 0,
        };
        let mut out = String::new();
        prometheus_counters(&mut out, "demo_scorer", &s.counters());
        assert_eq!(
            out,
            "demo_scorer_scorings 5\ndemo_scorer_cached_cells 2\ndemo_scorer_degraded_rescores 0\n"
        );
    }
}
