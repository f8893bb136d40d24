//! Engine telemetry: throughput, per-worker utilization, cache
//! effectiveness, the executed-vs-cached oracle split and knowledge-base
//! merge accounting, serializable to JSON — plus the virtual-clock model
//! of the engine's dispatch rule ([`model_schedule`]) and the check of a
//! traced batch's placement against it ([`PlacementCheck`]).
//!
//! The vendored `serde` is a marker stub (see `vendor/README.md`), so the
//! JSON encoding here is hand-rolled; [`EngineStats::to_json`] emits
//! strictly valid JSON (finite numbers only, no trailing commas).

use crate::cache::CacheStats;
use crate::system::CaseResult;
use rb_obs::analyze::{CriticalPath, SpanTree};

/// Knowledge-base accounting of one batch: how the shared snapshot grew
/// when the per-job deltas were merged back in submission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KbMergeStats {
    /// Entries in the read-only snapshot every job started from.
    pub seeded_entries: usize,
    /// Entries merged back from per-job deltas after the batch.
    pub merged_inserts: usize,
    /// Jobs that contributed at least one insert.
    pub contributing_jobs: usize,
    /// Entries the merge policy absorbed (exact duplicates folded into
    /// weights, conflicting rules dropped, near-duplicates coalesced):
    /// `seeded_entries + merged_inserts - final_entries`. Zero under the
    /// append-only policy.
    pub coalesced: usize,
    /// Entries in the merged base handed back in the batch outcome.
    pub final_entries: usize,
    /// Store segments rewritten by `--kb-out` (a single-file store counts
    /// as one; a sharded store rewrites only its dirty shards). Zero when
    /// no store was written.
    pub shards_written: usize,
    /// Store segments whose content was unchanged and were skipped by the
    /// sharded save (always zero for single-file stores).
    pub shards_skipped: usize,
}

/// Aggregate telemetry of one engine batch.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineStats {
    /// Worker threads the batch ran on.
    pub workers: usize,
    /// Jobs executed.
    pub cases: usize,
    /// Real wall-clock duration of the batch in milliseconds.
    pub wall_ms: f64,
    /// Throughput: cases per wall-clock second.
    pub cases_per_sec: f64,
    /// Fraction of the batch wall-clock each worker spent executing jobs
    /// (one entry per worker, in worker order).
    pub worker_utilization: Vec<f64>,
    /// Jobs executed by each worker, in worker order.
    pub worker_cases: Vec<usize>,
    /// Scheduler-imbalance summary: the busiest worker's case share
    /// divided by the idlest worker's (`max/min` over `worker_cases`).
    /// `1.0` is a perfectly even split. `None` — serialized as JSON
    /// `null` — when a worker got zero jobs while another got some (the
    /// ratio would be ∞) or when the batch was empty; collapsing ∞ to a
    /// number would hide exactly the starvation the metric exists to
    /// flag.
    pub imbalance: Option<f64>,
    /// Total simulated repair time accumulated by the jobs (the paper's
    /// overhead metric — unrelated to real wall-clock).
    pub simulated_overhead_ms: f64,
    /// Simulated milliseconds the jobs spent in knowledge-base retrieval
    /// (a subset of `simulated_overhead_ms`; the paper's knowledge
    /// overhead, now derived from indexed bucket scans).
    pub kb_query_ms: f64,
    /// Oracle judgements across the whole batch (gold references plus
    /// every repair-internal verification) that executed the interpreter.
    pub oracle_executed: u64,
    /// Oracle judgements served from the verdict cache.
    pub oracle_cached: u64,
    /// Knowledge-base snapshot/delta merge accounting.
    pub kb: KbMergeStats,
    /// Oracle-cache effect of the batch: `hits`/`misses` count exactly
    /// this batch's *gold-reference* lookups (attributed per job, so
    /// concurrent batches on a shared cache cannot pollute each other),
    /// while `entries`/`evictions`/`capacity` are the cache's absolute
    /// state when the batch finished.
    pub cache: CacheStats,
    /// Dispatch telemetry (see [`SchedStats`]).
    pub sched: SchedStats,
}

/// Dispatch telemetry of one batch. The engine hands jobs out in
/// submission order off one shared counter, so no job ever moves between
/// workers and `steals` is always 0. The struct stays only because the
/// `perfbench` harness reads `stats.sched.steals` for its
/// `engine.steals` row; it is not serialized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Jobs taken from another worker's queue: always 0.
    pub steals: u64,
}

/// Formats a float as a finite JSON number (non-finite values collapse to
/// 0, which cannot occur in practice but keeps the output parseable).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.4}")
    } else {
        "0".to_owned()
    }
}

fn json_array<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
    let body: Vec<String> = items.iter().map(f).collect();
    format!("[{}]", body.join(","))
}

/// Escapes a string for embedding in a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl EngineStats {
    /// The scheduler-imbalance ratio for a per-worker case distribution:
    /// `max/min`, `Some(1.0)` for a single worker or an even split, and
    /// `None` when the ratio is undefined or infinite (an empty batch,
    /// or a worker starved to zero jobs while others ran).
    #[must_use]
    pub fn imbalance_of(worker_cases: &[usize]) -> Option<f64> {
        let max = worker_cases.iter().copied().max()?;
        let min = worker_cases.iter().copied().min()?;
        if min == 0 {
            // max == 0 means an empty batch (no share to compare);
            // max > 0 means a starved worker (an infinite ratio).
            return None;
        }
        Some(max as f64 / min as f64)
    }

    /// Per-worker utilization for a busy-time distribution: each
    /// worker's busy milliseconds over the batch wall-clock, clamped to
    /// `[0, 1]`. Degenerate batches (zero or negative wall, non-finite
    /// busy times) report 0.0 rather than leaking `NaN`/`inf` into
    /// BENCH_engine.json — the same infinity-safety contract
    /// [`EngineStats::imbalance_of`] keeps.
    #[must_use]
    pub fn utilization_of(busy_ms: &[f64], wall_ms: f64) -> Vec<f64> {
        busy_ms
            .iter()
            .map(|b| {
                if wall_ms > 0.0 {
                    let ratio = b / wall_ms;
                    if ratio.is_finite() {
                        ratio.clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Serializes the telemetry to a single-line JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"workers\":{},\"cases\":{},\"wall_ms\":{},",
                "\"cases_per_sec\":{},\"worker_utilization\":{},",
                "\"worker_cases\":{},\"imbalance\":{},",
                "\"simulated_overhead_ms\":{},",
                "\"kb_query_ms\":{},",
                "\"oracle\":{{\"executed\":{},\"cached\":{}}},",
                "\"kb\":{{\"seeded\":{},\"merged_inserts\":{},",
                "\"contributing_jobs\":{},\"coalesced\":{},\"final_entries\":{},",
                "\"shards_written\":{},\"shards_skipped\":{}}},",
                "\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},",
                "\"evictions\":{},\"capacity\":{},\"hit_rate\":{}}}}}"
            ),
            self.workers,
            self.cases,
            json_num(self.wall_ms),
            json_num(self.cases_per_sec),
            json_array(&self.worker_utilization, |u| json_num(*u)),
            json_array(&self.worker_cases, |c| c.to_string()),
            self.imbalance.map_or_else(|| "null".to_owned(), json_num),
            json_num(self.simulated_overhead_ms),
            json_num(self.kb_query_ms),
            self.oracle_executed,
            self.oracle_cached,
            self.kb.seeded_entries,
            self.kb.merged_inserts,
            self.kb.contributing_jobs,
            self.kb.coalesced,
            self.kb.final_entries,
            self.kb.shards_written,
            self.kb.shards_skipped,
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            self.cache.evictions,
            self.cache.capacity,
            json_num(self.cache.hit_rate()),
        )
    }
}

/// Outcome of a virtual-clock replay of the engine's dispatch rule (see
/// [`model_schedule`]).
#[derive(Clone, Debug, PartialEq)]
pub struct ModeledSchedule {
    /// Modeled batch wall time: the busiest worker's finish time.
    pub makespan_ms: f64,
    /// Modeled per-worker busy time, worker order.
    pub busy_ms: Vec<f64>,
    /// Modeled per-worker case counts, worker order.
    pub worker_cases: Vec<usize>,
}

impl ModeledSchedule {
    /// Modeled speedup over a serial run of the same jobs: total work
    /// divided by the makespan (0 for an empty batch).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        let total: f64 = self.busy_ms.iter().sum();
        if self.makespan_ms > 0.0 {
            total / self.makespan_ms
        } else {
            0.0
        }
    }
}

/// Replays the engine's dispatch rule under a deterministic virtual
/// clock: jobs leave in submission order and each goes to the worker
/// that frees up first (ties to the lowest index). `durations` advances
/// the clock, e.g. measured per-job wall times from a serial sweep. This
/// is an idealized N-core machine — exactly what a host without N free
/// cores cannot measure directly.
#[must_use]
pub fn model_schedule(durations: &[f64], workers: usize) -> ModeledSchedule {
    let workers = workers.max(1);
    let mut clock = vec![0.0f64; workers];
    let mut cases = vec![0usize; workers];
    for &duration in durations {
        let w = (0..workers)
            .min_by(|&a, &b| clock[a].total_cmp(&clock[b]).then(a.cmp(&b)))
            .unwrap_or(0);
        clock[w] += duration;
        cases[w] += 1;
    }
    ModeledSchedule {
        makespan_ms: clock.iter().copied().fold(0.0f64, f64::max),
        busy_ms: clock,
        worker_cases: cases,
    }
}

/// Relative gap within which a trace's speedup bound and the modeled
/// speedup count as agreeing ([`PlacementCheck::agrees`]).
pub const PLACEMENT_TOLERANCE: f64 = 0.10;

/// A traced batch's per-worker lanes checked against the dispatch rule.
///
/// Live dispatch hands the next job to whichever worker frees up first,
/// so placement is decided by wall time: the check replays the trace's
/// `engine.job` wall durations, taken in start (`t_us`) order, through
/// [`model_schedule`] on as many workers as the trace has lanes, and
/// compares that speedup with the lanes' wall bound. A gap beyond
/// [`PLACEMENT_TOLERANCE`] means placement went wrong — unless the host
/// time-sliced the workers, which is why callers skip the verdict on an
/// oversubscribed run.
#[derive(Clone, Debug, PartialEq)]
pub struct PlacementCheck {
    /// The trace's per-worker lanes and speedup bounds.
    pub critical_path: CriticalPath,
    /// The modeled speedup over the same wall durations.
    pub modeled_speedup: f64,
    /// `|bound - modeled| / modeled` (0 when nothing was modeled).
    pub divergence: f64,
}

impl PlacementCheck {
    /// Checks a trace's `engine.job` spans; `None` when it has none.
    #[must_use]
    pub fn from_trace(tree: &SpanTree) -> Option<PlacementCheck> {
        let critical_path = rb_obs::analyze::critical_path(tree);
        if critical_path.lanes.is_empty() {
            return None;
        }
        let mut jobs: Vec<_> = tree
            .spans()
            .iter()
            .filter(|s| s.name == "engine.job")
            .collect();
        jobs.sort_by_key(|s| (s.t_us, s.id));
        let walls: Vec<f64> = jobs.iter().map(|s| s.wall_us as f64).collect();
        let modeled_speedup = model_schedule(&walls, critical_path.lanes.len()).speedup();
        let bound = critical_path.speedup_bound_wall();
        let divergence = if modeled_speedup > 0.0 {
            (bound - modeled_speedup).abs() / modeled_speedup
        } else {
            0.0
        };
        Some(PlacementCheck {
            critical_path,
            modeled_speedup,
            divergence,
        })
    }

    /// The trace-side wall bound the check compares.
    #[must_use]
    pub fn bound(&self) -> f64 {
        self.critical_path.speedup_bound_wall()
    }

    /// Whether the bound and the model agree within
    /// [`PLACEMENT_TOLERANCE`].
    #[must_use]
    pub fn agrees(&self) -> bool {
        self.divergence <= PLACEMENT_TOLERANCE
    }
}

/// Serializes a result stream to JSON carrying **only the deterministic
/// repair fields** — no telemetry, no wall-clock, no cache attribution —
/// so two runs that repaired identically produce byte-identical files.
/// This is the artifact CI diffs between cache-enabled and cache-disabled
/// batch runs to pin the equivalence.
#[must_use]
pub fn results_to_json(results: &[CaseResult]) -> String {
    let rows = json_array(results, |r| {
        format!(
            concat!(
                "{{\"case_id\":{},\"class\":{},\"passed\":{},",
                "\"acceptable\":{},\"overhead_ms\":{},",
                "\"kb_queries\":{},\"kb_query_ms\":{}}}"
            ),
            json_str(&r.case_id),
            json_str(r.class.label()),
            r.passed,
            r.acceptable,
            json_num(r.overhead_ms),
            r.kb_queries,
            json_num(r.kb_query_ms),
        )
    });
    format!("{{\"results\":{rows}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let stats = EngineStats {
            workers: 2,
            cases: 3,
            wall_ms: 12.5,
            cases_per_sec: 240.0,
            worker_utilization: vec![0.9, 0.8],
            worker_cases: vec![2, 1],
            imbalance: EngineStats::imbalance_of(&[2, 1]),
            simulated_overhead_ms: 99.0,
            kb_query_ms: 18.5,
            oracle_executed: 7,
            oracle_cached: 21,
            kb: KbMergeStats {
                seeded_entries: 1,
                merged_inserts: 3,
                contributing_jobs: 2,
                coalesced: 1,
                final_entries: 3,
                shards_written: 2,
                shards_skipped: 1,
            },
            cache: CacheStats {
                hits: 1,
                misses: 3,
                entries: 3,
                evictions: 4,
                capacity: 64,
            },
            sched: SchedStats::default(),
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workers\":2"));
        assert!(
            !json.contains("sched"),
            "dispatch telemetry is not serialized"
        );
        assert!(json.contains("\"worker_utilization\":[0.9000,0.8000]"));
        assert!(json.contains("\"imbalance\":2.0000"));
        assert!(json.contains("\"oracle\":{\"executed\":7,\"cached\":21}"));
        assert!(json.contains("\"merged_inserts\":3"));
        assert!(json.contains("\"coalesced\":1"));
        assert!(json.contains("\"shards_written\":2"));
        assert!(json.contains("\"shards_skipped\":1"));
        assert!(json.contains("\"kb_query_ms\":18.5000"));
        assert!(json.contains("\"evictions\":4"));
        assert!(json.contains("\"capacity\":64"));
        assert!(json.contains("\"hit_rate\":0.2500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn modeled_submission_order_goes_to_the_first_free_worker() {
        // Submission order: the long job lands on worker 0, the next
        // four short ones on worker 1, and the last one breaks the 4/4
        // tie toward the lower index.
        let m = model_schedule(&[4.0, 1.0, 1.0, 1.0, 1.0, 1.0], 2);
        assert_eq!(m.busy_ms, vec![5.0, 4.0]);
        assert_eq!(m.worker_cases, vec![2, 4]);
        assert!((m.makespan_ms - 5.0).abs() < 1e-12);
        assert!((m.speedup() - 9.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn modeled_empty_and_single_worker_edges() {
        let empty = model_schedule(&[], 4);
        assert_eq!(empty.makespan_ms, 0.0);
        assert_eq!(empty.speedup(), 0.0);
        let one = model_schedule(&[1.0, 2.0], 1);
        assert!((one.makespan_ms - 3.0).abs() < 1e-12);
        assert!((one.speedup() - 1.0).abs() < 1e-12);
        // Zero workers clamp to one.
        assert_eq!(model_schedule(&[1.0], 0).worker_cases, vec![1]);
    }

    #[test]
    fn placement_check_replays_wall_durations_in_start_order() {
        // Two lanes laid out exactly as first-free dispatch would place
        // jobs of 30, 10, 10, 10 ms: the bound and the model agree.
        let job = |id: u64, t_us: u64, wall_us: u64, worker: &str| rb_obs::analyze::TraceSpan {
            id,
            parent: None,
            name: "engine.job".to_owned(),
            t_us,
            wall_us,
            sim_ms: 1.0,
            tags: vec![("worker".to_owned(), worker.to_owned())],
        };
        let spans = vec![
            job(1, 0, 30_000, "0"),
            job(2, 0, 10_000, "1"),
            job(3, 10_000, 10_000, "1"),
            job(4, 20_000, 10_000, "1"),
        ];
        let check = PlacementCheck::from_trace(&SpanTree::build(spans).unwrap()).unwrap();
        assert!((check.bound() - 2.0).abs() < 1e-12);
        assert!((check.modeled_speedup - 2.0).abs() < 1e-12);
        assert!(check.agrees());
        // Pile every job on one lane of a two-lane trace: the bound
        // drops to 1.0 against a modeled 2.0.
        let spans = vec![
            job(1, 0, 30_000, "0"),
            job(2, 30_000, 10_000, "0"),
            job(3, 40_000, 10_000, "0"),
            job(4, 50_000, 10_000, "0"),
            job(5, 0, 0, "1"),
        ];
        let check = PlacementCheck::from_trace(&SpanTree::build(spans).unwrap()).unwrap();
        assert!(!check.agrees(), "divergence {}", check.divergence);
        // A trace without job spans has nothing to check.
        assert!(PlacementCheck::from_trace(&SpanTree::build(Vec::new()).unwrap()).is_none());
    }

    #[test]
    fn non_finite_numbers_never_leak() {
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(f64::INFINITY), "0");
        assert_eq!(json_num(1.0 / 3.0), "0.3333");
    }

    #[test]
    fn imbalance_is_infinity_safe() {
        // Even split and single worker are both 1.0.
        assert_eq!(EngineStats::imbalance_of(&[3, 3]), Some(1.0));
        assert_eq!(EngineStats::imbalance_of(&[7]), Some(1.0));
        // The committed bench's distribution has a defined ratio.
        assert_eq!(EngineStats::imbalance_of(&[4, 1, 16, 21]), Some(21.0));
        // A starved worker would be an infinite ratio: report None, and
        // serialize it as null rather than a misleading finite number.
        assert_eq!(EngineStats::imbalance_of(&[0, 5]), None);
        assert_eq!(EngineStats::imbalance_of(&[0, 0]), None);
        assert_eq!(EngineStats::imbalance_of(&[]), None);
        let stats = EngineStats {
            workers: 2,
            worker_cases: vec![0, 5],
            imbalance: EngineStats::imbalance_of(&[0, 5]),
            ..EngineStats::default()
        };
        assert!(
            stats.to_json().contains("\"imbalance\":null"),
            "{}",
            stats.to_json()
        );
    }

    #[test]
    fn utilization_is_clamped_on_degenerate_batches() {
        // The normal case divides and clamps per worker.
        let u = EngineStats::utilization_of(&[5.0, 20.0], 10.0);
        assert_eq!(u, vec![0.5, 1.0]);
        // Zero-wall and empty batches must not emit NaN/inf into
        // BENCH_engine.json.
        assert_eq!(
            EngineStats::utilization_of(&[5.0, 0.0], 0.0),
            vec![0.0, 0.0]
        );
        assert_eq!(EngineStats::utilization_of(&[], 12.0), Vec::<f64>::new());
        // Pathological inputs (non-finite busy or wall) collapse to 0.
        assert_eq!(
            EngineStats::utilization_of(&[f64::NAN, f64::INFINITY], 10.0),
            vec![0.0, 0.0]
        );
        assert_eq!(EngineStats::utilization_of(&[1.0], f64::NAN), vec![0.0]);
        let stats = EngineStats {
            workers: 1,
            worker_utilization: EngineStats::utilization_of(&[3.0], 0.0),
            ..EngineStats::default()
        };
        assert!(stats.to_json().contains("\"worker_utilization\":[0.0000]"));
    }

    #[test]
    fn results_json_is_telemetry_free() {
        let results = vec![CaseResult {
            case_id: "alloc/double_free/0".into(),
            class: rb_miri::UbClass::Alloc,
            passed: true,
            acceptable: false,
            overhead_ms: 1234.5,
            kb_queries: 2,
            kb_query_ms: 18120.0,
        }];
        let json = results_to_json(&results);
        assert!(json.contains("\"case_id\":\"alloc/double_free/0\""));
        assert!(json.contains("\"overhead_ms\":1234.5000"));
        assert!(json.contains("\"kb_queries\":2"));
        // Deterministic fields only: no wall-clock, no cache, no workers.
        for banned in ["wall", "cache", "worker", "hit"] {
            assert!(!json.contains(banned), "telemetry `{banned}` leaked");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("n\nl"), "\"n\\u000al\"");
    }
}
