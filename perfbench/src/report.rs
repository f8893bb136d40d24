//! The metric vocabulary and the one-line JSON result every run prints.
//!
//! The names and units here are the benchmark's contract with
//! `BENCHMARK.json` (a test pins that both list the same metrics). An
//! untraced run reports exactly [`END_TO_END`]; a traced run reports
//! exactly [`PER_LAYER`].

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them, measured with the benchmark's own instrumentation off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("repair_p50_ms", "ms"),
    ("repair_p90_ms", "ms"),
    ("pass_rate", "ratio"),
    ("exec_rate", "ratio"),
    ("ok_rate", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not
/// exercise reports 0 (see `perfbench/README.md`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataset.generate_ms", "ms"),
    ("lang.parse_us", "us/program"),
    ("lang.print_us", "us/program"),
    ("lang.prune_embed_us", "us/program"),
    ("lang.clone_us", "us/program"),
    ("miri.run_us", "us/program"),
    ("miri.executed_per_case", "count/case"),
    ("lint.analyze_us", "us/program"),
    ("llm.propose_us", "us/call"),
    ("llm.prompt_render_us", "us/call"),
    ("llm.rule_apply_us", "us/program"),
    ("core.job_us", "us/case"),
    ("core.self_us", "us/case"),
    ("core.judgements_per_case", "count/case"),
    ("core.kb_queries_per_case", "count/case"),
    ("engine.oracle_exec_us", "us/case"),
    ("engine.oracle_cached_us", "us/case"),
    ("engine.cache_hit_rate", "ratio"),
    ("engine.cache_lookup_us", "us/call"),
    ("engine.program_key_us", "us/call"),
    ("engine.cache_entries", "count"),
    ("engine.merge_ms", "ms"),
    ("engine.worker_util_min", "ratio"),
    ("engine.imbalance", "ratio"),
    ("engine.steals", "count"),
    ("engine.parallel_efficiency", "ratio"),
    ("kb.query_us", "us/call"),
    ("kb.entries", "count"),
    ("kb.save_ms", "ms"),
    ("kb.load_ms", "ms"),
    ("kb.snapshot_us", "us/call"),
    ("kb.shard_loads", "count"),
    ("serve.req_per_s", "1/s"),
    ("serve.analyze_p50_ms", "ms"),
    ("serve.analyze_p90_ms", "ms"),
    ("serve.parse_request_us", "us/call"),
    ("serve.server_p50_ms", "ms"),
    ("serve.transport_p50_ms", "ms"),
    ("serve.errors", "count"),
    ("host.parallelism", "ratio"),
    ("bench.trace_overhead", "ratio"),
];

/// Share of attempted operations that failed (0 when nothing was
/// attempted).
#[must_use]
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: cases swept, requests sent, rows checked.
    pub attempted: u64,
    /// Operations that got no result, a non-ok response, or failed a
    /// correctness check.
    pub failed: u64,
    /// Human-readable description of each failure (printed to stderr).
    pub violations: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value. The name must come from [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation with its reason.
    pub fn fail(&mut self, reason: String) {
        self.fail_n(1, reason);
    }

    /// Counts `n` failed operations sharing one reason.
    pub fn fail_n(&mut self, n: u64, reason: String) {
        self.failed += n;
        if self.violations.len() < 20 {
            self.violations.push(reason);
        }
    }

    /// Whether every check passed.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// of `set` in declaration order. A metric of the set that was never
    /// recorded reports 0 (a layer the workload does not exercise); a
    /// non-finite value is reported as 0 and counted as a failure.
    #[must_use]
    pub fn result_line(&mut self, set: &[(&'static str, &'static str)]) -> String {
        let mut fields = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let mut value = self.get(name).unwrap_or(0.0);
            if !value.is_finite() {
                self.fail(format!("metric {name} is not finite"));
                value = 0.0;
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_serve::json::{parse, Value};

    /// Whether `name` is a legal metric name: non-empty, made only of
    /// ASCII letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(name.len() <= 64, "metric name too long: {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit:?}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name("a/b"));
    }

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// metrics this harness prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
    }

    #[test]
    fn result_line_carries_every_metric_of_the_set() {
        let mut out = Outcome::default();
        out.attempt(10);
        out.set("setup_s", 0.5);
        out.set("cases_per_s", f64::NAN);
        let line = out.result_line(END_TO_END);
        let doc = parse(&line).expect("result line is JSON");
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(1));
        let metrics = doc.get("metrics").expect("metrics");
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).expect("every metric present");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit));
        }
        let setup = metrics.get("setup_s").and_then(|m| m.get("value"));
        assert_eq!(setup.and_then(Value::as_f64), Some(0.5));
    }
}
