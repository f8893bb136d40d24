//! The batch workloads: full-corpus sweeps on the engine's worker pool.
//!
//! `batch-cold` sweeps with a fresh private oracle cache and an empty
//! knowledge base, so every program is a first sighting: the interpreter,
//! cache inserts, knowledge learning and the delta merge all do their
//! work. `batch-warm` sweeps a corpus whose verdicts are all cached and
//! whose knowledge base was learned, saved to a sharded store and loaded
//! back during setup: the interpreter never runs, and every retrieval hits
//! a populated base.

use crate::measure::{fastest, median, ms_since, peak_rss_mb, quantile, DigestCheck};
use crate::report::{error_rate, Outcome};
use crate::trace;
use rb_dataset::{Corpus, UbCase};
use rb_engine::{
    derive_case_seed, results_to_json, run_serial_reference, BatchOutcome, CaseResult, Engine,
    OracleCache, SystemSpec,
};
use rb_llm::ModelId;
use rb_miri::{DirectOracle, Oracle, UbClass};
use rustbrain::{KnowledgeBase, RustBrainConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cases per UB class: 14 classes × 300 = 4200 cases per sweep.
pub const PER_CLASS: usize = 300;
/// Engine workers, as `nproc` reports on the reference host.
pub const WORKERS: usize = 2;
/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Fewest timed sweeps a run makes, however long they take.
const MIN_SWEEPS: usize = 3;
/// Cases per class re-run serially through an uncached oracle.
const SUBSET_PER_CLASS: usize = 2;

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Warmth {
    /// Fresh cache and empty knowledge base on every sweep.
    Cold,
    /// Primed cache and a learned, stored and reloaded knowledge base.
    Warm,
}

/// The system every batch repairs with: the CLI's `batch` defaults.
#[must_use]
pub fn spec(seed: u64) -> SystemSpec {
    let mut config = RustBrainConfig::for_model(ModelId::Gpt4, seed);
    config.temperature = 0.5;
    config.use_knowledge = true;
    SystemSpec::brain(config)
}

/// A corpus ready to sweep, with the state every sweep starts from.
pub struct Prepared {
    /// The corpus cases, in submission order.
    cases: Vec<UbCase>,
    /// Corpus seed, also the batch's base seed.
    seed: u64,
    /// Knowledge every job starts from.
    snapshot: KnowledgeBase,
    /// The primed cache of a warm workload (`None`: fresh per sweep).
    warm_cache: Option<Arc<OracleCache>>,
}

impl Prepared {
    /// Wraps generated cases with the state a cold sweep starts from.
    #[must_use]
    pub fn cold(cases: Vec<UbCase>, seed: u64, snapshot: KnowledgeBase) -> Prepared {
        Prepared {
            cases,
            seed,
            snapshot,
            warm_cache: None,
        }
    }

    /// The cache the next sweep judges through.
    #[must_use]
    pub fn cache(&self) -> Arc<OracleCache> {
        self.warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(OracleCache::new()))
    }

    /// One sweep on `workers` threads, and its wall time in seconds.
    #[must_use]
    pub fn sweep(&self, workers: usize) -> (BatchOutcome, f64) {
        let engine = Engine::with_cache(workers, self.cache());
        let spec = spec(self.seed);
        let start = Instant::now();
        let outcome = engine.run_batch_learned(&spec, &self.cases, self.seed, &self.snapshot);
        (outcome, start.elapsed().as_secs_f64())
    }
}

/// Generates the corpus and, for the warm workload, primes the cache with
/// a cold sweep, round-trips the learned base through a sharded store
/// and runs the first warm sweep (which still executes the judgements the
/// learned base's new trajectories need). Returns the prepared state and
/// the corpus generation time in ms.
fn prepare(warmth: Warmth, seed: u64, work: &Path, out: &mut Outcome) -> (Prepared, f64) {
    let start = Instant::now();
    let cases = Corpus::generate_full(seed, PER_CLASS).cases;
    let generate_ms = ms_since(start);
    if warmth == Warmth::Cold {
        return (
            Prepared::cold(cases, seed, KnowledgeBase::new()),
            generate_ms,
        );
    }
    let cache = Arc::new(OracleCache::new());
    let engine = Engine::with_cache(WORKERS, Arc::clone(&cache));
    let learned = engine
        .run_batch_learned(&spec(seed), &cases, seed, &KnowledgeBase::new())
        .knowledge;
    let store = work.join("warm.rbkb.d");
    let _ = std::fs::remove_dir_all(&store);
    let snapshot = match learned
        .save(&store)
        .and_then(|()| KnowledgeBase::load(&store))
    {
        Ok(loaded) if loaded.to_bytes() == learned.to_bytes() => loaded,
        Ok(_) => {
            out.fail("the stored knowledge base loaded back different".to_owned());
            learned
        }
        Err(e) => {
            out.fail(format!("knowledge store round trip failed: {e}"));
            learned
        }
    };
    let _ = engine.run_batch_learned(&spec(seed), &cases, seed, &snapshot);
    let prepared = Prepared {
        cases,
        seed,
        snapshot,
        warm_cache: Some(cache),
    };
    (prepared, generate_ms)
}

/// Runs a batch workload: setup [`SETUP_REPS`] times, then either the
/// timed sweeps (`trace == false`) or the traced run.
pub fn run(warmth: Warmth, seed: u64, seconds: u64, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut generates = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        drop(prepared.take());
        let start = Instant::now();
        let (prep, generate_ms) = prepare(warmth, seed, work, &mut out);
        setups.push(start.elapsed().as_secs_f64());
        generates.push(generate_ms);
        prepared = Some(prep);
    }
    let prep = prepared.expect("at least one setup");
    out.set("setup_s", median(&setups));
    out.set("dataset.generate_ms", median(&generates));
    if trace {
        traced(warmth, &prep, work, &mut out);
    } else {
        timed(warmth, &prep, seconds, &mut out);
    }
    out
}

/// Repeats the sweep for `seconds` (at least [`MIN_SWEEPS`] times) and
/// records the end-to-end metrics and correctness checks. Throughput and
/// job latencies come from the [`fastest`] sweep; each sweep keeps only
/// its own job-latency quantiles, so memory does not grow with the number
/// of sweeps.
fn timed(warmth: Warmth, prep: &Prepared, seconds: u64, out: &mut Outcome) {
    let n = prep.cases.len();
    let mut digest = DigestCheck::default();
    let mut rates = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    let mut last: Option<BatchOutcome> = None;
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    while rates.len() < MIN_SWEEPS || start.elapsed() < deadline {
        drop(last.take());
        let (outcome, secs) = prep.sweep(WORKERS);
        rates.push(n as f64 / secs);
        let job_ms: Vec<f64> = outcome.jobs.iter().map(|j| j.wall_ms).collect();
        p50s.push(quantile(&job_ms, 0.5));
        p90s.push(quantile(&job_ms, 0.9));
        out.attempt(n as u64);
        let sweep = rates.len();
        if !digest.check(results_to_json(&outcome.results)) {
            out.fail(format!("sweep {sweep}: results differ from sweep 1"));
        }
        if warmth == Warmth::Warm && outcome.stats.oracle_executed != 0 {
            out.fail(format!(
                "sweep {sweep}: warm sweep executed {} judgements",
                outcome.stats.oracle_executed
            ));
        }
        last = Some(outcome);
    }
    let last = last.expect("at least one sweep");
    check_subset(warmth, prep, &last.results, out);
    eprintln!(
        "perfbench: {} sweeps of {n} cases at {:.0}..{:.0} (median {:.0}) cases/s, results digest {:016x}",
        rates.len(),
        quantile(&rates, 0.0),
        quantile(&rates, 1.0),
        median(&rates),
        digest.digest()
    );

    let best = fastest(&rates);
    let (pass_rate, exec_rate) = rates_of(&last.results);
    out.set("cases_per_s", rates[best]);
    out.set("repair_p50_ms", p50s[best]);
    out.set("repair_p90_ms", p90s[best]);
    out.set("pass_rate", pass_rate);
    out.set("exec_rate", exec_rate);
    out.set("ok_rate", 1.0 - error_rate(out.attempted, out.failed));
    out.set("peak_rss_mb", peak_rss_mb());
}

/// Share of results that passed the oracle and share whose outputs match
/// the gold reference (the paper's pass and execution rates).
#[must_use]
fn rates_of(results: &[CaseResult]) -> (f64, f64) {
    let n = results.len().max(1) as f64;
    let passed = results.iter().filter(|r| r.passed).count() as f64;
    let acceptable = results.iter().filter(|r| r.acceptable).count() as f64;
    (passed / n, acceptable / n)
}

/// A seeded choice of [`SUBSET_PER_CLASS`] case indices per class.
fn subset(cases: &[UbCase], seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x5ab5_e7c4_ec45_0000;
    let mut next = || {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut picks = Vec::new();
    for class in UbClass::ALL {
        let of_class: Vec<usize> = (0..cases.len())
            .filter(|&i| cases[i].class == class)
            .collect();
        for _ in 0..SUBSET_PER_CLASS.min(of_class.len()) {
            picks.push(of_class[(next() % of_class.len() as u64) as usize]);
        }
    }
    picks.sort_unstable();
    picks.dedup();
    picks
}

/// Re-runs a seeded subset serially through an uncached [`DirectOracle`]
/// from the same knowledge snapshot and compares the rows with the
/// engine's byte for byte. For the cold workload the subset must also
/// equal the engine's plain serial reference.
fn check_subset(warmth: Warmth, prep: &Prepared, rows: &[CaseResult], out: &mut Outcome) {
    let spec = spec(prep.seed);
    let picks = subset(&prep.cases, prep.seed);
    let oracle: Arc<dyn Oracle> = Arc::new(DirectOracle);
    let mut serial = Vec::with_capacity(picks.len());
    for &i in &picks {
        let case = &prep.cases[i];
        let seed = derive_case_seed(prep.seed, &case.id);
        let mut system = spec.build_with(seed, Arc::clone(&oracle), &prep.snapshot);
        let reference = oracle.judge(&case.gold).outputs.clone();
        serial.push(system.repair_case_with(case, &reference));
    }
    out.attempt(picks.len() as u64);
    for (&i, row) in picks.iter().zip(&serial) {
        if results_to_json(std::slice::from_ref(row)) != results_to_json(&rows[i..=i]) {
            out.fail(format!(
                "case {}: serial direct-oracle row differs",
                rows[i].case_id
            ));
        }
    }
    if warmth == Warmth::Cold {
        let chosen: Vec<UbCase> = picks.iter().map(|&i| prep.cases[i].clone()).collect();
        if run_serial_reference(&spec, &chosen, prep.seed) != serial {
            out.fail("subset differs from run_serial_reference".to_owned());
        }
    }
}

/// The traced run: one untraced sweep on [`WORKERS`] threads and one on a
/// single thread, then the serial timed-oracle runner and the layer
/// replay. All three result streams must equal each other byte for byte.
pub fn traced(warmth: Warmth, prep: &Prepared, work: &Path, out: &mut Outcome) {
    let mut digest = DigestCheck::default();
    let (parallel, parallel_s) = prep.sweep(WORKERS);
    let (single, single_s) = prep.sweep(1);
    let spec = spec(prep.seed);
    let start = Instant::now();
    let serial = trace::run_serially(
        &prep.cases,
        &spec,
        prep.seed,
        &prep.snapshot,
        prep.cache(),
        out,
    );
    let serial_s = start.elapsed().as_secs_f64();
    for (label, results) in [
        ("parallel sweep", &parallel.results),
        ("single-worker sweep", &single.results),
        ("serial runner", &serial.results),
    ] {
        out.attempt(results.len() as u64);
        if !digest.check(results_to_json(results)) {
            out.fail(format!("{label}: results differ from the parallel sweep"));
        }
    }
    if warmth == Warmth::Warm {
        for (label, executed) in [
            ("parallel", parallel.stats.oracle_executed),
            ("single-worker", single.stats.oracle_executed),
        ] {
            if executed != 0 {
                out.fail(format!("{label} warm sweep executed {executed} judgements"));
            }
        }
        if out.get("miri.executed_per_case") != Some(0.0) {
            out.fail("the serial warm runner executed judgements".to_owned());
        }
    }
    let host = crate::measure::spin_probe();
    let stats = &parallel.stats;
    out.set("host.parallelism", host);
    out.set("bench.trace_overhead", serial_s / single_s);
    out.set("engine.parallel_efficiency", single_s / parallel_s / host);
    out.set(
        "engine.worker_util_min",
        stats
            .worker_utilization
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min),
    );
    out.set("engine.imbalance", stats.imbalance.unwrap_or(0.0));
    out.set("engine.steals", stats.sched.steals as f64);
    let merged = trace::merge(&prep.snapshot, &serial.deltas, out);
    if merged.to_bytes() != parallel.knowledge.to_bytes() {
        out.fail("serially merged knowledge differs from the engine's".to_owned());
    }
    trace::replay(&prep.cases, &merged, prep.seed, work, out);
}
