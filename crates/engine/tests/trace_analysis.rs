//! The trace-analysis layer against the real engine: a traced batch
//! must parse cleanly through `rb_obs::analyze`, its `engine.job` spans
//! must carry the worker each job ran on, and the critical-path speedup
//! bound extracted from the trace must agree with `model_schedule`'s
//! modeled speedup when both see the same durations.

use rb_dataset::Corpus;
use rb_engine::{model_schedule, Engine, SystemSpec};
use rb_miri::UbClass;
use rb_obs::analyze::{self, CheckOptions, SpanTree};
use rb_obs::Tracer;
use rustbrain::RustBrainConfig;

fn brain_spec() -> SystemSpec {
    SystemSpec::brain(RustBrainConfig::for_model(rb_llm::ModelId::Gpt4, 0))
}

#[test]
fn traced_batch_parses_checks_and_exposes_placement() {
    let corpus = Corpus::generate(7, 3, &[UbClass::Alloc, UbClass::Panic, UbClass::DataRace]);
    let tracer = Tracer::in_memory();
    let spec = brain_spec();
    let outcome = Engine::new(4)
        .with_tracer(tracer.clone())
        .run_batch(&spec, &corpus.cases, 42);
    assert_eq!(outcome.results.len(), corpus.cases.len());

    let text = tracer.lines().join("\n");
    let spans = analyze::read_str(&text).expect("engine trace must parse");
    let report = analyze::check(
        &spans,
        &CheckOptions {
            require_names: vec!["engine.job".into(), "repair".into(), "fast".into()],
            ..CheckOptions::default()
        },
    );
    assert!(report.ok(), "violations: {:?}", report.violations);

    let tree = SpanTree::build(spans).expect("engine trace must form a tree");
    let cp = analyze::critical_path(&tree);
    assert_eq!(cp.jobs as usize, corpus.cases.len());
    // Every job span carries its worker lane.
    for s in tree.spans().iter().filter(|s| s.name == "engine.job") {
        let worker: usize = s
            .tag("worker")
            .expect("engine.job missing worker tag")
            .parse()
            .expect("worker tag must be numeric");
        assert!(worker < 4);
    }
    // Job sim totals in the trace reconcile with the batch's results —
    // the analysis reads the same numbers the engine reported.
    // (The wire rounds sim_ms to 4 decimals, so reconciliation is to
    // within half a unit in the last place per job.)
    let total_overhead: f64 = outcome.results.iter().map(|r| r.overhead_ms).sum();
    assert!(
        (cp.total_sim_ms - total_overhead).abs() < 1e-3 * cp.jobs as f64,
        "trace sim {} != results overhead {}",
        cp.total_sim_ms,
        total_overhead
    );
    // The flamegraph's engine.job root row sees every job.
    let aggs = analyze::flamegraph(&tree);
    let job_row = aggs
        .iter()
        .find(|a| a.path == "engine.job")
        .expect("engine.job path missing from flamegraph");
    assert_eq!(job_row.count, cp.jobs);
}

/// On a shape where placement is forced (the virtual replay and the
/// analysis lane math reduce to the same arithmetic), the trace-side
/// bound and the model's speedup agree exactly; on a real engine trace of
/// a skewed corpus, laid onto fixed lanes, they agree within 25%.
#[test]
fn critical_path_bound_agrees_with_modeled_speedup() {
    // Synthetic forced shape: 16 equal jobs on 4 workers. Submission
    // order deals 4 per lane, makespan = total/4 — the modeled speedup is
    // exactly 4 and so is the lane bound from a trace of the same
    // placement.
    let durations = vec![10.0f64; 16];
    let modeled = model_schedule(&durations, 4);
    assert!((modeled.speedup() - 4.0).abs() < 1e-9);

    let mut lines = Vec::new();
    for (i, d) in durations.iter().enumerate() {
        lines.push(format!(
            "{{\"id\":{},\"parent\":null,\"name\":\"engine.job\",\"t_us\":0,\"wall_us\":{},\"sim_ms\":{:.4},\"tags\":{{\"worker\":\"{}\"}}}}",
            i + 1,
            (d * 1000.0) as u64,
            d,
            i % 4
        ));
    }
    let spans = analyze::read_str(&lines.join("\n")).unwrap();
    let cp = analyze::critical_path(&SpanTree::build(spans).unwrap());
    let bound = cp.speedup_bound_sim();
    assert!(
        (bound - modeled.speedup()).abs() / modeled.speedup() < 0.10,
        "trace bound {bound} vs modeled {} diverged beyond 10%",
        modeled.speedup()
    );

    // Real engine trace on a skewed corpus, laid onto a deterministic
    // placement. Live dispatch is paced by *wall* progress while the
    // bound sums *sim* charges, so the live placement of a small batch on
    // a time-sliced host wanders from run to run. The job spans are
    // therefore re-laned by a submission-order list schedule over the
    // jobs' simulated durations from the trace — the engine's dispatch
    // rule on an idealized clock — and compared with `model_schedule`'s
    // replay of the same durations.
    let corpus = Corpus::generate(
        11,
        30,
        &[
            UbClass::Alloc,
            UbClass::Panic,
            UbClass::DataRace,
            UbClass::Validity,
        ],
    );
    let tracer = Tracer::in_memory();
    let spec = brain_spec();
    let outcome = Engine::new(4)
        .with_tracer(tracer.clone())
        .run_batch(&spec, &corpus.cases, 42);
    let mut spans = analyze::read_str(&tracer.lines().join("\n")).unwrap();
    let index_of = |case: &str| {
        corpus
            .cases
            .iter()
            .position(|c| c.id == case)
            .expect("job span for an unknown case")
    };
    let mut sims = vec![0.0f64; corpus.cases.len()];
    for s in spans.iter().filter(|s| s.name == "engine.job") {
        let case = s.tag("case").expect("engine.job missing case tag");
        sims[index_of(case)] = s.sim_ms;
    }
    let expected: Vec<f64> = outcome.results.iter().map(|r| r.overhead_ms).collect();
    for (sim, want) in sims.iter().zip(&expected) {
        assert!(
            (sim - want).abs() < 1e-3,
            "trace sim {sim} != result {want}"
        );
    }
    let lanes = list_schedule_lanes(&sims, 4);
    for s in spans.iter_mut().filter(|s| s.name == "engine.job") {
        let lane = lanes[index_of(s.tag("case").expect("engine.job missing case tag"))];
        for (key, value) in &mut s.tags {
            if key == "worker" {
                *value = lane.to_string();
            }
        }
    }
    let modeled = model_schedule(&sims, 4);
    let cp = analyze::critical_path(&SpanTree::build(spans).unwrap());
    let bound = cp.speedup_bound_sim();
    assert!(
        bound > 1.0 && bound <= 4.0 + 1e-9,
        "bound {bound} outside (1, workers]"
    );
    assert!(
        (bound - modeled.speedup()).abs() / modeled.speedup() < 0.25,
        "real-batch bound {bound} vs modeled {} diverged beyond 25%",
        modeled.speedup()
    );
}

/// Submission-order list scheduling: each job in turn goes to the lane
/// with the least load so far (lowest lane breaks ties) — the engine's
/// dispatch rule on an idealized clock. Returns each job's lane.
fn list_schedule_lanes(durations: &[f64], workers: usize) -> Vec<usize> {
    let mut load = vec![0.0f64; workers];
    durations
        .iter()
        .map(|&d| {
            let lane = (0..workers)
                .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
                .unwrap_or(0);
            load[lane] += d;
            lane
        })
        .collect()
}
