//! Engine throughput benchmark: times a full-corpus RustBrain sweep at 1
//! worker and at N workers on a *pre-warmed* shared oracle cache (so the
//! series isolates the worker pool from caching), checks the two result
//! streams are byte-identical, and writes the numbers to
//! `BENCH_engine.json` — the engine's perf trajectory across PRs. Since
//! PR 3 the file also carries per-UbClass throughput and the
//! executed-vs-cached oracle split (the whole stack judges through the
//! shared cache now, so the split is the honest measure of how much
//! interpreter work the cache actually saves). Since PR 4 it also
//! carries a warm-vs-cold knowledge comparison: the cold sweep's learned
//! base is saved to an `.rbkb` file, reloaded, and the sweep rerun warm
//! — reporting repair-rate and kb-query-cost deltas plus the entry count
//! before/after the merge policy's coalescing (versus the unbounded
//! append-only alternative).
//!
//! The file flags `speedup_degraded` when the host cannot run `--jobs`
//! workers at once: a spin probe on `--jobs` threads measures the
//! host's parallelism (recorded as `measured_parallelism`), and a
//! reading below 0.9 × jobs makes the wall speedup a fact about the
//! host, not the engine — CI skips its speedup gates on that flag.
//! `modeled_speedup` replays the serial sweep's measured per-job wall
//! times through the engine's dispatch rule on a virtual clock
//! (`model_schedule`), the honest N-worker figure when the host lacks a
//! core per worker. `--repeat N` amplifies the corpus (N clones of the
//! 42 templates with varied case ids/sizes) so the signal beats
//! wall-clock noise, and `--trace-out` writes a structured JSONL span
//! trace of the timed parallel sweep.
//!
//! A traced run re-reads its own flushed trace and writes a
//! `critical_path` section: the per-worker lane bound on achievable
//! speedup next to the modeled speedup of the same wall durations
//! (`rb_engine::PlacementCheck`; the two must agree within 10% when the
//! host has a core per worker). Every run also appends one compact row —
//! date, corpus size, speedup, measured parallelism, hit rate — to
//! `BENCH_history.jsonl` beside the output file, so the perf trajectory
//! accumulates across PRs without diffing full BENCH files.
//!
//! ```text
//! USAGE: bench_engine [--jobs N] [--per-class N] [--repeat N]
//!                     [--out PATH] [--trace-out PATH]
//! ```

use rb_bench::overall_rates;
use rb_dataset::Corpus;
use rb_engine::{model_schedule, BatchOutcome, Engine, OracleCache, PlacementCheck, SystemSpec};
use rb_llm::ModelId;
use rb_miri::UbClass;
use rustbrain::{KnowledgeBase, MergePolicy, RustBrainConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    jobs: usize,
    per_class: usize,
    repeat: usize,
    out: String,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        jobs: std::thread::available_parallelism().map_or(4, usize::from),
        per_class: 3,
        repeat: 1,
        out: "BENCH_engine.json".to_owned(),
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--jobs" => {
                args.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs")?;
            }
            "--per-class" => {
                args.per_class = value("--per-class")?
                    .parse()
                    .map_err(|_| "bad --per-class")?;
            }
            "--repeat" => {
                args.repeat = value("--repeat")?.parse().map_err(|_| "bad --repeat")?;
            }
            "--out" => args.out = value("--out")?,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.jobs == 0 || args.per_class == 0 || args.repeat == 0 {
        return Err("--jobs, --per-class and --repeat must be positive".into());
    }
    Ok(args)
}

fn sweep(
    workers: usize,
    cache: &Arc<OracleCache>,
    spec: &SystemSpec,
    corpus: &Corpus,
    tracer: Option<&rb_obs::Tracer>,
) -> BatchOutcome {
    let mut engine = Engine::with_cache(workers, Arc::clone(cache));
    if let Some(tracer) = tracer {
        engine = engine.with_tracer(tracer.clone());
    }
    engine.run_batch(spec, &corpus.cases, corpus.seed)
}

/// Per-UbClass rows of the parallel sweep: case count, pass/exec rates,
/// real wall time spent on the class across all workers (and the derived
/// per-class throughput), and the class's executed-vs-cached oracle
/// split. Rows appear in first-encounter (submission) order.
fn class_rows_json(outcome: &BatchOutcome) -> String {
    let mut classes: Vec<UbClass> = Vec::new();
    for r in &outcome.results {
        if !classes.contains(&r.class) {
            classes.push(r.class);
        }
    }
    let rows: Vec<String> = classes
        .iter()
        .map(|&class| {
            let mut cases = 0usize;
            let mut passed = 0usize;
            let mut acceptable = 0usize;
            let mut wall_ms = 0.0f64;
            let mut executed = 0usize;
            let mut cached = 0usize;
            for j in &outcome.jobs {
                if j.result.class != class {
                    continue;
                }
                cases += 1;
                passed += usize::from(j.result.passed);
                acceptable += usize::from(j.result.acceptable);
                wall_ms += j.wall_ms;
                executed += j.oracle_use.executed;
                cached += j.oracle_use.cached;
            }
            let cases_per_sec = if wall_ms > 0.0 {
                cases as f64 / (wall_ms / 1e3)
            } else {
                0.0
            };
            format!(
                concat!(
                    "{{\"class\":\"{}\",\"cases\":{},\"passed\":{},",
                    "\"acceptable\":{},\"wall_ms\":{:.4},",
                    "\"cases_per_sec\":{:.4},",
                    "\"oracle\":{{\"executed\":{},\"cached\":{}}}}}"
                ),
                class.label(),
                cases,
                passed,
                acceptable,
                wall_ms,
                cases_per_sec,
                executed,
                cached,
            )
        })
        .collect();
    format!("[{}]", rows.join(",\n  "))
}

/// The warm-vs-cold knowledge comparison: saves the cold sweep's learned
/// base through a real `.rbkb` file, reruns the sweep warm from the
/// reloaded store, and runs the append-only alternative to quantify what
/// coalescing bounds. Returns the JSON section and a console summary.
fn warm_start_json(
    jobs: usize,
    cache: &Arc<OracleCache>,
    spec: &SystemSpec,
    corpus: &Corpus,
    cold: &BatchOutcome,
) -> (String, String) {
    // Chained through the sharded production layout: the save reports
    // per-class segmentation and the reload proves the round trip.
    let kb_path = std::env::temp_dir().join(format!("bench_engine_{}.rbkb.d", std::process::id()));
    let save = cold
        .knowledge
        .save_reported(&kb_path)
        .expect("saving the cold knowledge store");
    let snapshot = KnowledgeBase::load(&kb_path).expect("reloading the knowledge store");
    let _ = std::fs::remove_dir_all(&kb_path);

    let warm = Engine::with_cache(jobs, Arc::clone(cache)).run_batch_learned(
        spec,
        &corpus.cases,
        corpus.seed,
        &snapshot,
    );
    // The unbounded alternative the merge policy replaces: blind append.
    let append = Engine::with_cache(jobs, Arc::clone(cache))
        .with_merge_policy(MergePolicy::append_only())
        .run_batch_learned(spec, &corpus.cases, corpus.seed, &snapshot);

    let run_json = |o: &BatchOutcome| {
        let (pass, exec) = overall_rates(&o.results);
        format!(
            concat!(
                "{{\"pass_rate\":{:.4},\"exec_rate\":{:.4},",
                "\"simulated_overhead_ms\":{:.4},\"kb_query_ms\":{:.4}}}"
            ),
            pass.value(),
            exec.value(),
            o.stats.simulated_overhead_ms,
            o.stats.kb_query_ms,
        )
    };
    let (cold_pass, cold_exec) = overall_rates(&cold.results);
    let (warm_pass, warm_exec) = overall_rates(&warm.results);
    let json = format!(
        concat!(
            "{{\"cold\":{},\n   \"warm\":{},\n   ",
            "\"delta\":{{\"pass_rate\":{:.4},\"exec_rate\":{:.4},",
            "\"simulated_overhead_ms\":{:.4},\"kb_query_ms\":{:.4}}},\n   ",
            "\"kb_entries\":{{\"seeded\":{},\"before_coalescing\":{},",
            "\"after_coalescing\":{},\"append_only_final\":{},\"store_shards\":{}}}}}"
        ),
        run_json(cold),
        run_json(&warm),
        warm_pass.value() - cold_pass.value(),
        warm_exec.value() - cold_exec.value(),
        warm.stats.simulated_overhead_ms - cold.stats.simulated_overhead_ms,
        warm.stats.kb_query_ms - cold.stats.kb_query_ms,
        warm.stats.kb.seeded_entries,
        warm.stats.kb.seeded_entries + warm.stats.kb.merged_inserts,
        warm.stats.kb.final_entries,
        append.stats.kb.final_entries,
        save.shards_written + save.shards_skipped,
    );
    let summary = format!(
        "warm start: exec rate {:.1}% -> {:.1}% | overhead {:.0} -> {:.0} ms | kb entries {} coalesced to {} (append-only would hold {})",
        cold_exec.percent(),
        warm_exec.percent(),
        cold.stats.simulated_overhead_ms,
        warm.stats.simulated_overhead_ms,
        warm.stats.kb.seeded_entries + warm.stats.kb.merged_inserts,
        warm.stats.kb.final_entries,
        append.stats.kb.final_entries,
    );
    (json, summary)
}

/// Today's UTC civil date as `YYYY-MM-DD`, from the epoch second count
/// alone (no date dependency in the tree). Days-to-civil conversion per
/// Howard Hinnant's `civil_from_days`.
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// The trace-side critical path of the parallel sweep: re-reads the
/// flushed trace and checks its per-worker lanes against the dispatch
/// rule's virtual-clock replay of the same wall durations
/// ([`PlacementCheck`], the check `rustbrain trace critical-path`
/// prints). Returns the JSON section (its `bound_matches_model` is the
/// CI consistency gate when the host isn't oversubscribed), a console
/// line, and the sim-side speedup bound for the history row.
fn critical_path_json(trace_path: &str) -> Result<(String, String, f64), String> {
    let spans = rb_obs::analyze::read_file(std::path::Path::new(trace_path))
        .map_err(|e| format!("trace {trace_path}: {e}"))?;
    let tree =
        rb_obs::analyze::SpanTree::build(spans).map_err(|e| format!("trace {trace_path}: {e}"))?;
    let check = PlacementCheck::from_trace(&tree)
        .ok_or_else(|| format!("trace {trace_path}: no engine.job spans"))?;
    let cp = &check.critical_path;
    let within = check.agrees();
    let json = format!(
        concat!(
            "{{\"lanes\":{},\"jobs\":{},",
            "\"total_sim_ms\":{:.4},\"busiest_lane_sim_ms\":{:.4},",
            "\"speedup_bound_sim\":{:.4},\"speedup_bound_wall\":{:.4},",
            "\"modeled_speedup\":{:.4},\"divergence\":{:.4},",
            "\"bound_matches_model\":{}}}"
        ),
        cp.lanes.len(),
        cp.jobs,
        cp.total_sim_ms,
        cp.critical_sim_ms,
        cp.speedup_bound_sim(),
        check.bound(),
        check.modeled_speedup,
        check.divergence,
        within,
    );
    let line = format!(
        "critical path: {} lanes | bound {:.2}x (wall) {:.2}x (sim) | modeled {:.2}x (wall) | {}",
        cp.lanes.len(),
        check.bound(),
        cp.speedup_bound_sim(),
        check.modeled_speedup,
        if within {
            "agrees within 10%".to_owned()
        } else {
            format!("diverges {:.0}%", check.divergence * 100.0)
        },
    );
    Ok((json, line, cp.speedup_bound_sim()))
}

/// One unit of probe work: a dependent integer loop the optimizer
/// cannot fold away.
fn spin(iterations: u64) -> u64 {
    let mut x = std::hint::black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..iterations {
        x = x.rotate_left(7) ^ i.wrapping_mul(0x0000_0100_0000_01b3);
    }
    std::hint::black_box(x)
}

/// Measured parallelism of the host for `jobs` workers: the wall speedup
/// of running the spin loop once on each of `jobs` threads at once over
/// running it `jobs` times on one thread. `jobs` free cores give about
/// `jobs`; fewer give less, whatever `available_parallelism` claims.
/// Starts at most `jobs` threads (the caller's included). The median of
/// three trials, clamped to `(0, jobs]`.
fn measured_parallelism(jobs: usize) -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let mut trials: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..jobs {
                spin(ITERATIONS);
            }
            let serial = start.elapsed().as_secs_f64();
            let start = Instant::now();
            std::thread::scope(|s| {
                for _ in 1..jobs {
                    s.spawn(|| spin(ITERATIONS));
                }
                spin(ITERATIONS);
            });
            let parallel = start.elapsed().as_secs_f64();
            serial / parallel.max(f64::MIN_POSITIVE)
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[1].clamp(f64::MIN_POSITIVE, jobs as f64)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // Probe before any sweep, so the engine's own threads cannot skew it.
    let measured = measured_parallelism(args.jobs);
    // --repeat amplifies the corpus: the generator cycles each class's
    // template families with seed-derived size/id variation, so N
    // repeats yield N× structurally distinct cases per class.
    let corpus = Corpus::generate_full(42, args.per_class * args.repeat);
    let spec = SystemSpec::brain(RustBrainConfig::for_model(ModelId::Gpt4, 0));
    let cache = Arc::new(OracleCache::new());

    let tracer = match &args.trace_out {
        Some(path) => match rb_obs::Tracer::to_file(std::path::Path::new(path)) {
            Ok(tracer) => Some(tracer),
            Err(e) => {
                eprintln!("error: cannot open trace file {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    // Warm-up sweep (untimed): populates the oracle cache so both timed
    // sweeps run under identical, fully-warm cache conditions.
    let warmup = sweep(args.jobs, &cache, &spec, &corpus, None);
    // The serial reference doubles as the ground truth for per-job
    // durations; only the parallel sweep is traced.
    let serial = sweep(1, &cache, &spec, &corpus, None);
    let parallel = sweep(args.jobs, &cache, &spec, &corpus, tracer.as_ref());
    if let Some(tracer) = &tracer {
        tracer.flush();
    }
    let identical = warmup.results == serial.results && parallel.results == serial.results;

    // An honest speedup needs a core per worker: below 0.9 × jobs of
    // measured parallelism the workers time-slice, and the ratio stops
    // measuring the engine (modeled_speedup carries the N-worker figure).
    let speedup_degraded = measured < 0.9 * args.jobs as f64;
    let speedup = if parallel.stats.wall_ms > 0.0 {
        serial.stats.wall_ms / parallel.stats.wall_ms
    } else {
        0.0
    };
    let durations: Vec<f64> = serial.jobs.iter().map(|j| j.wall_ms).collect();
    let modeled_speedup = model_schedule(&durations, args.jobs).speedup();
    // The trace-side view of the same parallel sweep: lanes read back
    // from the flushed spans must bound speedup consistently with the
    // virtual-clock model fed the same wall durations.
    let critical_path = match args.trace_out.as_deref() {
        Some(path) => match critical_path_json(path) {
            Ok(cp) => Some(cp),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };
    let cache_stats = cache.stats();
    let (pass, exec) = overall_rates(&parallel.results);
    let (warm_json, warm_summary) = warm_start_json(args.jobs, &cache, &spec, &corpus, &parallel);

    let json = format!(
        concat!(
            "{{\"bench\":\"engine\",\"cases\":{},\"available_cores\":{},",
            "\"measured_parallelism\":{:.4},",
            "\"requested_jobs\":{},\"repeat\":{},\n",
            " \"identical_results\":{},\n",
            " \"pass_rate\":{:.4},\"exec_rate\":{:.4},\n",
            " \"serial\":{},\n",
            " \"parallel\":{},\n",
            " \"speedup\":{:.4},\"speedup_degraded\":{},",
            "\"modeled_speedup\":{:.4},\n",
            " \"critical_path\":{},\n",
            " \"per_class\":{},\n",
            " \"warm_start\":{},\n",
            " \"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},",
            "\"evictions\":{},\"capacity\":{},\"hit_rate\":{:.4}}}}}\n"
        ),
        corpus.len(),
        cores,
        measured,
        args.jobs,
        args.repeat,
        identical,
        pass.value(),
        exec.value(),
        serial.stats.to_json(),
        parallel.stats.to_json(),
        speedup,
        speedup_degraded,
        modeled_speedup,
        critical_path
            .as_ref()
            .map_or_else(|| "null".to_owned(), |(json, ..)| json.clone()),
        class_rows_json(&parallel),
        warm_json,
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.entries,
        cache_stats.evictions,
        cache_stats.capacity,
        cache_stats.hit_rate(),
    );
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }

    println!(
        "engine bench: {} cases (repeat {}) | {} cores, measured parallelism {measured:.2} | 1 worker: {:.0} ms ({:.1} cases/s) | {} workers: {:.0} ms ({:.1} cases/s) | speedup {speedup:.2}x (modeled {modeled_speedup:.2}x) | imbalance {}",
        corpus.len(),
        args.repeat,
        cores,
        serial.stats.wall_ms,
        serial.stats.cases_per_sec,
        args.jobs,
        parallel.stats.wall_ms,
        parallel.stats.cases_per_sec,
        parallel
            .stats
            .imbalance
            .map_or_else(|| "n/a".to_owned(), |r| format!("{r:.2}")),
    );
    if let Some((_, line, ..)) = &critical_path {
        println!("{line}");
    }
    if speedup_degraded {
        println!(
            "note: {} workers measured {measured:.2}x parallelism (< 0.9 x jobs) — wall speedup is degraded by oversubscription and not gated; modeled_speedup carries the N-worker figure",
            args.jobs,
        );
    }
    println!(
        "oracle cache: {} hits / {} misses ({:.1}% hit rate) | parallel sweep: {} executed / {} cached | results identical: {identical} | wrote {}",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.hit_rate() * 100.0,
        parallel.stats.oracle_executed,
        parallel.stats.oracle_cached,
        args.out,
    );
    println!("{warm_summary}");

    // The running history: one compact JSONL row per invocation, beside
    // the full output file, so the speedup/hit-rate trajectory across
    // PRs reads off one file without diffing BENCH snapshots.
    let history_path = std::path::Path::new(&args.out).with_file_name("BENCH_history.jsonl");
    let history_row = format!(
        concat!(
            "{{\"date\":\"{}\",\"cases\":{},\"jobs\":{},\"repeat\":{},",
            "\"speedup\":{:.4},\"modeled_speedup\":{:.4},",
            "\"speedup_bound_sim\":{},\"cache_hit_rate\":{:.4},",
            "\"exec_rate\":{:.4},\"measured_parallelism\":{:.4},",
            "\"speedup_degraded\":{}}}\n"
        ),
        utc_date(),
        corpus.len(),
        args.jobs,
        args.repeat,
        speedup,
        modeled_speedup,
        critical_path
            .as_ref()
            .map_or_else(|| "null".to_owned(), |(_, _, bound)| format!("{bound:.4}")),
        cache_stats.hit_rate(),
        exec.value(),
        measured,
        speedup_degraded,
    );
    let append = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, history_row.as_bytes()));
    if let Err(e) = append {
        eprintln!("error: cannot append to {}: {e}", history_path.display());
        return ExitCode::from(2);
    }
    println!("history row appended to {}", history_path.display());
    if identical {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: parallel results diverged from the serial sweep");
        ExitCode::FAILURE
    }
}
