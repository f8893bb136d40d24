//! The traced run: a serial runner over the engine's public job recipe
//! with a timing oracle, and a replay of each layer's public function over
//! the workload's own programs. Both live in the benchmark, not in the
//! program, so the untraced runs measure the program exactly as shipped.

use crate::measure::{mean_us, median, ms_since};
use crate::report::Outcome;
use rb_dataset::UbCase;
use rb_engine::{derive_case_seed, program_key, CachedOracle, CaseResult, OracleCache, SystemSpec};
use rb_lang::parser::parse_program;
use rb_lang::printer::print_program;
use rb_lang::prune::prune_program;
use rb_lang::vectorize::AstVector;
use rb_lang::Program;
use rb_llm::{LanguageModel, ModelId, PromptStrategy, RepairContext, RepairRule, SimulatedModel};
use rb_miri::{run_program, MiriError, MiriReport, Oracle, UbClass};
use rb_serve::client::{analyze_request, repair_request};
use rustbrain::{KbDelta, KnowledgeBase, MergePolicy};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An [`Oracle`] that times every judgement of the cached oracle it wraps
/// and splits the time into executed and cache-served calls.
struct TimedOracle {
    inner: CachedOracle,
    executed_ns: AtomicU64,
    executed: AtomicU64,
    cached_ns: AtomicU64,
    cached: AtomicU64,
}

impl Oracle for TimedOracle {
    fn judge(&self, program: &Program) -> Arc<MiriReport> {
        self.judge_counted(program).0
    }

    fn judge_counted(&self, program: &Program) -> (Arc<MiriReport>, bool) {
        let start = Instant::now();
        let (report, hit) = self.inner.judge_counted(program);
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Relaxed: plain statistics, read after the runner finishes.
        let (time, count) = if hit {
            (&self.cached_ns, &self.cached)
        } else {
            (&self.executed_ns, &self.executed)
        };
        time.fetch_add(ns, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
        (report, hit)
    }
}

/// What the serial runner measured.
pub struct SerialRun {
    /// Per-case results, in corpus order.
    pub results: Vec<CaseResult>,
    /// The knowledge each job learned on top of the snapshot.
    pub deltas: Vec<KbDelta>,
}

/// Repairs every case serially the way an engine job does (system built
/// with `build_with` at the case's derived seed, gold reference judged
/// through the same oracle, `repair_case_instrumented`, knowledge delta),
/// with a timing oracle over `cache`. Records the `core.*` and
/// `engine.oracle_*` metrics and returns the results for the digest check.
pub fn run_serially(
    cases: &[UbCase],
    spec: &SystemSpec,
    seed: u64,
    snapshot: &KnowledgeBase,
    cache: Arc<OracleCache>,
    out: &mut Outcome,
) -> SerialRun {
    let timed = Arc::new(TimedOracle {
        inner: CachedOracle::new(Arc::clone(&cache)),
        executed_ns: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        cached_ns: AtomicU64::new(0),
        cached: AtomicU64::new(0),
    });
    let oracle: Arc<dyn Oracle> = timed.clone();
    let mut results = Vec::with_capacity(cases.len());
    let mut deltas = Vec::new();
    let mut kb_queries = 0u64;
    let start = Instant::now();
    for case in cases {
        let mut system = spec.build_with(
            derive_case_seed(seed, &case.id),
            Arc::clone(&oracle),
            snapshot,
        );
        let (reference, _) = oracle.judge_counted(&case.gold);
        let (result, _) = system.repair_case_instrumented(case, &reference.outputs);
        if let Some(delta) = system.kb_delta(snapshot.len()) {
            if !delta.is_empty() {
                deltas.push(delta);
            }
        }
        kb_queries += result.kb_queries;
        results.push(result);
    }
    let wall_us = start.elapsed().as_secs_f64() * 1e6;

    let n = cases.len().max(1) as f64;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let (executed, cached) = (load(&timed.executed), load(&timed.cached));
    let oracle_us = (load(&timed.executed_ns) + load(&timed.cached_ns)) / 1e3;
    out.set("core.job_us", wall_us / n);
    out.set("core.self_us", (wall_us - oracle_us) / n);
    out.set("core.judgements_per_case", (executed + cached) / n);
    out.set("core.kb_queries_per_case", kb_queries as f64 / n);
    out.set("miri.executed_per_case", executed / n);
    out.set("engine.oracle_exec_us", load(&timed.executed_ns) / 1e3 / n);
    out.set("engine.oracle_cached_us", load(&timed.cached_ns) / 1e3 / n);
    if executed + cached > 0.0 {
        out.set("engine.cache_hit_rate", cached / (executed + cached));
    }
    out.set("engine.cache_entries", cache.stats().entries as f64);
    SerialRun { results, deltas }
}

/// Times one merge of `deltas` into a copy of `snapshot` under the
/// engine's default policy, and returns the merged base.
pub fn merge(snapshot: &KnowledgeBase, deltas: &[KbDelta], out: &mut Outcome) -> KnowledgeBase {
    let mut merged = snapshot.clone();
    let start = Instant::now();
    merged.merge_all(deltas, &MergePolicy::default());
    out.set("engine.merge_ms", ms_since(start));
    merged
}

/// The embedding the slow-thinking retrieval queries with: the pruned
/// program, or the whole program when pruning leaves nothing.
fn embed(program: &Program) -> AstVector {
    let (pruned, _) = prune_program(program);
    if pruned.stmt_count() == 0 {
        AstVector::embed(program)
    } else {
        AstVector::embed(&pruned)
    }
}

/// A buggy program with its primary diagnostic, and its position.
type Diagnosed<'a> = (usize, &'a Program, &'a MiriError);

/// The repair context of the `i`-th diagnosed program: the three agent
/// strategies take turns.
fn context<'a>(&(i, program, error): &Diagnosed<'a>) -> RepairContext<'a> {
    const STRATEGIES: [PromptStrategy; 3] = [
        PromptStrategy::SafeReplace,
        PromptStrategy::Assert,
        PromptStrategy::Modify,
    ];
    RepairContext::new(program, error, STRATEGIES[i % STRATEGIES.len()])
}

/// Replays each layer's public function over the workload's programs
/// (buggy and gold of every case) and records the mean cost per call.
/// `kb` is the workload's knowledge base after its sweep; `work` is a
/// working directory for the store round trips.
pub fn replay(cases: &[UbCase], kb: &KnowledgeBase, seed: u64, work: &Path, out: &mut Outcome) {
    let programs: Vec<&Program> = cases.iter().flat_map(|c| [&c.buggy, &c.gold]).collect();
    let sources: Vec<String> = programs.iter().map(|p| print_program(p)).collect();

    out.set(
        "lang.print_us",
        mean_us(&programs, |p| {
            black_box(print_program(p));
        }),
    );
    out.set(
        "lang.parse_us",
        mean_us(&sources, |s| {
            black_box(parse_program(s).ok());
        }),
    );
    out.set(
        "lang.prune_embed_us",
        mean_us(&programs, |p| {
            black_box(embed(p));
        }),
    );
    out.set(
        "lang.clone_us",
        mean_us(&programs, |p| {
            black_box((*p).clone());
        }),
    );
    out.set(
        "miri.run_us",
        mean_us(&programs, |p| {
            black_box(run_program(p));
        }),
    );
    out.set(
        "lint.analyze_us",
        mean_us(&programs, |p| {
            black_box(rb_lint::analyze(p));
        }),
    );
    out.set(
        "engine.program_key_us",
        mean_us(&programs, |p| {
            black_box(program_key(p));
        }),
    );
    let cache = OracleCache::new();
    for p in &programs {
        cache.lookup(p);
    }
    out.set(
        "engine.cache_lookup_us",
        mean_us(&programs, |p| {
            black_box(cache.lookup(p));
        }),
    );

    // The model layer sees each buggy program with its primary diagnostic,
    // under the three agent strategies in turn.
    let reports: Vec<MiriReport> = cases.iter().map(|c| run_program(&c.buggy)).collect();
    let diagnosed: Vec<Diagnosed<'_>> = cases
        .iter()
        .zip(&reports)
        .enumerate()
        .filter_map(|(i, (c, r))| r.primary().map(|e| (i, &c.buggy, e)))
        .collect();
    let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, seed);
    out.set(
        "llm.propose_us",
        mean_us(&diagnosed, |d| {
            black_box(model.propose(&context(d)));
        }),
    );
    out.set(
        "llm.prompt_render_us",
        mean_us(&diagnosed, |d| {
            black_box(context(d).render());
        }),
    );
    out.set(
        "llm.rule_apply_us",
        mean_us(&diagnosed, |&(_, p, e)| {
            for rule in RepairRule::candidates(p, e) {
                black_box(rule.apply(p, e));
            }
        }),
    );

    let queries: Vec<(AstVector, UbClass)> =
        cases.iter().map(|c| (embed(&c.buggy), c.class)).collect();
    let mut queried = kb.clone();
    out.set(
        "kb.query_us",
        mean_us(&queries, |(v, class)| {
            black_box(queried.query(v, *class, 2));
        }),
    );
    out.set("kb.entries", kb.len() as f64);
    store_round_trips(cases, kb, work, out);

    let lines: Vec<String> = cases
        .iter()
        .enumerate()
        .flat_map(|(i, c)| {
            let source = &sources[2 * i];
            let reference = run_program(&c.gold).outputs;
            [
                analyze_request(source),
                repair_request(source, &reference, crate::serve::request_seed(seed, c)),
            ]
        })
        .collect();
    out.set(
        "serve.parse_request_us",
        mean_us(&lines, |l| {
            black_box(rb_serve::parse_request(l).ok());
        }),
    );
}

/// Saves `kb` to a sharded store and loads it back (median of five round
/// trips), then opens the store lazily, faults in the workload's classes
/// and times `resident_snapshot`.
fn store_round_trips(cases: &[UbCase], kb: &KnowledgeBase, work: &Path, out: &mut Outcome) {
    let store = work.join("replay.rbkb.d");
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let _ = std::fs::remove_dir_all(&store);
        let start = Instant::now();
        if let Err(e) = kb.save(&store) {
            out.fail(format!("knowledge save failed: {e}"));
            return;
        }
        saves.push(ms_since(start));
        let start = Instant::now();
        let loaded = KnowledgeBase::load(&store);
        loads.push(ms_since(start));
        match loaded {
            Ok(loaded) if loaded.to_bytes() == kb.to_bytes() => {}
            Ok(_) => out.fail("knowledge store round trip changed the base".to_owned()),
            Err(e) => out.fail(format!("knowledge load failed: {e}")),
        }
    }
    out.set("kb.save_ms", median(&saves));
    out.set("kb.load_ms", median(&loads));

    let mut classes: Vec<UbClass> = cases.iter().map(|c| c.class).collect();
    classes.sort_by_key(|c| c.label());
    classes.dedup();
    let mut lazy = match KnowledgeBase::open_lazy(&store) {
        Ok(lazy) => lazy,
        Err(e) => return out.fail(format!("lazy open failed: {e}")),
    };
    if let Err(e) = lazy.ensure_classes(&classes) {
        return out.fail(format!("shard fault-in failed: {e}"));
    }
    out.set("kb.shard_loads", lazy.total_shard_loads() as f64);
    let rounds = vec![(); 200];
    out.set(
        "kb.snapshot_us",
        mean_us(&rounds, |()| {
            black_box(lazy.resident_snapshot());
        }),
    );
}
