//! The slow-thinking stage (paper stages S1–S2): decompose a solution into
//! agent steps, execute each step through the language model, verify every
//! edit with the injected [`Oracle`], and guard the search with the
//! rollback agent. This inner verification loop re-judges near-identical
//! programs constantly, which is why the oracle seam (rather than a direct
//! interpreter call) matters here most.

use crate::config::RollbackPolicy;
use crate::evaluate::{evaluate_with_report, EvalTriplet};
use crate::features::retrieval_vector;
use crate::knowledge::KnowledgeBase;
use crate::rollback::{RollbackTracker, ThoughtTrace};
use crate::solution::{AgentKind, Solution};
use rb_lang::vectorize::AstVector;
use rb_lang::Program;
use rb_llm::{LanguageModel, RepairContext, RepairRule, StateFacts};
use rb_miri::{MiriError, MiriReport, Oracle, OracleUse};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Fixed simulated cost of one oracle (Miri) run in milliseconds.
pub const ORACLE_RUN_MS: f64 = 800.0;

/// Fixed simulated cost of decomposing/validating one agent step
/// (the slow-thinking bookkeeping around each model call).
pub const STEP_DECOMPOSE_MS: f64 = 3_000.0;

/// Record of one executed agent step.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Which agent ran.
    pub agent: AgentKind,
    /// The rule it applied (when any proposal was applicable).
    pub rule: Option<RepairRule>,
    /// Oracle error count after the step.
    pub errors_after: usize,
    /// Simulated latency of the step (model + retrieval + oracle).
    pub latency_ms: f64,
    /// Knowledge shots attached to the prompt.
    pub shots: usize,
}

/// Result of executing one solution.
#[derive(Clone, Debug)]
pub struct SolutionOutcome {
    /// The executed solution.
    pub solution: Solution,
    /// Best program state reached.
    pub final_program: Arc<Program>,
    /// Evaluation triplet of the best state.
    pub eval: EvalTriplet,
    /// Per-step records.
    pub steps: Vec<StepRecord>,
    /// Thought/error-count trace (the paper's `N` sequence).
    pub trace: ThoughtTrace,
    /// Oracle invocations consumed.
    pub oracle_runs: usize,
    /// Split of `oracle_runs` into executed-fresh vs served-from-cache
    /// (telemetry; always `total() == oracle_runs`).
    pub oracle_use: OracleUse,
    /// Total simulated time of this solution.
    pub overhead_ms: f64,
    /// The rule whose application produced the passing state, if any.
    pub fixing_rule: Option<RepairRule>,
    /// The state the slow-thinking process *ended* in (not necessarily the
    /// best one) — the continuation point under the no-rollback policy.
    pub end_program: Arc<Program>,
    /// Oracle report of the end state (shared, possibly cache-served).
    pub end_report: Arc<MiriReport>,
}

/// What one repair has derived from each program state it visited: the
/// model's [`StateFacts`] and the state's knowledge-base retrieval key,
/// each computed the first time a step needs it.
///
/// States are keyed by identity ([`Arc::ptr_eq`]): slow thinking shares
/// every state as an `Arc` from the moment it is observed, so a repeated
/// state is the same allocation. The memo holds each `Arc`, so no state's
/// address can be reused by another while the memo lives. A state's
/// facts are derived for its report's primary error; the oracle is pure,
/// so every report of one state has the same primary error.
#[derive(Debug, Default)]
pub struct StateMemo {
    states: Vec<MemoEntry>,
}

#[derive(Debug)]
struct MemoEntry {
    program: Arc<Program>,
    facts: Option<Arc<StateFacts>>,
    vector: Option<AstVector>,
}

impl StateMemo {
    fn entry(&mut self, program: &Arc<Program>) -> &mut MemoEntry {
        let at = match self
            .states
            .iter()
            .position(|e| Arc::ptr_eq(&e.program, program))
        {
            Some(at) => at,
            None => {
                self.states.push(MemoEntry {
                    program: Arc::clone(program),
                    facts: None,
                    vector: None,
                });
                self.states.len() - 1
            }
        };
        &mut self.states[at]
    }

    /// The model facts of `program` repaired for `error`, its report's
    /// primary error (derived on first use).
    pub fn facts(&mut self, program: &Arc<Program>, error: &MiriError) -> Arc<StateFacts> {
        let entry = self.entry(program);
        Arc::clone(
            entry
                .facts
                .get_or_insert_with(|| Arc::new(StateFacts::derive(&entry.program, error))),
        )
    }

    /// The knowledge-base retrieval key of `program` (pruned and embedded
    /// on first use).
    pub fn vector(&mut self, program: &Arc<Program>) -> &AstVector {
        let entry = self.entry(program);
        entry
            .vector
            .get_or_insert_with(|| retrieval_vector(&entry.program).0)
    }

    /// Records `vector` as `program`'s retrieval key, for a caller that
    /// embedded the state already (the fast stage embeds the input).
    pub fn seed_vector(&mut self, program: &Arc<Program>, vector: AstVector) {
        self.entry(program).vector = Some(vector);
    }
}

/// Executes one solution against a failing program, verifying every edit
/// through the injected `oracle`.
///
/// Steps run in order; the solution is cycled (up to three passes) while it
/// keeps making progress — the paper's "fine-tune solution" refinement.
///
/// Program states are shared through the rollback tracker, never copied,
/// and whatever a step derives from a state (the model's facts, the
/// retrieval key) is kept in `memo`, so a later step, solution or
/// rollback that returns to the state reuses it.
#[allow(clippy::too_many_arguments)]
pub fn execute_solution(
    oracle: &dyn Oracle,
    model: &mut dyn LanguageModel,
    mut kb: Option<&mut KnowledgeBase>,
    policy: RollbackPolicy,
    memo: &mut StateMemo,
    program: &Arc<Program>,
    report: &Arc<MiriReport>,
    solution: &Solution,
    reference: &[String],
    max_oracle_runs: usize,
) -> SolutionOutcome {
    let mut tracker = RollbackTracker::new(policy, Arc::clone(program), Arc::clone(report));
    let mut steps: Vec<StepRecord> = Vec::new();
    let mut overhead = 0.0f64;
    let mut oracle_runs = 0usize;
    let mut oracle_use = OracleUse::default();
    let mut fixing_rule = None;

    'passes: for _pass in 0..3 {
        let errors_at_pass_start = tracker.current().1.error_count();
        for &agent in &solution.steps {
            if tracker.current().1.passes() || oracle_runs >= max_oracle_runs {
                break 'passes;
            }
            let (cur_prog, cur_report) = {
                let (p, r) = tracker.current();
                (Arc::clone(p), Arc::clone(r))
            };
            let Some(primary) = cur_report.primary() else {
                break 'passes;
            };
            // One span per thinking step; its sim_ms mirrors the step's
            // charge sites exactly (model latency + decompose cost +
            // oracle run), so a step tree reconciles with the solution's
            // overhead. The KB consult charges inside its own child span.
            let mut step_span = rb_obs::span("step");
            step_span.tag("agent", format_args!("{agent:?}"));
            // Abstract reasoning: retrieve similar solved cases.
            let mut shots = Vec::new();
            if agent == AgentKind::AbstractReasoning {
                if let Some(kb) = kb.as_deref_mut() {
                    let key = memo.vector(&cur_prog);
                    // The current report's class can differ from the
                    // case's initial class mid-repair (e.g. a bad patch
                    // turning UB into a compile error), so the consult
                    // must fault that class's shard in itself — charging
                    // before fault-in would book the empty-bucket cost
                    // on a lazily loaded base.
                    let mut cspan = rb_obs::span("kb.consult");
                    cspan.tag("class", primary.class().label());
                    let consult_ms = kb.consult_cost_ms(primary.class());
                    cspan.add_sim_ms(consult_ms);
                    overhead += consult_ms;
                    step_span.add_sim_ms(consult_ms);
                    shots = kb.query(key, primary.class(), 2);
                }
            }
            let facts = memo.facts(&cur_prog, primary);
            let mut ctx = RepairContext::new(&cur_prog, primary, agent.strategy());
            ctx.shots = shots;
            ctx.facts = Some(&facts);
            let shot_count = ctx.shots.len();
            let resp = model.propose(&ctx);
            overhead += resp.latency_ms + STEP_DECOMPOSE_MS;
            step_span.add_sim_ms(resp.latency_ms + STEP_DECOMPOSE_MS);

            let mut applied: Option<(RepairRule, Program)> = None;
            for proposal in &resp.proposals {
                if let Some(mut candidate) = proposal.rule.apply(&cur_prog, primary) {
                    if resp.drift {
                        if let Some(drifted) = rb_llm::rules::apply_semantic_drift(&candidate) {
                            candidate = drifted;
                        }
                    }
                    applied = Some((proposal.rule, candidate));
                    break;
                }
            }
            match applied {
                Some((rule, candidate)) => {
                    oracle_runs += 1;
                    // Simulated cost is charged per *judgement*, cached or
                    // not — the cache dodges real interpreter work, never
                    // the modelled Miri latency (determinism depends on it).
                    overhead += ORACLE_RUN_MS;
                    step_span.add_sim_ms(ORACLE_RUN_MS);
                    let creport = oracle.judge_recording(&candidate, &mut oracle_use);
                    let errors_after = creport.error_count();
                    if errors_after == 0 {
                        fixing_rule = Some(rule);
                    }
                    tracker.observe(candidate, creport);
                    step_span.tag("rule", format_args!("{rule:?}"));
                    step_span.tag("errors_after", errors_after);
                    steps.push(StepRecord {
                        agent,
                        rule: Some(rule),
                        errors_after,
                        latency_ms: resp.latency_ms + ORACLE_RUN_MS,
                        shots: shot_count,
                    });
                }
                None => {
                    steps.push(StepRecord {
                        agent,
                        rule: None,
                        errors_after: cur_report.error_count(),
                        latency_ms: resp.latency_ms,
                        shots: shot_count,
                    });
                }
            }
        }
        // Stop cycling when a full pass made no progress.
        if tracker.current().1.error_count() >= errors_at_pass_start {
            break;
        }
    }

    let (end_program, end_report) = {
        let (p, r) = tracker.current();
        (Arc::clone(p), Arc::clone(r))
    };
    let (best_program, best_report) = tracker.best();
    let final_program = Arc::clone(best_program);
    let eval = evaluate_with_report(best_report, reference, overhead);
    SolutionOutcome {
        solution: solution.clone(),
        final_program,
        eval,
        steps,
        trace: tracker.trace,
        oracle_runs,
        oracle_use,
        overhead_ms: overhead,
        fixing_rule,
        end_program,
        end_report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_llm::{ModelId, SimulatedModel};
    use rb_miri::DirectOracle;

    fn fixture() -> (Arc<Program>, Arc<MiriReport>) {
        let p = rb_lang::parser::parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let r = DirectOracle.judge(&p);
        (Arc::new(p), r)
    }

    #[test]
    fn modify_solution_fixes_double_free() {
        let (p, r) = fixture();
        let mut model = SimulatedModel::new(ModelId::GptO1, 0.3, 1);
        let sol = Solution::new(vec![AgentKind::Modify, AgentKind::SafeReplace]);
        let out = execute_solution(
            &DirectOracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &mut StateMemo::default(),
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            12,
        );
        assert!(out.eval.accuracy, "trace: {:?}", out.trace);
        assert!(out.eval.acceptability);
        assert_eq!(out.fixing_rule, Some(RepairRule::RemoveDoubleFree));
        assert!(out.overhead_ms > 0.0);
        // The direct oracle executes every judgement.
        assert_eq!(out.oracle_use.total(), out.oracle_runs);
        assert_eq!(out.oracle_use.cached, 0);
    }

    #[test]
    fn budget_respected() {
        let (p, r) = fixture();
        let mut model = SimulatedModel::new(ModelId::Gpt35, 0.9, 2);
        let sol = Solution::new(vec![
            AgentKind::Assert,
            AgentKind::Assert,
            AgentKind::Assert,
        ]);
        let out = execute_solution(
            &DirectOracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &mut StateMemo::default(),
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            2,
        );
        assert!(out.oracle_runs <= 2);
    }

    #[test]
    fn trace_records_error_sequence() {
        let (p, r) = fixture();
        let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, 3);
        let sol = Solution::new(vec![AgentKind::Modify]);
        let out = execute_solution(
            &DirectOracle,
            &mut model,
            None,
            RollbackPolicy::Adaptive,
            &mut StateMemo::default(),
            &p,
            &r,
            &sol,
            &["3".to_owned()],
            8,
        );
        assert_eq!(out.trace.error_counts[0], r.error_count());
        assert!(!out.trace.error_counts.is_empty());
    }

    #[test]
    fn known_input_vector_matches_a_fresh_embedding() {
        let (p, r) = fixture();
        let (vector, _) = retrieval_vector(&p);
        let mut seeded = KnowledgeBase::new();
        seeded.insert(
            vector.clone(),
            rb_miri::UbClass::Alloc,
            RepairRule::RemoveDoubleFree,
        );
        let sol = Solution::new(vec![AgentKind::AbstractReasoning, AgentKind::Modify]);
        let run = |mut memo: StateMemo| {
            let mut kb = seeded.clone();
            let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, 5);
            let out = execute_solution(
                &DirectOracle,
                &mut model,
                Some(&mut kb),
                RollbackPolicy::Adaptive,
                &mut memo,
                &p,
                &r,
                &sol,
                &["3".to_owned()],
                8,
            );
            (out, kb.queries())
        };
        let mut known = StateMemo::default();
        known.seed_vector(&p, vector);
        let (reused, reused_queries) = run(known);
        let (embedded, embedded_queries) = run(StateMemo::default());
        assert!(
            reused_queries > 0,
            "the abstract-reasoning step never queried"
        );
        assert_eq!(reused_queries, embedded_queries);
        assert_eq!(reused.steps, embedded.steps);
        assert_eq!(reused.trace, embedded.trace);
        assert_eq!(reused.final_program, embedded.final_program);
        assert_eq!(reused.overhead_ms, embedded.overhead_ms);
    }

    #[test]
    fn memo_shares_facts_per_state_and_derives_new_ones_after_an_edit() {
        let (p, r) = fixture();
        let err = r.primary().unwrap();
        let mut memo = StateMemo::default();
        let first = memo.facts(&p, err);
        assert!(Arc::ptr_eq(&first, &memo.facts(&p, err)));
        assert!(Arc::ptr_eq(&first, &memo.facts(&Arc::clone(&p), err)));
        assert_eq!(*first, StateFacts::derive(&p, err));

        // An edited state is a new allocation with its own facts, even
        // before it differs: identity, not content, is the key.
        let copy = Arc::new(Program::clone(&p));
        assert!(!Arc::ptr_eq(&first, &memo.facts(&copy, err)));
        let edited = Arc::new(RepairRule::RemoveDoubleFree.apply(&p, err).unwrap());
        let edited_facts = memo.facts(&edited, err);
        assert!(!Arc::ptr_eq(&first, &edited_facts));
        assert_ne!(first.source, edited_facts.source);
        // The earlier state's facts survive the new entries.
        assert!(Arc::ptr_eq(&first, &memo.facts(&p, err)));

        // The retrieval key is memoized the same way.
        let key = memo.vector(&p).clone();
        assert_eq!(key, retrieval_vector(&p).0);
        assert_eq!(memo.vector(&edited), &retrieval_vector(&edited).0);
    }
}
