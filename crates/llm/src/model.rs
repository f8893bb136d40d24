//! The simulated language model: a seeded stochastic proposal engine over
//! the repair-rule library.
//!
//! Given a [`RepairContext`], the model scores every applicable rule by
//! (class skill) × (prompt-strategy match) × (intrinsic family preference),
//! perturbs scores with temperature-scaled noise, optionally injects a
//! hallucinated edit, and returns a ranked proposal list. Whether a
//! proposal actually fixes the program is decided downstream by the oracle
//! — the model only *proposes*, as a real LLM does.

use crate::latency::sample_latency_ms;
use crate::profile::{ModelId, ModelProfile};
use crate::prompt::{RepairContext, StateFacts};
use crate::rules::RepairRule;
use crate::tokens::count_tokens;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// FNV-1a offset basis: the hash state before any byte.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a state `state`.
pub(crate) fn fnv1a_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        state ^= u64::from(*b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// Deterministic hash of a string into `[0, 1)`. Uses an FNV-1a style fold
/// so the mapping is stable across platforms and compilations.
fn hash01(text: &str) -> f64 {
    let mut h = Fnv1a::default();
    text.hash(&mut h);
    (h.finish() % 1_000_000) as f64 / 1_000_000.0
}

/// [`hash01`] of a string that starts with text whose FNV-1a state is
/// `prefix` and continues with `rest`: equal to `hash01(&(text + rest))`,
/// without folding the prefix again or building either string.
fn hash01_after(prefix: u64, rest: fmt::Arguments<'_>) -> f64 {
    struct Fold(u64);
    impl fmt::Write for Fold {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0 = fnv1a_fold(self.0, s.as_bytes());
            Ok(())
        }
    }
    let mut fold = Fold(prefix);
    fmt::Write::write_fmt(&mut fold, rest).expect("folding never fails");
    // `str`'s `Hash` ends with a 0xff terminator, written as its own call.
    let mut h = Fnv1a(fold.0);
    h.write_u8(0xff);
    (h.finish() % 1_000_000) as f64 / 1_000_000.0
}

#[derive(Default)]
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        let state = if self.0 == 0 { FNV_OFFSET } else { self.0 };
        self.0 = fnv1a_fold(state, bytes);
    }
}

/// One ranked repair proposal.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Proposal {
    /// The proposed rule.
    pub rule: RepairRule,
    /// The model's (noisy) confidence score.
    pub score: f64,
}

/// Aggregate statistics over a model's lifetime.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelCallStats {
    /// Number of propose calls.
    pub calls: u64,
    /// Total simulated latency in milliseconds.
    pub total_latency_ms: f64,
    /// Total prompt tokens consumed.
    pub total_tokens: u64,
    /// Calls rejected because the prompt exceeded the context window.
    pub truncated_calls: u64,
}

/// Response of one model call.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelResponse {
    /// Ranked proposals (best first). Empty when the model had nothing.
    pub proposals: Vec<Proposal>,
    /// Whether the prompt had to be truncated (degrades quality).
    pub truncated: bool,
    /// Simulated latency of this call.
    pub latency_ms: f64,
    /// Prompt tokens.
    pub tokens: usize,
    /// Semantic drift: the patch carries a sloppy value change; the caller
    /// must additionally apply [`crate::rules::apply_semantic_drift`] to
    /// the edited program.
    pub drift: bool,
}

/// Abstraction over proposal engines, so the pipeline can be driven by
/// other models (or a scripted stub in tests).
pub trait LanguageModel {
    /// The identity of the model.
    fn id(&self) -> ModelId;
    /// Current sampling temperature.
    fn temperature(&self) -> f64;
    /// Produces ranked repair proposals for a context.
    fn propose(&mut self, ctx: &RepairContext<'_>) -> ModelResponse;
    /// Lifetime statistics.
    fn stats(&self) -> &ModelCallStats;
}

/// The deterministic simulated model.
#[derive(Clone, Debug)]
pub struct SimulatedModel {
    profile: ModelProfile,
    temperature: f64,
    rng: ChaCha8Rng,
    stats: ModelCallStats,
}

impl SimulatedModel {
    /// Creates a model with the given sampling temperature and seed.
    #[must_use]
    pub fn new(id: ModelId, temperature: f64, seed: u64) -> SimulatedModel {
        SimulatedModel {
            profile: id.profile(),
            temperature,
            rng: ChaCha8Rng::seed_from_u64(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)),
            stats: ModelCallStats::default(),
        }
    }

    /// The model's profile.
    #[must_use]
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// Gaussian-ish noise via the sum of three uniforms (Irwin–Hall),
    /// scaled by temperature and the profile's noise scale.
    fn noise(&mut self) -> f64 {
        let u: f64 = self.rng.gen::<f64>() + self.rng.gen::<f64>() + self.rng.gen::<f64>();
        (u - 1.5) * self.temperature * self.profile.noise_scale
    }
}

impl LanguageModel for SimulatedModel {
    fn id(&self) -> ModelId {
        self.profile.id
    }

    fn temperature(&self) -> f64 {
        self.temperature
    }

    fn propose(&mut self, ctx: &RepairContext<'_>) -> ModelResponse {
        // The state's facts — its printed source (the prompt's code block
        // and the key of the model's stable per-problem draws) and its
        // matching rules — come from the caller when it shares them.
        let derived;
        let facts = match ctx.facts {
            Some(facts) => {
                debug_assert_eq!(
                    facts.source,
                    rb_lang::printer::print_program(ctx.program),
                    "shared facts belong to another program state"
                );
                facts
            }
            None => {
                derived = StateFacts::derive(ctx.program, ctx.error);
                &derived
            }
        };
        let prompt = ctx.render_with_source(&facts.source);
        let tokens = count_tokens(&prompt);
        let latency = sample_latency_ms(
            &mut self.rng,
            self.profile.latency_base_ms,
            self.profile.latency_per_token_ms,
            tokens.min(self.profile.token_limit),
        );
        self.stats.calls += 1;
        self.stats.total_latency_ms += latency;
        self.stats.total_tokens += tokens as u64;

        let truncated = tokens > self.profile.token_limit;
        if truncated {
            // The paper scopes out over-limit inputs; the model degrades to
            // a single blind guess.
            self.stats.truncated_calls += 1;
        }

        let class = ctx.error.class();
        let class_skill = self.profile.class_skill(class);
        let best_shot = ctx
            .shots
            .iter()
            .map(|s| s.similarity)
            .fold(0.0f64, f64::max);
        // Understanding decomposes into two stable draws:
        //
        // 1. a *problem-level* gate — some problems are simply beyond the
        //    model no matter how it is prompted; only grounding it with a
        //    retrieved similar solved case (knowledge shots) raises this
        //    ceiling;
        // 2. a *prompt-level* gate — re-asking with the same prompt rarely
        //    helps, but a different agent strategy is a genuinely new
        //    chance.
        //
        // This is the premise behind RustBrain's design: diverse solutions
        // and the knowledge base attack exactly these two gates.
        let problem_skill = ((class_skill * 1.25).min(0.97) + 0.35 * best_shot).min(0.985);
        let u_problem = hash01_after(
            facts.source_hash,
            format_args!("|{:?}|problem", self.profile.id),
        );
        let targeted_bonus = if ctx.strategy.target_kind().is_some() {
            0.10
        } else {
            0.0
        };
        let prompt_skill = 0.75 + targeted_bonus + (self.rng.gen::<f64>() - 0.5) * 0.12;
        let u_prompt = hash01(&prompt);
        let understands = u_problem <= problem_skill && u_prompt <= prompt_skill;
        let mut proposals: Vec<Proposal> = facts
            .candidates
            .iter()
            .map(|&rule| {
                let mut score = class_skill * self.profile.kind_preference(rule.kind());
                // A skilled model recognises the rule whose home turf is
                // exactly this diagnostic.
                if rule.addresses(ctx.error.kind) {
                    score *= 1.0 + 0.8 * self.profile.semantic_skill;
                }
                // Strategy match: targeted agents steer toward their family.
                if let Some(target) = ctx.strategy.target_kind() {
                    score *= if rule.kind() == target { 1.45 } else { 0.6 };
                }
                // Knowledge shots strongly bias toward the retrieved rule.
                for shot in &ctx.shots {
                    if shot.rule == rule {
                        score *= 1.0 + shot.similarity;
                    }
                }
                if truncated {
                    score *= 0.3;
                }
                score += self.noise();
                Proposal { rule, score }
            })
            .collect();

        // Skill gate: a model that does not understand the problem yields
        // either nothing usable or one arbitrary pick — the way a real
        // model either punts or confidently emits one wrong patch.
        if !understands {
            let roll = self.rng.gen::<f64>();
            if proposals.is_empty() || roll < 0.45 {
                proposals.clear();
            } else if roll < 0.75 {
                // The classic confident-but-wrong patch: make the failing
                // statement disappear (models love deleting broken code).
                let lazy = if self.rng.gen::<f64>() < 0.5 {
                    RepairRule::DeleteStatement
                } else {
                    RepairRule::DisableStatement
                };
                proposals = if lazy.locate(ctx.program, ctx.error).is_some() {
                    vec![Proposal {
                        rule: lazy,
                        score: 1.0,
                    }]
                } else {
                    Vec::new()
                };
            } else {
                let idx = self.rng.gen_range(0..proposals.len());
                let p = proposals.swap_remove(idx);
                proposals = vec![p];
            }
        }

        // Hallucination: inject a wrong edit near the top.
        let h = self
            .profile
            .effective_hallucination(self.temperature, ctx.shots.len());
        if self.rng.gen::<f64>() < h {
            let pick =
                RepairRule::HALLUCINATIONS[self.rng.gen_range(0..RepairRule::HALLUCINATIONS.len())];
            if pick.locate(ctx.program, ctx.error).is_some() {
                let top = proposals
                    .iter()
                    .map(|p| p.score)
                    .fold(f64::NEG_INFINITY, f64::max);
                proposals.push(Proposal {
                    rule: pick,
                    score: if top.is_finite() { top + 0.1 } else { 1.0 },
                });
            }
        }

        proposals.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        // A real model emits one patch, occasionally an alternative.
        proposals.truncate(2);
        // Semantic drift: even a correct-looking patch may slightly change
        // values. The drift is a *sticky* per-problem property (the model
        // misreads the same constant every time); retrieved shots ground
        // the model and damp it.
        let weakness = (1.0 / self.profile.class_multiplier(class)).clamp(1.0, 3.0);
        let drift_p =
            (1.0 - self.profile.semantic_skill) * 0.6 * weakness / (1.0 + ctx.shots.len() as f64);
        let drift = hash01_after(
            facts.source_hash,
            format_args!("|{:?}|drift", self.profile.id),
        ) < drift_p;
        ModelResponse {
            proposals,
            truncated,
            latency_ms: latency,
            tokens,
            drift,
        }
    }

    fn stats(&self) -> &ModelCallStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{FewShot, PromptStrategy};
    use rb_dataset::Corpus;
    use rb_lang::parser::parse_program;
    use rb_lang::printer::print_program;
    use rb_miri::run_program;

    #[test]
    fn hash_continuation_matches_hashing_the_whole_key() {
        for seed in 0..3 {
            for case in &Corpus::generate_full(seed, 5).cases {
                for program in [&case.buggy, &case.gold] {
                    let src = print_program(program);
                    let prefix = fnv1a_fold(FNV_OFFSET, src.as_bytes());
                    for id in ModelId::ALL {
                        assert_eq!(
                            hash01_after(prefix, format_args!("|{id:?}|problem")),
                            hash01(&format!("{src}|{id:?}|problem")),
                            "{} under {id:?}",
                            case.id
                        );
                        assert_eq!(
                            hash01_after(prefix, format_args!("|{id:?}|drift")),
                            hash01(&format!("{src}|{id:?}|drift")),
                            "{} under {id:?}",
                            case.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shared_facts_change_neither_the_response_nor_the_rng() {
        const STRATEGIES: [PromptStrategy; 4] = [
            PromptStrategy::SafeReplace,
            PromptStrategy::Assert,
            PromptStrategy::Modify,
            PromptStrategy::Freeform,
        ];
        let mut shared = SimulatedModel::new(ModelId::Gpt4, 0.7, 9);
        let mut derived = shared.clone();
        let mut compared = 0;
        for case in &Corpus::generate_full(1, 5).cases {
            let report = run_program(&case.buggy);
            let err = report.primary().expect("buggy corpus programs fail");
            let facts = StateFacts::derive(&case.buggy, err);
            let shot = FewShot {
                rule: facts
                    .candidates
                    .first()
                    .copied()
                    .unwrap_or(RepairRule::GuardDivision),
                similarity: 0.9,
            };
            for strategy in STRATEGIES {
                for with_shot in [false, true] {
                    let mut ctx = RepairContext::new(&case.buggy, err, strategy);
                    if with_shot {
                        ctx.shots.push(shot.clone());
                    }
                    let plain = derived.propose(&ctx);
                    ctx.facts = Some(&facts);
                    assert_eq!(shared.propose(&ctx), plain, "{} {strategy:?}", case.id);
                    assert_eq!(shared.rng, derived.rng, "{} {strategy:?}", case.id);
                    compared += 1;
                }
            }
        }
        assert_eq!(shared.stats(), derived.stats());
        assert!(compared >= 14 * 5 * 8, "only {compared} comparisons");
    }

    fn double_free_fixture() -> (rb_lang::Program, rb_miri::MiriError) {
        let p = parse_program(
            "fn main() { let p: *mut u8 = 0 as *mut u8; \
             unsafe { p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, 3i32); } \
             unsafe { print(ptr_read::<i32>(p as *const i32)); } \
             unsafe { dealloc(p, 4usize, 4usize); } \
             unsafe { dealloc(p, 4usize, 4usize); } }",
        )
        .unwrap();
        let err = run_program(&p).errors.first().cloned().unwrap();
        (p, err)
    }

    #[test]
    fn proposals_are_deterministic_per_seed() {
        let (p, err) = double_free_fixture();
        let ctx = RepairContext::new(&p, &err, PromptStrategy::Modify);
        let mut a = SimulatedModel::new(ModelId::Gpt4, 0.5, 7);
        let mut b = SimulatedModel::new(ModelId::Gpt4, 0.5, 7);
        assert_eq!(a.propose(&ctx).proposals, b.propose(&ctx).proposals);
    }

    /// Builds N structurally-identical double-free programs differing only
    /// in the stored value, so each one rolls a fresh problem aptitude.
    fn double_free_variants(n: usize) -> Vec<(rb_lang::Program, rb_miri::MiriError)> {
        (0..n)
            .map(|i| {
                let p = parse_program(&format!(
                    "fn main() {{ let p: *mut u8 = 0 as *mut u8; \
                     unsafe {{ p = alloc(4usize, 4usize); ptr_write::<i32>(p as *mut i32, {}i32); }} \
                     unsafe {{ print(ptr_read::<i32>(p as *const i32)); }} \
                     unsafe {{ dealloc(p, 4usize, 4usize); }} \
                     unsafe {{ dealloc(p, 4usize, 4usize); }} }}",
                    i + 1
                ))
                .unwrap();
                let err = run_program(&p).errors.first().cloned().unwrap();
                (p, err)
            })
            .collect()
    }

    fn hit_rate(id: ModelId, strategy: PromptStrategy, shot: Option<FewShot>) -> usize {
        let mut model = SimulatedModel::new(id, 0.4, 13);
        double_free_variants(40)
            .iter()
            .filter(|(p, err)| {
                let mut ctx = RepairContext::new(p, err, strategy);
                if let Some(s) = &shot {
                    ctx.shots.push(s.clone());
                }
                model.propose(&ctx).proposals.first().map(|x| x.rule)
                    == Some(RepairRule::RemoveDoubleFree)
            })
            .count()
    }

    #[test]
    fn strong_model_finds_double_free() {
        let hits = hit_rate(ModelId::GptO1, PromptStrategy::Modify, None);
        assert!(hits >= 24, "only {hits}/40 top-ranked the right rule");
    }

    #[test]
    fn weak_model_less_reliable_than_strong() {
        let weak = hit_rate(ModelId::Gpt35, PromptStrategy::Freeform, None);
        let strong = hit_rate(ModelId::GptO1, PromptStrategy::Freeform, None);
        assert!(strong > weak, "strong {strong} <= weak {weak}");
    }

    #[test]
    fn shots_bias_toward_known_rule() {
        let shot = FewShot {
            rule: RepairRule::RemoveDoubleFree,
            similarity: 0.95,
        };
        let with = hit_rate(ModelId::Gpt35, PromptStrategy::Freeform, Some(shot));
        let without = hit_rate(ModelId::Gpt35, PromptStrategy::Freeform, None);
        assert!(
            with > without,
            "shots should raise the hit rate ({with} vs {without})"
        );
    }

    #[test]
    fn stats_accumulate() {
        let (p, err) = double_free_fixture();
        let ctx = RepairContext::new(&p, &err, PromptStrategy::Modify);
        let mut model = SimulatedModel::new(ModelId::Gpt4, 0.5, 3);
        model.propose(&ctx);
        model.propose(&ctx);
        assert_eq!(model.stats().calls, 2);
        assert!(model.stats().total_latency_ms > 0.0);
        assert!(model.stats().total_tokens > 0);
    }

    #[test]
    fn high_temperature_diversifies_rankings() {
        let (p, err) = double_free_fixture();
        let ctx = RepairContext::new(&p, &err, PromptStrategy::Freeform);
        let distinct = |temp: f64| {
            let mut model = SimulatedModel::new(ModelId::Gpt4, temp, 5);
            let tops: Vec<_> = (0..30)
                .filter_map(|_| model.propose(&ctx).proposals.first().map(|p| p.rule))
                .collect();
            let mut d = tops.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        assert!(distinct(0.9) >= distinct(0.1));
    }
}
