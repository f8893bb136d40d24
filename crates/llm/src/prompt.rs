//! Prompt representation: the three agent prompt strategies of the paper's
//! Fig. 4, the repair context handed to a model, and knowledge-base
//! few-shots.

use crate::model::{fnv1a_fold, FNV_OFFSET};
use crate::rules::{RepairRule, RuleKind};
use rb_lang::printer::print_program;
use rb_lang::Program;
use rb_miri::MiriError;
use serde::{Deserialize, Serialize};

/// The prompt strategy an agent uses (paper Fig. 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PromptStrategy {
    /// "Find Safe API with same functionality for replacement."
    SafeReplace,
    /// "Pre-assertion added before UB is possible, prevent it."
    Assert,
    /// "Keep functionality and semantics, avoid UBs by modification."
    Modify,
    /// Unconstrained single-shot repair (standalone-model baseline).
    Freeform,
}

impl PromptStrategy {
    /// The rule family this strategy targets (`None` for freeform).
    #[must_use]
    pub fn target_kind(self) -> Option<RuleKind> {
        match self {
            PromptStrategy::SafeReplace => Some(RuleKind::SafeReplace),
            PromptStrategy::Assert => Some(RuleKind::Assert),
            PromptStrategy::Modify => Some(RuleKind::Modify),
            PromptStrategy::Freeform => None,
        }
    }

    /// Instruction text injected into the rendered prompt.
    #[must_use]
    pub fn instruction(self) -> &'static str {
        match self {
            PromptStrategy::SafeReplace => {
                "Find a safe API with the same functionality and replace the unsafe operation."
            }
            PromptStrategy::Assert => {
                "Add a pre-assertion or guard before the undefined behaviour can occur."
            }
            PromptStrategy::Modify => {
                "Keep functionality and semantics; avoid the UB by modifying the erroneous logic."
            }
            PromptStrategy::Freeform => "Fix the undefined behaviour in this Rust code.",
        }
    }
}

/// A retrieved knowledge-base example attached to a prompt.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FewShot {
    /// The rule that solved the similar case.
    pub rule: RepairRule,
    /// Cosine similarity of the pruned ASTs.
    pub similarity: f64,
}

/// What a model call derives from the program state alone, whatever the
/// strategy or shots: the printed source (the prompt's code block), the
/// FNV-1a state after the source bytes (the prefix of the model's stable
/// per-problem draws) and the matching repair rules.
///
/// A caller that prompts the same state several times derives these once
/// and shares them through [`RepairContext::facts`].
#[derive(Clone, Debug, PartialEq)]
pub struct StateFacts {
    /// `print_program` of the state.
    pub source: String,
    /// FNV-1a state after folding `source`'s bytes from the offset basis.
    pub source_hash: u64,
    /// [`RepairRule::candidates`] of the state and its primary error.
    pub candidates: Vec<RepairRule>,
}

impl StateFacts {
    /// Derives the facts of `program` repaired for `error`: one print, one
    /// FNV pass over the source, and one run of the rule matchers.
    #[must_use]
    pub fn derive(program: &Program, error: &MiriError) -> StateFacts {
        let source = print_program(program);
        let source_hash = fnv1a_fold(FNV_OFFSET, source.as_bytes());
        StateFacts {
            source,
            source_hash,
            candidates: RepairRule::candidates(program, error),
        }
    }
}

/// Everything a model sees for one repair request.
#[derive(Clone, Debug)]
pub struct RepairContext<'p> {
    /// The current program.
    pub program: &'p Program,
    /// The primary diagnostic being repaired.
    pub error: &'p MiriError,
    /// Agent prompt strategy.
    pub strategy: PromptStrategy,
    /// Retrieved knowledge examples.
    pub shots: Vec<FewShot>,
    /// The state's derived facts when the caller already has them; they
    /// must be `StateFacts::derive(program, error)`. `None` makes the
    /// model derive them itself.
    pub facts: Option<&'p StateFacts>,
}

impl<'p> RepairContext<'p> {
    /// Builds a context with no shots and no shared facts.
    #[must_use]
    pub fn new(program: &'p Program, error: &'p MiriError, strategy: PromptStrategy) -> Self {
        RepairContext {
            program,
            error,
            strategy,
            shots: Vec::new(),
            facts: None,
        }
    }

    /// Renders the textual prompt (what a real API call would send); used
    /// for token accounting and latency modelling.
    #[must_use]
    pub fn render(&self) -> String {
        self.render_with_source(&print_program(self.program))
    }

    /// [`RepairContext::render`] with the program already printed: `source`
    /// must be `print_program(self.program)`.
    #[must_use]
    pub fn render_with_source(&self, source: &str) -> String {
        let mut out = String::new();
        out.push_str("You are repairing undefined behaviour in Rust code.\n");
        out.push_str("Root cause: ");
        out.push_str(&self.error.to_string());
        out.push('\n');
        out.push_str(self.strategy.instruction());
        out.push('\n');
        for shot in &self.shots {
            out.push_str(&format!(
                "Similar case (sim {:.2}) was fixed by `{}`.\n",
                shot.similarity,
                shot.rule.name()
            ));
        }
        out.push_str("```rust\n");
        out.push_str(source);
        out.push_str("```\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_lang::parser::parse_program;
    use rb_miri::run_program;

    #[test]
    fn strategies_map_to_kinds() {
        assert_eq!(
            PromptStrategy::SafeReplace.target_kind(),
            Some(RuleKind::SafeReplace)
        );
        assert_eq!(PromptStrategy::Assert.target_kind(), Some(RuleKind::Assert));
        assert_eq!(PromptStrategy::Modify.target_kind(), Some(RuleKind::Modify));
        assert_eq!(PromptStrategy::Freeform.target_kind(), None);
    }

    #[test]
    fn render_contains_code_and_error() {
        let p = parse_program("fn main() { let z: i32 = 0; print(5 / z); }").unwrap();
        let r = run_program(&p);
        let err = r.errors.first().unwrap();
        let ctx = RepairContext::new(&p, err, PromptStrategy::Modify);
        let text = ctx.render();
        assert!(text.contains("panic"));
        assert!(text.contains("fn main"));
        assert!(text.contains("modifying the erroneous logic"));
    }

    #[test]
    fn shots_appear_in_prompt() {
        let p = parse_program("fn main() { let z: i32 = 0; print(5 / z); }").unwrap();
        let r = run_program(&p);
        let err = r.errors.first().unwrap();
        let mut ctx = RepairContext::new(&p, err, PromptStrategy::Freeform);
        ctx.shots.push(FewShot {
            rule: RepairRule::GuardDivision,
            similarity: 0.93,
        });
        assert!(ctx.render().contains("guard-division"));
    }
}
