//! # rb-llm — deterministic simulated language models
//!
//! This crate substitutes for the GPT-3.5 / GPT-4 / GPT-O1 / Claude-3.5
//! APIs the paper drives: a [`SimulatedModel`] is a seeded stochastic
//! proposal engine over the [`rules`] repair library. Each
//! [`profile::ModelProfile`] fixes per-UB-class repair skill, semantic
//! understanding, hallucination rate, latency distribution and token limit,
//! calibrated so standalone-model repair rates land in the band the paper
//! reports — while every *mechanism* the paper evaluates (solution
//! diversity, temperature sensitivity, hallucination-induced error growth,
//! few-shot boosting from the knowledge base) emerges from the proposal
//! distribution itself.
//!
//! ```
//! use rb_llm::{LanguageModel, ModelId, SimulatedModel};
//! let model = SimulatedModel::new(ModelId::Gpt4, 0.5, 42);
//! assert_eq!(model.id().label(), "GPT-4");
//! ```

#![warn(missing_docs)]

pub mod latency;
pub mod model;
pub mod profile;
pub mod prompt;
pub mod rules;
pub mod tokens;

pub use model::{LanguageModel, ModelCallStats, Proposal, SimulatedModel};
pub use profile::{ModelId, ModelProfile};
pub use prompt::{FewShot, PromptStrategy, RepairContext, StateFacts};
pub use rules::{RepairRule, RuleKind};
