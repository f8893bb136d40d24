//! Corpus construction: seeded generation of validated [`UbCase`]s across
//! classes, with summary statistics.

use crate::case::UbCase;
use crate::templates::{all_templates, templates_for, CaseSources};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_miri::UbClass;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A generated benchmark corpus.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Corpus {
    /// All cases, grouped implicitly by [`UbCase::class`].
    pub cases: Vec<UbCase>,
    /// Seed the corpus was generated from.
    pub seed: u64,
}

impl Corpus {
    /// Generates `per_class` cases for each of the given classes, cycling
    /// through the class's template families.
    ///
    /// Every produced case is validated: the buggy program must fail the
    /// oracle with the advertised class and the gold program must pass.
    /// Instantiations that fail validation are skipped (a guard against
    /// unlucky parameter draws); templates are deterministic enough that in
    /// practice none are skipped, which the crate's tests assert.
    #[must_use]
    pub fn generate(seed: u64, per_class: usize, classes: &[UbClass]) -> Corpus {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut cases = Vec::new();
        for &class in classes {
            let templates = templates_for(class);
            assert!(!templates.is_empty(), "no templates for class {class}");
            let mut produced = 0usize;
            let mut attempt = 0usize;
            while produced < per_class && attempt < per_class.saturating_mul(4) {
                let t = templates[attempt % templates.len()];
                attempt += 1;
                let CaseSources {
                    buggy,
                    gold,
                    description,
                } = (t.make)(&mut rng);
                let case = UbCase::from_sources(
                    format!("{}/{}/{}", class.label(), t.name, produced),
                    class,
                    t.name,
                    &buggy,
                    &gold,
                    &description,
                );
                if case.validate().is_ok() {
                    cases.push(case);
                    produced += 1;
                }
            }
        }
        Corpus { cases, seed }
    }

    /// Generates the full corpus over every real UB class.
    #[must_use]
    pub fn generate_full(seed: u64, per_class: usize) -> Corpus {
        Corpus::generate(seed, per_class, &UbClass::ALL)
    }

    /// Cases of a given class.
    #[must_use]
    pub fn of_class(&self, class: UbClass) -> Vec<&UbCase> {
        self.cases.iter().filter(|c| c.class == class).collect()
    }

    /// Number of cases.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cases.len()
    }

    /// Whether the corpus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cases.is_empty()
    }

    /// Per-class case counts.
    #[must_use]
    pub fn stats(&self) -> BTreeMap<UbClass, usize> {
        let mut m = BTreeMap::new();
        for c in &self.cases {
            *m.entry(c.class).or_insert(0) += 1;
        }
        m
    }

    /// Mean statement count of buggy programs (a size statistic).
    #[must_use]
    pub fn mean_stmts(&self) -> f64 {
        if self.cases.is_empty() {
            return 0.0;
        }
        let total: usize = self.cases.iter().map(|c| c.buggy.stmt_count()).sum();
        total as f64 / self.cases.len() as f64
    }
}

/// Validates every template family once (used by tests and the quickstart
/// example to prove corpus health).
#[must_use]
pub fn validate_all_templates(seed: u64) -> Vec<String> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut failures = Vec::new();
    for t in all_templates() {
        let CaseSources {
            buggy,
            gold,
            description,
        } = (t.make)(&mut rng);
        let case = UbCase::from_sources(
            format!("{}/{}/probe", t.class.label(), t.name),
            t.class,
            t.name,
            &buggy,
            &gold,
            &description,
        );
        if let Err(e) = case.validate() {
            failures.push(e);
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_templates_validate_across_seeds() {
        for seed in [0u64, 1, 7, 42, 1234] {
            let failures = validate_all_templates(seed);
            assert!(failures.is_empty(), "seed {seed}: {failures:#?}");
        }
    }

    #[test]
    fn corpus_has_requested_shape() {
        let c = Corpus::generate(7, 3, &[UbClass::Alloc, UbClass::Panic]);
        assert_eq!(c.len(), 6);
        assert_eq!(c.of_class(UbClass::Alloc).len(), 3);
        assert_eq!(c.of_class(UbClass::Panic).len(), 3);
    }

    #[test]
    fn full_corpus_covers_all_classes() {
        let c = Corpus::generate_full(11, 2);
        let stats = c.stats();
        for class in UbClass::ALL {
            assert_eq!(stats.get(&class), Some(&2), "missing {class}");
        }
        assert!(c.mean_stmts() > 2.0);
    }

    #[test]
    fn generation_is_reproducible() {
        let a = Corpus::generate_full(5, 1);
        let b = Corpus::generate_full(5, 1);
        assert_eq!(a.cases.len(), b.cases.len());
        for (x, y) in a.cases.iter().zip(&b.cases) {
            assert_eq!(x.buggy, y.buggy);
            assert_eq!(x.gold, y.gold);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(1, 2, &[UbClass::Alloc]);
        let b = Corpus::generate(2, 2, &[UbClass::Alloc]);
        assert_ne!(
            a.cases.iter().map(|c| c.buggy.clone()).collect::<Vec<_>>(),
            b.cases.iter().map(|c| c.buggy.clone()).collect::<Vec<_>>()
        );
    }
}
