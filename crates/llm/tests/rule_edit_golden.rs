//! Golden digest of every rule edit over the template corpus.
//!
//! For seeds 0–4 × every dataset template × every rule (`ALL` plus the
//! hallucination edits), the digest records a hash of the printed output
//! of `apply`, or `-` when the rule does not apply. Each successful edit's
//! output is fed back in as a second-step input (repaired against its own
//! primary diagnostic, or the original one when it passes), and the
//! second-step outputs fold into the first step's hash. Any change to what
//! a rule matches or how it edits shows up as a changed token.
//!
//! After an intentional rule change, regenerate the committed digest with
//! `cargo test -p rb_llm --test rule_edit_golden -- --ignored`.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rb_dataset::all_templates;
use rb_lang::printer::print_program;
use rb_lang::Program;
use rb_llm::rules::RuleKind;
use rb_llm::RepairRule;
use rb_miri::{run_program, MiriError};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/rule_edits.txt");
const SEEDS: std::ops::Range<u64> = 0..5;

/// `ALL` followed by the hallucination edits it does not list, deduped.
fn every_rule() -> Vec<RepairRule> {
    let mut rules = RepairRule::ALL.to_vec();
    for h in RepairRule::HALLUCINATIONS {
        if !rules.contains(&h) {
            rules.push(h);
        }
    }
    rules
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, text: &str) {
        for b in text.bytes().chain([0xff]) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One repair input: a program, the diagnostic to repair, and a label for
/// failure messages.
struct Input {
    label: String,
    prog: Program,
    err: MiriError,
}

/// The first-step inputs: every template's buggy program at every seed.
fn first_step_inputs() -> Vec<Input> {
    let mut out = Vec::new();
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for t in all_templates() {
            let s = (t.make)(&mut rng);
            let prog = rb_lang::parser::parse_program(&s.buggy).expect("template parses");
            let err = run_program(&prog)
                .primary()
                .cloned()
                .expect("buggy template has a diagnostic");
            out.push(Input {
                label: format!("{seed} {}", t.name),
                prog,
                err,
            });
        }
    }
    out
}

/// The second-step input built from a successful edit.
fn second_step(first: &Input, rule: RepairRule, edited: Program) -> Input {
    let err = run_program(&edited)
        .primary()
        .cloned()
        .unwrap_or_else(|| first.err.clone());
    Input {
        label: format!("{} then {}", first.label, rule.name()),
        prog: edited,
        err,
    }
}

fn digest() -> String {
    let rules = every_rule();
    let mut out = String::from("# seed template");
    for r in &rules {
        out.push(' ');
        out.push_str(r.name());
    }
    out.push('\n');
    for input in first_step_inputs() {
        out.push_str(&input.label);
        for &rule in &rules {
            let Some(edited) = rule.apply(&input.prog, &input.err) else {
                out.push_str(" -");
                continue;
            };
            let mut h = Fnv::new();
            h.write(&print_program(&edited));
            let next = second_step(&input, rule, edited);
            for &r2 in &rules {
                match r2.apply(&next.prog, &next.err) {
                    Some(p) => h.write(&print_program(&p)),
                    None => h.write("none"),
                }
            }
            out.push_str(&format!(" {:08x}", h.0 as u32));
        }
        out.push('\n');
    }
    out
}

#[test]
fn rule_edits_match_the_golden_digest() {
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect("golden digest is committed");
    let current = digest();
    let header = current.lines().next().unwrap_or_default();
    let names: Vec<&str> = header.split(' ').skip(3).collect();
    let mut diffs = Vec::new();
    for (want, got) in golden.lines().zip(current.lines()).skip(1) {
        if want == got {
            continue;
        }
        let label: Vec<&str> = got.split(' ').take(2).collect();
        let w: Vec<&str> = want.split(' ').skip(2).collect();
        let g: Vec<&str> = got.split(' ').skip(2).collect();
        for (i, (a, b)) in w.iter().zip(&g).enumerate() {
            if a != b {
                diffs.push(format!(
                    "{}: {} was {a}, now {b}",
                    label.join(" "),
                    names.get(i).unwrap_or(&"?")
                ));
            }
        }
    }
    assert!(
        diffs.is_empty(),
        "rule edits drifted:\n{}",
        diffs.join("\n")
    );
    assert_eq!(golden, current, "digest shape changed (rules or templates)");
}

#[test]
fn candidates_are_exactly_the_applicable_repair_rules() {
    let repair_rules: Vec<RepairRule> = RepairRule::ALL
        .into_iter()
        .filter(|r| r.kind() != RuleKind::Hallucination)
        .collect();
    let mut inputs = Vec::new();
    for first in first_step_inputs() {
        for rule in every_rule() {
            if let Some(edited) = rule.apply(&first.prog, &first.err) {
                inputs.push(second_step(&first, rule, edited));
            }
        }
        inputs.push(first);
    }
    for input in &inputs {
        let cands = RepairRule::candidates(&input.prog, &input.err);
        for &r in &repair_rules {
            assert_eq!(
                cands.contains(&r),
                r.apply(&input.prog, &input.err).is_some(),
                "{}: candidates and apply disagree on {}",
                input.label,
                r.name()
            );
        }
        // Order matters too: the model draws one noise sample per
        // candidate, in this order.
        let expected: Vec<RepairRule> = repair_rules
            .iter()
            .copied()
            .filter(|r| cands.contains(r))
            .collect();
        assert_eq!(cands, expected, "{}: candidate order", input.label);
    }
}

#[test]
#[ignore = "rewrites the committed golden digest"]
fn regenerate_golden_digest() {
    std::fs::create_dir_all(
        std::path::Path::new(GOLDEN_PATH)
            .parent()
            .expect("has a parent"),
    )
    .expect("create golden dir");
    std::fs::write(GOLDEN_PATH, digest()).expect("write golden digest");
}
