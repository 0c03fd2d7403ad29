//! Conjunctive rules.

use nr_tabular::{ClassId, Dataset, Schema, Value};
use serde::{Deserialize, Serialize};

use crate::Condition;

/// One classification rule: a conjunction of conditions implying a class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// The conjunction of atomic conditions (empty = always matches).
    pub conditions: Vec<Condition>,
    /// Predicted class when all conditions hold.
    pub class: ClassId,
}

impl Rule {
    /// Creates a rule.
    pub fn new(conditions: Vec<Condition>, class: ClassId) -> Self {
        Rule { conditions, class }
    }

    /// True when every condition holds on `row`.
    pub fn matches(&self, row: &[Value]) -> bool {
        self.conditions.iter().all(|c| c.matches(row))
    }

    /// True when every condition holds on row `row` of a columnar dataset.
    #[inline]
    pub fn matches_at(&self, ds: &Dataset, row: usize) -> bool {
        self.conditions.iter().all(|c| c.matches_at(ds, row))
    }

    /// Number of atomic conditions (the paper's measure of rule complexity).
    pub fn n_conditions(&self) -> usize {
        self.conditions.len()
    }

    /// Merges conditions on the same attribute into single intervals and
    /// drops conditions implied by others. Returns `None` when merging
    /// exposes a conflict (e.g. `zip = z1 ∧ zip = z2`).
    pub fn normalized(&self) -> Option<Rule> {
        let mut merged: Vec<Condition> = Vec::with_capacity(self.conditions.len());
        for cond in &self.conditions {
            if let Some(pos) = merged
                .iter()
                .position(|m| m.attribute() == cond.attribute() && m.intersect(cond).is_some())
            {
                let combined = merged[pos].intersect(cond).expect("checked above");
                merged[pos] = combined;
            } else if merged
                .iter()
                .any(|m| m.attribute() == cond.attribute() && m.intersect(cond).is_none())
            {
                // Same attribute but no common solution representation.
                // NumEq-vs-interval pairs land here; check semantic conflict.
                match conflict_or_absorb(&mut merged, cond) {
                    Absorb::Conflict => return None,
                    Absorb::Done => {}
                }
            } else {
                merged.push(cond.clone());
            }
        }
        if merged.iter().any(Condition::is_contradiction) {
            return None;
        }
        Some(Rule::new(merged, self.class))
    }

    /// True when `self`'s antecedent is implied by `other`'s (other ⇒ self):
    /// every condition of `self` is implied by some condition of `other`.
    pub fn subsumes(&self, other: &Rule) -> bool {
        self.class == other.class
            && self
                .conditions
                .iter()
                .all(|c| other.conditions.iter().any(|o| c.implied_by(o)))
    }

    /// Renders paper-style: `If (c1) ∧ (c2), then <class>`.
    pub fn display(&self, schema: &Schema, class_names: &[String]) -> String {
        if self.conditions.is_empty() {
            return format!("If (true), then {}", class_names[self.class]);
        }
        let conds: Vec<String> = self.conditions.iter().map(|c| c.display(schema)).collect();
        format!(
            "If {} , then {}",
            conds.join(" and "),
            class_names[self.class]
        )
    }
}

enum Absorb {
    Conflict,
    Done,
}

/// Handles merging a condition into a list when `intersect` returned `None`
/// for a same-attribute pair: NumEq against an interval either conflicts or
/// one side absorbs the other; nominal equality conflicts were already
/// detected by `intersect` returning `None`.
fn conflict_or_absorb(merged: &mut [Condition], cond: &Condition) -> Absorb {
    for m in merged.iter_mut() {
        if m.attribute() != cond.attribute() {
            continue;
        }
        match (&*m, cond) {
            (Condition::NumEq { value, .. }, Condition::Num { lo, hi, .. }) => {
                let inside = lo.is_none_or(|l| *value >= l) && hi.is_none_or(|h| *value < h);
                return if inside {
                    Absorb::Done
                } else {
                    Absorb::Conflict
                };
            }
            (Condition::Num { lo, hi, .. }, Condition::NumEq { attribute, value }) => {
                let inside = lo.is_none_or(|l| *value >= l) && hi.is_none_or(|h| *value < h);
                if inside {
                    *m = Condition::NumEq {
                        attribute: *attribute,
                        value: *value,
                    };
                    return Absorb::Done;
                }
                return Absorb::Conflict;
            }
            (Condition::NumEq { value: a, .. }, Condition::NumEq { value: b, .. }) => {
                return if a == b {
                    Absorb::Done
                } else {
                    Absorb::Conflict
                };
            }
            _ => return Absorb::Conflict,
        }
    }
    Absorb::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::numeric("salary"),
            Attribute::numeric("age"),
        ])
    }

    #[test]
    fn matches_conjunction() {
        let r = Rule::new(
            vec![Condition::num_ge(0, 50_000.0), Condition::num_lt(1, 40.0)],
            0,
        );
        assert!(r.matches(&[Value::Num(60_000.0), Value::Num(30.0)]));
        assert!(!r.matches(&[Value::Num(60_000.0), Value::Num(45.0)]));
        assert!(!r.matches(&[Value::Num(40_000.0), Value::Num(30.0)]));
    }

    #[test]
    fn empty_rule_always_matches() {
        let r = Rule::new(vec![], 1);
        assert!(r.matches(&[Value::Num(0.0), Value::Num(0.0)]));
        assert_eq!(r.n_conditions(), 0);
    }

    #[test]
    fn normalize_merges_same_attribute() {
        let r = Rule::new(
            vec![
                Condition::num_ge(0, 50_000.0),
                Condition::num_lt(0, 100_000.0),
            ],
            0,
        );
        let n = r.normalized().unwrap();
        assert_eq!(
            n.conditions,
            vec![Condition::num_range(0, 50_000.0, 100_000.0)]
        );
    }

    #[test]
    fn normalize_detects_contradiction() {
        let r = Rule::new(
            vec![Condition::num_ge(1, 60.0), Condition::num_lt(1, 40.0)],
            0,
        );
        assert!(r.normalized().is_none());
    }

    #[test]
    fn normalize_numeq_in_interval() {
        let r = Rule::new(
            vec![
                Condition::num_lt(0, 10_000.0),
                Condition::NumEq {
                    attribute: 0,
                    value: 0.0,
                },
            ],
            0,
        );
        let n = r.normalized().unwrap();
        assert_eq!(
            n.conditions,
            vec![Condition::NumEq {
                attribute: 0,
                value: 0.0
            }]
        );
        let bad = Rule::new(
            vec![
                Condition::num_ge(0, 10_000.0),
                Condition::NumEq {
                    attribute: 0,
                    value: 0.0,
                },
            ],
            0,
        );
        assert!(bad.normalized().is_none());
    }

    #[test]
    fn subsumption() {
        let general = Rule::new(vec![Condition::num_ge(0, 50_000.0)], 0);
        let specific = Rule::new(
            vec![Condition::num_ge(0, 60_000.0), Condition::num_lt(1, 40.0)],
            0,
        );
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
        let other_class = Rule::new(vec![Condition::num_ge(0, 60_000.0)], 1);
        assert!(!general.subsumes(&other_class));
    }

    #[test]
    fn display_paper_style() {
        let r = Rule::new(
            vec![Condition::num_lt(0, 100_000.0), Condition::num_lt(1, 40.0)],
            0,
        );
        let text = r.display(&schema(), &["A".into(), "B".into()]);
        assert_eq!(text, "If (salary < 100000) and (age < 40) , then A");
    }
}
