//! The compiled rule engine: a deduplicated predicate table lowered into
//! a shared-prefix decision DAG, executed as a branch-free bitmap
//! program.
//!
//! [`CompiledRules`] lowers a [`RuleSet`] into two flat tables:
//!
//! * a **predicate table** — every distinct atomic [`Condition`] across
//!   the rule set, stored once (deduplicated by a hash-keyed interner,
//!   O(1) amortized per condition — compile time sits on the daemon's
//!   hot-swap path);
//! * a **rule table** — per rule, the predicate ids of its conjunction
//!   plus the class it implies.
//!
//! These two tables are the wire format (what serializes), unchanged
//! since the predicate-table engine — persisted pre-DAG `ServeModel`
//! files load as-is. Scoring runs on a third, derived form: the tables
//! are lowered (eagerly at [`CompiledRules::compile`], lazily on first
//! use after deserialization) into a [`crate::program::DagProgram`] — a
//! decision DAG merging common predicate prefixes across rules, emitted
//! as a flat op list over bitmap registers with **fused column sweeps**
//! (every predicate on a column evaluated in one pass down it) and
//! first-match arbitration per op (see [`crate::dag`] and
//! [`crate::program`] for the layout). Large batches shard across the
//! shared `nr-nn` worker pool, chunk-ordered so results never depend on
//! the thread count.
//!
//! The engine is pinned **bit-identical** to the interpreted
//! [`RuleSet::predict_row`] path by the workspace equivalence suite.

use std::sync::OnceLock;

use nr_rules::{Condition, Predictor, Rule, RuleSet, Scored};
use nr_tabular::{ClassId, DatasetView};
use serde::{Deserialize, Serialize};

use crate::bitmap::Bitmap;
use crate::dag::{self, PredicateInterner};
use crate::program::{DagProgram, PAR_ROW_THRESHOLD, PAR_SHARD_ROWS};

/// Batch size at and above which [`CompiledRules`] shards scoring across
/// the shared worker pool. Below it everything runs on the caller's
/// thread — sized so the daemon batch-former's coalesced lane batches
/// (tens of rows) never fan out under a loaded daemon, while bulk bodies
/// and offline scans do.
pub fn parallel_row_threshold() -> usize {
    PAR_ROW_THRESHOLD
}

/// One lowered rule: predicate ids (indices into the predicate table, in
/// original condition order) and the implied class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CompiledRule {
    pub(crate) predicates: Vec<u32>,
    pub(crate) class: ClassId,
}

/// A [`RuleSet`] compiled for batch scoring (see the module docs).
///
/// Compilation is lossless: [`CompiledRules::to_ruleset`] reconstructs
/// the source rule set exactly (same conditions, order, classes, default,
/// and class names), so display and audit never need the original around.
///
/// The lowered DAG program is a derived cache, not state: it is excluded
/// from serialization and equality, and its one-time initialization
/// (after deserialization) is the only interior mutability in the
/// serving layer — a write-once `OnceLock` whose value is a pure
/// function of the wire fields, so concurrent scorers race only to
/// install identical programs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompiledRules {
    predicates: Vec<Condition>,
    rules: Vec<CompiledRule>,
    default_class: ClassId,
    class_names: Vec<String>,
    #[serde(skip)]
    program: OnceLock<DagProgram>,
}

/// Wire-field equality: the lowered program is derived (and deliberately
/// absent right after deserialization), so it never participates.
impl PartialEq for CompiledRules {
    fn eq(&self, other: &Self) -> bool {
        self.predicates == other.predicates
            && self.rules == other.rules
            && self.default_class == other.default_class
            && self.class_names == other.class_names
    }
}

impl CompiledRules {
    /// Lowers a rule set into the predicate-table form and builds the
    /// scoring DAG eagerly (a deserialized bundle defers it to first
    /// use instead).
    pub fn compile(rs: &RuleSet) -> Self {
        let mut interner = PredicateInterner::default();
        let rules = rs
            .rules
            .iter()
            .map(|rule| CompiledRule {
                predicates: rule
                    .conditions
                    .iter()
                    .map(|cond| interner.intern(cond))
                    .collect(),
                class: rule.class,
            })
            .collect();
        let compiled = CompiledRules {
            predicates: interner.into_table(),
            rules,
            default_class: rs.default_class,
            class_names: rs.class_names.clone(),
            program: OnceLock::new(),
        };
        compiled.program();
        compiled
    }

    /// The lowered scoring program, built on first use.
    pub(crate) fn program(&self) -> &DagProgram {
        self.program
            .get_or_init(|| dag::lower(&self.predicates, &self.rules, self.default_class))
    }

    /// Number of rules (excluding the default).
    pub fn n_rules(&self) -> usize {
        self.rules.len()
    }

    /// Number of distinct predicates shared across the rules.
    pub fn n_predicates(&self) -> usize {
        self.predicates.len()
    }

    /// Class assigned when no rule matches.
    pub fn default_class(&self) -> ClassId {
        self.default_class
    }

    /// Class display names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Reconstructs the source [`RuleSet`] (exact inverse of
    /// [`CompiledRules::compile`] — used for display and audit).
    pub fn to_ruleset(&self) -> RuleSet {
        let rules = self
            .rules
            .iter()
            .map(|r| {
                let conditions = r
                    .predicates
                    .iter()
                    .map(|&p| self.predicates[p as usize].clone())
                    .collect();
                Rule::new(conditions, r.class)
            })
            .collect();
        RuleSet::new(rules, self.default_class, self.class_names.clone())
    }

    /// First non-finite numeric threshold across the predicate table, as a
    /// human-readable description — `None` when every bound is finite.
    /// Backs [`crate::ServeModel::validate_finite`].
    pub(crate) fn first_non_finite(&self) -> Option<String> {
        for (id, pred) in self.predicates.iter().enumerate() {
            let bad = match pred {
                Condition::Num { lo, hi, .. } => [*lo, *hi]
                    .into_iter()
                    .flatten()
                    .find(|bound| !bound.is_finite()),
                Condition::NumEq { value, .. } => Some(*value).filter(|v| !v.is_finite()),
                Condition::CatEq { .. } | Condition::CatNotIn { .. } => None,
            };
            if let Some(bound) = bad {
                return Some(format!("rule predicate {id} bound is {bound}"));
            }
        }
        None
    }

    /// The batch first-match core: appends the class of every view row to
    /// `out` and returns the bitmap of rows claimed by an **explicit**
    /// rule (unset = default fallthrough). Everything public routes
    /// through here. Batches of [`parallel_row_threshold`] rows or more
    /// shard across the worker pool; results are identical either way.
    pub(crate) fn match_batch_into(
        &self,
        view: &DatasetView<'_>,
        out: &mut Vec<ClassId>,
    ) -> Bitmap {
        let threads = if view.len() >= PAR_ROW_THRESHOLD {
            0
        } else {
            1
        };
        self.program()
            .match_batch_into(view, out, threads, PAR_SHARD_ROWS)
    }

    /// [`Predictor::predict_batch`] with an explicit worker-thread count
    /// and shard size (`shard_rows` must be a positive multiple of 64;
    /// `threads` `0` = auto). The determinism contract, callable: output
    /// is **bit-identical for every** `(threads, shard_rows)` — the
    /// equivalence suite exercises 1/2/4 workers through this.
    pub fn predict_batch_with(
        &self,
        view: &DatasetView<'_>,
        threads: usize,
        shard_rows: usize,
    ) -> Vec<ClassId> {
        let mut out = Vec::with_capacity(view.len());
        self.program()
            .match_batch_into(view, &mut out, threads, shard_rows);
        out
    }
}

impl Predictor for CompiledRules {
    fn n_classes(&self) -> usize {
        self.class_names.len()
    }

    fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>) {
        self.match_batch_into(view, out);
    }

    /// Score `1.0` when an explicit rule matched, `0.0` for default-class
    /// fallthrough — the same convention as the interpreted [`RuleSet`].
    /// Scores come straight off the match bitmap's words (no per-row
    /// `Bitmap::get` re-walk).
    fn predict_scored_batch(&self, view: &DatasetView<'_>) -> Vec<Scored> {
        let mut classes = Vec::with_capacity(view.len());
        let matched = self.match_batch_into(view, &mut classes);
        let words = matched.words();
        let mut scored = Vec::with_capacity(classes.len());
        for (w, chunk) in classes.chunks(64).enumerate() {
            let word = words[w];
            for (k, &class) in chunk.iter().enumerate() {
                scored.push(Scored {
                    class,
                    score: ((word >> k) & 1) as f64,
                });
            }
        }
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_tabular::{Attribute, Dataset, Schema, Value};

    fn dataset() -> Dataset {
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for i in 0..100 {
            ds.push(
                vec![Value::Num(i as f64), Value::Nominal((i % 3) as u32)],
                i % 2,
            )
            .unwrap();
        }
        ds
    }

    fn ruleset() -> RuleSet {
        RuleSet::new(
            vec![
                Rule::new(
                    vec![
                        Condition::num_range(0, 10.0, 40.0),
                        Condition::CatEq {
                            attribute: 1,
                            code: 0,
                        },
                    ],
                    1,
                ),
                Rule::new(vec![Condition::num_lt(0, 40.0)], 0),
                Rule::new(
                    vec![
                        Condition::num_range(0, 10.0, 40.0), // shared with rule 0
                        Condition::CatNotIn {
                            attribute: 1,
                            codes: [2].into_iter().collect(),
                        },
                    ],
                    1,
                ),
            ],
            0,
            vec!["A".into(), "B".into()],
        )
    }

    #[test]
    fn predicates_are_deduplicated() {
        let compiled = CompiledRules::compile(&ruleset());
        assert_eq!(compiled.n_rules(), 3);
        // 4 distinct conditions across 5 condition slots.
        assert_eq!(compiled.n_predicates(), 4);
        assert_eq!(compiled.default_class(), 0);
    }

    #[test]
    fn dag_shares_the_common_prefix() {
        // Rules 0 and 2 share the `10 <= x < 40` prefix: the trie must
        // merge it into one node swept/computed once.
        let compiled = CompiledRules::compile(&ruleset());
        let program = compiled.program();
        assert_eq!(program.n_shared_nodes, 1, "one shared prefix node");
        // 2 columns -> 2 fused sweeps; 2 depth-2 nodes -> 2 Ands; 3 Claims.
        assert_eq!(program.sweeps.len(), 2);
        let ands = program
            .ops
            .iter()
            .filter(|op| matches!(op, crate::program::Op::And { .. }))
            .count();
        assert_eq!(ands, 2);
        let claims = program
            .ops
            .iter()
            .filter(|op| matches!(op, crate::program::Op::Claim { .. }))
            .count();
        assert_eq!(claims, 3);
    }

    #[test]
    fn matches_interpreted_per_row() {
        let ds = dataset();
        let rs = ruleset();
        let compiled = CompiledRules::compile(&rs);
        let batch = compiled.predict_batch(&ds.view());
        for i in 0..ds.len() {
            assert_eq!(batch[i], rs.predict_row(&ds, i), "row {i}");
        }
        // Selected (gathered) views too, in view order.
        let sel: Vec<usize> = (0..ds.len()).rev().step_by(3).collect();
        let view = ds.view_of(sel.clone());
        let batch = compiled.predict_batch(&view);
        for (pos, &r) in sel.iter().enumerate() {
            assert_eq!(batch[pos], rs.predict_row(&ds, r), "view row {pos}");
        }
    }

    #[test]
    fn dag_is_thread_and_shard_invariant() {
        let ds = dataset();
        let compiled = CompiledRules::compile(&ruleset());
        let reference = compiled.predict_batch(&ds.view());
        for threads in [0usize, 1, 2, 4] {
            assert_eq!(
                compiled.predict_batch_with(&ds.view(), threads, 64),
                reference,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn scored_marks_default_fallthrough() {
        let ds = dataset();
        let rs = ruleset();
        let compiled = CompiledRules::compile(&rs);
        let scored = compiled.predict_scored_batch(&ds.view());
        for (i, s) in scored.iter().enumerate() {
            let explicit = rs.first_match_row(&ds, i).is_some();
            assert_eq!(s.score, if explicit { 1.0 } else { 0.0 }, "row {i}");
            assert_eq!(s.class, rs.predict_row(&ds, i));
        }
        // Rows >= 40 fall through to the default.
        assert_eq!(scored[50].score, 0.0);
        assert_eq!(scored[50].class, 0);
    }

    #[test]
    fn roundtrips_to_the_source_ruleset() {
        let rs = ruleset();
        let compiled = CompiledRules::compile(&rs);
        assert_eq!(compiled.to_ruleset(), rs);
        // And through JSON — the derived program is not serialized, and a
        // deserialized engine rebuilds it lazily with identical results.
        let json = serde_json::to_string(&compiled).unwrap();
        let back: CompiledRules = serde_json::from_str(&json).unwrap();
        assert_eq!(back, compiled);
        assert_eq!(back.to_ruleset(), rs);
        let ds = dataset();
        assert_eq!(
            back.predict_batch(&ds.view()),
            compiled.predict_batch(&ds.view())
        );
    }

    #[test]
    fn empty_view_and_empty_ruleset() {
        let ds = dataset();
        let compiled = CompiledRules::compile(&ruleset());
        assert!(compiled.predict_batch(&ds.view_of(Vec::new())).is_empty());
        let empty =
            CompiledRules::compile(&RuleSet::new(Vec::new(), 1, vec!["A".into(), "B".into()]));
        assert_eq!(empty.predict_batch(&ds.view_of(vec![0, 5])), vec![1, 1]);
    }

    #[test]
    fn contradictions_and_empty_antecedents_lower_correctly() {
        // Rule 0 is statically false (10 <= x < 10): elided. Rule 1 has an
        // empty antecedent: claims everything, terminating the program —
        // rule 2 is unreachable.
        let rs = RuleSet::new(
            vec![
                Rule::new(vec![Condition::num_range(0, 10.0, 10.0)], 1),
                Rule::new(vec![], 0),
                Rule::new(vec![Condition::num_ge(0, 50.0)], 1),
            ],
            1,
            vec!["A".into(), "B".into()],
        );
        let compiled = CompiledRules::compile(&rs);
        let ds = dataset();
        let batch = compiled.predict_batch(&ds.view());
        for i in 0..ds.len() {
            assert_eq!(batch[i], rs.predict_row(&ds, i), "row {i}");
            assert_eq!(batch[i], 0);
        }
        // Everything matched explicitly: scores are all 1.0.
        for s in compiled.predict_scored_batch(&ds.view()) {
            assert_eq!(s.score, 1.0);
        }
        assert_eq!(compiled.program().ops.len(), 1, "one ClaimRest only");
    }
}
