//! Lowering a compiled rule set into the shared-prefix decision DAG.
//!
//! Rules in a [`nr_rules::RuleSet`] routinely share leading conditions —
//! extraction emits families like `10 <= x < 40 && c = 0` and
//! `10 <= x < 40 && d != 2`. [`lower`] builds a **trie over predicate-id
//! sequences** (in each rule's original condition order): every distinct
//! prefix becomes one node, so rules sharing `10 <= x < 40` evaluate it
//! once and branch from the same node. Nodes are materialized as bitmap
//! registers (`node = parent & predicate`), and the trie flattens into
//! the branch-free op list of [`crate::program::DagProgram`]:
//!
//! * predicates group by column into **fused sweeps**, each emitted at
//!   the first point any of its predicates is needed (rule order), so
//!   the old engine's laziness survives at column granularity — a batch
//!   fully decided by early rules never sweeps the columns only later
//!   rules touch; each predicate becomes one compare in its column's
//!   sweep ([`crate::program::NumTest`] or
//!   [`crate::program::NomTest`]), however many the column carries;
//! * each trie node gets one `And` op, emitted once no matter how many
//!   rules pass through it;
//! * each rule becomes one `Claim` op in rule order — first-match
//!   priority is arbitration order, so prefix sharing can never change
//!   which rule wins a row (the equivalence suite pins this
//!   bit-identically against `RuleSet::predict_row`);
//! * rules with a contradictory predicate (`lo >= hi`: statically empty)
//!   are elided entirely; an empty-antecedent rule claims every
//!   remaining row and terminates lowering (later rules are
//!   unreachable, exactly like the interpreted `find`).
//!
//! The same hash-keyed predicate identity ([`PredKey`]) also backs
//! [`PredicateInterner`], which `CompiledRules::compile` uses to dedup
//! conditions in O(conditions) instead of the old
//! O(rules × conditions × predicates) linear rescan — compile time is on
//! the hot path now that the daemon recompiles on every hot swap.

use std::collections::HashMap;

use nr_rules::Condition;
use nr_tabular::ClassId;

use crate::compiled::CompiledRule;
use crate::program::{ColumnSweep, DagProgram, NomTest, NumTest, Op};

/// Hashable identity of a [`Condition`]. Float bounds are keyed by bit
/// pattern (`f64::to_bits`), which distinguishes `0.0` from `-0.0` and
/// unifies identical NaNs — either way, conditions with equal keys
/// evaluate identically on every input, which is all dedup needs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum PredKey {
    /// An interval condition (`Condition::Num`).
    Num {
        /// Schema attribute index.
        attribute: usize,
        /// Lower bound bits, if bounded below.
        lo: Option<u64>,
        /// Upper bound bits, if bounded above.
        hi: Option<u64>,
    },
    /// `Condition::NumEq`.
    NumEq {
        /// Schema attribute index.
        attribute: usize,
        /// The compared value's bits.
        bits: u64,
    },
    /// `Condition::CatEq`.
    CatEq {
        /// Schema attribute index.
        attribute: usize,
        /// The matched code.
        code: u32,
    },
    /// `Condition::CatNotIn`.
    CatNotIn {
        /// Schema attribute index.
        attribute: usize,
        /// The excluded codes, ascending (the set's iteration order).
        codes: Vec<u32>,
    },
}

impl PredKey {
    /// The key of a condition.
    pub(crate) fn of(cond: &Condition) -> PredKey {
        match cond {
            Condition::Num { attribute, lo, hi } => PredKey::Num {
                attribute: *attribute,
                lo: lo.map(f64::to_bits),
                hi: hi.map(f64::to_bits),
            },
            Condition::NumEq { attribute, value } => PredKey::NumEq {
                attribute: *attribute,
                bits: value.to_bits(),
            },
            Condition::CatEq { attribute, code } => PredKey::CatEq {
                attribute: *attribute,
                code: *code,
            },
            Condition::CatNotIn { attribute, codes } => PredKey::CatNotIn {
                attribute: *attribute,
                codes: codes.iter().copied().collect(),
            },
        }
    }
}

/// Hash-keyed predicate table builder: `intern` is O(1) amortized per
/// condition, against the old `Vec::position` linear rescan.
#[derive(Debug, Default)]
pub(crate) struct PredicateInterner {
    table: Vec<Condition>,
    index: HashMap<PredKey, u32>,
}

impl PredicateInterner {
    /// The id of `cond`, inserting it on first sight.
    pub(crate) fn intern(&mut self, cond: &Condition) -> u32 {
        *self.index.entry(PredKey::of(cond)).or_insert_with(|| {
            let id = u32::try_from(self.table.len()).expect("predicate table fits in u32");
            self.table.push(cond.clone());
            id
        })
    }

    /// The finished predicate table.
    pub(crate) fn into_table(self) -> Vec<Condition> {
        self.table
    }
}

/// How one predicate executes: as a test inside its column's fused
/// sweep, or as a constant-true register fill (an unbounded interval).
enum PredPlan {
    Num(usize, NumTest),
    Nom(usize, NomTest),
    AlwaysTrue,
}

/// Classifies a condition for lowering; `None` means statically false
/// (a contradictory interval — rules containing one are elided).
fn plan_predicate(cond: &Condition) -> Option<PredPlan> {
    if cond.is_contradiction() {
        return None;
    }
    Some(match cond {
        Condition::Num { attribute, lo, hi } => match (*lo, *hi) {
            (Some(l), Some(h)) => PredPlan::Num(*attribute, NumTest::Range(l, h)),
            (Some(l), None) => PredPlan::Num(*attribute, NumTest::Ge(l)),
            (None, Some(h)) => PredPlan::Num(*attribute, NumTest::Lt(h)),
            (None, None) => PredPlan::AlwaysTrue,
        },
        Condition::NumEq { attribute, value } => PredPlan::Num(*attribute, NumTest::Eq(*value)),
        Condition::CatEq { attribute, code } => PredPlan::Nom(*attribute, NomTest::Eq(*code)),
        Condition::CatNotIn { attribute, codes } => {
            PredPlan::Nom(*attribute, NomTest::NotIn(codes.iter().copied().collect()))
        }
    })
}

/// Lowers the predicate table + rule list into a [`DagProgram`]. See the
/// module docs for the shape of the output.
pub(crate) fn lower(
    predicates: &[Condition],
    rules: &[CompiledRule],
    default_class: ClassId,
) -> DagProgram {
    Lowering::new(predicates, default_class).run(rules)
}

struct Lowering<'a> {
    predicates: &'a [Condition],
    default_class: ClassId,
    /// Predicate id → register, assigned on first use.
    pred_reg: HashMap<u32, u32>,
    /// The column sweeps, in `Op::Sweep` order. Their tests gather in
    /// `num_tests`/`nom_tests` (keyed by attribute) and move in at the
    /// end of lowering.
    sweeps: Vec<ColumnSweep>,
    num_tests: HashMap<usize, Vec<(u32, NumTest)>>,
    nom_tests: HashMap<usize, Vec<(u32, NomTest)>>,
    /// `(parent register, predicate id)` → the trie node's register.
    trie: HashMap<(Option<u32>, u32), u32>,
    ops: Vec<Op>,
    n_regs: u32,
}

impl<'a> Lowering<'a> {
    fn new(predicates: &'a [Condition], default_class: ClassId) -> Self {
        Lowering {
            predicates,
            default_class,
            pred_reg: HashMap::new(),
            sweeps: Vec::new(),
            num_tests: HashMap::new(),
            nom_tests: HashMap::new(),
            trie: HashMap::new(),
            ops: Vec::new(),
            n_regs: 0,
        }
    }

    fn fresh_reg(&mut self) -> u32 {
        let r = self.n_regs;
        self.n_regs += 1;
        r
    }

    /// The register holding predicate `p`'s bitmap, materializing it on
    /// first use: tautologies emit a `Fill`, sweep tests join their
    /// column's sweep (the `Sweep` op is emitted — once — at the first
    /// point any of the column's predicates is needed; predicates joining
    /// after that are appended to the sweep, which executes before any op
    /// that reads them because def sites only move earlier).
    fn pred_register(&mut self, p: u32) -> u32 {
        if let Some(&reg) = self.pred_reg.get(&p) {
            return reg;
        }
        let plan = plan_predicate(&self.predicates[p as usize])
            .expect("contradictory rules are elided before lowering");
        let reg = self.fresh_reg();
        self.pred_reg.insert(p, reg);
        match plan {
            PredPlan::AlwaysTrue => self.ops.push(Op::Fill(reg)),
            PredPlan::Num(attribute, test) => {
                let tests = self.num_tests.entry(attribute).or_default();
                if tests.is_empty() {
                    self.ops.push(Op::Sweep(self.sweeps.len() as u32));
                    self.sweeps.push(ColumnSweep::Num {
                        attribute,
                        tests: Vec::new(),
                    });
                }
                tests.push((reg, test));
            }
            PredPlan::Nom(attribute, test) => {
                let tests = self.nom_tests.entry(attribute).or_default();
                if tests.is_empty() {
                    self.ops.push(Op::Sweep(self.sweeps.len() as u32));
                    self.sweeps.push(ColumnSweep::Nom {
                        attribute,
                        tests: Vec::new(),
                    });
                }
                tests.push((reg, test));
            }
        }
        reg
    }

    fn run(mut self, rules: &[CompiledRule]) -> DagProgram {
        'rules: for rule in rules {
            // A statically-false predicate anywhere makes the rule
            // unreachable: skip it before allocating registers.
            if rule
                .predicates
                .iter()
                .any(|&p| plan_predicate(&self.predicates[p as usize]).is_none())
            {
                continue;
            }
            if rule.predicates.is_empty() {
                // Matches every row: claims the entire remainder; later
                // rules can never first-match (the interpreted `find`
                // stops here too).
                self.ops.push(Op::ClaimRest { class: rule.class });
                break 'rules;
            }
            // Walk (and extend) the trie along the rule's predicate
            // sequence, emitting each new node's And exactly once.
            let mut prefix: Option<u32> = None; // parent node's register
            for &p in &rule.predicates {
                let parent = prefix;
                let reg = match self.trie.get(&(parent, p)) {
                    Some(&reg) => reg,
                    None => {
                        let pred = self.pred_register(p);
                        let reg = match parent {
                            // Depth 1: the node *is* the predicate.
                            None => pred,
                            Some(parent_reg) => {
                                let dst = self.fresh_reg();
                                self.ops.push(Op::And {
                                    dst,
                                    a: parent_reg,
                                    b: pred,
                                });
                                dst
                            }
                        };
                        self.trie.insert((parent, p), reg);
                        reg
                    }
                };
                prefix = Some(reg);
            }
            self.ops.push(Op::Claim {
                src: prefix.expect("non-empty antecedent has a leaf node"),
                class: rule.class,
            });
        }

        for sweep in &mut self.sweeps {
            match sweep {
                ColumnSweep::Num { attribute, tests } => {
                    *tests = self.num_tests.remove(attribute).unwrap_or_default();
                }
                ColumnSweep::Nom { attribute, tests } => {
                    *tests = self.nom_tests.remove(attribute).unwrap_or_default();
                }
            }
        }
        DagProgram {
            default_class: self.default_class,
            n_regs: self.n_regs,
            sweeps: self.sweeps,
            ops: self.ops,
        }
    }
}
