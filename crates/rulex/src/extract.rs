//! The RX driver: steps 1–4 of Figure 4, plus rewriting into attribute rules.

use std::collections::{BTreeMap, BTreeSet};

use nr_encode::{enumerate_feasible, literals_to_rule, EncodedDataset, Encoder, Literal};
use nr_nn::Mlp;
use nr_rules::{Rule, RuleSet};
use serde::{Deserialize, Serialize};

use crate::cluster::{discretize_hidden, ClusterModel};
use crate::cover::{perfect_rules, TableRule};
use crate::subnet::MAX_DEPTH;
use crate::table::DecisionTable;
use crate::RxError;

/// Cap on the activation-combination table (the paper's example has 18).
const MAX_ACTIVATION_COMBOS: usize = 4096;
/// Cap on a hidden node's feasible input patterns before it is split by a
/// subnetwork (§3.2) or falls back to its observed patterns.
const MAX_INPUT_PATTERNS: usize = 4096;
/// Cap on the conjunctions produced by rule substitution.
const MAX_DNF_TERMS: usize = 20_000;

/// Parameters of RX: the two the paper sets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RxConfig {
    /// Initial clustering ε (the paper uses 0.6 for Function 2).
    pub epsilon: f64,
    /// Accuracy the discretized network must keep (the paper reuses the
    /// pruning threshold, 90%).
    pub accuracy_floor: f64,
}

impl Default for RxConfig {
    fn default() -> Self {
        RxConfig {
            epsilon: 0.6,
            accuracy_floor: 0.9,
        }
    }
}

/// A rule in input-bit space (the paper's `R1: C1=1 ⇐ I2=I17=0, I13=0`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitRule {
    /// The literal conjunction.
    pub literals: Vec<Literal>,
    /// Implied class.
    pub class: usize,
}

impl BitRule {
    /// Paper-style rendering: `I2=0, I13=0 => class 0`.
    pub fn display(&self) -> String {
        let lits: Vec<String> = self.literals.iter().map(Literal::display).collect();
        format!("{} => class {}", lits.join(", "), self.class)
    }
}

/// One row of the §3.1 activation→output table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActivationRow {
    /// Cluster index per live hidden node.
    pub combo: Vec<usize>,
    /// The cluster center values substituted for the activations.
    pub centers: Vec<f64>,
    /// Network outputs for this combination.
    pub outputs: Vec<f64>,
    /// argmax class.
    pub class: usize,
}

/// Diagnostic trace of one extraction (reproduces the §3.1 walkthrough).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RxTrace {
    /// Final clustering ε.
    pub epsilon: f64,
    /// Accuracy of the discretized network.
    pub discretized_accuracy: f64,
    /// Live hidden nodes, ascending.
    pub live_hidden: Vec<usize>,
    /// Cluster count per live hidden node.
    pub cluster_counts: Vec<usize>,
    /// Cluster centers per live hidden node.
    pub cluster_centers: Vec<Vec<f64>>,
    /// The full activation table (cartesian product, like the paper's 18 rows).
    pub activation_table: Vec<ActivationRow>,
    /// Step-2 rules over discretized activations (columns index `live_hidden`).
    pub output_rules: Vec<TableRule>,
    /// `(node, cluster, #conjunctions)` for step-3 rules.
    pub hidden_rule_counts: Vec<(usize, usize, usize)>,
    /// Conjunctions generated by substitution before feasibility filtering.
    pub conjunctions_before_filter: usize,
    /// Conjunctions dropped as infeasible (the paper's R′₁ cases).
    pub infeasible_dropped: usize,
    /// `(depth, node)` of each hidden node whose rules came from a
    /// subnetwork (§3.2): depth 0 is the pruned network, depth `d + 1` a
    /// subnetwork split off at depth `d`. A node's entry precedes those of
    /// its subnetwork's nodes.
    pub used_subnet: Vec<(usize, usize)>,
    /// `(depth, node)` of each hidden node that fell back to observed input
    /// patterns, at any depth.
    pub observed_fallback: Vec<(usize, usize)>,
}

/// Result of rule extraction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RxOutcome {
    /// The final rules over original attributes, with default class.
    pub ruleset: RuleSet,
    /// The same rules in input-bit space (pre-rewrite), for inspection.
    pub bit_rules: Vec<BitRule>,
    /// Extraction trace.
    pub trace: RxTrace,
}

/// Extracts classification rules from a pruned network.
///
/// `data` must be the encoded training set (same encoder), `class_names`
/// the dataset's class labels.
pub fn extract(
    net: &Mlp,
    encoder: &Encoder,
    data: &EncodedDataset,
    class_names: &[String],
    config: &RxConfig,
) -> Result<RxOutcome, RxError> {
    let default_class = majority(data);
    let wanted: Vec<usize> = (0..data.n_classes())
        .filter(|&c| c != default_class)
        .collect();

    let mut trace = RxTrace::default();
    let identity: Vec<usize> = (0..encoder.n_inputs()).collect();
    let rx = Rx {
        net,
        encoder,
        bit_map: &identity,
        data,
        epsilon: config.epsilon,
        accuracy_floor: config.accuracy_floor,
        depth: 0,
    };
    let dnf = rx.literal_dnf(&wanted, &mut trace)?;

    // Rewrite literal conjunctions into attribute rules.
    let mut bit_rules = Vec::new();
    let mut rules: Vec<Rule> = Vec::new();
    for (&class, conjunctions) in &dnf {
        let mut class_rules: Vec<(Vec<Literal>, Rule)> = Vec::new();
        for lits in conjunctions {
            if let Some(rule) = literals_to_rule(encoder, lits, class) {
                if let Some(norm) = rule.normalized() {
                    class_rules.push((lits.clone(), norm));
                } else {
                    trace.infeasible_dropped += 1;
                }
            } else {
                trace.infeasible_dropped += 1;
            }
        }
        // Compact rules first, deterministic order.
        class_rules.sort_by_key(|(lits, r)| (r.n_conditions(), lits.clone()));
        for (lits, rule) in class_rules {
            bit_rules.push(BitRule {
                literals: lits,
                class,
            });
            rules.push(rule);
        }
    }

    let ruleset = RuleSet::new(rules, default_class, class_names.to_vec()).simplified();
    Ok(RxOutcome {
        ruleset,
        bit_rules,
        trace,
    })
}

/// Majority class of an encoded dataset.
fn majority(data: &EncodedDataset) -> usize {
    let mut counts = vec![0usize; data.n_classes()];
    for &t in data.targets() {
        counts[t] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, usize::MAX - i))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// For each class, a DNF: literal conjunctions over global input bits.
pub(crate) type ClassDnf = BTreeMap<usize, Vec<Vec<Literal>>>;

/// One level of RX: a network, what its inputs mean, the data it is read
/// against and the accuracy its discretization must keep. The top level
/// reads the pruned network; each §3.2 subnetwork gets its own level, one
/// `depth` deeper.
pub(crate) struct Rx<'a> {
    pub net: &'a Mlp,
    pub encoder: &'a Encoder,
    /// `bit_map[l]` is the global encoder bit behind the network's input
    /// `l`: the identity at the top level, the parent node's connected bits
    /// in a subnetwork.
    pub bit_map: &'a [usize],
    pub data: &'a EncodedDataset,
    pub epsilon: f64,
    pub accuracy_floor: f64,
    pub depth: usize,
}

impl Rx<'_> {
    /// Steps 1–4 of RX in *literal space*: returns, for each wanted class,
    /// the DNF that makes the network predict that class. The top level
    /// fills `trace`; a subnetwork level records only its subnetwork and
    /// observed-pattern use.
    pub(crate) fn literal_dnf(
        &self,
        wanted: &[usize],
        trace: &mut RxTrace,
    ) -> Result<ClassDnf, RxError> {
        let net = self.net;
        assert_eq!(
            self.bit_map.len(),
            net.n_inputs(),
            "bit map must cover every network input"
        );

        // --- Step 1: discretize hidden activations. ---------------------
        let disc = discretize_hidden(net, self.data, self.epsilon, self.accuracy_floor);
        let live = disc.nodes.clone();
        if live.is_empty() {
            // Fully pruned network: every prediction is the constant argmax
            // of zero hidden input. All-wanted classes get empty DNFs.
            return Ok(wanted.iter().map(|&c| (c, Vec::new())).collect());
        }

        // --- Step 2: activation table and output rules. -----------------
        let arity: Vec<usize> = disc.models.iter().map(ClusterModel::len).collect();
        let needed: usize = arity.iter().product();
        if needed > MAX_ACTIVATION_COMBOS {
            return Err(RxError::ActivationSpaceTooLarge {
                needed,
                cap: MAX_ACTIVATION_COMBOS,
            });
        }
        let mut activation_rows: Vec<ActivationRow> = Vec::with_capacity(needed);
        let table = {
            let mut hidden = vec![0.0; net.n_hidden()];
            let mut out = vec![0.0; net.n_outputs()];
            DecisionTable::enumerate(arity.clone(), MAX_ACTIVATION_COMBOS, |combo| {
                hidden.iter_mut().for_each(|h| *h = 0.0);
                let mut centers = Vec::with_capacity(live.len());
                for (k, &m) in live.iter().enumerate() {
                    let c = disc.models[k].center(combo[k]);
                    hidden[m] = c;
                    centers.push(c);
                }
                net.output_from_hidden(&hidden, &mut out);
                let class = nr_nn::argmax(&out);
                activation_rows.push(ActivationRow {
                    combo: combo.to_vec(),
                    centers,
                    outputs: out.clone(),
                    class,
                });
                class
            })
            .expect("cap checked above")
        };

        let mut output_rules: BTreeMap<usize, Vec<TableRule>> = BTreeMap::new();
        for &class in wanted {
            output_rules.insert(class, perfect_rules(&table, class));
        }

        // --- Step 3: per-hidden-node rules for the used cluster values. --
        // Which (live-node-index, cluster) pairs appear in step-2 rules?
        let mut used_clusters: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for rules in output_rules.values() {
            for rule in rules {
                for &(k, d) in &rule.conditions {
                    used_clusters.entry(k).or_default().insert(d);
                }
            }
        }

        let mut hidden_dnf: BTreeMap<usize, ClassDnf> = BTreeMap::new();
        for (&k, clusters) in &used_clusters {
            let used: Vec<usize> = clusters.iter().copied().collect();
            let dnf = self.hidden_node_dnf(live[k], &disc.models[k], &used, trace)?;
            hidden_dnf.insert(k, dnf);
        }

        // --- Step 4: substitution in literal space. ----------------------
        let mut result = ClassDnf::new();
        let mut before_filter = 0usize;
        for (&class, rules) in &output_rules {
            let mut class_terms: BTreeSet<Vec<Literal>> = BTreeSet::new();
            for rule in rules {
                // Cross product of the DNFs of each condition.
                let mut terms: Vec<Vec<Literal>> = vec![Vec::new()];
                for &(k, d) in &rule.conditions {
                    let dnf = hidden_dnf
                        .get(&k)
                        .and_then(|m| m.get(&d))
                        .cloned()
                        .unwrap_or_default();
                    let mut next: Vec<Vec<Literal>> = Vec::new();
                    for base in &terms {
                        for conj in &dnf {
                            if let Some(merged) = merge_literals(base, conj) {
                                next.push(merged);
                            }
                        }
                        if next.len() > MAX_DNF_TERMS {
                            return Err(RxError::DnfTooLarge { cap: MAX_DNF_TERMS });
                        }
                    }
                    terms = next;
                }
                before_filter += terms.len();
                class_terms.extend(terms);
            }
            result.insert(
                class,
                minimize_dnf(self.encoder, class_terms.into_iter().collect()),
            );
        }

        if self.depth == 0 {
            trace.epsilon = disc.epsilon;
            trace.discretized_accuracy = disc.accuracy;
            trace.live_hidden = live;
            trace.cluster_counts = arity;
            trace.cluster_centers = disc.models.iter().map(|m| m.centers.clone()).collect();
            trace.activation_table = activation_rows;
            trace.output_rules = output_rules.into_values().flatten().collect();
            trace.conjunctions_before_filter = before_filter;
        }
        Ok(result)
    }

    /// Derives the literal DNF of each used cluster value of one hidden
    /// node (Figure 4 step 3). The node's input patterns come from feasible
    /// enumeration; when there are too many, a subnetwork (§3.2) articulates
    /// the node instead, and failing that, the patterns observed in the
    /// data form the table.
    fn hidden_node_dnf(
        &self,
        node: usize,
        model: &ClusterModel,
        used: &[usize],
        trace: &mut RxTrace,
    ) -> Result<ClassDnf, RxError> {
        let local_bits = self.net.hidden_inputs(node);
        let mut global_bits: Vec<usize> = local_bits.iter().map(|&l| self.bit_map[l]).collect();
        global_bits.sort_unstable();
        global_bits.dedup();

        // `bits` are ascending global bits; each pattern holds one 0/1 per bit.
        let (bits, patterns): (Vec<usize>, Vec<Vec<usize>>) =
            match enumerate_feasible(self.encoder, &global_bits, MAX_INPUT_PATTERNS) {
                Ok(space) => {
                    let patterns = space
                        .patterns
                        .iter()
                        .map(|p| p.iter().map(|&b| usize::from(b)).collect())
                        .collect();
                    (space.bits, patterns)
                }
                Err(_) => {
                    if self.depth < MAX_DEPTH {
                        // A subnetwork that cannot be articulated either is
                        // not fatal: fall through to the observed patterns.
                        // What it used is recorded only if it is kept.
                        let mut nested = RxTrace::default();
                        if let Ok(dnf) = self.split(node, model, used, &mut nested) {
                            trace.used_subnet.push((self.depth, node));
                            trace.used_subnet.append(&mut nested.used_subnet);
                            trace
                                .observed_fallback
                                .append(&mut nested.observed_fallback);
                            return Ok(dnf);
                        }
                    }
                    trace.observed_fallback.push((self.depth, node));
                    let patterns = self.observed_patterns(&local_bits, &global_bits);
                    (global_bits, patterns)
                }
            };

        // The node's activation on each pattern picks the row's cluster.
        let columns: Vec<usize> = local_bits
            .iter()
            .map(|&l| {
                bits.binary_search(&self.bit_map[l])
                    .expect("bit in pattern")
            })
            .collect();
        let mut table = DecisionTable::new(vec![2; bits.len()]);
        for pattern in patterns {
            let mut z = 0.0;
            for (&l, &col) in local_bits.iter().zip(&columns) {
                z += self.net.w()[(node, l)] * pattern[col] as f64;
            }
            table.push(pattern, model.assign(z.tanh()));
        }
        let mut out = ClassDnf::new();
        for &d in used {
            let rules = perfect_rules(&table, d);
            if self.depth == 0 {
                trace.hidden_rule_counts.push((node, d, rules.len()));
            }
            out.insert(d, rules_to_literals(&rules, &bits));
        }
        Ok(out)
    }

    /// The distinct patterns of `global_bits` (ascending) present in the
    /// data, ascending. Each global bit is read from the first local input
    /// of `local_bits` that maps to it.
    fn observed_patterns(&self, local_bits: &[usize], global_bits: &[usize]) -> Vec<Vec<usize>> {
        let sources: Vec<u32> = global_bits
            .iter()
            .map(|&gb| {
                let l = local_bits
                    .iter()
                    .find(|&&l| self.bit_map[l] == gb)
                    .expect("global bit has a local source");
                *l as u32
            })
            .collect();
        let mut seen: BTreeSet<Vec<usize>> = BTreeSet::new();
        for i in 0..self.data.rows() {
            let row = self.data.row_bits(i);
            seen.insert(
                sources
                    .iter()
                    .map(|l| usize::from(row.binary_search(l).is_ok()))
                    .collect(),
            );
        }
        seen.into_iter().collect()
    }
}

/// Converts table rules (columns = positions in `bits`) into literal
/// conjunctions over global bit indices.
fn rules_to_literals(rules: &[TableRule], bits: &[usize]) -> Vec<Vec<Literal>> {
    rules
        .iter()
        .map(|r| {
            let mut lits: Vec<Literal> = r
                .conditions
                .iter()
                .map(|&(col, v)| Literal::new(bits[col], v == 1))
                .collect();
            lits.sort_unstable();
            lits
        })
        .collect()
}

/// Quine–McCluskey-style DNF minimization in literal space.
///
/// Two conjunctions that differ only in the sign of a single literal are
/// combined by dropping that literal (`x∧y ∨ x∧¬y ≡ x`); conjunctions
/// subsumed by a more general one are removed. This is what turns the four
/// zipcode/commission-split variants of the paper's Rule 4 back into the
/// single `50K ≤ salary < 100K ∧ age < 40`.
pub(crate) fn minimize_dnf(enc: &Encoder, terms: Vec<Vec<Literal>>) -> Vec<Vec<Literal>> {
    let mut terms: BTreeSet<Vec<Literal>> =
        terms.into_iter().map(|t| reduce_term(enc, t)).collect();
    // Combining pass: x∧y ∨ x∧¬y => x, to fixpoint.
    loop {
        let list: Vec<Vec<Literal>> = terms.iter().cloned().collect();
        let mut merged: BTreeSet<Vec<Literal>> = BTreeSet::new();
        let mut consumed = vec![false; list.len()];
        for i in 0..list.len() {
            for j in i + 1..list.len() {
                if let Some(m) = combine_one_sign(&list[i], &list[j]) {
                    merged.insert(m);
                    consumed[i] = true;
                    consumed[j] = true;
                }
            }
        }
        if merged.is_empty() {
            break;
        }
        let mut next: BTreeSet<Vec<Literal>> =
            merged.into_iter().map(|t| reduce_term(enc, t)).collect();
        for (i, t) in list.into_iter().enumerate() {
            if !consumed[i] {
                next.insert(t);
            }
        }
        if next == terms {
            break;
        }
        terms = next;
    }
    // Semantic subsumption: term `t` is redundant when some other term's
    // literals are all implied by `t`'s (the other matches everything `t`
    // matches, and more).
    let list: Vec<Vec<Literal>> = terms.into_iter().collect();
    let mut keep: Vec<Vec<Literal>> = Vec::with_capacity(list.len());
    for (i, t) in list.iter().enumerate() {
        let subsumed = list.iter().enumerate().any(|(j, other)| {
            j != i
                && term_subsumes(enc, other, t)
                // Of two mutually-subsuming (equivalent) terms keep the first.
                && !(term_subsumes(enc, t, other) && j > i)
        });
        if !subsumed {
            keep.push(t.clone());
        }
    }
    keep
}

/// Drops tautological literals and literals implied by another literal of
/// the same term (thermometer monotonicity: `salary≥50K` makes `salary≥25K`
/// redundant).
fn reduce_term(enc: &Encoder, term: Vec<Literal>) -> Vec<Literal> {
    let mut kept: Vec<Literal> = Vec::with_capacity(term.len());
    for (i, &lit) in term.iter().enumerate() {
        if nr_encode::literal_is_tautology(enc, lit) {
            continue;
        }
        let implied = term.iter().enumerate().any(|(j, &other)| {
            j != i
                && other != lit
                && nr_encode::literal_implies(enc, other, lit)
                // Guard against mutual implication loops (distinct literals
                // never mutually imply under this coding, but stay safe).
                && !(nr_encode::literal_implies(enc, lit, other) && j > i)
        });
        if !implied {
            kept.push(lit);
        }
    }
    kept.sort_unstable();
    kept
}

/// `general` subsumes `specific` when every literal of `general` is implied
/// by some literal of `specific` (so `specific ⇒ general`).
fn term_subsumes(enc: &Encoder, general: &[Literal], specific: &[Literal]) -> bool {
    general.iter().all(|&g| {
        nr_encode::literal_is_tautology(enc, g)
            || specific
                .iter()
                .any(|&s| nr_encode::literal_implies(enc, s, g))
    })
}

/// If `a` and `b` have identical literals except one bit appearing with
/// opposite signs, returns the combination with that literal dropped.
fn combine_one_sign(a: &[Literal], b: &[Literal]) -> Option<Vec<Literal>> {
    if a.len() != b.len() {
        return None;
    }
    // Both sorted by (bit, value); walk in lockstep over bits.
    let bits_a: Vec<usize> = a.iter().map(|l| l.bit).collect();
    let bits_b: Vec<usize> = b.iter().map(|l| l.bit).collect();
    if bits_a != bits_b {
        return None;
    }
    let mut flip: Option<usize> = None;
    for (la, lb) in a.iter().zip(b) {
        if la.value != lb.value {
            if flip.is_some() {
                return None; // more than one sign difference
            }
            flip = Some(la.bit);
        }
    }
    let flip = flip?;
    Some(a.iter().copied().filter(|l| l.bit != flip).collect())
}

/// Merges two literal conjunctions; `None` on a direct contradiction.
fn merge_literals(a: &[Literal], b: &[Literal]) -> Option<Vec<Literal>> {
    let mut out: Vec<Literal> = a.to_vec();
    for &lit in b {
        match out.iter().find(|l| l.bit == lit.bit) {
            Some(existing) if existing.value != lit.value => return None,
            Some(_) => {}
            None => out.push(lit),
        }
    }
    out.sort_unstable();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_literals_basics() {
        let a = vec![Literal::new(1, true)];
        let b = vec![Literal::new(2, false)];
        let m = merge_literals(&a, &b).unwrap();
        assert_eq!(m, vec![Literal::new(1, true), Literal::new(2, false)]);
        // Duplicate agreeing literal collapses.
        let m2 = merge_literals(&m, &[Literal::new(1, true)]).unwrap();
        assert_eq!(m2.len(), 2);
        // Contradiction.
        assert_eq!(merge_literals(&m, &[Literal::new(1, false)]), None);
    }

    #[test]
    fn combine_one_sign_basics() {
        let a = vec![Literal::new(1, true), Literal::new(5, false)];
        let b = vec![Literal::new(1, true), Literal::new(5, true)];
        assert_eq!(combine_one_sign(&a, &b), Some(vec![Literal::new(1, true)]));
        // Two sign differences: no combine.
        let c = vec![Literal::new(1, false), Literal::new(5, true)];
        assert_eq!(combine_one_sign(&a, &c), None);
        // Different bit sets: no combine.
        let d = vec![Literal::new(1, true), Literal::new(6, false)];
        assert_eq!(combine_one_sign(&a, &d), None);
        // Different lengths: no combine.
        assert_eq!(combine_one_sign(&a, &[Literal::new(1, true)]), None);
    }

    #[test]
    fn minimize_collapses_complementary_pairs() {
        // The F2 situation: four rules split on I13 and I52 collapse to one.
        let base = vec![Literal::new(2, false), Literal::new(4, true)];
        let mut terms = Vec::new();
        for i13 in [false, true] {
            for i52 in [false, true] {
                let mut t = base.clone();
                t.push(Literal::new(12, i13));
                t.push(Literal::new(51, i52));
                t.sort_unstable();
                terms.push(t);
            }
        }
        let min = minimize_dnf(&Encoder::agrawal(), terms);
        assert_eq!(min, vec![base]);
    }

    #[test]
    fn minimize_removes_subsumed() {
        let general = vec![Literal::new(1, true)];
        let specific = vec![Literal::new(1, true), Literal::new(2, false)];
        let min = minimize_dnf(&Encoder::agrawal(), vec![general.clone(), specific]);
        assert_eq!(min, vec![general]);
    }

    #[test]
    fn minimize_keeps_independent_terms() {
        let a = vec![Literal::new(1, true)];
        let b = vec![Literal::new(2, false)];
        let min = minimize_dnf(&Encoder::agrawal(), vec![a.clone(), b.clone()]);
        assert_eq!(min.len(), 2);
        assert!(min.contains(&a) && min.contains(&b));
    }

    #[test]
    fn bitrule_display() {
        let r = BitRule {
            literals: vec![Literal::new(1, false), Literal::new(12, false)],
            class: 0,
        };
        assert_eq!(r.display(), "I2=0, I13=0 => class 0");
    }
}
