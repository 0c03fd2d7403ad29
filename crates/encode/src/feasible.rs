//! Feasibility checking and enumeration of input bit patterns.
//!
//! The thermometer/one-hot coding makes most of the `2^n` assignments of a
//! bit subset impossible: thermometer bits must form a suffix of ones,
//! one-hot groups carry at most one set bit, and the bias is constant. RX
//! step 3 exploits this: to tabulate how a pruned hidden node responds to
//! its (few) connected inputs, it enumerates only the *feasible* patterns —
//! the same reasoning the paper uses to discard rule R′₁.

use std::collections::BTreeMap;

use crate::{BitMeaning, EncodeError, Encoder, Literal};

/// All feasible assignments of a set of input bits.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternSpace {
    /// The bit indices, ascending; every pattern is aligned with this order.
    pub bits: Vec<usize>,
    /// Feasible assignments (each of length `bits.len()`).
    pub patterns: Vec<Vec<bool>>,
}

impl PatternSpace {
    /// Number of feasible patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True when no pattern is feasible (only possible for empty bit sets).
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The literals asserted by pattern `idx`.
    pub fn literals(&self, idx: usize) -> Vec<Literal> {
        self.bits
            .iter()
            .zip(&self.patterns[idx])
            .map(|(&bit, &value)| Literal::new(bit, value))
            .collect()
    }
}

/// Checks whether a conjunction of literals is satisfiable under the coding
/// constraints (delegates to the rewriting pass, which detects every
/// violation while building conditions).
pub fn is_feasible(enc: &Encoder, literals: &[Literal]) -> bool {
    crate::literals_to_conditions(enc, literals).is_some()
}

/// Per-attribute slice of the requested bits.
enum Part {
    /// Thermometer bits in ascending index order (descending threshold),
    /// with a flag for "lowest selected bit is the always-one base".
    Thermo {
        bits: Vec<usize>,
        last_is_base: bool,
    },
    /// One-hot bits plus whether the all-zero pattern is feasible.
    OneHot { bits: Vec<usize>, allow_none: bool },
    /// The bias bit (always one).
    Bias { bit: usize },
}

impl Part {
    fn n_patterns(&self) -> usize {
        match self {
            Part::Thermo { bits, last_is_base } => bits.len() + usize::from(!last_is_base),
            Part::OneHot { bits, allow_none } => bits.len() + usize::from(*allow_none),
            Part::Bias { .. } => 1,
        }
    }

    /// Emits assignment `k` (0-based) for this part as `(bit, value)` pairs.
    fn assignment(&self, k: usize) -> Vec<(usize, bool)> {
        match self {
            Part::Thermo { bits, last_is_base } => {
                // Feasible assignments are suffixes of ones. Enumerate by the
                // number of trailing ones; when the last bit is the base
                // (always-one) bit, zero trailing ones is impossible.
                let ones = if *last_is_base { k + 1 } else { k };
                bits.iter()
                    .enumerate()
                    .map(|(j, &bit)| (bit, j >= bits.len() - ones))
                    .collect()
            }
            Part::OneHot { bits, allow_none } => {
                let hot = if *allow_none {
                    if k == 0 {
                        None
                    } else {
                        Some(k - 1)
                    }
                } else {
                    Some(k)
                };
                bits.iter()
                    .enumerate()
                    .map(|(j, &bit)| (bit, Some(j) == hot))
                    .collect()
            }
            Part::Bias { bit } => vec![(*bit, true)],
        }
    }
}

/// Enumerates every feasible assignment of `bits`, failing when the space
/// would exceed `cap` patterns.
pub fn enumerate_feasible(
    enc: &Encoder,
    bits: &[usize],
    cap: usize,
) -> Result<PatternSpace, EncodeError> {
    let mut sorted: Vec<usize> = bits.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    // Group bits per attribute.
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let mut bias_bits = Vec::new();
    for &b in &sorted {
        match enc.bit_meaning(b) {
            BitMeaning::Bias => bias_bits.push(b),
            m => groups
                .entry(m.attribute().expect("non-bias"))
                .or_default()
                .push(b),
        }
    }

    let mut parts: Vec<Part> = Vec::with_capacity(groups.len() + bias_bits.len());
    for (attr, group_bits) in groups {
        match enc.bit_meaning(group_bits[0]) {
            BitMeaning::Threshold { .. } => {
                let last = *group_bits.last().expect("non-empty group");
                let last_is_base = matches!(
                    enc.bit_meaning(last),
                    BitMeaning::Threshold { threshold, .. } if threshold == f64::NEG_INFINITY
                );
                parts.push(Part::Thermo {
                    bits: group_bits,
                    last_is_base,
                });
            }
            BitMeaning::Category { .. } => {
                let cardinality = enc.codings()[attr].bits();
                let allow_none = group_bits.len() < cardinality;
                parts.push(Part::OneHot {
                    bits: group_bits,
                    allow_none,
                });
            }
            BitMeaning::Bias => unreachable!("bias handled above"),
        }
    }
    for b in bias_bits {
        parts.push(Part::Bias { bit: b });
    }

    // Check the product size before materializing.
    let mut size: usize = 1;
    for p in &parts {
        size = size.saturating_mul(p.n_patterns());
        if size > cap {
            return Err(EncodeError::PatternSpaceTooLarge {
                cap,
                at_least: size,
            });
        }
    }

    // Cartesian product over parts.
    let mut assignments: Vec<Vec<(usize, bool)>> = vec![Vec::new()];
    for part in &parts {
        let mut next = Vec::with_capacity(assignments.len() * part.n_patterns());
        for base in &assignments {
            for k in 0..part.n_patterns() {
                let mut a = base.clone();
                a.extend(part.assignment(k));
                next.push(a);
            }
        }
        assignments = next;
    }

    // Align every assignment with the sorted bit order.
    let index_of: BTreeMap<usize, usize> =
        sorted.iter().enumerate().map(|(i, &b)| (b, i)).collect();
    let patterns: Vec<Vec<bool>> = assignments
        .into_iter()
        .map(|a| {
            let mut row = vec![false; sorted.len()];
            for (bit, value) in a {
                row[index_of[&bit]] = value;
            }
            row
        })
        .collect();

    Ok(PatternSpace {
        bits: sorted,
        patterns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> Encoder {
        Encoder::agrawal()
    }

    #[test]
    fn thermometer_subset_patterns_are_suffixes() {
        let e = enc();
        // Salary bits I2, I4 (indices 1 and 3): thresholds 100K and 50K.
        let ps = enumerate_feasible(&e, &[1, 3], 100).unwrap();
        assert_eq!(ps.bits, vec![1, 3]);
        let mut pats = ps.patterns.clone();
        pats.sort();
        // (0,0): salary<50K; (0,1): 50K<=s<100K; (1,1): s>=100K. (1,0) infeasible.
        assert_eq!(
            pats,
            vec![vec![false, false], vec![false, true], vec![true, true]]
        );
    }

    #[test]
    fn base_bit_restricts_patterns() {
        let e = enc();
        // Salary base bit I6 (index 5) is constant one.
        let ps = enumerate_feasible(&e, &[3, 5], 100).unwrap();
        for p in &ps.patterns {
            assert!(p[1], "base bit must always be 1 in {p:?}");
        }
        assert_eq!(ps.len(), 2); // salary<50K or >=50K
    }

    #[test]
    fn commission_all_zero_is_feasible() {
        let e = enc();
        // Commission bits I13 (index 12, >=10000) and I10 (index 9, >=40000).
        let ps = enumerate_feasible(&e, &[9, 12], 100).unwrap();
        assert_eq!(ps.len(), 3); // zero, [10K,40K), >=40K
        assert!(ps.patterns.contains(&vec![false, false]));
    }

    #[test]
    fn one_hot_patterns() {
        let e = enc();
        // Two zipcode bits (cardinality 9): either one hot or neither.
        let ps = enumerate_feasible(&e, &[43, 44], 100).unwrap();
        let mut pats = ps.patterns.clone();
        pats.sort();
        assert_eq!(
            pats,
            vec![vec![false, false], vec![false, true], vec![true, false]]
        );
    }

    #[test]
    fn one_hot_full_group_has_no_all_zero() {
        let e = enc();
        let bits: Vec<usize> = (43..52).collect(); // all 9 zipcode bits
        let ps = enumerate_feasible(&e, &bits, 100).unwrap();
        assert_eq!(ps.len(), 9);
        for p in &ps.patterns {
            assert_eq!(p.iter().filter(|&&b| b).count(), 1);
        }
    }

    #[test]
    fn cross_attribute_product() {
        let e = enc();
        // 2 salary bits (3 patterns) x 1 age bit (2 patterns) x bias (1).
        let ps = enumerate_feasible(&e, &[1, 3, 16, e.bias_bit()], 100).unwrap();
        assert_eq!(ps.len(), 6);
        for (i, p) in ps.patterns.iter().enumerate() {
            assert!(p[3], "bias always one");
            assert!(is_feasible(&e, &ps.literals(i)));
        }
    }

    #[test]
    fn cap_is_enforced() {
        let e = enc();
        let bits: Vec<usize> = (0..40).collect();
        let err = enumerate_feasible(&e, &bits, 10).unwrap_err();
        assert!(matches!(
            err,
            EncodeError::PatternSpaceTooLarge { cap: 10, .. }
        ));
    }

    #[test]
    fn every_pattern_is_feasible_and_every_encoding_appears() {
        let e = enc();
        let bits = [1usize, 3, 12, 16];
        let ps = enumerate_feasible(&e, &bits, 1000).unwrap();
        for i in 0..ps.len() {
            assert!(is_feasible(&e, &ps.literals(i)), "pattern {i} infeasible");
        }
        // Sample some real tuples (batch-encoded, no row materialization);
        // their restricted encodings must be listed.
        use nr_datagen::{Function, Generator};
        let ds = Generator::new(5).dataset(Function::F2, 200);
        let encoded = e.encode_dataset(&ds);
        for i in 0..encoded.rows() {
            let x = encoded.row_bits(i);
            let restricted: Vec<bool> = ps.bits.iter().map(|&b| x.contains(&(b as u32))).collect();
            assert!(
                ps.patterns.contains(&restricted),
                "observed pattern {restricted:?} missing from enumeration"
            );
        }
    }

    #[test]
    fn duplicate_bits_are_deduped() {
        let e = enc();
        let ps = enumerate_feasible(&e, &[3, 3, 3], 100).unwrap();
        assert_eq!(ps.bits, vec![3]);
        assert_eq!(ps.len(), 2);
    }

    #[test]
    fn empty_bit_set_has_one_empty_pattern() {
        let e = enc();
        let ps = enumerate_feasible(&e, &[], 100).unwrap();
        assert_eq!(ps.len(), 1);
        assert!(ps.patterns[0].is_empty());
    }
}
