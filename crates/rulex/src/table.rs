//! Discrete decision tables.
//!
//! Both rule-generation steps of RX operate on the same structure: a table
//! whose columns are discrete-valued attributes (cluster ids of hidden
//! nodes in step 2; binary input bits in step 3) and whose rows map a value
//! combination to a class (the predicted output class in step 2; the
//! cluster id of the resulting activation in step 3).

/// One row: a full assignment of the columns plus its class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TableRow {
    /// One value per column, `values[c] < arity[c]`.
    pub values: Vec<usize>,
    /// The class of this combination.
    pub class: usize,
}

/// A decision table over discrete multi-valued columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DecisionTable {
    /// Number of possible values per column.
    pub arity: Vec<usize>,
    /// The rows; combinations are unique by construction in RX usage.
    pub rows: Vec<TableRow>,
}

impl DecisionTable {
    /// Creates an empty table with the given column arities.
    pub fn new(arity: Vec<usize>) -> Self {
        DecisionTable {
            arity,
            rows: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.arity.len()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row (validates arity in debug builds).
    pub fn push(&mut self, values: Vec<usize>, class: usize) {
        debug_assert_eq!(values.len(), self.arity.len());
        debug_assert!(values.iter().zip(&self.arity).all(|(v, a)| v < a));
        self.rows.push(TableRow { values, class });
    }

    /// Enumerates the full cartesian product of column values and fills the
    /// table by calling `classify` on each combination. Returns `None` if
    /// the product exceeds `cap`.
    pub fn enumerate(
        arity: Vec<usize>,
        cap: usize,
        mut classify: impl FnMut(&[usize]) -> usize,
    ) -> Option<Self> {
        let mut size: usize = 1;
        for &a in &arity {
            size = size.checked_mul(a)?;
            if size > cap {
                return None;
            }
        }
        let mut table = DecisionTable::new(arity);
        let n = table.n_cols();
        let mut combo = vec![0usize; n];
        if n == 0 {
            return Some(table);
        }
        loop {
            let class = classify(&combo);
            table.push(combo.clone(), class);
            // Odometer increment.
            let mut c = 0;
            loop {
                combo[c] += 1;
                if combo[c] < table.arity[c] {
                    break;
                }
                combo[c] = 0;
                c += 1;
                if c == n {
                    return Some(table);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerate_covers_product() {
        let t =
            DecisionTable::enumerate(vec![3, 2, 3], 100, |c| c.iter().sum::<usize>() % 2).unwrap();
        assert_eq!(t.n_rows(), 18); // the paper's 3·2·3 example size
        assert_eq!(t.n_cols(), 3);
        // All combos distinct.
        let mut seen: Vec<&Vec<usize>> = t.rows.iter().map(|r| &r.values).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 18);
    }

    #[test]
    fn enumerate_respects_cap() {
        assert!(DecisionTable::enumerate(vec![10, 10, 10], 100, |_| 0).is_none());
        assert!(DecisionTable::enumerate(vec![10, 10], 100, |_| 0).is_some());
    }

    #[test]
    fn enumerate_empty_arity() {
        let t = DecisionTable::enumerate(vec![], 10, |_| 0).unwrap();
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.n_cols(), 0);
    }
}
