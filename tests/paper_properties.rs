//! Property-based tests over the cross-crate invariants the reproduction
//! relies on (proptest).

use nr_datagen::{Function, Generator, Person};
use nr_encode::{enumerate_feasible, is_feasible, literals_to_rule, Encoder, Literal};
use nr_tabular::Value;
use proptest::prelude::*;

/// Strategy: an arbitrary in-domain `Person`.
fn person_strategy() -> impl Strategy<Value = Person> {
    (
        20_000.0f64..=150_000.0,
        20.0f64..=80.0,
        0u32..=4,
        1u32..=20,
        1u32..=9,
        1.0f64..=30.0,
        0.0f64..=500_000.0,
        proptest::option::of(10_000.0f64..=75_000.0),
        0.0f64..=1.0,
    )
        .prop_map(
            |(salary, age, elevel, car, zipcode, hyears, loan, commission, hv)| {
                let commission = if salary >= 75_000.0 {
                    0.0
                } else {
                    commission.unwrap_or(10_000.0)
                };
                let k = zipcode as f64;
                let hvalue = 0.5 * k * 100_000.0 + hv * k * 100_000.0;
                Person {
                    salary,
                    commission,
                    age,
                    elevel,
                    car,
                    zipcode,
                    hvalue,
                    hyears: hyears.round(),
                    loan,
                }
            },
        )
}

proptest! {
    /// Every encodable tuple produces a bit vector consistent with the
    /// thermometer/one-hot feasibility constraints.
    #[test]
    fn encoded_rows_are_always_feasible(p in person_strategy()) {
        let enc = Encoder::agrawal();
        let x = enc.encode_row(&p.to_row());
        let literals: Vec<Literal> =
            (0..enc.n_inputs()).map(|b| Literal::new(b, x[b] == 1.0)).collect();
        prop_assert!(is_feasible(&enc, &literals));
    }

    /// Thermometer codes always have their set bits as a suffix within each
    /// attribute span (the paper's {000001}, {000011}, … shape).
    #[test]
    fn thermometer_bits_form_suffixes(p in person_strategy()) {
        let enc = Encoder::agrawal();
        let x = enc.encode_row(&p.to_row());
        // salary 0..6, commission 6..13, age 13..19, elevel 19..23,
        // hvalue 52..66, hyears 66..76, loan 76..86.
        for (start, len) in [(0usize, 6usize), (6, 7), (13, 6), (19, 4), (52, 14), (66, 10), (76, 10)] {
            let span = &x[start..start + len];
            let first_one = span.iter().position(|&b| b == 1.0).unwrap_or(len);
            for (j, &b) in span.iter().enumerate() {
                prop_assert_eq!(b == 1.0, j >= first_one, "span at {} broken: {:?}", start, span);
            }
        }
    }

    /// One-hot spans carry exactly one set bit.
    #[test]
    fn one_hot_bits_are_exclusive(p in person_strategy()) {
        let enc = Encoder::agrawal();
        let x = enc.encode_row(&p.to_row());
        let car_ones = x[23..43].iter().filter(|&&b| b == 1.0).count();
        let zip_ones = x[43..52].iter().filter(|&&b| b == 1.0).count();
        prop_assert_eq!(car_ones, 1);
        prop_assert_eq!(zip_ones, 1);
    }

    /// A rule rewritten from a row's own literals must match that row.
    #[test]
    fn rewritten_rules_match_their_source_row(p in person_strategy(), subset in proptest::collection::vec(0usize..87, 1..8)) {
        let enc = Encoder::agrawal();
        let row = p.to_row();
        let x = enc.encode_row(&row);
        let literals: Vec<Literal> =
            subset.iter().map(|&b| Literal::new(b, x[b] == 1.0)).collect();
        let rule = literals_to_rule(&enc, &literals, 0)
            .expect("literals taken from a real row are feasible");
        prop_assert!(rule.matches(&row), "rule {:?} must match its source row", rule);
    }

    /// All ten classification functions are total over the domain.
    #[test]
    fn functions_are_total(p in person_strategy()) {
        for f in Function::all() {
            let _ = f.classify(&p); // must not panic
        }
    }

    /// Generated datasets respect Table 1 ranges for any seed.
    #[test]
    fn generator_ranges_hold_for_any_seed(seed in 0u64..1000) {
        let ds = Generator::new(seed).with_perturbation(0.05).dataset(Function::F6, 50);
        for i in 0..ds.len() {
            let p = Person::from_row(&ds.row_values(i));
            prop_assert!((20_000.0..=150_000.0).contains(&p.salary));
            prop_assert!(p.commission == 0.0 || (10_000.0..=75_000.0).contains(&p.commission));
            prop_assert!((20.0..=80.0).contains(&p.age));
            prop_assert!(p.elevel <= 4);
        }
    }

    /// Pattern enumeration agrees with the one-literal feasibility checker.
    #[test]
    fn enumeration_matches_feasibility(bits in proptest::collection::btree_set(0usize..87, 1..6)) {
        let enc = Encoder::agrawal();
        let bits: Vec<usize> = bits.into_iter().collect();
        let space = enumerate_feasible(&enc, &bits, 1_000_000).expect("small spaces fit");
        for i in 0..space.len() {
            prop_assert!(is_feasible(&enc, &space.literals(i)));
        }
        // And the count matches brute force over 2^n assignments.
        let n = space.bits.len();
        let mut brute = 0usize;
        for mask in 0..(1usize << n) {
            let lits: Vec<Literal> = space
                .bits
                .iter()
                .enumerate()
                .map(|(j, &b)| Literal::new(b, mask & (1 << j) != 0))
                .collect();
            if is_feasible(&enc, &lits) {
                brute += 1;
            }
        }
        prop_assert_eq!(space.len(), brute, "enumeration disagrees with brute force");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The value ranges admitted by `Value::Num` survive dataset round trips.
    #[test]
    fn dataset_roundtrip_via_csv(rows in proptest::collection::vec((0.0f64..100.0, 0u32..3), 1..20)) {
        use nr_tabular::{Attribute, Dataset, Schema};
        let schema = Schema::new(vec![
            Attribute::numeric("x"),
            Attribute::nominal_anon("c", 3),
        ]);
        let mut ds = Dataset::new(schema, vec!["A".into(), "B".into()]);
        for (x, c) in rows {
            ds.push(vec![Value::Num(x), Value::Nominal(c)], (c % 2) as usize).unwrap();
        }
        let mut buf = Vec::new();
        nr_tabular::write_csv(&ds, &mut buf).unwrap();
        let back = nr_tabular::read_csv_streaming(ds.schema().clone(), ds.class_names().to_vec(), &buf[..]).unwrap();
        prop_assert_eq!(ds, back);
    }
}
