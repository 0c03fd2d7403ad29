//! The seeded tuple generator with perturbation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nr_tabular::{Column, Dataset};

use crate::{agrawal_schema, class_names, Function, Group, Person};

/// Attribute value ranges used by both generation and perturbation clamping.
mod ranges {
    pub const SALARY: (f64, f64) = (20_000.0, 150_000.0);
    pub const COMMISSION: (f64, f64) = (10_000.0, 75_000.0);
    pub const AGE: (f64, f64) = (20.0, 80.0);
    pub const HYEARS: (f64, f64) = (1.0, 30.0);
    pub const LOAN: (f64, f64) = (0.0, 500_000.0);
}

/// Deterministic generator for the Agrawal benchmark.
///
/// Tuples are drawn per Table 1; the class label is assigned by the chosen
/// [`Function`] *before* perturbation, then each continuous attribute is
/// perturbed by `r · p · range` with `r` uniform in [−0.5, 0.5] and clamped
/// back into its range (Agrawal et al.'s perturbation model; the NeuroRule
/// paper uses `p = 0.05`). This makes the learning problem noisy: a tuple
/// near a decision boundary may carry the label of its unperturbed self.
#[derive(Debug, Clone)]
pub struct Generator {
    seed: u64,
    perturbation: f64,
}

impl Generator {
    /// Creates a generator with the given seed and no perturbation.
    pub fn new(seed: u64) -> Self {
        Generator {
            seed,
            perturbation: 0.0,
        }
    }

    /// Sets the perturbation factor (the paper uses 0.05).
    pub fn with_perturbation(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "perturbation factor must be in [0,1)"
        );
        self.perturbation = p;
        self
    }

    /// The seed this generator was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured perturbation factor.
    pub fn perturbation(&self) -> f64 {
        self.perturbation
    }

    /// Draws one unperturbed tuple.
    fn draw(rng: &mut StdRng) -> Person {
        let salary = rng.gen_range(ranges::SALARY.0..=ranges::SALARY.1);
        let commission = if salary >= 75_000.0 {
            0.0
        } else {
            rng.gen_range(ranges::COMMISSION.0..=ranges::COMMISSION.1)
        };
        let age = rng.gen_range(ranges::AGE.0..=ranges::AGE.1);
        let elevel = rng.gen_range(0..=4u32);
        let car = rng.gen_range(1..=20u32);
        let zipcode = rng.gen_range(1..=9u32);
        // hvalue depends on zipcode: k = zipcode index (1..=9).
        let k = zipcode as f64;
        let hvalue = rng.gen_range(0.5 * k * 100_000.0..=1.5 * k * 100_000.0);
        let hyears = rng.gen_range(1..=30u32) as f64;
        let loan = rng.gen_range(ranges::LOAN.0..=ranges::LOAN.1);
        Person {
            salary,
            commission,
            age,
            elevel,
            car,
            zipcode,
            hvalue,
            hyears,
            loan,
        }
    }

    /// Perturbs the continuous attributes of `p` in place.
    fn perturb(&self, p: &mut Person, rng: &mut StdRng) {
        if self.perturbation == 0.0 {
            return;
        }
        let mut jiggle = |v: f64, (lo, hi): (f64, f64)| -> f64 {
            let r: f64 = rng.gen_range(-0.5..=0.5);
            (v + r * self.perturbation * (hi - lo)).clamp(lo, hi)
        };
        p.salary = jiggle(p.salary, ranges::SALARY);
        if p.commission > 0.0 {
            p.commission = jiggle(p.commission, ranges::COMMISSION);
        }
        p.age = jiggle(p.age, ranges::AGE);
        // hvalue's range depends on the zipcode-derived k.
        let k = p.zipcode as f64;
        p.hvalue = jiggle(p.hvalue, (0.5 * k * 100_000.0, 1.5 * k * 100_000.0));
        p.hyears = jiggle(p.hyears, ranges::HYEARS).round().clamp(1.0, 30.0);
        p.loan = jiggle(p.loan, ranges::LOAN);
    }

    /// An endless stream of labeled tuples for `function` — the single
    /// random stream behind [`Generator::tuples`],
    /// [`Generator::dataset`], and the chunked
    /// [`Generator::write_csv_streaming`]: however the consumer batches
    /// its pulls, tuple `i` is always the same tuple.
    ///
    /// Tuple draws and perturbation use *separate* random streams, so the
    /// same seed yields the same underlying tuples (and labels) with any
    /// perturbation factor — only the observed attribute values change.
    fn tuple_stream(&self, function: Function) -> impl Iterator<Item = (Person, Group)> + '_ {
        // Mix the function number into the stream so different functions get
        // independent draws even with the same base seed.
        let base = self.seed ^ (function.number() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(base);
        let mut perturb_rng = StdRng::seed_from_u64(base ^ 0x5051_5253_5455_5657);
        std::iter::repeat_with(move || {
            let mut p = Self::draw(&mut rng);
            let label = function.classify(&p);
            self.perturb(&mut p, &mut perturb_rng);
            (p, label)
        })
    }

    /// Generates `n` labeled tuples for `function`: the first `n` of the
    /// one random stream that [`Generator::dataset`] and
    /// [`Generator::write_csv_streaming`] also draw, so tuple `i` is the
    /// same in all three. The perturbation draws from a stream of its own,
    /// so a seed yields the same tuples and labels at any perturbation
    /// factor; only the observed attribute values change.
    pub fn tuples(&self, function: Function, n: usize) -> Vec<(Person, Group)> {
        self.tuple_stream(function).take(n).collect()
    }

    /// Builds a dataset from already-drawn tuples — the columnar scatter
    /// shared by the one-shot and chunked producers.
    fn collect_dataset(tuples: impl IntoIterator<Item = (Person, Group)>, cap: usize) -> Dataset {
        let mut salary = Vec::with_capacity(cap);
        let mut commission = Vec::with_capacity(cap);
        let mut age = Vec::with_capacity(cap);
        let mut elevel = Vec::with_capacity(cap);
        let mut car = Vec::with_capacity(cap);
        let mut zipcode = Vec::with_capacity(cap);
        let mut hvalue = Vec::with_capacity(cap);
        let mut hyears = Vec::with_capacity(cap);
        let mut loan = Vec::with_capacity(cap);
        let mut labels = Vec::with_capacity(cap);
        for (p, g) in tuples {
            salary.push(p.salary);
            commission.push(p.commission);
            age.push(p.age);
            elevel.push(p.elevel as f64);
            car.push(p.car - 1);
            zipcode.push(p.zipcode - 1);
            hvalue.push(p.hvalue);
            hyears.push(p.hyears);
            loan.push(p.loan);
            labels.push(g.class_id());
        }
        let mut ds = Dataset::new(agrawal_schema(), class_names());
        ds.append_columns(
            vec![
                Column::num(salary),
                Column::num(commission),
                Column::num(age),
                Column::num(elevel),
                Column::nominal(car),
                Column::nominal(zipcode),
                Column::num(hvalue),
                Column::num(hyears),
                Column::num(loan),
            ],
            labels,
        )
        .expect("generated columns match the schema");
        ds
    }

    /// Generates a labeled [`Dataset`] of `n` tuples for `function`.
    ///
    /// The tuples are written straight into typed column buffers and
    /// bulk-appended once ([`Dataset::append_columns`]) — one validation
    /// scan per column instead of per-row, per-value dispatch.
    pub fn dataset(&self, function: Function, n: usize) -> Dataset {
        Self::collect_dataset(self.tuples(function, n), n)
    }

    /// Writes `n` tuples for `function` as CSV with bounded memory:
    /// tuples are drawn from one continuous stream, staged in fixed-size
    /// chunks, and appended with [`nr_tabular::write_csv_rows`] — the
    /// output is **byte-identical** to `write_csv(&g.dataset(f, n))` at
    /// any `n`, while peak memory stays one chunk of columns. This is how
    /// the out-of-core benches materialize multi-gigabyte CSV inputs
    /// without first holding the dataset in RAM.
    pub fn write_csv_streaming<W: std::io::Write>(
        &self,
        function: Function,
        n: usize,
        out: &mut W,
    ) -> std::io::Result<()> {
        /// Rows staged per chunk (bounds the writer's memory).
        const WRITE_CHUNK_ROWS: usize = 8192;
        nr_tabular::write_csv_header(&agrawal_schema(), out)?;
        let mut stream = self.tuple_stream(function);
        let mut remaining = n;
        while remaining > 0 {
            let take = remaining.min(WRITE_CHUNK_ROWS);
            let chunk = Self::collect_dataset(stream.by_ref().take(take), take);
            nr_tabular::write_csv_rows(&chunk, out)?;
            remaining -= take;
        }
        Ok(())
    }

    /// Generates independent train/test datasets (distinct substreams).
    pub fn train_test(
        &self,
        function: Function,
        n_train: usize,
        n_test: usize,
    ) -> (Dataset, Dataset) {
        let train = self.dataset(function, n_train);
        let test = Generator {
            seed: self.seed.wrapping_add(0xDEAD_BEEF),
            ..*self
        }
        .dataset(function, n_test);
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttrId;

    #[test]
    fn bulk_columnar_build_matches_row_pushes() {
        // `dataset()` writes fields straight into column buffers; this pins
        // its field-to-column mapping against `Person::to_row` (same order,
        // same 0-based nominal shifts) so the two can never drift apart.
        let g = Generator::new(7).with_perturbation(0.05);
        let bulk = g.dataset(Function::F3, 40);
        let mut pushed = Dataset::new(agrawal_schema(), class_names());
        for (p, grp) in g.tuples(Function::F3, 40) {
            pushed.push(p.to_row(), grp.class_id()).unwrap();
        }
        assert_eq!(bulk, pushed);
    }

    #[test]
    fn streaming_csv_writer_is_byte_identical_to_one_shot() {
        // Chunked writing must be invisible in the output: same bytes as
        // materializing the whole dataset and writing it once, including
        // at sizes that straddle the internal chunk boundary.
        let g = Generator::new(11).with_perturbation(0.05);
        for n in [0usize, 1, 8191, 8192, 8193, 20_000] {
            let mut one_shot = Vec::new();
            nr_tabular::write_csv(&g.dataset(Function::F5, n), &mut one_shot).unwrap();
            let mut streamed = Vec::new();
            g.write_csv_streaming(Function::F5, n, &mut streamed)
                .unwrap();
            assert_eq!(streamed, one_shot, "n = {n}");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let g = Generator::new(7).with_perturbation(0.05);
        assert_eq!(g.dataset(Function::F2, 50), g.dataset(Function::F2, 50));
    }

    #[test]
    fn different_seeds_differ() {
        let a = Generator::new(1).dataset(Function::F2, 50);
        let b = Generator::new(2).dataset(Function::F2, 50);
        assert_ne!(a, b);
    }

    #[test]
    fn different_functions_get_different_draws() {
        let g = Generator::new(7);
        let a = g.dataset(Function::F1, 20);
        let b = g.dataset(Function::F2, 20);
        assert_ne!(a.row_values(0), b.row_values(0));
    }

    #[test]
    fn values_respect_table1_ranges() {
        let g = Generator::new(3).with_perturbation(0.05);
        for (p, _) in g.tuples(Function::F5, 500) {
            assert!(
                (20_000.0..=150_000.0).contains(&p.salary),
                "salary {}",
                p.salary
            );
            assert!(p.commission == 0.0 || (10_000.0..=75_000.0).contains(&p.commission));
            assert!((20.0..=80.0).contains(&p.age));
            assert!(p.elevel <= 4);
            assert!((1..=20).contains(&p.car));
            assert!((1..=9).contains(&p.zipcode));
            let k = p.zipcode as f64;
            assert!((0.5 * k * 100_000.0..=1.5 * k * 100_000.0).contains(&p.hvalue));
            assert!((1.0..=30.0).contains(&p.hyears));
            assert!((0.0..=500_000.0).contains(&p.loan));
        }
    }

    #[test]
    fn commission_zero_iff_high_salary_without_perturbation() {
        let g = Generator::new(11);
        for (p, _) in g.tuples(Function::F1, 500) {
            if p.salary >= 75_000.0 {
                assert_eq!(p.commission, 0.0);
            } else {
                assert!(p.commission >= 10_000.0);
            }
        }
    }

    #[test]
    fn labels_match_function_without_perturbation() {
        let g = Generator::new(5);
        for (p, g_label) in g.tuples(Function::F2, 300) {
            assert_eq!(Function::F2.classify(&p), g_label);
        }
    }

    #[test]
    fn perturbation_flips_some_labels() {
        // With 5% noise some tuples near the boundary must disagree with
        // their post-perturbation classification.
        let g = Generator::new(5).with_perturbation(0.05);
        let flipped = g
            .tuples(Function::F2, 1000)
            .iter()
            .filter(|(p, label)| Function::F2.classify(p) != *label)
            .count();
        assert!(flipped > 0, "expected some boundary flips");
        assert!(flipped < 200, "noise should stay moderate, got {flipped}");
    }

    #[test]
    fn f8_and_f10_are_skewed_f2_is_not() {
        let g = Generator::new(9);
        assert!(g.dataset(Function::F8, 1000).skew() > 0.85);
        assert!(g.dataset(Function::F10, 1000).skew() > 0.85);
        assert!(g.dataset(Function::F2, 1000).skew() < 0.85);
    }

    #[test]
    fn train_test_are_independent() {
        let g = Generator::new(13).with_perturbation(0.05);
        let (train, test) = g.train_test(Function::F3, 100, 100);
        assert_eq!(train.len(), 100);
        assert_eq!(test.len(), 100);
        assert_ne!(train.row_values(0), test.row_values(0));
    }

    #[test]
    fn salary_roughly_uniform() {
        let g = Generator::new(17);
        let ds = g.dataset(Function::F1, 2000);
        let mid = ds
            .num_column(AttrId::Salary.index())
            .iter()
            .filter(|&&s| s < 85_000.0)
            .count();
        // 85K is the midpoint of [20K,150K]; expect about half below.
        assert!((800..1200).contains(&mid), "got {mid}");
    }
}
