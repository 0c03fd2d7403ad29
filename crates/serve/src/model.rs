//! The deployable unit: compiled rules + network behind one dispatch.

use nr_encode::{AttrCoding, Encoder};
use nr_nn::Mlp;
use nr_rules::{Predictor, RuleSet, Scored};
use nr_tabular::{ClassId, DatasetView};
use serde::{Deserialize, Serialize};

use crate::{CompiledRules, NetworkScorer};

/// Which engine a [`ServeModel`] answers with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServeMode {
    /// Compiled rules only; unmatched rows get the default class.
    Rules,
    /// The network only.
    Network,
    /// Compiled rules first; rows no explicit rule matches fall back to
    /// the network instead of the default class.
    Hybrid,
}

/// Errors from [`ServeModel`] persistence
/// ([`save`](ServeModel::save)/[`load`](ServeModel::load),
/// [`to_json`](ServeModel::to_json)/[`from_json`](ServeModel::from_json)).
#[derive(Debug)]
pub enum ServeError {
    /// Reading or writing the model file failed.
    Io(std::io::Error),
    /// The model JSON did not parse.
    Json(String),
    /// The bundle holds a non-finite parameter (a diverged trainer, or a
    /// `1e999` in the JSON), which JSON cannot represent losslessly: it
    /// is refused on load, and on write instead of emitting an
    /// unloadable file.
    NonFinite(String),
    /// The bundle parsed but cannot be scored: its parts disagree (network
    /// weight shapes vs its node counts, network width vs encoder layout,
    /// a coding vs its schema column, output
    /// width vs the rules' class list, a rule on an attribute outside
    /// the schema or of the wrong kind, a rule naming a predicate outside
    /// the predicate table, a class outside the class list).
    Invalid(String),
    /// The bundle file failed integrity verification (checksum footer
    /// mismatch, truncation, or a registry journal that disagrees with
    /// the files on disk).
    Corrupt {
        /// The offending file.
        path: std::path::PathBuf,
        /// What exactly failed, human-readable.
        section: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "model file: {e}"),
            ServeError::Json(e) => write!(f, "model json: {e}"),
            ServeError::NonFinite(what) => write!(f, "non-finite model parameter: {what}"),
            ServeError::Invalid(why) => write!(f, "model not scorable: {why}"),
            ServeError::Corrupt { path, section } => {
                write!(f, "corrupt model bundle {}: {section}", path.display())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Checksummed-file reads go through `nr_store::manifest`; its corruption
/// and I/O errors carry over one-to-one.
impl From<nr_store::StoreError> for ServeError {
    fn from(e: nr_store::StoreError) -> Self {
        match e {
            nr_store::StoreError::Io(e) => ServeError::Io(e),
            nr_store::StoreError::Corrupt { path, section } => {
                ServeError::Corrupt { path, section }
            }
            other @ nr_store::StoreError::Tabular(_) => ServeError::Json(other.to_string()),
        }
    }
}

/// A fitted model compiled for serving: immutable engines (compiled rule
/// table + network scorer), a [`ServeMode`] dispatch, and JSON
/// persistence — everything a scoring process needs, nothing it can
/// mutate.
///
/// `ServeModel` is `Send + Sync` (asserted at compile time below), and
/// its only interior mutability is write-once derived caches (the rule
/// DAG program, the network's interval tables) that are pure functions
/// of the wire fields: wrap one in an `Arc` and score disjoint batches
/// from as many threads as the hardware offers. Results are bit-identical
/// to single-threaded scoring because each call's state lives entirely on
/// the caller's stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeModel {
    rules: CompiledRules,
    network: NetworkScorer,
    mode: ServeMode,
}

// The serving contract: shareable across threads by construction. A
// field with interior mutability (Cell, RefCell, Mutex, raw pointer)
// would fail this assertion at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeModel>();
};

impl ServeModel {
    /// Compiles the parts of a fitted model into a serving bundle.
    ///
    /// # Panics
    ///
    /// When [`NetworkScorer::new`] rejects the encoder and network (an
    /// encoder failing [`Encoder::validate`], or a network whose input
    /// width differs from the encoder's bit layout).
    pub fn new(ruleset: &RuleSet, encoder: Encoder, network: Mlp, mode: ServeMode) -> Self {
        let network = NetworkScorer::new(encoder, network).unwrap_or_else(|e| panic!("{e}"));
        ServeModel {
            rules: CompiledRules::compile(ruleset),
            network,
            mode,
        }
    }

    /// Switches the answering engine (the bundle always carries all of
    /// them, so this is free).
    pub fn with_mode(mut self, mode: ServeMode) -> Self {
        self.mode = mode;
        self
    }

    /// The engine currently answering.
    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// The compiled rule engine.
    pub fn rules(&self) -> &CompiledRules {
        &self.rules
    }

    /// The network engine.
    pub fn network(&self) -> &NetworkScorer {
        &self.network
    }

    /// The rule set in displayable form (lossless reconstruction from the
    /// compiled tables).
    pub fn ruleset(&self) -> RuleSet {
        self.rules.to_ruleset()
    }

    /// The one gate every bundle passes ([`ServeModel::from_json`] on
    /// every load, [`ServeModel::to_json`] on every write): a bundle that
    /// passes round-trips through JSON unchanged and scores every row of
    /// its schema in every mode without a panic and within its class list.
    ///
    /// - [`ServeError::NonFinite`]: a rule bound, absent value or weight
    ///   is NaN or ±∞. JSON prints those as `null`, and an out-of-range
    ///   literal such as `1e999` parses as ±∞.
    /// - [`ServeError::Invalid`]: the parts disagree. The encoder must
    ///   pass [`Encoder::validate`] and the network [`Mlp::validate`];
    ///   the network's input width must match the encoder's bit layout,
    ///   with one output per rule class; every rule predicate and class
    ///   must fit the schema and the class list (category codes below
    ///   the attribute's cardinality).
    pub fn validate(&self) -> Result<(), ServeError> {
        if let Some(what) = self.first_non_finite() {
            return Err(ServeError::NonFinite(what));
        }
        self.network.validate().map_err(ServeError::Invalid)?;
        let n_classes = self.rules.n_classes();
        let n_out = self.network.network().n_outputs();
        if n_out != n_classes {
            return Err(ServeError::Invalid(format!(
                "the network has {n_out} outputs for {n_classes} rule classes"
            )));
        }
        self.rules
            .validate_against(self.network.encoder().schema(), n_classes)
            .map_err(ServeError::Invalid)
    }

    /// The first parameter JSON cannot carry, described; `None` when
    /// every rule bound, absent value and weight is finite. (Thermometer
    /// thresholds may be ±∞: their codec writes them as tagged strings.)
    fn first_non_finite(&self) -> Option<String> {
        if let Some(what) = self.rules.first_non_finite() {
            return Some(what);
        }
        for (a, coding) in self.network.encoder().codings().iter().enumerate() {
            if let AttrCoding::Thermometer {
                absent_value: Some(x),
                ..
            } = coding
            {
                if !x.is_finite() {
                    return Some(format!("attribute {a} absent value is {x}"));
                }
            }
        }
        let net = self.network.network();
        for (name, m) in [
            ("input-hidden weight", net.w()),
            ("hidden-output weight", net.v()),
        ] {
            if let Some(pos) = m.as_slice().iter().position(|x| !x.is_finite()) {
                return Some(format!("{name} {pos} is {}", m.as_slice()[pos]));
            }
        }
        None
    }

    /// Serializes the whole bundle (rules, encoder, network, mode) to
    /// JSON. Every finite float round-trips bit-exactly; a bundle that
    /// fails [`ServeModel::validate`] is rejected instead of producing
    /// JSON that [`ServeModel::from_json`] cannot load.
    pub fn to_json(&self) -> Result<String, ServeError> {
        self.validate()?;
        serde_json::to_string(self).map_err(|e| ServeError::Json(e.to_string()))
    }

    /// Deserializes a bundle produced by [`ServeModel::to_json`] and
    /// checks it with [`ServeModel::validate`]: a bundle that parses but
    /// holds a non-finite parameter is [`ServeError::NonFinite`], one
    /// that could not be scored is [`ServeError::Invalid`]. Every load
    /// path (file, registry boot and walk-back, the daemon's hot swap)
    /// goes through here.
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        let model: ServeModel =
            serde_json::from_str(json).map_err(|e| ServeError::Json(e.to_string()))?;
        model.validate()?;
        Ok(model)
    }

    /// Writes the bundle to a file: JSON with a CRC32 footer line, staged
    /// through a temp file, fsynced, and published by an atomic rename —
    /// a crash at any instant leaves either the old file or the new one,
    /// never a torn mix, and [`ServeModel::load`] verifies the footer.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        let body = nr_store::manifest::write_checksummed_string(&self.to_json()?);
        nr_store::manifest::atomic_replace(path.as_ref(), body.as_bytes(), true)?;
        Ok(())
    }

    /// Loads a bundle written by [`ServeModel::save`], verifying the
    /// checksum footer. A bundle without a valid footer is
    /// [`ServeError::Corrupt`]; a missing file is [`ServeError::Io`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, ServeError> {
        let path = path.as_ref();
        let file = nr_store::manifest::read_checksummed_file(path)?.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("{} does not exist", path.display()),
            )
        })?;
        Self::from_json(file.payload())
    }

    /// The hybrid fallback set: view positions no explicit rule claimed
    /// (ascending) plus the sub-view of their global rows, `None` when the
    /// rules decided every row. Shared by both hybrid prediction paths so
    /// the class and scored answers cannot drift apart.
    fn fallback_rows<'a>(
        &self,
        matched: &crate::bitmap::Bitmap,
        view: &DatasetView<'a>,
    ) -> Option<(Vec<usize>, DatasetView<'a>)> {
        let unmatched = matched.not();
        if unmatched.none_set() {
            return None;
        }
        let mut positions = Vec::with_capacity(unmatched.count_ones());
        unmatched.for_each_set(|pos| positions.push(pos));
        let global: Vec<usize> = positions.iter().map(|&p| view.row_id(p)).collect();
        Some((positions, view.subview(global)))
    }
}

impl Predictor for ServeModel {
    fn n_classes(&self) -> usize {
        self.rules.n_classes()
    }

    fn predict_batch_into(&self, view: &DatasetView<'_>, out: &mut Vec<ClassId>) {
        match self.mode {
            ServeMode::Rules => self.rules.predict_batch_into(view, out),
            ServeMode::Network => self.network.predict_batch_into(view, out),
            ServeMode::Hybrid => {
                let start = out.len();
                let matched = self.rules.match_batch_into(view, out);
                if let Some((positions, sub)) = self.fallback_rows(&matched, view) {
                    // Network fallback for the rows no explicit rule
                    // claimed, scored as one sub-batch.
                    let fallback = self.network.predict_batch(&sub);
                    for (&pos, cls) in positions.iter().zip(fallback) {
                        out[start + pos] = cls;
                    }
                }
            }
        }
    }

    fn predict_scored_batch(&self, view: &DatasetView<'_>) -> Vec<Scored> {
        match self.mode {
            ServeMode::Rules => self.rules.predict_scored_batch(view),
            ServeMode::Network => self.network.predict_scored_batch(view),
            ServeMode::Hybrid => {
                // Rule-claimed rows score 1.0; fallback rows carry the
                // network's winning activation.
                let mut classes = Vec::with_capacity(view.len());
                let matched = self.rules.match_batch_into(view, &mut classes);
                let mut scored: Vec<Scored> = classes
                    .into_iter()
                    .map(|class| Scored { class, score: 1.0 })
                    .collect();
                if let Some((positions, sub)) = self.fallback_rows(&matched, view) {
                    let fallback = self.network.predict_scored_batch(&sub);
                    for (&pos, s) in positions.iter().zip(&fallback) {
                        scored[pos] = *s;
                    }
                }
                scored
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nr_datagen::{Function, Generator};
    use nr_rules::{Condition, Rule};

    /// A rule set that deliberately leaves rows uncovered (salary >= the
    /// threshold falls through), so hybrid fallback has work to do.
    fn partial_ruleset() -> RuleSet {
        RuleSet::new(
            vec![Rule::new(vec![Condition::num_lt(0, 75_000.0)], 0)],
            1,
            vec!["Group A".into(), "Group B".into()],
        )
    }

    fn bundle(mode: ServeMode) -> (ServeModel, nr_tabular::Dataset) {
        let ds = Generator::new(11).dataset(Function::F1, 200);
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 4, 2, 9);
        (ServeModel::new(&partial_ruleset(), encoder, net, mode), ds)
    }

    #[test]
    fn mode_dispatch() {
        let (model, ds) = bundle(ServeMode::Rules);
        let rules_preds = model.predict_batch(&ds.view());
        assert_eq!(rules_preds, model.rules().predict_batch(&ds.view()));
        let net_model = model.clone().with_mode(ServeMode::Network);
        assert_eq!(net_model.mode(), ServeMode::Network);
        assert_eq!(
            net_model.predict_batch(&ds.view()),
            net_model.network().predict_batch(&ds.view())
        );
        assert_eq!(model.n_classes(), 2);
    }

    #[test]
    fn hybrid_falls_back_to_the_network() {
        let (model, ds) = bundle(ServeMode::Hybrid);
        let rs = model.ruleset();
        let hybrid = model.predict_batch(&ds.view());
        let net = model.network().predict_batch(&ds.view());
        let mut fell_back = 0;
        for i in 0..ds.len() {
            match rs.first_match_row(&ds, i) {
                Some(r) => assert_eq!(hybrid[i], rs.rules[r].class, "row {i} rule-claimed"),
                None => {
                    assert_eq!(hybrid[i], net[i], "row {i} network fallback");
                    fell_back += 1;
                }
            }
        }
        assert!(fell_back > 0, "fixture must exercise the fallback path");
        // Scored: rule rows 1.0, fallback rows the network activation.
        let scored = model.predict_scored_batch(&ds.view());
        let net_scored = model.network().predict_scored_batch(&ds.view());
        for i in 0..ds.len() {
            match rs.first_match_row(&ds, i) {
                Some(_) => assert_eq!(scored[i].score, 1.0),
                None => assert_eq!(scored[i], net_scored[i]),
            }
        }
    }

    #[test]
    fn non_finite_weights_are_rejected() {
        use nr_nn::LinkId;
        let (model, _) = bundle(ServeMode::Rules);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut net = model.network().network().clone();
            net.set_weight(
                LinkId::InputHidden {
                    hidden: 0,
                    input: 1,
                },
                bad,
            );
            let broken = ServeModel::new(
                &partial_ruleset(),
                model.network().encoder().clone(),
                net,
                ServeMode::Rules,
            );
            let err = broken.to_json().expect_err("must refuse {bad}");
            assert!(
                matches!(err, ServeError::NonFinite(_)),
                "expected NonFinite, got {err:?}"
            );
            // `save` refuses too, without touching the filesystem.
            assert!(broken
                .save(std::env::temp_dir().join("nr_serve_should_not_exist.json"))
                .is_err());
        }
    }

    #[test]
    fn non_finite_rule_bounds_are_rejected() {
        let (model, _) = bundle(ServeMode::Rules);
        let rs = RuleSet::new(
            vec![Rule::new(vec![Condition::num_lt(0, f64::NAN)], 0)],
            1,
            vec!["Group A".into(), "Group B".into()],
        );
        let broken = ServeModel::new(
            &rs,
            model.network().encoder().clone(),
            model.network().network().clone(),
            ServeMode::Rules,
        );
        assert!(matches!(broken.to_json(), Err(ServeError::NonFinite(_))));
    }

    /// An out-of-range literal parses as ±∞, so a bundle edited by hand
    /// can carry one in a weight, a rule bound or an absent value:
    /// loading refuses it as `to_json` refuses to write it.
    #[test]
    fn non_finite_literals_fail_at_load() {
        let (model, _) = bundle(ServeMode::Hybrid);
        let json = raw_json(&model);
        let (head, net) = json.split_once(r#""w":{"#).expect("weights");
        let w0 = format!("{:?}", model.network().network().w().as_slice()[0]);
        let fields = [
            (r#""hi":75000.0"#, r#""hi":"#),
            (r#""absent_value":0.0"#, r#""absent_value":"#),
        ];
        for literal in ["1e999", "-1e999"] {
            let mut broken = vec![format!(r#"{head}"w":{{{}"#, net.replacen(&w0, literal, 1))];
            for (field, key) in fields {
                assert!(json.contains(field), "{field}");
                broken.push(json.replacen(field, &format!("{key}{literal}"), 1));
            }
            for bad in broken {
                assert_ne!(bad, json);
                match ServeModel::from_json(&bad) {
                    Err(ServeError::NonFinite(_)) => {}
                    other => panic!("{literal}: expected NonFinite, got {other:?}"),
                }
            }
        }
    }

    /// The serialized form of `model`, bypassing `to_json`'s checks (a
    /// bundle written by something else, or edited on disk).
    fn raw_json(model: &ServeModel) -> String {
        serde_json::to_string(model).expect("serializes")
    }

    /// `json` fails to load with an `Invalid` error naming `what`.
    fn assert_invalid(json: &str, what: &str) {
        match ServeModel::from_json(json) {
            Err(ServeError::Invalid(why)) => assert!(why.contains(what), "{what}: {why}"),
            other => panic!("{what}: expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn rules_outside_the_schema_or_class_list_fail_at_load() {
        let (model, _) = bundle(ServeMode::Hybrid);
        let encoder = model.network().encoder().clone();
        let net = model.network().network().clone();
        let names = || vec!["Group A".to_string(), "Group B".to_string()];
        let cases = [
            // A rule on attribute 42 of the 9-attribute schema.
            (
                RuleSet::new(
                    vec![Rule::new(vec![Condition::num_lt(42, 1.0)], 0)],
                    1,
                    names(),
                ),
                "names attribute 42",
            ),
            // A rule claiming class 7 of 2.
            (
                RuleSet::new(
                    vec![Rule::new(vec![Condition::num_lt(0, 5e4)], 7)],
                    1,
                    names(),
                ),
                "rule class 7 of 2",
            ),
            (RuleSet::new(Vec::new(), 2, names()), "rule class 2 of 2"),
            // A category test on numeric salary, then a numeric bound on
            // nominal car.
            (
                RuleSet::new(
                    vec![Rule::new(
                        vec![Condition::CatEq {
                            attribute: 0,
                            code: 1,
                        }],
                        0,
                    )],
                    1,
                    names(),
                ),
                "(salary) as nominal",
            ),
            (
                RuleSet::new(
                    vec![Rule::new(vec![Condition::num_ge(4, 3.0)], 0)],
                    1,
                    names(),
                ),
                "(car) as numeric",
            ),
            // Category codes past the attribute's cardinality: car 20 of
            // car's 20 categories, then zipcode 9 of 9 inside a not-in set.
            (
                RuleSet::new(
                    vec![Rule::new(
                        vec![Condition::CatEq {
                            attribute: 4,
                            code: 20,
                        }],
                        0,
                    )],
                    1,
                    names(),
                ),
                "category code 20 of attribute 4 (car), which has 20 categories",
            ),
            (
                RuleSet::new(
                    vec![Rule::new(
                        vec![Condition::CatNotIn {
                            attribute: 5,
                            codes: [0, 9].into_iter().collect(),
                        }],
                        0,
                    )],
                    1,
                    names(),
                ),
                "category code 9 of attribute 5 (zipcode), which has 9 categories",
            ),
        ];
        for (rules, what) in cases {
            let broken = ServeModel::new(&rules, encoder.clone(), net.clone(), ServeMode::Hybrid);
            assert_invalid(&raw_json(&broken), what);
            assert!(
                matches!(broken.to_json(), Err(ServeError::Invalid(_))),
                "{what}: to_json refuses to write it"
            );
        }
        // A wire rule naming predicate 99 of a one-entry predicate table.
        let rules = RuleSet::new(
            vec![Rule::new(vec![Condition::num_lt(0, 5e4)], 0)],
            1,
            names(),
        );
        let json = raw_json(&ServeModel::new(&rules, encoder, net, ServeMode::Hybrid));
        let dangling = json.replace("\"predicates\":[0]", "\"predicates\":[99]");
        assert_ne!(dangling, json, "the wire format lists predicate ids");
        assert_invalid(&dangling, "predicate 99 of a 1-entry predicate table");
    }

    #[test]
    fn disagreeing_network_and_encoder_fail_at_load() {
        let (model, _) = bundle(ServeMode::Network);
        let json = raw_json(&model);
        let net_json = serde_json::to_string(model.network().network()).unwrap();
        // The network's input width differs from the encoder's layout.
        let narrow = serde_json::to_string(&Mlp::random(10, 4, 2, 9)).unwrap();
        assert_invalid(&json.replacen(&net_json, &narrow, 1), "input width is 10");
        // Three outputs for two rule classes.
        let wide = Mlp::random(model.network().encoder().n_inputs(), 4, 3, 9);
        let wide = serde_json::to_string(&wide).unwrap();
        assert_invalid(
            &json.replacen(&net_json, &wide, 1),
            "3 outputs for 2 rule classes",
        );
        // One-hot cardinality differs from the attribute's category count.
        let car = r#"{"OneHot":{"cardinality":20}}"#;
        assert!(json.contains(car));
        assert_invalid(
            &json.replacen(car, r#"{"OneHot":{"cardinality":19}}"#, 1),
            "one-hot cardinality 19 vs 20 categories",
        );
        // Swapping the salary and car codings keeps the bit count per
        // attribute consistent with neither schema column.
        let salary = json
            .split(r#""codings":["#)
            .nth(1)
            .and_then(|rest| rest.split("}},").next())
            .map(|c| format!("{c}}}}}"))
            .expect("first coding");
        assert!(salary.starts_with(r#"{"Thermometer""#), "{salary}");
        assert_invalid(
            &json.replacen(&salary, r#"{"OneHot":{"cardinality":6}}"#, 1),
            "one-hot coding on a numeric attribute",
        );
        let cuts: Vec<String> = (1..=20).map(|t| format!("{t}.0")).collect();
        let thermometer = format!(
            r#"{{"Thermometer":{{"thresholds":[{}],"absent_value":null}}}}"#,
            cuts.join(",")
        );
        assert_invalid(
            &json.replacen(car, &thermometer, 1),
            "thermometer coding on a nominal attribute",
        );
        // The untouched bundle still loads.
        assert_eq!(ServeModel::from_json(&json).unwrap(), model);
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let (model, ds) = bundle(ServeMode::Hybrid);
        let back = ServeModel::from_json(&model.to_json().expect("serializes")).expect("parses");
        assert_eq!(back, model);
        assert_eq!(
            back.predict_batch(&ds.view()),
            model.predict_batch(&ds.view())
        );
        assert!(ServeModel::from_json("{not json").is_err());
    }
}
