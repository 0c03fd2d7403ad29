//! The deployable unit: compiled rules + network behind one dispatch.

use nr_encode::Encoder;
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
    /// The bundle holds a non-finite parameter (a diverged trainer), which
    /// JSON cannot represent losslessly — serialization is refused instead
    /// of emitting an unloadable file.
    NonFinite(String),
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
            ServeError::NonFinite(what) => write!(f, "model not serializable: {what}"),
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
/// `ServeModel` is `Send + Sync` with no interior mutability (asserted at
/// compile time below): wrap one in an `Arc` and score disjoint batches
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
    pub fn new(ruleset: &RuleSet, encoder: Encoder, network: Mlp, mode: ServeMode) -> Self {
        ServeModel {
            rules: CompiledRules::compile(ruleset),
            network: NetworkScorer::new(encoder, network),
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

    /// Checks that every parameter of the bundle is a finite float.
    ///
    /// JSON has no encoding for NaN/±∞ — the vendored serde_json (like
    /// upstream) prints them as `null`, so a diverged trainer's weights
    /// would serialize into a bundle that cannot be parsed back. Serving
    /// admission (the daemon's hot-swap endpoint) and serialization both
    /// gate on this.
    pub fn validate_finite(&self) -> Result<(), ServeError> {
        if let Some(what) = self.rules.first_non_finite() {
            return Err(ServeError::NonFinite(what));
        }
        let net = self.network.network();
        for (name, m) in [
            ("input-hidden weight", net.w()),
            ("hidden-output weight", net.v()),
        ] {
            if let Some(pos) = m.as_slice().iter().position(|x| !x.is_finite()) {
                return Err(ServeError::NonFinite(format!(
                    "{name} {pos} is {}",
                    m.as_slice()[pos]
                )));
            }
        }
        Ok(())
    }

    /// Serializes the whole bundle (rules, encoder, network, mode) to
    /// JSON. Every finite float round-trips bit-exactly; non-finite
    /// parameters are rejected (see [`ServeModel::validate_finite`])
    /// instead of producing JSON that [`ServeModel::from_json`] cannot
    /// load.
    pub fn to_json(&self) -> Result<String, ServeError> {
        self.validate_finite()?;
        serde_json::to_string(self).map_err(|e| ServeError::Json(e.to_string()))
    }

    /// Deserializes a bundle produced by [`ServeModel::to_json`].
    pub fn from_json(json: &str) -> Result<Self, ServeError> {
        serde_json::from_str(json).map_err(|e| ServeError::Json(e.to_string()))
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
