//! The seeded differential oracle and the bundle mutation corpus: the
//! evidence that `ServeModel::validate` is the one gate a model bundle
//! needs before it serves.
//!
//! * **Oracle.** For each seed of [`SEEDS`], a random mixed schema, a
//!   dataset over it, a rule set and a (partly pruned) network are
//!   compiled into a `ServeModel`. Every layer the model passes on its
//!   way to a client must answer exactly like the interpreted
//!   references: `RuleSet::predict_row` in Rules mode, the per-row
//!   `Encoder::encode_row` + `Mlp::forward` + argmax in Network mode,
//!   and their first-match composition in Hybrid mode. The layers are
//!   the compiled model, its JSON round trip, a `ModelRegistry` commit +
//!   reopen + `latest_good`, and a daemon booted from that registry,
//!   over a socket, through `/predict` (class and score bits) and
//!   `/predict/bulk`, with `handler_panics` 0 at the end.
//! * **Mutation corpus.** Single-field perturbations of each seed's
//!   bundle JSON: a class past the class list, a predicate id past the
//!   table, a category code at or past the cardinality, `±1e999` in a
//!   rule bound, threshold, absent value or weight, mismatched widths,
//!   an empty class list and unsorted thresholds. Each must either fail
//!   `ServeModel::from_json` with a typed error, or load, score a
//!   schema-spanning batch in all three modes without a panic and with
//!   every class in range, and round-trip through `to_json`. The batch
//!   holds every rule bound and threshold, ±0 and every category; in
//!   release builds also NaN and ±∞, which a dataset carries only
//!   through unvalidated shared columns (debug builds assert against
//!   them).

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use nr_daemon::{Client, Daemon, DaemonConfig, StatsResponse};
use nr_encode::{AttrCoding, Encoder};
use nr_nn::Mlp;
use nr_rules::{Condition, Predictor, Rule, RuleSet};
use nr_serve::{
    BulkResponse, ModelRegistry, PredictResponse, ServeError, ServeMode, ServeModel, SwapResponse,
};
use nr_tabular::{AttrKind, Attribute, Column, Dataset, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::content::Content;

/// The fixed seed list both suites run on.
const SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

const MODES: [ServeMode; 3] = [ServeMode::Rules, ServeMode::Network, ServeMode::Hybrid];

/// Rows per mode sent one request at a time to `/predict` (the whole
/// dataset goes through `/predict/bulk`).
const PREDICT_ROWS: usize = 48;

/// One seeded case: a dataset over a random schema, the encoder fitted
/// to it, a rule set over it and a network behind that encoder.
struct Case {
    ds: Dataset,
    encoder: Encoder,
    rules: RuleSet,
    net: Mlp,
}

impl Case {
    fn model(&self, mode: ServeMode) -> ServeModel {
        ServeModel::new(&self.rules, self.encoder.clone(), self.net.clone(), mode)
    }
}

/// A random mixed schema (numeric and nominal attributes, 2–4 classes)
/// with numeric values mostly on a grid, so rule bounds drawn from the
/// data and the fitted thresholds are hit exactly; a random rule set of
/// every condition shape; a random network, pruned half the time.
fn random_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let arity = rng.gen_range(1..=6usize);
    let attrs: Vec<Attribute> = (0..arity)
        .map(|a| {
            if rng.gen_bool(0.6) {
                Attribute::numeric(format!("x{a}"))
            } else {
                let k = rng.gen_range(1..=6usize);
                Attribute::nominal(format!("c{a}"), (0..k).map(|j| format!("c{a}v{j}")))
            }
        })
        .collect();
    let schema = Schema::new(attrs);
    let classes: Vec<String> = (0..rng.gen_range(2..=4usize))
        .map(|c| format!("k{c}"))
        .collect();
    let step = [0.5, 1.0, 250.0][rng.gen_range(0..3usize)];
    let top = rng.gen_range(4..=24i64);
    let mut ds = Dataset::new(schema.clone(), classes.clone());
    for _ in 0..rng.gen_range(40..=160usize) {
        let row = (0..arity)
            .map(|a| match schema.attribute(a).cardinality() {
                Some(card) => Value::Nominal(rng.gen_range(0..card as u32)),
                None if rng.gen_bool(0.7) => Value::Num(step * rng.gen_range(-1..=top + 1) as f64),
                None => Value::Num(step * rng.gen_range(-2.0..(top + 2) as f64)),
            })
            .collect();
        ds.push(row, rng.gen_range(0..classes.len())).unwrap();
    }
    let encoder = Encoder::fit(&ds, rng.gen_range(2..=6usize)).expect("encoder fits");
    let rules = random_rules(&mut rng, &ds);
    let mut net = Mlp::random(
        encoder.n_inputs(),
        rng.gen_range(1..=5usize),
        classes.len(),
        rng.next_u64(),
    );
    if rng.gen_bool(0.5) {
        let share = rng.gen_range(0.1..0.9);
        for link in net.active_links() {
            if rng.gen_bool(share) {
                net.prune(link);
            }
        }
    }
    Case {
        ds,
        encoder,
        rules,
        net,
    }
}

/// Up to eight rules of up to three conditions: intervals with one or
/// two bounds and numeric equality at data values, category equality
/// and exclusion.
fn random_rules(rng: &mut StdRng, ds: &Dataset) -> RuleSet {
    let schema = ds.schema();
    let n_classes = ds.class_names().len();
    let condition = |rng: &mut StdRng| {
        let a = rng.gen_range(0..schema.arity());
        let at = |rng: &mut StdRng| ds.num_column(a)[rng.gen_range(0..ds.len())];
        match schema.attribute(a).cardinality() {
            Some(card) if rng.gen_bool(0.5) => Condition::CatEq {
                attribute: a,
                code: rng.gen_range(0..card as u32),
            },
            Some(card) => Condition::CatNotIn {
                attribute: a,
                codes: (0..rng.gen_range(0..=2usize))
                    .map(|_| rng.gen_range(0..card as u32))
                    .collect(),
            },
            None => match rng.gen_range(0..4) {
                0 => Condition::num_ge(a, at(rng)),
                1 => Condition::num_lt(a, at(rng)),
                2 => {
                    let (x, y) = (at(rng), at(rng));
                    Condition::num_range(a, x.min(y), x.max(y))
                }
                _ => Condition::NumEq {
                    attribute: a,
                    value: at(rng),
                },
            },
        }
    };
    let rules = (0..rng.gen_range(0..=8usize))
        .map(|_| {
            let conditions = (0..rng.gen_range(0..=3usize))
                .map(|_| condition(rng))
                .collect();
            Rule::new(conditions, rng.gen_range(0..n_classes))
        })
        .collect();
    RuleSet::new(
        rules,
        rng.gen_range(0..n_classes),
        ds.class_names().to_vec(),
    )
}

/// The per-row reference answers `(class, score)` for `mode`: the
/// interpreted rule set (score 1 on an explicit match, 0 on the
/// default), the dense network (score the winning activation), or the
/// rule set's first match with the network behind it.
fn reference(case: &Case, mode: ServeMode) -> Vec<(usize, f64)> {
    let ds = &case.ds;
    (0..ds.len())
        .map(|i| {
            let first = case.rules.first_match_row(ds, i);
            let network = || {
                let x = case.encoder.encode_row(&ds.row_values(i));
                let (_, out) = case.net.forward(&x);
                let class = nr_nn::argmax(&out);
                (class, out[class])
            };
            match (mode, first) {
                (ServeMode::Rules, _) => {
                    let score = if first.is_some() { 1.0 } else { 0.0 };
                    (case.rules.predict_row(ds, i), score)
                }
                (ServeMode::Hybrid, Some(r)) => (case.rules.rules[r].class, 1.0),
                (ServeMode::Network | ServeMode::Hybrid, _) => network(),
            }
        })
        .collect()
}

/// `model` answers `want` on every row of `ds`, classes and score bits.
fn assert_answers(layer: &str, model: &ServeModel, ds: &Dataset, want: &[(usize, f64)]) {
    let view = ds.view();
    let classes: Vec<usize> = want.iter().map(|&(class, _)| class).collect();
    assert_eq!(model.predict_batch(&view), classes, "{layer}: classes");
    let scored = model.predict_scored_batch(&view);
    assert_eq!(scored.len(), want.len(), "{layer}");
    for (i, (got, &(class, score))) in scored.iter().zip(want).enumerate() {
        assert_eq!(
            (got.class, got.score.to_bits()),
            (class, score.to_bits()),
            "{layer}: row {i}"
        );
    }
}

/// Dataset row `i` as a serving CSV line: schema order, nominal values
/// as category names, no class column.
fn row_csv(ds: &Dataset, i: usize) -> String {
    let cells: Vec<String> = ds
        .schema()
        .attributes()
        .iter()
        .enumerate()
        .map(|(a, attr)| match (&attr.kind, ds.value(i, a)) {
            (AttrKind::Nominal { categories }, Value::Nominal(code)) => {
                categories[code as usize].clone()
            }
            (_, v) => v.to_string(),
        })
        .collect();
    cells.join(",")
}

/// The daemon answers `want` for `rows` at deployment `version`: the
/// first [`PREDICT_ROWS`] one request at a time, all of them in one
/// bulk request.
fn assert_daemon_answers(
    layer: &str,
    client: &mut Client,
    rows: &[String],
    want: &[(usize, f64)],
    version: u64,
) {
    for (i, row) in rows.iter().enumerate().take(PREDICT_ROWS) {
        let (status, body) = client.request("POST", "/predict", row).unwrap();
        assert_eq!(status, 200, "{layer}: row {i}: {body}");
        let p: PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(
            (p.class, p.score.to_bits(), p.version),
            (want[i].0, want[i].1.to_bits(), version),
            "{layer}: /predict row {i}"
        );
    }
    let (status, body) = client
        .request("POST", "/predict/bulk", &rows.join("\n"))
        .unwrap();
    assert_eq!(status, 200, "{layer}: {body}");
    let bulk: BulkResponse = serde_json::from_str(&body).unwrap();
    let classes: Vec<usize> = want.iter().map(|&(class, _)| class).collect();
    assert_eq!(
        (bulk.version, bulk.classes),
        (version, classes),
        "{layer}: /predict/bulk"
    );
}

fn scratch_dir(seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nr-oracle-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Compiled, JSON round trip, registry commit + reopen + `latest_good`,
/// and the daemon's `/predict` and `/predict/bulk`, in every mode, all
/// equal the interpreted references.
#[test]
fn every_layer_answers_like_the_interpreted_references() {
    for seed in SEEDS {
        let case = random_case(seed);
        let root = scratch_dir(seed);
        let registry_dir = root.join("default");
        let wants = MODES.map(|mode| reference(&case, mode));
        for (mode, want) in MODES.into_iter().zip(&wants) {
            let layer = |name: &str| format!("seed {seed} {mode:?} {name}");
            let model = case.model(mode);
            assert_answers(&layer("compiled"), &model, &case.ds, want);

            let back = ServeModel::from_json(&model.to_json().unwrap()).unwrap();
            assert_eq!(back, model, "{}", layer("json"));
            assert_answers(&layer("json"), &back, &case.ds, want);

            let committed = ModelRegistry::open(&registry_dir, 4)
                .unwrap()
                .commit(&back)
                .unwrap();
            let (version, booted) = ModelRegistry::open(&registry_dir, 4)
                .unwrap()
                .latest_good()
                .unwrap()
                .expect("the committed version loads");
            assert_eq!(version, committed, "{}", layer("registry"));
            assert_answers(&layer("registry"), &booted, &case.ds, want);
        }

        // The daemon boots the registry's latest version (the Hybrid
        // commit), then takes each mode through `PUT /model`.
        let config = DaemonConfig {
            registry: Some(root.clone()),
            ..DaemonConfig::default()
        };
        let fallback = case.model(ServeMode::Rules);
        let daemon = Daemon::start(config, vec![("default".into(), fallback)]).unwrap();
        let mut client = Client::connect(daemon.addr()).unwrap();
        let rows: Vec<String> = (0..case.ds.len()).map(|i| row_csv(&case.ds, i)).collect();
        let layer = format!("seed {seed} daemon boot (Hybrid)");
        assert_daemon_answers(&layer, &mut client, &rows, &wants[2], 1);
        for (k, (mode, want)) in MODES.into_iter().zip(&wants).enumerate() {
            let layer = format!("seed {seed} daemon {mode:?}");
            let (status, body) = client
                .request("PUT", "/model", &case.model(mode).to_json().unwrap())
                .unwrap();
            assert_eq!(status, 200, "{layer}: swap: {body}");
            let version = serde_json::from_str::<SwapResponse>(&body).unwrap().version;
            assert_eq!(version, k as u64 + 2, "{layer}");
            assert_daemon_answers(&layer, &mut client, &rows, want, version);
        }
        let (status, body) = client.request("GET", "/stats", "").unwrap();
        assert_eq!(status, 200);
        let stats: StatsResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(stats.daemon.handler_panics, 0, "seed {seed}");
        drop(client);
        let drain = daemon.shutdown();
        assert!(drain.clean, "seed {seed}: {drain:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// The node of `tree` at `path`: `/`-separated map keys and sequence
/// indices.
fn at<'a>(tree: &'a mut Content, path: &str) -> &'a mut Content {
    path.split('/')
        .try_fold(tree, |node, step| match node {
            Content::Map(entries) => entries
                .iter_mut()
                .find(|(key, _)| key == step)
                .map(|(_, v)| v),
            Content::Seq(items) => step.parse::<usize>().ok().and_then(|i| items.get_mut(i)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("bundle JSON has no {path}"))
}

fn items(node: &mut Content) -> &mut Vec<Content> {
    match node {
        Content::Seq(items) => items,
        other => panic!("expected a sequence, found a {}", other.kind()),
    }
}

/// Adds `delta` to an integer node.
fn bump(node: &mut Content, delta: i64) {
    match node {
        Content::U64(v) => *node = Content::U64(v.wrapping_add_signed(delta)),
        other => panic!("expected an integer, found a {}", other.kind()),
    }
}

/// Prints `tree` as JSON, writing ±∞ as the out-of-range literals
/// `±1e999` (which parse back as ±∞), where serde_json writes `null`.
fn print(tree: &Content, out: &mut String) {
    match tree {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => write!(out, "{b}").unwrap(),
        Content::U64(v) => write!(out, "{v}").unwrap(),
        Content::I64(v) => write!(out, "{v}").unwrap(),
        Content::F64(v) if v.is_infinite() => {
            out.push_str(if *v > 0.0 { "1e999" } else { "-1e999" })
        }
        Content::F64(v) => write!(out, "{v:?}").unwrap(),
        Content::Str(s) => out.push_str(&serde_json::to_string(s).unwrap()),
        Content::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                print(item, out);
            }
            out.push(']');
        }
        Content::Map(entries) => {
            out.push('{');
            for (i, (key, value)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&serde_json::to_string(key).unwrap());
                out.push(':');
                print(value, out);
            }
            out.push('}');
        }
    }
}

// The corpus's perturbation kinds; each occurs over the seed list.
const CLASS: &str = "class past the list";
const PREDICATE: &str = "predicate past the table";
const CATEGORY: &str = "category code past the cardinality";
const INFINITE: &str = "±1e999";
const WIDTH: &str = "mismatched widths";
const NO_CLASSES: &str = "empty class list";
const UNSORTED: &str = "unsorted thresholds";
const KINDS: [&str; 7] = [
    CLASS, PREDICATE, CATEGORY, INFINITE, WIDTH, NO_CLASSES, UNSORTED,
];

/// One perturbed bundle: its kind (one of [`KINDS`]), the field
/// changed, and the JSON tree.
struct Mutant {
    kind: &'static str,
    field: String,
    tree: Content,
}

/// Every single-field perturbation of `model`'s bundle.
fn mutants(model: &ServeModel) -> Vec<Mutant> {
    let base = serde_json::from_str_content(&model.to_json().unwrap()).unwrap();
    let mut out = Vec::new();
    let mut edit = |kind: &'static str, field: String, change: &dyn Fn(&mut Content)| {
        let mut tree = base.clone();
        change(at(&mut tree, &field));
        out.push(Mutant { kind, field, tree });
    };
    let infinite = |x: f64| move |c: &mut Content| *c = Content::F64(x);
    let infinities = [f64::INFINITY, f64::NEG_INFINITY];
    let grow = |c: &mut Content| bump(c, 1);
    let shrink = |c: &mut Content| bump(c, -1);
    let pop = |c: &mut Content| {
        items(c).pop();
    };
    let schema = model.network().encoder().schema();
    let ruleset = model.ruleset();
    let n_classes = ruleset.class_names.len() as u64;
    let n_predicates = model.rules().n_predicates() as u64;

    // Rule tables: classes, predicate ids, the class list.
    for (r, rule) in ruleset.rules.iter().enumerate() {
        for class in [n_classes, u64::MAX] {
            edit(CLASS, format!("rules/rules/{r}/class"), &|c| {
                *c = Content::U64(class)
            });
        }
        if !rule.conditions.is_empty() {
            edit(PREDICATE, format!("rules/rules/{r}/predicates/0"), &|c| {
                *c = Content::U64(n_predicates)
            });
        }
    }
    edit(CLASS, "rules/default_class".into(), &|c| {
        *c = Content::U64(n_classes)
    });
    edit(NO_CLASSES, "rules/class_names".into(), &|c| {
        items(c).clear()
    });
    edit(WIDTH, "rules/class_names".into(), &|c| {
        items(c).push(Content::Str("extra".into()))
    });

    // The predicate table: bounds and category codes.
    let Some(Content::Seq(predicates)) = base.get("rules").and_then(|r| r.get("predicates")) else {
        panic!("bundle JSON has no predicate table");
    };
    for (p, predicate) in predicates.iter().enumerate() {
        let Content::Map(tagged) = predicate else {
            panic!("predicate {p} is not a tagged map");
        };
        let (tag, fields) = &tagged[0];
        let field = |name: &str| format!("rules/predicates/{p}/{tag}/{name}");
        match tag.as_str() {
            "Num" | "NumEq" => {
                for name in ["lo", "hi", "value"] {
                    if matches!(fields.get(name), Some(Content::F64(_) | Content::U64(_))) {
                        for x in infinities {
                            edit(INFINITE, field(name), &infinite(x));
                        }
                    }
                }
            }
            "CatEq" | "CatNotIn" => {
                let Some(&Content::U64(a)) = fields.get("attribute") else {
                    panic!("predicate {p} names no attribute");
                };
                let card = schema.attribute(a as usize).cardinality().unwrap() as u64;
                if tag == "CatEq" {
                    for code in [card, u64::from(u32::MAX)] {
                        edit(CATEGORY, field("code"), &|c| *c = Content::U64(code));
                    }
                } else {
                    edit(CATEGORY, field("codes"), &|c| {
                        items(c).push(Content::U64(card))
                    });
                }
            }
            other => panic!("unknown predicate kind {other}"),
        }
    }

    // The encoder: schema, codings, bit layout.
    for (a, attr) in schema.attributes().iter().enumerate() {
        if attr.cardinality().is_some() {
            let categories =
                format!("network/encoder/schema/attributes/{a}/kind/Nominal/categories");
            edit(WIDTH, categories.clone(), &pop);
            edit(WIDTH, categories, &|c| {
                items(c).push(Content::Str("extra".into()))
            });
        }
    }
    edit(WIDTH, "network/encoder/schema/attributes".into(), &pop);
    edit(WIDTH, "network/encoder/codings".into(), &pop);
    for (a, coding) in model.network().encoder().codings().iter().enumerate() {
        let coding_field = |name: &str| match coding {
            AttrCoding::Thermometer { .. } => {
                format!("network/encoder/codings/{a}/Thermometer/{name}")
            }
            AttrCoding::OneHot { .. } => format!("network/encoder/codings/{a}/OneHot/{name}"),
        };
        match coding {
            AttrCoding::Thermometer {
                thresholds,
                absent_value,
            } => {
                let ends = [0, thresholds.len().saturating_sub(1)];
                for k in ends.into_iter().filter(|&k| k < thresholds.len()) {
                    for x in infinities {
                        edit(
                            INFINITE,
                            coding_field(&format!("thresholds/{k}")),
                            &infinite(x),
                        );
                    }
                }
                if absent_value.is_some() {
                    for x in infinities {
                        edit(INFINITE, coding_field("absent_value"), &infinite(x));
                    }
                }
                if thresholds.first() != thresholds.last() {
                    edit(UNSORTED, coding_field("thresholds"), &|c| {
                        items(c).reverse()
                    });
                }
                edit(WIDTH, coding_field("thresholds"), &pop);
                edit(WIDTH, coding_field("thresholds"), &|c| {
                    items(c).push(Content::F64(1e300))
                });
            }
            AttrCoding::OneHot { .. } => {
                edit(WIDTH, coding_field("cardinality"), &grow);
                edit(WIDTH, coding_field("cardinality"), &shrink);
            }
        }
    }
    let last_offset = format!("network/encoder/offsets/{}", schema.arity() - 1);
    edit(WIDTH, last_offset, &grow);
    edit(WIDTH, "network/encoder/offsets".into(), &pop);
    edit(WIDTH, "network/encoder/n_data_bits".into(), &grow);
    edit(WIDTH, "network/encoder/n_data_bits".into(), &shrink);

    // The network: shape, weights, masks.
    for dim in ["n_in", "n_hidden", "n_out"] {
        edit(WIDTH, format!("network/network/{dim}"), &grow);
        edit(WIDTH, format!("network/network/{dim}"), &shrink);
    }
    let net = model.network().network();
    for (m, len) in [
        ("w", net.w().as_slice().len()),
        ("v", net.v().as_slice().len()),
    ] {
        let matrix = |name: &str| format!("network/network/{m}/{name}");
        edit(WIDTH, matrix("rows"), &grow);
        edit(WIDTH, matrix("cols"), &grow);
        edit(WIDTH, matrix("data"), &pop);
        edit(WIDTH, matrix("data"), &|c| items(c).push(Content::F64(0.5)));
        edit(WIDTH, format!("network/network/{m}_mask"), &pop);
        for k in [0, len - 1] {
            for x in infinities {
                edit(INFINITE, matrix(&format!("data/{k}")), &infinite(x));
            }
        }
    }
    out
}

/// Loads a perturbed bundle; when it loads, scores [`spanning_batch`]
/// in every mode and writes it back. `Ok(false)`: refused with a typed
/// error; `Ok(true)`: scored in range and round-tripped; `Err`: what
/// went wrong.
fn check(json: &str) -> Result<bool, String> {
    let loaded = catch_unwind(|| ServeModel::from_json(json)).map_err(|_| "from_json panicked")?;
    let model = match loaded {
        Ok(model) => model,
        Err(ServeError::Json(_) | ServeError::Invalid(_) | ServeError::NonFinite(_)) => {
            return Ok(false)
        }
        Err(other) => return Err(format!("refused with {other:?}")),
    };
    let batch = catch_unwind(AssertUnwindSafe(|| spanning_batch(&model)))
        .map_err(|_| "the loaded schema cannot hold a batch")?;
    let view = batch.view();
    for mode in MODES {
        let model = model.clone().with_mode(mode);
        let (classes, scored) = catch_unwind(AssertUnwindSafe(|| {
            (
                model.predict_batch(&view),
                model.predict_scored_batch(&view),
            )
        }))
        .map_err(|_| format!("{mode:?} scoring panicked"))?;
        if classes.len() != batch.len() || scored.len() != batch.len() {
            return Err(format!("{mode:?} answered the wrong number of rows"));
        }
        let n_classes = model.n_classes();
        let answers = classes.iter().chain(scored.iter().map(|s| &s.class));
        if let Some(class) = answers.copied().find(|&c| c >= n_classes) {
            return Err(format!("{mode:?} answered class {class} of {n_classes}"));
        }
    }
    let back = model
        .to_json()
        .and_then(|json| ServeModel::from_json(&json))
        .map_err(|e| format!("loaded but does not round-trip: {e}"))?;
    if back != model {
        return Err("the JSON round trip changed the bundle".into());
    }
    Ok(true)
}

/// Every perturbed bundle is either refused by `from_json` with a typed
/// error or safe to serve: the canary's property, checked here once for
/// the corpus instead of on every swap.
#[test]
fn every_single_field_perturbation_is_refused_or_scores_in_range() {
    let mut seen = [0usize; KINDS.len()];
    let (mut refused, mut served) = (0, 0);
    let mut faults = Vec::new();
    for seed in SEEDS {
        let model = random_case(seed).model(ServeMode::Hybrid);
        assert_eq!(check(&model.to_json().unwrap()), Ok(true), "seed {seed}");
        for mutant in mutants(&model) {
            seen[KINDS.iter().position(|&k| k == mutant.kind).unwrap()] += 1;
            let mut json = String::new();
            print(&mutant.tree, &mut json);
            match check(&json) {
                Ok(true) => served += 1,
                Ok(false) => refused += 1,
                Err(fault) => faults.push(format!(
                    "seed {seed}, {} at {}: {fault}",
                    mutant.kind, mutant.field
                )),
            }
        }
    }
    assert!(
        faults.is_empty(),
        "{} of {} perturbed bundles are unsafe:\n{}",
        faults.len(),
        faults.len() + refused + served,
        faults.join("\n")
    );
    for (kind, n) in KINDS.iter().zip(seen) {
        assert!(n > 0, "no {kind} perturbation over the seed list");
    }
    assert!(
        refused > 0 && served > 0,
        "{refused} refused, {served} served"
    );
}

/// A batch over `model`'s schema holding, per numeric attribute, ±0, ±1,
/// every finite threshold of its coding and every rule bound on it (and
/// NaN and ±∞ in release builds), and per nominal attribute every
/// category. Empty when a nominal attribute has no categories.
fn spanning_batch(model: &ServeModel) -> Dataset {
    let encoder = model.network().encoder();
    let schema = encoder.schema();
    let rules = model.ruleset();
    let hostile: &[f64] = if cfg!(debug_assertions) {
        &[]
    } else {
        &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
    };
    let values: Vec<Vec<Value>> = (0..schema.arity())
        .map(|a| match schema.attribute(a).cardinality() {
            Some(card) => (0..card as u32).map(Value::Nominal).collect(),
            None => {
                let mut xs = vec![0.0, -0.0, 1.0, -1.0];
                if let Some(AttrCoding::Thermometer { thresholds, .. }) = encoder.codings().get(a) {
                    xs.extend(thresholds.iter().filter(|t| t.is_finite()));
                }
                for condition in rules.rules.iter().flat_map(|r| &r.conditions) {
                    match *condition {
                        Condition::Num {
                            attribute, lo, hi, ..
                        } if attribute == a => xs.extend(lo.into_iter().chain(hi)),
                        Condition::NumEq { attribute, value } if attribute == a => xs.push(value),
                        _ => {}
                    }
                }
                xs.extend(hostile);
                xs.into_iter().map(Value::Num).collect()
            }
        })
        .collect();
    let rows = if values.iter().any(Vec::is_empty) {
        0
    } else {
        values.iter().map(Vec::len).max().unwrap_or(0)
    };
    let columns = values
        .iter()
        .enumerate()
        .map(|(a, xs)| {
            let cells = (0..rows).map(|r| xs[r % xs.len()]);
            match schema.attribute(a).cardinality() {
                Some(_) => Column::nominal(cells.map(|v| v.expect_nominal()).collect()),
                None => Column::num(cells.map(|v| v.expect_num()).collect()),
            }
        })
        .collect();
    Dataset::from_shared_parts(
        schema.clone(),
        rules.class_names.clone(),
        columns,
        vec![0; rows].into(),
    )
    .expect("batch columns fit the schema")
}
