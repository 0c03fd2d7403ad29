//! End-to-end contract of the serving daemon over a real socket: routing,
//! single-row and bulk predict, admin info, hot swap (including the
//! admission checks), and the error paths — all through the same
//! keep-alive HTTP client the load harness uses.

use nr_daemon::fixture::serving_fixture;
use nr_daemon::{Client, Daemon, DaemonConfig};
use nr_encode::Encoder;
use nr_nn::Mlp;
use nr_rules::RuleSet;
use nr_serve::{
    BulkResponse, ErrorResponse, ModelInfo, PredictResponse, ServeMode, ServeModel, SwapResponse,
};

#[test]
fn daemon_serves_the_full_http_contract() {
    let fx = serving_fixture(16);
    let daemon = Daemon::start(
        DaemonConfig::default(),
        vec![
            ("default".into(), fx.model_a.clone()),
            ("alt".into(), fx.model_b.clone()),
        ],
    )
    .expect("daemon binds a free port");
    let mut client = Client::connect(daemon.addr()).expect("client connects");

    // Health and admin info.
    let (status, body) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!((status, body.as_str()), (200, r#"{"ok":true}"#));
    let (status, body) = client.request("GET", "/model", "").unwrap();
    assert_eq!(status, 200);
    let info: ModelInfo = serde_json::from_str(&body).unwrap();
    assert_eq!(info.version, 1);
    assert_eq!(info.mode, "Rules");
    assert_eq!(info.class_names, vec!["Group A", "Group B"]);
    assert_eq!(info.attributes[0], "salary");

    // Single-row predict, on the default and a named model. The fixture's
    // model B answers 1 - A(x), so the two lanes must disagree on every row.
    let (status, body) = client.request("POST", "/predict", &fx.rows[0]).unwrap();
    assert_eq!(status, 200, "predict failed: {body}");
    let a: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(a.class, fx.expected_a[0]);
    assert_eq!(a.version, 1);
    let (status, body) = client
        .request("POST", "/models/alt/predict", &fx.rows[0])
        .unwrap();
    assert_eq!(status, 200);
    let b: PredictResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(b.class, 1 - a.class);

    // Bulk predict: whole fixture in one body, answers in input order.
    let (status, body) = client
        .request("POST", "/predict/bulk", &fx.rows.join("\n"))
        .unwrap();
    assert_eq!(status, 200);
    let bulk: BulkResponse = serde_json::from_str(&body).unwrap();
    assert_eq!(bulk.rows, fx.rows.len());
    assert_eq!(bulk.classes, fx.expected_a);

    // Error paths: unroutable, unknown model, malformed rows. Every
    // non-2xx body is a parseable ErrorResponse.
    let (status, body) = client.request("GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    serde_json::from_str::<ErrorResponse>(&body).unwrap();
    let (status, _) = client
        .request("POST", "/models/ghost/predict", &fx.rows[0])
        .unwrap();
    assert_eq!(status, 404);
    let (status, body) = client
        .request("POST", "/predict", "not,enough,cells")
        .unwrap();
    assert_eq!(status, 400);
    serde_json::from_str::<ErrorResponse>(&body).unwrap();
    let bad_bulk = format!("{}\ngarbage row", fx.rows[0]);
    let (status, body) = client.request("POST", "/predict/bulk", &bad_bulk).unwrap();
    assert_eq!(status, 400);
    let err: ErrorResponse = serde_json::from_str(&body).unwrap();
    assert!(
        err.error.contains("line 2"),
        "bulk error must cite the line: {}",
        err.error
    );

    // Swap admission: garbage bundles and class-list mismatches are
    // refused and leave the deployment untouched.
    let (status, _) = client.request("PUT", "/model", "not a model").unwrap();
    assert_eq!(status, 400);
    let stranger = {
        let encoder = Encoder::agrawal();
        let net = Mlp::random(encoder.n_inputs(), 4, 1, 3);
        let rules = RuleSet::new(Vec::new(), 0, vec!["Other".into()]);
        ServeModel::new(&rules, encoder, net, ServeMode::Rules)
    };
    let (status, _) = client
        .request("PUT", "/model", &stranger.to_json().unwrap())
        .unwrap();
    assert_eq!(status, 409, "class-list mismatch must be refused");
    let (status, body) = client.request("GET", "/model", "").unwrap();
    assert_eq!(status, 200);
    assert_eq!(serde_json::from_str::<ModelInfo>(&body).unwrap().version, 1);

    // A compatible swap lands atomically: version bumps, answers flip.
    let (status, body) = client
        .request("PUT", "/model", &fx.model_b.to_json().unwrap())
        .unwrap();
    assert_eq!(status, 200, "swap failed: {body}");
    assert_eq!(
        serde_json::from_str::<SwapResponse>(&body).unwrap().version,
        2
    );
    for (i, row) in fx.rows.iter().enumerate().take(4) {
        let (status, body) = client.request("POST", "/predict", row).unwrap();
        assert_eq!(status, 200);
        let resp: PredictResponse = serde_json::from_str(&body).unwrap();
        assert_eq!(resp.version, 2);
        assert_eq!(
            resp.class,
            1 - fx.expected_a[i],
            "row {i} must flip after swap"
        );
    }

    // Stats reflect the traffic this test sent through the lanes.
    let (status, body) = client.request("GET", "/stats", "").unwrap();
    assert_eq!(status, 200);
    let stats: nr_daemon::StatsResponse = serde_json::from_str(&body).unwrap();
    let default = stats.models.iter().find(|m| m.model == "default").unwrap();
    assert_eq!(default.version, 2);
    assert_eq!(
        default.requests, 5,
        "one pre-swap + four post-swap predicts"
    );
    assert_eq!(default.rows, 5);
    let alt = stats.models.iter().find(|m| m.model == "alt").unwrap();
    assert_eq!(alt.requests, 1);

    daemon.shutdown();
}

#[test]
fn daemon_survives_connection_churn() {
    // Each client is its own keep-alive connection; opening, using, and
    // dropping several in sequence must leave the daemon serving.
    let fx = serving_fixture(4);
    let daemon = Daemon::start(
        DaemonConfig::default(),
        vec![("default".into(), fx.model_a.clone())],
    )
    .unwrap();
    for i in 0..4 {
        let mut client = Client::connect(daemon.addr()).unwrap();
        let (status, body) = client
            .request("POST", "/predict", &fx.rows[i % fx.rows.len()])
            .unwrap();
        assert_eq!(status, 200, "connection {i}: {body}");
    }
    let mut client = Client::connect(daemon.addr()).unwrap();
    let (status, _) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(status, 200);
    daemon.shutdown();
}

/// A `BufRead` over `data` that never hands out more than one segment at a
/// time: `cuts` are the read boundaries, so one byte stream can be replayed
/// under any packetisation. `pos` counts the bytes the parser consumed.
struct Segmented<'a> {
    data: &'a [u8],
    cuts: Vec<usize>,
    pos: usize,
}

impl std::io::Read for Segmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        use std::io::BufRead;
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl std::io::BufRead for Segmented<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let end = self
            .cuts
            .iter()
            .copied()
            .find(|&c| c > self.pos)
            .unwrap_or(self.data.len());
        Ok(&self.data[self.pos..end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
    }
}

/// What one `read_request` call returned, in comparable form.
type Outcome = Result<Option<nr_daemon::Request>, (std::io::ErrorKind, String)>;

/// Most bytes one `read_request` call may consume: the request line and up
/// to `MAX_HEADERS + 1` further lines of at most `MAX_LINE` bytes plus the
/// newline, then a body of at most `MAX_BODY` bytes.
const MAX_CONSUMED: usize = (nr_daemon::http::MAX_HEADERS + 2) * (nr_daemon::http::MAX_LINE + 1)
    + nr_daemon::http::MAX_BODY;

/// Reads requests off `data` split at `cuts` until a clean close or an
/// error, checking the buffering bounds on every call. Returns each call's
/// outcome with the bytes it consumed.
fn read_all(data: &[u8], cuts: Vec<usize>) -> Vec<(Outcome, usize)> {
    use nr_daemon::http::{read_request, MAX_BODY, MAX_LINE};
    let mut reader = Segmented { data, cuts, pos: 0 };
    let mut outcomes = Vec::new();
    loop {
        let start = reader.pos;
        let outcome = read_request(&mut reader).map_err(|e| (e.kind(), e.to_string()));
        let consumed = reader.pos - start;
        assert!(consumed <= MAX_CONSUMED, "consumed {consumed} bytes");
        if let Ok(Some(req)) = &outcome {
            assert!(req.method.len() <= MAX_LINE && req.path.len() <= MAX_LINE);
            assert!(req.body.len() <= MAX_BODY);
            assert!(consumed > 0, "a request must consume bytes");
        }
        let done = !matches!(outcome, Ok(Some(_)));
        outcomes.push((outcome, consumed));
        if done {
            return outcomes;
        }
    }
}

/// A random wire stream built from request fragments: whole requests,
/// request lines, headers (with valid, huge and garbage `Content-Length` and
/// `X-Deadline-Ms` values), blank lines, raw bytes, lines at the
/// `MAX_LINE` edge and header floods at the `MAX_HEADERS` edge, sometimes
/// cut short at a random byte.
fn random_wire(rng: &mut rand::rngs::StdRng) -> Vec<u8> {
    use nr_daemon::http::{MAX_HEADERS, MAX_LINE};
    use rand::seq::SliceRandom;
    use rand::Rng;
    const METHODS: &[&str] = &["GET", "POST", "PUT", "GET", "POST", "", "\u{e9}"];
    const PATHS: &[&str] = &["/", "/predict", "/models/a/rules", "/x?y=1", "predict", ""];
    const NAMES: &[&str] = &[
        "Content-Length",
        "content-LENGTH",
        "X-Deadline-Ms",
        "Host",
        "",
    ];
    const ALPHABET: &[u8] = b"GETPOST /:\r\n\r\n0123456789 -x\t\xc3\xa9\xff";
    let mut wire = Vec::new();
    for _ in 0..rng.gen_range(0..10usize) {
        // Mostly well-formed request lines, so the header and body paths
        // see traffic too.
        match if wire.is_empty() && rng.gen_bool(0.7) {
            0
        } else {
            rng.gen_range(0..10u32)
        } {
            0 | 1 => {
                let method = METHODS.choose(rng).unwrap();
                let path = PATHS.choose(rng).unwrap();
                wire.extend_from_slice(format!("{method} {path} HTTP/1.1\r\n").as_bytes());
            }
            2 | 3 => {
                let name = NAMES.choose(rng).unwrap();
                let value = match rng.gen_range(0..5u32) {
                    0 => u64::MAX.to_string(),
                    1 => "nope".to_string(),
                    2 => format!("-{}", rng.gen_range(0..10u32)),
                    _ => rng.gen_range(0..24u32).to_string(),
                };
                wire.extend_from_slice(format!("{name}: {value}\r\n").as_bytes());
            }
            4 => wire.extend_from_slice(b"\r\n"),
            5 => {
                let len = rng.gen_range(0..40usize);
                wire.extend((0..len).map(|_| *ALPHABET.choose(rng).unwrap()));
            }
            6 => {
                let len = rng.gen_range(MAX_LINE - 2..MAX_LINE + 3);
                wire.extend(std::iter::repeat_n(b'a', len));
                wire.extend_from_slice(b"\r\n");
            }
            7 => {
                for i in 0..rng.gen_range(MAX_HEADERS - 2..MAX_HEADERS + 3) {
                    wire.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
                }
            }
            8 => {
                let len = rng.gen_range(0..24usize);
                let head = format!("POST /predict HTTP/1.1\r\nContent-Length: {len}\r\n\r\n");
                wire.extend_from_slice(head.as_bytes());
                wire.extend((0..len).map(|_| *ALPHABET.choose(rng).unwrap()));
            }
            _ => wire.push(*ALPHABET.choose(rng).unwrap()),
        }
    }
    // A peer that hangs up mid-request.
    if rng.gen_bool(0.3) {
        wire.truncate(rng.gen_range(0..wire.len() + 1));
    }
    wire
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(300))]

    /// `read_request` on arbitrary byte streams split at arbitrary read
    /// boundaries: every call returns a request, a clean close or an
    /// `io::Error` without panicking, consumes the same bytes and gives
    /// the same outcome under every split, and never buffers past the
    /// line, header and body caps.
    #[test]
    fn read_request_is_split_invariant_and_bounded(seed in 0u64..u64::MAX) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let wire = random_wire(&mut rng);
        let whole = read_all(&wire, Vec::new());
        let bytewise = read_all(&wire, (1..wire.len()).collect());
        proptest::prop_assert_eq!(&whole, &bytewise);
        for _ in 0..4 {
            let mut cuts: Vec<usize> = (0..rng.gen_range(0..12usize))
                .map(|_| rng.gen_range(0..wire.len() + 1))
                .collect();
            cuts.sort_unstable();
            proptest::prop_assert_eq!(&whole, &read_all(&wire, cuts));
        }
    }
}
