//! The wire codec against a committed frame corpus, plus a mutation
//! property for hostile input.
//!
//! `fixtures/wire/` holds the JSON body of one frame per
//! `WireRequest`/`WireResponse` variant (and a pretty-printed copy of
//! the largest), as the codec produced them before it was rewritten to
//! stream. The encoder must still produce those bytes exactly, so peers
//! on either side of the rewrite interoperate. Three frames came later,
//! with presented sets by reference: a `DefineSet` and a reference-form
//! `Schedule` and `Forward` naming its set (`request_define_set`,
//! `request_schedule_named`, `request_forward_named`); the set id in
//! them is the SHA-256 of the set's inline encoding, checked when they
//! were written with a SHA-256 independent of this workspace's.
//!
//! The mutation property feeds truncated, byte-flipped, duplicate-key
//! and depth-bomb variants of every corpus frame to `decode_frame`,
//! seeded by splitmix64; each must come back as a value or a
//! `WireError`, never a panic. A failure names its seed.

use hetsec_crypto::KeyPair;
use hetsec_graphs::Value;
use hetsec_keynote::{
    credential_fingerprint, sign_assertion, Assertion, Clause, CmpOp, ConditionsProgram, Expr,
    LicenseeExpr, Principal, SignatureStatus, Term, VerdictStamp,
};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_webcom::stack::TrustLayer;
use hetsec_webcom::{
    decode_frame, encode_frame, serve_tcp, ArithComponentExecutor, AuthzStack, ClientConfig,
    ClientEngine, ClientIdentity, ClientTransport, ExecError, ExecOutcome, MuxTransport,
    Presented, PresentedSet, ScheduleReply, ScheduleRequest, ScheduledAction, TrustManager,
    WireError, WireRequest, WireResponse, MAX_DEPTH,
};
use hetsec_suite::Rng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One corpus entry: a request or a response frame.
#[derive(Debug)]
enum Frame {
    Request(WireRequest),
    Response(WireResponse),
}

impl Frame {
    fn encode(&self) -> Result<Vec<u8>, WireError> {
        match self {
            Frame::Request(r) => encode_frame(r),
            Frame::Response(r) => encode_frame(r),
        }
    }

    fn pretty(&self) -> String {
        match self {
            Frame::Request(r) => serde_json::to_string_pretty(r),
            Frame::Response(r) => serde_json::to_string_pretty(r),
        }
        .expect("corpus frames serialize")
    }

    /// Decodes `bytes` as the same kind of frame, reporting whether it
    /// equals this one.
    fn decode_matches(&self, bytes: &[u8]) -> Result<bool, WireError> {
        Ok(match self {
            Frame::Request(r) => decode_frame::<WireRequest>(bytes)? == *r,
            Frame::Response(r) => decode_frame::<WireResponse>(bytes)? == *r,
        })
    }
}

fn add_action() -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
        "Dom",
        "Worker",
    )
}

/// A left-nested `||` chain over `n` principals — the shape the KeyNote
/// parser builds for `"K0" || "K1" || ...`.
fn or_chain(prefix: &str, n: usize) -> LicenseeExpr {
    (0..n)
        .map(|i| LicenseeExpr::Principal(format!("{prefix}{i}")))
        .reduce(|a, b| LicenseeExpr::Or(Box::new(a), Box::new(b)))
        .expect("at least one licensee")
}

/// `n` delegations signed by one key, each licensing a short `||` chain
/// under a condition, plus the home master's verdict stamp for each.
fn signed_credentials(n: usize) -> (Vec<Assertion>, Vec<VerdictStamp>) {
    let delegator = KeyPair::from_label("wire-corpus-delegator");
    let master = KeyPair::from_label("wire-corpus-master");
    let credentials: Vec<Assertion> = (0..n)
        .map(|g| {
            let mut a = Assertion::new(
                Principal::key(delegator.public().to_text()),
                or_chain(&format!("Kuser{g}-"), 4),
            );
            a.comment = Some(format!("delegation {g}: \"quoted\", tab\there"));
            a.local_constants = vec![("DOMAIN".to_string(), "Dom".to_string())];
            a.conditions = Some(ConditionsProgram {
                clauses: vec![Clause::Bare(Expr::Cmp {
                    op: CmpOp::Eq,
                    lhs: Term::Attr("app_domain".to_string()),
                    rhs: Term::Str("WebCom".to_string()),
                })],
            });
            sign_assertion(&mut a, &delegator).expect("delegation signs");
            a
        })
        .collect();
    let stamps = credentials
        .iter()
        .map(|c| {
            let fingerprint = credential_fingerprint(c).expect("signed credential fingerprints");
            VerdictStamp::issue(
                &master,
                fingerprint,
                &SignatureStatus::Valid,
                3,
                1_700_000_000,
            )
        })
        .collect();
    (credentials, stamps)
}

fn schedule_request(
    op_id: u64,
    credentials: Vec<Assertion>,
    stamps: Vec<VerdictStamp>,
) -> ScheduleRequest {
    ScheduleRequest {
        op_id,
        action: add_action(),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        master_key: "Kmaster".to_string(),
        presented: Presented::new(credentials, stamps),
        args: vec![Value::Int(20), Value::Int(22)],
    }
}

fn reply(op_id: u64, outcome: ExecOutcome, replayed: bool) -> ScheduleReply {
    ScheduleReply {
        op_id,
        client: "c1".to_string(),
        outcome,
        replayed,
    }
}

/// Every frame in `fixtures/wire/`, by file stem.
fn corpus() -> Vec<(&'static str, Frame)> {
    let (credentials, stamps) = signed_credentials(8);
    let set = Arc::new(PresentedSet::new(credentials.clone(), stamps.clone()));
    let id = set.id().expect("the corpus set encodes");
    let named = |op_id| ScheduleRequest {
        presented: Presented::Named(id),
        ..schedule_request(op_id, vec![], vec![])
    };
    let mut scalars = schedule_request(7, vec![], vec![]);
    scalars.args = vec![
        Value::Unit,
        Value::Bool(true),
        Value::Int(-9_007_199_254_740_993),
        Value::Float(2.5),
        Value::Float(-3.0),
        Value::Float(1e21),
        Value::Str("quote\" back\\ nl\n cr\r tab\t bell\u{7} del\u{7f} é ✓ 🎉".to_string()),
        Value::List(vec![Value::List(vec![]), Value::List(vec![Value::Int(1)])]),
    ];
    vec![
        ("request_identify", Frame::Request(WireRequest::Identify)),
        (
            "request_schedule",
            Frame::Request(WireRequest::Schedule(Box::new(scalars))),
        ),
        (
            "request_forward_signed",
            Frame::Request(WireRequest::Forward {
                request: Box::new(schedule_request(u64::MAX - 1, credentials, stamps)),
                hops: 1,
            }),
        ),
        (
            "response_identity",
            Frame::Response(WireResponse::Identity(ClientIdentity {
                name: "c1".to_string(),
                key_text: "Kc1".to_string(),
                domains: vec!["Dom".into(), "Finance".into()],
            })),
        ),
        (
            "response_reply_ok",
            Frame::Response(WireResponse::Reply(reply(
                42,
                ExecOutcome::Ok(Value::Int(42)),
                false,
            ))),
        ),
        (
            "response_reply_denied",
            Frame::Response(WireResponse::Reply(reply(
                43,
                ExecOutcome::Denied("L2 trust layer: _MIN_TRUST".to_string()),
                false,
            ))),
        ),
        (
            "response_reply_failed",
            Frame::Response(WireResponse::Reply(reply(
                44,
                ExecOutcome::Failed(ExecError::timeout("slow backend")),
                true,
            ))),
        ),
        (
            "response_forward_reply",
            Frame::Response(WireResponse::ForwardReply(reply(
                45,
                ExecOutcome::Failed(ExecError::component_transient("backend busy")),
                false,
            ))),
        ),
        (
            "response_error",
            Frame::Response(WireResponse::Error(ExecError::protocol(
                "this endpoint serves master-to-master forwards, not client identify",
            ))),
        ),
        (
            "request_define_set",
            Frame::Request(WireRequest::DefineSet { id, set }),
        ),
        (
            "request_schedule_named",
            Frame::Request(WireRequest::Schedule(Box::new(named(8)))),
        ),
        (
            "request_forward_named",
            Frame::Request(WireRequest::Forward {
                request: Box::new(named(u64::MAX - 1)),
                hops: 1,
            }),
        ),
    ]
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures/wire")
}

fn fixture(name: &str) -> Vec<u8> {
    let path = fixture_dir().join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

#[test]
fn encoder_output_matches_the_corpus_byte_for_byte() {
    for (name, frame) in corpus() {
        let golden = fixture(&format!("{name}.json"));
        let encoded = frame.encode().expect("corpus frame encodes");
        assert!(
            encoded == framed(&golden),
            "{name}: encoder output drifted from fixtures/wire/{name}.json:\n{}",
            String::from_utf8_lossy(&encoded[4..])
        );
    }
    let (name, frame) = corpus().swap_remove(2);
    assert_eq!(name, "request_forward_signed");
    assert_eq!(
        frame.pretty().as_bytes(),
        fixture("request_forward_signed.pretty.json"),
        "pretty output drifted"
    );
}

#[test]
fn every_corpus_frame_round_trips() {
    for (name, frame) in corpus() {
        let golden = framed(&fixture(&format!("{name}.json")));
        assert!(
            frame.decode_matches(&golden).expect("golden frame decodes"),
            "{name}"
        );
        let encoded = frame.encode().expect("corpus frame encodes");
        assert!(
            frame
                .decode_matches(&encoded)
                .expect("encoded frame decodes"),
            "{name}"
        );
    }
}

#[test]
fn a_500_licensee_chain_round_trips() {
    let (mut credentials, stamps) = signed_credentials(1);
    credentials[0].licensees = Some(or_chain("Kmember", 500));
    let frame = WireRequest::Forward {
        request: Box::new(schedule_request(1, credentials, stamps)),
        hops: 1,
    };
    let bytes = encode_frame(&frame).expect("a 500-licensee credential encodes");
    assert_eq!(decode_frame::<WireRequest>(&bytes).unwrap(), frame);
}

#[test]
fn encoder_refuses_nesting_past_the_cap() {
    let mut request = schedule_request(1, vec![], vec![]);
    request.presented = vec![Assertion::new(Principal::Policy, or_chain("K", MAX_DEPTH))].into();
    match encode_frame(&WireRequest::Schedule(Box::new(request))) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("nesting"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}

/// Frames of ~100 KB whose nesting runs past the cap: bare brackets, an
/// unknown field holding nested arrays and objects, and a licensee
/// chain the typed decoder follows level by level.
fn depth_bombs() -> Vec<(&'static str, Vec<u8>)> {
    let brackets = vec![b'['; 100_000];
    let mut unknown = br#"{"Schedule":{"op_id":1,"junk":"#.to_vec();
    unknown.extend(br#"[{"a":"#.repeat(100_000 / 6));
    let mut typed = br#"{"Schedule":{"op_id":1,"credentials":[{"licensees":"#.to_vec();
    typed.extend(br#"{"Or":["#.repeat(100_000 / 7));
    vec![
        ("brackets", framed(&brackets)),
        ("unknown-field", framed(&unknown)),
        ("licensee-chain", framed(&typed)),
    ]
}

#[test]
fn depth_bombs_are_malformed_not_a_stack_overflow() {
    for (name, bomb) in depth_bombs() {
        match decode_frame::<WireRequest>(&bomb) {
            // A top-level array is the wrong type before it is too deep.
            Err(WireError::Malformed(_)) if name == "brackets" => {}
            Err(WireError::Malformed(msg)) => assert!(msg.contains("nesting"), "{name}: {msg}"),
            other => panic!("{name} bomb: expected Malformed, got {other:?}"),
        }
    }
}

fn engine() -> Arc<ClientEngine> {
    let tm = |key: &str| {
        let t = TrustManager::permissive();
        t.add_policy(&format!(
            "Authorizer: POLICY\nLicensees: \"{key}\"\nConditions: app_domain==\"WebCom\";\n"
        ))
        .expect("policy parses");
        Arc::new(t)
    };
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(tm("Kworker"))));
    Arc::new(ClientEngine::new(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust: tm("Kmaster"),
        stack: Arc::new(stack),
        executor: Arc::new(ArithComponentExecutor),
    }))
}

#[test]
fn live_listener_survives_depth_bombs_and_keeps_serving() {
    let server = serve_tcp(engine(), vec!["Dom".into()], "127.0.0.1:0").unwrap();
    for (name, bomb) in depth_bombs() {
        let mut conn = TcpStream::connect(server.local_addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        conn.write_all(&bomb).unwrap();
        // The server drops the connection: EOF (or a reset), no reply.
        let mut buf = [0u8; 1];
        let read = conn.read(&mut buf);
        assert!(
            matches!(read, Ok(0)) || read.is_err(),
            "{name} bomb: expected the connection closed, got {read:?}"
        );
    }
    let transport = MuxTransport::new(server.local_addr());
    for op_id in 1..=3 {
        let reply = transport
            .call(
                &schedule_request(op_id, vec![], vec![]),
                Duration::from_secs(5),
            )
            .expect("the listener still serves after the bombs");
        assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(42)));
    }
    assert_eq!(server.served(), 3);
    server.stop();
}

/// Positions of `{"` outside strings: the objects whose first key a
/// duplicate-key mutation can repeat.
fn object_starts(body: &[u8]) -> Vec<usize> {
    let (mut in_string, mut escaped) = (false, false);
    let mut out = Vec::new();
    for (i, &b) in body.iter().enumerate() {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == b'{' && body.get(i + 1) == Some(&b'"') {
            out.push(i);
        }
    }
    out
}

/// End of the JSON value starting at `start` (compact input).
fn value_end(body: &[u8], start: usize) -> usize {
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in body.iter().enumerate().skip(start) {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => {
                    in_string = false;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' if depth == 0 => return i,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            b',' if depth == 0 => return i,
            _ => {}
        }
    }
    body.len()
}

/// Repeats the first entry of the object at `obj`: `{"k":v,...}`
/// becomes `{"k":v,"k":v,...}`.
fn duplicate_first_key(body: &[u8], obj: usize) -> Vec<u8> {
    let key_end = value_end(body, obj + 1);
    let entry_end = value_end(body, key_end + 1);
    let entry = &body[obj + 1..entry_end];
    let mut out = body[..=obj].to_vec();
    out.extend_from_slice(entry);
    out.push(b',');
    out.extend_from_slice(&body[obj + 1..]);
    out
}

#[test]
fn mutated_frames_only_ever_produce_wire_errors() {
    const SEEDS: u64 = 200;
    let base = 0x5EED_0000_u64;
    println!("wire_codec mutation seeds {base:#x}..{:#x}", base + SEEDS);
    let corpus = corpus();
    for seed in base..base + SEEDS {
        let mut rng = Rng::new(seed);
        let (name, frame) = &corpus[rng.below(corpus.len())];
        let encoded = frame.encode().expect("corpus frame encodes");
        let body = &encoded[4..];
        let starts = object_starts(body);
        // `"Identify"` holds no object to repeat a key in.
        let kinds = if starts.is_empty() { 3 } else { 4 };
        let (what, bytes, must_fail) = match rng.below(kinds) {
            0 => {
                // Cut the stream short: the length prefix promises more.
                let cut = rng.below(encoded.len());
                ("truncated stream", encoded[..cut].to_vec(), true)
            }
            1 => {
                // Cut the JSON short but frame it honestly.
                let cut = rng.below(body.len());
                ("truncated body", framed(&body[..cut]), true)
            }
            2 => {
                let mut flipped = body.to_vec();
                let at = rng.below(flipped.len());
                flipped[at] ^= 1 << rng.below(8);
                ("flipped byte", framed(&flipped), false)
            }
            _ => {
                let obj = starts[rng.below(starts.len())];
                (
                    "duplicate key",
                    framed(&duplicate_first_key(body, obj)),
                    true,
                )
            }
        };
        let outcome = std::panic::catch_unwind(|| frame.decode_matches(&bytes));
        match outcome {
            Err(_) => panic!("seed {seed:#x}: {what} {name} frame panicked the decoder"),
            Ok(Ok(_)) if must_fail => panic!(
                "seed {seed:#x}: {what} {name} frame decoded instead of failing: {}",
                String::from_utf8_lossy(&bytes)
            ),
            Ok(_) => {}
        }
    }
}

#[test]
fn duplicate_struct_field_is_malformed() {
    let body = br#"{"Reply":{"op_id":7,"op_id":8,"client":"c0","outcome":{"Ok":"Unit"}}}"#;
    match decode_frame::<WireResponse>(&framed(body)) {
        Err(WireError::Malformed(msg)) => assert!(msg.contains("duplicate field `op_id`"), "{msg}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
}
