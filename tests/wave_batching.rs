//! A condensed-graph wave as one frame each way: the `ScheduleBatch` /
//! `ReplyBatch` frames, the client's one-mediation-per-head batch
//! handling, and how a served connection runs a batch's ops.
//!
//! * `handle_batch_equals_per_op_handle_on_a_twin_engine` — seeded
//!   property (splitmix64; a failure names its seed): random batches
//!   with mixed heads, unlicensed principals, a distrusted master, memo
//!   replays, transient failures and repeated op ids get the same
//!   replies, counters and audit totals from `handle_batch` as from
//!   `handle` per op on a twin engine.
//! * `batch_frames_match_their_golden_bytes` — `fixtures/wire/`'s
//!   `request_schedule_batch.json` and `response_reply_batch.json`.
//! * `a_slow_op_does_not_hold_back_its_batch_mates` — a 16-op batch with
//!   one 300 ms op at `pipeline` 8.
//!
//! `tests/wave_frame_count.rs` counts the frames a wave costs.

use hetsec_graphs::Value;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use hetsec_suite::Rng;
use hetsec_webcom::stack::TrustLayer;
use hetsec_webcom::{
    decode_frame, encode_frame, encode_schedule_batch, read_frame, serve_tcp_with, write_frame,
    ArithComponentExecutor, AuditLog, AuthzStack, BatchOp, ClientConfig, ClientEngine,
    ComponentExecutor, ExecError, ExecOutcome, Presented, ScheduleBatch, ScheduleReply,
    ScheduleRequest, ScheduledAction, ServeOptions, TrustManager, WireError, WireRequest,
    WireResponse,
};
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn pick<'a>(rng: &mut Rng, options: &[&'a str]) -> &'a str {
    options[rng.below(options.len())]
}

fn tm(policy: &str) -> Arc<TrustManager> {
    let t = TrustManager::permissive();
    t.add_policy(policy).unwrap();
    Arc::new(t)
}

fn action(op: &str) -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", op),
        "Dom",
        "Worker",
    )
}

/// Trusts `Kmaster` to schedule and `Kworker` to execute.
fn config(name: &str, executor: Arc<dyn ComponentExecutor>) -> ClientConfig {
    let master_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let user_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(user_trust)));
    ClientConfig {
        name: name.to_string(),
        key_text: format!("K{name}"),
        master_trust,
        stack: Arc::new(stack),
        executor,
    }
}

/// `add` as arithmetic, plus `flaky`, which fails retryably when its
/// first operand is even and answers it otherwise.
struct FlakyExecutor;

impl ComponentExecutor for FlakyExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        match (component.operation.as_str(), args.first()) {
            ("flaky", Some(Value::Int(n))) if n % 2 == 0 => {
                Err(ExecError::component_transient("backend busy"))
            }
            ("flaky", Some(v)) => Ok(v.clone()),
            _ => ArithComponentExecutor.invoke(user, component, args),
        }
    }
}

fn request(batch: &ScheduleBatch, op: &BatchOp) -> ScheduleRequest {
    ScheduleRequest {
        op_id: op.op_id,
        action: batch.action.clone(),
        user: batch.user.clone(),
        principal: batch.principal.clone(),
        master_key: batch.master_key.clone(),
        presented: batch.presented.clone(),
        args: op.args.clone(),
    }
}

fn random_batch(rng: &mut Rng) -> ScheduleBatch {
    let ops = (0..1 + rng.below(8))
        .map(|_| BatchOp {
            // A small id space: op ids repeat within and across batches,
            // so the memo replays.
            op_id: rng.below(24) as u64,
            args: vec![Value::Int(rng.below(6) as i64), Value::Int(1)],
        })
        .collect();
    ScheduleBatch {
        action: action(pick(rng, &["add", "add", "flaky", "no-such-op"])),
        user: "worker".into(),
        principal: pick(rng, &["Kworker", "Kworker", "Kunlicensed"]).to_string(),
        master_key: pick(rng, &["Kmaster", "Kmaster", "Kmaster", "Kdistrusted"]).to_string(),
        presented: Presented::default(),
        ops,
    }
}

#[test]
fn handle_batch_equals_per_op_handle_on_a_twin_engine() {
    for seed in 0..64u64 {
        let mut rng = Rng::new(seed);
        let batch_log = Arc::new(AuditLog::new(64));
        let single_log = Arc::new(AuditLog::new(64));
        let batched = ClientEngine::new(config("c1", Arc::new(FlakyExecutor)))
            .with_audit(Arc::clone(&batch_log));
        let single = ClientEngine::new(config("c1", Arc::new(FlakyExecutor)))
            .with_audit(Arc::clone(&single_log));
        for round in 0..24 {
            let batch = random_batch(&mut rng);
            let got = batched.handle_batch(batch.clone());
            let want: Vec<ScheduleReply> = batch
                .ops
                .iter()
                .map(|op| single.handle(&request(&batch, op)))
                .collect();
            assert_eq!(got, want, "seed {seed}, round {round}: replies differ");
            assert_eq!(
                batched.stats(),
                single.stats(),
                "seed {seed}, round {round}: stats differ"
            );
            assert_eq!(
                batch_log.totals(),
                single_log.totals(),
                "seed {seed}, round {round}: audit totals differ"
            );
        }
    }
}

fn fixture(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../fixtures/wire")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn framed(body: &[u8]) -> Vec<u8> {
    let mut frame = (body.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(body);
    frame
}

fn reply(op_id: u64, outcome: ExecOutcome, replayed: bool) -> ScheduleReply {
    ScheduleReply {
        op_id,
        client: "c1".to_string(),
        outcome,
        replayed,
    }
}

#[test]
fn batch_frames_match_their_golden_bytes() {
    let requests: Vec<ScheduleRequest> = [
        (7, vec![Value::Int(1), Value::Int(2)]),
        (8, vec![Value::Str("x".to_string()), Value::List(vec![])]),
        (u64::MAX - 1, vec![]),
    ]
    .into_iter()
    .map(|(op_id, args)| ScheduleRequest {
        op_id,
        action: action("add"),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        master_key: "Kmaster".to_string(),
        presented: Presented::default(),
        args,
    })
    .collect();
    let refs: Vec<&ScheduleRequest> = requests.iter().collect();
    let mut batch = ScheduleBatch::from(requests[0].clone());
    batch.ops.extend(requests[1..].iter().map(|r| BatchOp {
        op_id: r.op_id,
        args: r.args.clone(),
    }));
    let request = WireRequest::ScheduleBatch(Box::new(batch));
    let response = WireResponse::ReplyBatch(vec![
        reply(7, ExecOutcome::Ok(Value::Int(3)), false),
        reply(8, ExecOutcome::Denied("L2 trust layer: _MIN_TRUST".to_string()), false),
        reply(
            u64::MAX - 1,
            ExecOutcome::Failed(ExecError::timeout("slow backend")),
            true,
        ),
    ]);

    let golden = framed(&fixture("request_schedule_batch.json"));
    assert!(encode_frame(&request).unwrap() == golden, "owned batch frame drifted");
    assert!(encode_schedule_batch(&refs).unwrap() == golden, "borrowed batch frame drifted");
    assert_eq!(decode_frame::<WireRequest>(&golden).unwrap(), request);
    let golden_reply = framed(&fixture("response_reply_batch.json"));
    assert!(encode_frame(&response).unwrap() == golden_reply, "reply batch frame drifted");
    assert_eq!(decode_frame::<WireResponse>(&golden_reply).unwrap(), response);

    // Hostile variants decode to a value or a WireError, never a panic.
    let mut rng = Rng::new(21);
    for golden in [&golden, &golden_reply] {
        for cut in 0..golden.len() {
            assert!(matches!(
                decode_frame::<WireRequest>(&golden[..cut]),
                Err(WireError::Truncated)
            ));
        }
        for _ in 0..500 {
            let mut bytes = golden.clone();
            let at = 4 + rng.below(bytes.len() - 4);
            bytes[at] = rng.next_u64() as u8;
            let _ = decode_frame::<WireRequest>(&bytes);
            let _ = decode_frame::<WireResponse>(&bytes);
        }
    }
}

/// Sleeps `args[0]` milliseconds and answers `args[1]`, counting the
/// runs of each `args[1]`.
#[derive(Default)]
struct Sleeper(Mutex<HashMap<i64, usize>>);

impl ComponentExecutor for Sleeper {
    fn invoke(&self, _: &User, _: &ComponentRef, args: &[Value]) -> Result<Value, ExecError> {
        let (Some(Value::Int(ms)), Some(Value::Int(id))) = (args.first(), args.get(1)) else {
            return Err(ExecError::component("expected (ms, id)"));
        };
        *self.0.lock().unwrap().entry(*id).or_default() += 1;
        std::thread::sleep(Duration::from_millis(*ms as u64));
        Ok(Value::Int(*id))
    }
}

#[test]
fn a_slow_op_does_not_hold_back_its_batch_mates() {
    for slow in [0u64, 7, 15] {
        let sleeper = Arc::new(Sleeper::default());
        let server = serve_tcp_with(
            Arc::new(ClientEngine::new(config(
                "c1",
                Arc::clone(&sleeper) as Arc<dyn ComponentExecutor>,
            ))),
            vec!["Dom".into()],
            "127.0.0.1:0",
            ServeOptions { pipeline: 8 },
        )
        .unwrap();
        let mut batch = ScheduleBatch::from(ScheduleRequest {
            op_id: 0,
            action: action("sleep"),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            presented: Presented::default(),
            args: vec![],
        });
        batch.ops = (0..16u64)
            .map(|id| BatchOp {
                op_id: id,
                args: vec![Value::Int(if id == slow { 300 } else { 0 }), Value::Int(id as i64)],
            })
            .collect();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let started = Instant::now();
        write_frame(&mut stream, &WireRequest::ScheduleBatch(Box::new(batch))).unwrap();
        let mut answered: Vec<u64> = Vec::new();
        let mut fast_done = None;
        while answered.len() < 16 {
            let replies = match read_frame::<WireResponse, _>(&mut stream).unwrap() {
                WireResponse::Reply(reply) => vec![reply],
                WireResponse::ReplyBatch(replies) => replies,
                other => panic!("unexpected frame {other:?}"),
            };
            for reply in replies {
                assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(reply.op_id as i64)));
                answered.push(reply.op_id);
            }
            if fast_done.is_none() && answered.iter().filter(|&&id| id != slow).count() == 15 {
                fast_done = Some(started.elapsed());
            }
        }
        let fast = fast_done.expect("every fast op answered");
        assert!(fast < Duration::from_millis(50), "slow op {slow}: fast replies took {fast:?}");
        answered.sort_unstable();
        assert_eq!(answered, (0..16).collect::<Vec<u64>>(), "slow op {slow}: replies");
        let runs = sleeper.0.lock().unwrap();
        assert!(
            (0..16).all(|id| runs.get(&id) == Some(&1)),
            "slow op {slow}: an op ran twice or never: {runs:?}"
        );
        drop(runs);
        server.stop();
    }
}
