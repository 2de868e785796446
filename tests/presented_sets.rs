//! Presented sets by reference: on a mux connection a request's
//! credentials and stamps cross the socket once, in a `DefineSet`
//! frame, and later frames name the set by its content id, resolved by
//! the serving side from a bounded per-connection table.
//!
//! * A seeded property sends random request sequences over one mux
//!   connection, in client framing (`MuxTransport` → `serve_tcp`) and in
//!   peer framing (`TcpPeerLink` → `serve_master`), drawing from more
//!   distinct sets than the table holds, so sets are evicted and defined
//!   again. What the serving side's handler gets must equal the request
//!   decoded from its inline frame, and every reply must be right. A
//!   failure names its seed.
//! * A frame-recording proxy counts what crosses the socket: one
//!   definition, then small reference frames, and a definition again on
//!   a new connection.
//! * Raw frames naming an undefined set, or defining a set under an id
//!   that is not its content's, close the connection with nothing run.

use hetsec_crypto::KeyPair;
use hetsec_graphs::Value;
use hetsec_keynote::{sign_assertion, Assertion, LicenseeExpr, Principal, VerdictStamp};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use hetsec_suite::Rng;
use hetsec_webcom::{
    decode_frame, encode_frame, serve_master, serve_tcp, serve_tcp_with, ArithComponentExecutor,
    AuthzContext, AuthzLayer, AuthzStack, ClientConfig, ClientEngine, ClientTransport,
    ComponentExecutor, ExecError, ExecErrorKind, ExecOutcome, LayerLevel, MuxTransport, PeerLink,
    Presented, PresentedSet, ScheduleReply, ScheduleRequest, ScheduledAction, ServeOptions, SetId,
    StampIssuer, TcpPeerLink, TransportError, TrustManager, Verdict, WebComMaster, WireRequest,
    WireResponse, SET_TABLE_CAPACITY,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

fn tm(key: &str) -> Arc<TrustManager> {
    let t = TrustManager::permissive();
    t.add_policy(&format!(
        "Authorizer: POLICY\nLicensees: \"{key}\"\nConditions: app_domain==\"WebCom\";\n"
    ))
    .expect("policy parses");
    Arc::new(t)
}

fn action() -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
        "Dom",
        "Worker",
    )
}

/// A distinct unsigned credential.
fn credential(tag: &str) -> Assertion {
    let mut a = Assertion::new(
        Principal::key(format!("Kdelegator-{tag}")),
        LicenseeExpr::Principal(format!("Kuser-{tag}")),
    );
    a.comment = Some(format!("credential {tag}"));
    a
}

/// A distinct stamp; nothing here admits it, so it need not verify.
fn stamp(tag: &str) -> VerdictStamp {
    VerdictStamp {
        fingerprint: format!("{:064x}", tag.len()),
        status: 1,
        epoch: 3,
        issued_at: 1_700_000_000,
        issuer: format!("Kissuer-{tag}"),
        signature: format!("sig-{tag}"),
    }
}

/// The sets requests draw from: `Nothing`, then `distinct` sets of one
/// to four credentials and up to three stamps, then a set equal in
/// content to set 1 but made apart from it.
fn pool(rng: &mut Rng, distinct: usize) -> Vec<Presented> {
    let mut sets = vec![Presented::Nothing];
    for k in 1..=distinct {
        let credentials = (0..1 + rng.below(4))
            .map(|i| credential(&format!("{k}.{i}")))
            .collect();
        let stamps = (0..rng.below(4))
            .map(|i| stamp(&format!("{k}.{i}")))
            .collect();
        sets.push(Presented::new(credentials, stamps));
    }
    let twin = Presented::new(sets[1].credentials().to_vec(), sets[1].stamps().to_vec());
    sets.push(twin);
    sets
}

/// The principal whose requests present set `k` of the pool.
fn principal(k: usize) -> String {
    format!("Kset{k}")
}

fn request(op_id: u64, k: usize, set: &Presented, args: Vec<Value>) -> ScheduleRequest {
    ScheduleRequest {
        op_id,
        action: action(),
        user: "worker".into(),
        principal: principal(k),
        master_key: "Kmaster".to_string(),
        presented: set.clone(),
        args,
    }
}

/// `request` as the serving side decodes its inline frame.
fn inline_decoded(request: &ScheduleRequest) -> ScheduleRequest {
    let frame = encode_frame(&WireRequest::Schedule(Box::new(request.clone()))).unwrap();
    match decode_frame::<WireRequest>(&frame).unwrap() {
        WireRequest::Schedule(decoded) => *decoded,
        other => panic!("unexpected frame {other:?}"),
    }
}

/// A stack layer recording every context it decides; it grants only a
/// context presenting exactly the set its principal stands for.
struct Recorder {
    expected: HashMap<String, Presented>,
    seen: Mutex<Vec<AuthzContext>>,
}

impl AuthzLayer for Recorder {
    fn level(&self) -> LayerLevel {
        LayerLevel::L3Application
    }

    fn name(&self) -> String {
        "recorder".to_string()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        self.seen.lock().unwrap().push(ctx.clone());
        match self.expected.get(&ctx.principal) {
            Some(set) if *set == ctx.presented => Verdict::Grant,
            _ => Verdict::Deny(format!("{} presented the wrong set", ctx.principal)),
        }
    }
}

/// A client transport a peer master dispatches to: records each request
/// it is handed and answers it with the sum of its operands.
#[derive(Default)]
struct RecordingClient {
    seen: Mutex<Vec<ScheduleRequest>>,
}

impl ClientTransport for RecordingClient {
    fn call(
        &self,
        request: &ScheduleRequest,
        _timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        self.seen.lock().unwrap().push(request.clone());
        Ok(ScheduleReply {
            op_id: request.op_id,
            client: "recorder".to_string(),
            outcome: ExecOutcome::Ok(sum(&request.args)),
            replayed: false,
        })
    }
}

fn sum(args: &[Value]) -> Value {
    Value::Int(args.iter().filter_map(Value::as_int).sum())
}

/// Random requests for one caller: each round a batch of one to five
/// requests, each presenting a random set of the pool.
fn rounds(rng: &mut Rng, pool: &[Presented], caller: u64) -> Vec<Vec<ScheduleRequest>> {
    let mut next = caller * 1_000_000;
    (0..12)
        .map(|_| {
            (0..1 + rng.below(5))
                .map(|_| {
                    next += 1;
                    let k = rng.below(pool.len());
                    let args = vec![Value::Int(next as i64), Value::Int(k as i64)];
                    request(next, k, &pool[k], args)
                })
                .collect()
        })
        .collect()
}

#[test]
fn requests_by_reference_equal_their_inline_decoding() {
    const SEEDS: u64 = 8;
    const CALLERS: u64 = 3;
    let base = 0x5E75_0000_u64;
    println!("presented_sets seeds {base:#x}..{:#x}", base + SEEDS);
    for seed in base..base + SEEDS {
        let mut rng = Rng::new(seed);
        let pool = pool(&mut rng, SET_TABLE_CAPACITY + 8);
        let work: Vec<Vec<Vec<ScheduleRequest>>> =
            (1..=CALLERS).map(|c| rounds(&mut rng, &pool, c)).collect();
        let originals: HashMap<u64, ScheduleRequest> = work
            .iter()
            .flatten()
            .flatten()
            .map(|r| (r.op_id, inline_decoded(r)))
            .collect();

        // Client framing: batches over one MuxTransport into serve_tcp.
        let recorder = Arc::new(Recorder {
            expected: (0..pool.len())
                .map(|k| (principal(k), pool[k].clone()))
                .collect(),
            seen: Mutex::new(Vec::new()),
        });
        let mut stack = AuthzStack::new();
        stack.push(Arc::clone(&recorder) as Arc<dyn AuthzLayer>);
        let engine = Arc::new(ClientEngine::new(ClientConfig {
            name: "c1".to_string(),
            key_text: "Kc1".to_string(),
            master_trust: tm("Kmaster"),
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        }));
        let server = serve_tcp_with(
            engine,
            vec!["Dom".into()],
            "127.0.0.1:0",
            ServeOptions { pipeline: 4 },
        )
        .unwrap();
        let transport = MuxTransport::new(server.local_addr()).with_window(8);
        std::thread::scope(|s| {
            for caller in &work {
                let transport = &transport;
                s.spawn(move || {
                    for round in caller {
                        let refs: Vec<&ScheduleRequest> = round.iter().collect();
                        for (r, reply) in round.iter().zip(transport.call_batch(&refs, TIMEOUT)) {
                            let reply = reply.unwrap_or_else(|e| {
                                panic!("seed {seed:#x}: op {} failed: {e:?}", r.op_id)
                            });
                            assert_eq!(
                                reply.outcome,
                                ExecOutcome::Ok(sum(&r.args)),
                                "seed {seed:#x}: op {} ({})",
                                r.op_id,
                                r.principal
                            );
                        }
                    }
                });
            }
        });
        let seen = recorder.seen.lock().unwrap();
        assert!(!seen.is_empty(), "seed {seed:#x}");
        for ctx in seen.iter() {
            let k: usize = ctx.principal["Kset".len()..].parse().unwrap();
            let original = originals
                .values()
                .find(|r| r.principal == ctx.principal)
                .unwrap_or_else(|| panic!("seed {seed:#x}: no request for {}", ctx.principal));
            assert_eq!(
                (&ctx.user, &ctx.action, &ctx.presented),
                (&original.user, &original.action, &original.presented),
                "seed {seed:#x}: client framing, set {k}"
            );
            assert_eq!(ctx.presented.unresolved(), None, "seed {seed:#x}");
        }
        drop(seen);
        drop(transport);
        server.stop();

        // Peer framing: forwards over one TcpPeerLink into serve_master.
        let client = Arc::new(RecordingClient::default());
        let master = Arc::new(WebComMaster::new("Kpeer", tm("Krecorder")));
        master.register_transport(
            "recorder",
            "Krecorder",
            Arc::clone(&client) as Arc<dyn ClientTransport>,
            vec!["Dom".into()],
        );
        let peer = serve_master(Arc::clone(&master), "127.0.0.1:0").unwrap();
        let link = TcpPeerLink::new(peer.local_addr());
        std::thread::scope(|s| {
            for caller in &work {
                let link = &link;
                s.spawn(move || {
                    for r in caller.iter().flatten() {
                        let reply = link.forward(r, 1, TIMEOUT).unwrap_or_else(|e| {
                            panic!("seed {seed:#x}: op {} failed: {e:?}", r.op_id)
                        });
                        assert_eq!(
                            reply.outcome,
                            ExecOutcome::Ok(sum(&r.args)),
                            "seed {seed:#x}: forward {}",
                            r.op_id
                        );
                    }
                });
            }
        });
        let seen = client.seen.lock().unwrap();
        assert_eq!(seen.len(), originals.len(), "seed {seed:#x}");
        for got in seen.iter() {
            assert_eq!(got, &originals[&got.op_id], "seed {seed:#x}: peer framing");
            assert_eq!(got.presented.unresolved(), None, "seed {seed:#x}");
        }
        drop(seen);
        drop(link);
        peer.stop();
    }
}

/// The frames crossing one proxied connection toward the server: the
/// size of each, and whether it defined a set.
#[derive(Default)]
struct Crossed {
    requests: Vec<usize>,
    definitions: usize,
}

/// A loopback proxy to `upstream` that records the frames each
/// connection carries toward it, and can cut every connection.
struct Proxy {
    addr: SocketAddr,
    crossed: Arc<Mutex<Crossed>>,
    live: Arc<Mutex<Vec<TcpStream>>>,
}

impl Proxy {
    fn to(upstream: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let crossed = Arc::new(Mutex::new(Crossed::default()));
        let live = Arc::new(Mutex::new(Vec::new()));
        let (proxy_crossed, proxy_live) = (Arc::clone(&crossed), Arc::clone(&live));
        std::thread::spawn(move || {
            for downstream in listener.incoming() {
                let Ok(downstream) = downstream else { return };
                let up = TcpStream::connect(upstream).unwrap();
                // Each frame goes on in two writes: without TCP_NODELAY the
                // second waits out the peer's delayed ACK.
                downstream.set_nodelay(true).unwrap();
                up.set_nodelay(true).unwrap();
                proxy_live
                    .lock()
                    .unwrap()
                    .extend([downstream.try_clone().unwrap(), up.try_clone().unwrap()]);
                let (mut from, mut to) = (downstream.try_clone().unwrap(), up.try_clone().unwrap());
                let crossed = Arc::clone(&proxy_crossed);
                std::thread::spawn(move || while pass_frame(&mut from, &mut to, &crossed) {});
                let (mut back, mut down) = (up, downstream);
                std::thread::spawn(move || std::io::copy(&mut back, &mut down));
            }
        });
        Proxy {
            addr,
            crossed,
            live,
        }
    }

    /// Severs every connection made so far.
    fn cut(&self) {
        for stream in self.live.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Passes one frame on, recording it; false once either side is gone.
fn pass_frame(from: &mut TcpStream, to: &mut TcpStream, crossed: &Mutex<Crossed>) -> bool {
    let mut len = [0u8; 4];
    if from.read_exact(&mut len).is_err() {
        return false;
    }
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    if from.read_exact(&mut body).is_err() {
        return false;
    }
    {
        let mut crossed = crossed.lock().unwrap();
        if body.starts_with(br#"{"DefineSet""#) {
            crossed.definitions += 1;
        } else {
            crossed.requests.push(4 + body.len());
        }
    }
    to.write_all(&len)
        .and_then(|()| to.write_all(&body))
        .is_ok()
}

fn signed_delegations(n: usize) -> Vec<Assertion> {
    let delegator = KeyPair::from_label("presented-sets-delegator");
    (0..n)
        .map(|g| {
            let mut a = Assertion::new(
                Principal::key(delegator.public().to_text()),
                LicenseeExpr::Principal(format!("Kuser{g}")),
            );
            sign_assertion(&mut a, &delegator).expect("delegation signs");
            a
        })
        .collect()
}

#[test]
fn a_set_crosses_a_connection_once_and_again_after_a_cut() {
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(hetsec_webcom::TrustLayer::new(tm("Kworker"))));
    let engine = Arc::new(ClientEngine::new(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust: tm("Kmaster"),
        stack: Arc::new(stack),
        executor: Arc::new(ArithComponentExecutor),
    }));
    let server = serve_tcp(engine, vec!["Dom".into()], "127.0.0.1:0").unwrap();
    let proxy = Proxy::to(server.local_addr());
    let master = WebComMaster::new("Kmaster", tm("Kc1")).with_stamp_issuer(Arc::new(
        StampIssuer::new(KeyPair::from_label("presented-sets-master")),
    ));
    for credential in signed_delegations(8) {
        master.forward_credential(credential);
    }
    master.register_transport(
        "c1",
        "Kc1",
        Arc::new(MuxTransport::new(proxy.addr)),
        vec!["Dom".into()],
    );
    let user: User = "worker".into();
    let schedule = |i: i64| {
        master.schedule(
            &action(),
            &user,
            "Kworker",
            vec![Value::Int(i), Value::Int(1)],
        )
    };

    for i in 0..100 {
        assert_eq!(schedule(i), ExecOutcome::Ok(Value::Int(i + 1)), "op {i}");
    }
    {
        let crossed = proxy.crossed.lock().unwrap();
        assert_eq!(
            crossed.definitions, 1,
            "the 8-credential set was defined more than once"
        );
        assert_eq!(crossed.requests.len(), 100);
        let largest = crossed.requests.iter().max().unwrap();
        assert!(*largest <= 600, "a reference frame took {largest} B");
    }

    // A new connection starts both tables empty: the set is defined again.
    // With no reader between calls, the mux finds the cut on its next
    // use and fails it `Closed`; the master re-asks the same client,
    // whose next call redials.
    proxy.cut();
    assert_eq!(schedule(100), ExecOutcome::Ok(Value::Int(101)));
    assert_eq!(proxy.crossed.lock().unwrap().definitions, 2);
    server.stop();
}

/// Arithmetic that counts its invocations.
#[derive(Default)]
struct Counting(AtomicUsize);

impl ComponentExecutor for Counting {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        ArithComponentExecutor.invoke(user, component, args)
    }
}

fn counting_engine(executor: &Arc<Counting>) -> Arc<ClientEngine> {
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(hetsec_webcom::TrustLayer::new(tm("Kworker"))));
    Arc::new(ClientEngine::new(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust: tm("Kmaster"),
        stack: Arc::new(stack),
        executor: Arc::clone(executor) as Arc<dyn ComponentExecutor>,
    }))
}

fn worker_request(op_id: u64, presented: Presented) -> ScheduleRequest {
    ScheduleRequest {
        op_id,
        action: action(),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        master_key: "Kmaster".to_string(),
        presented,
        args: vec![Value::Int(20), Value::Int(22)],
    }
}

/// Writes `frames` on a fresh connection to `addr` and reads what comes
/// back: the decoded reply, or `None` once the server closes.
fn raw_exchange(addr: SocketAddr, frames: &[WireRequest]) -> Option<WireResponse> {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(TIMEOUT)).unwrap();
    for frame in frames {
        conn.write_all(&encode_frame(frame).unwrap()).unwrap();
    }
    hetsec_webcom::read_frame(&mut conn).ok()
}

#[test]
fn undefined_or_misdefined_sets_close_the_connection_with_nothing_run() {
    let executor = Arc::new(Counting::default());
    let server = serve_tcp(
        counting_engine(&executor),
        vec!["Dom".into()],
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let set = Arc::new(PresentedSet::new(
        vec![credential("raw")],
        vec![stamp("raw")],
    ));
    let id = set.id().unwrap();
    let named =
        |op_id| WireRequest::Schedule(Box::new(worker_request(op_id, Presented::Named(id))));

    // Control: the set defined, then named, runs.
    let defined = raw_exchange(
        addr,
        &[
            WireRequest::DefineSet {
                id,
                set: Arc::clone(&set),
            },
            named(1),
        ],
    );
    assert!(
        matches!(&defined, Some(WireResponse::Reply(r)) if r.outcome == ExecOutcome::Ok(Value::Int(42))),
        "{defined:?}"
    );
    assert_eq!(executor.0.load(Ordering::SeqCst), 1);

    // Named but never defined on this connection.
    assert_eq!(raw_exchange(addr, &[named(2)]), None);
    // Defined under an id that is not its content's, then named by it.
    let wrong = SetId([7; 32]);
    let misdefined = WireRequest::DefineSet {
        id: wrong,
        set: Arc::clone(&set),
    };
    let by_wrong = WireRequest::Schedule(Box::new(worker_request(3, Presented::Named(wrong))));
    assert_eq!(raw_exchange(addr, &[misdefined, by_wrong]), None);
    assert_eq!(executor.0.load(Ordering::SeqCst), 1, "a refused frame ran");

    // The listener keeps serving.
    let transport = MuxTransport::new(addr);
    let reply = transport
        .call(&worker_request(4, Presented::Set(set)), TIMEOUT)
        .unwrap();
    assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(42)));
    assert_eq!(server.served(), 2);
    server.stop();

    // Peer framing: a forward naming an undefined set reaches no client.
    let client = Arc::new(RecordingClient::default());
    let master = Arc::new(WebComMaster::new("Kpeer", tm("Krecorder")));
    master.register_transport(
        "recorder",
        "Krecorder",
        Arc::clone(&client) as Arc<dyn ClientTransport>,
        vec!["Dom".into()],
    );
    let peer = serve_master(Arc::clone(&master), "127.0.0.1:0").unwrap();
    let forward = WireRequest::Forward {
        request: Box::new(worker_request(5, Presented::Named(id))),
        hops: 1,
    };
    assert_eq!(raw_exchange(peer.local_addr(), &[forward]), None);
    assert!(client.seen.lock().unwrap().is_empty());
    assert_eq!(master.stats().forward_received, 0);
    peer.stop();
}

#[test]
fn an_unresolved_set_fails_closed_at_the_client_and_the_mux() {
    let executor = Arc::new(Counting::default());
    let engine = counting_engine(&executor);
    let unresolved = worker_request(1, Presented::Named(SetId([3; 32])));
    match engine.handle(&unresolved).outcome {
        ExecOutcome::Failed(e) => assert_eq!(e.kind, ExecErrorKind::Protocol, "{e:?}"),
        other => panic!("an unresolved set was not refused: {other:?}"),
    }
    assert_eq!(executor.0.load(Ordering::SeqCst), 0);

    // A mux refuses to send it, and the connection carries on.
    let server = serve_tcp(engine, vec!["Dom".into()], "127.0.0.1:0").unwrap();
    let transport = MuxTransport::new(server.local_addr());
    let err = transport.call(&unresolved, TIMEOUT).unwrap_err();
    assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
    let reply = transport
        .call(&worker_request(2, Presented::Nothing), TIMEOUT)
        .unwrap();
    assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(42)));
    assert_eq!(executor.0.load(Ordering::SeqCst), 1);
    server.stop();
}
