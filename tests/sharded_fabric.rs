//! The sharded multi-master fabric and the pipelined mux transport
//! (PR 8): out-of-order reply correlation, interleaved bursts, reader
//! death mid-window, cross-shard forwarding, and the hop guard.

use hetsec_graphs::Value;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use hetsec_suite::Rng;
use hetsec_webcom::wire::{read_frame, write_frame};
use hetsec_webcom::{
    principal_key, serve_master, serve_tcp_with, spawn_client, synthetic_stack,
    ArithComponentExecutor, BurstOp, ClientConfig, ClientEngine, ClientTransport, ComponentExecutor,
    ExecError, ExecErrorKind, ExecOutcome, LocalPeerLink, MasterServer, MuxTransport, PeerLink,
    Presented, ScheduleReply, ScheduleRequest, ScheduledAction, ServeOptions, ShardInfo, ShardRing,
    ShardRouter, SleepingExecutor, TcpClientServer, TcpPeerLink, TransportError, TrustManager,
    WebComMaster, WireRequest, WireResponse, MAX_FORWARD_HOPS,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn trust(keys: &[&str]) -> Arc<TrustManager> {
    let tm = TrustManager::permissive();
    for k in keys {
        tm.add_policy(&format!(
            "Authorizer: POLICY\nLicensees: \"{k}\"\nConditions: app_domain==\"WebCom\";\n"
        ))
        .expect("test policy parses");
    }
    Arc::new(tm)
}

fn add_component() -> ComponentRef {
    ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add")
}

fn op(principal: String, args: Vec<i64>) -> BurstOp {
    BurstOp {
        action: ScheduledAction::new(add_component(), "Dom", "Worker"),
        user: "worker".into(),
        principal,
        args: args.into_iter().map(Value::Int).collect(),
    }
}

/// Sleeps `args[1]` milliseconds, then delegates to the arithmetic
/// executor; records `args[0]` in completion order so tests can see
/// which op the server finished first.
struct VariableSleepExecutor {
    completions: Arc<Mutex<Vec<i64>>>,
}

impl ComponentExecutor for VariableSleepExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        if let Some(Value::Int(ms)) = args.get(1) {
            std::thread::sleep(Duration::from_millis(*ms as u64));
        }
        let result = ArithComponentExecutor.invoke(user, component, args);
        if let Some(Value::Int(tag)) = args.first() {
            self.completions.lock().unwrap().push(*tag);
        }
        result
    }
}

/// One master + one TCP serving client on a pipelined connection,
/// reached over the mux transport.
fn mux_fabric(
    window: usize,
    executor: Arc<dyn ComponentExecutor>,
) -> (Arc<WebComMaster>, TcpClientServer) {
    let stack = synthetic_stack(4);
    let engine = Arc::new(ClientEngine::new(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust: trust(&["Km"]),
        stack,
        executor,
    }));
    let server = serve_tcp_with(
        engine,
        vec!["Dom".into()],
        "127.0.0.1:0",
        ServeOptions { pipeline: 8 },
    )
    .expect("serve mux test client");
    let master = WebComMaster::new("Km".to_string(), trust(&["Kc1"]))
        .with_op_timeout(Duration::from_secs(10));
    let transport: Arc<dyn ClientTransport> =
        Arc::new(MuxTransport::new(server.local_addr()).with_window(window));
    master.register_transport("c1", "Kc1", transport, vec!["Dom".into()]);
    (Arc::new(master), server)
}

#[test]
fn mux_correlates_out_of_order_replies() {
    let completions = Arc::new(Mutex::new(Vec::new()));
    let (master, server) = mux_fabric(
        8,
        Arc::new(VariableSleepExecutor {
            completions: Arc::clone(&completions),
        }),
    );
    // Op 0 is slow (300 ms), op 1 fast (10 ms): with both pipelined
    // down one socket, op 1's reply arrives first and must still land
    // with op 1's caller.
    let outcomes = master.schedule_burst(vec![
        op(principal_key(0), vec![1000, 300]),
        op(principal_key(1), vec![2000, 10]),
    ]);
    assert_eq!(
        outcomes,
        vec![
            ExecOutcome::Ok(Value::Int(1300)),
            ExecOutcome::Ok(Value::Int(2010)),
        ]
    );
    let order = completions.lock().unwrap().clone();
    assert_eq!(
        order,
        vec![2000, 1000],
        "fast op should complete before the slow one (replies out of order)"
    );
    server.stop();
}

#[test]
fn interleaved_bursts_from_two_callers_stay_correlated() {
    let completions = Arc::new(Mutex::new(Vec::new()));
    let (master, server) = mux_fabric(
        4,
        Arc::new(VariableSleepExecutor {
            completions: Arc::clone(&completions),
        }),
    );
    let a = Arc::clone(&master);
    let b = Arc::clone(&master);
    let (outs_a, outs_b) = std::thread::scope(|s| {
        let ha = s.spawn(move || {
            a.schedule_burst((0..10).map(|i| op(principal_key(0), vec![1000 + i, 1])).collect())
        });
        let hb = s.spawn(move || {
            b.schedule_burst((0..10).map(|i| op(principal_key(1), vec![2000 + i, 1])).collect())
        });
        (ha.join().unwrap(), hb.join().unwrap())
    });
    for (i, out) in outs_a.iter().enumerate() {
        assert_eq!(*out, ExecOutcome::Ok(Value::Int(1000 + i as i64 + 1)), "caller A op {i}");
    }
    for (i, out) in outs_b.iter().enumerate() {
        assert_eq!(*out, ExecOutcome::Ok(Value::Int(2000 + i as i64 + 1)), "caller B op {i}");
    }
    assert_eq!(completions.lock().unwrap().len(), 20);
    server.stop();
}

fn raw_request(op_id: u64) -> ScheduleRequest {
    ScheduleRequest {
        op_id,
        action: ScheduledAction::new(add_component(), "Dom", "Worker"),
        user: "worker".into(),
        principal: principal_key(0),
        master_key: "Km".to_string(),
        presented: Presented::default(),
        args: vec![Value::Int(1), Value::Int(2)],
    }
}

/// Accepts one connection, reads `swallow` frames without ever
/// replying, then severs the connection.
fn swallowing_server(listener: TcpListener, swallow: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept mux victim");
        for _ in 0..swallow {
            let _ = read_frame::<WireRequest, _>(&mut stream);
        }
        // Dropping the stream EOFs the mux reader mid-window.
    })
}

/// Accepts connections and answers every Schedule frame correctly.
fn echoing_server(listener: TcpListener) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        // One connection is all the test needs.
        if let Ok((mut stream, _)) = listener.accept() {
            while let Ok(frame) = read_frame::<WireRequest, _>(&mut stream) {
                if let WireRequest::Schedule(req) = frame {
                    let reply = WireResponse::Reply(ScheduleReply {
                        op_id: req.op_id,
                        client: "echo".to_string(),
                        outcome: ExecOutcome::Ok(Value::Int(42)),
                        replayed: false,
                    });
                    if write_frame(&mut stream, &reply).is_err() {
                        break;
                    }
                }
            }
        }
    })
}

#[test]
fn reader_death_fails_pending_ops_retryably_and_drains_the_window() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind victim listener");
    let addr: SocketAddr = listener.local_addr().unwrap();
    let victim = swallowing_server(listener, 2);

    let transport = Arc::new(MuxTransport::new(addr).with_window(2));
    // Fill the whole window with ops the server will never answer.
    let failures: Vec<TransportError> = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=2u64)
            .map(|id| {
                let t = Arc::clone(&transport);
                s.spawn(move || t.call(&raw_request(id), Duration::from_secs(10)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap().expect_err("op should fail when the reader dies"))
            .collect()
    });
    victim.join().unwrap();
    for err in &failures {
        assert!(
            matches!(err, TransportError::Closed(_)),
            "pending ops must fail retryably (Closed), got {err:?}"
        );
    }

    // The window drained and the transport reconnects: a fresh server
    // on the same address serves the full window again.
    let listener = TcpListener::bind(addr).expect("rebind as echo server");
    let echo = echoing_server(listener);
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = (3..=4u64)
            .map(|id| {
                let t = Arc::clone(&transport);
                s.spawn(move || t.call(&raw_request(id), Duration::from_secs(10)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, out) in outcomes.iter().enumerate() {
        let reply = out.as_ref().expect("reconnected call succeeds");
        assert_eq!(reply.op_id, 3 + i as u64);
        assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(42)));
    }
    drop(transport); // severs the connection; the echo server exits
    echo.join().unwrap();
}

/// Records which shard executed which op tag (`args[0]`).
struct ShardTaggingExecutor {
    shard: usize,
    log: Arc<Mutex<Vec<(usize, i64)>>>,
}

impl ComponentExecutor for ShardTaggingExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        if let Some(Value::Int(tag)) = args.first() {
            self.log.lock().unwrap().push((self.shard, *tag));
        }
        ArithComponentExecutor.invoke(user, component, args)
    }
}

/// Per-(shard, op-tag) execution log shared with every [`ShardTaggingExecutor`].
type ShardLog = Arc<Mutex<Vec<(usize, i64)>>>;

/// An in-process 3-shard fabric whose executors tag every execution
/// with their shard id.
fn tagging_fabric(shards: usize) -> (ShardRouter, ShardLog, Vec<hetsec_webcom::ClientHandle>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let stack = synthetic_stack(50);
    let master_keys: Vec<String> = (0..shards).map(|s| format!("Km{s}")).collect();
    let master_key_refs: Vec<&str> = master_keys.iter().map(String::as_str).collect();
    let mut masters = Vec::new();
    let mut handles = Vec::new();
    for (s, master_key) in master_keys.iter().enumerate() {
        let client_key = format!("Kc{s}");
        let handle = hetsec_webcom::spawn_client(ClientConfig {
            name: format!("c{s}"),
            key_text: client_key.clone(),
            // Forwarded requests carry the *origin* master's key, so
            // every client trusts the whole master fleet.
            master_trust: trust(&master_key_refs),
            stack: Arc::clone(&stack),
            executor: Arc::new(ShardTaggingExecutor {
                shard: s,
                log: Arc::clone(&log),
            }),
        });
        let master = WebComMaster::new(master_key.clone(), trust(&[client_key.as_str()]))
            .with_op_timeout(Duration::from_secs(10));
        master.register_client(&handle, vec!["Dom".into()]);
        masters.push(Arc::new(master));
        handles.push(handle);
    }
    (ShardRouter::local(masters), log, handles)
}

/// Property test (deterministic seeded cases, like `tests/properties.rs`):
/// driving every op through
/// shard 0's master, regardless of which shard owns its principal, must
/// land each op on its home shard exactly once via peer forwarding.
#[test]
fn every_op_lands_on_its_home_shard_exactly_once() {
    let mut rng = Rng::new(0x5EED_FAB5);
    for case in 0..8 {
        let ranks: Vec<usize> = (0..1 + rng.below(23)).map(|_| rng.below(50)).collect();
        let (router, log, handles) = tagging_fabric(3);
        let ops: Vec<BurstOp> = ranks
            .iter()
            .enumerate()
            .map(|(i, &rank)| op(principal_key(rank), vec![i as i64, 1]))
            .collect();
        let outcomes = router.masters()[0].schedule_burst(ops);
        for (i, out) in outcomes.iter().enumerate() {
            assert_eq!(
                *out,
                ExecOutcome::Ok(Value::Int(i as i64 + 1)),
                "case {case}: op {i} failed (ranks {ranks:?})"
            );
        }
        let executed = log.lock().unwrap().clone();
        assert_eq!(
            executed.len(),
            ranks.len(),
            "case {case}: each op executes exactly once (ranks {ranks:?})"
        );
        let by_tag: HashMap<i64, usize> = executed.iter().map(|&(s, t)| (t, s)).collect();
        assert_eq!(by_tag.len(), ranks.len(), "case {case}: no op executed twice");
        for (i, &rank) in ranks.iter().enumerate() {
            let home = router.ring().owner_of(&principal_key(rank));
            assert_eq!(
                by_tag[&(i as i64)],
                home,
                "case {case}: op {i} (principal rank {rank}) executed off its home shard"
            );
        }
        // Off-shard ops really did go through the forward path.
        let off_shard = ranks
            .iter()
            .filter(|&&r| router.ring().owner_of(&principal_key(r)) != 0)
            .count();
        assert_eq!(router.masters()[0].stats().forwarded, off_shard, "case {case}");
        for h in handles {
            h.shutdown();
        }
    }
}

#[test]
fn hop_guard_trips_on_ring_disagreement() {
    // Two masters that BOTH claim shard 1 of a two-shard ring: an op
    // owned by shard 0 bounces between them until the hop guard trips.
    let ring = Arc::new(ShardRing::new(2));
    let principal = (0..1000)
        .map(principal_key)
        .find(|p| ring.owner_of(p) == 0)
        .expect("some principal hashes to shard 0");
    let a = Arc::new(
        WebComMaster::new("Ka".to_string(), trust(&[])).with_op_timeout(Duration::from_secs(5)),
    );
    let b = Arc::new(
        WebComMaster::new("Kb".to_string(), trust(&[])).with_op_timeout(Duration::from_secs(5)),
    );
    let link = |m: &Arc<WebComMaster>, name: &str| -> HashMap<usize, Arc<dyn PeerLink>> {
        let mut peers: HashMap<usize, Arc<dyn PeerLink>> = HashMap::new();
        peers.insert(0, Arc::new(LocalPeerLink::new(m, name.to_string())));
        peers
    };
    a.set_shard(Arc::new(ShardInfo {
        ring: Arc::clone(&ring),
        shard_id: 1,
        peers: link(&b, "b"),
    }));
    b.set_shard(Arc::new(ShardInfo {
        ring: Arc::clone(&ring),
        shard_id: 1,
        peers: link(&a, "a"),
    }));
    let outcomes = a.schedule_burst(vec![op(principal, vec![1, 2])]);
    assert_eq!(outcomes.len(), 1);
    match &outcomes[0] {
        ExecOutcome::Failed(e) => assert!(
            e.detail.contains("hop limit"),
            "expected a hop-limit error, got {e:?}"
        ),
        other => panic!("expected the hop guard to fail the op, got {other:?}"),
    }
    let rejected = a.stats().forward_rejected + b.stats().forward_rejected;
    assert_eq!(rejected, 1, "exactly one master rejects at the hop limit");
    // The guard really is the configured constant, not an accident of
    // the bounce count.
    assert_eq!(MAX_FORWARD_HOPS, 3);
}

#[test]
fn peer_endpoint_answers_identify_with_a_typed_error() {
    // A master's Forward endpoint is not a serving client. A transport
    // pointed at it by mistake must get a protocol error naming the
    // mismatch — not a fabricated identity that would register the
    // master's own port as a schedulable client.
    let master = Arc::new(
        WebComMaster::new("Km".to_string(), trust(&[])).with_op_timeout(Duration::from_secs(5)),
    );
    let server = hetsec_webcom::serve_master(Arc::clone(&master), "127.0.0.1:0")
        .expect("bind master peer endpoint");
    let transport = hetsec_webcom::MuxTransport::new(server.local_addr());
    match transport.identify(Duration::from_secs(5)) {
        Err(TransportError::Protocol(detail)) => assert!(
            detail.contains("master-to-master"),
            "error should name the endpoint mismatch, got {detail:?}"
        ),
        other => panic!("expected a typed protocol error, got {other:?}"),
    }
    server.stop();
}

/// Counts completions across an atomic: with a window of 8 on a
/// pipelined server, the service times of a burst overlap.
#[test]
fn mux_keeps_the_window_full_under_load() {
    let served = Arc::new(AtomicUsize::new(0));
    struct Counting {
        served: Arc<AtomicUsize>,
    }
    impl ComponentExecutor for Counting {
        fn invoke(
            &self,
            user: &User,
            component: &ComponentRef,
            args: &[Value],
        ) -> Result<Value, ExecError> {
            std::thread::sleep(Duration::from_millis(2));
            self.served.fetch_add(1, Ordering::SeqCst);
            ArithComponentExecutor.invoke(user, component, args)
        }
    }
    let (master, server) = mux_fabric(
        8,
        Arc::new(Counting {
            served: Arc::clone(&served),
        }),
    );
    let ops: Vec<BurstOp> = (0..32).map(|i| op(principal_key(0), vec![i, 1])).collect();
    let started = std::time::Instant::now();
    let outcomes = master.schedule_burst(ops);
    let elapsed = started.elapsed();
    assert!(outcomes.iter().all(|o| matches!(o, ExecOutcome::Ok(_))));
    assert_eq!(served.load(Ordering::SeqCst), 32);
    // 32 ops × 2 ms service, one at a time, would take ≥ 64 ms; a
    // window of 8 on a pipelined server should overlap most of it.
    assert!(
        elapsed < Duration::from_millis(64),
        "mux should overlap service time, took {elapsed:?}"
    );
    server.stop();
}

/// Two masters in separate TCP roles — each with its own pipelined mux
/// client and a peer listener — with callers on both. Forwards run in
/// both directions, so each owner's mux pending table holds its own
/// ops and the peer's forwarded ops at once; they keep their origin's
/// op id, so the ids must never collide across the ring. Every op must
/// come back `Ok(i + 1)`; none may be lost or handed to another caller.
#[test]
fn callers_on_both_masters_never_collide_on_op_ids() {
    const SHARDS: usize = 2;
    const CALLERS_PER_MASTER: usize = 3;
    const OPS_PER_CALLER: i64 = 60;
    let mut servers = Vec::new();
    let mut masters = Vec::new();
    for s in 0..SHARDS {
        let engine = Arc::new(ClientEngine::new(ClientConfig {
            name: format!("c{s}"),
            key_text: format!("Kc{s}"),
            master_trust: trust(&["Km0", "Km1"]),
            stack: synthetic_stack(64),
            executor: Arc::new(SleepingExecutor::new(Duration::from_millis(2))),
        }));
        let server = serve_tcp_with(
            engine,
            vec!["Dom".into()],
            "127.0.0.1:0",
            ServeOptions { pipeline: 8 },
        )
        .expect("serve shard client");
        let master = WebComMaster::new(format!("Km{s}"), trust(&["Kc0", "Kc1"]))
            .with_op_timeout(Duration::from_secs(10));
        let transport: Arc<dyn ClientTransport> = Arc::new(MuxTransport::new(server.local_addr()));
        master.register_transport(format!("c{s}"), format!("Kc{s}"), transport, vec!["Dom".into()]);
        servers.push(server);
        masters.push(Arc::new(master));
    }
    let peer_servers: Vec<_> = masters
        .iter()
        .map(|m| serve_master(Arc::clone(m), "127.0.0.1:0").expect("serve peer port"))
        .collect();
    let ring = Arc::new(ShardRing::new(SHARDS));
    for (s, m) in masters.iter().enumerate() {
        let peer = 1 - s;
        let link: Arc<dyn PeerLink> = Arc::new(TcpPeerLink::new(peer_servers[peer].local_addr()));
        m.set_shard(Arc::new(ShardInfo {
            ring: Arc::clone(&ring),
            shard_id: s,
            peers: HashMap::from([(peer, link)]),
        }));
    }
    let failures: Vec<String> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..SHARDS * CALLERS_PER_MASTER)
            .map(|c| {
                let master = Arc::clone(&masters[c % SHARDS]);
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for k in 0..OPS_PER_CALLER {
                        let i = c as i64 * 1000 + k;
                        let principal = principal_key((i % 64) as usize);
                        let outcome =
                            master.schedule_burst(vec![op(principal, vec![i, 1])]).remove(0);
                        if outcome != ExecOutcome::Ok(Value::Int(i + 1)) {
                            failures.push(format!("caller {c} op {i}: {outcome:?}"));
                        }
                    }
                    failures
                })
            })
            .collect();
        callers.into_iter().flat_map(|h| h.join().expect("caller thread")).collect()
    });
    assert!(failures.is_empty(), "{} ops failed: {:#?}", failures.len(), failures);
    let forwards: Vec<usize> = peer_servers.iter().map(|p| p.forwards()).collect();
    assert!(
        forwards.iter().all(|&f| f > 0),
        "forwards must run in both directions: {forwards:?}"
    );
    for p in peer_servers {
        p.stop();
    }
    for s in servers {
        s.stop();
    }
}

/// Holds each op until `parties` ops are inside it at once, or the test
/// [opens](Rendezvous::open) it, for at most `hold`; records whether an
/// op was let go by that timeout instead.
struct Rendezvous {
    parties: usize,
    hold: Duration,
    /// Ops that have arrived, and whether the test opened the gate.
    state: Mutex<(usize, bool)>,
    changed: Condvar,
    timed_out: AtomicBool,
}

impl Rendezvous {
    fn new(parties: usize, hold: Duration) -> Arc<Self> {
        Arc::new(Rendezvous {
            parties,
            hold,
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
            timed_out: AtomicBool::new(false),
        })
    }

    /// Waits up to 5 s for an op to arrive; true if one did.
    fn wait_for_arrival(&self) -> bool {
        let state = self.state.lock().unwrap();
        !self
            .changed
            .wait_timeout_while(state, Duration::from_secs(5), |(arrived, _)| *arrived == 0)
            .unwrap()
            .1
            .timed_out()
    }

    /// Lets every held op go.
    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.changed.notify_all();
    }
}

impl ComponentExecutor for Rendezvous {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let mut state = self.state.lock().unwrap();
        state.0 += 1;
        self.changed.notify_all();
        let timed_out = self
            .changed
            .wait_timeout_while(state, self.hold, |(arrived, open)| {
                *arrived < self.parties && !*open
            })
            .unwrap()
            .1
            .timed_out();
        if timed_out {
            self.timed_out.store(true, Ordering::SeqCst);
        }
        ArithComponentExecutor.invoke(user, component, args)
    }
}

/// Master `Km{s}` of a two-shard fabric, with one pipelined TCP client
/// `c{s}` running `executor` behind a mux transport. The client trusts
/// both masters, since a forwarded op carries its origin master's key.
fn tcp_shard_master(
    s: usize,
    executor: Arc<dyn ComponentExecutor>,
) -> (Arc<WebComMaster>, TcpClientServer) {
    let engine = Arc::new(ClientEngine::new(ClientConfig {
        name: format!("c{s}"),
        key_text: format!("Kc{s}"),
        master_trust: trust(&["Km0", "Km1"]),
        stack: synthetic_stack(64),
        executor,
    }));
    let server = serve_tcp_with(
        engine,
        vec!["Dom".into()],
        "127.0.0.1:0",
        ServeOptions { pipeline: 8 },
    )
    .expect("serve shard client");
    let master = WebComMaster::new(format!("Km{s}"), trust(&[&format!("Kc{s}")]))
        .with_op_timeout(Duration::from_secs(10));
    let transport: Arc<dyn ClientTransport> = Arc::new(MuxTransport::new(server.local_addr()));
    master.register_transport(format!("c{s}"), format!("Kc{s}"), transport, vec!["Dom".into()]);
    (Arc::new(master), server)
}

/// A request owned by shard 1 of a two-shard ring, from master `Km0`.
fn request_for_shard_1(op_id: u64) -> ScheduleRequest {
    let ring = ShardRing::new(2);
    let principal = (0..64)
        .map(principal_key)
        .find(|p| ring.owner_of(p) == 1)
        .expect("some principal hashes to shard 1");
    ScheduleRequest {
        principal,
        master_key: "Km0".to_string(),
        ..raw_request(op_id)
    }
}

/// Two callers on master 0 forward an op each to shard 1 over one
/// `TcpPeerLink`. The owner's executor lets neither go until both are
/// inside it, so both forwards must be in flight on the link, and
/// served by the peer listener, at the same time. Over a link that
/// holds one forward at a time, the first waits out the rendezvous.
#[test]
fn two_forwards_are_in_flight_on_one_tcp_peer_link() {
    let rendezvous = Rendezvous::new(2, Duration::from_secs(5));
    let (entry, entry_client) = tcp_shard_master(0, Arc::new(ArithComponentExecutor));
    let (owner, owner_client) = tcp_shard_master(1, Arc::clone(&rendezvous) as _);
    let masters = [entry, owner];
    let peer_servers: Vec<MasterServer> = masters
        .iter()
        .map(|m| serve_master(Arc::clone(m), "127.0.0.1:0").expect("serve peer port"))
        .collect();
    let ring = Arc::new(ShardRing::new(2));
    for (s, m) in masters.iter().enumerate() {
        let link: Arc<dyn PeerLink> = Arc::new(TcpPeerLink::new(peer_servers[1 - s].local_addr()));
        m.set_shard(Arc::new(ShardInfo {
            ring: Arc::clone(&ring),
            shard_id: s,
            peers: HashMap::from([(1 - s, link)]),
        }));
    }
    let owned: Vec<String> = (0..64)
        .map(principal_key)
        .filter(|p| ring.owner_of(p) == 1)
        .take(2)
        .collect();
    let outcomes: Vec<ExecOutcome> = std::thread::scope(|scope| {
        let callers: Vec<_> = owned
            .iter()
            .enumerate()
            .map(|(i, principal)| {
                let entry = &masters[0];
                scope.spawn(move || {
                    entry.schedule_burst(vec![op(principal.clone(), vec![i as i64, 1])]).remove(0)
                })
            })
            .collect();
        callers.into_iter().map(|c| c.join().expect("caller thread")).collect()
    });
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(*outcome, ExecOutcome::Ok(Value::Int(i as i64 + 1)), "caller {i}");
    }
    assert!(
        !rendezvous.timed_out.load(Ordering::SeqCst),
        "the two forwards were never in flight at once"
    );
    assert_eq!(peer_servers[1].forwards(), 2);
    for p in peer_servers {
        p.stop();
    }
    entry_client.stop();
    owner_client.stop();
}

/// A peer master stopped while a forward runs on it fails that forward
/// at once as a lost connection — retryable — not at its deadline.
#[test]
fn a_peer_stopped_mid_forward_fails_it_as_retryable_closed() {
    let gate = Rendezvous::new(usize::MAX, Duration::from_secs(10));
    let (owner, owner_client) = tcp_shard_master(1, Arc::clone(&gate) as _);
    let server = serve_master(owner, "127.0.0.1:0").expect("serve peer port");
    let link = TcpPeerLink::new(server.local_addr());
    let request = request_for_shard_1(1);
    let deadline = Duration::from_secs(5);
    let (result, elapsed) = std::thread::scope(|scope| {
        let forward = scope.spawn(|| {
            let started = Instant::now();
            (link.forward(&request, 1, deadline), started.elapsed())
        });
        assert!(gate.wait_for_arrival(), "the forward never reached the owner's client");
        server.stop();
        let outcome = forward.join().expect("forwarding thread");
        gate.open();
        outcome
    });
    match result {
        Err(e @ TransportError::Closed(_)) => assert!(e.to_exec_error().retryable),
        other => panic!("expected a retryable Closed, got {other:?}"),
    }
    assert!(elapsed < deadline / 2, "failed after {elapsed:?} of a {deadline:?} deadline");
    owner_client.stop();
}

/// A peer that accepts the connection and never answers costs each
/// forward its budget, as a timeout. A second forward with the same op
/// id also times out rather than being refused as a duplicate: the
/// first one's pending entry was withdrawn.
#[test]
fn a_silent_peer_times_forwards_out_and_leaves_no_pending_entry() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent peer");
    let link = TcpPeerLink::new(listener.local_addr().unwrap());
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let silent = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept the link");
        let _ = done_rx.recv();
        drop(stream);
    });
    let budget = Duration::from_millis(300);
    let request = request_for_shard_1(7);
    for attempt in 1..=2 {
        let started = Instant::now();
        let result = link.forward(&request, 1, budget);
        let elapsed = started.elapsed();
        assert!(
            matches!(result, Err(TransportError::Timeout(_))),
            "forward {attempt}: expected a timeout, got {result:?}"
        );
        assert!(
            elapsed < budget + Duration::from_millis(100),
            "forward {attempt} took {elapsed:?} on a {budget:?} budget"
        );
    }
    drop(link);
    done_tx.send(()).unwrap();
    silent.join().unwrap();
}

/// `hop_guard_trips_on_ring_disagreement` over TCP peer links: A and B
/// both claim shard 1, so an op owned by shard 0 goes A → B → A → B. The
/// third forward leaves A on the A → B link while the first, from A's
/// own caller, still waits there for its reply under the same op id. The
/// link's mux refuses it as a duplicate op before it reaches B's hop
/// guard; A reads that refusal as the op bouncing, counts it in
/// `forward_rejected` and fails it as the hop guard would, naming the
/// disagreement. The op ends at once, as a protocol failure, and no
/// client runs it.
#[test]
fn ring_disagreement_over_tcp_peer_links_fails_fast_and_typed() {
    let ring = Arc::new(ShardRing::new(2));
    let principal = (0..64)
        .map(principal_key)
        .find(|p| ring.owner_of(p) == 0)
        .expect("some principal hashes to shard 0");
    let log: ShardLog = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    let mut masters = Vec::new();
    for (s, key) in ["Ka", "Kb"].into_iter().enumerate() {
        let handle = spawn_client(ClientConfig {
            name: format!("c{s}"),
            key_text: format!("Kc{s}"),
            master_trust: trust(&["Ka", "Kb"]),
            stack: synthetic_stack(64),
            executor: Arc::new(ShardTaggingExecutor {
                shard: s,
                log: Arc::clone(&log),
            }),
        });
        let master = WebComMaster::new(key.to_string(), trust(&[&format!("Kc{s}")]))
            .with_op_timeout(Duration::from_secs(5));
        master.register_client(&handle, vec!["Dom".into()]);
        masters.push(Arc::new(master));
        handles.push(handle);
    }
    let servers: Vec<MasterServer> = masters
        .iter()
        .map(|m| serve_master(Arc::clone(m), "127.0.0.1:0").expect("serve peer port"))
        .collect();
    for (s, m) in masters.iter().enumerate() {
        let link: Arc<dyn PeerLink> = Arc::new(TcpPeerLink::new(servers[1 - s].local_addr()));
        m.set_shard(Arc::new(ShardInfo {
            ring: Arc::clone(&ring),
            shard_id: 1,
            peers: HashMap::from([(0, link)]),
        }));
    }
    let started = Instant::now();
    let outcome = masters[0].schedule_burst(vec![op(principal, vec![1, 2])]).remove(0);
    let elapsed = started.elapsed();
    match &outcome {
        ExecOutcome::Failed(e) => {
            assert_eq!(e.kind, ExecErrorKind::Protocol, "{e:?}");
            assert!(
                e.detail.contains("rings disagree"),
                "expected the ring disagreement named, got {e:?}"
            );
        }
        other => panic!("expected a typed failure, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(2),
        "took {elapsed:?} of a 20 s deadline (4 op timeouts)"
    );
    assert!(log.lock().unwrap().is_empty(), "a client ran a mis-routed op");
    let rejected: usize = masters.iter().map(|m| m.stats().forward_rejected).sum();
    assert!(rejected >= 1, "the bouncing op is not counted in forward_rejected");
    for server in servers {
        server.stop();
    }
    for handle in handles {
        handle.shutdown();
    }
}
