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
    principal_key, serve_master, serve_tcp_with, synthetic_stack, ArithComponentExecutor, BurstOp,
    ClientConfig, ClientEngine, ClientTransport, ComponentExecutor, ExecError, ExecOutcome,
    LocalPeerLink, MuxTransport, PeerLink, ScheduleReply, ScheduleRequest, ScheduledAction,
    ServeOptions, ShardInfo, ShardRing, ShardRouter, SleepingExecutor, TcpClientServer,
    TcpPeerLink, TransportError, TrustManager, WebComMaster, WireRequest, WireResponse,
    MAX_FORWARD_HOPS,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
        credentials: vec![],
        stamps: vec![],
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
