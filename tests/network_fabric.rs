//! Integration tests for the networked scheduling fabric: the
//! length-prefixed wire protocol, the TCP master/client pair, and the
//! master's retry/timeout/failover dispatch loop under injected faults.

use hetsec_webcom::stack::TrustLayer;
use hetsec_webcom::{
    decode_frame, encode_frame, serve_tcp, spawn_client, ArithComponentExecutor, AuthzStack,
    Binding, BreakerState, ChannelTransport, ClientConfig, ClientEngine, ClientTransport,
    ComponentExecutor, ExecError, ExecOutcome, FaultyTransport, HealthConfig, MuxTransport,
    Presented, RetryPolicy, ScheduleRequest, ScheduledAction, TcpClientServer, TrustManager,
    WebComMaster, WireError, WireRequest, WireResponse,
};
use hetsec_graphs::Value;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tm(policy: &str) -> Arc<TrustManager> {
    let t = TrustManager::permissive();
    t.add_policy(policy).unwrap();
    Arc::new(t)
}

fn config_with(name: &str, key: &str, executor: Arc<dyn ComponentExecutor>) -> ClientConfig {
    let master_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let user_tm = tm(
        "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(user_tm)));
    ClientConfig {
        name: name.to_string(),
        key_text: key.to_string(),
        master_trust,
        stack: Arc::new(stack),
        executor,
    }
}

fn engine(name: &str, key: &str) -> Arc<ClientEngine> {
    Arc::new(ClientEngine::new(config_with(
        name,
        key,
        Arc::new(ArithComponentExecutor),
    )))
}

fn serve(name: &str, key: &str) -> TcpClientServer {
    serve_tcp(engine(name, key), vec!["Dom".into()], "127.0.0.1:0").unwrap()
}

fn master_trusting(keys: &[&str]) -> WebComMaster {
    let mut policy = String::new();
    for k in keys {
        policy.push_str(&format!(
            "Authorizer: POLICY\nLicensees: \"{k}\"\nConditions: app_domain==\"WebCom\";\n\n"
        ));
    }
    let master = WebComMaster::new("Kmaster", tm(&policy))
        .with_op_timeout(Duration::from_secs(2));
    master.bind(
        "add",
        Binding {
            component: ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
            domain: "Dom".into(),
            role: "Worker".into(),
            user: "worker".into(),
            principal: "Kworker".to_string(),
        },
    );
    master
}

// ---- The acceptance scenario: a multi-op workload over TCP with an
// injected client death completes 100% via failover. ----

#[test]
fn tcp_burst_survives_client_death_mid_burst() {
    let c1 = serve("c1", "Kc1");
    let c2 = serve("c2", "Kc2");
    let master = master_trusting(&["Kc1", "Kc2"]);
    master.register_tcp(c1.local_addr()).unwrap();
    master.register_tcp(c2.local_addr()).unwrap();
    assert_eq!(master.client_names(), vec!["c1", "c2"]);

    let total = 30usize;
    let mut first = Some(c1);
    let mut completed = 0usize;
    for i in 0..total {
        if i == 10 {
            // Crash the client currently doing all the work.
            first.take().unwrap().kill();
        }
        let out = master.schedule_primitive("add", vec![Value::Int(i as i64), Value::Int(1)]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(i as i64 + 1)), "op {i}");
        completed += 1;
    }
    assert_eq!(completed, total, "every operation must complete");
    let stats = master.stats();
    assert_eq!(stats.scheduled, total);
    // Health-ordered selection may route around the dead client without
    // ever touching it (no forced failover), but nothing may be lost:
    assert_eq!(stats.unschedulable, 0, "stats: {stats:?}");
    assert_eq!(stats.exhausted, 0, "stats: {stats:?}");
    assert_eq!(stats.in_flight, 0, "gauge must return to zero");
    // Everything the dead client did not serve, the survivor did.
    assert!(c2.served() >= total - 10, "survivor served {}", c2.served());
    c2.stop();
}

#[test]
fn concurrent_masters_share_one_tcp_client() {
    let server = serve("c1", "Kc1");
    let master = Arc::new({
        let m = master_trusting(&["Kc1"]);
        m.register_tcp(server.local_addr()).unwrap();
        m
    });
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let master = Arc::clone(&master);
            std::thread::spawn(move || {
                for i in 0..10 {
                    let v = (t * 100 + i) as i64;
                    let out =
                        master.schedule_primitive("add", vec![Value::Int(v), Value::Int(1)]);
                    assert_eq!(out, ExecOutcome::Ok(Value::Int(v + 1)));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let stats = master.stats();
    assert_eq!(stats.scheduled, 40);
    assert_eq!(stats.in_flight, 0);
    assert_eq!(server.served(), 40);
    server.stop();
}

#[test]
fn delayed_transport_times_out_and_fails_over() {
    // c1 is reachable but slow (every call delayed past the deadline);
    // c2 is healthy. The master must count the timeout and reschedule.
    let c2 = serve("c2", "Kc2");
    let master = WebComMaster::new("Kmaster", tm(
        "Authorizer: POLICY\nLicensees: \"Kc1\"\nConditions: app_domain==\"WebCom\";\n\n\
         Authorizer: POLICY\nLicensees: \"Kc2\"\nConditions: app_domain==\"WebCom\";\n",
    ))
    .with_op_timeout(Duration::from_millis(50))
    // One attempt per client pins the counters: exactly one timeout on
    // the slow client, then one failover.
    .with_retry_policy(RetryPolicy::none());
    // The injected delay exceeds the deadline, so the wrapped transport
    // is never consulted — any peer address will do.
    let slow = FaultyTransport::new(MuxTransport::new(c2.local_addr()));
    slow.set_delay(Duration::from_millis(80));
    master.register_transport("slow", "Kc1", Arc::new(slow), vec!["Dom".into()]);
    master.register_tcp(c2.local_addr()).unwrap();
    master.bind(
        "add",
        Binding {
            component: ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
            domain: "Dom".into(),
            role: "Worker".into(),
            user: "worker".into(),
            principal: "Kworker".to_string(),
        },
    );
    let out = master.schedule_primitive("add", vec![Value::Int(2), Value::Int(3)]);
    assert_eq!(out, ExecOutcome::Ok(Value::Int(5)));
    let stats = master.stats();
    assert_eq!(stats.timeouts, 1, "stats: {stats:?}");
    assert_eq!(stats.failovers, 1, "stats: {stats:?}");
    assert_eq!(stats.rescheduled, 1, "stats: {stats:?}");
    c2.stop();
}

// ---- Churn: a flapping link plus a killed client must cost neither
// completeness, nor duplicate executions, nor one wasted call per op on
// the corpse. ----

/// Wraps the arithmetic executor and counts executions per argument
/// vector — fleet-wide duplicate detection for the churn scenario.
#[derive(Default)]
struct CountingExecutor {
    counts: Mutex<HashMap<String, usize>>,
}

impl ComponentExecutor for CountingExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        *self
            .counts
            .lock()
            .unwrap()
            .entry(format!("{args:?}"))
            .or_insert(0) += 1;
        ArithComponentExecutor.invoke(user, component, args)
    }
}

#[test]
fn churn_burst_completes_without_duplicates_and_ejects_the_dead_client() {
    let exec = Arc::new(CountingExecutor::default());
    let master = master_trusting(&["Kc0", "Kc1", "Kc2"])
        .with_op_timeout(Duration::from_millis(500))
        .with_health_config(HealthConfig {
            failure_threshold: 3,
            // Long cooldown: once open, a breaker stays open for the
            // whole test — no half-open probes muddying call counts.
            open_cooldown: Duration::from_secs(60),
            ..HealthConfig::default()
        });
    let mut handles = Vec::new();
    let mut links = Vec::new();
    for (i, key) in ["Kc0", "Kc1", "Kc2"].iter().enumerate() {
        let name = format!("c{i}");
        let handle = spawn_client(config_with(&name, key, exec.clone()));
        let link = Arc::new(FaultyTransport::new(ChannelTransport::new(handle.sender())));
        master.register_transport(
            &name,
            *key,
            Arc::clone(&link) as Arc<dyn ClientTransport>,
            vec!["Dom".into()],
        );
        handles.push(handle);
        links.push(link);
    }

    let total = 200usize;
    let mut calls_at_kill = 0usize;
    for i in 0..total {
        if i % 9 == 4 {
            // c0 flaps: its next call fails with a connection reset.
            links[0].drop_next(1);
        }
        if i == 50 {
            links[1].kill();
            calls_at_kill = links[1].calls();
        }
        let out = master.schedule_primitive("add", vec![Value::Int(i as i64), Value::Int(1000)]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(i as i64 + 1000)), "op {i}");
    }

    let stats = master.stats();
    assert_eq!(stats.scheduled, total, "stats: {stats:?}");
    assert_eq!(stats.exhausted, 0, "stats: {stats:?}");
    assert_eq!(stats.unschedulable, 0, "stats: {stats:?}");
    assert_eq!(stats.in_flight, 0, "gauge must return to zero");
    // Health-aware selection plus the breaker eject the corpse after at
    // most `failure_threshold` wasted calls — not one per remaining op.
    let wasted = links[1].calls() - calls_at_kill;
    assert!(wasted <= 3, "dead client saw {wasted} calls after the kill");
    // If the master did burn all three calls, the breaker must be open.
    let health = master.client_health();
    let dead = health.iter().find(|h| h.client == "c1").unwrap();
    if wasted >= 3 {
        assert_eq!(dead.state, BreakerState::Open, "{dead:?}");
    }
    // Every op executed exactly once across the whole fleet: drops and
    // crashes fail over *before* execution, so churn never duplicates.
    let counts = exec.counts.lock().unwrap();
    assert_eq!(counts.len(), total, "every op executed somewhere");
    let dupes: Vec<_> = counts.iter().filter(|(_, &n)| n > 1).collect();
    assert!(dupes.is_empty(), "duplicate executions: {dupes:?}");
    drop(counts);
    for h in handles {
        h.shutdown();
    }
}

// ---- The fixed fault-handling path: a timed-out op that *did* execute
// must be replayed from the client's memo on retry, never re-executed. ----

/// An executor whose first invocation blocks until released — the
/// master's first call times out while the op still completes on the
/// client, so the retry must be answered from the executed-op memo.
struct GatedExecutor {
    gate: Mutex<Option<std::sync::mpsc::Receiver<()>>>,
    invocations: AtomicUsize,
}

impl ComponentExecutor for GatedExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.invocations.fetch_add(1, Ordering::SeqCst);
        if let Some(gate) = self.gate.lock().unwrap().take() {
            let _ = gate.recv_timeout(Duration::from_secs(5));
        }
        ArithComponentExecutor.invoke(user, component, args)
    }
}

#[test]
fn timed_out_op_is_replayed_from_the_memo_not_executed_twice() {
    let (release, gate) = std::sync::mpsc::channel();
    let exec = Arc::new(GatedExecutor {
        gate: Mutex::new(Some(gate)),
        invocations: AtomicUsize::new(0),
    });
    let handle = spawn_client(config_with("c1", "Kc1", exec.clone()));
    let master = master_trusting(&["Kc1"])
        .with_op_timeout(Duration::from_millis(80))
        .with_schedule_deadline(Duration::from_secs(5))
        .with_retry_policy(RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(20),
        });
    master.register_client(&handle, vec!["Dom".into()]);
    // Release the gate after the first attempt has timed out: the op
    // then completes on the client and lands in its memo.
    let releaser = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        let _ = release.send(());
    });
    let out = master.schedule_primitive("add", vec![Value::Int(40), Value::Int(2)]);
    releaser.join().unwrap();
    assert_eq!(out, ExecOutcome::Ok(Value::Int(42)));
    let stats = master.stats();
    assert!(stats.timeouts >= 1, "stats: {stats:?}");
    assert!(stats.replayed >= 1, "stats: {stats:?}");
    // The component itself ran exactly once — every re-ask after the
    // timeout was answered from the client's executed-op memo.
    assert_eq!(exec.invocations.load(Ordering::SeqCst), 1);
    let client_stats = handle.shutdown();
    assert!(client_stats.replayed >= 1, "{client_stats:?}");
}

#[test]
fn master_rejects_wrong_client_identity_politely() {
    // A master whose policy does not license the serving client's key
    // still completes the handshake, then never selects the client.
    let c1 = serve("c1", "Kc1");
    let master = master_trusting(&["Ksomeoneelse"]);
    master.register_tcp(c1.local_addr()).unwrap();
    let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(1)]);
    assert!(matches!(out, ExecOutcome::Denied(ref m) if m.contains("no authorised client")));
    c1.stop();
}

#[test]
fn register_tcp_against_dead_port_errors() {
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    let master = master_trusting(&["Kc1"]);
    let err = master.register_tcp(addr).unwrap_err();
    assert!(err.retryable, "transport-level failure: {err:?}");
}

// ---- Wire-protocol robustness: truncation, oversize, garbage. ----

#[test]
fn wire_roundtrip_of_every_message_shape() {
    let request = WireRequest::Schedule(Box::new(ScheduleRequest {
        op_id: 7,
        action: ScheduledAction::new(
            ComponentRef::new(MiddlewareKind::Corba, "Dom", "Stats", "read"),
            "Dom",
            "Worker",
        ),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        master_key: "Kmaster".to_string(),
        presented: Presented::default(),
        args: vec![Value::Int(-3), Value::Str("x\"y\\z".into()), Value::Bool(true)],
    }));
    let frame = encode_frame(&request).unwrap();
    assert_eq!(decode_frame::<WireRequest>(&frame).unwrap(), request);

    let identify = encode_frame(&WireRequest::Identify).unwrap();
    assert_eq!(
        decode_frame::<WireRequest>(&identify).unwrap(),
        WireRequest::Identify
    );
}

#[test]
fn truncated_schedule_frames_error_at_every_cut() {
    let frame = encode_frame(&WireRequest::Schedule(Box::new(ScheduleRequest {
        op_id: 1,
        action: ScheduledAction::new(
            ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
            "Dom",
            "Worker",
        ),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        master_key: "Kmaster".to_string(),
        presented: Presented::default(),
        args: vec![Value::Int(1)],
    })))
    .unwrap();
    for cut in 0..frame.len() {
        match decode_frame::<WireRequest>(&frame[..cut]) {
            Err(WireError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn oversized_and_garbage_frames_error_never_panic() {
    // Oversized length prefix.
    let mut oversized = vec![0x7F, 0xFF, 0xFF, 0xFF];
    oversized.extend_from_slice(b"whatever");
    assert!(matches!(
        decode_frame::<WireResponse>(&oversized),
        Err(WireError::Oversized(_))
    ));
    // Deterministic pseudo-random garbage at many lengths: decoding
    // must return an error (or, absurdly unlikely, a value) — never
    // panic or allocate absurdly.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 16, 64, 256, 1024] {
        for _ in 0..64 {
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let _ = decode_frame::<WireRequest>(&bytes);
            let _ = decode_frame::<WireResponse>(&bytes);
        }
    }
    // Valid JSON of the wrong shape is Malformed, not a panic.
    let wrong_shape = encode_frame(&vec![1u64, 2, 3]).unwrap();
    assert!(matches!(
        decode_frame::<WireRequest>(&wrong_shape),
        Err(WireError::Malformed(_))
    ));
}

#[test]
fn tcp_transport_reports_protocol_violation_for_alien_replies() {
    // A fake "client" that answers every frame with an Identity frame:
    // schedule calls must surface a protocol error, not hang or panic,
    // and not the retryable `Closed` of a lost connection — retrying
    // would only ask the same misbehaving peer again.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            while hetsec_webcom::read_frame::<WireRequest, _>(&mut s).is_ok() {
                let id = hetsec_webcom::ClientIdentity {
                    name: "alien".to_string(),
                    key_text: "Kalien".to_string(),
                    domains: vec![],
                };
                if hetsec_webcom::write_frame(&mut s, &WireResponse::Identity(id)).is_err() {
                    break;
                }
            }
        }
    });
    let transport = MuxTransport::new(addr);
    let request = ScheduleRequest {
        op_id: 3,
        action: ScheduledAction::new(
            ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
            "Dom",
            "Worker",
        ),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        master_key: "Kmaster".to_string(),
        presented: Presented::default(),
        args: vec![],
    };
    let err = transport
        .call(&request, Duration::from_secs(2))
        .unwrap_err();
    assert!(
        matches!(err, hetsec_webcom::TransportError::Protocol(_)),
        "{err:?}"
    );
}
