//! Distributed condensed-graph execution with full mutual mediation
//! (Figure 3): multi-client scheduling, per-domain client selection,
//! mid-run delegation, and denial propagation; waves pipelined over mux
//! clients (seeded random graphs against the local evaluator, a client
//! killed mid-wave, a wave wider than the in-flight quota).

use hetsec_graphs::{
    ArithExecutor, Engine, EngineError, GraphBuilder, GraphTemplate, OpExecutor, Operator, Source,
    Value,
};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::{DomainRole, User};
use hetsec_translate::{delegate_role, SymbolicDirectory};
use hetsec_webcom::{
    serve_tcp_with, spawn_client, ArithComponentExecutor, AuthzStack, Binding, ClientConfig,
    ClientEngine, ClientHandle, ComponentExecutor, ExecError, ExecOutcome, HealthConfig,
    MuxTransport, ServeOptions, TcpClientServer, TrustLayer, TrustManager, WebComMaster,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn tm(policy: &str) -> Arc<TrustManager> {
    let t = TrustManager::permissive();
    t.add_policy(policy).unwrap();
    Arc::new(t)
}

fn domain_client_config(
    name: &str,
    key: &str,
    domain: &str,
    worker_key: &str,
    executor: Arc<dyn ComponentExecutor>,
) -> ClientConfig {
    let master_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let user_tm = tm(&format!(
        "Authorizer: POLICY\nLicensees: \"{worker_key}\"\n\
         Conditions: app_domain==\"WebCom\" && Domain==\"{domain}\";\n"
    ));
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

fn spawn_domain_client(name: &str, key: &str, domain: &str, worker_key: &str) -> ClientHandle {
    spawn_client(domain_client_config(
        name,
        key,
        domain,
        worker_key,
        Arc::new(ArithComponentExecutor),
    ))
}

fn bind(master: &WebComMaster, prim: &str, domain: &str, op: &str, worker_key: &str) {
    master.bind(
        prim,
        Binding {
            component: ComponentRef::new(MiddlewareKind::Ejb, domain, "Calc", op),
            domain: domain.into(),
            role: "Worker".into(),
            user: "worker".into(),
            principal: worker_key.to_string(),
        },
    );
}

#[test]
fn multi_domain_graph_routes_to_the_right_clients() {
    // Master trusts each client key only for its own domain.
    let client_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kc1\"\n\
         Conditions: app_domain==\"WebCom\" && Domain==\"DomA\";\n\n\
         Authorizer: POLICY\nLicensees: \"Kc2\"\n\
         Conditions: app_domain==\"WebCom\" && Domain==\"DomB\";\n",
    );
    let master = WebComMaster::new("Kmaster", client_trust);
    let c1 = spawn_domain_client("c1", "Kc1", "DomA", "Kworker");
    let c2 = spawn_domain_client("c2", "Kc2", "DomB", "Kworker");
    master.register_client(&c1, vec!["DomA".into()]);
    master.register_client(&c2, vec!["DomB".into()]);
    bind(&master, "addA", "DomA", "add", "Kworker");
    bind(&master, "mulB", "DomB", "mul", "Kworker");

    // graph: mulB(addA(p0, p1), p0)
    let mut b = GraphBuilder::new("two-domain", 2);
    let s = b.primitive("s", "addA", vec![Source::Param(0), Source::Param(1)]);
    let m = b.primitive("m", "mulB", vec![Source::Node(s), Source::Param(0)]);
    let t = b.output(Source::Node(m)).unwrap();
    let result = Engine::new(&master)
        .evaluate(&t, &[Value::Int(5), Value::Int(2)])
        .unwrap();
    assert_eq!(result, Value::Int(35));
    let s1 = c1.shutdown();
    let s2 = c2.shutdown();
    assert_eq!(s1.executed, 1, "DomA client ran exactly the add");
    assert_eq!(s2.executed, 1, "DomB client ran exactly the mul");
}

#[test]
fn parallel_fanout_distributes_many_ops() {
    let client_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kc1\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let master = WebComMaster::new("Kmaster", client_trust);
    let c1 = spawn_domain_client("c1", "Kc1", "DomA", "Kworker");
    master.register_client(&c1, vec!["DomA".into()]);
    bind(&master, "add", "DomA", "add", "Kworker");

    let width = 32usize;
    let mut b = GraphBuilder::new("fanout", 1);
    let mut leaves = Vec::new();
    for i in 0..width {
        let c = b.constant(&format!("c{i}"), i as i64);
        leaves.push(b.primitive(&format!("n{i}"), "add", vec![Source::Param(0), Source::Node(c)]));
    }
    // Reduce pairwise with scheduled adds too.
    let mut frontier: Vec<_> = leaves;
    let mut round = 0;
    while frontier.len() > 1 {
        let mut next = Vec::new();
        for pair in frontier.chunks(2) {
            if pair.len() == 2 {
                next.push(b.primitive(
                    &format!("r{round}-{}", next.len()),
                    "add",
                    vec![Source::Node(pair[0]), Source::Node(pair[1])],
                ));
            } else {
                next.push(pair[0]);
            }
        }
        frontier = next;
        round += 1;
    }
    let t = b.output(Source::Node(frontier[0])).unwrap();
    let result = Engine::new(&master).evaluate(&t, &[Value::Int(1)]).unwrap();
    let expected: i64 = (0..width as i64).map(|i| 1 + i).sum();
    assert_eq!(result, Value::Int(expected));
    let stats = c1.shutdown();
    assert_eq!(stats.executed, width + (width - 1));
}

#[test]
fn delegation_unlocks_scheduling_mid_session() {
    // The worker's key is NOT directly trusted; only Kboss is. A Figure 7
    // delegation credential forwarded by the master lets the worker run.
    let client_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kc1\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let master = WebComMaster::new("Kmaster", client_trust);

    let master_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let user_tm = tm(
        "Authorizer: POLICY\nLicensees: \"Kboss\"\n\
         Conditions: app_domain==\"WebCom\" && Domain==\"DomA\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(user_tm)));
    let client = spawn_client(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust,
        stack: Arc::new(stack),
        executor: Arc::new(ArithComponentExecutor),
    });
    master.register_client(&client, vec!["DomA".into()]);
    bind(&master, "add", "DomA", "add", "Kboss_deputy");

    // First attempt: denied (no chain from Kboss to Kboss_deputy).
    let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(1)]);
    assert!(matches!(out, ExecOutcome::Denied(_)));

    // Boss signs a delegation; master forwards it with requests.
    let dir = SymbolicDirectory::default();
    let cred = delegate_role(
        &"Boss".into(),
        &"Boss_deputy".into(),
        &DomainRole::new("DomA", "Worker"),
        &dir,
    );
    master.forward_credential(cred);
    let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(1)]);
    assert_eq!(out, ExecOutcome::Ok(Value::Int(2)));
    client.shutdown();
}

#[test]
fn denial_surfaces_as_refusal_in_the_engine() {
    let client_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kc1\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let master = WebComMaster::new("Kmaster", client_trust);
    let c1 = spawn_domain_client("c1", "Kc1", "DomA", "Kworker");
    master.register_client(&c1, vec!["DomA".into()]);
    // The binding's principal is unknown to the client.
    bind(&master, "add", "DomA", "add", "Kstranger");
    let mut b = GraphBuilder::new("denied", 0);
    let c = b.constant("c", 1i64);
    let n = b.primitive("n", "add", vec![Source::Node(c), Source::Node(c)]);
    let t = b.output(Source::Node(n)).unwrap();
    let err = Engine::new(&master).evaluate(&t, &[]).unwrap_err();
    assert!(matches!(err, EngineError::Refused { .. }));
    let stats = c1.shutdown();
    assert_eq!(stats.stack_denied, 1);
}

// ---- Waves pipelined over mux clients ----

/// Serves a `DomA` client over loopback TCP with several frames in
/// flight per connection, the way a pipelined mux transport expects.
fn serve_mux_client(
    name: &str,
    key: &str,
    executor: Arc<dyn ComponentExecutor>,
) -> TcpClientServer {
    let config = domain_client_config(name, key, "DomA", "Kworker", executor);
    serve_tcp_with(
        Arc::new(ClientEngine::new(config)),
        vec!["DomA".into()],
        "127.0.0.1:0",
        ServeOptions { pipeline: 8 },
    )
    .unwrap()
}

/// A master trusting `keys` in `DomA`, reaching each server over mux,
/// with every arithmetic primitive bound.
fn mux_master(
    servers: &[(&str, &str, &TcpClientServer)],
    configure: impl FnOnce(WebComMaster) -> WebComMaster,
) -> WebComMaster {
    let mut policy = String::new();
    for (_, key, _) in servers {
        policy.push_str(&format!(
            "Authorizer: POLICY\nLicensees: \"{key}\"\nConditions: app_domain==\"WebCom\";\n\n"
        ));
    }
    let master = configure(WebComMaster::new("Kmaster", tm(&policy)));
    for (name, key, server) in servers {
        master.register_transport(
            *name,
            *key,
            Arc::new(MuxTransport::new(server.local_addr())),
            vec!["DomA".into()],
        );
    }
    for op in ["add", "sub", "mul", "max", "min", "lt"] {
        bind(&master, op, "DomA", op, "Kworker");
    }
    master
}

/// A splitmix64-shaped mixer whose second multiplier differs from
/// splitmix64's, kept because the 40 seeded graphs below depend on it.
fn mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49EB_D311_13EB);
    z ^ (z >> 31)
}

/// A random well-typed DAG over int parameters: constants, binary int
/// primitives, `lt` conditions, and — above `depth` 0 — condensed nodes
/// and `IfEl` branches over random subgraphs. Returns an int.
fn random_graph(rng: &mut u64, name: &str, arity: usize, depth: u32) -> GraphTemplate {
    let pick =
        |rng: &mut u64, from: &[Source]| from[(mix64(rng) % from.len() as u64) as usize];
    let mut b = GraphBuilder::new(name, arity);
    let mut ints: Vec<Source> = (0..arity).map(Source::Param).collect();
    let mut bools: Vec<Source> = Vec::new();
    let nodes = 3 + mix64(rng) % 8;
    for n in 0..nodes {
        let label = format!("n{n}");
        let roll = mix64(rng) % 8;
        let (x, y) = (pick(rng, &ints), pick(rng, &ints));
        match roll {
            0 => ints.push(Source::Node(
                b.constant(&label, (mix64(rng) % 10) as i64),
            )),
            1 => bools.push(Source::Node(b.primitive(&label, "lt", vec![x, y]))),
            6 if depth > 0 => {
                let sub = random_graph(rng, &format!("{name}.{label}"), 2, depth - 1);
                ints.push(Source::Node(b.condensed(&label, Arc::new(sub), vec![x, y])));
            }
            7 if depth > 0 && !bools.is_empty() => {
                let cond = pick(rng, &bools);
                let then_b = random_graph(rng, &format!("{name}.{label}.then"), 1, depth - 1);
                let else_b = random_graph(rng, &format!("{name}.{label}.else"), 1, depth - 1);
                let node = b.if_el(&label, Arc::new(then_b), Arc::new(else_b), vec![cond, x]);
                ints.push(Source::Node(node));
            }
            _ => {
                let op = ["add", "sub", "mul", "max", "min"][(mix64(rng) % 5) as usize];
                ints.push(Source::Node(b.primitive(&label, op, vec![x, y])));
            }
        }
    }
    b.output(*ints.last().expect("a graph has int params"))
        .unwrap()
}

/// The local arithmetic executor, counting primitive executions.
#[derive(Default)]
struct CountingArith(AtomicUsize);

impl OpExecutor for CountingArith {
    fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        ArithExecutor.execute(op, args)
    }
}

#[test]
fn pipelined_waves_match_the_local_evaluator_and_execute_once() {
    let server = serve_mux_client("c1", "Kc1", Arc::new(ArithComponentExecutor));
    let master = mux_master(&[("c1", "Kc1", &server)], |m| m);
    let engine = server.engine();
    let (mut condensed, mut ifel) = (0, 0);
    for seed in 0..40u64 {
        let mut rng = seed;
        let graph = random_graph(&mut rng, "g", 2, 2);
        for node in &graph.nodes {
            match node.operator {
                Operator::Condensed(_) => condensed += 1,
                Operator::IfEl { .. } => ifel += 1,
                _ => {}
            }
        }
        let params = [
            Value::Int((mix64(&mut rng) % 50) as i64),
            Value::Int((mix64(&mut rng) % 50) as i64),
        ];
        let local = CountingArith::default();
        let expected = Engine::new(&local).evaluate(&graph, &params);
        let before = engine.stats().executed;
        let got = Engine::new(&master).evaluate(&graph, &params);
        assert_eq!(
            got, expected,
            "seed {seed}: batched result differs from sequential"
        );
        assert_eq!(
            engine.stats().executed - before,
            local.0.load(Ordering::SeqCst),
            "seed {seed}: primitives executed on the client != primitives fired"
        );
    }
    assert!(
        condensed > 0 && ifel > 0,
        "seeds cover {condensed} condensed, {ifel} IfEl nodes"
    );
    assert_eq!(master.stats().in_flight, 0);
    server.stop();
}

/// Crashes its server on the first invocation, before executing
/// anything: asks the test to kill the server, waits for the kill, and
/// fails (the reply has nowhere to go).
struct CrashOnFirstCall {
    crashed: AtomicBool,
    kill: Mutex<mpsc::Sender<()>>,
    killed: Mutex<mpsc::Receiver<()>>,
}

impl ComponentExecutor for CrashOnFirstCall {
    fn invoke(&self, _: &User, _: &ComponentRef, _: &[Value]) -> Result<Value, ExecError> {
        if !self.crashed.swap(true, Ordering::SeqCst) {
            let _ = self.kill.lock().unwrap().send(());
            let _ = self
                .killed
                .lock()
                .unwrap()
                .recv_timeout(Duration::from_secs(5));
        }
        Err(ExecError::component_transient("server crashed"))
    }
}

/// `width` primitives `add(p, i)` in one wave, summed pairwise.
fn wide_wave(width: i64) -> GraphTemplate {
    let mut b = GraphBuilder::new("wave", 1);
    let mut level: Vec<Source> = (0..width)
        .map(|i| {
            let c = b.constant(&format!("c{i}"), i);
            Source::Node(b.primitive(
                &format!("n{i}"),
                "add",
                vec![Source::Param(0), Source::Node(c)],
            ))
        })
        .collect();
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match pair {
                [x, y] => Source::Node(b.primitive("sum", "add", vec![*x, *y])),
                _ => pair[0],
            })
            .collect();
    }
    b.output(level[0]).unwrap()
}

#[test]
fn wave_survives_its_client_being_killed_mid_wave() {
    let (kill_tx, kill_rx) = mpsc::channel();
    let (killed_tx, killed_rx) = mpsc::channel();
    let crashing = Arc::new(CrashOnFirstCall {
        crashed: AtomicBool::new(false),
        kill: Mutex::new(kill_tx),
        killed: Mutex::new(killed_rx),
    });
    let doomed = serve_mux_client("c1", "Kc1", Arc::clone(&crashing) as _);
    let survivor = serve_mux_client("c2", "Kc2", Arc::new(ArithComponentExecutor));
    let deadline = Duration::from_secs(3);
    let master = mux_master(&[("c1", "Kc1", &doomed), ("c2", "Kc2", &survivor)], |m| {
        m.with_op_timeout(Duration::from_secs(1))
            .with_schedule_deadline(deadline)
    });
    let doomed_engine = doomed.engine();
    let killer = std::thread::spawn(move || {
        if kill_rx.recv_timeout(Duration::from_secs(10)).is_ok() {
            doomed.kill();
        }
        let _ = killed_tx.send(());
    });
    let width = 16;
    let graph = wide_wave(width);
    let local = CountingArith::default();
    let expected = Engine::new(&local).evaluate(&graph, &[Value::Int(100)]);
    let started = Instant::now();
    let got = Engine::new(&master).evaluate(&graph, &[Value::Int(100)]);
    let elapsed = started.elapsed();
    killer.join().unwrap();
    assert_eq!(got, expected);
    assert!(
        elapsed < deadline,
        "wave took {elapsed:?}, deadline {deadline:?}"
    );
    // The first wave went to c1, which died before executing anything;
    // every primitive then ran on c2 exactly once.
    assert!(
        crashing.crashed.load(Ordering::SeqCst),
        "the wave never reached c1"
    );
    assert_eq!(doomed_engine.stats().executed, 0);
    assert_eq!(
        survivor.engine().stats().executed,
        local.0.load(Ordering::SeqCst)
    );
    let stats = master.stats();
    assert_eq!(stats.in_flight, 0, "gauge must return to zero: {stats:?}");
    assert_eq!(stats.exhausted, 0, "stats: {stats:?}");
    survivor.stop();
}

#[test]
fn wave_wider_than_the_quota_sheds_into_the_per_op_loop() {
    let server = serve_mux_client("c1", "Kc1", Arc::new(ArithComponentExecutor));
    let master = mux_master(&[("c1", "Kc1", &server)], |m| {
        m.with_health_config(HealthConfig {
            max_in_flight: 4,
            ..HealthConfig::default()
        })
    });
    let graph = wide_wave(16);
    let local = CountingArith::default();
    let expected = Engine::new(&local).evaluate(&graph, &[Value::Int(7)]);
    assert_eq!(
        Engine::new(&master).evaluate(&graph, &[Value::Int(7)]),
        expected
    );
    let stats = master.stats();
    assert!(
        stats.shed >= 12,
        "the 12 ops over quota were shed: {stats:?}"
    );
    assert_eq!(stats.scheduled, local.0.load(Ordering::SeqCst));
    assert_eq!(stats.in_flight, 0);
    assert_eq!(
        server.engine().stats().executed,
        local.0.load(Ordering::SeqCst)
    );
    server.stop();
}
