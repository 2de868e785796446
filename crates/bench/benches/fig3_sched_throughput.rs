//! fig3 — "WebCom-KeyNote Architecture".
//!
//! The figure shows the master/client fabric with trust-management
//! mediation on both sides. The bench measures end-to-end scheduling
//! throughput (master -> client -> reply) with 1..4 clients, and the
//! marginal cost of the TM mediation by comparing against a fabric whose
//! policies trust everything (mediation still runs, but the credential
//! set is trivial).
//!
//! `wave32_mux` fires one 32-wide condensed-graph wave of zero-service
//! `add` ops at one client over loopback TCP (mux transport, client
//! served at `pipeline` 8): the wave goes out as one `ScheduleBatch`
//! frame and comes back as one `ReplyBatch` frame.
//!
//! The `transport_*` series compares the fabrics the same workload can
//! ride: in-process channels, loopback TCP through the mux transport
//! (wire protocol + framing + syscalls), and the same mux behind a fault
//! injector dropping calls (the retry/failover machinery's steady-state
//! overhead).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetsec_graphs::{OpExecutor, Value};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_webcom::stack::TrustLayer;
use hetsec_webcom::{
    serve_tcp_with, spawn_client, ArithComponentExecutor, AuthzStack, Binding, ChannelTransport,
    ClientConfig, ClientEngine, ClientHandle, ClientTransport, FaultyTransport, MuxTransport,
    ServeOptions, TcpClientServer, TrustManager, WebComMaster,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn tm(policy: &str) -> Arc<TrustManager> {
    let t = TrustManager::permissive();
    t.add_policy(policy).unwrap();
    Arc::new(t)
}

fn client_policy(clients: usize) -> String {
    let mut policy = String::new();
    for i in 0..clients {
        policy.push_str(&format!(
            "Authorizer: POLICY\nLicensees: \"Kc{i}\"\nConditions: app_domain==\"WebCom\";\n\n"
        ));
    }
    policy
}

fn bind_add(master: &WebComMaster) {
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
}

fn fabric(clients: usize, extra_credentials: usize) -> (WebComMaster, Vec<ClientHandle>) {
    let master = WebComMaster::new("Kmaster", tm(&client_policy(clients)));
    let mut handles = Vec::new();
    for i in 0..clients {
        let master_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        // Load the user TM with irrelevant credentials to scale the
        // mediation cost realistically.
        for j in 0..extra_credentials {
            user_tm
                .add_credentials_text(&format!(
                    "Authorizer: \"Kstray{j}\"\nLicensees: \"Kother{j}\"\n"
                ))
                .unwrap();
        }
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        let handle = spawn_client(ClientConfig {
            name: format!("c{i}"),
            key_text: format!("Kc{i}"),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        });
        master.register_client(&handle, vec!["Dom".into()]);
        handles.push(handle);
    }
    bind_add(&master);
    (master, handles)
}

/// A networked client engine with the same trust wiring as [`fabric`]'s
/// in-process clients, served on an ephemeral loopback port with up to
/// `pipeline` threads per connection.
fn tcp_client(i: usize, pipeline: usize) -> TcpClientServer {
    let master_trust =
        tm("Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n");
    let user_tm =
        tm("Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n");
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(user_tm)));
    let engine = Arc::new(ClientEngine::new(ClientConfig {
        name: format!("c{i}"),
        key_text: format!("Kc{i}"),
        master_trust,
        stack: Arc::new(stack),
        executor: Arc::new(ArithComponentExecutor),
    }));
    serve_tcp_with(
        engine,
        vec!["Dom".into()],
        "127.0.0.1:0",
        ServeOptions { pipeline },
    )
    .expect("bind loopback")
}

fn bench_fig3(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_sched_throughput");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    for clients in [1usize, 2, 4] {
        let (master, handles) = fabric(clients, 0);
        group.bench_with_input(
            BenchmarkId::new("schedule_roundtrip", clients),
            &clients,
            |b, _| {
                b.iter(|| {
                    let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                    assert!(out.is_ok());
                    black_box(out)
                })
            },
        );
        for h in handles {
            h.shutdown();
        }
    }
    // Mediation cost: credential store size 0 vs 64 vs 256.
    for creds in [0usize, 64, 256] {
        let (master, handles) = fabric(1, creds);
        group.bench_with_input(
            BenchmarkId::new("mediation_credentials", creds),
            &creds,
            |b, _| {
                b.iter(|| {
                    let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                    assert!(out.is_ok());
                    black_box(out)
                })
            },
        );
        for h in handles {
            h.shutdown();
        }
    }
    {
        let master = WebComMaster::new("Kmaster", tm(&client_policy(1)));
        let server = tcp_client(0, 8);
        master.register_tcp(server.local_addr()).expect("identify");
        bind_add(&master);
        let wave: Vec<(&str, Vec<Value>)> =
            (0..32).map(|i| ("add", vec![Value::Int(i), Value::Int(1)])).collect();
        group.throughput(Throughput::Elements(32));
        group.bench_function("wave32_mux", |b| {
            b.iter(|| {
                let out = master.execute_wave(&wave);
                assert!(out.iter().all(|r| r.is_ok()));
                black_box(out)
            })
        });
        server.stop();
    }
    group.finish();
}

/// Same workload, three fabrics: in-process channels, loopback TCP, and
/// loopback TCP where the first client's link drops every request so the
/// master fails over to the healthy one — the price of the recovery path.
fn bench_transport(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_transport");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));

    {
        let (master, handles) = fabric(1, 0);
        group.bench_function("inprocess", |b| {
            b.iter(|| {
                let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                assert!(out.is_ok());
                black_box(out)
            })
        });
        for h in handles {
            h.shutdown();
        }
    }

    {
        let master = WebComMaster::new("Kmaster", tm(&client_policy(1)));
        let server = tcp_client(0, 1);
        master.register_tcp(server.local_addr()).expect("identify");
        bind_add(&master);
        group.bench_function("tcp", |b| {
            b.iter(|| {
                let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                assert!(out.is_ok());
                black_box(out)
            })
        });
        server.stop();
    }

    {
        let master = WebComMaster::new("Kmaster", tm(&client_policy(2)))
            .with_op_timeout(Duration::from_secs(2));
        let s0 = tcp_client(0, 1);
        let s1 = tcp_client(1, 1);
        let faulty = Arc::new(FaultyTransport::new(MuxTransport::new(s0.local_addr())));
        master.register_transport("c0", "Kc0", faulty.clone(), vec!["Dom".into()]);
        master.register_tcp(s1.local_addr()).expect("identify");
        bind_add(&master);
        group.bench_function("tcp_faulty_failover", |b| {
            b.iter(|| {
                // Every request finds c0's link dropped and must fail
                // over to c1 — one aborted attempt plus one real TCP
                // round-trip per element.
                faulty.drop_next(1);
                let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                assert!(out.is_ok());
                black_box(out)
            })
        });
        s0.stop();
        s1.stop();
    }

    group.finish();
}

/// A two-client channel fabric where each link can misbehave: the
/// churn series measures the steady-state cost of a bad client in the
/// fleet. Health-aware dispatch routes around it (breaker + ranking),
/// so every series should converge towards the healthy single-client
/// round-trip rather than paying the fault once per operation.
fn churn_fabric() -> (WebComMaster, Vec<ClientHandle>, Vec<Arc<FaultyTransport>>) {
    let master = WebComMaster::new("Kmaster", tm(&client_policy(2)))
        .with_op_timeout(Duration::from_millis(5))
        // Roomy whole-op budget: the first ops pay the slow client's
        // timeouts *and* still reach the healthy one.
        .with_schedule_deadline(Duration::from_millis(500));
    let mut handles = Vec::new();
    let mut links = Vec::new();
    for i in 0..2 {
        let master_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        let handle = spawn_client(ClientConfig {
            name: format!("c{i}"),
            key_text: format!("Kc{i}"),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        });
        let link = Arc::new(FaultyTransport::new(ChannelTransport::new(handle.sender())));
        master.register_transport(
            format!("c{i}"),
            format!("Kc{i}"),
            Arc::clone(&link) as Arc<dyn ClientTransport>,
            vec!["Dom".into()],
        );
        handles.push(handle);
        links.push(link);
    }
    bind_add(&master);
    (master, handles, links)
}

fn bench_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_churn");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));

    // c0's link resets every request aimed at it; after the breaker
    // opens the fleet rides c1, with a cheap re-arm per element.
    {
        let (master, handles, links) = churn_fabric();
        group.bench_function("flapping_client", |b| {
            b.iter(|| {
                links[0].drop_next(1);
                let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                assert!(out.is_ok());
                black_box(out)
            })
        });
        for h in handles {
            h.shutdown();
        }
    }

    // c0 answers slower than the op deadline: the first op pays the
    // timeouts, then ranking + breaker keep the fleet on c1 (modulo the
    // occasional half-open probe).
    {
        let (master, handles, links) = churn_fabric();
        links[0].set_delay(Duration::from_millis(50));
        group.bench_function("slow_client", |b| {
            b.iter(|| {
                let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                assert!(out.is_ok());
                black_box(out)
            })
        });
        for h in handles {
            h.shutdown();
        }
    }

    // c0 is dead before the run starts: the cost of a corpse in the
    // registration list should be ~zero per op.
    {
        let (master, handles, links) = churn_fabric();
        links[0].kill();
        group.bench_function("killed_client", |b| {
            b.iter(|| {
                let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
                assert!(out.is_ok());
                black_box(out)
            })
        });
        for h in handles {
            h.shutdown();
        }
    }

    group.finish();
}

criterion_group!(benches, bench_fig3, bench_transport, bench_churn);
criterion_main!(benches);
