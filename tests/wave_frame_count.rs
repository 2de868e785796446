//! A 32-wide zero-service wave costs one request frame and one reply
//! frame, counted by a frame-parsing proxy between the master's mux and
//! a client served at `pipeline` 8, and runs on one of the client's
//! threads. The test has a binary of its own: whether a batch of fast
//! ops stays on one thread depends on that thread not being descheduled
//! for [`hetsec_webcom::net::HELP_AFTER`], which parallel tests in the
//! same process would make likely.

use hetsec_graphs::Value;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use hetsec_webcom::stack::TrustLayer;
use hetsec_webcom::{
    serve_tcp_with, ArithComponentExecutor, AuthzStack, BurstOp, ClientConfig, ClientEngine,
    ComponentExecutor, ExecError, ExecOutcome, MuxTransport, ScheduledAction, ServeOptions,
    TrustManager, WebComMaster,
};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

fn tm(policy: &str) -> Arc<TrustManager> {
    let t = TrustManager::permissive();
    t.add_policy(policy).unwrap();
    Arc::new(t)
}

fn action() -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
        "Dom",
        "Worker",
    )
}

/// Reads one length-prefixed frame off `from`, counts it and passes it
/// on to `to`; false once either side is gone.
fn pass_frame(from: &mut TcpStream, to: &mut TcpStream, frames: &AtomicUsize) -> bool {
    let mut len = [0u8; 4];
    if from.read_exact(&mut len).is_err() {
        return false;
    }
    let mut body = vec![0u8; u32::from_be_bytes(len) as usize];
    if from.read_exact(&mut body).is_err() {
        return false;
    }
    frames.fetch_add(1, Ordering::SeqCst);
    to.write_all(&len).and_then(|()| to.write_all(&body)).is_ok()
}

/// A loopback proxy to `upstream` counting the frames each way: (to the
/// client, back to the master).
fn counting_proxy(upstream: SocketAddr) -> (SocketAddr, Arc<[AtomicUsize; 2]>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let counts = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let proxy_counts = Arc::clone(&counts);
    std::thread::spawn(move || {
        for downstream in listener.incoming() {
            let Ok(downstream) = downstream else { return };
            let up = TcpStream::connect(upstream).unwrap();
            // Each frame goes on in two writes: without TCP_NODELAY the
            // second waits out the peer's delayed ACK.
            downstream.set_nodelay(true).unwrap();
            up.set_nodelay(true).unwrap();
            for (dir, (mut from, mut to)) in [
                (0, (downstream.try_clone().unwrap(), up.try_clone().unwrap())),
                (1, (up, downstream)),
            ] {
                let counts = Arc::clone(&proxy_counts);
                std::thread::spawn(move || while pass_frame(&mut from, &mut to, &counts[dir]) {});
            }
        }
    });
    (addr, counts)
}

/// Arithmetic that records the threads it ran on.
#[derive(Default)]
struct ThreadProbe(Mutex<HashSet<ThreadId>>);

impl ComponentExecutor for ThreadProbe {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        self.0.lock().unwrap().insert(std::thread::current().id());
        ArithComponentExecutor.invoke(user, component, args)
    }
}

#[test]
fn a_32_wide_zero_service_wave_is_one_frame_each_way() {
    let probe = Arc::new(ThreadProbe::default());
    let master_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let user_trust = tm(
        "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(user_trust)));
    let engine = Arc::new(ClientEngine::new(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust,
        stack: Arc::new(stack),
        executor: Arc::clone(&probe) as Arc<dyn ComponentExecutor>,
    }));
    let server = serve_tcp_with(
        engine,
        vec!["Dom".into()],
        "127.0.0.1:0",
        ServeOptions { pipeline: 8 },
    )
    .unwrap();
    let (proxy, frames) = counting_proxy(server.local_addr());
    let master = WebComMaster::new(
        "Kmaster",
        tm("Authorizer: POLICY\nLicensees: \"Kc1\"\nConditions: app_domain==\"WebCom\";\n"),
    );
    master.register_transport("c1", "Kc1", Arc::new(MuxTransport::new(proxy)), vec!["Dom".into()]);
    let op = |i: i64| BurstOp {
        action: action(),
        user: "worker".into(),
        principal: "Kworker".to_string(),
        args: vec![Value::Int(i), Value::Int(1)],
    };

    let outcomes = master.schedule_burst((0..32).map(op).collect());
    for (i, outcome) in outcomes.into_iter().enumerate() {
        assert_eq!(outcome, ExecOutcome::Ok(Value::Int(i as i64 + 1)));
    }
    let sent = frames[0].load(Ordering::SeqCst);
    let answered = frames[1].load(Ordering::SeqCst);
    assert_eq!((sent, answered), (1, 1), "a 32-wide wave took {sent} request and {answered} reply frames");
    assert_eq!(probe.0.lock().unwrap().len(), 1, "the wave ran on more than one thread");
    assert_eq!(server.served(), 32);

    // A lone op still goes out as a plain Schedule frame.
    assert_eq!(master.schedule_burst(vec![op(7)]), vec![ExecOutcome::Ok(Value::Int(8))]);
    assert_eq!(frames[0].load(Ordering::SeqCst), 2);
    server.stop();
}
