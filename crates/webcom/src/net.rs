//! TCP frontend for a client engine: the network half of the
//! master/client fabric.
//!
//! [`serve_tcp`] puts a [`ClientEngine`] behind a listener speaking the
//! length-prefixed wire protocol ([`crate::wire`]). Each connection is
//! served by its own thread: an `Identify` frame is answered with the
//! client's [`ClientIdentity`] (the registration handshake), a
//! `Schedule` frame runs the engine's full mutual mediation and answers
//! with the correlated reply. Malformed, oversized or truncated frames
//! close the connection — they never panic the server.
//!
//! The returned [`TcpClientServer`] can [`stop`](TcpClientServer::stop)
//! (orderly) or [`kill`](TcpClientServer::kill) (abrupt, severing live
//! connections mid-request) — the latter is how tests and benches
//! simulate a crashed client for the master's failover path.

use crate::client::ClientEngine;
use crate::protocol::{
    ClientIdentity, ExecError, ExecOutcome, ScheduleReply, ScheduleRequest, WireRequest,
    WireResponse,
};
use crate::wire::{encode_frame, read_frame, write_encoded, write_frame};
use hetsec_rbac::Domain;
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Shared shutdown state between the server handle and its threads.
struct ServerShared {
    stop: AtomicBool,
    /// `try_clone`d handles of live connections, so `kill` can sever
    /// them while handler threads are blocked reading.
    conns: Mutex<Vec<TcpStream>>,
    served: AtomicUsize,
}

/// A running TCP client server.
pub struct TcpClientServer {
    engine: Arc<ClientEngine>,
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpClientServer {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The engine behind the listener.
    pub fn engine(&self) -> Arc<ClientEngine> {
        Arc::clone(&self.engine)
    }

    /// Schedule frames answered so far.
    pub fn served(&self) -> usize {
        self.shared.served.load(Ordering::SeqCst)
    }

    /// Requests answered from the engine's executed-op memo instead of
    /// executing again — masters re-asking after timeouts/failovers
    /// (duplicate-execution protection at work).
    pub fn replayed(&self) -> usize {
        self.engine.stats().replayed
    }

    /// Stops accepting and closes every connection, then joins the
    /// accept thread. In-flight requests on severed connections surface
    /// to the master as transport errors (it reschedules them).
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Simulates a crash: identical to [`stop`](Self::stop), named for
    /// what the *master* observes — connections reset mid-request and
    /// the port stops answering. Fault-tolerance tests kill a serving
    /// client mid-burst and assert the master completes every operation
    /// on a survivor.
    pub fn kill(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in self.shared.conns.lock().drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Wake the accept loop (it polls, but connecting is faster).
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(100));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpClientServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// Per-connection serving options.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Schedule frames a single connection may be executing at once.
    /// 1 (the default) keeps the classic sequential read→handle→write
    /// loop; larger values give each connection a worker pool so a
    /// pipelined transport ([`crate::MuxTransport`]) can keep many ops
    /// in flight down one socket. Replies are then written as they
    /// complete — out of order — which only a transport that correlates
    /// by `op_id` may consume.
    pub pipeline: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { pipeline: 1 }
    }
}

/// Serves `engine` on `addr` (e.g. `"127.0.0.1:0"` to let the OS pick a
/// port), announcing `domains` in the Identify handshake. Sequential
/// per-connection handling; see [`serve_tcp_with`] for pipelining.
pub fn serve_tcp(
    engine: Arc<ClientEngine>,
    domains: Vec<Domain>,
    addr: &str,
) -> std::io::Result<TcpClientServer> {
    serve_tcp_with(engine, domains, addr, ServeOptions::default())
}

/// [`serve_tcp`] with explicit [`ServeOptions`].
pub fn serve_tcp_with(
    engine: Arc<ClientEngine>,
    domains: Vec<Domain>,
    addr: &str,
    opts: ServeOptions,
) -> std::io::Result<TcpClientServer> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let shared = Arc::new(ServerShared {
        stop: AtomicBool::new(false),
        conns: Mutex::new(Vec::new()),
        served: AtomicUsize::new(0),
    });
    let identity = ClientIdentity {
        name: engine.name().to_string(),
        key_text: engine.key_text().to_string(),
        domains,
    };
    let accept_engine = Arc::clone(&engine);
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name(format!("webcom-serve-{}", engine.name()))
        .spawn(move || {
            accept_loop(listener, accept_engine, identity, accept_shared, opts);
        })?;
    Ok(TcpClientServer {
        engine,
        local_addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<ClientEngine>,
    identity: ClientIdentity,
    shared: Arc<ServerShared>,
    opts: ServeOptions,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    let _ = stream.shutdown(Shutdown::Both);
                    break;
                }
                stream.set_nodelay(true).ok();
                // Blocking I/O on the handler side; the accept socket
                // stays nonblocking.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().push(clone);
                }
                let engine = Arc::clone(&engine);
                let identity = identity.clone();
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("webcom-conn".to_string())
                    .spawn(move || {
                        if opts.pipeline > 1 {
                            serve_connection_pipelined(
                                stream,
                                engine,
                                identity,
                                shared,
                                opts.pipeline,
                            )
                        } else {
                            serve_connection(stream, engine, identity, shared)
                        }
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// The answer a client gives a peer-routed `Forward` frame: clients
/// execute for masters; only masters route for masters.
fn forward_misdirected(req: &ScheduleRequest) -> WireResponse {
    WireResponse::ForwardReply(ScheduleReply {
        op_id: req.op_id,
        client: "client".to_string(),
        outcome: ExecOutcome::Failed(ExecError::protocol(
            "Forward frames are master-to-master; this endpoint is a client",
        )),
        replayed: false,
    })
}

/// Serves one connection until the peer hangs up, sends garbage, or the
/// server shuts down. Every exit path is a clean return — wire errors
/// close the connection, they never panic.
fn serve_connection(
    mut stream: TcpStream,
    engine: Arc<ClientEngine>,
    identity: ClientIdentity,
    shared: Arc<ServerShared>,
) {
    // Truncated covers the peer closing; Malformed/Oversized cover
    // garbage. Either way: drop the connection.
    while let Ok(request) = read_frame::<WireRequest, _>(&mut stream) {
        let response = match request {
            WireRequest::Identify => WireResponse::Identity(identity.clone()),
            WireRequest::Schedule(req) => {
                let reply = engine.handle(&req);
                shared.served.fetch_add(1, Ordering::SeqCst);
                WireResponse::Reply(reply)
            }
            WireRequest::Forward { request, .. } => forward_misdirected(&request),
        };
        if write_frame(&mut stream, &response).is_err() {
            break;
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Pipelined variant: one reader (this thread) plus `pipeline` workers
/// executing Schedule frames concurrently and writing replies — in
/// completion order — through a shared writer half. The transport on
/// the other side must correlate replies by `op_id`.
fn serve_connection_pipelined(
    mut stream: TcpStream,
    engine: Arc<ClientEngine>,
    identity: ClientIdentity,
    shared: Arc<ServerShared>,
    pipeline: usize,
) {
    let Ok(writer) = stream.try_clone() else {
        // Cannot split the socket: fall back to sequential serving.
        return serve_connection(stream, engine, identity, shared);
    };
    let writer = Arc::new(Mutex::new(writer));
    let (tx, rx) = crossbeam::channel::unbounded::<Box<ScheduleRequest>>();
    let rx = Arc::new(Mutex::new(rx));
    let mut workers = Vec::with_capacity(pipeline);
    for _ in 0..pipeline {
        let rx = Arc::clone(&rx);
        let writer = Arc::clone(&writer);
        let engine = Arc::clone(&engine);
        let shared = Arc::clone(&shared);
        let Ok(worker) = std::thread::Builder::new()
            .name("webcom-conn-worker".to_string())
            .spawn(move || loop {
                // Hold the receiver lock only while dequeueing so
                // workers handle requests concurrently.
                let req = match rx.lock().recv() {
                    Ok(req) => req,
                    Err(_) => break, // reader gone, queue drained
                };
                let reply = engine.handle(&req);
                shared.served.fetch_add(1, Ordering::SeqCst);
                // Encode outside the writer lock so workers serialise
                // replies in parallel and queue only for the write.
                let frame = encode_frame(&WireResponse::Reply(reply));
                let mut w = writer.lock();
                if frame.and_then(|f| write_encoded(&mut *w, &f)).is_err() {
                    let _ = w.shutdown(Shutdown::Both);
                    break;
                }
            })
        else {
            break;
        };
        workers.push(worker);
    }
    while let Ok(request) = read_frame::<WireRequest, _>(&mut stream) {
        let response = match request {
            WireRequest::Identify => Some(WireResponse::Identity(identity.clone())),
            WireRequest::Schedule(req) => {
                if tx.send(req).is_err() {
                    break; // every worker died
                }
                None
            }
            WireRequest::Forward { request, .. } => Some(forward_misdirected(&request)),
        };
        if let Some(response) = response {
            let Ok(frame) = encode_frame(&response) else {
                break;
            };
            if write_encoded(&mut *writer.lock(), &frame).is_err() {
                break;
            }
        }
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    // Closing the queue lets workers drain in-flight requests and exit.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::{ScheduledAction, TrustManager};
    use crate::client::{ClientConfig, ClientEngine};
    use crate::protocol::{ArithComponentExecutor, ExecOutcome, ScheduleRequest};
    use crate::stack::{AuthzStack, TrustLayer};
    use crate::transport::TcpTransport;
    use crate::wire::write_frame as wire_write;
    use hetsec_graphs::Value;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::MiddlewareKind;
    use std::io::Write;

    fn tm(policy: &str) -> Arc<TrustManager> {
        let t = TrustManager::permissive();
        t.add_policy(policy).unwrap();
        Arc::new(t)
    }

    fn engine(name: &str, key: &str) -> Arc<ClientEngine> {
        let master_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        Arc::new(ClientEngine::new(ClientConfig {
            name: name.to_string(),
            key_text: key.to_string(),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        }))
    }

    fn request(op_id: u64) -> ScheduleRequest {
        ScheduleRequest {
            op_id,
            action: ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            credentials: vec![],
            stamps: vec![],
            args: vec![Value::Int(20), Value::Int(22)],
        }
    }

    #[test]
    fn identify_then_schedule_over_tcp() {
        let server = serve_tcp(engine("c1", "Kc1"), vec!["Dom".into()], "127.0.0.1:0").unwrap();
        let transport = TcpTransport::new(server.local_addr());
        let id = transport.identify(Duration::from_secs(5)).unwrap();
        assert_eq!(id.name, "c1");
        assert_eq!(id.key_text, "Kc1");
        assert_eq!(id.domains, vec![Domain::from("Dom")]);
        use crate::transport::ClientTransport;
        let reply = transport.call(&request(1), Duration::from_secs(5)).unwrap();
        assert_eq!(reply.op_id, 1);
        assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(42)));
        assert_eq!(server.served(), 1);
        server.stop();
    }

    #[test]
    fn garbage_frames_close_the_connection_not_the_server() {
        let server = serve_tcp(engine("c1", "Kc1"), vec!["Dom".into()], "127.0.0.1:0").unwrap();
        // Connection 1 feeds garbage: an absurd length prefix.
        let mut bad = TcpStream::connect(server.local_addr()).unwrap();
        bad.write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3]).unwrap();
        bad.flush().unwrap();
        // Connection 2 then feeds a frame that is valid JSON of the
        // wrong shape.
        let mut wrong = TcpStream::connect(server.local_addr()).unwrap();
        wire_write(&mut wrong, &42u64).unwrap();
        // The server must still answer a well-formed connection.
        let transport = TcpTransport::new(server.local_addr());
        use crate::transport::ClientTransport;
        let reply = transport.call(&request(5), Duration::from_secs(5)).unwrap();
        assert!(reply.outcome.is_ok());
        server.stop();
    }

    #[test]
    fn killed_server_resets_connections() {
        let server = serve_tcp(engine("c1", "Kc1"), vec!["Dom".into()], "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let transport = TcpTransport::new(addr);
        use crate::transport::ClientTransport;
        assert!(transport.call(&request(1), Duration::from_secs(5)).is_ok());
        server.kill();
        // The established connection is gone and reconnecting fails (or
        // is answered by nobody): either way the call errors.
        let err = transport
            .call(&request(2), Duration::from_millis(500))
            .unwrap_err();
        assert!(!matches!(err, crate::transport::TransportError::Protocol(_)), "{err:?}");
    }
}
