//! TCP frontends of the master/client fabric.
//!
//! [`serve_tcp`] puts a [`ClientEngine`] behind a listener speaking the
//! length-prefixed wire protocol ([`crate::wire`]): an `Identify` frame
//! is answered with the client's [`ClientIdentity`] (the registration
//! handshake), a `Schedule` frame runs the engine's full mutual
//! mediation and answers with the correlated reply, and a
//! `ScheduleBatch` frame is mediated once for its shared head and each
//! of its ops answered by `op_id`. The master's peer listener
//! ([`crate::serve_master`]) is the same listener with another handler.
//!
//! Both run on one listener core: an accept thread, a stop flag, and
//! the set of live connections. Each connection is served
//! leader/follower style (Schmidt et al.'s Leader/Followers pattern):
//! the thread that reads a request frame also runs the handler and
//! writes the reply, under a writer lock, in completion order, and the
//! read role passes to a thread already waiting for it. With `pipeline`
//! 1 one thread does it all, a frame at a time. With more, a connection
//! starts with two threads, so a slow op never holds up the next frame,
//! and grows toward `pipeline` only while a backlog of work is visible
//! with every other thread busy handling.
//!
//! A batch frame's ops go into the connection's *backlog* before the
//! read role passes on. The thread that read the frame runs them one
//! after another and writes the replies of the ops it ran as one
//! `ReplyBatch` frame, so a batch of fast ops costs one thread, one
//! reply frame and no hand-off. While the backlog holds ops or unwritten
//! replies, the leader's read times out every [`HELP_AFTER`]; once an op
//! has run, or waited to start, that long — the ops are slow — the
//! leader helps: it takes ops from the backlog (adding a thread under
//! the growth rule, since the read role is then free) and writes the
//! replies waiting there. A thread that takes the read role while the
//! backlog is stalled helps at once, so slow ops spread over new threads
//! without a timeout per thread. So slow ops still overlap up to
//! `pipeline`, and a slow op delays its batch-mates' replies by about
//! `HELP_AFTER`, not by its own run time.
//!
//! The leader also keeps the connection's table of presented sets (see
//! [`crate::wire`]): it applies each `DefineSet` frame and replaces each
//! set a request frame names by id with the set itself, in frame order,
//! before it passes the read role on, so handlers only ever get
//! complete requests.
//!
//! Malformed, oversized or truncated frames close the connection — they
//! never panic the server — and so do a definition whose stated id is
//! not its content's and a frame naming a set the peer never defined
//! (or one already evicted); nothing of such a frame runs. A closed
//! connection leaves the tracked set.
//!
//! The returned [`TcpClientServer`] can [`stop`](TcpClientServer::stop)
//! (orderly) or [`kill`](TcpClientServer::kill) (abrupt, severing live
//! connections mid-request) — the latter is how tests and benches
//! simulate a crashed client for the master's failover path.

use crate::client::{ClientEngine, Mediation};
use crate::protocol::{
    BatchOp, ClientIdentity, ExecError, ExecOutcome, ScheduleBatch, ScheduleReply, WireRequest,
    WireResponse,
};
use crate::wire::{encode_frame, write_encoded, FrameReader, SetTable};
use hetsec_rbac::Domain;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

/// How long a batch op may run, or wait to start, before it counts as
/// *slow*, and the connection's leader, while batch work waits, helps
/// with it. Far above a fast op's run time, so a batch of fast ops
/// finishes on the thread that read it; and about the most a slow op
/// delays the replies of its batch-mates, or their start while a thread
/// is free, give or take the kernel's rounding of the leader's read
/// timeout.
pub const HELP_AFTER: Duration = Duration::from_millis(1);

/// How a listener answers its connections' frames.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Answers one frame.
    fn answer(&self, request: WireRequest) -> WireResponse;

    /// Splits a batch frame into ops the connection's threads share,
    /// or hands it back to be [`answer`](Self::answer)ed whole.
    fn split(&self, batch: Box<ScheduleBatch>) -> Result<Arc<ServedBatch>, Box<ScheduleBatch>> {
        Err(batch)
    }
}

impl<F> Handler for F
where
    F: Fn(WireRequest) -> WireResponse + Send + Sync + 'static,
{
    fn answer(&self, request: WireRequest) -> WireResponse {
        self(request)
    }
}

/// State a listener shares with its accept and connection threads.
struct ListenerState {
    stop: AtomicBool,
    /// `try_clone`d handles of live connections by connection number,
    /// so `shutdown` can sever them while their threads are blocked
    /// reading. A connection's thread removes its own entry when it
    /// ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// A bound listener with its accept thread, answering every request
/// frame through one handler. Dropping it shuts it down.
pub(crate) struct Listener {
    local_addr: SocketAddr,
    state: Arc<ListenerState>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` and serves each accepted connection with `handler`,
    /// `pipeline` frames at a time (see [`ServeOptions::pipeline`]).
    pub(crate) fn spawn<H: Handler>(
        addr: &str,
        name: String,
        pipeline: usize,
        handler: H,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::new(ListenerState {
            stop: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
        });
        let accept_state = Arc::clone(&state);
        let handler = Arc::new(handler);
        let accept_thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || accept_loop(listener, handler, pipeline, accept_state))?;
        Ok(Listener {
            local_addr,
            state,
            accept_thread: Some(accept_thread),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, severs every live connection, and joins the
    /// accept thread. Requests in flight on a severed connection
    /// surface to the caller as transport errors.
    pub(crate) fn shutdown(&mut self) {
        let Some(accept_thread) = self.accept_thread.take() else {
            return;
        };
        self.state.stop.store(true, Ordering::SeqCst);
        for (_, conn) in self.state.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        // Wake the accept loop (it polls, but connecting is faster).
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(100));
        let _ = accept_thread.join();
    }

    /// Connections tracked as live, polled until there are none or
    /// `wait` has passed: closed connections leave the set
    /// asynchronously, as their threads end.
    #[cfg(test)]
    pub(crate) fn tracked_after(&self, wait: Duration) -> usize {
        let deadline = std::time::Instant::now() + wait;
        loop {
            let tracked = self.state.conns.lock().len();
            if tracked == 0 || std::time::Instant::now() >= deadline {
                return tracked;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop<H: Handler>(
    listener: TcpListener,
    handler: Arc<H>,
    pipeline: usize,
    state: Arc<ListenerState>,
) {
    let mut next_id = 0u64;
    while !state.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                // Blocking I/O on the connection side; the accept
                // socket stays nonblocking.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let Ok(tracked) = stream.try_clone() else {
                    continue;
                };
                let id = next_id;
                next_id += 1;
                {
                    // Checked under the lock `shutdown` drains with, so
                    // a connection is either drained or never tracked.
                    let mut conns = state.conns.lock();
                    if state.stop.load(Ordering::SeqCst) {
                        let _ = stream.shutdown(Shutdown::Both);
                        break;
                    }
                    conns.insert(id, tracked);
                }
                let handler = Arc::clone(&handler);
                let conn_state = Arc::clone(&state);
                let spawned = std::thread::Builder::new()
                    .name("webcom-conn".to_string())
                    .spawn(move || {
                        connection_loop(stream, &*handler, pipeline, &conn_state.stop);
                        conn_state.conns.lock().remove(&id);
                    });
                if spawned.is_err() {
                    state.conns.lock().remove(&id);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => break,
        }
    }
}

/// One connection served leader/follower style. The thread holding
/// `turn` is the leader: it reads the next frame, passes the read role
/// on by releasing the lock to a thread already waiting for it, then
/// handles the frame and writes the reply itself. No frame changes
/// threads on its way from the socket to the handler.
struct Connection<'a, H> {
    stream: TcpStream,
    turn: Mutex<Turn>,
    /// Serialises reply writes; replies go out in completion order.
    writing: Mutex<()>,
    /// Batch ops not yet started and replies not yet written.
    backlog: Mutex<Backlog>,
    /// Threads inside the handler or running batch ops.
    busy: AtomicUsize,
    /// Set once a read fails or a reply cannot be written: no thread
    /// takes another turn.
    closed: AtomicBool,
    handler: &'a H,
    pipeline: usize,
    stop: &'a AtomicBool,
}

/// What the leader holds.
struct Turn {
    frames: FrameReader,
    /// The presented sets the peer has defined on this connection.
    sets: SetTable,
    /// Threads serving the connection, at most `pipeline`.
    threads: usize,
    /// Whether reads time out after [`HELP_AFTER`].
    polling: bool,
}

/// Work published by batch frames.
#[derive(Default)]
struct Backlog {
    /// Batches with ops not yet started, each with its next op and
    /// when it was published.
    ops: VecDeque<(Arc<ServedBatch>, usize, Instant)>,
    /// Replies of finished ops not yet written.
    done: Vec<ScheduleReply>,
    /// When each op now running started.
    running: Vec<Instant>,
}

/// A batch op taken from the backlog: the batch, the op's index, and
/// when it started.
type Taken = (Arc<ServedBatch>, usize, Instant);

impl Backlog {
    /// Takes the next op not yet started.
    fn next_op(&mut self) -> Option<Taken> {
        let (batch, next, _) = self.ops.front_mut()?;
        let started = Instant::now();
        let op = (Arc::clone(batch), *next, started);
        *next += 1;
        if *next == batch.len() {
            self.ops.pop_front();
        }
        self.running.push(started);
        Some(op)
    }

    /// Records the reply of the op that started at `started`.
    fn finish(&mut self, started: Instant, reply: ScheduleReply) {
        if let Some(k) = self.running.iter().position(|&t| t == started) {
            self.running.swap_remove(k);
        }
        self.done.push(reply);
    }

    /// True while ops wait to start or replies to be written.
    fn waiting(&self) -> bool {
        !self.ops.is_empty() || !self.done.is_empty()
    }

    /// True when work waits while an op has run, or the oldest op not
    /// yet started has waited, for [`HELP_AFTER`]: the ops are slow, and
    /// hold up what waits behind them. Waiting counts as well as running
    /// because a leader looks only when its read times out, which the
    /// kernel rounds up to whole scheduler ticks (a 1 ms timeout fired
    /// after 4–9 ms on a 2-vCPU host): by then an op of a few
    /// milliseconds may have just started, behind others that ran one
    /// after another.
    fn stalled(&self) -> bool {
        let slow = |t: &Instant| t.elapsed() >= HELP_AFTER;
        self.waiting()
            && (self.running.iter().any(slow) || self.ops.front().is_some_and(|(.., t)| slow(t)))
    }
}

/// What a turn at the socket yields.
enum Work {
    /// A frame to answer.
    Frame(WireRequest),
    /// Backlog to work through: a batch was just published, or the
    /// leader's read timed out with backlog waiting.
    Backlog,
}

impl<'a, H: Handler> Connection<'a, H> {
    /// Takes turns at the socket until the connection closes. A leader
    /// adds a thread only when work is visible behind what it took — a
    /// whole frame in the read buffer, or ops in the backlog — and every
    /// other thread is busy, so the threads taking turns track the work
    /// actually in flight.
    fn take_turns<'scope>(&'a self, scope: &'scope Scope<'scope, 'a>) {
        loop {
            let work = {
                let mut turn = self.turn.lock();
                if self.closed.load(Ordering::SeqCst) || self.stop.load(Ordering::SeqCst) {
                    self.closed.store(true, Ordering::SeqCst);
                    return;
                }
                let Some(work) = self.read(&mut turn) else {
                    self.closed.store(true, Ordering::SeqCst);
                    return;
                };
                if (turn.frames.has_frame() || !self.backlog.lock().ops.is_empty())
                    && turn.threads < self.pipeline
                    && self.busy.load(Ordering::SeqCst) + 1 == turn.threads
                    && self.follow(scope)
                {
                    turn.threads += 1;
                }
                self.busy.fetch_add(1, Ordering::SeqCst);
                work
            };
            let response = match work {
                Work::Frame(request) => Some(self.handler.answer(request)),
                Work::Backlog => self.work_backlog(),
            };
            self.busy.fetch_sub(1, Ordering::SeqCst);
            let Some(response) = response else { continue };
            let frame = encode_frame(&response);
            let _writing = self.writing.lock();
            if frame.and_then(|f| write_encoded(&mut &self.stream, &f)).is_err() {
                // Wakes a leader blocked reading.
                self.closed.store(true, Ordering::SeqCst);
                let _ = self.stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }

    /// As the leader, reads the next frame, publishing a batch frame's
    /// ops to the backlog before the read role passes on. A stalled
    /// backlog is work before the socket is, unless a whole frame is
    /// buffered; while backlog waits, the read gives up every
    /// [`HELP_AFTER`] to look again. `None` when the connection is done.
    fn read(&self, turn: &mut Turn) -> Option<Work> {
        loop {
            if !turn.frames.has_frame() {
                let (waiting, stalled) = {
                    let backlog = self.backlog.lock();
                    (backlog.waiting(), backlog.stalled())
                };
                if stalled {
                    return Some(Work::Backlog);
                }
                if waiting != turn.polling {
                    self.stream.set_read_timeout(waiting.then_some(HELP_AFTER)).ok()?;
                    turn.polling = waiting;
                }
            }
            let request = match turn.frames.read_frame::<WireRequest, _>(&mut &self.stream) {
                Ok(request) => request,
                Err(e) if e.is_timeout() => continue,
                Err(_) => return None,
            };
            let mut request = match request {
                // Stored under the id its content hashes to, in frame
                // order; a stated id that is not that closes the
                // connection.
                WireRequest::DefineSet { id, set } if set.id() == Some(id) => {
                    turn.sets.insert(id, set);
                    continue;
                }
                WireRequest::DefineSet { .. } => return None,
                request => request,
            };
            // A set named but never defined closes the connection:
            // nothing of the frame runs.
            if !turn.sets.resolve(&mut request) {
                return None;
            }
            return Some(match request {
                WireRequest::ScheduleBatch(batch) => match self.handler.split(batch) {
                    Ok(batch) => {
                        if batch.len() > 0 {
                            self.backlog.lock().ops.push_back((batch, 0, Instant::now()));
                        }
                        Work::Backlog
                    }
                    Err(batch) => Work::Frame(WireRequest::ScheduleBatch(batch)),
                },
                request => Work::Frame(request),
            });
        }
    }

    /// Runs backlog ops until none is left unstarted, then takes every
    /// reply waiting to be written — this thread's and any a thread
    /// still busy with a slow op left behind — as one frame. Once the
    /// listener stops, ops not yet started never run, as after a crash.
    fn work_backlog(&self) -> Option<WireResponse> {
        let mut next = self.backlog.lock().next_op();
        while let Some((batch, i, started)) = next {
            let reply = batch.run(i);
            let mut backlog = self.backlog.lock();
            backlog.finish(started, reply);
            next = if self.stop.load(Ordering::SeqCst) {
                None
            } else {
                backlog.next_op()
            };
        }
        let mut done = std::mem::take(&mut self.backlog.lock().done);
        match done.len() {
            0 => None,
            1 => done.pop().map(WireResponse::Reply),
            _ => Some(WireResponse::ReplyBatch(done)),
        }
    }

    /// Starts one more thread taking turns; false if none could start.
    fn follow<'scope>(&'a self, scope: &'scope Scope<'scope, 'a>) -> bool {
        std::thread::Builder::new()
            .name("webcom-conn".to_string())
            .spawn_scoped(scope, move || self.take_turns(scope))
            .is_ok()
    }
}

/// Serves one connection until the peer hangs up, sends garbage, or the
/// listener stops. With `pipeline` 1 one thread answers each frame
/// before reading the next, and runs a batch frame's ops one after
/// another. With more, a second thread takes the read role while the
/// first handles a frame, more join while a backlog of work is visible,
/// and replies go out as they complete, so the client must correlate
/// them by `op_id`. Frames read before the peer hung up are still
/// answered.
fn connection_loop<H: Handler>(stream: TcpStream, handler: &H, pipeline: usize, stop: &AtomicBool) {
    let conn = Connection {
        stream,
        turn: Mutex::new(Turn {
            frames: FrameReader::new(),
            sets: SetTable::default(),
            threads: 1,
            polling: false,
        }),
        writing: Mutex::new(()),
        backlog: Mutex::new(Backlog::default()),
        busy: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        handler,
        pipeline,
        stop,
    };
    std::thread::scope(|scope| {
        let mut turn = conn.turn.lock();
        if pipeline > 1 && conn.follow(scope) {
            turn.threads += 1;
        }
        drop(turn);
        conn.take_turns(scope);
    });
    let _ = conn.stream.shutdown(Shutdown::Both);
}

/// A running TCP client server.
pub struct TcpClientServer {
    engine: Arc<ClientEngine>,
    served: Arc<AtomicUsize>,
    listener: Listener,
}

impl TcpClientServer {
    /// The address the server is listening on (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// The engine behind the listener.
    pub fn engine(&self) -> Arc<ClientEngine> {
        Arc::clone(&self.engine)
    }

    /// Ops answered so far: one per `Schedule` frame and one per op of
    /// a `ScheduleBatch` frame.
    pub fn served(&self) -> usize {
        self.served.load(Ordering::SeqCst)
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
        self.listener.shutdown();
    }

    /// Simulates a crash: identical to [`stop`](Self::stop), named for
    /// what the *master* observes — connections reset mid-request and
    /// the port stops answering. Fault-tolerance tests kill a serving
    /// client mid-burst and assert the master completes every operation
    /// on a survivor.
    pub fn kill(mut self) {
        self.listener.shutdown();
    }
}

/// Per-connection serving options.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// The most threads that may handle one connection's frames and
    /// batch ops at once. 1 (the default) answers each frame before
    /// reading the next, running a batch frame's ops one after another.
    /// Above 1, a connection starts with two threads taking turns at the
    /// socket and adds one, up to this bound, only when work is already
    /// waiting behind what the leader took — a whole frame in the read
    /// buffer, or batch ops left unstarted behind an op that has run
    /// for [`HELP_AFTER`] — and every other thread is busy — so
    /// [`crate::MuxTransport`] can keep many ops in flight down one
    /// socket without paying for threads it does not use. A batch of
    /// fast ops runs on the thread that read it and is answered with one
    /// frame; slow ops of a batch overlap up to this bound. Replies are
    /// written as they complete — out of order — and the mux correlates
    /// them by `op_id`.
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
    let identity = ClientIdentity {
        name: engine.name().to_string(),
        key_text: engine.key_text().to_string(),
        domains,
    };
    let served = Arc::new(AtomicUsize::new(0));
    let service = ClientService {
        engine: Arc::clone(&engine),
        identity,
        served: Arc::clone(&served),
    };
    let name = format!("webcom-serve-{}", engine.name());
    let listener = Listener::spawn(addr, name, opts.pipeline, service)?;
    Ok(TcpClientServer {
        engine,
        served,
        listener,
    })
}

/// The handler behind [`serve_tcp_with`].
struct ClientService {
    engine: Arc<ClientEngine>,
    identity: ClientIdentity,
    /// Ops answered.
    served: Arc<AtomicUsize>,
}

impl Handler for ClientService {
    fn answer(&self, request: WireRequest) -> WireResponse {
        match request {
            WireRequest::Identify => WireResponse::Identity(self.identity.clone()),
            WireRequest::Schedule(req) => {
                let mut replies = self.engine.handle_batch(ScheduleBatch::from(*req));
                self.served.fetch_add(1, Ordering::SeqCst);
                WireResponse::Reply(replies.pop().expect("one reply per op"))
            }
            // Split off to the connection's threads; never answered whole.
            WireRequest::ScheduleBatch(batch) => {
                WireResponse::ReplyBatch(self.engine.handle_batch(*batch))
            }
            // Applied by the connection's reader; never answered.
            WireRequest::DefineSet { .. } => WireResponse::Error(ExecError::protocol(
                "a set definition is not a request",
            )),
            // Clients execute for masters; only masters route for masters.
            WireRequest::Forward { request, .. } => WireResponse::ForwardReply(ScheduleReply {
                op_id: request.op_id,
                client: "client".to_string(),
                outcome: ExecOutcome::Failed(ExecError::protocol(
                    "Forward frames are master-to-master; this endpoint is a client",
                )),
                replayed: false,
            }),
        }
    }

    fn split(&self, mut batch: Box<ScheduleBatch>) -> Result<Arc<ServedBatch>, Box<ScheduleBatch>> {
        Ok(Arc::new(ServedBatch {
            engine: Arc::clone(&self.engine),
            served: Arc::clone(&self.served),
            ops: std::mem::take(&mut batch.ops),
            head: Mutex::new(Some(batch)),
            mediation: OnceLock::new(),
        }))
    }
}

/// A batch frame being served, whose ops a connection's threads share:
/// each runs on whichever thread takes it and yields its own reply. The
/// head is mediated once, by the first thread to run one of the ops.
pub(crate) struct ServedBatch {
    engine: Arc<ClientEngine>,
    served: Arc<AtomicUsize>,
    ops: Vec<BatchOp>,
    /// The head, until it is mediated.
    head: Mutex<Option<Box<ScheduleBatch>>>,
    mediation: OnceLock<Mediation>,
}

impl ServedBatch {
    /// How many ops the batch holds.
    fn len(&self) -> usize {
        self.ops.len()
    }

    /// Runs op `i`.
    fn run(&self, i: usize) -> ScheduleReply {
        let mediation = self.mediation.get_or_init(|| {
            let head = self.head.lock().take().expect("a head is mediated once");
            self.engine.mediate(*head)
        });
        let reply = self.engine.run_op(mediation, &self.ops[i]);
        self.served.fetch_add(1, Ordering::SeqCst);
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Presented;
    use crate::authz::{ScheduledAction, TrustManager};
    use crate::client::{ClientConfig, ClientEngine};
    use crate::mux::MuxTransport;
    use crate::protocol::{ArithComponentExecutor, ComponentExecutor, ScheduleRequest};
    use crate::stack::{AuthzStack, TrustLayer};
    use crate::transport::{ClientTransport, TransportError};
    use crate::wire::write_frame as wire_write;
    use hetsec_graphs::Value;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::MiddlewareKind;
    use hetsec_rbac::User;
    use std::collections::HashSet;
    use std::io::Write;
    use std::thread::ThreadId;
    use std::time::Instant;

    fn tm(policy: &str) -> Arc<TrustManager> {
        let t = TrustManager::permissive();
        t.add_policy(policy).unwrap();
        Arc::new(t)
    }

    fn engine(name: &str, key: &str) -> Arc<ClientEngine> {
        engine_with(name, key, Arc::new(ArithComponentExecutor))
    }

    fn engine_with(
        name: &str,
        key: &str,
        executor: Arc<dyn ComponentExecutor>,
    ) -> Arc<ClientEngine> {
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
            executor,
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
            presented: Presented::default(),
            args: vec![Value::Int(20), Value::Int(22)],
        }
    }

    /// Sleeps `args[0]` milliseconds and answers it; records which
    /// threads ran the handler and how many ran it at once.
    #[derive(Default)]
    struct Probe {
        threads: Mutex<HashSet<ThreadId>>,
        running: AtomicUsize,
        max_running: AtomicUsize,
    }

    impl ComponentExecutor for Probe {
        fn invoke(
            &self,
            _user: &User,
            _component: &ComponentRef,
            args: &[Value],
        ) -> Result<Value, crate::protocol::ExecError> {
            let running = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.max_running.fetch_max(running, Ordering::SeqCst);
            self.threads.lock().insert(std::thread::current().id());
            let ms = match args.first() {
                Some(Value::Int(ms)) => *ms,
                _ => 0,
            };
            std::thread::sleep(Duration::from_millis(ms as u64));
            self.running.fetch_sub(1, Ordering::SeqCst);
            Ok(Value::Int(ms))
        }
    }

    fn sleeping(op_id: u64, ms: i64) -> ScheduleRequest {
        ScheduleRequest {
            args: vec![Value::Int(ms)],
            ..request(op_id)
        }
    }

    #[test]
    fn threads_track_the_frames_in_flight() {
        let probe = Arc::new(Probe::default());
        let server = serve_tcp_with(
            engine_with("c1", "Kc1", Arc::clone(&probe) as Arc<dyn ComponentExecutor>),
            vec!["Dom".into()],
            "127.0.0.1:0",
            ServeOptions { pipeline: 8 },
        )
        .unwrap();
        let transport = MuxTransport::new(server.local_addr());
        // Two callers in a closed loop keep at most two frames in
        // flight: the reader's thread and one follower serve them all.
        std::thread::scope(|s| {
            for caller in 0..2u64 {
                let transport = &transport;
                s.spawn(move || {
                    for i in 0..200 {
                        let reply = transport
                            .call(&sleeping(caller * 1000 + i, 0), Duration::from_secs(5))
                            .unwrap();
                        assert!(reply.outcome.is_ok(), "{reply:?}");
                    }
                });
            }
        });
        let handlers = probe.threads.lock().len();
        assert!(handlers <= 2, "a 2-caller loop ran on {handlers} threads");
        // A burst arrives as one write: the backlog is visible, so the
        // connection grows past its first two threads, but never past
        // `pipeline` handlers.
        let burst: Vec<ScheduleRequest> = (0..32).map(|i| sleeping(10_000 + i, 2)).collect();
        let refs: Vec<&ScheduleRequest> = burst.iter().collect();
        let started = Instant::now();
        let replies = transport.call_batch(&refs, Duration::from_secs(5));
        let elapsed = started.elapsed();
        assert!(replies.iter().all(|r| r.as_ref().is_ok_and(|r| r.outcome.is_ok())));
        let max_running = probe.max_running.load(Ordering::SeqCst);
        assert!(max_running <= 8, "{max_running} handlers ran at once");
        // 32 ops × 2 ms one at a time take ≥ 64 ms.
        assert!(
            max_running > 2 && elapsed < Duration::from_millis(64),
            "the burst did not overlap: {max_running} at once, {elapsed:?}"
        );
        server.stop();
    }

    #[test]
    fn a_slow_op_does_not_hold_up_a_later_fast_one() {
        let server = serve_tcp_with(
            engine_with("c1", "Kc1", Arc::new(Probe::default())),
            vec!["Dom".into()],
            "127.0.0.1:0",
            ServeOptions { pipeline: 8 },
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let started = Instant::now();
        wire_write(&mut stream, &WireRequest::Schedule(Box::new(sleeping(1, 300)))).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        wire_write(&mut stream, &WireRequest::Schedule(Box::new(sleeping(2, 0)))).unwrap();
        match crate::wire::read_frame::<WireResponse, _>(&mut stream).unwrap() {
            WireResponse::Reply(reply) => assert_eq!(reply.op_id, 2),
            other => panic!("unexpected frame {other:?}"),
        }
        let fast = started.elapsed();
        assert!(fast < Duration::from_millis(250), "the fast op waited {fast:?}");
        server.stop();
    }

    #[test]
    fn identify_then_schedule_over_tcp() {
        let server = serve_tcp(engine("c1", "Kc1"), vec!["Dom".into()], "127.0.0.1:0").unwrap();
        let transport = MuxTransport::new(server.local_addr());
        let id = transport.identify(Duration::from_secs(5)).unwrap();
        assert_eq!(id.name, "c1");
        assert_eq!(id.key_text, "Kc1");
        assert_eq!(id.domains, vec![Domain::from("Dom")]);
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
        let transport = MuxTransport::new(server.local_addr());
        let reply = transport.call(&request(5), Duration::from_secs(5)).unwrap();
        assert!(reply.outcome.is_ok());
        server.stop();
    }

    #[test]
    fn killed_server_resets_connections() {
        let server = serve_tcp(engine("c1", "Kc1"), vec!["Dom".into()], "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let transport = MuxTransport::new(addr);
        assert!(transport.call(&request(1), Duration::from_secs(5)).is_ok());
        server.kill();
        // The established connection is gone and reconnecting fails (or
        // is answered by nobody): either way the call errors.
        let err = transport
            .call(&request(2), Duration::from_millis(500))
            .unwrap_err();
        assert!(!matches!(err, TransportError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn closed_connections_leave_the_tracked_set() {
        for pipeline in [1, 4] {
            let server = serve_tcp_with(
                engine("c1", "Kc1"),
                vec!["Dom".into()],
                "127.0.0.1:0",
                ServeOptions { pipeline },
            )
            .unwrap();
            for _ in 0..100 {
                drop(TcpStream::connect(server.local_addr()).unwrap());
            }
            // A connection that was answered leaves the set too.
            let transport = MuxTransport::new(server.local_addr());
            assert!(transport.call(&request(1), Duration::from_secs(5)).is_ok());
            drop(transport);
            assert_eq!(
                server.listener.tracked_after(Duration::from_secs(5)),
                0,
                "pipeline {pipeline}: closed connections are still tracked"
            );
            server.stop();
        }
    }
}
