//! The traced run's instrumentation: an in-memory span recorder and
//! wrappers around the fabric's public layer traits. The program itself
//! is not instrumented; every span is recorded from this crate, around a
//! call into a layer.
//!
//! Recording is off unless [`set_enabled`] turned it on, so a wrapped
//! fabric can also run an untraced phase; the gap between the two
//! phases' median latency is the tracing overhead.

use hetsec_graphs::{EngineError, OpExecutor, Value};
use hetsec_middleware::component::ComponentRef;
use hetsec_rbac::User;
use hetsec_webcom::{
    AuthzContext, AuthzLayer, ClientEngine, ClientTransport, ComponentExecutor, ExecError,
    LayerLevel, PeerLink, ScheduleReply, ScheduleRequest, TransportError, Verdict, WebComMaster,
};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One caller request, timed by the load generator.
    Request,
    /// `ClientTransport::call` on the master side.
    TransportCall,
    /// `PeerLink::forward` from one master to its peer.
    PeerForward,
    /// One `AuthzLayer` of the client's stack, by level.
    Layer(LayerLevel),
    /// `ComponentExecutor::invoke` on the client.
    ExecInvoke,
    /// One primitive fired by the graphs engine (`OpExecutor::execute`).
    GraphPrimitive,
}

impl Kind {
    /// The span name written to the trace file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Request => "request",
            Kind::TransportCall => "transport.call",
            Kind::PeerForward => "peer.forward",
            Kind::Layer(LayerLevel::L0Os) => "stack.l0_os",
            Kind::Layer(LayerLevel::L1Middleware) => "stack.l1_mw",
            Kind::Layer(LayerLevel::L2TrustManagement) => "stack.l2_trust",
            Kind::Layer(LayerLevel::L3Application) => "stack.l3_app",
            Kind::ExecInvoke => "exec.invoke",
            Kind::GraphPrimitive => "graphs.primitive",
        }
    }
}

/// Request index for spans whose layer never sees one.
pub const NO_REQUEST: u64 = u64::MAX;

/// One recorded interval, in nanoseconds since the trace origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Where it was recorded.
    pub kind: Kind,
    /// Recording thread (dense ids, in first-record order).
    pub thread: u32,
    /// The request index from `args[0]`, or [`NO_REQUEST`].
    pub req: u64,
    /// Start offset.
    pub start: u64,
    /// End offset.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

thread_local! {
    /// This thread's id and span buffer, registered on first use so the
    /// recording path only takes its own, uncontended lock.
    static LOCAL: (u32, Buffer) = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        BUFFERS.lock().expect("span registry poisoned").push(Arc::clone(&buffer));
        (NEXT_THREAD.fetch_add(1, Ordering::Relaxed), buffer)
    };
    /// Set while the benchmark replays a sample on the side, so the
    /// replay leaves no spans.
    static SUPPRESSED: Cell<bool> = const { Cell::new(false) };
    /// A sampled exchange waiting for its caller to finish the request.
    static PENDING: RefCell<Option<Sample>> = const { RefCell::new(None) };
    /// Marks the load generator's caller threads.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    ORIGIN.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::SeqCst);
}

/// The start of a span, or `None` when nothing is being recorded (then
/// the clock is not even read).
pub fn begin() -> Option<Instant> {
    (ENABLED.load(Ordering::Relaxed) && !SUPPRESSED.with(Cell::get)).then(Instant::now)
}

/// Records the span opened by [`begin`].
pub fn end(kind: Kind, req: u64, started: Option<Instant>) {
    if let Some(start) = started {
        record(kind, req, start, Instant::now());
    }
}

/// Records a span whose ends the caller timed itself.
pub fn record(kind: Kind, req: u64, start: Instant, end: Instant) {
    let origin = *ORIGIN.get().expect("set_enabled runs before any span");
    let span = |thread| Span {
        kind,
        thread,
        req,
        start: nanos(start.saturating_duration_since(origin)),
        end: nanos(end.saturating_duration_since(origin)),
    };
    LOCAL.with(|(thread, buffer)| {
        buffer
            .lock()
            .expect("span buffer poisoned")
            .push(span(*thread));
    });
}

/// Takes every recorded span out of every thread's buffer.
pub fn drain() -> Vec<Span> {
    let buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut spans = Vec::new();
    for b in buffers.iter() {
        spans.append(&mut b.lock().expect("span buffer poisoned"));
    }
    spans
}

/// Runs `f` with span recording suppressed on this thread.
pub fn suppressed<R>(f: impl FnOnce() -> R) -> R {
    SUPPRESSED.with(|s| s.set(true));
    let out = f();
    SUPPRESSED.with(|s| s.set(false));
    out
}

/// Marks the current thread as a load-generator caller: only callers
/// take samples, and they replay them between requests.
pub fn mark_caller() {
    IS_CALLER.with(|c| c.set(true));
}

/// The sampled exchange this caller's last request left behind, if any.
pub fn take_pending() -> Option<Sample> {
    PENDING.with(|p| p.borrow_mut().take())
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The request index the benchmark puts in `args[0]`.
fn request_index(args: &[Value]) -> u64 {
    args.first()
        .and_then(Value::as_int)
        .and_then(|i| u64::try_from(i).ok())
        .unwrap_or(NO_REQUEST)
}

/// One sampled master→client exchange, replayed off the timed path
/// through the wire codec and a twin client engine.
pub struct Sample {
    /// The request as the transport sent it.
    pub request: ScheduleRequest,
    /// The reply the live client gave.
    pub reply: ScheduleReply,
    /// An engine configured like the live client, with its own op memo.
    pub twin: Arc<ClientEngine>,
    /// Whether this exchange crossed the wire on the live path.
    pub wire: bool,
}

/// Takes one in `SAMPLE_EVERY` traced transport calls made on a caller
/// thread as a [`Sample`].
const SAMPLE_EVERY: u64 = 16;

/// `ClientTransport` wrapper recording `transport.call` spans and
/// leaving sampled exchanges for the caller to replay.
pub struct TracedTransport {
    inner: Arc<dyn ClientTransport>,
    twin: Arc<ClientEngine>,
    wire: bool,
    calls: AtomicU64,
}

impl TracedTransport {
    /// Wraps `inner`; `twin` replays sampled requests, and `wire` says
    /// whether `inner` encodes frames.
    pub fn new(inner: Arc<dyn ClientTransport>, twin: Arc<ClientEngine>, wire: bool) -> Self {
        TracedTransport {
            inner,
            twin,
            wire,
            calls: AtomicU64::new(0),
        }
    }
}

impl ClientTransport for TracedTransport {
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        let started = begin();
        let result = self.inner.call(request, timeout);
        end(Kind::TransportCall, request_index(&request.args), started);
        if started.is_some()
            && IS_CALLER.with(Cell::get)
            && self
                .calls
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(SAMPLE_EVERY)
        {
            if let Ok(reply) = &result {
                PENDING.with(|p| {
                    *p.borrow_mut() = Some(Sample {
                        request: request.clone(),
                        reply: reply.clone(),
                        twin: Arc::clone(&self.twin),
                        wire: self.wire,
                    })
                });
            }
        }
        result
    }

    fn describe(&self) -> String {
        format!("traced {}", self.inner.describe())
    }
}

/// `PeerLink` wrapper recording `peer.forward` spans.
pub struct TracedPeerLink {
    inner: Arc<dyn PeerLink>,
}

impl TracedPeerLink {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn PeerLink>) -> Self {
        TracedPeerLink { inner }
    }
}

impl PeerLink for TracedPeerLink {
    fn forward(
        &self,
        request: &ScheduleRequest,
        hops: u8,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        let started = begin();
        let result = self.inner.forward(request, hops, timeout);
        end(Kind::PeerForward, request_index(&request.args), started);
        result
    }

    fn describe(&self) -> String {
        format!("traced {}", self.inner.describe())
    }
}

/// `AuthzLayer` wrapper recording one span per layer evaluation.
pub struct TimedLayer {
    inner: Arc<dyn AuthzLayer>,
}

impl TimedLayer {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn AuthzLayer>) -> Self {
        TimedLayer { inner }
    }
}

impl AuthzLayer for TimedLayer {
    fn level(&self) -> LayerLevel {
        self.inner.level()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        let started = begin();
        let verdict = self.inner.decide(ctx);
        end(Kind::Layer(self.inner.level()), NO_REQUEST, started);
        verdict
    }

    fn decide_batch(&self, ctxs: &[&AuthzContext]) -> Vec<Verdict> {
        let started = begin();
        let verdicts = self.inner.decide_batch(ctxs);
        end(Kind::Layer(self.inner.level()), NO_REQUEST, started);
        verdicts
    }

    fn epoch(&self) -> u64 {
        self.inner.epoch()
    }
}

/// `ComponentExecutor` wrapper recording `exec.invoke` spans.
pub struct TimedExecutor {
    inner: Arc<dyn ComponentExecutor>,
}

impl TimedExecutor {
    /// Wraps `inner`.
    pub fn new(inner: Arc<dyn ComponentExecutor>) -> Self {
        TimedExecutor { inner }
    }
}

impl ComponentExecutor for TimedExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        let started = begin();
        let out = self.inner.invoke(user, component, args);
        end(Kind::ExecInvoke, request_index(args), started);
        out
    }
}

/// The graphs engine's executor: the master, plus `graphs.primitive`
/// spans and a count of primitives in flight at once.
pub struct TracedOps<'a> {
    master: &'a WebComMaster,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
}

impl<'a> TracedOps<'a> {
    /// Wraps `master`.
    pub fn new(master: &'a WebComMaster) -> Self {
        TracedOps {
            master,
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
        }
    }

    /// The most primitives ever in flight together.
    pub fn max_in_flight(&self) -> usize {
        self.max_in_flight.load(Ordering::Relaxed)
    }
}

impl OpExecutor for TracedOps<'_> {
    fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError> {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
        let started = begin();
        let out = self.master.execute(op, args);
        end(Kind::GraphPrimitive, request_index(args), started);
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_recorded_only_while_enabled_and_not_suppressed() {
        set_enabled(false);
        assert!(begin().is_none());
        set_enabled(true);
        let s = begin();
        assert!(s.is_some());
        end(Kind::ExecInvoke, 41, s);
        suppressed(|| end(Kind::ExecInvoke, 42, begin()));
        set_enabled(false);
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.req == 41 || s.req == 42)
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].req, 41);
        assert!(spans[0].end >= spans[0].start);
    }

    #[test]
    fn request_index_reads_a_non_negative_first_int() {
        assert_eq!(request_index(&[Value::Int(7), Value::Int(1)]), 7);
        assert_eq!(request_index(&[Value::Int(-1)]), NO_REQUEST);
        assert_eq!(request_index(&[]), NO_REQUEST);
    }
}
