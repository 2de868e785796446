//! The WebCom master: authenticates clients, selects an authorised
//! client for every fireable component, and drives condensed-graph
//! applications through the scheduler (Figure 3, §6).
//!
//! Scheduling goes through the [`ClientTransport`] abstraction, so the
//! same dispatch loop drives in-process clients (channel fabric) and
//! remote ones (TCP). The loop implements WebCom's fault-tolerance
//! story: every call carries a deadline, retryable failures are retried
//! with bounded exponential backoff, and a client that times out or
//! crashes has its operation rescheduled on another client registered
//! for the same domain (the paper's "failed operations are
//! rescheduled").
//!
//! Dispatch is *health-aware* (see [`crate::health`]): every transport
//! call feeds a per-client EWMA latency / error-rate record, eligible
//! clients are tried in health order rather than registration order, a
//! circuit breaker ejects a client that keeps failing (so a dead peer
//! is discovered once, not once per operation) and probes it back with
//! a single half-open trial call after a cooldown, and bounded
//! per-client in-flight quotas shed load to the next eligible client
//! instead of queueing. Each `schedule` call is additionally bounded by
//! a whole-operation deadline so one operation can never block for
//! `targets × max_attempts × op_timeout`.
//!
//! Independent operations have one dispatch path,
//! [`WebComMaster::schedule_burst`]; a condensed graph's wave, a
//! router's share and a single `schedule` are all bursts. Each client's
//! share of a burst's first attempts is sent as one batch, forwards run
//! per home shard, and only what a batch does not settle walks the
//! per-op loop, still inside the deadline measured from the burst's
//! start. A burst of one op is a plain call.

use crate::authz::{AuthzRequest, ScheduledAction, TrustManager};
use crate::client::ClientHandle;
use crate::fabric::ShardInfo;
use crate::health::{CallPermit, ClientHealth, HealthConfig, HealthSnapshot, Refusal};
use crate::histogram::{LatencyHistogram, LatencySnapshot};
use crate::mux::MuxTransport;
use crate::stamp::{StampIssuer, StampVerifier};
use crate::protocol::{
    ExecError, ExecErrorKind, ExecOutcome, Presented, ScheduleReply, ScheduleRequest,
    MAX_FORWARD_HOPS,
};
use crate::transport::{ChannelTransport, ClientTransport, TransportError};
use hetsec_graphs::{EngineError, OpExecutor, Value};
use hetsec_keynote::ast::Assertion;
use hetsec_middleware::component::ComponentRef;
use hetsec_rbac::{Domain, Role, User};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client as the master sees it: an identity, the domains it serves,
/// the transport to reach it, and its observed health.
struct ClientEntry {
    name: String,
    key_text: String,
    transport: Arc<dyn ClientTransport>,
    /// Domains this client can serve.
    domains: Vec<Domain>,
    /// Observed behaviour: EWMA latency/error rate, breaker, quota.
    health: Arc<ClientHealth>,
}

/// One eligible dispatch target for a scheduling decision.
struct Target {
    transport: Arc<dyn ClientTransport>,
    health: Arc<ClientHealth>,
}

/// Health-sorts dispatch targets, healthiest first; the sort is stable,
/// so untouched clients keep registration order.
fn health_ordered(targets: Vec<Target>) -> Vec<Target> {
    let mut keyed: Vec<((u8, f64, f64), Target)> =
        targets.into_iter().map(|t| (t.health.rank(), t)).collect();
    keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    keyed.into_iter().map(|(_, t)| t).collect()
}

/// The credentials a master forwards with every request, and the
/// presented set last made of them with the trust epoch its stamps were
/// issued at (`None` without a stamp issuer).
#[derive(Default)]
struct Forwarded {
    credentials: Vec<Assertion>,
    set: Option<(Option<u64>, Presented)>,
}

/// A routed op awaiting dispatch: its wire op id, the op, its home
/// shard (`Some` when a peer's shard owns the principal), and the
/// authorised local targets.
struct RoutedOp {
    op_id: u64,
    op: BurstOp,
    home: Option<usize>,
    targets: Vec<Target>,
}

/// A local op queued for its healthiest target: its place in the
/// burst, its request, and its health-ordered targets.
type Queued = (usize, ScheduleRequest, Vec<Target>);

/// Panic-safe increment/decrement of the in-flight gauge.
struct GaugeGuard<'a>(&'a AtomicUsize);

impl<'a> GaugeGuard<'a> {
    fn new(gauge: &'a AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::SeqCst);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Time left before a whole-operation deadline, or `None` once it has
/// passed (a zero remainder counts as passed: there is no budget left
/// to give a transport call).
fn remaining_budget(started: Instant, deadline: Duration) -> Option<Duration> {
    let remaining = deadline.checked_sub(started.elapsed())?;
    if remaining.is_zero() {
        None
    } else {
        Some(remaining)
    }
}

/// The binding of a graph primitive onto a component and an execution
/// identity — what the IDE's palette/partial-spec resolution produces
/// (§6, Figure 11).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Binding {
    /// The component to invoke.
    pub component: ComponentRef,
    /// Execution domain.
    pub domain: Domain,
    /// Execution role.
    pub role: Role,
    /// Executing user.
    pub user: User,
    /// The user's key text.
    pub principal: String,
}

/// One operation of a burst handed to
/// [`WebComMaster::schedule_burst`]: the per-op arguments of
/// [`WebComMaster::schedule`], owned so a burst can be built up front.
#[derive(Clone, Debug)]
pub struct BurstOp {
    /// The action to schedule.
    pub action: ScheduledAction,
    /// The executing user.
    pub user: User,
    /// The requesting principal's key text.
    pub principal: String,
    /// Operand values for the component.
    pub args: Vec<Value>,
}

/// How the master retries retryable failures on one client before
/// failing over to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts per client (1 = no retry).
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(200),
        }
    }
}

impl RetryPolicy {
    /// No retries at all (first failure fails over immediately).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }

    /// The backoff before retry number `retry` (1-based): exponential,
    /// capped at `max_delay`.
    pub fn backoff(&self, retry: usize) -> Duration {
        let factor = 1u32 << retry.saturating_sub(1).min(16) as u32;
        self.base_delay
            .saturating_mul(factor)
            .min(self.max_delay)
    }
}

/// Per-scheduling statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MasterStats {
    /// Operations scheduled successfully.
    pub scheduled: usize,
    /// Operations with no authorised client at selection time (nobody
    /// serves the domain, or the trust policy licenses no registered
    /// key). Dispatch exhaustion is counted separately in `exhausted`.
    pub unschedulable: usize,
    /// Operations whose every authorised client was tried (or refused
    /// by its breaker/quota) without success — the dispatch loop ran
    /// out of targets.
    pub exhausted: usize,
    /// Operations aborted because the whole-operation scheduling
    /// deadline elapsed mid-dispatch.
    pub deadline_exceeded: usize,
    /// Denials returned by clients.
    pub client_denials: usize,
    /// Operations that completed only after failing over off their first
    /// client (WebCom's fault tolerance).
    pub rescheduled: usize,
    /// Same-client re-attempts of retryable failures.
    pub retries: usize,
    /// Calls that hit their per-request deadline.
    pub timeouts: usize,
    /// Times the dispatch loop gave up on one client and moved the
    /// operation to another.
    pub failovers: usize,
    /// Operations currently inside the dispatch loop (gauge).
    pub in_flight: usize,
    /// Closed → open circuit-breaker transitions across all clients.
    pub breaker_trips: u64,
    /// Half-open probe calls admitted across all clients.
    pub half_open_probes: u64,
    /// Operations shed off a client at its in-flight quota (backpressure).
    pub shed: u64,
    /// Replies served from a client's executed-op memo instead of a
    /// second execution (idempotent replay after a timed-out call).
    pub replayed: usize,
    /// Client-selection authorization decisions served from the trust
    /// manager's decision cache.
    pub cache_hits: u64,
    /// Client-selection decisions that ran the full KeyNote query.
    pub cache_misses: u64,
    /// Cached decisions discarded because the trust policy's epoch had
    /// moved (policy/credential/revocation change).
    pub cache_invalidations: u64,
    /// Operations this master handed to the peer master owning the
    /// principal's shard (sharded fabric only).
    pub forwarded: usize,
    /// Operations received from a peer master and dispatched locally
    /// because this master owns the principal's shard.
    pub forward_received: usize,
    /// Forwards rejected by the hop-count guard — the shard rings of
    /// two masters disagree and the op would otherwise loop.
    pub forward_rejected: usize,
    /// Verdict stamps this master signed over its forwarded credentials
    /// (fresh signings only; memoized re-attachment is free).
    pub stamps_issued: u64,
    /// Stamps arriving on forwarded requests whose signature checked
    /// out against a fleet key; their verdicts were admitted into this
    /// master's verify cache.
    pub stamps_admitted: u64,
    /// Incoming stamps refused: issuer outside the fleet trust set,
    /// malformed fields, or a signature that does not verify.
    pub stamps_rejected: u64,
    /// Incoming stamps ignored as stale (older than the issuer's
    /// highest seen epoch); their credentials fall back to full
    /// verification.
    pub stamps_stale: u64,
    /// Log-bucketed distribution of whole-dispatch latencies (queue +
    /// retries + failover per op); `dispatch_latency.p50()/p99()/p999()`
    /// read the percentiles.
    pub dispatch_latency: LatencySnapshot,
}

impl MasterStats {
    /// Folds another master's stats into this one: counters summed,
    /// gauges summed, latency histograms merged. Used for fleet-wide
    /// views over a sharded fabric.
    pub fn merge(&mut self, other: &MasterStats) {
        self.scheduled += other.scheduled;
        self.unschedulable += other.unschedulable;
        self.exhausted += other.exhausted;
        self.deadline_exceeded += other.deadline_exceeded;
        self.client_denials += other.client_denials;
        self.rescheduled += other.rescheduled;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.failovers += other.failovers;
        self.in_flight += other.in_flight;
        self.breaker_trips += other.breaker_trips;
        self.half_open_probes += other.half_open_probes;
        self.shed += other.shed;
        self.replayed += other.replayed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_invalidations += other.cache_invalidations;
        self.forwarded += other.forwarded;
        self.forward_received += other.forward_received;
        self.forward_rejected += other.forward_rejected;
        self.stamps_issued += other.stamps_issued;
        self.stamps_admitted += other.stamps_admitted;
        self.stamps_rejected += other.stamps_rejected;
        self.stamps_stale += other.stamps_stale;
        self.dispatch_latency.merge(&other.dispatch_latency);
    }
}

/// The WebCom master.
pub struct WebComMaster {
    /// The master's own key text (sent to clients for mutual checks).
    key_text: String,
    /// Trust policy over *client* keys: which clients may be handed
    /// which operations (Figure 3: "uses their credentials to determine
    /// what operations it may schedule to them").
    client_trust: Arc<TrustManager>,
    clients: RwLock<Vec<ClientEntry>>,
    bindings: RwLock<HashMap<String, Binding>>,
    /// Credentials forwarded with every request, and the one presented
    /// set every request shares.
    forwarded: Mutex<Forwarded>,
    op_counter: AtomicU64,
    retry: RetryPolicy,
    /// Per-call reply deadline.
    op_timeout: Duration,
    /// Whole-operation deadline for one `schedule` call; defaults to
    /// 4 × `op_timeout` when unset.
    schedule_deadline: Option<Duration>,
    /// Health model applied to clients registered from here on.
    health_cfg: HealthConfig,
    /// Signs verdict stamps over the forwarded credentials so receiving
    /// nodes can admit their verdicts without per-credential RSA.
    stamp_issuer: Option<Arc<StampIssuer>>,
    /// Admits stamps riding forwarded requests into this master's
    /// verify cache (fleet trust set + epoch watermarks).
    stamp_verifier: Option<Arc<StampVerifier>>,
    /// This master's place in a sharded fabric, if any: the consistent-
    /// hash ring, its own shard id, and links to its peers.
    shard: RwLock<Option<Arc<ShardInfo>>>,
    /// Dispatch-latency histogram behind `MasterStats::dispatch_latency`.
    dispatch_hist: LatencyHistogram,
    in_flight: AtomicUsize,
    stats: Mutex<MasterStats>,
}

impl WebComMaster {
    /// A master with the given identity and client-trust policy.
    pub fn new(key_text: impl Into<String>, client_trust: Arc<TrustManager>) -> Self {
        WebComMaster {
            key_text: key_text.into(),
            client_trust,
            clients: RwLock::new(Vec::new()),
            bindings: RwLock::new(HashMap::new()),
            forwarded: Mutex::new(Forwarded::default()),
            op_counter: AtomicU64::new(0),
            retry: RetryPolicy::default(),
            op_timeout: Duration::from_secs(5),
            schedule_deadline: None,
            health_cfg: HealthConfig::default(),
            stamp_issuer: None,
            stamp_verifier: None,
            shard: RwLock::new(None),
            dispatch_hist: LatencyHistogram::new(),
            in_flight: AtomicUsize::new(0),
            stats: Mutex::new(MasterStats::default()),
        }
    }

    /// Overrides the retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Overrides the per-call reply deadline.
    pub fn with_op_timeout(mut self, timeout: Duration) -> Self {
        self.op_timeout = timeout;
        self
    }

    /// Overrides the whole-operation scheduling deadline (default:
    /// 4 × the per-call `op_timeout`). One `schedule` call never blocks
    /// longer than this, regardless of how many targets and retries the
    /// dispatch loop walks.
    pub fn with_schedule_deadline(mut self, deadline: Duration) -> Self {
        self.schedule_deadline = Some(deadline);
        self
    }

    /// Overrides the health model (breaker thresholds, cooldown, EWMA
    /// weight, in-flight quota). Applies to clients registered *after*
    /// this call — configure the master before registering clients.
    pub fn with_health_config(mut self, cfg: HealthConfig) -> Self {
        self.health_cfg = cfg;
        self
    }

    /// Gives this master a stamp-signing identity: every request it
    /// builds carries verdict stamps over its forwarded credentials, so
    /// receiving nodes that trust `issuer`'s key skip per-credential
    /// RSA verification.
    pub fn with_stamp_issuer(mut self, issuer: Arc<StampIssuer>) -> Self {
        self.stamp_issuer = Some(issuer);
        self
    }

    /// Lets this master admit verdict stamps riding forwarded requests
    /// into its own verify cache, per `verifier`'s fleet trust set.
    pub fn with_stamp_verifier(mut self, verifier: Arc<StampVerifier>) -> Self {
        self.stamp_verifier = Some(verifier);
        self
    }

    /// Places this master in a sharded fabric. Ops whose principal
    /// hashes to a different shard are forwarded over the peer links in
    /// `info` instead of being dispatched locally. May be called after
    /// construction because peer links typically reference the other
    /// masters, which must exist first.
    pub fn set_shard(&self, info: Arc<ShardInfo>) {
        *self.shard.write() = Some(info);
    }

    /// A fresh op id. A forwarded op keeps its origin's id, and the
    /// owner's mux correlates replies by id alone, so sharded masters
    /// draw from disjoint residue classes (`counter × shards + shard_id`)
    /// and an id never collides across the ring.
    fn next_op_id(&self, shard: Option<&ShardInfo>) -> u64 {
        let counter = self.op_counter.fetch_add(1, Ordering::Relaxed);
        match shard {
            Some(s) => counter
                .wrapping_mul(s.ring.shards() as u64)
                .wrapping_add(s.shard_id as u64),
            None => counter,
        }
    }

    /// This master's shard id, when sharded.
    pub fn shard_id(&self) -> Option<usize> {
        self.shard.read().as_ref().map(|s| s.shard_id)
    }

    /// The effective whole-operation deadline.
    fn schedule_deadline(&self) -> Duration {
        self.schedule_deadline
            .unwrap_or_else(|| self.op_timeout.saturating_mul(4))
    }

    /// Registers an in-process client as serving `domains` (channel
    /// transport — the fast path).
    pub fn register_client(&self, handle: &ClientHandle, domains: Vec<Domain>) {
        self.register_transport(
            handle.name.clone(),
            handle.key_text.clone(),
            Arc::new(ChannelTransport::new(handle.sender())),
            domains,
        );
    }

    /// Registers a client reachable over an arbitrary transport.
    pub fn register_transport(
        &self,
        name: impl Into<String>,
        key_text: impl Into<String>,
        transport: Arc<dyn ClientTransport>,
        domains: Vec<Domain>,
    ) {
        self.clients.write().push(ClientEntry {
            name: name.into(),
            key_text: key_text.into(),
            transport,
            domains,
            health: Arc::new(ClientHealth::new(self.health_cfg)),
        });
    }

    /// Dials a serving client at `addr`, performs the Identify
    /// handshake, and registers it under the identity and domains it
    /// announced, reached through a [`MuxTransport`]. Returns the
    /// client's announced name.
    pub fn register_tcp(&self, addr: SocketAddr) -> Result<String, ExecError> {
        let transport = MuxTransport::new(addr);
        let identity = transport
            .identify(self.op_timeout)
            .map_err(|e| e.to_exec_error())?;
        let name = identity.name.clone();
        self.register_transport(
            identity.name,
            identity.key_text,
            Arc::new(transport),
            identity.domains,
        );
        Ok(name)
    }

    /// Names of the registered clients, in registration order.
    pub fn client_names(&self) -> Vec<String> {
        self.clients.read().iter().map(|c| c.name.clone()).collect()
    }

    /// Binds a graph primitive name to a component + execution identity.
    pub fn bind(&self, primitive: &str, binding: Binding) {
        self.bindings.write().insert(primitive.to_string(), binding);
    }

    /// Adds a credential forwarded with every scheduling request (e.g. a
    /// delegation chain supporting the executing user).
    pub fn forward_credential(&self, credential: Assertion) {
        let mut forwarded = self.forwarded.lock();
        forwarded.credentials.push(credential);
        forwarded.set = None;
    }

    /// Scheduling statistics so far, including the client-trust
    /// decision-cache counters (every client × operation authorization
    /// check in [`schedule`](Self::schedule) goes through that cache).
    pub fn stats(&self) -> MasterStats {
        let mut stats = self.stats.lock().clone();
        stats.in_flight = self.in_flight.load(Ordering::Relaxed);
        stats.dispatch_latency = self.dispatch_hist.snapshot();
        let cache = self.client_trust.cache_stats();
        stats.cache_hits = cache.hits;
        stats.cache_misses = cache.misses;
        stats.cache_invalidations = cache.invalidations;
        if let Some(issuer) = &self.stamp_issuer {
            stats.stamps_issued = issuer.issued();
        }
        for c in self.clients.read().iter() {
            let h = c.health.snapshot(&c.name);
            stats.breaker_trips += h.trips;
            stats.half_open_probes += h.probes;
            stats.shed += h.shed;
        }
        stats
    }

    /// Per-client health snapshots (breaker state, EWMA latency and
    /// error rate, in-flight, trip/probe/shed counters), in
    /// registration order.
    pub fn client_health(&self) -> Vec<HealthSnapshot> {
        self.clients
            .read()
            .iter()
            .map(|c| c.health.snapshot(&c.name))
            .collect()
    }

    /// Schedules one action, blocking for the reply. Every client that
    /// (a) serves the action's domain and (b) whose key the master's
    /// trust policy authorises for the action is eligible. Dispatch
    /// walks the eligible clients in *health order* (breaker state,
    /// then observed error rate, then EWMA latency; registration order
    /// breaks ties): retryable failures and timeouts are retried on the
    /// same client under the [`RetryPolicy`], a client that crashes or
    /// exhausts its retries has the operation failed over to the next
    /// eligible client, a client with an open breaker or a full
    /// in-flight quota is skipped, and the whole operation is bounded
    /// by the scheduling deadline
    /// ([`with_schedule_deadline`](Self::with_schedule_deadline)).
    pub fn schedule(
        &self,
        action: &ScheduledAction,
        user: &User,
        principal: &str,
        args: Vec<Value>,
    ) -> ExecOutcome {
        self.schedule_burst(vec![BurstOp {
            action: action.clone(),
            user: user.clone(),
            principal: principal.to_string(),
            args,
        }])
        .pop()
        .expect("burst of one yields one outcome")
    }

    /// Schedules a burst of independent operations — a condensed
    /// graph's wave, a router's share of ops, a tick of arrivals — and
    /// returns their outcomes positionally aligned with `ops`.
    ///
    /// Every (client × operation) pair is authorised in one
    /// [`TrustManager::decide_batch`] before any dispatch. Local ops are
    /// grouped by their healthiest target, and each group's first
    /// attempts go out as one [`ClientTransport::call_batch`]: over a
    /// pipelined transport a burst costs about one round trip instead of
    /// one per op. Each batched op takes its own health permit and
    /// in-flight gauge, and its reply is accounted exactly as a
    /// dispatch-loop attempt. What a batch does not settle — ops a
    /// client's quota or breaker refuses, retryable failures and
    /// timeouts — walks the per-op retry/failover loop (the executed-op
    /// memo makes re-asking the same client safe). Ops a peer shard owns
    /// are forwarded, each home shard's ops in order on one thread,
    /// alongside the batches. Every op's whole-operation deadline runs
    /// from the burst's start. A burst of one op is a plain call through
    /// the per-op loop.
    ///
    /// A failed batched attempt counts in the client's health and in
    /// `timeouts`; the retries, failovers and reschedules that follow it
    /// are the per-op loop's own.
    pub fn schedule_burst(&self, ops: Vec<BurstOp>) -> Vec<ExecOutcome> {
        let (shard, jobs) = self.route(ops);
        let shard = shard.as_deref();
        let started = Instant::now();
        if jobs.len() <= 1 {
            return jobs
                .into_iter()
                .map(|job| self.run_op(shard, job, started))
                .collect();
        }
        let mut outcomes: Vec<Option<ExecOutcome>> = jobs.iter().map(|_| None).collect();
        // Local ops are grouped by their healthiest target and forwards
        // by their home shard; an op no client may run fails at once.
        let mut batches: Vec<Vec<Queued>> = Vec::new();
        let mut homes: HashMap<usize, Vec<(usize, RoutedOp)>> = HashMap::new();
        for (i, job) in jobs.into_iter().enumerate() {
            if let Some(home) = job.home {
                homes.entry(home).or_default().push((i, job));
                continue;
            }
            if job.targets.is_empty() {
                outcomes[i] = Some(self.run_op(shard, job, started));
                continue;
            }
            let targets = health_ordered(job.targets);
            let request = self.build_request(job.op_id, job.op);
            let first = &targets[0].health;
            match batches
                .iter_mut()
                .find(|b| Arc::ptr_eq(&b[0].2[0].health, first))
            {
                Some(batch) => batch.push((i, request, targets)),
                None => batches.push(vec![(i, request, targets)]),
            }
        }
        // A thread per batch and per home shard; the last batch runs
        // inline.
        let last = batches.pop();
        let done = std::thread::scope(|s| {
            let forwards = homes.into_values().map(|jobs| {
                s.spawn(move || {
                    jobs.into_iter()
                        .map(|(i, job)| (i, self.run_op(shard, job, started)))
                        .collect::<Vec<_>>()
                })
            });
            let handles: Vec<_> = batches
                .into_iter()
                .map(|batch| s.spawn(move || self.dispatch_batch(batch, started)))
                .chain(forwards)
                .collect();
            let mut done = last.map_or_else(Vec::new, |b| self.dispatch_batch(b, started));
            for h in handles {
                done.extend(h.join().expect("burst share panicked"));
            }
            done
        });
        for (i, outcome) in done {
            outcomes[i] = Some(outcome);
        }
        outcomes
            .into_iter()
            .map(|o| o.expect("every burst op produces an outcome"))
            .collect()
    }

    /// One client's share of a burst: admits each op through the
    /// client's health (its own permit and gauge), sends the admitted
    /// ops as one batch and settles each reply as a first attempt of the
    /// dispatch loop. Ops refused admission or left unsettled then walk
    /// the per-op loop, inside the deadline from `started`.
    fn dispatch_batch(&self, batch: Vec<Queued>, started: Instant) -> Vec<(usize, ExecOutcome)> {
        let first = &batch[0].2[0];
        let (transport, health) = (Arc::clone(&first.transport), Arc::clone(&first.health));
        let mut done = Vec::with_capacity(batch.len());
        let mut unsettled = Vec::new();
        let mut admitted = Vec::with_capacity(batch.len());
        for (i, request, targets) in batch {
            match health.try_begin(false) {
                Ok(permit) => {
                    let gauge = GaugeGuard::new(&self.in_flight);
                    admitted.push((i, request, targets, permit, gauge));
                }
                Err(Refusal::Open | Refusal::Saturated) => unsettled.push((i, request, targets)),
            }
        }
        // Past the deadline, the per-op loop reports it.
        let budget = remaining_budget(started, self.schedule_deadline());
        if let Some(budget) = budget.filter(|_| !admitted.is_empty()) {
            let requests: Vec<&ScheduleRequest> = admitted.iter().map(|a| &a.1).collect();
            let call_started = Instant::now();
            let replies = transport.call_batch(&requests, budget.min(self.op_timeout));
            for ((i, request, targets, mut permit, _gauge), reply) in
                admitted.into_iter().zip(replies)
            {
                match self.settle(reply, &mut permit, call_started, false) {
                    Ok(outcome) => {
                        self.dispatch_hist.record(started.elapsed());
                        done.push((i, outcome));
                    }
                    Err(_) => unsettled.push((i, request, targets)),
                }
            }
        } else {
            unsettled.extend(admitted.into_iter().map(|(i, r, t, ..)| (i, r, t)));
        }
        for (i, request, targets) in unsettled {
            done.push((i, self.dispatch_to(&request, targets, started)));
        }
        done
    }

    /// Routes and authorises a burst, numbering its ops in order.
    /// `home` is `Some` when the principal hashes to a peer's shard: the
    /// owner authorises against its own policy and cache, so forwarded
    /// ops are excluded from the local authorisation matrix entirely
    /// (share-nothing hot path).
    fn route(&self, ops: Vec<BurstOp>) -> (Option<Arc<ShardInfo>>, Vec<RoutedOp>) {
        let shard = self.shard.read().clone();
        let route: Vec<Option<usize>> = ops
            .iter()
            .map(|op| {
                shard.as_ref().and_then(|s| {
                    let home = s.ring.owner_of(&op.principal);
                    (home != s.shard_id).then_some(home)
                })
            })
            .collect();
        let actions: Vec<Option<&ScheduledAction>> = ops
            .iter()
            .zip(&route)
            .map(|(op, home)| home.is_none().then_some(&op.action))
            .collect();
        let per_op_targets = self.authorise(&actions);
        let jobs = ops
            .into_iter()
            .zip(route)
            .zip(per_op_targets)
            .map(|((op, home), targets)| RoutedOp {
                op_id: self.next_op_id(shard.as_deref()),
                op,
                home,
                targets,
            })
            .collect();
        (shard, jobs)
    }

    /// Runs one routed op: forwards it to its home shard or dispatches
    /// it locally, within the whole-operation deadline from `started`.
    fn run_op(&self, shard: Option<&ShardInfo>, job: RoutedOp, started: Instant) -> ExecOutcome {
        match (shard, job.home) {
            (Some(info), Some(home)) => self.forward_op(info, home, job.op_id, job.op, started),
            _ => self.dispatch_to(&self.build_request(job.op_id, job.op), job.targets, started),
        }
    }

    /// Hands an op to the peer master owning `home`. One forward
    /// attempt — the owner runs the full retry/failover loop among its
    /// own clients, so re-forwarding would only double the work.
    fn forward_op(
        &self,
        info: &ShardInfo,
        home: usize,
        op_id: u64,
        op: BurstOp,
        started: Instant,
    ) -> ExecOutcome {
        let Some(peer) = info.peers.get(&home) else {
            self.stats.lock().unschedulable += 1;
            return ExecOutcome::Failed(ExecError::transport(format!(
                "principal shard {home} has no peer link from shard {}",
                info.shard_id
            )));
        };
        let request = self.build_request(op_id, op);
        let deadline = self.schedule_deadline();
        let Some(budget) = remaining_budget(started, deadline) else {
            return self.deadline_exceeded(&request, deadline, None);
        };
        self.stats.lock().forwarded += 1;
        match peer.forward(&request, 1, budget) {
            Ok(reply) => reply.outcome,
            Err(te) => ExecOutcome::Failed(te.to_exec_error()),
        }
    }

    /// Serves a peer's [`WireRequest::Forward`](crate::WireRequest):
    /// dispatches locally when this master owns the principal's shard,
    /// re-forwards (with the hop guard) when it does not — which only
    /// happens when peers disagree about ring layout.
    pub fn handle_forward(&self, request: ScheduleRequest, hops: u8) -> ScheduleReply {
        // Admit the originating master's verdict stamps before any
        // dispatch: verdicts land in this node's verify cache so its
        // own credential vetting (and anything sharing the cache) skips
        // per-credential RSA.
        if let Some(verifier) = &self.stamp_verifier {
            let stamps = request.presented.stamps();
            if !stamps.is_empty() {
                let delta = verifier.admit(stamps);
                let mut stats = self.stats.lock();
                stats.stamps_admitted += delta.admitted;
                stats.stamps_rejected += delta.rejected;
                stats.stamps_stale += delta.stale;
            }
        }
        let op_id = request.op_id;
        let shard = self.shard.read().clone();
        let shard_name = shard
            .as_ref()
            .map(|s| format!("shard-{}", s.shard_id))
            .unwrap_or_else(|| "unsharded".to_string());
        if let Some(info) = shard.as_deref() {
            let home = info.ring.owner_of(&request.principal);
            if home != info.shard_id {
                if hops >= MAX_FORWARD_HOPS {
                    let cause = format!("forward hop limit ({MAX_FORWARD_HOPS}) reached");
                    return self.rings_disagree(&request, shard_name, &cause);
                }
                if let Some(peer) = info.peers.get(&home) {
                    self.stats.lock().forwarded += 1;
                    return match peer.forward(&request, hops + 1, self.schedule_deadline()) {
                        Ok(reply) => reply,
                        // The op is already in flight on this link: it
                        // left here for the peer and came back.
                        Err(TransportError::DuplicateOp(_)) => {
                            let cause = format!("op {op_id} is already on its way to shard {home}");
                            self.rings_disagree(&request, shard_name, &cause)
                        }
                        Err(te) => ScheduleReply {
                            op_id,
                            client: shard_name,
                            outcome: ExecOutcome::Failed(te.to_exec_error()),
                            replayed: false,
                        },
                    };
                }
                // No link to the owner: dispatch locally as a degraded
                // fallback rather than dropping the op.
            }
        }
        self.stats.lock().forward_received += 1;
        let targets = self.authorise(&[Some(&request.action)]).remove(0);
        let outcome = self.dispatch_to(&request, targets, Instant::now());
        ScheduleReply {
            op_id,
            client: shard_name,
            outcome,
            replayed: false,
        }
    }

    /// Refuses a forwarded op that is bouncing between peers whose rings
    /// disagree about its principal's owner, as `cause` showed, and
    /// counts it in `forward_rejected`.
    fn rings_disagree(
        &self,
        request: &ScheduleRequest,
        client: String,
        cause: &str,
    ) -> ScheduleReply {
        self.stats.lock().forward_rejected += 1;
        ScheduleReply {
            op_id: request.op_id,
            client,
            outcome: ExecOutcome::Failed(ExecError::protocol(format!(
                "{cause} for principal `{}`: peer shard rings disagree about its owner",
                request.principal
            ))),
            replayed: false,
        }
    }

    /// Each action's authorised targets — the clients serving its
    /// domain whose key the trust policy authorises for it — with every
    /// (client × action) pair decided in one
    /// [`TrustManager::decide_batch`]. A `None` action (a forwarded op)
    /// gets none.
    fn authorise(&self, actions: &[Option<&ScheduledAction>]) -> Vec<Vec<Target>> {
        let clients = self.clients.read();
        // One attribute set per action, lent to every client's request:
        // requests for the same action share the set by address, so the
        // trust manager hashes one fingerprint per action and collapses
        // action-coincident evaluations into one fixpoint pass.
        let attr_sets: Vec<_> = actions
            .iter()
            .map(|a| a.map(ScheduledAction::attributes))
            .collect();
        let mut requests: Vec<AuthzRequest<'_>> = Vec::new();
        let mut slots: Vec<(usize, usize)> = Vec::new();
        for (ai, (action, attrs)) in actions.iter().zip(&attr_sets).enumerate() {
            let (Some(action), Some(attrs)) = (action, attrs) else {
                continue;
            };
            for (ci, c) in clients.iter().enumerate() {
                if c.domains.contains(&action.domain) {
                    requests.push(AuthzRequest::principal(&c.key_text).attributes_ref(attrs));
                    slots.push((ai, ci));
                }
            }
        }
        let verdicts = self.client_trust.decide_batch(&requests);
        let mut targets: Vec<Vec<Target>> = actions.iter().map(|_| Vec::new()).collect();
        for ((ai, ci), authorised) in slots.into_iter().zip(verdicts) {
            if authorised {
                let c = &clients[ci];
                targets[ai].push(Target {
                    transport: Arc::clone(&c.transport),
                    health: Arc::clone(&c.health),
                });
            }
        }
        targets
    }

    /// Builds the wire request for one op, presenting the master's one
    /// memoised set: the forwarded credentials and, when an issuer is
    /// configured, the verdict stamps over them. The set is remade only
    /// when a credential is forwarded or the stamps' trust epoch moves,
    /// so requests share it by `Arc` and a connection sends it once.
    fn build_request(&self, op_id: u64, op: BurstOp) -> ScheduleRequest {
        ScheduleRequest {
            op_id,
            action: op.action,
            user: op.user,
            principal: op.principal,
            master_key: self.key_text.clone(),
            presented: self.presented(),
            args: op.args,
        }
    }

    /// The memoised presented set (see [`build_request`](Self::build_request)).
    fn presented(&self) -> Presented {
        let epoch = self.stamp_issuer.as_ref().map(|_| self.client_trust.epoch());
        let mut forwarded = self.forwarded.lock();
        if let Some((at, set)) = &forwarded.set {
            if *at == epoch {
                return set.clone();
            }
        }
        let stamps = match (&self.stamp_issuer, epoch) {
            (Some(issuer), Some(epoch)) if !forwarded.credentials.is_empty() => {
                issuer.stamps_for(epoch, &forwarded.credentials)
            }
            _ => Vec::new(),
        };
        let set = Presented::new(forwarded.credentials.clone(), stamps);
        forwarded.set = Some((epoch, set.clone()));
        set
    }

    /// Health-sorts the targets, then runs the dispatch loop under the
    /// in-flight gauge, recording the whole-dispatch latency since
    /// `started`. With no authorised target the op is unschedulable.
    fn dispatch_to(
        &self,
        request: &ScheduleRequest,
        targets: Vec<Target>,
        started: Instant,
    ) -> ExecOutcome {
        if targets.is_empty() {
            self.stats.lock().unschedulable += 1;
            return ExecOutcome::Denied(format!(
                "no authorised client for {} in {}",
                request.action.component.identifier(),
                request.action.domain
            ));
        }
        let targets = health_ordered(targets);
        let _gauge = GaugeGuard::new(&self.in_flight);
        let outcome = self.dispatch(request, &targets, started);
        self.dispatch_hist.record(started.elapsed());
        outcome
    }

    /// The dispatch loop: health admission, per-target retry,
    /// cross-target failover, all under one whole-operation deadline
    /// running from `started`.
    fn dispatch(
        &self,
        request: &ScheduleRequest,
        targets: &[Target],
        started: Instant,
    ) -> ExecOutcome {
        let deadline = self.schedule_deadline();
        let mut last_error: Option<ExecError> = None;
        let mut attempted_targets = 0usize;
        for force in [false, true] {
            for (idx, target) in targets.iter().enumerate() {
                if remaining_budget(started, deadline).is_none() {
                    return self.deadline_exceeded(request, deadline, last_error);
                }
                let mut permit = match target.health.try_begin(force) {
                    Ok(p) => p,
                    // Open breaker or saturated quota: skip to the next
                    // eligible client (sheds are counted per client and
                    // aggregated into `MasterStats::shed`).
                    Err(Refusal::Open | Refusal::Saturated) => continue,
                };
                attempted_targets += 1;
                // A half-open probe gets exactly one trial call.
                let max_attempts = if permit.is_probe() {
                    1
                } else {
                    self.retry.max_attempts
                };
                let mut attempt = 0usize;
                let target_error = loop {
                    attempt += 1;
                    let Some(remaining) = remaining_budget(started, deadline) else {
                        drop(permit);
                        return self.deadline_exceeded(request, deadline, last_error);
                    };
                    let budget = remaining.min(self.op_timeout);
                    let call_started = Instant::now();
                    let reply = target.transport.call(request, budget);
                    match self.settle(reply, &mut permit, call_started, attempted_targets > 1) {
                        Ok(outcome) => return outcome,
                        Err((error, retry)) => {
                            if retry && attempt < max_attempts {
                                self.stats.lock().retries += 1;
                                self.backoff_sleep(attempt, started, deadline);
                                continue;
                            }
                            // Retries exhausted, unreachable, or a
                            // protocol violation: reschedule elsewhere.
                            break error;
                        }
                    }
                };
                drop(permit);
                last_error = Some(target_error);
                if idx + 1 < targets.len() {
                    self.stats.lock().failovers += 1;
                }
            }
            if attempted_targets > 0 {
                break;
            }
            // Nothing was even attempted — every breaker open or quota
            // full. One forced pass (admissions become probes) so an
            // operation never dies to ejection alone; the deadline
            // still bounds it.
        }
        self.stats.lock().exhausted += 1;
        let kind = last_error
            .as_ref()
            .map(|e| e.kind)
            .unwrap_or(ExecErrorKind::Transport);
        let detail = match last_error {
            Some(e) => format!(
                "all {} authorised clients for {} are unreachable or failing (last: {e})",
                targets.len(),
                request.action.component.identifier()
            ),
            None => format!(
                "all {} authorised clients for {} are unreachable or failing",
                targets.len(),
                request.action.component.identifier()
            ),
        };
        ExecOutcome::Failed(ExecError {
            kind,
            retryable: false,
            detail,
        })
    }

    /// Settles one transport attempt: feeds its latency and result to
    /// the target's health through `permit` and does the per-outcome
    /// stats accounting. `Ok` is the op's final outcome. `Err` carries
    /// the error and whether re-asking the same client comes next (a
    /// retryable failure, a timeout, or a connection lost after the
    /// request was sent: such a client may already have executed the
    /// op, and its executed-op memo replays the recorded result instead
    /// of a second execution) rather than failing over. An unreachable
    /// client is failed over at once.
    fn settle(
        &self,
        reply: Result<ScheduleReply, TransportError>,
        permit: &mut CallPermit<'_>,
        call_started: Instant,
        rescheduled: bool,
    ) -> Result<ExecOutcome, (ExecError, bool)> {
        let latency = call_started.elapsed();
        let reply = match reply {
            Ok(reply) => reply,
            Err(te) => {
                permit.record(latency, false);
                if te.is_timeout() {
                    self.stats.lock().timeouts += 1;
                }
                let same_client =
                    matches!(te, TransportError::Timeout(_) | TransportError::Closed(_));
                return Err((te.to_exec_error(), same_client));
            }
        };
        match reply.outcome {
            ExecOutcome::Ok(v) => {
                permit.record(latency, true);
                let mut stats = self.stats.lock();
                stats.scheduled += 1;
                if reply.replayed {
                    stats.replayed += 1;
                }
                if rescheduled {
                    stats.rescheduled += 1;
                }
                Ok(ExecOutcome::Ok(v))
            }
            ExecOutcome::Denied(reason) => {
                // An authorisation denial is authoritative: policy does
                // not change because we ask a different client. The
                // client answered, so its transport is healthy.
                permit.record(latency, true);
                self.stats.lock().client_denials += 1;
                Ok(ExecOutcome::Denied(reason))
            }
            ExecOutcome::Failed(e) if !e.retryable => {
                // Deterministic failure: every client would fail the
                // same way.
                permit.record(latency, true);
                if reply.replayed {
                    self.stats.lock().replayed += 1;
                }
                Ok(ExecOutcome::Failed(e))
            }
            ExecOutcome::Failed(e) => {
                permit.record(latency, false);
                Err((e, true))
            }
        }
    }

    /// Accounts a whole-operation deadline expiry and builds its error.
    fn deadline_exceeded(
        &self,
        request: &ScheduleRequest,
        deadline: Duration,
        last_error: Option<ExecError>,
    ) -> ExecOutcome {
        self.stats.lock().deadline_exceeded += 1;
        let last = last_error
            .map(|e| format!(" (last: {e})"))
            .unwrap_or_default();
        ExecOutcome::Failed(ExecError {
            kind: ExecErrorKind::Timeout,
            retryable: false,
            detail: format!(
                "schedule deadline {deadline:?} exceeded dispatching {}{last}",
                request.action.component.identifier()
            ),
        })
    }

    /// Sleeps the retry backoff, clipped to the remaining deadline.
    fn backoff_sleep(&self, attempt: usize, started: Instant, deadline: Duration) {
        let remaining = deadline.saturating_sub(started.elapsed());
        let sleep = self.retry.backoff(attempt).min(remaining);
        if !sleep.is_zero() {
            std::thread::sleep(sleep);
        }
    }

    /// Schedules the binding registered for a primitive.
    pub fn schedule_primitive(&self, primitive: &str, args: Vec<Value>) -> ExecOutcome {
        match self.bound_op(primitive, args) {
            Ok(op) => self
                .schedule_burst(vec![op])
                .pop()
                .expect("burst of one yields one outcome"),
            Err(unbound) => unbound,
        }
    }

    /// The op a primitive's binding schedules, or the failure for an
    /// unbound primitive.
    fn bound_op(&self, primitive: &str, args: Vec<Value>) -> Result<BurstOp, ExecOutcome> {
        let bindings = self.bindings.read();
        let Some(b) = bindings.get(primitive) else {
            return Err(ExecOutcome::failed(format!(
                "no binding for primitive `{primitive}`"
            )));
        };
        Ok(BurstOp {
            action: ScheduledAction::new(b.component.clone(), b.domain.clone(), b.role.clone()),
            user: b.user.clone(),
            principal: b.principal.clone(),
            args,
        })
    }
}

/// The master as a condensed-graph executor: every `Primitive` node is
/// scheduled to an authorised client, so evaluating a graph *is*
/// distributing the application (Figure 3). A wave's primitives go out
/// together as one burst ([`WebComMaster::schedule_burst`]).
impl OpExecutor for WebComMaster {
    fn execute(&self, op: &str, args: &[Value]) -> Result<Value, EngineError> {
        self.execute_wave(&[(op, args.to_vec())])
            .pop()
            .expect("one result per call")
    }

    fn execute_wave(&self, calls: &[(&str, Vec<Value>)]) -> Vec<Result<Value, EngineError>> {
        // Unbound primitives fail on their own; the rest go out as one
        // wave.
        let mut ops = Vec::with_capacity(calls.len());
        let unbound: Vec<Option<ExecOutcome>> = calls
            .iter()
            .map(|(op, args)| match self.bound_op(op, args.clone()) {
                Ok(bound) => {
                    ops.push(bound);
                    None
                }
                Err(unbound) => Some(unbound),
            })
            .collect();
        let mut scheduled = self.schedule_burst(ops).into_iter();
        calls
            .iter()
            .zip(unbound)
            .map(|((op, _), unbound)| {
                match unbound.unwrap_or_else(|| scheduled.next().expect("one outcome per op")) {
                    ExecOutcome::Ok(v) => Ok(v),
                    ExecOutcome::Denied(reason) => Err(EngineError::Refused {
                        op: op.to_string(),
                        reason,
                    }),
                    ExecOutcome::Failed(e) => Err(EngineError::BadArguments {
                        op: op.to_string(),
                        reason: e.to_string(),
                    }),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{spawn_client, ClientConfig};
    use crate::protocol::ArithComponentExecutor;
    use crate::stack::{AuthzStack, TrustLayer};
    use hetsec_graphs::{Engine, GraphBuilder, Source};
    use hetsec_middleware::naming::MiddlewareKind;

    fn tm(policy: &str) -> Arc<TrustManager> {
        let t = TrustManager::permissive();
        t.add_policy(policy).unwrap();
        Arc::new(t)
    }

    fn full_fixture() -> (WebComMaster, ClientHandle) {
        // Master trusts client key Kc1 for everything in Dom.
        let client_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kc1\"\n\
             Conditions: app_domain==\"WebCom\" && Domain==\"Dom\";\n",
        );
        let master = WebComMaster::new("Kmaster", client_trust);
        // Client trusts the master for WebCom, and the worker user key.
        let master_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\n\
             Conditions: app_domain==\"WebCom\" && Domain==\"Dom\" && Role==\"Worker\";\n",
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
        master.register_client(&client, vec!["Dom".into()]);
        (master, client)
    }

    fn bind_op(master: &WebComMaster, primitive: &str, operation: &str) {
        master.bind(
            primitive,
            Binding {
                component: ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", operation),
                domain: "Dom".into(),
                role: "Worker".into(),
                user: "worker".into(),
                principal: "Kworker".to_string(),
            },
        );
    }

    #[test]
    fn schedules_to_authorised_client() {
        let (master, client) = full_fixture();
        bind_op(&master, "add", "add");
        let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(3)));
        let stats = master.stats();
        assert_eq!(stats.scheduled, 1);
        assert_eq!(stats.in_flight, 0);
        client.shutdown();
    }

    #[test]
    fn repeated_scheduling_reuses_cached_client_selection() {
        let (master, client) = full_fixture();
        bind_op(&master, "add", "add");
        for _ in 0..5 {
            let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
            assert_eq!(out, ExecOutcome::Ok(Value::Int(3)));
        }
        let stats = master.stats();
        assert_eq!(stats.scheduled, 5);
        // The first selection runs the KeyNote query; the other four are
        // served from the decision cache.
        assert!(stats.cache_hits >= 4, "stats: {stats:?}");
        client.shutdown();
    }

    #[test]
    fn no_client_for_foreign_domain() {
        let (master, client) = full_fixture();
        master.bind(
            "far",
            Binding {
                component: ComponentRef::new(MiddlewareKind::Ejb, "Elsewhere", "Calc", "add"),
                domain: "Elsewhere".into(),
                role: "Worker".into(),
                user: "worker".into(),
                principal: "Kworker".to_string(),
            },
        );
        let out = master.schedule_primitive("far", vec![]);
        assert!(matches!(out, ExecOutcome::Denied(ref m) if m.contains("no authorised client")));
        assert_eq!(master.stats().unschedulable, 1);
        client.shutdown();
    }

    #[test]
    fn untrusted_client_key_not_selected() {
        // Master policy trusts only Kc1; register a client with key Kevil.
        let client_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kc1\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let master = WebComMaster::new("Kmaster", client_trust);
        let master_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        ))));
        let client = spawn_client(ClientConfig {
            name: "evil".to_string(),
            key_text: "Kevil".to_string(),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        });
        master.register_client(&client, vec!["Dom".into()]);
        bind_op(&master, "add", "add");
        let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(2)]);
        assert!(matches!(out, ExecOutcome::Denied(_)));
        client.shutdown();
    }

    #[test]
    fn unbound_primitive_fails() {
        let (master, client) = full_fixture();
        let out = master.schedule_primitive("ghost", vec![]);
        assert!(matches!(out, ExecOutcome::Failed(ref e) if e.detail.contains("no binding")));
        client.shutdown();
    }

    #[test]
    fn drives_condensed_graph_end_to_end() {
        let (master, client) = full_fixture();
        bind_op(&master, "add", "add");
        bind_op(&master, "mul", "mul");
        // (p0 + p1) * p0
        let mut b = GraphBuilder::new("app", 2);
        let s = b.primitive("sum", "add", vec![Source::Param(0), Source::Param(1)]);
        let m = b.primitive("scale", "mul", vec![Source::Node(s), Source::Param(0)]);
        let t = b.output(Source::Node(m)).unwrap();
        let engine = Engine::new(&master);
        let result = engine.evaluate(&t, &[Value::Int(3), Value::Int(4)]).unwrap();
        assert_eq!(result, Value::Int(21));
        assert_eq!(master.stats().scheduled, 2);
        let stats = client.shutdown();
        assert_eq!(stats.executed, 2);
    }

    #[test]
    fn graph_refusal_propagates_as_engine_error() {
        let (master, client) = full_fixture();
        // Bind to a role the user's trust policy does not cover.
        master.bind(
            "add",
            Binding {
                component: ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                domain: "Dom".into(),
                role: "Admin".into(), // worker only holds Worker
                user: "worker".into(),
                principal: "Kworker".to_string(),
            },
        );
        let mut b = GraphBuilder::new("app", 0);
        let c1 = b.constant("a", 1i64);
        let n = b.primitive("go", "add", vec![Source::Node(c1), Source::Node(c1)]);
        let t = b.output(Source::Node(n)).unwrap();
        let engine = Engine::new(&master);
        let err = engine.evaluate(&t, &[]).unwrap_err();
        assert!(matches!(err, EngineError::Refused { .. }));
        client.shutdown();
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(55),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        assert_eq!(p.backoff(4), Duration::from_millis(55)); // capped
        assert_eq!(p.backoff(40), Duration::from_millis(55)); // no overflow
    }
}

#[cfg(test)]
mod dispatch_tests {
    use super::*;
    use crate::health::BreakerState;
    use crate::protocol::ScheduleReply;
    use crate::transport::{ClientTransport, FaultyTransport, TransportError};
    use hetsec_middleware::naming::MiddlewareKind;

    fn tm(policy: &str) -> Arc<TrustManager> {
        let t = TrustManager::permissive();
        t.add_policy(policy).unwrap();
        Arc::new(t)
    }

    /// A transport replaying a script of canned results.
    struct ScriptedTransport {
        name: String,
        script: Mutex<Vec<Result<ExecOutcome, TransportError>>>,
        calls: AtomicUsize,
    }

    impl ScriptedTransport {
        fn new(
            name: &str,
            script: Vec<Result<ExecOutcome, TransportError>>,
        ) -> Arc<Self> {
            Arc::new(ScriptedTransport {
                name: name.to_string(),
                script: Mutex::new(script),
                calls: AtomicUsize::new(0),
            })
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::SeqCst)
        }
    }

    impl ClientTransport for ScriptedTransport {
        fn call(
            &self,
            request: &ScheduleRequest,
            timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let mut script = self.script.lock();
            let next = if script.is_empty() {
                Ok(ExecOutcome::Ok(Value::Unit))
            } else {
                script.remove(0)
            };
            match next {
                Ok(outcome) => Ok(ScheduleReply {
                    op_id: request.op_id,
                    client: self.name.clone(),
                    outcome,
                    replayed: false,
                }),
                Err(TransportError::Timeout(_)) => Err(TransportError::Timeout(timeout)),
                Err(e) => Err(e),
            }
        }
    }

    /// A master over arbitrary `(name, key, transport)` targets, with a
    /// hook to adjust builders (health config, deadline) before the
    /// clients register.
    fn master_of(
        entries: Vec<(String, String, Arc<dyn ClientTransport>)>,
        retry: RetryPolicy,
        configure: impl FnOnce(WebComMaster) -> WebComMaster,
    ) -> WebComMaster {
        let mut policy = String::new();
        for (_, key, _) in &entries {
            policy.push_str(&format!(
                "Authorizer: POLICY\nLicensees: \"{key}\"\nConditions: app_domain==\"WebCom\";\n\n"
            ));
        }
        let master = configure(
            WebComMaster::new("Kmaster", tm(&policy))
                .with_retry_policy(retry)
                .with_op_timeout(Duration::from_millis(200)),
        );
        for (name, key, t) in entries {
            master.register_transport(name, key, t, vec!["Dom".into()]);
        }
        master
    }

    fn master_with(
        entries: Vec<(&str, Arc<ScriptedTransport>)>,
        retry: RetryPolicy,
    ) -> WebComMaster {
        let entries = entries
            .into_iter()
            .map(|(key, t)| {
                (
                    t.name.clone(),
                    key.to_string(),
                    t as Arc<dyn ClientTransport>,
                )
            })
            .collect();
        master_of(entries, retry, |m| m)
    }

    fn action() -> ScheduledAction {
        ScheduledAction::new(
            ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
            "Dom",
            "Worker",
        )
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        }
    }

    #[test]
    fn retryable_failures_are_retried_with_backoff() {
        let t = ScriptedTransport::new(
            "c1",
            vec![
                Ok(ExecOutcome::Failed(ExecError::component_transient("blip"))),
                Ok(ExecOutcome::Failed(ExecError::component_transient("blip"))),
                Ok(ExecOutcome::Ok(Value::Int(7))),
            ],
        );
        let master = master_with(vec![("Kc1", Arc::clone(&t))], fast_retry());
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(7)));
        assert_eq!(t.calls(), 3);
        let stats = master.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.scheduled, 1);
        assert_eq!(stats.failovers, 0);
    }

    #[test]
    fn non_retryable_failure_returns_immediately() {
        let t1 = ScriptedTransport::new(
            "c1",
            vec![Ok(ExecOutcome::Failed(ExecError::component("div by zero")))],
        );
        let t2 = ScriptedTransport::new("c2", vec![]);
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            fast_retry(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(matches!(out, ExecOutcome::Failed(ref e) if e.detail == "div by zero"));
        assert_eq!(t1.calls(), 1);
        assert_eq!(t2.calls(), 0, "deterministic failure must not fail over");
        assert_eq!(master.stats().retries, 0);
    }

    #[test]
    fn timeout_fails_over_and_is_counted() {
        // With retries disabled a timeout fails over immediately.
        let t1 = ScriptedTransport::new(
            "c1",
            vec![Err(TransportError::Timeout(Duration::from_millis(1)))],
        );
        let t2 = ScriptedTransport::new("c2", vec![Ok(ExecOutcome::Ok(Value::Int(9)))]);
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            RetryPolicy::none(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(9)));
        let stats = master.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.rescheduled, 1);
        assert_eq!(stats.scheduled, 1);
    }

    #[test]
    fn timeout_is_retried_on_the_same_client_before_failover() {
        // Under a retry policy a timed-out client is re-asked first:
        // it may already have executed, and its executed-op memo makes
        // the re-ask cheap and duplicate-safe. Only when retries are
        // exhausted does the op fail over.
        let t1 = ScriptedTransport::new(
            "c1",
            vec![
                Err(TransportError::Timeout(Duration::from_millis(1))),
                Ok(ExecOutcome::Ok(Value::Int(5))),
            ],
        );
        let t2 = ScriptedTransport::new("c2", vec![]);
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            fast_retry(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(5)));
        assert_eq!(t1.calls(), 2);
        assert_eq!(t2.calls(), 0, "retry must stay on the timed-out client");
        let stats = master.stats();
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.rescheduled, 0);
    }

    #[test]
    fn retries_exhausted_then_failover() {
        let t1 = ScriptedTransport::new(
            "c1",
            vec![
                Ok(ExecOutcome::Failed(ExecError::component_transient("down"))),
                Ok(ExecOutcome::Failed(ExecError::component_transient("down"))),
                Ok(ExecOutcome::Failed(ExecError::component_transient("down"))),
            ],
        );
        let t2 = ScriptedTransport::new("c2", vec![Ok(ExecOutcome::Ok(Value::Unit))]);
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            fast_retry(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(out.is_ok());
        assert_eq!(t1.calls(), 3); // max_attempts
        let stats = master.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.rescheduled, 1);
    }

    #[test]
    fn all_targets_failing_reports_unreachable() {
        let t1 = ScriptedTransport::new(
            "c1",
            vec![Err(TransportError::Unreachable("refused".into()))],
        );
        let t2 = ScriptedTransport::new(
            "c2",
            vec![Err(TransportError::Closed("reset".into()))],
        );
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            RetryPolicy::none(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(
            matches!(out, ExecOutcome::Failed(ref e) if e.detail.contains("unreachable")),
            "{out:?}"
        );
        let stats = master.stats();
        // Exhaustion (every authorised target tried and failed) is
        // counted separately from "no authorised client at all".
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.unschedulable, 0);
        // Only target switches count as failovers — giving up entirely
        // after the last target is not one.
        assert_eq!(stats.failovers, 1);
    }

    #[test]
    fn no_authorised_client_is_unschedulable_not_exhausted() {
        // The only client's key is not in the master's policy, so
        // selection itself finds nothing: that is `unschedulable`,
        // distinct from exhaustion after trying real targets.
        let t1 = ScriptedTransport::new("c1", vec![]);
        let master = WebComMaster::new(
            "Kmaster",
            tm("Authorizer: POLICY\nLicensees: \"Knobody\"\nConditions: app_domain==\"WebCom\";\n"),
        );
        master.register_transport(
            "c1".to_string(),
            "Kc1".to_string(),
            Arc::clone(&t1) as Arc<dyn ClientTransport>,
            vec!["Dom".into()],
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(matches!(out, ExecOutcome::Denied(_)));
        let stats = master.stats();
        assert_eq!(stats.unschedulable, 1);
        assert_eq!(stats.exhausted, 0);
        assert_eq!(t1.calls(), 0);
    }

    #[test]
    fn exhaustion_error_carries_the_last_error_kind() {
        // Both clients time out: the terminal error must say Timeout,
        // not a generic Transport.
        let t1 = ScriptedTransport::new(
            "c1",
            vec![Err(TransportError::Timeout(Duration::from_millis(1)))],
        );
        let t2 = ScriptedTransport::new(
            "c2",
            vec![Err(TransportError::Timeout(Duration::from_millis(1)))],
        );
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            RetryPolicy::none(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        let ExecOutcome::Failed(e) = out else {
            panic!("expected failure, got {out:?}");
        };
        assert_eq!(e.kind, ExecErrorKind::Timeout);
        assert!(!e.retryable);
        assert!(e.detail.contains("unreachable or failing"));
        assert_eq!(master.stats().exhausted, 1);
    }

    /// A transport that hangs for the full per-call budget every time.
    struct HangingTransport {
        calls: AtomicUsize,
    }

    impl ClientTransport for HangingTransport {
        fn call(
            &self,
            _request: &ScheduleRequest,
            timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(timeout);
            Err(TransportError::Timeout(timeout))
        }
    }

    #[test]
    fn schedule_deadline_bounds_the_whole_operation() {
        let hanging = Arc::new(HangingTransport {
            calls: AtomicUsize::new(0),
        });
        // Generous retries, short op timeout, a deadline that allows
        // only a couple of attempts: without the deadline this schedule
        // would hang for max_attempts × op_timeout.
        let master = master_of(
            vec![(
                "c1".to_string(),
                "Kc1".to_string(),
                Arc::clone(&hanging) as Arc<dyn ClientTransport>,
            )],
            RetryPolicy {
                max_attempts: 50,
                base_delay: Duration::ZERO,
                max_delay: Duration::ZERO,
            },
            |m| {
                m.with_op_timeout(Duration::from_millis(30))
                    .with_schedule_deadline(Duration::from_millis(80))
            },
        );
        let started = Instant::now();
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        let elapsed = started.elapsed();
        let ExecOutcome::Failed(e) = out else {
            panic!("expected deadline failure, got {out:?}");
        };
        assert_eq!(e.kind, ExecErrorKind::Timeout);
        assert!(e.detail.contains("deadline"), "{}", e.detail);
        assert!(
            elapsed < Duration::from_millis(500),
            "schedule ran {elapsed:?}, deadline was 80ms"
        );
        let stats = master.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert!(
            hanging.calls.load(Ordering::SeqCst) <= 4,
            "deadline should cap attempts, saw {}",
            hanging.calls.load(Ordering::SeqCst)
        );
    }

    fn burst_op(i: i64) -> BurstOp {
        BurstOp {
            action: action(),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            args: vec![Value::Int(i)],
        }
    }

    #[test]
    fn wave_leftovers_stay_inside_the_deadline_from_the_wave_start() {
        let hanging = Arc::new(HangingTransport {
            calls: AtomicUsize::new(0),
        });
        let deadline = Duration::from_millis(250);
        let master = master_of(
            vec![(
                "c1".to_string(),
                "Kc1".to_string(),
                Arc::clone(&hanging) as Arc<dyn ClientTransport>,
            )],
            RetryPolicy {
                max_attempts: 50,
                base_delay: Duration::ZERO,
                max_delay: Duration::ZERO,
            },
            |m| {
                // A breaker that never trips: the ops retry until the
                // deadline stops them.
                m.with_op_timeout(Duration::from_millis(100))
                    .with_schedule_deadline(deadline)
                    .with_health_config(HealthConfig {
                        failure_threshold: u32::MAX,
                        min_samples: u64::MAX,
                        ..HealthConfig::default()
                    })
            },
        );
        // The batch gives up after one op timeout (the unanswering
        // client is not asked the other three); all four ops then fall
        // through to the per-op loop. Were each op's deadline to restart
        // there, the wave would run ~100 + 4 × 250 ms.
        let started = Instant::now();
        let outcomes = master.schedule_burst((0..4).map(burst_op).collect());
        let elapsed = started.elapsed();
        assert!(
            elapsed < deadline + Duration::from_millis(100),
            "wave ran {elapsed:?}, deadline was {deadline:?}"
        );
        for out in &outcomes {
            assert!(
                matches!(out, ExecOutcome::Failed(e) if e.detail.contains("deadline")),
                "{out:?}"
            );
        }
        let stats = master.stats();
        assert_eq!(stats.deadline_exceeded, 4, "stats: {stats:?}");
        assert_eq!(stats.in_flight, 0);
    }

    /// A peer link that sleeps out its timeout, then reports `Timeout`.
    struct HungPeer;

    impl crate::fabric::PeerLink for HungPeer {
        fn forward(
            &self,
            _request: &ScheduleRequest,
            _hops: u8,
            timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            std::thread::sleep(timeout);
            Err(TransportError::Timeout(timeout))
        }

        fn describe(&self) -> String {
            "hung peer".to_string()
        }
    }

    #[test]
    fn forwards_to_a_hung_home_stay_inside_the_deadline_from_the_burst_start() {
        use crate::fabric::{PeerLink, ShardRing};
        let deadline = Duration::from_millis(250);
        let master = master_of(
            vec![(
                "c1".to_string(),
                "Kc1".to_string(),
                Arc::new(BatchRecorder::default()) as Arc<dyn ClientTransport>,
            )],
            fast_retry(),
            |m| m.with_schedule_deadline(deadline),
        );
        let ring = Arc::new(ShardRing::new(2));
        let hung: Arc<dyn PeerLink> = Arc::new(HungPeer);
        master.set_shard(Arc::new(ShardInfo {
            ring: Arc::clone(&ring),
            shard_id: 0,
            peers: HashMap::from([(1, hung)]),
        }));
        let owned_by = |shard| {
            (0..)
                .map(|i| format!("Kp{i}"))
                .find(|p| ring.owner_of(p) == shard)
                .expect("every shard owns a principal")
        };
        // Two local ops and three for the hung home, interleaved. Were
        // each forward's deadline to restart, the burst would run
        // ~3 × 250 ms.
        let homes = [0, 1, 0, 1, 1];
        let ops = homes
            .iter()
            .enumerate()
            .map(|(i, &home)| BurstOp {
                principal: owned_by(home),
                ..burst_op(i as i64)
            })
            .collect();
        let started = Instant::now();
        let outcomes = master.schedule_burst(ops);
        let elapsed = started.elapsed();
        assert!(
            elapsed < deadline + Duration::from_millis(100),
            "burst ran {elapsed:?}, deadline was {deadline:?}"
        );
        for (i, (out, home)) in outcomes.iter().zip(homes).enumerate() {
            if home == 0 {
                assert_eq!(*out, ExecOutcome::Ok(Value::Int(i as i64)), "local op {i}");
            } else {
                assert!(
                    matches!(out, ExecOutcome::Failed(e) if e.kind == ExecErrorKind::Timeout),
                    "forwarded op {i}: {out:?}"
                );
            }
        }
        let stats = master.stats();
        assert_eq!(stats.scheduled, 2, "stats: {stats:?}");
        assert_eq!(stats.in_flight, 0);
    }

    /// Answers every request `Ok(args[0])`, recording batch sizes.
    #[derive(Default)]
    struct BatchRecorder {
        batches: Mutex<Vec<usize>>,
    }

    impl ClientTransport for BatchRecorder {
        fn call(
            &self,
            request: &ScheduleRequest,
            _timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            Ok(ScheduleReply {
                op_id: request.op_id,
                client: "c1".to_string(),
                outcome: ExecOutcome::Ok(request.args[0].clone()),
                replayed: false,
            })
        }

        fn call_batch(
            &self,
            requests: &[&ScheduleRequest],
            timeout: Duration,
        ) -> Vec<Result<ScheduleReply, TransportError>> {
            self.batches.lock().push(requests.len());
            requests.iter().map(|r| self.call(r, timeout)).collect()
        }
    }

    #[test]
    fn wave_goes_out_as_one_batch_and_one_op_keeps_the_burst_path() {
        let recorder = Arc::new(BatchRecorder::default());
        let master = master_of(
            vec![(
                "c1".to_string(),
                "Kc1".to_string(),
                Arc::clone(&recorder) as Arc<dyn ClientTransport>,
            )],
            fast_retry(),
            |m| m,
        );
        let outcomes = master.schedule_burst((0..5).map(burst_op).collect());
        let expected: Vec<ExecOutcome> = (0..5).map(|i| ExecOutcome::Ok(Value::Int(i))).collect();
        assert_eq!(outcomes, expected);
        // A wave of one takes `call`, as `schedule_burst` does.
        assert_eq!(
            master.schedule_burst(vec![burst_op(9)]),
            vec![ExecOutcome::Ok(Value::Int(9))]
        );
        assert_eq!(*recorder.batches.lock(), vec![5]);
        let stats = master.stats();
        assert_eq!(stats.scheduled, 6);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(stats.dispatch_latency.count(), 6);
    }

    #[test]
    fn breaker_trips_then_probes_and_recovers() {
        // One client that crashes, trips its breaker, is revived, and
        // is re-admitted through a half-open probe.
        let faulty = Arc::new(FaultyTransport::new(ScriptedOk));
        faulty.kill();
        let master = master_of(
            vec![(
                "c0".to_string(),
                "Kc0".to_string(),
                Arc::clone(&faulty) as Arc<dyn ClientTransport>,
            )],
            RetryPolicy::none(),
            |m| {
                m.with_health_config(HealthConfig {
                    failure_threshold: 3,
                    open_cooldown: Duration::from_millis(40),
                    ..HealthConfig::default()
                })
            },
        );
        // Three failures trip the breaker.
        for _ in 0..3 {
            let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
            assert!(matches!(out, ExecOutcome::Failed(_)));
        }
        let snap = &master.client_health()[0];
        assert_eq!(snap.state, BreakerState::Open);
        assert_eq!(master.stats().breaker_trips, 1);
        // While open (cooldown not elapsed) the only client is refused
        // on the normal pass, so the forced pass probes it — an op is
        // never abandoned solely because breakers are open.
        let calls_before = faulty.calls();
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(matches!(out, ExecOutcome::Failed(_)));
        assert_eq!(faulty.calls(), calls_before + 1);
        assert!(master.stats().half_open_probes >= 1);
        // Revive the client; after the cooldown a probe closes the
        // breaker again.
        faulty.revive();
        std::thread::sleep(Duration::from_millis(50));
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(master.client_health()[0].state, BreakerState::Closed);
        assert_eq!(master.stats().exhausted, 4);
    }

    #[test]
    fn a_lost_connection_is_retried_on_the_same_client() {
        // The first call on a connection the client closed while idle
        // fails `Closed`; the next call redials. With one authorised
        // client, failing over would end the op.
        let faulty = Arc::new(FaultyTransport::new(ScriptedOk));
        faulty.drop_next(1);
        let master = master_of(
            vec![(
                "c0".to_string(),
                "Kc0".to_string(),
                Arc::clone(&faulty) as Arc<dyn ClientTransport>,
            )],
            fast_retry(),
            |m| m,
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert_eq!(out, ExecOutcome::Ok(Value::Unit));
        assert_eq!(faulty.calls(), 2);
        let stats = master.stats();
        assert_eq!((stats.retries, stats.failovers, stats.exhausted), (1, 0, 0));
    }

    #[test]
    fn stamps_are_signed_once_per_epoch_and_set() {
        // The master's presented-set memo is the only stamp memo: 100
        // ops at one trust epoch sign each signed credential once, and
        // an unsigned one not at all.
        let t = ScriptedTransport::new("c1", vec![]);
        let issuer = Arc::new(StampIssuer::new(hetsec_crypto::KeyPair::from_label("sm-master")));
        let master = master_with(vec![("Kc1", Arc::clone(&t))], RetryPolicy::none())
            .with_stamp_issuer(issuer);
        for label in ["sm-1", "sm-2", "sm-3"] {
            let kp = hetsec_crypto::KeyPair::from_label(label);
            let mut credential = Assertion::new(
                hetsec_keynote::ast::Principal::key(kp.public().to_text()),
                hetsec_keynote::ast::LicenseeExpr::Principal("Kworker".to_string()),
            );
            hetsec_keynote::signing::sign_assertion(&mut credential, &kp).unwrap();
            master.forward_credential(credential);
        }
        master.forward_credential(Assertion::new(
            hetsec_keynote::ast::Principal::key("Kboss"),
            hetsec_keynote::ast::LicenseeExpr::Principal("Kworker".to_string()),
        ));
        for _ in 0..100 {
            let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
            assert_eq!(out, ExecOutcome::Ok(Value::Unit));
        }
        assert_eq!(t.calls(), 100);
        assert_eq!(master.stats().stamps_issued, 3);
    }

    /// A transport that always answers Ok(Unit) (for wrapping in
    /// fault injectors).
    struct ScriptedOk;

    impl ClientTransport for ScriptedOk {
        fn call(
            &self,
            request: &ScheduleRequest,
            _timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            Ok(ScheduleReply {
                op_id: request.op_id,
                client: "ok".to_string(),
                outcome: ExecOutcome::Ok(Value::Unit),
                replayed: false,
            })
        }
    }

    /// Blocks until released (or the call budget expires), then
    /// answers Ok.
    struct BlockingTransport {
        release: Mutex<std::sync::mpsc::Receiver<()>>,
        calls: AtomicUsize,
    }

    impl ClientTransport for BlockingTransport {
        fn call(
            &self,
            request: &ScheduleRequest,
            timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            let _ = self.release.lock().recv_timeout(timeout);
            Ok(ScheduleReply {
                op_id: request.op_id,
                client: "blocking".to_string(),
                outcome: ExecOutcome::Ok(Value::Unit),
                replayed: false,
            })
        }
    }

    #[test]
    fn saturated_client_sheds_to_next_eligible() {
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let blocking = Arc::new(BlockingTransport {
            release: Mutex::new(release_rx),
            calls: AtomicUsize::new(0),
        });
        let fallback = ScriptedTransport::new("c1", vec![Ok(ExecOutcome::Ok(Value::Int(3)))]);
        let master = Arc::new(master_of(
            vec![
                (
                    "c0".to_string(),
                    "Kc0".to_string(),
                    Arc::clone(&blocking) as Arc<dyn ClientTransport>,
                ),
                (
                    "c1".to_string(),
                    "Kc1".to_string(),
                    Arc::clone(&fallback) as Arc<dyn ClientTransport>,
                ),
            ],
            RetryPolicy::none(),
            |m| {
                m.with_health_config(HealthConfig {
                    max_in_flight: 1,
                    ..HealthConfig::default()
                })
            },
        ));
        // Occupy c0's single in-flight slot from another thread.
        let m2 = Arc::clone(&master);
        let holder = std::thread::spawn(move || {
            m2.schedule(&action(), &"worker".into(), "Kworker", vec![])
        });
        // Wait until the blocked call is actually in flight.
        for _ in 0..200 {
            if blocking.calls.load(Ordering::SeqCst) > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(blocking.calls.load(Ordering::SeqCst), 1);
        // This schedule finds c0 saturated and sheds to c1.
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(3)));
        assert_eq!(blocking.calls.load(Ordering::SeqCst), 1);
        release_tx.send(()).unwrap();
        assert!(holder.join().unwrap().is_ok());
        let stats = master.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.scheduled, 2);
        assert_eq!(stats.exhausted, 0);
    }

    #[test]
    fn client_denial_is_not_retried() {
        let t1 = ScriptedTransport::new(
            "c1",
            vec![Ok(ExecOutcome::Denied("stack denied".into()))],
        );
        let t2 = ScriptedTransport::new("c2", vec![]);
        let master = master_with(
            vec![("Kc1", Arc::clone(&t1)), ("Kc2", Arc::clone(&t2))],
            fast_retry(),
        );
        let out = master.schedule(&action(), &"worker".into(), "Kworker", vec![]);
        assert!(matches!(out, ExecOutcome::Denied(_)));
        assert_eq!(t1.calls(), 1);
        assert_eq!(t2.calls(), 0);
        assert_eq!(master.stats().client_denials, 1);
    }
}

#[cfg(test)]
mod failover_tests {
    use super::*;
    use crate::client::{spawn_client, ClientConfig};
    use crate::protocol::ArithComponentExecutor;
    use crate::stack::{AuthzStack, TrustLayer};
    use hetsec_middleware::naming::MiddlewareKind;

    fn tm(policy: &str) -> Arc<TrustManager> {
        let t = TrustManager::permissive();
        t.add_policy(policy).unwrap();
        Arc::new(t)
    }

    fn spawn(name: &str, key: &str) -> crate::client::ClientHandle {
        let master_trust = tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        spawn_client(ClientConfig {
            name: name.to_string(),
            key_text: key.to_string(),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        })
    }

    fn master_for(keys: &[&str]) -> WebComMaster {
        let mut policy = String::new();
        for k in keys {
            policy.push_str(&format!(
                "Authorizer: POLICY\nLicensees: \"{k}\"\nConditions: app_domain==\"WebCom\";\n\n"
            ));
        }
        let master = WebComMaster::new("Kmaster", tm(&policy));
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

    #[test]
    fn fails_over_to_surviving_client() {
        let master = master_for(&["Kc1", "Kc2"]);
        let c1 = spawn("c1", "Kc1");
        let c2 = spawn("c2", "Kc2");
        master.register_client(&c1, vec!["Dom".into()]);
        master.register_client(&c2, vec!["Dom".into()]);
        // Kill the first client; the master should fail over to c2.
        c1.shutdown();
        let out = master.schedule_primitive("add", vec![Value::Int(20), Value::Int(22)]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(42)));
        let stats = master.stats();
        assert_eq!(stats.scheduled, 1);
        assert_eq!(stats.rescheduled, 1);
        assert_eq!(stats.failovers, 1);
        let s2 = c2.shutdown();
        assert_eq!(s2.executed, 1);
    }

    #[test]
    fn all_clients_dead_reports_failure() {
        let master = master_for(&["Kc1", "Kc2"]);
        let c1 = spawn("c1", "Kc1");
        let c2 = spawn("c2", "Kc2");
        master.register_client(&c1, vec!["Dom".into()]);
        master.register_client(&c2, vec!["Dom".into()]);
        c1.shutdown();
        c2.shutdown();
        let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(1)]);
        assert!(matches!(out, ExecOutcome::Failed(ref e) if e.detail.contains("unreachable")));
        let stats = master.stats();
        assert_eq!(stats.exhausted, 1);
        assert_eq!(stats.unschedulable, 0);
    }

    #[test]
    fn no_failover_needed_when_first_client_healthy() {
        let master = master_for(&["Kc1", "Kc2"]);
        let c1 = spawn("c1", "Kc1");
        let c2 = spawn("c2", "Kc2");
        master.register_client(&c1, vec!["Dom".into()]);
        master.register_client(&c2, vec!["Dom".into()]);
        let out = master.schedule_primitive("add", vec![Value::Int(1), Value::Int(1)]);
        assert!(out.is_ok());
        let stats = master.stats();
        assert_eq!(stats.rescheduled, 0);
        assert_eq!(stats.failovers, 0);
        let s1 = c1.shutdown();
        let s2 = c2.shutdown();
        assert_eq!(s1.executed + s2.executed, 1);
    }
}
