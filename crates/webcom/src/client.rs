//! A WebCom client environment (Figure 3, right side).
//!
//! The mediation/execution logic lives in [`ClientEngine`], shared by
//! every transport frontend: [`spawn_client`] runs the engine on its own
//! thread behind an in-process channel, and [`crate::net::serve_tcp`]
//! runs the same engine behind a TCP listener. For every request the
//! engine performs the paper's mutual mediation:
//!
//! 1. *authenticate the master*: the master's key must be authorised by
//!    the client's own trust policy to schedule this action (credentials
//!    presented with the request are considered request-scoped);
//! 2. *local stack*: the client's pluggable authorisation stack (OS /
//!    middleware / trust-management layers, §5) must permit the
//!    executing user;
//! 3. only then is the component invoked.
//!
//! A batch of ops sharing one head ([`ScheduleBatch`], a client's share
//! of a condensed-graph wave) is mediated once: stamps are admitted,
//! the master is authorised and the stack decides once per head, and
//! only the memo lookup, execution, audit record and outcome are per
//! op. A single request is a batch of one, so both take one path.
//!
//! The engine also keeps an *executed-op memo*: the recorded outcome of
//! every operation it has run, keyed by `(master_key, op_id)`. When a
//! master re-asks about an operation — its first call timed out after
//! the client had already executed, so the master cannot know whether
//! the work happened — the memo replays the recorded result instead of
//! executing a second time. This is what makes the master's
//! retry-after-timeout path duplicate-safe for non-idempotent
//! components.

use crate::audit::AuditLog;
use crate::authz::{AuthzRequest, TrustManager};
use crate::protocol::{
    BatchOp, ComponentExecutor, ExecError, ExecOutcome, ScheduleBatch, ScheduleReply,
    ScheduleRequest,
};
use crate::stack::{AuthzContext, AuthzStack, StackDecision};
use std::sync::mpsc::{self, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// How many executed-op outcomes the memo retains (FIFO eviction). Far
/// more than any plausible in-flight window; bounds memory on
/// long-lived clients.
const OP_MEMO_CAPACITY: usize = 1024;

/// The envelope the in-process fabric delivers to a client thread: work
/// plus the reply path, or an orderly shutdown marker. The reply sender
/// rides in the envelope — transport plumbing — so the
/// [`ScheduleRequest`] itself stays plain serializable data.
pub enum ClientMessage {
    /// Scheduling requests, as batches each sharing one head, and where
    /// their replies go: one per op, in batch order, each sent as it is
    /// ready.
    Request(Vec<ScheduleBatch>, Sender<ScheduleReply>),
    /// Stop after draining the queue up to this point.
    Shutdown,
}

/// Counters a client reports when shut down.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests executed successfully.
    pub executed: usize,
    /// Requests refused because the master was not trusted.
    pub master_rejected: usize,
    /// Requests refused by the local stack.
    pub stack_denied: usize,
    /// Component invocation failures.
    pub failed: usize,
    /// Requests answered from the executed-op memo instead of running
    /// again (the master re-asked after a timeout or failover).
    pub replayed: usize,
    /// Verdict-stamp admissions: credential verdicts accepted from
    /// request stamps, verification skips (already cached), rejections
    /// (bad signature or untrusted issuer), and stale-epoch drops.
    pub stamps: crate::stamp::StampStats,
}

/// The executed-op memo: recorded outcomes keyed by `(master_key,
/// op_id)`, evicted FIFO at [`OP_MEMO_CAPACITY`]. Only *executions*
/// are recorded (success or deterministic failure) — refusals are
/// re-decided, and retryable failures are re-run on purpose.
#[derive(Default)]
struct OpMemo {
    map: HashMap<(String, u64), ExecOutcome>,
    order: VecDeque<(String, u64)>,
}

impl OpMemo {
    fn get(&self, key: &(String, u64)) -> Option<ExecOutcome> {
        self.map.get(key).cloned()
    }

    fn insert(&mut self, key: (String, u64), outcome: ExecOutcome) {
        if self.map.insert(key.clone(), outcome).is_none() {
            self.order.push_back(key);
            while self.order.len() > OP_MEMO_CAPACITY {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// Configuration for a client engine.
pub struct ClientConfig {
    /// Client name (diagnostics).
    pub name: String,
    /// The client's key text.
    pub key_text: String,
    /// Trust policy for *masters*: which keys may schedule work here.
    pub master_trust: Arc<TrustManager>,
    /// The local authorisation stack for executing users.
    pub stack: Arc<AuthzStack>,
    /// The component executor (wraps the local middleware).
    pub executor: Arc<dyn ComponentExecutor>,
}

/// The transport-independent client: mutual mediation plus execution.
/// Frontends (channel thread, TCP server) feed it requests and ship its
/// replies back however they like.
pub struct ClientEngine {
    config: ClientConfig,
    stats: Mutex<ClientStats>,
    audit: Option<Arc<AuditLog>>,
    memo: Mutex<OpMemo>,
    stamp_verifier: Option<Arc<crate::stamp::StampVerifier>>,
}

impl ClientEngine {
    /// An engine for `config`.
    pub fn new(config: ClientConfig) -> Self {
        ClientEngine {
            config,
            stats: Mutex::new(ClientStats::default()),
            audit: None,
            memo: Mutex::new(OpMemo::default()),
            stamp_verifier: None,
        }
    }

    /// Admits verdict stamps presented with requests through `verifier`.
    /// For the amortisation to reach the master-trust decision, the
    /// verifier's cache must be the one `master_trust` (and any
    /// [`TrustLayer`](crate::stack::TrustLayer) in the stack) verifies
    /// through — share it with
    /// [`TrustManager::share_verify_cache`](crate::authz::TrustManager::share_verify_cache).
    pub fn with_stamp_verifier(mut self, verifier: Arc<crate::stamp::StampVerifier>) -> Self {
        self.stamp_verifier = Some(verifier);
        self
    }

    /// Records every local-stack decision into `log` (the network
    /// frontends enable this so a serving client keeps an audit trail of
    /// what remote masters asked for).
    pub fn with_audit(mut self, log: Arc<AuditLog>) -> Self {
        self.audit = Some(log);
        self
    }

    /// The client's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The client's key text.
    pub fn key_text(&self) -> &str {
        &self.config.key_text
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats.lock().clone()
    }

    /// Handles one request end to end and builds the correlated reply:
    /// a batch of one.
    pub fn handle(&self, req: &ScheduleRequest) -> ScheduleReply {
        let mut replies = self.handle_batch(ScheduleBatch::from(req.clone()));
        replies.pop().expect("one reply per op")
    }

    /// Handles a batch: mediates its head once, then runs each op in
    /// order. The replies and [`ClientStats`] equal those of handling
    /// each op as its own request, one after another — except the stamp
    /// counters, which count a head's stamps once.
    pub fn handle_batch(&self, mut batch: ScheduleBatch) -> Vec<ScheduleReply> {
        let ops = std::mem::take(&mut batch.ops);
        let mediation = self.mediate(batch);
        ops.iter().map(|op| self.run_op(&mediation, op)).collect()
    }

    /// The per-head half of handling: admits the head's stamps and
    /// authorises the master, then keeps the head (its `ops` are
    /// ignored) for the ops. The stack decides later, once, for the
    /// first op that is not a memo replay.
    pub(crate) fn mediate(&self, head: ScheduleBatch) -> Mediation {
        let config = &self.config;
        // 0. Admit verdict stamps before any credential is verified, so
        // the per-credential signature checks below become cache hits.
        // Stamps only ever pre-answer signature verdicts — both
        // mediation steps still run in full.
        if let Some(verifier) = &self.stamp_verifier {
            let stamps = head.presented.stamps();
            if !stamps.is_empty() {
                let delta = verifier.admit(stamps);
                self.stats.lock().stamps.merge(&delta);
            }
        }
        // 1. Authenticate/authorise the master. Credentials presented
        // with the request are evaluated request-scoped: they support
        // this decision but are never persisted into the client's store.
        let master_authorised = config.master_trust.decide(
            &AuthzRequest::principal(&head.master_key)
                .action(&head.action)
                .credentials(head.presented.credentials()),
        );
        let master_denied = (!master_authorised).then(|| {
            format!(
                "client {}: master key not authorised to schedule {}",
                config.name,
                head.action.component.identifier()
            )
        });
        Mediation {
            ctx: AuthzContext {
                user: head.user,
                principal: head.principal,
                action: head.action,
                presented: head.presented,
            },
            master_key: head.master_key,
            master_denied,
            stack: OnceLock::new(),
        }
    }

    /// The per-op half of handling: memo replay, the head's stack
    /// decision, audit record, execution and memoisation of one op.
    pub(crate) fn run_op(&self, mediation: &Mediation, op: &BatchOp) -> ScheduleReply {
        let (outcome, replayed) = self.decide_and_execute(mediation, op);
        ScheduleReply {
            op_id: op.op_id,
            client: self.config.name.clone(),
            outcome,
            replayed,
        }
    }

    fn decide_and_execute(&self, mediation: &Mediation, op: &BatchOp) -> (ExecOutcome, bool) {
        let config = &self.config;
        // 0. A set the request names but no connection resolved is no
        // set at all: fail closed before anything can grant.
        if let Some(id) = mediation.ctx.presented.unresolved() {
            return (
                ExecOutcome::Failed(ExecError::protocol(format!(
                    "client {}: presented set {id} was never resolved",
                    config.name
                ))),
                false,
            );
        }
        if let Some(denial) = &mediation.master_denied {
            self.stats.lock().master_rejected += 1;
            return (ExecOutcome::Denied(denial.clone()), false);
        }
        // 1b. Executed-op memo: if this (master, op) already ran here,
        // replay the recorded outcome instead of executing twice. The
        // check deliberately sits *after* master mediation — a replay
        // still requires an authorised master — but before the stack,
        // because the stack already permitted the recorded execution.
        let memo_key = (mediation.master_key.clone(), op.op_id);
        if let Some(outcome) = self.memo.lock().get(&memo_key) {
            self.stats.lock().replayed += 1;
            return (outcome, true);
        }
        // 2. Local stacked mediation for the executing user, once per
        // head; every op that relies on it is audited.
        let ctx = &mediation.ctx;
        let decision = mediation.stack.get_or_init(|| config.stack.decide(ctx));
        if let Some(audit) = &self.audit {
            audit.record(ctx, decision);
        }
        if !decision.permitted {
            self.stats.lock().stack_denied += 1;
            let reasons: Vec<String> = decision
                .trace
                .iter()
                .filter_map(|(name, v)| match v {
                    crate::stack::Verdict::Deny(r) => Some(format!("{name}: {r}")),
                    _ => None,
                })
                .collect();
            return (
                ExecOutcome::Denied(format!(
                    "client {}: stack denied [{}]",
                    config.name,
                    reasons.join("; ")
                )),
                false,
            );
        }
        // 3. Execute, and memoise what actually ran: successes and
        // deterministic failures replay on a re-ask; transient
        // (retryable) failures are *not* memoised — the master retries
        // those on purpose, expecting a fresh attempt.
        let outcome = match config
            .executor
            .invoke(&ctx.user, &ctx.action.component, &op.args)
        {
            Ok(v) => {
                self.stats.lock().executed += 1;
                ExecOutcome::Ok(v)
            }
            Err(e) => {
                self.stats.lock().failed += 1;
                ExecOutcome::Failed(e)
            }
        };
        let memoise = match &outcome {
            ExecOutcome::Ok(_) => true,
            ExecOutcome::Failed(e) => !e.retryable,
            ExecOutcome::Denied(_) => false,
        };
        if memoise {
            self.memo.lock().insert(memo_key, outcome.clone());
        }
        (outcome, false)
    }
}

/// A batch head's mediation, shared by the batch's ops.
pub(crate) struct Mediation {
    /// The head as the stack sees it (and each op's audit record).
    ctx: AuthzContext,
    master_key: String,
    /// Why the master was refused, if it was.
    master_denied: Option<String>,
    /// The stack's decision for the head, made when first needed.
    stack: OnceLock<StackDecision>,
}

/// A running channel-fabric client and the means to reach it.
pub struct ClientHandle {
    /// The client's name.
    pub name: String,
    /// The client's public key text (the master checks credentials
    /// against this identity).
    pub key_text: String,
    sender: Sender<ClientMessage>,
    join: Option<JoinHandle<ClientStats>>,
}

impl ClientHandle {
    /// The channel the master uses to reach this client.
    pub fn sender(&self) -> Sender<ClientMessage> {
        self.sender.clone()
    }

    /// Shuts the client down and returns its stats. Requests already in
    /// the queue are drained first; masters still holding a sender clone
    /// get transport errors for anything sent afterwards.
    pub fn shutdown(mut self) -> ClientStats {
        let _ = self.sender.send(ClientMessage::Shutdown);
        drop(self.sender);
        self.join
            .take()
            .expect("client already joined")
            .join()
            .expect("client thread panicked")
    }
}

/// Spawns a client thread; it runs until the request channel closes.
pub fn spawn_client(config: ClientConfig) -> ClientHandle {
    spawn_engine(Arc::new(ClientEngine::new(config)))
}

/// Spawns a channel frontend for an existing engine (lets one engine
/// serve the channel fabric and a TCP listener at once).
pub fn spawn_engine(engine: Arc<ClientEngine>) -> ClientHandle {
    let (tx, rx) = mpsc::channel::<ClientMessage>();
    let name = engine.name().to_string();
    let key_text = engine.key_text().to_string();
    let join = std::thread::Builder::new()
        .name(format!("webcom-client-{name}"))
        .spawn(move || {
            while let Ok(msg) = rx.recv() {
                let (batches, reply_to) = match msg {
                    ClientMessage::Request(batches, reply_to) => (batches, reply_to),
                    ClientMessage::Shutdown => break,
                };
                for mut batch in batches {
                    let ops = std::mem::take(&mut batch.ops);
                    let mediation = engine.mediate(batch);
                    for op in &ops {
                        let _ = reply_to.send(engine.run_op(&mediation, op));
                    }
                }
            }
            engine.stats()
        })
        .expect("spawn client thread");
    ClientHandle {
        name,
        key_text,
        sender: tx,
        join: Some(join),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Presented;
    use crate::authz::ScheduledAction;
    use crate::protocol::ArithComponentExecutor;
    use crate::stack::TrustLayer;
    use hetsec_graphs::Value;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::MiddlewareKind;

    fn action(op: &str) -> ScheduledAction {
        ScheduledAction::new(
            ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", op),
            "Dom",
            "Worker",
        )
    }

    fn permissive_tm(policy: &str) -> Arc<TrustManager> {
        let tm = TrustManager::permissive();
        tm.add_policy(policy).unwrap();
        Arc::new(tm)
    }

    fn client() -> ClientHandle {
        // Masters: trust Kmaster for anything in app_domain WebCom.
        let master_trust = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        // Users: trust Kworker for the Dom/Worker role.
        let user_tm = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\n\
             Conditions: app_domain==\"WebCom\" && Domain==\"Dom\" && Role==\"Worker\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        spawn_client(ClientConfig {
            name: "c1".to_string(),
            key_text: "Kc1".to_string(),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        })
    }

    fn roundtrip(
        handle: &ClientHandle,
        req_action: ScheduledAction,
        master: &str,
        principal: &str,
    ) -> ExecOutcome {
        let (tx, rx) = mpsc::channel();
        handle
            .sender()
            .send(ClientMessage::Request(
                vec![ScheduleBatch::from(ScheduleRequest {
                    op_id: 7,
                    action: req_action,
                    user: "worker".into(),
                    principal: principal.to_string(),
                    master_key: master.to_string(),
                    presented: Presented::default(),
                    args: vec![Value::Int(20), Value::Int(22)],
                })],
                tx,
            ))
            .unwrap();
        let reply = rx.recv().unwrap();
        assert_eq!(reply.op_id, 7);
        assert_eq!(reply.client, "c1");
        reply.outcome
    }

    #[test]
    fn executes_authorised_request() {
        let c = client();
        let out = roundtrip(&c, action("add"), "Kmaster", "Kworker");
        assert_eq!(out, ExecOutcome::Ok(Value::Int(42)));
        let stats = c.shutdown();
        assert_eq!(stats.executed, 1);
    }

    #[test]
    fn rejects_untrusted_master() {
        let c = client();
        let out = roundtrip(&c, action("add"), "Kimposter", "Kworker");
        assert!(matches!(out, ExecOutcome::Denied(ref m) if m.contains("master")));
        let stats = c.shutdown();
        assert_eq!(stats.master_rejected, 1);
        assert_eq!(stats.executed, 0);
    }

    #[test]
    fn stack_denies_unauthorised_user() {
        let c = client();
        let out = roundtrip(&c, action("add"), "Kmaster", "Kstranger");
        assert!(matches!(out, ExecOutcome::Denied(ref m) if m.contains("stack denied")));
        let stats = c.shutdown();
        assert_eq!(stats.stack_denied, 1);
    }

    #[test]
    fn component_failure_reported() {
        let c = client();
        let out = roundtrip(&c, action("no-such-op"), "Kmaster", "Kworker");
        assert!(matches!(out, ExecOutcome::Failed(ref e) if !e.retryable));
        let stats = c.shutdown();
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn master_credentials_do_not_persist_into_client_store() {
        // A master presenting a delegation for itself is honoured for
        // that request only; the client's master-trust store is not
        // widened for later requests.
        let master_trust = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kboss\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        let engine = ClientEngine::new(ClientConfig {
            name: "c1".to_string(),
            key_text: "Kc1".to_string(),
            master_trust: Arc::clone(&master_trust),
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        });
        let delegation = hetsec_keynote::parser::parse_assertion(
            "Authorizer: \"Kboss\"\nLicensees: \"Ksub\"\n",
        )
        .unwrap();
        let count_before = master_trust.credential_count();
        let mut req = ScheduleRequest {
            op_id: 1,
            action: action("add"),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Ksub".to_string(),
            presented: vec![delegation].into(),
            args: vec![Value::Int(1), Value::Int(1)],
        };
        assert!(engine.handle(&req).outcome.is_ok());
        assert_eq!(master_trust.credential_count(), count_before);
        // Without the delegation the sub-master is rejected.
        req.op_id = 2;
        req.presented = Presented::Nothing;
        assert!(matches!(
            engine.handle(&req).outcome,
            ExecOutcome::Denied(ref m) if m.contains("master")
        ));
    }

    /// Counts invocations so tests can detect duplicate executions.
    struct CountingExecutor(std::sync::atomic::AtomicUsize);

    impl ComponentExecutor for CountingExecutor {
        fn invoke(
            &self,
            user: &hetsec_rbac::User,
            component: &ComponentRef,
            args: &[Value],
        ) -> Result<Value, crate::protocol::ExecError> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            ArithComponentExecutor.invoke(user, component, args)
        }
    }

    fn counting_engine() -> (ClientEngine, Arc<CountingExecutor>) {
        let master_trust = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        let executor = Arc::new(CountingExecutor(std::sync::atomic::AtomicUsize::new(0)));
        let engine = ClientEngine::new(ClientConfig {
            name: "c1".to_string(),
            key_text: "Kc1".to_string(),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::clone(&executor) as Arc<dyn ComponentExecutor>,
        });
        (engine, executor)
    }

    fn request(op_id: u64, op: &str) -> ScheduleRequest {
        ScheduleRequest {
            op_id,
            action: action(op),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            presented: Presented::default(),
            args: vec![Value::Int(20), Value::Int(22)],
        }
    }

    #[test]
    fn memo_replays_instead_of_double_executing() {
        let (engine, executor) = counting_engine();
        let req = request(11, "add");
        let first = engine.handle(&req);
        assert_eq!(first.outcome, ExecOutcome::Ok(Value::Int(42)));
        assert!(!first.replayed);
        // The master re-asks (its first call timed out): same result,
        // flagged as a replay, with no second execution.
        let second = engine.handle(&req);
        assert_eq!(second.outcome, ExecOutcome::Ok(Value::Int(42)));
        assert!(second.replayed);
        assert_eq!(executor.0.load(std::sync::atomic::Ordering::SeqCst), 1);
        let stats = engine.stats();
        assert_eq!(stats.executed, 1);
        assert_eq!(stats.replayed, 1);
    }

    #[test]
    fn memo_records_deterministic_failures_but_is_keyed_by_op() {
        let (engine, executor) = counting_engine();
        // A deterministic component failure replays too: re-running a
        // known-bad op buys nothing and may have side effects.
        let bad = request(21, "no-such-op");
        assert!(matches!(engine.handle(&bad).outcome, ExecOutcome::Failed(_)));
        let again = engine.handle(&bad);
        assert!(again.replayed);
        // A different op id executes fresh.
        let good = request(22, "add");
        assert!(!engine.handle(&good).replayed);
        assert_eq!(executor.0.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn memo_replay_still_requires_an_authorised_master() {
        let (engine, _executor) = counting_engine();
        assert!(engine.handle(&request(31, "add")).outcome.is_ok());
        // An imposter re-asking about the same op id is rejected before
        // the memo is consulted: replay is not an authorisation bypass.
        let mut imposter = request(31, "add");
        imposter.master_key = "Kimposter".to_string();
        let reply = engine.handle(&imposter);
        assert!(matches!(reply.outcome, ExecOutcome::Denied(_)));
        assert!(!reply.replayed);
    }

    #[test]
    fn memo_evicts_fifo_at_capacity() {
        let (engine, executor) = counting_engine();
        assert!(engine.handle(&request(0, "add")).outcome.is_ok());
        // Push op 0 out of the memo window.
        for i in 1..=(OP_MEMO_CAPACITY as u64) {
            assert!(engine.handle(&request(i, "add")).outcome.is_ok());
        }
        // Op 0 was evicted: a re-ask executes again (the memo is a
        // bounded window, not a permanent ledger).
        assert!(!engine.handle(&request(0, "add")).replayed);
        assert_eq!(
            executor.0.load(std::sync::atomic::Ordering::SeqCst),
            OP_MEMO_CAPACITY + 2
        );
    }

    #[test]
    fn engine_audit_records_stack_decisions() {
        let log = Arc::new(AuditLog::new(8));
        let master_trust = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let user_tm = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        let engine = ClientEngine::new(ClientConfig {
            name: "c1".to_string(),
            key_text: "Kc1".to_string(),
            master_trust,
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        })
        .with_audit(Arc::clone(&log));
        let req = ScheduleRequest {
            op_id: 9,
            action: action("add"),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            presented: Presented::default(),
            args: vec![Value::Int(2), Value::Int(2)],
        };
        assert!(engine.handle(&req).outcome.is_ok());
        let mut denied = req.clone();
        denied.op_id = 10;
        denied.principal = "Kstranger".to_string();
        assert!(!engine.handle(&denied).outcome.is_ok());
        assert_eq!(log.totals(), (1, 1));
        assert_eq!(log.recent(10).len(), 2);
    }

    /// Figure 9's System X: Unix OS + KeyNote, no middleware at all.
    #[test]
    fn system_x_unix_plus_keynote_only() {
        use crate::master::{Binding, WebComMaster};
        use crate::stack::UnixOsLayer;
        use hetsec_os::unix::{Mode, UnixObject, UnixSecurity, UnixUser};

        let os = Arc::new(UnixSecurity::new());
        os.add_user(
            "worker",
            UnixUser {
                uid: 7,
                gid: 7,
                groups: vec![],
            },
        );
        os.set_object(
            "Calc",
            UnixObject {
                owner: 7,
                group: 7,
                mode: Mode::from_octal(0o700),
            },
        );
        let user_tm = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        stack.push(Arc::new(UnixOsLayer::new(os, ["Calc".to_string()])));
        let client = spawn_client(ClientConfig {
            name: "system-x".to_string(),
            key_text: "Kx".to_string(),
            master_trust: permissive_tm(
                "Authorizer: POLICY\nLicensees: \"Kmaster\"\nConditions: app_domain==\"WebCom\";\n",
            ),
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        });

        let master = WebComMaster::new(
            "Kmaster",
            permissive_tm(
                "Authorizer: POLICY\nLicensees: \"Kx\"\nConditions: app_domain==\"WebCom\";\n",
            ),
        );
        master.register_client(&client, vec!["Dom".into()]);
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
        let out = master.schedule_primitive("add", vec![Value::Int(40), Value::Int(2)]);
        assert_eq!(out, ExecOutcome::Ok(Value::Int(42)));
        client.shutdown();
    }

    #[test]
    fn environment_without_trusted_master_refuses() {
        use crate::master::WebComMaster;

        let user_tm = permissive_tm(
            "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(user_tm)));
        // An empty master-trust store: the client trusts no master.
        let client = spawn_client(ClientConfig {
            name: "isolated".to_string(),
            key_text: "Ki".to_string(),
            master_trust: Arc::new(TrustManager::permissive()),
            stack: Arc::new(stack),
            executor: Arc::new(ArithComponentExecutor),
        });
        let master = WebComMaster::new(
            "Kmaster",
            permissive_tm(
                "Authorizer: POLICY\nLicensees: \"Ki\"\nConditions: app_domain==\"WebCom\";\n",
            ),
        );
        master.register_client(&client, vec!["Dom".into()]);
        let out = master.schedule(&action("add"), &"worker".into(), "Kworker", vec![]);
        assert!(matches!(out, ExecOutcome::Denied(ref m) if m.contains("master")));
        client.shutdown();
    }
}
