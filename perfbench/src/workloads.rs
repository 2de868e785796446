//! The four workloads: each builds a real fabric from `hetsec_webcom`'s
//! public API, generates its requests from the seed, runs one request
//! per call, and checks the outcome against what the generator expects.
//!
//! Every workload is a closed loop: a caller blocks on each result, as
//! WebCom callers do (`schedule` and condensed-graph evaluation both
//! wait). A request is one `schedule_burst(vec![op])` or, on
//! `graph_fanout`, one `Engine::evaluate`. Service time is zero
//! everywhere: the executor is plain arithmetic.

use crate::trace::{TimedExecutor, TimedLayer, TracedOps, TracedPeerLink, TracedTransport};
use hetsec_crypto::KeyPair;
use hetsec_ejb::EjbMiddleware;
use hetsec_graphs::{Engine, EngineError, GraphBuilder, GraphTemplate, Source, Value};
use hetsec_keynote::{
    sign_assertion, Assertion, Clause, CmpOp, ConditionsProgram, Expr, LicenseeExpr, Principal,
    Term,
};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::{EjbDomain, MiddlewareKind};
use hetsec_middleware::security::MiddlewareSecurity;
use hetsec_os::{Mode, UnixObject, UnixSecurity, UnixUser};
use hetsec_rbac::{PermissionGrant, RoleAssignment};
use hetsec_webcom::{
    principal_key, serve_master, serve_tcp_with, spawn_engine, ApplicationLayer,
    ArithComponentExecutor, AuthzLayer, AuthzStack, Binding, BurstOp, CacheStats, ChannelTransport,
    ClientConfig, ClientEngine, ClientHandle, ClientStats, ClientTransport, ComponentExecutor,
    ExecOutcome, MasterServer, MasterStats, MiddlewareLayer, MuxTransport, PeerLink,
    ScheduledAction, ServeOptions, ShardInfo, ShardRing, StampIssuer, StampVerifier,
    TcpClientServer, TcpPeerLink, TrustLayer, TrustManager, UnixOsLayer, WebComMaster, ZipfSampler,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Synthetic principals in the Zipf workloads' policy store.
const ZIPF_PRINCIPALS: usize = 100_000;
/// Zipf exponent of the principal mix.
const ZIPF_EXPONENT: f64 = 1.1;
/// Server-side worker threads per mux connection.
const SERVE_PIPELINE: usize = 8;
/// Signed delegation credentials carried by every request of the
/// credentialed workloads.
const DELEGATIONS: usize = 8;
/// `credentialed_stack`: principals each delegation licenses.
const PER_DELEGATION: usize = 9;
/// `credentialed_stack`: principals no credential licenses — 10% of the
/// population of `DELEGATIONS * PER_DELEGATION + UNLICENSED`.
const UNLICENSED: usize = 8;
/// `credentialed_stack`: one request in this many also writes policy.
const WRITE_EVERY: u64 = 50;
/// The key the policy writes revoke and reinstate; nothing uses it.
const UNRELATED_KEY: &str = "Kunrelated";
/// `graph_fanout`: width of the primitive wave feeding the reduction.
const FANOUT: usize = 32;

/// The benchmark's named traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One shard over loopback TCP, L2-only stack, Zipf principals.
    ZipfTcp,
    /// In-process channel, full L0–L3 stack, signed credentials,
    /// denials and policy writes.
    CredentialedStack,
    /// Two masters on one ring, half the requests forwarded over a TCP
    /// peer link, stamps on.
    Forward2Shard,
    /// One caller evaluating a 32-wide condensed graph.
    GraphFanout,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ZipfTcp,
        Workload::CredentialedStack,
        Workload::Forward2Shard,
        Workload::GraphFanout,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZipfTcp => "zipf_tcp",
            Workload::CredentialedStack => "credentialed_stack",
            Workload::Forward2Shard => "forward_2shard",
            Workload::GraphFanout => "graph_fanout",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop caller threads.
    pub fn callers(self) -> usize {
        match self {
            Workload::GraphFanout => 1,
            _ => 2,
        }
    }

    /// Whether master→client exchanges cross the wire codec.
    pub fn uses_wire(self) -> bool {
        self != Workload::CredentialedStack
    }
}

/// The outcome of one request, as checked.
#[derive(Debug)]
pub enum Checked {
    /// The expected value or the expected denial.
    Good,
    /// Refused, timed out or errored: counts toward `failed`.
    Failed(String),
    /// A wrong value, or a grant that should have been a denial.
    Wrong(String),
}

/// What a request must return.
#[derive(Clone, Copy, Debug)]
enum Expect {
    Value(i64),
    Denied,
}

fn check(outcome: ExecOutcome, expect: Expect) -> Checked {
    match (outcome, expect) {
        (ExecOutcome::Ok(Value::Int(v)), Expect::Value(want)) if v == want => Checked::Good,
        (ExecOutcome::Denied(_), Expect::Denied) => Checked::Good,
        (ExecOutcome::Ok(v), _) => Checked::Wrong(format!("returned {v:?}, expected {expect:?}")),
        (ExecOutcome::Denied(reason), Expect::Value(_)) => {
            Checked::Failed(format!("denied: {reason}"))
        }
        (ExecOutcome::Failed(e), _) => Checked::Failed(e.to_string()),
    }
}

/// splitmix64: the benchmark's input generator.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One closed-loop caller's input stream.
pub struct Caller {
    /// Caller number.
    pub id: usize,
    rng: u64,
    issued: u64,
}

impl Caller {
    /// Caller `id` of a run with `seed`.
    pub fn new(seed: u64, id: usize) -> Self {
        let mut rng = seed ^ (0xC0FF_EE00 + id as u64);
        splitmix64(&mut rng);
        Caller { id, rng, issued: 0 }
    }
}

/// One request as run: its index (also `args[0]`), when it started and
/// ended, and how it checked out.
pub struct Done {
    pub index: u64,
    pub start: Instant,
    pub end: Instant,
    pub checked: Checked,
}

/// Counters read from the fabric's public stats structs.
#[derive(Clone, Default)]
pub struct Counters {
    /// All masters, merged.
    pub master: MasterStats,
    /// Stack denials, executions and failures over all live clients.
    pub client: ClientStats,
    /// The client-side trust layer's decision cache.
    pub user_cache: CacheStats,
    /// Its signature-verdict cache: (hits, misses).
    pub verify: (u64, u64),
}

struct CredentialedMix {
    principals: Vec<String>,
    licensed: usize,
}

struct FanoutGraph {
    template: GraphTemplate,
    constants_sum: i64,
}

/// A running fabric for one workload.
pub struct Fabric {
    workload: Workload,
    traced: bool,
    masters: Vec<Arc<WebComMaster>>,
    tcp_servers: Vec<TcpClientServer>,
    peer_servers: Vec<MasterServer>,
    channel_clients: Vec<ClientHandle>,
    engines: Vec<Arc<ClientEngine>>,
    user_trust: Arc<TrustManager>,
    action: ScheduledAction,
    zipf: Option<ZipfSampler>,
    credentialed: Option<CredentialedMix>,
    graph: Option<FanoutGraph>,
    write_ns: Mutex<Vec<u64>>,
}

// ---- Building blocks ----

/// Policy text licensing `key` inside WebCom.
fn webcom_policy(key: &str) -> String {
    format!("Authorizer: POLICY\nLicensees: \"{key}\"\nConditions: app_domain==\"WebCom\";\n")
}

/// A permissive trust manager licensing `keys` inside WebCom.
fn policy_tm(keys: &[&str]) -> Arc<TrustManager> {
    let tm = TrustManager::permissive();
    for k in keys {
        tm.add_policy(&webcom_policy(k))
            .expect("benchmark policy parses");
    }
    Arc::new(tm)
}

/// A policy assertion licensing `key` inside WebCom, built without a
/// text parse so a 100k-principal store compiles quickly.
fn principal_assertion(key: &str) -> Assertion {
    let mut a = Assertion::new(Principal::Policy, LicenseeExpr::Principal(key.to_string()));
    a.conditions = Some(ConditionsProgram {
        clauses: vec![Clause::Bare(Expr::Cmp {
            op: CmpOp::Eq,
            lhs: Term::Attr("app_domain".to_string()),
            rhs: Term::Str("WebCom".to_string()),
        })],
    });
    a
}

/// Licenses the Zipf population in `tm`.
fn add_zipf_population(tm: &TrustManager) {
    for i in 0..ZIPF_PRINCIPALS {
        tm.add_policy_assertion(principal_assertion(&principal_key(i)))
            .expect("synthetic policy assertion");
    }
}

/// The delegator key and `DELEGATIONS` credentials it signs, the g-th
/// licensing the principals `licensees(g)`.
fn signed_delegations(licensees: impl Fn(usize) -> Vec<String>) -> (String, Vec<Assertion>) {
    let delegator = KeyPair::from_label("perfbench-delegator");
    let delegator_key = delegator.public().to_text();
    let credentials = (0..DELEGATIONS)
        .map(|g| {
            let licensees = licensees(g)
                .into_iter()
                .map(LicenseeExpr::Principal)
                .reduce(|a, b| LicenseeExpr::Or(Box::new(a), Box::new(b)))
                .expect("a delegation licenses someone");
            let mut a = Assertion::new(Principal::key(delegator_key.clone()), licensees);
            sign_assertion(&mut a, &delegator).expect("delegation signs");
            a
        })
        .collect();
    (delegator_key, credentials)
}

/// A strict trust manager whose policy licenses the delegator.
fn strict_tm(delegator_key: &str) -> Arc<TrustManager> {
    let tm = TrustManager::strict();
    tm.add_policy(&webcom_policy(delegator_key))
        .expect("delegator policy parses");
    Arc::new(tm)
}

fn add_action(domain: &str) -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, domain, "Calc", "add"),
        domain,
        "Worker",
    )
}

/// The client's pieces, kept so a twin engine can be configured alike.
struct ClientParts {
    name: String,
    key: String,
    master_trust: Arc<TrustManager>,
    stack: Arc<AuthzStack>,
    stamp_verifier: Option<Arc<StampVerifier>>,
}

impl ClientParts {
    fn engine(&self, executor: Arc<dyn ComponentExecutor>) -> Arc<ClientEngine> {
        let engine = ClientEngine::new(ClientConfig {
            name: self.name.clone(),
            key_text: self.key.clone(),
            master_trust: Arc::clone(&self.master_trust),
            stack: Arc::clone(&self.stack),
            executor,
        });
        Arc::new(match &self.stamp_verifier {
            Some(v) => engine.with_stamp_verifier(Arc::clone(v)),
            None => engine,
        })
    }
}

impl Fabric {
    /// Builds the fabric for `workload` from `seed` and opens every
    /// connection a request will use. With `traced`, the layer traits
    /// are wrapped for span recording.
    pub fn build(workload: Workload, seed: u64, traced: bool) -> Fabric {
        let fabric = match workload {
            Workload::ZipfTcp => Self::zipf_tcp(traced),
            Workload::CredentialedStack => Self::credentialed_stack(traced),
            Workload::Forward2Shard => Self::forward_2shard(traced),
            Workload::GraphFanout => Self::graph_fanout(seed, traced),
        };
        fabric.warm_connections();
        fabric
    }

    fn empty(
        workload: Workload,
        traced: bool,
        user_trust: Arc<TrustManager>,
        action: ScheduledAction,
    ) -> Fabric {
        Fabric {
            workload,
            traced,
            masters: Vec::new(),
            tcp_servers: Vec::new(),
            peer_servers: Vec::new(),
            channel_clients: Vec::new(),
            engines: Vec::new(),
            user_trust,
            action,
            zipf: None,
            credentialed: None,
            graph: None,
            write_ns: Mutex::new(Vec::new()),
        }
    }

    fn layer(&self, layer: Arc<dyn AuthzLayer>) -> Arc<dyn AuthzLayer> {
        if self.traced {
            Arc::new(TimedLayer::new(layer))
        } else {
            layer
        }
    }

    fn executor(&self) -> Arc<dyn ComponentExecutor> {
        let arith: Arc<dyn ComponentExecutor> = Arc::new(ArithComponentExecutor);
        if self.traced {
            Arc::new(TimedExecutor::new(arith))
        } else {
            arith
        }
    }

    /// The master's transport to a client, wrapped when traced; the
    /// wrapper's twin engine replays sampled requests.
    fn transport(
        &self,
        inner: Arc<dyn ClientTransport>,
        parts: &ClientParts,
    ) -> Arc<dyn ClientTransport> {
        if self.traced {
            let twin = parts.engine(Arc::new(ArithComponentExecutor));
            Arc::new(TracedTransport::new(inner, twin, self.workload.uses_wire()))
        } else {
            inner
        }
    }

    /// Serves `parts` over loopback TCP and registers it with `master`
    /// through a mux transport.
    fn attach_tcp_client(&mut self, master: &WebComMaster, parts: &ClientParts, domain: &str) {
        let engine = parts.engine(self.executor());
        let server = serve_tcp_with(
            Arc::clone(&engine),
            vec![domain.into()],
            "127.0.0.1:0",
            ServeOptions {
                pipeline: SERVE_PIPELINE,
            },
        )
        .expect("serve benchmark client on loopback");
        let mux: Arc<dyn ClientTransport> = Arc::new(MuxTransport::new(server.local_addr()));
        master.register_transport(
            &parts.name,
            &parts.key,
            self.transport(mux, parts),
            vec![domain.into()],
        );
        self.engines.push(engine);
        self.tcp_servers.push(server);
    }

    /// One master reaching one client over mux, the client's stack an
    /// L2 trust layer over `user_trust`.
    fn single_mux_client(
        workload: Workload,
        traced: bool,
        user_trust: Arc<TrustManager>,
    ) -> Fabric {
        let mut fabric = Self::empty(workload, traced, Arc::clone(&user_trust), add_action("Dom"));
        let mut stack = AuthzStack::new();
        stack.push(fabric.layer(Arc::new(TrustLayer::new(user_trust))));
        let parts = ClientParts {
            name: "w0".into(),
            key: "Kw0".into(),
            master_trust: policy_tm(&["Kmaster0"]),
            stack: Arc::new(stack),
            stamp_verifier: None,
        };
        let master = WebComMaster::new("Kmaster0", policy_tm(&["Kw0"]));
        fabric.attach_tcp_client(&master, &parts, "Dom");
        fabric.masters.push(Arc::new(master));
        fabric
    }

    fn zipf_tcp(traced: bool) -> Fabric {
        let user_trust = Arc::new(TrustManager::permissive());
        add_zipf_population(&user_trust);
        let mut fabric = Self::single_mux_client(Workload::ZipfTcp, traced, user_trust);
        fabric.zipf = Some(ZipfSampler::new(ZIPF_PRINCIPALS, ZIPF_EXPONENT));
        fabric
    }

    fn credentialed_stack(traced: bool) -> Fabric {
        let ejb_domain = EjbDomain::new("bench", "ejbsrv", "calc");
        let domain = ejb_domain.to_string();
        let licensed = DELEGATIONS * PER_DELEGATION;
        let principals: Vec<String> = (0..licensed + UNLICENSED)
            .map(|i| format!("Kc{i:03}"))
            .collect();
        let (delegator_key, credentials) = signed_delegations(|g| {
            principals[g * PER_DELEGATION..(g + 1) * PER_DELEGATION].to_vec()
        });
        let user_trust = strict_tm(&delegator_key);
        let mut fabric = Self::empty(
            Workload::CredentialedStack,
            traced,
            Arc::clone(&user_trust),
            add_action(&domain),
        );

        // L0: the Unix account `worker` may execute the `Calc` object.
        let os = Arc::new(UnixSecurity::new());
        os.add_user(
            "worker",
            UnixUser {
                uid: 1000,
                gid: 100,
                groups: vec![],
            },
        );
        os.set_object(
            "Calc",
            UnixObject {
                owner: 1000,
                group: 100,
                mode: Mode::from_octal(0o750),
            },
        );
        // L1: the EJB container grants role Worker the `add` method.
        let ejb = EjbMiddleware::new(ejb_domain);
        ejb.grant(&PermissionGrant::new(
            domain.as_str(),
            "Worker",
            "Calc",
            "add",
        ))
        .expect("EJB grant");
        ejb.assign(&RoleAssignment::new("worker", domain.as_str(), "Worker"))
            .expect("EJB role assignment");
        let mut stack = AuthzStack::new();
        stack.push(fabric.layer(Arc::new(UnixOsLayer::new(os, ["Calc".to_string()]))));
        stack.push(fabric.layer(Arc::new(MiddlewareLayer::new(Arc::new(ejb)))));
        stack.push(fabric.layer(Arc::new(TrustLayer::new(user_trust))));
        // L3 vetoes an unrelated component, so it abstains on `add`.
        stack.push(fabric.layer(Arc::new(ApplicationLayer::denying([format!(
            "ejb://{domain}/Payroll#delete"
        )]))));

        let parts = ClientParts {
            name: "w0".into(),
            key: "Kw0".into(),
            master_trust: policy_tm(&["Kmaster0"]),
            stack: Arc::new(stack),
            stamp_verifier: None,
        };
        let engine = parts.engine(fabric.executor());
        let handle = spawn_engine(Arc::clone(&engine));
        let master = WebComMaster::new("Kmaster0", policy_tm(&["Kw0"]));
        for c in credentials {
            master.forward_credential(c);
        }
        let channel: Arc<dyn ClientTransport> = Arc::new(ChannelTransport::new(handle.sender()));
        master.register_transport(
            "w0",
            "Kw0",
            fabric.transport(channel, &parts),
            vec![domain.as_str().into()],
        );
        fabric.engines.push(engine);
        fabric.channel_clients.push(handle);
        fabric.masters.push(Arc::new(master));
        fabric.credentialed = Some(CredentialedMix {
            principals,
            licensed,
        });
        fabric
    }

    fn forward_2shard(traced: bool) -> Fabric {
        const SHARDS: usize = 2;
        let (delegator_key, credentials) = signed_delegations(|g| vec![format!("Kuser{g}")]);
        let user_trust = strict_tm(&delegator_key);
        add_zipf_population(&user_trust);
        let mut fabric = Self::empty(
            Workload::Forward2Shard,
            traced,
            Arc::clone(&user_trust),
            add_action("Dom"),
        );
        let issuers: Vec<Arc<StampIssuer>> = (0..SHARDS)
            .map(|s| {
                Arc::new(StampIssuer::new(KeyPair::from_label(&format!(
                    "perfbench-stamp-{s}"
                ))))
            })
            .collect();
        let fleet_verifier = |cache| {
            let verifier = issuers.iter().fold(StampVerifier::new(cache), |v, issuer| {
                v.trust_issuer(issuer.key_text())
            });
            Arc::new(verifier)
        };
        let mut stack = AuthzStack::new();
        stack.push(fabric.layer(Arc::new(TrustLayer::new(Arc::clone(&user_trust)))));
        let stack = Arc::new(stack);
        let client_trust = policy_tm(&["Kw0", "Kw1"]);
        for (s, issuer) in issuers.iter().enumerate() {
            let parts = ClientParts {
                name: format!("w{s}"),
                key: format!("Kw{s}"),
                master_trust: policy_tm(&["Kmaster0", "Kmaster1"]),
                stack: Arc::clone(&stack),
                stamp_verifier: Some(fleet_verifier(user_trust.verify_cache())),
            };
            let master = WebComMaster::new(format!("Kmaster{s}"), Arc::clone(&client_trust))
                .with_stamp_issuer(Arc::clone(issuer))
                .with_stamp_verifier(fleet_verifier(client_trust.verify_cache()));
            for c in &credentials {
                master.forward_credential(c.clone());
            }
            fabric.attach_tcp_client(&master, &parts, "Dom");
            fabric.masters.push(Arc::new(master));
        }
        for m in &fabric.masters {
            let server =
                serve_master(Arc::clone(m), "127.0.0.1:0").expect("serve master peer port");
            fabric.peer_servers.push(server);
        }
        let ring = Arc::new(ShardRing::new(SHARDS));
        for (s, m) in fabric.masters.iter().enumerate() {
            let peer = 1 - s;
            let link: Arc<dyn PeerLink> =
                Arc::new(TcpPeerLink::new(fabric.peer_servers[peer].local_addr()));
            let link = if traced {
                Arc::new(TracedPeerLink::new(link))
            } else {
                link
            };
            m.set_shard(Arc::new(ShardInfo {
                ring: Arc::clone(&ring),
                shard_id: s,
                peers: HashMap::from([(peer, link)]),
            }));
        }
        fabric.zipf = Some(ZipfSampler::new(ZIPF_PRINCIPALS, ZIPF_EXPONENT));
        fabric
    }

    fn graph_fanout(seed: u64, traced: bool) -> Fabric {
        let principal = principal_key(0);
        let user_trust = policy_tm(&[principal.as_str()]);
        let mut fabric = Self::single_mux_client(Workload::GraphFanout, traced, user_trust);
        let action = &fabric.action;
        fabric.masters[0].bind(
            "add",
            Binding {
                component: action.component.clone(),
                domain: action.domain.clone(),
                role: action.role.clone(),
                user: "worker".into(),
                principal,
            },
        );
        fabric.graph = Some(fanout_graph(seed));
        fabric
    }

    /// Opens every connection a request can take (mux sockets, peer
    /// links) with one checked request each; part of set-up.
    fn warm_connections(&self) {
        let ok = |out: ExecOutcome, what: &str| match check(out, Expect::Value(1)) {
            Checked::Good => {}
            other => panic!("set-up request via {what} did not return 1: {other:?}"),
        };
        match self.workload {
            Workload::ZipfTcp | Workload::GraphFanout => {
                ok(self.schedule(principal_key(0), 0), "the client");
            }
            Workload::CredentialedStack => {
                let principal = self.credentialed.as_ref().expect("mix").principals[0].clone();
                ok(self.schedule(principal, 0), "the channel");
            }
            Workload::Forward2Shard => {
                // One principal the entry master owns, one its peer owns.
                let ring = ShardRing::new(self.masters.len());
                for owner in 0..self.masters.len() {
                    let rank = (0..ZIPF_PRINCIPALS)
                        .find(|&r| ring.owner_of(&principal_key(r)) == owner)
                        .expect("every shard owns a principal");
                    ok(self.schedule(principal_key(rank), 0), "the peer link");
                }
            }
        }
    }

    /// One operation through the entry master: `add(index, 1)` as
    /// `principal`.
    ///
    /// Every caller enters through master 0, also on `forward_2shard`.
    /// Each master numbers its ops from 0 and a forwarded op keeps its
    /// origin's id, so if both masters took callers, a forwarded op and a
    /// local one could share an op id on the owner's mux connection,
    /// whose pending-reply table is keyed by op id alone: one caller's
    /// reply is then dropped or handed to the other. With one entry
    /// master every op id on every connection is unique.
    fn schedule(&self, principal: String, index: i64) -> ExecOutcome {
        let op = BurstOp {
            action: self.action.clone(),
            user: "worker".into(),
            principal,
            args: vec![Value::Int(index), Value::Int(1)],
        };
        self.masters[0]
            .schedule_burst(vec![op])
            .pop()
            .expect("a burst of one yields one outcome")
    }

    /// The workload this fabric runs.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// The first master (the graphs engine's executor).
    pub fn master(&self) -> &WebComMaster {
        &self.masters[0]
    }

    /// Runs the caller's next request. Input generation and policy
    /// writes happen outside the timed interval; `ops` is the traced
    /// graph executor, when tracing.
    pub fn request(&self, caller: &mut Caller, ops: Option<&TracedOps<'_>>) -> Done {
        let index = caller.issued * self.workload.callers() as u64 + caller.id as u64;
        caller.issued += 1;
        let arg = i64::try_from(index).expect("request index fits in i64");
        if let Some(graph) = &self.graph {
            let params = [Value::Int(arg)];
            let start = Instant::now();
            let result = match ops {
                Some(ops) => Engine::new(ops).evaluate(&graph.template, &params),
                None => Engine::new(self.master()).evaluate(&graph.template, &params),
            };
            let end = Instant::now();
            let want = FANOUT as i64 * arg + graph.constants_sum;
            let checked = match result {
                Ok(Value::Int(v)) if v == want => Checked::Good,
                Ok(v) => Checked::Wrong(format!("graph returned {v:?}, expected {want}")),
                Err(e @ (EngineError::Refused { .. } | EngineError::BadArguments { .. })) => {
                    Checked::Failed(e.to_string())
                }
                Err(e) => Checked::Wrong(format!("graph failed to evaluate: {e}")),
            };
            return Done {
                index,
                start,
                end,
                checked,
            };
        }
        let (principal, expect) = match &self.credentialed {
            Some(mix) => {
                if index.is_multiple_of(WRITE_EVERY) {
                    self.policy_write(index / WRITE_EVERY);
                }
                let pick = (splitmix64(&mut caller.rng) % mix.principals.len() as u64) as usize;
                let expect = if pick < mix.licensed {
                    Expect::Value(arg + 1)
                } else {
                    Expect::Denied
                };
                (mix.principals[pick].clone(), expect)
            }
            None => {
                let zipf = self.zipf.as_ref().expect("Zipf workloads carry a sampler");
                (
                    principal_key(zipf.sample(&mut caller.rng)),
                    Expect::Value(arg + 1),
                )
            }
        };
        let start = Instant::now();
        let outcome = self.schedule(principal, arg);
        let end = Instant::now();
        Done {
            index,
            start,
            end,
            checked: check(outcome, expect),
        }
    }

    /// Revokes (odd writes) or reinstates (even writes) a key no request
    /// uses: a policy change that bumps the trust layer's epoch without
    /// changing any verdict.
    fn policy_write(&self, n: u64) {
        let start = Instant::now();
        if n % 2 == 1 {
            self.user_trust.revoke_key(UNRELATED_KEY);
        } else {
            self.user_trust.reinstate_key(UNRELATED_KEY);
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.write_ns.lock().expect("write log poisoned").push(ns);
    }

    /// Durations of every policy write so far, in nanoseconds.
    pub fn policy_write_ns(&self) -> Vec<u64> {
        self.write_ns.lock().expect("write log poisoned").clone()
    }

    /// A snapshot of the fabric's public stats structs.
    pub fn counters(&self) -> Counters {
        let mut master = MasterStats::default();
        for m in &self.masters {
            master.merge(&m.stats());
        }
        let mut client = ClientStats::default();
        for e in &self.engines {
            let s = e.stats();
            client.executed += s.executed;
            client.master_rejected += s.master_rejected;
            client.stack_denied += s.stack_denied;
            client.failed += s.failed;
            client.replayed += s.replayed;
            client.stamps.merge(&s.stamps);
        }
        let verify = self.user_trust.verify_cache_stats();
        Counters {
            master,
            client,
            user_cache: self.user_trust.cache_stats(),
            verify: (verify.hits, verify.misses),
        }
    }

    /// Stops every server and client thread, waiting for each.
    pub fn teardown(self) {
        for s in self.peer_servers {
            s.stop();
        }
        for s in self.tcp_servers {
            s.stop();
        }
        for c in self.channel_clients {
            c.shutdown();
        }
    }
}

/// The `graph_fanout` template: `FANOUT` primitives `add(p, c_i)` with
/// seeded constants `c_i`, summed pairwise by a reduction tree, so the
/// result is `FANOUT * p + sum(c_i)`.
fn fanout_graph(seed: u64) -> FanoutGraph {
    let mut rng = seed ^ 0x6EA9_F000;
    let mut b = GraphBuilder::new("fanout", 1);
    let mut constants_sum = 0i64;
    let mut level: Vec<usize> = (0..FANOUT)
        .map(|i| {
            let c = (splitmix64(&mut rng) % 1_000) as i64;
            constants_sum += c;
            let node = b.constant(&format!("c{i}"), c);
            b.primitive(
                &format!("leaf{i}"),
                "add",
                vec![Source::Param(0), Source::Node(node)],
            )
        })
        .collect();
    let mut depth = 0;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .enumerate()
            .map(|(j, pair)| {
                let inputs = pair.iter().map(|&n| Source::Node(n)).collect();
                b.primitive(&format!("sum{depth}_{j}"), "add", inputs)
            })
            .collect();
        depth += 1;
    }
    let template = b
        .output(Source::Node(level[0]))
        .expect("fan-out graph is well formed");
    FanoutGraph {
        template,
        constants_sum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_graphs::evaluate_arith;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn fanout_graph_sums_to_its_closed_form() {
        let g = fanout_graph(9);
        let p = 12_345i64;
        assert_eq!(
            evaluate_arith(&g.template, &[Value::Int(p)]).unwrap(),
            Value::Int(FANOUT as i64 * p + g.constants_sum)
        );
        assert_eq!(g.template.primitives().len(), 1);
        assert_eq!(
            g.template.levels().iter().flatten().count(),
            FANOUT + 2 * FANOUT - 1
        );
    }

    #[test]
    fn outcomes_are_checked_against_expectations() {
        assert!(matches!(
            check(ExecOutcome::Ok(Value::Int(4)), Expect::Value(4)),
            Checked::Good
        ));
        assert!(matches!(
            check(ExecOutcome::Ok(Value::Int(5)), Expect::Value(4)),
            Checked::Wrong(_)
        ));
        assert!(matches!(
            check(ExecOutcome::Ok(Value::Int(4)), Expect::Denied),
            Checked::Wrong(_)
        ));
        assert!(matches!(
            check(ExecOutcome::Denied("x".into()), Expect::Denied),
            Checked::Good
        ));
        assert!(matches!(
            check(ExecOutcome::Denied("x".into()), Expect::Value(1)),
            Checked::Failed(_)
        ));
        assert!(matches!(
            check(ExecOutcome::failed("boom"), Expect::Value(1)),
            Checked::Failed(_)
        ));
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let mut a = Caller::new(5, 1);
        let mut b = Caller::new(5, 1);
        let mut c = Caller::new(6, 1);
        let xs: Vec<u64> = (0..8).map(|_| splitmix64(&mut a.rng)).collect();
        let ys: Vec<u64> = (0..8).map(|_| splitmix64(&mut b.rng)).collect();
        let zs: Vec<u64> = (0..8).map(|_| splitmix64(&mut c.rng)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }
}
