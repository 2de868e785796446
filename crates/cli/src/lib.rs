//! The `hetsec` command-line tool: policy translation from the shell.
//!
//! Subcommands (each reads/writes the serde_json form of
//! [`hetsec_rbac::RbacPolicy`] or KeyNote assertion text):
//!
//! * `encode <policy.json>` — RBAC → KeyNote credentials (Figures 5-6);
//! * `decode <credentials.kn>` — KeyNote → RBAC (JSON on stdout);
//! * `check <policy.json> <user> <domain> <role> <object> <permission>`
//!   — answer one authorisation query through the KeyNote back-end;
//! * `migrate <policy.json> <from-domain> <to-domain> [from-kind to-kind]`
//!   — domain remap + kind-level permission interpretation;
//! * `lint <store.kn> [--rbac <policy.json>] [--format text|json]
//!   [--now <num>] [--revoked <key>]... [--incremental-check]` — static
//!   analysis of a credential store: delegation-graph reachability,
//!   escalation vs the RBAC policy, condition lints, credential hygiene
//!   (`HS0xx` codes); `--incremental-check` additionally replays the
//!   store through the incremental engine and fails if its report ever
//!   diverges from the cold analysis;
//! * `diff <old.kn> <new.kn> [--format text|json] [--now <num>]
//!   [--revoked <key>]...` — semantic verdict diff between two stores:
//!   evaluates both compliance fixpoints and reports every request
//!   whose verdict flips, as grant-widening errors (`HS015`) or
//!   grant-narrowing warnings (`HS016`) with concrete witnesses;
//! * `spki-encode <policy.json>` — RBAC → SPKI/SDSI certificates;
//! * `example-policy` — print the paper's Figure 1 policy as JSON;
//! * `serve <addr> [name] [key] [ops] [--shards N] [--pipeline P]` —
//!   run a WebCom client serving the scheduling protocol over TCP (the
//!   right side of Figure 3); with `--shards N > 1`, a whole sharded
//!   fabric in one process: N pipelined serving clients, N masters on a
//!   consistent-hash ring linked over real TCP `Forward` frames, and a
//!   demo burst driven through shard 0 so cross-shard ops forward;
//! * `connect <addr> [n] [client-key]` — run a WebCom master that
//!   dials a serving client and schedules `n` operations to it,
//!   reporting dispatch counters and the dispatch-latency histogram;
//! * `loadgen [--principals N] [--ops N] [--shards N] [--window W]
//!   [--callers C] [--pipeline P] [--service-us U] [--zipf E]
//!   [--open RATE] [--seed S] [--json]` — the closed-loop
//!   load harness: builds an in-process sharded fabric and drives a
//!   Zipf-distributed synthetic-principal workload through it with
//!   `C` caller threads per shard, each scheduling one op at a time.
//!
//! `serve` and `connect` make the master/client fabric runnable as two
//! OS processes (see the README quick-start); `loadgen` is the
//! single-process load harness behind `BENCH_load.json`; everything
//! else is single-process policy tooling.
//!
//! The dispatch logic lives here (library) so it is unit-testable; the
//! binary in `main.rs` is a thin wrapper.

use hetsec_keynote::parser::parse_assertions;
use hetsec_keynote::print::print_assertion;
use hetsec_keynote::session::{ActionQuery, KeyNoteSession};
use hetsec_middleware::MiddlewareKind;
use hetsec_rbac::fixtures::salaries_policy;
use hetsec_rbac::RbacPolicy;
use hetsec_translate::{
    decode_policy, encode_policy, transform_policy, MigrationSpec, SymbolicDirectory, APP_DOMAIN,
};

/// The WebCom administration key used by the CLI.
pub const CLI_WEBCOM_KEY: &str = "KWebCom";

/// CLI errors, printable to stderr.
#[derive(Debug)]
pub enum CliError {
    /// Usage problem.
    Usage(String),
    /// IO problem.
    Io(std::io::Error),
    /// JSON problem.
    Json(serde_json::Error),
    /// KeyNote parse problem.
    KeyNote(String),
    /// Scheduling-fabric problem (bad address, unreachable peer).
    Net(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage: {m}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
            CliError::Json(e) => write!(f, "json error: {e}"),
            CliError::KeyNote(e) => write!(f, "keynote error: {e}"),
            CliError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

fn read_policy(path: &str) -> Result<RbacPolicy, CliError> {
    let text = std::fs::read_to_string(path)?;
    Ok(serde_json::from_str(&text)?)
}

/// Proves the incremental analyzer agrees with a cold run on this
/// store: replays the store assertion-by-assertion (plus one
/// modify-and-revert round trip on the first assertion) and compares
/// the final incremental report byte-for-byte against a cold analysis.
fn incremental_equivalence_check(
    text: &str,
    opts: &hetsec_analyze::AnalysisOptions,
) -> Result<(), CliError> {
    use hetsec_analyze::StoreEdit;
    let assertions = parse_assertions(text).map_err(|e| CliError::KeyNote(e.to_string()))?;
    let dir = SymbolicDirectory::default();
    let cold = hetsec_analyze::analyze(&assertions, opts).to_json();

    // Grow the store edit by edit, then exercise Modify and a
    // Remove/re-Add round trip so every cache path runs at least once.
    // The round trip targets the last assertion, so the final store
    // order matches the input and the reports are directly comparable.
    let mut edits: Vec<StoreEdit> = assertions.iter().cloned().map(StoreEdit::Add).collect();
    if let Some(first) = assertions.first() {
        edits.push(StoreEdit::Modify(0, first.clone()));
    }
    if let Some(last) = assertions.last() {
        edits.push(StoreEdit::Remove(assertions.len() - 1));
        edits.push(StoreEdit::Add(last.clone()));
    }
    let (report, replayed) = hetsec_analyze::incremental::replay(Vec::new(), edits, opts, &dir);
    debug_assert_eq!(replayed.len(), assertions.len());
    if report.to_json() != cold {
        return Err(CliError::KeyNote(
            "incremental-check failed: incremental report diverges from cold analysis".into(),
        ));
    }
    Ok(())
}

fn parse_kind(s: &str) -> Result<MiddlewareKind, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "com" | "com+" | "complus" => Ok(MiddlewareKind::ComPlus),
        "ejb" => Ok(MiddlewareKind::Ejb),
        "corba" => Ok(MiddlewareKind::Corba),
        other => Err(CliError::Usage(format!(
            "unknown middleware kind `{other}` (use com|ejb|corba)"
        ))),
    }
}

/// The master key used by the `serve`/`connect` demo fabric. A serving
/// client only accepts schedules from this key; a connecting master
/// presents it.
pub const CLI_MASTER_KEY: &str = "Kmaster";

/// The executing-user key the demo fabric schedules under.
pub const CLI_WORKER_KEY: &str = "Kworker";

fn demo_trust(licensee: &str) -> std::sync::Arc<hetsec_webcom::TrustManager> {
    let tm = hetsec_webcom::TrustManager::permissive();
    tm.add_policy(&format!(
        "Authorizer: POLICY\nLicensees: \"{licensee}\"\nConditions: app_domain==\"WebCom\";\n"
    ))
    .expect("demo policy parses");
    std::sync::Arc::new(tm)
}

/// The client engine `serve` runs: trusts [`CLI_MASTER_KEY`] as master,
/// mediates [`CLI_WORKER_KEY`] through a one-layer trust stack, and
/// executes the built-in arithmetic components. Public so integration
/// tests can serve the same engine in-process.
pub fn demo_client_engine(name: &str, key: &str) -> std::sync::Arc<hetsec_webcom::ClientEngine> {
    use hetsec_webcom::stack::TrustLayer;
    let mut stack = hetsec_webcom::AuthzStack::new();
    stack.push(std::sync::Arc::new(TrustLayer::new(demo_trust(CLI_WORKER_KEY))));
    std::sync::Arc::new(hetsec_webcom::ClientEngine::new(hetsec_webcom::ClientConfig {
        name: name.to_string(),
        key_text: key.to_string(),
        master_trust: demo_trust(CLI_MASTER_KEY),
        stack: std::sync::Arc::new(stack),
        executor: std::sync::Arc::new(hetsec_webcom::ArithComponentExecutor),
    }))
}

/// `hetsec serve`: serves the scheduling protocol on `addr` until `ops`
/// operations have been answered (forever when `ops` is `None`). The
/// bound address is printed immediately so a master in another process
/// can be pointed at it.
pub fn serve_command(
    addr: &str,
    name: &str,
    key: &str,
    ops: Option<usize>,
) -> Result<String, CliError> {
    let server = hetsec_webcom::serve_tcp(demo_client_engine(name, key), vec!["Dom".into()], addr)
        .map_err(|e| CliError::Net(format!("bind {addr}: {e}")))?;
    println!("serving client `{name}` (key {key}, domain Dom) on {}", server.local_addr());
    match ops {
        Some(limit) => {
            while server.served() < limit {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let served = server.served();
            let stats = server.engine().stats();
            server.stop();
            Ok(format!(
                "served {served} operations (executed {}, master_rejected {}, stack_denied {}, failed {}, replayed {})",
                stats.executed, stats.master_rejected, stats.stack_denied, stats.failed,
                stats.replayed
            ))
        }
        None => loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        },
    }
}

/// `hetsec connect`: dials a serving client at `addr`, registers it via
/// the Identify handshake, and schedules `n` additions to it.
pub fn connect_command(addr: &str, n: usize, client_key: &str) -> Result<String, CliError> {
    use hetsec_graphs::Value;
    use hetsec_middleware::component::ComponentRef;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|e| CliError::Net(format!("bad address `{addr}`: {e}")))?;
    let master = hetsec_webcom::WebComMaster::new(CLI_MASTER_KEY, demo_trust(client_key))
        .with_op_timeout(std::time::Duration::from_secs(5));
    let name = master
        .register_tcp(addr)
        .map_err(|e| CliError::Net(e.to_string()))?;
    master.bind(
        "add",
        hetsec_webcom::Binding {
            component: ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
            domain: "Dom".into(),
            role: "Worker".into(),
            user: "worker".into(),
            principal: CLI_WORKER_KEY.to_string(),
        },
    );
    let mut ok = 0usize;
    for i in 0..n {
        let out = master.schedule_primitive("add", vec![Value::Int(i as i64), Value::Int(1)]);
        match out {
            hetsec_webcom::ExecOutcome::Ok(_) => ok += 1,
            other => return Err(CliError::Net(format!("op {i} failed: {other:?}"))),
        }
    }
    let stats = master.stats();
    let health = master
        .client_health()
        .into_iter()
        .map(|h| format!("{}={}", h.client, h.state))
        .collect::<Vec<_>>()
        .join(", ");
    Ok(format!(
        "scheduled {ok}/{n} operations to `{name}` at {addr} \
         (retries {}, timeouts {}, failovers {}, rescheduled {}, \
         exhausted {}, shed {}, replayed {}, breaker trips {}; health: {health})\n\
         dispatch latency: {}",
        stats.retries,
        stats.timeouts,
        stats.failovers,
        stats.rescheduled,
        stats.exhausted,
        stats.shed,
        stats.replayed,
        stats.breaker_trips,
        stats.dispatch_latency.summary()
    ))
}

/// `hetsec serve --shards N`: a whole sharded fabric in one process —
/// N pipelined serving clients, N masters on a shared consistent-hash
/// ring linked over real TCP `Forward` frames — plus a demo burst of
/// `ops` additions under rotating principals driven through shard 0's
/// master, so every op owned by another shard crosses a real socket.
pub fn sharded_serve_command(
    addr: &str,
    name: &str,
    key: &str,
    shards: usize,
    ops: usize,
    pipeline: usize,
) -> Result<String, CliError> {
    use hetsec_crypto::KeyPair;
    use hetsec_graphs::Value;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_webcom::stack::TrustLayer;
    use hetsec_webcom::{
        serve_master, PeerLink, ServeOptions, ShardInfo, ShardRing, ShardRouter, StampIssuer,
        StampVerifier, TcpPeerLink,
    };
    use std::collections::HashMap;
    use std::sync::Arc;
    if shards < 2 {
        return Err(CliError::Usage("--shards needs at least 2".into()));
    }
    // Rotating demo principals: enough distinct keys that every shard
    // owns some of them. They are authorised through *signed* RSA
    // delegations (one per principal, signed by the demo delegator key
    // that POLICY licenses) so the verdict-stamp machinery has real
    // signature verdicts to amortise across the fleet.
    let users: Vec<String> = (0..4 * shards).map(|u| format!("Kuser{u}")).collect();
    let delegator = KeyPair::from_label("hetsec-demo-delegator");
    let delegator_key = delegator.public().to_text();
    let delegations: Vec<hetsec_keynote::Assertion> = users
        .iter()
        .map(|u| {
            let mut a = hetsec_keynote::Assertion::new(
                hetsec_keynote::Principal::key(delegator_key.clone()),
                hetsec_keynote::LicenseeExpr::Principal(u.clone()),
            );
            hetsec_keynote::sign_assertion(&mut a, &delegator).expect("demo delegation signs");
            a
        })
        .collect();
    let user_policy = format!(
        "Authorizer: POLICY\nLicensees: \"{delegator_key}\"\nConditions: app_domain==\"WebCom\";\n"
    );
    // One stamp-signing identity per master; every node's fleet trust
    // set lists all of them.
    let stamp_issuers: Vec<Arc<StampIssuer>> = (0..shards)
        .map(|s| Arc::new(StampIssuer::new(KeyPair::from_label(&format!("hetsec-stamp-{s}")))))
        .collect();
    let fleet_verifier = |cache| {
        let mut v = StampVerifier::new(cache);
        for issuer in &stamp_issuers {
            v = v.trust_issuer(issuer.key_text());
        }
        Arc::new(v)
    };
    let client_keys: Vec<String> = (0..shards).map(|s| format!("{key}{s}")).collect();
    let client_trust = hetsec_webcom::TrustManager::permissive();
    for k in &client_keys {
        client_trust
            .add_policy(&format!(
                "Authorizer: POLICY\nLicensees: \"{k}\"\nConditions: app_domain==\"WebCom\";\n"
            ))
            .expect("demo policy parses");
    }
    let client_trust = std::sync::Arc::new(client_trust);
    let mut report = String::new();
    let mut servers = Vec::new();
    let mut masters = Vec::new();
    for (s, client_key) in client_keys.iter().enumerate() {
        // Each client vets the signed delegations through its own
        // strict trust manager; its stamp verifier shares that
        // manager's verify cache, so admitted stamp verdicts answer
        // the per-credential checks without local RSA.
        let user_trust = Arc::new(hetsec_webcom::TrustManager::strict());
        user_trust.add_policy(&user_policy).expect("demo policy parses");
        let mut stack = hetsec_webcom::AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(Arc::clone(&user_trust))));
        let engine = Arc::new(
            hetsec_webcom::ClientEngine::new(hetsec_webcom::ClientConfig {
                name: format!("{name}{s}"),
                key_text: client_key.clone(),
                master_trust: demo_trust(CLI_MASTER_KEY),
                stack: Arc::new(stack),
                executor: Arc::new(hetsec_webcom::ArithComponentExecutor),
            })
            .with_stamp_verifier(fleet_verifier(user_trust.verify_cache())),
        );
        // The given address binds shard 0; the rest take ephemeral
        // ports (a fixed port cannot be bound N times).
        let bind = if s == 0 { addr } else { "127.0.0.1:0" };
        let server = hetsec_webcom::serve_tcp_with(
            engine,
            vec!["Dom".into()],
            bind,
            ServeOptions { pipeline },
        )
        .map_err(|e| CliError::Net(format!("bind {bind}: {e}")))?;
        let master = hetsec_webcom::WebComMaster::new(CLI_MASTER_KEY, Arc::clone(&client_trust))
            .with_op_timeout(std::time::Duration::from_secs(5))
            .with_stamp_issuer(Arc::clone(&stamp_issuers[s]))
            .with_stamp_verifier(fleet_verifier(client_trust.verify_cache()));
        for d in &delegations {
            master.forward_credential(d.clone());
        }
        master
            .register_tcp(server.local_addr())
            .map_err(|e| CliError::Net(e.to_string()))?;
        servers.push(server);
        masters.push(Arc::new(master));
    }
    // Expose each master's Forward endpoint and interlink the fleet.
    let mut master_servers = Vec::new();
    for m in &masters {
        master_servers.push(
            serve_master(Arc::clone(m), "127.0.0.1:0")
                .map_err(|e| CliError::Net(format!("bind master endpoint: {e}")))?,
        );
    }
    let ring = Arc::new(ShardRing::new(shards));
    for (i, m) in masters.iter().enumerate() {
        let peers: HashMap<usize, Arc<dyn PeerLink>> = (0..shards)
            .filter(|&j| j != i)
            .map(|j| {
                (
                    j,
                    Arc::new(TcpPeerLink::new(master_servers[j].local_addr()))
                        as Arc<dyn PeerLink>,
                )
            })
            .collect();
        m.set_shard(Arc::new(ShardInfo {
            ring: Arc::clone(&ring),
            shard_id: i,
            peers,
        }));
    }
    for (s, server) in servers.iter().enumerate() {
        report.push_str(&format!(
            "shard {s}: client `{name}{s}` (key {}) on {}, master forward endpoint {}\n",
            client_keys[s],
            server.local_addr(),
            master_servers[s].local_addr()
        ));
    }
    // Drive the demo burst through shard 0 only: ops whose principal
    // hashes elsewhere must forward over the TCP peer links. It is one
    // burst, so every op's deadline runs from its start.
    let burst: Vec<hetsec_webcom::BurstOp> = (0..ops)
        .map(|i| hetsec_webcom::BurstOp {
            action: hetsec_webcom::ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: users[i % users.len()].clone(),
            args: vec![Value::Int(i as i64), Value::Int(1)],
        })
        .collect();
    let outcomes = masters[0].schedule_burst(burst);
    let ok = outcomes
        .iter()
        .filter(|o| matches!(o, hetsec_webcom::ExecOutcome::Ok(_)))
        .count();
    let router = ShardRouter::from_parts(ring, masters);
    let stats = router.merged_stats();
    let mut client_stamps = hetsec_webcom::StampStats::default();
    for server in &servers {
        client_stamps.merge(&server.engine().stats().stamps);
    }
    report.push_str(&format!(
        "demo burst via shard 0: {ok}/{ops} ok; forwarded {}, forward_received {}, \
         forward_rejected {}\n\
         verdict stamps: issued {}, clients admitted {} (rejected {}, stale {}), \
         masters admitted {} (rejected {}, stale {})\n\
         dispatch latency: {}",
        stats.forwarded,
        stats.forward_received,
        stats.forward_rejected,
        stats.stamps_issued,
        client_stamps.admitted,
        client_stamps.rejected,
        client_stamps.stale,
        stats.stamps_admitted,
        stats.stamps_rejected,
        stats.stamps_stale,
        stats.dispatch_latency.summary()
    ));
    for ms in master_servers {
        ms.stop();
    }
    for s in servers {
        s.stop();
    }
    if ok != ops {
        return Err(CliError::Net(format!(
            "sharded demo burst dropped ops: {report}"
        )));
    }
    Ok(report)
}

/// `hetsec loadgen`: runs the closed-loop load harness in-process and
/// reports throughput plus the dispatch-latency distribution.
pub fn loadgen_command(cfg: &hetsec_webcom::LoadConfig, json: bool) -> Result<String, CliError> {
    let report = hetsec_webcom::run_load(cfg);
    if json {
        return Ok(serde_json::to_string_pretty(&report)?);
    }
    Ok(format!(
        "loadgen: {}/{} ops ok over {} shard(s), mux transport, {} principals\n\
         throughput: {:.0} ops/s (wall {:.3}s)\n\
         dispatch latency: {}\n\
         forwarded {}, timeouts {}, failovers {}",
        report.completed,
        report.ops,
        report.shards,
        report.principals,
        report.throughput,
        report.elapsed().as_secs_f64(),
        report.latency.summary(),
        report.forwarded,
        report.timeouts,
        report.failovers
    ))
}

/// Runs one CLI invocation; returns the text to print on stdout.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let usage = "hetsec <encode|decode|check|lint|diff|migrate|spki-encode|example-policy\
                 |serve|connect|loadgen> ...";
    let cmd = args.first().ok_or_else(|| CliError::Usage(usage.into()))?;
    match cmd.as_str() {
        "example-policy" => Ok(serde_json::to_string_pretty(&salaries_policy())?),
        "encode" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("hetsec encode <policy.json>".into()))?;
            let policy = read_policy(path)?;
            let dir = SymbolicDirectory::default();
            let out: Vec<String> = encode_policy(&policy, CLI_WEBCOM_KEY, &dir)
                .iter()
                .map(print_assertion)
                .collect();
            Ok(out.join("\n"))
        }
        "decode" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("hetsec decode <credentials.kn>".into()))?;
            let text = std::fs::read_to_string(path)?;
            let assertions =
                parse_assertions(&text).map_err(|e| CliError::KeyNote(e.to_string()))?;
            let dir = SymbolicDirectory::default();
            let report = decode_policy(&assertions, CLI_WEBCOM_KEY, &dir);
            let mut out = serde_json::to_string_pretty(&report.policy)?;
            for skip in &report.skipped {
                out.push_str(&format!("\n// skipped: {skip}"));
            }
            Ok(out)
        }
        "check" => {
            let [path, user, domain, role, object, permission] = args.get(1..7).and_then(
                |s| <&[String; 6]>::try_from(s).ok(),
            ).ok_or_else(|| {
                CliError::Usage(
                    "hetsec check <policy.json> <user> <domain> <role> <object> <permission>"
                        .into(),
                )
            })?
            .clone();
            let policy = read_policy(&path)?;
            let dir = SymbolicDirectory::default();
            let mut session = KeyNoteSession::permissive();
            for a in encode_policy(&policy, CLI_WEBCOM_KEY, &dir) {
                session
                    .add_policy_assertion(a)
                    .map_err(|e| CliError::KeyNote(e.to_string()))?;
            }
            let attrs = [
                ("app_domain", APP_DOMAIN),
                ("Domain", domain.as_str()),
                ("Role", role.as_str()),
                ("ObjectType", object.as_str()),
                ("Permission", permission.as_str()),
            ]
            .into_iter()
            .collect();
            let key = format!("K{}", user.to_lowercase());
            let result = session.evaluate(&ActionQuery::principals(&[key.as_str()]).attributes(&attrs));
            Ok(format!(
                "{}: {user} as {domain}/{role} requesting {permission} on {object}",
                result.value_name
            ))
        }
        "lint" => {
            let lint_usage = "hetsec lint <store.kn> [--rbac <policy.json>] \
                              [--format text|json] [--now <num>] [--revoked <key>]... \
                              [--incremental-check]";
            let path = args
                .get(1)
                .filter(|p| !p.starts_with("--"))
                .ok_or_else(|| CliError::Usage(lint_usage.into()))?;
            let mut opts = hetsec_analyze::AnalysisOptions {
                webcom_key: CLI_WEBCOM_KEY.to_string(),
                ..Default::default()
            };
            // The adapters the CLI ships are WebCom's: their attribute
            // vocabulary is what HS008 checks references against.
            opts.known_attributes
                .extend(hetsec_webcom::ADAPTER_ATTRIBUTES.iter().map(|s| s.to_string()));
            let mut json = false;
            let mut incremental_check = false;
            let mut rest = args[2..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| {
                    rest.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage(format!("{name} needs a value; {lint_usage}")))
                };
                match flag.as_str() {
                    "--rbac" => opts.rbac = Some(read_policy(&value("--rbac")?)?),
                    "--now" => {
                        let v = value("--now")?;
                        opts.now = Some(v.parse::<f64>().map_err(|_| {
                            CliError::Usage(format!("--now must be a number, got `{v}`"))
                        })?);
                    }
                    "--revoked" => {
                        opts.revoked.insert(value("--revoked")?);
                    }
                    "--format" => match value("--format")?.as_str() {
                        "json" => json = true,
                        "text" => json = false,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown format `{other}` (use text|json)"
                            )))
                        }
                    },
                    "--incremental-check" => incremental_check = true,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown lint flag `{other}`; {lint_usage}"
                        )))
                    }
                }
            }
            let text = std::fs::read_to_string(path)?;
            if incremental_check {
                incremental_equivalence_check(&text, &opts)?;
            }
            let report = hetsec_analyze::analyze_text(&text, &opts)
                .map_err(|e| CliError::KeyNote(e.to_string()))?;
            Ok(if json {
                report.to_json()
            } else {
                report.to_string()
            })
        }
        "diff" => {
            let diff_usage = "hetsec diff <old.kn> <new.kn> [--format text|json] \
                              [--now <num>] [--revoked <key>]...";
            let (old_path, new_path) = match (args.get(1), args.get(2)) {
                (Some(a), Some(b)) if !a.starts_with("--") && !b.starts_with("--") => (a, b),
                _ => return Err(CliError::Usage(diff_usage.into())),
            };
            let mut opts = hetsec_analyze::AnalysisOptions {
                webcom_key: CLI_WEBCOM_KEY.to_string(),
                ..Default::default()
            };
            opts.known_attributes
                .extend(hetsec_webcom::ADAPTER_ATTRIBUTES.iter().map(|s| s.to_string()));
            let mut json = false;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                let mut value = |name: &str| {
                    rest.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage(format!("{name} needs a value; {diff_usage}")))
                };
                match flag.as_str() {
                    "--now" => {
                        let v = value("--now")?;
                        opts.now = Some(v.parse::<f64>().map_err(|_| {
                            CliError::Usage(format!("--now must be a number, got `{v}`"))
                        })?);
                    }
                    "--revoked" => {
                        opts.revoked.insert(value("--revoked")?);
                    }
                    "--format" => match value("--format")?.as_str() {
                        "json" => json = true,
                        "text" => json = false,
                        other => {
                            return Err(CliError::Usage(format!(
                                "unknown format `{other}` (use text|json)"
                            )))
                        }
                    },
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown diff flag `{other}`; {diff_usage}"
                        )))
                    }
                }
            }
            let old_text = std::fs::read_to_string(old_path)?;
            let new_text = std::fs::read_to_string(new_path)?;
            let old = parse_assertions(&old_text).map_err(|e| CliError::KeyNote(e.to_string()))?;
            let new = parse_assertions(&new_text).map_err(|e| CliError::KeyNote(e.to_string()))?;
            let diff = hetsec_analyze::diff_verdicts(&old, &new, &opts);
            Ok(if json {
                diff.report.to_json()
            } else if diff.report.is_clean() {
                "clean: no verdict changes".to_string()
            } else {
                diff.report.to_string()
            })
        }
        "migrate" => {
            let (path, from_d, to_d) = match (args.get(1), args.get(2), args.get(3)) {
                (Some(p), Some(f), Some(t)) => (p, f, t),
                _ => {
                    return Err(CliError::Usage(
                        "hetsec migrate <policy.json> <from-domain> <to-domain> [from-kind to-kind]"
                            .into(),
                    ))
                }
            };
            let from_kind = args.get(4).map(|s| parse_kind(s)).transpose()?.unwrap_or(MiddlewareKind::Ejb);
            let to_kind = args.get(5).map(|s| parse_kind(s)).transpose()?.unwrap_or(MiddlewareKind::Ejb);
            let policy = read_policy(path)?;
            let spec = MigrationSpec::domain(from_d.clone(), to_d.clone());
            let (out, renames) = transform_policy(&policy, from_kind, to_kind, &spec);
            let mut text = serde_json::to_string_pretty(&out)?;
            for (f, t, score) in renames {
                text.push_str(&format!("\n// renamed {f} -> {t} (score {score:.2})"));
            }
            Ok(text)
        }
        "spki-encode" => {
            let path = args
                .get(1)
                .ok_or_else(|| CliError::Usage("hetsec spki-encode <policy.json>".into()))?;
            let policy = read_policy(path)?;
            let spki = hetsec_spki::encode_rbac(&policy, "Kwebcom");
            let mut out = String::new();
            for entry in &spki.acl {
                out.push_str(&format!(
                    "(acl-entry (subject {}) (propagate) {})\n",
                    entry.subject, entry.tag
                ));
            }
            for cert in &spki.store.names {
                out.push_str(&format!("{}\n", cert.to_sexp()));
            }
            Ok(out)
        }
        "serve" => {
            let serve_usage =
                "hetsec serve <addr> [name] [key] [ops] [--shards N] [--pipeline P]";
            let addr = args
                .get(1)
                .ok_or_else(|| CliError::Usage(serve_usage.into()))?;
            // Positionals first, then flags in any order.
            let positional: Vec<&String> =
                args[2..].iter().take_while(|a| !a.starts_with("--")).collect();
            let name = positional.first().map(|s| s.as_str()).unwrap_or("c1");
            let key = positional.get(1).map(|s| s.as_str()).unwrap_or("Kc1");
            let ops = positional
                .get(2)
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| CliError::Usage(format!("ops must be a number, got `{s}`")))
                })
                .transpose()?;
            let mut shards = 1usize;
            let mut pipeline = 4usize;
            let mut i = 2 + positional.len();
            while i < args.len() {
                let flag = args[i].as_str();
                let value = args.get(i + 1).ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {serve_usage}"))
                })?;
                let parsed = value.parse::<usize>().map_err(|_| {
                    CliError::Usage(format!("{flag} must be a number, got `{value}`"))
                });
                match flag {
                    "--shards" => shards = parsed?,
                    "--pipeline" => pipeline = parsed?,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown serve flag `{other}`; {serve_usage}"
                        )))
                    }
                }
                i += 2;
            }
            if shards > 1 {
                sharded_serve_command(addr, name, key, shards, ops.unwrap_or(16), pipeline)
            } else {
                serve_command(addr, name, key, ops)
            }
        }
        "loadgen" => {
            let loadgen_usage = "hetsec loadgen [--principals N] [--ops N] [--shards N] \
                 [--window W] [--callers C] [--pipeline P] [--service-us U] \
                 [--zipf E] [--open RATE] [--seed S] [--json] \
                 (C: closed-loop caller threads per shard)";
            let mut cfg = hetsec_webcom::LoadConfig {
                principals: 10_000,
                ops: 500,
                shards: 2,
                service_time: std::time::Duration::from_micros(500),
                ..hetsec_webcom::LoadConfig::default()
            };
            let mut json = false;
            let mut i = 1usize;
            while i < args.len() {
                let flag = args[i].as_str();
                if flag == "--json" {
                    json = true;
                    i += 1;
                    continue;
                }
                let value = args.get(i + 1).ok_or_else(|| {
                    CliError::Usage(format!("{flag} needs a value; {loadgen_usage}"))
                })?;
                let num = || {
                    value.parse::<usize>().map_err(|_| {
                        CliError::Usage(format!("{flag} must be a number, got `{value}`"))
                    })
                };
                let float = || {
                    value.parse::<f64>().map_err(|_| {
                        CliError::Usage(format!("{flag} must be a number, got `{value}`"))
                    })
                };
                match flag {
                    "--principals" => cfg.principals = num()?.max(1),
                    "--ops" => cfg.ops = num()?,
                    "--shards" => cfg.shards = num()?.max(1),
                    "--window" => cfg.window = num()?.max(1),
                    "--callers" => cfg.callers = num()?.max(1),
                    "--pipeline" => cfg.pipeline = num()?.max(1),
                    "--service-us" => {
                        cfg.service_time = std::time::Duration::from_micros(num()? as u64)
                    }
                    "--zipf" => cfg.zipf_exponent = float()?,
                    "--open" => {
                        cfg.arrival = hetsec_webcom::Arrival::Open {
                            ops_per_sec: float()?,
                        }
                    }
                    "--seed" => cfg.seed = num()? as u64,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown loadgen flag `{other}`; {loadgen_usage}"
                        )))
                    }
                }
                i += 2;
            }
            loadgen_command(&cfg, json)
        }
        "connect" => {
            let addr = args.get(1).ok_or_else(|| {
                CliError::Usage("hetsec connect <addr> [n] [client-key]".into())
            })?;
            let n = args
                .get(2)
                .map(|s| {
                    s.parse::<usize>()
                        .map_err(|_| CliError::Usage(format!("n must be a number, got `{s}`")))
                })
                .transpose()?
                .unwrap_or(10);
            let client_key = args.get(3).map(String::as_str).unwrap_or("Kc1");
            connect_command(addr, n, client_key)
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`; {usage}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn with_fixture_file<R>(f: impl FnOnce(&str) -> R) -> R {
        let dir = std::env::temp_dir().join(format!("hetsec-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("policy.json");
        std::fs::write(&path, serde_json::to_string(&salaries_policy()).unwrap()).unwrap();
        f(path.to_str().unwrap())
    }

    #[test]
    fn example_policy_prints_json() {
        let out = run(&args(&["example-policy"])).unwrap();
        let parsed: RbacPolicy = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed, salaries_policy());
    }

    #[test]
    fn encode_emits_keynote_text() {
        with_fixture_file(|path| {
            let out = run(&args(&["encode", path])).unwrap();
            assert!(out.contains("Authorizer: POLICY"));
            assert!(out.contains("Kclaire"));
            // The output parses back.
            let assertions = parse_assertions(&out).unwrap();
            assert_eq!(assertions.len(), 6); // fig5 + 5 memberships
        })
    }

    #[test]
    fn encode_decode_roundtrip_via_files() {
        with_fixture_file(|path| {
            let encoded = run(&args(&["encode", path])).unwrap();
            let kn_path = std::path::Path::new(path).with_extension("kn");
            std::fs::write(&kn_path, &encoded).unwrap();
            let decoded = run(&args(&["decode", kn_path.to_str().unwrap()])).unwrap();
            let policy: RbacPolicy =
                serde_json::from_str(decoded.split("\n//").next().unwrap()).unwrap();
            assert_eq!(policy, salaries_policy());
        })
    }

    #[test]
    fn check_answers_queries() {
        with_fixture_file(|path| {
            let out = run(&args(&[
                "check", path, "Claire", "Sales", "Manager", "SalariesDB", "read",
            ]))
            .unwrap();
            assert!(out.starts_with("_MAX_TRUST"));
            let out = run(&args(&[
                "check", path, "Claire", "Sales", "Manager", "SalariesDB", "write",
            ]))
            .unwrap();
            assert!(out.starts_with("_MIN_TRUST"));
        })
    }

    #[test]
    fn migrate_remaps_domains_and_interprets_permissions() {
        with_fixture_file(|path| {
            let out = run(&args(&["migrate", path, "Finance", "h/s/j", "com", "ejb"])).unwrap();
            let policy: RbacPolicy =
                serde_json::from_str(out.split("\n//").next().unwrap()).unwrap();
            assert!(policy.domains().iter().any(|d| d.as_str() == "h/s/j"));
            assert!(policy.domains().iter().all(|d| d.as_str() != "Finance"));
        })
    }

    #[test]
    fn spki_encode_emits_certs() {
        with_fixture_file(|path| {
            let out = run(&args(&["spki-encode", path])).unwrap();
            assert!(out.contains("(acl-entry"));
            assert!(out.contains("(cert (issuer (name Kwebcom"));
        })
    }

    fn fixture_path(name: &str) -> String {
        format!("{}/../../fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn lint_reports_clean_store() {
        let out = run(&args(&[
            "lint",
            &fixture_path("figures_clean.kn"),
            "--rbac",
            &fixture_path("figures_clean.rbac.json"),
        ]))
        .unwrap();
        assert_eq!(out, "clean: no findings");
    }

    #[test]
    fn lint_reports_defects_in_both_formats() {
        let common = [
            "lint".to_string(),
            fixture_path("defects.kn"),
            "--rbac".to_string(),
            fixture_path("defects.rbac.json"),
            "--now".to_string(),
            "200".to_string(),
            "--revoked".to_string(),
            "Kdave".to_string(),
        ];
        let text = run(&common).unwrap();
        assert!(text.contains("error[HS005]"), "{text}");
        assert!(text.contains("warn[HS001]"), "{text}");
        let mut jargs = common.to_vec();
        jargs.extend(args(&["--format", "json"]));
        let json = run(&jargs).unwrap();
        let report: hetsec_analyze::JsonReport = serde_json::from_str(&json).unwrap();
        assert!(report.errors > 0 && report.warnings > 0);
        assert!(report.findings.iter().any(|f| f.code == "HS013"));
    }

    #[test]
    fn lint_usage_errors() {
        assert!(matches!(run(&args(&["lint"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["lint", "store.kn", "--format", "xml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["lint", "store.kn", "--now", "soon"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["lint", "store.kn", "--revoked"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["lint", "store.kn", "--bogus"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn lint_incremental_check_is_silent_on_agreement() {
        // The flag must not change the output when the incremental
        // engine agrees with the cold run -- on a defect-ridden store
        // exercising every pass, and on a clean one.
        let common = [
            "lint".to_string(),
            fixture_path("defects.kn"),
            "--rbac".to_string(),
            fixture_path("defects.rbac.json"),
            "--now".to_string(),
            "200".to_string(),
            "--revoked".to_string(),
            "Kdave".to_string(),
        ];
        let plain = run(&common).unwrap();
        let mut checked_args = common.to_vec();
        checked_args.push("--incremental-check".to_string());
        let checked = run(&checked_args).unwrap();
        assert_eq!(plain, checked);
        let out = run(&args(&[
            "lint",
            &fixture_path("figures_clean.kn"),
            "--incremental-check",
        ]))
        .unwrap();
        assert_eq!(out, "clean: no findings");
    }

    #[test]
    fn diff_reports_witnessed_verdict_flips() {
        let common = [
            "diff".to_string(),
            fixture_path("defects.kn"),
            fixture_path("defects_v2.kn"),
            "--now".to_string(),
            "200".to_string(),
            "--revoked".to_string(),
            "Kdave".to_string(),
        ];
        let text = run(&common).unwrap();
        assert!(text.contains("error[HS015]"), "{text}");
        assert!(text.contains("\"Ktrent\""), "{text}");
        assert!(text.contains("DENY -> GRANT"), "{text}");
        assert!(text.contains("warn[HS016]"), "{text}");
        let mut jargs = common.to_vec();
        jargs.extend(args(&["--format", "json"]));
        let json = run(&jargs).unwrap();
        let report: hetsec_analyze::JsonReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report.errors, 1);
        assert_eq!(report.warnings, 2);
        let golden = std::fs::read_to_string(fixture_path("semdiff.golden.json")).unwrap();
        assert_eq!(json.trim_end(), golden.trim_end());
    }

    #[test]
    fn diff_of_identical_stores_is_clean() {
        let path = fixture_path("defects.kn");
        let out = run(&args(&["diff", &path, &path, "--now", "200"])).unwrap();
        assert_eq!(out, "clean: no verdict changes");
    }

    #[test]
    fn diff_usage_errors() {
        assert!(matches!(run(&args(&["diff"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["diff", "old.kn"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["diff", "old.kn", "new.kn", "--format", "xml"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["diff", "old.kn", "new.kn", "--now", "soon"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["diff", "old.kn", "new.kn", "--bogus"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["encode"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["check", "x"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["migrate", "p", "a", "b", "nope"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["encode", "/no/such/file.json"])),
            Err(CliError::Io(_))
        ));
        assert!(matches!(run(&args(&["serve"])), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["connect"])), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&args(&["serve", "127.0.0.1:0", "c1", "Kc1", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["connect", "not-an-addr", "3"])),
            Err(CliError::Net(_))
        ));
    }

    #[test]
    fn connect_schedules_against_a_served_engine() {
        // The engine `serve` would run, behind a real TCP listener.
        let server = hetsec_webcom::serve_tcp(
            demo_client_engine("c1", "Kc1"),
            vec!["Dom".into()],
            "127.0.0.1:0",
        )
        .unwrap();
        let out = connect_command(&server.local_addr().to_string(), 5, "Kc1").unwrap();
        assert!(out.contains("scheduled 5/5"), "{out}");
        assert!(out.contains("`c1`"), "{out}");
        assert_eq!(server.served(), 5);
        server.stop();
    }

    #[test]
    fn connect_refuses_untrusted_client_key() {
        let server = hetsec_webcom::serve_tcp(
            demo_client_engine("c1", "Kc1"),
            vec!["Dom".into()],
            "127.0.0.1:0",
        )
        .unwrap();
        // The master's policy only trusts Kother, so the announced Kc1
        // client is never selected.
        let err = connect_command(&server.local_addr().to_string(), 1, "Kother").unwrap_err();
        assert!(matches!(err, CliError::Net(ref m) if m.contains("failed")), "{err:?}");
        server.stop();
    }

    #[test]
    fn connect_reports_dispatch_latency_histogram() {
        let server = hetsec_webcom::serve_tcp(
            demo_client_engine("c1", "Kc1"),
            vec!["Dom".into()],
            "127.0.0.1:0",
        )
        .unwrap();
        let out = connect_command(&server.local_addr().to_string(), 3, "Kc1").unwrap();
        assert!(out.contains("dispatch latency: p50 "), "{out}");
        assert!(out.contains("p999 "), "{out}");
        server.stop();
    }

    #[test]
    fn sharded_serve_runs_a_forwarding_fabric() {
        let out = run(&args(&[
            "serve",
            "127.0.0.1:0",
            "c",
            "Kc",
            "12",
            "--shards",
            "2",
            "--pipeline",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("shard 0:"), "{out}");
        assert!(out.contains("shard 1:"), "{out}");
        assert!(out.contains("12/12 ok"), "{out}");
        // The burst went through shard 0 only; everything shard 1 owns
        // crossed a TCP Forward link.
        let forwarded: usize = out
            .split("forwarded ")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap();
        assert!(forwarded > 0, "no cross-shard forwards: {out}");
    }

    #[test]
    fn loadgen_runs_and_reports() {
        let out = run(&args(&[
            "loadgen",
            "--principals",
            "200",
            "--ops",
            "40",
            "--shards",
            "2",
            "--service-us",
            "100",
        ]))
        .unwrap();
        assert!(out.contains("40/40 ops ok over 2 shard(s), mux transport"), "{out}");
        assert!(out.contains("dispatch latency: p50 "), "{out}");
    }

    #[test]
    fn loadgen_emits_json_reports() {
        let out = run(&args(&[
            "loadgen",
            "--principals",
            "100",
            "--ops",
            "20",
            "--shards",
            "1",
            "--service-us",
            "50",
            "--json",
        ]))
        .unwrap();
        let report: hetsec_webcom::LoadReport = serde_json::from_str(&out).unwrap();
        assert_eq!(report.completed, 20);
        assert_eq!(report.latency.count(), 20);
    }

    #[test]
    fn serve_and_loadgen_flag_usage_errors() {
        assert!(matches!(
            run(&args(&["serve", "127.0.0.1:0", "--shards", "zero?"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["serve", "127.0.0.1:0", "--shards"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["serve", "127.0.0.1:0", "--bogus", "3"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["loadgen", "--ops"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["loadgen", "--ops", "many"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&args(&["loadgen", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn serve_command_returns_once_op_quota_met() {
        // ops = 0: binds, serves nothing, exits — the fast path a smoke
        // test can use without a second process.
        let out = serve_command("127.0.0.1:0", "c9", "Kc9", Some(0)).unwrap();
        assert!(out.contains("served 0 operations"), "{out}");
    }
}
