//! Closed-loop load harness for the sharded scheduling fabric.
//!
//! Builds a real fabric — serving clients behind TCP with pipelined
//! connection handling, one [`WebComMaster`] per shard, a
//! [`ShardRouter`] partitioning ops by principal — and drives it with a
//! synthetic workload: up to millions of distinct principals whose
//! policy assertions are compiled into ONE shared store, a
//! Zipf-distributed principal mix (a few hot principals, a long cold
//! tail, like any real tenant population), and a component executor
//! that sleeps for a configurable service time so throughput honestly
//! reflects how much concurrency the transport and dispatch layers
//! keep in flight rather than how fast the host does arithmetic.
//!
//! The interesting comparison, emitted by the `fig_load` bench into
//! `BENCH_load.json`, is 1 → 2 → 4 shards, each master reaching its
//! client over a pipelined [`MuxTransport`]: the sharding win is
//! parallel dispatch pipelines, one per shard, each with its own
//! decision cache and health model.

use crate::authz::{ScheduledAction, TrustManager};
use crate::fabric::ShardRouter;
use crate::histogram::LatencySnapshot;
use crate::master::{BurstOp, WebComMaster};
use crate::mux::MuxTransport;
use crate::net::{serve_tcp_with, ServeOptions, TcpClientServer};
use crate::protocol::{ArithComponentExecutor, ComponentExecutor, ExecError, ExecOutcome};
use crate::stack::{AuthzStack, TrustLayer};
use crate::{ClientConfig, ClientEngine, HealthConfig};
use hetsec_graphs::Value;
use hetsec_keynote::{
    Assertion, Clause, CmpOp, ConditionsProgram, Expr, LicenseeExpr, Principal, Term,
};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_rbac::User;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How ops arrive at the fabric.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Arrival {
    /// Closed loop: a fixed caller population per shard, each issuing
    /// its next op as soon as the previous one completes.
    Closed,
    /// Open loop: ops are injected at a fixed offered rate regardless
    /// of completions (tick-batched), so queueing shows up as latency.
    Open {
        /// Offered load across the whole fabric.
        ops_per_sec: f64,
    },
}

/// One load-run configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Distinct synthetic principals; each gets one compiled policy
    /// assertion in the shared client-side store.
    pub principals: usize,
    /// Total operations to drive through the fabric.
    pub ops: usize,
    /// Shard (master) count.
    pub shards: usize,
    /// Mux in-flight window per connection.
    pub window: usize,
    /// Closed-loop caller threads per shard, each scheduling one op at
    /// a time on its shard's master.
    pub callers: usize,
    /// The most threads that may handle one client connection's frames
    /// at once ([`crate::ServeOptions::pipeline`]).
    pub pipeline: usize,
    /// Synthetic component service time (the executor sleeps this
    /// long per invocation).
    pub service_time: Duration,
    /// Zipf exponent for the principal mix (higher = more skew).
    pub zipf_exponent: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Workload RNG seed.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            principals: 100_000,
            ops: 4_000,
            shards: 1,
            window: 32,
            callers: 4,
            pipeline: 8,
            service_time: Duration::from_millis(2),
            zipf_exponent: 1.1,
            arrival: Arrival::Closed,
            seed: 0x5EED_0001,
        }
    }
}

/// What one load run measured.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadReport {
    /// Shard count the fabric ran with.
    pub shards: usize,
    /// Distinct principals in the compiled store.
    pub principals: usize,
    /// Ops driven.
    pub ops: usize,
    /// Ops that completed with [`ExecOutcome::Ok`].
    pub completed: usize,
    /// Ops that were denied or failed.
    pub failed: usize,
    /// Wall-clock microseconds for the measured phase (excludes
    /// store/fabric setup; the vendored serde has no `Duration` impl).
    pub elapsed_us: u64,
    /// Completed ops per second of wall clock.
    pub throughput: f64,
    /// Merged per-dispatch latency distribution across all shards.
    pub latency: LatencySnapshot,
    /// Cross-shard forwards observed (0 when the router pre-partitions).
    pub forwarded: usize,
    /// Fleet-wide dispatch timeouts.
    pub timeouts: usize,
    /// Fleet-wide failovers.
    pub failovers: usize,
}

impl LoadReport {
    /// The measured phase as a [`Duration`].
    pub fn elapsed(&self) -> Duration {
        Duration::from_micros(self.elapsed_us)
    }
}

// ---- Deterministic workload generation (self-contained: the
// workspace has no random-number crate). ----

/// splitmix64: tiny, fast, and good enough to spread a Zipf draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf sampler over ranks `0..n`: a cumulative-weight table sampled by
/// binary search, exact for any exponent.
pub struct ZipfSampler {
    cumulative: Vec<f64>,
    total: f64,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with the given exponent.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf over an empty population");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(exponent);
            cumulative.push(total);
        }
        ZipfSampler { cumulative, total }
    }

    /// Draws a rank in `0..n` (rank 0 is the hottest).
    pub fn sample(&self, state: &mut u64) -> usize {
        // 53 uniform mantissa bits → u in [0, 1).
        let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
        let target = u * self.total;
        self.cumulative
            .partition_point(|&c| c < target)
            .min(self.cumulative.len() - 1)
    }
}

/// The synthetic principal key for rank `i`.
pub fn principal_key(i: usize) -> String {
    format!("Kp{i:07}")
}

/// One compiled policy assertion licensing `key` inside the WebCom
/// application domain — the same shape `encode_policy` emits, built
/// directly so a million-principal store skips a million text parses.
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

/// Builds the shared client-side authorisation stack: one
/// [`TrustManager`] whose compiled store licenses all `n` synthetic
/// principals. Built once and shared by every serving client.
///
/// Only a decision-cache hit costs the same at every `n`. A miss still
/// grows with the store despite the licensee index: measured on 2 vCPUs,
/// 1.8–3.8 µs at 1k principals and 124–147 µs at 100k.
pub fn synthetic_stack(n: usize) -> Arc<AuthzStack> {
    let tm = TrustManager::permissive();
    for i in 0..n {
        tm.add_policy_assertion(principal_assertion(&principal_key(i)))
            .expect("synthetic policy assertion");
    }
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(Arc::new(tm))));
    Arc::new(stack)
}

/// Wraps the arithmetic executor with a fixed synthetic service time,
/// so the fabric's throughput reflects in-flight concurrency (latency
/// hiding) rather than host arithmetic speed.
pub struct SleepingExecutor {
    service: Duration,
}

impl SleepingExecutor {
    /// An executor sleeping `service` per invocation.
    pub fn new(service: Duration) -> Self {
        SleepingExecutor { service }
    }
}

impl ComponentExecutor for SleepingExecutor {
    fn invoke(
        &self,
        user: &User,
        component: &ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        if !self.service.is_zero() {
            std::thread::sleep(self.service);
        }
        ArithComponentExecutor.invoke(user, component, args)
    }
}

fn trust_keys(keys: &[String]) -> Arc<TrustManager> {
    let tm = TrustManager::permissive();
    for k in keys {
        tm.add_policy_assertion(principal_assertion(k))
            .expect("fleet trust assertion");
    }
    Arc::new(tm)
}

/// A running load fabric: serving clients, masters, and the router.
struct Fabric {
    router: ShardRouter,
    servers: Vec<TcpClientServer>,
}

impl Fabric {
    /// Builds `cfg.shards` masters, each with one TCP serving client
    /// (pipelined connection handling) reached over a [`MuxTransport`],
    /// and wires them into a [`ShardRouter`].
    fn build(cfg: &LoadConfig, stack: &Arc<AuthzStack>) -> Fabric {
        let master_keys: Vec<String> = (0..cfg.shards).map(|s| format!("Kmaster{s}")).collect();
        let master_trust = trust_keys(&master_keys);
        let executor: Arc<dyn ComponentExecutor> =
            Arc::new(SleepingExecutor::new(cfg.service_time));
        let mut servers = Vec::with_capacity(cfg.shards);
        let mut masters = Vec::with_capacity(cfg.shards);
        for (s, master_key) in master_keys.iter().enumerate() {
            let worker_key = format!("Kw{s}");
            let engine = Arc::new(ClientEngine::new(ClientConfig {
                name: format!("w{s}"),
                key_text: worker_key.clone(),
                master_trust: Arc::clone(&master_trust),
                stack: Arc::clone(stack),
                executor: Arc::clone(&executor),
            }));
            let server = serve_tcp_with(
                engine,
                vec!["Dom".into()],
                "127.0.0.1:0",
                ServeOptions {
                    pipeline: cfg.pipeline,
                },
            )
            .expect("serve load client");
            let master = WebComMaster::new(
                master_key.clone(),
                trust_keys(std::slice::from_ref(&worker_key)),
            )
            .with_op_timeout(Duration::from_secs(10))
            .with_health_config(HealthConfig {
                max_in_flight: (cfg.window.max(cfg.callers) * 2).max(64),
                ..HealthConfig::default()
            });
            let transport = MuxTransport::new(server.local_addr()).with_window(cfg.window);
            master.register_transport(
                format!("w{s}"),
                &worker_key,
                Arc::new(transport),
                vec!["Dom".into()],
            );
            servers.push(server);
            masters.push(Arc::new(master));
        }
        Fabric {
            router: ShardRouter::local(masters),
            servers,
        }
    }

    fn teardown(self) {
        for s in self.servers {
            s.stop();
        }
    }
}

/// Generates the op mix: every op is the same cheap component under a
/// Zipf-drawn principal, so routing and authorisation — not payload
/// shape — are what varies.
fn generate_ops(cfg: &LoadConfig) -> Vec<BurstOp> {
    let zipf = ZipfSampler::new(cfg.principals, cfg.zipf_exponent);
    let mut state = cfg.seed;
    let component = ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add");
    (0..cfg.ops)
        .map(|i| {
            let rank = zipf.sample(&mut state);
            BurstOp {
                action: ScheduledAction::new(component.clone(), "Dom", "Worker"),
                user: "worker".into(),
                principal: principal_key(rank),
                args: vec![Value::Int(i as i64), Value::Int(1)],
            }
        })
        .collect()
}

/// Runs one configuration end to end and reports what it measured.
/// Setup (compiling the principal store, binding sockets) happens
/// before the clock starts.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let stack = synthetic_stack(cfg.principals);
    run_load_with_stack(cfg, &stack)
}

/// [`run_load`] against a pre-built principal store, so a sweep over
/// fabric shapes pays the store compilation once.
pub fn run_load_with_stack(cfg: &LoadConfig, stack: &Arc<AuthzStack>) -> LoadReport {
    let fabric = Fabric::build(cfg, stack);
    let ops = generate_ops(cfg);
    let total = ops.len();
    let started = Instant::now();
    let outcomes = match cfg.arrival {
        Arrival::Closed => run_closed(&fabric.router, ops, cfg.callers),
        Arrival::Open { ops_per_sec } => run_open(&fabric.router, ops, ops_per_sec),
    };
    let elapsed = started.elapsed();
    let completed = outcomes
        .iter()
        .filter(|o| matches!(o, ExecOutcome::Ok(_)))
        .count();
    let stats = fabric.router.merged_stats();
    let report = LoadReport {
        shards: cfg.shards,
        principals: cfg.principals,
        ops: total,
        completed,
        failed: total - completed,
        elapsed_us: elapsed.as_micros() as u64,
        throughput: completed as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: stats.dispatch_latency.clone(),
        forwarded: stats.forwarded,
        timeouts: stats.timeouts,
        failovers: stats.failovers,
    };
    fabric.teardown();
    report
}

/// Closed arrival: each shard's ops (split by ring owner, as the
/// router splits them) are shared by `callers` threads through one
/// cursor; each thread schedules its next op as a burst of one on the
/// shard's master as soon as its previous op completes.
fn run_closed(router: &ShardRouter, ops: Vec<BurstOp>, callers: usize) -> Vec<ExecOutcome> {
    let mut outcomes: Vec<Option<ExecOutcome>> = ops.iter().map(|_| None).collect();
    let mut shares: Vec<Vec<(usize, BurstOp)>> =
        router.masters().iter().map(|_| Vec::new()).collect();
    for (i, op) in ops.into_iter().enumerate() {
        shares[router.shard_of(&op.principal)].push((i, op));
    }
    let cursors: Vec<AtomicUsize> = shares.iter().map(|_| AtomicUsize::new(0)).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for ((master, share), cursor) in router.masters().iter().zip(&shares).zip(&cursors) {
            for _ in 0..callers {
                handles.push(scope.spawn(move || {
                    let mut done = Vec::new();
                    while let Some((i, op)) = share.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let outcome = master.schedule_burst(vec![op.clone()]).pop();
                        done.push((*i, outcome.expect("a burst of one yields one outcome")));
                    }
                    done
                }));
            }
        }
        for h in handles {
            for (i, outcome) in h.join().expect("closed-loop caller") {
                outcomes[i] = Some(outcome);
            }
        }
    });
    outcomes
        .into_iter()
        .map(|o| o.expect("every op is scheduled"))
        .collect()
}

/// Open arrival: inject tick-sized batches at the offered rate from
/// spawned threads, then join them all. Each tick's ops go out as one
/// burst, so their latency and deadline run from the tick, their
/// arrival time. Completion lag shows up as dispatch latency, not as a
/// slower injection rate.
fn run_open(router: &ShardRouter, mut ops: Vec<BurstOp>, ops_per_sec: f64) -> Vec<ExecOutcome> {
    const TICK: Duration = Duration::from_millis(20);
    let per_tick = ((ops_per_sec * TICK.as_secs_f64()).ceil() as usize).max(1);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        let t0 = Instant::now();
        let mut tick = 0u32;
        while !ops.is_empty() {
            let batch: Vec<BurstOp> = ops.drain(..per_tick.min(ops.len())).collect();
            handles.push(scope.spawn(move || router.schedule_burst(batch)));
            tick += 1;
            let next = TICK * tick;
            if let Some(wait) = next.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-arrival batch"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = ZipfSampler::new(1000, 1.1);
        let mut state = 7u64;
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            let r = zipf.sample(&mut state);
            counts[r] += 1;
        }
        // Rank 0 must dominate any deep-tail rank, and the tail must
        // still be reachable.
        assert!(counts[0] > counts[500] * 5, "head {} tail {}", counts[0], counts[500]);
        assert!(counts.iter().skip(500).sum::<usize>() > 0, "tail never sampled");
    }

    #[test]
    fn synthetic_store_licenses_its_principals() {
        let stack = synthetic_stack(50);
        let ctx = crate::stack::AuthzContext {
            user: "worker".into(),
            principal: principal_key(17),
            action: ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            presented: crate::protocol::Presented::default(),
        };
        assert!(stack.decide(&ctx).permitted);
        let stranger = crate::stack::AuthzContext {
            principal: "Kp9999999".to_string(),
            ..ctx
        };
        assert!(!stack.decide(&stranger).permitted);
    }

    #[test]
    fn tiny_closed_loop_run_completes_everything() {
        let cfg = LoadConfig {
            principals: 200,
            ops: 60,
            shards: 2,
            window: 8,
            callers: 2,
            pipeline: 4,
            service_time: Duration::from_micros(200),
            ..LoadConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.completed, 60, "report: {report:?}");
        assert_eq!(report.failed, 0);
        assert!(report.throughput > 0.0);
        assert_eq!(report.latency.count(), 60);
    }

    #[test]
    fn tiny_open_loop_run_completes_everything() {
        let cfg = LoadConfig {
            principals: 100,
            ops: 40,
            shards: 1,
            window: 8,
            callers: 2,
            pipeline: 4,
            service_time: Duration::from_micros(100),
            arrival: Arrival::Open { ops_per_sec: 2000.0 },
            ..LoadConfig::default()
        };
        let report = run_load(&cfg);
        assert_eq!(report.completed, 40, "report: {report:?}");
    }
}
