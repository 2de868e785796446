//! Turns phases, spans and stats snapshots into the named metrics, and
//! prints them.

use crate::stats::{median_f64, quantile_f64, quantile_us, ratio};
use crate::trace::{Kind, Sample, Span, NO_REQUEST};
use crate::workloads::{Counters, Fabric, Workload};
use crate::{procfs, Phase};
use hetsec_webcom::{decode_frame, encode_frame, LayerLevel, WireRequest, WireResponse};
use std::collections::HashMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Where the traced run writes its spans, relative to the checkout.
const TRACE_DIR: &str = ".bench_build/perfbench-traces";
/// Op ids the twin engine replays under, far above any live op id.
const TWIN_OP_BASE: u64 = 1 << 62;

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Share of the machine's CPU capacity the hypervisor may steal in a
/// slice without the slice being left out of the end-to-end metrics.
const STEAL_LIMIT: f64 = 0.025;

/// Fewest requests a p99 window holds, so at least ten lie beyond its
/// 99th percentile.
const P99_WINDOW: usize = 1_000;

/// Where among a run's per-slice (or per-window) values an end-to-end
/// metric is read: this quantile of a latency or CPU cost, one minus it
/// of a rate, i.e. what the calmest tenth of the run reaches. On a
/// shared virtual machine another tenant's load can slow this process
/// by up to half for seconds at a time without any steal showing, and
/// how many such seconds fall into a run differs from run to run, so a
/// median over slices follows that share; a change to the program moves
/// every slice, calm or not.
const CALM_SHARE: f64 = 0.1;

/// One [`SLICE`](crate::SLICE) of a measured phase.
struct Slice {
    latencies: Vec<u64>,
    cpu_ticks: u64,
    steal_ticks: u64,
}

/// The end-to-end metrics of an untraced run, over the one-second slices
/// in which the hypervisor stole no more than [`STEAL_LIMIT`] of the
/// machine, or no more than in the run's median slice if that is more
/// (so at least half the slices are kept). Throughput, median latency
/// and CPU per request are taken per kept slice, and the p99 per window
/// of at least [`P99_WINDOW`] consecutive kept requests; each metric
/// then reports the value its calmest slices or windows reach
/// ([`CALM_SHARE`]).
pub fn end_to_end(measured: &Phase, setup_times: &[f64]) -> Vec<Metric> {
    let mut slices: Vec<Slice> = measured
        .marks
        .windows(2)
        .map(|w| Slice {
            latencies: Vec::new(),
            cpu_ticks: w[1].cpu - w[0].cpu,
            steal_ticks: w[1].steal - w[0].steal,
        })
        .collect();
    let slice_ns = crate::SLICE.as_nanos() as u64;
    for (&end, &latency) in measured.ends.iter().zip(&measured.latencies) {
        if let Some(slice) = slices.get_mut((end / slice_ns) as usize) {
            slice.latencies.push(latency);
        }
    }
    slices.retain(|s| !s.latencies.is_empty());
    assert!(
        !slices.is_empty(),
        "no request completed inside a whole slice"
    );
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let capacity = crate::SLICE.as_secs_f64() * (procfs::CLOCK_TICKS_PER_SEC * cpus as u64) as f64;
    let steals: Vec<u64> = slices.iter().map(|s| s.steal_ticks).collect();
    let median_steal = median_f64(&steals.iter().map(|&t| t as f64).collect::<Vec<_>>());
    let steal_cut = (STEAL_LIMIT * capacity).max(median_steal);
    slices.retain(|s| s.steal_ticks as f64 <= steal_cut);
    let tick_us = 1e6 / procfs::CLOCK_TICKS_PER_SEC as f64;
    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.latencies.len() as f64 / crate::SLICE.as_secs_f64())
        .collect();
    let cpu_per_req: Vec<f64> = slices
        .iter()
        .map(|s| s.cpu_ticks as f64 * tick_us / s.latencies.len() as f64)
        .collect();
    let p50s: Vec<f64> = slices
        .iter_mut()
        .map(|s| quantile_us(&mut s.latencies, 0.5))
        .collect();
    let windows = p99_windows(slices.iter().map(|s| s.latencies.as_slice()));
    let n: usize = windows.iter().map(Vec::len).sum();
    let p99s: Vec<f64> = windows
        .into_iter()
        .map(|mut w| quantile_us(&mut w, 0.99))
        .collect();
    eprintln!("perfbench: per-slice steal ticks {steals:?}");
    eprintln!("perfbench: kept-slice req/s {rates:.0?}");
    eprintln!("perfbench: kept-slice p50 us {p50s:.1?}");
    eprintln!("perfbench: kept-slice cpu us/req {cpu_per_req:.1?}");
    eprintln!("perfbench: p99 us per window of >= {P99_WINDOW} requests {p99s:.1?}");
    eprintln!(
        "perfbench: {n} latency samples in {} of {} slices, {} of {} requests failed, \
         set-ups {setup_times:.3?} s",
        slices.len(),
        steals.len(),
        measured.failed,
        measured.attempted,
    );
    let calm_cost = |values: &[f64]| quantile_f64(values, CALM_SHARE);
    vec![
        metric("setup_s", median_f64(setup_times), "s"),
        metric("req_per_s", quantile_f64(&rates, 1.0 - CALM_SHARE), "1/s"),
        metric("req_p50_us", calm_cost(&p50s), "us"),
        metric("req_p99_us", calm_cost(&p99s), "us"),
        metric("cpu_us_per_req", calm_cost(&cpu_per_req), "us"),
        metric("peak_rss_mb", procfs::peak_rss_kb() as f64 / 1024.0, "MB"),
    ]
}

/// Groups consecutive slices' latencies into windows of at least
/// [`P99_WINDOW`] requests; a short remainder joins the last window.
fn p99_windows<'a>(slices: impl Iterator<Item = &'a [u64]>) -> Vec<Vec<u64>> {
    let mut windows: Vec<Vec<u64>> = vec![Vec::new()];
    for latencies in slices {
        let open = windows.last_mut().expect("windows start non-empty");
        if open.len() >= P99_WINDOW {
            windows.push(latencies.to_vec());
        } else {
            open.extend_from_slice(latencies);
        }
    }
    if windows.len() > 1 && windows.last().is_some_and(|w| w.len() < P99_WINDOW) {
        let short = windows.pop().expect("checked above");
        windows.last_mut().expect("checked above").extend(short);
    }
    windows
}

/// The result object printed as the last line of stdout.
pub fn result_line(phase: &Phase, metrics: &[Metric], correct: bool) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        phase.attempted,
        phase.failed,
        body.join(", ")
    )
}

#[derive(Default)]
struct ProbeData {
    req_bytes: Vec<u64>,
    reply_bytes: Vec<u64>,
    encode_req: Vec<u64>,
    decode_req: Vec<u64>,
    encode_reply: Vec<u64>,
    decode_reply: Vec<u64>,
    handle: Vec<u64>,
    mismatch: Option<String>,
}

/// Replays sampled exchanges through the wire codec and a twin client
/// engine, collecting their sizes and costs.
#[derive(Default)]
pub struct Probe {
    data: Mutex<ProbeData>,
    replays: AtomicU64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = f();
    (
        out,
        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    )
}

impl Probe {
    /// Measures one sample. The work runs outside the lock, so callers
    /// never wait on each other here.
    pub fn measure(&self, sample: Sample) {
        crate::trace::suppressed(|| {
            let mut mismatch = None;
            let mut wire = None;
            if sample.wire {
                let request = WireRequest::Schedule(Box::new(sample.request.clone()));
                let reply = WireResponse::Reply(sample.reply.clone());
                let (req_frame, enc_req) =
                    timed(|| encode_frame(&request).expect("encode request"));
                let (req_back, dec_req) =
                    timed(|| decode_frame::<WireRequest>(&req_frame).expect("decode request"));
                let (reply_frame, enc_reply) =
                    timed(|| encode_frame(&reply).expect("encode reply"));
                let (reply_back, dec_reply) =
                    timed(|| decode_frame::<WireResponse>(&reply_frame).expect("decode reply"));
                if req_back != request || reply_back != reply {
                    mismatch = Some(format!(
                        "op {} does not survive the wire codec",
                        sample.request.op_id
                    ));
                }
                wire = Some([
                    req_frame.len() as u64,
                    reply_frame.len() as u64,
                    enc_req,
                    dec_req,
                    enc_reply,
                    dec_reply,
                ]);
            }
            // A fresh op id, so the twin's op memo cannot answer.
            let mut request = sample.request;
            request.op_id = TWIN_OP_BASE + self.replays.fetch_add(1, Ordering::Relaxed);
            let (reply, handle_ns) = timed(|| sample.twin.handle(&request));
            if reply.outcome != sample.reply.outcome {
                mismatch = Some(format!(
                    "twin client answered {:?} where the live client answered {:?}",
                    reply.outcome, sample.reply.outcome
                ));
            }
            let mut d = self.data.lock().expect("probe poisoned");
            if let Some([rb, pb, er, dr, ep, dp]) = wire {
                d.req_bytes.push(rb);
                d.reply_bytes.push(pb);
                d.encode_req.push(er);
                d.decode_req.push(dr);
                d.encode_reply.push(ep);
                d.decode_reply.push(dp);
            }
            d.handle.push(handle_ns);
            d.mismatch = d.mismatch.take().or(mismatch);
        })
    }

    /// The first disagreement a replay found, if any.
    pub fn mismatch(&self) -> Option<String> {
        self.data.lock().expect("probe poisoned").mismatch.clone()
    }
}

/// Writes the spans as CSV under [`TRACE_DIR`]; a failure to write is
/// reported, not fatal.
pub fn write_trace(workload: &str, spans: &[Span]) {
    let path = Path::new(TRACE_DIR).join(format!("{workload}.csv"));
    let result = fs::create_dir_all(TRACE_DIR).and_then(|()| {
        let mut out = BufWriter::new(fs::File::create(&path)?);
        writeln!(out, "span,thread,req,start_ns,end_ns")?;
        for s in spans {
            let req = if s.req == NO_REQUEST {
                String::new()
            } else {
                s.req.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{}",
                s.kind.name(),
                s.thread,
                req,
                s.start,
                s.end
            )?;
        }
        out.flush()
    });
    match result {
        Ok(()) => eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Self time of every request span: its duration minus the transport
/// and peer-link spans nested inside it on the same thread.
fn request_self_times(spans: &[Span]) -> Vec<u64> {
    let mut by_thread: HashMap<u32, Vec<&Span>> = HashMap::new();
    for s in spans {
        if matches!(
            s.kind,
            Kind::Request | Kind::TransportCall | Kind::PeerForward
        ) {
            by_thread.entry(s.thread).or_default().push(s);
        }
    }
    let mut out = Vec::new();
    for list in by_thread.values_mut() {
        // A request starts no later than its children: order it first.
        list.sort_by_key(|s| (s.start, s.kind != Kind::Request));
        let mut open: Option<(&Span, u64)> = None;
        for s in list.iter() {
            if s.kind == Kind::Request {
                if let Some((r, child)) = open.take() {
                    out.push(r.dur().saturating_sub(child));
                }
                open = Some((s, 0));
            } else if let Some((r, child)) = open.as_mut() {
                if s.start >= r.start && s.end <= r.end {
                    *child += s.dur();
                }
            }
        }
        if let Some((r, child)) = open {
            out.push(r.dur().saturating_sub(child));
        }
    }
    out
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub fabric: &'a Fabric,
    pub spans: &'a [Span],
    /// The untraced half of the run.
    pub plain: &'a Phase,
    /// The traced half.
    pub traced: &'a Phase,
    /// Stats snapshots around the traced half.
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub probe: &'a Probe,
    /// Most graph primitives in flight at once (`graph_fanout` only).
    pub graph_in_flight_max: Option<usize>,
}

/// The per-layer metrics, in `BENCHMARK.json` order. A layer that is
/// not on this workload's path reads 0.
pub fn per_layer(i: LayerInputs<'_>) -> Vec<Metric> {
    let workload = i.fabric.workload();
    let requests = i.traced.attempted as f64;
    let mut durations: HashMap<&'static str, Vec<u64>> = HashMap::new();
    for s in i.spans {
        durations.entry(s.kind.name()).or_default().push(s.dur());
    }
    let mut q = |kind: Kind, p: f64| quantile_us(durations.entry(kind.name()).or_default(), p);
    let count = |kind: Kind| i.spans.iter().filter(|s| s.kind == kind).count() as f64;
    let total_ns = |kind: Kind| {
        i.spans
            .iter()
            .filter(|s| s.kind == kind)
            .map(Span::dur)
            .sum::<u64>() as f64
    };

    let (b, a) = (i.before, i.after);
    let master_lookups = (a.master.cache_hits + a.master.cache_misses)
        - (b.master.cache_hits + b.master.cache_misses);
    let user_lookups =
        (a.user_cache.hits + a.user_cache.misses) - (b.user_cache.hits + b.user_cache.misses);
    let verify_lookups = (a.verify.0 + a.verify.1) - (b.verify.0 + b.verify.1);
    let stack_denied = a.client.stack_denied - b.client.stack_denied;
    let stack_decided = stack_denied
        + (a.client.executed - b.client.executed)
        + (a.client.failed - b.client.failed);

    let probe = i.probe.data.lock().expect("probe poisoned");
    let mean = |v: &[u64]| ratio(v.iter().sum::<u64>() as f64, v.len() as f64);
    let p50 = |v: &[u64]| quantile_us(&mut v.to_vec(), 0.5);
    let mut self_times = request_self_times(i.spans);
    let mut writes = i.fabric.policy_write_ns();
    let overhead = i.traced.p50_us() - i.plain.p50_us();
    eprintln!(
        "perfbench: tracing overhead {overhead:.3} us on req_p50_us ({:.3} untraced, {:.3} traced)",
        i.plain.p50_us(),
        i.traced.p50_us()
    );

    vec![
        metric(
            "master.self_p50_us",
            quantile_us(&mut self_times, 0.5),
            "us",
        ),
        metric(
            "master.authz_cache_hit_ratio",
            ratio(
                (a.master.cache_hits - b.master.cache_hits) as f64,
                master_lookups as f64,
            ),
            "ratio",
        ),
        metric("master.retries", a.master.retries as f64, "count"),
        metric("master.timeouts", a.master.timeouts as f64, "count"),
        metric("master.failovers", a.master.failovers as f64, "count"),
        metric("health.shed", a.master.shed as f64, "count"),
        metric("fabric.forward_p50_us", q(Kind::PeerForward, 0.5), "us"),
        metric("fabric.forward_p99_us", q(Kind::PeerForward, 0.99), "us"),
        metric(
            "fabric.forward_share",
            ratio(count(Kind::PeerForward), requests),
            "ratio",
        ),
        metric("transport.call_p50_us", q(Kind::TransportCall, 0.5), "us"),
        metric("transport.call_p99_us", q(Kind::TransportCall, 0.99), "us"),
        metric(
            "transport.calls_per_req",
            ratio(count(Kind::TransportCall), requests),
            "calls/req",
        ),
        metric("wire.req_bytes", mean(&probe.req_bytes), "B"),
        metric("wire.reply_bytes", mean(&probe.reply_bytes), "B"),
        metric("wire.encode_req_us", p50(&probe.encode_req), "us"),
        metric("wire.decode_req_us", p50(&probe.decode_req), "us"),
        metric("wire.encode_reply_us", p50(&probe.encode_reply), "us"),
        metric("wire.decode_reply_us", p50(&probe.decode_reply), "us"),
        metric("client.handle_p50_us", p50(&probe.handle), "us"),
        metric(
            "proc.ctx_switches_per_req",
            ratio(i.plain.ctx_switches as f64, i.plain.attempted as f64),
            "count/req",
        ),
        metric(
            "stack.l0_os_p50_us",
            q(Kind::Layer(LayerLevel::L0Os), 0.5),
            "us",
        ),
        metric(
            "stack.l1_mw_p50_us",
            q(Kind::Layer(LayerLevel::L1Middleware), 0.5),
            "us",
        ),
        metric(
            "stack.l2_trust_p50_us",
            q(Kind::Layer(LayerLevel::L2TrustManagement), 0.5),
            "us",
        ),
        metric(
            "stack.l3_app_p50_us",
            q(Kind::Layer(LayerLevel::L3Application), 0.5),
            "us",
        ),
        metric(
            "stack.deny_ratio",
            ratio(stack_denied as f64, stack_decided as f64),
            "ratio",
        ),
        metric(
            "authz.client_cache_hit_ratio",
            ratio(
                (a.user_cache.hits - b.user_cache.hits) as f64,
                user_lookups as f64,
            ),
            "ratio",
        ),
        metric(
            "authz.cache_invalidations",
            (a.user_cache.invalidations - b.user_cache.invalidations) as f64,
            "count",
        ),
        metric(
            "keynote.verify_hit_ratio",
            ratio((a.verify.0 - b.verify.0) as f64, verify_lookups as f64),
            "ratio",
        ),
        metric(
            "authz.policy_write_us",
            if workload == Workload::CredentialedStack {
                quantile_us(&mut writes, 0.5)
            } else {
                0.0
            },
            "us",
        ),
        metric("stamp.issued", a.master.stamps_issued as f64, "count"),
        metric(
            "stamp.admitted",
            (a.master.stamps_admitted + a.client.stamps.admitted) as f64,
            "count",
        ),
        metric(
            "stamp.rejected",
            (a.master.stamps_rejected + a.client.stamps.rejected) as f64,
            "count",
        ),
        metric(
            "stamp.stale",
            (a.master.stamps_stale + a.client.stamps.stale) as f64,
            "count",
        ),
        metric("exec.invoke_p50_us", q(Kind::ExecInvoke, 0.5), "us"),
        metric(
            "graphs.primitive_p50_us",
            q(Kind::GraphPrimitive, 0.5),
            "us",
        ),
        metric(
            "graphs.inflight_max",
            i.graph_in_flight_max.unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "graphs.overlap_ratio",
            ratio(total_ns(Kind::GraphPrimitive), total_ns(Kind::Request)),
            "ratio",
        ),
        metric(
            "failed_frac",
            ratio(i.traced.failed as f64, requests),
            "ratio",
        ),
        metric("trace.overhead_p50_us", overhead, "us"),
    ]
}

/// A readable table of the per-layer metrics on stderr.
pub fn print_layers(metrics: &[Metric]) {
    for m in metrics {
        eprintln!("  {:<32} {:>14.3} {}", m.name, m.value, m.unit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, thread: u32, start: u64, end: u64) -> Span {
        Span {
            kind,
            thread,
            req: NO_REQUEST,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_calls_on_the_same_thread_only() {
        let spans = [
            span(Kind::Request, 1, 100, 200),
            span(Kind::TransportCall, 1, 110, 150),
            span(Kind::PeerForward, 1, 160, 190),
            // Another thread's call inside the same interval is not a child.
            span(Kind::TransportCall, 2, 120, 180),
            // Layer spans never count as transport time.
            span(Kind::ExecInvoke, 1, 150, 155),
            span(Kind::Request, 1, 200, 260),
            span(Kind::TransportCall, 1, 200, 250),
        ];
        let mut got = request_self_times(&spans);
        got.sort_unstable();
        assert_eq!(got, vec![10, 30]);
    }

    #[test]
    fn p99_windows_hold_at_least_a_thousand_requests() {
        let slices: Vec<Vec<u64>> = [600, 600, 1_500, 300].iter().map(|&n| vec![1; n]).collect();
        let windows = p99_windows(slices.iter().map(Vec::as_slice));
        let sizes: Vec<usize> = windows.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![1_200, 1_800]);
        let few = [vec![1u64; 10]];
        assert_eq!(p99_windows(few.iter().map(Vec::as_slice)).len(), 1);
    }
}
