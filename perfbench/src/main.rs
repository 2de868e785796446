//! The Secure WebCom fabric benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the named workload's fabric, warms it, drives it with a closed
//! loop for `--seconds`, checks every result, and prints one JSON object
//! as the last line of stdout. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it wraps the layer traits,
//! records spans, and reports the per-layer metrics instead.

mod procfs;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use trace::{Kind, TracedOps};
use workloads::{Caller, Checked, Fabric, Workload};

/// Fabric builds per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop run before measuring, so caches fill and lazily opened
/// state settles.
const WARMUP: Duration = Duration::from_secs(1);
/// Failure messages kept for the diagnostic output.
const KEPT_FAILURES: usize = 3;
/// Length of the slices the end-to-end metrics are taken over.
pub const SLICE: Duration = Duration::from_secs(1);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=600).contains(&s) {
                    return Err(bad("expected 1 to 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Clock-tick counters read at a slice boundary.
#[derive(Clone, Copy)]
pub struct Mark {
    /// CPU this process has used.
    pub cpu: u64,
    /// CPU the hypervisor took from this machine.
    pub steal: u64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            cpu: procfs::process_cpu_ticks(),
            steal: procfs::steal_ticks(),
        }
    }
}

/// What one closed-loop phase measured.
pub struct Phase {
    /// Every request's latency, in nanoseconds.
    pub latencies: Vec<u64>,
    /// When each request ended, in nanoseconds since the phase began
    /// (aligned with `latencies`).
    pub ends: Vec<u64>,
    /// Counter readings at the start of the phase and after each whole
    /// slice of it.
    pub marks: Vec<Mark>,
    pub attempted: u64,
    pub failed: u64,
    /// The first wrong result, which stopped the phase.
    pub wrong: Option<String>,
    pub failures: Vec<String>,
    /// Context switches of every thread over the phase.
    pub ctx_switches: u64,
}

impl Phase {
    pub fn p50_us(&self) -> f64 {
        stats::quantile_us(&mut self.latencies.clone(), 0.5)
    }
}

#[derive(Default)]
struct CallerTally {
    latencies: Vec<u64>,
    ends: Vec<u64>,
    attempted: u64,
    failed: u64,
    wrong: Option<String>,
    failures: Vec<String>,
    ctx_switches: u64,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Drives `fabric` with its closed-loop callers for `length`, reading
/// the CPU counters at every [`SLICE`] boundary. Sampled
/// exchanges are replayed between a caller's requests, off the timed
/// path.
fn run_phase(
    fabric: &Fabric,
    callers: &mut [Caller],
    length: Duration,
    traced: bool,
    ops: Option<&TracedOps<'_>>,
    probe: &report::Probe,
) -> Phase {
    let abort = AtomicBool::new(false);
    let tasks_before = procfs::task_ctx_switches();
    let mut marks = vec![Mark::now()];
    let started = Instant::now();
    let deadline = started + length;
    let tallies: Vec<CallerTally> = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let abort = &abort;
                s.spawn(move || {
                    trace::mark_caller();
                    let switches_before = procfs::thread_ctx_switches();
                    let mut t = CallerTally::default();
                    while Instant::now() < deadline && !abort.load(Ordering::Relaxed) {
                        let done = fabric.request(caller, ops);
                        if traced {
                            trace::record(Kind::Request, done.index, done.start, done.end);
                        }
                        t.latencies.push(nanos(done.end - done.start));
                        t.ends
                            .push(nanos(done.end.saturating_duration_since(started)));
                        t.attempted += 1;
                        match done.checked {
                            Checked::Good => {}
                            Checked::Failed(why) => {
                                t.failed += 1;
                                if t.failures.len() < KEPT_FAILURES {
                                    t.failures.push(format!("request {}: {why}", done.index));
                                }
                            }
                            Checked::Wrong(why) => {
                                t.wrong = Some(format!("request {}: {why}", done.index));
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                        if let Some(sample) = trace::take_pending() {
                            probe.measure(sample);
                        }
                    }
                    t.ctx_switches = procfs::thread_ctx_switches() - switches_before;
                    t
                })
            })
            .collect();
        let whole_slices = (length.as_nanos() / SLICE.as_nanos()) as u32;
        'marks: for k in 1..=whole_slices {
            let at = started + SLICE * k;
            while let Some(wait) = at.checked_duration_since(Instant::now()) {
                if abort.load(Ordering::Relaxed) {
                    break 'marks;
                }
                std::thread::sleep(wait.min(Duration::from_millis(100)));
            }
            marks.push(Mark::now());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let tasks_after = procfs::task_ctx_switches();
    let mut phase = Phase {
        latencies: Vec::new(),
        ends: Vec::new(),
        marks,
        attempted: 0,
        failed: 0,
        wrong: None,
        failures: Vec::new(),
        ctx_switches: procfs::ctx_switch_delta(&tasks_before, &tasks_after),
    };
    for t in tallies {
        phase.latencies.extend(t.latencies);
        phase.ends.extend(t.ends);
        phase.attempted += t.attempted;
        phase.failed += t.failed;
        phase.wrong = phase.wrong.or(t.wrong);
        phase.failures.extend(t.failures);
        phase.ctx_switches += t.ctx_switches;
    }
    phase
}

/// Builds the fabric `SETUPS` times (once when tracing), keeping the
/// last; returns it with every set-up duration in seconds.
fn set_up(args: &Args) -> (Fabric, Vec<f64>) {
    let builds = if args.trace { 1 } else { SETUPS };
    let mut times = Vec::with_capacity(builds);
    let mut fabric = None;
    for _ in 0..builds {
        if let Some(old) = fabric.take() {
            Fabric::teardown(old);
        }
        let started = Instant::now();
        fabric = Some(Fabric::build(args.workload, args.seed, args.trace));
        times.push(started.elapsed().as_secs_f64());
    }
    (fabric.expect("at least one set-up"), times)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    eprintln!(
        "perfbench: workload {name}, seed {}, {} s, trace {}, {} callers, {} cpus",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.callers(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (fabric, setup_times) = set_up(&args);
    let mut callers: Vec<Caller> = (0..args.workload.callers())
        .map(|id| Caller::new(args.seed, id))
        .collect();
    let probe = report::Probe::default();
    let length = Duration::from_secs(args.seconds);
    let ops = TracedOps::new(fabric.master());
    let ops = (args.trace && args.workload == Workload::GraphFanout).then_some(&ops);

    let warm = run_phase(&fabric, &mut callers, WARMUP, false, ops, &probe);
    let (metrics, phases) = if args.trace {
        // Half the run untraced, half traced, on the same wrapped fabric:
        // the gap between their medians is the tracing overhead.
        let half = length / 2;
        let plain = run_phase(&fabric, &mut callers, half, false, ops, &probe);
        let before = fabric.counters();
        trace::set_enabled(true);
        let traced = run_phase(&fabric, &mut callers, half, true, ops, &probe);
        trace::set_enabled(false);
        let after = fabric.counters();
        let spans = trace::drain();
        report::write_trace(name, &spans);
        let layers = report::per_layer(report::LayerInputs {
            fabric: &fabric,
            spans: &spans,
            plain: &plain,
            traced: &traced,
            before: &before,
            after: &after,
            probe: &probe,
            graph_in_flight_max: ops.map(TracedOps::max_in_flight),
        });
        report::print_layers(&layers);
        (layers, vec![warm, plain, traced])
    } else {
        let measured = run_phase(&fabric, &mut callers, length, false, None, &probe);
        let metrics = report::end_to_end(&measured, &setup_times);
        (metrics, vec![warm, measured])
    };
    fabric.teardown();

    for p in &phases {
        for f in &p.failures {
            eprintln!("perfbench: failed {f}");
        }
    }
    let wrong = phases
        .iter()
        .find_map(|p| p.wrong.clone())
        .or_else(|| probe.mismatch());
    if let Some(why) = &wrong {
        eprintln!(
            "perfbench: WRONG RESULT on {name} with seed {}: {why}",
            args.seed
        );
    }
    let reported = phases.last().expect("a measured phase");
    println!(
        "{}",
        report::result_line(reported, &metrics, wrong.is_none())
    );
    if wrong.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
