//! End-to-end serving benchmark.
//!
//! Stands the real system up in one process — `Clipper`, the HTTP
//! frontend, `RpcServer`, and model containers attached over loopback
//! sockets — drives one workload against it, checks every answer, and
//! prints the metrics, the last line as one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload http_unique --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs an
//! untraced and then a traced system and prints the per-layer split of
//! each request's time (see `trace.rs`). Workloads: `http_unique`,
//! `open_hetero`, `ensemble_feedback`.

mod drive;
mod host;
mod http;
mod inputs;
mod stats;
mod system;
mod trace;

use drive::{Outcome, Window};
use inputs::Corpus;
use stats::{median, quantile, sorted};
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::time::Instant;
use system::{System, Workload, APP};

/// Set-ups per untraced run; `setup_s` is the median of the quiet ones.
const SETUPS: usize = 5;
/// Unmeasured traffic after set-up, before the window.
const WARMUP_S: f64 = 1.0;
/// Open-loop arrival rates (per second).
const OPEN_HETERO_RPS: f64 = 3000.0;
const ENSEMBLE_RPS: f64 = 1000.0;
/// User contexts on `ensemble_feedback`.
const USERS: usize = 256;
/// The window is cut into this many equal slices (by due time in the open
/// loop, by sub-window in the closed loop). Throughput, CPU per request
/// and latency percentiles are the median of the quiet slices' figures.
/// Short slices find quiet moments inside a burst of steal.
const SLICES: usize = 60;
/// A slice (or set-up) is quiet when the hypervisor stole at most this
/// share of the CPU time the machine wanted during it.
const QUIET_STEAL: f64 = 0.03;
/// At least this many slices (set-ups) are used, the least-stolen ones
/// when fewer are quiet.
const MIN_QUIET_SLICES: usize = 6;
const MIN_QUIET_SETUPS: usize = 2;
/// Stand-in for the +∞ latency of a failed request in a percentile.
const FAILED_LATENCY_US: f64 = 1e9;
/// Inputs reserved for set-up probes, ahead of the traffic inputs.
const PROBES: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The runtime's real worker threads, counted by name.
fn runtime_workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.filter_map(Result::ok)
                .filter(|t| {
                    std::fs::read_to_string(t.path().join("comm"))
                        .is_ok_and(|c| c.starts_with("tokio-worker-"))
                })
                .count()
        })
        .unwrap_or(0)
}

/// One measured window, merged across its slices.
pub struct Around {
    /// Every request sent, in corpus order (contiguous ids).
    reqs: Vec<Request>,
    /// Measured seconds of each slice.
    slice_secs: Vec<f64>,
    /// Host steal share during each slice.
    slice_steal: Vec<f64>,
    /// Generator lateness per request (see [`drive::Window::late_us`]).
    late_us: Vec<f64>,
    /// CPU used by the system under test in each slice (µs).
    slice_cpu_us: Vec<f64>,
    cache: clipper_core::CacheStats,
    /// Per replica: (batches, items) from the queue's `batch_size`
    /// histogram.
    batches: Vec<(f64, f64)>,
    /// Corpus index one past the last input this window used.
    next: usize,
}

fn queue_batches(sys: &System) -> Vec<(f64, f64)> {
    let snap = sys.clipper.registry().snapshot();
    sys.queue_ids
        .iter()
        .map(
            |q| match snap.values.get(&format!("queue/{q}/batch_size")) {
                Some(clipper_metrics::MetricValue::Histogram { count, mean, .. }) => {
                    (*count as f64, *count as f64 * mean)
                }
                _ => (0.0, 0.0),
            },
        )
        .collect()
}

/// Point the tracer (if any) at inputs `first..first + n`.
fn trace_ids(sys: &System, corpus: &Corpus, first: usize, n: usize) {
    if let Some(t) = &sys.tracer {
        t.set_ids(
            (first..first + n)
                .map(|i| (corpus.fingerprint(i), i as u32))
                .collect(),
        );
    }
}

/// Run one window of `seconds` in `slices` equal slices, with inputs from
/// corpus index `first`. The open loop runs its slices back to back; the
/// closed loop builds each slice's request bodies before the slice starts
/// (sized from `rate`, its expected request rate), so bodies never sit in
/// memory for the whole window.
#[allow(clippy::too_many_arguments)]
fn run_window(
    w: Workload,
    sys: &mut System,
    corpus: &mut Corpus,
    seed: u64,
    first: usize,
    seconds: f64,
    slices: usize,
    rate: f64,
) -> Around {
    let cache0 = sys.clipper.abstraction().cache().stats();
    let batches0 = queue_batches(sys);
    let sampler = host::Sampler::start();
    let mut bounds = Vec::new();
    let slice_s = seconds / slices as f64;
    let mut reqs = Vec::new();
    let mut slice_secs = Vec::new();
    let mut late_us = Vec::new();
    let mut next = first;
    if w == Workload::HttpUnique {
        let mut rate = rate;
        for slice in 0..slices {
            // A slice whose bodies run out before its time is spent (the
            // rate was underestimated) goes on with a fresh batch.
            let (mut secs, mut span) = (0.0, None);
            loop {
                let n = (rate * (slice_s - secs) * 1.5) as usize + 200;
                corpus.ensure(next + n);
                let bodies: Vec<Vec<u8>> = (next..next + n)
                    .map(|i| corpus.http_request(APP, i))
                    .collect();
                trace_ids(sys, corpus, next, n);
                let win = drive::closed_loop(&mut sys.conns, &bodies, next, slice_s - secs);
                let elapsed = win.elapsed.as_secs_f64();
                rate = rate.max(win.sent as f64 / elapsed);
                reqs.extend(requests(&win, |_| slice));
                let to = win.base + win.elapsed.as_nanos() as u64;
                span = Some((span.map_or(win.base, |(from, _)| from), to));
                secs += elapsed;
                late_us.extend(win.late_us);
                next += win.sent;
                if win.sent < n || secs >= slice_s {
                    break;
                }
            }
            slice_secs.push(secs);
            bounds.push(span.expect("a slice runs at least once"));
        }
    } else {
        let rate = if w == Workload::OpenHetero {
            OPEN_HETERO_RPS
        } else {
            ENSEMBLE_RPS
        };
        let schedule = inputs::poisson_schedule(seed ^ first as u64, rate, seconds);
        let contexts = inputs::contexts(seed ^ first as u64, USERS, schedule.len());
        corpus.ensure(first + schedule.len());
        trace_ids(sys, corpus, first, schedule.len());
        let win = drive::open_loop(w, &sys.clipper, corpus, first, &schedule, &contexts);
        let slice_ns = slice_s * 1e9;
        reqs = requests(&win, |due| {
            (((due - win.base) as f64 / slice_ns) as usize).min(slices - 1)
        });
        slice_secs = vec![slice_s; slices];
        bounds = (0..slices as u64)
            .map(|i| {
                let at = |i: u64| win.base + (i as f64 * slice_ns) as u64;
                (at(i), at(i + 1))
            })
            .collect();
        late_us = win.late_us;
        next += win.sent;
    }
    let samples = sampler.finish();
    let slices_host: Vec<host::Interval> =
        bounds.iter().map(|&(a, b)| samples.between(a, b)).collect();
    let whole = samples.between(bounds[0].0, bounds[bounds.len() - 1].1);
    println!(
        "# host during window: busy {:.2} cores, steal {:.1}% of busy+steal",
        whole.busy_cores,
        100.0 * whole.steal
    );
    let c = sys.clipper.abstraction().cache().stats();
    let cache = clipper_core::CacheStats {
        hits: c.hits - cache0.hits,
        misses: c.misses - cache0.misses,
        evictions: c.evictions - cache0.evictions,
        pending_joins: c.pending_joins - cache0.pending_joins,
    };
    let batches = queue_batches(sys)
        .into_iter()
        .zip(batches0)
        .map(|((b, i), (b0, i0))| (b - b0, i - i0))
        .collect();
    Around {
        reqs,
        slice_secs,
        slice_steal: slices_host.iter().map(|h| h.steal).collect(),
        slice_cpu_us: slices_host.iter().map(|h| h.server_cpu_us).collect(),
        late_us,
        cache,
        batches,
        next,
    }
}

/// Per-request view of a finished window.
pub struct Request {
    /// Corpus index.
    pub id: usize,
    /// Which slice of the window the request belongs to.
    pub slice: usize,
    pub outcome: Outcome,
    pub due: u64,
    pub start: u64,
    pub end: u64,
    pub fb_us: Option<f64>,
    pub fb_ok: bool,
    pub server_us: f64,
    pub label: u32,
    pub used: u32,
    pub missing: u32,
}

impl Request {
    /// Client-seen latency in µs (+∞ stand-in when not answered).
    pub fn latency_us(&self) -> f64 {
        if self.outcome == Outcome::Answered {
            self.end.saturating_sub(self.due) as f64 / 1e3
        } else {
            FAILED_LATENCY_US
        }
    }
}

fn requests(w: &Window, slice_of: impl Fn(u64) -> usize) -> Vec<Request> {
    (0..w.sent)
        .map(|k| {
            let s = &w.slots[k];
            let fb_end = s.fb_end.load(Ordering::Relaxed);
            let fb_start = s.fb_start.load(Ordering::Relaxed);
            let due = s.due.load(Ordering::Relaxed);
            Request {
                id: w.first + k,
                slice: slice_of(due),
                outcome: s.outcome(),
                due,
                start: s.start.load(Ordering::Relaxed),
                end: s.end.load(Ordering::Relaxed),
                fb_us: (fb_end > 0).then(|| fb_end.saturating_sub(fb_start) as f64 / 1e3),
                fb_ok: s.fb_ok.load(Ordering::Relaxed) == 1,
                server_us: s.server_us.load(Ordering::Relaxed) as f64,
                label: s.label.load(Ordering::Relaxed),
                used: s.used.load(Ordering::Relaxed),
                missing: s.missing.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// Answer checks. Returns the number of requests that broke one, with a
/// description of the first.
fn check_answers(
    w: Workload,
    sys: &System,
    corpus: &Corpus,
    reqs: &[Request],
) -> (usize, Option<String>) {
    let mut bad = 0;
    let mut first_bad = None;
    for r in reqs {
        let problem = match r.outcome {
            Outcome::Answered | Outcome::Default if w == Workload::EnsembleFeedback => {
                if r.used + r.missing != 3 {
                    Some(format!(
                        "models_used {} + models_missing {} != 3",
                        r.used, r.missing
                    ))
                } else if !r.fb_ok {
                    Some("feedback did not return Ok".to_string())
                } else if r.label >= 10 {
                    Some(format!("label {} out of range", r.label))
                } else {
                    None
                }
            }
            Outcome::Answered => {
                let want = sys.reference[0].predict(&corpus.input(r.id));
                (r.label != want).then(|| format!("label {} != offline {}", r.label, want))
            }
            _ => None,
        };
        if let Some(p) = problem {
            bad += 1;
            first_bad.get_or_insert_with(|| format!("input {}: {p}", r.id));
        }
    }
    (bad, first_bad)
}

/// End-to-end metrics of one window.
struct EndToEnd {
    attempted: usize,
    failed: usize,
    refused: usize,
    defaults: usize,
    throughput_rps: f64,
    latency_p50_us: f64,
    latency_p99_us: f64,
    cpu_us_per_req: f64,
    accuracy: f64,
    feedback_p50_us: f64,
    feedback_p99_us: f64,
    fb_count: usize,
    /// Slowest answered request (µs), and answered requests slower than
    /// the `AppConfig` default SLO.
    max_answered_us: f64,
    over_default_slo: usize,
}

/// Per-slice `q`-quantiles of latency.
fn slice_latency(a: &Around, q: f64) -> Vec<f64> {
    let mut by_slice = vec![Vec::new(); a.slice_secs.len()];
    for r in &a.reqs {
        by_slice[r.slice].push(r.latency_us());
    }
    by_slice
        .into_iter()
        .map(|v| quantile(&sorted(v), q))
        .collect()
}

/// Indices of the quiet entries of `steal`: those at most
/// [`QUIET_STEAL`], or, when fewer than `at_least` are, the `at_least` with
/// the least steal. Figures are taken from quiet slices and set-ups so
/// that they describe the program rather than the neighbours.
fn quiet(steal: &[f64], at_least: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    let calm = idx.iter().filter(|&&i| steal[i] <= QUIET_STEAL).count();
    idx.truncate(calm.max(at_least.min(steal.len())));
    idx.sort_unstable();
    idx
}

fn end_to_end(a: &Around, corpus: &Corpus) -> EndToEnd {
    let reqs = &a.reqs;
    let answered = reqs
        .iter()
        .filter(|r| r.outcome == Outcome::Answered)
        .count();
    let returned: Vec<&Request> = reqs
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Answered | Outcome::Default))
        .collect();
    let right = returned
        .iter()
        .filter(|r| r.label == corpus.label(r.id))
        .count();
    let mut answered_in = vec![0usize; a.slice_secs.len()];
    let mut sent_in = vec![0usize; a.slice_secs.len()];
    for r in reqs {
        sent_in[r.slice] += 1;
        answered_in[r.slice] += usize::from(r.outcome == Outcome::Answered);
    }
    let cpu: Vec<f64> = a
        .slice_cpu_us
        .iter()
        .zip(&sent_in)
        .map(|(c, n)| c / (*n).max(1) as f64)
        .collect();
    let rates: Vec<f64> = answered_in
        .iter()
        .zip(&a.slice_secs)
        .map(|(n, s)| *n as f64 / s)
        .collect();
    let (p50s, p99s) = (slice_latency(a, 0.50), slice_latency(a, 0.99));
    let show = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# by slice: steal% [{}] throughput [{}] cpu_us_per_req [{}] p50 [{}] p99 [{}]",
        show(&a.slice_steal.iter().map(|x| x * 100.0).collect::<Vec<_>>()),
        show(&rates),
        show(&cpu),
        show(&p50s),
        show(&p99s)
    );
    let quiet = quiet(&a.slice_steal, MIN_QUIET_SLICES);
    let pick = |v: &[f64]| median(&quiet.iter().map(|&i| v[i]).collect::<Vec<_>>());
    println!(
        "# all slices: throughput {:.1} cpu_us_per_req {:.1} p50 {:.1} p99 {:.1}; quiet slices {:?}",
        median(&rates),
        median(&cpu),
        median(&p50s),
        median(&p99s),
        quiet
    );
    let fb = sorted(reqs.iter().filter_map(|r| r.fb_us).collect());
    let answered_us = || {
        reqs.iter()
            .filter(|r| r.outcome == Outcome::Answered)
            .map(Request::latency_us)
    };
    let default_slo_us = clipper_core::AppConfig::new(APP, Vec::new())
        .slo
        .as_secs_f64()
        * 1e6;
    EndToEnd {
        attempted: reqs.len(),
        failed: reqs.len() - answered,
        refused: reqs
            .iter()
            .filter(|r| r.outcome == Outcome::Refused)
            .count(),
        defaults: reqs
            .iter()
            .filter(|r| r.outcome == Outcome::Default)
            .count(),
        throughput_rps: pick(&rates),
        latency_p50_us: pick(&p50s),
        latency_p99_us: pick(&p99s),
        cpu_us_per_req: pick(&cpu),
        accuracy: right as f64 / returned.len().max(1) as f64,
        feedback_p50_us: quantile(&fb, 0.50),
        feedback_p99_us: quantile(&fb, 0.99),
        fb_count: fb.len(),
        max_answered_us: answered_us().fold(0.0, f64::max),
        over_default_slo: answered_us().filter(|&l| l > default_slo_us).count(),
    }
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() {
            *value
        } else {
            FAILED_LATENCY_US
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn print_properties(workload: Workload, replicas: &[String], a: &Around) {
    let (batches, items) = a
        .batches
        .iter()
        .fold((0.0, 0.0), |(b, i), (bb, ii)| (b + bb, i + ii));
    let slow = match workload {
        Workload::OpenHetero => a.batches.get(1).map_or(0.0, |(_, i)| *i) / items.max(1.0),
        _ => 0.0,
    };
    println!(
        "# input properties: cache_hit_share={:.4} (probes {}) batch_size_mean={:.3} slow_replica_share={:.4} replicas={:?}",
        a.cache.hit_rate(),
        a.cache.probes(),
        items / batches.max(1.0),
        slow,
        replicas,
    );
}

fn print_end_to_end(workload: Workload, e: &EndToEnd, bad: usize, first_bad: Option<&str>) {
    println!(
        "# requests: attempted={} failed={} (refused {}, default answers {}) failed_frac={:.5} answer_check_failures={}",
        e.attempted,
        e.failed,
        e.refused,
        e.defaults,
        e.failed as f64 / e.attempted.max(1) as f64,
        bad
    );
    if let Some(b) = first_bad {
        println!("# first failed check: {b}");
    }
    println!(
        "# tail: slowest answer {:.0} us, {} answers slower than the default SLO",
        e.max_answered_us, e.over_default_slo
    );
    println!(
        "# throughput_rps={:.1} latency_p50_us={:.1} latency_p99_us={:.1} cpu_us_per_req={:.1} accuracy={:.4}",
        e.throughput_rps, e.latency_p50_us, e.latency_p99_us, e.cpu_us_per_req, e.accuracy
    );
    if workload == Workload::EnsembleFeedback {
        println!(
            "# feedback_p50_us={:.1} feedback_p99_us={:.1} (n={})",
            e.feedback_p50_us, e.feedback_p99_us, e.fb_count
        );
    }
}

/// What one measured window yields.
struct Measured {
    around: Around,
    e2e: EndToEnd,
    /// Requests that failed an answer check.
    bad: usize,
}

/// Warm the system up, then measure one window of `seconds` whose inputs
/// start at corpus index `first`. Spans are recorded during the window
/// when the system is traced.
fn measure(
    w: Workload,
    sys: &mut System,
    corpus: &mut Corpus,
    seed: u64,
    first: usize,
    seconds: f64,
) -> Measured {
    let warm = run_window(w, sys, corpus, seed, first, WARMUP_S, 1, 4_000.0);
    let rate = warm.reqs.len() as f64 / warm.slice_secs.iter().sum::<f64>();
    if let Some(t) = &sys.tracer {
        t.on.store(true, Ordering::Relaxed);
    }
    let around = run_window(w, sys, corpus, seed, warm.next, seconds, SLICES, rate);
    if let Some(t) = &sys.tracer {
        t.on.store(false, Ordering::Relaxed);
    }
    let e2e = end_to_end(&around, corpus);
    let (bad, first_bad) = check_answers(w, sys, corpus, &around.reqs);
    print_properties(w, &sys.replicas, &around);
    print_end_to_end(w, &e2e, bad, first_bad.as_deref());
    Measured { around, e2e, bad }
}

fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut corpus = Corpus::new(args.seed);
    corpus.ensure(PROBES);
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} nproc={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );

    // Set up several times; the last system serves the window.
    let mut setup_s = Vec::new();
    let mut setup_steal = Vec::new();
    let mut sys: Option<System> = None;
    let setups = if args.trace { 1 } else { SETUPS };
    for g in 0..setups {
        if let Some(old) = sys.take() {
            tokio::runtime::block_on(old.shutdown());
        }
        let sampler = host::Sampler::start();
        let (t, t0) = (Instant::now(), system::now_ns());
        let s = tokio::runtime::block_on(System::start(w, &corpus, args.seed, false, g, g))?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup_steal.push(sampler.finish().between(t0, system::now_ns()).steal);
        sys = Some(s);
    }
    let mut sys = sys.expect("at least one set-up");
    let workers = runtime_workers();
    println!("# runtime_workers={workers} setup_s={setup_s:?} steal={setup_steal:?}");
    let test = &corpus.dataset.test;
    let offline: Vec<String> = sys
        .reference
        .iter()
        .map(|m| {
            let right = test.iter().filter(|e| m.predict(&e.x) == e.y).count();
            format!("{}={:.4}", m.name(), right as f64 / test.len() as f64)
        })
        .collect();
    println!(
        "# offline accuracy on the unquantised test split: {}",
        offline.join(" ")
    );

    // A traced run splits its time between an untraced and a traced
    // window, on two systems, so the gap between them prices the tracing.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let m = measure(w, &mut sys, &mut corpus, args.seed, PROBES, seconds);
    tokio::runtime::block_on(sys.shutdown());
    if !args.trace {
        let e = &m.e2e;
        let metrics: Vec<Metric> = vec![
            (
                "setup_s",
                median(
                    &quiet(&setup_steal, MIN_QUIET_SETUPS)
                        .iter()
                        .map(|&i| setup_s[i])
                        .collect::<Vec<_>>(),
                ),
                "s",
            ),
            ("throughput_rps", e.throughput_rps, "1/s"),
            ("latency_p50_us", e.latency_p50_us, "us"),
            (
                "answered_frac",
                1.0 - e.failed as f64 / e.attempted.max(1) as f64,
                "frac",
            ),
            ("cpu_us_per_req", e.cpu_us_per_req, "us"),
            ("accuracy", e.accuracy, "frac"),
        ];
        return Ok(json_line(m.bad == 0, e.attempted, e.failed, &metrics));
    }

    println!("# traced window:");
    let mut traced =
        tokio::runtime::block_on(System::start(w, &corpus, args.seed, true, setups, setups))?;
    let tm = measure(
        w,
        &mut traced,
        &mut corpus,
        args.seed,
        m.around.next,
        seconds,
    );
    let spans = traced.tracer.as_ref().expect("traced system").take();
    tokio::runtime::block_on(traced.shutdown());
    trace::write_spans(w, args.seed, &tm.around.reqs, &spans);
    let layers = trace::Layers::new(w, &tm.around, &spans, workers);
    let checks_ok = layers.print_checks();
    let mut metrics = layers.metrics();
    metrics.push((
        "trace.overhead_frac",
        tm.e2e.latency_p50_us / m.e2e.latency_p50_us - 1.0,
        "frac",
    ));
    for (n, v, u) in &metrics {
        println!("# {n} = {v:.4} {u}");
    }
    Ok(json_line(
        m.bad == 0 && tm.bad == 0 && checks_ok,
        tm.e2e.attempted,
        tm.e2e.failed,
        &metrics,
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
