//! The per-layer split of the traced window.
//!
//! Spans come from outside the program only: the caller's own clock
//! around `Clipper::predict` (or, over HTTP, around the round trip, with
//! the frontend's reported `latency_us` as the predict span), and the
//! [`Traced`](crate::system::Traced) wrapper around each replica's
//! `predict_batch`. A request's spans share its corpus index, which the
//! wrapper recovers from the input's fingerprint.
//!
//! Layer definitions (all per request unless noted):
//! - `frontend.self_us`: client-seen latency minus the predict span. Over
//!   HTTP this is the frontend (parse, hops, emit, sockets); in process it
//!   is only the caller's spawn hop.
//! - `predict.us`: the `Clipper::predict` span.
//! - `batching.queue_wait_us`: predict start to the start of the last
//!   `predict_batch` call carrying the request. Over HTTP the predict start
//!   is not visible, so it is `predict.us − rpc.call_us` there (an upper
//!   bound that includes the reply path).
//! - `rpc.call_us` (per call): the `predict_batch` span; `rpc.self_us` is
//!   that minus the container-reported `queue_us` and `compute_us`.
//! - `selection.gather_us`: the reply leg, from the end of the request's
//!   last `predict_batch` call to the caller seeing the answer — the cache
//!   fill, the wake-ups, and the selection layer's gather and combine (over
//!   HTTP also the frontend's response write).

use crate::drive::Outcome;
use crate::stats::{quantile, sorted};
use crate::system::{BatchSpan, Workload};
use crate::{Around, Metric, Request};
use std::collections::HashMap;
use std::io::Write as _;

/// Largest relative gap allowed between a span sum and its parent.
const RECONSTRUCT_TOL: f64 = 0.10;

/// Per-layer figures of one traced window.
pub struct Layers {
    workload: Workload,
    frontend_self: Vec<f64>,
    predict: Vec<f64>,
    queue_wait: Vec<f64>,
    /// `rpc.call_us` of each request's last batch (for the check).
    req_call: Vec<f64>,
    /// Per request, `batching.queue_wait_us + rpc.call_us`.
    covered: Vec<f64>,
    gather: Vec<f64>,
    call: Vec<f64>,
    rpc_self: Vec<f64>,
    compute: Vec<f64>,
    container_queue: Vec<f64>,
    batch_size: Vec<f64>,
    models_used_mean: f64,
    degraded_frac: f64,
    hit_ratio: f64,
    probes_per_req: f64,
    evictions: f64,
    slow_share: f64,
    refused: f64,
    retried: f64,
    rpc_failed: f64,
    late_p99: f64,
    workers: f64,
    /// Answered requests with fewer traced models than they used.
    uncovered: usize,
    /// Requests whose last batch call does not nest inside their span.
    misnested: usize,
}

impl Layers {
    /// Split the window's requests across the layers.
    pub fn new(workload: Workload, around: &Around, spans: &[BatchSpan], workers: usize) -> Layers {
        let reqs = &around.reqs;
        let first = reqs.first().map_or(0, |r| r.id);
        // Every batch call carrying each request.
        let mut calls: HashMap<(usize, u8), u32> = HashMap::new();
        let mut by_req: HashMap<usize, Vec<&BatchSpan>> = HashMap::new();
        for s in spans {
            for &id in &s.ids {
                let Some(k) = (id as usize).checked_sub(first).filter(|k| *k < reqs.len()) else {
                    continue;
                };
                *calls.entry((k, s.model)).or_default() += 1;
                by_req.entry(k).or_default().push(s);
            }
        }
        let mut l = Layers {
            workload,
            frontend_self: Vec::new(),
            predict: Vec::new(),
            queue_wait: Vec::new(),
            req_call: Vec::new(),
            covered: Vec::new(),
            gather: Vec::new(),
            call: Vec::new(),
            rpc_self: Vec::new(),
            compute: Vec::new(),
            container_queue: Vec::new(),
            batch_size: Vec::new(),
            models_used_mean: 0.0,
            degraded_frac: 0.0,
            hit_ratio: around.cache.hit_rate(),
            probes_per_req: around.cache.probes() as f64 / reqs.len().max(1) as f64,
            evictions: around.cache.evictions as f64,
            slow_share: 0.0,
            refused: reqs
                .iter()
                .filter(|r| r.outcome == Outcome::Refused)
                .count() as f64,
            retried: calls.values().filter(|&&n| n > 1).count() as f64,
            rpc_failed: spans.iter().filter(|s| !s.ok).count() as f64,
            late_p99: quantile(&sorted(around.late_us.clone()), 0.99),
            workers: workers as f64,
            uncovered: 0,
            misnested: 0,
        };
        let over_http = workload == Workload::HttpUnique;
        let mut returned = 0usize;
        let mut used = 0usize;
        let mut degraded = 0usize;
        for (k, r) in reqs.iter().enumerate() {
            if matches!(r.outcome, Outcome::Answered | Outcome::Default) {
                returned += 1;
                used += r.used as usize;
                degraded += usize::from(r.missing > 0);
            }
            if r.outcome != Outcome::Answered {
                continue;
            }
            let traced_models = (0..3u8).filter(|m| calls.contains_key(&(k, *m))).count();
            if traced_models < r.used as usize {
                l.uncovered += 1;
            }
            let roundtrip = r.end.saturating_sub(r.due) as f64 / 1e3;
            let predict = if over_http {
                r.server_us
            } else {
                r.end.saturating_sub(r.start) as f64 / 1e3
            };
            l.predict.push(predict);
            l.frontend_self.push(roundtrip - predict);
            // The request waited for its last call that ended before it
            // returned; a degraded request's straggler may end later.
            let mine = by_req.get(&k).map_or(&[][..], Vec::as_slice);
            let Some(s) = mine.iter().filter(|s| s.t1 <= r.end).max_by_key(|s| s.t1) else {
                l.misnested += 1;
                continue;
            };
            let call = s.t1.saturating_sub(s.t0) as f64 / 1e3;
            // Spans must nest: the predict span inside the round trip, and
            // the call inside the predict span (over HTTP, where the
            // predict start is not visible: inside the round trip and no
            // longer than the reported predict span).
            let span_start = if over_http { r.due } else { r.start };
            let nested = span_start <= s.t0
                && (r.missing > 0 || mine.iter().all(|s| s.t1 <= r.end))
                && predict <= roundtrip
                && (!over_http || call <= predict + 1.0);
            l.misnested += usize::from(!nested);
            l.req_call.push(call);
            l.gather.push(r.end.saturating_sub(s.t1) as f64 / 1e3);
            let queue_wait = if over_http {
                predict - call
            } else {
                s.t0.saturating_sub(r.start) as f64 / 1e3
            };
            l.queue_wait.push(queue_wait);
            l.covered.push(queue_wait + call);
        }
        l.models_used_mean = used as f64 / returned.max(1) as f64;
        l.degraded_frac = degraded as f64 / returned.max(1) as f64;
        let mut items = 0usize;
        let mut slow_items = 0usize;
        for s in spans {
            let call = s.t1.saturating_sub(s.t0) as f64 / 1e3;
            l.call.push(call);
            l.batch_size.push(s.ids.len() as f64);
            items += s.ids.len();
            if workload == Workload::OpenHetero && s.replica == 1 {
                slow_items += s.ids.len();
            }
            if s.ok {
                l.rpc_self
                    .push(call - s.queue_us as f64 - s.compute_us as f64);
                l.compute.push(s.compute_us as f64);
                l.container_queue.push(s.queue_us as f64);
            }
        }
        l.slow_share = slow_items as f64 / items.max(1) as f64;
        for v in [
            &mut l.frontend_self,
            &mut l.predict,
            &mut l.queue_wait,
            &mut l.req_call,
            &mut l.covered,
            &mut l.gather,
            &mut l.call,
            &mut l.rpc_self,
            &mut l.compute,
            &mut l.container_queue,
            &mut l.batch_size,
        ] {
            v.sort_by(f64::total_cmp);
        }
        l
    }

    /// The per-layer metrics, named as in `BENCHMARK.json`.
    pub fn metrics(&self) -> Vec<Metric> {
        let p = |v: &[f64], q: f64| quantile(v, q);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        vec![
            ("frontend.self_us_p50", p(&self.frontend_self, 0.5), "us"),
            ("frontend.self_us_p99", p(&self.frontend_self, 0.99), "us"),
            ("predict.us_p50", p(&self.predict, 0.5), "us"),
            ("predict.us_p99", p(&self.predict, 0.99), "us"),
            ("selection.models_used_mean", self.models_used_mean, "count"),
            ("selection.degraded_frac", self.degraded_frac, "frac"),
            ("selection.gather_us_p50", p(&self.gather, 0.5), "us"),
            ("selection.gather_us_p99", p(&self.gather, 0.99), "us"),
            ("cache.hit_ratio", self.hit_ratio, "frac"),
            ("cache.probes_per_req", self.probes_per_req, "count"),
            ("cache.evictions", self.evictions, "count"),
            ("scheduler.slow_share", self.slow_share, "frac"),
            ("scheduler.refused", self.refused, "count"),
            ("batching.queue_wait_us_p50", p(&self.queue_wait, 0.5), "us"),
            (
                "batching.queue_wait_us_p99",
                p(&self.queue_wait, 0.99),
                "us",
            ),
            ("batching.batch_size_mean", mean(&self.batch_size), "count"),
            (
                "batching.batch_size_p99",
                p(&self.batch_size, 0.99),
                "count",
            ),
            ("batching.retried_items", self.retried, "count"),
            ("rpc.call_us_p50", p(&self.call, 0.5), "us"),
            ("rpc.call_us_p99", p(&self.call, 0.99), "us"),
            ("rpc.self_us_p50", p(&self.rpc_self, 0.5), "us"),
            ("rpc.self_us_p99", p(&self.rpc_self, 0.99), "us"),
            ("rpc.failed", self.rpc_failed, "count"),
            ("containers.compute_us_p50", p(&self.compute, 0.5), "us"),
            (
                "containers.queue_us_p50",
                p(&self.container_queue, 0.5),
                "us",
            ),
            ("generator.late_us_p99", self.late_p99, "us"),
            ("runtime.workers", self.workers, "count"),
        ]
    }

    /// Run the trace's self-checks, print them, and report whether all
    /// passed. A failure means a layer is missing from the trace.
    ///
    /// The reconstruction check compares the median over requests of the
    /// per-request sum with the median of the whole span, so a skewed
    /// stage is not mistaken for a missing one.
    pub fn print_checks(&self) -> bool {
        let med = |v: &[f64]| quantile(v, 0.5);
        let gap = |parts: f64, whole: f64| (parts - whole).abs() / whole.max(1e-9);
        let mut ok = true;
        let coverage = self.uncovered == 0 && !self.predict.is_empty();
        println!(
            "# check spans cover every answered request: {} ({} uncovered of {})",
            pass(coverage),
            self.uncovered,
            self.predict.len()
        );
        ok &= coverage;
        let nested = self.misnested == 0;
        println!(
            "# check each request's rpc calls nest inside its span: {} ({} not nested)",
            pass(nested),
            self.misnested
        );
        ok &= nested;
        // frontend.self_us is the round trip minus predict.us, so that sum
        // holds by construction; the nesting check above is what keeps
        // the two spans honest (predict.us inside the round trip).
        let pr = med(&self.predict);
        if self.workload != Workload::HttpUnique {
            let cv = med(&self.covered);
            let g = gap(cv, pr);
            println!(
                "# check batching.queue_wait_us + rpc.call_us = predict.us at the median: {cv:.1} vs {pr:.1} (gap {:.1}%; selection.gather_us median {:.1}): {}",
                g * 100.0,
                med(&self.gather),
                pass(g <= RECONSTRUCT_TOL)
            );
            ok &= g <= RECONSTRUCT_TOL;
        }
        ok
    }
}

fn pass(ok: bool) -> &'static str {
    if ok {
        "pass"
    } else {
        "FAIL"
    }
}

/// Write the window's spans as tab-separated lines under
/// `e2ebench/traces/`: one `req` line per request and one `batch` line per
/// `predict_batch` call, times in ns on the benchmark's clock.
pub fn write_spans(workload: Workload, seed: u64, reqs: &[Request], spans: &[BatchSpan]) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");
    let path = format!("{dir}/{}-seed{seed}.tsv", workload.name());
    let mut out = String::new();
    out.push_str("req\tid\toutcome\tdue\tstart\tend\tserver_us\tused\tmissing\n");
    for r in reqs {
        out.push_str(&format!(
            "req\t{}\t{:?}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            r.id, r.outcome, r.due, r.start, r.end, r.server_us, r.used, r.missing
        ));
    }
    out.push_str("batch\tt0\tt1\treplica\tmodel\tqueue_us\tcompute_us\tok\tids\n");
    for s in spans {
        let ids: Vec<String> = s.ids.iter().map(u32::to_string).collect();
        out.push_str(&format!(
            "batch\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            s.t0,
            s.t1,
            s.replica,
            s.model,
            s.queue_us,
            s.compute_us,
            s.ok,
            ids.join(",")
        ));
    }
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut f| f.write_all(out.as_bytes()));
    match written {
        Ok(()) => println!("# spans written to {path}"),
        Err(e) => println!("# spans not written ({path}: {e})"),
    }
}
