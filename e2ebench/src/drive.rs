//! The load generators.
//!
//! Both run on the calling OS thread. The open loop paces arrivals with
//! `std::thread::sleep` plus a spin — never the program's `tokio::time` —
//! hands each arrival to the serving pool with one `tokio::spawn`, and
//! times every request from its due time. The closed loop drives the
//! keep-alive HTTP connections itself with `block_on`, one future per
//! connection polled together on this thread.

use crate::http::HttpConn;
use crate::inputs::Corpus;
use crate::system::{now_ns, Workload, APP};
use clipper_core::{Clipper, Feedback, PredictError};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::Poll;
use std::time::{Duration, Instant};

/// How a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Sent but never answered.
    Pending,
    /// Answered by at least one model.
    Answered,
    /// Answered with a default because no model answered.
    Default,
    /// Refused at the door (shed).
    Refused,
    /// Any other error.
    Error,
}

/// Per-request record, written by whichever thread finishes the request.
/// Times are ns on the [`now_ns`] clock; 0 means "not reached".
#[derive(Default)]
pub struct Slot {
    /// When the request was due (open loop) or sent (closed loop).
    pub due: AtomicU64,
    /// `Clipper::predict` call start (in-process workloads).
    pub start: AtomicU64,
    /// `Clipper::predict` return, or the HTTP reply's arrival.
    pub end: AtomicU64,
    /// `Clipper::feedback` call start and return.
    pub fb_start: AtomicU64,
    /// Feedback return.
    pub fb_end: AtomicU64,
    /// The predict span as reported by the frontend (`http_unique`), in µs.
    pub server_us: AtomicU64,
    /// Encoded [`Outcome`].
    pub outcome: AtomicU32,
    /// Returned class label.
    pub label: AtomicU32,
    /// `models_used`, `models_missing`.
    pub used: AtomicU32,
    /// Missing models.
    pub missing: AtomicU32,
    /// 1 when feedback returned `Ok`, 2 when it failed.
    pub fb_ok: AtomicU32,
}

impl Slot {
    fn set_outcome(&self, o: Outcome) {
        self.outcome.store(o as u32, Ordering::Relaxed);
    }

    /// The recorded outcome.
    pub fn outcome(&self) -> Outcome {
        match self.outcome.load(Ordering::Relaxed) {
            1 => Outcome::Answered,
            2 => Outcome::Default,
            3 => Outcome::Refused,
            4 => Outcome::Error,
            _ => Outcome::Pending,
        }
    }
}

/// The result of one measured window.
pub struct Window {
    /// Records of the requests sent, in send order.
    pub slots: Arc<Vec<Slot>>,
    /// Corpus index of record 0; record `k` carries input `first + k`.
    pub first: usize,
    /// The window's start on the [`now_ns`] clock.
    pub base: u64,
    /// Requests sent.
    pub sent: usize,
    /// Wall time from the window's start until the last reply (or the
    /// drain deadline).
    pub elapsed: Duration,
    /// How late the generator was, per request (µs): send time minus due
    /// time (open loop), or the gap between a reply and the next send on
    /// the same connection (closed loop).
    pub late_us: Vec<f64>,
}

/// Longest wait for stragglers after the window's last send.
const DRAIN: Duration = Duration::from_secs(10);

fn record_predict(slot: &Slot, r: Result<clipper_core::Prediction, PredictError>) {
    match r {
        Ok(p) => {
            slot.label.store(p.output.label(), Ordering::Relaxed);
            slot.used.store(p.models_used as u32, Ordering::Relaxed);
            slot.missing
                .store(p.models_missing as u32, Ordering::Relaxed);
            slot.set_outcome(if p.models_used == 0 {
                Outcome::Default
            } else {
                Outcome::Answered
            });
        }
        Err(PredictError::Overloaded) => slot.set_outcome(Outcome::Refused),
        Err(_) => slot.set_outcome(Outcome::Error),
    }
}

/// Open loop: one arrival per entry of `schedule` (ns offsets from the
/// window's start), input `first + k` for arrival `k`, user context
/// `contexts[k]` on the ensemble workload.
pub fn open_loop(
    workload: Workload,
    clipper: &Clipper,
    corpus: &Corpus,
    first: usize,
    schedule: &[u64],
    contexts: &[u16],
) -> Window {
    let n = schedule.len();
    let slots: Arc<Vec<Slot>> = Arc::new((0..n).map(|_| Slot::default()).collect());
    let done = Arc::new(AtomicUsize::new(0));
    let mut late_us = Vec::with_capacity(n);
    let t0 = Instant::now();
    let base = now_ns();
    for (k, &off) in schedule.iter().enumerate() {
        // Everything the arrival carries is built before its due time.
        let input = corpus.input(first + k);
        let label = corpus.label(first + k);
        let context = (workload == Workload::EnsembleFeedback).then(|| format!("u{}", contexts[k]));
        let (clipper, slots, done) = (clipper.clone(), slots.clone(), done.clone());
        let due_ns = base + off;
        slots[k].due.store(due_ns, Ordering::Relaxed);
        pace_until(t0 + Duration::from_nanos(off));
        late_us.push(now_ns().saturating_sub(due_ns) as f64 / 1e3);
        tokio::spawn(async move {
            let slot = &slots[k];
            slot.start.store(now_ns(), Ordering::Relaxed);
            let r = clipper
                .predict(APP, context.as_deref(), input.clone())
                .await;
            slot.end.store(now_ns(), Ordering::Relaxed);
            let answered = r.is_ok();
            record_predict(slot, r);
            if answered && context.is_some() {
                slot.fb_start.store(now_ns(), Ordering::Relaxed);
                let f = clipper
                    .feedback(APP, context.as_deref(), input, Feedback::class(label))
                    .await;
                slot.fb_end.store(now_ns(), Ordering::Relaxed);
                slot.fb_ok
                    .store(if f.is_ok() { 1 } else { 2 }, Ordering::Relaxed);
            }
            done.fetch_add(1, Ordering::Release);
        });
    }
    let last = Instant::now();
    while done.load(Ordering::Acquire) < n && last.elapsed() < DRAIN {
        std::thread::sleep(Duration::from_millis(1));
    }
    Window {
        slots,
        first,
        base,
        sent: n,
        elapsed: t0.elapsed(),
        late_us,
    }
}

/// Sleep most of the way to `due`, then spin the rest. The spin window
/// covers the usual oversleep of a short `thread::sleep` (the kernel's
/// 50 µs timer slack) and no more, so the generator leaves the cores to
/// the system under test.
fn pace_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(60);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Closed loop over `conns`: each connection sends the next pre-built
/// request as soon as its previous reply arrives, until `seconds` pass or
/// `requests` run out. Request `k` carries corpus input `first + k`.
pub fn closed_loop(
    conns: &mut [HttpConn],
    requests: &[Vec<u8>],
    first: usize,
    seconds: f64,
) -> Window {
    let n = requests.len();
    let slots: Arc<Vec<Slot>> = Arc::new((0..n).map(|_| Slot::default()).collect());
    let next = std::cell::Cell::new(0usize);
    let late = std::cell::RefCell::new(Vec::with_capacity(n));
    let t0 = Instant::now();
    let base = now_ns();
    let end = t0 + Duration::from_secs_f64(seconds);
    let loops: Vec<Pin<Box<dyn Future<Output = ()> + '_>>> = conns
        .iter_mut()
        .map(|conn| {
            let (slots, next, late) = (&slots, &next, &late);
            Box::pin(async move {
                let mut last_reply: Option<u64> = None;
                loop {
                    let k = next.get();
                    if k >= n || Instant::now() >= end {
                        return;
                    }
                    next.set(k + 1);
                    let slot = &slots[k];
                    let sent = now_ns();
                    if let Some(r) = last_reply {
                        late.borrow_mut().push(sent.saturating_sub(r) as f64 / 1e3);
                    }
                    slot.due.store(sent, Ordering::Relaxed);
                    let reply = conn.call(&requests[k]).await;
                    let got = now_ns();
                    slot.end.store(got, Ordering::Relaxed);
                    last_reply = Some(got);
                    match reply {
                        Ok(r) if r.status == 200 => {
                            slot.label
                                .store(r.label.unwrap_or(u32::MAX), Ordering::Relaxed);
                            slot.used.store(r.models_used, Ordering::Relaxed);
                            slot.missing.store(r.models_missing, Ordering::Relaxed);
                            slot.server_us.store(r.latency_us, Ordering::Relaxed);
                            slot.set_outcome(if r.models_used == 0 {
                                Outcome::Default
                            } else {
                                Outcome::Answered
                            });
                        }
                        Ok(r) if r.status == 429 => slot.set_outcome(Outcome::Refused),
                        Ok(_) => slot.set_outcome(Outcome::Error),
                        Err(_) => {
                            // The connection is unusable: its loop stops.
                            slot.set_outcome(Outcome::Error);
                            return;
                        }
                    }
                }
            }) as Pin<Box<dyn Future<Output = ()> + '_>>
        })
        .collect();
    tokio::runtime::block_on(join_all(loops));
    let sent = next.get();
    Window {
        slots,
        first,
        base,
        sent,
        elapsed: t0.elapsed(),
        late_us: late.into_inner(),
    }
}

/// Poll every future on this thread until all have finished.
async fn join_all(mut futs: Vec<Pin<Box<dyn Future<Output = ()> + '_>>>) {
    std::future::poll_fn(move |cx| {
        futs.retain_mut(|f| f.as_mut().poll(cx).is_pending());
        if futs.is_empty() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await
}
