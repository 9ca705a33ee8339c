//! CPU accounting for the slices of a window.
//!
//! A sampler thread reads, every few milliseconds, the host-wide tick
//! counters of `/proc/stat` and this process's CPU time, so each slice of
//! a window can afterwards be given the CPU the system under test used in
//! it and its steal share. On a virtual machine the hypervisor can take a
//! vCPU away ("steal"); a slice's latency then says more about the
//! neighbours than about the program.

use crate::system::now_ns;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Sampling period.
const PERIOD: Duration = Duration::from_millis(20);

#[derive(Clone, Copy)]
struct Sample {
    t: u64,
    busy: f64,
    steal: f64,
    /// CPU of the system under test so far (µs).
    server_cpu: f64,
}

/// user + sys CPU of a `/proc/.../stat` file, in µs (USER_HZ = 100).
fn cpu_us(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_default();
    let after_comm = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    // Fields 14 and 15 of stat(5); `after_comm` starts at field 3.
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) * 10_000.0
}

/// Host-wide (busy, steal) ticks from the first line of `/proc/stat`.
fn ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    let get = |i: usize| v.get(i).copied().unwrap_or(0.0);
    // user nice system idle iowait irq softirq steal
    (get(0) + get(1) + get(2) + get(5) + get(6), get(7))
}

/// `generator` is the `/proc/self/task/<tid>/stat` path of the load
/// generator's thread. The system under test's CPU is the process's minus
/// the generator's and this sampler's own.
fn sample(generator: &str) -> Sample {
    let (busy, steal) = ticks();
    let server_cpu =
        cpu_us("/proc/self/stat") - cpu_us(generator) - cpu_us("/proc/thread-self/stat");
    Sample {
        t: now_ns(),
        busy,
        steal,
        server_cpu,
    }
}

/// A running sampler.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Sample>>,
}

impl Sampler {
    /// Start sampling; the calling thread is the load generator.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let generator = std::fs::read_link("/proc/thread-self")
            .map(|p| format!("/proc/{}/stat", p.display()))
            .unwrap_or_default();
        let thread = std::thread::Builder::new()
            .name("host-sampler".into())
            .spawn(move || {
                let mut out = vec![sample(&generator)];
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    out.push(sample(&generator));
                }
                out.push(sample(&generator));
                out
            })
            .expect("spawn the host sampler");
        Sampler { stop, thread }
    }

    /// Stop sampling and return the samples.
    pub fn finish(self) -> Samples {
        self.stop.store(true, Ordering::Relaxed);
        Samples(self.thread.join().expect("host sampler panicked"))
    }
}

/// Samples taken over a window.
pub struct Samples(Vec<Sample>);

/// What the samples say about one interval.
pub struct Interval {
    /// Host cores busy on average.
    pub busy_cores: f64,
    /// Steal as a share of busy + steal ticks.
    pub steal: f64,
    /// CPU used by the system under test (µs).
    pub server_cpu_us: f64,
}

impl Samples {
    /// The interval `t0..t1` (ns on the benchmark clock), measured between
    /// the samples nearest to its ends.
    pub fn between(&self, t0: u64, t1: u64) -> Interval {
        let nearest = |t: u64| {
            self.0
                .iter()
                .min_by_key(|s| s.t.abs_diff(t))
                .copied()
                .expect("the sampler takes at least two samples")
        };
        let (a, b) = (nearest(t0), nearest(t1));
        let busy = b.busy - a.busy;
        let steal = b.steal - a.steal;
        let secs = (b.t.saturating_sub(a.t) as f64 / 1e9).max(1e-9);
        Interval {
            // USER_HZ ticks are 10 ms.
            busy_cores: busy / 100.0 / secs,
            steal: steal / (busy + steal).max(1.0),
            server_cpu_us: b.server_cpu - a.server_cpu,
        }
    }
}
