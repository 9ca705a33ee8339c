//! Seeded request inputs.
//!
//! Every input is a fresh draw from the mnist-like mixture the models are
//! trained on (class mean plus noise), with its true class kept as the
//! label. Features are quantised to multiples of 1/8: such values are
//! exact in `f32`, print as short exact decimals, and so survive the JSON
//! round trip bit for bit, while the quantisation noise (σ ≈ 0.036) is
//! small next to the mixture's own (σ ≈ 0.245) and leaves the label
//! meaningful. Inputs are deduplicated on their fingerprint, so no two
//! requests of a run share a cache key.

use clipper_ml::datasets::{Dataset, DatasetSpec};
use rand::prelude::*;
use rand_distr::Normal;
use std::collections::HashSet;
use std::sync::Arc;

/// Features per input (28×28).
pub const DIM: usize = 784;
/// Quantisation step is `1 / SCALE`.
const SCALE: f32 = 8.0;

/// The training set plus a generator of unique, labelled serving inputs.
pub struct Corpus {
    /// Training data for the models (generated from the run's seed).
    pub dataset: Dataset,
    rng: StdRng,
    noise: Normal<f32>,
    seen: HashSet<u64>,
    /// Quantised features, `DIM` codes per input, in draw order.
    codes: Vec<i8>,
    /// True class of each input.
    labels: Vec<u8>,
    /// JSON text of every code value, indexed by `code + 128`.
    numerals: Vec<String>,
}

impl Corpus {
    /// A corpus whose training set and input stream both derive from `seed`.
    pub fn new(seed: u64) -> Corpus {
        let spec = DatasetSpec::mnist_like();
        let noise = Normal::new(0.0f32, 0.7 * spec.difficulty).expect("valid sigma");
        let dataset = spec.generate(seed);
        let numerals = (-128i32..128)
            .map(|c| format!("{}", f64::from(c) / f64::from(SCALE)))
            .collect();
        Corpus {
            dataset,
            rng: StdRng::seed_from_u64(seed ^ 0x5eed_1e55_0000_0001),
            noise,
            seen: HashSet::new(),
            codes: Vec::new(),
            labels: Vec::new(),
            numerals,
        }
    }

    /// Number of inputs drawn so far.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Draw inputs until `n` exist.
    pub fn ensure(&mut self, n: usize) {
        self.codes.reserve(n.saturating_sub(self.len()) * DIM);
        let mut row = [0i8; DIM];
        while self.len() < n {
            let y = self.rng.random_range(0..self.dataset.class_means.len());
            let mean = &self.dataset.class_means[y];
            for (c, &m) in row.iter_mut().zip(mean.iter()) {
                let v = (m + self.noise.sample(&mut self.rng)) * SCALE;
                *c = v.round().clamp(-128.0, 127.0) as i8;
            }
            if self.seen.insert(fingerprint_codes(&row)) {
                self.codes.extend_from_slice(&row);
                self.labels.push(y as u8);
            }
        }
    }

    /// True class of input `i`.
    pub fn label(&self, i: usize) -> u32 {
        u32::from(self.labels[i])
    }

    /// Input `i` as the feature vector the program receives.
    pub fn input(&self, i: usize) -> Arc<Vec<f32>> {
        Arc::new(
            self.codes[i * DIM..(i + 1) * DIM]
                .iter()
                .map(|&c| f32::from(c) / SCALE)
                .collect(),
        )
    }

    /// Fingerprint of input `i` (equal to [`fingerprint`] of its features).
    pub fn fingerprint(&self, i: usize) -> u64 {
        fingerprint_codes(&self.codes[i * DIM..(i + 1) * DIM])
    }

    /// A complete keep-alive `POST /api/v1/apps/{app}/predict` request
    /// carrying input `i`.
    pub fn http_request(&self, app: &str, i: usize) -> Vec<u8> {
        let mut body = String::with_capacity(DIM * 7 + 16);
        body.push_str("{\"input\":[");
        for (k, &c) in self.codes[i * DIM..(i + 1) * DIM].iter().enumerate() {
            if k > 0 {
                body.push(',');
            }
            body.push_str(&self.numerals[(i32::from(c) + 128) as usize]);
        }
        body.push_str("]}");
        let mut req = format!(
            "POST /api/v1/apps/{app}/predict HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body.as_bytes());
        req
    }
}

/// FNV-1a over the quantised codes.
fn fingerprint_codes(codes: &[i8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in codes {
        h ^= u64::from(c as u8);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Fingerprint of a feature vector as the program hands it to a transport;
/// matches [`Corpus::fingerprint`] for every generated input.
pub fn fingerprint(x: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in x {
        h ^= u64::from(((v * SCALE).round() as i8) as u8);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Poisson arrival offsets (ns from the start of the window) at `rate`
/// per second over `seconds`.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa441_7a15_0000_0002);
    let horizon = seconds * 1e9;
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    loop {
        let u: f64 = rng.random::<f64>();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= horizon {
            return out;
        }
        out.push(t as u64);
    }
}

/// One user context per arrival, drawn from `users` contexts.
pub fn contexts(seed: u64, users: usize, n: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de_c0de_0000_0003);
    (0..n).map(|_| rng.random_range(0..users) as u16).collect()
}
