//! Standing the serving system up and taking it down.
//!
//! Each workload runs the program as it ships: a default `ClipperBuilder`,
//! `BatchConfig` and `SchedulerPolicy`, with every model replica a real
//! container process-alike attached over a loopback socket by
//! `spawn_tcp_container` and registered through `RpcServer`. In a traced
//! run each replica's `TcpContainerHandle` is wrapped in [`Traced`], a
//! `BatchTransport` owned by the benchmark that records one span per
//! `predict_batch` call.

use crate::http::HttpConn;
use crate::inputs::{self, Corpus};
use clipper_containers::{
    fig3_profile, spawn_tcp_container, ContainerConfig, ContainerLogic, Fig3Model, ModelContainer,
    TimingModel,
};
use clipper_core::{AppConfig, BatchConfig, Clipper, HttpFrontend, ModelId, PolicyKind};
use clipper_ml::models::{
    LinearSvm, LinearSvmConfig, LogisticRegression, LogisticRegressionConfig, Model, RandomForest,
    RandomForestConfig,
};
use clipper_rpc::{BatchTransport, BoxFuture, Input, PredictReply, RpcError, RpcServer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The application every workload serves.
pub const APP: &str = "bench";
/// The app's latency SLO. The `AppConfig` default (20 ms) is within
/// reach of a host stall: on a shared virtual machine a vCPU taken away
/// for that long turns an answer into the SLO default a few times in a
/// set of runs, at random. The apps here get a deadline no stall reaches,
/// so that every default answer is the program's failure, not the
/// neighbours'; the answers slower than the default SLO are reported as a
/// tail count instead.
pub const SLO: Duration = Duration::from_secs(1);

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop HTTP, unique inputs, one logistic-regression container.
    HttpUnique,
    /// Open-loop in-process, unique inputs, a fast and a slow replica.
    OpenHetero,
    /// Open-loop in-process Exp4 ensemble of three models, with feedback.
    EnsembleFeedback,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "http_unique" => Some(Workload::HttpUnique),
            "open_hetero" => Some(Workload::OpenHetero),
            "ensemble_feedback" => Some(Workload::EnsembleFeedback),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HttpUnique => "http_unique",
            Workload::OpenHetero => "open_hetero",
            Workload::EnsembleFeedback => "ensemble_feedback",
        }
    }

    /// Candidate models of the app, in order.
    pub fn model_count(self) -> usize {
        match self {
            Workload::EnsembleFeedback => 3,
            _ => 1,
        }
    }
}

/// Nanoseconds since the benchmark's epoch (first call).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One `predict_batch` call seen by a [`Traced`] transport.
pub struct BatchSpan {
    /// Call start and reply arrival (ns, [`now_ns`]).
    pub t0: u64,
    /// Reply arrival.
    pub t1: u64,
    /// Replica index (registration order within the workload).
    pub replica: u8,
    /// Model index in the app's candidate list.
    pub model: u8,
    /// Request ids carried, `u32::MAX` for inputs outside the window.
    pub ids: Vec<u32>,
    /// Container-reported queue time.
    pub queue_us: u64,
    /// Container-reported compute time.
    pub compute_us: u64,
    /// Whether the call returned a reply.
    pub ok: bool,
}

/// Span storage shared by every traced replica.
#[derive(Default)]
pub struct Tracer {
    /// Recording switch: spans are kept only while on.
    pub on: AtomicBool,
    ids: Mutex<HashMap<u64, u32>>,
    spans: Mutex<Vec<BatchSpan>>,
}

impl Tracer {
    /// Map each input's fingerprint to its request id (before timing).
    pub fn set_ids(&self, ids: HashMap<u64, u32>) {
        *self.ids.lock().expect("tracer lock poisoned") = ids;
    }

    /// Take the recorded spans.
    pub fn take(&self) -> Vec<BatchSpan> {
        std::mem::take(&mut *self.spans.lock().expect("tracer lock poisoned"))
    }
}

/// A benchmark-owned wrapper that times each `predict_batch` call.
pub struct Traced {
    inner: Arc<dyn BatchTransport>,
    replica: u8,
    model: u8,
    tracer: Arc<Tracer>,
}

impl BatchTransport for Traced {
    fn predict_batch(&self, inputs: &[Input]) -> BoxFuture<Result<PredictReply, RpcError>> {
        if !self.tracer.on.load(Ordering::Relaxed) {
            return self.inner.predict_batch(inputs);
        }
        let t0 = now_ns();
        let ids: Vec<u32> = {
            let map = self.tracer.ids.lock().expect("tracer lock poisoned");
            inputs
                .iter()
                .map(|x| *map.get(&inputs::fingerprint(x)).unwrap_or(&u32::MAX))
                .collect()
        };
        let call = self.inner.predict_batch(inputs);
        let tracer = self.tracer.clone();
        let (replica, model) = (self.replica, self.model);
        Box::pin(async move {
            let r = call.await;
            let t1 = now_ns();
            let (queue_us, compute_us) = r.as_ref().map_or((0, 0), |p| (p.queue_us, p.compute_us));
            tracer
                .spans
                .lock()
                .expect("tracer lock poisoned")
                .push(BatchSpan {
                    t0,
                    t1,
                    replica,
                    model,
                    ids,
                    queue_us,
                    compute_us,
                    ok: r.is_ok(),
                });
            r
        })
    }

    fn id(&self) -> String {
        self.inner.id()
    }

    fn is_healthy(&self) -> bool {
        self.inner.is_healthy()
    }
}

/// One replica to launch.
struct ReplicaSpec {
    model: usize,
    name: String,
    timing: TimingModel,
}

/// A running system.
pub struct System {
    /// The serving instance.
    pub clipper: Clipper,
    /// The app's candidate models.
    pub models: Vec<ModelId>,
    /// The trained models, for checking answers offline.
    pub reference: Vec<Arc<dyn Model>>,
    /// Replica names in replica-index order (`[1]` is the slow one on
    /// `open_hetero`).
    pub replicas: Vec<String>,
    /// Queue id of each replica, in replica-index order.
    pub queue_ids: Vec<String>,
    /// Span storage when traced.
    pub tracer: Option<Arc<Tracer>>,
    /// Keep-alive connections to the frontend (`http_unique`).
    pub conns: Vec<HttpConn>,
    frontend: Option<HttpFrontend>,
    containers: Vec<tokio::task::JoinHandle<Result<(), RpcError>>>,
}

fn train(workload: Workload, corpus: &Corpus, seed: u64) -> Vec<Arc<dyn Model>> {
    let d = &corpus.dataset;
    let lr = || -> Arc<dyn Model> {
        Arc::new(LogisticRegression::train(
            d,
            &LogisticRegressionConfig::default(),
            seed,
        ))
    };
    let svm = || -> Arc<dyn Model> {
        Arc::new(LinearSvm::train(d, &LinearSvmConfig::default(), seed + 1))
    };
    match workload {
        Workload::HttpUnique => vec![lr()],
        Workload::OpenHetero => vec![svm()],
        Workload::EnsembleFeedback => vec![
            lr(),
            svm(),
            Arc::new(RandomForest::train(
                d,
                &RandomForestConfig::default(),
                seed + 2,
            )),
        ],
    }
}

fn replica_specs(workload: Workload, generation: usize) -> Vec<ReplicaSpec> {
    let measured = |model: usize, name: &str| ReplicaSpec {
        model,
        name: format!("{name}-g{generation}"),
        timing: TimingModel::Measured,
    };
    match workload {
        Workload::HttpUnique => vec![measured(0, "lr")],
        Workload::OpenHetero => {
            let profile = fig3_profile(Fig3Model::LinearSvmSklearn);
            vec![
                ReplicaSpec {
                    model: 0,
                    name: format!("svm-fast-g{generation}"),
                    timing: TimingModel::Profile(profile.clone()),
                },
                // 1 + 1.5 = 2.5× the fast replica's service time.
                ReplicaSpec {
                    model: 0,
                    name: format!("svm-slow-g{generation}"),
                    timing: TimingModel::ProfileWithOverhead(profile, 1.5),
                },
            ]
        }
        Workload::EnsembleFeedback => {
            vec![measured(0, "lr"), measured(1, "svm"), measured(2, "forest")]
        }
    }
}

fn app_config(workload: Workload, models: Vec<ModelId>, seed: u64) -> AppConfig {
    let policy = match workload {
        Workload::EnsembleFeedback => PolicyKind::Exp4 { eta: 0.2 },
        _ => PolicyKind::Static { model_index: 0 },
    };
    AppConfig::new(APP, models)
        .with_slo(SLO)
        .with_policy(policy)
        .with_seed(seed)
}

impl System {
    /// Train the models, stand the system up, and wait for the first
    /// correct answer on input `probe`. `generation` keeps container names
    /// distinct across the set-ups of one run.
    pub async fn start(
        workload: Workload,
        corpus: &Corpus,
        seed: u64,
        traced: bool,
        generation: usize,
        probe: usize,
    ) -> Result<System, String> {
        let reference = train(workload, corpus, seed);
        let clipper = Clipper::builder().build();
        let names = ["lr", "svm", "forest"];
        let models: Vec<ModelId> = (0..workload.model_count())
            .map(|m| {
                let name = match workload {
                    Workload::OpenHetero => "svm",
                    _ => names[m],
                };
                ModelId::new(name, 1)
            })
            .collect();
        for m in &models {
            clipper.add_model(m.clone(), BatchConfig::default());
        }

        let mut server = RpcServer::bind("127.0.0.1:0")
            .await
            .map_err(|e| format!("rpc bind: {e}"))?;
        let specs = replica_specs(workload, generation);
        let mut containers = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            let container = ModelContainer::new(ContainerConfig {
                name: spec.name.clone(),
                model_name: models[spec.model].name.clone(),
                model_version: 1,
                logic: ContainerLogic::Classifier(reference[spec.model].clone()),
                timing: spec.timing.clone(),
                seed: seed.wrapping_add(i as u64),
            });
            containers.push(spawn_tcp_container(server.local_addr(), container));
        }
        let tracer = traced.then(|| Arc::new(Tracer::default()));
        let mut queue_ids = vec![String::new(); specs.len()];
        for _ in 0..specs.len() {
            let (info, handle) =
                tokio::time::timeout(Duration::from_secs(30), server.next_container())
                    .await
                    .map_err(|_| "container registration timed out".to_string())?
                    .ok_or("rpc server closed")?;
            let replica = specs
                .iter()
                .position(|s| s.name == info.container_name)
                .ok_or_else(|| format!("unknown container {}", info.container_name))?;
            let model = specs[replica].model;
            let transport: Arc<dyn BatchTransport> = match &tracer {
                Some(t) => Arc::new(Traced {
                    inner: Arc::new(handle),
                    replica: replica as u8,
                    model: model as u8,
                    tracer: t.clone(),
                }),
                None => Arc::new(handle),
            };
            queue_ids[replica] = clipper
                .add_replica(&models[model], transport)
                .map_err(|e| format!("add replica: {e:?}"))?;
        }
        clipper.register_app(app_config(workload, models.clone(), seed));

        let mut sys = System {
            clipper,
            models,
            reference,
            replicas: specs.iter().map(|s| s.name.clone()).collect(),
            queue_ids,
            tracer,
            conns: Vec::new(),
            frontend: None,
            containers,
        };
        if workload == Workload::HttpUnique {
            let frontend = HttpFrontend::bind("127.0.0.1:0", sys.clipper.clone())
                .await
                .map_err(|e| format!("frontend bind: {e}"))?;
            for _ in 0..crate::nproc() {
                sys.conns.push(
                    HttpConn::connect(frontend.local_addr())
                        .await
                        .map_err(|e| format!("connect: {e}"))?,
                );
            }
            sys.frontend = Some(frontend);
        }
        sys.first_answer(workload, corpus, probe).await?;
        Ok(sys)
    }

    /// Retry `probe` until it comes back right (the end of set-up).
    async fn first_answer(
        &mut self,
        workload: Workload,
        corpus: &Corpus,
        probe: usize,
    ) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        let want = self.reference[0].predict(&corpus.input(probe));
        let request = corpus.http_request(APP, probe);
        loop {
            let ok = match workload {
                Workload::HttpUnique => {
                    let r = self.conns[0]
                        .call(&request)
                        .await
                        .map_err(|e| format!("first request: {e}"))?;
                    r.status == 200 && r.models_used == 1 && r.label == Some(want)
                }
                _ => match self
                    .clipper
                    .predict(APP, Some("u0"), corpus.input(probe))
                    .await
                {
                    Ok(p) if workload == Workload::OpenHetero => {
                        p.models_used == 1 && p.output.label() == want
                    }
                    Ok(p) => p.models_used == 3,
                    Err(_) => false,
                },
            };
            if ok {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err("no correct answer within 60 s of set-up".into());
            }
            tokio::time::sleep(Duration::from_millis(5)).await;
        }
    }

    /// Take the system down: drop the frontend and client connections,
    /// drain the replica queues, and stop the containers.
    pub async fn shutdown(self) {
        drop(self.conns);
        drop(self.frontend);
        for m in &self.models {
            self.clipper.remove_replicas(m);
        }
        for c in &self.containers {
            c.abort();
        }
        for c in self.containers {
            let _ = c.await;
        }
    }
}
