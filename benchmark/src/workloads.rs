//! The five end-to-end workloads, driven through the public `Backend` API
//! from one thread in a closed loop, with wall-clock timing only.
//!
//! Every output is checked while the workload runs: request outcomes
//! against what the request sequence alone predicts, deliveries against the
//! [`crate::reference`] evaluator, withdrawals against liveness. Checking
//! happens between timed operations, never inside them.

use crate::inputs::{self, Inputs, Scale};
use crate::reference::{compare, RefState};
use crate::stats::Summary;
use exacml_dsms::{StreamHandle, Tuple};
use exacml_durable::{ReplicatedConfig, ReplicatedFabric};
use exacml_plus::{
    Backend, BackendResponse, DataServer, ExacmlError, Fabric, FabricConfig, ServerConfig,
    StreamBatch, Subscription,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperRequests,
    SharedFanout,
    WideWindows,
    FabricChurn,
    ReplicatedChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::PaperRequests,
        Workload::SharedFanout,
        Workload::WideWindows,
        Workload::FabricChurn,
        Workload::ReplicatedChurn,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperRequests => "paper-requests",
            Workload::SharedFanout => "shared-fanout",
            Workload::WideWindows => "wide-windows",
            Workload::FabricChurn => "fabric-churn",
            Workload::ReplicatedChurn => "replicated-churn",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's inputs for a seed.
    #[must_use]
    pub fn inputs(self, seed: u64, scale: Scale) -> Inputs {
        let tiny = scale == Scale::Tiny;
        match self {
            Workload::PaperRequests | Workload::SharedFanout => {
                inputs::table3(seed, scale, if tiny { 4 } else { 8 })
            }
            Workload::WideWindows => inputs::wide_windows(seed, scale),
            Workload::FabricChurn | Workload::ReplicatedChurn => inputs::churn(seed, scale),
        }
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Measured wall-clock seconds (whole rounds; at least
    /// [`Params::min_samples`] latency samples).
    pub seconds: f64,
    pub scale: Scale,
    /// A directory the run may create and delete (journals).
    pub scratch: PathBuf,
}

impl Params {
    fn rss_rounds(&self) -> usize {
        if self.scale == Scale::Full {
            RSS_ROUNDS
        } else {
            1
        }
    }

    fn min_samples(&self) -> usize {
        if self.scale == Scale::Full {
            200
        } else {
            1
        }
    }

    /// Whether another set-up should be timed: at least five (one at tiny
    /// size), then more until a second of set-up time has been measured, so
    /// cheap set-ups still give a steady median.
    fn another_setup(&self, times: &[f64]) -> bool {
        match self.scale {
            Scale::Tiny => times.is_empty(),
            Scale::Full => {
                times.len() < 5 || (times.iter().sum::<f64>() < 1.0 && times.len() < 200)
            }
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    #[must_use]
    pub fn new(name: &str, unit: &str, value: f64) -> Self {
        Metric { name: name.to_string(), unit: unit.to_string(), value }
    }
}

/// The result of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The first output checks that failed.
    pub errors: Vec<String>,
    /// How many output checks failed.
    pub error_count: u64,
}

impl Report {
    /// Whether every checked output was correct.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.error_count == 0
    }

    pub(crate) fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.error_count += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    /// Count one attempted operation; a failure is counted and noted.
    pub(crate) fn attempt<T>(&mut self, result: Result<T, ExacmlError>, op: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.notes.len() < 50 {
                    self.notes.push(format!("FAILED {op}: {e}"));
                }
                None
            }
        }
    }

    fn summary(&mut self, name: &str, samples: &mut [f64]) {
        let line = Summary::of(samples)
            .map_or_else(|| format!("{name}: no samples"), |s| s.line(name, "us"));
        self.notes.push(line);
    }

    fn note_rate(&mut self, name: &str, unit: &str, count: usize, busy: Duration) {
        self.notes.push(format!(
            "{name}: {:.1} {unit} over all busy time ({count} in {:.3} s)",
            rate(count, busy),
            busy.as_secs_f64()
        ));
    }

    /// The end-to-end metrics every workload reports.
    /// `rss_mb` is the peak resident set read after a fixed amount of work
    /// ([`RSS_ROUNDS`] rounds), so it does not grow with the run's speed.
    fn finish(&mut self, setup: &[f64], latency: &mut [f64], throughput: f64, rss_mb: f64) {
        let p50 = Summary::of(latency).map_or(f64::NAN, |s| s.p50);
        self.notes.push(format!(
            "setup: {} set-ups, median {:.4} s",
            setup.len(),
            crate::stats::median(setup)
        ));
        self.metrics = vec![
            Metric::new("setup_s", "s", crate::stats::median(setup)),
            Metric::new("latency_p50_us", "us", p50),
            Metric::new("throughput_per_s", "1/s", throughput),
            Metric::new("peak_rss_mb", "MB", rss_mb),
        ];
    }
}

/// Rounds every run completes before its peak resident set is read.
pub const RSS_ROUNDS: usize = 16;

/// Peak resident set size of this process in MB (`VmHWM`), or NaN where the
/// platform does not report it.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The fixed-point reading, or the reading now when the run ended exactly
/// at the fixed point.
fn rss_or_now(rss_mb: f64) -> f64 {
    if rss_mb.is_nan() {
        peak_rss_mb()
    } else {
        rss_mb
    }
}

fn rate(count: usize, busy: Duration) -> f64 {
    count as f64 / busy.as_secs_f64().max(1e-9)
}

pub(crate) fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The backend a workload runs on.
pub(crate) enum Shape {
    Local(Arc<DataServer>),
    Fabric(Arc<Fabric>),
    Replicated(Arc<ReplicatedFabric>),
}

impl Shape {
    pub(crate) fn backend(&self) -> &dyn Backend {
        match self {
            Shape::Local(s) => s.as_ref(),
            Shape::Fabric(f) => f.as_ref(),
            Shape::Replicated(r) => r.as_ref(),
        }
    }
}

/// Which shape a streaming workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShapeKind {
    Local,
    /// A local server whose modelled links follow the paper's testbed, so
    /// modelled network time matches Fig 7.
    Testbed,
    Fabric,
    Replicated,
}

impl ShapeKind {
    /// A fresh backend of this kind; replicated stores journal under `dir`.
    ///
    /// # Errors
    /// When a replicated store cannot be created.
    pub(crate) fn build(self, seed: u64, dir: &Path) -> Result<Shape, ExacmlError> {
        Ok(match self {
            ShapeKind::Local => Shape::Local(Arc::new(DataServer::new(ServerConfig {
                seed,
                ..ServerConfig::local()
            }))),
            ShapeKind::Testbed => Shape::Local(Arc::new(DataServer::new(ServerConfig {
                seed,
                ..ServerConfig::default()
            }))),
            ShapeKind::Fabric => {
                Shape::Fabric(Arc::new(Fabric::new(FabricConfig::local(3).with_seed(seed))))
            }
            ShapeKind::Replicated => {
                let _ = std::fs::remove_dir_all(dir);
                let config = ReplicatedConfig::new(3, dir).with_replication(1).with_seed(seed);
                Shape::Replicated(Arc::new(ReplicatedFabric::create(config)?))
            }
        })
    }
}

/// One live grant with its subscription and reference state.
pub(crate) struct Live {
    pub grant: usize,
    pub handle: StreamHandle,
    pub sub: Subscription,
    pub state: RefState,
    /// When the request behind this grant started, until its first tuple.
    pub waiting_since: Option<Instant>,
}

/// Request one grant. Returns the response and the request's wall time.
pub(crate) fn request(
    backend: &dyn Backend,
    inputs: &Inputs,
    grant: usize,
) -> (Result<BackendResponse, ExacmlError>, Duration) {
    let g = &inputs.grants[grant];
    let request = g.request(inputs);
    let started = Instant::now();
    let result = backend.handle_request(&request, g.query.as_ref());
    (result, started.elapsed())
}

/// Check a fresh grant's response against the reference and subscribe.
fn attach(
    backend: &dyn Backend,
    inputs: &Inputs,
    grant: usize,
    response: &BackendResponse,
    report: &mut Report,
    waiting_since: Option<Instant>,
) -> Option<Live> {
    let g = &inputs.grants[grant];
    let schema = &inputs.streams[g.stream].1;
    let want = g.reference.output_fields(schema);
    let got: Vec<String> =
        response.response.output_schema.fields().iter().map(|f| f.name.clone()).collect();
    report.check(got == want, || {
        format!("grant {} output schema {got:?}, expected {want:?}", g.subject)
    });
    report.check(!response.response.reused, || format!("grant {} reused a live handle", g.subject));
    let sub = report.attempt(backend.subscribe(response.handle()), "subscribe")?;
    Some(Live {
        grant,
        handle: response.handle().clone(),
        sub,
        state: RefState::new(g.reference.clone(), schema),
        waiting_since,
    })
}

/// A backend with every grant live and subscribed.
pub(crate) struct Setup {
    pub shape: Shape,
    pub lives: Vec<Live>,
    /// Wall time of each grant request (µs).
    pub grant_us: Vec<f64>,
    /// Modelled network time each grant was charged (µs), never added to
    /// a measured number.
    pub modelled_us: Vec<f64>,
}

/// Build a streaming backend, load the policies from their XML form, grant
/// every request and subscribe to every handle.
pub(crate) fn stream_setup(
    kind: ShapeKind,
    inputs: &Inputs,
    policy_xml: &[String],
    seed: u64,
    dir: &Path,
    report: &mut Report,
) -> Option<Setup> {
    let shape = report.attempt(kind.build(seed, dir), "create backend")?;
    let backend = shape.backend();
    for (name, schema) in &inputs.streams {
        report.attempt(backend.register_stream(name, schema.clone()), "register stream")?;
    }
    for xml in policy_xml {
        report.attempt(backend.load_policy_xml(xml), "load policy")?;
    }
    let mut lives = Vec::with_capacity(inputs.grants.len());
    let mut grant_us = Vec::with_capacity(inputs.grants.len());
    let mut modelled_us = Vec::with_capacity(inputs.grants.len());
    for grant in 0..inputs.grants.len() {
        let (result, took) = request(backend, inputs, grant);
        let Some(response) = report.attempt(result, "grant") else { continue };
        grant_us.push(micros(took));
        modelled_us.push(micros(response.response.timing.network + response.broker_network));
        lives.extend(attach(backend, inputs, grant, &response, report, None));
    }
    Some(Setup { shape, lives, grant_us, modelled_us })
}

/// Push one frame and drain every subscription. Returns the step's wall
/// time; `delivered[i]` receives what `lives[i]` drained.
pub(crate) fn step(
    backend: &dyn Backend,
    frame: &[StreamBatch],
    lives: &mut [Live],
    delivered: &mut Vec<Vec<Tuple>>,
    report: &mut Report,
) -> Duration {
    let owned = frame.to_vec();
    delivered.clear();
    let started = Instant::now();
    let pushed = backend.push_batches(owned);
    for live in lives.iter_mut() {
        delivered.push(live.sub.drain_settled().into_iter().map(|d| d.tuple).collect());
    }
    let took = started.elapsed();
    report.attempt(pushed, "push_batches");
    took
}

/// Check one step's deliveries against the reference and settle
/// first-tuple waits (µs samples into `first_tuple`).
pub(crate) fn verify_step(
    inputs: &Inputs,
    frame: &[StreamBatch],
    lives: &mut [Live],
    delivered: &[Vec<Tuple>],
    step_end: Instant,
    first_tuple: &mut Vec<f64>,
    report: &mut Report,
) {
    let mut expected = Vec::new();
    for (live, got) in lives.iter_mut().zip(delivered) {
        expected.clear();
        let stream = inputs.grants[live.grant].stream;
        for tuple in &frame[stream].tuples {
            live.state.feed(tuple, &mut expected);
        }
        if let Err(diff) = compare(got, &expected) {
            report.check(false, || format!("grant {}: {diff}", inputs.grants[live.grant].subject));
        }
        if !got.is_empty() {
            if let Some(since) = live.waiting_since.take() {
                first_tuple.push(micros(step_end.duration_since(since)));
            }
        }
    }
}

/// Steps that fill every window before timing starts: the longest tuple
/// window (time windows span as many readings) plus two steps.
pub(crate) fn warmup_steps(inputs: &Inputs) -> usize {
    let longest = inputs
        .grants
        .iter()
        .filter_map(|g| g.reference.window.as_ref())
        .filter(|w| !w.time)
        .map(|w| w.size as usize)
        .max()
        .unwrap_or(0);
    longest.div_ceil(inputs.batch) + 2
}

/// Run one workload once.
#[must_use]
pub fn run(workload: Workload, params: &Params) -> Report {
    let mut report = Report::default();
    let _ = std::fs::remove_dir_all(&params.scratch);
    match workload {
        Workload::PaperRequests => paper_requests(params, &mut report),
        Workload::SharedFanout | Workload::WideWindows => {
            streaming(workload, ShapeKind::Local, false, params, &mut report);
        }
        Workload::FabricChurn => streaming(workload, ShapeKind::Fabric, true, params, &mut report),
        Workload::ReplicatedChurn => {
            streaming(workload, ShapeKind::Replicated, true, params, &mut report);
        }
    }
    let _ = std::fs::remove_dir_all(&params.scratch);
    report
}

/// Fig 6a/6b/7 through `Backend`: the unique and Zipf sequences over the
/// Table 3 corpus, alternating, each followed by a release sweep.
fn paper_requests(params: &Params, report: &mut Report) {
    let inputs = Workload::PaperRequests.inputs(params.seed, params.scale);
    let policy_xml: Vec<String> =
        inputs.policies.iter().map(exacml_xacml::xml::write_policy).collect();
    let requests: Vec<_> = inputs.grants.iter().map(|g| g.request(&inputs)).collect();
    let fields: Vec<Vec<String>> = inputs
        .grants
        .iter()
        .map(|g| g.reference.output_fields(&inputs.streams[g.stream].1))
        .collect();

    let mut setup_s = Vec::new();
    let mut server = None;
    while params.another_setup(&setup_s) {
        drop(server.take());
        let started = Instant::now();
        let Some(built) = report
            .attempt(ShapeKind::Testbed.build(params.seed, &params.scratch), "create backend")
        else {
            return;
        };
        for (name, schema) in &inputs.streams {
            report
                .attempt(built.backend().register_stream(name, schema.clone()), "register stream");
        }
        for xml in &policy_xml {
            report.attempt(built.backend().load_policy_xml(xml), "load policy");
        }
        setup_s.push(started.elapsed().as_secs_f64());
        server = Some(built);
    }
    let server = server.expect("at least one set-up");
    let backend = server.backend();

    let (mut grant_us, mut reuse_us, mut release_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut busy = Duration::ZERO;
    let mut requests_done = 0usize;
    let started = Instant::now();
    let (mut rounds, mut rss_mb, mut round_rates) = (0, f64::NAN, Vec::new());
    while started.elapsed().as_secs_f64() < params.seconds
        || grant_us.len() < params.min_samples()
        || rounds < params.rss_rounds()
    {
        rounds += 1;
        if rounds == params.rss_rounds() + 1 {
            rss_mb = peak_rss_mb();
        }
        let (busy_before, requests_before) = (busy, requests_done);
        for sequence in &inputs.sequences {
            let mut held: HashMap<usize, StreamHandle> = HashMap::new();
            let mut order = Vec::new();
            for &index in &sequence.indices {
                let g = index % inputs.grants.len();
                let t0 = Instant::now();
                let result = backend.handle_request(&requests[g], None);
                let took = t0.elapsed();
                busy += took;
                let Some(response) = report.attempt(result, "request") else { continue };
                requests_done += 1;
                let subject = &inputs.grants[g].subject;
                match held.get(&g) {
                    None => {
                        grant_us.push(micros(took));
                        report.check(!response.response.reused, || {
                            format!("{subject}: first request reused")
                        });
                        let got: Vec<&str> = response.response.output_schema.field_names();
                        report.check(got == fields[g], || {
                            format!("{subject}: output schema {got:?}, expected {:?}", fields[g])
                        });
                        held.insert(g, response.handle().clone());
                        order.push(g);
                    }
                    Some(handle) => {
                        reuse_us.push(micros(took));
                        report
                            .check(response.response.reused && response.handle() == handle, || {
                                format!("{subject}: repeat request was not reused")
                            });
                    }
                }
            }
            for g in order {
                let grant = &inputs.grants[g];
                let t0 = Instant::now();
                let released =
                    backend.release_access(&grant.subject, &inputs.streams[grant.stream].0);
                let took = t0.elapsed();
                busy += took;
                report.attempted += 1;
                release_us.push(micros(took));
                report.check(released, || format!("{}: release found nothing", grant.subject));
            }
            let (deployments, plans) = (backend.live_deployments(), backend.live_plans());
            report.check(deployments == 0 && plans == 0, || {
                format!("after a sweep: {deployments} deployments, {plans} plans live")
            });
        }
        round_rates.push(rate(requests_done - requests_before, busy - busy_before));
    }
    report.summary("grant_p50_us / grant_p99_us", &mut grant_us.clone());
    report.summary("reuse_p50_us", &mut reuse_us);
    report.summary("release_p50_us", &mut release_us);
    report.note_rate("requests_per_s", "1/s", requests_done, busy);
    let per_round = crate::stats::median(&round_rates);
    report
        .notes
        .push(format!("requests_per_s, median over {} rounds: {per_round:.1}", round_rates.len()));
    report.finish(&setup_s, &mut grant_us, per_round, rss_or_now(rss_mb));
}

/// Samples gathered over a streaming run.
struct Samples {
    setup_s: Vec<f64>,
    setup_grant_us: Vec<f64>,
    step_us: Vec<f64>,
    iteration_us: Vec<f64>,
    grant_us: Vec<f64>,
    release_us: Vec<f64>,
    revoke_us: Vec<f64>,
    first_us: Vec<f64>,
    busy: Duration,
    tuples: usize,
    rounds: usize,
    /// Source tuples per second of busy time, one value per round.
    round_rates: Vec<f64>,
    rss_mb: f64,
}

/// Rounds per episode on `replicated-churn`: each episode starts from a
/// fresh store, so every run journals the same history per episode.
const EPISODE_ROUNDS: usize = 30;

/// Shared fan-out, wide windows and both churn workloads: repeated
/// push-then-drain steps; the churn workloads also release and re-request
/// one stateless grant per step and revoke one stream policy per round.
///
/// `replicated-churn` runs as episodes of [`EPISODE_ROUNDS`] rounds, each on
/// a freshly created store; the others set up, then run one long episode.
fn streaming(
    workload: Workload,
    kind: ShapeKind,
    churn: bool,
    params: &Params,
    report: &mut Report,
) {
    let mut inputs = workload.inputs(params.seed, params.scale);
    let policy_xml: Vec<String> =
        inputs.policies.iter().map(exacml_xacml::xml::write_policy).collect();
    let episodic = kind == ShapeKind::Replicated;
    let mut samples = Samples {
        setup_s: Vec::new(),
        setup_grant_us: Vec::new(),
        step_us: Vec::new(),
        iteration_us: Vec::new(),
        grant_us: Vec::new(),
        release_us: Vec::new(),
        revoke_us: Vec::new(),
        first_us: Vec::new(),
        busy: Duration::ZERO,
        tuples: 0,
        rounds: 0,
        round_rates: Vec::new(),
        rss_mb: f64::NAN,
    };
    let started = Instant::now();
    let done = |samples: &Samples| {
        started.elapsed().as_secs_f64() >= params.seconds
            && samples.iteration_us.len() >= params.min_samples()
            && samples.rounds >= params.rss_rounds()
            && !params.another_setup(&samples.setup_s)
    };
    loop {
        let Some((shape, mut lives)) =
            set_up(kind, &mut inputs, &policy_xml, params, report, &mut samples, episodic)
        else {
            return;
        };
        let episode_end =
            samples.rounds.saturating_add(if episodic { EPISODE_ROUNDS } else { usize::MAX });
        measure(
            shape.backend(),
            &mut lives,
            &mut inputs,
            churn,
            params,
            report,
            &mut samples,
            &|s| s.rounds >= episode_end || done(s),
        );
        if let Shape::Replicated(fabric) = &shape {
            fabric.settle_replication();
            let lag = fabric.replication_lag();
            let health_lag = shape.backend().health().replication_lag_records;
            report.check(lag == 0 && health_lag == 0, || {
                format!("replication lag {lag} ({health_lag} in health) after settle_replication")
            });
        }
        if done(&samples) {
            break;
        }
    }

    report.summary("setup grant_p50_us (all grants at set-up)", &mut samples.setup_grant_us);
    report.summary("step_p50_us / step_p95_us (push + drain)", &mut samples.step_us);
    if churn {
        report.summary(
            "iteration_p50_us (step + release + re-request)",
            &mut samples.iteration_us.clone(),
        );
        report.summary("grant_p50_us", &mut samples.grant_us);
        report.summary("release_p50_us", &mut samples.release_us);
        report.summary("revoke_p50_us", &mut samples.revoke_us);
        report.summary("first_tuple_p50_us", &mut samples.first_us);
    }
    if episodic {
        report.notes.push(format!(
            "{} episodes of {EPISODE_ROUNDS} rounds; replication lag 0 after every settle",
            samples.setup_s.len()
        ));
    }
    report.note_rate("ingest_tuples_per_s", "tuples/s", samples.tuples, samples.busy);
    let per_round = crate::stats::median(&samples.round_rates);
    report.notes.push(format!(
        "ingest_tuples_per_s, median over {} rounds: {per_round:.1}",
        samples.round_rates.len()
    ));
    report.finish(
        &samples.setup_s,
        &mut samples.iteration_us,
        per_round,
        rss_or_now(samples.rss_mb),
    );
}

/// Set the workload up until it is in its steady state: backend, streams,
/// policies, every grant and subscription, and enough steps to fill every
/// window. Unless `once`, set-up is repeated (see [`Params::another_setup`])
/// and only the last one is kept; the kept one's fill steps are checked.
fn set_up(
    kind: ShapeKind,
    inputs: &mut Inputs,
    policy_xml: &[String],
    params: &Params,
    report: &mut Report,
    samples: &mut Samples,
    once: bool,
) -> Option<(Shape, Vec<Live>)> {
    let mut built = None;
    let mut delivered = Vec::new();
    let mut fill = Vec::new();
    loop {
        drop(built.take());
        fill.clear();
        inputs.reset_feeds(params.seed);
        let dir = params.scratch.join(format!("setup{}", samples.setup_s.len()));
        let started = Instant::now();
        let mut setup = stream_setup(kind, inputs, policy_xml, params.seed, &dir, report)?;
        for _ in 0..warmup_steps(inputs) {
            let frame = inputs.next_frame();
            let _ = step(setup.shape.backend(), &frame, &mut setup.lives, &mut delivered, report);
            fill.push((frame, std::mem::take(&mut delivered), Instant::now()));
        }
        samples.setup_s.push(started.elapsed().as_secs_f64());
        samples.setup_grant_us.extend(&setup.grant_us);
        built = Some((setup.shape, setup.lives));
        if once || !params.another_setup(&samples.setup_s) {
            break;
        }
    }
    let (shape, mut lives) = built.expect("set-up ran at least once");
    let mut discard = Vec::new();
    for (frame, delivered, step_end) in fill {
        verify_step(inputs, &frame, &mut lives, &delivered, step_end, &mut discard, report);
    }
    Some((shape, lives))
}

/// Run whole rounds on a set-up backend until `stop` holds.
#[allow(clippy::too_many_arguments)]
fn measure(
    backend: &dyn Backend,
    lives: &mut [Live],
    inputs: &mut Inputs,
    churn: bool,
    params: &Params,
    report: &mut Report,
    samples: &mut Samples,
    stop: &dyn Fn(&Samples) -> bool,
) {
    let stateless: Vec<usize> =
        (0..lives.len()).filter(|&i| inputs.grants[lives[i].grant].stateless()).collect();
    // A round is ten churn steps (the last one also revokes a policy), or
    // sixteen plain steps timed back to back and checked afterwards, so
    // checking does not disturb the caches between timed steps.
    let round = if churn { 10 } else { 16 };
    let mut delivered = Vec::new();
    let mut pending = Vec::new();
    let mut zombies: Vec<(usize, Subscription)> = Vec::new();
    let (mut next_churn, mut next_policy, mut revision) = (0usize, 0usize, 0u64);
    while !stop(samples) {
        samples.rounds += 1;
        if samples.rounds == params.rss_rounds() + 1 {
            samples.rss_mb = peak_rss_mb();
        }
        let (busy_before, tuples_before) = (samples.busy, samples.tuples);
        for it in 0..round {
            let frame = inputs.next_frame();
            let took = step(backend, &frame, lives, &mut delivered, report);
            let step_end = Instant::now();
            samples.tuples += frame.iter().map(|b| b.tuples.len()).sum::<usize>();
            samples.step_us.push(micros(took));
            if !churn {
                samples.busy += took;
                samples.iteration_us.push(micros(took));
                pending.push((frame, std::mem::take(&mut delivered), step_end));
                continue;
            }
            verify_step(inputs, &frame, lives, &delivered, step_end, &mut samples.first_us, report);
            for (grant, mut sub) in zombies.drain(..) {
                let after = sub.drain_settled().len();
                report.check(after == 0, || {
                    format!(
                        "revoked grant {} still delivered {after} tuples",
                        inputs.grants[grant].subject
                    )
                });
            }

            // Release and re-request one stateless grant.
            let mut iteration = took;
            if !stateless.is_empty() {
                let i = stateless[next_churn % stateless.len()];
                next_churn += 1;
                let g = &inputs.grants[lives[i].grant];
                let stream = &inputs.streams[g.stream].0;
                let t0 = Instant::now();
                let released = backend.release_access(&g.subject, stream);
                let release = t0.elapsed();
                report.attempted += 1;
                samples.release_us.push(micros(release));
                report.check(released && !backend.handle_is_live(&lives[i].handle), || {
                    format!("{}: release left the handle live", g.subject)
                });
                let (result, grant_took) = request(backend, inputs, lives[i].grant);
                let t1 = Instant::now();
                if let Some(response) = report.attempt(result, "re-request") {
                    samples.grant_us.push(micros(grant_took));
                    if let Some(live) = attach(
                        backend,
                        inputs,
                        lives[i].grant,
                        &response,
                        report,
                        Some(t0 + release),
                    ) {
                        lives[i] = live;
                    }
                }
                iteration += release + grant_took + t1.elapsed();
            }
            samples.busy += iteration;
            samples.iteration_us.push(micros(iteration));

            if it + 1 == round {
                // Revoke: update one stream policy, which withdraws every
                // grant riding it; then re-grant them all.
                let policy = next_policy % inputs.policies.len();
                next_policy += 1;
                revision += 1;
                let riding: Vec<usize> = (0..lives.len())
                    .filter(|&i| inputs.grants[lives[i].grant].policy == policy)
                    .collect();
                let update = inputs::revised(&inputs.policies[policy], revision);
                let t0 = Instant::now();
                let result = backend.update_policy(update);
                let revoke = t0.elapsed();
                samples.busy += revoke;
                samples.revoke_us.push(micros(revoke));
                if let Some(withdrawn) = report.attempt(result, "update_policy") {
                    report.check(withdrawn == riding.len(), || {
                        format!(
                            "policy update withdrew {withdrawn} grants, {} ride it",
                            riding.len()
                        )
                    });
                }
                for &i in &riding {
                    let grant = lives[i].grant;
                    report.check(!backend.handle_is_live(&lives[i].handle), || {
                        format!(
                            "{}: handle live after its policy was revoked",
                            inputs.grants[grant].subject
                        )
                    });
                    let (result, took) = request(backend, inputs, grant);
                    samples.busy += took;
                    let Some(response) = report.attempt(result, "re-grant") else { continue };
                    samples.grant_us.push(micros(took));
                    let t1 = Instant::now();
                    if let Some(live) =
                        attach(backend, inputs, grant, &response, report, Some(t1 - took))
                    {
                        let old = std::mem::replace(&mut lives[i], live);
                        zombies.push((grant, old.sub));
                    }
                    samples.busy += t1.elapsed();
                }
            }
        }
        samples.round_rates.push(rate(samples.tuples - tuples_before, samples.busy - busy_before));
        for (frame, delivered, step_end) in pending.drain(..) {
            verify_step(inputs, &frame, lives, &delivered, step_end, &mut samples.first_us, report);
        }
    }
    for (grant, mut sub) in zombies {
        let after = sub.drain_settled().len();
        report.check(after == 0, || {
            format!("revoked grant {} still delivered {after} tuples", inputs.grants[grant].subject)
        });
    }
}
