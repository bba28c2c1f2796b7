//! Workload inputs, made from the seed alone.
//!
//! Every workload is a set of streams, policies and grant requests plus an
//! endless, seeded source feed per stream. The program under test sees only
//! these generated inputs; the reference description of each grant
//! ([`RefQuery`]) is built next to them from the same parameters.

use crate::reference::{Cmp, Cond, Func, RefQuery, RefWindow};
use exacml_dsms::{AggFunc, AggSpec, QueryGraph, Schema, Tuple, WindowKind, WindowSpec};
use exacml_plus::{StreamBatch, StreamPolicyBuilder, UserQuery};
use exacml_workload::{GpsFeed, RequestSequence, WeatherFeed, WorkloadGenerator, WorkloadSpec};
use exacml_xacml::{Policy, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full size, or the tiny size the smoke test runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One grant request and what it must deliver.
#[derive(Debug, Clone)]
pub struct Grant {
    pub subject: String,
    /// Index into [`Inputs::streams`].
    pub stream: usize,
    pub query: Option<UserQuery>,
    pub reference: RefQuery,
    /// Index into [`Inputs::policies`] of the policy that permits it.
    pub policy: usize,
}

impl Grant {
    /// The XACML request for this grant.
    #[must_use]
    pub fn request(&self, inputs: &Inputs) -> Request {
        Request::subscribe(&self.subject, &inputs.streams[self.stream].0)
    }

    /// Whether the grant's output is stateless (no window).
    #[must_use]
    pub fn stateless(&self) -> bool {
        self.reference.window.is_none()
    }
}

/// A seeded source feed for one stream.
#[derive(Debug, Clone)]
pub enum Feed {
    Weather(WeatherFeed),
    Gps(GpsFeed),
}

impl Feed {
    fn take(&mut self, n: usize) -> Vec<Tuple> {
        match self {
            Feed::Weather(f) => f.take(n),
            Feed::Gps(f) => f.take(n),
        }
    }
}

/// Everything a workload feeds the program.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub streams: Vec<(String, Schema)>,
    pub policies: Vec<Policy>,
    pub grants: Vec<Grant>,
    pub feeds: Vec<Feed>,
    /// Tuples per stream per step.
    pub batch: usize,
    /// Request sequences over `grants` (paper-requests only).
    pub sequences: Vec<RequestSequence>,
}

impl Inputs {
    /// The next step's source tuples: one batch per stream, in stream order.
    pub fn next_frame(&mut self) -> Vec<StreamBatch> {
        let batch = self.batch;
        self.streams
            .iter()
            .zip(self.feeds.iter_mut())
            .map(|((name, _), feed)| StreamBatch::new(name.clone(), feed.take(batch)))
            .collect()
    }

    /// Fresh feeds for the same streams, restarted from `seed`.
    pub fn reset_feeds(&mut self, seed: u64) {
        self.feeds = feeds_for(&self.streams, seed);
    }
}

fn feeds_for(streams: &[(String, Schema)], seed: u64) -> Vec<Feed> {
    streams
        .iter()
        .enumerate()
        .map(|(i, (name, schema))| {
            let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
            if schema.contains("deviceid") {
                Feed::Gps(GpsFeed::new(s, format!("device-{name}"), 1_000))
            } else {
                Feed::Weather(WeatherFeed::paper_default(s))
            }
        })
        .collect()
}

/// The reference description of a generated corpus graph.
///
/// # Panics
/// When the graph holds a filter the generator never writes.
#[must_use]
pub fn reference_of(graph: &QueryGraph) -> RefQuery {
    RefQuery {
        conds: graph
            .filter()
            .map(|f| Cond::parse(f.source()).expect("corpus filters are `attr op number`"))
            .into_iter()
            .collect(),
        project: graph.map().map(|m| m.attributes().to_vec()),
        window: graph.aggregate().map(|a| RefWindow {
            time: a.window.kind == WindowKind::Time,
            size: a.window.size,
            advance: a.window.advance,
            specs: a
                .specs
                .iter()
                .map(|s| {
                    let func = Func::from_keyword(s.function.keyword()).expect("known function");
                    (s.attribute.clone(), func)
                })
                .collect(),
        }),
    }
}

/// The Table 3 corpus: 1000 policies over `weather` and `gps`, one grant
/// per policy, and the unique and Zipf request sequences.
#[must_use]
pub fn table3(seed: u64, scale: Scale, batch: usize) -> Inputs {
    let mut spec =
        if scale == Scale::Full { WorkloadSpec::table3() } else { WorkloadSpec::small() };
    spec.seed = seed;
    let generator = WorkloadGenerator::new(spec);
    let corpus = generator.generate_queries();
    let streams: Vec<(String, Schema)> =
        WorkloadGenerator::streams().into_iter().map(|(n, s)| (n.to_string(), s)).collect();
    let grants = corpus
        .iter()
        .enumerate()
        .map(|(i, q)| Grant {
            subject: q.subject.clone(),
            stream: streams.iter().position(|(n, _)| *n == q.stream).expect("corpus stream"),
            query: None,
            reference: reference_of(&q.graph),
            policy: i,
        })
        .collect();
    let sequences =
        vec![generator.unique_sequence(corpus.len()), generator.zipf_sequence(corpus.len())];
    Inputs {
        feeds: feeds_for(&streams, seed),
        streams,
        policies: corpus.iter().map(|q| q.policy.clone()).collect(),
        grants,
        batch,
        sequences,
    }
}

const WEATHER_NUMERIC: [&str; 6] =
    ["temperature", "humidity", "solarradiation", "rainrate", "windspeed", "barometer"];

/// A handful of grants on `weather`, each a distinct long sliding tuple
/// window (advance 1) over sum/avg/min/max/count/last value, plus one time
/// window of the same span.
#[must_use]
pub fn wide_windows(seed: u64, scale: Scale) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x77d1_d0a5);
    let (grants_n, base) = if scale == Scale::Full { (6, 960u64) } else { (2, 48) };
    let streams = vec![("weather".to_string(), Schema::weather_example())];
    // Window sizes are fixed so every seed asks for the same work; the seed
    // picks the aggregated attributes and the feed.
    let sizes: Vec<u64> = (0..grants_n as u64).map(|i| base + i * base / 40).collect();
    let funcs = [Func::Sum, Func::Avg, Func::Min, Func::Max, Func::Count];
    let mut windows: Vec<RefWindow> = sizes
        .iter()
        .map(|&size| {
            let mut attrs = WEATHER_NUMERIC.to_vec();
            let mut specs = vec![("samplingtime".to_string(), Func::Last)];
            for func in funcs {
                let attr = attrs.swap_remove(rng.gen_range(0..attrs.len()));
                specs.push((attr.to_string(), func));
            }
            RefWindow { time: false, size, advance: 1, specs }
        })
        .collect();
    // The time window spans as many 30 s readings as the largest tuple window.
    let span = sizes.iter().max().copied().unwrap_or(base);
    windows.push(RefWindow {
        time: true,
        size: span * 30_000,
        advance: 30_000,
        specs: vec![
            ("samplingtime".into(), Func::Last),
            ("rainrate".into(), Func::Avg),
            ("windspeed".into(), Func::Max),
        ],
    });
    let mut policies = Vec::new();
    let mut grants = Vec::new();
    for (i, window) in windows.into_iter().enumerate() {
        let subject = format!("analyst{i}");
        let spec = if window.time {
            WindowSpec::time(window.size, window.advance)
        } else {
            WindowSpec::tuples(window.size, window.advance)
        };
        let specs = window.specs.iter().map(|(a, f)| AggSpec::new(a, agg_func(*f))).collect();
        policies.push(
            StreamPolicyBuilder::new(format!("wide-{i}"), "weather")
                .subject(&subject)
                .window(spec, specs)
                .build(),
        );
        grants.push(Grant {
            subject,
            stream: 0,
            query: None,
            reference: RefQuery { window: Some(window), ..RefQuery::default() },
            policy: i,
        });
    }
    Inputs {
        feeds: feeds_for(&streams, seed),
        streams,
        policies,
        grants,
        batch: if scale == Scale::Full { 32 } else { 8 },
        sequences: Vec::new(),
    }
}

fn agg_func(func: Func) -> AggFunc {
    AggFunc::from_keyword(func.keyword()).expect("every reference function exists in the engine")
}

/// Tens of streams, one subject-less policy per stream (so every grant on a
/// stream rides that policy), and about a thousand grants. Even streams
/// carry stateless policies whose grants share one plan with per-grant
/// residual filters; odd streams carry windowed policies whose grants get
/// distinct plans per user filter.
#[must_use]
pub fn churn(seed: u64, scale: Scale) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a2_11fe);
    let (weather_n, gps_n, per_stream) = if scale == Scale::Full { (16, 8, 42) } else { (2, 2, 6) };
    let mut streams = Vec::new();
    for i in 0..weather_n {
        streams.push((format!("w{i:02}"), Schema::weather_example()));
    }
    for i in 0..gps_n {
        streams.push((format!("g{i:02}"), Schema::gps_example()));
    }
    let mut policies = Vec::new();
    let mut grants = Vec::new();
    for (s, (name, schema)) in streams.iter().enumerate() {
        let gps = schema.contains("deviceid");
        let (attr, bound, visible, thresholds): (&str, f64, Vec<&str>, [f64; 4]) = if gps {
            (
                "speed",
                100.0,
                vec!["samplingtime", "deviceid", "latitude", "speed"],
                [20.0, 40.0, 60.0, 80.0],
            )
        } else {
            (
                "windspeed",
                36.0,
                vec!["samplingtime", "windspeed", "temperature", "rainrate"],
                [8.0, 16.0, 24.0, 32.0],
            )
        };
        let policy_cond = Cond::new(attr, Cmp::Lt, bound);
        let windowed = s % 2 == 1;
        let window = windowed.then(|| RefWindow {
            time: false,
            size: 4 + (s as u64 % 5),
            advance: 2,
            specs: vec![
                ("samplingtime".into(), Func::Last),
                (visible[2].into(), Func::Min),
                (attr.into(), Func::Max),
                (visible[3].into(), if gps { Func::Count } else { Func::Sum }),
            ],
        });
        let mut builder = StreamPolicyBuilder::new(format!("churn-{name}"), name)
            .description("stream policy")
            .filter(policy_cond.text())
            .visible_attributes(visible.clone());
        if let Some(w) = &window {
            let specs = w.specs.iter().map(|(a, f)| AggSpec::new(a, agg_func(*f))).collect();
            builder = builder.window(WindowSpec::tuples(w.size, w.advance), specs);
        }
        policies.push(builder.build());
        // Every stream uses all four user thresholds; the seed rotates which
        // subjects get which, so the plan count does not depend on it.
        let offset = rng.gen_range(0..4usize);
        for j in 0..per_stream {
            let user = (j % 3 != 0).then(|| Cond::new(attr, Cmp::Lt, thresholds[(j + offset) % 4]));
            let mut conds = vec![policy_cond.clone()];
            conds.extend(user.clone());
            grants.push(Grant {
                subject: format!("c{:04}", grants.len()),
                stream: s,
                query: user.map(|c| UserQuery::for_stream(name).with_filter(c.text())),
                reference: RefQuery {
                    conds,
                    project: Some(visible.iter().map(ToString::to_string).collect()),
                    window: window.clone(),
                },
                policy: s,
            });
        }
    }
    Inputs {
        feeds: feeds_for(&streams, seed),
        streams,
        policies,
        grants,
        batch: 4,
        sequences: Vec::new(),
    }
}

/// A re-issued version of a churn policy: same obligations, new revision
/// text. Updating a policy withdraws every grant riding it.
#[must_use]
pub fn revised(policy: &Policy, revision: u64) -> Policy {
    policy.clone().with_description(format!("stream policy, revision {revision}"))
}
