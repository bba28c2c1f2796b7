//! The traced run: the workload's inputs replayed through each layer's
//! public functions, timed from outside.
//!
//! It never feeds an end-to-end metric. Three passes:
//!
//! * **request plane** — for every grant of the workload: policy XML parse,
//!   PDP decision, obligations → graph, merge, StreamSQL render, engine
//!   deploy and handle attach, plus the Fig 6a direct-query baseline (parse
//!   and deploy of the same script);
//! * **data plane** — the workload's set-up on a local server, a 3-node
//!   `Fabric` and a 3-node `ReplicatedFabric`, then the same frames pushed
//!   into each: the local engine's `push_batch` and channel drains, the
//!   fabrics' `push_batches`, ingest hops, routed handles, replication lag
//!   and modelled delivery time. Deliveries are checked against the
//!   reference here too;
//! * **standalone layers** — window buffers fed the workload's tuples, and
//!   the durable record encoder and WAL writer fed its batches.
//!
//! Modelled (simnet) time is reported under the `simnet.` prefix only.

use crate::inputs::{Inputs, Scale};
use crate::reference::RefWindow;
use crate::stats::median;
use crate::workloads::{
    micros, step, stream_setup, verify_step, warmup_steps, Metric, Params, Report, Shape,
    ShapeKind, Workload,
};
use exacml_dsms::window::SlidingBuffer;
use exacml_dsms::{streamsql, AggFunc, AggSpec, AggregateOp, QueryGraph, StreamEngine, WindowSpec};
use exacml_durable::record::encode_ingest_into;
use exacml_durable::wal::WalWriter;
use exacml_plus::{graph_from_obligations, merge_graphs, DataServer, MergeOptions, ServerConfig};
use exacml_xacml::{xml, Pdp, PolicyStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
pub const LAYER_METRICS: [(&str, &str); 25] = [
    ("xacml.xml.parse_policy_us", "us"),
    ("xacml.pdp.evaluate_us", "us"),
    ("core.obligations.graph_from_obligations_us", "us"),
    ("core.merge.merge_graphs_us", "us"),
    ("core.shared_plan.plans_per_grant", "ratio"),
    ("core.fabric.push_batches_us", "us"),
    ("core.fabric.ingest_hops", "count"),
    ("core.fabric.routed_handles", "count"),
    ("dsms.streamsql.generate_us", "us"),
    ("dsms.engine.deploy_us", "us"),
    ("dsms.engine.attach_handle_us", "us"),
    ("dsms.direct_deploy_us", "us"),
    ("dsms.engine.push_batch_us", "us"),
    ("dsms.engine.derived_per_source", "count"),
    ("dsms.channel.drain_us", "us"),
    ("dsms.channel.max_backlog", "tuples"),
    ("dsms.window.push_visit_ns", "ns"),
    ("dsms.window.buffered_tuples", "tuples"),
    ("durable.fabric.push_batches_us", "us"),
    ("durable.record.encode_ingest_ns", "ns"),
    ("durable.wal.append_us", "us"),
    ("durable.wal.bytes_per_tuple", "bytes"),
    ("durable.replication.lag_records", "records"),
    ("simnet.modelled_request_network_us", "us"),
    ("simnet.modelled_delivery_us", "us"),
];

/// Frames pushed per shape after the warm-up.
fn frames(scale: Scale) -> usize {
    if scale == Scale::Full {
        40
    } else {
        4
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, micros(started.elapsed()))
}

/// Run the traced pass of one workload.
#[must_use]
pub fn run(workload: Workload, params: &Params) -> Report {
    let mut report = Report::default();
    let _ = std::fs::remove_dir_all(&params.scratch);
    let mut inputs = workload.inputs(params.seed, params.scale);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let sum = request_plane(&inputs, &mut values, &mut report);
    let local =
        if workload == Workload::PaperRequests { ShapeKind::Testbed } else { ShapeKind::Local };
    let mut setup_grant_us = f64::NAN;
    for kind in [local, ShapeKind::Fabric, ShapeKind::Replicated] {
        if let Some(grant_p50) = data_plane(kind, &mut inputs, params, &mut values, &mut report) {
            if kind == local {
                setup_grant_us = grant_p50;
            }
        }
    }
    inputs.reset_feeds(params.seed);
    windows(&mut inputs, params.scale, &mut values);
    durable_records(&mut inputs, params, &mut values, &mut report);
    let _ = std::fs::remove_dir_all(&params.scratch);

    let v = |name: &str| values.get(name).copied().unwrap_or(f64::NAN);
    report.notes.push(format!(
        "request-plane layers, medians (cold PDP): pdp {:.2} + obligations {:.2} + merge {:.2} + \
         streamsql {:.2} + deploy {:.2} + attach {:.2} = {sum:.2} us",
        v("xacml.pdp.evaluate_us"),
        v("core.obligations.graph_from_obligations_us"),
        v("core.merge.merge_graphs_us"),
        v("dsms.streamsql.generate_us"),
        v("dsms.engine.deploy_us"),
        v("dsms.engine.attach_handle_us"),
    ));
    report.notes.push(format!(
        "grant_p50_us of this pass's set-up grants {setup_grant_us:.2} us; remainder {:.2} us \
         (access guard, plan-cache lookup and locks, output-schema lookup, audit, telemetry)",
        setup_grant_us - sum
    ));
    report.notes.push(format!(
        "Fig 6a overhead: grant p50 {setup_grant_us:.2} us / direct deploy p50 {:.2} us = {:.2}x",
        v("dsms.direct_deploy_us"),
        setup_grant_us / v("dsms.direct_deploy_us")
    ));
    let pdp = v("xacml.pdp.evaluate_us");
    let graph = v("core.obligations.graph_from_obligations_us")
        + v("core.merge.merge_graphs_us")
        + v("dsms.streamsql.generate_us");
    let dsms = v("dsms.engine.deploy_us") + v("dsms.engine.attach_handle_us");
    report.notes.push(format!(
        "Fig 7 shares of the measured layer sum: PDP {:.0}%, query graph {:.0}%, DSMS {:.0}%; \
         modelled network beside it (not summed): {:.1} us",
        100.0 * pdp / sum,
        100.0 * graph / sum,
        100.0 * dsms / sum,
        v("simnet.modelled_request_network_us")
    ));
    report.metrics =
        LAYER_METRICS.iter().map(|&(name, unit)| Metric::new(name, unit, v(name))).collect();
    report
}

/// Time every request-plane layer for every grant. Returns the sum of the
/// layer medians that a deploying grant passes through.
fn request_plane(
    inputs: &Inputs,
    values: &mut BTreeMap<&'static str, f64>,
    report: &mut Report,
) -> f64 {
    let mut parse = Vec::new();
    let store = Arc::new(PolicyStore::new());
    for policy in &inputs.policies {
        let document = xml::write_policy(policy);
        let (parsed, us) = timed(|| xml::parse_policy(&document));
        parse.push(us);
        if let Some(parsed) = report.attempt(parsed.map_err(Into::into), "parse policy") {
            report.attempt(store.add(parsed).map_err(Into::into), "store policy");
        }
    }
    let pdp = Pdp::new(store);
    let engine = StreamEngine::with_host("trace");
    let direct = DataServer::new(ServerConfig::local());
    for (name, schema) in &inputs.streams {
        report
            .attempt(engine.register_stream(name, schema.clone()).map_err(Into::into), "register");
        report.attempt(direct.register_stream(name, schema.clone()), "register");
    }
    let mut t: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut warm = Vec::new();
    for grant in &inputs.grants {
        let (stream, schema) = &inputs.streams[grant.stream];
        let request = grant.request(inputs);
        let (decision, us) = timed(|| pdp.evaluate(&request));
        t.entry("xacml.pdp.evaluate_us").or_default().push(us);
        warm.push(timed(|| black_box(pdp.evaluate(&request))).1);
        let (policy_graph, us) = timed(|| graph_from_obligations(stream, &decision.obligations));
        t.entry("core.obligations.graph_from_obligations_us").or_default().push(us);
        let Some(policy_graph) = report.attempt(policy_graph, "obligations") else { continue };
        let user_graph = match &grant.query {
            Some(q) => match report.attempt(q.to_graph(), "user query") {
                Some(g) => g,
                None => continue,
            },
            None => QueryGraph::identity(stream),
        };
        let (merged, us) =
            timed(|| merge_graphs(&policy_graph, &user_graph, MergeOptions::default()));
        t.entry("core.merge.merge_graphs_us").or_default().push(us);
        let Some(merged) = report.attempt(merged, "merge") else { continue };
        let (script, us) = timed(|| streamsql::generate(&merged.graph, schema));
        t.entry("dsms.streamsql.generate_us").or_default().push(us);
        let (deployment, us) = timed(|| engine.deploy(&merged.graph));
        t.entry("dsms.engine.deploy_us").or_default().push(us);
        let Some(deployment) = report.attempt(deployment.map_err(Into::into), "deploy") else {
            continue;
        };
        let (handle, us) = timed(|| engine.attach_handle(deployment.id, None));
        t.entry("dsms.engine.attach_handle_us").or_default().push(us);
        report.attempt(handle.map_err(Into::into), "attach");
        let (direct_deployed, us) = timed(|| direct.direct_deploy(&script));
        t.entry("dsms.direct_deploy_us").or_default().push(us);
        report.attempt(direct_deployed, "direct deploy");
    }
    values.insert("xacml.xml.parse_policy_us", median(&parse));
    report
        .notes
        .push(format!("xacml.pdp.evaluate_us warm (decision cached): {:.3} us", median(&warm)));
    let mut sum = 0.0;
    for (name, samples) in t {
        let m = median(&samples);
        if name != "dsms.direct_deploy_us" {
            sum += m;
        }
        values.insert(name, m);
    }
    sum
}

/// Set the workload up on one shape and push the same frames through it.
/// Returns the shape's set-up grant p50 (µs).
fn data_plane(
    kind: ShapeKind,
    inputs: &mut Inputs,
    params: &Params,
    values: &mut BTreeMap<&'static str, f64>,
    report: &mut Report,
) -> Option<f64> {
    let policy_xml: Vec<String> = inputs.policies.iter().map(xml::write_policy).collect();
    let dir = params.scratch.join(format!("{kind:?}"));
    let setup = stream_setup(kind, inputs, &policy_xml, params.seed, &dir, report)?;
    let (shape, mut lives) = (setup.shape, setup.lives);
    let backend = shape.backend();
    let grants = lives.len().max(1) as f64;
    inputs.reset_feeds(params.seed);
    let mut delivered = Vec::new();
    let mut discard = Vec::new();
    for _ in 0..warmup_steps(inputs) {
        let frame = inputs.next_frame();
        let _ = step(backend, &frame, &mut lives, &mut delivered, report);
        verify_step(inputs, &frame, &mut lives, &delivered, Instant::now(), &mut discard, report);
    }
    let (mut push, mut drain, mut modelled) = (Vec::new(), Vec::new(), Vec::new());
    let (mut source, mut derived, mut backlog) = (0usize, 0usize, 0usize);
    let hops_before = match &shape {
        Shape::Fabric(f) => f.stats().ingest_hops,
        _ => 0,
    };
    for _ in 0..frames(params.scale) {
        let frame = inputs.next_frame();
        delivered.clear();
        if let Shape::Local(server) = &shape {
            for batch in &frame {
                let tuples = batch.tuples.clone();
                source += tuples.len();
                let (emitted, us) = timed(|| server.engine().push_batch(&batch.stream, tuples));
                push.push(us);
                derived += report.attempt(emitted.map_err(Into::into), "engine push").unwrap_or(0);
            }
        } else {
            let owned = frame.clone();
            let (pushed, us) = timed(|| backend.push_batches(owned));
            push.push(us);
            report.attempt(pushed, "push_batches");
        }
        for live in &mut lives {
            let (got, us) = timed(|| live.sub.drain_settled());
            drain.push(us);
            backlog = backlog.max(got.len());
            modelled.extend(got.iter().map(|d| micros(d.latency())));
            delivered.push(got.into_iter().map(|d| d.tuple).collect());
        }
        verify_step(inputs, &frame, &mut lives, &delivered, Instant::now(), &mut discard, report);
    }
    let frames = frames(params.scale) as f64;
    match &shape {
        Shape::Local(_) => {
            values.insert("core.shared_plan.plans_per_grant", backend.live_plans() as f64 / grants);
            values.insert("dsms.engine.push_batch_us", median(&push));
            values.insert("dsms.engine.derived_per_source", derived as f64 / source.max(1) as f64);
            values.insert("dsms.channel.drain_us", median(&drain));
            values.insert("dsms.channel.max_backlog", backlog as f64);
            values.insert("simnet.modelled_request_network_us", median(&setup.modelled_us));
        }
        Shape::Fabric(fabric) => {
            values.insert("core.fabric.push_batches_us", median(&push));
            values.insert(
                "core.fabric.ingest_hops",
                (fabric.stats().ingest_hops - hops_before) as f64 / frames,
            );
            values.insert("core.fabric.routed_handles", fabric.routed_handles() as f64);
            values.insert(
                "simnet.modelled_delivery_us",
                if modelled.is_empty() { f64::NAN } else { median(&modelled) },
            );
        }
        Shape::Replicated(fabric) => {
            values.insert("durable.fabric.push_batches_us", median(&push));
            values.insert("durable.replication.lag_records", fabric.replication_lag() as f64);
        }
    }
    Some(median(&setup.grant_us))
}

/// Feed each distinct window of the workload the tuples of its stream once
/// it is full, aggregating every closed window through the public
/// `AggregateOp::aggregate_window`: the cost per pushed tuple of buffering,
/// closing and rescanning the window.
fn windows(inputs: &mut Inputs, scale: Scale, values: &mut BTreeMap<&'static str, f64>) {
    let mut seen: Vec<&RefWindow> = Vec::new();
    let mut per_window_ns = Vec::new();
    let mut buffered = 0usize;
    let measured = if scale == Scale::Full { 512 } else { 32 };
    let grants = inputs.grants.clone();
    for grant in &grants {
        let Some(window) = &grant.reference.window else { continue };
        if seen.contains(&window) || seen.len() >= 64 {
            continue;
        }
        seen.push(window);
        let spec = if window.time {
            WindowSpec::time(window.size, window.advance)
        } else {
            WindowSpec::tuples(window.size, window.advance)
        };
        let specs = window
            .specs
            .iter()
            .map(|(attr, func)| {
                let func = AggFunc::from_keyword(func.keyword()).expect("engine function");
                AggSpec::new(attr, func)
            })
            .collect();
        let op = AggregateOp::new(spec, specs);
        let Ok(out_schema) = op.output_schema(&inputs.streams[grant.stream].1) else { continue };
        let out_schema = out_schema.shared();
        // Time windows span `size / 30 s` readings of the 30 s weather feed.
        let fill = if window.time { window.size / 30_000 } else { window.size } as usize;
        let mut buffer = SlidingBuffer::new(spec);
        let mut tuples = Vec::new();
        while tuples.len() < fill + measured {
            tuples.extend(inputs.next_frame().swap_remove(grant.stream).tuples);
        }
        let mut rest = tuples.split_off(fill);
        rest.truncate(measured);
        let n = rest.len();
        let mut close = |w: &[exacml_dsms::Tuple]| {
            black_box(op.aggregate_window(w, &out_schema));
        };
        for t in tuples {
            buffer.push_visit(t, &mut close);
        }
        let started = Instant::now();
        for t in rest {
            buffer.push_visit(t, &mut close);
        }
        per_window_ns.push(started.elapsed().as_nanos() as f64 / n as f64);
        buffered = buffered.max(buffer.buffered());
    }
    values.insert(
        "dsms.window.push_visit_ns",
        if per_window_ns.is_empty() { f64::NAN } else { median(&per_window_ns) },
    );
    values.insert("dsms.window.buffered_tuples", buffered as f64);
}

/// Encode the workload's batches as WAL ingest records and append them to a
/// scratch journal.
fn durable_records(
    inputs: &mut Inputs,
    params: &Params,
    values: &mut BTreeMap<&'static str, f64>,
    report: &mut Report,
) {
    let _ = std::fs::create_dir_all(&params.scratch);
    let path = params.scratch.join("trace.wal");
    let Some(mut wal) = report.attempt(
        WalWriter::open(&path, false)
            .map_err(|e| exacml_plus::ExacmlError::Durability(e.to_string())),
        "open wal",
    ) else {
        return;
    };
    let (mut encode, mut append) = (Vec::new(), Vec::new());
    let (mut bytes, mut tuples) = (0usize, 0usize);
    let mut payload = String::new();
    for seq in 0..frames(params.scale) as u64 {
        for batch in inputs.next_frame() {
            let started = Instant::now();
            let encoded = encode_ingest_into(&mut payload, seq, &batch.stream, &batch.tuples);
            let took: Duration = started.elapsed();
            if encoded.is_err() {
                report.check(false, || "ingest record did not encode".to_string());
                continue;
            }
            encode.push(took.as_nanos() as f64 / batch.tuples.len().max(1) as f64);
            bytes += payload.len();
            tuples += batch.tuples.len();
            let (appended, us) = timed(|| wal.append(&payload));
            append.push(us);
            report.check(appended.is_ok(), || "WAL append failed".to_string());
        }
    }
    values.insert("durable.record.encode_ingest_ns", median(&encode));
    values.insert("durable.wal.append_us", median(&append));
    values.insert("durable.wal.bytes_per_tuple", bytes as f64 / tuples.max(1) as f64);
}
