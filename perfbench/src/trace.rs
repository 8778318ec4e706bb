//! The traced pass: per-layer metrics, run separately from the measured
//! pass so its instrumentation never touches the end-to-end figures.
//!
//! Every run reports every per-layer metric. Fleet-side metrics have no
//! fleet to observe on `batch-cold-large` and read 0 there; the record
//! lists them under `not_applicable`. `trace.overhead_pct` compares an
//! untraced and a traced run of the same work within one invocation.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fq_serve::client::ShardConn;
use frozenqubits::api::{BatchRunner, JobResult, JobSpec};
use frozenqubits::{FqError, QosTier};
use serde::json::Value;

use crate::engine::{self, StoreCounters, TimedStore};
use crate::fleet::Fleet;
use crate::serve::{self, stats_of};
use crate::workload::{self, Workload};
use crate::{batch, loadgen, procfs, stats, Metric, Outcome};

/// Requests of a service workload whose layers are timed in process.
const SERVICE_SAMPLE: usize = 200;

/// Repetitions of each in-process timing on the service workloads (the
/// batch corpus runs once: its jobs are long enough to time singly).
const SERVICE_REPS: usize = 3;

/// How often the traced open-loop phase polls fleet telemetry.
const POLL_EVERY: Duration = Duration::from_millis(100);

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("api.decode_us", "us"),
    ("api.encode_us", "us"),
    ("api.problem_us", "us"),
    ("device.build_us", "us"),
    ("plan.plan_us", "us"),
    ("plan.compile_ms", "ms"),
    ("plan.cache_hit_ratio", "ratio"),
    ("template.edit_us", "us"),
    ("optim.optimize_us", "us"),
    ("sim.terms_us", "us"),
    ("sim.lightcone_us", "us"),
    ("engine.job_us.exact", "us"),
    ("engine.job_us.balanced", "us"),
    ("engine.job_us.fast", "us"),
    ("engine.unattributed_us", "us"),
    ("engine.coverage_pct", "%"),
    ("store.insert_us", "us"),
    ("store.fetch_us", "us"),
    ("store.inserts", "count"),
    ("store.fetch_hit_ratio", "ratio"),
    ("serve.rtt_overhead_us", "us"),
    ("dispatch.rtt_overhead_us", "us"),
    ("serve.cpu_ms_per_job", "ms"),
    ("dispatch.cpu_ms_per_job", "ms"),
    ("serve.cache_misses", "count"),
    ("dispatch.forwarded", "count"),
    ("dispatch.rerouted", "count"),
    ("dispatch.shed", "count"),
    ("loadgen.latency_p50_ms", "ms"),
    ("loadgen.latency_p99_ms", "ms"),
    ("loadgen.lag_p99_ms", "ms"),
    ("loadgen.cpu_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Fleet-side metrics, reported as 0 on the in-process batch workload.
const FLEET_ONLY: [&str; 12] = [
    "serve.rtt_overhead_us",
    "dispatch.rtt_overhead_us",
    "serve.cpu_ms_per_job",
    "dispatch.cpu_ms_per_job",
    "serve.cache_misses",
    "dispatch.forwarded",
    "dispatch.rerouted",
    "dispatch.shed",
    "loadgen.latency_p50_ms",
    "loadgen.latency_p99_ms",
    "loadgen.lag_p99_ms",
    "loadgen.cpu_share",
];

/// Untraced/traced pass pairs of the batch traced run.
const OVERHEAD_PAIRS: usize = 2;

/// One per-layer metric, its unit taken from [`PER_LAYER`].
fn layer(name: &'static str, value: f64) -> Metric {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("every per-layer metric is listed in PER_LAYER");
    Metric::new(name, unit, value)
}

/// Orders metrics as [`PER_LAYER`] lists them.
fn ordered(mut metrics: Vec<Metric>) -> Vec<Metric> {
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|(n, _)| *n == m.name));
    metrics
}

/// In-process per-layer figures over a spec sample.
struct InProcess {
    metrics: Vec<Metric>,
    /// Engine µs per sampled spec (warm, single-threaded).
    engine_us: Vec<f64>,
    /// Exact jobs whose branch path was replicated.
    replicated: usize,
}

/// Engine µs per job at `tier`: the sample's own jobs of that tier, or,
/// when the sample has none, its exact jobs re-tiered.
fn tier_time(
    sample: &[JobSpec],
    engine_us: &[f64],
    tier: QosTier,
    reps: usize,
) -> Result<f64, String> {
    if sample.iter().any(|s| s.config.tier == tier) {
        let own: Vec<f64> = sample
            .iter()
            .zip(engine_us)
            .filter(|(s, _)| s.config.tier == tier)
            .map(|(_, us)| *us)
            .collect();
        return Ok(stats::mean(&own));
    }
    let mut specs: Vec<JobSpec> = sample
        .iter()
        .filter(|s| s.config.tier.is_exact())
        .cloned()
        .collect();
    for spec in &mut specs {
        spec.config.tier = tier;
    }
    let runner = BatchRunner::new().with_threads(1);
    for r in runner.run(&specs) {
        r.map_err(|e| format!("re-tiered warm-up job failed: {e}"))?;
    }
    let times: Vec<f64> = engine::time_jobs(&runner, &specs, reps, false)?
        .into_iter()
        .map(|t| t.engine_us)
        .collect();
    Ok(stats::mean(&times))
}

/// Times every in-process layer over `sample`, checking the engine's
/// bytes against `expected` and the replicated branch path against the
/// engine bit for bit.
fn in_process(sample: &[JobSpec], expected: &[String], reps: usize) -> Result<InProcess, String> {
    let runner = BatchRunner::new().with_threads(1);
    for (i, r) in runner.run(sample).into_iter().enumerate() {
        let r = r.map_err(|e| format!("warm-up job {i} failed: {e}"))?;
        if r.to_json() != expected[i] {
            return Err(format!("engine job {i} differs from its reference"));
        }
    }
    let timed = engine::time_jobs(&runner, sample, reps, true)?;
    let engine_us: Vec<f64> = timed.iter().map(|t| t.engine_us).collect();
    let results: Vec<JobResult> = timed.iter().map(|t| t.result.clone()).collect();
    let (stages, covered_engine_us): (Vec<engine::Stages>, Vec<f64>) = timed
        .iter()
        .filter_map(|t| Some((t.stages?, t.engine_us)))
        .unzip();

    let wire = engine::wire_costs(sample, &results, reps)?;
    let (problem_us, device_us) = engine::resolve_costs(sample)?;
    let (compile_us, plan_us) = engine::plan_costs(sample, runner.cache())?;

    let stage_mean =
        |f: fn(&engine::Stages) -> f64| stats::mean(&stages.iter().map(f).collect::<Vec<_>>());
    let named_us = stage_mean(engine::Stages::total);
    let covered_us = stats::mean(&covered_engine_us);
    let metrics = vec![
        layer("http.parse_us", wire.parse_us),
        layer("http.write_us", wire.write_us),
        layer("api.decode_us", wire.decode_us),
        layer("api.encode_us", wire.encode_us),
        layer("api.problem_us", problem_us),
        layer("device.build_us", device_us),
        layer("plan.plan_us", plan_us),
        layer("plan.compile_ms", compile_us / 1e3),
        layer("template.edit_us", stage_mean(|s| s.edit_us)),
        layer("optim.optimize_us", stage_mean(|s| s.optimize_us)),
        layer("sim.terms_us", stage_mean(|s| s.terms_us)),
        layer("sim.lightcone_us", stage_mean(|s| s.lightcone_us)),
        layer(
            "engine.job_us.exact",
            tier_time(sample, &engine_us, QosTier::Exact, reps)?,
        ),
        layer(
            "engine.job_us.balanced",
            tier_time(sample, &engine_us, QosTier::Balanced, reps)?,
        ),
        layer(
            "engine.job_us.fast",
            tier_time(sample, &engine_us, QosTier::Fast, reps)?,
        ),
        // Both are over the replicated jobs only, timed back to back with
        // their engine runs; a small negative remainder is timing noise.
        layer("engine.unattributed_us", covered_us - named_us),
        layer(
            "engine.coverage_pct",
            100.0 * named_us / covered_us.max(f64::MIN_POSITIVE),
        ),
    ];
    Ok(InProcess {
        metrics,
        engine_us,
        replicated: stages.len(),
    })
}

/// A cold run of specs through a fresh runner over a timed disk store.
struct StorePass {
    /// Store metrics and the cache hit ratio.
    metrics: Vec<Metric>,
    results: Vec<Result<JobResult, FqError>>,
    makespan_ms: f64,
}

/// Runs `specs` through a fresh runner over a timed disk-backed store.
fn store_pass(specs: &[JobSpec], name: &str) -> Result<StorePass, String> {
    let counters = Arc::new(StoreCounters::default());
    let runner = BatchRunner::new().with_store(Box::new(TimedStore::new(
        batch::fresh_store(name)?,
        Arc::clone(&counters),
    )));
    let start = Instant::now();
    let results = runner.run(specs);
    let makespan_ms = start.elapsed().as_secs_f64() * 1e3;
    let cache = runner.cache_stats();
    let (insert_us, fetch_us, inserts, fetch_hit_ratio) = counters.summary();
    let lookups = (cache.hits + cache.misses).max(1);
    Ok(StorePass {
        metrics: vec![
            layer("plan.cache_hit_ratio", cache.hits as f64 / lookups as f64),
            layer("store.insert_us", insert_us),
            layer("store.fetch_us", fetch_us),
            layer("store.inserts", inserts as f64),
            layer("store.fetch_hit_ratio", fetch_hit_ratio),
        ],
        results,
        makespan_ms,
    })
}

fn numbers(values: Vec<f64>) -> Value {
    Value::Array(values.into_iter().map(Value::Number).collect())
}

/// The traced pass of `batch-cold-large`. It runs a fixed amount of
/// work: every scenario once per in-process stage, and
/// [`OVERHEAD_PAIRS`] untraced/traced cold passes.
///
/// # Errors
///
/// When a job fails, bytes differ, or the replicated branch path
/// diverges from the engine.
pub fn batch(seed: u64) -> Result<Outcome, String> {
    batch::single_core();
    let specs = workload::batch_specs(seed)?;
    let expected = workload::references(&specs)?;
    let layers = in_process(&specs, &expected, 1)?;

    // Alternating untraced and traced cold passes; the overhead compares
    // their median makespans.
    let (mut plain_ms, mut traced_ms, mut store_metrics) = (Vec::new(), Vec::new(), Vec::new());
    let (mut failed, mut mismatched, mut first_failure) = (0, 0, None);
    for k in 0..OVERHEAD_PAIRS {
        let (specs, runner) = batch::set_up(seed, &format!("plain-{k}"), |d| Box::new(d))?;
        let start = Instant::now();
        let plain = runner.run(&specs);
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let traced = store_pass(&specs, &format!("traced-{k}"))?;
        traced_ms.push(traced.makespan_ms);
        store_metrics = traced.metrics;
        for results in [plain, traced.results] {
            let (f, m, first) = batch::check(results, &expected);
            failed += f;
            mismatched += m;
            first_failure = first_failure.or(first);
        }
    }
    let (plain_med, traced_med) = (stats::median(&plain_ms), stats::median(&traced_ms));

    let mut metrics = layers.metrics;
    metrics.extend(store_metrics);
    metrics.extend(FLEET_ONLY.iter().map(|name| layer(name, 0.0)));
    metrics.push(layer(
        "trace.overhead_pct",
        100.0 * (traced_med - plain_med) / plain_med,
    ));
    let mut record = vec![
        (
            "replicated_exact_jobs",
            Value::UInt(layers.replicated as u64),
        ),
        ("plain_makespans_ms", numbers(plain_ms)),
        ("traced_makespans_ms", numbers(traced_ms)),
        (
            "not_applicable",
            Value::Array(FLEET_ONLY.iter().map(|n| Value::string(*n)).collect()),
        ),
    ];
    if let Some(first) = first_failure {
        record.push(("first_failure", Value::string(first)));
    }
    Ok(Outcome {
        correct: mismatched == 0,
        attempted: (2 * OVERHEAD_PAIRS * specs.len()) as u64,
        failed: failed as u64,
        metrics: ordered(metrics),
        record,
    })
}

/// Fleet telemetry counters: per-shard cache misses and the
/// dispatcher's forwarding counters.
struct Counters {
    misses: u64,
    forwarded: u64,
    rerouted: u64,
    shed: u64,
}

fn counters(fleet: &Fleet) -> Result<Counters, String> {
    let at = |v: &Value, path: &[&str]| -> Result<u64, String> {
        let mut v = v;
        for key in path {
            v = v.field(key).map_err(|e| e.to_string())?;
        }
        v.as_u64().map_err(|e| e.to_string())
    };
    let mut misses = 0;
    for shard in fleet.shard_addrs() {
        misses += at(&stats_of(&shard)?, &["cache", "misses"])?;
    }
    let front = stats_of(fleet.front())?;
    Ok(Counters {
        misses,
        forwarded: at(&front, &["forward", "forwarded"])?,
        rerouted: at(&front, &["forward", "rerouted"])?,
        shed: at(&front, &["forward", "shed"])?,
    })
}

/// One closed-loop round trip of `body` over `conn`, µs, checked against
/// `expected`.
fn round_trip(conn: &mut ShardConn, body: &str, expected: &str) -> Result<f64, String> {
    let start = Instant::now();
    let response = conn
        .request("POST", "/v1/jobs", Some(body))
        .map_err(|e| format!("probe to {}: {e}", conn.addr()))?;
    let us = start.elapsed().as_nanos() as f64 / 1e3;
    if response.status != 200 || response.body != expected {
        return Err(format!(
            "probe to {}: HTTP {} or wrong bytes",
            conn.addr(),
            response.status
        ));
    }
    Ok(us)
}

/// The traced pass of a service workload: in-process layers over the
/// first [`SERVICE_SAMPLE`] requests, then an untraced and a traced
/// open-loop phase of `seconds / 2` each, then closed-loop probes.
///
/// # Errors
///
/// When the fleet fails, bytes differ, or the replicated branch path
/// diverges from the engine.
pub fn serve(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let rate = workload.rate().expect("service workloads are open-loop");
    let inputs = serve::inputs(workload, seed, seconds.div_ceil(2))?;
    let k = SERVICE_SAMPLE.min(inputs.requests.len());
    let sample: Vec<JobSpec> = inputs.requests[..k]
        .iter()
        .map(|r| r.spec.clone())
        .collect();
    let layers = in_process(&sample, &inputs.expected[..k], SERVICE_REPS)?;

    // The template store on the read side: cold warm-up jobs, then the
    // sample against the templates they left.
    let mut store_specs = inputs.warmup.clone();
    store_specs.extend(sample.iter().cloned());
    let mut store = store_pass(&store_specs, "traced")?;
    let sampled = store.results.split_off(inputs.warmup.len());
    let (store_failed, store_mismatched, store_first) =
        batch::check(sampled, &inputs.expected[..k]);

    let fleet = serve::boot_warm(&inputs.warmup)?;
    let threads = serve::threads();
    let run = || {
        loadgen::run(
            fleet.front(),
            &inputs.bodies,
            &inputs.expected,
            rate,
            threads,
        )
    };
    let plain = run();
    let plain_f = serve::figures(&plain);

    // The traced phase: the same load while fleet telemetry is polled.
    let me = std::process::id();
    let before = counters(&fleet)?;
    let cpu_before = fleet.cpu()?;
    let gen_before = procfs::cpu_ms(me).map_err(|e| e.to_string())?;
    let stop = AtomicBool::new(false);
    let polls = AtomicU64::new(0);
    let traced = std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                if stats_of(fleet.front()).is_ok() && fleet.cpu().is_ok() {
                    polls.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::sleep(POLL_EVERY);
            }
        });
        let phase = run();
        stop.store(true, Ordering::Relaxed);
        phase
    });
    let gen_ms = procfs::cpu_ms(me).map_err(|e| e.to_string())? - gen_before;
    let cpu = fleet.cpu()?.since(&cpu_before);
    let after = counters(&fleet)?;
    let traced_f = serve::figures(&traced);

    // Closed-loop probes: direct to a shard (both warmed directly first,
    // so either holds every template) and through the dispatcher.
    let shards = fleet.shard_addrs();
    for shard in &shards {
        serve::warm(shard, &inputs.warmup)?;
    }
    let mut direct = ShardConn::new(&shards[0]);
    let mut front = ShardConn::new(fleet.front());
    direct.set_read_timeout(loadgen::REQUEST_TIMEOUT);
    front.set_read_timeout(loadgen::REQUEST_TIMEOUT);
    let (mut direct_us, mut front_us) = (Vec::with_capacity(k), Vec::with_capacity(k));
    for (body, expected) in inputs.bodies.iter().zip(&inputs.expected).take(k) {
        direct_us.push(round_trip(&mut direct, body, expected)?);
        front_us.push(round_trip(&mut front, body, expected)?);
    }
    drop(fleet);

    let ok = traced_f.ok.max(1) as f64;
    let direct_med = stats::median(&direct_us);
    let delta = |f: fn(&Counters) -> u64| (f(&after) - f(&before)) as f64;
    let mut metrics = layers.metrics;
    metrics.extend(store.metrics);
    metrics.extend([
        layer(
            "serve.rtt_overhead_us",
            direct_med - stats::median(&layers.engine_us),
        ),
        layer(
            "dispatch.rtt_overhead_us",
            stats::median(&front_us) - direct_med,
        ),
        layer("serve.cpu_ms_per_job", cpu.shards.iter().sum::<f64>() / ok),
        layer("dispatch.cpu_ms_per_job", cpu.dispatch / ok),
        layer("serve.cache_misses", delta(|c| c.misses)),
        layer("dispatch.forwarded", delta(|c| c.forwarded)),
        layer("dispatch.rerouted", delta(|c| c.rerouted)),
        layer("dispatch.shed", delta(|c| c.shed)),
        layer("loadgen.latency_p50_ms", traced_f.p50_ms),
        layer("loadgen.latency_p99_ms", traced_f.p99_ms),
        layer("loadgen.lag_p99_ms", traced_f.lag_p99_ms),
        layer(
            "loadgen.cpu_share",
            gen_ms / (traced_f.wall_s * 1e3 * threads as f64),
        ),
        layer(
            "trace.overhead_pct",
            100.0 * (traced_f.p10_ms - plain_f.p10_ms) / plain_f.p10_ms,
        ),
    ]);

    let reasons = serve::invalid_reasons(&traced_f, rate);
    let mut record = vec![
        ("valid", Value::Bool(reasons.is_empty())),
        (
            "invalid_reasons",
            Value::Array(reasons.into_iter().map(Value::string).collect()),
        ),
        ("sampled_jobs", Value::UInt(k as u64)),
        (
            "replicated_exact_jobs",
            Value::UInt(layers.replicated as u64),
        ),
        ("plain_p10_ms", Value::Number(plain_f.p10_ms)),
        ("traced_p10_ms", Value::Number(traced_f.p10_ms)),
        (
            "telemetry_polls",
            Value::UInt(polls.load(Ordering::Relaxed)),
        ),
    ];
    record.extend(traced_f.record);
    if let Some(first) = plain
        .first_failure()
        .or_else(|| traced.first_failure())
        .or(store_first)
    {
        record.push(("first_failure", Value::string(first)));
    }
    Ok(Outcome {
        correct: plain.mismatches() + traced.mismatches() + store_mismatched == 0,
        // Both open-loop phases, the store pass's sampled jobs, and the
        // direct and front-door probes.
        attempted: (plain.stamps.len() + traced.stamps.len() + 3 * k) as u64,
        failed: (plain.failures() + traced.failures() + store_failed) as u64,
        metrics: ordered(metrics),
        record,
    })
}
