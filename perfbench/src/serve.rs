//! The measured (untraced) pass of the open-loop service workloads.

use std::time::{Duration, Instant};

use fq_serve::client::ShardConn;
use frozenqubits::api::JobSpec;
use serde::json::Value;

use crate::fleet::Fleet;
use crate::loadgen::{self, Phase};
use crate::stats;
use crate::workload::{self, Workload};
use crate::{procfs, Metric, Outcome};

/// Fleets booted per run; `setup_s` is their median set-up time and the
/// last one carries the measured phase.
const SETUP_REPEATS: usize = 25;

/// Pause before each set-up after the first. Back to back, the set-ups
/// of a run all fall into the same half second of a shared host's state,
/// and their median moves with it; spaced out, they sample several
/// seconds.
const SETUP_GAP: Duration = Duration::from_millis(150);

/// A run whose sends left their schedule later than this at p99 measured
/// the generator, not the fleet, and is marked invalid. (Both keep-alive
/// connections waiting on slow replies delays sends too; that wait is
/// still charged to latency through the intended send time.)
pub const LAG_P99_LIMIT_MS: f64 = 10.0;

/// A run completing less than this share of the offered rate built a
/// backlog, and is marked invalid.
pub const MIN_RATE_SHARE: f64 = 0.95;

/// Generator threads (and keep-alive connections): one per core.
#[must_use]
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get)
}

/// Sends every warm-up spec through `addr`, so the measured phase
/// compiles nothing.
///
/// # Errors
///
/// When any warm-up request fails.
pub fn warm(addr: &str, specs: &[JobSpec]) -> Result<(), String> {
    let mut conn = ShardConn::new(addr);
    conn.set_read_timeout(loadgen::REQUEST_TIMEOUT);
    for spec in specs {
        let response = conn
            .request("POST", "/v1/jobs", Some(&spec.to_json()))
            .map_err(|e| format!("warm-up request to {addr}: {e}"))?;
        if response.status != 200 {
            return Err(format!(
                "warm-up request to {addr}: HTTP {}: {}",
                response.status, response.body
            ));
        }
    }
    Ok(())
}

/// Boots a fleet and warms it through its front door.
///
/// # Errors
///
/// When the fleet fails to boot or warm.
pub fn boot_warm(warmup: &[JobSpec]) -> Result<Fleet, String> {
    let fleet = Fleet::boot()?;
    warm(fleet.front(), warmup)?;
    Ok(fleet)
}

/// The service workload's inputs: request bodies and reference bytes.
pub struct Inputs {
    pub requests: Vec<workload::Request>,
    pub bodies: Vec<String>,
    pub expected: Vec<String>,
    pub warmup: Vec<JobSpec>,
}

/// Builds `rate × seconds` requests from `seed` and their references.
///
/// # Errors
///
/// When the corpus is missing or a reference job fails.
pub fn inputs(workload: Workload, seed: u64, seconds: u64) -> Result<Inputs, String> {
    let rate = workload.rate().expect("service workloads are open-loop");
    let count = (rate * seconds as f64).round() as usize;
    let requests = workload::requests(workload, seed, count)?;
    let specs: Vec<JobSpec> = requests.iter().map(|r| r.spec.clone()).collect();
    let expected = workload::references(&specs)?;
    let bodies = requests.iter().map(|r| r.body.clone()).collect();
    Ok(Inputs {
        requests,
        bodies,
        expected,
        warmup: workload::warmup(workload)?,
    })
}

/// Length of the windows the quiet-window latency is taken over.
const WINDOW_NS: u64 = 1_000_000_000;

/// Latency and schedule figures of one open-loop phase.
pub struct PhaseFigures {
    /// p10 over the phase's 1 s windows of each window's p10 latency:
    /// the fast end of the phase's quieter seconds. A shared host's CPU
    /// speed swings within seconds, and this takes the fleet at the
    /// host's better moments rather than averaging the neighbours' load
    /// in. (The plain p10 is in the record.)
    pub p10_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub lag_p99_ms: f64,
    pub ok: usize,
    pub jobs_per_s: f64,
    pub wall_s: f64,
    /// Record entries: sample counts and the highest supported
    /// percentile.
    pub record: Vec<(&'static str, Value)>,
}

/// Summarizes a phase.
#[must_use]
pub fn figures(phase: &Phase) -> PhaseFigures {
    let latencies = stats::sorted(
        &phase
            .stamps
            .iter()
            .map(|s| s.latency_ms())
            .collect::<Vec<_>>(),
    );
    let lags = stats::sorted(&phase.stamps.iter().map(|s| s.lag_ms()).collect::<Vec<_>>());
    let n = latencies.len();
    let ok = phase.stamps.iter().filter(|s| s.ok).count();
    let wall_s = phase.wall_ns as f64 / 1e9;
    let at = |level| crate::finite(stats::percentile(&latencies, level));
    let window_p10_ms = stats::window_percentiles(&phase.stamps, WINDOW_NS, 1000);
    let mut record = vec![
        ("requests", Value::UInt(n as u64)),
        (
            "latency_ms_at",
            Value::object(
                [
                    ("p1", 100),
                    ("p10", 1000),
                    ("p25", 2500),
                    ("p50", 5000),
                    ("p90", 9000),
                    ("p99", 9900),
                ]
                .into_iter()
                .map(|(name, level)| (name, Value::Number(at(level))))
                .collect(),
            ),
        ),
        (
            "p99_samples_beyond",
            Value::UInt(stats::beyond(n, 9900) as u64),
        ),
    ];
    if let Some(level) = stats::highest_supported(n) {
        record.push((
            "highest_supported_percentile",
            Value::Number(level as f64 / 100.0),
        ));
        record.push(("latency_at_highest_supported_ms", Value::Number(at(level))));
    }
    record.push((
        "window_p10_ms",
        Value::Array(
            window_p10_ms
                .iter()
                .map(|v| Value::Number(crate::finite(*v)))
                .collect(),
        ),
    ));
    record.push((
        "lag_max_ms",
        Value::Number(lags.last().copied().unwrap_or(0.0)),
    ));
    PhaseFigures {
        p10_ms: crate::finite(stats::percentile(&stats::sorted(&window_p10_ms), 1000)),
        p50_ms: at(5000),
        p99_ms: at(9900),
        lag_p99_ms: stats::percentile(&lags, 9900),
        ok,
        jobs_per_s: ok as f64 / wall_s.max(1e-9),
        wall_s,
        record,
    }
}

/// Why a phase's figures describe the generator rather than the fleet,
/// if they do.
#[must_use]
pub fn invalid_reasons(figures: &PhaseFigures, rate: f64) -> Vec<String> {
    let mut reasons = Vec::new();
    if figures.lag_p99_ms > LAG_P99_LIMIT_MS {
        reasons.push(format!(
            "loadgen lag p99 {:.3} ms exceeds the {LAG_P99_LIMIT_MS} ms limit",
            figures.lag_p99_ms
        ));
    }
    if figures.jobs_per_s < MIN_RATE_SHARE * rate {
        reasons.push(format!(
            "completed {:.1} jobs/s, below {MIN_RATE_SHARE} of the offered {rate} jobs/s (backlog grew)",
            figures.jobs_per_s
        ));
    }
    reasons
}

/// Runs the measured pass of a service workload.
///
/// # Errors
///
/// When the inputs cannot be built or the fleet cannot boot.
pub fn measure(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let rate = workload.rate().expect("service workloads are open-loop");
    let inputs = inputs(workload, seed, seconds)?;

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut fleet = None;
    for k in 0..SETUP_REPEATS {
        drop(fleet.take());
        if k > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        let start = Instant::now();
        fleet = Some(boot_warm(&inputs.warmup)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let fleet = fleet.expect("at least one set-up");

    let me = std::process::id();
    let cpu_before = fleet.cpu()?;
    let gen_before = procfs::cpu_ms(me).map_err(|e| e.to_string())?;
    let phase = loadgen::run(
        fleet.front(),
        &inputs.bodies,
        &inputs.expected,
        rate,
        threads(),
    );
    let cpu = fleet.cpu()?.since(&cpu_before);
    let gen_ms = procfs::cpu_ms(me).map_err(|e| e.to_string())? - gen_before;
    let rss_by_process_mb = fleet.hwm_mb()?;
    drop(fleet);

    let f = figures(&phase);
    let reasons = invalid_reasons(&f, rate);
    for reason in &reasons {
        eprintln!("fq-perfbench: run invalid: {reason}");
    }
    let failed = phase.failures();
    let mut record = vec![
        ("valid", Value::Bool(reasons.is_empty())),
        (
            "invalid_reasons",
            Value::Array(reasons.into_iter().map(Value::string).collect()),
        ),
        ("offered_jobs_per_s", Value::Number(rate)),
        (
            "setup_samples_s",
            Value::Array(setup_s.iter().map(|s| Value::Number(*s)).collect()),
        ),
        (
            "error_rate",
            Value::Number(failed as f64 / phase.stamps.len().max(1) as f64),
        ),
        ("mismatches", Value::UInt(phase.mismatches() as u64)),
        ("loadgen_lag_p99_ms", Value::Number(f.lag_p99_ms)),
        (
            "loadgen_cpu_share",
            Value::Number(gen_ms / (f.wall_s * 1e3 * threads() as f64)),
        ),
        // Per process, shards then dispatcher: rendezvous routing over
        // ephemeral ports splits the families between the shards
        // differently in each run, and each shard retains at most 4096
        // finished jobs, so the split shows in these.
        (
            "cpu_by_process_ms",
            Value::Array(
                cpu.shards
                    .iter()
                    .chain([&cpu.dispatch])
                    .map(|v| Value::Number(*v))
                    .collect(),
            ),
        ),
        (
            "rss_peak_by_process_mb",
            Value::Array(
                rss_by_process_mb
                    .iter()
                    .map(|v| Value::Number(*v))
                    .collect(),
            ),
        ),
    ];
    if let Some(first) = phase.first_failure() {
        record.push(("first_failure", Value::string(first)));
    }
    record.extend(f.record);
    Ok(Outcome {
        correct: phase.mismatches() == 0,
        attempted: phase.stamps.len() as u64,
        failed: failed as u64,
        metrics: vec![
            Metric::new("setup_s", "s", stats::median(&setup_s)),
            Metric::new("latency_p10_ms", "ms", f.p10_ms),
            Metric::new("jobs_per_s", "1/s", f.jobs_per_s),
            Metric::new("cpu_ms_per_job", "ms", cpu.total() / f.ok.max(1) as f64),
            Metric::new("rss_peak_mb", "MiB", rss_by_process_mb.iter().sum()),
        ],
        record,
    })
}

/// GETs `/v1/stats` from `addr`.
///
/// # Errors
///
/// On transport errors, non-200 answers or unparsable bodies.
pub fn stats_of(addr: &str) -> Result<Value, String> {
    let mut conn = ShardConn::new(addr);
    conn.set_read_timeout(Duration::from_secs(5));
    let response = conn
        .request("GET", "/v1/stats", None)
        .map_err(|e| format!("GET {addr}/v1/stats: {e}"))?;
    if response.status != 200 {
        return Err(format!("GET {addr}/v1/stats: HTTP {}", response.status));
    }
    response.json().map_err(|e| e.to_string())
}
