//! The measured (untraced) pass of `batch-cold-large`.

use std::path::PathBuf;
use std::time::Instant;

use frozenqubits::api::{BatchRunner, JobSpec};
use frozenqubits::{DiskStore, TemplateStore};
use serde::json::Value;

use crate::stats;
use crate::workload;
use crate::{procfs, Metric, Outcome, WORK_DIR};

/// Set-ups timed before the measured passes (each pass adds one more);
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 25;

/// Measured passes per run at the least, however long they take.
const MIN_PASSES: usize = 3;

/// Pins every engine pool of this process to the calling thread — the
/// batch runner's and the landscape scan's, which both read
/// `FQ_THREADS` — so a job's time is the time of its own work, not of
/// how its parts happened to share two busy vCPUs.
///
/// Call before any thread is spawned.
pub fn single_core() {
    std::env::set_var("FQ_THREADS", "1");
}

/// This process's scratch directory for template stores.
#[must_use]
pub fn work_dir() -> PathBuf {
    PathBuf::from(WORK_DIR).join(std::process::id().to_string())
}

/// A fresh, empty store directory named `name`.
///
/// # Errors
///
/// When the directory cannot be cleared or created.
pub fn fresh_store(name: &str) -> Result<DiskStore, String> {
    let dir = work_dir().join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    DiskStore::new(&dir).map_err(|e| e.to_string())
}

/// A pass's set-up: load the corpus, build the specs, and construct a
/// runner over a fresh disk-backed store wrapped by `wrap`.
///
/// # Errors
///
/// When the corpus or the store directory is unusable.
pub fn set_up(
    seed: u64,
    store: &str,
    wrap: impl FnOnce(DiskStore) -> Box<dyn TemplateStore>,
) -> Result<(Vec<JobSpec>, BatchRunner), String> {
    let specs = workload::batch_specs(seed)?;
    let runner = BatchRunner::new().with_store(wrap(fresh_store(store)?));
    Ok((specs, runner))
}

/// One pass's results checked against `expected`: (failed, mismatched,
/// first failure).
#[must_use]
pub fn check(
    results: Vec<Result<frozenqubits::JobResult, frozenqubits::FqError>>,
    expected: &[String],
) -> (usize, usize, Option<String>) {
    let (mut failed, mut mismatched, mut first) = (0, 0, None);
    for (i, result) in results.into_iter().enumerate() {
        match result {
            Ok(r) if r.to_json() == expected[i] => {}
            Ok(_) => {
                failed += 1;
                mismatched += 1;
                first.get_or_insert_with(|| format!("job {i}: bytes differ from the reference"));
            }
            Err(e) => {
                failed += 1;
                first.get_or_insert_with(|| format!("job {i}: {e}"));
            }
        }
    }
    (failed, mismatched, first)
}

/// The nearest-rank p10 of `samples`.
fn p10(samples: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(samples), 1000)
}

/// Runs the measured pass of `batch-cold-large`.
///
/// Each pass runs the corpus job by job, in order, through one fresh
/// runner over one fresh store, so templates are shared within a pass
/// exactly as in a single batch call, and every job's wall and CPU time
/// is recorded. On a shared host the CPU's speed swings by half within
/// seconds, so a pass's makespan is mostly a sample of the neighbours'
/// load; the reported cold-pass time and CPU are instead sums of each
/// job's p10 over the passes, which take every job at the host's
/// quieter moments.
///
/// # Errors
///
/// When the corpus is missing or a reference job fails.
pub fn measure(seed: u64, seconds: u64) -> Result<Outcome, String> {
    single_core();
    let specs = workload::batch_specs(seed)?;
    let expected = workload::references(&specs)?;

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS + MIN_PASSES);
    for k in 0..SETUP_REPEATS {
        let start = Instant::now();
        let set = set_up(seed, &format!("setup-{k}"), |d| Box::new(d))?;
        setup_s.push(start.elapsed().as_secs_f64());
        drop(set);
        let _ = std::fs::remove_dir_all(work_dir().join(format!("setup-{k}")));
    }

    let started = Instant::now();
    let (mut job_ms, mut job_cpu_ms) =
        (vec![Vec::new(); specs.len()], vec![Vec::new(); specs.len()]);
    let mut makespans_ms = Vec::new();
    let (mut failed, mut mismatched, mut attempted) = (0, 0, 0);
    let mut first_failure = None;
    while makespans_ms.len() < MIN_PASSES || started.elapsed().as_secs() < seconds {
        let k = makespans_ms.len();
        let start = Instant::now();
        let (specs, runner) = set_up(seed, &format!("pass-{k}"), |d| Box::new(d))?;
        setup_s.push(start.elapsed().as_secs_f64());
        let pass_start = Instant::now();
        let mut results = Vec::with_capacity(specs.len());
        for (j, spec) in specs.iter().enumerate() {
            let (start, cpu_start) = (Instant::now(), procfs::thread_cpu_ms());
            results.extend(runner.run(std::slice::from_ref(spec)));
            job_cpu_ms[j].push(procfs::thread_cpu_ms() - cpu_start);
            job_ms[j].push(start.elapsed().as_secs_f64() * 1e3);
        }
        makespans_ms.push(pass_start.elapsed().as_secs_f64() * 1e3);
        drop(runner);
        let _ = std::fs::remove_dir_all(work_dir().join(format!("pass-{k}")));
        attempted += specs.len();
        let (f, m, first) = check(results, &expected);
        failed += f;
        mismatched += m;
        first_failure = first_failure.or(first);
    }
    let rss_mb = procfs::hwm_mb(std::process::id()).map_err(|e| e.to_string())?;

    let pass_ms: f64 = job_ms.iter().map(|samples| p10(samples)).sum();
    let pass_cpu_ms: f64 = job_cpu_ms.iter().map(|samples| p10(samples)).sum();
    let mut record = vec![
        ("passes", Value::UInt(makespans_ms.len() as u64)),
        ("jobs_per_pass", Value::UInt(specs.len() as u64)),
        (
            "makespans_ms",
            Value::Array(makespans_ms.iter().map(|m| Value::Number(*m)).collect()),
        ),
        ("setup_samples", Value::UInt(setup_s.len() as u64)),
        (
            "job_p10_ms",
            Value::Array(job_ms.iter().map(|v| Value::Number(p10(v))).collect()),
        ),
        (
            "error_rate",
            Value::Number(failed as f64 / attempted.max(1) as f64),
        ),
        ("mismatches", Value::UInt(mismatched as u64)),
    ];
    if let Some(first) = first_failure {
        record.push(("first_failure", Value::string(first)));
    }
    Ok(Outcome {
        correct: mismatched == 0,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: vec![
            Metric::new("setup_s", "s", stats::median(&setup_s)),
            // A closed pass's jobs all complete when the pass does, so a
            // job's latency is the pass's time, here assembled from each
            // job's p10; throughput is the corpus over that same time,
            // and CPU the same sum of each job's p10 CPU time.
            Metric::new("latency_p10_ms", "ms", pass_ms),
            Metric::new("jobs_per_s", "1/s", specs.len() as f64 * 1e3 / pass_ms),
            Metric::new("cpu_ms_per_job", "ms", pass_cpu_ms / specs.len() as f64),
            Metric::new("rss_peak_mb", "MiB", rss_mb),
        ],
        record,
    })
}
