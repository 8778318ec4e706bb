//! In-process layer timings: spans recorded around calls into each
//! layer's public functions from the benchmark's own code, so the
//! program under test is unchanged.
//!
//! The exact p = 1 branch path is replicated stage by stage and must
//! reproduce the engine's `ev_ideal` and `ev_noisy` bit for bit, so the
//! stage times are known to describe the work the engine really does.

use std::io::BufReader;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fq_serve::http;
use fq_sim::analytic::{expectation_from_terms_p1, PreparedP1};
use fq_sim::{log_eps, noisy_expectation_lightcone};
use frozenqubits::api::{BackendSpec, BatchRunner, JobKind, JobResult, JobSpec};
use frozenqubits::{
    optimize_parameters_prepared, plan_execution_cached, CompiledTemplate, DiskStore,
    FrozenQubitsConfig, QosTier, RunSummary, StoreStats, TemplateArtifact, TemplateCache,
    TemplateIndexEntry, TemplateKey, TemplateStore,
};

use crate::stats;

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64 / 1e3
}

/// Request bytes as the generator's keep-alive connection frames a
/// `POST /v1/jobs` to `addr` (see `fq_serve::client::ShardConn::request`).
#[must_use]
pub fn request_bytes(addr: &str, body: &str) -> Vec<u8> {
    format!(
        "POST /v1/jobs HTTP/1.1\r\nhost: {addr}\r\nconnection: keep-alive\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The shard's request-body bound (`ServerConfig::default`).
const MAX_BODY: usize = 4 * 1024 * 1024;

/// Mean wire-layer costs per job, µs: HTTP request parse, HTTP response
/// write, spec decode, result encode.
pub struct WireCosts {
    pub parse_us: f64,
    pub write_us: f64,
    pub decode_us: f64,
    pub encode_us: f64,
}

/// Times the HTTP and wire codecs over each spec's real bytes and its
/// result, `reps` times; each figure is the median over repetitions of
/// the per-job mean.
///
/// # Errors
///
/// When a codec rejects bytes the service accepts.
pub fn wire_costs(
    specs: &[JobSpec],
    results: &[JobResult],
    reps: usize,
) -> Result<WireCosts, String> {
    let texts: Vec<String> = specs.iter().map(JobSpec::to_json).collect();
    let requests: Vec<Vec<u8>> = texts
        .iter()
        // The dispatcher's default address stands in for the run's
        // ephemeral one: same framing, same header lengths to a digit.
        .map(|t| request_bytes("127.0.0.1:8070", t))
        .collect();
    let bodies: Vec<String> = results.iter().map(JobResult::to_json).collect();
    let n = specs.len().max(1) as f64;
    let (mut parse, mut write, mut decode, mut encode) = (vec![], vec![], vec![], vec![]);
    for _ in 0..reps {
        let start = Instant::now();
        for bytes in &requests {
            let request = http::read_request(&mut BufReader::new(&bytes[..]), MAX_BODY)
                .map_err(|e| format!("parsing generator bytes: {}", e.message()))?;
            std::hint::black_box(request);
        }
        parse.push(us_since(start) / n);

        let start = Instant::now();
        for body in &bodies {
            let mut out = Vec::with_capacity(body.len() + 128);
            http::Response::json(200, body.as_str())
                .write(&mut out, true)
                .map_err(|e| format!("writing a response: {e}"))?;
            std::hint::black_box(out);
        }
        write.push(us_since(start) / n);

        let start = Instant::now();
        for text in &texts {
            std::hint::black_box(
                JobSpec::from_json(text).map_err(|e| format!("decoding a spec: {e}"))?,
            );
        }
        decode.push(us_since(start) / n);

        let start = Instant::now();
        for result in results {
            std::hint::black_box(result.to_json());
        }
        encode.push(us_since(start) / n);
    }
    Ok(WireCosts {
        parse_us: stats::median(&parse),
        write_us: stats::median(&write),
        decode_us: stats::median(&decode),
        encode_us: stats::median(&encode),
    })
}

/// One analytic execution unit of a job, as the engine decomposes it:
/// a compare job plans a baseline (`m = 0`) and a frozen unit.
fn units(spec: &JobSpec) -> Vec<FrozenQubitsConfig> {
    let baseline = || FrozenQubitsConfig {
        num_frozen: 0,
        ..spec.config.clone()
    };
    match spec.kind {
        JobKind::Baseline => vec![baseline()],
        JobKind::Compare => vec![baseline(), spec.config.clone()],
        _ => vec![spec.config.clone()],
    }
}

/// Whether the replicated branch path covers `spec`: an exact, p = 1,
/// analytic job on the lightcone-noise (`sim`) backend.
#[must_use]
pub fn replicable(spec: &JobSpec) -> bool {
    spec.config.tier == QosTier::Exact
        && spec.config.layers == 1
        && spec.backend == BackendSpec::Sim
        && matches!(
            spec.kind,
            JobKind::Baseline | JobKind::Frozen | JobKind::Compare
        )
}

/// Per-job stage times in µs (sums over the job's units and branches).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    pub problem_us: f64,
    pub device_us: f64,
    pub plan_us: f64,
    pub edit_us: f64,
    pub optimize_us: f64,
    pub terms_us: f64,
    pub lightcone_us: f64,
}

impl Stages {
    /// Field-wise medians of `runs`.
    #[must_use]
    pub fn median_of(runs: &[Stages]) -> Stages {
        let field = |f: fn(&Stages) -> f64| stats::median(&runs.iter().map(f).collect::<Vec<_>>());
        Stages {
            problem_us: field(|s| s.problem_us),
            device_us: field(|s| s.device_us),
            plan_us: field(|s| s.plan_us),
            edit_us: field(|s| s.edit_us),
            optimize_us: field(|s| s.optimize_us),
            terms_us: field(|s| s.terms_us),
            lightcone_us: field(|s| s.lightcone_us),
        }
    }

    /// Every named stage of an exact job.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.problem_us
            + self.device_us
            + self.plan_us
            + self.edit_us
            + self.optimize_us
            + self.terms_us
            + self.lightcone_us
    }
}

/// The engine's own summaries of a job, one per analytic unit in
/// decomposition order.
fn summaries(result: &JobResult) -> Result<Vec<RunSummary>, String> {
    let result = result.clone();
    match result.kind_name() {
        "baseline" => Ok(vec![result.into_baseline().map_err(|e| e.to_string())?]),
        "frozen" => Ok(vec![result.into_frozen().map_err(|e| e.to_string())?.0]),
        "compare" => {
            let report = result.into_compare().map_err(|e| e.to_string())?;
            Ok(vec![report.baseline, report.frozen])
        }
        other => Err(format!("no analytic summary in a `{other}` result")),
    }
}

/// Resolves, plans (against the warm `cache`) and executes every branch
/// of `spec` through public calls, timing each stage, then checks the
/// branch-weighted sums against the engine's `result` bit for bit.
///
/// # Errors
///
/// When a stage fails or any expectation differs from the engine's.
pub fn replicate(
    spec: &JobSpec,
    result: &JobResult,
    cache: &TemplateCache,
) -> Result<Stages, String> {
    let mut s = Stages::default();
    let start = Instant::now();
    let model = spec.problem.resolve().map_err(|e| e.to_string())?;
    s.problem_us = us_since(start);
    let start = Instant::now();
    let device = spec.device.build();
    s.device_us = us_since(start);

    let expected = summaries(result)?;
    for (config, summary) in units(spec).into_iter().zip(&expected) {
        let start = Instant::now();
        let plan =
            plan_execution_cached(&model, &device, &config, cache).map_err(|e| e.to_string())?;
        s.plan_us += us_since(start);

        // Weighted in branch order, exactly as the engine summarizes.
        let (mut w_sum, mut ideal_acc, mut noisy_acc) = (0.0f64, 0.0f64, 0.0f64);
        for b in 0..plan.num_branches() {
            let branch = plan.branch(b).problem.model();

            let start = Instant::now();
            let edited = plan
                .template_for(b)
                .edit_for(branch)
                .map_err(|e| e.to_string())?;
            s.edit_us += us_since(start);

            let start = Instant::now();
            let prepared = PreparedP1::new(branch);
            let (gamma, beta) = optimize_parameters_prepared(&prepared, config.param_grid)
                .map_err(|e| e.to_string())?;
            s.optimize_us += us_since(start);

            let start = Instant::now();
            let (z, zz) = prepared.terms_at(gamma, beta);
            let ev_ideal = expectation_from_terms_p1(branch, &z, &zz).map_err(|e| e.to_string())?;
            s.terms_us += us_since(start);

            let start = Instant::now();
            let ev_noisy = noisy_expectation_lightcone(branch, &z, &zz, &edited, &device)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(log_eps(&edited, &device));
            s.lightcone_us += us_since(start);

            let w = plan.branch_weight(b);
            w_sum += w;
            ideal_acc += w * ev_ideal;
            noisy_acc += w * ev_noisy;
        }
        let w_sum = w_sum.max(f64::MIN_POSITIVE);
        let (ideal, noisy) = (ideal_acc / w_sum, noisy_acc / w_sum);
        if ideal.to_bits() != summary.ev_ideal.to_bits()
            || noisy.to_bits() != summary.ev_noisy.to_bits()
        {
            return Err(format!(
                "replicated branch path diverged from the engine on `{}`: ev_ideal {ideal:e} vs {:e}, ev_noisy {noisy:e} vs {:e}",
                summary.label, summary.ev_ideal, summary.ev_noisy
            ));
        }
    }
    Ok(s)
}

/// Mean µs of one cold plan (fresh cache: hotspots, partition, compile)
/// minus one warm plan, per job, and the warm plan alone.
///
/// # Errors
///
/// When planning fails.
pub fn plan_costs(specs: &[JobSpec], warm: &TemplateCache) -> Result<(f64, f64), String> {
    let (mut cold_us, mut warm_us) = (0.0, 0.0);
    for spec in specs {
        let model = spec.problem.resolve().map_err(|e| e.to_string())?;
        let device = spec.device.build();
        for config in units(spec) {
            let start = Instant::now();
            let plan = plan_execution_cached(&model, &device, &config, &TemplateCache::new())
                .map_err(|e| e.to_string())?;
            cold_us += us_since(start);
            std::hint::black_box(plan);
            let start = Instant::now();
            let plan =
                plan_execution_cached(&model, &device, &config, warm).map_err(|e| e.to_string())?;
            warm_us += us_since(start);
            std::hint::black_box(plan);
        }
    }
    let n = specs.len().max(1) as f64;
    Ok(((cold_us - warm_us) / n, warm_us / n))
}

/// Mean µs per job of `ProblemSpec::resolve` and `DeviceSpec::build`.
///
/// # Errors
///
/// When a problem fails to resolve.
pub fn resolve_costs(specs: &[JobSpec]) -> Result<(f64, f64), String> {
    let (mut problem, mut device) = (0.0, 0.0);
    for spec in specs {
        let start = Instant::now();
        std::hint::black_box(spec.problem.resolve().map_err(|e| e.to_string())?);
        problem += us_since(start);
        let start = Instant::now();
        std::hint::black_box(spec.device.build());
        device += us_since(start);
    }
    let n = specs.len().max(1) as f64;
    Ok((problem / n, device / n))
}

/// One job timed through the engine.
pub struct Timed {
    /// Median µs of running the spec alone.
    pub engine_us: f64,
    /// The engine's result.
    pub result: JobResult,
    /// Per-stage medians of the replicated branch path, for replicable
    /// specs when asked for.
    pub stages: Option<Stages>,
}

/// Runs each spec alone through a warm single-threaded `runner` `reps`
/// times; with `replicate`, each engine run of a [`replicable`] spec is
/// followed by a replicated run, so both see the same machine state.
/// One engine thread keeps the work serial, like the shards' default
/// `--engine-threads 1`, so it compares with the serial stage sums.
///
/// # Errors
///
/// When a job fails or a replicated run diverges from the engine.
pub fn time_jobs(
    runner: &BatchRunner,
    specs: &[JobSpec],
    reps: usize,
    replicate: bool,
) -> Result<Vec<Timed>, String> {
    specs
        .iter()
        .map(|spec| {
            let replicate = replicate && replicable(spec);
            let (mut times, mut runs, mut last) = (Vec::with_capacity(reps), Vec::new(), None);
            for _ in 0..reps {
                let start = Instant::now();
                let result = runner
                    .run(std::slice::from_ref(spec))
                    .pop()
                    .expect("one result per spec");
                times.push(us_since(start));
                let result = result.map_err(|e| format!("engine job failed: {e}"))?;
                if replicate {
                    runs.push(self::replicate(spec, &result, runner.cache())?);
                }
                last = Some(result);
            }
            Ok(Timed {
                engine_us: stats::median(&times),
                result: last.expect("reps >= 1"),
                stages: replicate.then(|| Stages::median_of(&runs)),
            })
        })
        .collect()
}

/// Operation counters of a [`TimedStore`].
#[derive(Debug, Default)]
pub struct StoreCounters {
    inserts: AtomicU64,
    insert_ns: AtomicU64,
    fetches: AtomicU64,
    fetch_hits: AtomicU64,
    fetch_ns: AtomicU64,
}

impl StoreCounters {
    /// Mean insert µs, mean fetch µs, inserts, fetch hit ratio.
    #[must_use]
    pub fn summary(&self) -> (f64, f64, u64, f64) {
        let inserts = self.inserts.load(Ordering::Relaxed);
        let fetches = self.fetches.load(Ordering::Relaxed);
        let per =
            |ns: &AtomicU64, n: u64| ns.load(Ordering::Relaxed) as f64 / 1e3 / n.max(1) as f64;
        (
            per(&self.insert_ns, inserts),
            per(&self.fetch_ns, fetches),
            inserts,
            self.fetch_hits.load(Ordering::Relaxed) as f64 / fetches.max(1) as f64,
        )
    }
}

/// A timing wrapper around a [`DiskStore`] through the public
/// [`TemplateStore`] trait.
#[derive(Debug)]
pub struct TimedStore {
    inner: DiskStore,
    counters: Arc<StoreCounters>,
}

impl TimedStore {
    /// Wraps `inner`, counting into `counters`.
    #[must_use]
    pub fn new(inner: DiskStore, counters: Arc<StoreCounters>) -> TimedStore {
        TimedStore { inner, counters }
    }
}

impl TemplateStore for TimedStore {
    fn fetch(&self, key: &TemplateKey) -> Option<CompiledTemplate> {
        let start = Instant::now();
        let found = self.inner.fetch(key);
        let c = &self.counters;
        c.fetch_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.fetches.fetch_add(1, Ordering::Relaxed);
        if found.is_some() {
            c.fetch_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    fn insert(&self, key: &TemplateKey, template: &CompiledTemplate) {
        let start = Instant::now();
        self.inner.insert(key, template);
        let c = &self.counters;
        c.insert_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        c.inserts.fetch_add(1, Ordering::Relaxed);
    }

    fn fetch_fingerprint(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        self.inner.fetch_fingerprint(fingerprint)
    }

    fn index(&self) -> Vec<TemplateIndexEntry> {
        self.inner.index()
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}
