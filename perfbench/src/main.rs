//! `fq-perfbench`: the repository benchmark.
//!
//! ```text
//! fq-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out PATH]
//! ```
//!
//! Run from the repository root (it reads `suites/` and writes scratch
//! stores under `.bench_work/`), normally through `perfbench/run.sh`,
//! which first builds this binary and the `serve`/`dispatch` binaries
//! into one target directory.
//!
//! Workloads:
//!
//! * `serve-exact` — open-loop load through `dispatch` → 2 × `serve`,
//!   `bench-batch` families at the exact tier, 300 jobs/s;
//! * `serve-fast-mix` — the same fleet and families, 60% fast / 30%
//!   balanced / 10% exact, 600 jobs/s;
//! * `batch-cold-large` — closed in-process passes over the `large`,
//!   `core` and `adversarial` corpora on one core, each job by job over
//!   a fresh runner and a fresh disk-backed template store. It is not
//!   in `BENCHMARK.json`: its large-n jobs slow by half when a shared
//!   host's neighbours get busy for minutes at a time, more than any
//!   bound allows; it stays runnable for the cold-compile, device-build
//!   and store-write layers at scale, which only it exercises.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the separate traced pass and reports per-layer
//! metrics. Every response is byte-compared with an in-process
//! reference computed outside the timed phases. The last stdout line is
//! the result object; the line before it is the run record (provenance,
//! validity, sample counts), which `--out` also writes to a file.

mod batch;
mod engine;
mod fleet;
mod loadgen;
mod procfs;
mod provenance;
mod serve;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use serde::json::Value;

use workload::Workload;

/// Where the benchmark keeps its scratch template stores, relative to
/// the checkout root.
pub const WORK_DIR: &str = ".bench_work";

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    #[must_use]
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// What one run reports.
pub struct Outcome {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (transport, timeout, non-200, shed, or
    /// wrong bytes).
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Free-form run record: sample counts, validity, diagnostics.
    pub record: Vec<(&'static str, Value)>,
}

/// An unbounded latency (a failed request) as written to JSON, in ms.
const UNBOUNDED_MS: f64 = 1e9;

fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        UNBOUNDED_MS
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
}

const USAGE: &str =
    "usage: fq-perfbench --workload serve-exact|serve-fast-mix|batch-cold-large --seed N --seconds S --trace 0|1 [--out PATH]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} must be a non-negative integer, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                });
            }
            "--out" => out = Some(value.clone()),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::BatchColdLarge, false) => batch::measure(args.seed, args.seconds),
        (Workload::BatchColdLarge, true) => trace::batch(args.seed),
        (w, false) => serve::measure(w, args.seed, args.seconds),
        (w, true) => trace::serve(w, args.seed, args.seconds),
    }
}

fn result_json(outcome: &Outcome) -> Value {
    Value::object(vec![
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::UInt(outcome.attempted)),
        ("failed", Value::UInt(outcome.failed)),
        (
            "metrics",
            Value::object(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name,
                            Value::object(vec![
                                ("value", Value::Number(finite(m.value))),
                                ("unit", Value::string(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("fq-perfbench: {message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let steal_before = procfs::steal_ms();
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("fq-perfbench: {}: {message}", args.workload.name());
            let _ = std::fs::remove_dir_all(batch::work_dir());
            return ExitCode::FAILURE;
        }
    };
    let _ = std::fs::remove_dir_all(batch::work_dir());
    // Gone unless another run still uses it.
    let _ = std::fs::remove_dir(WORK_DIR);
    let mut record = provenance::collect(args.workload.name(), args.seed, args.seconds, args.trace);
    record.push(("steal_ms", Value::Number(procfs::steal_ms() - steal_before)));
    record.extend(outcome.record.iter().cloned());
    let record = Value::object(record);
    let result = result_json(&outcome);
    if let Some(path) = &args.out {
        let text =
            Value::object(vec![("record", record.clone()), ("result", result.clone())]).to_json();
        if let Err(e) = std::fs::write(path, text + "\n") {
            eprintln!("fq-perfbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", Value::object(vec![("record", record)]).to_json());
    println!("{}", result.to_json());
    ExitCode::SUCCESS
}
