//! Workload definitions and their seeded inputs.
//!
//! Every input is a pure function of the workload seed: the service
//! workloads draw a family, a tier and a unique pipeline seed per
//! request; the batch workload derives each scenario's pipeline seed.
//! The fleet sees only the resulting request bodies.

use std::path::Path;

use fq_suite::{Scenario, Suite};
use frozenqubits::api::{BatchRunner, JobSpec};
use frozenqubits::QosTier;

/// The scenario corpus, relative to the checkout root the benchmark runs
/// from. (Unit tests run from the package directory.)
#[cfg(not(test))]
const CORPUS_DIR: &str = "suites";
#[cfg(test)]
const CORPUS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../suites");

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `bench-batch` families, exact tier, 300 jobs/s open loop.
    ServeExact,
    /// `bench-batch` families, 60% fast / 30% balanced / 10% exact,
    /// 600 jobs/s open loop.
    ServeFastMix,
    /// `large` + `core` + `adversarial`, closed in-process passes on one
    /// core, each job by job over a fresh runner and a fresh disk-backed
    /// template store.
    BatchColdLarge,
}

/// Cumulative tier draw thresholds: a uniform draw below `.1` of an
/// entry picks its `.0`.
type Mix = &'static [(QosTier, f64)];

const EXACT_ONLY: Mix = &[(QosTier::Exact, 1.0)];
const FAST_MIX: Mix = &[
    (QosTier::Fast, 0.6),
    (QosTier::Balanced, 0.9),
    (QosTier::Exact, 1.0),
];

impl Workload {
    /// Every workload: the two service workloads `BENCHMARK.json` lists,
    /// in its order, then `batch-cold-large`.
    pub const ALL: [Workload; 3] = [
        Workload::ServeExact,
        Workload::ServeFastMix,
        Workload::BatchColdLarge,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeExact => "serve-exact",
            Workload::ServeFastMix => "serve-fast-mix",
            Workload::BatchColdLarge => "batch-cold-large",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Offered rate of an open-loop workload, jobs/s.
    #[must_use]
    pub fn rate(self) -> Option<f64> {
        match self {
            Workload::ServeExact => Some(300.0),
            Workload::ServeFastMix => Some(600.0),
            Workload::BatchColdLarge => None,
        }
    }

    fn mix(self) -> Mix {
        match self {
            Workload::ServeFastMix => FAST_MIX,
            Workload::ServeExact | Workload::BatchColdLarge => EXACT_ONLY,
        }
    }
}

/// SplitMix64: a tiny, well-mixed, seedable generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn load(name: &str) -> Result<Vec<Scenario>, String> {
    Suite::load(Path::new(CORPUS_DIR), name)
        .map(|suite| suite.scenarios)
        .map_err(|e| format!("loading suite `{name}`: {e}"))
}

fn to_spec(scenario: &Scenario) -> Result<JobSpec, String> {
    scenario
        .to_spec()
        .map_err(|e| format!("scenario `{}`: {e}", scenario.id))
}

/// One request of a service workload.
#[derive(Clone, Debug)]
pub struct Request {
    /// The validated spec.
    pub spec: JobSpec,
    /// Its canonical wire form — the exact request body.
    pub body: String,
}

/// The `bench-batch` families.
///
/// # Errors
///
/// When the corpus is missing or malformed.
pub fn families() -> Result<Vec<Scenario>, String> {
    load("bench-batch")
}

/// Builds `count` requests of a service workload from `seed`: a family
/// and a tier drawn per request, and a pipeline seed unique within the
/// run.
///
/// # Errors
///
/// When the corpus is missing or a drawn spec fails validation.
pub fn requests(workload: Workload, seed: u64, count: usize) -> Result<Vec<Request>, String> {
    let families = families()?;
    let mut rng = SplitMix::new(seed);
    let base = rng.next_u64();
    (0..count)
        .map(|i| {
            let family = (rng.next_u64() % families.len() as u64) as usize;
            let draw = rng.unit();
            let tier = workload
                .mix()
                .iter()
                .find(|(_, upto)| draw < *upto)
                .map_or(QosTier::Exact, |(tier, _)| *tier);
            let scenario = Scenario {
                seed: base.wrapping_add(i as u64),
                tier,
                ..families[family].clone()
            };
            let spec = to_spec(&scenario)?;
            let body = spec.to_json();
            Ok(Request { spec, body })
        })
        .collect()
}

/// Warm-up specs of a service workload: every (family, tier) pair its
/// mix can draw, each once, with pipeline seeds outside any run's range.
///
/// # Errors
///
/// When the corpus is missing or malformed.
pub fn warmup(workload: Workload) -> Result<Vec<JobSpec>, String> {
    let mut specs = Vec::new();
    for family in families()? {
        for (tier, _) in workload.mix() {
            specs.push(to_spec(&Scenario {
                seed: u64::MAX,
                tier: *tier,
                ..family.clone()
            })?);
        }
    }
    Ok(specs)
}

/// The batch corpus: all scenarios of `large`, `core` and
/// `adversarial`, in corpus order, with seed-derived pipeline seeds.
///
/// # Errors
///
/// When the corpus is missing or malformed.
pub fn batch_specs(seed: u64) -> Result<Vec<JobSpec>, String> {
    let mut rng = SplitMix::new(seed);
    let mut specs = Vec::new();
    for name in ["large", "core", "adversarial"] {
        for scenario in load(name)? {
            specs.push(to_spec(&Scenario {
                seed: rng.next_u64() >> 1,
                ..scenario
            })?);
        }
    }
    Ok(specs)
}

/// Reference bytes: each spec run in-process through a [`BatchRunner`]
/// with its default in-memory cache, outside every timed phase.
///
/// # Errors
///
/// When any reference job fails — the workloads are chosen so that none
/// does.
pub fn references(specs: &[JobSpec]) -> Result<Vec<String>, String> {
    BatchRunner::new()
        .run(specs)
        .into_iter()
        .enumerate()
        .map(|(i, result)| {
            result
                .map(|r| r.to_json())
                .map_err(|e| format!("reference job {i} failed: {e}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_alone_decides_the_inputs() {
        let bodies = |seed| -> Vec<String> {
            requests(Workload::ServeFastMix, seed, 1000)
                .unwrap()
                .into_iter()
                .map(|r| r.body)
                .collect()
        };
        let first = bodies(7);
        assert_eq!(first, bodies(7));
        assert_ne!(first, bodies(8));
        // Pipeline seeds are unique within a run, so no two bodies match.
        let mut unique = first.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), first.len());
        assert_eq!(batch_specs(3).unwrap(), batch_specs(3).unwrap());
        assert_eq!(batch_specs(3).unwrap().len(), 28);
    }

    #[test]
    fn the_fast_mix_draws_its_tier_shares() {
        let tiers: Vec<QosTier> = requests(Workload::ServeFastMix, 11, 2000)
            .unwrap()
            .into_iter()
            .map(|r| r.spec.config.tier)
            .collect();
        let share = |t| tiers.iter().filter(|x| **x == t).count() as f64 / tiers.len() as f64;
        assert!((share(QosTier::Fast) - 0.6).abs() < 0.05);
        assert!((share(QosTier::Balanced) - 0.3).abs() < 0.05);
        assert!((share(QosTier::Exact) - 0.1).abs() < 0.05);
        let exact = requests(Workload::ServeExact, 11, 200).unwrap();
        assert!(exact.iter().all(|r| r.spec.config.tier == QosTier::Exact));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
