//! Phase 2 of the plan/execute pipeline: running an
//! [`ExecutionPlan`]'s branches through an [`Executor`] backend.
//!
//! Every branch is an independent job — optimize its `(γ, β)`, then
//! evaluate the ideal/noisy expectations against the plan's shared
//! template, or angle-edit that template into the branch's executable (no
//! recompilation) and sample the noisy device. Branch jobs never
//! communicate, so they parallelize embarrassingly: [`ParallelExecutor`]
//! fans them out across worker threads (scoped `std::thread` — the
//! offline toolchain has no rayon, but the work-stealing loop below
//! serves the same role), while [`SequentialExecutor`] runs them in
//! order on the caller's thread.
//! Both produce **bit-identical** outcomes: each branch's arithmetic is
//! self-contained and results are aggregated in branch order.

use std::sync::atomic::{AtomicUsize, Ordering};

use fq_circuit::build_qaoa_circuit;
use fq_ising::{OutputDistribution, Spin};
use fq_sim::analytic::{expectation_from_terms_p1, PreparedP1};
use fq_sim::{
    ising_expectation_from_terms, noisy_expectation_from_lightcone, noisy_expectation_from_terms,
    sample_noisy, NoisySamplerConfig,
};
use fq_transpile::Device;

use crate::api::ErrorModel;
use crate::pipeline::{polish_parameters_tiered, CircuitMetrics};
use crate::plan::ExecutionPlan;
use crate::{
    optimize_parameters_multilayer, optimize_parameters_prepared, FqError, FrozenQubitsConfig,
};

/// Everything measured about one executed branch of a plan.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchOutcome {
    /// Branch index within the plan.
    pub branch: usize,
    /// The branch bitmask (bit `t` set ⇒ frozen qubit `t` is `−1`).
    pub mask: u64,
    /// Aggregation weight (2 when the branch covers a pruned partner).
    pub weight: f64,
    /// Optimized first-layer `(γ_1, β_1)`.
    pub params: (f64, f64),
    /// All optimized γ parameters (one per layer).
    pub gammas: Vec<f64>,
    /// All optimized β parameters (one per layer).
    pub betas: Vec<f64>,
    /// Ideal expectation at the optimized parameters.
    pub ev_ideal: f64,
    /// Modelled noisy expectation at the same parameters.
    pub ev_noisy: f64,
    /// Log-EPS of the branch executable.
    pub log_eps: f64,
    /// Circuit-level cost metrics of the branch executable.
    pub metrics: CircuitMetrics,
}

/// One branch's sampling result, decoded into the parent space.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchSamples {
    /// Branch index within the plan.
    pub branch: usize,
    /// Decoded outcomes of the executed sub-circuit.
    pub decoded: OutputDistribution,
    /// Outcomes inferred for the pruned symmetric partner (§3.7.2), when
    /// the branch covers one.
    pub partner_decoded: Option<OutputDistribution>,
}

/// Which deterministic noise model [`Executor::execute_with`] evaluates
/// the modelled-hardware expectation under.
///
/// Both models are closed-form and deterministic; they differ in
/// granularity, and a [`Backend`](crate::api::Backend) picks one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
#[non_exhaustive]
pub enum NoiseEval {
    /// Per-term lightcone fidelity attenuation (the paper's model; the
    /// default used by the analytic pipeline since PR 1).
    #[default]
    Lightcone,
    /// A single global process-fidelity attenuation per circuit — coarser
    /// but cheaper, the classic depolarizing-channel estimate.
    ProcessFidelity,
}

/// A branch-execution backend consuming an [`ExecutionPlan`].
///
/// Implementations decide *scheduling* only; the per-branch math is shared
/// and deterministic, so any two executors return identical results in
/// identical order.
pub trait Executor {
    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Runs the analytic pipeline for every branch under an explicit
    /// noise model: parameter optimization, ideal + modelled-noisy
    /// expectations, EPS and circuit metrics.
    /// Outcomes are in branch order.
    ///
    /// # Errors
    ///
    /// Propagates the first branch failure (by branch order).
    fn execute_with(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        noise: NoiseEval,
    ) -> Result<Vec<BranchOutcome>, FqError>;

    /// Runs the analytic pipeline under the default
    /// [`NoiseEval::Lightcone`] model (the paper's methodology).
    ///
    /// # Errors
    ///
    /// Propagates the first branch failure (by branch order).
    fn execute(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
    ) -> Result<Vec<BranchOutcome>, FqError> {
        self.execute_with(plan, device, config, NoiseEval::Lightcone)
    }

    /// Runs the sampling pipeline for every branch: parameter
    /// optimization, template instantiation, Monte-Carlo noisy sampling
    /// and decoding (including pruned-partner inference). Results are in
    /// branch order.
    ///
    /// # Errors
    ///
    /// Propagates the first branch failure (by branch order).
    fn sample(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        shots: u64,
    ) -> Result<Vec<BranchSamples>, FqError>;
}

/// Which [`Executor`] backend the pipeline wrappers should build.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ExecutorKind {
    /// Run branches in order on the caller's thread.
    Sequential,
    /// Fan branches out across all available cores — or across
    /// `FQ_THREADS` workers when that environment variable is set to an
    /// integer ≥ 1 (see [`auto_threads`]). The default: results are
    /// identical to sequential, only faster.
    #[default]
    Parallel,
    /// Fan branches out across a fixed number of worker threads
    /// (ignores `FQ_THREADS`).
    Threads(usize),
}

impl ExecutorKind {
    /// Builds the backend this kind describes.
    #[must_use]
    pub fn build(self) -> Box<dyn Executor + Send + Sync> {
        match self {
            ExecutorKind::Sequential => Box::new(SequentialExecutor),
            ExecutorKind::Parallel => Box::new(ParallelExecutor::default()),
            ExecutorKind::Threads(t) => Box::new(ParallelExecutor::new(t)),
        }
    }
}

/// Runs branches one after another on the caller's thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn execute_with(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        noise: NoiseEval,
    ) -> Result<Vec<BranchOutcome>, FqError> {
        (0..plan.num_branches())
            .map(|b| execute_branch(plan, b, device, config, noise))
            .collect()
    }

    fn sample(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        shots: u64,
    ) -> Result<Vec<BranchSamples>, FqError> {
        (0..plan.num_branches())
            .map(|b| sample_branch(plan, b, device, config, shots))
            .collect()
    }
}

/// Fans branches out across worker threads.
///
/// Workers claim branch indices from a shared atomic counter (simple
/// work stealing), so load imbalance between branches — e.g. differing
/// parameter-optimization convergence — does not serialize the run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParallelExecutor {
    /// Worker count; 0 means one per available core.
    pub threads: usize,
}

impl ParallelExecutor {
    /// An executor using `threads` workers (0 = auto: the `FQ_THREADS`
    /// environment override if set and valid, else one per available
    /// core).
    #[must_use]
    pub fn new(threads: usize) -> ParallelExecutor {
        ParallelExecutor { threads }
    }

    fn effective_threads(&self, jobs: usize) -> usize {
        let t = if self.threads == 0 {
            auto_threads()
        } else {
            self.threads
        };
        t.min(jobs).max(1)
    }
}

/// Resolves the automatic worker count used whenever a thread knob is 0:
/// the `FQ_THREADS` environment variable if it parses as an integer ≥ 1
/// (anything else — empty, non-numeric, or `0` — is ignored), otherwise
/// one worker per available core.
///
/// This is the single override point for [`ExecutorKind::Parallel`] and
/// the batch engine's auto mode, so one variable caps every pool in the
/// process — the standard way to pin CI runners or share a box.
#[must_use]
pub fn auto_threads() -> usize {
    if let Ok(raw) = std::env::var("FQ_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

impl Executor for ParallelExecutor {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn execute_with(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        noise: NoiseEval,
    ) -> Result<Vec<BranchOutcome>, FqError> {
        let n = plan.num_branches();
        par_map(self.effective_threads(n), n, |b| {
            execute_branch(plan, b, device, config, noise)
        })
    }

    fn sample(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        shots: u64,
    ) -> Result<Vec<BranchSamples>, FqError> {
        let n = plan.num_branches();
        par_map(self.effective_threads(n), n, |b| {
            sample_branch(plan, b, device, config, shots)
        })
    }
}

/// Maps `job` over `0..n` on `threads` scoped workers, preserving index
/// order in the output. The first error (by index) wins, matching the
/// sequential executor's error behaviour.
fn par_map<T: Send>(
    threads: usize,
    n: usize,
    job: impl Fn(usize) -> Result<T, FqError> + Sync,
) -> Result<Vec<T>, FqError> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let mut out = Vec::with_capacity(n);
    for result in par_collect(threads, n, job) {
        out.push(result?);
    }
    Ok(out)
}

/// Runs `job` over `0..n` on `threads` scoped workers and returns all
/// results in index order — the work-stealing primitive under both
/// [`par_map`] and the batch engine's jobs×branches pool.
///
/// Workers claim indices from one shared atomic counter, so a slow item
/// never serializes its successors; each result lands in a single
/// pre-sized buffer through its claimed index (disjoint writes — no
/// per-item lock, no per-item allocation).
#[allow(unsafe_code)] // sole caller of `disjoint::Writer::write`; see the SAFETY note below
pub(crate) fn par_collect<T: Send>(
    threads: usize,
    n: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let writer = disjoint::Writer::new(&mut slots);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = job(i);
                // SAFETY: `i` came from `fetch_add` on a counter that
                // starts at 0 and only grows, so every in-range index is
                // claimed by exactly one worker — writes are disjoint —
                // and `i < n` was checked above. The scope joins all
                // workers before `slots` is read again.
                unsafe { writer.write(i, value) };
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every index was claimed by a worker"))
        .collect()
}

/// The one unsafe corner of the crate: a shared writer over a pre-sized
/// `Option<T>` buffer whose callers guarantee index-disjoint writes.
///
/// Equivalent in spirit to `rayon`'s collect-into-vec plumbing (the
/// offline toolchain has no rayon): claiming indices through an atomic
/// counter makes each slot exclusively owned by one worker, so no
/// per-slot lock is needed.
#[allow(unsafe_code)]
mod disjoint {
    use std::marker::PhantomData;

    pub(super) struct Writer<'a, T> {
        ptr: *mut Option<T>,
        len: usize,
        _buf: PhantomData<&'a mut [Option<T>]>,
    }

    // SAFETY: sharing the writer across threads only permits `write`,
    // whose contract makes all concurrent accesses disjoint; `T: Send`
    // lets the written values cross threads.
    unsafe impl<T: Send> Sync for Writer<'_, T> {}

    impl<'a, T> Writer<'a, T> {
        /// Wraps `buf`, borrowing it mutably for the writer's lifetime so
        /// no safe code can alias the slots while workers write.
        pub(super) fn new(buf: &'a mut [Option<T>]) -> Writer<'a, T> {
            Writer {
                ptr: buf.as_mut_ptr(),
                len: buf.len(),
                _buf: PhantomData,
            }
        }

        /// Writes `value` into slot `i`.
        ///
        /// # Safety
        ///
        /// `i` must be in bounds and no two calls (across all threads) may
        /// use the same `i`; the buffer must not be read until all writers
        /// are joined. The overwritten `None` needs no drop.
        pub(super) unsafe fn write(&self, i: usize, value: T) {
            debug_assert!(i < self.len, "disjoint write out of bounds");
            // SAFETY: in-bounds per the contract; exclusive access to this
            // slot per the disjoint-index contract.
            unsafe { self.ptr.add(i).write(Some(value)) };
        }
    }
}

/// The shared per-branch analytic job: optimize, then evaluate against
/// the template's shared structure tables. (`pub(crate)`: the batch
/// engine drives branches directly through its flattened jobs×branches
/// pool.)
pub(crate) fn execute_branch(
    plan: &ExecutionPlan,
    branch: usize,
    device: &Device,
    config: &FrozenQubitsConfig,
    noise: NoiseEval,
) -> Result<BranchOutcome, FqError> {
    let exec = plan.branch(branch);
    let model = exec.problem.model();
    let p = plan.layers();
    // The QoS contract: `None` is the exact path (bit-identical to every
    // pre-tier release); `Some(em)` swaps in the approximate optimizer
    // and noise estimator that `em`'s knobs describe.
    let em = ErrorModel::for_tier(config.tier);
    // For p = 1, one structure gather serves the whole branch: the grid
    // scan, the Nelder–Mead refinement, and the final term evaluation.
    let prepared = (p == 1).then(|| PreparedP1::new(model));
    let (gammas, betas) = match (&prepared, em.as_ref()) {
        // The tiers optimize once per plan on the representative branch
        // and share the angles across siblings (the plan memoizes them);
        // `balanced` additionally polishes the shared seed on each
        // branch's own landscape (`fast`'s zero budget skips it); the
        // exact path optimizes every branch from scratch.
        (Some(prep), Some(em)) => {
            let shared = plan.tier_params(em, config)?;
            let (g, b) = polish_parameters_tiered(prep, em, shared.0[0], shared.1[0]);
            (vec![g], vec![b])
        }
        (None, Some(em)) => {
            let shared = plan.tier_params(em, config)?;
            (shared.0.clone(), shared.1.clone())
        }
        (Some(prep), None) => {
            let (g, b) = optimize_parameters_prepared(prep, config.param_grid)?;
            (vec![g], vec![b])
        }
        (None, None) => optimize_parameters_multilayer(model, p, config.param_grid)?,
    };
    // Every tier evaluates on the template's memoized structure tables
    // (cone fidelities, attenuation, EPS, metrics). None of them reads an
    // angle and every sibling shares the template's structure, so they
    // are the same bits for every branch and job on this template (see
    // `BranchTables`), and the branch's angles never need editing in.
    // Exact walks the full cones; the tiers truncate them at their own
    // depth.
    let depth = em.as_ref().map_or(usize::MAX, |em| em.lightcone_depth);
    let tables = plan
        .template_for(branch)
        .branch_tables(model, p, device, depth)?;
    // The per-term expectations are computed once; the scalar ideal
    // expectation is assembled from them bit-identically instead of a
    // second full evaluation (the old two-call path recomputed every
    // trigonometric factor).
    let (ev_ideal, z, zz) = if let Some(prep) = &prepared {
        let (z, zz) = prep.terms_at(gammas[0], betas[0]);
        let ev = expectation_from_terms_p1(model, &z, &zz)?;
        (ev, z, zz)
    } else {
        let qc = build_qaoa_circuit(model, p)?;
        let bound = qc.bind(&gammas, &betas)?;
        let sv = fq_sim::run_circuit(&bound)?;
        let (z, zz) = sv.term_expectations(model)?;
        let ev = ising_expectation_from_terms(model, &z, &zz)?;
        (ev, z, zz)
    };
    let ev_noisy = match noise {
        NoiseEval::Lightcone => {
            noisy_expectation_from_lightcone(model, &z, &zz, &tables.fid, &tables.cones)?
        }
        NoiseEval::ProcessFidelity => noisy_expectation_from_terms(model, &z, &zz, &tables.fid)?,
    };
    Ok(BranchOutcome {
        branch,
        mask: exec.mask,
        weight: plan.branch_weight(branch),
        params: (gammas[0], betas[0]),
        gammas,
        betas,
        ev_ideal,
        ev_noisy,
        log_eps: tables.eps_log,
        metrics: tables.metrics,
    })
}

/// The shared per-branch sampling job: optimize, instantiate, sample,
/// decode (with pruned-partner inference).
pub(crate) fn sample_branch(
    plan: &ExecutionPlan,
    branch: usize,
    device: &Device,
    config: &FrozenQubitsConfig,
    shots: u64,
) -> Result<BranchSamples, FqError> {
    let exec = plan.branch(branch);
    let model = exec.problem.model();
    let (gammas, betas) = optimize_parameters_multilayer(model, plan.layers(), config.param_grid)?;
    let edited = plan.template_for(branch).edit_for(model)?;
    let bound = edited.circuit.bind(&gammas, &betas)?;
    let compiled = edited.instantiate(bound);
    let sampler = NoisySamplerConfig {
        shots,
        trajectories: 16,
        seed: config.seed.wrapping_add(branch as u64),
    };
    let sub_dist = sample_noisy(&compiled, device, sampler)?;

    let decoded = sub_dist.decode(&exec.problem)?;

    // Infer the pruned partner: flip every sub-space bit, then decode
    // through the partner's frozen assignment (§3.7.2).
    let partner_decoded = if exec.partner_mask.is_some() {
        let partner_assignment: Vec<(usize, Spin)> = exec
            .problem
            .frozen()
            .iter()
            .map(|&(q, s)| (q, s.flipped()))
            .collect();
        let partner = plan.parent_model().freeze(&partner_assignment)?;
        Some(sub_dist.flipped().decode(&partner)?)
    } else {
        None
    };

    Ok(BranchSamples {
        branch,
        decoded,
        partner_decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_execution;
    use fq_graphs::{gen, to_ising_pm1};
    use fq_ising::IsingModel;

    fn ba_model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let model = ba_model(12, 11);
        let cfg = FrozenQubitsConfig::with_frozen(3);
        let device = Device::ibm_montreal();
        let plan = plan_execution(&model, &device, &cfg).unwrap();
        let seq = SequentialExecutor.execute(&plan, &device, &cfg).unwrap();
        let par = ParallelExecutor::new(0)
            .execute(&plan, &device, &cfg)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 4);
        assert!(seq.iter().enumerate().all(|(i, o)| o.branch == i));
    }

    #[test]
    fn par_map_preserves_order_and_first_error() {
        let ok: Result<Vec<usize>, _> = par_map(4, 32, |i| Ok(i * i));
        assert_eq!(ok.unwrap(), (0..32).map(|i| i * i).collect::<Vec<_>>());

        let err = par_map(4, 8, |i| {
            if i >= 3 {
                Err(FqError::InvalidConfig(format!("branch {i}")))
            } else {
                Ok(i)
            }
        });
        match err {
            Err(FqError::InvalidConfig(msg)) => assert_eq!(msg, "branch 3"),
            other => panic!("expected first error by index, got {other:?}"),
        }
    }

    #[test]
    fn executor_names_and_thread_clamping() {
        assert_eq!(SequentialExecutor.name(), "sequential");
        assert_eq!(ParallelExecutor::default().name(), "parallel");
        assert_eq!(ParallelExecutor::new(7).effective_threads(2), 2);
        assert_eq!(ParallelExecutor::new(2).effective_threads(16), 2);
        assert!(ParallelExecutor::new(0).effective_threads(64) >= 1);
        // An explicit thread count always wins over the env override.
        assert!(auto_threads() >= 1);
    }

    #[test]
    fn par_collect_preserves_index_order() {
        assert_eq!(
            par_collect(4, 64, |i| i * 3),
            (0..64).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert_eq!(par_collect(4, 0, |i| i), Vec::<usize>::new());
    }

    // The old `execute_branch` evaluated the ideal expectation twice —
    // once as a scalar, once per term. The single-pass assembly must be
    // bit-identical to that two-call path, at p = 1 and p ≥ 2.
    #[test]
    fn single_pass_ev_matches_the_old_two_call_path() {
        use fq_sim::analytic::expectation_p1;
        let device = Device::ibm_montreal();
        for (p, n) in [(1usize, 12usize), (2, 10)] {
            let parent = ba_model(n, 17);
            let cfg = FrozenQubitsConfig {
                layers: p,
                ..FrozenQubitsConfig::with_frozen(2)
            };
            let plan = plan_execution(&parent, &device, &cfg).unwrap();
            for b in 0..plan.num_branches() {
                let out = execute_branch(&plan, b, &device, &cfg, NoiseEval::Lightcone).unwrap();
                let model = plan.branch(b).problem.model();
                let old_ev = if p == 1 {
                    expectation_p1(model, out.gammas[0], out.betas[0]).unwrap()
                } else {
                    let qc = build_qaoa_circuit(model, p).unwrap();
                    let bound = qc.bind(&out.gammas, &out.betas).unwrap();
                    fq_sim::run_circuit(&bound)
                        .unwrap()
                        .expectation_ising(model)
                        .unwrap()
                };
                assert_eq!(out.ev_ideal, old_ev, "p={p} branch {b}");
            }
        }
    }

    // The exact tier used to angle-edit every branch's executable and
    // re-derive its noise tables, EPS and metrics from the edited
    // circuit. It now reads the template's memoized tables at full cone
    // depth; every output must be the same bits as that old per-branch
    // recomputation, for both noise models, at p = 1 and p = 2, and a
    // second plan over the same template cache must reuse the tables.
    // The p = 1 template is longer than the tiers' 192-gate cone depth,
    // so exact reading truncated cones would fail here too.
    #[test]
    fn exact_branch_tables_match_the_old_per_branch_recomputation() {
        use crate::pipeline::metrics_of;
        use crate::{plan_execution_cached, TemplateCache};
        use fq_sim::{fidelity_model, log_eps, noisy_expectation_lightcone};
        use std::sync::Arc;

        let device = Device::ibm_montreal();
        let cache = TemplateCache::new();
        for (p, n, attach) in [(1usize, 28usize, 2usize), (2, 12, 1)] {
            let parent = to_ising_pm1(&gen::barabasi_albert(n, attach, 23).unwrap(), 23);
            let cfg = FrozenQubitsConfig {
                layers: p,
                prune_symmetric: false,
                ..FrozenQubitsConfig::with_frozen(3)
            };
            let plan = plan_execution_cached(&parent, &device, &cfg, &cache).unwrap();
            assert_eq!(plan.num_branches(), 8);
            if p == 1 {
                let gates = plan.template_for(0).compiled().circuit.len();
                assert!(
                    gates > ErrorModel::balanced().lightcone_depth,
                    "{gates} gates"
                );
            }
            for noise in [NoiseEval::Lightcone, NoiseEval::ProcessFidelity] {
                for b in 0..plan.num_branches() {
                    let out = execute_branch(&plan, b, &device, &cfg, noise).unwrap();
                    let model = plan.branch(b).problem.model();
                    let edited = plan.template_for(b).edit_for(model).unwrap();
                    let (z, zz) = if p == 1 {
                        PreparedP1::new(model).terms_at(out.gammas[0], out.betas[0])
                    } else {
                        let qc = build_qaoa_circuit(model, p).unwrap();
                        let bound = qc.bind(&out.gammas, &out.betas).unwrap();
                        let sv = fq_sim::run_circuit(&bound).unwrap();
                        sv.term_expectations(model).unwrap()
                    };
                    let old_noisy = match noise {
                        NoiseEval::Lightcone => {
                            noisy_expectation_lightcone(model, &z, &zz, &edited, &device).unwrap()
                        }
                        NoiseEval::ProcessFidelity => {
                            let fid = fidelity_model(&edited, &device);
                            noisy_expectation_from_terms(model, &z, &zz, &fid).unwrap()
                        }
                    };
                    let at = format!("p={p} {noise:?} branch {b}");
                    assert_eq!(out.ev_noisy.to_bits(), old_noisy.to_bits(), "{at}");
                    let old_eps = log_eps(&edited, &device);
                    assert_eq!(out.log_eps.to_bits(), old_eps.to_bits(), "{at}");
                    assert_eq!(out.metrics, metrics_of(model, p, &edited), "{at}");
                }
            }

            let again = plan_execution_cached(&parent, &device, &cfg, &cache).unwrap();
            for b in 0..plan.num_branches() {
                let model = plan.branch(b).problem.model();
                let first = plan
                    .template_for(b)
                    .branch_tables(model, p, &device, usize::MAX);
                let second = again
                    .template_for(b)
                    .branch_tables(model, p, &device, usize::MAX);
                assert!(
                    Arc::ptr_eq(&first.unwrap(), &second.unwrap()),
                    "p={p} branch {b}: the second plan rebuilt the tables"
                );
            }
        }
    }

    #[test]
    fn sampling_covers_partner_branches() {
        let model = ba_model(6, 13);
        let cfg = FrozenQubitsConfig::default();
        let device = Device::ibm_montreal();
        let plan = plan_execution(&model, &device, &cfg).unwrap();
        let seq = SequentialExecutor
            .sample(&plan, &device, &cfg, 256)
            .unwrap();
        let par = ParallelExecutor::new(0)
            .sample(&plan, &device, &cfg, 256)
            .unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 1, "m=1 pruned executes one branch");
        assert!(seq[0].partner_decoded.is_some());
    }
}
