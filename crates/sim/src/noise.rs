//! Noise modelling: per-gate error rates, the fidelity-product estimator
//! for noisy expectation values, and readout attenuation.
//!
//! The estimator follows the standard NISQ-compiler methodology the paper
//! itself uses at scale (§6.3): gate errors act as a global depolarizing
//! channel whose survival probability is the product of per-gate success
//! probabilities, so every traceless observable shrinks by that factor.
//! Decoherence and readout act **per qubit**: under a Pauli-twirled
//! relaxation model, `⟨Z_i⟩` decays by qubit `i`'s `exp(−T/T1)` and is
//! further attenuated by `(1 − 2ε_i)` readout error, and `⟨Z_i Z_j⟩` by
//! both qubits' factors.

use fq_circuit::Gate;
use fq_ising::IsingModel;
use fq_transpile::{Compiled, Device};
use serde::{Deserialize, Serialize};

use crate::SimError;

/// Per-gate error probabilities, parallel to a compiled circuit's gates.
///
/// `Cx` uses the coupler's calibration; `Swap` counts as three CNOTs on its
/// coupler; `Measure` uses the qubit's readout error; `Rz` is virtual and
/// error-free; other single-qubit gates use a small fixed rate (one tenth
/// of the mean CNOT error, mirroring the ~10× gap on IBM hardware).
#[must_use]
pub fn gate_error_rates(compiled: &Compiled, device: &Device) -> Vec<f64> {
    let single_err = device.mean_cnot_error() / 10.0;
    compiled
        .circuit
        .gates()
        .iter()
        .map(|g| match *g {
            Gate::Cx { control, target } => device.cnot_error(control, target),
            Gate::Swap { a, b } => {
                let e = device.cnot_error(a, b);
                1.0 - (1.0 - e).powi(3)
            }
            Gate::Measure { q } => device.readout_error(q),
            Gate::Rz { .. } => 0.0,
            Gate::H { .. } | Gate::X { .. } | Gate::Rx { .. } => single_err,
        })
        .collect()
}

/// The decomposed fidelity of a compiled circuit on a device.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FidelityModel {
    /// Product of `(1 − e)` over all gates except measurements — the
    /// global depolarizing survival factor.
    pub gate_fidelity: f64,
    /// Per-logical-qubit decoherence survival `exp(−duration/T1)` at the
    /// qubit's physical home.
    pub qubit_decay: Vec<f64>,
    /// Per-logical-qubit readout attenuation `(1 − 2ε)` at the final
    /// physical position.
    pub readout_attenuation: Vec<f64>,
    /// Log of `gate_fidelity · Π qubit_decay` — the whole-circuit survival
    /// probability (safe at 500 qubits where the plain product
    /// underflows).
    pub log_process_fidelity: f64,
}

impl FidelityModel {
    /// The whole-circuit survival factor (may underflow to 0 for huge
    /// circuits; use [`FidelityModel::log_process_fidelity`] then).
    #[must_use]
    pub fn process_fidelity(&self) -> f64 {
        self.log_process_fidelity.exp()
    }

    /// The attenuation applied to `⟨Z_i⟩`.
    #[must_use]
    pub fn z_attenuation(&self, i: usize) -> f64 {
        self.gate_fidelity * self.qubit_decay[i] * self.readout_attenuation[i]
    }

    /// The attenuation applied to `⟨Z_i Z_j⟩`.
    #[must_use]
    pub fn zz_attenuation(&self, i: usize, j: usize) -> f64 {
        self.gate_fidelity
            * self.qubit_decay[i]
            * self.qubit_decay[j]
            * self.readout_attenuation[i]
            * self.readout_attenuation[j]
    }
}

/// Computes the [`FidelityModel`] of a compiled circuit.
#[must_use]
pub fn fidelity_model(compiled: &Compiled, device: &Device) -> FidelityModel {
    let mut log_gate = 0.0f64;
    for (g, e) in compiled
        .circuit
        .gates()
        .iter()
        .zip(gate_error_rates(compiled, device))
    {
        if !matches!(g, Gate::Measure { .. }) && e > 0.0 {
            log_gate += (1.0 - e).ln();
        }
    }
    let duration_us = compiled.schedule.duration_ns / 1_000.0;
    let mut log_decay_total = 0.0f64;
    let qubit_decay: Vec<f64> = compiled
        .final_layout
        .iter()
        .map(|&p| {
            let t1 = device.t1_us(p);
            if t1.is_finite() && t1 > 0.0 {
                let d = -duration_us / t1;
                log_decay_total += d;
                d.exp()
            } else {
                1.0
            }
        })
        .collect();
    let readout_attenuation = compiled
        .final_layout
        .iter()
        .map(|&p| 1.0 - 2.0 * device.readout_error(p))
        .collect();
    FidelityModel {
        gate_fidelity: log_gate.exp(),
        qubit_decay,
        readout_attenuation,
        log_process_fidelity: log_gate + log_decay_total,
    }
}

/// Estimates the noisy expectation value `⟨C⟩_noisy` from per-term ideal
/// expectations: every traceless term is attenuated by the gate-survival
/// factor and the participating qubits' decoherence/readout factors; the
/// offset survives unattenuated (the maximally mixed state has `⟨Z⟩ = 0`).
///
/// `z_ideal[i]` must hold `⟨Z_i⟩` and `zz_ideal[k]` the `k`-th coupling's
/// `⟨Z_iZ_j⟩`, e.g. from
/// [`crate::analytic::term_expectations_p1`].
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] if the vectors do not match the
/// model.
pub fn noisy_expectation_from_terms(
    model: &IsingModel,
    z_ideal: &[f64],
    zz_ideal: &[f64],
    fidelity: &FidelityModel,
) -> Result<f64, SimError> {
    if z_ideal.len() != model.num_vars()
        || zz_ideal.len() != model.num_couplings()
        || fidelity.readout_attenuation.len() < model.num_vars()
        || fidelity.qubit_decay.len() < model.num_vars()
    {
        return Err(SimError::WidthMismatch {
            circuit: model.num_vars(),
            state: z_ideal.len(),
        });
    }
    let mut ev = model.offset();
    for (i, hi) in model.linears() {
        if hi != 0.0 {
            ev += hi * fidelity.z_attenuation(i) * z_ideal[i];
        }
    }
    for (k, ((i, j), jij)) in model.couplings().enumerate() {
        ev += jij * fidelity.zz_attenuation(i, j) * zz_ideal[k];
    }
    Ok(ev)
}

/// Per-term gate fidelities from the backward **lightcone** of each
/// Hamiltonian term in the compiled circuit.
///
/// A measured observable on qubits `S` is only affected by gates inside
/// its backward causal cone: walking the circuit in reverse from the final
/// physical positions of `S`, a gate joins the cone when it touches an
/// already-active qubit, and a two-qubit gate then activates its partner.
/// Hotspot edges have cones that cover nearly the whole circuit, while
/// post-freezing terms have small cones — this is the mechanism by which
/// FrozenQubits' CNOT savings turn into fidelity (§3.1).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LightconeFidelity {
    /// `z[i]` = gate-survival probability of `⟨Z_i⟩`'s cone.
    pub z: Vec<f64>,
    /// `zz[k]` = gate-survival probability of the `k`-th coupling's cone
    /// (model coupling order).
    pub zz: Vec<f64>,
}

/// Computes per-term lightcone gate fidelities for `model`'s terms in
/// `compiled` on `device`.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] if the model is wider than the
/// compiled circuit's logical register.
pub fn lightcone_fidelities(
    model: &IsingModel,
    compiled: &Compiled,
    device: &Device,
) -> Result<LightconeFidelity, SimError> {
    if model.num_vars() > compiled.final_layout.len() {
        return Err(SimError::WidthMismatch {
            circuit: model.num_vars(),
            state: compiled.final_layout.len(),
        });
    }
    let errors = gate_error_rates(compiled, device);
    let gates = compiled.circuit.gates();
    let width = compiled.circuit.num_qubits();

    let cone = |seed: &[usize]| -> f64 {
        let mut active = vec![false; width];
        for &l in seed {
            active[compiled.final_layout[l]] = true;
        }
        let mut log = 0.0f64;
        for (g, &e) in gates.iter().zip(&errors).rev() {
            if matches!(g, Gate::Measure { .. }) {
                continue;
            }
            let qs = g.qubits();
            if qs.iter().any(|&q| active[q]) {
                if e > 0.0 {
                    log += (1.0 - e).ln();
                }
                for q in qs {
                    active[q] = true;
                }
            }
        }
        log.exp()
    };

    let z = (0..model.num_vars()).map(|i| cone(&[i])).collect();
    let zz = model.couplings().map(|((i, j), _)| cone(&[i, j])).collect();
    Ok(LightconeFidelity { z, zz })
}

/// Like [`lightcone_fidelities`], but the reverse cone walk only visits
/// the **last** `max_depth` gates; every earlier gate contributes to a
/// shared conservative survival factor applied to every term, exactly as
/// if it were inside each cone.
///
/// This caps the per-term walk at `O(max_depth)` instead of `O(gates)`,
/// which is the `balanced` QoS tier's noise-model speedup. The estimate
/// is **conservative**: a truncated cone's fidelity is never larger than
/// the exact cone's (the prefix counts all its gates, a superset of the
/// cone's prefix gates), and never smaller than the whole-circuit gate
/// fidelity — so the truncated noisy EV always lies between the global
/// and the exact-lightcone estimates. Two exact endpoints, pinned by
/// tests: `max_depth ≥ gates` reproduces [`lightcone_fidelities`]
/// bit-for-bit, and `max_depth == 0` reproduces the global
/// [`FidelityModel::gate_fidelity`] for every term.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] if the model is wider than the
/// compiled circuit's logical register.
pub fn lightcone_fidelities_truncated(
    model: &IsingModel,
    compiled: &Compiled,
    device: &Device,
    max_depth: usize,
) -> Result<LightconeFidelity, SimError> {
    if model.num_vars() > compiled.final_layout.len() {
        return Err(SimError::WidthMismatch {
            circuit: model.num_vars(),
            state: compiled.final_layout.len(),
        });
    }
    let errors = gate_error_rates(compiled, device);
    let gates = compiled.circuit.gates();
    let width = compiled.circuit.num_qubits();
    let split = gates.len().saturating_sub(max_depth);

    // Everything before the walk window survives as one shared factor,
    // accumulated in forward gate order — the exact accumulation of
    // `fidelity_model`, so the `max_depth == 0` endpoint is bit-identical
    // to `gate_fidelity`.
    let mut prefix_log = 0.0f64;
    for (g, &e) in gates[..split].iter().zip(&errors[..split]) {
        if !matches!(g, Gate::Measure { .. }) && e > 0.0 {
            prefix_log += (1.0 - e).ln();
        }
    }

    let cone = |seed: &[usize]| -> f64 {
        let mut active = vec![false; width];
        for &l in seed {
            active[compiled.final_layout[l]] = true;
        }
        let mut log = 0.0f64;
        for (g, &e) in gates[split..].iter().zip(&errors[split..]).rev() {
            if matches!(g, Gate::Measure { .. }) {
                continue;
            }
            let qs = g.qubits();
            if qs.iter().any(|&q| active[q]) {
                if e > 0.0 {
                    log += (1.0 - e).ln();
                }
                for q in qs {
                    active[q] = true;
                }
            }
        }
        (prefix_log + log).exp()
    };

    let z = (0..model.num_vars()).map(|i| cone(&[i])).collect();
    let zz = model.couplings().map(|((i, j), _)| cone(&[i, j])).collect();
    Ok(LightconeFidelity { z, zz })
}

/// The noisy expectation value with **lightcone** gate attenuation:
/// like [`noisy_expectation_from_terms`], but each term's gate-survival
/// factor is its own causal cone's instead of the whole circuit's.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] on any dimension mismatch.
pub fn noisy_expectation_lightcone(
    model: &IsingModel,
    z_ideal: &[f64],
    zz_ideal: &[f64],
    compiled: &Compiled,
    device: &Device,
) -> Result<f64, SimError> {
    if z_ideal.len() != model.num_vars() || zz_ideal.len() != model.num_couplings() {
        return Err(SimError::WidthMismatch {
            circuit: model.num_vars(),
            state: z_ideal.len(),
        });
    }
    let fid = fidelity_model(compiled, device);
    let cones = lightcone_fidelities(model, compiled, device)?;
    noisy_expectation_from_lightcone(model, z_ideal, zz_ideal, &fid, &cones)
}

/// Assembles the noisy expectation from **precomputed** attenuation
/// tables — the amortized half of the lightcone estimators, split out so
/// callers that reuse one `FidelityModel` + [`LightconeFidelity`] across
/// many evaluations (all branches of a freezing plan share the compiled
/// template, and cone fidelities depend only on circuit structure and
/// term qubit sets, never on coefficient values) pay the `O(gates)`
/// table construction once instead of per evaluation.
///
/// Bit-identical to [`noisy_expectation_lightcone`] /
/// [`noisy_expectation_lightcone_truncated`] fed the same tables: those
/// functions now delegate here for the assembly loop.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] when the ideal-term slices or the
/// cone tables do not match the model's term counts.
pub fn noisy_expectation_from_lightcone(
    model: &IsingModel,
    z_ideal: &[f64],
    zz_ideal: &[f64],
    fid: &FidelityModel,
    cones: &LightconeFidelity,
) -> Result<f64, SimError> {
    if z_ideal.len() != model.num_vars()
        || zz_ideal.len() != model.num_couplings()
        || cones.z.len() != model.num_vars()
        || cones.zz.len() != model.num_couplings()
    {
        return Err(SimError::WidthMismatch {
            circuit: model.num_vars(),
            state: z_ideal.len(),
        });
    }
    let mut ev = model.offset();
    for (i, hi) in model.linears() {
        if hi != 0.0 {
            ev += hi * cones.z[i] * fid.qubit_decay[i] * fid.readout_attenuation[i] * z_ideal[i];
        }
    }
    for (k, ((i, j), jij)) in model.couplings().enumerate() {
        let att = cones.zz[k]
            * fid.qubit_decay[i]
            * fid.qubit_decay[j]
            * fid.readout_attenuation[i]
            * fid.readout_attenuation[j];
        ev += jij * att * zz_ideal[k];
    }
    Ok(ev)
}

/// [`noisy_expectation_lightcone`] with the cone walk truncated to the
/// last `max_depth` gates ([`lightcone_fidelities_truncated`]) — the
/// approximate QoS tiers' noise estimator. `max_depth == 0` degenerates
/// to pure whole-circuit attenuation (every cone factor equals the
/// global gate fidelity), and `max_depth ≥ gates` is bit-identical to
/// [`noisy_expectation_lightcone`].
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] on any dimension mismatch.
pub fn noisy_expectation_lightcone_truncated(
    model: &IsingModel,
    z_ideal: &[f64],
    zz_ideal: &[f64],
    compiled: &Compiled,
    device: &Device,
    max_depth: usize,
) -> Result<f64, SimError> {
    if z_ideal.len() != model.num_vars() || zz_ideal.len() != model.num_couplings() {
        return Err(SimError::WidthMismatch {
            circuit: model.num_vars(),
            state: z_ideal.len(),
        });
    }
    let fid = fidelity_model(compiled, device);
    let cones = lightcone_fidelities_truncated(model, compiled, device, max_depth)?;
    noisy_expectation_from_lightcone(model, z_ideal, zz_ideal, &fid, &cones)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::term_expectations_p1;
    use fq_circuit::build_qaoa_circuit;
    use fq_transpile::{compile, CompileOptions, Topology};

    fn ring_model(n: usize) -> IsingModel {
        let mut m = IsingModel::new(n);
        for i in 0..n {
            m.set_coupling(i, (i + 1) % n, 1.0).unwrap();
        }
        m
    }

    fn compiled_on(device: &Device, n: usize) -> (IsingModel, Compiled) {
        let m = ring_model(n);
        let qc = build_qaoa_circuit(&m, 1).unwrap();
        let c = compile(&qc, device, CompileOptions::level3()).unwrap();
        (m, c)
    }

    #[test]
    fn ideal_device_has_unit_fidelity() {
        let dev = Device::ideal("ideal", Topology::grid(3, 3).unwrap());
        let (_, c) = compiled_on(&dev, 6);
        let f = fidelity_model(&c, &dev);
        assert!((f.process_fidelity() - 1.0).abs() < 1e-12);
        assert!((f.zz_attenuation(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_device_attenuates() {
        let dev = Device::ibm_montreal();
        let (_, c) = compiled_on(&dev, 8);
        let f = fidelity_model(&c, &dev);
        assert!(f.gate_fidelity > 0.0 && f.gate_fidelity < 1.0);
        assert!(f.qubit_decay.iter().all(|&d| d > 0.0 && d < 1.0));
        assert!(f.z_attenuation(0) < 1.0);
        assert!(f.zz_attenuation(0, 1) < f.z_attenuation(0));
    }

    #[test]
    fn more_cnots_means_lower_fidelity() {
        let dev = Device::ibm_montreal();
        let (_, small) = compiled_on(&dev, 4);
        let (_, big) = compiled_on(&dev, 12);
        assert!(
            fidelity_model(&big, &dev).gate_fidelity < fidelity_model(&small, &dev).gate_fidelity
        );
    }

    #[test]
    fn gate_error_vector_is_parallel_to_gates() {
        let dev = Device::ibm_montreal();
        let (_, c) = compiled_on(&dev, 6);
        let errors = gate_error_rates(&c, &dev);
        assert_eq!(errors.len(), c.circuit.len());
        for (g, e) in c.circuit.gates().iter().zip(&errors) {
            match g {
                Gate::Rz { .. } => assert_eq!(*e, 0.0),
                Gate::Cx { .. } | Gate::Swap { .. } | Gate::Measure { .. } => assert!(*e > 0.0),
                _ => assert!(*e >= 0.0),
            }
        }
    }

    #[test]
    fn noisy_ev_interpolates_toward_offset() {
        let dev = Device::ibm_montreal();
        let (m, c) = compiled_on(&dev, 8);
        let (z, zz) = term_expectations_p1(&m, 0.4, 0.7).unwrap();
        let f = fidelity_model(&c, &dev);
        let noisy = noisy_expectation_from_terms(&m, &z, &zz, &f).unwrap();
        let ideal: f64 = {
            let mut ev = m.offset();
            for ((_, jij), zzk) in m.couplings().zip(zz.iter()) {
                ev += jij * zzk;
            }
            ev
        };
        // Attenuation shrinks the magnitude but keeps the sign.
        assert!(noisy.abs() <= ideal.abs() + 1e-12);
        assert!(noisy * ideal >= 0.0);
    }

    #[test]
    fn log_process_fidelity_matches_products() {
        let dev = Device::ibm_toronto();
        let (_, c) = compiled_on(&dev, 6);
        let f = fidelity_model(&c, &dev);
        let direct: f64 = f.gate_fidelity * f.qubit_decay.iter().product::<f64>();
        assert!((f.log_process_fidelity.exp() - direct).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let dev = Device::ibm_montreal();
        let (m, c) = compiled_on(&dev, 6);
        let f = fidelity_model(&c, &dev);
        assert!(noisy_expectation_from_terms(&m, &[0.0; 2], &[0.0; 6], &f).is_err());
        assert!(noisy_expectation_lightcone(&m, &[0.0; 2], &[0.0; 6], &c, &dev).is_err());
    }

    #[test]
    fn lightcones_are_at_least_as_faithful_as_global() {
        let dev = Device::ibm_montreal();
        let (m, c) = compiled_on(&dev, 8);
        let f = fidelity_model(&c, &dev);
        let cones = lightcone_fidelities(&m, &c, &dev).unwrap();
        for &zf in cones.z.iter().chain(&cones.zz) {
            assert!(
                zf >= f.gate_fidelity - 1e-12,
                "cone {zf} vs global {}",
                f.gate_fidelity
            );
            assert!(zf <= 1.0);
        }
    }

    #[test]
    fn lightcone_ev_dominates_global_ev() {
        // Per-term cones keep strictly more signal than whole-circuit
        // attenuation, so |EV_lightcone| >= |EV_global| for aligned terms.
        let dev = Device::ibm_toronto();
        let (m, c) = compiled_on(&dev, 8);
        let (z, zz) = term_expectations_p1(&m, 0.35, 0.62).unwrap();
        let f = fidelity_model(&c, &dev);
        let global = noisy_expectation_from_terms(&m, &z, &zz, &f).unwrap();
        let cone = noisy_expectation_lightcone(&m, &z, &zz, &c, &dev).unwrap();
        assert!(
            cone.abs() >= global.abs() - 1e-12,
            "cone {cone} vs global {global}"
        );
    }

    #[test]
    fn truncated_cones_pin_both_exact_endpoints() {
        let dev = Device::ibm_montreal();
        let (m, c) = compiled_on(&dev, 8);
        let exact = lightcone_fidelities(&m, &c, &dev).unwrap();
        let full_depth = lightcone_fidelities_truncated(&m, &c, &dev, c.circuit.len()).unwrap();
        assert_eq!(exact, full_depth, "full depth must reproduce every bit");
        let unbounded = lightcone_fidelities_truncated(&m, &c, &dev, usize::MAX).unwrap();
        assert_eq!(exact, unbounded, "the exact tier's usize::MAX depth too");
        let zero_depth = lightcone_fidelities_truncated(&m, &c, &dev, 0).unwrap();
        let global = fidelity_model(&c, &dev).gate_fidelity;
        for &f in zero_depth.z.iter().chain(&zero_depth.zz) {
            assert_eq!(f, global, "depth 0 must be the global gate fidelity");
        }
    }

    #[test]
    fn truncated_cones_interpolate_monotonically() {
        let dev = Device::ibm_toronto();
        let (m, c) = compiled_on(&dev, 8);
        let exact = lightcone_fidelities(&m, &c, &dev).unwrap();
        let global = fidelity_model(&c, &dev).gate_fidelity;
        for depth in [0, 4, 16, 64, c.circuit.len()] {
            let t = lightcone_fidelities_truncated(&m, &c, &dev, depth).unwrap();
            for (k, (&tf, &ef)) in t.zz.iter().zip(&exact.zz).enumerate() {
                assert!(
                    tf <= ef + 1e-15 && tf >= global - 1e-15,
                    "depth {depth} term {k}: {tf} outside [{global}, {ef}]"
                );
            }
        }
    }

    #[test]
    fn truncated_noisy_ev_lies_between_global_and_lightcone() {
        let dev = Device::ibm_montreal();
        let (m, c) = compiled_on(&dev, 8);
        let (z, zz) = term_expectations_p1(&m, 0.35, 0.62).unwrap();
        let global = {
            let f = fidelity_model(&c, &dev);
            noisy_expectation_from_terms(&m, &z, &zz, &f).unwrap()
        };
        let cone = noisy_expectation_lightcone(&m, &z, &zz, &c, &dev).unwrap();
        let trunc = noisy_expectation_lightcone_truncated(&m, &z, &zz, &c, &dev, 32).unwrap();
        let (lo, hi) = (global.abs().min(cone.abs()), global.abs().max(cone.abs()));
        assert!(
            trunc.abs() >= lo - 1e-12 && trunc.abs() <= hi + 1e-12,
            "truncated {trunc} outside [{lo}, {hi}]"
        );
        let full =
            noisy_expectation_lightcone_truncated(&m, &z, &zz, &c, &dev, c.circuit.len()).unwrap();
        assert_eq!(full, cone, "full depth reproduces the exact lightcone EV");
    }

    #[test]
    fn disjoint_subcircuits_have_independent_cones() {
        // Two disconnected 2-qubit problems on an ideal 2x2 grid: each
        // pair's cone must exclude the other pair's gates entirely.
        let mut m = IsingModel::new(4);
        m.set_coupling(0, 1, 1.0).unwrap();
        m.set_coupling(2, 3, 1.0).unwrap();
        let dev = Device::uniform(
            "uniform-grid",
            Topology::grid(2, 2).unwrap(),
            0.01,
            0.0,
            1e9,
            fq_transpile::GateDurations::default(),
        )
        .unwrap();
        let qc = build_qaoa_circuit(&m, 1).unwrap();
        let c = compile(
            &qc,
            &dev,
            CompileOptions {
                optimize: false,
                ..CompileOptions::level3()
            },
        )
        .unwrap();
        if c.swap_count == 0 {
            let cones = lightcone_fidelities(&m, &c, &dev).unwrap();
            // Each edge cone: 2 CX + 2 Rx + 2 H singles; the other edge's
            // 2 CX excluded, so cone fidelity ≈ (1−0.01)² on CX terms.
            let full = fidelity_model(&c, &dev).gate_fidelity;
            for &zz in &cones.zz {
                assert!(zz > full, "cone {zz} must beat global {full}");
            }
        }
    }
}
