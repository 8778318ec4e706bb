//! Compile-once / edit-many execution (§3.7.1).
//!
//! All `2^m` sub-Hamiltonians share one quadratic structure, so their
//! circuits differ only in rotation angles. FrozenQubits therefore
//! compiles a single *template* (paying layout + routing once) and derives
//! every sibling executable by rewriting the γ-rotation scales in the
//! already-routed circuit — the `O(1)` compile cost of Table 3.

use std::sync::{Arc, Mutex};

use fq_circuit::{build_qaoa_template, rebind_coefficients};
use fq_ising::IsingModel;
use fq_sim::{
    fidelity_model, lightcone_fidelities_truncated, log_eps, FidelityModel, LightconeFidelity,
};
use fq_transpile::{compile, CompileOptions, Compiled, Device};
use serde::json::Value;

use crate::pipeline::{metrics_of, CircuitMetrics};
use crate::store::device_fingerprint;
use crate::FqError;

/// Branch-invariant structure tables of the analytic execution path,
/// computed once per template and shared by every branch (and every
/// job) that executes on it, in every QoS tier.
///
/// The invariance argument, field by field: no field reads an angle.
/// Angle editing ([`CompiledTemplate::edit_for`]) rewrites only the
/// γ-scales of `Rz` gates, and an `Rz` is error-free whatever its angle,
/// so a branch's edited executable has the template's gate kinds,
/// qubits, schedule and layout — and therefore the template's error
/// rates, attenuation, EPS and metrics. Every sibling model sharing the
/// template has the same variable count and the same coupling key set
/// in the same canonical order (that is what
/// [`ShapeSignature`](crate::ShapeSignature) equality means, and
/// freezing never touches couplings between free variables), and cone
/// fidelities depend only on a term's qubit set plus the circuit's gate
/// structure — never on coefficient values. So each field is a pure
/// function of `(template, device, layers, lightcone depth)`, the exact
/// tier's full-depth cones included, and caching it changes no output
/// bit.
pub(crate) struct BranchTables {
    /// Global/per-qubit attenuation factors of the compiled template.
    pub(crate) fid: FidelityModel,
    /// Per-term cone fidelities, truncated at the tier's lightcone depth
    /// (`usize::MAX` for the exact tier: the untruncated cones,
    /// bit-identical to [`fq_sim::lightcone_fidelities`]).
    pub(crate) cones: LightconeFidelity,
    /// `log_eps` of the template executable.
    pub(crate) eps_log: f64,
    /// Circuit-level cost metrics of the template executable.
    pub(crate) metrics: CircuitMetrics,
}

/// Cache key of one [`BranchTables`] entry: device identity fingerprint,
/// QAOA layer count, lightcone truncation depth.
type TablesKey = (u64, usize, usize);

/// The lazily built [`BranchTables`] memo a template shares across its
/// clones.
type BranchTablesMemo = Arc<Mutex<Vec<(TablesKey, Arc<BranchTables>)>>>;

/// A routed, reusable circuit template for a family of sibling
/// sub-problems.
pub struct CompiledTemplate {
    compiled: Compiled,
    num_vars: usize,
    /// Lazily built [`BranchTables`], shared across clones: the
    /// template cache hands out clones per plan, so one computation
    /// serves every branch of every job on this shape. Excluded from
    /// `PartialEq`/`Debug`/serialization — it is a memo, not state.
    branch_tables: BranchTablesMemo,
}

impl Clone for CompiledTemplate {
    fn clone(&self) -> CompiledTemplate {
        CompiledTemplate {
            compiled: self.compiled.clone(),
            num_vars: self.num_vars,
            branch_tables: Arc::clone(&self.branch_tables),
        }
    }
}

impl std::fmt::Debug for CompiledTemplate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledTemplate")
            .field("compiled", &self.compiled)
            .field("num_vars", &self.num_vars)
            .finish_non_exhaustive()
    }
}

impl PartialEq for CompiledTemplate {
    fn eq(&self, other: &CompiledTemplate) -> bool {
        self.compiled == other.compiled && self.num_vars == other.num_vars
    }
}

impl CompiledTemplate {
    /// Compiles the template from a representative sub-problem.
    ///
    /// The representative's model defines the quadratic structure; every
    /// sibling passed to [`CompiledTemplate::edit_for`] must share it
    /// (guaranteed for sub-problems of one freezing plan).
    ///
    /// # Errors
    ///
    /// Propagates circuit synthesis and transpilation errors.
    ///
    /// # Example
    ///
    /// ```
    /// use fq_ising::{IsingModel, Spin};
    /// use fq_transpile::{CompileOptions, Device};
    /// use frozenqubits::CompiledTemplate;
    ///
    /// let mut parent = IsingModel::new(5);
    /// for i in 1..5 {
    ///     parent.set_coupling(0, i, 1.0)?;
    /// }
    /// let plus = parent.freeze(&[(0, Spin::UP)])?;
    /// let minus = parent.freeze(&[(0, Spin::DOWN)])?;
    ///
    /// let dev = Device::ibm_montreal();
    /// let template = CompiledTemplate::compile(plus.model(), 1, &dev, CompileOptions::level3())?;
    /// let edited = template.edit_for(minus.model())?;
    /// // Same routed structure, zero additional routing work.
    /// assert_eq!(edited.stats.cnot_count, template.compiled().stats.cnot_count);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn compile(
        representative: &IsingModel,
        layers: usize,
        device: &Device,
        options: CompileOptions,
    ) -> Result<CompiledTemplate, FqError> {
        let qc = build_qaoa_template(representative, layers)?;
        let compiled = compile(&qc, device, options)?;
        Ok(CompiledTemplate {
            compiled,
            num_vars: representative.num_vars(),
            branch_tables: Arc::default(),
        })
    }

    /// The underlying compiled artifact.
    #[must_use]
    pub fn compiled(&self) -> &Compiled {
        &self.compiled
    }

    /// The canonical document form of this template (the payload half of
    /// a [`TemplateArtifact`](crate::TemplateArtifact)). Serialization is
    /// bit-exact: parsing the document back yields a template **equal**
    /// to this one, whose [`CompiledTemplate::edit_for`] output is
    /// byte-identical.
    pub(crate) fn to_value(&self) -> Value {
        Value::object(vec![
            ("num_vars", Value::UInt(self.num_vars as u64)),
            ("compiled", fq_transpile::compiled_to_value(&self.compiled)),
        ])
    }

    /// Parses the canonical document form.
    pub(crate) fn from_value(v: &Value) -> Result<CompiledTemplate, FqError> {
        Ok(CompiledTemplate {
            num_vars: v.field("num_vars")?.as_usize()?,
            compiled: fq_transpile::compiled_from_value(v.field("compiled")?)?,
            branch_tables: Arc::default(),
        })
    }

    /// The memoized [`BranchTables`] for `(device, layers,
    /// lightcone_depth)`, computing them on first use. `model` may be
    /// any sibling sharing this template's shape — the tables do not
    /// depend on which one (see [`BranchTables`]). `lightcone_depth ==
    /// usize::MAX` gives the exact tier's untruncated cones.
    ///
    /// # Errors
    ///
    /// Propagates the cone-walk width check (a model wider than the
    /// template, impossible for models the plan paired with it).
    pub(crate) fn branch_tables(
        &self,
        model: &IsingModel,
        layers: usize,
        device: &Device,
        lightcone_depth: usize,
    ) -> Result<Arc<BranchTables>, FqError> {
        let key = (device_fingerprint(device), layers, lightcone_depth);
        let mut cache = self
            .branch_tables
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, tables)) = cache.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(tables));
        }
        let tables = Arc::new(BranchTables {
            fid: fidelity_model(&self.compiled, device),
            cones: lightcone_fidelities_truncated(model, &self.compiled, device, lightcone_depth)?,
            eps_log: log_eps(&self.compiled, device),
            metrics: metrics_of(model, layers, &self.compiled),
        });
        cache.push((key, Arc::clone(&tables)));
        Ok(tables)
    }

    /// Produces the executable for a sibling sub-problem by rewriting the
    /// rotation scales of the routed template — no layout, routing or
    /// scheduling is redone.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::InvalidConfig`] on variable-count
    /// mismatch and propagates rebinding errors for structural mismatches.
    pub fn edit_for(&self, sibling: &IsingModel) -> Result<Compiled, FqError> {
        if sibling.num_vars() != self.num_vars {
            return Err(FqError::InvalidConfig(format!(
                "sibling has {} variables, template was built for {}",
                sibling.num_vars(),
                self.num_vars
            )));
        }
        let circuit = rebind_coefficients(&self.compiled.circuit, sibling)?;
        Ok(self.compiled.instantiate(circuit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_graphs::{gen, to_ising_pm1};
    use fq_ising::Spin;

    fn family() -> (IsingModel, IsingModel, IsingModel) {
        let parent = to_ising_pm1(&gen::barabasi_albert(8, 1, 2).unwrap(), 2);
        let hub = parent.hotspots()[0];
        let plus = parent.freeze(&[(hub, Spin::UP)]).unwrap();
        let minus = parent.freeze(&[(hub, Spin::DOWN)]).unwrap();
        (parent, plus.model().clone(), minus.model().clone())
    }

    #[test]
    fn edit_preserves_structure_and_changes_angles() {
        let (_, plus, minus) = family();
        let dev = Device::ibm_montreal();
        let template = CompiledTemplate::compile(&plus, 1, &dev, CompileOptions::level3()).unwrap();
        let edited = template.edit_for(&minus).unwrap();
        assert_eq!(edited.circuit.len(), template.compiled().circuit.len());
        assert_eq!(edited.final_layout, template.compiled().final_layout);
        // Angles differ because the two branches fold ±J into h.
        assert_ne!(edited.circuit, template.compiled().circuit);
    }

    #[test]
    fn edited_circuit_binds_to_the_sibling_semantics() {
        // The edited template, bound and ideally simulated, must match the
        // sibling's directly synthesized circuit in expectation value.
        let (_, plus, minus) = family();
        let topo = fq_transpile::Topology::grid(3, 3).unwrap();
        let dev = Device::ideal("ideal", topo);
        let template = CompiledTemplate::compile(&plus, 1, &dev, CompileOptions::level3()).unwrap();
        let edited = template.edit_for(&minus).unwrap();

        let bound = edited.circuit.bind(&[0.4], &[0.7]).unwrap();
        let recompiled = Compiled {
            circuit: bound,
            ..edited.clone()
        };
        let (compact, layout) = recompiled.compact();
        let sv = fq_sim::run_circuit(&compact).unwrap();

        // Compare per-logical-qubit expectation against the analytic EV of
        // the sibling model, by building the model over compact indices.
        let mut remapped = fq_ising::IsingModel::new(compact.num_qubits());
        for (i, hi) in minus.linears() {
            remapped.set_linear(layout[i], hi).unwrap();
        }
        for ((i, j), jij) in minus.couplings() {
            remapped.set_coupling(layout[i], layout[j], jij).unwrap();
        }
        remapped.set_offset(minus.offset());
        let ev_sv = sv.expectation_ising(&remapped).unwrap();
        let ev_analytic = fq_sim::analytic::expectation_p1(&minus, 0.4, 0.7).unwrap();
        assert!(
            (ev_sv - ev_analytic).abs() < 1e-9,
            "edited template EV {ev_sv} vs analytic {ev_analytic}"
        );
    }

    #[test]
    fn level3_keeps_placeholders_for_terms_zero_only_in_the_representative() {
        // Regression: two frozen hubs couple to a shared neighbour with
        // opposite signs, so the representative branch (both UP) folds
        // them to h = 0 while the flipped sibling gets h = 2. The level-3
        // cleanup passes must not strip the zero-scale placeholder Rz
        // from the compiled template, or the sibling silently loses that
        // Hamiltonian term.
        let mut parent = IsingModel::new(4);
        parent.set_coupling(0, 2, 1.0).unwrap();
        parent.set_coupling(1, 2, -1.0).unwrap();
        parent.set_coupling(2, 3, 1.0).unwrap();
        let rep = parent.freeze(&[(0, Spin::UP), (1, Spin::UP)]).unwrap();
        let sibling = parent.freeze(&[(0, Spin::UP), (1, Spin::DOWN)]).unwrap();
        assert_eq!(rep.model().linear(0), 0.0, "representative h cancels");
        assert_eq!(sibling.model().linear(0), 2.0, "sibling h does not");

        let topo = fq_transpile::Topology::grid(2, 2).unwrap();
        let dev = Device::ideal("ideal", topo);
        let template =
            CompiledTemplate::compile(rep.model(), 1, &dev, CompileOptions::level3()).unwrap();
        let edited = template.edit_for(sibling.model()).unwrap();

        // The edited executable, simulated, must realize the sibling's
        // Hamiltonian — linear term included.
        let bound = edited.circuit.bind(&[0.4], &[0.7]).unwrap();
        let (compact, layout) = edited.instantiate(bound).compact();
        let sv = fq_sim::run_circuit(&compact).unwrap();
        let mut remapped = IsingModel::new(compact.num_qubits());
        for (i, hi) in sibling.model().linears() {
            remapped.set_linear(layout[i], hi).unwrap();
        }
        for ((i, j), jij) in sibling.model().couplings() {
            remapped.set_coupling(layout[i], layout[j], jij).unwrap();
        }
        remapped.set_offset(sibling.model().offset());
        let ev_sv = sv.expectation_ising(&remapped).unwrap();
        let ev_analytic = fq_sim::analytic::expectation_p1(sibling.model(), 0.4, 0.7).unwrap();
        assert!(
            (ev_sv - ev_analytic).abs() < 1e-9,
            "edited template EV {ev_sv} vs analytic {ev_analytic} — placeholder Rz was dropped"
        );
    }

    #[test]
    fn rejects_wrong_width() {
        let (_, plus, _) = family();
        let dev = Device::ibm_montreal();
        let template = CompiledTemplate::compile(&plus, 1, &dev, CompileOptions::level3()).unwrap();
        let wrong = IsingModel::new(3);
        assert!(template.edit_for(&wrong).is_err());
    }
}
