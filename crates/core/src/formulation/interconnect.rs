//! Interconnection assignment: Section 3.1 of the paper, Eqs. (1)–(2).
//!
//! Two families of constraints govern every potential wire:
//!
//! * **required connections** — if variable `v` is assigned to register `r`
//!   and the operation reading `v` on port `l` runs on module `m`, the wire
//!   `r → (m, l)` must exist (otherwise the data path cannot execute the
//!   schedule). With the module binding fixed (`x_{om} = 1`), the paper's
//!   linearisation `z ≥ x_{vr} + x_{om} − 1` reduces to `z ≥ x_{vr}`.
//! * **no adverse paths** — Eqs. (1)–(2): a wire may exist *only if* some DFG
//!   edge justifies it under the chosen assignment, so the BIST constraints
//!   can never smuggle in test-only interconnect. With the binding fixed, the
//!   auxiliary `z_{vroml}` variables of Eq. (2) collapse to `x_{vr}` and
//!   Eq. (1) aggregates to `z_{rml} ≤ Σ_v x_{vr}` over the edges of that
//!   port; the two forms are equivalent for 0-1 variables.
//!
//! Eq. (3), the pseudo-input-port swapping of commutative operations, is not
//! modelled: every operand is wired to the port the DFG declares for it.
//! Modelling it would need a per-operation port order carried through
//! extraction, the data path, its validation and the RTL emitter.

use std::collections::BTreeMap;

use bist_ilp::LinExpr;

use super::BistFormulation;

impl BistFormulation<'_> {
    /// Adds the interconnection variables and constraints.
    pub fn add_interconnect(&mut self) {
        let dfg = self.input.dfg();
        let num_modules = self.input.binding().num_modules();

        // Classify ports: register-fed vs constant-only, and count distinct
        // constants per port for the multiplexer sizing.
        let mut has_var_edge: BTreeMap<(usize, usize), bool> = BTreeMap::new();
        for (_, o, l) in dfg.input_edges() {
            let m = self.input.module_of(o).index();
            has_var_edge.insert((m, l), true);
        }
        let mut constants: BTreeMap<(usize, usize), Vec<i64>> = BTreeMap::new();
        for (v, o, l) in dfg.constant_edges() {
            let m = self.input.module_of(o).index();
            if let bist_dfg::VarSource::Constant(value) = dfg.var(v).source {
                let list = constants.entry((m, l)).or_default();
                if !list.contains(&value) {
                    list.push(value);
                }
            }
        }
        for m in 0..num_modules {
            let ports = self.input.binding().modules()[m].num_inputs;
            for l in 0..ports {
                let key = (m, l);
                let fed = has_var_edge.get(&key).copied().unwrap_or(false);
                let n_const = constants.get(&key).map_or(0, |c| c.len());
                self.constants_on_port.insert(key, n_const);
                if fed {
                    self.register_fed_ports.push(key);
                } else if n_const > 0 {
                    self.constant_only_ports.push(key);
                }
            }
        }

        // z_{rml}: register -> module input port.
        for &(m, l) in &self.register_fed_ports.clone() {
            for r in 0..self.num_registers {
                let z = self.model.add_binary(format!("z[R{r},M{m},p{l}]"));
                self.z_in.insert((r, m, l), z);
            }
        }

        // Required connections and adverse-path upper bounds for input wires.
        // reachable[(m, l, r)] collects the x variables that can justify the
        // wire r -> (m, l), i.e. the right-hand side of aggregated Eq. (1).
        let mut reachable: BTreeMap<(usize, usize, usize), LinExpr> = BTreeMap::new();
        for (v, o, l) in dfg.input_edges() {
            let m = self.input.module_of(o).index();
            for r in 0..self.num_registers {
                let x = self.x[&(v.index(), r)];
                let z = self.z_in[&(r, m, l)];
                // z >= x  (required connection)
                self.model.add_geq(
                    [(z, 1.0), (x, -1.0)],
                    0.0,
                    format!("req[{},R{r},M{m},p{l}]", dfg.var(v).name),
                );
                reachable.entry((m, l, r)).or_default().add_term(x, 1.0);
            }
        }
        for (&(m, l, r), justification) in &reachable {
            let z = self.z_in[&(r, m, l)];
            // Aggregated Eq. (1)/(2): z <= sum of justifying x variables.
            let mut expr = LinExpr::term(z, 1.0);
            expr -= justification.clone();
            self.model
                .add_leq(expr, 0.0, format!("adverse_in[R{r},M{m},p{l}]"));
        }
        // Ports with no justification at all keep their z variables at zero.
        for (&(r, m, l), &z) in &self.z_in {
            if !reachable.contains_key(&(m, l, r)) {
                self.model
                    .add_eq([(z, 1.0)], 0.0, format!("unreachable_in[R{r},M{m},p{l}]"));
            }
        }

        // z_{mr}: module output -> register, with the analogous two families.
        let mut out_reachable: BTreeMap<(usize, usize), LinExpr> = BTreeMap::new();
        for m in 0..num_modules {
            for r in 0..self.num_registers {
                let z = self.model.add_binary(format!("z[M{m},R{r}]"));
                self.z_out.insert((m, r), z);
            }
        }
        for (o, v) in dfg.output_edges() {
            let m = self.input.module_of(o).index();
            for r in 0..self.num_registers {
                let x = self.x[&(v.index(), r)];
                let z = self.z_out[&(m, r)];
                self.model.add_geq(
                    [(z, 1.0), (x, -1.0)],
                    0.0,
                    format!("req_out[{},M{m},R{r}]", dfg.var(v).name),
                );
                out_reachable.entry((m, r)).or_default().add_term(x, 1.0);
            }
        }
        for (&(m, r), &z) in &self.z_out {
            match out_reachable.get(&(m, r)) {
                Some(justification) => {
                    let mut expr = LinExpr::term(z, 1.0);
                    expr -= justification.clone();
                    self.model
                        .add_leq(expr, 0.0, format!("adverse_out[M{m},R{r}]"));
                }
                None => {
                    self.model
                        .add_eq([(z, 1.0)], 0.0, format!("unreachable_out[M{m},R{r}]"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_interconnect_variables() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::default();
        let mut f = BistFormulation::new(&input, &config).unwrap();
        f.add_interconnect();
        // 2 modules x 2 ports x 3 registers input wires; 2 x 3 output wires.
        assert_eq!(f.z_in.len(), 12);
        assert_eq!(f.z_out.len(), 6);
        assert!(f.constant_only_ports.is_empty());
        assert_eq!(f.register_fed_ports.len(), 4);
    }

    #[test]
    fn constant_ports_are_classified() {
        let input = benchmarks::fir6();
        let config = SynthesisConfig::default();
        let mut f = BistFormulation::new(&input, &config).unwrap();
        f.add_interconnect();
        // The multiplier coefficient ports are constant-only.
        assert!(!f.constant_only_ports.is_empty());
        for key in &f.constant_only_ports {
            assert!(f.constants_on_port[key] > 0);
        }
        // No z variables exist for constant-only ports.
        for &(m, l) in &f.constant_only_ports {
            for r in 0..f.num_registers() {
                assert!(!f.z_in.contains_key(&(r, m, l)));
            }
        }
    }
}
