//! BIST register assignment: Section 3.3 of the paper, Eqs. (6)–(23).
//!
//! For a k-test session the binary variables are:
//!
//! * `s_{mrp}` — register `r` is the signature register of module `m` in
//!   sub-test session `p` (Section 3.3.1),
//! * `t_{rmlp}` — register `r` is the test pattern generator of input port
//!   `l` of module `m` in sub-test session `p` (Section 3.3.2),
//! * the OR-reductions `t_r`, `s_r`, `t_{rp}`, `s_{rp}` and the derived
//!   `b_r` (BILBO needed), `c_{rp}`, `c_r` (CBILBO needed) of Section 3.3.3,
//!
//! Constant-only input ports have no register to reconfigure into a TPG, so
//! they receive a dedicated generator instead and are excluded from
//! Eqs. (9)–(13) (Section 3.3.4). Its cost is a constant for a fixed module
//! binding and is added to the objective separately.

use bist_ilp::LinExpr;

use super::BistFormulation;
use crate::error::CoreError;

impl BistFormulation<'_> {
    /// Adds the BIST register assignment variables and constraints for a
    /// k-test session.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidSessionCount`] if `k` is zero or exceeds
    /// the number of modules.
    pub fn add_bist(&mut self, k: usize) -> Result<(), CoreError> {
        let num_modules = self.input.binding().num_modules();
        if k == 0 || k > num_modules {
            return Err(CoreError::InvalidSessionCount {
                requested: k,
                modules: num_modules,
            });
        }
        self.num_sessions = k;

        // ------------------------------------------------------------------
        // Signature register variables and Eqs. (6)-(8).
        // ------------------------------------------------------------------
        for m in 0..num_modules {
            for r in 0..self.num_registers {
                for p in 0..k {
                    let var = self.model.add_binary(format!("s[M{m},R{r},p{p}]"));
                    self.s.insert((m, r, p), var);
                }
                // Eq. (6): an SR needs the module -> register connection.
                let mut expr: LinExpr = (0..k).map(|p| (self.s[&(m, r, p)], 1.0)).collect();
                expr.add_term(self.z_out[&(m, r)], -1.0);
                self.model.add_leq(expr, 0.0, format!("eq6[M{m},R{r}]"));
            }
            // Eq. (7): each module is tested exactly once.
            let expr: LinExpr = (0..self.num_registers)
                .flat_map(|r| (0..k).map(move |p| (r, p)))
                .map(|(r, p)| (self.s[&(m, r, p)], 1.0))
                .collect();
            self.model.add_eq(expr, 1.0, format!("eq7[M{m}]"));
        }
        // Eq. (8): an SR is not shared within a sub-test session.
        for r in 0..self.num_registers {
            for p in 0..k {
                let expr: LinExpr = (0..num_modules)
                    .map(|m| (self.s[&(m, r, p)], 1.0))
                    .collect();
                self.model.add_leq(expr, 1.0, format!("eq8[R{r},p{p}]"));
            }
        }

        // ------------------------------------------------------------------
        // TPG variables and Eqs. (9)-(13), register-fed ports only.
        // ------------------------------------------------------------------
        let register_fed = self.register_fed_ports.clone();
        for &(m, l) in &register_fed {
            for r in 0..self.num_registers {
                for p in 0..k {
                    let var = self.model.add_binary(format!("t[R{r},M{m},p{l},s{p}]"));
                    self.t.insert((r, m, l, p), var);
                }
                // Eq. (9): a TPG needs the register -> port connection.
                let mut expr: LinExpr = (0..k).map(|p| (self.t[&(r, m, l, p)], 1.0)).collect();
                expr.add_term(self.z_in[&(r, m, l)], -1.0);
                self.model
                    .add_leq(expr, 0.0, format!("eq9[R{r},M{m},p{l}]"));
            }
            // Eq. (10): each register-fed port has exactly one TPG over the
            // whole k-test session.
            let expr: LinExpr = (0..self.num_registers)
                .flat_map(|r| (0..k).map(move |p| (r, p)))
                .map(|(r, p)| (self.t[&(r, m, l, p)], 1.0))
                .collect();
            self.model.add_eq(expr, 1.0, format!("eq10[M{m},p{l}]"));
        }

        for m in 0..num_modules {
            let ports: Vec<usize> = register_fed
                .iter()
                .filter(|&&(mm, _)| mm == m)
                .map(|&(_, l)| l)
                .collect();
            if let Some(&reference_port) = ports.first() {
                for p in 0..k {
                    let ref_sum: LinExpr = (0..self.num_registers)
                        .map(|r| (self.t[&(r, m, reference_port, p)], 1.0))
                        .collect();
                    // Eq. (11): all TPGs of the module are active in the same
                    // sub-test session.
                    for &l in ports.iter().skip(1) {
                        let mut expr: LinExpr = (0..self.num_registers)
                            .map(|r| (self.t[&(r, m, l, p)], 1.0))
                            .collect();
                        expr -= ref_sum.clone();
                        self.model
                            .add_eq(expr, 0.0, format!("eq11[M{m},p{l},s{p}]"));
                    }
                    // Eq. (12): the SR is active in the same sub-test session
                    // as the TPGs.
                    let mut expr: LinExpr = (0..self.num_registers)
                        .map(|r| (self.s[&(m, r, p)], 1.0))
                        .collect();
                    expr -= ref_sum;
                    self.model.add_eq(expr, 0.0, format!("eq12[M{m},s{p}]"));
                }
            }
            // Eq. (13): a register is not the TPG of two ports of the same
            // module in the same sub-test session.
            if ports.len() >= 2 {
                for r in 0..self.num_registers {
                    for p in 0..k {
                        let expr: LinExpr = ports
                            .iter()
                            .map(|&l| (self.t[&(r, m, l, p)], 1.0))
                            .collect();
                        self.model
                            .add_leq(expr, 1.0, format!("eq13[R{r},M{m},s{p}]"));
                    }
                }
            }
        }

        // ------------------------------------------------------------------
        // OR reductions and BILBO / CBILBO detection, Eqs. (14)-(23).
        // ------------------------------------------------------------------
        for r in 0..self.num_registers {
            // t_r (Eq. 15) and s_r (Eq. 16).
            let t_terms: Vec<_> = self
                .t
                .iter()
                .filter(|&(&(rr, _, _, _), _)| rr == r)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            let s_terms: Vec<_> = self
                .s
                .iter()
                .filter(|&(&(_, rr, _), _)| rr == r)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            let t_r = self.model.add_binary(format!("t_r[R{r}]"));
            let s_r = self.model.add_binary(format!("s_r[R{r}]"));
            self.add_or_reduction(t_r, &t_terms, format!("eq15[R{r}]"));
            self.add_or_reduction(s_r, &s_terms, format!("eq16[R{r}]"));
            self.t_reg.push(t_r);
            self.s_reg.push(s_r);

            // b_r (Eqs. 17-18): TPG and SR in any (possibly different) sessions.
            let b_r = self.model.add_binary(format!("b_r[R{r}]"));
            self.model.add_leq(
                [(s_r, 1.0), (t_r, 1.0), (b_r, -1.0)],
                1.0,
                format!("eq17[R{r}]"),
            );
            self.model.add_leq(
                [(b_r, 2.0), (s_r, -1.0), (t_r, -1.0)],
                0.0,
                format!("eq18[R{r}]"),
            );
            self.b_reg.push(b_r);

            // Per-session reductions t_rp, s_rp (Eqs. 19-20) and c_rp
            // (Eqs. 21-22).
            let mut c_terms = Vec::new();
            for p in 0..k {
                let t_terms_p: Vec<_> = self
                    .t
                    .iter()
                    .filter(|&(&(rr, _, _, pp), _)| rr == r && pp == p)
                    .map(|(_, &v)| (v, 1.0))
                    .collect();
                let s_terms_p: Vec<_> = self
                    .s
                    .iter()
                    .filter(|&(&(_, rr, pp), _)| rr == r && pp == p)
                    .map(|(_, &v)| (v, 1.0))
                    .collect();
                let t_rp = self.model.add_binary(format!("t_rp[R{r},s{p}]"));
                let s_rp = self.model.add_binary(format!("s_rp[R{r},s{p}]"));
                self.add_or_reduction(t_rp, &t_terms_p, format!("eq19[R{r},s{p}]"));
                self.add_or_reduction(s_rp, &s_terms_p, format!("eq20[R{r},s{p}]"));
                self.t_reg_session.insert((r, p), t_rp);
                self.s_reg_session.insert((r, p), s_rp);

                let c_rp = self.model.add_binary(format!("c_rp[R{r},s{p}]"));
                self.model.add_leq(
                    [(s_rp, 1.0), (t_rp, 1.0), (c_rp, -1.0)],
                    1.0,
                    format!("eq21[R{r},s{p}]"),
                );
                self.model.add_leq(
                    [(c_rp, 2.0), (s_rp, -1.0), (t_rp, -1.0)],
                    0.0,
                    format!("eq22[R{r},s{p}]"),
                );
                self.c_reg_session.insert((r, p), c_rp);
                c_terms.push((c_rp, 1.0));
            }

            // c_r (Eq. 23): CBILBO needed if required in any sub-session.
            let c_r = self.model.add_binary(format!("c_r[R{r}]"));
            self.add_or_reduction(c_r, &c_terms, format!("eq23[R{r}]"));
            self.c_reg.push(c_r);
        }
        Ok(())
    }

    /// Adds `indicator = OR(terms)` for binary terms: `N·indicator ≥ Σ terms`
    /// (the paper's Eq. (14) form, forcing the indicator up) and
    /// `indicator ≤ Σ terms` (forcing it down so extracted register kinds are
    /// exactly the roles used).
    fn add_or_reduction(
        &mut self,
        indicator: bist_ilp::VarId,
        terms: &[(bist_ilp::VarId, f64)],
        name: String,
    ) {
        if terms.is_empty() {
            self.model
                .add_eq([(indicator, 1.0)], 0.0, format!("{name}_zero"));
            return;
        }
        let n = terms.len() as f64;
        let mut up = LinExpr::term(indicator, n);
        for &(v, c) in terms {
            up.add_term(v, -c);
        }
        self.model.add_geq(up, 0.0, format!("{name}_up"));
        let mut down = LinExpr::term(indicator, 1.0);
        for &(v, c) in terms {
            down.add_term(v, -c);
        }
        self.model.add_leq(down, 0.0, format!("{name}_down"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthesisConfig;
    use bist_dfg::benchmarks;

    fn build(k: usize) -> BistFormulation<'static> {
        // Leak the input so the formulation can borrow it in a test helper.
        let input = Box::leak(Box::new(benchmarks::figure1()));
        let config = Box::leak(Box::new(SynthesisConfig::default()));
        let mut f = BistFormulation::new(input, config).unwrap();
        f.add_interconnect();
        f.add_mux_sizing();
        f.add_bist(k).unwrap();
        f
    }

    #[test]
    fn variable_counts_for_figure1_two_sessions() {
        let f = build(2);
        // s: 2 modules x 3 registers x 2 sessions.
        assert_eq!(f.s.len(), 12);
        // t: 3 registers x 4 register-fed ports x 2 sessions.
        assert_eq!(f.t.len(), 24);
        assert_eq!(f.t_reg.len(), 3);
        assert_eq!(f.s_reg.len(), 3);
        assert_eq!(f.b_reg.len(), 3);
        assert_eq!(f.c_reg.len(), 3);
        assert_eq!(f.t_reg_session.len(), 6);
        assert_eq!(f.num_sessions(), 2);
    }

    #[test]
    fn session_count_is_validated() {
        let input = benchmarks::figure1();
        let config = SynthesisConfig::default();
        let mut f = BistFormulation::new(&input, &config).unwrap();
        f.add_interconnect();
        f.add_mux_sizing();
        assert!(matches!(
            f.add_bist(0),
            Err(CoreError::InvalidSessionCount { .. })
        ));
        let mut f = BistFormulation::new(&input, &config).unwrap();
        f.add_interconnect();
        f.add_mux_sizing();
        assert!(matches!(
            f.add_bist(3),
            Err(CoreError::InvalidSessionCount {
                requested: 3,
                modules: 2
            })
        ));
    }

    #[test]
    fn constraint_families_are_present() {
        let f = build(1);
        let names: Vec<&str> = f
            .model
            .constraints()
            .iter()
            .map(|c| c.name.as_str())
            .collect();
        for family in [
            "eq6", "eq7", "eq8", "eq9", "eq10", "eq11", "eq12", "eq13", "eq15", "eq16", "eq17",
            "eq18", "eq19", "eq20", "eq21", "eq22", "eq23",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(family)),
                "missing constraint family {family}"
            );
        }
    }
}
