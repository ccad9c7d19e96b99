//! CPLEX LP-format writer.
//!
//! The DAC'99 authors solved their formulations with CPLEX 6.0. This module
//! serialises a [`Model`] into the (still current) CPLEX LP text format so a
//! generated BIST model can be inspected by hand or handed to an external
//! solver for cross-checking our built-in branch and bound.

use crate::model::{CmpOp, Model, Sense};
use std::fmt::Write as _;

/// Renders the model in CPLEX LP format.
///
/// Variable names are sanitised (characters outside `[A-Za-z0-9_]` become
/// `_`) and deduplicated by suffixing the variable index, because the LP
/// format requires unique identifiers. Every variable is listed in the
/// `Binaries` section, which implies its `[0, 1]` box, so the text has no
/// `Bounds` section.
pub fn to_lp_string(model: &Model) -> String {
    let names: Vec<String> = model
        .vars()
        .iter()
        .enumerate()
        .map(|(i, v)| sanitize(&v.name, i))
        .collect();

    let mut out = String::new();
    let _ = writeln!(out, "\\ Problem: {}", model.name());
    match model.sense() {
        Sense::Minimize => out.push_str("Minimize\n"),
        Sense::Maximize => out.push_str("Maximize\n"),
    }
    out.push_str(" obj:");
    if model.objective().is_empty() {
        out.push_str(" 0");
    } else {
        for (var, coeff) in model.objective().iter() {
            append_term(&mut out, coeff, &names[var.index()]);
        }
    }
    out.push('\n');

    out.push_str("Subject To\n");
    for (i, c) in model.constraints().iter().enumerate() {
        let cname = sanitize(&c.name, i);
        let _ = write!(out, " c{i}_{cname}:");
        if c.expr.is_empty() {
            out.push_str(" 0");
        }
        for (var, coeff) in c.expr.iter() {
            append_term(&mut out, coeff, &names[var.index()]);
        }
        let op = match c.op {
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
        };
        let _ = writeln!(out, " {op} {}", c.rhs);
    }

    if !names.is_empty() {
        out.push_str("Binaries\n");
        for name in &names {
            let _ = writeln!(out, " {name}");
        }
    }

    out.push_str("End\n");
    out
}

fn append_term(out: &mut String, coeff: f64, name: &str) {
    if coeff >= 0.0 {
        let _ = write!(out, " + {coeff} {name}");
    } else {
        let _ = write!(out, " - {} {name}", -coeff);
    }
}

fn sanitize(name: &str, index: usize) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() || cleaned.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        format!("v{index}_{cleaned}")
    } else {
        format!("{cleaned}_{index}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn lp_output_contains_all_sections() {
        let mut m = Model::new("demo");
        let x = m.add_binary("x[0,1]");
        let y = m.add_binary("mux size");
        let z = m.add_binary("slack");
        m.add_leq([(x, 1.0), (y, 2.0)], 3.0, "cap");
        m.add_geq([(z, 1.0), (x, -1.0)], 0.0, "link");
        m.set_objective([(x, 5.0), (y, 1.0)], Sense::Minimize);
        let text = to_lp_string(&m);
        assert!(text.contains("Minimize"));
        assert!(text.contains("Subject To"));
        assert!(text.contains("Binaries"));
        assert!(text.contains("End"));
        // names are sanitised
        assert!(!text.contains("x[0,1]"));
        assert!(!text.contains("mux size"));
    }

    #[test]
    fn maximisation_and_empty_objective() {
        let mut m = Model::new("max");
        let x = m.add_binary("x");
        m.add_leq([(x, 1.0)], 1.0, "c");
        let text = to_lp_string(&m);
        assert!(text.contains("Minimize")); // default sense
        assert!(text.contains(" obj: 0"));
        m.set_objective([(x, 1.0)], Sense::Maximize);
        let text = to_lp_string(&m);
        assert!(text.contains("Maximize"));
    }

    #[test]
    fn writes_every_variable_kind_and_row_sense() {
        // Binaries under `<=`, `>=` and `=` rows. No variable gets a bounds
        // line: the `Binaries` section implies each [0, 1] box.
        let mut m = Model::new("all_kinds");
        let x = m.add_binary("x[0,1]");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_leq([(x, 1.0), (y, 2.0)], 3.0, "cap");
        m.add_geq([(z, 1.0), (x, -1.0)], 0.0, "link");
        m.add_eq([(y, 1.0)], 4.0, "pin");
        m.set_objective([(x, 5.0), (z, -1.5)], Sense::Minimize);

        let expected = "\\ Problem: all_kinds
Minimize
 obj: + 5 x_0_1__0 - 1.5 z_2
Subject To
 c0_cap_0: + 1 x_0_1__0 + 2 y_1 <= 3
 c1_link_1: - 1 x_0_1__0 + 1 z_2 >= 0
 c2_pin_2: + 1 y_1 = 4
Binaries
 x_0_1__0
 y_1
 z_2
End
";
        assert_eq!(to_lp_string(&m), expected);
    }

    #[test]
    fn negative_coefficients_render_with_minus() {
        let mut m = Model::new("neg");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_leq([(x, 1.0), (y, -1.0)], 0.0, "c");
        m.set_objective([(x, -2.0)], Sense::Minimize);
        let text = to_lp_string(&m);
        assert!(text.contains("- 2 x_0"));
        assert!(text.contains("- 1 y_1"));
    }
}
