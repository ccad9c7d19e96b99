//! Reproduction of Table 2: ADVBIST area overhead for every k-test session
//! of every circuit, rendered from the chained rows of the node-budgeted
//! sweep ([`crate::sweep`]).

use crate::sweep::CircuitSweep;

/// Renders the chained sweep rows in the layout of the paper's Table 2 (one
/// circuit per block, one row per k), pricing each design against the
/// circuit's reference area. Rows whose optimality was not proven are marked
/// with `*`, matching the paper's convention; an unproven reference area is
/// marked the same way. `gap(%)` is the row's area gap
/// ([`crate::sweep::SweepKRow::area_gap`]) and `nodes` its search effort.
pub fn render(sweeps: &[CircuitSweep]) -> String {
    let mut out = String::new();
    out.push_str("Table 2: Performance of the proposed method ADVBIST\n");
    out.push_str(&format!(
        "{:<10} {:>4} {:>12} {:>8} {:>6} {:>10} {:>10}\n",
        "Ckt", "k", "overhead(%)", "gap(%)", "nodes", "area", "ref.area"
    ));
    for (i, sweep) in sweeps.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let reference = sweep.reference_area();
        for (row, design) in sweep.chained.iter().zip(&sweep.designs) {
            out.push_str(&format!(
                "{:<10} {:>4} {:>11.1}{} {:>8.1} {:>6} {:>10} {:>9}{}\n",
                sweep.circuit,
                row.sessions,
                design.overhead_percent(reference),
                if row.optimal { " " } else { "*" },
                row.area_gap * 100.0,
                row.nodes,
                row.area,
                reference,
                if sweep.reference.optimal { " " } else { "*" },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep;
    use bist_core::SynthesisConfig;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_rows_have_nonnegative_overhead() {
        let input = benchmarks::figure1();
        let sweep = sweep::run_circuit("figure1", &input, &SynthesisConfig::exact()).unwrap();
        assert_eq!(sweep.designs.len(), 2);
        for design in &sweep.designs {
            assert!(design.overhead_percent(sweep.reference_area()) >= 0.0);
            assert!(design.area.total() >= sweep.reference_area());
        }
        let text = render(&[sweep]);
        assert!(text.contains("figure1"));
        assert!(text.contains("overhead"));
        assert!(text.contains("gap(%)"));
        // Every figure1 row and its reference are proven optimal.
        assert!(!text.contains('*'), "{text}");
    }

    #[test]
    fn tseng_sweep_produces_reasonable_overheads() {
        // The paper's Table 2 shows overheads shrinking as k grows (more
        // sub-test sessions relax the concurrency constraints). Under the
        // small node budget used in tests the solver stops early, so we only
        // check the sweep structure and that overheads stay in a sane band.
        let sweep = sweep::tseng_at_60_nodes();
        assert_eq!(sweep.chained.len(), 3);
        for (row, design) in sweep.chained.iter().zip(&sweep.designs) {
            let overhead = design.overhead_percent(sweep.reference_area());
            assert!((0.0..=120.0).contains(&overhead), "{row:?}");
            assert!(row.area >= sweep.reference_area(), "{row:?}");
        }
        assert_eq!(sweep.chained[0].sessions, 1);
        assert_eq!(sweep.chained[2].sessions, 3);
    }
}
