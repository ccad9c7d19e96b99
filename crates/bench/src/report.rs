//! Serialisable result records for the experiment harness.
//!
//! The records are written as JSON by a small hand-rolled writer (the build
//! environment has no crate registry, so `serde`/`serde_json` are not
//! available); only the exact shapes below need to serialise, which keeps
//! the writer tiny and the output stable for diffing across runs.

use crate::sweep::CircuitSweep;

/// One row of the Table 2 reproduction: ADVBIST for one circuit and one
/// k-test session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRow {
    /// Circuit name.
    pub circuit: String,
    /// Number of sub-test sessions `k`.
    pub sessions: usize,
    /// Area overhead over the reference circuit, in percent.
    pub overhead_percent: f64,
    /// Wall-clock solve time in seconds.
    pub time_seconds: f64,
    /// Whether the solver proved optimality within its budget (rows the paper
    /// marks with `*` are the non-proven ones).
    pub optimal: bool,
    /// Total area (registers + multiplexers) in transistors.
    pub area: u64,
    /// Reference area in transistors.
    pub reference_area: u64,
    /// Branch-and-bound nodes explored by the main solve.
    pub nodes: u64,
    /// LP relaxations solved by the main solve.
    pub lp_solves: u64,
}

impl SessionRow {
    /// Serialises the row as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .u64("sessions", self.sessions as u64)
            .f64("overhead_percent", self.overhead_percent)
            .f64("time_seconds", self.time_seconds)
            .bool("optimal", self.optimal)
            .u64("area", self.area)
            .u64("reference_area", self.reference_area)
            .u64("nodes", self.nodes)
            .u64("lp_solves", self.lp_solves)
            .finish()
    }
}

/// One row of the Table 3 reproduction: one method on one circuit at the
/// maximal test-session count.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodRow {
    /// Circuit name.
    pub circuit: String,
    /// Method name (`Ref.`, `ADVBIST`, `ADVAN`, `RALLOC`, `BITS`).
    pub method: String,
    /// Number of sub-test sessions.
    pub sessions: usize,
    /// Total registers (column R).
    pub registers: usize,
    /// TPG-only registers (column T).
    pub tpgs: usize,
    /// SR-only registers (column S).
    pub srs: usize,
    /// BILBOs (column B).
    pub bilbos: usize,
    /// CBILBOs (column C).
    pub cbilbos: usize,
    /// Total multiplexer inputs (column M).
    pub mux_inputs: usize,
    /// Total area in transistors (column Area).
    pub area: u64,
    /// Area overhead in percent (column OH).
    pub overhead_percent: f64,
}

impl MethodRow {
    /// Serialises the row as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .str("method", &self.method)
            .u64("sessions", self.sessions as u64)
            .u64("registers", self.registers as u64)
            .u64("tpgs", self.tpgs as u64)
            .u64("srs", self.srs as u64)
            .u64("bilbos", self.bilbos as u64)
            .u64("cbilbos", self.cbilbos as u64)
            .u64("mux_inputs", self.mux_inputs as u64)
            .u64("area", self.area)
            .f64("overhead_percent", self.overhead_percent)
            .finish()
    }
}

/// Serialises a per-kind cut counter block ([`bist_ilp::CutCounts`]) as a
/// nested JSON object, as the sweep artifact rows carry it.
pub fn cut_counts_json(counts: &bist_ilp::CutCounts) -> String {
    json::Obj::new()
        .u64("cover", counts.cover)
        .u64("clique", counts.clique)
        .u64("gomory", counts.gomory)
        .u64("lifted_cover", counts.lifted_cover)
        .u64("nogood", counts.nogood)
        .finish()
}

/// Serialises one solve's cold LP solves, by reason, as a JSON object.
pub fn cold_lp_json(counts: &bist_ilp::ColdLpCounts) -> String {
    json::Obj::new()
        .u64("root", counts.root)
        .u64("no_parent_basis", counts.no_parent_basis)
        .u64("unusable_basis", counts.unusable_basis)
        .u64("over_budget", counts.over_budget)
        .u64("leaf", counts.leaf)
        .finish()
}

/// A complete harness run, serialisable to JSON for EXPERIMENTS.md.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExperimentReport {
    /// Per-instance ILP budget in seconds.
    pub time_limit_seconds: f64,
    /// Table 2 rows.
    pub table2: Vec<SessionRow>,
    /// Table 3 rows.
    pub table3: Vec<MethodRow>,
    /// Per-circuit k-sweep comparison (rebuild baseline vs the layered
    /// engine), empty when the sweep benchmark did not run.
    pub sweep: Vec<CircuitSweep>,
}

impl ExperimentReport {
    /// Serialises the report as pretty JSON.
    ///
    /// # Errors
    ///
    /// Infallible in practice; the `Result` is kept so call sites do not
    /// change if a richer serialiser is swapped back in.
    pub fn to_json(&self) -> Result<String, std::fmt::Error> {
        Ok(json::Obj::new()
            .f64("time_limit_seconds", self.time_limit_seconds)
            .array("table2", self.table2.iter().map(SessionRow::to_json))
            .array("table3", self.table3.iter().map(MethodRow::to_json))
            .array("sweep", self.sweep.iter().map(CircuitSweep::to_json))
            .finish())
    }
}

/// Minimal JSON writing helpers shared by the harness reports: a tiny JSON
/// object/array writer covering string keys, the scalar types used by the
/// reports, and pre-serialised nested values. Non-finite floats are written
/// as `null` (JSON has no NaN/Inf). This is the workspace's one JSON
/// writer.
pub mod json {
    /// Quotes and escapes `s` as a JSON string literal.
    fn quote(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Renders a float as JSON (4 decimal places, `null` for non-finite).
    pub fn fmt_f64(v: f64) -> String {
        if v.is_finite() {
            format!("{v:.4}")
        } else {
            "null".to_string()
        }
    }

    /// Incremental JSON object writer.
    #[derive(Debug, Default)]
    pub struct Obj {
        fields: Vec<(String, String)>,
    }

    impl Obj {
        /// Starts an empty object.
        pub fn new() -> Self {
            Self::default()
        }

        fn push(mut self, key: &str, raw: String) -> Self {
            self.fields.push((key.to_string(), raw));
            self
        }

        /// Adds a string field.
        pub fn str(self, key: &str, value: &str) -> Self {
            self.push(key, quote(value))
        }

        /// Adds an unsigned integer field.
        pub fn u64(self, key: &str, value: u64) -> Self {
            self.push(key, value.to_string())
        }

        /// Adds a float field (`null` when non-finite).
        pub fn f64(self, key: &str, value: f64) -> Self {
            self.push(key, fmt_f64(value))
        }

        /// Adds an optional unsigned integer field (`null` when absent).
        pub fn opt_u64(self, key: &str, value: Option<u64>) -> Self {
            match value {
                Some(v) => self.u64(key, v),
                None => self.push(key, "null".to_string()),
            }
        }

        /// Adds a boolean field.
        pub fn bool(self, key: &str, value: bool) -> Self {
            self.push(key, value.to_string())
        }

        /// Adds a field from a pre-serialised JSON value (nested objects).
        pub fn raw(self, key: &str, value: String) -> Self {
            self.push(key, value)
        }

        /// Adds an array field from pre-serialised JSON elements.
        pub fn array(self, key: &str, items: impl Iterator<Item = String>) -> Self {
            let body = items.collect::<Vec<_>>().join(", ");
            self.push(key, format!("[{body}]"))
        }

        /// Closes the object and returns its JSON text.
        pub fn finish(self) -> String {
            let mut out = String::from("{");
            for (i, (key, raw)) in self.fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n  {}: {}", quote(key), raw));
            }
            out.push_str("\n}");
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serialises_to_json() {
        let report = ExperimentReport {
            time_limit_seconds: 5.0,
            table2: vec![SessionRow {
                circuit: "tseng".into(),
                sessions: 3,
                overhead_percent: 25.7,
                time_seconds: 1.5,
                optimal: true,
                area: 2152,
                reference_area: 1600,
                nodes: 42,
                lp_solves: 7,
            }],
            table3: vec![MethodRow {
                circuit: "tseng".into(),
                method: "ADVBIST".into(),
                sessions: 3,
                registers: 5,
                tpgs: 2,
                srs: 1,
                bilbos: 2,
                cbilbos: 0,
                mux_inputs: 14,
                area: 2152,
                overhead_percent: 25.7,
            }],
            sweep: Vec::new(),
        };
        let json = report.to_json().unwrap();
        assert!(json.contains("\"tseng\""));
        assert!(json.contains("\"overhead_percent\": 25.7000"));
        assert!(json.contains("\"optimal\": true"));
        assert!(json.contains("\"nodes\": 42"));
        assert!(json.starts_with('{'));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn special_floats_become_null() {
        let row = SessionRow {
            circuit: "x".into(),
            sessions: 1,
            overhead_percent: f64::NAN,
            time_seconds: 0.0,
            optimal: false,
            area: 0,
            reference_area: 0,
            nodes: 0,
            lp_solves: 0,
        };
        let report = ExperimentReport {
            time_limit_seconds: 1.0,
            table2: vec![row],
            table3: vec![],
            sweep: vec![],
        };
        let json = report.to_json().unwrap();
        assert!(json.contains("null"));
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        // Keys and string values both go through the one escaper.
        let text = json::Obj::new().str("k\"", "a\\b\n\u{1}").finish();
        assert_eq!(text, "{\n  \"k\\\"\": \"a\\\\b\\n\\u0001\"\n}");
        assert_eq!(json::fmt_f64(f64::INFINITY), "null");
    }
}
