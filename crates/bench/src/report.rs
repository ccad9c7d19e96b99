//! JSON for the harness artifacts (`BENCH_*.json`).
//!
//! The records are written by a small hand-rolled writer (the build
//! environment has no crate registry, so `serde`/`serde_json` are not
//! available); only the shapes the harness emits need to serialise, which
//! keeps the writer tiny and the output stable for diffing across runs.

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
    fn special_floats_become_null() {
        let text = json::Obj::new()
            .f64("nan", f64::NAN)
            .f64("inf", f64::NEG_INFINITY)
            .f64("finite", 2.5)
            .finish();
        assert_eq!(
            text,
            "{\n  \"nan\": null,\n  \"inf\": null,\n  \"finite\": 2.5000\n}"
        );
    }

    #[test]
    fn escaping_covers_quotes_and_control_chars() {
        // Keys and string values both go through the one escaper.
        let text = json::Obj::new().str("k\"", "a\\b\n\u{1}").finish();
        assert_eq!(text, "{\n  \"k\\\"\": \"a\\\\b\\n\\u0001\"\n}");
        assert_eq!(json::fmt_f64(f64::INFINITY), "null");
    }
}
