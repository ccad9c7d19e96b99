//! S3 acceptance suite for solve-state snapshots: interrupt → serialize →
//! temp file → reload → resume must provably continue the *same*
//! branch-and-bound tree.
//!
//! Over the pinned 12-instance corpus (see `common::corpus`), every case is
//! solved cold once, then interrupted at nodes 1, 3 and N/2 with snapshot
//! capture on; each snapshot is written to a temp file, read back by a
//! fresh engine/session, and the resumed solve must reach the **identical
//! objective, identical total node count and the golden optimal area** of
//! the uninterrupted run — a resumed tree explores no node twice and loses
//! none.

mod common;

use std::sync::Arc;

use advbist::core::engine::SynthesisEngine;
use advbist::core::SynthesisConfig;
use advbist::ilp::json::Value;
use advbist::ilp::SolverConfig;
use advbist::ilp::{Model, Sense};
use advbist::{Budget, SolveSession, SolveSnapshot};
use common::corpus::CORPUS;

/// Serializes through a real temp file and parses back — the full wire
/// round trip a persisted job would take.
fn file_round_trip(snapshot: &SolveSnapshot, tag: &str) -> SolveSnapshot {
    let path = std::env::temp_dir().join(format!(
        "advbist_snapshot_{tag}_{}.json",
        std::process::id()
    ));
    let text = snapshot.to_json().expect("snapshot serializes");
    std::fs::write(&path, &text).expect("snapshot written");
    let reread = std::fs::read_to_string(&path).expect("snapshot reread");
    std::fs::remove_file(&path).ok();
    SolveSnapshot::from_json(&reread).expect("snapshot parses back")
}

#[test]
fn corpus_resumes_reach_the_uninterrupted_tree_exactly() {
    for case in CORPUS {
        let input = case.input();
        let config = SynthesisConfig::exact();
        let engine = SynthesisEngine::new(&input, &config).expect(case.name);

        let cold = engine
            .synthesize_resumable(case.sessions, None, None)
            .expect(case.name);
        assert!(
            cold.design.optimal,
            "{}: cold solve must be exact",
            case.name
        );
        assert_eq!(
            cold.design.area.total(),
            case.golden_area,
            "{}: cold golden area",
            case.name
        );
        assert!(
            cold.design.snapshot.is_none(),
            "{}: a completed solve must not carry a snapshot",
            case.name
        );
        let total_nodes = cold.design.stats.nodes;

        let mut interrupts = vec![1, 3, total_nodes / 2];
        interrupts.sort_unstable();
        interrupts.dedup();
        for interrupt in interrupts {
            if interrupt == 0 || interrupt >= total_nodes {
                continue;
            }
            let mut cut_config = SynthesisConfig::exact();
            cut_config.solver.budget = Budget::nodes(interrupt);
            let cut_engine = SynthesisEngine::new(&input, &cut_config).expect(case.name);
            let partial = cut_engine
                .synthesize_resumable(case.sessions, None, None)
                .expect(case.name);
            assert!(
                !partial.design.optimal,
                "{}@{interrupt}: interrupted solve must not be proven optimal",
                case.name
            );
            let snapshot = partial
                .design
                .snapshot
                .clone()
                .unwrap_or_else(|| panic!("{}@{interrupt}: no snapshot captured", case.name));
            assert!(snapshot.open_nodes() > 0, "{}@{interrupt}", case.name);

            let reloaded = file_round_trip(&snapshot, &format!("{}_{interrupt}", case.name));
            let resumed = engine
                .synthesize_resumable(case.sessions, None, Some(Arc::new(reloaded)))
                .expect(case.name);

            assert!(resumed.design.stats.resumed, "{}@{interrupt}", case.name);
            assert!(
                resumed.design.optimal,
                "{}@{interrupt}: resumed solve must finish exactly",
                case.name
            );
            assert_eq!(
                resumed.design.stats.nodes, total_nodes,
                "{}@{interrupt}: resumed total node count must equal the uninterrupted tree",
                case.name
            );
            assert_eq!(
                resumed.design.objective.to_bits(),
                cold.design.objective.to_bits(),
                "{}@{interrupt}: resumed objective must be bit-identical",
                case.name
            );
            assert_eq!(
                resumed.design.area.total(),
                case.golden_area,
                "{}@{interrupt}: resumed golden area",
                case.name
            );
        }
    }
}

/// A branchy pure-ILP instance for the session-level round trip: maximise a
/// value under a knapsack row plus pairwise conflicts, sized to take a few
/// dozen nodes.
fn knapsack_model() -> Model {
    knapsack_model_weighted(12.0)
}

/// The same instance with the weight of `x7` replaced, so two builds with
/// different `x7_value` collide on size but differ in one coefficient.
fn knapsack_model_weighted(x7_value: f64) -> Model {
    let mut model = Model::new("snapshot-knapsack");
    let weights = [5.0, 7.0, 4.0, 3.0, 8.0, 6.0, 5.0, 9.0, 2.0, 4.0];
    let values = [7.0, 9.0, 5.0, 4.0, 11.0, 8.0, 6.0, x7_value, 3.0, 5.0];
    let vars: Vec<_> = (0..weights.len())
        .map(|i| model.add_binary(format!("x{i}")))
        .collect();
    let cap: Vec<_> = vars.iter().zip(weights).map(|(&v, w)| (v, w)).collect();
    model.add_leq(cap, 22.0, "cap");
    for i in 0..vars.len() - 3 {
        model.add_leq([(vars[i], 1.0), (vars[i + 3], 1.0)], 1.0, format!("c{i}"));
    }
    let objective: Vec<_> = vars.iter().zip(values).map(|(&v, c)| (v, c)).collect();
    model.set_objective(objective, Sense::Maximize);
    model
}

#[test]
fn fresh_session_resumes_a_file_round_tripped_snapshot() {
    let model = knapsack_model();
    let cold = SolveSession::new(&model)
        .snapshots(true)
        .solve()
        .expect("cold solve");
    assert!(cold.is_optimal());
    assert!(cold.snapshot().is_none());
    let total_nodes = cold.stats().nodes;
    assert!(total_nodes > 3, "instance must branch (got {total_nodes})");

    for interrupt in [1, 3, total_nodes / 2] {
        let partial = SolveSession::new(&model)
            .budget(Budget::nodes(interrupt).with_snapshot(true))
            .solve()
            .expect("interrupted solve");
        let snapshot = partial.snapshot().expect("snapshot captured");
        assert_eq!(snapshot.nodes(), interrupt);

        let reloaded = file_round_trip(snapshot, &format!("session_{interrupt}"));
        // A *fresh* session over the same model, resuming from the file.
        let resumed = SolveSession::new(&model)
            .resume(Arc::new(reloaded))
            .solve()
            .expect("resumed solve");
        assert!(resumed.is_optimal());
        assert!(resumed.stats().resumed);
        assert_eq!(resumed.stats().nodes, total_nodes, "@{interrupt}");
        assert_eq!(
            resumed.objective().to_bits(),
            cold.objective().to_bits(),
            "@{interrupt}"
        );
        assert_eq!(resumed.values(), cold.values(), "@{interrupt}");
    }
}

/// Rewrites a current (v3) snapshot document into the shape an earlier
/// release wrote at wire `version`: v1 has no `eager_separation` key, and
/// v2 has an `"ng": true` flag on every frontier node and a `pending_cuts`
/// batch, here holding one learned no-good.
fn downgrade(doc: &mut Value, version: u64) {
    *field_mut(doc, "version") = Value::Int(version);
    let Value::Object(fields) = doc else {
        panic!("snapshot document must be an object");
    };
    if version == 1 {
        fields.retain(|(key, _)| key != "eager_separation");
        return;
    }
    // x0 + x3 <= 1 repeats the conflict row `c0`: a valid no-good.
    let one = 1.0f64.to_bits();
    let batch = format!(r#"[{{"terms":[[0,{one}],[3,{one}]],"rhs":{one},"kind":"nogood"}}]"#);
    fields.push((
        "pending_cuts".into(),
        Value::parse(&batch).expect("valid json"),
    ));
    for node in items_mut(field_mut(doc, "frontier")) {
        let Value::Object(node_fields) = node else {
            panic!("frontier nodes are objects");
        };
        node_fields.push(("ng".into(), Value::Bool(true)));
    }
}

#[test]
fn old_snapshots_resume_the_uninterrupted_tree() {
    // Backward compatibility: the current engine must accept every older
    // wire version down to `MIN_FORMAT_VERSION`. It defaults the fields
    // that did not exist yet and ignores the ones that no longer exist,
    // and the resumed search finishes the very tree the uninterrupted run
    // explores.
    let model = knapsack_model();
    let cold = SolveSession::new(&model).solve().expect("cold solve");
    assert!(cold.is_optimal());
    let total_nodes = cold.stats().nodes;

    for interrupt in 1..total_nodes {
        let partial = SolveSession::new(&model)
            .budget(Budget::nodes(interrupt).with_snapshot(true))
            .solve()
            .expect("interrupted solve");
        let snapshot = partial.snapshot().expect("snapshot captured");
        let text = snapshot.to_json().expect("snapshot serializes");
        assert!(text.contains("\"version\":3"), "current wire version is 3");
        assert!(!text.contains("pending_cuts") && !text.contains("\"ng\""));

        for version in [1, 2] {
            let mut doc = Value::parse(&text).expect("valid json");
            downgrade(&mut doc, version);
            let reloaded = SolveSnapshot::from_json(&doc.write())
                .unwrap_or_else(|e| panic!("v{version}@{interrupt}: old snapshot loads: {e}"));
            let resumed = SolveSession::new(&model)
                .resume(Arc::new(reloaded))
                .solve()
                .expect("resumed solve");
            assert!(resumed.is_optimal(), "v{version}@{interrupt}");
            assert!(resumed.stats().resumed, "v{version}@{interrupt}");
            assert_eq!(
                resumed.stats().nodes,
                total_nodes,
                "v{version}@{interrupt}: resumed total node count"
            );
            assert_eq!(
                resumed.objective().to_bits(),
                cold.objective().to_bits(),
                "v{version}@{interrupt}: resumed objective"
            );
        }
    }
}

#[test]
fn resume_rejects_a_snapshot_of_a_different_instance() {
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(1).with_snapshot(true))
        .solve()
        .expect("interrupted solve");
    let snapshot = partial.shared_snapshot().expect("snapshot captured");

    // Same shape, one objective coefficient nudged: the content fingerprint
    // differs, so the resume must fail loudly instead of continuing a tree
    // that belongs to another instance.
    let other = knapsack_model_weighted(12.5);
    let err = SolveSession::new(&other)
        .resume(snapshot)
        .solve()
        .expect_err("mismatched snapshot must be rejected");
    let message = err.to_string();
    assert!(
        message.contains("snapshot") || message.contains("fingerprint"),
        "unexpected error: {message}"
    );
}

/// The value under `key` of a JSON object.
fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Object(fields) = value else {
        panic!("expected an object holding `{key}`");
    };
    &mut fields
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("missing `{key}`"))
        .1
}

/// The items of a JSON array.
fn items_mut(value: &mut Value) -> &mut Vec<Value> {
    let Value::Array(items) = value else {
        panic!("expected an array");
    };
    items
}

/// Whether a stored basis has an eta with an off-pivot term.
fn has_eta_terms(basis: &Value) -> bool {
    basis
        .get("etas")
        .and_then(Value::as_array)
        .is_some_and(|etas| {
            etas.iter().any(
                |eta| matches!(eta.as_array(), Some([_, _, Value::Array(terms)]) if !terms.is_empty()),
            )
        })
}

/// The first eta of a stored basis that has an off-pivot term, as its
/// `[row, pivot bits, [[row, value bits], ...]]` array.
fn first_eta_with_terms(basis: &mut Value) -> Option<&mut Vec<Value>> {
    items_mut(field_mut(basis, "etas"))
        .iter_mut()
        .map(items_mut)
        .find(|eta| matches!(&eta[2], Value::Array(terms) if !terms.is_empty()))
}

#[test]
fn corrupt_snapshot_bases_fail_with_a_typed_error() {
    // Each edit corrupts one stored basis of a real snapshot in a way the
    // document's shape still allows. Resuming from any of them used to
    // index out of bounds or divide by zero inside the LP kernel; parsing
    // must refuse them instead.
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(1).with_snapshot(true))
        .solve()
        .expect("interrupted solve");
    let text = partial
        .snapshot()
        .expect("snapshot captured")
        .to_json()
        .expect("snapshot serializes");
    SolveSnapshot::from_json(&text).expect("the unedited snapshot loads");

    type Edit = (&'static str, fn(&mut Value));
    let edits: [Edit; 4] = [
        ("eta term index past the rows", |basis| {
            let eta = first_eta_with_terms(basis).expect("an eta with terms");
            items_mut(&mut items_mut(&mut eta[2])[0])[0] = Value::Int(1_000_000);
        }),
        ("zero eta pivot", |basis| {
            let eta = first_eta_with_terms(basis).expect("an eta with terms");
            eta[1] = Value::Int(0.0f64.to_bits());
        }),
        ("non-finite eta pivot", |basis| {
            let eta = first_eta_with_terms(basis).expect("an eta with terms");
            eta[1] = Value::Int(f64::INFINITY.to_bits());
        }),
        ("basis entry not marked basic", |basis| {
            let Value::Int(j) = items_mut(field_mut(basis, "basis"))[0] else {
                panic!("basis entries are column indices");
            };
            items_mut(field_mut(basis, "status"))[j as usize] = Value::Int(1);
        }),
    ];
    for (what, edit) in edits {
        let mut doc = Value::parse(&text).expect("valid json");
        let entry = items_mut(field_mut(&mut doc, "bases"))
            .iter_mut()
            .map(|entry| field_mut(entry, "basis"))
            .find(|basis| has_eta_terms(basis))
            .expect("a stored basis with an eta term");
        edit(entry);
        let err = SolveSnapshot::from_json(&doc.write())
            .expect_err(&format!("{what}: corrupt snapshot must be refused"));
        assert!(
            err.to_string().contains("invalid solve snapshot"),
            "{what}: unexpected error {err}"
        );
    }
}

#[test]
fn best_first_snapshots_fail_with_a_typed_error() {
    // The solver searches depth-first, and every snapshot it writes says
    // so. A document naming another node order must be refused with a
    // typed error, never resumed in the wrong order and never a panic.
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(1).with_snapshot(true))
        .solve()
        .expect("interrupted solve");
    let text = partial
        .snapshot()
        .expect("snapshot captured")
        .to_json()
        .expect("snapshot serializes");
    let mut doc = Value::parse(&text).expect("valid json");
    assert_eq!(field_mut(&mut doc, "search").as_str(), Some("depth_first"));
    *field_mut(&mut doc, "search") = Value::Str("best_first".into());
    let err =
        SolveSnapshot::from_json(&doc.write()).expect_err("a best-first snapshot must be refused");
    assert!(
        err.to_string().contains("best_first"),
        "unexpected error {err}"
    );
}

#[test]
fn snapshot_capture_is_off_by_default() {
    let model = knapsack_model();
    let partial = SolveSession::new(&model)
        .budget(Budget::nodes(2))
        .solve()
        .expect("interrupted solve");
    assert!(!partial.is_optimal());
    assert!(partial.snapshot().is_none());
    assert!(!partial.stats().snapshot_captured);
}

#[test]
fn budget_snapshot_knob_flows_through_the_solver_config() {
    // `Budget::snapshot` (the BIST_SNAPSHOT env knob) must reach the
    // search: Some(true) captures, Some(false) overrides an enabled config.
    let model = knapsack_model();
    let on = SolveSession::with_config(&model, SolverConfig::default())
        .budget(Budget::nodes(2).with_snapshot(true))
        .solve()
        .expect("solve");
    assert!(on.stats().snapshot_captured);
    let off = SolveSession::new(&model)
        .snapshots(true)
        .budget(Budget::nodes(2).with_snapshot(false))
        .solve()
        .expect("solve");
    assert!(!off.stats().snapshot_captured);
}
