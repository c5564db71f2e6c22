//! End-to-end taint coverage over the seeded-violation fixture files in
//! `fixtures/taint/`. Each leak fixture must produce exactly its expected
//! `taint.*` findings through the public [`slicer_lint::scan_sources`]
//! entry point (the same engine `--check` runs); the sanitized variants
//! must produce none.
//!
//! Fixtures are mounted at synthetic in-crate paths because source
//! seeding is gated to the protocol crates.

use slicer_lint::Finding;

fn scan_at(files: &[(&str, &str)]) -> Vec<Finding> {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    slicer_lint::scan_sources(&sources)
}

fn taint_rules(findings: &[Finding]) -> Vec<&'static str> {
    findings
        .iter()
        .filter(|f| f.rule.starts_with("taint."))
        .map(|f| f.rule)
        .collect()
}

#[test]
fn annotated_secret_to_log() {
    let found = scan_at(&[(
        "crates/core/src/leak_log.rs",
        include_str!("../fixtures/taint/leak_log.rs"),
    )]);
    assert_eq!(taint_rules(&found), vec!["taint.secret_to_log"]);
    let hit = &found[0];
    assert_eq!(hit.line, 9, "finding anchors to the span.attr call");
    assert!(hit.detail.contains("telemetry"), "{}", hit.detail);
}

#[test]
fn secret_typed_param_to_debug() {
    let found = scan_at(&[(
        "crates/crypto/src/leak_debug.rs",
        include_str!("../fixtures/taint/leak_debug.rs"),
    )]);
    assert_eq!(taint_rules(&found), vec!["taint.secret_to_debug"]);
}

#[test]
fn secret_to_persist_frames() {
    let found = scan_at(&[(
        "crates/persist/src/leak_persist.rs",
        include_str!("../fixtures/taint/leak_persist.rs"),
    )]);
    assert_eq!(taint_rules(&found), vec!["taint.secret_to_persist"]);
}

#[test]
fn secret_to_positioned_frame_write() {
    let found = scan_at(&[(
        "crates/daemon/src/leak_persist_at.rs",
        include_str!("../fixtures/taint/leak_persist_at.rs"),
    )]);
    assert_eq!(taint_rules(&found), vec!["taint.secret_to_persist"]);
    assert!(
        found[0].detail.contains("write_frames_at"),
        "{}",
        found[0].detail
    );
}

#[test]
fn secret_to_wire_encoder() {
    let found = scan_at(&[(
        "crates/daemon/src/leak_wire.rs",
        include_str!("../fixtures/taint/leak_wire.rs"),
    )]);
    assert_eq!(taint_rules(&found), vec!["taint.secret_to_wire"]);
}

#[test]
fn secret_getter_to_variable_time_eq() {
    let found = scan_at(&[(
        "crates/core/src/leak_ct.rs",
        include_str!("../fixtures/taint/leak_ct.rs"),
    )]);
    assert_eq!(taint_rules(&found), vec!["taint.secret_to_ct"]);
}

#[test]
fn interprocedural_chain_attributed_at_entry_call() {
    let found = scan_at(&[(
        "crates/core/src/leak_chain.rs",
        include_str!("../fixtures/taint/leak_chain.rs"),
    )]);
    let taints: Vec<&Finding> = found
        .iter()
        .filter(|f| f.rule.starts_with("taint."))
        .collect();
    // `middle`/`bottom` see only parameter taint (no secret source of
    // their own), so the single finding is at `top`'s call site,
    // carrying the whole chain.
    assert_eq!(taints.len(), 1, "{taints:?}");
    let hit = taints[0];
    assert_eq!(hit.rule, "taint.secret_to_log");
    assert_eq!(hit.line, 9, "attributed at top's call into middle");
    assert!(
        hit.detail.contains("middle") && hit.detail.contains("bottom"),
        "chain names every hop: {}",
        hit.detail
    );
}

#[test]
fn sanitized_variants_are_clean() {
    let found = scan_at(&[(
        "crates/core/src/sanitized.rs",
        include_str!("../fixtures/taint/sanitized.rs"),
    )]);
    assert_eq!(taint_rules(&found), Vec::<&str>::new(), "{found:?}");
}

#[test]
fn leak_fixtures_together_report_all_five_rules() {
    let found = scan_at(&[
        (
            "crates/core/src/leak_log.rs",
            include_str!("../fixtures/taint/leak_log.rs"),
        ),
        (
            "crates/crypto/src/leak_debug.rs",
            include_str!("../fixtures/taint/leak_debug.rs"),
        ),
        (
            "crates/persist/src/leak_persist.rs",
            include_str!("../fixtures/taint/leak_persist.rs"),
        ),
        (
            "crates/daemon/src/leak_wire.rs",
            include_str!("../fixtures/taint/leak_wire.rs"),
        ),
        (
            "crates/core/src/leak_ct.rs",
            include_str!("../fixtures/taint/leak_ct.rs"),
        ),
    ]);
    let mut rules = taint_rules(&found);
    rules.sort_unstable();
    assert_eq!(
        rules,
        vec![
            "taint.secret_to_ct",
            "taint.secret_to_debug",
            "taint.secret_to_log",
            "taint.secret_to_persist",
            "taint.secret_to_wire",
        ]
    );
}

#[test]
fn outside_protocol_crates_fixtures_are_ignored() {
    // The same leak mounted in the bench harness is out of scope: bench
    // code constructs key sets on purpose.
    let found = scan_at(&[(
        "crates/bench/src/leak_log.rs",
        include_str!("../fixtures/taint/leak_log.rs"),
    )]);
    assert_eq!(taint_rules(&found), Vec::<&str>::new());
}
