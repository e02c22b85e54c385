//! The benchmark's own tests: the traced oracle wrapper changes nothing
//! the campaign reports, and the output check rejects tampered output.

use campaign_bench::check::{check_report, check_same, Fingerprint};
use campaign_bench::workload::{Shape, Workload};
use lancer_core::{CampaignReport, CampaignStats};
use lancer_engine::{BugId, Dialect};

/// The stats that must repeat exactly: everything except wall-clock
/// timings and the counts the reducer's worker pool makes wobble
/// (replay-cache resumes and verdict-memo hits, copy-on-write unshares,
/// rewinds).
fn exact_stats(s: &CampaignStats) -> Vec<(&'static str, String)> {
    vec![
        ("statements_executed", s.statements_executed.to_string()),
        ("queries_checked", s.queries_checked.to_string()),
        ("containment_violations", s.containment_violations.to_string()),
        ("unexpected_errors", s.unexpected_errors.to_string()),
        ("crashes", s.crashes.to_string()),
        ("tlp_violations", s.tlp_violations.to_string()),
        ("norec_violations", s.norec_violations.to_string()),
        ("serializability_violations", s.serializability_violations.to_string()),
        ("serial_episodes_checked", s.serial_episodes_checked.to_string()),
        ("serial_orders_tried", s.serial_orders_tried.to_string()),
        ("norec_pairs_checked", s.norec_pairs_checked.to_string()),
        ("norec_plan_divergences", s.norec_plan_divergences.to_string()),
        ("first_detection_check", format!("{:?}", s.first_detection_check)),
        ("spurious", s.spurious.to_string()),
        ("unattributed", s.unattributed.to_string()),
        ("unique_plans", s.unique_plans.to_string()),
        ("plan_mutations", s.plan_mutations.to_string()),
        ("reduction_candidates_evaluated", s.reduction_candidates_evaluated.to_string()),
        ("reduction_memo_hits", s.reduction_memo_hits.to_string()),
        ("reduction_session_candidates", s.reduction_session_candidates.to_string()),
        ("reduction_statement_candidates", s.reduction_statement_candidates.to_string()),
        ("reduction_expression_candidates", s.reduction_expression_candidates.to_string()),
        ("reduction_statements_before", s.reduction_statements_before.to_string()),
        ("reduction_statements_after_sessions", s.reduction_statements_after_sessions.to_string()),
        ("reduction_statements_after", s.reduction_statements_after.to_string()),
        ("reduction_expr_nodes_before", s.reduction_expr_nodes_before.to_string()),
        (
            "reduction_expr_nodes_after_statements",
            s.reduction_expr_nodes_after_statements.to_string(),
        ),
        ("reduction_expr_nodes_after", s.reduction_expr_nodes_after.to_string()),
        ("coverage_fraction", s.coverage_fraction.to_string()),
    ]
}

fn quick_report(workload: Workload, dialect: Dialect) -> CampaignReport {
    workload.campaign(&Shape::quick(), dialect, 0x5EED).run()
}

#[test]
fn traced_oracles_are_transparent() {
    for workload in Workload::ALL {
        for dialect in Dialect::ALL.iter().copied() {
            let plain = quick_report(workload, dialect);
            let (campaign, recorder) = workload.traced_campaign(&Shape::quick(), dialect, 0x5EED);
            assert_eq!(
                campaign.oracle_names(),
                workload.campaign(&Shape::quick(), dialect, 0x5EED).oracle_names()
            );
            let (traced, trace) = recorder.run(&campaign);
            let context = format!("{} on {}", workload.name(), dialect.name());
            assert_eq!(Fingerprint::of(&plain), Fingerprint::of(&traced), "{context}");
            assert_eq!(exact_stats(&plain.stats), exact_stats(&traced.stats), "{context}");
            assert_eq!(trace.checks, trace.expected_checks, "{context}");
            assert_eq!(trace.log_mismatches, 0, "{context}");
            assert_eq!(trace.dbs.len(), Shape::quick().databases, "{context}");
        }
    }
}

#[test]
fn output_check_accepts_a_repeat_and_rejects_tampering() {
    let report = quick_report(Workload::PaperNorec, Dialect::Sqlite);
    assert!(!report.found.is_empty(), "the quick faulty campaign must find something");
    check_report(&report, true).expect("a real report passes");
    let reference = Fingerprint::of(&report);
    check_same(&reference, &Fingerprint::of(&quick_report(Workload::PaperNorec, Dialect::Sqlite)))
        .expect("a same-seed repeat passes");

    let mut tampered = reference.clone();
    tampered.findings[0].reduced_sql.push("SELECT 1".to_owned());
    assert!(check_same(&reference, &tampered).is_err(), "changed repro");
    let mut tampered = reference.clone();
    tampered.findings.pop();
    assert!(check_same(&reference, &tampered).is_err(), "lost finding");
    let mut tampered = reference.clone();
    tampered.raw_detections += 1;
    assert!(check_same(&reference, &tampered).is_err(), "changed raw detections");

    let mut foreign = report.clone();
    foreign.found[0].id = BugId::ALL
        .iter()
        .copied()
        .find(|id| id.info().dialect != Dialect::Sqlite)
        .expect("other dialects have faults");
    assert!(check_report(&foreign, true).is_err(), "fault of another dialect");
    let mut duplicated = report.clone();
    duplicated.found.push(duplicated.found[0].clone());
    assert!(check_report(&duplicated, true).is_err(), "repeat within a dedup domain");
    assert!(check_report(&report, false).is_err(), "findings on a fault-free workload");
}
