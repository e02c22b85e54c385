//! Table 3 — "The oracles and how many bugs they found."
//!
//! Attributes every true-bug finding of the campaign to the oracle that
//! detected it (containment / error / SEGFAULT, plus the TLP logic oracle
//! this reproduction adds on top of the paper) and compares against the
//! paper's 61/34/4 split.  The logic oracles run on independent RNG
//! substreams, so the Contains/Error/SEGFAULT columns are identical to what
//! the classic two-oracle campaign reports at the same seed.
//!
//! Pass `--norec` to also register the NoREC oracle: the table gains a
//! NoREC column (optimization bugs caught by comparing filtered queries
//! against their non-optimizing `SUM(CASE WHEN ...)` rewrites) while every
//! pre-existing column stays byte-identical — the substream contract in
//! action.

use lancer_bench::{dump_json, print_table, run_all_campaigns, ReportOptions};
use lancer_core::DetectionKind;
use lancer_engine::Dialect;

fn main() {
    let opts = ReportOptions::from_args();
    let reports = run_all_campaigns(&opts);
    let paper: &[(&str, [u32; 3])] =
        &[("sqlite", [46, 17, 2]), ("mysql", [14, 10, 1]), ("postgres", [1, 7, 1])];

    let mut rows = Vec::new();
    let mut totals = [0usize; 5];
    for dialect in Dialect::ALL {
        let report = &reports[&dialect];
        let counts = report.table3_counts();
        let get = |k: DetectionKind| counts.get(&k).copied().unwrap_or(0);
        totals[0] += get(DetectionKind::Containment);
        totals[1] += get(DetectionKind::Error);
        totals[2] += get(DetectionKind::Crash);
        totals[3] += get(DetectionKind::Tlp);
        totals[4] += get(DetectionKind::Norec);
        let paper_row = paper.iter().find(|(d, _)| *d == dialect.name()).map(|(_, r)| r);
        let mut row = vec![
            dialect.name().to_owned(),
            get(DetectionKind::Containment).to_string(),
            get(DetectionKind::Error).to_string(),
            get(DetectionKind::Crash).to_string(),
            get(DetectionKind::Tlp).to_string(),
        ];
        if opts.norec {
            row.push(get(DetectionKind::Norec).to_string());
        }
        row.push(paper_row.map(|r| format!("{}/{}/{}", r[0], r[1], r[2])).unwrap_or_default());
        rows.push(row);
    }
    let mut sum_row = vec![
        "Sum".to_owned(),
        totals[0].to_string(),
        totals[1].to_string(),
        totals[2].to_string(),
        totals[3].to_string(),
    ];
    if opts.norec {
        sum_row.push(totals[4].to_string());
    }
    sum_row.push("61/34/4".to_owned());
    rows.push(sum_row);
    let mut headers = vec!["DBMS", "Contains", "Error", "SEGFAULT", "TLP"];
    if opts.norec {
        headers.push("NoREC");
    }
    headers.push("paper (C/E/S)");
    print_table(
        "Table 3: true bugs per oracle (measured vs paper Contains/Error/SEGFAULT)",
        &headers,
        &rows,
    );
    println!(
        "\nShape check (paper: containment > error > crash): {} > {} > {} => {}",
        totals[0],
        totals[1],
        totals[2],
        if totals[0] >= totals[1] && totals[1] >= totals[2] { "holds" } else { "DOES NOT HOLD" }
    );
    println!(
        "TLP (not in the paper; this reproduction's second logic oracle): {} true bug(s)",
        totals[3]
    );
    if opts.norec {
        println!(
            "NoREC (third logic oracle, --norec): {} true bug(s); per-dialect pairs checked / \
             plan-diverged:",
            totals[4]
        );
        for dialect in Dialect::ALL {
            let s = &reports[&dialect].stats;
            println!(
                "  {}: {} raw mismatch(es), {} pair(s) checked, {} with diverging plans",
                dialect.name(),
                s.norec_violations,
                s.norec_pairs_checked,
                s.norec_plan_divergences
            );
        }
    }
    if opts.txn {
        println!("\nReplay-cache effectiveness (reduction + attribution replays, per dialect):");
        for dialect in Dialect::ALL {
            let s = &reports[&dialect].stats;
            println!(
                "  {}: {} prefix hit(s), {} snapshot(s) taken ({} refused), {} verdict memo \
                 hit(s); {} stmt(s) replayed, {} skipped; {} CoW table cop(ies), {} rewind(s)",
                dialect.name(),
                s.replay_prefix_hits,
                s.replay_snapshots_taken,
                s.replay_snapshot_evictions,
                s.replay_verdict_hits,
                s.replay_statements_executed,
                s.replay_statements_skipped,
                s.cow_table_copies,
                s.workspace_rewinds
            );
        }
    }
    dump_json("table3", &reports);
}
