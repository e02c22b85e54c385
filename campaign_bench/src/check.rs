//! The output check: properties every seed must satisfy, no golden file.
//!
//! * every run of a campaign gives the same findings fingerprint as its
//!   first run, traced or not ([`Fingerprint`]);
//! * every reported `BugId` belongs to the campaign's dialect;
//! * no `BugId` is reported twice within one dedup domain;
//! * a fault-free campaign reports nothing;
//! * the worker-side counts the runner documents as deterministic
//!   (statements executed, raw detections) repeat exactly.

use std::collections::BTreeSet;

use lancer_core::{CampaignReport, CampaignStats, DetectionKind};
use lancer_engine::BugId;

/// One reported finding, as far as determinism promises it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The attributed fault.
    pub id: BugId,
    /// The detection kind.
    pub kind: DetectionKind,
    /// The detecting oracle's registry name.
    pub oracle: String,
    /// The reduced reproduction script.
    pub reduced_sql: Vec<String>,
}

/// What must repeat exactly between runs of one campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Findings in report order.
    pub findings: Vec<Finding>,
    /// Statements the workers executed.
    pub statements_executed: u64,
    /// Raw detections the oracles raised.
    pub raw_detections: u64,
}

/// Raw detections of a campaign, summed over detection kinds.
#[must_use]
pub fn raw_detections(stats: &CampaignStats) -> u64 {
    stats.containment_violations
        + stats.unexpected_errors
        + stats.crashes
        + stats.tlp_violations
        + stats.norec_violations
        + stats.serializability_violations
}

impl Fingerprint {
    /// The fingerprint of a campaign report.
    #[must_use]
    pub fn of(report: &CampaignReport) -> Fingerprint {
        Fingerprint {
            findings: report
                .found
                .iter()
                .map(|f| Finding {
                    id: f.id,
                    kind: f.kind,
                    oracle: f.oracle.clone(),
                    reduced_sql: f.reduced_sql.clone(),
                })
                .collect(),
            statements_executed: report.stats.statements_executed,
            raw_detections: raw_detections(&report.stats),
        }
    }

    /// A 64-bit FNV-1a digest, for printing.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for f in &self.findings {
            eat(format!("{:?}|{:?}|{}|", f.id, f.kind, f.oracle).as_bytes());
            for line in &f.reduced_sql {
                eat(line.as_bytes());
                eat(b"\n");
            }
        }
        eat(&self.statements_executed.to_le_bytes());
        eat(&self.raw_detections.to_le_bytes());
        hash
    }
}

/// Checks one report on its own.
///
/// # Errors
///
/// Describes the first violated property.
pub fn check_report(report: &CampaignReport, faulty: bool) -> Result<(), String> {
    let dialect = report.dialect;
    if !faulty && !report.found.is_empty() {
        return Err(format!(
            "{}: fault-free campaign reported {} finding(s)",
            dialect.name(),
            report.found.len()
        ));
    }
    let mut seen = BTreeSet::new();
    for f in &report.found {
        if f.id.info().dialect != dialect {
            return Err(format!(
                "{}: reported {:?}, a fault of another dialect",
                dialect.name(),
                f.id
            ));
        }
        if !seen.insert((f.kind.dedup_domain(), f.id)) {
            return Err(format!(
                "{}: {:?} reported twice in dedup domain {}",
                dialect.name(),
                f.id,
                f.kind.dedup_domain()
            ));
        }
    }
    Ok(())
}

/// Checks that a later pass reproduced the reference pass exactly.
///
/// # Errors
///
/// Describes the first difference.
pub fn check_same(reference: &Fingerprint, other: &Fingerprint) -> Result<(), String> {
    if reference.statements_executed != other.statements_executed {
        return Err(format!(
            "statements executed {} != {}",
            other.statements_executed, reference.statements_executed
        ));
    }
    if reference.raw_detections != other.raw_detections {
        return Err(format!(
            "raw detections {} != {}",
            other.raw_detections, reference.raw_detections
        ));
    }
    if reference.findings.len() != other.findings.len() {
        return Err(format!("{} finding(s) != {}", other.findings.len(), reference.findings.len()));
    }
    for (i, (a, b)) in reference.findings.iter().zip(&other.findings).enumerate() {
        if a != b {
            return Err(format!("finding {i} differs: {b:?} != {a:?}"));
        }
    }
    Ok(())
}
