//! The three benchmark workloads and the campaign shape they share.

use std::sync::Arc;

use lancer_core::{Campaign, CampaignBuilder, GenConfig, OracleRegistry};
use lancer_engine::{BugId, BugProfile, Dialect};

use crate::trace::{Recorder, Traced};

/// The size of one dialect campaign.  A benchmark *pass* runs one campaign
/// per dialect, one after the other (closed loop).
#[derive(Debug, Clone)]
pub struct Shape {
    /// Generated databases per campaign.
    pub databases: usize,
    /// Per-query oracle checks per database.
    pub queries: usize,
    /// Campaign worker threads.
    pub threads: usize,
    /// Generator tuning.
    pub gen: GenConfig,
}

impl Shape {
    /// The reference shape: the paper binaries' defaults (40 databases ×
    /// 80 checks, 2 threads).
    #[must_use]
    pub fn standard() -> Shape {
        Shape { databases: 40, queries: 80, threads: 2, gen: GenConfig::default() }
    }

    /// The runner's small test preset (`CampaignBuilder::quick`), for the
    /// benchmark's own tests.
    #[must_use]
    pub fn quick() -> Shape {
        Shape { databases: 8, queries: 30, threads: 2, gen: GenConfig::tiny() }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// No injected faults: the check phase does nearly all the work and
    /// every detection dies in the spurious filter.
    CheckClean,
    /// `table3_oracles --norec`: full fault profiles, post-processing
    /// (replay, reduce, attribute) dominates.
    PaperNorec,
    /// `table3_oracles --txn` (multi-session episodes and the
    /// serializability oracle) with only the transaction faults injected.
    TxnSerial,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] =
        [Workload::CheckClean, Workload::PaperNorec, Workload::TxnSerial];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::CheckClean => "check_clean",
            Workload::PaperNorec => "paper_norec",
            Workload::TxnSerial => "txn_serial",
        }
    }

    /// Looks a workload up by its command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registered oracles, in registration order.
    #[must_use]
    pub fn oracles(self) -> &'static [&'static str] {
        match self {
            Workload::CheckClean | Workload::PaperNorec => {
                &["error", "containment", "tlp", "norec"]
            }
            Workload::TxnSerial => &["error", "containment", "tlp", "serializability"],
        }
    }

    /// Whether the campaigns run with injected faults.
    #[must_use]
    pub fn faulty(self) -> bool {
        self != Workload::CheckClean
    }

    /// The fault profile the campaigns run against.  `txn_serial` injects
    /// only the faults the serializability oracle is meant to expose: with
    /// the full profiles, a few seeds raise thousands of duckdb detections
    /// whose reduction doubles the pass time, and the workload's seed-to-
    /// seed spread exceeded any usable bound.
    #[must_use]
    pub fn profile(self, dialect: Dialect) -> BugProfile {
        match self {
            Workload::CheckClean => BugProfile::none(),
            Workload::PaperNorec => BugProfile::all_for(dialect),
            Workload::TxnSerial => {
                let txn: Vec<BugId> = BugId::ALL
                    .iter()
                    .copied()
                    .filter(|b| b.info().dialect == dialect)
                    .filter(|b| b.info().oracle == lancer_engine::Oracle::Serializability)
                    .collect();
                BugProfile::with(&txn)
            }
        }
    }

    /// The shape of the workload's untraced campaigns: [`Shape::standard`],
    /// except that `paper_norec` runs 10 databases per campaign.  Its wall-clock
    /// is set mostly by which faults a campaign's seed happens to hit, and
    /// varied about as much from seed to seed at 10 databases as at 40
    /// (coefficient of variation 28% against about 25%), for a quarter of
    /// the time.  So many small campaigns average out the seed far better
    /// than a few reference-sized ones in the same run time.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::PaperNorec => Shape { databases: 10, ..Shape::standard() },
            Workload::CheckClean | Workload::TxnSerial => Shape::standard(),
        }
    }

    /// Campaign seeds per dialect in one pass.  Wall-clock varies a lot
    /// with the generated databases, so every workload averages over
    /// several seeds per pass, keeping a pass under about a minute on a
    /// slow 2-core host; the first is the benchmark's `--seed`.
    #[must_use]
    pub fn seeds_per_pass(self) -> u64 {
        match self {
            Workload::CheckClean => 6,
            Workload::PaperNorec => 16,
            Workload::TxnSerial => 4,
        }
    }

    /// The campaign seeds of one pass, derived from the benchmark seed.
    /// The step is not the runner's per-worker XOR constant, so no two
    /// campaigns of a pass share a worker stream.
    #[must_use]
    pub fn seeds(self, seed: u64) -> Vec<u64> {
        (0..self.seeds_per_pass())
            .map(|j| seed.wrapping_add(j.wrapping_mul(0xD1B5_4A32_D192_ED03)))
            .collect()
    }

    fn builder(self, shape: &Shape, dialect: Dialect, seed: u64) -> CampaignBuilder {
        Campaign::builder(dialect)
            .seed(seed)
            .databases(shape.databases)
            .queries(shape.queries)
            .threads(shape.threads)
            .gen(shape.gen.clone())
            .bugs(self.profile(dialect))
            .multi_session(self == Workload::TxnSerial)
    }

    /// The plain campaign, with its oracles registered by name.
    #[must_use]
    pub fn campaign(self, shape: &Shape, dialect: Dialect, seed: u64) -> Campaign {
        self.oracles()
            .iter()
            .fold(self.builder(shape, dialect, seed), |b, name| b.oracle(*name))
            .build()
    }

    /// The traced campaign: every oracle is the registry's instance wrapped
    /// in a [`Traced`] delegate reporting to the returned recorder.
    #[must_use]
    pub fn traced_campaign(
        self,
        shape: &Shape,
        dialect: Dialect,
        seed: u64,
    ) -> (Campaign, Arc<Recorder>) {
        let registry = OracleRegistry::builtin();
        let inner: Vec<_> = self
            .oracles()
            .iter()
            .map(|name| registry.build(name, dialect, &shape.gen).expect("builtin oracle"))
            .collect();
        let recorder = Arc::new(Recorder::new(&inner, shape));
        let builder = inner
            .into_iter()
            .enumerate()
            .fold(self.builder(shape, dialect, seed), |b, (slot, oracle)| {
                b.oracle_instance(Box::new(Traced::new(oracle, slot, &recorder)))
            });
        (builder.build(), recorder)
    }
}
