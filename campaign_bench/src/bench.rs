//! Passes, the measurement loop, and the metrics it yields.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lancer_core::{Campaign, CampaignReport};
use lancer_engine::{Dialect, Engine};
use lancer_sql::parser::parse_script;

use crate::check::{check_report, check_same, raw_detections, Fingerprint};
use crate::sys::peak_rss_mb;
use crate::trace::{CampaignTrace, Recorder};
use crate::workload::{Shape, Workload};

/// Every builtin oracle; the per-oracle metrics cover all of them on
/// every workload (zero where the workload does not register one).
const ORACLES: [&str; 5] = ["error", "containment", "tlp", "norec", "serializability"];

/// Oracles that run once per database: too few checks per pass for a p99
/// with ten samples beyond it, so they get no `check_us_p99`.
const PER_DATABASE_ORACLES: [&str; 2] = ["error", "serializability"];

/// Per-layer counts that wobble between same-seed passes: the reducer's
/// worker pool races on the shared replay cache (see `SharedReplay`), so
/// which snapshot a replay resumes from — and therefore how many
/// statements it re-executes, how many verdicts the memo already holds and
/// how many tables it unshares — depends on scheduling.  Each is reported
/// as the mean of its plain and traced runs, with a `.spread` companion
/// (their difference over their mean).
const WOBBLING: [&str; 9] = [
    "replay.stmts_executed",
    "replay.stmts_skipped",
    "replay.prefix_hits",
    "replay.verdict_hits",
    "replay.snapshots_taken",
    "replay.snapshot_refusals",
    "storage.cow_table_copies",
    "storage.cow_row_block_copies",
    "storage.workspace_rewinds",
];

/// Read-only witness triggers timed per database through `Engine::query`.
const QUERY_SAMPLES_PER_DB: usize = 16;

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// One campaign run of a pass.
#[derive(Debug)]
struct CampaignRun {
    dialect: Dialect,
    seed: u64,
    wall: Duration,
    report: CampaignReport,
    /// The spans, for a traced run.
    trace: Option<CampaignTrace>,
}

/// Wall-clock of campaign runs, summed.
fn wall(runs: &[CampaignRun]) -> Duration {
    runs.iter().map(|r| r.wall).sum()
}

/// Wall-clock of one dialect's campaign runs, summed.
fn dialect_wall(runs: &[CampaignRun], dialect: Dialect) -> Duration {
    runs.iter().filter(|r| r.dialect == dialect).map(|r| r.wall).sum()
}

/// One campaign of the workload, plain and (for the first seed of a traced
/// run) traced, with the fingerprint of its first run.
struct Slot {
    dialect: Dialect,
    seed: u64,
    plain: Campaign,
    traced: Option<(Campaign, Arc<Recorder>)>,
    reference: Option<Fingerprint>,
}

/// Builds one slot per seed and dialect, seed-major, keeping the
/// fingerprints `old` slots already hold.  With `traced`, the first seed's
/// slots get traced twins.
fn build_slots(
    workload: Workload,
    shape: &Shape,
    seeds: &[u64],
    traced: bool,
    old: Vec<Slot>,
) -> Vec<Slot> {
    let mut old = old.into_iter().map(|s| s.reference);
    let mut slots = Vec::new();
    for (j, &seed) in seeds.iter().enumerate() {
        for dialect in Dialect::ALL.iter().copied() {
            slots.push(Slot {
                dialect,
                seed,
                plain: workload.campaign(shape, dialect, seed),
                traced: (traced && j == 0).then(|| workload.traced_campaign(shape, dialect, seed)),
                reference: old.next().flatten(),
            });
        }
    }
    slots
}

/// Which campaigns [`Bench::run`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    /// The warm-up campaigns.
    WarmUp,
    /// Every measured campaign: one pass.
    Pass,
    /// The traced twins of the first seed's campaigns.
    Traced,
}

/// The campaigns of one workload, with the output check applied to every
/// run: the measured campaigns (one per seed of the pass and dialect) and
/// the warm-up campaigns (the same configuration at a small size, one per
/// dialect).
struct Bench {
    workload: Workload,
    shape: Shape,
    seed: u64,
    traced: bool,
    warm: Vec<Slot>,
    slots: Vec<Slot>,
    attempted: u64,
    failed: u64,
    /// Why each failed run failed.
    errors: Vec<String>,
}

impl Bench {
    /// Builds the workload's campaigns (with `traced`, only the first
    /// seed's, each with a traced twin).
    fn new(workload: Workload, shape: &Shape, seed: u64, traced: bool) -> Bench {
        let mut bench = Bench {
            workload,
            shape: shape.clone(),
            seed,
            traced,
            warm: Vec::new(),
            slots: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        bench.construct();
        bench
    }

    /// Constructs every campaign afresh; fingerprints of earlier runs are
    /// kept, so later runs are still checked against the first.
    fn construct(&mut self) {
        let (workload, seed) = (self.workload, self.seed);
        // Per-layer values describe the first seed's campaigns, so a traced
        // run builds only those.
        let seeds = if self.traced { vec![seed] } else { workload.seeds(seed) };
        let warm = std::mem::take(&mut self.warm);
        // Twice the runner's quick preset: large enough that the set-up
        // time is not dominated by a few milliseconds of scheduling noise.
        let warm_shape = Shape { databases: 16, ..Shape::quick() };
        self.warm = build_slots(workload, &warm_shape, &[seed], false, warm);
        let slots = std::mem::take(&mut self.slots);
        self.slots = build_slots(workload, &self.shape, &seeds, self.traced, slots);
    }

    /// Runs the warm-up campaigns.  Returns `false` when any of them
    /// panicked or failed the output check.
    fn warm_up(&mut self) -> bool {
        self.run(Group::WarmUp).is_some()
    }

    /// Runs one pass.  Returns `None` when any campaign of the pass
    /// panicked or failed the output check.
    fn pass(&mut self) -> Option<Vec<CampaignRun>> {
        self.run(Group::Pass)
    }

    /// Runs the traced twins of the first seed's campaigns (a bench built
    /// with `traced`).
    fn traced(&mut self) -> Option<Vec<CampaignRun>> {
        self.run(Group::Traced)
    }

    fn run(&mut self, group: Group) -> Option<Vec<CampaignRun>> {
        let warm = group == Group::WarmUp;
        let count = match group {
            Group::WarmUp => self.warm.len(),
            Group::Pass => self.slots.len(),
            Group::Traced => self.slots.iter().filter(|s| s.traced.is_some()).count(),
        };
        let traced = group == Group::Traced;
        let mut runs = Vec::new();
        for i in 0..count {
            self.attempted += 1;
            let slot = if warm { &self.warm[i] } else { &self.slots[i] };
            let (dialect, seed) = (slot.dialect, slot.seed);
            let started = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| match &slot.traced {
                Some((campaign, recorder)) if traced => {
                    let (report, trace) = recorder.run(campaign);
                    (report, Some(trace))
                }
                _ => (slot.plain.run(), None),
            }));
            let wall = started.elapsed();
            let verdict = match &outcome {
                Ok((report, trace)) => {
                    let slot = if warm { &mut self.warm[i] } else { &mut self.slots[i] };
                    verify(slot, self.workload, report, trace.as_ref())
                }
                Err(_) => Err("campaign panicked".to_owned()),
            };
            match (verdict, outcome) {
                (Ok(()), Ok((report, trace))) => {
                    runs.push(CampaignRun { dialect, seed, wall, report, trace });
                }
                (verdict, _) => {
                    self.failed += 1;
                    let why = verdict.err().unwrap_or_default();
                    let kind = if warm {
                        "warm-up"
                    } else if traced {
                        "traced"
                    } else {
                        "plain"
                    };
                    self.errors.push(format!("{} seed {seed} ({kind}): {why}", dialect.name()));
                }
            }
        }
        (runs.len() == count).then_some(runs)
    }

    /// Per measured campaign: dialect, seed, and the digest of its
    /// fingerprint.
    fn digests(&self) -> Vec<(Dialect, u64, u64)> {
        self.slots
            .iter()
            .filter_map(|s| s.reference.as_ref().map(|f| (s.dialect, s.seed, f.digest())))
            .collect()
    }
}

/// The output check of one campaign run: the report on its own, against
/// the slot's first run, and (traced) the trace against the report.
fn verify(
    slot: &mut Slot,
    workload: Workload,
    report: &CampaignReport,
    trace: Option<&CampaignTrace>,
) -> Result<(), String> {
    check_report(report, workload.faulty())?;
    let fingerprint = Fingerprint::of(report);
    match &slot.reference {
        Some(reference) => check_same(reference, &fingerprint)?,
        None => slot.reference = Some(fingerprint),
    }
    if let Some(trace) = trace {
        let witnesses: u64 = trace.oracles.iter().map(|o| o.witnesses).sum();
        if trace.log_mismatches != 0
            || trace.checks != trace.expected_checks
            || witnesses != raw_detections(&report.stats)
        {
            return Err(format!(
                "trace disagrees with the campaign: {} log mismatch(es), {}/{} checks, {} \
                 witnesses for {} raw detections",
                trace.log_mismatches,
                trace.checks,
                trace.expected_checks,
                witnesses,
                raw_detections(&report.stats)
            ));
        }
    }
    Ok(())
}

/// What one benchmark run measured.
#[derive(Debug)]
pub struct Outcome {
    /// The output check passed on every run.
    pub correct: bool,
    /// Campaign runs, warm-ups included.
    pub attempted: u64,
    /// Campaign runs that panicked or failed the output check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Why runs failed, pass times, and per-campaign fingerprint digests.
    pub notes: Vec<String>,
}

/// Runs the benchmark: set-up (campaign construction and the warm-up
/// campaigns, five times; `setup_s` is the median), then the measurement.
/// Untraced runs (`trace == false`) run passes until `seconds` have
/// elapsed, at least one, and report the end-to-end metrics.  Traced runs
/// run the first seed's campaigns once plain and once traced, and report
/// the per-layer metrics.
#[must_use]
pub fn measure(workload: Workload, shape: &Shape, seed: u64, seconds: f64, trace: bool) -> Outcome {
    const SETUP_REPEATS: usize = 5;
    let started = Instant::now();
    let mut bench = Bench::new(workload, shape, seed, trace);
    let mut warm = bench.warm_up();
    let mut setups = vec![started.elapsed().as_secs_f64()];
    while setups.len() < SETUP_REPEATS {
        let started = Instant::now();
        bench.construct();
        warm &= bench.warm_up();
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut passes = Vec::new();
    let metrics = if trace {
        // A failed run leaves its slice empty; the metrics then read 0 and
        // `correct` is false.
        let plain = warm.then(|| bench.pass()).flatten().unwrap_or_default();
        let traced = if plain.is_empty() { Vec::new() } else { bench.traced().unwrap_or_default() };
        let layers = per_layer(workload, &plain, &traced, bench.attempted, bench.failed);
        passes.push(plain);
        layers
    } else {
        let started = Instant::now();
        // The peak resident set grows with the number of passes, which
        // depends on the host's speed, so it is read after the first.
        let mut peak_rss = 0.0;
        while let Some(pass) = warm.then(|| bench.pass()).flatten() {
            if passes.is_empty() {
                peak_rss = peak_rss_mb();
            }
            passes.push(pass);
            if started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        end_to_end(&passes, median(&setups), peak_rss)
    };
    let mut notes = bench.errors.clone();
    notes.push(format!(
        "{} pass(es) of {:?} s",
        passes.len(),
        passes.iter().map(|p| wall(p).as_secs_f64()).collect::<Vec<_>>()
    ));
    for run in passes.first().into_iter().flatten() {
        notes.push(format!(
            "first pass: {} seed {} took {:.3} s",
            run.dialect.name(),
            run.seed,
            run.wall.as_secs_f64()
        ));
    }
    for (dialect, seed, digest) in bench.digests() {
        notes.push(format!("fingerprint {} seed {seed}: {digest:016x}", dialect.name()));
    }
    Outcome {
        correct: bench.failed == 0 && warm,
        attempted: bench.attempted,
        failed: bench.failed,
        metrics,
        notes,
    }
}

/// The median (mean of the middle pair for an even count); 0 when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of durations, in `scale` units per second; 0
/// when empty.
fn percentile(spans: &[Duration], p: f64, scale: f64) -> f64 {
    if spans.is_empty() {
        return 0.0;
    }
    let mut v: Vec<Duration> = spans.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1].as_secs_f64() * scale
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn end_to_end(passes: &[Vec<CampaignRun>], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let walls: Vec<f64> = passes.iter().map(|p| wall(p).as_secs_f64()).collect();
    let campaign_s = median(&walls);
    let statements: u64 =
        passes.first().map_or(0, |p| p.iter().map(|r| r.report.stats.statements_executed).sum());
    let mut out = vec![metric("setup_s", setup_s, "s"), metric("campaign_s", campaign_s, "s")];
    out.push(metric("stmts_per_s", ratio(statements as f64, campaign_s), "1/s"));
    out.push(metric("peak_rss_mb", peak_rss_mb, "MiB"));
    out
}

/// Per-layer values of campaign runs, summed over them: the program's own
/// counts always, span-derived values only for traced runs.
fn layers(runs: &[CampaignRun]) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let add = |m: &mut BTreeMap<String, f64>, name: &str, v: f64| {
        *m.entry(name.to_owned()).or_default() += v;
    };
    for run in runs {
        let s = &run.report.stats;
        let raw = raw_detections(s) as f64;
        add(&mut m, "runner.raw_detections", raw);
        add(&mut m, "runner.spurious", s.spurious as f64);
        add(&mut m, "runner.unattributed", s.unattributed as f64);
        add(&mut m, "runner.nonspurious", raw - s.spurious as f64);
        add(&mut m, "runner.useful", raw - (s.spurious + s.unattributed) as f64);
        add(&mut m, "oracle.norec.pairs_checked", s.norec_pairs_checked as f64);
        add(&mut m, "oracle.norec.plan_divergences", s.norec_plan_divergences as f64);
        add(&mut m, "oracle.serializability.orders_tried", s.serial_orders_tried as f64);
        add(&mut m, "replay.stmts_executed", s.replay_statements_executed as f64);
        add(&mut m, "replay.stmts_skipped", s.replay_statements_skipped as f64);
        add(&mut m, "replay.prefix_hits", s.replay_prefix_hits as f64);
        add(&mut m, "replay.verdict_hits", s.replay_verdict_hits as f64);
        add(&mut m, "replay.snapshots_taken", s.replay_snapshots_taken as f64);
        add(&mut m, "replay.snapshot_refusals", s.replay_snapshot_evictions as f64);
        add(&mut m, "reduce.busy_s", s.reduction_wall_ms as f64 / 1000.0);
        add(&mut m, "reduce.candidates", s.reduction_candidates_evaluated as f64);
        add(&mut m, "reduce.memo_hits", s.reduction_memo_hits as f64);
        add(&mut m, "reduce.statement_candidates", s.reduction_statement_candidates as f64);
        add(&mut m, "reduce.expression_candidates", s.reduction_expression_candidates as f64);
        add(&mut m, "reduce.stmts_before", s.reduction_statements_before as f64);
        add(&mut m, "reduce.stmts_after", s.reduction_statements_after as f64);
        add(&mut m, "reduce.expr_nodes_after", s.reduction_expr_nodes_after as f64);
        add(&mut m, "engine.stmts_executed", s.statements_executed as f64);
        add(&mut m, "engine.coverage_fraction", s.coverage_fraction / runs.len() as f64);
        add(&mut m, "storage.cow_table_copies", s.cow_table_copies as f64);
        add(&mut m, "storage.cow_row_block_copies", s.cow_row_block_copies as f64);
        add(&mut m, "storage.workspace_rewinds", s.workspace_rewinds as f64);
        add(&mut m, "unique_bugs", run.report.found.len() as f64);
    }
    let useful = m.remove("runner.useful").unwrap_or(0.0);
    let nonspurious = m.remove("runner.nonspurious").unwrap_or(0.0);
    m.insert("runner.useful_detection_ratio".into(), ratio(useful, nonspurious));
    let executed = m["replay.stmts_executed"];
    let skipped = m["replay.stmts_skipped"];
    m.insert("replay.skip_ratio".into(), ratio(skipped, executed + skipped));

    let traces: Vec<&CampaignTrace> = runs.iter().filter_map(|r| r.trace.as_ref()).collect();
    if traces.is_empty() {
        return m;
    }
    let (mut gen_spans, mut gen_stmts, mut gen_failed) = (Vec::new(), 0u64, 0u64);
    let mut check_spans: BTreeMap<&str, Vec<Duration>> = BTreeMap::new();
    let (mut cpu_check, mut cpu_post, mut covered, mut thread_wall) = (0.0, 0.0, 0.0, 0.0);
    for t in traces {
        add(&mut m, "gen.databases", t.dbs.len() as f64);
        add(&mut m, "gen.busy_s", t.gen_spans.iter().sum::<Duration>().as_secs_f64());
        gen_spans.extend(t.gen_spans.iter().copied());
        gen_stmts += t.dbs.iter().map(|d| d.log.len() as u64 + d.failures).sum::<u64>();
        gen_failed += t.dbs.iter().map(|d| d.failures).sum::<u64>();
        for o in &t.oracles {
            add(&mut m, &format!("oracle.{}.checks", o.name), o.spans.len() as f64);
            add(&mut m, &format!("oracle.{}.witnesses", o.name), o.witnesses as f64);
            let busy = o.spans.iter().sum::<Duration>().as_secs_f64();
            add(&mut m, &format!("oracle.{}.busy_s", o.name), busy);
            check_spans.entry(o.name).or_default().extend(o.spans.iter().copied());
        }
        add(&mut m, "runner.check_phase_s", t.check_phase.as_secs_f64());
        add(&mut m, "runner.postprocess_s", t.postprocess.as_secs_f64());
        add(&mut m, "runner.worker_wait_s", t.worker_wait.as_secs_f64());
        cpu_check += t.cpu_check.as_secs_f64();
        cpu_post += t.cpu_postprocess.as_secs_f64();
        covered += t.covered().as_secs_f64();
        thread_wall += t.wall.as_secs_f64() * t.threads as f64;
    }
    m.insert("gen.db_ms_p50".into(), percentile(&gen_spans, 50.0, 1e3));
    m.insert("gen.stmts_failed_ratio".into(), ratio(gen_failed as f64, gen_stmts as f64));
    for (name, spans) in &check_spans {
        m.insert(format!("oracle.{name}.check_us_p50"), percentile(spans, 50.0, 1e6));
        if !PER_DATABASE_ORACLES.contains(name) {
            m.insert(format!("oracle.{name}.check_us_p99"), percentile(spans, 99.0, 1e6));
        }
    }
    let check_phase = m["runner.check_phase_s"];
    let postprocess = m["runner.postprocess_s"];
    m.insert("runner.cpu_util.check".into(), ratio(cpu_check, check_phase));
    m.insert("runner.cpu_util.postprocess".into(), ratio(cpu_post, postprocess));
    m.insert("trace.span_coverage".into(), ratio(covered, thread_wall));
    m
}

/// Engine and sql timings, taken after the campaigns on the traced runs'
/// captured generation logs and witness triggers.
fn replay_captures(workload: Workload, runs: &[CampaignRun]) -> [f64; 3] {
    let (mut replay, mut query, mut render) = (Vec::new(), Vec::new(), Vec::new());
    for run in runs {
        let Some(trace) = &run.trace else { continue };
        for db in &trace.dbs {
            let mut engine = Engine::with_bugs(run.dialect, workload.profile(run.dialect));
            for stmt in &db.log {
                let t = Instant::now();
                let result = engine.execute(std::hint::black_box(stmt));
                replay.push(t.elapsed());
                std::hint::black_box(result).ok();
                let t = Instant::now();
                let text = std::hint::black_box(stmt).to_string();
                render.push(t.elapsed());
                std::hint::black_box(text);
            }
            let read_only = db.triggers.iter().filter(|s| s.is_read_only());
            for trigger in read_only.take(QUERY_SAMPLES_PER_DB) {
                let t = Instant::now();
                let result =
                    engine.query(engine.statements_executed(), std::hint::black_box(trigger));
                query.push(t.elapsed());
                std::hint::black_box(result).ok();
            }
        }
    }
    [percentile(&replay, 50.0, 1e6), percentile(&query, 50.0, 1e6), percentile(&render, 50.0, 1e6)]
}

/// Findings whose reduced repro does not parse back, and findings whose
/// repro parses but re-renders differently.
fn repro_roundtrips(runs: &[CampaignRun]) -> (u64, u64) {
    let (mut unparsable, mut diffs) = (0, 0);
    for found in runs.iter().flat_map(|r| &r.report.found) {
        match parse_script(&found.reduced_sql.join(";\n")) {
            Err(_) => unparsable += 1,
            Ok(stmts) => {
                let rendered: Vec<String> = stmts.iter().map(ToString::to_string).collect();
                if rendered != found.reduced_sql {
                    diffs += 1;
                }
            }
        }
    }
    (unparsable, diffs)
}

/// The per-layer metrics of a traced run.  `plain` holds the untraced runs
/// of the first seed's campaigns; `traced` holds their traced runs.
fn per_layer(
    workload: Workload,
    plain: &[CampaignRun],
    traced: &[CampaignRun],
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let untraced = &plain[..traced.len()];
    // The program's own counts come from both runs of the same campaigns
    // (the median of two is their mean); span-derived values only from
    // the traced runs.
    let both = [layers(untraced), layers(traced)];
    let samples =
        |name: &str| -> Vec<f64> { both.iter().filter_map(|m| m.get(name).copied()).collect() };
    let value = |name: &str| median(&samples(name));
    let spread = |name: &str| {
        let values = samples(name);
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if values.is_empty() {
            0.0
        } else {
            ratio(hi - lo, median(&values))
        }
    };
    let untraced_s = wall(untraced).as_secs_f64();
    let [replay_us, query_us, render_us] = replay_captures(workload, traced);
    let (unparsable, diffs) = repro_roundtrips(traced);

    let mut out = Vec::new();
    for dialect in Dialect::ALL {
        let wall = dialect_wall(plain, dialect).as_secs_f64();
        out.push(metric(format!("campaign_s.{}", dialect.name()), wall, "s"));
    }
    for (name, unit) in [
        ("gen.databases", "count"),
        ("gen.busy_s", "s"),
        ("gen.db_ms_p50", "ms"),
        ("gen.stmts_failed_ratio", "ratio"),
    ] {
        out.push(metric(name, value(name), unit));
    }
    for oracle in ORACLES {
        for (suffix, unit) in [
            ("checks", "count"),
            ("busy_s", "s"),
            ("check_us_p50", "us"),
            ("check_us_p99", "us"),
            ("witnesses", "count"),
        ] {
            if suffix == "check_us_p99" && PER_DATABASE_ORACLES.contains(&oracle) {
                continue;
            }
            let name = format!("oracle.{oracle}.{suffix}");
            out.push(metric(&name, value(&name), unit));
        }
    }
    for (name, unit) in [
        ("oracle.norec.pairs_checked", "count"),
        ("oracle.norec.plan_divergences", "count"),
        ("oracle.serializability.orders_tried", "count"),
        ("runner.check_phase_s", "s"),
        ("runner.postprocess_s", "s"),
        ("runner.worker_wait_s", "s"),
        ("runner.cpu_util.check", "cores"),
        ("runner.cpu_util.postprocess", "cores"),
        ("runner.raw_detections", "count"),
        ("runner.spurious", "count"),
        ("runner.unattributed", "count"),
        ("runner.useful_detection_ratio", "ratio"),
        ("replay.stmts_executed", "count"),
        ("replay.stmts_skipped", "count"),
        ("replay.skip_ratio", "ratio"),
        ("replay.prefix_hits", "count"),
        ("replay.verdict_hits", "count"),
        ("replay.snapshots_taken", "count"),
        ("replay.snapshot_refusals", "count"),
        ("reduce.busy_s", "s"),
        ("reduce.candidates", "count"),
        ("reduce.memo_hits", "count"),
        ("reduce.statement_candidates", "count"),
        ("reduce.expression_candidates", "count"),
        ("reduce.stmts_before", "count"),
        ("reduce.stmts_after", "count"),
        ("reduce.expr_nodes_after", "count"),
        ("engine.stmts_executed", "count"),
        ("engine.coverage_fraction", "ratio"),
        ("storage.cow_table_copies", "count"),
        ("storage.cow_row_block_copies", "count"),
        ("storage.workspace_rewinds", "count"),
        ("trace.span_coverage", "ratio"),
        ("unique_bugs", "count"),
    ] {
        out.push(metric(name, value(name), unit));
    }
    for name in WOBBLING {
        out.push(metric(format!("{name}.spread"), spread(name), "ratio"));
    }
    let unique_bugs = value("unique_bugs");
    out.extend([
        metric("engine.replay_us_p50", replay_us, "us"),
        metric("engine.query_us_p50", query_us, "us"),
        metric("sql.render_us_p50", render_us, "us"),
        metric("sql.repro_unparsable", unparsable as f64, "count"),
        metric("sql.repro_roundtrip_diffs", diffs as f64, "count"),
        metric("trace.overhead_ratio", ratio(wall(traced).as_secs_f64(), untraced_s), "ratio"),
        metric("s_per_unique_bug", ratio(untraced_s, unique_bugs), "s"),
        metric("failed_ratio", ratio(failed as f64, attempted as f64), "ratio"),
    ]);
    out
}
