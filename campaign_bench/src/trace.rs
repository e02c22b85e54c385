//! Spans recorded from outside the runner.
//!
//! [`Traced`] wraps a registry oracle and delegates everything to it —
//! `name`, `cadence`, `rng_stream` and `counters` are passed through, so
//! the runner derives the same RNG substreams and the campaign finds the
//! same bugs — while timing each `check` call.  The [`Recorder`] turns the
//! check timestamps of each worker thread into layer spans:
//!
//! * `check` — one per oracle call, per oracle;
//! * `gen` — the gap between a database's last check and the next
//!   database's first check on the same worker (the first one starts when
//!   `run()` is called): generation of the next database plus the
//!   runner's per-database bookkeeping;
//! * worker wait — from a worker's last check to the last check of the
//!   slowest worker;
//! * post-processing — from the campaign's last check to `run()`
//!   returning (spurious filter, reduction, attribution).
//!
//! A new database is recognised by counting checks: every database runs
//! the same number of checks (one per per-database oracle plus `queries`
//! per per-query oracle).  The identity of `ctx.log` is cross-checked
//! against that count; a disagreement is counted, and the benchmark's
//! output check requires none.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use lancer_core::{Cadence, CampaignReport, Oracle, OracleCtx, OracleReport, RngStream};
use lancer_engine::Engine;
use lancer_sql::ast::stmt::Statement;
use rand::rngs::StdRng;

use crate::sys::process_cpu;
use crate::workload::Shape;

/// A delegating oracle that reports the duration of every check.
pub struct Traced {
    inner: Box<dyn Oracle>,
    slot: usize,
    recorder: Arc<Recorder>,
}

impl Traced {
    /// Wraps `inner`, which is oracle number `slot` of the recorder's list.
    #[must_use]
    pub fn new(inner: Box<dyn Oracle>, slot: usize, recorder: &Arc<Recorder>) -> Traced {
        Traced { inner, slot, recorder: Arc::clone(recorder) }
    }
}

impl Oracle for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cadence(&self) -> Cadence {
        self.inner.cadence()
    }

    fn rng_stream(&self) -> RngStream {
        self.inner.rng_stream()
    }

    fn check(&self, rng: &mut StdRng, engine: &mut Engine, ctx: &OracleCtx<'_>) -> OracleReport {
        let start = Instant::now();
        let report = self.inner.check(rng, engine, ctx);
        let end = Instant::now();
        self.recorder.record(self.slot, start, end, &report, ctx);
        report
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner.counters()
    }
}

/// One generated database as a worker saw it.
#[derive(Debug, Clone, Default)]
pub struct CapturedDb {
    /// The statements that built the state.
    pub log: Vec<Statement>,
    /// Generation statements that failed.
    pub failures: u64,
    /// Witness triggers raised on this database.
    pub triggers: Vec<Statement>,
}

#[derive(Debug, Default)]
struct WorkerTrace {
    checks: u64,
    log_id: (usize, usize),
    last_end: Option<Instant>,
    gen_spans: Vec<Duration>,
    check_spans: Vec<Vec<Duration>>,
    witnesses: Vec<u64>,
    dbs: Vec<CapturedDb>,
}

#[derive(Debug)]
struct State {
    start: Instant,
    cpu_start: Duration,
    checks_done: u64,
    cpu_phase_end: Option<Duration>,
    log_mismatches: u64,
    workers: HashMap<ThreadId, WorkerTrace>,
}

impl State {
    fn new() -> State {
        State {
            start: Instant::now(),
            cpu_start: process_cpu(),
            checks_done: 0,
            cpu_phase_end: None,
            log_mismatches: 0,
            workers: HashMap::new(),
        }
    }
}

/// Collects the spans of one traced campaign run.
#[derive(Debug)]
pub struct Recorder {
    names: Vec<&'static str>,
    checks_per_db: u64,
    total_checks: u64,
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder for a campaign of `shape` running `oracles` (in
    /// registration order).
    #[must_use]
    pub fn new(oracles: &[Box<dyn Oracle>], shape: &Shape) -> Recorder {
        let checks_per_db = oracles
            .iter()
            .map(|o| match o.cadence() {
                Cadence::PerDatabase => 1,
                Cadence::PerQuery => shape.queries as u64,
            })
            .sum::<u64>();
        let per_worker = shape.databases.div_ceil(shape.threads.max(1)) as u64;
        Recorder {
            names: oracles.iter().map(|o| o.name()).collect(),
            checks_per_db,
            total_checks: checks_per_db * per_worker * shape.threads.max(1) as u64,
            state: Mutex::new(State::new()),
        }
    }

    fn record(
        &self,
        slot: usize,
        start: Instant,
        end: Instant,
        report: &OracleReport,
        ctx: &OracleCtx<'_>,
    ) {
        let mut state = self.state.lock().expect("a traced check panicked holding the recorder");
        let state = &mut *state;
        let run_start = state.start;
        let worker =
            state.workers.entry(std::thread::current().id()).or_insert_with(|| WorkerTrace {
                check_spans: vec![Vec::new(); self.names.len()],
                witnesses: vec![0; self.names.len()],
                ..WorkerTrace::default()
            });
        let log_id = (ctx.log.as_ptr() as usize, ctx.log.len());
        if worker.checks.is_multiple_of(self.checks_per_db) {
            worker.gen_spans.push(start - worker.last_end.unwrap_or(run_start));
            worker.log_id = log_id;
            worker.dbs.push(CapturedDb {
                log: ctx.log.to_vec(),
                failures: ctx.failures.len() as u64,
                triggers: Vec::new(),
            });
        } else if worker.log_id != log_id {
            state.log_mismatches += 1;
        }
        worker.checks += 1;
        worker.last_end = Some(end);
        worker.check_spans[slot].push(end - start);
        let witnesses = report.witnesses();
        worker.witnesses[slot] += witnesses.len() as u64;
        let db = worker.dbs.last_mut().expect("a database was opened above");
        db.triggers.extend(witnesses.iter().map(|w| w.trigger.clone()));
        state.checks_done += 1;
        if state.checks_done == self.total_checks {
            state.cpu_phase_end = Some(process_cpu());
        }
    }

    /// Runs the campaign once, returning its report and trace.
    #[must_use]
    pub fn run(&self, campaign: &lancer_core::Campaign) -> (CampaignReport, CampaignTrace) {
        *self.state.lock().expect("recorder lock") = State::new();
        let report = campaign.run();
        let end = Instant::now();
        let cpu_end = process_cpu();
        let state =
            std::mem::replace(&mut *self.state.lock().expect("recorder lock"), State::new());
        (report, self.summarize(state, end, cpu_end))
    }

    fn summarize(&self, state: State, end: Instant, cpu_end: Duration) -> CampaignTrace {
        let workers: Vec<WorkerTrace> = state.workers.into_values().collect();
        let phase_end = workers.iter().filter_map(|w| w.last_end).max().unwrap_or(state.start);
        let cpu_phase_end = state.cpu_phase_end.unwrap_or(cpu_end);
        let mut trace = CampaignTrace {
            wall: end - state.start,
            check_phase: phase_end - state.start,
            postprocess: end - phase_end,
            cpu_check: cpu_phase_end.saturating_sub(state.cpu_start),
            cpu_postprocess: cpu_end.saturating_sub(cpu_phase_end),
            threads: workers.len() as u64,
            checks: state.checks_done,
            expected_checks: self.total_checks,
            log_mismatches: state.log_mismatches,
            oracles: self
                .names
                .iter()
                .map(|n| OracleTrace { name: n, ..OracleTrace::default() })
                .collect(),
            ..CampaignTrace::default()
        };
        for worker in workers {
            let last_end = worker.last_end.unwrap_or(state.start);
            trace.worker_wait += phase_end - last_end;
            trace.gen_spans.extend(worker.gen_spans);
            for (slot, spans) in worker.check_spans.into_iter().enumerate() {
                trace.oracles[slot].witnesses += worker.witnesses[slot];
                trace.oracles[slot].spans.extend(spans);
            }
            trace.dbs.extend(worker.dbs);
        }
        trace
    }
}

/// One oracle's spans within a campaign.
#[derive(Debug, Clone, Default)]
pub struct OracleTrace {
    /// Registry name.
    pub name: &'static str,
    /// Duration of each check.
    pub spans: Vec<Duration>,
    /// Witnesses returned.
    pub witnesses: u64,
}

/// The spans of one traced campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignTrace {
    /// `run()` call to return.
    pub wall: Duration,
    /// `run()` call to the campaign's last check.
    pub check_phase: Duration,
    /// Last check to `run()` returning.
    pub postprocess: Duration,
    /// Summed over workers: last own check to the campaign's last check.
    pub worker_wait: Duration,
    /// Process CPU time during the check phase.
    pub cpu_check: Duration,
    /// Process CPU time during post-processing.
    pub cpu_postprocess: Duration,
    /// Worker threads that ran checks.
    pub threads: u64,
    /// Checks observed.
    pub checks: u64,
    /// Checks the campaign shape implies.
    pub expected_checks: u64,
    /// Checks whose `ctx.log` disagreed with the database the check count
    /// implied.
    pub log_mismatches: u64,
    /// `gen` spans, all workers.
    pub gen_spans: Vec<Duration>,
    /// Per-oracle check spans, in registration order.
    pub oracles: Vec<OracleTrace>,
    /// Every database, all workers.
    pub dbs: Vec<CapturedDb>,
}

impl CampaignTrace {
    /// Span self time over wall time, across all worker threads: the
    /// share of `threads × wall` covered by `gen`, `check`, worker-wait and
    /// post-processing spans.  The rest is runner time between checks of
    /// one database that no span covers.
    #[must_use]
    pub fn covered(&self) -> Duration {
        let gen: Duration = self.gen_spans.iter().sum();
        let checks: Duration = self.oracles.iter().flat_map(|o| &o.spans).sum();
        gen + checks + self.worker_wait + self.postprocess * self.threads as u32
    }
}
