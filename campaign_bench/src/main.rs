//! `campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the metrics one per line, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.  Exits 1 when
//! the output check failed, 2 on bad arguments.

use campaign_bench::bench::{measure, Outcome};
use campaign_bench::workload::{Shape, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0x5EED, 10.0, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            std::process::exit(2);
        }
    };
    // The traced run breaks down the reference-sized campaigns of the first
    // seed (at the default seed of `paper_norec`, exactly the reference
    // workload); the untraced passes use the workload's own shape.
    let shape = if args.trace { Shape::standard() } else { args.workload.shape() };
    let outcome = measure(args.workload, &shape, args.seed, args.seconds, args.trace);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome));
    if !outcome.correct {
        std::process::exit(1);
    }
}
