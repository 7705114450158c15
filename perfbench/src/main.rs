//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload sparse-sleep|dense-awake|serve-mixed --seed N
//!           --seconds S --trace 0|1 [--out-dir DIR] [--smoke]
//! ```
//!
//! Runs one workload for about `S` seconds and prints one
//! `metric <name> <value> <unit> <better>` line per metric, then the
//! result line `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
//! With `--trace 0` the metrics are the end-to-end set; with `--trace 1`
//! the per-layer set, and the spans go to
//! `DIR/trace-<workload>-<seed>.json`. `--smoke` shrinks every input to
//! a few milliseconds of work. The exit code is 0 only if every output
//! was correct. `perfbench/run.py` builds this binary and runs it.

mod algos;
mod metrics;
mod report;
mod serve;
mod sim;
mod timing;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use metrics::Outcome;
use trace::Tracer;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sparse-sleep", "dense-awake", "serve-mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time, seconds.
    pub seconds: u64,
    /// Per-layer pass instead of the end-to-end one.
    pub trace: bool,
    /// Where traces and sockets go.
    pub out_dir: PathBuf,
    /// Tiny inputs.
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        out_dir: PathBuf::from("perfbench/out"),
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Runs the workload `args` names; returns the outcome and, for a traced
/// pass, the spans.
pub fn run(args: &Args) -> (Outcome, Option<Tracer>) {
    let budget = args.seconds * 1_000_000_000;
    let (sparse, dense) = if args.smoke {
        (
            sim::SPARSE_SLEEP.with_graph("scale:256:2"),
            sim::DENSE_AWAKE.with_graph("scale:32:2"),
        )
    } else {
        (sim::SPARSE_SLEEP, sim::DENSE_AWAKE)
    };
    let (batch, step) = if args.smoke {
        (144, 240)
    } else {
        (serve::BATCH, serve::STEP_REQUESTS)
    };
    let min_iters = if args.smoke { 1 } else { 3 };
    let workload = match args.workload.as_str() {
        "sparse-sleep" => Some(sparse),
        "dense-awake" => Some(dense),
        _ => None,
    };
    match (workload, args.trace) {
        (Some(w), false) => (sim::run_untraced(&w, args.seed, budget, min_iters), None),
        (Some(w), true) => {
            let (o, t) = sim::run_traced_pass(&w, args.seed, budget, min_iters.min(2));
            (o, Some(t))
        }
        (None, false) => (
            serve::run_untraced(args.seed, budget, min_iters, batch, &args.out_dir),
            None,
        ),
        (None, true) => {
            let (o, t) = serve::run_traced_pass(args.seed, step, batch, &args.out_dir);
            (o, Some(t))
        }
    }
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let path = Path::new(&args.out_dir).join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (mut outcome, tracer) = run(&args);
    if let Some(t) = &tracer {
        if let Err(e) = write_trace(&args, t) {
            outcome.fail(e);
        }
    }
    for e in &outcome.errors {
        eprintln!("perfbench: {e}");
    }
    print!("{}", outcome.listing());
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::serve::protocol::Json;

    /// `(name, unit, better)` of every metric in one `BENCHMARK.json`
    /// list.
    fn declared(list: &str) -> Vec<(String, String, String)> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = Json::parse(&text).expect("valid JSON");
        doc.get(list)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn smoke_run_reports_every_named_metric_with_its_unit_and_direction() {
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&out_dir).expect("out dir");
        for workload in WORKLOADS {
            for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: workload.to_string(),
                    seed: 3,
                    seconds: 0,
                    trace,
                    out_dir: out_dir.clone(),
                    smoke: true,
                };
                let (outcome, _) = run(&args);
                assert!(outcome.correct(), "{workload}: {:?}", outcome.errors);
                let reported: Vec<(String, String, String)> = outcome
                    .metrics
                    .0
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                    .collect();
                assert_eq!(reported, declared(list), "{workload} trace={trace}");
                let line = outcome.result_line();
                let doc = Json::parse(&line).expect("result line is JSON");
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
            }
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv: Vec<String> = [
            "--workload",
            "dense-awake",
            "--seed",
            "9",
            "--seconds",
            "4",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let args = parse_args(&argv).expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (9, 4, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
