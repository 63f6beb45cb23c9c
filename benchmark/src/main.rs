//! The Information Bus wall-clock benchmark.
//!
//! ```text
//! infobus-benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1]
//! infobus-benchmark --all [--repeat n] [--check] [--seed n] [--seconds s] [--trace 0|1]
//! infobus-benchmark --describe
//! ```
//!
//! `--workload` runs one workload in this process and prints one JSON
//! result as the last line of stdout. `--all` runs every workload in a
//! child process of its own and summarises; `--repeat` does that several
//! times and reports the spread; `--check` shortens the run to a
//! correctness pass. `--describe` prints `BENCHMARK.json`. See the
//! README beside this package; run it through `run.sh`.

#![forbid(unsafe_code)]

mod gen;
mod json;
mod metrics;
mod orchestrate;
mod run;
mod spec;
mod stages;
mod summary;
mod sys;
mod topo;
mod verify;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::Named;
use spec::Workload;

/// Where scratch directories, span files and summaries go, relative to
/// the directory `run.sh` starts the binary in (the repo root).
const OUT_DIR: &str = "benchmark/out";
/// `--seconds` of a `--check` run: phases of about a second.
const CHECK_SECONDS: f64 = 2.0;

/// Parsed command line.
pub struct Args {
    workload: Option<Workload>,
    all: bool,
    describe: bool,
    check: bool,
    repeat: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        describe: false,
        check: false,
        repeat: 1,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
    };
    let mut seconds_given = false;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--all" => args.all = true,
            "--describe" => args.describe = true,
            "--check" => args.check = true,
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.check && !seconds_given {
        args.seconds = CHECK_SECONDS;
    }
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    let modes =
        usize::from(args.all) + usize::from(args.describe) + usize::from(args.workload.is_some());
    if modes != 1 {
        return Err("give exactly one of --workload <name>, --all, --describe".into());
    }
    Ok(args)
}

/// The last line of a workload process's stdout.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Named]) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(
            line,
            "{}{}: {{\"value\": {}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json::quote(name),
            json::num(*value),
            json::quote(spec::unit_of(name)),
        );
    }
    line.push_str("}}");
    line
}

fn run_workload(workload: Workload, args: &Args, epoch: Instant) -> ExitCode {
    let opts = run::Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: PathBuf::from(OUT_DIR),
    };
    std::fs::create_dir_all(&opts.out_dir).expect("create out dir");
    // The stage chain runs first, on a quiet process.
    let stages = args
        .trace
        .then(|| stages::run(workload.kind(), args.seed, &opts.out_dir));
    let measured = run::run(&opts, epoch);
    let named = match stages {
        Some(stages) => {
            metrics::write_spans(&opts.out_dir, workload, args.seed, &measured)
                .expect("write span file");
            metrics::per_layer(workload, &measured, stages)
        }
        None => metrics::end_to_end(&measured),
    };
    spec::assert_complete(&named, args.trace);

    let report = &measured.report;
    eprintln!(
        "{} seed {} {}s trace {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (name, value) in &named {
        eprintln!(
            "  {name:<36} {:>16} {}",
            metrics::show(*value),
            spec::unit_of(name)
        );
    }
    eprintln!(
        "  checked {} expected deliveries, {} failed, {} flagged redeliveries de-duplicated",
        report.attempted, report.failed, report.redeliveries
    );
    let correct = report.failed == 0;
    if let Some((id, fault)) = report.first_offender {
        let faults: Vec<String> = report
            .by_fault
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(f, n)| format!("{n} {f}"))
            .collect();
        eprintln!(
            "FAILED {}: {}; first offender: publication id {id} ({fault})",
            workload.name(),
            faults.join(", ")
        );
    }
    println!(
        "{}",
        result_line(correct, report.attempted.max(1), report.failed, &named)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("infobus-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match args.workload {
        Some(workload) => run_workload(workload, &args, epoch),
        None => orchestrate::run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse("--workload lossy_udp --seed 9 --seconds 12 --trace 1").expect("parse");
        assert_eq!(a.workload, Some(Workload::LossyUdp));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
    }

    #[test]
    fn check_shortens_the_run_and_bad_input_is_refused() {
        let a = parse("--all --check").expect("parse");
        assert_eq!((a.all, a.seconds), (true, CHECK_SECONDS));
        for bad in [
            "",
            "--workload nope",
            "--all --workload tick_udp",
            "--all --trace 2",
            "--all --seconds 0",
            "--all --repeat 0",
            "--all --seed",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 10, 0, &[("setup_s", 0.25), ("msgs_per_s", 1e4)]);
        let doc = json::parse(&line).expect("parses");
        let keys: Vec<&str> = match &doc {
            json::Json::Obj(f) => f.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(json::Json::as_f64), Some(0.25));
        assert_eq!(setup.get("unit"), Some(&json::Json::Str("s".into())));
    }
}
