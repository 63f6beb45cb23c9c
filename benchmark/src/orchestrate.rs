//! `--all`: every workload in a child process of its own (so `rss_mb`,
//! warm-up and allocator state never leak from one into the next), a
//! human table on stderr, and machine-readable JSON on stdout and in
//! `benchmark/out/`. `--repeat n` runs `n` such sets and reports, per
//! metric and workload, min / median / max and the spread the
//! acceptance check computes.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Json};
use crate::metrics::show;
use crate::spec::{self, Workload};
use crate::summary;
use crate::{Args, OUT_DIR};

/// One child's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value)` in the order the child printed them.
    metrics: Vec<(String, f64)>,
}

fn run_child(workload: Workload, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .last()
        .ok_or("no result line".to_string())
        .and_then(json::parse);
    let doc = match parsed {
        Ok(doc) => doc,
        Err(e) => {
            return Err(format!(
                "{e} ({}):\n{}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ))
        }
    };
    let number = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("no {key}"))
    };
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                value
                    .map(|v| (name.clone(), v))
                    .ok_or(format!("no value for {name}"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("no metrics".into()),
    };
    let correct = doc.get("correct").and_then(Json::as_bool).unwrap_or(false);
    if !correct {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
    }
    Ok(ChildResult {
        correct,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `args.repeat` sets of all seven workloads and summarises them.
pub fn run_all(args: &Args) -> ExitCode {
    // samples[workload][metric] = one value per set
    let mut names: Vec<String> = Vec::new();
    let mut samples: Vec<Vec<Vec<f64>>> = vec![Vec::new(); Workload::ALL.len()];
    let mut all_correct = true;
    for set in 1..=args.repeat {
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            eprint!("set {set}/{}: {:<18}", args.repeat, workload.name());
            let child = match run_child(workload, args) {
                Ok(child) => child,
                Err(e) => {
                    eprintln!(" did not finish: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                " {} ({} checked, {} failed)",
                if child.correct { "ok" } else { "FAILED" },
                child.attempted,
                child.failed
            );
            all_correct &= child.correct;
            if names.is_empty() {
                names = child.metrics.iter().map(|(n, _)| n.clone()).collect();
            }
            samples[w].resize(names.len(), Vec::new());
            for (slot, (_, value)) in samples[w].iter_mut().zip(&child.metrics) {
                slot.push(*value);
            }
        }
    }

    if !args.check {
        print_table(&names, &samples, args.repeat);
    }
    let doc = summary_json(args, &names, &samples, all_correct);
    println!("{doc}");
    let file = format!(
        "{OUT_DIR}/summary_{}.json",
        if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        }
    );
    if let Err(e) = std::fs::write(&file, format!("{doc}\n")) {
        eprintln!("could not write {file}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {file}");
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One row per metric, one column per workload: the median, and with
/// several sets `min..max` and the spread beneath it.
fn print_table(names: &[String], samples: &[Vec<Vec<f64>>], sets: usize) {
    let mut header = format!("{:<48}", "metric [unit]");
    for w in Workload::ALL {
        let _ = write!(header, " {:>21}", w.name());
    }
    eprintln!("\n{header}");
    for (m, name) in names.iter().enumerate() {
        let label = format!("{name} [{}]", spec::unit_of(name));
        let mut medians = format!("{label:<48}");
        let mut ranges = format!("{:<48}", "  min..max");
        let mut spreads = format!("{:<48}", "  spread (IQR/median) vs bound");
        for per_workload in samples {
            let mut values = per_workload[m].clone();
            let spread = summary::spread(&values);
            let median = summary::median(&mut values);
            let _ = write!(medians, " {:>21}", show(median));
            let _ = write!(
                ranges,
                " {:>21}",
                format!("{}..{}", show(values[0]), show(values[values.len() - 1]))
            );
            let verdict = match spec::bound_of(name) {
                Some(bound) if spread <= bound => format!("{:.1}% ok", spread * 100.0),
                Some(_) => format!("{:.1}% WIDE", spread * 100.0),
                None => format!("{:.1}%", spread * 100.0),
            };
            let _ = write!(spreads, " {verdict:>21}");
        }
        eprintln!("{medians}");
        if sets > 1 {
            eprintln!("{ranges}\n{spreads}");
        }
    }
}

fn summary_json(args: &Args, names: &[String], samples: &[Vec<Vec<f64>>], correct: bool) -> String {
    let mut doc = format!(
        "{{\"git_rev\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"sets\": {}, \"correct\": {correct}, \"results\": [",
        json::quote(&git_rev()),
        args.seed,
        json::num(args.seconds),
        u8::from(args.trace),
        args.repeat
    );
    let mut rows = Vec::new();
    for (workload, per_workload) in Workload::ALL.iter().zip(samples) {
        for (name, values) in names.iter().zip(per_workload) {
            let mut sorted = values.clone();
            let median = summary::median(&mut sorted);
            rows.push(format!(
                "\n{{\"workload\": {}, \"name\": {}, \"unit\": {}, \"value\": {}, \"samples\": {}, \"min\": {}, \"max\": {}, \"spread\": {}}}",
                json::quote(workload.name()),
                json::quote(name),
                json::quote(spec::unit_of(name)),
                json::num(median),
                sorted.len(),
                json::num(sorted[0]),
                json::num(sorted[sorted.len() - 1]),
                json::num(summary::spread(values)),
            ));
        }
    }
    doc.push_str(&rows.join(","));
    doc.push_str("\n]}");
    doc
}
