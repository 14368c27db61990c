//! The repo benchmark. One command (`benchmark/run.sh`) builds this,
//! runs the workloads, checks the outputs and prints every metric by
//! name with its unit. See README.md.

mod config;
mod delay_storage;
mod driver;
mod live;
mod metrics;
mod shuttle;
mod sim;
mod stats;
mod trace;
mod workload;

use config::{WorkloadSpec, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};
use metrics::{Metric, E2E_BOUNDS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
[--smoke] [--repeat K]
  --workload NAME  one of write_mem, write_durable, mixed_durable, write_large_mem (default: all)
  --seed N         seeds the op/key generator only (default 42)
  --seconds S      measured seconds per workload: phase A = S/3 at 1 client, phase B = 2S/3 at 16 (default 15)
  --trace 0|1      0: live run, end-to-end metrics only; 1: live run + traced shuttle, per-layer
                   metrics (bare --trace = 1). Default: both, everything printed.
  --smoke          --seconds 6, same checks, unsupported percentiles are printed as refused
  --repeat K       run everything K times, print each end-to-end metric's spread and fail if one
                   moved by more than its bound";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `--trace 0`: the live run alone.
    EndToEnd,
    /// `--trace 1`: live run + traced shuttle; the JSON carries per-layer.
    PerLayer,
    /// No `--trace`: everything, for people.
    Both,
}

struct Args {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    seconds: u64,
    mode: Mode,
    smoke: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        mode: Mode::Both,
        smoke: false,
        repeat: 1,
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                let spec = config::workload(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![spec];
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--repeat" => {
                args.repeat = value("a number")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            "--smoke" => args.smoke = true,
            "--trace" => {
                args.mode = match it.next_if(|v| v == "0" || v == "1").as_deref() {
                    Some("0") => Mode::EndToEnd,
                    _ => Mode::PerLayer,
                };
            }
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.smoke && !seconds_given {
        args.seconds = 6;
    }
    if !(1..=60).contains(&args.seconds) || args.repeat == 0 {
        return Err("--seconds must be 1..=60 and --repeat at least 1".to_string());
    }
    Ok(args)
}

/// Where logs and traces go: `benchmark/out/`, inside the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("GRIDPAXOS_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    failures: Vec<String>,
}

fn run_workload(spec: &WorkloadSpec, args: &Args) -> Result<Report, String> {
    let out = out_dir();
    let (phase_a, phase_b_secs) = metrics::phases(args.seconds);
    let live = live::run(&live::LiveOpts {
        spec,
        seed: args.seed,
        phase_a,
        phase_b_secs,
        data_dir: out.clone(),
    })
    .map_err(|e| format!("live run: {e}"))?;
    let end_to_end = metrics::end_to_end(&live);
    println!(
        "phase B: ops in each second {:?}, steal ticks {:?}",
        metrics::per_second(&live.phase_b),
        live.steal_b
    );
    let mut failures = live.check_failures.clone();

    let mut per_layer = Vec::new();
    if args.mode != Mode::EndToEnd {
        let tracer = trace::Tracer::new();
        let traced = shuttle::run(spec, args.seed, Some(tracer), &out)
            .map_err(|e| format!("traced shuttle: {e}"))?;
        let bare =
            shuttle::run(spec, args.seed, None, &out).map_err(|e| format!("bare shuttle: {e}"))?;
        if traced.wrong_replies + bare.wrong_replies > 0 {
            failures.push("the shuttle saw a wrong reply".to_string());
        }
        if traced.counts != bare.counts {
            failures.push("traced and bare shuttle counts differ".to_string());
        }
        let trace_file = out.join(format!("trace-{}.json", spec.name));
        trace::write_json(&traced.spans, &trace_file).map_err(|e| format!("writing trace: {e}"))?;
        let inputs = metrics::TraceInputs {
            traced: &traced,
            bare: &bare,
            sim: sim::run(spec, args.seed),
            disk_flush_p50_us: metrics::disk_flush_p50_us(&out, 50)
                .map_err(|e| format!("fsync probe: {e}"))?,
        };
        per_layer = metrics::per_layer(spec, &live, &inputs);
        println!(
            "trace: {} spans in {}",
            traced.spans.len(),
            trace_file.display()
        );
    }
    Ok(Report {
        correct: failures.is_empty(),
        attempted: live.attempted,
        failed: live.failed,
        end_to_end,
        per_layer,
        failures,
    })
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        if m.value.is_nan() {
            let why = match m.samples.map(|n| (n, stats::supported_tail(n))) {
                Some((0, _)) | None => "no samples".to_string(),
                Some((_, Some(p))) => format!("refused, the sample supports p{p} at most"),
                Some((_, None)) => "refused, the sample supports no tail percentile".to_string(),
            };
            println!("  {:<44} {why}{samples}", m.name);
        } else {
            println!("  {:<44} {:>14.3} {}{samples}", m.name, m.value, m.unit);
        }
    }
}

/// The contract's result line.
fn json_line(report: &Report, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                // Only ungated metrics get here without a value (a
                // percentile with no or too few samples): they read zero.
                if m.value.is_nan() { 0.0 } else { m.value },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    )
}

/// Print every end-to-end metric's values across the repetitions; returns
/// whether each stayed within its bound.
fn compare(spec: &WorkloadSpec, runs: &[Vec<Metric>]) -> bool {
    println!("== {}: {} repetitions ==", spec.name, runs.len());
    let mut ok = true;
    for (i, first) in runs[0].iter().enumerate() {
        let values: Vec<f64> = runs.iter().map(|r| r[i].value).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
        let spread = (hi - lo) / values[0].abs().max(f64::MIN_POSITIVE);
        let bound = E2E_BOUNDS
            .iter()
            .find(|(name, _, _)| *name == first.name)
            .map_or(0.0, |(_, _, bound)| *bound);
        let iqr = stats::iqr_share(&values)
            .filter(|_| values.len() >= 4)
            .map_or(String::new(), |s| {
                format!("  iqr/median {:.1} %", s * 100.0)
            });
        let verdict = if spread <= bound {
            "ok"
        } else {
            "EXCEEDS BOUND"
        };
        ok &= spread <= bound;
        println!(
            "  {:<20} {:?}  max-min {:.1} % of first (bound {:.0} %){iqr}  {verdict}",
            first.name,
            values,
            spread * 100.0,
            bound * 100.0
        );
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    let mut history: Vec<Vec<Vec<Metric>>> = vec![Vec::new(); args.workloads.len()];
    for rep in 0..args.repeat {
        for (w, spec) in args.workloads.iter().enumerate() {
            let (a, b) = metrics::phases(args.seconds);
            println!(
                "== {} (seed {}, phase A {:.1} s at 1 client, phase B {} clean s at {} clients, run {}/{}, {} cpus) ==",
                spec.name,
                args.seed,
                a.as_secs_f64(),
                b,
                config::LOADED_CLIENTS,
                rep + 1,
                args.repeat,
                std::thread::available_parallelism().map_or(0, |n| n.get()),
            );
            let report = match run_workload(spec, &args) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {}: {e}", spec.name);
                    return ExitCode::FAILURE;
                }
            };
            if args.mode != Mode::PerLayer {
                print_table("end-to-end (gated):", &report.end_to_end);
            }
            if args.mode != Mode::EndToEnd {
                print_table("per-layer:", &report.per_layer);
            }
            for f in &report.failures {
                println!("CHECK FAILED: {f}");
            }
            println!(
                "checks: {}; attempted {} failed {}",
                if report.correct { "ok" } else { "FAILED" },
                report.attempted,
                report.failed
            );
            all_ok &= report.correct;
            if args.mode == Mode::PerLayer {
                println!("{}", json_line(&report, &report.per_layer));
            } else if report.end_to_end.iter().all(|m| m.value.is_finite()) {
                println!("{}", json_line(&report, &report.end_to_end));
            } else if !args.smoke {
                eprintln!(
                    "error: {}: a gated metric has no samples; raise --seconds",
                    spec.name
                );
                return ExitCode::FAILURE;
            }
            history[w].push(report.end_to_end);
        }
    }
    if args.repeat > 1 {
        for (spec, runs) in args.workloads.iter().zip(&history) {
            all_ok &= compare(spec, runs) || args.smoke;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
