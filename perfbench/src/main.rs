//! The served-loop benchmark: the paper's predict -> execute -> observe
//! loop served by `mlq-serve`, measured end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <udf-loop|feedback-steady|predict-heavy|fleet-churn>
//!           --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! perfbench --selftest --seed <n> --work-dir <dir>
//! ```
//!
//! Every layer is timed from outside, around calls into the public
//! functions of `mlq-optimizer`, `mlq-udfs`, `mlq-serve` and `mlq-core`;
//! with `--trace 1` each of those calls is also recorded as an
//! `mlq_obs::TraceRing` span, and work on the maintainer is read from the
//! registry counters the service exports. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics untraced, the per-layer metrics
//! traced). `perfbench/README.md` documents the workloads and metrics.

mod common;
mod feedback_steady;
mod fleet_churn;
mod predict_heavy;
mod udf_loop;

use common::{Outcome, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// How one workload run is sized.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Measured seconds per window.
    pub seconds: f64,
    /// Fixed chunk count per window instead of a time limit (the
    /// exact-count self-test).
    pub chunks: Option<usize>,
    /// Also run a traced window after the untraced one.
    pub trace: bool,
    /// Set-ups per run; `setup_s` is their median and the last one is
    /// measured.
    pub setups: usize,
    /// Scratch space for write-ahead journals.
    pub work_dir: PathBuf,
    /// Smaller data sets and warm-up (the self-test).
    pub small: bool,
}

impl Plan {
    /// Whether a window that has measured `window` (and run `chunks`
    /// chunks) is complete.
    pub fn window_done(&self, window: &common::Window, chunks: usize) -> bool {
        match self.chunks {
            Some(n) => chunks >= n,
            None => window.done(),
        }
    }
}

/// End-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("applied_per_s", "1/s"),
    ("pc_pct", "%"),
    ("muc_pct", "%"),
    ("predict_p50_ns", "ns"),
    ("batch_p50_us", "us"),
    ("nae", "ratio"),
    ("rejected_share", "ratio"),
    ("model_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

pub const WORKLOADS: [&str; 4] = ["udf-loop", "feedback-steady", "predict-heavy", "fleet-churn"];

fn run_workload(name: &str, plan: &Plan) -> Outcome {
    match name {
        "udf-loop" => udf_loop::run(plan),
        "feedback-steady" => feedback_steady::run(plan),
        "predict-heavy" => predict_heavy::run(plan),
        "fleet-churn" => fleet_churn::run(plan),
        other => unreachable!("workload {other} was validated"),
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_metrics(values: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_outcome(workload: &str, plan: &Plan, outcome: &Outcome) {
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        plan.seed, plan.seconds, plan.trace
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, ok, detail) in &outcome.checks.0 {
        println!("  check {:<40} {}  ({detail})", name, if *ok { "ok" } else { "FAILED" });
    }
    for (name, value) in &outcome.e2e {
        let unit = END_TO_END.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
        println!("  e2e   {name:<28} {value:>16.4} {unit}");
    }
    if plan.trace {
        let window = outcome.table_ns.max(1) as f64;
        println!("  layer table (traced window, {:.3} s measured)", window / 1e9);
        println!(
            "    {:<24} {:>10} {:>12} {:>12} {:>12} {:>8}",
            "layer", "count", "total_ms", "p50_us", "p99_us", "share"
        );
        for row in &outcome.table {
            println!(
                "    {:<24} {:>10} {:>12.3} {:>12.3} {:>12.3} {:>7.2}%",
                row.layer,
                row.count,
                row.total_ns as f64 / 1e6,
                row.p50_ns / 1e3,
                row.p99_ns / 1e3,
                100.0 * row.total_ns as f64 / window
            );
        }
        for (name, value) in &outcome.per_layer {
            let unit = PER_LAYER.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
            println!("  layer {name:<44} {value:>16.4} {unit}");
        }
    }
}

fn result_line(outcome: &Outcome, trace: bool) -> String {
    let correct = outcome.checks.all_ok() && outcome.failed == 0;
    let metrics: Vec<(&str, f64, &str)> = if trace {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let v = outcome.per_layer.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
                (*name, v, *unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = outcome.e2e.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
                (*name, v, *unit)
            })
            .collect()
    };
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(&metrics)
    )
}

/// The exact-count self-test: two fixed-size runs with one seed must
/// agree on every count, and another seed must change the inputs.
fn selftest(seed: u64, work_dir: PathBuf) -> bool {
    let plan = |seed: u64, dir: &str| Plan {
        seed,
        seconds: 0.0,
        chunks: Some(24),
        trace: false,
        setups: 1,
        work_dir: work_dir.join(dir),
        small: true,
    };
    let mut ok = true;
    for workload in ["udf-loop", "fleet-churn"] {
        let a = run_workload(workload, &plan(seed, "a"));
        let b = run_workload(workload, &plan(seed, "b"));
        let c = run_workload(workload, &plan(seed.wrapping_add(1), "c"));
        let same = a.fingerprint == b.fingerprint;
        let inputs = |o: &Outcome| o.fingerprint.iter().find(|(k, _)| *k == "inputs").cloned();
        let differs = inputs(&a) != inputs(&c);
        println!(
            "selftest {workload}: same seed identical {same}, other seed changes inputs {differs}"
        );
        for ((key, va), (_, vb)) in a.fingerprint.iter().zip(&b.fingerprint) {
            println!("  {key:<24} {va:<24} {vb:<24}{}", if va == vb { "" } else { "  DIFFERS" });
        }
        let correct = [&a, &b, &c].iter().all(|o| o.checks.all_ok() && o.failed == 0);
        if !correct {
            println!("  a self-test run failed its correctness checks");
        }
        ok &= same && differs && correct;
    }
    ok
}

fn parse_args() -> Result<(Option<String>, bool, Plan), String> {
    let mut workload = None;
    let mut selftest = false;
    let mut plan = Plan {
        seed: 1,
        seconds: 10.0,
        chunks: None,
        trace: false,
        setups: 3,
        work_dir: std::env::temp_dir(),
        small: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--selftest" {
            selftest = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => plan.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => plan.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => plan.trace = value == "1",
            "--work-dir" => plan.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(plan.seconds > 0.0 && plan.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, selftest, plan))
}

fn main() -> ExitCode {
    let (workload, selftest_mode, plan) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if selftest_mode {
        return if selftest(plan.seed, plan.work_dir) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        eprintln!("perfbench: --workload must be one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    let started = Instant::now();
    let mut outcome = run_workload(&workload, &plan);
    outcome.e2e.insert(0, ("setup_s", outcome.setup_s));
    outcome.e2e.push(("peak_rss_mb", peak_rss_mb()));
    print_outcome(&workload, &plan, &outcome);
    println!("  wall {:.3} s", started.elapsed().as_secs_f64());
    println!("{}", result_line(&outcome, plan.trace));
    ExitCode::SUCCESS
}
