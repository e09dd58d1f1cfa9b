//! The repository benchmark binary: runs one workload in this process
//! and prints one JSON line of raw results for `perfbench/run.py`.
//!
//! ```text
//! exsel-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 [--setup-only] [--trace-out <file>]
//! ```
//!
//! Work is a pure function of `(workload, seed, seconds)`: `--seconds`
//! sizes the measured segment through each workload's nominal rate, so
//! every count and step quantile repeats bit for bit on one seed while
//! the wall-clock figures carry the timing. `--setup-only` stops after
//! set-up (construction, prime, warm-up); the driver runs it in fresh
//! processes to take a median set-up time.

#![forbid(unsafe_code)]

mod engine;
mod explore;
mod service;
mod trace;

use serde_json::{Map, Value};
use trace::{hwm_mb, Put, Tracer};

/// Everything one workload run reports back.
#[derive(Default)]
pub struct Report {
    /// Workload start → first measured op, seconds.
    pub setup_s: f64,
    /// Work units completed in the measured segment (sessions, trials,
    /// trees).
    pub units: u64,
    /// Wall seconds of the measured segment.
    pub measure_s: f64,
    /// Operations attempted and failed, for the driver's failed share.
    pub attempted: u64,
    pub failed: u64,
    /// Share of decided work that succeeded: sessions completed per
    /// client served or rejected, contenders named, executions passing.
    pub served_share: f64,
    /// Audit findings; empty means every output check passed.
    pub audit: Vec<String>,
    /// Deterministic values known once set-up ends (compared across the
    /// set-up-only processes of one run).
    pub setup_det: Map,
    /// Deterministic values of the whole run (op counts, step
    /// quantiles, phase and explore counts).
    pub det: Map,
    /// Per-layer metrics; those that need spans only in traced runs.
    pub layer: Map,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_only: bool,
    pub trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        setup_only: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--trace-out" => args.trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of (0, 600]", args.seconds));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("exsel-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tracer = Tracer::new(args.trace);
    let root = tracer.open("workload");
    let result = match args.workload.as_str() {
        "service_steady" | "service_storm" | "fleet" => service::run(&args, &mut tracer),
        "engine_sweep" => engine::run(&args, &mut tracer),
        "explore" => explore::run(&args, &mut tracer),
        other => Err(format!("unknown workload `{other}`")),
    };
    tracer.close(root, 0);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exsel-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let (true, Some(path)) = (tracer.on(), &args.trace_out) {
        let run = format!("{}-seed{}", args.workload, args.seed);
        if let Err(e) = tracer.write(path, &run) {
            eprintln!("exsel-perfbench: could not write spans to {path}: {e}");
            std::process::exit(2);
        }
    }
    let mut out = Map::new();
    out.num("setup_s", report.setup_s)
        .int("units", report.units)
        .num("measure_s", report.measure_s)
        .int("attempted", report.attempted)
        .int("failed", report.failed)
        .num("served_share", report.served_share)
        .num("rss_peak_mb", hwm_mb());
    let audit = report.audit.into_iter().map(Value::from).collect();
    out.insert("audit".into(), Value::Array(audit));
    out.insert("setup_det".into(), Value::Object(report.setup_det));
    out.insert("det".into(), Value::Object(report.det));
    out.insert("layer".into(), Value::Object(report.layer));
    println!("{}", Value::Object(out));
}
