//! The repository's benchmark: three workloads over the ML Kit RGC
//! reproduction, each printing its end-to-end metrics (or, traced, its
//! per-layer metrics) as one JSON line. See `rgcbench/README.md`.
//!
//! ```text
//! rgcbench --workload suite|serve_warm|serve_cold --seed N --seconds S --trace 0|1
//!          [--warm-rate R] [--cold-rate R]
//! rgcbench pin-reference
//! ```

mod clock;
mod host;
mod measure;
mod pipeline;
#[cfg(test)]
mod reconcile_tests;
mod reference;
mod serve;
mod stats;
mod suite;
mod trace;

use measure::{Metrics, Tally};
use std::fmt::Write as _;
use trace::Tracer;

/// Command-line options of a measuring run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Open-loop offered rates, requests per second.
    pub warm_rate: f64,
    pub cold_rate: f64,
}

/// What a workload measured.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
    pub tracer: Tracer,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 45.0,
        trace: false,
        warm_rate: 600.0,
        cold_rate: 45.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |what: &str| -> Result<f64, String> {
            value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite() && *v > 0.0)
                .ok_or(format!("{what}: expected a positive number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: expected an integer, got {value:?}"))?
            }
            "--seconds" => opts.seconds = num("--seconds")?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got {value:?}")),
                }
            }
            "--warm-rate" => opts.warm_rate = num("--warm-rate")?,
            "--cold-rate" => opts.cold_rate = num("--cold-rate")?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> Result<String, String> {
    let t = &out.tally;
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        t.failed == 0 && t.guard.is_empty(),
        t.attempted,
        t.failed
    );
    for (i, m) in out.metrics.0.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    s.push_str("}}");
    Ok(s)
}

fn measure(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "suite" => suite::run(opts),
        "serve_warm" => serve::run(opts, serve::Kind::Warm),
        "serve_cold" => serve::run(opts, serve::Kind::Cold),
        other => Err(format!(
            "unknown workload {other:?} (suite, serve_warm, serve_cold)"
        )),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("pin-reference") {
        let text = reference::pin().unwrap_or_else(|e| fail(&e));
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.tsv");
        std::fs::write(path, text).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
        return;
    }
    let opts = parse_opts(&args).unwrap_or_else(|e| fail(&e));
    let mut out = measure(&opts).unwrap_or_else(|e| fail(&e));
    if opts.trace {
        let failed = 1.0 - out.tally.ok_ratio();
        out.metrics.push("bench.fail_ratio", failed, "ratio");
    } else {
        let ok = out.tally.ok_ratio();
        out.metrics.push("ok_ratio", ok, "ratio");
    }
    if opts.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{}.tsv", opts.workload, opts.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, out.tracer.to_tsv()))
            .unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
        eprintln!("{} spans written to {path}", out.tracer.spans().len());
    }
    for f in &out.tally.failures {
        eprintln!("failed: {f}");
    }
    for g in &out.tally.guard {
        eprintln!("guard: {g}");
    }
    for m in &out.metrics.0 {
        eprintln!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let line = result_json(&out).unwrap_or_else(|e| fail(&e));
    println!("{line}");
    if !out.tally.guard.is_empty() {
        std::process::exit(1);
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("rgcbench: {msg}");
    std::process::exit(2)
}
