//! The `suite` workload: the 22 registered programs at default scale,
//! compiled and run standalone in `rgt`, round-robin across programs in
//! a seed-shuffled order so host drift spreads over all of them.

use crate::host::HostClock;
use crate::measure::{self, FixedCosts, Metrics, ProgramSamples, Tally, Timed};
use crate::reference::{self, Expected};
use crate::stats::{geomean, median, quantile};
use crate::trace::Tracer;
use crate::{Opts, Outcome};
use kit::{Compiler, Mode};
use kit_bench::programs::{self, SplitMix64};
use std::time::Instant;

/// Compiles per program per round; the first is paired with a run as
/// one standalone request. Compiling is cheap next to running, so extra
/// compile samples steady `compile_ms` at little cost.
const COMPILES: usize = 3;
/// Runs per program per round are chosen in the first round so each
/// program runs for at least this long (at most `MAX_RUNS` times): short
/// programs get enough samples for a stable median.
const RUN_TARGET_NS: u64 = 40_000_000;
const MAX_RUNS: u64 = 50;
/// Rounds run even if the time is spent earlier.
const MIN_ROUNDS: usize = 3;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Prog {
    name: &'static str,
    src: String,
    want: Expected,
    runs: usize,
    samples: ProgramSamples,
}

/// Loads the pinned answers and compiles every program once.
fn setup(c: &Compiler) -> Result<Vec<Prog>, String> {
    programs::all()
        .into_iter()
        .map(|b| {
            let src = b.source_scaled(b.default_scale);
            let want = reference::expected(&b, b.default_scale)?;
            c.prepare_source(&src)
                .map_err(|e| format!("{}: {e}", b.name))?;
            Ok(Prog {
                name: b.name,
                src,
                want,
                runs: 0,
                samples: ProgramSamples::new(b.name),
            })
        })
        .collect()
}

/// A seed-driven permutation of `0..n` (Fisher–Yates).
pub fn shuffled(n: usize, rng: &mut SplitMix64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
    v
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let c = Compiler::new(Mode::Rgt);
    let mut host = HostClock::new();
    host.probe();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut progs = Vec::new();
    for _ in 0..SETUPS {
        let start = Instant::now();
        progs = setup(&c)?;
        let ns = start.elapsed().as_nanos() as u64;
        setups.push(Timed { start, ns });
        host.probe();
    }

    let mut rng = SplitMix64::new(opts.seed);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(Instant::now(), opts.trace);
    let mut fixed = FixedCosts::default();
    let mut requests = Vec::new();
    let mut req = 0u64;
    let t_start = Instant::now();
    let mut rounds = 0;
    loop {
        for i in shuffled(progs.len(), &mut rng) {
            let p = &mut progs[i];
            req += 1;
            let start = Instant::now();
            let prep = match p.samples.compile(&c, &p.src) {
                Ok(prep) => prep,
                Err(e) => {
                    tally.fail(format!("{}: {e}", p.name));
                    continue;
                }
            };
            let _ = p
                .samples
                .run(&c, &prep, &p.want, &mut tally, &mut tracer, req);
            let ns = start.elapsed().as_nanos() as u64;
            requests.push(Timed { start, ns });
            if p.runs == 0 {
                let ns = p.samples.runs.last().map_or(RUN_TARGET_NS, |r| r.wall_ns);
                p.runs = RUN_TARGET_NS.div_ceil(ns.max(1)).clamp(1, MAX_RUNS) as usize;
            }
            for k in 1..COMPILES {
                // A traced run also compiles phase by phase, before or
                // after the façade by round, so neither path always runs
                // on a warmer cache.
                let order: &[bool] = match (opts.trace, (rounds + k) % 2 == 0) {
                    (false, _) => &[false],
                    (true, true) => &[true, false],
                    (true, false) => &[false, true],
                };
                for &phased in order {
                    let compiled = if phased {
                        p.samples
                            .compile_phased(&c, &p.src, &mut tracer, req)
                            .map(drop)
                    } else {
                        p.samples
                            .compile(&c, &p.src)
                            .map(drop)
                            .map_err(|e| e.to_string())
                    };
                    if let Err(e) = compiled {
                        tally.fail(format!("{}: {e}", p.name));
                    }
                }
            }
            // In a traced run the later runs use the program the phased
            // path built, so the determinism guard compares both paths.
            let again = if opts.trace {
                p.samples
                    .compile_phased(&c, &p.src, &mut tracer, req)
                    .map_err(|e| format!("{}: {e}", p.name))?
            } else {
                prep
            };
            for _ in 1..p.runs {
                let _ = p
                    .samples
                    .run(&c, &again, &p.want, &mut tally, &mut tracer, req);
            }
            host.probe();
        }
        if opts.trace {
            fixed.sample(&c, 5, 20);
        }
        rounds += 1;
        let spent = t_start.elapsed().as_secs_f64();
        let per_round = spent / rounds as f64;
        if rounds >= MIN_ROUNDS && spent + per_round > opts.seconds + per_round / 2.0 {
            break;
        }
    }
    eprintln!(
        "suite: {rounds} rounds, {} requests in {:.1} s",
        requests.len(),
        t_start.elapsed().as_secs_f64()
    );

    let samples: Vec<ProgramSamples> = progs.into_iter().map(|p| p.samples).collect();
    let mut m = Metrics::default();
    if opts.trace {
        measure::print_rows(&samples);
        measure::layer_metrics(&samples, &fixed, &mut m);
        tally.guard.extend(measure::reconcile(&samples));
        let untraced = geomean(
            &samples
                .iter()
                .map(ProgramSamples::compile_median_ms)
                .collect::<Vec<_>>(),
        );
        let traced = m
            .get("kit.compile_traced_ms")
            .expect("layer metrics pushed");
        m.push("bench.trace_overhead", traced / untraced - 1.0, "ratio");
        m.push("host.probe_ms", host.probe_ms(), "ms");
        crate::serve::zero_serve_layers(&mut m);
    } else {
        let scaled = |ts: &[Timed]| ts.iter().map(|t| t.scaled_ms(&host)).collect::<Vec<_>>();
        m.push("setup_s", median(&scaled(&setups)) / 1e3, "s");
        measure::program_metrics(&samples, &host, &mut m);
        let requests_ms = scaled(&requests);
        m.push("req_p50_ms", quantile(&requests_ms, 0.5), "ms");
        m.push("req_p99_ms", quantile(&requests_ms, 0.99), "ms");
        let busy_s: f64 = requests_ms.iter().sum::<f64>() / 1e3;
        m.push("req_per_s", requests_ms.len() as f64 / busy_s, "1/s");
        m.push("rss_peak_mb", measure::rss_peak_mb(), "MB");
    }
    Ok(Outcome {
        metrics: m,
        tally,
        tracer,
    })
}
