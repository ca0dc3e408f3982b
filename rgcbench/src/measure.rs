//! Samples of one program's compiles and runs, the correctness and
//! determinism bookkeeping shared by every workload, and the per-layer
//! metrics derived from the samples.

use crate::clock::thread_cpu_ns;
use crate::host::HostClock;
use crate::pipeline::{self, Shape};
use crate::reference::Expected;
use crate::stats::{geomean, mean, median};
use crate::trace::Tracer;
use kit::{Compiler, Outcome, PreparedProgram, RtStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One metric as printed in the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Operations attempted and failed, and determinism-guard violations.
/// An operation fails when it errors, is refused, or disagrees with the
/// reference.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub guard: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Checks `got` against the answer pinned for `name`.
    pub fn check(&mut self, name: &str, got: &Result<Outcome, kit::Error>, want: &Expected) {
        match got {
            Ok(o) if o.result == want.result && o.output == want.output => self.ok(),
            Ok(o) => self.fail(format!(
                "{name}: result {:?} output {:?}, reference {:?} {:?}",
                o.result, o.output, want.result, want.output
            )),
            Err(e) => self.fail(format!("{name}: {e}")),
        }
    }

    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The counters the ROADMAP treats as the stable proxy for work done.
/// They must repeat exactly for one program: across samples, across the
/// traced and untraced paths, and between a served response and a direct
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub instructions: u64,
    pub gc_count: u64,
    pub gc_copied_words: u64,
    pub peak_bytes: u64,
}

impl Counters {
    pub fn of(o: &Outcome) -> Counters {
        Counters {
            instructions: o.instructions,
            gc_count: o.stats.gc_count,
            gc_copied_words: o.stats.gc_copied_words,
            peak_bytes: o.stats.peak_bytes as u64,
        }
    }
}

/// A timed call: when it started and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub start: Instant,
    pub ns: u64,
}

impl Timed {
    /// The time in ms, scaled to the reference host speed.
    pub fn scaled_ms(&self, host: &HostClock) -> f64 {
        let end = self.start + std::time::Duration::from_nanos(self.ns);
        ms(self.ns) / host.factor_over(self.start, end)
    }
}

/// One run: wall and on-CPU time around `run_prepared`, and the
/// collector's share of it.
#[derive(Debug, Clone, Copy)]
pub struct RunSample {
    pub start: Instant,
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub gc_ns: u64,
}

impl RunSample {
    /// Wall over on-CPU time: near 1 when the thread ran undisturbed,
    /// above 1 when it was preempted. A slower host raises both.
    pub fn wall_cpu_ratio(&self) -> f64 {
        self.wall_ns as f64 / self.cpu_ns.max(1) as f64
    }
}

/// One traced compile: the whole compile's wall time and each phase's.
#[derive(Debug, Clone, Copy)]
pub struct PhasedSample {
    pub total_ns: u64,
    pub phase_ns: [u64; 6],
}

/// Everything measured for one program.
#[derive(Debug, Default)]
pub struct ProgramSamples {
    pub name: String,
    /// `prepare_source` calls.
    pub compiles: Vec<Timed>,
    pub phased: Vec<PhasedSample>,
    pub runs: Vec<RunSample>,
    pub shape: Option<Shape>,
    pub counters: Option<Counters>,
    /// Statistics of the first run (deterministic per program).
    pub stats: Option<RtStats>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

impl ProgramSamples {
    pub fn new(name: &str) -> ProgramSamples {
        ProgramSamples {
            name: name.to_string(),
            ..ProgramSamples::default()
        }
    }

    /// Compiles through the façade, timing the call.
    pub fn compile(&mut self, c: &Compiler, src: &str) -> Result<PreparedProgram, kit::Error> {
        let start = Instant::now();
        let prep = c.prepare_source(src);
        let ns = start.elapsed().as_nanos() as u64;
        self.compiles.push(Timed { start, ns });
        prep
    }

    /// Compiles phase by phase under a `compile` span.
    pub fn compile_phased(
        &mut self,
        c: &Compiler,
        src: &str,
        tracer: &mut Tracer,
        req: u64,
    ) -> Result<PreparedProgram, String> {
        let root = tracer.open("compile", None, req);
        let t0 = Instant::now();
        let out = pipeline::compile_phased(c, src, tracer, root, req);
        let total_ns = t0.elapsed().as_nanos() as u64;
        tracer.close(root);
        let (prep, shape) = out?;
        let first = root.expect("phased compiles are traced") + 1;
        let mut phase_ns = [0; 6];
        for (slot, s) in phase_ns.iter_mut().zip(&tracer.spans()[first..first + 6]) {
            *slot = s.end_ns - s.start_ns;
        }
        self.phased.push(PhasedSample { total_ns, phase_ns });
        self.shape = Some(shape);
        Ok(prep)
    }

    /// Runs `prep`, timing wall and on-CPU time, checks the answer and
    /// the determinism guard, and records a `run_prepared` span. Returns
    /// the outcome if the run succeeded.
    pub fn run(
        &mut self,
        c: &Compiler,
        prep: &PreparedProgram,
        want: &Expected,
        tally: &mut Tally,
        tracer: &mut Tracer,
        req: u64,
    ) -> Option<Outcome> {
        let span = tracer.open("run_prepared", None, req);
        let cpu0 = thread_cpu_ns();
        let t0 = Instant::now();
        // A panic in the program under test is a failed operation, as it
        // is for the server, which isolates it the same way.
        let out = catch_unwind(AssertUnwindSafe(|| c.run_prepared(prep)));
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let cpu_ns = thread_cpu_ns() - cpu0;
        tracer.close(span);
        let Ok(out) = out else {
            tally.fail(format!("{}: run_prepared panicked", self.name));
            return None;
        };
        tally.check(&self.name, &out, want);
        if let Ok(o) = &out {
            self.runs.push(RunSample {
                start: t0,
                wall_ns,
                cpu_ns,
                gc_ns: o.stats.gc_time_ns,
            });
            self.guard(Counters::of(o), "run", tally);
            if self.stats.is_none() {
                self.stats = Some(o.stats.clone());
            }
        }
        out.ok()
    }

    /// Records `got` as this program's counters, or checks it against
    /// the counters already recorded.
    pub fn guard(&mut self, got: Counters, what: &str, tally: &mut Tally) {
        match self.counters {
            None => self.counters = Some(got),
            Some(want) if want != got => tally.guard.push(format!(
                "{}: {what} counters {got:?} differ from {want:?}",
                self.name
            )),
            Some(_) => {}
        }
    }

    pub fn compile_median_ms(&self) -> f64 {
        median(&self.compiles.iter().map(|t| ms(t.ns)).collect::<Vec<_>>())
    }

    /// Median compile time scaled to the reference host speed.
    pub fn compile_scaled_ms(&self, host: &HostClock) -> f64 {
        median(
            &self
                .compiles
                .iter()
                .map(|t| t.scaled_ms(host))
                .collect::<Vec<_>>(),
        )
    }

    /// Median run time scaled to the reference host speed.
    pub fn run_scaled_ms(&self, host: &HostClock) -> f64 {
        let scaled: Vec<f64> = self
            .runs
            .iter()
            .map(|r| {
                Timed {
                    start: r.start,
                    ns: r.wall_ns,
                }
                .scaled_ms(host)
            })
            .collect();
        median(&scaled)
    }

    pub fn run_median_ms(&self) -> f64 {
        median(&self.runs.iter().map(|r| ms(r.wall_ns)).collect::<Vec<_>>())
    }

    fn run_cpu_median_ms(&self) -> f64 {
        median(&self.runs.iter().map(|r| ms(r.cpu_ns)).collect::<Vec<_>>())
    }

    fn phased_median_ms(&self) -> f64 {
        median(
            &self
                .phased
                .iter()
                .map(|p| ms(p.total_ns))
                .collect::<Vec<_>>(),
        )
    }

    /// Mean share of each phase in this program's traced compiles.
    fn phase_shares(&self) -> [f64; 6] {
        let mut shares = [0.0; 6];
        for (i, share) in shares.iter_mut().enumerate() {
            *share = mean(
                &self
                    .phased
                    .iter()
                    .map(|p| p.phase_ns[i] as f64 / p.total_ns.max(1) as f64)
                    .collect::<Vec<_>>(),
            );
        }
        shares
    }

    fn gc_share(&self) -> f64 {
        mean(
            &self
                .runs
                .iter()
                .map(|r| r.gc_ns as f64 / r.wall_ns.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    }

    pub fn peak_bytes(&self) -> f64 {
        self.counters.map_or(0.0, |c| c.peak_bytes as f64)
    }
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geomean over programs of the median compile time, run time (both
/// scaled to the reference host speed) and peak bytes — the
/// `compile_ms`, `run_ms` and `peak_bytes` end-to-end metrics.
pub fn program_metrics(progs: &[ProgramSamples], host: &HostClock, m: &mut Metrics) {
    let compile: Vec<f64> = progs.iter().map(|p| p.compile_scaled_ms(host)).collect();
    let run: Vec<f64> = progs.iter().map(|p| p.run_scaled_ms(host)).collect();
    let peak: Vec<f64> = progs.iter().map(ProgramSamples::peak_bytes).collect();
    m.push("compile_ms", geomean(&compile), "ms");
    m.push("run_ms", geomean(&run), "ms");
    m.push("peak_bytes", geomean(&peak), "bytes");
}

/// Median compile and run time of `val it = 0`: the fixed cost the
/// façade adds to every compile (prelude re-parse and re-elaboration)
/// and to every run (`Vm`/`Rt` set-up and rendering).
#[derive(Debug, Default)]
pub struct FixedCosts {
    compile_ns: Vec<u64>,
    run_ns: Vec<u64>,
}

impl FixedCosts {
    pub const SRC: &'static str = "val it = 0";

    /// Takes `compiles` compile samples and `runs` run samples.
    pub fn sample(&mut self, c: &Compiler, compiles: usize, runs: usize) {
        let mut prep = None;
        for _ in 0..compiles {
            let t0 = Instant::now();
            prep = Some(c.prepare_source(Self::SRC).expect("`val it = 0` compiles"));
            self.compile_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let prep = prep.expect("at least one compile");
        for _ in 0..runs {
            let t0 = Instant::now();
            let out = c.run_prepared(&prep).expect("`val it = 0` runs");
            self.run_ns.push(t0.elapsed().as_nanos() as u64);
            assert_eq!(out.result, "0");
        }
    }
}

/// Sum over programs of a counter of their first run.
fn total(progs: &[ProgramSamples], f: impl Fn(&RtStats) -> u64) -> f64 {
    progs
        .iter()
        .filter_map(|p| p.stats.as_ref())
        .map(f)
        .sum::<u64>() as f64
}

/// The compile and run per-layer metrics of a program set.
///
/// Phase times are the geomean traced compile time split by each phase's
/// mean share of a program's compile, so the six phases sum to the
/// traced compile time less the glue between the calls; mutator and
/// collector time split the run time the same way.
pub fn layer_metrics(progs: &[ProgramSamples], fixed: &FixedCosts, m: &mut Metrics) {
    let n = progs.len() as f64;
    let compile = geomean(
        &progs
            .iter()
            .map(ProgramSamples::phased_median_ms)
            .collect::<Vec<_>>(),
    );
    let mut shares = [0.0; 6];
    for p in progs {
        for (s, x) in shares.iter_mut().zip(p.phase_shares()) {
            *s += x / n;
        }
    }
    const LAYER: [&str; 6] = [
        "syntax.parse_ms",
        "typing.elab_ms",
        "lambda.opt_ms",
        "region.infer_ms",
        "kam.codegen_ms",
        "kam.prepare_ms",
    ];
    for (name, share) in LAYER.iter().zip(shares) {
        m.push(name, compile * share, "ms");
    }
    m.push("kit.compile_traced_ms", compile, "ms");
    let fixed_compile: Vec<f64> = fixed.compile_ns.iter().map(|&n| ms(n)).collect();
    let fixed_run: Vec<f64> = fixed.run_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.push("kit.compile_fixed_ms", median(&fixed_compile), "ms");
    m.push("kit.run_fixed_us", median(&fixed_run), "us");

    let shapes: Vec<Shape> = progs.iter().filter_map(|p| p.shape).collect();
    let avg = |f: fn(&Shape) -> f64| mean(&shapes.iter().map(f).collect::<Vec<_>>());
    m.push("lambda.rewrites", avg(|s| s.rewrites as f64), "count");
    m.push("lambda.inlined", avg(|s| s.inlined as f64), "count");
    m.push("region.regvars", avg(|s| f64::from(s.regvars)), "count");
    let finite: usize = shapes.iter().map(|s| s.finite).sum();
    let mults: usize = shapes.iter().map(|s| s.mults).sum();
    m.push(
        "region.finite_share",
        finite as f64 / mults.max(1) as f64,
        "ratio",
    );
    m.push("kam.code_words", avg(|s| s.code_words as f64), "count");

    let run = geomean(
        &progs
            .iter()
            .map(ProgramSamples::run_median_ms)
            .collect::<Vec<_>>(),
    );
    let gc_share = mean(
        &progs
            .iter()
            .map(ProgramSamples::gc_share)
            .collect::<Vec<_>>(),
    );
    m.push("kam.run_ms", run, "ms");
    m.push("kam.mutator_ms", run * (1.0 - gc_share), "ms");
    m.push("runtime.gc_ms", run * gc_share, "ms");
    let cpu: Vec<f64> = progs
        .iter()
        .map(ProgramSamples::run_cpu_median_ms)
        .collect();
    m.push("kam.run_cpu_ms", geomean(&cpu), "ms");
    let ratios: Vec<f64> = progs
        .iter()
        .flat_map(|p| p.runs.iter().map(RunSample::wall_cpu_ratio))
        .collect();
    m.push("kam.wall_cpu_ratio", median(&ratios), "ratio");
    let instructions: u64 = progs
        .iter()
        .filter_map(|p| p.counters)
        .map(|c| c.instructions)
        .sum();
    let run_total_s: f64 = progs.iter().map(|p| p.run_median_ms() / 1e3).sum();
    m.push("kam.instructions", instructions as f64, "count");
    m.push(
        "kam.minstr_per_s",
        instructions as f64 / run_total_s / 1e6,
        "Minstr/s",
    );

    m.push("runtime.gc_count", total(progs, |s| s.gc_count), "count");
    m.push(
        "runtime.gc_copied_words",
        total(progs, |s| s.gc_copied_words),
        "words",
    );
    let pause_max = progs
        .iter()
        .filter_map(|p| p.stats.as_ref())
        .map(|s| s.gc_pause_max_ns)
        .max()
        .unwrap_or(0);
    m.push("runtime.gc_pause_max_ms", ms(pause_max), "ms");
    // Table 3's RI column over every collection of the program set; 0
    // when no collection ran.
    let all = RtStats {
        gc_records: progs
            .iter()
            .filter_map(|p| p.stats.as_ref())
            .flat_map(|s| s.gc_records.iter().copied())
            .collect(),
        ..RtStats::default()
    };
    m.push(
        "runtime.ri_fraction",
        all.ri_fraction().unwrap_or(0.0),
        "ratio",
    );
    m.push(
        "runtime.words_allocated",
        total(progs, |s| s.words_allocated),
        "words",
    );
    m.push(
        "runtime.allocations",
        total(progs, |s| s.allocations),
        "count",
    );
    m.push(
        "runtime.lobj_words",
        total(progs, |s| s.lobj_words_allocated),
        "words",
    );
    m.push(
        "runtime.regions_created",
        total(progs, |s| s.regions_created),
        "count",
    );
    let peaks: Vec<f64> = progs.iter().map(ProgramSamples::peak_bytes).collect();
    m.push("runtime.peak_bytes", geomean(&peaks), "bytes");
}

/// Layer-sum reconciliation of a program set; each entry is a broken sum.
///
/// * The six phase spans of a traced compile lie inside it and cover at
///   least `PHASE_COVERAGE` of it, summed over all samples: only the glue
///   between the calls is outside them.
/// * The collector's time of a run is part of the run's wall time, so
///   `kam.mutator_ms + runtime.gc_ms = kam.run_ms` holds sample by
///   sample.
pub fn reconcile(progs: &[ProgramSamples]) -> Vec<String> {
    let mut broken = Vec::new();
    let (mut covered, mut total) = (0u64, 0u64);
    for p in progs {
        for s in &p.phased {
            let sum: u64 = s.phase_ns.iter().sum();
            if sum > s.total_ns {
                broken.push(format!(
                    "{}: phases sum to {sum} ns, more than the compile's {} ns",
                    p.name, s.total_ns
                ));
            }
            covered += sum;
            total += s.total_ns;
        }
        for r in &p.runs {
            if r.gc_ns > r.wall_ns {
                broken.push(format!(
                    "{}: collector time {} ns exceeds run wall {} ns",
                    p.name, r.gc_ns, r.wall_ns
                ));
            }
        }
    }
    if total > 0 && (covered as f64) < PHASE_COVERAGE * total as f64 {
        broken.push(format!(
            "compile phases cover {:.1}% of traced compile time, below {:.0}%",
            100.0 * covered as f64 / total as f64,
            100.0 * PHASE_COVERAGE
        ));
    }
    broken
}

/// Share of a traced compile its phase spans must cover.
pub const PHASE_COVERAGE: f64 = 0.97;

/// Prints one row per program: medians, the phase split and counters.
pub fn print_rows(progs: &[ProgramSamples]) {
    eprintln!(
        "{:<10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>10} {:>9} {:>7} {:>7} {:>11} {:>5} {:>10} {:>10}",
        "program", "compile", "parse", "elab", "opt", "region", "kamgen", "prep", "run", "cpu",
        "w/cpu", "gc", "instr", "#gc", "copied", "peak"
    );
    for p in progs {
        let med = |i: usize| {
            median(
                &p.phased
                    .iter()
                    .map(|s| ms(s.phase_ns[i]))
                    .collect::<Vec<_>>(),
            )
        };
        let c = p.counters.unwrap_or(Counters {
            instructions: 0,
            gc_count: 0,
            gc_copied_words: 0,
            peak_bytes: 0,
        });
        let gc = median(&p.runs.iter().map(|r| ms(r.gc_ns)).collect::<Vec<_>>());
        let ratio = median(
            &p.runs
                .iter()
                .map(RunSample::wall_cpu_ratio)
                .collect::<Vec<_>>(),
        );
        eprintln!(
            "{:<10} {:>9.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>10.3} {:>9.3} {:>7.3} {:>7.3} {:>11} {:>5} {:>10} {:>10}",
            p.name,
            p.phased_median_ms(),
            med(0),
            med(1),
            med(2),
            med(3),
            med(4),
            med(5),
            p.run_median_ms(),
            p.run_cpu_median_ms(),
            ratio,
            gc,
            c.instructions,
            c.gc_count,
            c.gc_copied_words,
            c.peak_bytes
        );
    }
}
