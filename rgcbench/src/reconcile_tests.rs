//! Layer-sum reconciliation: the per-layer figures must add up to the
//! end-to-end figure they split, within the stated tolerances, or the
//! per-layer metrics describe something other than what users see.

use crate::measure::{self, FixedCosts, Metrics, ProgramSamples, Tally};
use crate::reference::Expected;
use crate::serve::{self, Kind};
use crate::stats::geomean;
use crate::trace::Tracer;
use crate::Opts;
use kit::{Compiler, Mode};
use std::time::Instant;

/// Traced compile time may differ from the untraced façade's by this
/// share: the two run interleaved on the same programs, so only noise
/// (and the few clock reads tracing adds) separates them.
const TRACED_VS_UNTRACED: f64 = 0.15;

/// Runs `f` on a thread with a large stack: unoptimized builds need more
/// stack than a test thread has for the reference evaluator and the
/// compiler passes on the larger programs.
fn on_big_stack(f: impl FnOnce() + Send + 'static) {
    let worker = std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(f)
        .expect("spawn test thread");
    if let Err(panic) = worker.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn suite_phases_sum_to_compile_time_and_mutator_plus_gc_to_run_time() {
    on_big_stack(suite_sums);
}

fn suite_sums() {
    let c = Compiler::new(Mode::Rgt);
    let mut tracer = Tracer::new(Instant::now(), true);
    let mut tally = Tally::default();
    let mut progs = Vec::new();
    for name in ["vliw", "zebra", "msort", "churn", "book", "lexgen"] {
        let b = kit_bench::by_name(name).unwrap();
        let src = b.source_scaled(b.test_scale);
        let want = kit::oracle::run_oracle(&src, None).unwrap();
        let want = Expected {
            result: want.result,
            output: want.output,
        };
        let mut s = ProgramSamples::new(name);
        for round in 0..5 {
            let prep = if round % 2 == 0 {
                s.compile(&c, &src).unwrap();
                s.compile_phased(&c, &src, &mut tracer, 1).unwrap()
            } else {
                s.compile_phased(&c, &src, &mut tracer, 1).unwrap();
                s.compile(&c, &src).unwrap()
            };
            for _ in 0..3 {
                s.run(&c, &prep, &want, &mut tally, &mut tracer, 1).unwrap();
            }
        }
        progs.push(s);
    }
    assert_eq!(tally.failed, 0, "{:?}", tally.failures);
    assert!(tally.guard.is_empty(), "{:?}", tally.guard);
    assert_eq!(measure::reconcile(&progs), Vec::<String>::new());

    let mut fixed = FixedCosts::default();
    fixed.sample(&c, 2, 2);
    let mut m = Metrics::default();
    measure::layer_metrics(&progs, &fixed, &mut m);
    let get = |n: &str| m.get(n).unwrap();
    let phases: f64 = [
        "syntax.parse_ms",
        "typing.elab_ms",
        "lambda.opt_ms",
        "region.infer_ms",
        "kam.codegen_ms",
        "kam.prepare_ms",
    ]
    .iter()
    .map(|n| get(n))
    .sum();
    let traced = get("kit.compile_traced_ms");
    assert!(
        phases <= traced && phases >= measure::PHASE_COVERAGE * traced,
        "phases sum to {phases} ms of a {traced} ms traced compile"
    );
    let untraced = geomean(
        &progs
            .iter()
            .map(ProgramSamples::compile_median_ms)
            .collect::<Vec<_>>(),
    );
    assert!(
        (phases / untraced - 1.0).abs() <= TRACED_VS_UNTRACED,
        "phases sum to {phases} ms, untraced compile_ms is {untraced} ms"
    );
    let (run, mutator, gc) = (
        get("kam.run_ms"),
        get("kam.mutator_ms"),
        get("runtime.gc_ms"),
    );
    assert!(
        ((mutator + gc) / run - 1.0).abs() < 1e-9,
        "mutator {mutator} + gc {gc} != run {run}"
    );
    assert!(gc > 0.0, "churn and msort collect, so gc time is not zero");
}

fn traced_serve(kind: Kind, rate: f64) -> crate::Outcome {
    let opts = Opts {
        workload: String::new(),
        seed: 3,
        seconds: 2.0,
        trace: true,
        warm_rate: rate,
        cold_rate: rate,
    };
    serve::run(&opts, kind).unwrap()
}

/// A traced serve run checks per request that replayed compile + exec +
/// overhead equals the served latency with a non-negative overhead in
/// sum (within `SERVE_PARTS_TOLERANCE`); a broken split lands in
/// `tally.guard`.
#[test]
fn serve_compile_exec_and_overhead_sum_to_latency() {
    for (kind, rate) in [(Kind::Warm, 300.0), (Kind::Cold, 20.0)] {
        let out = traced_serve(kind, rate);
        assert_eq!(out.tally.failed, 0, "{kind:?}: {:?}", out.tally.failures);
        assert!(
            out.tally.guard.is_empty(),
            "{kind:?}: {:?}",
            out.tally.guard
        );
        let get = |n: &str| out.metrics.get(n).unwrap();
        assert!(get("serve.exec_ms") > 0.0, "{kind:?}");
        match kind {
            Kind::Warm => assert_eq!(get("serve.compile_ms"), 0.0, "warm requests hit the cache"),
            Kind::Cold => assert!(
                get("serve.compile_ms") > get("serve.exec_ms"),
                "cold compiles dominate"
            ),
        }
        let spans = out.tracer.spans();
        for name in [
            "request",
            "encode",
            "write",
            "read",
            "decode",
            "compile",
            "run_prepared",
        ] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "{kind:?}: no {name} span"
            );
        }
        for s in spans {
            assert!(
                s.end_ns >= s.start_ns,
                "{kind:?}: span {} runs backwards",
                s.name
            );
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert_eq!(
                    parent.req, s.req,
                    "{kind:?}: {} under another request",
                    s.name
                );
            }
        }
    }
}
