//! Differential test for the interpreter's link/fusion pass and dispatch
//! engines: every benchmark, in every mode, must be bit-for-bit
//! observationally identical across every (dispatch, fusion) configuration
//! — same rendered result, same printed output, and (because
//! `LInstr::cost`/`Op::cost` charge a fused instruction for the source
//! instructions it replaces) the same instruction count and therefore the
//! same GC schedule and allocation statistics.

use kit::{Compiler, DispatchMode, Fusion, Mode};
use kit_bench::programs;
use kit_kam::LInstr;

#[test]
fn fusion_and_dispatch_are_observationally_invisible_on_every_benchmark() {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(check_all_benchmarks)
        .unwrap()
        .join()
        .unwrap();
}

fn check_all_benchmarks() {
    // The reference config is the PR 1 loop with fusion off; every other
    // (dispatch × fusion set) combination must match it exactly.
    let configs = [
        (DispatchMode::Match, Fusion::Off),
        (DispatchMode::Match, Fusion::Hand),
        (DispatchMode::Match, Fusion::Full),
        (DispatchMode::Threaded, Fusion::Off),
        (DispatchMode::Threaded, Fusion::Hand),
        (DispatchMode::Threaded, Fusion::Full),
        // Cross-block regalloc + re-fused register stream: the engine
        // links with fusion off internally, so the fusion setting must be
        // observationally irrelevant, and cost merging in `register::fuse`
        // must keep fuel and the GC schedule identical.
        (DispatchMode::RegisterFused, Fusion::Off),
        (DispatchMode::RegisterFused, Fusion::Full),
    ];
    // The tier-3 uncovered-triple fixups must actually fire on the
    // corpus they were profiled from (the equivalence loop below then
    // proves them invisible).
    let mut tier3 = [0u64; 3];
    for b in programs::all() {
        let src = b.source_scaled(b.test_scale);
        let prog = Compiler::new(Mode::R)
            .compile_source(&src)
            .unwrap_or_else(|e| panic!("{}: compile: {e}", b.name));
        for ins in &kit_kam::link(&prog, Fusion::Full).code {
            match ins {
                LInstr::SelectStoreLoad { .. } => tier3[0] += 1,
                LInstr::GcCheckLoadSwitchCon { .. } => tier3[1] += 1,
                LInstr::RegHandleRegHandleLoad { .. } => tier3[2] += 1,
                _ => {}
            }
        }
    }
    assert!(
        tier3.iter().all(|&n| n > 0),
        "tier-3 fusions must fire on the benchmark corpus: \
         SelectStoreLoad={} GcCheckLoadSwitchCon={} RegHandleRegHandleLoad={}",
        tier3[0],
        tier3[1],
        tier3[2]
    );

    for b in programs::all() {
        let src = b.source_scaled(b.test_scale);
        for mode in Mode::ALL_WITH_BASELINE {
            // The link pass runs inside the VM, so one compiled program
            // serves all executions.
            let prog = Compiler::new(mode)
                .compile_source(&src)
                .unwrap_or_else(|e| panic!("{} ({mode}): compile: {e}", b.name));
            let reference = Compiler::new(mode)
                .with_dispatch(DispatchMode::Match)
                .without_fusion()
                .run_program(&prog)
                .unwrap_or_else(|e| panic!("{} ({mode}) reference: {e}", b.name));
            for (dispatch, fusion) in configs {
                let out = Compiler::new(mode)
                    .with_dispatch(dispatch)
                    .with_fusion(fusion)
                    .run_program(&prog)
                    .unwrap_or_else(|e| panic!("{} ({mode}) {dispatch:?}/{fusion:?}: {e}", b.name));
                let ctx = format!("{} ({mode}) {dispatch:?}/{fusion:?}", b.name);
                assert_eq!(out.result, reference.result, "{ctx}: result");
                assert_eq!(out.output, reference.output, "{ctx}: output");
                assert_eq!(
                    out.instructions, reference.instructions,
                    "{ctx}: instruction count"
                );
                assert_eq!(
                    out.stats.words_allocated, reference.stats.words_allocated,
                    "{ctx}: words allocated"
                );
                assert_eq!(
                    out.stats.allocations, reference.stats.allocations,
                    "{ctx}: allocations"
                );
                assert_eq!(out.stats.gc_count, reference.stats.gc_count, "{ctx}: #GC");
                assert_eq!(
                    out.stats.gc_copied_words, reference.stats.gc_copied_words,
                    "{ctx}: words copied by GC"
                );
                assert_eq!(
                    out.stats.peak_bytes, reference.stats.peak_bytes,
                    "{ctx}: peak memory"
                );
            }
        }
    }
}
