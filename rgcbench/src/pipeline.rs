//! The compile pipeline called phase by phase, so each layer can be
//! timed from outside through its public entry point.

use crate::trace::Tracer;
use kit::{Compiler, Mode, PreparedProgram, RtConfig};
use kit_lambda::opt::OptOptions;
use kit_region::{Mult, RegionOptions};

/// Span names of the compile phases, in pipeline order. Each is the
/// public call it wraps.
pub const PHASES: [&str; 6] = [
    "parse_program",
    "compile_program",
    "optimize",
    "region::infer",
    "kam::compile",
    "prepare_program",
];

/// Size and work counters of one compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Shape {
    /// Contraction rewrites applied by the optimizer.
    pub rewrites: usize,
    /// Functions inlined by the optimizer.
    pub inlined: usize,
    /// Region variables created by region inference.
    pub regvars: u32,
    /// Region variables with a multiplicity, and how many are finite.
    pub mults: usize,
    pub finite: usize,
    /// Instructions in the compiled program.
    pub code_words: usize,
}

/// Compiles `src` as `Compiler::new(Mode::Rgt).prepare_source` does, one
/// public call per phase, recording a span per phase under `parent`.
///
/// # Errors
///
/// The syntax or type error, rendered.
pub fn compile_phased(
    compiler: &Compiler,
    src: &str,
    tracer: &mut Tracer,
    parent: Option<usize>,
    req: u64,
) -> Result<(PreparedProgram, Shape), String> {
    assert_eq!(compiler.mode(), Mode::Rgt, "the phased path mirrors rgt");
    let ast = tracer
        .record(PHASES[0], parent, req, || kit_syntax::parse_program(src))
        .map_err(|e| format!("syntax error: {}", e.message()))?;
    let mut lprog = tracer
        .record(PHASES[1], parent, req, || kit_typing::compile_program(&ast))
        .map_err(|e| e.to_string())?;
    let opt = tracer.record(PHASES[2], parent, req, || {
        kit_lambda::opt::optimize(&mut lprog, &OptOptions::default())
    });
    let rprog = tracer.record(PHASES[3], parent, req, || {
        kit_region::infer(&lprog, RegionOptions::with_gc())
    });
    let mut prog = tracer.record(PHASES[4], parent, req, || {
        kit_kam::compile(&rprog, RtConfig::rgt().tagged)
    });
    prog.result_ty = lprog.result_ty.clone();
    let shape = Shape {
        rewrites: opt.rewrites,
        inlined: opt.inlined,
        regvars: rprog.num_regvars,
        mults: rprog.mults.len(),
        finite: rprog.mults.values().filter(|m| **m == Mult::Finite).count(),
        code_words: prog.code.len(),
    };
    let prep = tracer.record(PHASES[5], parent, req, || compiler.prepare_program(prog));
    Ok((prep, shape))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// The phased path must build exactly what the façade builds, or its
    /// per-phase times would describe a different compilation.
    #[test]
    fn phased_path_rebuilds_what_compile_source_builds() {
        let compiler = Compiler::new(Mode::Rgt);
        for b in kit_bench::programs::all() {
            let src = b.source_scaled(b.test_scale);
            let mut tracer = Tracer::new(Instant::now(), true);
            let root = tracer.open("compile", None, 1);
            let (prep, shape) = compile_phased(&compiler, &src, &mut tracer, root, 1).unwrap();
            tracer.close(root);
            let want = compiler.compile_source(&src).unwrap();
            assert!(prep.program == want, "{}: phased program differs", b.name);
            assert_eq!(shape.code_words, want.code.len(), "{}", b.name);
            let names: Vec<&str> = tracer.spans()[1..].iter().map(|s| s.name).collect();
            assert_eq!(names, PHASES, "{}", b.name);
        }
    }
}
