//! Register-form code: the post-link translation behind
//! [`DispatchMode::RegisterFused`](crate::vm::DispatchMode).
//!
//! [`translate`] rewrites an *unfused* [`LinkedProgram`] into a
//! virtual-register stream: each function body is split at its leaders
//! (branch targets and entries) into runs, and each run goes through the
//! symbolic-stack pass in [`crate::regalloc`], which keeps values in the
//! locals array ("infinite virtual registers" — every local slot is one)
//! and emits three-address ops instead of push/pop traffic. Block-entry
//! shapes come from a function-level fixpoint (see
//! [`crate::regalloc::FlowShapes`]): the translator first *simulates*
//! every reachable run into a scratch stream until the shapes every
//! branch carries across its edges stop changing, then re-runs the same
//! pass frozen to emit the final stream — simulation and emission share
//! one code path, so they cannot disagree. The result reuses the
//! threaded engine's struct-of-arrays layout ([`ThreadedCode`]) plus a
//! parallel per-pc cost stream: register ops replace a *variable* number
//! of stack ops, so their instruction charge can't live in the static
//! [`Op::cost`](crate::threaded::Op::cost) table.
//!
//! The translation renumbers pcs (folded instructions disappear), so a
//! second pass remaps every branch operand, switch row, entry point, and
//! label address. All control-flow targets are leaders, and leaders are
//! never folded into a predecessor, so the remap is total.
//!
//! [`fuse`] then optionally stacks the profile-selected superinstruction
//! set on top: the register stream still contains base-op sequences
//! (flushed loads before calls, entry safepoints, local copies around
//! barriers) that the link-time fusion pass would have merged, so a
//! second greedy pass over the emitted ops re-applies
//! [`FUSION_CANDIDATES`] wherever a window of base ops matches with no
//! interior branch target. Merged ops charge the sum of their windows'
//! costs, keeping the dynamic instruction accounting bit-identical.

use crate::fusion_table::{Opk, Pattern, FUSION_CANDIDATES};
use crate::instr::{Instr, RegSlot};
use crate::link::{build_fused, LInstr, LinkedProgram};
use crate::regalloc::{self, FlowShapes, PVal};
use crate::threaded::{Op, ThreadedCode};
use kit_lambda::exp::Prim;

/// A program in register form: the SoA stream plus its dynamic cost
/// table. `code.ops`/`code.args` may contain the six register-only
/// opcodes, which [`ThreadedCode::rebuild`] refuses — use
/// [`RegCode::decode`] instead.
#[derive(Debug)]
pub struct RegCode {
    /// The instruction stream, in the threaded engine's layout (pcs are
    /// register-form coordinates; label tables already remapped).
    pub code: ThreadedCode,
    /// Per-pc instruction charge: the number of source (stack)
    /// instructions each op stands for. Sums to the unfused source
    /// length plus seeded minus deferred entries (each deferred entry's
    /// charge moves into the successor block that consumes it).
    pub costs: Vec<u32>,
    /// Source instructions folded away (`source len - ops.len()`).
    pub folded: u64,
    /// Per-pc marker: this op materializes a pending value (a flush).
    /// Parallel to `code.ops`; for the disassembler.
    pub flushed: Vec<bool>,
    /// Non-empty block-entry shapes, as `(register pc, shape)` — the
    /// values each leader receives still in register form. Oldest first.
    pub entry_shapes: Vec<(u32, Vec<RSrc>)>,
    /// Total pending entries seeded into runs across block edges.
    pub seeded: u64,
    /// Total pending entries deferred out of runs across block edges.
    pub deferred: u64,
}

impl RegCode {
    fn empty(code: ThreadedCode) -> RegCode {
        RegCode {
            code,
            costs: Vec::new(),
            folded: 0,
            flushed: Vec::new(),
            entry_shapes: Vec::new(),
            seeded: 0,
            deferred: 0,
        }
    }
}

/// Fixpoint round cap. Shapes shrink toward empty under the suffix
/// meet, so real programs settle in a handful of rounds; past the cap
/// every shape collapses to empty (exactly the per-run translation),
/// which is always sound.
const MAX_ROUNDS: usize = 64;

/// Translates an unfused linked program into register form.
pub fn translate(linked: &LinkedProgram) -> RegCode {
    debug_assert_eq!(
        linked.fused, 0,
        "register translation expects a Fusion::Off stream"
    );
    let n = linked.code.len();

    // Leaders: every branch target or entry. Runs are the maximal
    // leader-free intervals; the symbolic stack crosses them only via
    // the negotiated entry shapes.
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for &pc in linked.pc_of_label.iter().chain(&linked.entry_pc) {
        if (pc as usize) < n {
            leader[pc as usize] = true;
        }
    }
    let mut runs: Vec<(usize, usize)> = Vec::new();
    let mut start = 0;
    while start < n {
        let mut end = start + 1;
        while end < n && !leader[end] {
            end += 1;
        }
        runs.push((start, end));
        start = end;
    }

    // Entry-style leaders start from a bare physical stack: function
    // entries (fresh frame), `CallClos`-reachable labels, handler
    // targets (the unwinder truncates the stack to a snapshot), and the
    // switch families the translator treats as barriers.
    let mut flow = FlowShapes::new(n);
    if n > 0 {
        flow.pin_empty(0);
    }
    for &pc in &linked.entry_pc {
        flow.pin_empty(pc);
    }
    for (l, &f) in linked.fun_of_label.iter().enumerate() {
        if f != u32::MAX {
            let pc = linked.pc_of_label[l];
            if pc != u32::MAX {
                flow.pin_empty(pc);
            }
        }
    }
    for ins in &linked.code {
        match ins {
            LInstr::PushHandler { target, .. } => flow.pin_empty(*target),
            LInstr::SwitchInt { arms, default } => {
                for &(_, t) in arms.iter() {
                    flow.pin_empty(t);
                }
                flow.pin_empty(*default);
            }
            LInstr::SwitchStr { arms, default } => {
                for (_, t) in arms.iter() {
                    flow.pin_empty(*t);
                }
                flow.pin_empty(*default);
            }
            LInstr::SwitchExn { arms, default } => {
                for &(_, t) in arms.iter() {
                    flow.pin_empty(t);
                }
                flow.pin_empty(*default);
            }
            _ => {}
        }
    }

    // Fixpoint: simulate every flow-reachable run with the real
    // translator into a throwaway stream, meeting each branch's pending
    // suffix into its targets, until no shape changes.
    let mut rounds = 0;
    loop {
        flow.start_round();
        let mut scratch = RegCode::empty(ThreadedCode::empty(Vec::new(), Vec::new(), Vec::new()));
        for &(s, e) in &runs {
            if flow.reached(s) {
                regalloc::translate_run(&linked.code, s, e, &mut scratch, &mut flow);
            }
        }
        if !flow.changed() {
            break;
        }
        rounds += 1;
        if rounds > MAX_ROUNDS {
            flow.reset_to_empty();
            break;
        }
    }
    flow.freeze();

    let mut out = RegCode::empty(ThreadedCode::empty(
        linked.entry_pc.clone(),
        linked.pc_of_label.clone(),
        linked.fun_of_label.clone(),
    ));
    out.costs.reserve(n);

    // Pass 1: emit each run against the frozen shapes, recording where
    // its leader landed and what it receives in register form.
    let mut new_pc_of_old = vec![u32::MAX; n];
    for &(s, e) in &runs {
        let new_pc = out.code.ops.len() as u32;
        new_pc_of_old[s] = new_pc;
        let seed = flow.seed(s);
        if !seed.is_empty() {
            let shape = seed
                .iter()
                .map(|pv| match *pv {
                    PVal::Local(i) => RSrc::Local(i),
                    PVal::Const(k) => RSrc::Const(k),
                })
                .collect();
            out.entry_shapes.push((new_pc, shape));
        }
        regalloc::translate_run(&linked.code, s, e, &mut out, &mut flow);
    }
    debug_assert_eq!(
        out.costs.iter().map(|&c| c as u64).sum::<u64>() + out.deferred,
        n as u64 + out.seeded,
        "cost stream must cover every source instruction not in flight"
    );
    out.folded = (n as u64).saturating_sub(out.code.ops.len() as u64);

    // Pass 2: remap every pc operand to register-form coordinates.
    // Every target is a leader, so the lookup can't hit `u32::MAX`.
    let remap = |pc: u32| -> u32 {
        let new = new_pc_of_old[pc as usize];
        debug_assert_ne!(new, u32::MAX, "branch target {pc} is not a leader");
        new
    };
    for (op, x) in out.code.ops.iter().zip(out.code.args.iter_mut()) {
        match op {
            Op::Jump
            | Op::JumpIfFalse
            | Op::PushConstJumpIfFalse
            | Op::PushHandler
            | Op::Call
            | Op::PrimJump
            | Op::RPrimJump
            | Op::RJumpIfFalse => x.t = remap(x.t),
            _ => {}
        }
    }
    for (_, (arms, default)) in &mut out.code.con_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for (arms, default) in &mut out.code.int_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for (arms, default) in &mut out.code.str_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for (arms, default) in &mut out.code.exn_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for pc in &mut out.code.entry_pc {
        *pc = remap(*pc);
    }
    for pc in &mut out.code.pc_of_label {
        if *pc != u32::MAX {
            *pc = remap(*pc);
        }
    }
    out
}

/// The pattern kind of a register-stream op, if fusion patterns can
/// refer to it. Register-only and already-fused opcodes return `None`
/// and act as match barriers.
fn opk_of_op(op: Op) -> Option<Opk> {
    Some(match op {
        Op::Load => Opk::Load,
        Op::Store => Opk::Store,
        Op::Pop => Opk::Pop,
        Op::PushConst => Opk::PushConst,
        Op::Select => Opk::Select,
        Op::Prim => Opk::Prim,
        Op::JumpIfFalse => Opk::JumpIfFalse,
        Op::SwitchCon => Opk::SwitchCon,
        Op::GcCheck => Opk::GcCheck,
        Op::RegHandle => Opk::RegHandle,
        _ => return None,
    })
}

/// Converts a rebuilt base op back to source form for the shared fusion
/// constructor. Branch targets are already register-form pcs, carried
/// through `Label` and resolved by identity.
fn as_instr(ins: &LInstr) -> Instr {
    match ins {
        LInstr::Load(i) => Instr::Load(*i),
        LInstr::Store(j) => Instr::Store(*j),
        LInstr::Pop => Instr::Pop,
        LInstr::PushConst(k) => Instr::PushConst(*k),
        LInstr::Select(sel) => Instr::Select(*sel),
        LInstr::Prim { p, at } => Instr::Prim { p: *p, at: *at },
        LInstr::JumpIfFalse(t) => Instr::JumpIfFalse(*t as usize),
        LInstr::SwitchCon {
            disc,
            arms,
            default,
        } => Instr::SwitchCon {
            disc: *disc,
            arms: arms.iter().map(|&(c, t)| (c, t as usize)).collect(),
            default: *default as usize,
        },
        LInstr::GcCheck => Instr::GcCheck,
        LInstr::RegHandle(r) => Instr::RegHandle(*r),
        other => unreachable!("non-pattern op {other:?} in a fusion window"),
    }
}

/// The longest fusion candidate matching the register stream at `i`:
/// adjacent base ops of the right kinds with no interior leader.
fn match_window(code: &ThreadedCode, leader: &[bool], i: usize) -> Option<&'static Pattern> {
    'pat: for pat in FUSION_CANDIDATES {
        if i + pat.seq.len() > code.ops.len() {
            continue;
        }
        for j in 1..pat.seq.len() {
            if leader[i + j] {
                continue 'pat;
            }
        }
        for (j, k) in pat.seq.iter().enumerate() {
            if opk_of_op(code.ops[i + j]) != Some(*k) {
                continue 'pat;
            }
        }
        return Some(pat);
    }
    None
}

/// Re-fuses a register stream: greedily merges base-op windows matching
/// [`FUSION_CANDIDATES`] into superinstructions, yielding the
/// `register_fused` configuration. Strictly additive over [`translate`]
/// — unmatched ops are copied verbatim — and cost-preserving: a merged
/// op charges the sum of its window, so dynamic instruction totals and
/// the GC schedule are untouched.
pub fn fuse(r: RegCode) -> RegCode {
    let n = r.code.ops.len();

    // Leaders in register coordinates: anywhere control can land. A
    // window may never span one. (Return addresses need no marking: no
    // pattern contains a call, so `pc+1` of a call is never interior.)
    let mut leader = vec![false; n];
    let mark = |pc: u32, leader: &mut Vec<bool>| {
        if (pc as usize) < n {
            leader[pc as usize] = true;
        }
    };
    if n > 0 {
        leader[0] = true;
    }
    for (op, x) in r.code.ops.iter().zip(&r.code.args) {
        match op {
            Op::Jump
            | Op::JumpIfFalse
            | Op::PushConstJumpIfFalse
            | Op::PushHandler
            | Op::Call
            | Op::PrimJump
            | Op::RPrimJump
            | Op::RJumpIfFalse => mark(x.t, &mut leader),
            _ => {}
        }
    }
    for (_, (arms, default)) in &r.code.con_switches {
        for &(_, t) in arms.iter() {
            mark(t, &mut leader);
        }
        mark(*default, &mut leader);
    }
    for (arms, default) in &r.code.int_switches {
        for &(_, t) in arms.iter() {
            mark(t, &mut leader);
        }
        mark(*default, &mut leader);
    }
    for (arms, default) in &r.code.str_switches {
        for (_, t) in arms.iter() {
            mark(*t, &mut leader);
        }
        mark(*default, &mut leader);
    }
    for (arms, default) in &r.code.exn_switches {
        for &(_, t) in arms.iter() {
            mark(t, &mut leader);
        }
        mark(*default, &mut leader);
    }
    for &pc in &r.code.entry_pc {
        mark(pc, &mut leader);
    }
    for &pc in &r.code.pc_of_label {
        if pc != u32::MAX {
            mark(pc, &mut leader);
        }
    }

    // Keep the side tables: verbatim-copied ops index into them, and
    // `push_linstr` appends fresh rows for rebuilt windows. Rows are
    // remapped wholesale below, stale or not.
    let mut code = r.code.clone();
    code.ops = Vec::with_capacity(n);
    code.args = Vec::with_capacity(n);
    let mut out = RegCode::empty(code);
    out.folded = r.folded;
    out.seeded = r.seeded;
    out.deferred = r.deferred;

    let mut new_pc_of_old = vec![u32::MAX; n];
    let mut merged: u64 = 0;
    let mut i = 0;
    while i < n {
        new_pc_of_old[i] = out.code.ops.len() as u32;
        if let Some(pat) = match_window(&r.code, &leader, i) {
            let len = pat.seq.len();
            let w: Vec<Instr> = (i..i + len)
                .map(|pc| as_instr(&r.code.rebuild(pc)))
                .collect();
            let fused = build_fused(pat.out, &w, &|l| l as u32);
            out.code.push_linstr(fused);
            out.costs.push(r.costs[i..i + len].iter().sum());
            out.flushed.push(r.flushed[i..i + len].iter().any(|&b| b));
            merged += len as u64 - 1;
            i += len;
        } else {
            out.code.ops.push(r.code.ops[i]);
            out.code.args.push(r.code.args[i]);
            out.costs.push(r.costs[i]);
            out.flushed.push(r.flushed[i]);
            i += 1;
        }
    }
    out.code.fused = merged;
    out.folded += merged;

    // Remap pcs once more: merged windows shifted everything after them.
    // Every branch target is a leader, so it was never window-interior.
    let remap = |pc: u32| -> u32 {
        let new = new_pc_of_old[pc as usize];
        debug_assert_ne!(new, u32::MAX, "re-fusion target {pc} is not a leader");
        new
    };
    for (op, x) in out.code.ops.iter().zip(out.code.args.iter_mut()) {
        match op {
            Op::Jump
            | Op::JumpIfFalse
            | Op::PushConstJumpIfFalse
            | Op::PushHandler
            | Op::Call
            | Op::PrimJump
            | Op::RPrimJump
            | Op::RJumpIfFalse
            | Op::LoadLoadPrimJump
            | Op::LoadConstPrimJump
            | Op::LoadPrimJump => x.t = remap(x.t),
            _ => {}
        }
    }
    for (_, (arms, default)) in &mut out.code.con_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for (arms, default) in &mut out.code.int_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for (arms, default) in &mut out.code.str_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for (arms, default) in &mut out.code.exn_switches {
        for (_, t) in arms.iter_mut() {
            *t = remap(*t);
        }
        *default = remap(*default);
    }
    for pc in &mut out.code.entry_pc {
        *pc = remap(*pc);
    }
    for pc in &mut out.code.pc_of_label {
        if *pc != u32::MAX {
            *pc = remap(*pc);
        }
    }
    out.entry_shapes = r
        .entry_shapes
        .into_iter()
        .map(|(pc, shape)| (remap(pc), shape))
        .collect();
    out
}

/// Where a register-prim operand comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RSrc {
    /// Popped from the operand stack (the stack-machine default).
    Stack,
    /// Read from local slot `i`.
    Local(u32),
    /// The immediate word.
    Const(u64),
}

/// Decoded register-form instruction, for the disassembler and tests.
/// Base and fused ops decode through [`ThreadedCode::rebuild`].
#[derive(Debug, Clone, PartialEq)]
pub enum RegInstr {
    /// Three-address primitive; `dst` is `Some(j)` when the result is
    /// stored straight to local `j` instead of pushed.
    RPrim {
        a: RSrc,
        b: RSrc,
        p: Prim,
        at: Option<RegSlot>,
        dst: Option<u32>,
    },
    /// Primitive fused with `JumpIfFalse target` on its result.
    RPrimJump {
        a: RSrc,
        b: RSrc,
        p: Prim,
        at: Option<RegSlot>,
        target: u32,
    },
    /// Branch if local `cond` is false.
    RJumpIfFalse { cond: u32, target: u32 },
    /// `locals[j] = k`.
    RStoreConst { k: u64, j: u32 },
    /// Return local `i`.
    RRetLocal { i: u32 },
    /// Return the immediate `k`.
    RRetConst { k: u64 },
    /// Cost-accounting no-op.
    RNop,
    /// Any non-register op, reconstructed as its linked form.
    Base(LInstr),
}

impl RegCode {
    /// Decodes the instruction at `pc` (the register-form counterpart of
    /// [`ThreadedCode::rebuild`]).
    pub fn decode(&self, pc: usize) -> RegInstr {
        let x = &self.code.args[pc];
        let src = |mode: u16, local: u32| match mode & 0xf {
            0 => RSrc::Stack,
            1 => RSrc::Local(local),
            _ => RSrc::Const(x.k),
        };
        match self.code.ops[pc] {
            Op::RPrim => RegInstr::RPrim {
                a: src(x.n, x.a),
                b: src(x.n >> 4, x.b),
                p: x.p,
                at: x.at,
                dst: x.flag.then_some(x.m as u32),
            },
            Op::RPrimJump => RegInstr::RPrimJump {
                a: src(x.n, x.a),
                b: src(x.n >> 4, x.b),
                p: x.p,
                at: x.at,
                target: x.t,
            },
            Op::RJumpIfFalse => RegInstr::RJumpIfFalse {
                cond: x.a,
                target: x.t,
            },
            Op::RStoreConst => RegInstr::RStoreConst { k: x.k, j: x.a },
            Op::RRet => {
                if x.n == 1 {
                    RegInstr::RRetLocal { i: x.a }
                } else {
                    RegInstr::RRetConst { k: x.k }
                }
            }
            Op::RNop => RegInstr::RNop,
            _ => RegInstr::Base(self.code.rebuild(pc)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{link, Fusion};
    use crate::vm::DispatchMode;
    use kit_runtime::{Rt, RtConfig};

    fn compile(src: &str) -> crate::instr::Program {
        let mut lprog = kit_typing::compile_str(src).expect("typecheck");
        kit_lambda::opt::optimize(&mut lprog, &Default::default());
        let rprog = kit_region::infer(&lprog, kit_region::RegionOptions::regions_only());
        crate::compile(&rprog, true)
    }

    const FIB: &str = "
        fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
        val it = fib 17
    ";

    const GUARDED_LOOP: &str = "
        exception Bound
        fun go (i, acc) =
          if i = 0 then acc
          else
            let
              val a = (acc + i) mod 1048573
              val _ = if a < 0 then raise Bound else ()
            in
              go (i - 1, a)
            end
        val it = go (5000, 1)
    ";

    #[test]
    fn costs_cover_every_source_instruction() {
        for src in [FIB, GUARDED_LOOP] {
            let prog = compile(src);
            let linked = link(&prog, Fusion::Off);
            let r = translate(&linked);
            let total: u64 = r.costs.iter().map(|&c| c as u64).sum();
            // Deferred entries move their charge across block edges;
            // the static books balance per translation, not per pc.
            assert_eq!(total + r.deferred, linked.code.len() as u64 + r.seeded);
            assert_eq!(r.folded, linked.code.len() as u64 - r.code.ops.len() as u64);
            assert!(r.folded > 0, "plenty of stack traffic should fold");
        }
    }

    #[test]
    fn register_engine_matches_stack_engine() {
        for src in [FIB, GUARDED_LOOP] {
            let prog = compile(src);
            let m = crate::vm::Vm::new(&prog, Rt::new(RtConfig::default()))
                .run()
                .expect("match engine");
            let r = crate::vm::Vm::new(&prog, Rt::new(RtConfig::default()))
                .with_dispatch(DispatchMode::RegisterFused)
                .run()
                .expect("register engine");
            assert_eq!(m.result, r.result);
            assert_eq!(m.instructions, r.instructions);
            assert_eq!(m.stats.gc_count, r.stats.gc_count);
            assert_eq!(m.stats.words_allocated, r.stats.words_allocated);
        }
    }

    #[test]
    fn decode_register_ops() {
        let prog = compile(FIB);
        let linked = link(&prog, Fusion::Off);
        let r = translate(&linked);
        let mut saw_rprim = false;
        for pc in 0..r.code.ops.len() {
            match r.decode(pc) {
                RegInstr::RPrim { a, b, .. } | RegInstr::RPrimJump { a, b, .. } => {
                    saw_rprim = true;
                    // B physical implies A physical (translator invariant).
                    if b == RSrc::Stack {
                        assert_eq!(a, RSrc::Stack);
                    }
                }
                RegInstr::Base(ins) => {
                    assert_eq!(crate::threaded::Op::of(&ins), r.code.ops[pc]);
                }
                _ => {}
            }
        }
        assert!(saw_rprim, "fib folds compares/arithmetic into RPrim(Jump)");
    }

    #[test]
    fn refusion_merges_and_preserves_costs() {
        let prog = compile(FIB);
        let linked = link(&prog, Fusion::Off);
        let r = translate(&linked);
        let plain_total: u64 = r.costs.iter().map(|&c| c as u64).sum();
        let f = fuse(r);
        let fused_total: u64 = f.costs.iter().map(|&c| c as u64).sum();
        assert_eq!(
            plain_total, fused_total,
            "re-fusion must not change charges"
        );
        assert!(f.code.fused > 0, "fib leaves fusible base windows");
        // Decode must survive the merge (base + fused + register ops).
        for pc in 0..f.code.ops.len() {
            let _ = f.decode(pc);
        }
    }

    #[test]
    fn cross_block_carry_defers_entries() {
        // The guard pattern leaves a unit-if join whose entries carry.
        let prog = compile(GUARDED_LOOP);
        let linked = link(&prog, Fusion::Off);
        let r = translate(&linked);
        assert!(
            r.seeded > 0 && r.deferred > 0,
            "the guard join should receive a carried entry (seeded {}, deferred {})",
            r.seeded,
            r.deferred
        );
        assert!(!r.entry_shapes.is_empty());
        for (pc, shape) in &r.entry_shapes {
            assert!((*pc as usize) < r.code.ops.len());
            assert!(!shape.is_empty());
        }
    }
}
