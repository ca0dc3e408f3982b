//! Minimized reproducers for bugs found by the randomized differential.
//!
//! PR 3's int-expression fuzzer caught the dangling dead-slot root bug
//! (fixed in `kit-kam`, covered by `clear_dead_slot` handling there);
//! this file holds the bugs the PR 8 full-surface generator and the
//! widened configuration fuzzing surfaced, including one the benchmark's
//! `serve_cold` workload drew from that generator. Each test is a
//! program and config that reproduced the failure — minimized, unless it
//! is a generator draw kept verbatim — named after the defect, so a
//! regression bisects in one `cargo test` run.

use kit::{Compiler, DispatchMode, Mode};
use kit_runtime::RtConfig;

const ENGINES: [DispatchMode; 3] = [
    DispatchMode::Match,
    DispatchMode::Threaded,
    DispatchMode::RegisterFused,
];

/// Runs `src` in rgt on every engine, with and without page poisoning,
/// and checks the answer.
fn rgt_everywhere(src: &str, want: &str) {
    for dispatch in ENGINES {
        for poison in [false, true] {
            let out = Compiler::new(Mode::Rgt)
                .with_dispatch(dispatch)
                .with_config(RtConfig {
                    poison,
                    ..RtConfig::rgt()
                })
                .run_source(src)
                .unwrap_or_else(|e| panic!("{dispatch:?} poison={poison}: {e}"));
            assert_eq!(out.result, want, "{dispatch:?} poison={poison}");
            assert!(
                out.stats.gc_count > 0,
                "{dispatch:?} poison={poison}: reproducer must collect"
            );
        }
    }
}

/// `letregion` placement collected a marker's bindable region variables
/// (and the leftover global regions) by iterating a `HashMap`, so the
/// order regions were pushed at runtime depended on the per-map hash
/// seed — a fresh compile of the *same source* could produce a
/// different region-stack layout. Every logical counter still agreed
/// (the bindings are order-insensitive), so only a collector sensitive
/// to region ids could observe it. Fixed by sorting both candidate
/// lists; this pins the whole layout chain down: fresh compiles must
/// produce the same program, and runs of it the same collections.
#[test]
fn region_layout_is_stable_across_compiles() {
    let bench = kit_bench::by_name("professor").expect("professor benchmark exists");
    let src = bench.source_scaled(bench.test_scale);
    let compiler = Compiler::new(Mode::Rgt);
    let compile = || compiler.compile_source(&src).unwrap();
    let prog = compile();
    let first = compiler.run_program(&prog).unwrap();
    assert!(
        first.stats.gc_count >= 2,
        "reproducer must actually collect"
    );
    for i in 1..3 {
        let again = compile();
        assert!(
            again == prog,
            "compile {i} must reproduce the program of compile 0 exactly"
        );
        let next = compiler.run_program(&again).unwrap();
        assert_eq!(
            (
                &next.result,
                next.instructions,
                next.stats.gc_count,
                next.stats.gc_copied_words,
                next.stats.heap_grows,
                next.stats.peak_bytes,
                format!("{:?}", next.stats.gc_records),
            ),
            (
                &first.result,
                first.instructions,
                first.stats.gc_count,
                first.stats.gc_copied_words,
                first.stats.heap_grows,
                first.stats.peak_bytes,
                format!("{:?}", first.stats.gc_records),
            ),
            "compile {i} must reproduce the collections of compile 0 exactly"
        );
    }
}

/// A `raise` unwinds the region stack to the handler's depth, but the
/// handler's own frame keeps running — and its local slots bound inside
/// the protected body still held pointers into the regions the unwind
/// had just popped. On the normal path each such binding is cleared when
/// its scope ends (`clear_dead_slot` in `kit-kam`); the exception path
/// skipped those clears. The GC scans every local of every live frame,
/// so the next collection traced freed pages: with `poison` the debug
/// root check stopped on a poisoned page, release builds indexed the
/// arena with `u64::MAX` or copied page slack. The VM now clears the
/// body's slots when a handler catches (`PushHandler` carries their
/// range). Here `l` is bound inside a letregion of `f`'s handled body.
#[test]
fn caught_raise_clears_the_bindings_of_the_unwound_body() {
    let src = "exception E\n\
               fun build 0 = nil | build n = (n, n) :: build (n - 1)\n\
               fun sum [] = 0 | sum ((x, _) :: t) = x + sum t\n\
               fun f n =\n\
               let val a = (let val l = build n in if sum l > 0 then raise E else 0 end) handle E => 1\n\
               in a + sum (build 50) end\n\
               fun go 0 acc = acc | go k acc = go (k - 1) (acc + f 10)\n\
               val it = go 20 0";
    rgt_everywhere(src, "25520");
}

/// The full-surface generator's draw that found the bug above:
/// `randgen::program(Surface::Full)` from `SplitMix64::new(1)`, the 729th
/// distinct draw, checked in verbatim so it no longer depends on the
/// generator. `step` binds a list drawn from `fbp0` inside a letregion,
/// then raises `Boom` for `n < 11`; `go`'s handler catches it and the
/// frame goes on to call deeper while a collection runs.
#[test]
fn full_surface_seed_1_draw_729_survives_collection() {
    assert_eq!(SEED_1_DRAW_729.len(), 4530, "source must stay verbatim");
    rgt_everywhere(SEED_1_DRAW_729, "3769");
}

const SEED_1_DRAW_729: &str = r#"exception Boom of int
exception Crash of string
datatype tree = Leaf | Node of tree * int * tree
datatype shape = Nul | Pt of int * int | Ln of shape * int | Qd of shape * shape * shape
val biga = array (146, 7)
val cells = array (12, ref 0)
val lbox = ref [0]
fun fbp0 (k, s) = if k < 1 then nil else ((((foldl (fn (v1, v2) => ((v2) handle Div => 3 | Subscript => 7 | Boom v3 => ((v3 + (49)) mod 9001))) 1 ([15]))), ((case Leaf of Leaf => k | Node (_, v4, _) => v4))) :: fbp0 (k - 1, s + 3))
fun fbt1 (dd, s) = if dd < 1 then Leaf else Node (fbt1 (dd - 1, s + 1), ((case Nul of Nul => (!((ref 15))) | Pt (v5, _) => (let val v6 = array (16, 16) in (aupdate (v6, (((let fun v7 v8 = 0 in v7 (dd) end)) mod 19), v5); asub (v6, ((((s mod (dd mod 5))) mod 16 + 16) mod 16)) + alength v6) end) | Ln (_, k) => k + 1 | Qd (_, _, _) => 4)), fbt1 (dd - 1, ((~3) mod 97)))
fun fbs2 (dd, s) =
  if dd < 1 then Pt (s, ((case Nul of Nul => 26 | Pt (v9, _) => s | Ln (_, k) => k + 1 | Qd (_, _, _) => 4)))
  else (case ((s) mod 3 + 3) mod 3 of
      0 => Ln (fbs2 (dd - 1, s + 1), (((dd) handle Overflow => 5 | Subscript => 7 | _ => (5))))
    | 1 => Qd (fbs2 (dd - 1, s + 1), fbs2 (dd - 1, s + 2), Nul)
    | _ => (if s < 9 then Nul else fbs2 (dd - 1, s div 2)))
fun fsc3 (a, b) = if a < 1 then (case "ab" of "ab" => ((10) handle Overflow => 5 | Subscript => 7 | _ => (a)) | "" => (50 + a) | _ => 1) else (((a) - fsc3 (a - 1, (foldl (fn (v12, v13) => 53) 1 ([33])))) mod 65521)
fun fls4 zs = case zs of nil => (fsc3 ((((let val v14 = ref 0 in (while !v14 < 1 do (((((ref 44)) := (51))); v14 := !v14 + 1); !v14) end)) mod 7), (hd (nil)))) | h :: t => (((((case [(30, 14)] of nil => 30 | (v15, v16) :: _ => v16) + (h * 17))) + fls4 t) mod 65521)
fun fbl5 (k, s) = if k < 1 then nil else (((fls4 ((!lbox)))) :: fbl5 (k - 1, ((17) mod 97)))
fun fsb6 (k, s) = if k < 1 then s else fsb6 (k - 1, (s ^ (("" ^ "ab"))))
fun fma7 k = if k < 1 then ((case Leaf of Leaf => ~2 | Node (_, v17, _) => k) + (case nil of nil => k | (v18, v19) :: _ => 34)) else ((((case nil of nil => (let val v20 = array (237, 1073741823) in (aupdate (v20, ((k) mod 240), 24); asub (v20, (((if true then 45 else k)) mod 240)) + alength v20) end) | (v21, v22) :: _ => 10)) + fmb7 (k - 1)) mod 65521)
and fmb7 k = if k < 1 then (strsub ((("xyzzy" ^ "ab")) ^ "z", (((((aupdate (cells, ((k) mod 15), ref (25)))); k)) mod 3))) else ((((!((asub (cells, (((fsc3 (((k) mod 7), k))) mod 15)))))) - fma7 (k - 1)) mod 65521)
fun ftr9 t = case t of Leaf => (if (let fun v23 v24 = 30 in v23 (8) end) < 28 then raise Crash (itos (((43) handle Div => 3 | Subscript => 7 | _ => (48)))) else ((43) handle Div => 3 | Subscript => 7 | _ => (48))) | Node (l, v, r) => ((((nth (((8) :: [42]), ((((((ref 29)) := (~3))); v)) mod 5))) + ftr9 l + ftr9 r) mod 65521)
fun step (n, acc) = (case (fbp0 (((((asub (biga, (((((floor ((3.0) * 0.5)) mod 8191)) mod 146 + 146) mod 146))) div (((floor ((3.0) * 0.5)) mod 8191) mod 3))) mod 10), ((let val v26 = ref 0 in (while !v26 < 6 do (((((ref 50)) := (22))); v26 := !v26 + 1); !v26) end) + (ftr9 (Leaf))))) of nil => (case (fbt1 ((((ftr9 (Leaf))) mod 4), (case [(23, 3)] of nil => acc | (v27, v28) :: _ => n))) of Leaf => (fsc3 ((((nth ([32], ((acc div (~2 mod 3))) mod 5))) mod 7), ((n) handle Overflow => 5 | Boom v29 => ((v29 + (6)) mod 9001)))) | Node (_, v30, _) => ((case [(36, 2)] of nil => ~7 | (v31, v32) :: _ => 41) mod ((ftr9 (Leaf)) mod 5))) | (v33, v34) :: _ => (case (fsb6 ((((if n < 11 then raise Boom (25) else 25)) mod 5), ("!" ^ "xyzzy"))) of "ab" => (fma7 ((((let val v35 = "xyzzy" in 54 end)) mod 8))) | "" => (case (drop ((nil), ((let fun v36 v37 = 3 in v36 (v33) end)) mod 4)) of nil => (acc + 7) | v38 :: v39 => ((v34 * v34)) + length v39) | _ => 1))
fun go n acc =
   if n < 1 then acc
   else go (n - 1) (((acc * 31 + step (n, acc)) handle Div => ~1 | Overflow => ~2 | Subscript => ~3 | Size => ~4 | Match => ~5 | Bind => ~6 | Boom k => ((k + acc) mod 65537) | Crash s => (size s + acc)) mod 100003)
val tail = ((((((let val v40 = Leaf in (let val v41 = ref 0 in (while !v41 < 2 do (((aupdate (biga, (((25) mod 146 + 146) mod 146), 33))); v41 := !v41 + 1); !v41) end) end)) handle Boom v42 => ((v42 + ((size ((fsb6 (((1073741823) mod 5), "!")))))) mod 9001))) handle Div => 3 | Overflow => 5 | Subscript => 7 | Size => 11 | Match => 13 | Bind => 17 | Boom k => (k mod 1009) | Crash s => size s)) mod 100003
val it = (go 12 384 + tail + asub (biga, 1) + !(asub (cells, 0)) + (case !lbox of nil => 0 | h :: _ => h mod 8191)) mod 100003
"#;
