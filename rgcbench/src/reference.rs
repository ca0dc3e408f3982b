//! Pinned reference outputs of the registered programs.
//!
//! Expected results come from the reference evaluator
//! (`kit::oracle::run_oracle`), never from the compiler under test. The
//! evaluator needs about 40 s for the default-scale suite, so its answers
//! are pinned in `reference.tsv` and embedded at build time. Regenerate
//! the file with
//!
//! ```text
//! cargo run --release --manifest-path rgcbench/Cargo.toml -- pin-reference
//! ```

use kit_bench::programs::{self, Benchmark};
use kit_bench::serve_bench::DEFAULT_MIX;
use std::collections::BTreeMap;
use std::fmt::Write as _;

const PINNED: &str = include_str!("../reference.tsv");

/// The expected answer for one program at one scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub result: String,
    pub output: String,
}

/// FNV-1a over the source, so a pinned answer is never used for a
/// program whose text has changed since it was pinned.
pub fn source_hash(src: &str) -> u64 {
    src.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every `(program, scale)` the benchmark runs from the registered set:
/// the suite at default scale and the entries of the serve mix.
pub fn pinned_programs() -> Vec<(Benchmark, i64)> {
    let mut out: Vec<(Benchmark, i64)> = programs::all()
        .into_iter()
        .map(|b| (b, b.default_scale))
        .collect();
    for (name, scale) in mix_entries() {
        let b = programs::by_name(&name).expect("mix names a registered program");
        if !out.iter().any(|(p, s)| p.name == b.name && *s == scale) {
            out.push((b, scale));
        }
    }
    out
}

/// `(name, scale)` of each `name:scale` entry of the default serve mix.
pub fn mix_entries() -> Vec<(String, i64)> {
    DEFAULT_MIX
        .split(',')
        .map(|e| {
            let (name, scale) = e.split_once(':').expect("mix entries carry a scale");
            (
                name.to_string(),
                scale.parse().expect("mix scales are integers"),
            )
        })
        .collect()
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Pinned answers keyed by `(name, scale)`, each with the source hash it
/// was pinned for.
type Pinned = BTreeMap<(String, i64), (u64, Expected)>;

fn parse(text: &str) -> Result<Pinned, String> {
    let mut out = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let [name, scale, hash, result, output] = f[..] else {
            return Err(format!("reference.tsv:{}: expected 5 fields", n + 1));
        };
        let bad = |what: &str| format!("reference.tsv:{}: bad {what}", n + 1);
        out.insert(
            (name.to_string(), scale.parse().map_err(|_| bad("scale"))?),
            (
                u64::from_str_radix(hash, 16).map_err(|_| bad("hash"))?,
                Expected {
                    result: unescape(result),
                    output: unescape(output),
                },
            ),
        );
    }
    Ok(out)
}

/// The pinned answer for `bench` at `scale`.
///
/// # Errors
///
/// When the answer is missing, or was pinned for other source text.
pub fn expected(bench: &Benchmark, scale: i64) -> Result<Expected, String> {
    let table = parse(PINNED)?;
    let (hash, exp) = table
        .get(&(bench.name.to_string(), scale))
        .ok_or_else(|| format!("no pinned reference for {}:{scale}", bench.name))?;
    if *hash != source_hash(&bench.source_scaled(scale)) {
        return Err(format!(
            "pinned reference for {}:{scale} is stale (source changed); run pin-reference",
            bench.name
        ));
    }
    Ok(exp.clone())
}

/// Runs the reference evaluator on every pinned program and renders the
/// file's new contents.
///
/// # Errors
///
/// When the evaluator fails on a program.
pub fn pin() -> Result<String, String> {
    let mut out = String::from(
        "# Reference answers from kit::oracle::run_oracle (not the compiler under test).\n\
         # Regenerate: cargo run --release --manifest-path rgcbench/Cargo.toml -- pin-reference\n\
         # name\tscale\tfnv1a(source)\tresult\toutput\n",
    );
    for (bench, scale) in pinned_programs() {
        let src = bench.source_scaled(scale);
        let t0 = std::time::Instant::now();
        let got = kit::oracle::run_oracle(&src, None)
            .map_err(|e| format!("oracle failed on {}:{scale}: {e}", bench.name))?;
        eprintln!("pinned {}:{scale} in {:.1?}", bench.name, t0.elapsed());
        let _ = writeln!(
            out,
            "{}\t{scale}\t{:016x}\t{}\t{}",
            bench.name,
            source_hash(&src),
            escape(&got.result),
            escape(&got.output)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_and_every_program_is_pinned() {
        let s = "a\tb\\n\nc\\";
        assert_eq!(unescape(&escape(s)), s);
        for (bench, scale) in pinned_programs() {
            expected(&bench, scale).unwrap();
        }
    }
}
