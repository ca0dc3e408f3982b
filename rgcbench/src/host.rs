//! Host speed, measured with a fixed reference kernel.
//!
//! On the shared machines this benchmark runs on, the host alternates
//! between speeds about 45% apart, in phases lasting from seconds to
//! minutes; on-CPU time moves with wall time, so it is not preemption but
//! the host itself. The kernel below is a small bytecode interpreter (the
//! same kind of branchy dispatch loop as the code under test) that no
//! change to the repository touches. Its time tracks the slowdown of the
//! measured code to within a few percent, where raw times move by 45%, so
//! the benchmark reports times scaled to the host speed at which the
//! kernel takes [`NOMINAL_NS`].

use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host speed: about its time in
/// the fast phase of the 2-core Xeon VM the benchmark was set up on.
pub const NOMINAL_NS: f64 = 1_200_000.0;
/// Loop iterations of one kernel run (about 1 ms at nominal speed).
const ITERATIONS: i64 = 36_000;
/// Kernel runs per probe; the probe keeps their median.
const RUNS: usize = 3;

#[derive(Clone, Copy)]
enum Op {
    Push(i64),
    Load(usize),
    Store(usize),
    Add,
    Lt,
    JumpIfZero(usize),
    Jump(usize),
    Halt,
}

/// Iterative Fibonacci over `locals[0]` iterations, modulo 2^64.
const PROGRAM: [Op; 22] = {
    use Op::*;
    [
        Push(0),
        Store(1),
        Push(1),
        Store(2),
        Push(0),
        Store(3),
        // 6: while i < n
        Load(3),
        Load(0),
        Lt,
        JumpIfZero(21),
        // (a, b) := (b, a + b)
        Load(1),
        Load(2),
        Add,
        Load(2),
        Store(1),
        Store(2),
        // i := i + 1
        Load(3),
        Push(1),
        Add,
        Store(3),
        Jump(6),
        // 21:
        Halt,
    ]
};

fn kernel(n: i64) -> i64 {
    let mut stack: Vec<i64> = Vec::with_capacity(8);
    let mut locals = [n, 0, 0, 0];
    let mut pc = 0;
    let pop = |s: &mut Vec<i64>| s.pop().expect("the kernel's stack never underflows");
    loop {
        match PROGRAM[pc] {
            Op::Push(v) => stack.push(v),
            Op::Load(i) => stack.push(locals[i]),
            Op::Store(i) => locals[i] = pop(&mut stack),
            Op::Add => {
                let b = pop(&mut stack);
                let a = pop(&mut stack);
                stack.push(a.wrapping_add(b));
            }
            Op::Lt => {
                let b = pop(&mut stack);
                let a = pop(&mut stack);
                stack.push(i64::from(a < b));
            }
            Op::JumpIfZero(t) => {
                if pop(&mut stack) == 0 {
                    pc = t;
                    continue;
                }
            }
            Op::Jump(t) => {
                pc = t;
                continue;
            }
            Op::Halt => return locals[1],
        }
        pc += 1;
    }
}

/// Probes taken during a run: when, and how long the kernel took.
#[derive(Debug)]
pub struct HostClock {
    epoch: Instant,
    probes: Vec<(f64, f64)>,
}

impl HostClock {
    pub fn new() -> HostClock {
        HostClock {
            epoch: Instant::now(),
            probes: Vec::new(),
        }
    }

    /// Runs the kernel and records its median time now.
    pub fn probe(&mut self) {
        let mut times = [0.0; RUNS];
        for t in &mut times {
            let t0 = Instant::now();
            black_box(kernel(black_box(ITERATIONS)));
            *t = t0.elapsed().as_nanos() as f64;
        }
        times.sort_by(f64::total_cmp);
        let at = self.secs(Instant::now());
        self.probes.push((at, times[RUNS / 2]));
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Host slowness at `t`: the kernel's time there over [`NOMINAL_NS`],
    /// interpolated between the probes around it.
    pub fn factor_at(&self, t: Instant) -> f64 {
        let at = self.secs(t);
        let p = &self.probes;
        assert!(!p.is_empty(), "probe the host before scaling by it");
        let i = p.partition_point(|&(when, _)| when <= at);
        let ns = if i == 0 {
            p[0].1
        } else if i == p.len() {
            p[i - 1].1
        } else {
            let ((t0, a), (t1, b)) = (p[i - 1], p[i]);
            a + (b - a) * (at - t0) / (t1 - t0).max(1e-9)
        };
        ns / NOMINAL_NS
    }

    /// Mean host slowness over `[from, to]`, from the probes in it and
    /// the interpolated ends.
    pub fn factor_over(&self, from: Instant, to: Instant) -> f64 {
        let (a, b) = (self.secs(from), self.secs(to));
        let mut xs = vec![self.factor_at(from), self.factor_at(to)];
        xs.extend(
            self.probes
                .iter()
                .filter(|&&(when, _)| when > a && when < b)
                .map(|&(_, ns)| ns / NOMINAL_NS),
        );
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// The median kernel time of the run, ms.
    pub fn probe_ms(&self) -> f64 {
        let ns: Vec<f64> = self.probes.iter().map(|&(_, ns)| ns / 1e6).collect();
        crate::stats::median(&ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_computes_fibonacci_and_factors_interpolate() {
        assert_eq!(kernel(10), 55);
        let mut h = HostClock::new();
        h.probes = vec![(1.0, NOMINAL_NS), (3.0, 3.0 * NOMINAL_NS)];
        let at = |s: f64| h.epoch + std::time::Duration::from_secs_f64(s);
        assert!((h.factor_at(at(2.0)) - 2.0).abs() < 1e-9);
        assert_eq!(h.factor_at(at(0.5)), 1.0);
        assert_eq!(h.factor_at(at(9.0)), 3.0);
        assert!((h.factor_over(at(1.0), at(3.0)) - 2.0).abs() < 1e-9);
        h.probe();
        assert!(h.probe_ms() > 0.0);
    }
}
