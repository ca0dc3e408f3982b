//! The `serve_warm` and `serve_cold` workloads: an in-process `kit-serve`
//! with one worker, driven over one connection by at most two client
//! threads.
//!
//! * `serve_warm` serves the default mix with the compile cache warmed at
//!   set-up, so no request compiles: fixed per-request costs and short
//!   runs dominate.
//! * `serve_cold` serves a distinct generated program per request, so
//!   every request misses the cache and compiles.
//!
//! Each run has an open-loop phase with Poisson arrivals at a fixed
//! offered rate (independent users; latency is timed from each request's
//! due time, so a stall delays every request behind it) and a closed-loop
//! phase with a fixed in-flight window (callers that wait for their
//! reply) for capacity. A direct in-process replay of the served programs
//! through `prepare_source`/`run_prepared` gives the compile and run
//! times and the counters each response must match.

use crate::host::HostClock;
use crate::measure::{self, Counters, FixedCosts, Metrics, ProgramSamples, Tally, Timed};
use crate::reference::{self, Expected};
use crate::stats::{mean, median, quantile};
use crate::suite::shuffled;
use crate::trace::Tracer;
use crate::{Opts, Outcome};
use kit::{Compiler, DispatchMode, Mode};
use kit_bench::programs::{self, SplitMix64};
use kit_bench::randgen::{self, Surface};
use kit_serve::wire::{self, Request, Response, Status};
use kit_serve::{Server, ServerConfig, ServerHandle};
use std::collections::HashSet;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median. On `serve_cold`
/// each set-up also checks one equal share of the generated programs
/// against the reference evaluator.
const SETUPS: usize = 3;
/// Requests in flight in the closed-loop phase. The server writes each
/// response as two segments without `TCP_NODELAY`, so a shallow window
/// measures the client's delayed-ACK timer rather than the server: at 4
/// in flight `serve_warm` reads about 90 req/s, at 128 about 1.7k.
const WINDOW: usize = 128;
/// Slices the phases of a run take turns in.
const SLICES: usize = 3;
/// Share of the run given to the open-loop phase; the closed-loop phase
/// has the rest.
const OPEN_SHARE: f64 = 0.75;
/// Requests drawn for the closed-loop phase, per second of it, as a
/// multiple of the open-loop rate: above the capacity measured here
/// (about 3.7× the warm rate, 1.9× the cold one). The phase ends early if
/// a faster server uses them all up. Cold programs each cost a reference
/// evaluation at set-up, so their margin is smaller.
fn closed_draw(kind: Kind) -> f64 {
    match kind {
        Kind::Warm => 8.0,
        Kind::Cold => 3.0,
    }
}
/// Served `serve_cold` programs replayed directly in an untraced run
/// (a traced run replays all of them).
const COLD_REPLAY: usize = 200;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Warm,
    Cold,
}

struct Prog {
    src: String,
    /// The reference answer; `None` when the reference front end rejects
    /// the program, so the right answer is a `CompileError`.
    want: Option<Expected>,
    samples: ProgramSamples,
}

/// The request streams: indices into the program list.
struct Plan {
    progs: Vec<Prog>,
    open: Vec<usize>,
    closed: Vec<usize>,
    /// The untraced open-loop stream of a traced run.
    open_untraced: Vec<usize>,
}

fn request(id: u64, src: &str) -> Request {
    Request {
        req_id: id,
        mode: Mode::Rgt,
        dispatch: DispatchMode::default(),
        fuel: None,
        max_heap_pages: None,
        deadline_ms: None,
        tenant: String::new(),
        src: src.to_string(),
    }
}

/// Length prefix and payload in one buffer, sent with one write so the
/// client adds no Nagle delay of its own.
fn frame(req: &Request) -> Vec<u8> {
    let payload = wire::encode_request(req);
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&payload);
    buf
}

fn start_server() -> Result<(ServerHandle, TcpStream), String> {
    let config = ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let conn = TcpStream::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    conn.set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Ok((handle, conn))
}

/// The default mix, each entry with its pinned answer.
fn mix_programs() -> Result<Vec<Prog>, String> {
    reference::mix_entries()
        .into_iter()
        .map(|(name, scale)| {
            let bench = programs::by_name(&name).ok_or(format!("unknown program {name}"))?;
            Ok(Prog {
                src: bench.source_scaled(scale),
                want: Some(reference::expected(&bench, scale)?),
                samples: ProgramSamples::new(&format!("{name}:{scale}")),
            })
        })
        .collect()
}

/// `n` distinct full-surface programs drawn from `rng`.
fn generate(n: usize, rng: &mut SplitMix64) -> Vec<String> {
    let mut seen = HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let src = randgen::program(rng, Surface::Full);
        if seen.insert(src.clone()) {
            out.push(src);
        }
    }
    out
}

/// Checks generated programs with the reference evaluator. The
/// generator occasionally draws a program the front end rejects (about
/// one in 2000); the server must then answer `CompileError`.
fn oracle(srcs: Vec<String>, first: usize) -> Result<Vec<Prog>, String> {
    srcs.into_iter()
        .enumerate()
        .map(|(i, src)| {
            let want = match kit::oracle::run_oracle(&src, None) {
                Ok(got) => Some(Expected {
                    result: got.result,
                    output: got.output,
                }),
                Err(kit::Error::Compile(_)) => None,
                Err(e) => {
                    return Err(format!(
                        "reference evaluator failed on program {}: {e}",
                        first + i
                    ))
                }
            };
            Ok(Prog {
                src,
                want,
                samples: ProgramSamples::new(&format!("gen{}", first + i)),
            })
        })
        .collect()
}

/// Sends each program once and checks the answers: on `serve_warm` this
/// fills the compile cache before anything is timed.
fn warm_cache(conn: &TcpStream, progs: &mut [Prog], tally: &mut Tally) -> Result<(), String> {
    for (i, p) in progs.iter_mut().enumerate() {
        let resp = call(conn, &request(u64::MAX - i as u64, &p.src))?;
        check(p, &resp, tally);
    }
    Ok(())
}

fn call(mut conn: &TcpStream, req: &Request) -> Result<Response, String> {
    conn.write_all(&frame(req))
        .map_err(|e| format!("write: {e}"))?;
    let payload = wire::read_frame(&mut conn).map_err(|e| format!("read: {e}"))?;
    wire::decode_response(&payload).map_err(|e| format!("decode: {e}"))
}

/// Checks one response against the program's answer and counters.
fn check(p: &mut Prog, resp: &Response, tally: &mut Tally) -> bool {
    let name = &p.samples.name;
    let Some(want) = &p.want else {
        if resp.status == Status::CompileError {
            tally.ok();
            return true;
        }
        tally.fail(format!(
            "{name}: {:?} where the reference rejects the program",
            resp.status
        ));
        return false;
    };
    if resp.status != Status::Ok {
        tally.fail(format!("{name}: {:?}: {}", resp.status, resp.result));
        return false;
    }
    if resp.result != want.result || resp.output != want.output {
        tally.fail(format!(
            "{name}: served {:?} {:?}, reference {:?} {:?}",
            resp.result, resp.output, want.result, want.output
        ));
        return false;
    }
    tally.ok();
    let got = Counters {
        instructions: resp.instructions,
        gc_count: resp.gc_count,
        gc_copied_words: resp.gc_copied_words,
        peak_bytes: resp.peak_bytes,
    };
    p.samples.guard(got, "served", tally);
    true
}

/// Poisson arrival times, in seconds from the start: independent users
/// at `rate` requests per second on average. Evenly spaced arrivals
/// would lock into step with the server's delayed writes (each response's
/// second segment waits for the acknowledgement the next request
/// carries), so latency would jump in whole inter-arrival steps.
fn arrivals(n: usize, rate: f64, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0xA771_7A15);
    let mut at = 0.0;
    (0..n)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            at += -(1.0 - u).ln() / rate;
            at
        })
        .collect()
}

/// What one open-loop phase observed.
struct OpenPhase {
    due: Vec<Instant>,
    late_ms: Vec<f64>,
    done: Vec<Option<Instant>>,
    responses: Vec<Option<Response>>,
    tracer: Tracer,
}

/// Sends `items` at `rate` requests per second from a sender thread
/// while this thread reads the responses. Ids run from `first_id`.
fn open_loop(
    conn: &TcpStream,
    progs: &[Prog],
    items: &[usize],
    rate: f64,
    seed: u64,
    first_id: u64,
    tracer: Tracer,
) -> Result<OpenPhase, String> {
    let n = items.len();
    let send_tracer = Tracer::new(tracer.epoch(), tracer.enabled());
    let mut recv_tracer = tracer;
    let mut writer = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = conn.try_clone().map_err(|e| format!("clone: {e}"))?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = arrivals(n, rate, seed)
        .into_iter()
        .map(|at| t0 + Duration::from_secs_f64(at))
        .collect();
    let mut done = vec![None; n];
    let mut responses = vec![None; n];
    let (late_ms, send_tracer) = std::thread::scope(|s| {
        let due = &due;
        let sender = s.spawn(move || -> Result<(Vec<f64>, Tracer), String> {
            let mut tracer = send_tracer;
            let mut late = Vec::with_capacity(n);
            for (i, &p) in items.iter().enumerate() {
                let now = Instant::now();
                if due[i] > now {
                    std::thread::sleep(due[i] - now);
                }
                late.push(due[i].elapsed().as_secs_f64() * 1e3);
                let id = first_id + i as u64;
                let buf = tracer.record("encode", None, id, || frame(&request(id, &progs[p].src)));
                tracer
                    .record("write", None, id, || writer.write_all(&buf))
                    .map_err(|e| format!("write: {e}"))?;
            }
            Ok((late, tracer))
        });
        let received = (|| -> Result<(), String> {
            let mut byte = [0u8; 1];
            for _ in 0..n {
                if recv_tracer.enabled() {
                    // Wait for the first byte outside the span, so `read`
                    // times the transfer and not the server.
                    reader.peek(&mut byte).map_err(|e| format!("peek: {e}"))?;
                }
                let span = recv_tracer.open("read", None, 0);
                let payload = wire::read_frame(&mut reader).map_err(|e| format!("read: {e}"))?;
                recv_tracer.close(span);
                let dspan = recv_tracer.open("decode", None, 0);
                let resp = wire::decode_response(&payload).map_err(|e| format!("decode: {e}"))?;
                recv_tracer.close(dspan);
                let at = Instant::now();
                let idx = resp
                    .req_id
                    .checked_sub(first_id)
                    .map(|i| i as usize)
                    .filter(|&i| i < n && done[i].is_none())
                    .ok_or(format!("unexpected response id {}", resp.req_id))?;
                // The spans were opened before the id was known.
                for id in [span, dspan].into_iter().flatten() {
                    recv_tracer.set_req(id, resp.req_id);
                }
                done[idx] = Some(at);
                responses[idx] = Some(resp);
            }
            Ok(())
        })();
        let sent = sender.join().expect("sender thread panicked");
        received?;
        sent
    })?;
    let mut tracer = recv_tracer;
    tracer.absorb(send_tracer);
    for i in 0..n {
        if let Some(at) = done[i] {
            tracer.push("request", due[i], at, first_id + i as u64);
        }
    }
    tracer.link_to_roots("request");
    Ok(OpenPhase {
        due,
        late_ms,
        done,
        responses,
        tracer,
    })
}

/// What the open-loop slices observed, pooled.
#[derive(Default)]
struct OpenTotals {
    /// Program of each request, in the order they were due.
    items: Vec<usize>,
    latencies: Vec<f64>,
    late_ms: Vec<f64>,
    gc_ms: Vec<f64>,
    depths: Vec<f64>,
}

impl OpenTotals {
    fn absorb(
        &mut self,
        phase: OpenPhase,
        latencies: Vec<f64>,
        items: Vec<usize>,
        tracer: &mut Tracer,
    ) {
        self.items.extend(items);
        self.latencies.extend(latencies);
        self.late_ms.extend(phase.late_ms);
        for r in phase.responses.iter().flatten() {
            self.gc_ms.push(r.gc_time_ns as f64 / 1e6);
            self.depths.push(f64::from(r.queue_depth));
        }
        tracer.absorb(phase.tracer);
    }
}

/// Requests per chunk of open-loop latencies: enough that a chunk's p99
/// has ten samples beyond it.
const CHUNK: usize = 1000;

/// The median over chunks of `CHUNK` consecutive requests of each
/// chunk's `q`-quantile (a last chunk under half size joins none). One
/// burst of stalls on the shared host then moves one chunk, not the
/// run's figure.
fn chunked_quantile(latencies: &[f64], q: f64) -> f64 {
    let chunks: Vec<f64> = latencies
        .chunks(CHUNK)
        .filter(|c| c.len() >= CHUNK / 2 || c.len() == latencies.len())
        .map(|c| quantile(c, q))
        .collect();
    median(&chunks)
}

/// The `k`-th of `SLICES` contiguous parts of `v`.
fn slice(v: &[usize], k: usize) -> &[usize] {
    &v[k * v.len() / SLICES..(k + 1) * v.len() / SLICES]
}

/// Compiles and runs each program directly, as the server would.
fn replay_programs(
    c: &Compiler,
    progs: &mut [Prog],
    which: &[usize],
    (compiles, runs): (usize, usize),
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    for &i in which {
        let p = &mut progs[i];
        let req = 1_000_000 + i as u64;
        let mut prep = None;
        for _ in 0..compiles {
            prep = Some(if tracer.enabled() {
                p.samples.compile_phased(c, &p.src, tracer, req)?
            } else {
                p.samples.compile(c, &p.src).map_err(|e| e.to_string())?
            });
        }
        let prep = prep.expect("at least one compile");
        let want = p.want.as_ref().expect("replayed programs have an answer");
        for _ in 0..runs {
            let _ = p.samples.run(c, &prep, want, tally, tracer, req);
        }
    }
    Ok(())
}

/// Checks an open-loop phase's responses and returns each request's
/// latency from its due time. A failed or refused request counts as a
/// miss: its latency is the whole phase.
fn open_latencies(
    phase: &mut OpenPhase,
    progs: &mut [Prog],
    items: &[usize],
    tally: &mut Tally,
) -> Vec<f64> {
    let end = phase
        .done
        .iter()
        .flatten()
        .max()
        .copied()
        .unwrap_or_else(Instant::now);
    (0..items.len())
        .map(|i| {
            let good = match &phase.responses[i] {
                Some(resp) => check(&mut progs[items[i]], resp, tally),
                None => {
                    tally.fail(format!("request {i}: no response"));
                    false
                }
            };
            let at = if good {
                phase.done[i].unwrap_or(end)
            } else {
                end
            };
            at.saturating_duration_since(phase.due[i]).as_secs_f64() * 1e3
        })
        .collect()
}

/// Sends `items` keeping `WINDOW` in flight until `budget` has passed or
/// the items run out; returns the requests answered and the seconds it
/// took.
fn closed_loop(
    conn: &TcpStream,
    progs: &mut [Prog],
    items: &[usize],
    first_id: u64,
    budget: Duration,
    tally: &mut Tally,
) -> Result<(usize, f64), String> {
    let mut w = conn;
    let mut r = conn;
    let t0 = Instant::now();
    let mut next = 0;
    let mut send = |next: &mut usize| -> Result<(), String> {
        let id = first_id + *next as u64;
        w.write_all(&frame(&request(id, &progs[items[*next]].src)))
            .map_err(|e| format!("write: {e}"))?;
        *next += 1;
        Ok(())
    };
    while next < items.len().min(WINDOW) {
        send(&mut next)?;
    }
    let mut responses = Vec::with_capacity(items.len());
    while responses.len() < next {
        let payload = wire::read_frame(&mut r).map_err(|e| format!("read: {e}"))?;
        responses.push(wire::decode_response(&payload).map_err(|e| format!("decode: {e}"))?);
        if next < items.len() && t0.elapsed() < budget {
            send(&mut next)?;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    for resp in &responses {
        let i = resp
            .req_id
            .checked_sub(first_id)
            .map(|i| i as usize)
            .filter(|&i| i < items.len())
            .ok_or(format!("unexpected response id {}", resp.req_id))?;
        check(&mut progs[items[i]], resp, tally);
    }
    Ok((responses.len(), secs))
}

/// One set-up: a fresh server and connection, plus this set-up's share
/// of the program preparation.
fn setup(
    kind: Kind,
    plan: &mut Plan,
    share: Vec<String>,
    tally: &mut Tally,
) -> Result<(ServerHandle, TcpStream), String> {
    let (server, conn) = start_server()?;
    match kind {
        Kind::Warm => {
            plan.progs = mix_programs()?;
            warm_cache(&conn, &mut plan.progs, tally)?;
        }
        Kind::Cold => {
            let first = plan.progs.len();
            plan.progs.extend(oracle(share, first)?);
        }
    }
    Ok((server, conn))
}

pub fn run(opts: &Opts, kind: Kind) -> Result<Outcome, String> {
    let rate = match kind {
        Kind::Warm => opts.warm_rate,
        Kind::Cold => opts.cold_rate,
    };
    let (open_s, closed_s) = if opts.trace {
        (opts.seconds * OPEN_SHARE / 2.0, 0.0)
    } else {
        (opts.seconds * OPEN_SHARE, opts.seconds * (1.0 - OPEN_SHARE))
    };
    let n_open = (rate * open_s).ceil() as usize;
    let n_closed = (closed_draw(kind) * rate * closed_s).ceil() as usize;
    let n_second = if opts.trace { n_open } else { 0 };

    let mut rng = SplitMix64::new(opts.seed);
    let mut tally = Tally::default();
    let total = n_open + n_closed + n_second;
    let mut plan = Plan {
        progs: Vec::new(),
        open: Vec::new(),
        closed: Vec::new(),
        open_untraced: Vec::new(),
    };
    let mut shares = vec![Vec::new(); SETUPS];
    if kind == Kind::Cold {
        let srcs = generate(total, &mut rng);
        for (i, src) in srcs.into_iter().enumerate() {
            shares[i * SETUPS / total].push(src);
        }
    }
    let mut host = HostClock::new();
    host.probe();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for share in shares {
        let start = Instant::now();
        let (server, conn) = setup(kind, &mut plan, share, &mut tally)?;
        let ns = start.elapsed().as_nanos() as u64;
        setups.push(Timed { start, ns });
        host.probe();
        if let Some((old, _)) = live.replace((server, conn)) {
            ServerHandle::shutdown(old);
        }
    }
    let (server, conn) = live.expect("at least one set-up");
    match kind {
        Kind::Warm => {
            let n = plan.progs.len() as u64;
            let mut draw = |k: usize| (0..k).map(|_| rng.below(n) as usize).collect::<Vec<_>>();
            plan.open = draw(n_open);
            plan.closed = draw(n_closed);
            plan.open_untraced = draw(n_second);
        }
        Kind::Cold => {
            // Every request is a program of its own, in a seed-shuffled
            // order.
            let order = shuffled(total, &mut rng);
            plan.open = order[..n_open].to_vec();
            plan.closed = order[n_open..n_open + n_closed].to_vec();
            plan.open_untraced = order[n_open + n_closed..].to_vec();
        }
    }

    let c = Compiler::new(Mode::Rgt);
    // Programs the reference rejects have nothing to replay.
    let replay: Vec<usize> = match kind {
        Kind::Warm => (0..plan.progs.len()).collect(),
        Kind::Cold if opts.trace => plan.open.clone(),
        Kind::Cold => plan.open.iter().copied().take(COLD_REPLAY).collect(),
    }
    .into_iter()
    .filter(|&i| plan.progs[i].want.is_some())
    .collect();
    let (compiles, runs) = match kind {
        Kind::Warm => (4, 100),
        Kind::Cold => (1, 1),
    };

    // The phases take turns in `SLICES` slices, so each samples the
    // host at several points of the run rather than one stretch of it.
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, opts.trace);
    let mut open = OpenTotals::default();
    let mut untraced = Vec::new();
    let (mut answered, mut closed_scaled) = (0, 0.0);
    let mut next_id = 1;
    for k in 0..SLICES {
        let share = match kind {
            Kind::Warm => &replay[..],
            Kind::Cold => slice(&replay, k),
        };
        replay_programs(
            &c,
            &mut plan.progs,
            share,
            (compiles, runs),
            &mut tracer,
            &mut tally,
        )?;
        host.probe();
        // A traced run pairs each traced open loop with an untraced one
        // of the same length, in alternating order, to measure the
        // tracing overhead.
        let traced_first = (opts.seed + k as u64).is_multiple_of(2);
        let passes: &[bool] = match (opts.trace, traced_first) {
            (false, _) => &[false],
            (true, true) => &[true, false],
            (true, false) => &[false, true],
        };
        for (pass, &traced) in passes.iter().enumerate() {
            let items = if opts.trace && !traced {
                slice(&plan.open_untraced, k).to_vec()
            } else {
                slice(&plan.open, k).to_vec()
            };
            let arrival_seed = opts.seed ^ ((2 * k + pass) as u64) << 32;
            let tr = Tracer::new(epoch, traced);
            let mut phase = open_loop(&conn, &plan.progs, &items, rate, arrival_seed, next_id, tr)?;
            next_id += items.len() as u64;
            let lat = open_latencies(&mut phase, &mut plan.progs, &items, &mut tally);
            if opts.trace && !traced {
                untraced.extend(lat);
            } else {
                open.absorb(phase, lat, items, &mut tracer);
            }
            host.probe();
        }
        if !opts.trace {
            let items = slice(&plan.closed, k).to_vec();
            let budget = Duration::from_secs_f64(closed_s / SLICES as f64);
            let start = Instant::now();
            let (n, secs) =
                closed_loop(&conn, &mut plan.progs, &items, next_id, budget, &mut tally)?;
            next_id += items.len() as u64;
            host.probe();
            answered += n;
            closed_scaled += secs / host.factor_over(start, Instant::now());
        }
    }
    let cache_entries = server.cache_size();
    let (shed, ..) = server.overload_stats();
    drop(conn);
    server.shutdown();
    eprintln!(
        "{kind:?}: {} open-loop requests at {rate}/s, {answered} closed-loop",
        open.items.len()
    );
    let mut fixed = FixedCosts::default();
    if opts.trace {
        fixed.sample(&c, 20, 200);
    }
    let replayed: Vec<ProgramSamples> = replay
        .iter()
        .map(|&i| std::mem::take(&mut plan.progs[i].samples))
        .collect();

    let mut m = Metrics::default();
    if opts.trace {
        measure::layer_metrics(&replayed, &fixed, &mut m);
        tally.guard.extend(measure::reconcile(&replayed));
        // Per request: compile (cold only: warm requests hit the cache)
        // and execution from the replay, overhead the rest.
        let by_prog: std::collections::HashMap<usize, &ProgramSamples> =
            replay.iter().copied().zip(replayed.iter()).collect();
        let (mut compile, mut exec, mut overhead) = (Vec::new(), Vec::new(), Vec::new());
        for (&i, &latency) in open.items.iter().zip(&open.latencies) {
            let Some(s) = by_prog.get(&i) else { continue };
            let cms = match kind {
                Kind::Warm => 0.0,
                Kind::Cold => s.phased[0].total_ns as f64 / 1e6,
            };
            let ems = s.run_median_ms();
            compile.push(cms);
            exec.push(ems);
            overhead.push(latency - cms - ems);
        }
        let served: f64 = open.latencies.iter().sum();
        let parts: f64 = compile.iter().sum::<f64>() + exec.iter().sum::<f64>();
        if parts > SERVE_PARTS_TOLERANCE * served {
            tally.guard.push(format!(
                "replayed compile + exec ({parts:.1} ms) exceeds served latency ({served:.1} ms) by more than {:.0}%",
                (SERVE_PARTS_TOLERANCE - 1.0) * 100.0
            ));
        }
        m.push("serve.compile_ms", median(&compile), "ms");
        m.push("serve.exec_ms", median(&exec), "ms");
        m.push("serve.overhead_p50_ms", quantile(&overhead, 0.5), "ms");
        m.push("serve.overhead_p99_ms", quantile(&overhead, 0.99), "ms");
        let selfs = tracer.self_times_by_name();
        let us = |name: &str| {
            selfs.get(name).map_or(0.0, |v| {
                median(&v.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
            })
        };
        m.push("serve.encode_us", us("encode"), "us");
        m.push("serve.write_us", us("write"), "us");
        m.push("serve.read_us", us("read"), "us");
        m.push("serve.decode_us", us("decode"), "us");
        m.push("serve.gc_ms", mean(&open.gc_ms), "ms");
        m.push(
            "serve.queue_depth_p99",
            quantile(&open.depths, 0.99),
            "count",
        );
        m.push("serve.gen_late_p99_ms", quantile(&open.late_ms, 0.99), "ms");
        m.push("serve.cache_entries", cache_entries as f64, "count");
        m.push("serve.shed", shed as f64, "count");
        let traced_p50 = quantile(&open.latencies, 0.5);
        let untraced_p50 = quantile(&untraced, 0.5);
        m.push(
            "bench.trace_overhead",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        );
        m.push("host.probe_ms", host.probe_ms(), "ms");
    } else {
        // Set-up here is mostly waiting on threads and sockets, not CPU
        // work, so it is reported as measured, unscaled.
        let setup_s: Vec<f64> = setups.iter().map(|t| t.ns as f64 / 1e9).collect();
        m.push("setup_s", median(&setup_s), "s");
        measure::program_metrics(&replayed, &host, &mut m);
        let (p50, p99) = (
            chunked_quantile(&open.latencies, 0.5),
            chunked_quantile(&open.latencies, 0.99),
        );
        m.push("req_p50_ms", p50, "ms");
        m.push("req_p99_ms", p99, "ms");
        m.push("req_per_s", answered as f64 / closed_scaled, "1/s");
        m.push("rss_peak_mb", measure::rss_peak_mb(), "MB");
    }
    Ok(Outcome {
        metrics: m,
        tally,
        tracer,
    })
}

/// Served latency may fall short of the replayed compile + exec by this
/// factor before the split is reported as broken: the replay runs the
/// same work on the same host, so only noise separates them.
const SERVE_PARTS_TOLERANCE: f64 = 1.10;

/// The serve per-layer metrics, as zeros, for the workload without a
/// server.
pub fn zero_serve_layers(m: &mut Metrics) {
    for (name, unit) in [
        ("serve.compile_ms", "ms"),
        ("serve.exec_ms", "ms"),
        ("serve.overhead_p50_ms", "ms"),
        ("serve.overhead_p99_ms", "ms"),
        ("serve.encode_us", "us"),
        ("serve.write_us", "us"),
        ("serve.read_us", "us"),
        ("serve.decode_us", "us"),
        ("serve.gc_ms", "ms"),
        ("serve.queue_depth_p99", "count"),
        ("serve.gen_late_p99_ms", "ms"),
        ("serve.cache_entries", "count"),
        ("serve.shed", "count"),
    ] {
        m.push(name, 0.0, unit);
    }
}
