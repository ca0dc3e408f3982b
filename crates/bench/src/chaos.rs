//! Chaos clients for the `kit-serve` overload tests (`loadgen --chaos`):
//! deliberately misbehaving peers thrown at a running server while a
//! healthy mix runs next to them. Each adversary exercises one arm of
//! the connection-hygiene layer:
//!
//! * **slowloris** — writes a valid frame one byte at a time, far slower
//!   than the server's frame budget; the server must reap the
//!   connection instead of pinning a reader forever;
//! * **mid-frame disconnect** — sends a frame prefix promising more
//!   bytes than it delivers, then drops the socket; the server must
//!   clean up silently (no panic, no leaked writer lock);
//! * **malformed frames** — valid length prefix, garbage payload; and
//!   an oversized length prefix; both must be answered/closed as
//!   `BadRequest`-class failures, never crashes;
//! * **stalled reader** — pipelines requests and never reads responses,
//!   then vanishes; write timeouts must free the workers;
//! * **connection churn** — rapid connect/disconnect cycles, some with
//!   zero bytes sent.
//!
//! None of these adversaries expects useful responses; the assertions
//! live in the caller (healthy traffic stays available, worker and
//! cache probes are unchanged afterwards).

use kit_serve::wire::{self, Request};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// What one chaos run inflicted.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosReport {
    /// Slowloris connections opened.
    pub slowloris: usize,
    /// Connections dropped mid-frame.
    pub mid_frame_disconnects: usize,
    /// Malformed/oversized frames sent.
    pub malformed: usize,
    /// Stalled-reader connections (requests sent, responses never read).
    pub stalled_readers: usize,
    /// Connect/disconnect churn cycles.
    pub churned: usize,
}

fn victim_request(req_id: u64) -> Request {
    Request {
        req_id,
        mode: kit::Mode::Rgt,
        dispatch: kit::DispatchMode::default(),
        fuel: Some(10_000_000),
        max_heap_pages: None,
        deadline_ms: Some(2_000),
        tenant: "chaos".to_string(),
        src: "val it = 1 + 2".to_string(),
    }
}

/// Runs the victim program once and waits for the answer, so it is in
/// the server's compile cache before a leak probe records its baseline
/// (the adversaries legitimately submit it during the chaos window).
pub fn prime(addr: SocketAddr) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    wire::write_request(&mut s, &victim_request(0))?;
    wire::read_response(&mut s)?;
    Ok(())
}

fn slowloris(addr: SocketAddr, until: Instant, report: &mut ChaosReport) {
    while Instant::now() < until {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return;
        };
        report.slowloris += 1;
        let frame = wire::frame_request(&victim_request(1));
        // One byte per tick: far below any sane frame budget. The write
        // starts failing once the server reaps us — that is the success
        // condition, not an error.
        for b in frame {
            if Instant::now() >= until || s.write_all(&[b]).is_err() || s.flush().is_err() {
                break;
            }
            thread::sleep(Duration::from_millis(50));
        }
    }
}

fn mid_frame_disconnect(addr: SocketAddr, until: Instant, report: &mut ChaosReport) {
    while Instant::now() < until {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return;
        };
        let frame = wire::frame_request(&victim_request(2));
        // Promise the full frame, deliver half, vanish.
        let _ = s.write_all(&frame[..frame.len() / 2]);
        let _ = s.flush();
        drop(s);
        report.mid_frame_disconnects += 1;
        thread::sleep(Duration::from_millis(5));
    }
}

fn malformed_frames(addr: SocketAddr, until: Instant, report: &mut ChaosReport) {
    let mut flavor = 0u8;
    while Instant::now() < until {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return;
        };
        match flavor % 3 {
            0 => {
                // Valid length, garbage payload (bad version byte).
                let junk = [0xFFu8; 32];
                let _ = s.write_all(&(junk.len() as u32).to_le_bytes());
                let _ = s.write_all(&junk);
            }
            1 => {
                // Oversized length prefix: must be refused, not allocated.
                let _ = s.write_all(&u32::MAX.to_le_bytes());
            }
            _ => {
                // Truncated payload: length says N, deliver N-1, then a
                // clean shutdown (EOF mid-frame).
                let frame = wire::frame_request(&victim_request(3));
                let _ = s.write_all(&frame[..frame.len() - 1]);
                let _ = s.shutdown(Shutdown::Write);
            }
        }
        let _ = s.flush();
        flavor = flavor.wrapping_add(1);
        report.malformed += 1;
        thread::sleep(Duration::from_millis(5));
    }
}

fn stalled_reader(addr: SocketAddr, until: Instant, report: &mut ChaosReport) {
    while Instant::now() < until {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return;
        };
        report.stalled_readers += 1;
        // Pipeline a pile of requests and never read a single response;
        // the server's write timeout (or our disappearance) must free
        // whatever worker ends up blocked on our dead receive window.
        for i in 0..64u64 {
            if wire::write_request(&mut s, &victim_request(1000 + i)).is_err() {
                break;
            }
        }
        let _ = s.flush();
        let wait =
            (until.saturating_duration_since(Instant::now())).min(Duration::from_millis(500));
        thread::sleep(wait);
        drop(s); // vanish with unread responses in flight
    }
}

fn churn(addr: SocketAddr, until: Instant, report: &mut ChaosReport) {
    let mut n = 0u64;
    while Instant::now() < until {
        let Ok(mut s) = TcpStream::connect(addr) else {
            return;
        };
        // Every third connection sends one valid request and leaves
        // without reading the answer; the rest say nothing at all.
        if n.is_multiple_of(3) {
            let _ = wire::write_request(&mut s, &victim_request(n));
            let _ = s.flush();
        }
        drop(s);
        n += 1;
        report.churned += 1;
        if n.is_multiple_of(16) {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Runs every adversary against `addr` for `duration`, concurrently.
pub fn run_chaos(addr: SocketAddr, duration: Duration) -> ChaosReport {
    let until = Instant::now() + duration;
    type Arm = fn(SocketAddr, Instant, &mut ChaosReport);
    let arms: [Arm; 5] = [
        slowloris,
        mid_frame_disconnect,
        malformed_frames,
        stalled_reader,
        churn,
    ];
    let handles: Vec<_> = arms
        .into_iter()
        .map(|arm| {
            thread::spawn(move || {
                let mut report = ChaosReport::default();
                arm(addr, until, &mut report);
                report
            })
        })
        .collect();
    let mut total = ChaosReport::default();
    for h in handles {
        let r = h.join().unwrap_or_default();
        total.slowloris += r.slowloris;
        total.mid_frame_disconnects += r.mid_frame_disconnects;
        total.malformed += r.malformed;
        total.stalled_readers += r.stalled_readers;
        total.churned += r.churned;
    }
    total
}
