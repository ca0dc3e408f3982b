//! In-memory spans recorded around the public calls the benchmark makes
//! into each layer. Spans are kept in memory while a run measures and
//! written out once it ends; self times (a span's duration minus the part
//! its children cover) are derived from them afterwards.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. `start_ns`/`end_ns` are offsets from the tracer's
/// epoch; `parent` indexes the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Request or sample id the span belongs to.
    pub req: u64,
}

/// A span recorder. A disabled tracer records nothing, so the traced and
/// untraced runs share one code path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Tracer {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Sets the request id of a span opened before the id was known.
    pub fn set_req(&mut self, id: usize, req: u64) {
        self.spans[id].req = req;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`]. Returns `None` when
    /// tracing is off.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose bounds were taken elsewhere.
    pub fn push(&mut self, name: &'static str, start: Instant, end: Instant, req: u64) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent: None,
                req,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another tracer's spans (recorded on another thread against
    /// the same epoch), keeping their parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Makes every parentless span of a request a child of that request's
    /// `root`-named span, for spans recorded on different threads.
    pub fn link_to_roots(&mut self, root: &'static str) {
        let roots: BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == root)
            .map(|(i, s)| (s.req, i))
            .collect();
        for (i, s) in self.spans.iter_mut().enumerate() {
            if s.parent.is_none() && s.name != root {
                s.parent = roots.get(&s.req).copied().filter(|&r| r != i);
            }
        }
    }

    /// Self time of every span, in span order: its duration minus the
    /// union of its children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut cursor = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            by.entry(s.name).or_default().push(t);
        }
        by
    }

    /// The spans as tab-separated `name start_ns end_ns parent req` rows
    /// (`parent` is `-` for a root).
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("name\tstart_ns\tend_ns\tparent\treq\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(Instant::now(), true);
        t.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 40 - 10, 30, 20, 30]);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_cross_thread_spans_link() {
        let epoch = Instant::now();
        let mut off = Tracer::new(epoch, false);
        assert_eq!(off.record("x", None, 1, || 7), 7);
        assert!(off.spans().is_empty());

        let mut main = Tracer::new(epoch, true);
        let root = main.open("request", None, 9);
        main.close(root);
        let mut other = Tracer::new(epoch, true);
        other.record("encode", None, 9, || ());
        main.absorb(other);
        main.link_to_roots("request");
        assert_eq!(main.spans()[1].parent, Some(0));
        assert!(main
            .to_tsv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("encode\t"));
    }
}
