//! Spans around the benchmark's calls into each layer (`--trace 1`).
//!
//! Every load thread owns one [`Tracer`] and keeps its spans in a plain
//! vector; nothing is shared between threads until the run ends and the
//! vectors are merged. A span records its name, start, end, the span that
//! caused it and a request id. [`self_times`] reduces a merged set to self
//! times: a span's duration minus the part of its interval that its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder. A disabled recorder costs one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    /// Ids of the spans currently open on this thread, innermost last.
    open: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids live in `thread`'s own id space, so spans
    /// of different threads never collide when merged.
    pub fn new(on: bool, epoch: Instant, thread: u64) -> Self {
        Tracer {
            on,
            epoch,
            next_id: (thread << 40) + 1,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// The instant every span offset is measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Reserves a span id for a span another thread will record.
    pub fn alloc_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span whose parent is the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let parent = self.open.last().copied();
        self.span_under(parent, name, req, f)
    }

    /// Runs `f` inside a span with an explicit parent (a span recorded by
    /// another thread, such as the collector's request span).
    pub fn span_under<T>(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.alloc_id();
        let start = Instant::now();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        self.record(name, id, parent, req, start, end);
        out
    }

    /// Records a span that has already ended.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<u64>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                id,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
    }

    /// Adopts spans recorded by another thread's tracer.
    pub fn extend(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in input order: its duration minus the union
/// of its children's intervals clipped to its own. Overlapping children
/// (parallel work under one parent) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else {
                return s.dur_ns();
            };
            let mut clipped: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|&(a, b)| a < b)
                .collect();
            clipped.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in clipped {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name totals over a merged span set.
#[derive(Clone, Debug, Default)]
pub struct NameStats {
    pub count: u64,
    pub self_ns: u64,
    /// Every span's full duration, in microseconds.
    pub durations_us: Vec<f64>,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += self_ns;
        e.durations_us.push(s.dur_ns() as f64 / 1e3);
    }
    out
}

/// Writes at most `cap` spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span], cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter().take(cap) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, parent, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover [10, 50) once: 40 ns.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A child poking past the parent's end is clipped to [90, 100).
            span(4, Some(1), 90, 120),
            // A grandchild counts against its own parent only.
            span(5, Some(2), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 30, 10]);
    }

    #[test]
    fn nested_spans_link_to_the_innermost_open_span() {
        let mut tr = Tracer::new(true, Instant::now(), 3);
        tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| ());
        });
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.id >> 40 == 3 && inner.req == 7);
        let stats = by_name(&spans);
        assert_eq!(stats["outer"].count, 1);
        assert!(stats["outer"].self_ns <= outer.dur_ns());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, Instant::now(), 0);
        assert_eq!(tr.span("x", 1, |_| 5), 5);
        assert!(tr.into_spans().is_empty());
    }
}
