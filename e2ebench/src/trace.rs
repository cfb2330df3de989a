//! Spans recorded around the public calls the benchmark makes.
//!
//! A span has a name (the layer's metric prefix), a start and an end, the
//! span that caused it, and the id of the learn, request or commit it
//! belongs to. Spans stay in memory until the run ends. With tracing off,
//! [`Tracer::span`] only runs its closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, such as `bottom.walk`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer started.
    pub start: u64,
    /// End, in nanoseconds since the tracer started (0 while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The learn, request or commit this span belongs to.
    pub request: u64,
}

/// Busy time, self time and span count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub spans: usize,
    /// Summed span durations, in milliseconds.
    pub busy_ms: f64,
    /// Summed durations minus the parts covered by child spans.
    pub self_ms: f64,
}

/// The span recorder; shared by reference across the caller threads.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span. `f` receives the span's id (`None` with
    /// tracing off) to parent its own spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = {
            let mut spans = self.spans.lock().expect("span log poisoned");
            spans.push(Span {
                name,
                start: self.now(),
                end: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now();
        self.spans.lock().expect("span log poisoned")[id].end = end;
        out
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Busy and self time per span name of the spans recorded so far.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        layer_times(&self.spans())
    }

    /// Write every span as one tab-separated line: id, name, request,
    /// parent (`-` for none), start and end in nanoseconds.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\trequest\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Busy and self time per span name: a span's self time is its duration
/// minus the part of it that its child spans cover.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        let busy = s.end.saturating_sub(s.start);
        let covered = covered_within(kids, s.start, s.end);
        let t = out.entry(s.name).or_default();
        t.spans += 1;
        t.busy_ms += busy as f64 / 1e6;
        t.self_ms += busy.saturating_sub(covered) as f64 / 1e6;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_within(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}
