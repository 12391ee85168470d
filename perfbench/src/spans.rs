//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Nothing is written while measuring; [`Tracer::write_ndjson`]
//! dumps the spans once the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed call: which layer, when, and the span that made it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Shared by every span of one request or one scenario.
    pub request: u64,
    /// Layer-qualified name, e.g. `negotiator.run`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread. [`Tracer::fork`] gives another
/// thread a tracer on the same clock and id sequence; [`Tracer::absorb`]
/// merges its spans back.
pub struct Tracer {
    epoch: Instant,
    next_id: Arc<AtomicU64>,
    open: Vec<u64>,
    request: u64,
    spans: Vec<Span>,
    bookkeeping: Duration,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: Arc::new(AtomicU64::new(0)),
            open: Vec::new(),
            request: 0,
            spans: Vec::new(),
            bookkeeping: Duration::ZERO,
        }
    }

    /// A tracer for another thread, sharing this one's clock and ids.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            next_id: Arc::clone(&self.next_id),
            open: Vec::new(),
            request: 0,
            spans: Vec::new(),
            bookkeeping: Duration::ZERO,
        }
    }

    /// Take over the spans a forked tracer recorded.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
        self.bookkeeping += other.bookkeeping;
    }

    /// Run `f` as the root span of request `request`.
    pub fn request<T>(
        &mut self,
        request: u64,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let outer = std::mem::replace(&mut self.request, request);
        let out = self.span(name, f);
        self.request = outer;
        out
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let opened = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.open.push(id);
        let opening = opened.elapsed();
        let out = f(self);
        let closed = Instant::now();
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns,
        });
        self.bookkeeping += opening + closed.elapsed();
        out
    }

    /// Every closed span, in the order they closed.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent opening and closing spans rather than in the calls
    /// they wrap: what tracing adds to the traced path.
    pub fn bookkeeping_secs(&self) -> f64 {
        self.bookkeeping.as_secs_f64()
    }

    /// Write one JSON object per span, each with its self time.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (span, self_ns) in self.spans.iter().zip(own) {
            let mut line = metrics::Json::object();
            line.push("id", span.id)
                .push("parent", span.parent)
                .push("request", span.request)
                .push("name", span.name)
                .push("start_ns", span.start_ns)
                .push("end_ns", span.end_ns)
                .push("self_ns", self_ns);
            writeln!(out, "{}", line.render_compact())?;
        }
        out.flush()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Run `f` inside span `name` when tracing, bare otherwise.
pub fn maybe<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
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
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self seconds summed per span name, by name.
pub fn self_secs_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_name = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(span.name).or_insert(0.0) += own as f64 / 1e9;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 0,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two concurrent children covering [10, 50) together.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 20, 50),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_root() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 50),
            span(2, Some(1), 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = [span(0, None, 10, 20), span(1, Some(0), 15, 40)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut tracer = Tracer::new();
        tracer.request(7, "root", |t| t.span("child", |_| ()));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(child.parent, Some(root.id));
        assert_eq!(root.parent, None);
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        let by_name = self_secs_by_name(spans);
        assert!((by_name["root"] + by_name["child"] - root.secs()).abs() < 1e-9);
    }

    #[test]
    fn bookkeeping_excludes_the_wrapped_call() {
        let mut tracer = Tracer::new();
        tracer.span("root", |t| {
            t.span("sleep", |_| std::thread::sleep(Duration::from_millis(20)))
        });
        let root = tracer.spans().last().unwrap().secs();
        let own = tracer.bookkeeping_secs();
        assert!(own > 0.0 && own < root - 0.019, "{own} of {root}");
        let mut fork = tracer.fork();
        fork.span("other", |_| ());
        let forked = fork.bookkeeping_secs();
        tracer.absorb(fork);
        assert!((tracer.bookkeeping_secs() - own - forked).abs() < 1e-12);
    }
}
