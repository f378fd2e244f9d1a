//! In-memory span recorder for the traced run.
//!
//! Each span carries a name, start and end (nanoseconds since the
//! tracer was created), the span that caused it, and the request id all
//! spans of one operation share. Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends. A layer's
//! self time is its span's duration minus the part its children cover.
//!
//! Spans are recorded from the benchmark's own files, around each call
//! into a layer's public functions. Phases the program only reports as
//! durations ([`laqy::ExecStats`]) become child spans laid end to end
//! from their parent's start, marked `derived`.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run (never 0).
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The operation this span belongs to.
    pub req: u64,
    /// Layer boundary name, e.g. `sql.plan`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Laid out from a reported duration rather than timed directly.
    pub derived: bool,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Inner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cheap, cloneable handle; disabled tracers record nothing.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

/// A span that has started and not yet ended.
#[must_use = "close the span with Tracer::close"]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    req: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id children pass as their parent (`Some(0)` when tracing is
    /// off, when nothing is recorded).
    pub fn id(&self) -> Option<u64> {
        Some(self.id)
    }

    /// When the span started.
    pub fn start(&self) -> Instant {
        self.start
    }
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            inner: on.then(|| {
                Arc::new(Inner {
                    epoch: Instant::now(),
                    next_id: AtomicU64::new(1),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.inner.is_some()
    }

    /// Start a span now.
    pub fn enter(&self, name: &'static str, req: u64, parent: Option<u64>) -> Open {
        let id = match &self.inner {
            Some(i) => i.next_id.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        Open {
            id,
            parent,
            req,
            name,
            start: Instant::now(),
        }
    }

    /// End a span now and return its duration.
    pub fn close(&self, open: Open) -> Duration {
        let end = Instant::now();
        let dur = end - open.start;
        if let Some(i) = &self.inner {
            i.push(Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: i.ns(open.start),
                end_ns: i.ns(end),
                derived: false,
            });
        }
        dur
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let open = self.enter(name, req, parent);
        let out = f();
        (out, self.close(open))
    }

    /// Record reported phase durations as children of `parent`, laid
    /// end to end from `start`.
    pub fn derived(
        &self,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        phases: &[(&'static str, Duration)],
    ) {
        let Some(i) = &self.inner else { return };
        let mut at = i.ns(start);
        for &(name, dur) in phases {
            let end = at + dur.as_nanos() as u64;
            let id = i.next_id.fetch_add(1, Ordering::Relaxed);
            i.push(Span {
                id,
                parent,
                req,
                name,
                start_ns: at,
                end_ns: end,
                derived: true,
            });
            at = end;
        }
    }

    /// Every span recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        let Some(i) = &self.inner else {
            return Vec::new();
        };
        let mut v = i.spans.lock().expect("span log poisoned").clone();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"derived\":{}}}",
                s.id, parent, s.req, s.name, s.start_ns, s.end_ns, s.derived
            )?;
        }
        out.flush()
    }
}

impl Inner {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span log poisoned").push(span);
    }
}

/// Self time per span name: total ms and span count. A span's self time
/// is its duration minus the union of its children's intervals, clipped
/// to its own.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns().saturating_sub(covered) as f64 / 1e6;
        e.1 += 1;
    }
    out
}

/// Length of the union of `intervals` within `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns: s,
            end_ns: e,
            derived: false,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "op", 0, 100),
            span(2, Some(1), "a", 10, 40),
            // Overlaps `a` by 10 ns and runs past the parent's end.
            span(3, Some(1), "b", 30, 120),
            span(4, Some(3), "c", 50, 60),
        ];
        let t = self_times(&spans);
        let ms = |ns: f64| ns / 1e6;
        assert_eq!(t["op"], (ms(10.0), 1));
        assert_eq!(t["a"], (ms(30.0), 1));
        assert_eq!(t["b"], (ms(80.0), 1));
        assert_eq!(t["c"], (ms(10.0), 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let ((), _) = t.time("x", 1, None, || ());
        t.derived(1, None, Instant::now(), &[("y", Duration::from_millis(1))]);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn derived_phases_nest_under_their_parent() {
        let t = Tracer::new(true);
        let open = t.enter("service.run", 7, None);
        let parent = open.id();
        let start = open.start();
        t.derived(
            7,
            parent,
            start,
            &[
                ("engine.scan", Duration::from_micros(5)),
                ("sampling.build", Duration::from_micros(7)),
            ],
        );
        std::thread::sleep(Duration::from_millis(1));
        t.close(open);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert!(spans.iter().all(|s| s.req == 7));
        let run = spans.iter().find(|s| s.name == "service.run").expect("run");
        let build = spans
            .iter()
            .find(|s| s.name == "sampling.build")
            .expect("build");
        assert_eq!(build.parent, Some(run.id));
        assert!(build.derived);
        assert_eq!(build.end_ns - build.start_ns, 7_000);
        let self_run = self_times(&spans)["service.run"].0;
        assert!(self_run >= 1.0 - 0.012, "self {self_run}");
    }
}
