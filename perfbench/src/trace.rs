//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around its calls into
//! the program's layers (each phase, each pass, each client request), kept
//! in memory, and written out once the run ends. A span's self time is its
//! duration minus the part of it that its children cover.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use steam_net::Json;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store. A disabled tracer hands out ids but records
/// nothing, so the untraced run pays one branch per call site.
pub struct Tracer {
    enabled: AtomicBool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off (a traced run alternates, to measure the
    /// tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(&self, name: &str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if self.enabled() {
            let span = Span {
                id,
                parent,
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            };
            self.spans.lock().expect("span store poisoned").push(span);
        }
        id
    }

    /// Records many finished spans at once (one lock for a batch of client
    /// requests).
    pub fn record_batch(&self, batch: impl IntoIterator<Item = (String, u64, Instant, Instant)>) {
        if !self.enabled() {
            return;
        }
        let spans: Vec<Span> = batch
            .into_iter()
            .map(|(name, parent, start, end)| Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            })
            .collect();
        self.spans
            .lock()
            .expect("span store poisoned")
            .extend(spans);
    }

    /// Opens a span that ends when the guard drops (or at [`SpanGuard::end`]).
    pub fn span<'a>(&'a self, name: &'a str, parent: u64) -> SpanGuard<'a> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            tracer: self,
            id,
            parent,
            name,
            start: Instant::now(),
            done: false,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// An open span; see [`Tracer::span`].
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    name: &'a str,
    start: Instant,
    done: bool,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    /// Closes the span now and returns its duration.
    pub fn end(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        let end = Instant::now();
        if !self.done {
            self.done = true;
            // Also runs from `drop`: a poisoned store loses this span
            // instead of panicking.
            if let (true, Ok(mut spans)) = (self.tracer.enabled(), self.tracer.spans.lock()) {
                spans.push(Span {
                    id: self.id,
                    parent: self.parent,
                    name: self.name.to_string(),
                    start_ns: self.tracer.ns(self.start),
                    end_ns: self.tracer.ns(end),
                });
            }
        }
        end.duration_since(self.start)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Self time of every span: its duration minus the union of its children's
/// intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, s.duration_ns() - covered.min(s.duration_ns()))
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> HashMap<String, f64> {
    let own = self_times(spans);
    let mut out: HashMap<String, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.name.clone()).or_default() += own[&s.id] as f64 / 1e9;
    }
    out
}

/// The span dump written at the end of a traced run.
pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own[&s.id] as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children overlap each other and one runs past the parent's end.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 1, 80, 120),
            span(5, 3, 25, 45),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 20);
        assert_eq!(own[&2], 20);
        assert_eq!(own[&3], 30 - 20);
        assert_eq!(own[&4], 40);
        assert_eq!(own[&5], 20);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_numbers_spans() {
        let tracer = Tracer::new(false);
        let a = tracer.span("a", 0);
        let b = tracer.span("b", a.id());
        assert_ne!(a.id(), b.id());
        drop(b);
        a.end();
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn enabled_tracer_nests_spans() {
        let tracer = Tracer::new(true);
        let outer = tracer.span("outer", 0);
        {
            let _inner = tracer.span("inner", outer.id());
        }
        let outer_id = outer.id();
        outer.end();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, outer_id);
        let by_name = self_seconds_by_name(&spans);
        assert!(by_name["outer"] >= 0.0 && by_name.contains_key("inner"));
    }
}
