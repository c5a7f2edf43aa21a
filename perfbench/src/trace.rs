//! The benchmark's own spans, recorded around calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends. A span
//! names its parent; the spans of one request share a trace id. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run (ids start at 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one request or pass.
    pub trace: u64,
    /// Layer call the span covers (`http.post`, `pool.submit`, …).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

/// In-memory span recorder. A disabled tracer reads no clock and records
/// nothing, so untraced phases pay one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a pass-through.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id so
    /// nested calls can name it as their parent (0 when disabled).
    pub fn span<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span buffer poisoned").push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Drains the recorded spans, in completion order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// Per-layer totals derived from a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub count: u64,
    /// Σ span duration, ns.
    pub total_ns: u64,
    /// Σ self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, ms.
    #[must_use]
    pub fn self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }

    /// Mean duration per span, ms.
    #[must_use]
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get(&s.id)
            .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur - covered;
    }
    out
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The span set as Chrome `trace_event` JSON (`ph: "X"`, µs), with id,
/// parent and trace id in each event's `args`.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}",
            s.name,
            s.trace,
            s.start_ns as f64 / 1e3,
            s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            s.id,
            s.parent
                .map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.trace
        ));
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "request", 0, 100),
            // overlapping children count once; the tail past the parent is clipped
            span(2, Some(1), "http.post", 10, 30),
            span(3, Some(1), "http.post", 20, 50),
            span(4, Some(1), "json.resp_decode", 90, 120),
            // a grandchild reduces its parent's self time, not the root's
            span(5, Some(2), "inner", 12, 18),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"].self_ns, 100 - (40 + 10));
        assert_eq!(t["request"].total_ns, 100);
        assert_eq!(t["http.post"].count, 2);
        assert_eq!(t["http.post"].total_ns, 20 + 30);
        assert_eq!(t["http.post"].self_ns, (20 - 6) + 30);
        assert_eq!(t["json.resp_decode"].self_ns, 30);
        assert_eq!(t["inner"].self_ns, 6);
    }

    #[test]
    fn disjoint_and_nested_intervals() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 20), (30, 40)]), 20);
        assert_eq!(covered_ns(0, 100, &[(10, 90), (20, 30)]), 80);
        assert_eq!(covered_ns(50, 60, &[(0, 100)]), 10);
        assert_eq!(covered_ns(50, 60, &[(0, 10), (70, 80)]), 0);
    }

    #[test]
    fn tracer_records_nesting_and_ids() {
        let tracer = Tracer::new(true);
        let got = tracer.span("outer", 9, None, |outer| {
            tracer.span("inner", 9, Some(outer), |_| 41) + 1
        });
        assert_eq!(got, 42);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(spans.iter().all(|s| s.trace == 9));
        assert!(chrome_json(&spans).contains("\"parent\":null"));

        let off = Tracer::new(false);
        assert_eq!(off.span("x", 1, None, |id| id), 0);
        assert!(off.take().is_empty());
    }
}
