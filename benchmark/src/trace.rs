//! Harness-side spans.
//!
//! The traced run records a span around each call the harness makes into a
//! layer: name, start, end, the span that caused it, and an operation id
//! shared by every span of one operation. Spans are kept in memory and
//! written to `out/trace-<workload>.jsonl` when the run ends. Nothing
//! inside the program under test is instrumented.
//!
//! The layer ladder (see [`crate::ladder`]) replays the *same* sampled
//! operations through successively larger entry points, one replay per
//! entry point, and links each replay's span to the span of the next larger
//! entry point as its parent. The replays do not overlap in wall time, so a
//! parent's children are subtracted by *duration*: a layer's self time is
//! its span minus its child spans ([`Tracer::self_times`]).

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Tracer`].
pub type SpanId = u32;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Operation (or block of operations) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. A disabled tracer drops everything, so the
/// untraced run pays one branch per would-be span.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        op: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, start_ns, end_ns: end_ns.max(start_ns), parent, op });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Re-parent an already recorded span (the ladder records small entry
    /// points first and learns their parents when the larger ones run).
    pub fn set_parent(&mut self, child: SpanId, parent: SpanId) {
        self.spans[child as usize].parent = Some(parent);
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean self time per span, by span name: duration minus the summed
    /// durations of the span's children, floored at zero.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, &children) in self.spans.iter().zip(&child_ns) {
            let e = out.entry(s.name).or_default();
            e.spans += 1;
            e.total_ns += s.dur_ns();
            e.self_ns += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        w.flush()
    }
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub spans: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(true);
        let t0 = tr.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        // One operation through three nested entry points, replayed apart
        // in wall time: 100 us outer, 60 us middle, 45 us inner.
        let inner = tr.record("inner", at(0), at(45), None, 7).unwrap();
        let middle = tr.record("middle", at(100), at(160), None, 7).unwrap();
        let outer = tr.record("outer", at(200), at(300), None, 7).unwrap();
        tr.set_parent(inner, middle);
        tr.set_parent(middle, outer);
        // A second, unrelated outer span with no children.
        tr.record("outer", at(400), at(420), None, 8);
        let st = tr.self_times();
        assert_eq!(st["inner"], SelfTime { spans: 1, total_ns: 45_000, self_ns: 45_000 });
        assert_eq!(st["middle"], SelfTime { spans: 1, total_ns: 60_000, self_ns: 15_000 });
        assert_eq!(st["outer"], SelfTime { spans: 2, total_ns: 120_000, self_ns: 60_000 });
    }

    #[test]
    fn children_longer_than_the_parent_floor_at_zero() {
        let mut tr = Tracer::new(true);
        let t0 = tr.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let parent = tr.record("p", at(0), at(10), None, 1).unwrap();
        tr.record("c", at(20), at(50), Some(parent), 1);
        assert_eq!(tr.self_times()["p"].self_ns, 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(tr.record("x", now, now, None, 0), None);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut tr = Tracer::new(true);
        let now = Instant::now();
        let a = tr.record("a", now, now, None, 1).unwrap();
        tr.record("b", now, now, Some(a), 1);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-unit-test-{}.jsonl", std::process::id()));
        tr.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"a\"") && lines[0].contains("\"parent\":null"));
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"op\":1"));
    }
}
