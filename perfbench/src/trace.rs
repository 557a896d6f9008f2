//! In-memory spans for the traced run.
//!
//! The benchmark opens one root span per op and one child span around
//! each call into a layer. Spans are kept in memory and written out
//! once, after the run; a layer's self time is its spans' durations
//! minus the time their children cover.

use std::time::Instant;
use uecgra_probe::Json;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or `"op"` for a root span).
    pub name: &'static str,
    /// The op this span belongs to.
    pub op: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one clock.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close every span opened since (and including) `id`. Closing
    /// through `id` also ends spans a panic left open.
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Run `f` inside a span named `name` under the current span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let op = self.open.last().map_or(0, |&p| self.spans[p].op);
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// All spans as a JSON array, for writing out after the run.
    pub fn to_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::object(vec![
                        ("name", Json::Str(s.name.to_string())),
                        ("op", Json::Uint(s.op)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Uint(p as u64)),
                        ),
                        ("start_ns", Json::Uint(s.start_ns)),
                        ("end_ns", Json::Uint(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let root = t.begin("op", 3);
        t.span("child", || busy(2_000_000));
        busy(1_000_000);
        t.end(root);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].op, 3);
        let own = t.self_ns();
        assert_eq!(own[0] + own[1], t.spans()[0].duration_ns());
        assert!(own[1] >= 2_000_000 && own[0] >= 1_000_000);
    }

    #[test]
    fn ending_a_root_closes_spans_a_panic_left_open() {
        let mut t = Tracer::default();
        let root = t.begin("op", 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.begin("child", 0);
            panic!("layer panicked");
        }));
        assert!(r.is_err());
        t.end(root);
        assert!(t.open.is_empty());
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
