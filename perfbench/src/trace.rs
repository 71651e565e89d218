//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions (name, start, end, parent), kept in
//! memory, and summarised once the pass ends. A layer's self time is its
//! spans' duration minus the part covered by their child spans.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Single-threaded span recorder. A disabled tracer only runs the
/// closures, so the same code path serves the untraced comparison run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Per-name totals over a recorded pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    /// Summed span durations, seconds (nested spans of one name count
    /// once per span).
    pub inclusive_s: f64,
    /// Summed durations minus the time their direct children cover.
    pub self_s: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a child of the innermost
    /// open span).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.borrow().last().copied();
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[index].end_ns = end;
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Inclusive and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.inclusive_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child_ns[i]) as f64 * 1e-9;
        }
        out
    }

    /// Wall time from the first span's start to the last span's end,
    /// seconds.
    pub fn wall_s(&self) -> f64 {
        let spans = self.spans.borrow();
        let start = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        (end - start) as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span("outer", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(8))
            });
        });
        let layers = t.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert!(inner.self_s >= 0.008);
        assert!(outer.inclusive_s >= outer.self_s + inner.inclusive_s - 1e-6);
        assert!(outer.self_s < outer.inclusive_s);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 3), 3);
        assert_eq!(t.span_count(), 0);
    }
}
