//! Outside-in spans for the traced run.
//!
//! Each span wraps one call into a layer's public function, made from
//! the benchmark's own code: name, start, end, parent span, and the cell
//! or request id it belongs to. Spans stay in memory and are written out
//! once, when the run ends. A disabled tracer records nothing, so the
//! end-to-end runs pay one branch per call site.

use std::sync::Mutex;
use std::time::Instant;

use crate::util::{jnum, jstr};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Starts a span and returns its index, the parent of nested spans;
    /// [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            id,
            parent,
            start_us: self.now_us(),
            end_us: f64::NAN,
        });
        Some(spans.len() - 1)
    }

    pub fn close(&self, idx: Option<usize>) {
        if let Some(idx) = idx {
            let end = self.now_us();
            self.spans.lock().expect("span list poisoned")[idx].end_us = end;
        }
    }

    /// Runs `f` inside a span; `f` receives the span's index to pass as
    /// the parent of nested spans.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(Option<usize>) -> R,
    ) -> R {
        let idx = self.open(name, parent, id);
        let r = f(idx);
        self.close(idx);
        r
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// The spans as one JSON document, each with its self time.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let rows: Vec<String> = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"idx\": {i}, \"name\": {}, \"id\": {}, \"parent\": {}, \"start_us\": {}, \"end_us\": {}, \"self_ms\": {}}}",
                    jstr(s.name),
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    jnum(s.start_us),
                    jnum(s.end_us),
                    jnum(self_ms(&spans, i)),
                )
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// Self time of `spans[idx]` in ms: its duration minus the part of its
/// interval that its children cover (overlapping children, such as two
/// concurrent clients, count once).
pub fn self_ms(spans: &[Span], idx: usize) -> f64 {
    let me = &spans[idx];
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in children {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    (me.end_us - me.start_us - covered) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ms: f64, end_ms: f64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_us: start_ms * 1e3,
            end_us: end_ms * 1e3,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 4.0),
            span("b", Some(0), 2.0, 5.0),
            span("c", Some(0), 7.0, 8.0),
        ];
        // Children cover [1,5] and [7,8] ms: 5 ms of 10.
        assert!((self_ms(&spans, 0) - 5.0).abs() < 1e-9);
        assert!((self_ms(&spans, 1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", None, 0, |p| p), None);
        assert!(t.spans().is_empty());
    }
}
