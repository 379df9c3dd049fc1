//! In-memory spans recorded by the benchmark around each call into a
//! layer, written out once the run ends as Chrome trace-event JSON (the
//! format `ss-trace` already exports and Perfetto loads).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// The request this span served (an update's schedule index), or
    /// `u64::MAX` for none.
    id: u64,
}

/// Totals of all spans sharing one name.
#[derive(Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the part covered by direct child spans.
    pub self_s: f64,
}

/// Spans kept in memory; recording is off until [`SpanLog::set_enabled`].
pub struct SpanLog {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span, closed by [`SpanLog::close`].
#[must_use]
pub struct Open(Option<usize>);

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, span: Open) {
        if let Some(idx) = span.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.span_id(name, u64::MAX, f)
    }

    /// [`SpanLog::span`] for a span that serves request `id`.
    pub fn span_id<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let s = self.open(name, id);
        let r = f();
        self.close(s);
        r
    }

    /// Durations in seconds of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> impl Iterator<Item = f64> + '_ {
        let name = name.to_string();
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(child) as f64 / 1e9;
        }
        out
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per span,
    /// followed by `extra` events (comma-joined objects, may be empty).
    pub fn to_chrome_json(&self, extra: &str) -> String {
        let mut out = String::with_capacity(96 * self.spans.len() + extra.len() + 32);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if s.id != u64::MAX {
                let _ = write!(out, ",\"request\":{}", s.id);
            }
            out.push_str("}}");
        }
        if !extra.is_empty() {
            if !self.spans.is_empty() {
                out.push(',');
            }
            out.push_str(extra);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        log.set_enabled(true);
        let outer = log.open("outer", u64::MAX);
        log.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        log.close(outer);
        let t = log.totals();
        let (outer, inner) = (t["outer"], t["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.total_s >= 0.005);
        assert!(outer.self_s < outer.total_s - 0.004);
        assert!(log.to_chrome_json("").contains("\"parent\":0"));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new();
        assert_eq!(log.span("x", || 7), 7);
        assert!(log.totals().is_empty());
    }
}
