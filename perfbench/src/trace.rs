//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions (outside-in): name, item (kernel, trial or
//! cell index), start, end and parent, on the probe's clock, so every
//! per-layer host time is normalised like the end-to-end metrics. With
//! tracing off, [`Tracer::span`] only calls its closure.

use crate::clock::{Probe, PROBE_REF_S};
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>` name.
    pub name: &'static str,
    /// Which kernel, trial or soak cell the span belongs to.
    pub item: usize,
    /// Nanoseconds since the probe's origin.
    pub start_ns: u64,
    /// Nanoseconds since the probe's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder; disabled spans cost one branch.
pub struct Tracer {
    /// Whether spans are being recorded.
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A disabled tracer on the clock of `origin` (the probe's).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            enabled: false,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `item`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        item: usize,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            item,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Median normalised duration of the spans named `name` for `item`.
    pub fn median_s(&self, probe: &Probe, name: &str, item: usize) -> Option<f64> {
        let v: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.item == item)
            .map(|s| probe.norm_s(s.start_ns, s.end_ns))
            .collect();
        (!v.is_empty()).then(|| crate::run::median(&v))
    }

    /// Sum over items of each item's median duration of `name`.
    pub fn sum_median_s(&self, probe: &Probe, name: &str, items: usize) -> f64 {
        (0..items)
            .filter_map(|i| self.median_s(probe, name, i))
            .sum()
    }

    /// Self time of span `idx`: its duration minus its children's.
    fn self_ns(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// Renders the spans as Chrome trace-event JSON (viewable in Perfetto).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"item\":{},\"parent\":{parent},\"self_us\":{:.3}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.item,
                self.self_ns(i) as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"probe_ref_s\":{PROBE_REF_S}}}}}\n"
        );
        out
    }
}
