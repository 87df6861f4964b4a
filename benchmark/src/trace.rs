//! Spans recorded by the benchmark around each call it makes into a
//! layer: name, start, end, the span that caused it, and an id shared by
//! all spans of one request (or one scenario seed). Spans live in memory
//! and are written out once, when the run ends. Spans *inside* the
//! crates are a later change; these see each layer from outside only.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; `NONE` marks a root span (and every span
/// handed out while tracing is off).
pub type SpanIdx = u32;
pub const NONE: SpanIdx = u32::MAX;

/// At most this many spans are written to the trace file (the rest are
/// counted in its header); 100k client requests need not all be on disk.
const MAX_WRITTEN: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: SpanIdx,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are relative to.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span. Costs one branch when tracing is off.
    pub fn begin(&mut self, name: &'static str, id: u64, parent: SpanIdx) -> SpanIdx {
        if !self.enabled {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanIdx
    }

    pub fn end(&mut self, idx: SpanIdx) {
        if idx != NONE {
            self.spans[idx as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: SpanIdx,
        f: impl FnOnce() -> R,
    ) -> R {
        let idx = self.begin(name, id, parent);
        let out = f();
        self.end(idx);
        out
    }

    /// Adds spans timed elsewhere (client threads time their own
    /// requests against [`Tracer::origin`]).
    pub fn extend(
        &mut self,
        name: &'static str,
        parent: SpanIdx,
        timed: impl IntoIterator<Item = (u64, u64, u64)>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans
            .extend(timed.into_iter().map(|(id, start_ns, end_ns)| Span {
                name,
                id,
                parent,
                start_ns,
                end_ns,
            }));
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is a
    /// span's duration minus the part its child spans cover (children of
    /// one parent do not overlap here: each is a sequential call).
    /// Per-request spans run concurrently under their parent, so they
    /// are reported with their own total and left out of its self time.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE && s.name != "request" {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let own = total.saturating_sub(*covered);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += total;
                    r.3 += own;
                }
                None => rows.push((s.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes the spans as JSON: a header object, then one array of
    /// `[name, id, parent, start_ns, end_ns]` rows.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 * self.spans.len().min(MAX_WRITTEN) + 256);
        let _ = writeln!(
            out,
            "{{\"header\": {header}, \"spans_recorded\": {}, \"columns\": [\"name\", \"id\", \"parent\", \"start_ns\", \"end_ns\"], \"spans\": [",
            self.spans.len()
        );
        let written = self.spans.len().min(MAX_WRITTEN);
        for (i, s) in self.spans[..written].iter().enumerate() {
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let comma = if i + 1 == written { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {parent}, {}, {}]{comma}",
                s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

/// What recording one span costs, in ns: the median of five timed loops
/// of 10 000 begin/end pairs on a tracer of its own.
pub fn span_cost_ns() -> f64 {
    const PAIRS: u32 = 10_000;
    let mut rounds: Vec<f64> = (0..5)
        .map(|_| {
            let mut tracer = Tracer::new(true);
            let t = Instant::now();
            for i in 0..PAIRS {
                let idx = tracer.begin("calibration", u64::from(i), NONE);
                tracer.end(idx);
            }
            std::hint::black_box(tracer.len());
            t.elapsed().as_secs_f64() * 1e9 / f64::from(PAIRS)
        })
        .collect();
    crate::stats::median(&mut rounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let idx = t.begin("x", 1, NONE);
        assert_eq!(idx, NONE);
        t.end(idx);
        t.extend("request", NONE, [(1, 0, 5)]);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "run",
                id: 1,
                parent: NONE,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "call",
                id: 1,
                parent: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "call",
                id: 1,
                parent: 0,
                start_ns: 50,
                end_ns: 70,
            },
            Span {
                name: "request",
                id: 9,
                parent: 0,
                start_ns: 0,
                end_ns: 90,
            },
        ];
        let rows = t.summary();
        assert_eq!(rows[0], ("run", 1, 100, 50));
        assert_eq!(rows[1], ("call", 2, 50, 50));
        assert_eq!(rows[2], ("request", 1, 90, 90));
    }
}
