//! Outside-in tracing: the harness records a span around each call it
//! makes into a layer's public function. Spans stay in memory and are
//! written out once, when the run ends. A span's name starts with its
//! layer (`engine.query`, `serve.request`), so self time — a span's
//! duration minus what its children cover — sums per layer.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// Index of a span in its tracer; `NONE` marks a root.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Spans of one request (query, batch, build) share this.
    pub request: u64,
}

/// One thread's span buffer. Disabled tracers record nothing, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Self {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            request,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Records a child of the ended span `parent` from a duration the
    /// call itself returned (e.g. `QueryStats::total_time`): the child
    /// covers the last `duration_ns` of its parent.
    pub fn child_at_end(&mut self, name: &'static str, parent: SpanId, duration_ns: u64) {
        if parent == NONE {
            return;
        }
        let p = &self.spans[parent as usize];
        let (start_ns, end_ns, request) = (p.start_ns, p.end_ns, p.request);
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(duration_ns).max(start_ns),
            end_ns,
            parent,
            request,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's spans (same origin), re-basing their
    /// parent links. Roots of `other` hang under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: SpanId) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in nanoseconds: each span's duration minus
    /// the durations of its direct children, summed by the layer prefix
    /// of the span's name.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_layer = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(*children);
            *by_layer.entry(layer_of(s.name)).or_insert(0) += own;
        }
        by_layer
    }

    /// Count and total duration per span name.
    pub fn totals_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut by_name = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_insert((0u64, 0u64));
            e.0 += 1;
            e.1 += s.end_ns.saturating_sub(s.start_ns);
        }
        by_name
    }

    /// The trace file: a summary, then every span (capped, with the
    /// number dropped stated, so a long run cannot write gigabytes).
    pub fn to_json(&self, max_spans: usize) -> Json {
        let by_layer = self.self_time_by_layer();
        let total: u64 = by_layer.values().sum();
        let layers = by_layer.iter().map(|(layer, ns)| {
            (
                *layer,
                Json::obj([
                    ("self_ns", Json::Int(i128::from(*ns))),
                    (
                        "self_share",
                        Json::Num(if total == 0 {
                            0.0
                        } else {
                            *ns as f64 / total as f64
                        }),
                    ),
                ]),
            )
        });
        let names = self
            .totals_by_name()
            .into_iter()
            .map(|(name, (count, ns))| {
                (
                    name,
                    Json::obj([
                        ("count", Json::Int(i128::from(count))),
                        ("total_ns", Json::Int(i128::from(ns))),
                    ]),
                )
            });
        let spans = self.spans.iter().take(max_spans).enumerate().map(|(i, s)| {
            Json::obj([
                ("id", Json::Int(i as i128)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Int(i128::from(s.start_ns))),
                ("end_ns", Json::Int(i128::from(s.end_ns))),
                (
                    "parent",
                    if s.parent == NONE {
                        Json::Int(-1)
                    } else {
                        Json::Int(i128::from(s.parent))
                    },
                ),
                ("request", Json::Int(i128::from(s.request))),
            ])
        });
        Json::obj([
            ("self_time_by_layer", Json::obj(layers)),
            ("spans_by_name", Json::obj(names)),
            ("span_count", Json::Int(self.spans.len() as i128)),
            (
                "spans_dropped",
                Json::Int(self.spans.len().saturating_sub(max_spans) as i128),
            ),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// `engine.query` → `engine`.
pub fn layer_of(name: &'static str) -> &'static str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, SpanId)]) -> Tracer {
        let mut t = Tracer::new(true, Instant::now());
        for &(name, start_ns, end_ns, parent) in spans {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request: 1,
            });
        }
        t
    }

    #[test]
    fn self_time_subtracts_children_and_sums_to_the_root() {
        let t = tracer_with(&[
            ("harness.round", 0, 1000, NONE),
            ("exec.run_one", 100, 600, 0),
            ("engine.query", 150, 550, 1),
            ("exec.run_one", 600, 900, 0),
        ]);
        let by_layer = t.self_time_by_layer();
        assert_eq!(by_layer["harness"], 200);
        assert_eq!(by_layer["exec"], 100 + 300);
        assert_eq!(by_layer["engine"], 400);
        assert_eq!(
            by_layer.values().sum::<u64>(),
            1000,
            "adds up to the root span"
        );
        assert_eq!(t.totals_by_name()["exec.run_one"], (2, 800));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("engine.query", NONE, 1);
        assert_eq!(id, NONE);
        t.end(id);
        assert_eq!(t.span("exec.run_one", NONE, 2, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_absorb_rebases_parents() {
        let origin = Instant::now();
        let mut main = Tracer::new(true, origin);
        let root = main.begin("harness.round", NONE, 0);
        let mut worker = Tracer::new(true, origin);
        let req = worker.begin("serve.request", NONE, 9);
        let inner = worker.begin("serve.parse", req, 9);
        worker.end(inner);
        worker.end(req);
        main.absorb(worker, root);
        main.end(root);
        let spans = main.spans();
        assert_eq!(spans[1].parent, root);
        assert_eq!(spans[2].parent, 1);
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);
        let doc = main.to_json(2);
        assert_eq!(doc.get("span_count"), Some(&Json::Int(3)));
        assert_eq!(doc.get("spans_dropped"), Some(&Json::Int(1)));
    }
}
