//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`<layer>.<function>`), start, end, the span
//! open on the same thread when it began (its parent) and the id of the
//! cloud, job, tile or run it belongs to. Spans stay in memory until the
//! run ends; [`Tracer::write_jsonl`] writes them out and
//! [`Tracer::self_seconds_by_layer`] folds a range of them into per-layer
//! self time (a span's duration minus the part its child spans cover).
//!
//! A disabled tracer reads no clock and stores nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed (or, while running, open) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub ctx: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder of one benchmark run.
pub struct Tracer {
    on: bool,
    active: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = self.tracer.now_ns();
            self.tracer.spans.lock().expect("span lock")[id].end_ns = end;
            OPEN.with(|open| open.borrow_mut().pop());
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            active: AtomicBool::new(true),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Pauses (`false`) or resumes recording on an enabled tracer, so a
    /// traced run can interleave untraced units and measure the overhead.
    pub fn set_active(&self, active: bool) {
        self.active.store(active, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `<layer>.<function>` for work item `ctx`.
    pub fn span(&self, name: &'static str, ctx: u64) -> SpanGuard<'_> {
        if !self.on || !self.active.load(Ordering::Relaxed) {
            return SpanGuard { tracer: self, id: None };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied());
        let start_ns = self.now_ns();
        let id = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span { name, start_ns, end_ns: start_ns, parent, ctx });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard { tracer: self, id: Some(id) }
    }

    /// A span when `record` holds, else a guard that records nothing.
    pub fn span_if(&self, record: bool, name: &'static str, ctx: u64) -> SpanGuard<'_> {
        if record {
            self.span(name, ctx)
        } else {
            SpanGuard { tracer: self, id: None }
        }
    }

    /// Runs `f` inside a span.
    pub fn within<R>(&self, name: &'static str, ctx: u64, f: impl FnOnce() -> R) -> R {
        let _span = self.span(name, ctx);
        f()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Spans recorded so far; with a later count, it marks the range of
    /// spans a phase of the run recorded.
    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Self seconds per layer, over the spans in `range`.
    pub fn self_seconds_by_layer(&self, range: Range<usize>) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span lock");
        let first = range.start;
        let phase: Vec<Span> = spans[range]
            .iter()
            .map(|s| Span { parent: s.parent.and_then(|p| p.checked_sub(first)), ..s.clone() })
            .collect();
        self_seconds_by_layer(&phase)
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"ctx\":{}}}",
                s.name, s.start_ns, s.end_ns, s.ctx
            )?;
        }
        out.flush()
    }
}

/// Folds spans into per-layer self time: each span's duration minus the
/// durations of its direct children.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_seconds = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_seconds[p] += s.seconds();
        }
    }
    let mut by_layer = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_seconds) {
        *by_layer.entry(s.layer()).or_insert(0.0) += (s.seconds() - children).max(0.0);
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, ctx: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            span("colper.attack", 0, 1_000, None),
            span("models.plan", 100, 300, Some(0)),
            span("geom.knn", 150, 250, Some(1)),
            span("models.forward", 400, 600, Some(0)),
        ];
        let by_layer = self_seconds_by_layer(&spans);
        let ns = |layer: &str| (by_layer[layer] * 1e9).round() as u64;
        assert_eq!(ns("colper"), 600);
        assert_eq!(ns("models"), 300);
        assert_eq!(ns("geom"), 100);
    }

    #[test]
    fn self_time_of_a_phase_leaves_out_spans_before_and_after_it() {
        let tracer = Tracer::new(true);
        tracer.within("models.train_model", 0, || ());
        let first = tracer.span_count();
        tracer.within("colper.streaming_attack", 0, || {
            tracer.within("scene.tile_load", 0, || std::thread::sleep(Duration::from_millis(2)))
        });
        let phase = first..tracer.span_count();
        tracer.within("defense.apply", 0, || ());
        let by_layer = tracer.self_seconds_by_layer(phase);
        assert_eq!(by_layer.keys().copied().collect::<Vec<_>>(), ["colper", "scene"]);
        assert!(by_layer["scene"] >= 0.002, "{by_layer:?}");
        assert!(by_layer["colper"] < by_layer["scene"], "{by_layer:?}");
    }

    #[test]
    fn nested_guards_record_parents_and_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("serve.job", 7);
            let _inner = tracer.span("scene.generate", 7);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[1].ctx, 7);

        let off = Tracer::new(false);
        off.within("scene.generate", 1, || ());
        assert!(off.spans().is_empty());
    }
}
