//! Spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and an end (seconds since the tracer was
//! made), the span that caused it and the iteration it belongs to. Spans
//! stay in memory and are written once, when the run ends. Nothing here
//! runs in an untraced run.

use coanalysis::{StageId, StageObserver};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, as used in the per-layer metric names.
    pub name: String,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Iteration (or tick) this span belongs to.
    pub iter: usize,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin; `NAN` while open.
    pub end: f64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// An in-memory span recorder, shared by reference across threads.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, iter: usize) -> usize {
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_owned(),
            parent,
            iter,
            start,
            end: f64::NAN,
        });
        spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&self, id: usize) {
        let end = self.now();
        if let Some(s) = self.lock().get_mut(id) {
            s.end = end;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        iter: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, iter);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span as a JSON array, one object per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"iter\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}{sep}",
                s.name,
                s.iter,
                s.start * 1e6,
                s.end * 1e6
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// A [`StageObserver`] that records one `stage.<name>` span per stage run,
/// under a given parent span.
pub struct StageSpans<'a> {
    tracer: &'a Tracer,
    parent: usize,
    iter: usize,
    open: Mutex<Vec<(StageId, usize)>>,
}

impl<'a> StageSpans<'a> {
    /// Record stage spans under `parent`.
    pub fn new(tracer: &'a Tracer, parent: usize, iter: usize) -> StageSpans<'a> {
        StageSpans {
            tracer,
            parent,
            iter,
            open: Mutex::new(Vec::new()),
        }
    }
}

impl StageObserver for StageSpans<'_> {
    fn stage_started(&self, id: StageId) {
        let span = self.tracer.open(
            &format!("stage.{}", id.name()),
            Some(self.parent),
            self.iter,
        );
        self.open
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((id, span));
    }

    fn stage_finished(&self, id: StageId) {
        let mut open = self.open.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(pos) = open.iter().position(|(sid, _)| *sid == id) {
            let (_, span) = open.swap_remove(pos);
            self.tracer.close(span);
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut cur) = (0.0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

/// Self time of span `id`: its duration minus the part of it its children
/// cover, in milliseconds.
pub fn self_ms(spans: &[Span], id: usize) -> f64 {
    let s = &spans[id];
    let children = spans
        .iter()
        .filter(|c| c.parent == Some(id))
        .map(|c| (c.start, c.end))
        .collect();
    (s.end - s.start - covered(children, s.start, s.end)) * 1e3
}

/// The share of the root spans' wall clock that lies inside some layer
/// span: 1 − Σ root self time / Σ root duration. Roots are the spans named
/// `root`.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let (mut wall, mut unattributed) = (0.0, 0.0);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == root) {
        wall += s.ms();
        unattributed += self_ms(spans, i);
    }
    if wall > 0.0 {
        1.0 - unattributed / wall
    } else {
        0.0
    }
}

/// Per iteration, the summed duration of every span with each name, in
/// milliseconds: `name → [one value per iteration that had it]`.
pub fn per_iteration_ms(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut by: BTreeMap<(String, usize), f64> = BTreeMap::new();
    for s in spans {
        *by.entry((s.name.clone(), s.iter)).or_default() += s.ms();
    }
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for ((name, _), ms) in by {
        out.entry(name).or_default().push(ms);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: name.to_owned(),
            parent,
            iter: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("root", None, 0.0, 1.0),
            span("a", Some(0), 0.1, 0.5),
            span("b", Some(0), 0.3, 0.6),
            span("c", Some(1), 0.2, 0.3),
        ];
        assert!((self_ms(&spans, 0) - 500.0).abs() < 1e-6);
        assert!((self_ms(&spans, 1) - 300.0).abs() < 1e-6);
        assert!((coverage(&spans, "root") - 0.5).abs() < 1e-9);
    }
}
