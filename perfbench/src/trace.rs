//! A small in-memory span recorder.
//!
//! Spans wrap the benchmark's own calls into each crate's public
//! functions; nothing inside the crates is instrumented. Untraced runs
//! call the same closures through a disabled recorder, which records
//! nothing and reads no clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span: a named interval and the span that opened it.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans when enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Pauses (`false`) or resumes recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.set(enabled);
    }

    /// Runs `f` inside a span named `name`, child of the open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.open.get(),
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let parent = self.open.replace(Some(id));
        let out = f();
        self.open.set(parent);
        self.spans.borrow_mut()[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Adds `by` to the counter `name` (work counts recorded at the same
    /// boundaries as the spans).
    pub fn count(&self, name: &'static str, by: f64) {
        if self.enabled.get() {
            *self.counts.borrow_mut().entry(name).or_insert(0.0) += by;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Total seconds covered by the direct children of spans named
    /// `parent` (the parent's time minus its self time).
    pub fn children_s(&self, parent: &str) -> f64 {
        let spans = self.spans.borrow();
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Writes every span as one JSON line (`name`, `parent`, `start_ns`,
    /// `end_ns`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
