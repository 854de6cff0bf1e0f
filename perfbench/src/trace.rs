//! An in-memory span recorder, written out as Chrome Trace Event JSON
//! (open it in chrome://tracing or ui.perfetto.dev).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use labchip::workload::{PhaseReport, RunControl};

/// One recorded span: its name, interval, the span that caused it and the
/// job it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub job: String,
}

/// Spans of one run, kept in memory until the run ends. Spans are
/// recorded only from the benchmark's own thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span; returns its id.
    pub fn add(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        job: &str,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name: name.to_owned(),
            start_us: self.micros(start),
            end_us: self.micros(end),
            parent,
            job: job.to_owned(),
        });
        spans.len() - 1
    }

    /// Opens a span that [`Recorder::close`] ends; returns its id.
    pub fn open(&self, name: &str, parent: Option<usize>, job: &str) -> usize {
        let now = Instant::now();
        self.add(name, now, now, parent, job)
    }

    /// Ends a span opened with [`Recorder::open`]; returns its duration in
    /// milliseconds.
    pub fn close(&self, id: usize) -> f64 {
        let end = self.micros(Instant::now());
        let mut spans = self.spans.borrow_mut();
        spans[id].end_us = end;
        (end - spans[id].start_us) / 1e3
    }

    /// Runs `f` inside a span; returns its result and duration in
    /// milliseconds.
    pub fn time<R>(
        &self,
        name: &str,
        parent: Option<usize>,
        job: &str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent, job);
        let result = std::hint::black_box(f());
        (result, self.close(id))
    }

    /// Duration of span `id` in milliseconds.
    pub fn span_ms(&self, id: usize) -> f64 {
        let spans = self.spans.borrow();
        (spans[id].end_us - spans[id].start_us) / 1e3
    }

    /// Total milliseconds of the spans named `name` under `parent`.
    pub fn total_ms(&self, name: &str, parent: usize) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.parent == Some(parent))
            .map(|s| (s.end_us - s.start_us) / 1e3)
            .sum()
    }

    /// The spans as Chrome Trace Event JSON: one complete (`"X"`) event per
    /// span, with its id, parent and job in `args`. Jobs map to trace
    /// threads so each job reads as one row.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut rows: BTreeMap<&str, usize> = BTreeMap::new();
        for span in spans.iter() {
            let next = rows.len() + 1;
            rows.entry(span.job.as_str()).or_insert(next);
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (row, job) in rows.iter().map(|(job, row)| (row, job)) {
            let _ = writeln!(
                out,
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {row}, \"args\": {{\"name\": \"{job}\"}}}},"
            );
        }
        for (id, span) in spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"args\": {{\"span\": {id}, \"parent\": {parent}, \"job\": \"{}\", \"start_us\": {:.3}, \"end_us\": {:.3}}}}}",
                span.name,
                rows[span.job.as_str()],
                span.start_us,
                span.end_us - span.start_us,
                span.job,
                span.start_us,
                span.end_us
            );
            out.push_str(if id + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("]}\n");
        out
    }
}

/// A [`RunControl`] that never stops the run and records one span per
/// protocol phase, plus one `boundary` span for each gap between a phase's
/// end and the next phase's start (where the runner captures the
/// checkpoint).
pub struct PhaseTracer<'r> {
    recorder: &'r Recorder,
    parent: usize,
    job: String,
    open: Cell<Option<usize>>,
    last_end: Cell<Option<Instant>>,
    /// Reports of the finished phases, in order.
    pub reports: RefCell<Vec<PhaseReport>>,
}

impl<'r> PhaseTracer<'r> {
    pub fn new(recorder: &'r Recorder, parent: usize, job: &str) -> Self {
        Self {
            recorder,
            parent,
            job: job.to_owned(),
            open: Cell::new(None),
            last_end: Cell::new(None),
            reports: RefCell::new(Vec::new()),
        }
    }
}

impl RunControl for PhaseTracer<'_> {
    fn should_stop(&self, _next_phase: usize) -> bool {
        false
    }

    fn on_phase_started(&self, _index: usize, name: &str) {
        if let Some(end) = self.last_end.take() {
            self.recorder.add(
                "boundary",
                end,
                Instant::now(),
                Some(self.parent),
                &self.job,
            );
        }
        self.open
            .set(Some(self.recorder.open(name, Some(self.parent), &self.job)));
    }

    fn on_phase_finished(&self, _index: usize, report: &PhaseReport) {
        if let Some(id) = self.open.take() {
            self.recorder.close(id);
        }
        self.reports.borrow_mut().push(report.clone());
        self.last_end.set(Some(Instant::now()));
    }
}
