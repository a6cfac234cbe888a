//! Correctness checks computed apart from the program: closed-form task
//! counts, lane exclusivity, span bounds, busy-time capacity, and the
//! streaming sink that applies them to every span of a DES replay.
//!
//! Nothing here compares against a stored copy of earlier output.

use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use supersim::trace::sink::NdjsonSink;
use supersim::trace::{TraceEvent, TraceSink};

/// Virtual-time slack for float comparisons, relative to the makespan.
const REL_TOL: f64 = 1e-9;

/// Running checks over a span stream delivered lane-ordered by start.
#[derive(Default)]
pub struct SpanCheck {
    lanes: usize,
    last_end: Vec<f64>,
    pub spans: u64,
    /// Spans whose kernel label is `label_of_interest` (transfers).
    pub marked: u64,
    label_of_interest: &'static str,
    busy: f64,
    min_start: f64,
    max_end: f64,
    errors: Vec<String>,
}

impl SpanCheck {
    pub fn new(lanes: usize, label_of_interest: &'static str) -> Self {
        SpanCheck {
            lanes,
            last_end: vec![f64::NEG_INFINITY; lanes],
            label_of_interest,
            min_start: f64::INFINITY,
            max_end: f64::NEG_INFINITY,
            ..SpanCheck::default()
        }
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < 4 {
            self.errors.push(msg);
        }
    }

    /// Observe spans in the order a lane executed them.
    pub fn observe(&mut self, spans: &[TraceEvent]) {
        for e in spans {
            self.spans += 1;
            if e.kernel == self.label_of_interest {
                self.marked += 1;
            }
            if e.worker >= self.lanes {
                self.error(format!(
                    "span {} on lane {} of {}",
                    e.task_id, e.worker, self.lanes
                ));
                continue;
            }
            if e.end < e.start || !e.start.is_finite() || !e.end.is_finite() {
                self.error(format!(
                    "span {} has bad times [{}, {}]",
                    e.task_id, e.start, e.end
                ));
            }
            let last = self.last_end[e.worker];
            if e.start < last - REL_TOL * last.abs().max(1.0) {
                self.error(format!(
                    "lane {} overlaps: span {} starts at {} before {}",
                    e.worker, e.task_id, e.start, last
                ));
            }
            self.last_end[e.worker] = last.max(e.end);
            self.busy += e.end - e.start;
            self.min_start = self.min_start.min(e.start);
            self.max_end = self.max_end.max(e.end);
        }
    }

    /// Finish: every span in `[0, makespan]`, busy time at most
    /// `lanes * makespan`, and `expected` spans in total.
    pub fn finish(&self, makespan: f64, expected: u64) -> Result<(), String> {
        if let Some(e) = self.errors.first() {
            return Err(e.clone());
        }
        if self.spans != expected {
            return Err(format!("{} spans, closed form says {expected}", self.spans));
        }
        let tol = REL_TOL * makespan.abs().max(1.0);
        if makespan <= 0.0 || !makespan.is_finite() {
            return Err(format!("makespan {makespan}"));
        }
        if self.min_start < -tol || self.max_end > makespan + tol {
            return Err(format!(
                "spans cover [{}, {}], outside [0, {makespan}]",
                self.min_start, self.max_end
            ));
        }
        if self.busy > self.lanes as f64 * makespan + tol * self.lanes as f64 {
            return Err(format!(
                "busy {} exceeds {} lanes x makespan {makespan}",
                self.busy, self.lanes
            ));
        }
        Ok(())
    }
}

/// Check a buffered trace: its spans are sorted lane by lane first.
pub fn check_spans(
    spans: &[TraceEvent],
    lanes: usize,
    makespan: f64,
    expected: u64,
) -> Result<(), String> {
    let mut sorted: Vec<&TraceEvent> = spans.iter().collect();
    sorted.sort_by(|a, b| {
        (a.worker, a.start)
            .partial_cmp(&(b.worker, b.start))
            .expect("finite")
    });
    let mut check = SpanCheck::new(lanes, "");
    for e in sorted {
        check.observe(std::slice::from_ref(e));
    }
    check.finish(makespan, expected)
}

/// A writer that only counts the bytes it is given.
#[derive(Clone, Default)]
pub struct CountingWriter(pub Arc<AtomicU64>);

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The replay workload's trace sink: every span is written as ndjson
/// into a [`CountingWriter`] and passed through a [`SpanCheck`]. Flush
/// epochs arrive in order and each lane's spans end in order, so each
/// lane sees its spans by start time, which is what the check needs.
pub struct CheckingSink {
    inner: NdjsonSink<CountingWriter>,
    check: Arc<Mutex<SpanCheck>>,
}

impl CheckingSink {
    pub fn new(check: Arc<Mutex<SpanCheck>>, bytes: CountingWriter) -> Self {
        CheckingSink {
            inner: NdjsonSink::new(bytes),
            check,
        }
    }
}

impl TraceSink for CheckingSink {
    fn flush_epoch(&mut self, spans: &[TraceEvent]) -> io::Result<()> {
        self.check.lock().expect("span check lock").observe(spans);
        self.inner.flush_epoch(spans)
    }

    fn close(&mut self) -> io::Result<()> {
        self.inner.close()
    }
}

/// `got` equals `want` within a relative tolerance (sums of equal
/// constant durations are exact up to rounding).
pub fn close_to(what: &str, got: f64, want: f64) -> Result<(), String> {
    if (got - want).abs() <= 1e-9 * want.abs().max(1e-12) {
        Ok(())
    } else {
        Err(format!("{what}: got {got}, want {want}"))
    }
}

/// Pareto check over minimised objective vectors: every frontier member
/// is dominated by no point, and every other point is dominated by some
/// point.
pub fn check_pareto(points: &[(u64, Vec<f64>)], frontier: &[u64]) -> Result<(), String> {
    let dominates = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    for (id, p) in points {
        let dominated = points.iter().any(|(_, q)| dominates(q, p));
        let on_front = frontier.contains(id);
        if on_front && dominated {
            return Err(format!("frontier cell {id} is dominated"));
        }
        if !on_front && !dominated {
            return Err(format!(
                "cell {id} is non-dominated but not on the frontier"
            ));
        }
    }
    Ok(())
}
