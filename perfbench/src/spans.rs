//! Benchmark-side spans for the traced run.
//!
//! Spans are recorded only from the benchmark's own files, around each
//! operation and each call into a layer; nothing inside the program is
//! instrumented. With tracing off, [`enter`] costs one relaxed load.
//! Spans stay in memory and are written out as a Chrome trace when the
//! run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

struct Span {
    id: u64,
    parent: Option<u64>,
    tid: u64,
    name: String,
    start_us: f64,
    end_us: f64,
}

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn store() -> &'static Mutex<Vec<Span>> {
    static STORE: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

pub fn enable() {
    origin();
    ENABLED.store(true, Ordering::Relaxed);
}

/// An open span; it is recorded when dropped.
pub struct Guard(Option<(u64, Option<u64>, String, f64)>);

/// Open a span named `name`, a child of the innermost open span on this
/// thread.
pub fn enter(name: &str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = origin().elapsed().as_secs_f64() * 1e6;
    Guard(Some((id, parent, name.to_string(), start)))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, name, start_us)) = self.0.take() {
            let end_us = origin().elapsed().as_secs_f64() * 1e6;
            STACK.with(|s| s.borrow_mut().pop());
            let tid = TID.with(|t| *t);
            if let Ok(mut spans) = store().lock() {
                spans.push(Span {
                    id,
                    parent,
                    tid,
                    name,
                    start_us,
                    end_us,
                });
            }
        }
    }
}

/// Time `f` under a span named `name`.
pub fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Write every recorded span as a Chrome trace-event array ("complete"
/// `X` events in microseconds, one `tid` per benchmark thread), the same
/// shape the program's own Chrome exports use.
pub fn chrome_json() -> String {
    let spans = store().lock().expect("span store lock");
    let mut s = String::from("[");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            r#"{{"name":{:?},"ph":"X","ts":{:.3},"dur":{:.3},"pid":1,"tid":{},"args":{{"id":{},"parent":{}}}}}"#,
            sp.name,
            sp.start_us,
            sp.end_us - sp.start_us,
            sp.tid,
            sp.id,
            sp.parent.unwrap_or(0)
        );
    }
    s.push(']');
    s
}

/// Per span name: count, total and self time in ms. Self time is a
/// span's duration minus the part its child spans cover.
pub fn self_times() -> BTreeMap<String, (u64, f64, f64)> {
    let spans = store().lock().expect("span store lock");
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for sp in spans.iter() {
        if let Some(p) = sp.parent {
            *child_us.entry(p).or_default() += sp.end_us - sp.start_us;
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for sp in spans.iter() {
        let dur = sp.end_us - sp.start_us;
        let own = dur - child_us.get(&sp.id).copied().unwrap_or(0.0);
        let e = out.entry(sp.name.clone()).or_default();
        e.0 += 1;
        e.1 += dur / 1e3;
        e.2 += own.max(0.0) / 1e3;
    }
    out
}
