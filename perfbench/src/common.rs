//! Shared pieces: the seeded generator, host facts, the calibrated model
//! set-up, operation accounting and the result line.

use std::sync::Arc;
use std::time::Instant;
use supersim::calibrate::{calibrate, FitOptions};
use supersim::core::ModelRegistry;
use supersim::trace::{Trace, TraceEvent};
use supersim::workloads::Algorithm;

/// SplitMix64: every input of a run is drawn from this, seeded by
/// `--seed`, so the same seed always yields the same operation list.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5bd1_e995_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() - 1)]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.range(0, i));
        }
    }

    /// Standard normal (Box-Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(1e-300);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos()
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size (VmHWM) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Tasks of one tile algorithm on a `t x t` tile grid, from the closed
/// forms of the loop nests (not from the program's task streams).
pub fn closed_form_tasks(alg: Algorithm, t: usize) -> u64 {
    let t = t as u64;
    match alg {
        Algorithm::Cholesky => t * (t + 1) * (t + 2) / 6,
        Algorithm::Qr | Algorithm::Lu => t + t * (t - 1) + (t - 1) * t * (2 * t - 1) / 6,
    }
}

/// The smallest tile count whose closed-form task count reaches `tasks`.
pub fn tiles_for_tasks(alg: Algorithm, tasks: u64) -> usize {
    let mut t = 1;
    while closed_form_tasks(alg, t) < tasks {
        t += 1;
    }
    t
}

pub const ALGORITHMS: [Algorithm; 3] = [Algorithm::Cholesky, Algorithm::Qr, Algorithm::Lu];

/// Spans per kernel label in the synthetic timing sample. The sample is
/// calibrated one label at a time so its memory stays small next to the
/// workloads' own peak.
const SAMPLE_SPANS_PER_LABEL: usize = 20_000;

/// Relative kernel cost (a dgemm is 1), so the fitted models keep the
/// usual ordering of tile kernels.
fn kernel_weight(label: &str) -> f64 {
    match label {
        "dgemm" | "dtsmqr" => 1.0,
        "dsyrk" | "dtrsm" | "dtrsm_l" | "dtrsm_u" | "dormqr" => 0.5,
        "dtsqrt" => 0.7,
        _ => 0.35,
    }
}

/// The calibrated duration models every workload simulates with.
pub struct Models {
    pub registry: Arc<ModelRegistry>,
    /// Host milliseconds spent inside `calibrate()`.
    pub fit_ms: f64,
}

/// Fit duration models for every kernel label of the three algorithms
/// with `calibrate()` on a seeded synthetic timing sample: log-normal
/// durations around a 2 ms dgemm on 4 workers, with a first-call warm-up
/// penalty for the calibrator to detect. The seed draws the sample; its
/// size and distributions are fixed, so the fitting work is the same.
pub fn calibrate_models(seed: u64) -> Models {
    let mut rng = Rng::new(seed ^ 0xca1);
    let mut labels: Vec<&'static str> = ALGORITHMS
        .iter()
        .flat_map(|a| a.labels())
        .copied()
        .collect();
    labels.sort_unstable();
    labels.dedup();
    let mut registry = ModelRegistry::new();
    let mut fit_ms = 0.0;
    for label in labels {
        let mean = 2e-3 * kernel_weight(label);
        let sigma = 0.12;
        let mut trace = Trace::new(4);
        let mut clock = [0.0f64; 4];
        for i in 0..SAMPLE_SPANS_PER_LABEL {
            let w = i % 4;
            let warm = if i < 4 { 1.6 } else { 1.0 };
            let d = mean * (sigma * rng.normal()).exp() * warm;
            trace.push(TraceEvent {
                worker: w,
                kernel: label.to_string(),
                task_id: i as u64,
                start: clock[w],
                end: clock[w] + d,
            });
            clock[w] += d;
        }
        // Every candidate family is still fitted and ranked; pinning the
        // choice to the sample's own family matters because normal, gamma
        // and log-normal fits of this sample are near ties, so the AIC
        // winner would change with the seed, and the families cost
        // differently to sample on every simulated task.
        let opts = FitOptions {
            force_family: Some("lognormal"),
            ..FitOptions::default()
        };
        let t0 = Instant::now();
        let cal = calibrate(&trace, opts);
        fit_ms += ms_since(t0);
        registry.insert(label, cal.registry.expect(label).clone());
    }
    Models {
        registry: Arc::new(registry),
        fit_ms,
    }
}

/// Set-ups a run makes before its timed phase; the last one's product
/// is what the timed phase uses.
pub const SETUP_BEFORE: usize = 3;

/// Set-ups a run repeats during its timed phase, one at each of this
/// many evenly spaced checkpoints. The host's speed drifts over seconds
/// (hypervisor steal), so set-ups taken back to back all see the same
/// moment; spread over the run, their median sees the same host as the
/// timed operations do.
pub const SETUP_DURING: usize = 8;

/// Run `setup` [`SETUP_BEFORE`] times and return the last product with
/// each repetition's wall time in seconds. `setup` times its own
/// critical part and returns it, so tearing down a discarded product
/// stays untimed.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> (T, f64)) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_BEFORE + SETUP_DURING);
    let mut last = None;
    for _ in 0..SETUP_BEFORE {
        let (product, secs) = setup();
        times.push(secs);
        last = Some(product);
    }
    (last.expect("at least one set-up"), times)
}

/// The set-up repetitions of the timed phase. The timed phase calls
/// [`SetupSamples::tick`] between rounds; each call repeats the whole
/// set-up once (its product is dropped) if the next checkpoint has
/// passed. `setup_s` is the median of every repetition, before and
/// during the timed phase.
pub struct SetupSamples<'a> {
    setup: Box<dyn FnMut() -> f64 + 'a>,
    pub times: Vec<f64>,
    start: Instant,
    seconds: f64,
}

impl<'a> SetupSamples<'a> {
    /// Start the checkpoint clock of a timed phase of `seconds`.
    pub fn new(before: Vec<f64>, seconds: f64, setup: impl FnMut() -> f64 + 'a) -> Self {
        SetupSamples {
            setup: Box::new(setup),
            times: before,
            start: Instant::now(),
            seconds,
        }
    }

    fn during(&self) -> usize {
        self.times.len() - SETUP_BEFORE
    }

    /// Repeat the set-up now, if any repetition of the timed phase is
    /// left.
    pub fn take(&mut self) {
        if self.during() < SETUP_DURING {
            let secs = (self.setup)();
            self.times.push(secs);
        }
    }

    /// Repeat the set-up if the timed phase has passed its next
    /// checkpoint.
    pub fn tick(&mut self) {
        let next = (self.during() + 1) as f64 * self.seconds / (SETUP_DURING + 1) as f64;
        if self.start.elapsed().as_secs_f64() >= next {
            self.take();
        }
    }

    /// Make the repetitions a short run did not reach, and return every
    /// repetition's time and their median.
    pub fn finish(mut self) -> (Vec<f64>, f64) {
        while self.during() < SETUP_DURING {
            self.take();
        }
        let m = median(&self.times);
        (self.times, m)
    }
}

/// What the timed phase of a workload produced.
#[derive(Default)]
pub struct Tally {
    /// Host latency of every timed operation, in ms.
    pub latencies_ms: Vec<f64>,
    /// Simulated tasks retired by the timed operations.
    pub tasks: u64,
    /// Host seconds spent inside timed operations.
    pub timed_s: f64,
    /// Simulated tasks per host second of each round of a closed loop.
    pub round_rates: Vec<f64>,
    /// Closed loops that ran side by side (client threads).
    pub loops: usize,
    /// Operations issued, timed or not (set-up excluded).
    pub attempted: u64,
    /// Operations that errored, answered non-200 or failed a check.
    pub failed: u64,
    /// Of those, operations that fail every time on a known fault.
    pub known_failed: u64,
    /// One line per failure (first few are printed).
    pub failures: Vec<String>,
    /// Checks on the run as a whole (not operations) that failed.
    pub run_errors: Vec<String>,
}

impl Tally {
    /// Account one operation's check result.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    /// Account an operation that fails on a known fault in the program:
    /// it counts as failed but does not make the run incorrect.
    pub fn known_fault(&mut self, what: &str, result: Result<(), String>) {
        self.check(what, result.clone());
        if result.is_err() {
            self.known_failed += 1;
        }
    }

    pub fn run_check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.run_errors.push(format!("{what}: {e}"));
        }
    }

    /// Every operation that did not fail on the known fault was correct,
    /// and so was the run as a whole.
    pub fn correct(&self) -> bool {
        self.failed == self.known_failed && self.run_errors.is_empty()
    }

    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.round_rates.extend(other.round_rates);
        self.tasks += other.tasks;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.known_failed += other.known_failed;
        self.failures.extend(other.failures);
        self.run_errors.extend(other.run_errors);
    }
}

/// The fewest timed operations a run makes, so at least ten fall beyond
/// the 95th percentile.
pub const MIN_TIMED_OPS: usize = 200;

/// An end-to-end or per-layer metric for the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn end_to_end(setup_s: f64, tally: &Tally) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        // The median round, so one round slowed by the host does not move
        // it; side-by-side loops add up.
        Metric {
            name: "sim_tasks_per_s",
            value: median(&tally.round_rates) * tally.loops.max(1) as f64,
            unit: "1/s",
        },
        Metric {
            name: "latency_p50_ms",
            value: quantile(&tally.latencies_ms, 0.5),
            unit: "ms",
        },
        Metric {
            name: "latency_p95_ms",
            value: quantile(&tally.latencies_ms, 0.95),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb(),
            unit: "MB",
        },
    ]
}

/// The last line of standard output: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
