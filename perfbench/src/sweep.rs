//! `sweep_grid`: each operation is one sweep matrix of many small DES
//! cells across the clean, straggler, transient and kill fault plans,
//! single-node and cluster, run with `jobs = nproc`.

use std::sync::Arc;
use std::time::Instant;
use supersim::core::{KernelModel, ModelRegistry};
use supersim::runtime::SchedulerKind;
use supersim::workloads::sweep::{FaultPlanSpec, InterconnectSpec, SweepModels, SweepReport};
use supersim::workloads::{Algorithm, SweepBackend, SweepSpec};

use crate::checks::{check_pareto, close_to};
use crate::common::{
    calibrate_models, closed_form_tasks, ms_since, nproc, Models, Rng, SetupSamples, Tally,
    ALGORITHMS,
};
use crate::spans;

pub const PLANS: [&str; 4] = ["clean", "straggler", "transient", "kill"];

pub struct Sweep {
    pub models: Models,
    pub ops: Vec<SweepSpec>,
}

/// Sweep matrix `i` of a round: three algorithms, a small and a large
/// tile count, two worker counts, single node plus one cluster size, all
/// four fault plans and one duration seed. The axes are fixed per slot,
/// with the large tile count stepping through 8..=12, so every seed has
/// the same mix of costs; the seed draws the tile size, the
/// interconnect, the duration seed and the order.
fn matrix(rng: &mut Rng, i: usize, models: &Arc<ModelRegistry>) -> SweepSpec {
    SweepSpec {
        algorithms: ALGORITHMS.to_vec(),
        orders: Vec::new(),
        tile_counts: vec![4 + i % 4, 8 + i % 5],
        tile_sizes: vec![rng.pick(&[32, 64, 96])],
        schedulers: vec![SchedulerKind::Quark],
        worker_counts: vec![2 + i % 3, 6 + 2 * (i % 4)],
        node_counts: vec![0, [4, 6, 9][i % 3]],
        interconnects: vec![InterconnectSpec::Hockney {
            latency: 1e-6 * (2.0 + 2.0 * rng.unit()),
            bandwidth: 1e9 * (8.0 + 4.0 * rng.unit()),
        }],
        plans: PLANS
            .iter()
            .map(|p| FaultPlanSpec::preset(p).expect("preset"))
            .collect(),
        seeds: vec![rng.next_u64() % 1_000_000],
        backend: SweepBackend::Auto,
        models: SweepModels::Shared(models.clone()),
        overhead_per_task: 0.0,
        nic_lanes: None,
        autotune: None,
    }
}

/// One round: eleven matrices in seeded order.
pub fn operations(seed: u64, models: &Arc<ModelRegistry>) -> Vec<SweepSpec> {
    let mut rng = Rng::new(seed ^ 0x5ee9);
    let mut ops: Vec<SweepSpec> = (0..11).map(|i| matrix(&mut rng, i, models)).collect();
    rng.shuffle(&mut ops);
    ops
}

pub fn setup(seed: u64) -> (Sweep, f64) {
    let t0 = Instant::now();
    let models = spans::timed("setup.calibrate", || calibrate_models(seed));
    let ops = operations(seed, &models.registry);
    (Sweep { models, ops }, t0.elapsed().as_secs_f64())
}

/// The benchmark's own count of a matrix's cells: the single-node cells
/// are the full product; cluster cells drop QR (no distributed QR), use
/// one scheduler and range over the interconnects.
pub fn expected_cells(spec: &SweepSpec) -> usize {
    let orders = spec.tile_counts.len() * spec.tile_sizes.len();
    let per = spec.worker_counts.len() * spec.plans.len() * spec.seeds.len();
    let single = spec.node_counts.iter().filter(|&&n| n == 0).count();
    let cluster = spec.node_counts.len() - single;
    let cluster_algs = spec
        .algorithms
        .iter()
        .filter(|&&a| a != Algorithm::Qr)
        .count();
    orders
        * per
        * (single * spec.algorithms.len() * spec.schedulers.len()
            + cluster * cluster_algs * spec.interconnects.len())
}

fn algorithm_named(name: &str) -> Option<Algorithm> {
    ALGORITHMS.into_iter().find(|a| a.name() == name)
}

/// Check a sweep report against the matrix that produced it.
pub fn check_report(spec: &SweepSpec, report: &SweepReport) -> Result<u64, String> {
    let want = expected_cells(spec);
    if report.cells.len() != want || report.cells_total as usize != want {
        return Err(format!(
            "{} cells, the axes give {want}",
            report.cells.len()
        ));
    }
    let mut tasks = 0;
    for (i, c) in report.cells.iter().enumerate() {
        if c.id != i as u64 {
            return Err(format!("cell {i} has id {}", c.id));
        }
        let alg = algorithm_named(&c.algorithm)
            .ok_or_else(|| format!("cell {i}: algorithm {}", c.algorithm))?;
        let n = closed_form_tasks(alg, c.n / c.nb);
        let ok = match c.plan.as_str() {
            "clean" => c.tasks == n + c.transfers,
            _ => c.tasks >= n,
        };
        if !ok {
            return Err(format!(
                "cell {i} ({} {}, {}) has {} tasks, closed form {n} + {} transfers",
                c.algorithm,
                c.n / c.nb,
                c.plan,
                c.tasks,
                c.transfers
            ));
        }
        if c.plan == "transient" && n >= 5 && c.retries == 0 {
            return Err(format!("cell {i}: transient plan retried nothing"));
        }
        if !(c.makespan > 0.0
            && c.makespan.is_finite()
            && c.slowdown > 0.0
            && c.slowdown.is_finite())
        {
            return Err(format!(
                "cell {i}: makespan {} slowdown {}",
                c.makespan, c.slowdown
            ));
        }
        if (c.nodes > 0) != (c.transfers > 0) {
            return Err(format!(
                "cell {i}: {} nodes but {} transfers",
                c.nodes, c.transfers
            ));
        }
        tasks += c.tasks;
    }
    let points: Vec<(u64, Vec<f64>)> = report
        .cells
        .iter()
        .map(|c| (c.id, vec![c.makespan, c.slowdown, c.transfer_bytes as f64]))
        .collect();
    check_pareto(&points, &report.pareto.frontier)?;
    Ok(tasks)
}

pub fn run(st: &Sweep, seconds: f64, seed: u64, tally: &mut Tally, samples: &mut SetupSamples) {
    oracle(seed, tally);
    let jobs = nproc();
    crate::rounds(seconds, st.ops.len(), tally, samples, |i, tally| {
        let spec = &st.ops[i];
        let guard = spans::enter("op.sweep");
        let t0 = Instant::now();
        let outcome = spec.run(jobs);
        let ms = ms_since(t0);
        drop(guard);
        tally.latencies_ms.push(ms);
        tally.timed_s += ms / 1e3;
        let _g = spans::enter("check.sweep");
        let mut result = check_report(spec, &outcome.report);
        if let Ok(tasks) = result {
            tally.tasks += tasks;
        }
        // The report must not depend on the job count; re-running every
        // matrix on one job would double the run, so the first matrix of
        // each round carries this check.
        if i == 0 && result.is_ok() && spec.run(1).report.to_json() != outcome.report.to_json() {
            result = Err(format!("report differs between jobs 1 and {jobs}"));
        }
        tally.check("sweep", result.map(|_| ()));
    });
}

/// Untimed known-answer check through the sweep path: constant kernel
/// durations `d` give `N*d` on one worker and `(3t-2)*d` for Cholesky on
/// `t^2` workers.
fn oracle(seed: u64, tally: &mut Tally) {
    let _g = spans::enter("check.oracles");
    let mut rng = Rng::new(seed ^ 0x0ac2e);
    let d = 1e-3 * (1.0 + 4.0 * rng.unit());
    let t = rng.range(4, 9);
    let mut registry = ModelRegistry::new();
    for l in Algorithm::Cholesky.labels() {
        registry.insert(*l, KernelModel::constant(d));
    }
    let spec = SweepSpec {
        algorithms: vec![Algorithm::Cholesky],
        tile_counts: vec![t],
        tile_sizes: vec![64],
        worker_counts: vec![1, t * t],
        seeds: vec![rng.next_u64() % 1000],
        models: SweepModels::Shared(Arc::new(registry)),
        ..SweepSpec::default()
    };
    let report = spec.run(nproc()).report;
    let result = check_report(&spec, &report).and_then(|_| {
        let n = closed_form_tasks(Algorithm::Cholesky, t) as f64;
        close_to("one worker", report.cells[0].makespan, n * d)?;
        close_to(
            "t^2 workers",
            report.cells[1].makespan,
            (3 * t - 2) as f64 * d,
        )
    });
    tally.check(&format!("constant-duration sweep t={t}"), result);
}
