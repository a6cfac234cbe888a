//! `inloop_threaded`: the paper's method. The real threaded runtime
//! schedules, TEQ targeted wakeups and quiescence keep virtual time, on
//! the Quark, StarPU and OmpSs profiles.

use std::sync::Arc;
use std::time::Instant;
use supersim::core::{KernelModel, ModelRegistry, SimConfig, SimSession};
use supersim::runtime::SchedulerKind;
use supersim::trace::Trace;
use supersim::workloads::{Algorithm, Backend, Scenario};

use crate::checks::{check_spans, close_to};
use crate::common::{
    calibrate_models, closed_form_tasks, ms_since, Models, Rng, SetupSamples, Tally,
};
use crate::scenario::Sc;
use crate::spans;

pub struct Inloop {
    pub models: Models,
    pub ops: Vec<Sc>,
}

const PROFILES: [SchedulerKind; 3] = [
    SchedulerKind::Quark,
    SchedulerKind::StarPu,
    SchedulerKind::OmpSs,
];

/// One round: every profile runs Cholesky at 12 and 18 tiles and QR at
/// 11 tiles (9 scenarios, a few simulated workers each, since each is a
/// host thread). Sizes and workers are fixed per slot so every seed has
/// the same mix of work; the seed draws the tile size, the duration seed
/// and the order.
pub fn operations(seed: u64) -> Vec<Sc> {
    let mut rng = Rng::new(seed ^ 0x1e0b);
    let mut ops = Vec::new();
    for (p, scheduler) in PROFILES.into_iter().enumerate() {
        for (k, (alg, tiles)) in [
            (Algorithm::Cholesky, 12),
            (Algorithm::Cholesky, 18),
            (Algorithm::Qr, 11),
        ]
        .into_iter()
        .enumerate()
        {
            ops.push(Sc {
                alg,
                tiles,
                nb: rng.pick(&[128, 192, 256]),
                workers: [3, 4, 6][(p + k) % 3],
                scheduler,
                cluster: None,
                seed: rng.next_u64(),
            });
        }
    }
    rng.shuffle(&mut ops);
    ops
}

pub fn setup(seed: u64) -> (Inloop, f64) {
    let t0 = Instant::now();
    let models = spans::timed("setup.calibrate", || calibrate_models(seed));
    let ops = operations(seed);
    (Inloop { models, ops }, t0.elapsed().as_secs_f64())
}

pub fn run(st: &Inloop, seconds: f64, seed: u64, tally: &mut Tally, samples: &mut SetupSamples) {
    oracles(seed, tally);
    crate::rounds(seconds, st.ops.len(), tally, samples, |i, tally| {
        let sc = &st.ops[i];
        let scenario = sc.scenario(sc.session(&st.models.registry), Backend::Threaded);
        let guard = spans::enter("op.threaded");
        let t0 = Instant::now();
        let run = scenario.run_sim();
        let ms = ms_since(t0);
        drop(guard);
        tally.latencies_ms.push(ms);
        tally.timed_s += ms / 1e3;
        let _g = spans::enter("check.threaded");
        let mut result = check_spans(
            run.trace.spans(),
            sc.workers,
            run.predicted_seconds,
            sc.tasks(),
        );
        if result.is_ok() {
            tally.tasks += run.trace.len() as u64;
        }
        if result.is_ok() && sc.scheduler == SchedulerKind::Quark {
            result = same_as_des(sc, &st.models.registry, &run.trace);
        }
        tally.check(&format!("threaded {sc:?}"), result);
    });
}

/// Quark dispatches from one FIFO, so its virtual-time schedule is
/// deterministic and the DES replay must reproduce the threaded trace
/// exactly (DESIGN.md §7).
fn same_as_des(sc: &Sc, models: &Arc<ModelRegistry>, threaded: &Trace) -> Result<(), String> {
    let des = sc.scenario(sc.session(models), Backend::Des).run_sim();
    if des.trace.canonical() == threaded.canonical() {
        Ok(())
    } else {
        Err("threaded and DES canonical traces differ".to_string())
    }
}

/// Untimed checks of the threaded engine for workloads that do not time
/// it: the known answers of [`oracles`], and a small Cholesky and QR on
/// the Quark profile whose threaded trace must equal the DES one.
pub fn untimed_checks(models: &Arc<ModelRegistry>, seed: u64, tally: &mut Tally) {
    oracles(seed, tally);
    let _g = spans::enter("check.quark_threaded_vs_des");
    let mut rng = Rng::new(seed ^ 0x0ac4e);
    for (alg, tiles, workers) in [(Algorithm::Cholesky, 10, 4), (Algorithm::Qr, 8, 3)] {
        let sc = Sc {
            alg,
            tiles,
            nb: rng.pick(&[128, 192, 256]),
            workers,
            scheduler: SchedulerKind::Quark,
            cluster: None,
            seed: rng.next_u64(),
        };
        let run = sc.scenario(sc.session(models), Backend::Threaded).run_sim();
        let result = check_spans(
            run.trace.spans(),
            workers,
            run.predicted_seconds,
            sc.tasks(),
        )
        .and_then(|()| same_as_des(&sc, models, &run.trace));
        tally.check(&format!("quark threaded equals DES {sc:?}"), result);
    }
}

/// Untimed known-answer checks on the threaded engine: constant kernel
/// durations `d` give `N*d` on one worker and `(3t-2)*d` for Cholesky on
/// `t^2` workers.
fn oracles(seed: u64, tally: &mut Tally) {
    let _g = spans::enter("check.oracles");
    let mut rng = Rng::new(seed ^ 0x0ac3e);
    let d = 1e-3 * (1.0 + 4.0 * rng.unit());
    let mut registry = ModelRegistry::new();
    for alg in [Algorithm::Cholesky, Algorithm::Qr] {
        for l in alg.labels() {
            registry.insert(*l, KernelModel::constant(d));
        }
    }
    let registry = Arc::new(registry);
    let run = |alg, t, workers, scheduler, seed| {
        let session = SimSession::with_shared(
            registry.clone(),
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        );
        Scenario::new(alg)
            .tiles(t)
            .tile_size(64)
            .workers(workers)
            .scheduler(scheduler)
            .session(session)
            .run_sim()
            .predicted_seconds
    };
    for scheduler in PROFILES {
        for alg in [Algorithm::Cholesky, Algorithm::Qr] {
            let t = rng.range(4, 8);
            let n = closed_form_tasks(alg, t) as f64;
            let got = run(alg, t, 1, scheduler, rng.next_u64());
            tally.check(
                "one worker runs N*d",
                close_to(&format!("{scheduler:?} {alg:?} t={t}"), got, n * d),
            );
        }
        let t = rng.range(4, 5);
        let got = run(Algorithm::Cholesky, t, t * t, scheduler, rng.next_u64());
        tally.check(
            "cholesky on t^2 workers runs (3t-2)*d",
            close_to(&format!("{scheduler:?} t={t}"), got, (3 * t - 2) as f64 * d),
        );
    }
}
