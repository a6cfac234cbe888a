//! `replay_large`: large DES replays on one thread, every span streamed
//! through a trace sink into a counting writer.

use std::sync::{Arc, Mutex};
use std::time::Instant;
use supersim::cluster::{ClusterSpec, ZeroCost, TRANSFER_LABEL};
use supersim::core::{KernelModel, ModelRegistry, SimConfig, SimSession};
use supersim::runtime::SchedulerKind;
use supersim::workloads::{Algorithm, Backend, Scenario};

use crate::checks::{close_to, CheckingSink, CountingWriter, SpanCheck};
use crate::common::{
    calibrate_models, closed_form_tasks, ms_since, tiles_for_tasks, Models, Rng, SetupSamples,
    Tally, ALGORITHMS,
};
use crate::scenario::{Cluster, Sc};
use crate::spans;

/// Flush epoch of the streaming sink, in virtual seconds.
const EPOCH: f64 = 0.05;

pub struct Replay {
    pub models: Models,
    pub ops: Vec<Sc>,
}

/// One round: 11 scenarios on a geometric ladder of sizes from 1.1x10^4
/// to 9x10^4 tasks, each 1.23 times the last. Rungs 1, 4 and 7 are
/// distributed Cholesky, LU and Cholesky on 64, 32 and 16 Hockney nodes;
/// the others are single-node Cholesky, QR and LU in turn on 8, 16 or
/// 32 workers. An odd count of distinct sizes puts the median and the
/// 95th percentile inside one scenario's repeated latencies, not on the
/// edge between two. Sizes, workers and nodes are fixed per rung so
/// every seed has the same mix of work; the seed draws each scenario's
/// duration seed, tile size and interconnect, and the order.
pub fn operations(seed: u64) -> Vec<Sc> {
    let mut rng = Rng::new(seed ^ 0x7e91);
    let mut ops = Vec::new();
    let (mut single, mut cluster) = (0, 0);
    for k in 0..11 {
        let target = 10f64.powf(4.0 + (k as f64 + 0.5) / 11.0) as u64;
        let nb = rng.pick(&[128, 192, 256]);
        let sc = if k % 3 == 1 && k < 9 {
            cluster += 1;
            let alg = [Algorithm::Cholesky, Algorithm::Lu, Algorithm::Cholesky][cluster - 1];
            Sc {
                alg,
                tiles: tiles_for_tasks(alg, target),
                nb,
                workers: 1,
                scheduler: SchedulerKind::Quark,
                cluster: Some(Cluster {
                    nodes: [64, 32, 16][cluster - 1],
                    workers_per_node: [4, 8, 4][cluster - 1],
                    latency: 1e-6 * (2.0 + 2.0 * rng.unit()),
                    bandwidth: 1e9 * (8.0 + 4.0 * rng.unit()),
                }),
                seed: rng.next_u64(),
            }
        } else {
            single += 1;
            let alg = ALGORITHMS[(single - 1) % 3];
            Sc {
                alg,
                tiles: tiles_for_tasks(alg, target),
                nb,
                workers: [8, 16, 32][(single - 1) % 3],
                scheduler: SchedulerKind::Quark,
                cluster: None,
                seed: rng.next_u64(),
            }
        };
        ops.push(sc);
    }
    rng.shuffle(&mut ops);
    ops
}

pub fn setup(seed: u64) -> (Replay, f64) {
    let t0 = Instant::now();
    let models = spans::timed("setup.calibrate", || calibrate_models(seed));
    let ops = operations(seed);
    (Replay { models, ops }, t0.elapsed().as_secs_f64())
}

/// Replay one scenario with the checking sink attached; returns the
/// host latency in ms and the simulated tasks retired.
pub fn replay_one(sc: &Sc, models: &Models) -> (f64, Result<u64, String>) {
    let session = sc.session(&models.registry);
    let check = Arc::new(Mutex::new(SpanCheck::new(sc.lanes(), TRANSFER_LABEL)));
    let bytes = CountingWriter::default();
    session.trace_recorder().attach_sink(
        Box::new(CheckingSink::new(check.clone(), bytes.clone())),
        EPOCH,
    );
    let scenario = sc.scenario(session, Backend::Des);
    let guard = spans::enter("op.replay");
    let t0 = Instant::now();
    let (makespan, retired, transfers) = match sc.cluster {
        None => {
            let r = scenario.run_sim();
            (r.predicted_seconds, r.stats.completed, 0)
        }
        Some(_) => {
            let r = scenario.run_cluster();
            (r.predicted_seconds, r.stats.completed, r.transfers)
        }
    };
    let ms = ms_since(t0);
    drop(guard);
    let _g = spans::enter("check.replay");
    let check = check.lock().expect("span check lock");
    let result = check
        .finish(makespan, sc.tasks() + transfers)
        .and_then(|()| {
            if check.marked != transfers {
                return Err(format!(
                    "{} transfer spans, run reports {transfers}",
                    check.marked
                ));
            }
            if retired != check.spans {
                return Err(format!(
                    "{retired} tasks retired, {} spans streamed",
                    check.spans
                ));
            }
            if bytes.0.load(std::sync::atomic::Ordering::Relaxed) < check.spans {
                return Err("sink wrote less than a byte per span".to_string());
            }
            Ok(retired)
        });
    (ms, result)
}

pub fn run(st: &Replay, seconds: f64, seed: u64, tally: &mut Tally, samples: &mut SetupSamples) {
    oracles(st, seed, tally);
    crate::rounds(seconds, st.ops.len(), tally, samples, |i, tally| {
        let sc = &st.ops[i];
        let (ms, result) = replay_one(sc, &st.models);
        tally.latencies_ms.push(ms);
        tally.timed_s += ms / 1e3;
        if let Ok(tasks) = &result {
            tally.tasks += tasks;
        }
        tally.check(&format!("replay {sc:?}"), result.map(|_| ()));
    });
}

fn constant_models(d: f64) -> Arc<ModelRegistry> {
    let mut m = ModelRegistry::new();
    for alg in ALGORITHMS {
        for l in alg.labels() {
            m.insert(*l, KernelModel::constant(d));
        }
    }
    Arc::new(m)
}

fn des_makespan(
    alg: Algorithm,
    t: usize,
    workers: usize,
    models: &Arc<ModelRegistry>,
    seed: u64,
) -> f64 {
    let session = SimSession::with_shared(
        models.clone(),
        SimConfig {
            seed,
            ..SimConfig::default()
        },
    );
    Scenario::new(alg)
        .tiles(t)
        .tile_size(64)
        .workers(workers)
        .session(session)
        .backend(Backend::Des)
        .run_sim()
        .predicted_seconds
}

/// Untimed method checks with known answers, once per run:
/// constant-duration schedules and the zero-cost cluster control.
/// The threaded engine's own checks ride along here, since its timed
/// workload is not run by the benchmark command.
fn oracles(st: &Replay, seed: u64, tally: &mut Tally) {
    crate::inloop::untimed_checks(&st.models.registry, seed, tally);
    let _g = spans::enter("check.oracles");
    let mut rng = Rng::new(seed ^ 0x0ac1e);
    let d = 1e-3 * (1.0 + 4.0 * rng.unit());
    let constant = constant_models(d);
    for alg in ALGORITHMS {
        let t = rng.range(4, 10);
        let n = closed_form_tasks(alg, t) as f64;
        let got = des_makespan(alg, t, 1, &constant, rng.next_u64());
        tally.check(
            "one worker runs N*d",
            close_to(&format!("{alg:?} t={t}"), got, n * d),
        );
    }
    let t = rng.range(4, 10);
    let got = des_makespan(Algorithm::Cholesky, t, t * t, &constant, rng.next_u64());
    tally.check(
        "cholesky on t^2 workers runs (3t-2)*d",
        close_to(&format!("t={t}"), got, (3 * t - 2) as f64 * d),
    );
    for alg in [Algorithm::Cholesky, Algorithm::Lu] {
        let t = rng.range(4, 8);
        let (nodes, wpn) = (4, t * t);
        let s = rng.next_u64();
        let cfg = SimConfig {
            seed: s,
            ..SimConfig::default()
        };
        let dist = Scenario::new(alg)
            .tiles(t)
            .tile_size(64)
            .session(SimSession::with_shared(
                st.models.registry.clone(),
                cfg.clone(),
            ))
            .cluster(ClusterSpec::new(nodes, wpn))
            .interconnect(Arc::new(ZeroCost))
            .backend(Backend::Des)
            .run_cluster()
            .predicted_seconds;
        let single = des_makespan(alg, t, nodes * wpn, &st.models.registry, s);
        tally.check(
            "zero-cost cluster equals single node",
            if dist.to_bits() == single.to_bits() {
                Ok(())
            } else {
                Err(format!(
                    "{alg:?} t={t}: cluster {dist} vs single node {single}"
                ))
            },
        );
    }
}
