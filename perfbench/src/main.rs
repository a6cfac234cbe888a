//! The supersim benchmark: one process runs one workload for a fixed
//! time and prints its end-to-end metrics (`--trace 0`) or, from a
//! separate traced run, its per-layer metrics (`--trace 1`) as the last
//! line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay_large --seed 1 --seconds 30 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, metrics and checks.

mod checks;
mod common;
mod inloop;
mod layers;
mod replay;
mod scenario;
mod serve;
mod spans;
mod stream;
mod sweep;

use std::collections::HashMap;
use std::process::exit;
use std::time::Instant;
use supersim::runtime::PolicyKind;

use common::{
    cpu_model, end_to_end, nproc, repeated_setup, result_line, Metric, SetupSamples, Tally,
    MIN_TIMED_OPS,
};
use scenario::{Cluster, Sc};

pub const WORKLOADS: [&str; 4] = ["replay_large", "sweep_grid", "inloop_threaded", "serve_mix"];

/// The ready-queue policies the traced runs push and pop through: the
/// deterministic ones the DES and cluster paths use, and the racy ones
/// of the StarPU and OmpSs profiles, whose own workload
/// (`inloop_threaded`) is not in the benchmark's gated set.
const ALL_POLICIES: [PolicyKind; 4] = [
    PolicyKind::CentralFifo,
    PolicyKind::Pinned,
    PolicyKind::WorkStealing,
    PolicyKind::LocalityAware,
];

/// Issue whole rounds of a workload's operation list until `seconds` of
/// wall time have passed and at least [`MIN_TIMED_OPS`] operations were
/// timed, and record each round's throughput over the time spent inside
/// its operations. `op` receives the index within the round and adds
/// its latency, tasks and host seconds to the tally. Between rounds the
/// set-up is repeated at its checkpoints, outside any round's time.
pub fn rounds(
    seconds: f64,
    round_len: usize,
    tally: &mut Tally,
    samples: &mut SetupSamples,
    mut op: impl FnMut(usize, &mut Tally),
) {
    let start = Instant::now();
    loop {
        let (tasks, secs) = (tally.tasks, tally.timed_s);
        for i in 0..round_len {
            op(i, tally);
        }
        let rate = (tally.tasks - tasks) as f64 / (tally.timed_s - secs).max(1e-9);
        tally.round_rates.push(rate);
        samples.tick();
        if start.elapsed().as_secs_f64() >= seconds && tally.latencies_ms.len() >= MIN_TIMED_OPS {
            break;
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    exit(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Args {
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument {flag}"))
        };
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("--{name} needs a value")));
        opts.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        opts.get(name)
            .cloned()
            .unwrap_or_else(|| usage(&format!("--{name} is required")))
    };
    let workload = get("workload");
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seed = get("seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a whole number"));
    let seconds: f64 = get("seconds")
        .parse()
        .unwrap_or_else(|_| usage("--seconds must be a number"));
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must be in (0, 600]");
    }
    let trace = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    Args {
        workload,
        seed,
        seconds,
        trace,
    }
}

/// What a workload run leaves for reporting.
struct Done {
    setup_s: f64,
    setup_times: Vec<f64>,
    tally: Tally,
    /// Per-layer metrics, traced runs only.
    layers: Vec<Metric>,
}

fn sweep_cells_as_scenarios(spec: &supersim::workloads::SweepSpec) -> Vec<Sc> {
    spec.cells()
        .iter()
        .filter(|c| c.plan_name == "clean")
        .map(|c| Sc {
            alg: c.algorithm,
            tiles: c.n / c.nb,
            nb: c.nb,
            workers: c.workers,
            scheduler: c.scheduler,
            cluster: c.interconnect.map(|ic| {
                let (latency, bandwidth) = match ic {
                    supersim::workloads::sweep::InterconnectSpec::Hockney {
                        latency,
                        bandwidth,
                    } => (latency, bandwidth),
                    _ => (1e-5, 1e10),
                };
                Cluster {
                    nodes: c.nodes,
                    workers_per_node: c.workers,
                    latency,
                    bandwidth,
                }
            }),
            seed: c.seed,
        })
        .collect()
}

/// A small matrix over a workload's own algorithms and worker counts,
/// for the merge and fault layers of workloads that issue no sweeps.
fn probe_sweep(
    scenarios: &[Sc],
    models: &common::Models,
    cluster: bool,
) -> supersim::workloads::SweepSpec {
    use supersim::workloads::sweep::{FaultPlanSpec, SweepModels};
    let mut algorithms: Vec<_> = scenarios.iter().map(|s| s.alg).collect();
    algorithms.sort_by_key(|a| a.name());
    algorithms.dedup();
    supersim::workloads::SweepSpec {
        algorithms,
        tile_counts: vec![4, 8],
        tile_sizes: vec![scenarios[0].nb],
        worker_counts: vec![scenarios[0].workers.max(2)],
        node_counts: if cluster { vec![0, 4] } else { vec![0] },
        plans: sweep::PLANS
            .iter()
            .map(|p| FaultPlanSpec::preset(p).expect("preset"))
            .collect(),
        seeds: vec![scenarios[0].seed % 1000],
        models: SweepModels::Shared(models.registry.clone()),
        ..supersim::workloads::SweepSpec::default()
    }
}

fn run_workload(a: &Args) -> Done {
    let mut tally = Tally::default();
    let probe = |inputs: layers::Inputs| {
        if a.trace {
            layers::probe(&inputs)
        } else {
            Vec::new()
        }
    };
    let seed = a.seed;
    let (setup_times, setup_s, layers) = match a.workload.as_str() {
        "replay_large" => {
            let setup = || spans::timed("setup", || replay::setup(seed));
            let (st, before) = repeated_setup(setup);
            let mut samples = SetupSamples::new(before, a.seconds, || setup().1);
            spans::timed("run", || {
                replay::run(&st, a.seconds, seed, &mut tally, &mut samples)
            });
            let (times, setup_s) = samples.finish();
            let layers = probe(layers::Inputs {
                models: &st.models,
                scenarios: st.ops.clone(),
                policies: ALL_POLICIES.to_vec(),
                sweep: probe_sweep(&st.ops, &st.models, true),
                requests: Vec::new(),
                daemon: None,
            });
            (times, setup_s, layers)
        }
        "sweep_grid" => {
            let setup = || spans::timed("setup", || sweep::setup(seed));
            let (st, before) = repeated_setup(setup);
            let mut samples = SetupSamples::new(before, a.seconds, || setup().1);
            spans::timed("run", || {
                sweep::run(&st, a.seconds, seed, &mut tally, &mut samples)
            });
            let (times, setup_s) = samples.finish();
            let layers = probe(layers::Inputs {
                models: &st.models,
                scenarios: sweep_cells_as_scenarios(&st.ops[0]),
                policies: ALL_POLICIES.to_vec(),
                sweep: st.ops[0].clone(),
                requests: Vec::new(),
                daemon: None,
            });
            (times, setup_s, layers)
        }
        "inloop_threaded" => {
            let setup = || spans::timed("setup", || inloop::setup(seed));
            let (st, before) = repeated_setup(setup);
            let mut samples = SetupSamples::new(before, a.seconds, || setup().1);
            spans::timed("run", || {
                inloop::run(&st, a.seconds, seed, &mut tally, &mut samples)
            });
            let (times, setup_s) = samples.finish();
            let layers = probe(layers::Inputs {
                models: &st.models,
                scenarios: st.ops.clone(),
                policies: vec![
                    PolicyKind::CentralFifo,
                    PolicyKind::WorkStealing,
                    PolicyKind::LocalityAware,
                ],
                sweep: probe_sweep(&st.ops, &st.models, false),
                requests: Vec::new(),
                daemon: None,
            });
            (times, setup_s, layers)
        }
        "serve_mix" => {
            // Each set-up repetition boots a daemon; dropping an earlier
            // one shuts it down, outside the timed part.
            let setup = || spans::timed("setup", || serve::setup(seed));
            let (mut st, before) = repeated_setup(setup);
            let mut samples = SetupSamples::new(before, a.seconds, || setup().1);
            let out = spans::timed("run", || {
                serve::run(&mut st, a.seconds, &mut tally, &mut samples)
            });
            let (times, setup_s) = samples.finish();
            let (scenarios, requests, sweep) = st.layer_inputs();
            let layers = probe(layers::Inputs {
                models: &st.models,
                scenarios,
                policies: ALL_POLICIES.to_vec(),
                sweep,
                requests,
                daemon: out.figures.as_ref().map(|f| layers::Daemon {
                    hit_ratio: out.hits as f64 / out.lookups.max(1) as f64,
                    resident_mb: out.cached_bytes as f64 / 1e6,
                    queue_wait_ms: f.queue_wait_ms,
                }),
            });
            (times, setup_s, layers)
        }
        _ => unreachable!("workload names are checked in parse_args"),
    };
    Done {
        setup_s,
        setup_times,
        tally,
        layers,
    }
}

fn main() {
    let args = parse_args();
    if args.trace {
        spans::enable();
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc(),
        cpu_model()
    );
    let done = run_workload(&args);
    let t = &done.tally;
    println!(
        "perfbench attempted={} failed={} known_fault={} timed_ops={} setup_runs_s={:?}",
        t.attempted,
        t.failed,
        t.known_failed,
        t.latencies_ms.len(),
        done.setup_times
    );
    for f in t.failures.iter().chain(&t.run_errors) {
        eprintln!("FAILED {f}");
    }
    let e2e = end_to_end(done.setup_s, t);
    let metrics = if args.trace {
        for m in &e2e {
            eprintln!("traced end-to-end {} = {} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "{:<28} {:>8} {:>12} {:>12}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, (count, total, own)) in spans::self_times() {
            eprintln!("{name:<28} {count:>8} {total:>12.3} {own:>12.3}");
        }
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans::chrome_json()))
        {
            Ok(()) => eprintln!("chrome trace written to {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
        done.layers
    } else {
        e2e
    };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let correct = t.correct() && finite;
    println!(
        "{}",
        result_line(correct, t.attempted.max(1), t.failed, &metrics)
    );
}
