//! The traced run's per-layer figures: each layer's public functions are
//! called from outside, on the task streams and requests of the
//! workload being traced, under a benchmark-side span per call.

use std::sync::Arc;
use std::time::Instant;
use supersim::cluster::{ClusterSpec, Coherence, Interconnect, ZeroCost};
use supersim::core::{SimConfig, SimSession, TaskExecutionQueue};
use supersim::des::{ReplayBody, ReplayEngine, ReplayTask};
use supersim::runtime::policy::{make_policy, ReadyMeta};
use supersim::runtime::{HazardTracker, PolicyKind, RuntimeConfig, SchedulerKind};
use supersim::serve::api::{RunOutput, RunResponse, Terminal};
use supersim::serve::{ModelCache, ResponseCache, RunRequest};
use supersim::trace::sink::NdjsonSink;
use supersim::trace::{TraceEvent, TraceRecorder, TraceSink};
use supersim::workloads::sweep::{FaultPlanSpec, SweepReport};
use supersim::workloads::{Backend, Scenario, SweepSpec};

use crate::checks::CountingWriter;
use crate::common::{median, Metric, Models};
use crate::scenario::Sc;
use crate::spans;
use crate::stream::{cluster_replay, ghost_base, owner_annotated, single_node};

/// Simulated tasks the probe spends per layer at most; scenarios are
/// taken in list order until the budget is used.
const TASK_BUDGET: u64 = 150_000;

/// Figures only a live daemon can give (`serve_mix`).
pub struct Daemon {
    pub hit_ratio: f64,
    pub resident_mb: f64,
    pub queue_wait_ms: f64,
}

/// What the probe is fed: the workload's own inputs.
pub struct Inputs<'a> {
    pub models: &'a Models,
    pub scenarios: Vec<Sc>,
    pub policies: Vec<PolicyKind>,
    pub sweep: SweepSpec,
    /// `/run` request bodies; built from `scenarios` when empty.
    pub requests: Vec<String>,
    pub daemon: Option<Daemon>,
}

fn budgeted(scenarios: &[Sc]) -> Vec<Sc> {
    let mut used = 0;
    let mut out = Vec::new();
    for sc in scenarios {
        if used >= TASK_BUDGET {
            break;
        }
        used += sc.tasks();
        out.push(*sc);
    }
    out
}

fn per(total_ns: f64, count: u64) -> f64 {
    total_ns / count.max(1) as f64
}

/// A scenario's replay stream: single node on the Quark profile, or the
/// coherence-planned cluster stream on the pinned profile.
fn replay_stream(sc: &Sc, session: &SimSession) -> (Vec<ReplayTask>, RuntimeConfig) {
    match &sc.cluster {
        None => {
            let tasks = single_node(sc.alg, sc.tiles, sc.nb)
                .into_iter()
                .map(|t| ReplayTask {
                    label: t.label.to_string(),
                    accesses: t.accesses,
                    priority: t.priority,
                    pin: None,
                    body: ReplayBody::Ranked {
                        rank: session.next_rank(t.label),
                    },
                })
                .collect();
            (tasks, SchedulerKind::Quark.config(sc.workers))
        }
        Some(c) => {
            let owned = owner_annotated(sc.alg, sc.tiles, sc.nb, c.nodes);
            let spec = c.spec();
            let ic = c.interconnect();
            let tasks = cluster_replay(&owned, &spec, &*ic, session, ghost_base(sc.tiles));
            let config = RuntimeConfig {
                workers: spec.total_workers(),
                policy: PolicyKind::Pinned,
                window: usize::MAX,
                name: "cluster",
            };
            (tasks, config)
        }
    }
}

fn request_body(sc: &Sc) -> String {
    let cluster = match &sc.cluster {
        Some(c) => format!(
            r#","cluster":{{"nodes":{},"workers_per_node":{},"interconnect":"hockney","latency":{:?},"bandwidth":{:?}}}"#,
            c.nodes, c.workers_per_node, c.latency, c.bandwidth
        ),
        None => String::new(),
    };
    format!(
        r#"{{"algorithm":"{}","tiles":{},"tile_size":{},"workers":{},"seed":{},"backend":"des"{cluster}}}"#,
        sc.alg.name(),
        sc.tiles,
        sc.nb,
        sc.workers,
        sc.seed
    )
}

pub fn probe(inp: &Inputs) -> Vec<Metric> {
    let _root = spans::enter("layers");
    let scenarios = budgeted(&inp.scenarios);
    let mut m = Vec::new();
    let mut push = |name, value, unit| m.push(Metric { name, value, unit });

    // des: the replay engine with no sink, on each scenario's stream.
    let (mut des_ns, mut des_tasks, mut events) = (0.0, 0, 0);
    let mut spans_out: Vec<TraceEvent> = Vec::new();
    let mut durations: Vec<(f64, usize)> = Vec::new();
    for sc in &scenarios {
        let session = sc.session(&inp.models.registry);
        let (tasks, config) = replay_stream(sc, &session);
        let engine = ReplayEngine::new(&config, session.clone()).expect("replayable profile");
        session.set_warmup_slots(
            sc.cluster
                .map_or(sc.workers, |c| c.nodes * c.workers_per_node),
        );
        let g = spans::enter("des.replay");
        let t0 = Instant::now();
        let out = engine.run(tasks);
        des_ns += t0.elapsed().as_nanos() as f64;
        drop(g);
        des_tasks += out.completed;
        events += out.events;
        let trace = session.finish_trace(config.workers);
        durations.extend(trace.spans().iter().map(|e| (e.duration(), config.workers)));
        spans_out.extend(trace.into_events());
    }
    push("des.replay_ns_per_task", per(des_ns, des_tasks), "ns");
    push(
        "des.events_per_task",
        events as f64 / des_tasks.max(1) as f64,
        "count",
    );

    // runtime: hazard analysis and the workload's ready-queue policies.
    let (mut hz_ns, mut hz_tasks) = (0.0, 0);
    for sc in &scenarios {
        let stream = single_node(sc.alg, sc.tiles, sc.nb);
        let mut tracker = HazardTracker::new();
        let _g = spans::enter("runtime.hazard");
        let t0 = Instant::now();
        for (i, t) in stream.iter().enumerate() {
            std::hint::black_box(tracker.analyze(i as u64, &t.accesses));
        }
        hz_ns += t0.elapsed().as_nanos() as f64;
        hz_tasks += stream.len() as u64;
    }
    push("runtime.hazard_ns_per_task", per(hz_ns, hz_tasks), "ns");
    let (mut pol_ns, mut pol_tasks) = (0.0, 0);
    for &kind in &inp.policies {
        for sc in &scenarios {
            let session = sc.session(&inp.models.registry);
            let (tasks, config) = replay_stream(sc, &session);
            let lanes = if kind == PolicyKind::Pinned {
                config.workers
            } else {
                sc.workers
            };
            let metas: Vec<ReadyMeta> = tasks
                .iter()
                .enumerate()
                .map(|(i, t)| ReadyMeta {
                    priority: t.priority,
                    releaser: Some(i % lanes),
                    affinity: t
                        .accesses
                        .iter()
                        .find(|a| a.mode.writes())
                        .map(|a| a.data.0),
                    pin: if kind == PolicyKind::Pinned {
                        t.pin
                    } else {
                        None
                    },
                })
                .collect();
            let mut policy = make_policy(kind, lanes);
            let _g = spans::enter("runtime.policy");
            let t0 = Instant::now();
            // Push a batch as wide as the lanes, then let every lane pop,
            // as a dispatcher does after a wave of releases.
            for (chunk_no, chunk) in metas.chunks(lanes).enumerate() {
                for (j, meta) in chunk.iter().enumerate() {
                    policy.push((chunk_no * lanes + j) as u64, *meta);
                }
                let mut w = 0;
                while !policy.is_empty() {
                    std::hint::black_box(policy.pop(w % lanes));
                    w += 1;
                }
            }
            pol_ns += t0.elapsed().as_nanos() as f64;
            pol_tasks += metas.len() as u64;
        }
    }
    push("runtime.policy_ns_per_task", per(pol_ns, pol_tasks), "ns");

    // core: duration planning, the TEQ protocol and session set-up.
    let (mut plan_ns, mut plan_tasks) = (0.0, 0);
    for sc in &scenarios {
        let session = sc.session(&inp.models.registry);
        let stream = single_node(sc.alg, sc.tiles, sc.nb);
        session.set_warmup_slots(sc.workers);
        let _g = spans::enter("core.plan");
        let t0 = Instant::now();
        for t in &stream {
            let rank = session.next_rank(t.label);
            std::hint::black_box(session.plan_ranked(t.label, rank, 1.0, None));
        }
        plan_ns += t0.elapsed().as_nanos() as f64;
        plan_tasks += stream.len() as u64;
    }
    push("core.plan_ns_per_task", per(plan_ns, plan_tasks), "ns");
    {
        // Each task enters the TEQ with its replayed duration; with the
        // lanes full, the earliest completion reaches the front and is
        // retired, as a simulated worker does.
        let teq = TaskExecutionQueue::new();
        let mut tickets = Vec::with_capacity(durations.len());
        let mut inflight = std::collections::BinaryHeap::new();
        let _g = spans::enter("core.teq");
        let t0 = Instant::now();
        for &(d, lanes) in &durations {
            while inflight.len() >= lanes {
                let std::cmp::Reverse((_, seq)) = inflight.pop().expect("in flight");
                teq.wait_front(tickets[seq]);
                teq.retire(tickets[seq]);
            }
            let (ticket, _) = teq.insert(d);
            inflight.push(std::cmp::Reverse((EndTime(ticket.end), tickets.len())));
            tickets.push(ticket);
        }
        while let Some(std::cmp::Reverse((_, seq))) = inflight.pop() {
            teq.wait_front(tickets[seq]);
            teq.retire(tickets[seq]);
        }
        push(
            "core.teq_ns_per_task",
            per(t0.elapsed().as_nanos() as f64, durations.len() as u64),
            "ns",
        );
    }
    {
        let _g = spans::enter("core.session_new");
        let reps = 2000;
        let t0 = Instant::now();
        for i in 0..reps {
            std::hint::black_box(SimSession::with_shared(
                inp.models.registry.clone(),
                SimConfig {
                    seed: i,
                    ..SimConfig::default()
                },
            ));
        }
        push(
            "core.session_new_us",
            t0.elapsed().as_secs_f64() * 1e6 / reps as f64,
            "us",
        );
    }

    // cluster: coherence planning on the owner-annotated streams; a
    // single-node scenario is one node, where every read is local.
    let (mut coh_ns, mut coh_tasks, mut xfers, mut xbytes) = (0.0, 0, 0, 0);
    for sc in &scenarios {
        let (nodes, ic) = match &sc.cluster {
            Some(c) => (c.nodes, c.interconnect()),
            None => (1, Arc::new(ZeroCost) as Arc<dyn Interconnect>),
        };
        let owned = owner_annotated(sc.alg, sc.tiles, sc.nb, nodes);
        let mut coherence = Coherence::new(nodes, ghost_base(sc.tiles));
        let _g = spans::enter("cluster.coherence");
        let t0 = Instant::now();
        for t in &owned {
            std::hint::black_box(coherence.plan_compute(t.node, &t.accesses, &*ic));
        }
        coh_ns += t0.elapsed().as_nanos() as f64;
        coh_tasks += owned.len() as u64;
        xfers += coherence.transfers();
        xbytes += coherence.transfer_bytes();
    }
    push(
        "cluster.coherence_ns_per_task",
        per(coh_ns, coh_tasks),
        "ns",
    );
    push(
        "cluster.transfers_per_task",
        xfers as f64 / coh_tasks.max(1) as f64,
        "count",
    );
    push(
        "cluster.transfer_bytes_per_task",
        xbytes as f64 / coh_tasks.max(1) as f64,
        "B",
    );

    // trace: recording and ndjson sinking of the replayed spans.
    {
        let recorder = TraceRecorder::new();
        let _g = spans::enter("trace.record");
        let t0 = Instant::now();
        for e in &spans_out {
            recorder.record(e.worker, &e.kernel, e.task_id, e.start, e.end);
        }
        push(
            "trace.record_ns_per_span",
            per(t0.elapsed().as_nanos() as f64, spans_out.len() as u64),
            "ns",
        );
    }
    {
        let mut sink = NdjsonSink::new(CountingWriter::default());
        let _g = spans::enter("trace.sink");
        let t0 = Instant::now();
        for batch in spans_out.chunks(512) {
            sink.flush_epoch(batch)
                .expect("counting writer never fails");
        }
        sink.close().expect("counting writer never fails");
        push(
            "trace.sink_ns_per_span",
            per(t0.elapsed().as_nanos() as f64, spans_out.len() as u64),
            "ns",
        );
    }
    drop(spans_out);

    // workloads: fixed per-scenario cost and the sweep report merge.
    {
        let mut us = Vec::new();
        for sc in scenarios.iter().take(8) {
            for _ in 0..50 {
                let one = Sc {
                    tiles: 1,
                    scheduler: SchedulerKind::Quark,
                    cluster: None,
                    ..*sc
                };
                let _g = spans::enter("workloads.scenario_fixed");
                let t0 = Instant::now();
                std::hint::black_box(
                    one.scenario(one.session(&inp.models.registry), Backend::Des)
                        .run_sim(),
                );
                us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        push("workloads.scenario_fixed_us", median(&us), "us");
    }
    let outcome = spans::timed("workloads.sweep_run", || inp.sweep.run(1));
    {
        let mut ms = Vec::new();
        for _ in 0..20 {
            let cells = outcome.report.cells.clone();
            let _g = spans::enter("workloads.sweep_merge");
            let t0 = Instant::now();
            std::hint::black_box(SweepReport::assemble(cells, None));
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        push("workloads.sweep_merge_ms", median(&ms), "ms");
    }

    // faults: phased replay of the sweep's cells under the kill plan, and
    // retries under the transient plan.
    {
        let kill = FaultPlanSpec::preset("kill").expect("kill preset").plan;
        let transient = FaultPlanSpec::preset("transient")
            .expect("transient preset")
            .plan;
        let (mut ms, mut retries, mut cells) = (Vec::new(), 0, 0);
        for cell in inp.sweep.cells().iter().take(16) {
            let models = match &inp.sweep.models {
                supersim::workloads::sweep::SweepModels::Shared(r) => r.clone(),
                _ => inp.models.registry.clone(),
            };
            let base = || {
                let sc = Scenario::new(cell.algorithm)
                    .n(cell.n)
                    .tile_size(cell.nb)
                    .workers(cell.workers)
                    .seed(cell.seed)
                    .models_shared(models.clone())
                    .backend(Backend::Des);
                match (&cell.interconnect, cell.nodes) {
                    (Some(ic), nodes) if nodes > 0 => sc
                        .cluster(ClusterSpec::new(nodes, cell.workers))
                        .interconnect(ic.build()),
                    _ => sc,
                }
            };
            let g = spans::enter("faults.phased_replay");
            let t0 = Instant::now();
            std::hint::black_box(base().faults(kill.clone()).run_faults());
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            drop(g);
            retries += spans::timed("faults.transient", || {
                base().faults(transient.clone()).run_faults()
            })
            .report
            .retries;
            cells += 1;
        }
        push("faults.phased_replay_ms", median(&ms), "ms");
        push(
            "faults.retries_per_cell",
            retries as f64 / cells.max(1) as f64,
            "count",
        );
    }

    push("calibrate.fit_ms", inp.models.fit_ms, "ms");

    // serve: request mapping and the response cache, in process.
    let bodies: Vec<String> = if inp.requests.is_empty() {
        scenarios.iter().map(request_body).collect()
    } else {
        inp.requests.clone()
    };
    let model_cache = ModelCache::new();
    let cache = ResponseCache::new();
    let (mut prep_ns, mut lookups, mut hits, mut resident) = (0.0, 0u64, 0u64, 0u64);
    let mut keys = Vec::new();
    for body in &bodies {
        let req: RunRequest = serde_json::from_str(body).expect("probe request parses");
        let g = spans::enter("serve.prepare");
        let t0 = Instant::now();
        let prepared = req.prepare(&model_cache).expect("probe request is valid");
        prep_ns += t0.elapsed().as_nanos() as f64;
        drop(g);
        lookups += 1;
        if cache.get(prepared.content_hash).is_some() {
            hits += 1;
            continue;
        }
        let session = SimSession::with_shared(prepared.models.clone(), prepared.sim_config.clone());
        let scenario = prepared.scenario.clone().session(session);
        let out = spans::timed("serve.run", || match prepared.terminal {
            Terminal::Sim => RunOutput::Sim(scenario.run_sim()),
            Terminal::Cluster => RunOutput::Cluster(scenario.run_cluster()),
            Terminal::Faults => RunOutput::Faults(scenario.run_faults()),
        });
        let doc = RunResponse {
            scenario: prepared.echo.clone(),
            result: out.doc(),
        };
        let text = serde_json::to_string(&doc).expect("response serializes");
        resident += text.len() as u64;
        cache.insert(prepared.content_hash, Arc::new(text));
        keys.push(prepared.content_hash);
    }
    push(
        "serve.prepare_us",
        prep_ns / 1e3 / bodies.len().max(1) as f64,
        "us",
    );
    {
        let reps = 20_000 / keys.len().max(1) + 1;
        let _g = spans::enter("serve.cache_get");
        let t0 = Instant::now();
        for _ in 0..reps {
            for &k in &keys {
                std::hint::black_box(cache.get(k));
            }
        }
        push(
            "serve.cache_get_ns",
            per(t0.elapsed().as_nanos() as f64, (reps * keys.len()) as u64),
            "ns",
        );
    }
    match &inp.daemon {
        Some(d) => {
            push("serve.cache_hit_ratio", d.hit_ratio, "ratio");
            push("serve.cache_resident_mb", d.resident_mb, "MB");
            push("serve.queue_wait_ms", d.queue_wait_ms, "ms");
        }
        None => {
            push(
                "serve.cache_hit_ratio",
                hits as f64 / lookups.max(1) as f64,
                "ratio",
            );
            push("serve.cache_resident_mb", resident as f64 / 1e6, "MB");
            push("serve.queue_wait_ms", 0.0, "ms");
        }
    }
    m
}

/// Ticket end times under a total order (they are finite); ties fall
/// to insertion order, as in the TEQ.
#[derive(PartialEq, Clone, Copy)]
struct EndTime(f64);
impl Eq for EndTime {}
impl Ord for EndTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl PartialOrd for EndTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
