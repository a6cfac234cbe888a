//! `serve_mix`: the resident daemon over loopback, driven in a closed
//! loop by `nproc` client connections, each waiting for its reply before
//! sending the next request.

use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use supersim::dist::Distribution;
use supersim::runtime::SchedulerKind;
use supersim::serve::{
    client_request, ClientResponse, ServeConfig, Server, ServerHandle, SweepRequest,
};
use supersim::trace::TraceEvent;
use supersim::workloads::Algorithm;
use supersim::workloads::SweepSpec;

use crate::checks::SpanCheck;
use crate::common::{
    calibrate_models, closed_form_tasks, ms_since, nproc, Models, Rng, SetupSamples, Tally,
    ALGORITHMS, MIN_TIMED_OPS, SETUP_DURING,
};
use crate::scenario::{Cluster, Sc};
use crate::spans;

const TIMEOUT: Duration = Duration::from_secs(60);

/// Flush epoch of streamed spans, in virtual seconds. The largest
/// streamed scenario spans a few epochs, far below the daemon's 256
/// batch channel, so no span is ever dropped.
const STREAM_EPOCH: f64 = 0.1;

/// A cold `/run` scenario.
#[derive(Clone, Copy, Debug)]
pub struct RunSc {
    pub alg: Algorithm,
    pub tiles: usize,
    pub nb: usize,
    pub workers: usize,
    /// Nodes of a 4-workers-per-node Hockney cluster, or 0.
    pub nodes: usize,
    pub seed: u64,
}

impl RunSc {
    pub fn tasks(&self) -> u64 {
        closed_form_tasks(self.alg, self.tiles)
    }
}

/// A small `/sweep` matrix.
#[derive(Clone, Debug)]
pub struct SweepSc {
    pub alg: Algorithm,
    pub tiles: [usize; 2],
    pub nb: usize,
    pub workers: [usize; 2],
    pub seed: u64,
}

pub const SWEEP_PLANS: [&str; 2] = ["clean", "transient"];

#[derive(Clone, Debug)]
pub enum Req {
    /// A scenario no earlier request asked for: the cache misses and
    /// stores the response.
    Cold(RunSc),
    /// The cold request at this index of the client's round, again: the
    /// cache answers.
    Repeat(usize),
    /// [`FIXED_STREAM`], streamed as ndjson (never cached).
    Stream,
    Sweep(SweepSc),
}

/// Position pattern of one client's round: 17 cold, 10 repeated, 1
/// streamed and 3 sweep requests. The proportions are an assumption:
/// there is no measured request mix for the daemon to copy. They are
/// chosen so the median falls inside the cold requests' latencies and
/// the 95th percentile inside the three sweeps', not on the edge between
/// two kinds, where it would jump from run to run; the cache hit ratio
/// and the kind of request the 95th percentile measures follow from
/// this choice, not from any real traffic.
const PATTERN: &str = "CCRCCRCSCRWCCRCCRCWCRCCRCRCRCRW";

/// The streamed request, the same in every run: its result event does
/// not match the plain answer (a streamed run reports `trace_events: 0`
/// and the empty trace's hash), so it fails every time and is counted as
/// a known fault. Its inputs do not depend on `--seed`, so the failed
/// share is the same in every run.
pub const FIXED_STREAM: &str = r#"{"algorithm":"cholesky","tiles":8,"tile_size":128,"workers":4,"seed":20141,"backend":"des","models":{"type":"synthetic","mu":-6.2,"sigma":0.15}"#;
const FIXED_STREAM_TASKS: u64 = 120;

/// Cold request `slot` of a round: every fourth one a 4-node cluster.
/// Algorithm, tiles and workers are fixed per slot so every seed has the
/// same mix of work; the seed draws the tile size and duration seed.
fn run_sc(rng: &mut Rng, slot: usize) -> RunSc {
    let cluster = slot % 4 == 3;
    RunSc {
        alg: if cluster {
            [Algorithm::Cholesky, Algorithm::Lu][slot / 4 % 2]
        } else {
            ALGORITHMS[slot % 3]
        },
        tiles: 6 + (slot * 3) % 7,
        nb: rng.pick(&[64, 128, 192]),
        workers: [4, 8, 16][slot % 3],
        nodes: if cluster { 4 } else { 0 },
        seed: rng.next_u64() % 1_000_000_000,
    }
}

/// One round per client, the same shapes for every client. The `j`-th
/// repeat asks again for the `j`-th cold request, whose answer is in the
/// cache by then.
pub fn operations(seed: u64, clients: usize) -> Vec<Vec<Req>> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    (0..clients)
        .map(|_| {
            let (mut colds, mut repeats) = (0, 0);
            PATTERN
                .chars()
                .map(|c| match c {
                    'C' => {
                        colds += 1;
                        Req::Cold(run_sc(&mut rng, colds - 1))
                    }
                    'R' => {
                        repeats += 1;
                        Req::Repeat(repeats - 1)
                    }
                    'S' => Req::Stream,
                    _ => Req::Sweep(SweepSc {
                        alg: Algorithm::Lu,
                        tiles: [4, 9],
                        nb: rng.pick(&[64, 128]),
                        workers: [2, 6],
                        seed: rng.next_u64() % 1_000_000,
                    }),
                })
                .collect()
        })
        .collect()
}

pub struct Serve {
    pub models: Models,
    pub clients: Vec<Vec<Req>>,
    pub handle: Option<ServerHandle>,
    pub addr: SocketAddr,
    /// Log-normal parameters of the synthetic models requests ask for,
    /// taken from the calibrated dgemm.
    pub mu: f64,
    pub sigma: f64,
    /// The plain answer to [`FIXED_STREAM`], fetched at set-up, and its
    /// client-side latency in ms.
    pub reference: String,
    pub reference_ms: f64,
}

pub fn boot() -> (ServerHandle, SocketAddr) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: nproc(),
        queue: 4 * nproc(),
        default_timeout_ms: 60_000,
        retry_after_secs: 1,
    })
    .expect("bind a loopback port");
    let handle = server.spawn();
    let addr = handle.addr;
    let health =
        client_request(addr, "GET", "/healthz", "", TIMEOUT).expect("daemon answers /healthz");
    assert_eq!(health.status, 200, "healthz: {}", health.body);
    (handle, addr)
}

pub fn setup(seed: u64) -> (Serve, f64) {
    let t0 = Instant::now();
    let models = spans::timed("setup.calibrate", || calibrate_models(seed));
    let sigma = 0.15;
    let mu = models.registry.expect("dgemm").dist.mean().ln() - sigma * sigma / 2.0;
    let clients = operations(seed, nproc());
    let (handle, addr) = spans::timed("setup.boot", boot);
    let sent = Instant::now();
    let reference = client_request(addr, "POST", "/run", &format!("{FIXED_STREAM}}}"), TIMEOUT)
        .expect("daemon answers the reference request");
    let reference_ms = ms_since(sent);
    assert_eq!(
        reference.status, 200,
        "reference request: {}",
        reference.body
    );
    let secs = t0.elapsed().as_secs_f64();
    (
        Serve {
            models,
            clients,
            handle: Some(handle),
            addr,
            mu,
            sigma,
            reference: reference.body,
            reference_ms,
        },
        secs,
    )
}

/// The Hockney cluster of cold cluster requests: 4 workers per node.
const CLUSTER_WORKERS: usize = 4;
const CLUSTER_LATENCY: f64 = 2e-6;
const CLUSTER_BANDWIDTH: f64 = 1e10;

impl Serve {
    fn run_body(&self, sc: &RunSc, seed: u64, stream: bool) -> String {
        let cluster = if sc.nodes > 0 {
            format!(
                r#","cluster":{{"nodes":{},"workers_per_node":{CLUSTER_WORKERS},"interconnect":"hockney","latency":{CLUSTER_LATENCY:?},"bandwidth":{CLUSTER_BANDWIDTH:?}}}"#,
                sc.nodes
            )
        } else {
            String::new()
        };
        let stream = if stream {
            format!(r#","stream":true,"stream_epoch":{STREAM_EPOCH}"#)
        } else {
            String::new()
        };
        format!(
            r#"{{"algorithm":"{}","tiles":{},"tile_size":{},"scheduler":"quark","workers":{},"seed":{seed},"backend":"des","models":{{"type":"synthetic","mu":{:?},"sigma":{:?}}}{cluster}{stream}}}"#,
            sc.alg.name(),
            sc.tiles,
            sc.nb,
            sc.workers,
            self.mu,
            self.sigma
        )
    }

    fn sweep_body(&self, sw: &SweepSc) -> String {
        format!(
            r#"{{"algorithms":["{}"],"tile_counts":[{},{}],"tile_sizes":[{}],"worker_counts":[{},{}],"node_counts":[0],"plans":{:?},"seeds":[{}],"backend":"des","models":{{"type":"synthetic","mu":{:?},"sigma":{:?}}}}}"#,
            sw.alg.name(),
            sw.tiles[0],
            sw.tiles[1],
            sw.nb,
            sw.workers[0],
            sw.workers[1],
            SWEEP_PLANS,
            sw.seed,
            self.mu,
            self.sigma
        )
    }

    /// The traced run's inputs: the first round's cold scenarios, their
    /// request bodies, and the first sweep request's matrix.
    pub fn layer_inputs(&self) -> (Vec<Sc>, Vec<String>, SweepSpec) {
        let mut scenarios = Vec::new();
        let mut requests = Vec::new();
        let mut sweep = None;
        for r in self.clients.iter().flatten() {
            match r {
                Req::Cold(rs) => {
                    scenarios.push(Sc {
                        alg: rs.alg,
                        tiles: rs.tiles,
                        nb: rs.nb,
                        workers: rs.workers,
                        scheduler: SchedulerKind::Quark,
                        cluster: (rs.nodes > 0).then_some(Cluster {
                            nodes: rs.nodes,
                            workers_per_node: CLUSTER_WORKERS,
                            latency: CLUSTER_LATENCY,
                            bandwidth: CLUSTER_BANDWIDTH,
                        }),
                        seed: rs.seed,
                    });
                    requests.push(self.run_body(rs, rs.seed, false));
                }
                Req::Sweep(sw) if sweep.is_none() => {
                    let req: SweepRequest =
                        serde_json::from_str(&self.sweep_body(sw)).expect("sweep request parses");
                    sweep = Some(req.spec().expect("sweep request is valid"));
                }
                _ => {}
            }
        }
        (scenarios, requests, sweep.expect("a round holds sweeps"))
    }

    pub fn shutdown(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// What one client learned in its rounds.
#[derive(Default)]
pub struct ClientLog {
    pub tally: Tally,
    pub hits: u64,
    pub lookups: u64,
    /// Bytes of distinct cached bodies this client caused.
    pub cached_bytes: u64,
    /// Requests sent and their summed client-side latency in ms.
    pub requests: u64,
    pub client_ms: f64,
    /// Whole rounds this client finished.
    pub rounds: u64,
}

fn json(body: &str) -> Result<serde_json::Value, String> {
    serde_json::from_str(body).map_err(|e| format!("bad JSON: {e}"))
}

fn num(v: &serde_json::Value, path: &[&str]) -> Result<f64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("missing {}", path.join(".")))?;
    }
    match cur {
        serde_json::Value::Number(x) => Ok(*x),
        _ => Err(format!("{} is not a number", path.join("."))),
    }
}

fn text<'a>(v: &'a serde_json::Value, path: &[&str]) -> Result<&'a str, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("missing {}", path.join(".")))?;
    }
    match cur {
        serde_json::Value::String(s) => Ok(s),
        _ => Err(format!("{} is not a string", path.join("."))),
    }
}

fn expect_status(resp: &ClientResponse, cache: Option<&str>) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.body.trim()));
    }
    if let Some(want) = cache {
        let got = resp.header("x-cache").unwrap_or("none");
        if got != want {
            return Err(format!("X-Cache {got}, expected {want}"));
        }
    }
    Ok(())
}

/// Check a cold `/run` answer against the request; returns its tasks.
fn check_cold(sc: &RunSc, seed: u64, resp: &ClientResponse) -> Result<u64, String> {
    expect_status(resp, Some("miss"))?;
    let v = json(&resp.body)?;
    if text(&v, &["scenario", "algorithm"])? != sc.alg.name()
        || num(&v, &["scenario", "n"])? != (sc.tiles * sc.nb) as f64
        || num(&v, &["scenario", "seed"])? != seed as f64
    {
        return Err("response echoes another scenario".to_string());
    }
    let tasks = num(&v, &["result", "tasks"])? as u64;
    let transfers = if sc.nodes > 0 {
        num(&v, &["result", "transfers"])? as u64
    } else {
        0
    };
    if tasks != sc.tasks() + transfers || num(&v, &["result", "trace_events"])? as u64 != tasks {
        return Err(format!(
            "{tasks} tasks, closed form {} + {transfers} transfers",
            sc.tasks()
        ));
    }
    if sc.nodes > 0 && transfers == 0 {
        return Err("cluster run moved no tiles".to_string());
    }
    let makespan = num(&v, &["result", "predicted_seconds"])?;
    if makespan <= 0.0 || !makespan.is_finite() {
        return Err("non-positive makespan".to_string());
    }
    Ok(tasks)
}

/// The fields of a `/run` answer that the known fault of streamed runs
/// gets wrong.
const STREAM_FAULT_FIELDS: [&str; 2] = ["trace_events", "trace_hash"];

/// A `/run` answer without [`STREAM_FAULT_FIELDS`].
fn without_fault_fields(mut doc: serde_json::Value) -> serde_json::Value {
    if let serde_json::Value::Object(fields) = &mut doc {
        for (key, value) in fields.iter_mut() {
            if let ("result", serde_json::Value::Object(result)) = (key.as_str(), value) {
                result.retain(|(k, _)| !STREAM_FAULT_FIELDS.contains(&k.as_str()));
            }
        }
    }
    doc
}

/// Check the streamed answer to [`FIXED_STREAM`]: every span line
/// passes the lane checks, the span count is the closed form, and the
/// final result event equals the plain answer in every field but
/// [`STREAM_FAULT_FIELDS`]. The second result compares those two
/// fields: the known fault.
fn check_stream(
    reference: &str,
    resp: &ClientResponse,
) -> (Result<u64, String>, Result<(), String>) {
    let checked = (|| {
        expect_status(resp, Some("miss"))?;
        let plain = json(reference)?;
        let makespan = num(&plain, &["result", "predicted_seconds"])?;
        let mut check = SpanCheck::new(4, "");
        let mut result = None;
        for line in resp.body.lines() {
            let v = json(line)?;
            match text(&v, &["event"])? {
                "span" => check.observe(&[TraceEvent {
                    worker: num(&v, &["worker"])? as usize,
                    kernel: text(&v, &["kernel"])?.to_string(),
                    task_id: num(&v, &["task_id"])? as u64,
                    start: num(&v, &["start"])?,
                    end: num(&v, &["end"])?,
                }]),
                "result" => result = v.get("data").cloned(),
                "progress" => {}
                other => return Err(format!("stream event {other}: {line}")),
            }
        }
        check.finish(makespan, FIXED_STREAM_TASKS)?;
        let streamed = result.ok_or_else(|| "stream ended without a result".to_string())?;
        if without_fault_fields(streamed.clone()) != without_fault_fields(plain.clone()) {
            return Err("streamed result event differs from the plain answer".to_string());
        }
        Ok((streamed, plain))
    })();
    match checked {
        Err(e) => (Err(e), Ok(())),
        Ok((streamed, plain)) => {
            let field = |doc: &serde_json::Value, key: &str| {
                doc.get("result").and_then(|r| r.get(key)).cloned()
            };
            let wrong: Vec<&str> = STREAM_FAULT_FIELDS
                .into_iter()
                .filter(|key| field(&streamed, key) != field(&plain, key))
                .collect();
            let fault = if wrong.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "streamed result event reports another {}",
                    wrong.join(" and ")
                ))
            };
            (Ok(FIXED_STREAM_TASKS), fault)
        }
    }
}

/// The benchmark's own cell count for a `/sweep` request, and the
/// closed-form task check of every cell.
fn check_sweep(sw: &SweepSc, resp: &ClientResponse) -> Result<u64, String> {
    expect_status(resp, None)?;
    let v = json(&resp.body)?;
    let want = sw.tiles.len() * sw.workers.len() * SWEEP_PLANS.len();
    let cells = match v.get("cells") {
        Some(serde_json::Value::Array(c)) => c,
        _ => return Err("no cells".to_string()),
    };
    if cells.len() != want || num(&v, &["cells_total"])? as usize != want {
        return Err(format!("{} cells, the axes give {want}", cells.len()));
    }
    let mut tasks = 0;
    for c in cells {
        let t = (num(c, &["n"])? / num(c, &["nb"])?) as usize;
        let n = closed_form_tasks(sw.alg, t);
        let got = num(c, &["tasks"])? as u64;
        let ok = match text(c, &["plan"])? {
            "clean" => got == n,
            _ => got >= n && num(c, &["retries"])? > 0.0,
        };
        if !ok {
            return Err(format!("cell t={t} has {got} tasks, closed form {n}"));
        }
        tasks += got;
    }
    Ok(tasks)
}

/// One client's closed loop: whole rounds of its request list until the
/// run time is spent and its share of the minimum operation count is
/// reached. Round `r` re-seeds every cold scenario so it is cold again;
/// a later segment of the timed phase starts at `first_round`.
fn client(
    st: &Serve,
    me: usize,
    seconds: f64,
    min_ops: usize,
    first_round: u64,
    start: &Barrier,
) -> ClientLog {
    let mut log = ClientLog::default();
    let reqs = &st.clients[me];
    start.wait();
    let t0 = Instant::now();
    let mut round = first_round;
    loop {
        let (round_start, round_tasks) = (Instant::now(), log.tally.tasks);
        let mut bodies: Vec<(RunSc, u64, String)> = Vec::new();
        for req in reqs {
            let (kind, body, cold) = match req {
                Req::Cold(sc) => {
                    let seed = sc.seed + round * 1_000_003 + me as u64 * 7_919;
                    ("cold", st.run_body(sc, seed, false), Some((*sc, seed)))
                }
                Req::Repeat(i) => (
                    "repeat",
                    st.run_body(&bodies[*i].0, bodies[*i].1, false),
                    None,
                ),
                Req::Stream => (
                    "stream",
                    format!(r#"{FIXED_STREAM},"stream":true,"stream_epoch":{STREAM_EPOCH}}}"#),
                    None,
                ),
                Req::Sweep(sw) => ("sweep", st.sweep_body(sw), None),
            };
            let path = if matches!(req, Req::Sweep(_)) {
                "/sweep"
            } else {
                "/run"
            };
            let guard = spans::enter(&format!("op.{kind}"));
            let t = Instant::now();
            let resp = client_request(st.addr, "POST", path, &body, TIMEOUT);
            let ms = ms_since(t);
            drop(guard);
            let _g = spans::enter("check.serve");
            log.tally.latencies_ms.push(ms);
            log.requests += 1;
            log.client_ms += ms;
            let resp = match resp {
                Ok(r) => r,
                Err(e) => {
                    // A later repeat of this request then fails its
                    // byte comparison instead of asking for another.
                    if let Some((sc, seed)) = cold {
                        bodies.push((sc, seed, String::new()));
                    }
                    log.tally.check(kind, Err(e.to_string()));
                    continue;
                }
            };
            let result = match req {
                Req::Cold(_) => {
                    let (sc, seed) = cold.expect("cold request");
                    log.lookups += 1;
                    let r = check_cold(&sc, seed, &resp);
                    log.cached_bytes += resp.body.len() as u64;
                    bodies.push((sc, seed, resp.body));
                    r
                }
                Req::Repeat(i) => {
                    log.lookups += 1;
                    if resp.header("x-cache") == Some("hit") {
                        log.hits += 1;
                    }
                    expect_status(&resp, Some("hit")).and_then(|()| {
                        if resp.body == bodies[*i].2 {
                            json(&resp.body)
                                .and_then(|v| num(&v, &["result", "tasks"]).map(|t| t as u64))
                        } else {
                            Err("cached body differs from the cold body".to_string())
                        }
                    })
                }
                Req::Stream => {
                    let (spans, same) = check_stream(&st.reference, &resp);
                    if spans.is_ok() {
                        log.tally.known_fault("stream", same);
                        log.tally.tasks += FIXED_STREAM_TASKS;
                        continue;
                    }
                    spans
                }
                Req::Sweep(sw) => check_sweep(sw, &resp),
            };
            if let Ok(tasks) = result {
                log.tally.tasks += tasks;
            }
            log.tally.check(kind, result.map(|_| ()));
        }
        let rate = (log.tally.tasks - round_tasks) as f64 / round_start.elapsed().as_secs_f64();
        log.tally.round_rates.push(rate);
        round += 1;
        if t0.elapsed().as_secs_f64() >= seconds && log.tally.latencies_ms.len() >= min_ops {
            break;
        }
    }
    log.rounds = round - first_round;
    log
}

/// Figures read back from the daemon's `/metrics` after the timed phase.
pub struct DaemonFigures {
    /// Mean ms a request spent outside the daemon's handler: client-side
    /// latency minus the handler latency the daemon reports.
    pub queue_wait_ms: f64,
    pub hits: u64,
    pub misses: u64,
}

/// The daemon records a request's latency just after answering it, so
/// the last answers may not be counted yet: read `/metrics` until the
/// handled count reaches the requests sent, for at most a second.
fn daemon_figures(
    addr: SocketAddr,
    client_ms: f64,
    requests: u64,
) -> Result<DaemonFigures, String> {
    let mut last = Err("no /metrics read".to_string());
    for _ in 0..20 {
        last = read_figures(addr, client_ms, requests);
        if last.is_ok() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    last
}

fn read_figures(addr: SocketAddr, client_ms: f64, requests: u64) -> Result<DaemonFigures, String> {
    let resp = client_request(addr, "GET", "/metrics", "", TIMEOUT).map_err(|e| e.to_string())?;
    let v = json(&resp.body)?;
    let mut handler_ns = 0.0;
    let mut handled = 0.0;
    if let Some(serde_json::Value::Array(hs)) = v.get("histograms") {
        for h in hs {
            if matches!(
                text(h, &["name"])?,
                "serve.latency.run" | "serve.latency.sweep"
            ) {
                handler_ns += num(h, &["sum_ns"])?;
                handled += num(h, &["count"])?;
            }
        }
    }
    let counter = |name: &str| -> u64 {
        match v.get("counters") {
            Some(serde_json::Value::Array(cs)) => cs
                .iter()
                .find(|c| text(c, &["name"]).ok() == Some(name))
                .and_then(|c| num(c, &["value"]).ok())
                .map_or(0, |x| x as u64),
            _ => 0,
        }
    };
    if handled as u64 != requests {
        return Err(format!(
            "daemon handled {handled} requests, clients sent {requests}"
        ));
    }
    Ok(DaemonFigures {
        queue_wait_ms: (client_ms - handler_ns / 1e6) / requests.max(1) as f64,
        hits: counter("serve.cache.hit"),
        misses: counter("serve.cache.miss"),
    })
}

pub struct ServeRun {
    pub hits: u64,
    pub lookups: u64,
    pub cached_bytes: u64,
    pub figures: Option<DaemonFigures>,
}

/// One segment of the timed phase: every client runs whole rounds for
/// `seconds`, client `me` starting at round `first_round[me]`.
fn segment(st: &Serve, seconds: f64, min_ops: usize, first_round: &[u64]) -> Vec<ClientLog> {
    let clients = st.clients.len();
    let start = Barrier::new(clients + 1);
    let logs: Mutex<Vec<(usize, ClientLog)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (me, &first) in first_round.iter().enumerate() {
            let (start, logs) = (&start, &logs);
            scope.spawn(move || {
                let log = client(st, me, seconds, min_ops, first, start);
                logs.lock().expect("client log lock").push((me, log));
            });
        }
        start.wait();
    });
    let mut logs = logs.into_inner().expect("client logs");
    logs.sort_by_key(|(me, _)| *me);
    logs.into_iter().map(|(_, log)| log).collect()
}

/// The timed phase, in [`SETUP_DURING`] + 1 equal segments with one
/// set-up repetition between consecutive ones, while the clients wait.
pub fn run(
    st: &mut Serve,
    seconds: f64,
    tally: &mut Tally,
    samples: &mut SetupSamples,
) -> ServeRun {
    let clients = st.clients.len();
    let segments = SETUP_DURING + 1;
    let min_ops = MIN_TIMED_OPS.div_ceil(clients).div_ceil(segments);
    let mut next_round = vec![0u64; clients];
    let mut logs = Vec::new();
    for k in 0..segments {
        if k > 0 {
            samples.take();
        }
        for (me, log) in segment(st, seconds / segments as f64, min_ops, &next_round)
            .into_iter()
            .enumerate()
        {
            next_round[me] += log.rounds;
            logs.push(log);
        }
    }
    let mut out = ServeRun {
        hits: 0,
        lookups: 0,
        cached_bytes: 0,
        figures: None,
    };
    // The daemon also served the set-up's reference request.
    let (mut client_ms, mut requests) = (st.reference_ms, 1);
    for log in logs {
        out.hits += log.hits;
        out.lookups += log.lookups;
        out.cached_bytes += log.cached_bytes;
        client_ms += log.client_ms;
        requests += log.requests;
        tally.merge(log.tally);
    }
    tally.loops = clients;
    let figures = daemon_figures(st.addr, client_ms, requests);
    // The daemon's own counters must agree with what the clients saw;
    // the set-up's reference request is one more miss.
    let agree = figures.as_ref().map_err(String::clone).and_then(|f| {
        if f.hits == out.hits && f.hits + f.misses == out.lookups + 1 {
            Ok(())
        } else {
            Err(format!(
                "daemon counts {} hits / {} misses, clients saw {} / {}",
                f.hits, f.misses, out.hits, out.lookups
            ))
        }
    });
    tally.run_check("daemon metrics", agree);
    out.figures = figures.ok();
    st.shutdown();
    out
}
