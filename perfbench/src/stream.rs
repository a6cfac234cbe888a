//! The task streams of the workloads' scenarios, rebuilt from the
//! program's public access functions, so each layer can be called on
//! exactly the inputs a workload feeds it.

use std::collections::HashMap;
use supersim::cluster::{
    BlockCyclic, ClusterSpec, Coherence, Interconnect, Placement, TRANSFER_LABEL,
};
use supersim::core::SimSession;
use supersim::dag::{Access, DataId};
use supersim::des::{ReplayBody, ReplayTask};
use supersim::tile::{cholesky, lu, qr};
use supersim::workloads::{self as wl, Algorithm, SharedTiles};

/// One task of a single-node stream, in submission order.
pub struct StreamTask {
    pub label: &'static str,
    pub accesses: Vec<Access>,
    pub priority: i64,
}

/// The single-node task stream of `alg` on a `t x t` grid of `nb` tiles.
pub fn single_node(alg: Algorithm, t: usize, nb: usize) -> Vec<StreamTask> {
    let n = t * nb;
    let a = SharedTiles::layout_only(n, n, nb, 0);
    match alg {
        Algorithm::Cholesky => cholesky::task_stream(t)
            .into_iter()
            .map(|task| StreamTask {
                label: task.label(),
                accesses: wl::cholesky::accesses(&a, task),
                priority: wl::cholesky::priority(t, task),
            })
            .collect(),
        Algorithm::Qr => {
            let tg = SharedTiles::layout_only(n, n, nb, a.id_range().1);
            qr::task_stream(t)
                .into_iter()
                .map(|task| StreamTask {
                    label: task.label(),
                    accesses: wl::qr::accesses(&a, &tg, task),
                    priority: wl::qr::priority(t, task),
                })
                .collect()
        }
        Algorithm::Lu => lu::task_stream(t)
            .into_iter()
            .map(|task| StreamTask {
                label: task.label(),
                accesses: wl::lu::accesses(&a, task),
                priority: wl::lu::priority(t, task),
            })
            .collect(),
    }
}

/// The distributed form of a stream: each access carries its tile's
/// bytes and owning node under the default block-cyclic placement, and
/// the task runs on the owner of the tile it writes (owner computes).
pub struct OwnedTask {
    pub label: &'static str,
    pub accesses: Vec<(Access, usize)>,
    pub node: usize,
    pub priority: i64,
}

pub fn owner_annotated(alg: Algorithm, t: usize, nb: usize, nodes: usize) -> Vec<OwnedTask> {
    let n = t * nb;
    let a = SharedTiles::layout_only(n, n, nb, 0);
    let placement = BlockCyclic::square(nodes);
    // QR's T grid follows A's ids, tile for tile.
    let tg = SharedTiles::layout_only(n, n, nb, a.id_range().1);
    let mut home: HashMap<DataId, (usize, u64)> = HashMap::new();
    for i in 0..t {
        for j in 0..t {
            home.insert(a.data_id(i, j), (placement.owner(i, j), a.tile_bytes(i, j)));
            home.insert(
                tg.data_id(i, j),
                (placement.owner(i, j), tg.tile_bytes(i, j)),
            );
        }
    }
    single_node(alg, t, nb)
        .into_iter()
        .map(|task| {
            let accesses: Vec<(Access, usize)> = task
                .accesses
                .iter()
                .map(|acc| {
                    let (owner, bytes) = home[&acc.data];
                    (acc.with_bytes(bytes), owner)
                })
                .collect();
            let node = accesses
                .iter()
                .find(|(acc, _)| acc.mode.writes())
                .map_or(0, |(_, owner)| *owner);
            OwnedTask {
                label: task.label,
                accesses,
                node,
                priority: task.priority,
            }
        })
        .collect()
}

/// Plan the transfers of a distributed stream with the coherence layer
/// and lay the result out as the replay engine's task stream: transfers
/// pinned to the consumer's NIC lanes, then the compute task pinned to
/// its node's workers.
pub fn cluster_replay(
    owned: &[OwnedTask],
    spec: &ClusterSpec,
    ic: &dyn Interconnect,
    session: &SimSession,
    ghost_base: u64,
) -> Vec<ReplayTask> {
    let mut coherence = Coherence::new(spec.nodes, ghost_base);
    let mut tasks = Vec::with_capacity(owned.len() * 2);
    for task in owned {
        let (accesses, xfers) = coherence.plan_compute(task.node, &task.accesses, ic);
        for x in xfers {
            tasks.push(ReplayTask {
                label: TRANSFER_LABEL.to_string(),
                accesses: x.accesses,
                priority: 0,
                pin: Some(spec.nic_range(x.node)),
                body: ReplayBody::Fixed {
                    duration: x.duration,
                },
            });
        }
        tasks.push(ReplayTask {
            label: task.label.to_string(),
            accesses,
            priority: task.priority,
            pin: Some(spec.compute_range(task.node)),
            body: ReplayBody::Ranked {
                rank: session.next_rank(task.label),
            },
        });
    }
    tasks
}

/// First data id above every tile of a `t x t` grid and its QR T grid,
/// where ghost copies may start.
pub fn ghost_base(t: usize) -> u64 {
    2 * (t * t) as u64 + 16
}
