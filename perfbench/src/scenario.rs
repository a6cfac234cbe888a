//! A workload scenario as plain data: the benchmark's operation lists
//! are vectors of these, and the traced run feeds the same values to
//! each layer.

use std::sync::Arc;
use supersim::cluster::{ClusterSpec, Hockney, Interconnect};
use supersim::core::{ModelRegistry, SimConfig, SimSession};
use supersim::runtime::SchedulerKind;
use supersim::workloads::{Algorithm, Backend, Scenario};

use crate::common::closed_form_tasks;

#[derive(Clone, Copy, Debug)]
pub struct Cluster {
    pub nodes: usize,
    pub workers_per_node: usize,
    pub latency: f64,
    pub bandwidth: f64,
}

impl Cluster {
    pub fn interconnect(&self) -> Arc<dyn Interconnect> {
        Arc::new(Hockney::new(self.latency, self.bandwidth))
    }

    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec::new(self.nodes, self.workers_per_node)
            .with_nic_lanes(self.interconnect().default_nic_lanes())
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Sc {
    pub alg: Algorithm,
    pub tiles: usize,
    pub nb: usize,
    pub workers: usize,
    pub scheduler: SchedulerKind,
    pub cluster: Option<Cluster>,
    pub seed: u64,
}

impl Sc {
    /// Compute tasks, from the closed form.
    pub fn tasks(&self) -> u64 {
        closed_form_tasks(self.alg, self.tiles)
    }

    /// Lanes the trace may use: workers, or compute plus NIC lanes.
    pub fn lanes(&self) -> usize {
        match &self.cluster {
            Some(c) => c.spec().total_workers(),
            None => self.workers,
        }
    }

    pub fn session(&self, models: &Arc<ModelRegistry>) -> Arc<SimSession> {
        SimSession::with_shared(
            models.clone(),
            SimConfig {
                seed: self.seed,
                ..SimConfig::default()
            },
        )
    }

    /// The program's scenario builder for this value, on `backend`.
    pub fn scenario(&self, session: Arc<SimSession>, backend: Backend) -> Scenario {
        let s = Scenario::new(self.alg)
            .tiles(self.tiles)
            .tile_size(self.nb)
            .workers(self.workers)
            .scheduler(self.scheduler)
            .seed(self.seed)
            .session(session)
            .backend(backend);
        match &self.cluster {
            Some(c) => s.cluster(c.spec()).interconnect(c.interconnect()),
            None => s,
        }
    }
}
