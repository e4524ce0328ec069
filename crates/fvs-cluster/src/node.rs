//! A cluster node: one machine plus its local measurement agent.

use crate::coordinator::NodeSummary;
use fvs_model::{CounterDelta, FreqMhz};
use fvs_sched::Predictor;
use fvs_sim::Machine;
use fvs_workloads::Tier;

/// One node of the cluster.
#[derive(Debug)]
pub struct ClusterNode {
    /// Node index within the cluster.
    pub id: usize,
    /// The tier this node serves (reporting only).
    pub tier: Option<Tier>,
    machine: Machine,
    predictor: Predictor,
    /// Reused per-tick sample buffer: ticking a node allocates nothing
    /// in steady state (the cluster zero-alloc proof covers this).
    samples_buf: Vec<CounterDelta>,
}

impl ClusterNode {
    /// Wrap a machine as node `id`.
    pub fn new(id: usize, machine: Machine, tier: Option<Tier>) -> Self {
        let predictor = Predictor::new(machine.num_cores(), machine.config().latencies);
        let samples_buf = Vec::with_capacity(machine.num_cores());
        ClusterNode {
            id,
            tier,
            machine,
            predictor,
            samples_buf,
        }
    }

    /// The node's machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Advance the node by one dispatch tick and feed the local
    /// predictor.
    pub fn tick(&mut self, t_s: f64) {
        self.machine.step(t_s);
        self.machine.sample_all_into(&mut self.samples_buf);
        self.predictor.push_all(&self.samples_buf, |_| {});
    }

    /// Close the local measurement window and produce the summary the
    /// coordinator needs — a few dozen bytes per processor, which is the
    /// entire cross-node communication cost of the scheme.
    pub fn summarize(&mut self) -> NodeSummary {
        let n = self.machine.num_cores();
        let now = self.machine.now_s();
        let models = (0..n)
            .map(|i| {
                let current = self.machine.core(i).requested_frequency();
                self.predictor.refit(i, current)
            })
            .collect();
        NodeSummary {
            node: self.id,
            sent_at_s: now,
            models,
            idle: (0..n).map(|i| self.machine.idle_signal(i)).collect(),
            current: (0..n)
                .map(|i| self.machine.core(i).requested_frequency())
                .collect(),
            power_w: self.machine.total_power_w(),
        }
    }

    /// Apply a frequency vector from the coordinator, one entry per core.
    /// A vector of another length, or one naming a frequency outside the
    /// machine's set, is refused whole (`false`): every core keeps its
    /// setting. A window measures one frequency: a core that changes
    /// closes its window at the old.
    pub fn apply(&mut self, freqs: &[FreqMhz]) -> bool {
        let set = self.machine.frequency_set();
        if freqs.len() != self.machine.num_cores() || !freqs.iter().all(|&f| set.contains(f)) {
            return false;
        }
        for (i, f) in freqs.iter().enumerate() {
            let current = self.machine.core(i).requested_frequency();
            if current != *f {
                self.predictor.refit(i, current);
            }
            self.machine.set_frequency(i, *f);
        }
        true
    }

    /// Aggregate processor power right now.
    pub fn power_w(&self) -> f64 {
        self.machine.total_power_w()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fvs_sim::MachineBuilder;
    use fvs_workloads::WorkloadSpec;

    #[test]
    fn summaries_contain_fitted_models() {
        let machine = MachineBuilder::p630()
            .workload(0, WorkloadSpec::synthetic(0.0, 1.0e12))
            .build();
        let mut node = ClusterNode::new(3, machine, Some(Tier::Db));
        for _ in 0..10 {
            node.tick(0.01);
        }
        let s = node.summarize();
        assert_eq!(s.node, 3);
        assert_eq!(s.models.len(), 4);
        let m = s.models[0].expect("busy core has a model");
        // Memory-bound: substantial frequency-dependent component.
        assert!(m.mem_time_per_instr > 1.0e-9);
        assert!(s.idle[1], "unassigned cores idle");
        assert_eq!(s.power_w, 560.0);
    }

    #[test]
    fn apply_sets_frequencies() {
        let machine = MachineBuilder::p630().build();
        let mut node = ClusterNode::new(0, machine, None);
        assert!(node.apply(&[FreqMhz(500), FreqMhz(600), FreqMhz(700), FreqMhz(800)]));
        assert_eq!(node.machine().effective_frequency(0), FreqMhz(500));
        assert_eq!(node.machine().effective_frequency(3), FreqMhz(800));
        assert_eq!(node.power_w(), 35.0 + 48.0 + 66.0 + 84.0);
    }
}
