//! Cluster topology: machines and the workers (GPUs) they host.

use crate::{CommError, Result};

/// Global rank of a worker (one worker per simulated GPU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub usize);

impl WorkerId {
    /// The rank as an index.
    pub fn rank(self) -> usize {
        self.0
    }
}

/// Machines and their worker counts: worker ranks are assigned
/// machine-major, so machine 0 hosts ranks `0..gpus[0]`, machine 1 the
/// next `gpus[1]` ranks, and so on — matching how Parallax launches one
/// worker per GPU of each machine `get_runner` is given.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    gpus_per_machine: Vec<usize>,
    machine_of: Vec<usize>,
}

impl Topology {
    /// Builds a topology from per-machine GPU counts.
    pub fn new(gpus_per_machine: Vec<usize>) -> Result<Self> {
        if gpus_per_machine.is_empty() || gpus_per_machine.contains(&0) {
            return Err(CommError::InvalidConfig(
                "topology needs at least one machine, each with at least one GPU".into(),
            ));
        }
        let mut machine_of = Vec::new();
        for (m, &g) in gpus_per_machine.iter().enumerate() {
            machine_of.extend(std::iter::repeat_n(m, g));
        }
        Ok(Topology {
            gpus_per_machine,
            machine_of,
        })
    }

    /// A homogeneous cluster: `machines` machines with `gpus` GPUs each
    /// (the paper's testbed is `Topology::uniform(8, 6)`).
    pub fn uniform(machines: usize, gpus: usize) -> Result<Self> {
        Topology::new(vec![gpus; machines])
    }

    /// Total worker count.
    pub fn num_workers(&self) -> usize {
        self.machine_of.len()
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.gpus_per_machine.len()
    }

    /// The machine hosting a worker rank.
    pub fn machine_of(&self, worker: usize) -> Result<usize> {
        self.machine_of
            .get(worker)
            .copied()
            .ok_or(CommError::UnknownRank(worker))
    }

    /// Worker ranks hosted on a machine.
    pub fn workers_of(&self, machine: usize) -> Vec<usize> {
        self.machine_of
            .iter()
            .enumerate()
            .filter_map(|(w, &m)| (m == machine).then_some(w))
            .collect()
    }

    /// GPUs per machine.
    pub fn gpus_per_machine(&self) -> &[usize] {
        &self.gpus_per_machine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_layout_is_machine_major() {
        let t = Topology::uniform(3, 2).unwrap();
        assert_eq!(t.num_workers(), 6);
        assert_eq!(t.num_machines(), 3);
        assert_eq!(t.machine_of(0).unwrap(), 0);
        assert_eq!(t.machine_of(3).unwrap(), 1);
        assert_eq!(t.workers_of(2), vec![4, 5]);
    }

    #[test]
    fn heterogeneous_counts() {
        let t = Topology::new(vec![1, 3]).unwrap();
        assert_eq!(t.workers_of(0), vec![0]);
        assert_eq!(t.workers_of(1), vec![1, 2, 3]);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(Topology::new(vec![]).is_err());
        assert!(Topology::new(vec![2, 0]).is_err());
        assert!(Topology::uniform(1, 1).unwrap().machine_of(1).is_err());
    }
}
