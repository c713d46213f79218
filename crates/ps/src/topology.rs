//! Extended topology with one server endpoint per machine.
//!
//! Parallax "launches a (parameter) server on each machine and a worker
//! on each GPU" (Section 4.3). Communication ranks are laid out
//! machine-major with each machine's server occupying the rank after its
//! workers: machine `m` with `g` GPUs holds worker ranks
//! `off .. off+g` and server rank `off+g`.

use parallax_comm::Topology;

use crate::{PsError, Result};

/// Rank layout for a PS (or hybrid) job: workers plus per-machine servers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PsTopology {
    comm: Topology,
    gpus_per_machine: Vec<usize>,
    /// Rank offsets of each machine in the extended layout.
    offsets: Vec<usize>,
}

impl PsTopology {
    /// Builds the extended topology from per-machine GPU counts.
    pub fn new(gpus_per_machine: Vec<usize>) -> Result<Self> {
        let comm = Topology::new(gpus_per_machine.iter().map(|&g| g + 1).collect())
            .map_err(PsError::Comm)?;
        let mut offsets = Vec::with_capacity(gpus_per_machine.len());
        let mut off = 0usize;
        for &g in &gpus_per_machine {
            offsets.push(off);
            off += g + 1;
        }
        Ok(PsTopology {
            comm,
            gpus_per_machine,
            offsets,
        })
    }

    /// Homogeneous cluster.
    pub fn uniform(machines: usize, gpus: usize) -> Result<Self> {
        PsTopology::new(vec![gpus; machines])
    }

    /// The underlying communication topology (workers + servers).
    pub fn comm(&self) -> &Topology {
        &self.comm
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.gpus_per_machine.len()
    }

    /// Total number of workers (GPUs).
    pub fn num_workers(&self) -> usize {
        self.gpus_per_machine.iter().sum()
    }

    /// Total endpoints (workers + servers).
    pub fn num_endpoints(&self) -> usize {
        self.num_workers() + self.num_machines()
    }

    /// The server's communication rank on `machine`.
    pub fn server_rank(&self, machine: usize) -> usize {
        self.offsets[machine] + self.gpus_per_machine[machine]
    }

    /// All worker communication ranks, machine-major.
    pub fn worker_ranks(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.num_workers());
        for (m, &g) in self.gpus_per_machine.iter().enumerate() {
            out.extend(self.offsets[m]..self.offsets[m] + g);
        }
        out
    }

    /// Worker ranks on one machine.
    pub fn workers_of(&self, machine: usize) -> Vec<usize> {
        (self.offsets[machine]..self.offsets[machine] + self.gpus_per_machine[machine]).collect()
    }

    /// The machine hosting communication rank `rank`.
    pub fn machine_of(&self, rank: usize) -> Result<usize> {
        self.comm.machine_of(rank).map_err(PsError::Comm)
    }

    /// The position of a worker rank in [`PsTopology::worker_ranks`]
    /// order (machine-major). This is the slot index accumulators use,
    /// and the ring position for the AllReduce fold.
    pub fn worker_position(&self, rank: usize) -> Result<usize> {
        let machine = self.machine_of(rank)?;
        let off = self.offsets[machine];
        if rank >= off + self.gpus_per_machine[machine] {
            return Err(PsError::Protocol(format!(
                "rank {rank} is not a worker rank"
            )));
        }
        let before: usize = self.gpus_per_machine[..machine].iter().sum();
        Ok(before + (rank - off))
    }

    /// The *local chief* worker of a machine — the lowest worker rank,
    /// responsible for local aggregation.
    pub fn local_chief(&self, machine: usize) -> usize {
        self.offsets[machine]
    }

    /// The global chief worker (lowest worker rank overall), which
    /// triggers variable updates (Section 5).
    pub fn chief(&self) -> usize {
        self.local_chief(0)
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
    fn layout_places_server_last_per_machine() {
        let t = PsTopology::uniform(2, 3).unwrap();
        assert_eq!(t.num_endpoints(), 8);
        assert_eq!(t.worker_ranks(), vec![0, 1, 2, 4, 5, 6]);
        assert_eq!(t.server_rank(0), 3);
        assert_eq!(t.server_rank(1), 7);
    }

    #[test]
    fn server_and_workers_share_machine() {
        let t = PsTopology::uniform(2, 2).unwrap();
        assert_eq!(t.machine_of(t.server_rank(1)).unwrap(), 1);
        assert_eq!(t.machine_of(4).unwrap(), 1);
        assert_eq!(t.workers_of(1), vec![3, 4]);
    }

    #[test]
    fn chiefs() {
        let t = PsTopology::new(vec![2, 3]).unwrap();
        assert_eq!(t.chief(), 0);
        assert_eq!(t.local_chief(1), 3);
    }

    #[test]
    fn heterogeneous_offsets() {
        let t = PsTopology::new(vec![1, 4]).unwrap();
        assert_eq!(t.server_rank(0), 1);
        assert_eq!(t.worker_ranks(), vec![0, 2, 3, 4, 5]);
        assert_eq!(t.server_rank(1), 6);
    }

    #[test]
    fn worker_positions_follow_worker_ranks_order() {
        let t = PsTopology::new(vec![2, 3]).unwrap();
        for (i, r) in t.worker_ranks().into_iter().enumerate() {
            assert_eq!(t.worker_position(r).unwrap(), i);
        }
        // Server ranks are not worker positions.
        assert!(t.worker_position(t.server_rank(0)).is_err());
        assert!(t.worker_position(t.server_rank(1)).is_err());
    }
}
