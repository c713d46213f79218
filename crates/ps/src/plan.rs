//! Sharding plans: how each variable is synchronized and where it lives.
//!
//! A [`ShardingPlan`] is the distributed-execution artifact that
//! Parallax's graph transformation produces: for every variable, whether
//! it is replicated and AllReduce-synchronized, hosted whole on one
//! server, or row-partitioned across servers.

use parallax_dataflow::VarId;
use parallax_tensor::Tensor;

use crate::{PsError, Result};

/// An even row-partitioning of a 2-D (or 1-D, treated as single-column)
/// variable into `P` contiguous row ranges, mirroring TensorFlow's
/// `fixed_size_partitioner` on axis 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPartition {
    rows: usize,
    bounds: Vec<usize>,
}

impl RowPartition {
    /// # Examples
    ///
    /// ```
    /// use parallax_ps::RowPartition;
    /// let p = RowPartition::even(10, 3).unwrap();
    /// assert_eq!(p.range(0), 0..4);
    /// assert_eq!(p.route(5).unwrap(), (1, 1));
    /// ```
    /// Splits `rows` rows into `parts` near-equal contiguous ranges.
    pub fn even(rows: usize, parts: usize) -> Result<Self> {
        if parts == 0 {
            return Err(PsError::Plan("partition count must be positive".into()));
        }
        if parts > rows.max(1) {
            return Err(PsError::Plan(format!("{parts} partitions for {rows} rows")));
        }
        let base = rows / parts;
        let rem = rows % parts;
        let mut bounds = Vec::with_capacity(parts + 1);
        let mut off = 0usize;
        bounds.push(0);
        for i in 0..parts {
            off += base + usize::from(i < rem);
            bounds.push(off);
        }
        Ok(RowPartition { rows, bounds })
    }

    /// Builds a partition from explicit bounds **without** validating
    /// monotonicity or coverage. The static plan verifier
    /// (`parallax-core::plancheck`) is the component that diagnoses bad
    /// bounds, so its negative-path tests need a way to construct them;
    /// everything else should use [`RowPartition::even`].
    #[doc(hidden)]
    pub fn from_bounds(rows: usize, bounds: Vec<usize>) -> Self {
        RowPartition { rows, bounds }
    }

    /// The raw partition bounds: `bounds[p]..bounds[p+1]` is partition
    /// `p`'s row range. A well-formed partition has `bounds[0] == 0`,
    /// strictly increasing entries, and `bounds[parts] == rows` — the
    /// tiling invariant the plan verifier checks.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Total rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The row range of partition `p`.
    pub fn range(&self, p: usize) -> std::ops::Range<usize> {
        self.bounds[p]..self.bounds[p + 1]
    }

    /// Rows in partition `p`.
    pub fn part_rows(&self, p: usize) -> usize {
        self.bounds[p + 1] - self.bounds[p]
    }

    /// Routes a global row to `(partition, local_row)`.
    pub fn route(&self, row: usize) -> Result<(usize, usize)> {
        if row >= self.rows {
            return Err(PsError::Plan(format!(
                "row {row} out of {} rows",
                self.rows
            )));
        }
        // Bounds are sorted; find the partition whose range contains row.
        let p = match self.bounds.binary_search(&row) {
            Ok(exact) if exact == self.parts() => self.parts() - 1,
            Ok(exact) => exact,
            Err(ins) => ins - 1,
        };
        Ok((p, row - self.bounds[p]))
    }

    /// Reassembles partition tensors (row blocks in order) into the full
    /// variable — the "stitching" operation whose cost grows with `P`.
    pub fn stitch(&self, parts: &[Tensor]) -> Result<Tensor> {
        if parts.len() != self.parts() {
            return Err(PsError::Plan(format!(
                "stitch got {} parts, expected {}",
                parts.len(),
                self.parts()
            )));
        }
        let cols = parts
            .first()
            .map(|t| t.shape().as_matrix().map(|(_, c)| c))
            .transpose()?
            .unwrap_or(0);
        let mut data = Vec::with_capacity(self.rows * cols);
        for (p, t) in parts.iter().enumerate() {
            let (r, c) = t.shape().as_matrix()?;
            if r != self.part_rows(p) || c != cols {
                return Err(PsError::Plan(format!("partition {p} has shape {r}x{c}")));
            }
            data.extend_from_slice(t.data());
        }
        Ok(Tensor::new([self.rows, cols], data)?)
    }
}

/// How one variable is synchronized and placed.
#[derive(Debug, Clone, PartialEq)]
pub enum VarPlacement {
    /// Replicated on every worker; gradients exchanged by AllReduce
    /// (dense) or AllGatherv (sparse).
    AllReduce,
    /// Hosted whole on the server of one machine.
    PsDense {
        /// Hosting machine.
        server: usize,
    },
    /// Row-partitioned across servers.
    PsSparse {
        /// The row partitioning.
        partition: RowPartition,
        /// Hosting machine of each partition.
        servers: Vec<usize>,
    },
}

impl VarPlacement {
    /// True when the variable is served by the PS path.
    pub fn is_ps(&self) -> bool {
        !matches!(self, VarPlacement::AllReduce)
    }
}

/// The full per-variable plan for a graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ShardingPlan {
    placements: Vec<VarPlacement>,
}

impl ShardingPlan {
    /// Builds a plan from explicit placements (must cover every variable).
    pub fn from_placements(placements: Vec<VarPlacement>) -> Self {
        ShardingPlan { placements }
    }

    /// The placement of a variable.
    pub fn placement(&self, var: VarId) -> Result<&VarPlacement> {
        self.placements
            .get(var.index())
            .ok_or_else(|| PsError::Plan(format!("no placement for variable {}", var.index())))
    }

    /// All placements in [`VarId`] order.
    pub fn placements(&self) -> &[VarPlacement] {
        &self.placements
    }

    /// True when at least one variable is PS-hosted (servers needed).
    pub fn needs_servers(&self) -> bool {
        self.placements.iter().any(|p| p.is_ps())
    }

    /// Variables hosted (wholly or partly) on `machine`'s server, as
    /// `(var, partition_index, row_range)` shard descriptors.
    pub fn shards_of_machine(&self, machine: usize) -> Vec<(VarId, usize, std::ops::Range<usize>)> {
        let mut out = Vec::new();
        for (idx, placement) in self.placements.iter().enumerate() {
            match placement {
                VarPlacement::AllReduce => {}
                VarPlacement::PsDense { server } => {
                    if *server == machine {
                        out.push((VarId::from_index(idx), 0, 0..usize::MAX));
                    }
                }
                VarPlacement::PsSparse { partition, servers } => {
                    for (p, &s) in servers.iter().enumerate() {
                        if s == machine {
                            out.push((VarId::from_index(idx), p, partition.range(p)));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition_covers_rows() {
        let p = RowPartition::even(10, 3).unwrap();
        assert_eq!(p.parts(), 3);
        assert_eq!(p.range(0), 0..4);
        assert_eq!(p.range(1), 4..7);
        assert_eq!(p.range(2), 7..10);
        assert_eq!((0..3).map(|i| p.part_rows(i)).sum::<usize>(), 10);
    }

    #[test]
    fn route_is_total_and_consistent() {
        let p = RowPartition::even(97, 8).unwrap();
        for row in 0..97 {
            let (part, local) = p.route(row).unwrap();
            assert!(p.range(part).contains(&row));
            assert_eq!(p.range(part).start + local, row);
        }
        assert!(p.route(97).is_err());
    }

    #[test]
    fn stitch_inverts_slicing() {
        let p = RowPartition::even(5, 2).unwrap();
        let full = Tensor::new([5, 2], (0..10).map(|x| x as f32).collect()).unwrap();
        let parts: Vec<Tensor> = (0..p.parts())
            .map(|i| {
                let r = p.range(i);
                full.slice_rows(r.start, r.end).unwrap()
            })
            .collect();
        assert_eq!(p.stitch(&parts).unwrap(), full);
    }

    #[test]
    fn stitch_rejects_wrong_shapes() {
        let p = RowPartition::even(4, 2).unwrap();
        let bad = vec![Tensor::zeros([2, 2]), Tensor::zeros([1, 2])];
        assert!(p.stitch(&bad).is_err());
        assert!(p.stitch(&[Tensor::zeros([4, 2])]).is_err());
    }

    #[test]
    fn partition_bounds_validation() {
        assert!(RowPartition::even(4, 0).is_err());
        assert!(RowPartition::even(4, 5).is_err());
        assert!(RowPartition::even(4, 4).is_ok());
    }

    #[test]
    fn shards_of_machine_lists_owned() {
        let partition = RowPartition::even(8, 2).unwrap();
        let plan = ShardingPlan::from_placements(vec![
            VarPlacement::AllReduce,
            VarPlacement::PsDense { server: 1 },
            VarPlacement::PsSparse {
                partition,
                servers: vec![0, 1],
            },
        ]);
        let m0 = plan.shards_of_machine(0);
        assert_eq!(m0.len(), 1);
        assert_eq!(m0[0].1, 0);
        assert_eq!(m0[0].2, 0..4);
        let m1 = plan.shards_of_machine(1);
        assert_eq!(m1.len(), 2);
        assert!(plan.needs_servers());
    }

    #[test]
    fn pure_ar_plan_needs_no_servers() {
        let plan = ShardingPlan::from_placements(vec![VarPlacement::AllReduce]);
        assert!(!plan.needs_servers());
        assert!(plan.shards_of_machine(0).is_empty());
    }
}
