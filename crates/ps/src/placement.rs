//! Variable-to-server placement strategies.
//!
//! The TF-PS baseline places variables round-robin in declaration order
//! (TensorFlow's `replica_device_setter`), which can leave one server
//! hosting most of the bytes. Parallax's optimized PS balances placement
//! greedily by byte size and spreads the partitions of one variable
//! across servers to parallelize aggregation.

use parallax_dataflow::Graph;

use crate::plan::{RowPartition, ShardingPlan, VarPlacement};
use crate::{PsError, Result};

/// How shards are assigned to server machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Round-robin in declaration order (TF `replica_device_setter`).
    RoundRobin,
    /// Greedy balance: heaviest shard first onto the least-loaded server.
    Balanced,
}

/// Per-variable synchronization decision fed into planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncDecision {
    /// Replicate and AllReduce.
    AllReduce,
    /// Host on servers, unpartitioned.
    PsDense,
    /// Host on servers, row-partitioned into the given number of parts.
    PsSparse {
        /// Partition count.
        partitions: usize,
    },
}

/// Builds a [`ShardingPlan`] from per-variable decisions.
///
/// `decisions` must have one entry per graph variable. Sparse partitions
/// are distributed round-robin over machines starting at the variable's
/// first server so consecutive partitions land on different machines
/// (parallelizing aggregation); dense PS variables are placed whole.
pub fn build_plan(
    graph: &Graph,
    decisions: &[SyncDecision],
    machines: usize,
    strategy: PlacementStrategy,
) -> Result<ShardingPlan> {
    if decisions.len() != graph.variables().len() {
        return Err(PsError::Plan(format!(
            "{} decisions for {} variables",
            decisions.len(),
            graph.variables().len()
        )));
    }
    if machines == 0 {
        return Err(PsError::Plan("no machines".into()));
    }

    // Collect shards: (var, part_count, part_index, bytes).
    struct Shard {
        var: usize,
        part: usize,
        bytes: u64,
    }
    let mut partitions: Vec<Option<RowPartition>> = vec![None; decisions.len()];
    let mut shards: Vec<Shard> = Vec::new();
    for (idx, decision) in decisions.iter().enumerate() {
        let def = &graph.variables()[idx];
        match decision {
            SyncDecision::AllReduce => {}
            SyncDecision::PsDense => {
                shards.push(Shard {
                    var: idx,
                    part: 0,
                    bytes: def.byte_size(),
                });
            }
            SyncDecision::PsSparse { partitions: p } => {
                let rows = if def.shape.rank() == 0 {
                    1
                } else {
                    def.shape.dim(0)
                };
                let cols = def.num_elements() / rows.max(1);
                let partition = RowPartition::even(rows, (*p).min(rows.max(1)))?;
                for part in 0..partition.parts() {
                    shards.push(Shard {
                        var: idx,
                        part,
                        bytes: (partition.part_rows(part) * cols * 4) as u64,
                    });
                }
                partitions[idx] = Some(partition);
            }
        }
    }

    // Assign shards to machines.
    let mut assignment: Vec<Vec<usize>> = decisions
        .iter()
        .enumerate()
        .map(|(idx, d)| match d {
            SyncDecision::PsSparse { .. } => {
                vec![0; partitions[idx].as_ref().map(|p| p.parts()).unwrap_or(0)]
            }
            _ => vec![0; 1],
        })
        .collect();
    match strategy {
        PlacementStrategy::RoundRobin => {
            for (i, shard) in shards.iter().enumerate() {
                assignment[shard.var][shard.part] = i % machines;
            }
        }
        PlacementStrategy::Balanced => {
            let mut loads = vec![0u64; machines];
            let mut order: Vec<usize> = (0..shards.len()).collect();
            order.sort_by(|&a, &b| shards[b].bytes.cmp(&shards[a].bytes).then(a.cmp(&b)));
            for i in order {
                let shard = &shards[i];
                let target = loads
                    .iter()
                    .enumerate()
                    .min_by_key(|(m, &l)| (l, *m))
                    .map(|(m, _)| m)
                    .expect("machines > 0");
                assignment[shard.var][shard.part] = target;
                loads[target] += shard.bytes;
            }
        }
    }

    // Materialize placements.
    let placements = decisions
        .iter()
        .enumerate()
        .map(|(idx, d)| match d {
            SyncDecision::AllReduce => VarPlacement::AllReduce,
            SyncDecision::PsDense => VarPlacement::PsDense {
                server: assignment[idx][0],
            },
            SyncDecision::PsSparse { .. } => VarPlacement::PsSparse {
                partition: partitions[idx].clone().expect("partition built above"),
                servers: assignment[idx].clone(),
            },
        })
        .collect();
    Ok(ShardingPlan::from_placements(placements))
}

/// The TF-PS baseline decision vector: every variable on the PS, sparse
/// variables (by usage analysis) partitioned into `sparse_partitions`.
pub fn naive_ps_decisions(graph: &Graph, sparse_partitions: usize) -> Vec<SyncDecision> {
    graph
        .var_ids()
        .map(|v| {
            if graph.is_sparse_variable(v) {
                SyncDecision::PsSparse {
                    partitions: sparse_partitions,
                }
            } else {
                SyncDecision::PsDense
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::VariableDef;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [100, 8], Init::Glorot))
            .unwrap();
        let _w1 = g
            .variable(VariableDef::new("w1", [8, 8], Init::Glorot))
            .unwrap();
        let _w2 = g
            .variable(VariableDef::new("w2", [8, 4], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        g.add(Op::Gather { table: emb, ids }).unwrap();
        g
    }

    #[test]
    fn naive_puts_everything_on_ps() {
        let g = graph();
        let d = naive_ps_decisions(&g, 4);
        assert!(matches!(d[0], SyncDecision::PsSparse { partitions: 4 }));
        assert!(matches!(d[1], SyncDecision::PsDense));
        assert!(matches!(d[2], SyncDecision::PsDense));
    }

    #[test]
    fn round_robin_spreads_partitions() {
        let g = graph();
        let plan = build_plan(
            &g,
            &naive_ps_decisions(&g, 4),
            2,
            PlacementStrategy::RoundRobin,
        )
        .unwrap();
        match plan.placement(g.find_variable("emb").unwrap()).unwrap() {
            VarPlacement::PsSparse { servers, .. } => {
                assert_eq!(servers, &vec![0, 1, 0, 1]);
            }
            other => panic!("unexpected placement {other:?}"),
        }
    }

    #[test]
    fn balanced_equalizes_bytes() {
        let mut g = Graph::new();
        g.variable(VariableDef::new("big", [1000, 10], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("small1", [10, 10], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("small2", [10, 10], Init::Glorot))
            .unwrap();
        let d = vec![SyncDecision::PsDense; 3];
        let plan = build_plan(&g, &d, 2, PlacementStrategy::Balanced).unwrap();
        // Big variable on one machine, both small ones on the other.
        let big_server = match plan.placement(g.find_variable("big").unwrap()).unwrap() {
            VarPlacement::PsDense { server } => *server,
            _ => unreachable!(),
        };
        for name in ["small1", "small2"] {
            match plan.placement(g.find_variable(name).unwrap()).unwrap() {
                VarPlacement::PsDense { server } => assert_ne!(*server, big_server),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn partitions_capped_at_rows() {
        let mut g = Graph::new();
        let v = g
            .variable(VariableDef::new("tiny", [3, 2], Init::Glorot))
            .unwrap();
        let d = vec![SyncDecision::PsSparse { partitions: 16 }];
        let plan = build_plan(&g, &d, 2, PlacementStrategy::Balanced).unwrap();
        match plan.placement(v).unwrap() {
            VarPlacement::PsSparse { partition, .. } => assert_eq!(partition.parts(), 3),
            _ => unreachable!(),
        }
    }

    #[test]
    fn wrong_decision_count_rejected() {
        let g = graph();
        assert!(build_plan(&g, &[], 2, PlacementStrategy::Balanced).is_err());
    }
}
