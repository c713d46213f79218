//! The hybrid architecture decision (Section 3.1).
//!
//! Dense variables go to AllReduce (symmetric network use, NCCL);
//! sparse variables go to the Parameter Server (transfer proportional
//! to `alpha`); a sparse variable whose `alpha` approaches 1 is handled
//! as dense, because NCCL's efficient bandwidth use then outweighs the
//! `1/alpha` transfer inflation.

use parallax_dataflow::Graph;
use parallax_ps::placement::SyncDecision;

use crate::config::{ArchChoice, ParallaxConfig};
use crate::sparsity::SparsityProfile;
use crate::{CoreError, Result};

/// Produces the per-variable synchronization decisions for a config.
pub fn decide(
    graph: &Graph,
    profile: &SparsityProfile,
    config: &ParallaxConfig,
    sparse_partitions: usize,
) -> Result<Vec<SyncDecision>> {
    if profile.vars.len() != graph.variables().len() {
        return Err(CoreError::Config(format!(
            "profile covers {} variables, graph has {}",
            profile.vars.len(),
            graph.variables().len()
        )));
    }
    let partitions = sparse_partitions.max(1);
    let mut decisions: Vec<SyncDecision> = profile
        .vars
        .iter()
        .map(|v| match config.arch {
            ArchChoice::ArOnly => SyncDecision::AllReduce,
            ArchChoice::PsOnly => {
                if v.sparse {
                    SyncDecision::PsSparse { partitions }
                } else {
                    SyncDecision::PsDense
                }
            }
            ArchChoice::Hybrid => {
                if v.sparse && v.alpha < config.alpha_dense_threshold {
                    SyncDecision::PsSparse { partitions }
                } else {
                    SyncDecision::AllReduce
                }
            }
        })
        .collect();
    apply_overrides(graph, config, &mut decisions)?;
    Ok(decisions)
}

/// Applies `config.decision_overrides` onto the architecture rule's
/// output, validating each override. The plan verifier re-derives
/// decisions through [`decide`] with the same config, so an override
/// accepted here is consistent by construction with the `P...` checks.
fn apply_overrides(
    graph: &Graph,
    config: &ParallaxConfig,
    decisions: &mut [SyncDecision],
) -> Result<()> {
    let mut seen = std::collections::HashSet::new();
    for &(idx, d) in &config.decision_overrides {
        if idx >= decisions.len() {
            return Err(CoreError::Config(format!(
                "decision override names variable {idx}, graph has {}",
                decisions.len()
            )));
        }
        if !seen.insert(idx) {
            return Err(CoreError::Config(format!(
                "duplicate decision override for variable {idx}"
            )));
        }
        let sparse = graph.is_sparse_variable(parallax_dataflow::VarId::from_index(idx));
        match d {
            SyncDecision::AllReduce => {}
            SyncDecision::PsDense => {
                if sparse {
                    return Err(CoreError::Config(format!(
                        "variable {idx} is sparse: it must use PsSparse or AllReduce \
                         (densify), not the dense PS path"
                    )));
                }
                if config.average_dense != config.average_sparse {
                    return Err(CoreError::Config(format!(
                        "variable {idx}: hosting a dense variable on the PS requires \
                         average_dense == average_sparse (the server applies one \
                         averaging flag to everything it hosts)"
                    )));
                }
            }
            SyncDecision::PsSparse { partitions } => {
                if !sparse {
                    return Err(CoreError::Config(format!(
                        "variable {idx} is dense: it cannot take the sparse PS path"
                    )));
                }
                if partitions == 0 {
                    return Err(CoreError::Config(format!(
                        "variable {idx}: PsSparse override needs at least one partition"
                    )));
                }
            }
        }
        decisions[idx] = d;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparsity::profile_from_parts;
    use parallax_dataflow::graph::{Init, Op, PhKind};
    use parallax_dataflow::{VarId, VariableDef};

    fn graph() -> Graph {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [1000, 8], Init::Glorot))
            .unwrap();
        let _w = g
            .variable(VariableDef::new("w", [8, 8], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        g.add(Op::Gather { table: emb, ids }).unwrap();
        g
    }

    fn profile(alpha: f64) -> SparsityProfile {
        profile_from_parts(vec![
            (VarId::from_index(0), true, alpha, 1000, 8000),
            (VarId::from_index(1), false, 1.0, 8, 64),
        ])
    }

    #[test]
    fn hybrid_routes_by_kind() {
        let g = graph();
        let d = decide(&g, &profile(0.01), &ParallaxConfig::default(), 16).unwrap();
        assert!(matches!(d[0], SyncDecision::PsSparse { partitions: 16 }));
        assert!(matches!(d[1], SyncDecision::AllReduce));
    }

    #[test]
    fn near_dense_sparse_variable_goes_to_allreduce() {
        let g = graph();
        let d = decide(&g, &profile(0.99), &ParallaxConfig::default(), 16).unwrap();
        assert!(matches!(d[0], SyncDecision::AllReduce));
    }

    #[test]
    fn baselines_override_kind() {
        let g = graph();
        let ar = decide(&g, &profile(0.01), &ParallaxConfig::horovod_baseline(), 16).unwrap();
        assert!(ar.iter().all(|d| matches!(d, SyncDecision::AllReduce)));
        let ps = decide(&g, &profile(0.01), &ParallaxConfig::tf_ps_baseline(), 16).unwrap();
        assert!(matches!(ps[0], SyncDecision::PsSparse { .. }));
        assert!(matches!(ps[1], SyncDecision::PsDense));
    }

    #[test]
    fn decision_overrides_pin_variables_after_the_arch_rule() {
        let g = graph();
        let config = ParallaxConfig {
            decision_overrides: vec![
                (0, SyncDecision::PsSparse { partitions: 7 }),
                (1, SyncDecision::PsDense),
            ],
            ..ParallaxConfig::default()
        };
        let d = decide(&g, &profile(0.99), &config, 16).unwrap();
        // The alpha escape would send var 0 to AllReduce; the override wins.
        assert!(matches!(d[0], SyncDecision::PsSparse { partitions: 7 }));
        assert!(matches!(d[1], SyncDecision::PsDense));
    }

    #[test]
    fn invalid_overrides_are_rejected() {
        let g = graph();
        let reject = |overrides: Vec<(usize, SyncDecision)>, extra: fn(&mut ParallaxConfig)| {
            let mut config = ParallaxConfig {
                decision_overrides: overrides,
                ..ParallaxConfig::default()
            };
            extra(&mut config);
            decide(&g, &profile(0.01), &config, 4).unwrap_err()
        };
        // Out of range.
        reject(vec![(9, SyncDecision::AllReduce)], |_| {});
        // Duplicate.
        reject(
            vec![(0, SyncDecision::AllReduce), (0, SyncDecision::AllReduce)],
            |_| {},
        );
        // Sparse variable on the dense PS path.
        reject(vec![(0, SyncDecision::PsDense)], |_| {});
        // Dense variable on the sparse PS path.
        reject(vec![(1, SyncDecision::PsSparse { partitions: 2 })], |_| {});
        // Zero partitions.
        reject(vec![(0, SyncDecision::PsSparse { partitions: 0 })], |_| {});
        // Dense-on-PS with mismatched averaging flags.
        reject(vec![(1, SyncDecision::PsDense)], |c| {
            c.average_dense = false;
        });
    }

    #[test]
    fn profile_size_mismatch_rejected() {
        let g = graph();
        let short = profile_from_parts(vec![(VarId::from_index(0), true, 0.1, 10, 80)]);
        assert!(decide(&g, &short, &ParallaxConfig::default(), 4).is_err());
    }
}
