//! Worker-side Parameter Server client and the hybrid variable provider.
//!
//! [`PsClient`] speaks the pull/push protocol; [`PsWorkerContext`]
//! bundles a client, a worker's communication endpoint and a local
//! replica store into a [`VarProvider`], so the *same* computation graph
//! executes with each variable served by whichever path the sharding
//! plan chose — the runtime realization of the paper's transformed
//! graph (Figure 6).

use std::collections::HashMap;
use std::sync::Arc;

use parallax_comm::tag::{self, ReqKind};
use parallax_comm::{Endpoint, Payload};
use parallax_dataflow::{DataflowError, VarId, VarProvider, VarStore, VariableDef};
use parallax_tensor::{sparse::Grad, IndexedSlices, Tensor};
use parallax_trace::{span, span_with_flow, FlowPoint, SpanCat};

use crate::plan::{RowPartition, ShardingPlan, VarPlacement};
use crate::topology::PsTopology;
use crate::{PsError, Result};

/// Worker-side protocol client.
#[derive(Debug)]
pub struct PsClient {
    plan: Arc<ShardingPlan>,
    topo: PsTopology,
    iter: u64,
    dense_cache: HashMap<usize, Tensor>,
}

impl PsClient {
    /// Creates a client over a plan and topology.
    pub fn new(plan: Arc<ShardingPlan>, topo: PsTopology) -> Self {
        PsClient {
            plan,
            topo,
            iter: 0,
            dense_cache: HashMap::new(),
        }
    }

    /// The plan this client routes against.
    pub fn plan(&self) -> &ShardingPlan {
        &self.plan
    }

    /// Starts iteration `iter`: clears the per-iteration pull cache.
    pub fn begin_iteration(&mut self, iter: u64) {
        self.iter = iter;
        self.dense_cache.clear();
    }

    fn request(
        &self,
        ep: &Endpoint,
        machine: usize,
        kind: ReqKind,
        var: usize,
        part: usize,
        body: Payload,
    ) -> Result<()> {
        let server = self.topo.server_rank(machine);
        let header = tag::pack(kind, var, part, self.iter);
        ep.send(
            server,
            tag::request_tag(self.iter),
            Payload::Packet {
                header,
                body: Box::new(body),
            },
        )?;
        Ok(())
    }

    /// Pulls a full dense variable from its server (cached per iteration,
    /// as each variable read appears once in the transformed graph).
    pub fn pull_dense(&mut self, ep: &mut Endpoint, var: VarId) -> Result<Tensor> {
        if let Some(t) = self.dense_cache.get(&var.index()) {
            return Ok(t.clone());
        }
        let _span = span(SpanCat::Ps, "ps.pull_dense");
        let machine = match self.plan.placement(var)? {
            VarPlacement::PsDense { server } => *server,
            other => {
                return Err(PsError::Plan(format!(
                    "pull_dense on variable with placement {other:?}"
                )))
            }
        };
        self.request(
            ep,
            machine,
            ReqKind::PullDense,
            var.index(),
            0,
            Payload::Control(0),
        )?;
        let server = self.topo.server_rank(machine);
        let t = ep
            .recv(
                server,
                tag::response_tag(ReqKind::PullDense, var.index(), 0, self.iter),
            )?
            .into_tensor()?;
        self.dense_cache.insert(var.index(), t.clone());
        Ok(t)
    }

    /// Pulls only the rows `ids` of a partitioned sparse variable: ids are
    /// routed to their partitions, each owning server gathers its rows
    /// (transferring `alpha * w` bytes instead of `w`), and the client
    /// reassembles the result in request order.
    pub fn pull_sparse(&mut self, ep: &mut Endpoint, var: VarId, ids: &[usize]) -> Result<Tensor> {
        let _span = span(SpanCat::Ps, "ps.pull_sparse");
        let (partition, servers) = self.sparse_plan(var)?;
        let parts = partition.parts();
        // Route each id to its partition, remembering output positions.
        let mut local_ids: Vec<Vec<usize>> = vec![Vec::new(); parts];
        let mut positions: Vec<Vec<usize>> = vec![Vec::new(); parts];
        for (pos, &id) in ids.iter().enumerate() {
            let (p, local) = partition.route(id)?;
            local_ids[p].push(local);
            positions[p].push(pos);
        }
        // Request every partition (empty requests included: the server's
        // per-iteration quota counts one request per worker per gather).
        for p in 0..parts {
            self.request(
                ep,
                servers[p],
                ReqKind::PullSparse,
                var.index(),
                p,
                Payload::Ids(local_ids[p].clone()),
            )?;
        }
        // Collect responses and scatter rows into place.
        let mut cols = 0usize;
        let mut rows_by_part: Vec<Tensor> = Vec::with_capacity(parts);
        for (p, &machine) in servers.iter().enumerate().take(parts) {
            let server = self.topo.server_rank(machine);
            let t = ep
                .recv(
                    server,
                    tag::response_tag(ReqKind::PullSparse, var.index(), p, self.iter),
                )?
                .into_tensor()?;
            let (_, c) = t.shape().as_matrix()?;
            cols = cols.max(c);
            rows_by_part.push(t);
        }
        let mut out = Tensor::zeros([ids.len(), cols]);
        for (p, t) in rows_by_part.iter().enumerate() {
            for (slot, &pos) in positions[p].iter().enumerate() {
                let src = t.row(slot)?;
                out.row_mut(pos)?.copy_from_slice(src);
            }
        }
        Ok(out)
    }

    /// Pushes a gradient for a PS-hosted variable: dense gradients go
    /// whole to the owning server; sparse gradients are split per
    /// partition with indices rebased to partition-local rows.
    pub fn push(&mut self, ep: &mut Endpoint, var: VarId, grad: &Grad) -> Result<()> {
        let _span = span(SpanCat::Ps, "ps.push");
        match (self.plan.placement(var)?.clone(), grad) {
            (VarPlacement::PsDense { server }, Grad::Dense(t)) => {
                // Flow start: pairs with the server's push_dense serve span.
                let _req = span_with_flow(
                    SpanCat::Ps,
                    "ps.push_req",
                    FlowPoint::Start(tag::flow_id(
                        ReqKind::PushDense,
                        var.index(),
                        0,
                        ep.rank(),
                        self.iter,
                    )),
                );
                self.request(
                    ep,
                    server,
                    ReqKind::PushDense,
                    var.index(),
                    0,
                    Payload::Tensor(Arc::new(t.clone())),
                )?;
                Ok(())
            }
            (VarPlacement::PsSparse { partition, servers }, Grad::Sparse(slices)) => {
                let parts = split_to_partitions(slices, &partition)?;
                for (p, part_grad) in parts.into_iter().enumerate() {
                    let _req = span_with_flow(
                        SpanCat::Ps,
                        "ps.push_req",
                        FlowPoint::Start(tag::flow_id(
                            ReqKind::PushSparse,
                            var.index(),
                            p,
                            ep.rank(),
                            self.iter,
                        )),
                    );
                    self.request(
                        ep,
                        servers[p],
                        ReqKind::PushSparse,
                        var.index(),
                        p,
                        Payload::Slices(Arc::new(part_grad)),
                    )?;
                }
                Ok(())
            }
            (VarPlacement::AllReduce, _) => {
                Err(PsError::Plan("push on an AllReduce variable".into()))
            }
            (placement, _) => Err(PsError::Plan(format!(
                "gradient kind does not match placement {placement:?}"
            ))),
        }
    }

    /// Chief-only: triggers the read-aggregated-gradients-and-update step
    /// for every shard of `var` (Section 5).
    pub fn chief_update(&mut self, ep: &mut Endpoint, var: VarId) -> Result<()> {
        let _span = span(SpanCat::Ps, "ps.chief_update");
        for (machine, part) in self.shard_targets(var)? {
            self.request(
                ep,
                machine,
                ReqKind::ChiefUpdate,
                var.index(),
                part,
                Payload::Control(0),
            )?;
        }
        Ok(())
    }

    /// Reads back every shard's aggregated gradient for `var` (requires
    /// the server's `serve_aggregates`; call after
    /// [`PsClient::await_update_done`]). Returns one gradient per shard
    /// in partition order — the paper's mechanism for workers that "need
    /// aggregated gradients to trace their status during training or to
    /// compute a global norm of gradients for clipping" (Section 5).
    pub fn read_aggregates(&mut self, ep: &mut Endpoint, var: VarId) -> Result<Vec<Grad>> {
        let _span = span(SpanCat::Ps, "ps.read_agg");
        let mut out = Vec::new();
        for (machine, part) in self.shard_targets(var)? {
            self.request(
                ep,
                machine,
                ReqKind::ReadAgg,
                var.index(),
                part,
                Payload::Control(0),
            )?;
            let server = self.topo.server_rank(machine);
            let payload = ep.recv(
                server,
                tag::response_tag(ReqKind::ReadAgg, var.index(), part, self.iter),
            )?;
            out.push(match payload {
                // The server may still share the aggregate with other
                // readers; clone only in that case.
                Payload::Tensor(t) => {
                    Grad::Dense(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
                }
                Payload::Slices(s) => {
                    Grad::Sparse(Arc::try_unwrap(s).unwrap_or_else(|a| (*a).clone()))
                }
                _ => return Err(PsError::Protocol("unexpected ReadAgg payload".into())),
            });
        }
        Ok(out)
    }

    /// Chief-only: fetches the current (post-update) value of a PS
    /// variable for checkpointing and snapshot publishing, stitching
    /// partitioned sparse shards back into one tensor, plus the
    /// optimizer's slot state (velocity/accum), stitched the same way.
    /// Returns `None` for AllReduce variables (their authoritative copy
    /// is the chief's local replica). Call after
    /// [`PsClient::await_update_done`] so every shard is applied.
    ///
    /// The value is row-major over the variable's *rows*; the caller
    /// reshapes to the variable's full shape. `None` state means the
    /// server's optimizer is stateless (or some shard had no state yet).
    ///
    /// The server piggybacks the state as a second message under the
    /// fetch response tag; both messages are always consumed, so callers
    /// that discard the state leave no strays in the transport.
    pub fn fetch_var_with_state(
        &mut self,
        ep: &mut Endpoint,
        var: VarId,
    ) -> Result<Option<(Tensor, Option<Tensor>)>> {
        let _span = span(SpanCat::Ps, "ps.fetch_shard");
        let targets = self.shard_targets(var)?;
        if targets.is_empty() {
            return Ok(None);
        }
        for &(machine, part) in &targets {
            self.request(
                ep,
                machine,
                ReqKind::FetchShard,
                var.index(),
                part,
                Payload::Control(0),
            )?;
        }
        let mut tensors = Vec::with_capacity(targets.len());
        let mut states = Vec::with_capacity(targets.len());
        for (machine, part) in targets {
            let server = self.topo.server_rank(machine);
            let tag = tag::response_tag(ReqKind::FetchShard, var.index(), part, self.iter);
            tensors.push(ep.recv(server, tag)?.into_tensor()?);
            states.push(match ep.recv(server, tag)? {
                Payload::Tensor(t) => Some(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone())),
                Payload::Control(_) => None,
                _ => {
                    return Err(PsError::Protocol(
                        "unexpected FetchShard state payload".into(),
                    ))
                }
            });
        }
        // All-or-nothing: a slot tensor is only meaningful if every
        // shard contributed its slice.
        let state = if states.iter().all(Option::is_some) {
            let parts: Vec<Tensor> = states.into_iter().map(|s| s.expect("checked")).collect();
            Some(match self.plan.placement(var)? {
                VarPlacement::PsDense { .. } => parts.into_iter().next().expect("one part"),
                VarPlacement::PsSparse { partition, .. } => partition.stitch(&parts)?,
                VarPlacement::AllReduce => unreachable!("empty targets handled above"),
            })
        } else {
            None
        };
        match self.plan.placement(var)? {
            VarPlacement::PsDense { .. } => Ok(Some((tensors.swap_remove(0), state))),
            VarPlacement::PsSparse { partition, .. } => {
                Ok(Some((partition.stitch(&tensors)?, state)))
            }
            VarPlacement::AllReduce => unreachable!("empty targets handled above"),
        }
    }

    /// Blocks until every shard of `var` reports its update applied (the
    /// shared-queue notification read).
    pub fn await_update_done(&mut self, ep: &mut Endpoint, var: VarId) -> Result<()> {
        // Worker-side queueing: time spent blocked on the server's
        // UpdateDone notifications.
        let _span = span(SpanCat::Ps, "ps.await_update");
        for (machine, part) in self.shard_targets(var)? {
            let server = self.topo.server_rank(machine);
            ep.recv(
                server,
                tag::response_tag(ReqKind::UpdateDone, var.index(), part, self.iter),
            )?
            .into_control()?;
        }
        Ok(())
    }

    /// `(machine, partition)` shard coordinates of a PS variable.
    fn shard_targets(&self, var: VarId) -> Result<Vec<(usize, usize)>> {
        Ok(match self.plan.placement(var)? {
            VarPlacement::AllReduce => vec![],
            VarPlacement::PsDense { server } => vec![(*server, 0)],
            VarPlacement::PsSparse { servers, .. } => servers
                .iter()
                .copied()
                .enumerate()
                .map(|(p, m)| (m, p))
                .collect(),
        })
    }

    fn sparse_plan(&self, var: VarId) -> Result<(RowPartition, Vec<usize>)> {
        match self.plan.placement(var)? {
            VarPlacement::PsSparse { partition, servers } => {
                Ok((partition.clone(), servers.clone()))
            }
            other => Err(PsError::Plan(format!(
                "sparse access to variable with placement {other:?}"
            ))),
        }
    }
}

/// Splits a global-index slice set into per-partition slice sets with
/// partition-local indices and `dense_rows` equal to each partition's row
/// count (so server-side concatenation across workers validates).
pub fn split_to_partitions(
    slices: &IndexedSlices,
    partition: &RowPartition,
) -> Result<Vec<IndexedSlices>> {
    let parts = partition.parts();
    let cols = slices.cols();
    let mut idx: Vec<Vec<usize>> = vec![Vec::new(); parts];
    let mut val: Vec<Vec<f32>> = vec![Vec::new(); parts];
    for (slot, &row) in slices.indices().iter().enumerate() {
        let (p, local) = partition.route(row)?;
        idx[p].push(local);
        val[p].extend_from_slice(&slices.values().data()[slot * cols..(slot + 1) * cols]);
    }
    idx.into_iter()
        .zip(val)
        .enumerate()
        .map(|(p, (indices, data))| {
            let n = indices.len();
            Ok(IndexedSlices::new(
                indices,
                Tensor::new([n, cols], data)?,
                partition.part_rows(p),
            )?)
        })
        .collect()
}

/// Worker-side *local aggregation* (Section 4.3): the workers of one
/// machine concatenate and coalesce their sparse gradients for `var`, so
/// that only the machine's local chief pushes to the server, cutting
/// worker->server traffic by the number of GPUs per machine. Dense
/// gradients never come here: they push per worker so the server can
/// replay the ring fold order.
///
/// Every worker on the machine must call this; the local chief receives
/// `Some(aggregate)` (and is responsible for the push), others get `None`.
pub fn locally_aggregate(
    ep: &mut Endpoint,
    topo: &PsTopology,
    iter: u64,
    var: VarId,
    grad: &IndexedSlices,
) -> Result<Option<IndexedSlices>> {
    let _span = span(SpanCat::Ps, "ps.local_agg");
    let machine = topo.machine_of(ep.rank())?;
    let peers = topo.workers_of(machine);
    let chief = topo.local_chief(machine);
    let tag = tag::local_agg_tag(var.index(), iter);
    let gathered =
        parallax_comm::collectives::gather_slices_to(ep, &peers, tag, chief, grad.clone())?;
    Ok(gathered.map(|joined| joined.coalesce()))
}

/// A worker's complete variable-access context: local replicas for
/// AllReduce variables, the PS client for server-hosted ones.
pub struct PsWorkerContext {
    /// The worker's communication endpoint.
    pub endpoint: Endpoint,
    /// The PS protocol client.
    pub client: PsClient,
    /// Local replica storage (authoritative for AllReduce variables).
    pub local: VarStore,
    /// The typed cause of the last failed pull: the executor sees a
    /// provider failure only as [`DataflowError::Provider`] text.
    failed_pull: Option<PsError>,
}

impl PsWorkerContext {
    /// Bundles the pieces into a provider.
    pub fn new(endpoint: Endpoint, client: PsClient, local: VarStore) -> Self {
        PsWorkerContext {
            endpoint,
            client,
            local,
            failed_pull: None,
        }
    }

    /// Starts an iteration (clears pull caches).
    pub fn begin_iteration(&mut self, iter: u64) {
        self.client.begin_iteration(iter);
    }

    /// Takes the typed error behind the last provider failure of a pull.
    pub fn take_failed_pull(&mut self) -> Option<PsError> {
        self.failed_pull.take()
    }

    /// Keeps a failed pull's typed error and hands the executor its text.
    fn pull_failed(&mut self, e: PsError) -> DataflowError {
        let err = provider_err(e.clone());
        self.failed_pull = Some(e);
        err
    }
}

fn provider_err(e: PsError) -> DataflowError {
    DataflowError::Provider(e.to_string())
}

impl VarProvider for PsWorkerContext {
    fn fetch_dense(&mut self, var: VarId, def: &VariableDef) -> parallax_dataflow::Result<Tensor> {
        let placement = self
            .client
            .plan
            .placement(var)
            .map_err(provider_err)?
            .clone();
        match placement {
            VarPlacement::AllReduce => self.local.fetch_dense(var, def),
            VarPlacement::PsDense { .. } => self
                .client
                .pull_dense(&mut self.endpoint, var)
                .map_err(|e| self.pull_failed(e)),
            VarPlacement::PsSparse { .. } => Err(DataflowError::Provider(format!(
                "dense read of partitioned sparse variable '{}'",
                def.name
            ))),
        }
    }

    fn fetch_sparse_rows(
        &mut self,
        var: VarId,
        def: &VariableDef,
        ids: &[usize],
    ) -> parallax_dataflow::Result<Tensor> {
        let placement = self
            .client
            .plan
            .placement(var)
            .map_err(provider_err)?
            .clone();
        match placement {
            VarPlacement::AllReduce => self.local.fetch_sparse_rows(var, def, ids),
            VarPlacement::PsDense { .. } => {
                // Unpartitioned PS variable accessed sparsely: pull the
                // needed rows from its single server via a one-partition
                // route.
                let whole = self
                    .client
                    .pull_dense(&mut self.endpoint, var)
                    .map_err(|e| self.pull_failed(e))?;
                Ok(parallax_tensor::ops::gather_rows(&whole, ids)?)
            }
            VarPlacement::PsSparse { .. } => self
                .client
                .pull_sparse(&mut self.endpoint, var, ids)
                .map_err(|e| self.pull_failed(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_to_partitions_rebases_and_sizes() {
        let partition = RowPartition::even(10, 3).unwrap();
        // Ranges: 0..4, 4..7, 7..10.
        let slices = IndexedSlices::new(
            vec![0, 5, 9, 4],
            Tensor::new([4, 1], vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
            10,
        )
        .unwrap();
        let parts = split_to_partitions(&slices, &partition).unwrap();
        assert_eq!(parts[0].indices(), &[0]);
        assert_eq!(parts[0].dense_rows(), 4);
        assert_eq!(parts[1].indices(), &[1, 0]);
        assert_eq!(parts[1].values().data(), &[2.0, 4.0]);
        assert_eq!(parts[2].indices(), &[2]);
        assert_eq!(parts[2].dense_rows(), 3);
    }

    #[test]
    fn split_reassembles_to_same_dense() {
        let partition = RowPartition::even(8, 4).unwrap();
        let slices = IndexedSlices::new(
            vec![7, 0, 3, 3],
            Tensor::new([4, 2], (0..8).map(|x| x as f32).collect()).unwrap(),
            8,
        )
        .unwrap();
        let parts = split_to_partitions(&slices, &partition).unwrap();
        // Densify each partition and stitch: must equal densifying whole.
        let stitched: Vec<Tensor> = parts.iter().map(|p| p.to_dense()).collect();
        let rebuilt = partition.stitch(&stitched).unwrap();
        assert_eq!(rebuilt, slices.to_dense());
    }

    #[test]
    fn empty_partitions_still_present() {
        let partition = RowPartition::even(6, 3).unwrap();
        let slices =
            IndexedSlices::new(vec![0], Tensor::new([1, 1], vec![1.0]).unwrap(), 6).unwrap();
        let parts = split_to_partitions(&slices, &partition).unwrap();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[1].nnz_rows(), 0);
        assert_eq!(parts[2].nnz_rows(), 0);
    }
}
