//! Server-side gradient accumulators.
//!
//! Parallax "place\[s\] accumulators on servers to aggregate the gradients
//! of sparse variables, where each accumulator handles gradients of a
//! single sparse variable" (Section 5). An accumulator knows how many
//! pushes to expect per synchronous step (all workers, or one local
//! chief per machine under local aggregation) and releases the aggregate
//! exactly once when complete.
//!
//! Both accumulators are *positional*: a push names the slot it fills
//! (the pusher's worker position, or its machine under local
//! aggregation) and the release folds the slots in a canonical order
//! that is independent of arrival order. This is what makes every
//! placement strategy bitwise interchangeable:
//!
//! * dense slots fold through [`ring_reduce_reference`], the exact
//!   per-chunk association the ring AllReduce produces, so a variable
//!   moved between AllReduce and a PS shard keeps identical bits;
//! * sparse slots fold machine-blocked — coalesce each machine's slots
//!   in slot order, then coalesce the per-machine subtotals in machine
//!   order — the only association compatible with local aggregation
//!   both on (chiefs pre-sum their machine) and off.

use parallax_comm::collectives::ring_reduce_reference;
use parallax_tensor::{IndexedSlices, Tensor};

use crate::{PsError, Result};

/// Accumulates dense gradient pushes positionally; the release replays
/// the ring-AllReduce fold over the slots so the aggregate is bitwise
/// identical to what a ring over the same contributions would produce.
#[derive(Debug, Clone)]
pub struct DenseAccumulator {
    slots: Vec<Option<Tensor>>,
    received: usize,
}

impl DenseAccumulator {
    /// An accumulator expecting one push per slot position per step.
    pub fn new(expected: usize) -> Self {
        DenseAccumulator {
            slots: vec![None; expected],
            received: 0,
        }
    }

    /// Adds the push for slot `position`; returns the ring-ordered sum
    /// when the step is complete and resets for the next step.
    pub fn push(&mut self, position: usize, grad: Tensor) -> Result<Option<Tensor>> {
        if position >= self.slots.len() {
            return Err(PsError::Protocol(format!(
                "dense push position {position} out of range (expected {})",
                self.slots.len()
            )));
        }
        if self.slots[position].is_some() {
            return Err(PsError::Protocol("dense accumulator overfilled".into()));
        }
        if let Some(first) = self.slots.iter().flatten().next() {
            if first.shape() != grad.shape() {
                return Err(PsError::Protocol(format!(
                    "dense push shape {:?} != accumulated {:?}",
                    grad.shape(),
                    first.shape()
                )));
            }
        }
        self.slots[position] = Some(grad);
        self.received += 1;
        if self.received < self.slots.len() {
            return Ok(None);
        }
        self.received = 0;
        let parts: Vec<Tensor> = self
            .slots
            .iter_mut()
            .map(|s| s.take().expect("all slots filled"))
            .collect();
        let views: Vec<&[f32]> = parts.iter().map(|t| t.data()).collect();
        let folded = ring_reduce_reference(&views).map_err(|e| PsError::Protocol(e.to_string()))?;
        let shape = parts[0].shape().clone();
        Ok(Some(Tensor::new(shape, folded).map_err(PsError::Tensor)?))
    }

    /// True when mid-step.
    pub fn is_pending(&self) -> bool {
        self.received > 0
    }
}

/// Accumulates sparse gradient pushes positionally, coalescing (merging
/// duplicate row indices) on release in the canonical machine-blocked
/// order: each machine's slots coalesce first (ascending slot order),
/// then the per-machine subtotals coalesce in machine order.
#[derive(Debug, Clone)]
pub struct SparseAccumulator {
    machine_of: Vec<usize>,
    slots: Vec<Option<IndexedSlices>>,
    received: usize,
}

impl SparseAccumulator {
    /// An accumulator with one slot per pusher, each its own machine
    /// block (correct when each pusher already holds a full machine
    /// subtotal — the local-aggregation arrangement — or when every
    /// machine contributes exactly one pusher).
    pub fn new(expected: usize) -> Self {
        SparseAccumulator::grouped((0..expected).collect())
    }

    /// An accumulator whose slot `i` belongs to machine `machine_of[i]`.
    /// Slots must be machine-major (non-decreasing machine ids), the
    /// order `PsTopology::worker_ranks` yields.
    pub fn grouped(machine_of: Vec<usize>) -> Self {
        debug_assert!(
            machine_of.windows(2).all(|w| w[0] <= w[1]),
            "sparse accumulator slots must be machine-major"
        );
        let slots = vec![None; machine_of.len()];
        SparseAccumulator {
            machine_of,
            slots,
            received: 0,
        }
    }

    /// Adds the push for slot `position`; returns the machine-blocked
    /// coalesced aggregate when complete.
    pub fn push(&mut self, position: usize, grad: IndexedSlices) -> Result<Option<IndexedSlices>> {
        if position >= self.slots.len() {
            return Err(PsError::Protocol(format!(
                "sparse push position {position} out of range (expected {})",
                self.slots.len()
            )));
        }
        if self.slots[position].is_some() {
            return Err(PsError::Protocol("sparse accumulator overfilled".into()));
        }
        self.slots[position] = Some(grad);
        self.received += 1;
        if self.received < self.slots.len() {
            return Ok(None);
        }
        self.received = 0;
        let parts: Vec<IndexedSlices> = self
            .slots
            .iter_mut()
            .map(|s| s.take().expect("all slots filled"))
            .collect();
        // Canonical machine-blocked fold: each machine's contributions
        // coalesce in slot order, then the machine subtotals coalesce in
        // machine order. A subtotal pushed by a local chief is already
        // sorted-unique, and coalescing is idempotent on such input, so
        // pre-aggregated pushes pass through the inner level unchanged.
        Ok(Some(IndexedSlices::coalesce_grouped(
            &parts,
            &self.machine_of,
        )?))
    }

    /// True when mid-step.
    pub fn is_pending(&self) -> bool {
        self.received > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_releases_sum_exactly_once() {
        let mut acc = DenseAccumulator::new(3);
        assert!(acc.push(0, Tensor::full([2], 1.0)).unwrap().is_none());
        assert!(acc.push(2, Tensor::full([2], 2.0)).unwrap().is_none());
        let sum = acc.push(1, Tensor::full([2], 3.0)).unwrap().unwrap();
        assert_eq!(sum.data(), &[6.0, 6.0]);
        assert!(!acc.is_pending());
        // Next step starts fresh.
        assert!(acc.push(0, Tensor::full([2], 1.0)).unwrap().is_none());
        assert!(acc.is_pending());
    }

    #[test]
    fn dense_release_is_arrival_order_independent() {
        // Non-associative values: the release must fold in ring order,
        // not arrival order, so any arrival permutation gives the same
        // bits.
        let grads = [
            Tensor::new([3], vec![0.1, 1e8, 7.25]).unwrap(),
            Tensor::new([3], vec![0.2, -1e8, 0.5]).unwrap(),
            Tensor::new([3], vec![0.3, 1.0, -0.125]).unwrap(),
        ];
        let mut reference: Option<Vec<u32>> = None;
        for order in [[0usize, 1, 2], [2, 1, 0], [1, 0, 2], [2, 0, 1]] {
            let mut acc = DenseAccumulator::new(3);
            let mut out = None;
            for &pos in &order {
                out = acc.push(pos, grads[pos].clone()).unwrap();
            }
            let bits: Vec<u32> = out.unwrap().data().iter().map(|f| f.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(want) => assert_eq!(&bits, want, "order {order:?}"),
            }
        }
    }

    #[test]
    fn dense_single_pusher_releases_immediately() {
        let mut acc = DenseAccumulator::new(1);
        let sum = acc.push(0, Tensor::full([1], 5.0)).unwrap().unwrap();
        assert_eq!(sum.data(), &[5.0]);
    }

    #[test]
    fn sparse_coalesces_across_pushers() {
        let mut acc = SparseAccumulator::new(2);
        let a = IndexedSlices::new(vec![1, 3], Tensor::full([2, 2], 1.0), 5).unwrap();
        let b = IndexedSlices::new(vec![3], Tensor::full([1, 2], 2.0), 5).unwrap();
        assert!(acc.push(0, a).unwrap().is_none());
        let merged = acc.push(1, b).unwrap().unwrap();
        assert_eq!(merged.indices(), &[1, 3]);
        assert_eq!(merged.values().data(), &[1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    fn sparse_grouped_matches_preaggregated_machines() {
        // Two machines × two workers each; a row touched twice on the
        // second machine. The grouped release must equal coalescing each
        // machine first (what local chiefs do), not a flat fold.
        let mk = |v: f32| IndexedSlices::new(vec![2], Tensor::full([1, 1], v), 4).unwrap();
        let parts = [mk(0.1), mk(1e8), mk(-1e8), mk(0.3)];
        let mut grouped = SparseAccumulator::grouped(vec![0, 0, 1, 1]);
        let mut out = None;
        for (i, p) in parts.iter().enumerate() {
            out = grouped.push(i, p.clone()).unwrap();
        }
        let grouped_bits: Vec<u32> = out
            .unwrap()
            .values()
            .data()
            .iter()
            .map(|f| f.to_bits())
            .collect();
        // Pre-aggregate per machine, then push one subtotal per machine.
        let m0 = IndexedSlices::coalesce_parts(&parts[0..2]).unwrap();
        let m1 = IndexedSlices::coalesce_parts(&parts[2..4]).unwrap();
        let mut chiefs = SparseAccumulator::new(2);
        assert!(chiefs.push(0, m0).unwrap().is_none());
        let merged = chiefs.push(1, m1).unwrap().unwrap();
        let chief_bits: Vec<u32> = merged.values().data().iter().map(|f| f.to_bits()).collect();
        assert_eq!(grouped_bits, chief_bits);
    }

    #[test]
    fn completed_accumulators_reset_for_the_next_step() {
        let mut acc = DenseAccumulator::new(1);
        assert!(acc.push(0, Tensor::zeros([1])).unwrap().is_some());
        // Completed and reset; the next step starts a fresh sum.
        assert!(acc.push(0, Tensor::zeros([1])).unwrap().is_some());
        let mut sparse = SparseAccumulator::new(1);
        assert!(sparse
            .push(0, IndexedSlices::empty(4, 1))
            .unwrap()
            .is_some());
        assert!(sparse
            .push(0, IndexedSlices::empty(4, 1))
            .unwrap()
            .is_some());
    }

    #[test]
    fn dense_shape_mismatch_surfaces() {
        let mut acc = DenseAccumulator::new(2);
        acc.push(0, Tensor::zeros([2])).unwrap();
        assert!(acc.push(1, Tensor::zeros([3])).is_err());
    }

    #[test]
    fn duplicate_position_is_a_protocol_error() {
        let mut acc = DenseAccumulator::new(2);
        acc.push(1, Tensor::zeros([2])).unwrap();
        assert!(acc.push(1, Tensor::zeros([2])).is_err());
        let mut sparse = SparseAccumulator::new(2);
        sparse.push(0, IndexedSlices::empty(4, 1)).unwrap();
        assert!(sparse.push(0, IndexedSlices::empty(4, 1)).is_err());
    }
}
