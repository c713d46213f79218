//! Gradient-descent optimizers.
//!
//! Optimizers apply a [`Grad`] to a parameter tensor in place. They are
//! used in two positions in the reproduction: AllReduce replicas update
//! their local copies, and Parameter Server shards update server-resident
//! partitions — so the update API works on bare tensors, keyed by an
//! opaque slot id for optimizers with state.
//!
//! Applies are **row-sharded** across the shared compute pool when the
//! parameter is large enough: every update rule here is elementwise (or
//! row-local for sparse gradients), so splitting the parameter into
//! disjoint row chunks changes nothing about the per-element arithmetic
//! order and results stay bitwise identical at every thread count.
//! Each chunk holds at least [`APPLY_MIN_ROWS`] rows.

use std::collections::HashMap;

use parallax_tensor::{ops, pool, sparse::Grad, IndexedSlices, Tensor};

use crate::Result;

/// Minimum parameter rows per pool chunk for sharded applies.
pub const APPLY_MIN_ROWS: usize = 64;

/// Rows of a parameter as the sharder counts them (rank-0 scalars and
/// rank-1 vectors are a single row).
fn param_rows(param: &Tensor) -> usize {
    if param.shape().rank() < 2 {
        1
    } else {
        param.shape().dim(0)
    }
}

/// Splits `param` (and `state`, when present — always the same shape)
/// into the same disjoint row chunks and runs `body(param_chunk,
/// state_chunk, grad_chunk)` for each, across the pool when worthwhile.
/// All three buffers have identical length.
fn sharded_dense(
    param: &mut [f32],
    state: Option<&mut [f32]>,
    grad: &[f32],
    rows: usize,
    body: impl Fn(&mut [f32], Option<&mut [f32]>, &[f32]) + Sync,
) {
    debug_assert_eq!(param.len(), grad.len());
    let chunks = pool::effective_threads().min(rows / APPLY_MIN_ROWS).max(1);
    if chunks <= 1 || param.is_empty() {
        body(param, state, grad);
        return;
    }
    let row_len = param.len() / rows;
    let base_rows = rows / chunks;
    let extra = rows % chunks;
    let start = |c: usize| (c * base_rows + c.min(extra)) * row_len;
    // Disjoint element ranges of the same buffers; share base pointers
    // as addresses so the dispatch closure stays Sync (pool.rs idiom).
    let p_addr = param.as_mut_ptr() as usize;
    let s_addr = state.map(|s| {
        debug_assert_eq!(s.len(), grad.len());
        s.as_mut_ptr() as usize
    });
    pool::run_batch(chunks, &|c| {
        let (lo, hi) = (start(c), start(c + 1));
        // SAFETY: [lo, hi) ranges are disjoint across chunks and lie
        // within buffers that outlive the batch (run_batch blocks).
        let p = unsafe { std::slice::from_raw_parts_mut((p_addr as *mut f32).add(lo), hi - lo) };
        // SAFETY: same disjoint [lo, hi) range, on the state buffer,
        // which is the same length as the gradient (asserted above).
        let s = s_addr
            .map(|a| unsafe { std::slice::from_raw_parts_mut((a as *mut f32).add(lo), hi - lo) });
        body(p, s, &grad[lo..hi]);
    });
}

/// Runs `body(param_row, state_row, grad_row)` for every coalesced
/// slice row, sharding the row list across the pool when worthwhile.
/// Coalesced indices are strictly increasing, so the parameter (and
/// state) rows touched by different chunks are disjoint. Falls back to
/// the serial path — which surfaces the ordinary `row_mut` error — when
/// an index is out of range or the slices are not coalesced.
fn sharded_sparse(
    param: &mut Tensor,
    state: Option<&mut Tensor>,
    merged: &IndexedSlices,
    body: impl Fn(&mut [f32], Option<&mut [f32]>, &[f32]) + Sync,
) -> Result<()> {
    let k = merged.indices().len();
    let cols = merged.cols();
    let chunks = pool::effective_threads().min(k / APPLY_MIN_ROWS).max(1);
    let prows = param_rows(param);
    let disjoint = merged.indices().windows(2).all(|w| w[0] < w[1])
        && merged.indices().last().is_none_or(|&i| i < prows)
        && param.data().len() == prows * cols
        && state
            .as_ref()
            .is_none_or(|s| s.data().len() == prows * cols);
    if chunks <= 1 || !disjoint {
        let mut state = state;
        for (slot_idx, &row) in merged.indices().iter().enumerate() {
            let src = &merged.values().data()[slot_idx * cols..(slot_idx + 1) * cols];
            let prow = param.row_mut(row)?;
            match state.as_deref_mut() {
                Some(s) => body(prow, Some(s.row_mut(row)?), src),
                None => body(prow, None, src),
            }
        }
        return Ok(());
    }
    let base = k / chunks;
    let extra = k % chunks;
    let start = |c: usize| c * base + c.min(extra);
    let p_addr = param.data_mut().as_mut_ptr() as usize;
    let s_addr = state.map(|s| s.data_mut().as_mut_ptr() as usize);
    let indices = merged.indices();
    let values = merged.values().data();
    pool::run_batch(chunks, &|c| {
        for r in start(c)..start(c + 1) {
            let row = indices[r];
            // SAFETY: indices are strictly increasing and in range
            // (checked above), so every `r` touches a distinct row of
            // buffers that outlive the batch.
            let prow = unsafe {
                std::slice::from_raw_parts_mut((p_addr as *mut f32).add(row * cols), cols)
            };
            // SAFETY: same distinct row, on the state buffer, whose
            // dimensions were checked against the parameter above.
            let srow = s_addr.map(|a| unsafe {
                std::slice::from_raw_parts_mut((a as *mut f32).add(row * cols), cols)
            });
            body(prow, srow, &values[r * cols..(r + 1) * cols]);
        }
    });
    Ok(())
}

/// A learning-rate schedule, evaluated per iteration on both replicas
/// and servers so every update site stays in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply the rate by `factor` every `every` iterations.
    StepDecay {
        /// Iterations between decays.
        every: u64,
        /// Multiplicative factor per decay (e.g. 0.5).
        factor: f32,
    },
}

impl LrSchedule {
    /// # Examples
    ///
    /// ```
    /// use parallax_dataflow::optimizer::LrSchedule;
    /// let s = LrSchedule::StepDecay { every: 10, factor: 0.5 };
    /// assert_eq!(s.at(1.0, 25), 0.25);
    /// ```
    /// The learning rate at `iteration` given the base rate.
    pub fn at(&self, base: f32, iteration: u64) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, factor } => {
                let steps = iteration.checked_div(every).unwrap_or(0);
                base * factor.powi(steps as i32)
            }
        }
    }
}

/// A stateful parameter-update rule.
pub trait Optimizer: Send {
    /// Applies a dense gradient to `param`. `slot` identifies the parameter
    /// (or parameter partition) for optimizers that keep per-parameter state.
    fn apply_dense(&mut self, slot: u64, param: &mut Tensor, grad: &Tensor) -> Result<()>;

    /// Applies a sparse gradient to `param`, touching only the rows present
    /// in `grad` (this is what makes sparse updates cheap on servers).
    fn apply_sparse(&mut self, slot: u64, param: &mut Tensor, grad: &IndexedSlices) -> Result<()>;

    /// Applies either kind of gradient.
    fn apply(&mut self, slot: u64, param: &mut Tensor, grad: &Grad) -> Result<()> {
        match grad {
            Grad::Dense(g) => self.apply_dense(slot, param, g),
            Grad::Sparse(s) => self.apply_sparse(slot, param, s),
        }
    }

    /// The optimizer's learning rate (for reporting).
    fn learning_rate(&self) -> f32;

    /// Updates the learning rate (schedules re-set it per iteration).
    fn set_learning_rate(&mut self, lr: f32);

    /// Name of this optimizer's per-parameter state ("velocity",
    /// "accum"), or `None` for stateless rules. Checkpoints use it to
    /// tag serialized slot tensors.
    fn state_name(&self) -> Option<&'static str> {
        None
    }

    /// The state tensor kept for `slot`, if any (checkpoint export).
    fn export_slot(&self, _slot: u64) -> Option<&Tensor> {
        None
    }

    /// Installs a restored state tensor for `slot` (checkpoint import).
    /// Stateless optimizers ignore it.
    fn import_slot(&mut self, _slot: u64, _state: Tensor) {}
}

/// Plain stochastic gradient descent: `theta -= lr * g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn apply_dense(&mut self, _slot: u64, param: &mut Tensor, grad: &Tensor) -> Result<()> {
        if param.shape() != grad.shape() {
            // Delegate the shape mismatch to the serial kernel's error.
            ops::axpy(-self.lr, grad, param)?;
            return Ok(());
        }
        let lr = self.lr;
        let rows = param_rows(param);
        sharded_dense(param.data_mut(), None, grad.data(), rows, |p, _, g| {
            for (d, s) in p.iter_mut().zip(g) {
                *d += -lr * s;
            }
        });
        Ok(())
    }

    fn apply_sparse(&mut self, _slot: u64, param: &mut Tensor, grad: &IndexedSlices) -> Result<()> {
        let merged = grad.coalesce();
        let lr = self.lr;
        sharded_sparse(param, None, &merged, |dst, _, src| {
            for (d, s) in dst.iter_mut().zip(src) {
                *d -= lr * s;
            }
        })
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// SGD with classical momentum.
#[derive(Debug, Clone)]
pub struct Momentum {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient.
    pub mu: f32,
    velocity: HashMap<u64, Tensor>,
}

impl Momentum {
    /// Creates a momentum optimizer.
    pub fn new(lr: f32, mu: f32) -> Self {
        Momentum {
            lr,
            mu,
            velocity: HashMap::new(),
        }
    }
}

impl Optimizer for Momentum {
    fn apply_dense(&mut self, slot: u64, param: &mut Tensor, grad: &Tensor) -> Result<()> {
        if param.shape() != grad.shape() {
            return ops::axpy(-self.lr, grad, param).map_err(Into::into);
        }
        // State entry-or-insert happens before the parallel region; the
        // chunk bodies only see disjoint row slices of it.
        let v = self
            .velocity
            .entry(slot)
            .or_insert_with(|| Tensor::zeros(param.shape().clone()));
        let (lr, mu) = (self.lr, self.mu);
        let rows = param_rows(param);
        sharded_dense(
            param.data_mut(),
            Some(v.data_mut()),
            grad.data(),
            rows,
            |p, v, g| {
                let v = v.expect("velocity chunk");
                for (vi, gi) in v.iter_mut().zip(g.iter()) {
                    *vi = mu * *vi + gi;
                }
                for (pi, vi) in p.iter_mut().zip(v.iter()) {
                    *pi += -lr * vi;
                }
            },
        );
        Ok(())
    }

    fn apply_sparse(&mut self, slot: u64, param: &mut Tensor, grad: &IndexedSlices) -> Result<()> {
        // Momentum for sparse rows: decay and update only touched rows,
        // matching TensorFlow's sparse momentum semantics.
        let merged = grad.coalesce();
        let v = self
            .velocity
            .entry(slot)
            .or_insert_with(|| Tensor::zeros(param.shape().clone()));
        let (lr, mu) = (self.lr, self.mu);
        sharded_sparse(param, Some(v), &merged, |prow, vrow, src| {
            let vrow = vrow.expect("velocity row");
            for (vi, gi) in vrow.iter_mut().zip(src) {
                *vi = mu * *vi + gi;
            }
            for (p, vi) in prow.iter_mut().zip(vrow.iter()) {
                *p -= lr * vi;
            }
        })
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_name(&self) -> Option<&'static str> {
        Some("velocity")
    }

    fn export_slot(&self, slot: u64) -> Option<&Tensor> {
        self.velocity.get(&slot)
    }

    fn import_slot(&mut self, slot: u64, state: Tensor) {
        self.velocity.insert(slot, state);
    }
}

/// Adagrad: per-element adaptive learning rates, commonly used for the
/// sparse embedding variables of NLP models.
#[derive(Debug, Clone)]
pub struct Adagrad {
    /// Base learning rate.
    pub lr: f32,
    /// Numerical-stability floor.
    pub eps: f32,
    accum: HashMap<u64, Tensor>,
}

impl Adagrad {
    /// Creates an Adagrad optimizer.
    pub fn new(lr: f32) -> Self {
        Adagrad {
            lr,
            eps: 1e-8,
            accum: HashMap::new(),
        }
    }
}

impl Optimizer for Adagrad {
    fn apply_dense(&mut self, slot: u64, param: &mut Tensor, grad: &Tensor) -> Result<()> {
        if param.shape() != grad.shape() {
            return ops::axpy(-self.lr, grad, param).map_err(Into::into);
        }
        let acc = self
            .accum
            .entry(slot)
            .or_insert_with(|| Tensor::zeros(param.shape().clone()));
        let (lr, eps) = (self.lr, self.eps);
        let rows = param_rows(param);
        sharded_dense(
            param.data_mut(),
            Some(acc.data_mut()),
            grad.data(),
            rows,
            |p, a, g| {
                let a = a.expect("accumulator chunk");
                for ((pi, ai), gi) in p.iter_mut().zip(a.iter_mut()).zip(g.iter()) {
                    *ai += gi * gi;
                    *pi -= lr * gi / (ai.sqrt() + eps);
                }
            },
        );
        Ok(())
    }

    fn apply_sparse(&mut self, slot: u64, param: &mut Tensor, grad: &IndexedSlices) -> Result<()> {
        let merged = grad.coalesce();
        let acc = self
            .accum
            .entry(slot)
            .or_insert_with(|| Tensor::zeros(param.shape().clone()));
        let (lr, eps) = (self.lr, self.eps);
        sharded_sparse(param, Some(acc), &merged, |prow, arow, src| {
            let arow = arow.expect("accumulator row");
            for ((p, a), g) in prow.iter_mut().zip(arow.iter_mut()).zip(src) {
                *a += g * g;
                *p -= lr * (g / (a.sqrt() + eps));
            }
        })
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn state_name(&self) -> Option<&'static str> {
        Some("accum")
    }

    fn export_slot(&self, slot: u64) -> Option<&Tensor> {
        self.accum.get(&slot)
    }

    fn import_slot(&mut self, slot: u64, state: Tensor) {
        self.accum.insert(slot, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(indices: Vec<usize>, rows: Vec<Vec<f32>>, dense_rows: usize) -> IndexedSlices {
        let cols = rows[0].len();
        let flat: Vec<f32> = rows.concat();
        IndexedSlices::new(
            indices.clone(),
            Tensor::new([indices.len(), cols], flat).unwrap(),
            dense_rows,
        )
        .unwrap()
    }

    #[test]
    fn lr_schedule_step_decay() {
        let s = LrSchedule::StepDecay {
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.at(1.0, 0), 1.0);
        assert_eq!(s.at(1.0, 9), 1.0);
        assert_eq!(s.at(1.0, 10), 0.5);
        assert_eq!(s.at(1.0, 25), 0.25);
        assert_eq!(LrSchedule::Constant.at(0.3, 1000), 0.3);
        // Degenerate `every = 0` never decays.
        assert_eq!(
            LrSchedule::StepDecay {
                every: 0,
                factor: 0.5
            }
            .at(1.0, 50),
            1.0
        );
    }

    #[test]
    fn set_learning_rate_applies() {
        let mut opt = Sgd::new(0.1);
        opt.set_learning_rate(0.01);
        assert_eq!(opt.learning_rate(), 0.01);
    }

    #[test]
    fn sgd_dense_step() {
        let mut opt = Sgd::new(0.1);
        let mut p = Tensor::full([3], 1.0);
        opt.apply_dense(0, &mut p, &Tensor::full([3], 2.0)).unwrap();
        assert_eq!(p.data(), &[0.8, 0.8, 0.8]);
    }

    #[test]
    fn sgd_sparse_equals_densified_sgd() {
        let g = sparse(
            vec![0, 2, 0],
            vec![vec![1., 2.], vec![3., 4.], vec![5., 6.]],
            4,
        );
        let mut p1 = Tensor::full([4, 2], 1.0);
        let mut p2 = p1.clone();
        Sgd::new(0.5).apply_sparse(0, &mut p1, &g).unwrap();
        Sgd::new(0.5)
            .apply_dense(0, &mut p2, &g.to_dense())
            .unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let mut opt = Momentum::new(0.1, 0.9);
        let mut p = Tensor::zeros([1]);
        let g = Tensor::full([1], 1.0);
        let mut last_step = 0.0f32;
        let mut prev = 0.0f32;
        for _ in 0..5 {
            opt.apply_dense(0, &mut p, &g).unwrap();
            let step = (prev - p.data()[0]).abs();
            assert!(step > last_step, "momentum grows the step");
            last_step = step;
            prev = p.data()[0];
        }
    }

    #[test]
    fn adagrad_shrinks_effective_rate() {
        let mut opt = Adagrad::new(1.0);
        let mut p = Tensor::zeros([1]);
        let g = Tensor::full([1], 2.0);
        opt.apply_dense(0, &mut p, &g).unwrap();
        let first = -p.data()[0];
        opt.apply_dense(0, &mut p, &g).unwrap();
        let second = -p.data()[0] - first;
        assert!(second < first, "second step smaller: {second} < {first}");
    }

    #[test]
    fn adagrad_sparse_touches_only_given_rows() {
        let mut opt = Adagrad::new(0.5);
        let mut p = Tensor::full([3, 2], 1.0);
        let g = sparse(vec![1], vec![vec![1.0, 1.0]], 3);
        opt.apply_sparse(0, &mut p, &g).unwrap();
        assert_eq!(p.row(0).unwrap(), &[1.0, 1.0]);
        assert_ne!(p.row(1).unwrap(), &[1.0, 1.0]);
        assert_eq!(p.row(2).unwrap(), &[1.0, 1.0]);
    }

    #[test]
    fn sharded_applies_are_bitwise_identical_to_serial() {
        // 400 rows: at 4 threads the dense apply splits into four
        // chunks of 100 rows and the sparse one (267 touched rows) into
        // four of at least `APPLY_MIN_ROWS`; one thread stays serial.
        let rows = 400usize;
        let cols = 5usize;
        let dense_grad = Tensor::new(
            [rows, cols],
            (0..rows * cols)
                .map(|i| ((i * 37 % 113) as f32 - 56.0) * 0.037)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let touched: Vec<usize> = (0..rows).filter(|r| r % 3 != 1).collect();
        assert!(touched.len() >= 4 * APPLY_MIN_ROWS);
        let sparse_grad = IndexedSlices::new(
            touched.clone(),
            Tensor::new(
                [touched.len(), cols],
                (0..touched.len() * cols)
                    .map(|i| ((i * 17 % 41) as f32 - 20.0) * 0.09)
                    .collect::<Vec<_>>(),
            )
            .unwrap(),
            rows,
        )
        .unwrap();
        let builders: Vec<fn() -> Box<dyn Optimizer>> = vec![
            || Box::new(Sgd::new(0.1)),
            || Box::new(Momentum::new(0.1, 0.9)),
            || Box::new(Adagrad::new(0.1)),
        ];
        for build in builders {
            let mut serial = build();
            let mut sharded = build();
            let mut p_serial = Tensor::full([rows, cols], 1.0);
            let mut p_sharded = p_serial.clone();
            for step in 0..3 {
                parallax_tensor::pool::configure_threads(1);
                serial.apply_dense(7, &mut p_serial, &dense_grad).unwrap();
                serial.apply_sparse(7, &mut p_serial, &sparse_grad).unwrap();
                parallax_tensor::pool::configure_threads(4);
                sharded.apply_dense(7, &mut p_sharded, &dense_grad).unwrap();
                sharded
                    .apply_sparse(7, &mut p_sharded, &sparse_grad)
                    .unwrap();
                assert_eq!(p_serial, p_sharded, "step {step}");
            }
            assert_eq!(
                serial.export_slot(7),
                sharded.export_slot(7),
                "optimizer state matches"
            );
        }
    }

    #[test]
    fn slot_export_import_roundtrip() {
        let mut opt = Momentum::new(0.1, 0.9);
        assert_eq!(opt.state_name(), Some("velocity"));
        assert!(opt.export_slot(3).is_none());
        let mut p = Tensor::full([4, 2], 1.0);
        opt.apply_dense(3, &mut p, &Tensor::full([4, 2], 0.5))
            .unwrap();
        let v = opt.export_slot(3).expect("velocity exists").clone();
        let mut restored = Momentum::new(0.1, 0.9);
        restored.import_slot(3, v.clone());
        assert_eq!(restored.export_slot(3), Some(&v));
        // Stateless SGD exports nothing and ignores imports.
        let mut sgd = Sgd::new(0.1);
        assert_eq!(sgd.state_name(), None);
        sgd.import_slot(0, v);
        assert!(sgd.export_slot(0).is_none());
    }

    #[test]
    fn optimizer_state_is_per_slot() {
        let mut opt = Adagrad::new(1.0);
        let mut a = Tensor::zeros([1]);
        let mut b = Tensor::zeros([1]);
        let g = Tensor::full([1], 1.0);
        opt.apply_dense(0, &mut a, &g).unwrap();
        opt.apply_dense(1, &mut b, &g).unwrap();
        // Both are first steps, so both move the same amount.
        assert!((a.data()[0] - b.data()[0]).abs() < 1e-6);
    }
}
