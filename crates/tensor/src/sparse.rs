//! Sparse gradients: the `IndexedSlices` representation.
//!
//! Mirrors TensorFlow's `IndexedSlices`: a gradient of an embedding-like
//! variable touches only a subset of rows, so it is stored as a list of row
//! indices plus a dense `[n, cols]` value block. The per-variable sparsity
//! ratio `alpha` from the paper (Section 2.2) is the ratio of *distinct*
//! rows touched in a step to the total number of rows.

use crate::tensor::Tensor;
use crate::{Result, TensorError};

/// Returns the entry slots sorted by `(row index, slot)`: groups of
/// equal row indices are contiguous and, within a group, slots keep
/// their original order. One sorted permutation serves both duplicate
/// merging ([`IndexedSlices::coalesce`]) and distinct-row counting
/// ([`IndexedSlices::alpha`]).
fn sorted_slot_order(indices: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..indices.len()).collect();
    order.sort_unstable_by_key(|&slot| (indices[slot], slot));
    order
}

/// A sparse update/gradient for a 2-D variable: `values[i]` applies to row
/// `indices[i]` of the variable. Indices may repeat (e.g. the same word
/// occurring twice in a batch); [`IndexedSlices::coalesce`] merges them.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedSlices {
    indices: Vec<usize>,
    values: Tensor,
    /// Number of rows in the full (dense) variable this slices into.
    dense_rows: usize,
}

impl IndexedSlices {
    /// Creates a sparse slice set.
    pub fn new(indices: Vec<usize>, values: Tensor, dense_rows: usize) -> Result<Self> {
        Self::validate(&indices, &values, dense_rows)?;
        Ok(IndexedSlices {
            indices,
            values,
            dense_rows,
        })
    }

    /// Checks the invariants [`IndexedSlices::new`] enforces, without
    /// taking ownership: `values` is a matrix with one row per index,
    /// and every index addresses a row below `dense_rows`.
    pub fn validate(indices: &[usize], values: &Tensor, dense_rows: usize) -> Result<()> {
        let (rows, _cols) = values.shape().as_matrix()?;
        if rows != indices.len() {
            return Err(TensorError::LengthMismatch {
                expected: indices.len(),
                actual: rows,
            });
        }
        if let Some(&bad) = indices.iter().find(|&&i| i >= dense_rows) {
            return Err(TensorError::IndexOutOfBounds {
                index: bad,
                bound: dense_rows,
            });
        }
        Ok(())
    }

    /// An empty slice set for a variable with `dense_rows` rows and
    /// `cols` columns.
    pub fn empty(dense_rows: usize, cols: usize) -> Self {
        IndexedSlices {
            indices: Vec::new(),
            values: Tensor::zeros([0, cols]),
            dense_rows,
        }
    }

    /// The row indices (possibly with duplicates).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The `[n, cols]` value block.
    pub fn values(&self) -> &Tensor {
        &self.values
    }

    /// Number of rows in the dense variable.
    pub fn dense_rows(&self) -> usize {
        self.dense_rows
    }

    /// Row width.
    pub fn cols(&self) -> usize {
        self.values.shape().as_matrix().map(|(_, c)| c).unwrap_or(0)
    }

    /// Number of (index, value-row) entries.
    pub fn nnz_rows(&self) -> usize {
        self.indices.len()
    }

    /// Bytes on the wire: values plus 8-byte indices. The paper's analysis
    /// neglects index bytes; we carry them so the accounting is honest, and
    /// the analytic formulas remain a close approximation (cols >> 2).
    pub fn byte_size(&self) -> u64 {
        self.values.byte_size() + (self.indices.len() * std::mem::size_of::<u64>()) as u64
    }

    /// The sparsity ratio `alpha`: distinct rows touched / total rows.
    pub fn alpha(&self) -> f64 {
        if self.dense_rows == 0 {
            return 0.0;
        }
        let order = sorted_slot_order(&self.indices);
        let mut distinct = 0usize;
        let mut prev = usize::MAX;
        for &slot in &order {
            let idx = self.indices[slot];
            if distinct == 0 || idx != prev {
                distinct += 1;
                prev = idx;
            }
        }
        distinct as f64 / self.dense_rows as f64
    }

    /// # Examples
    ///
    /// ```
    /// use parallax_tensor::{IndexedSlices, Tensor};
    /// let s = IndexedSlices::new(
    ///     vec![3, 1, 3],
    ///     Tensor::new([3, 1], vec![1.0, 2.0, 4.0]).unwrap(),
    ///     5,
    /// )
    /// .unwrap();
    /// let c = s.coalesce();
    /// assert_eq!(c.indices(), &[1, 3]);
    /// assert_eq!(c.values().data(), &[2.0, 5.0]);
    /// ```
    /// Merges duplicate indices by summing their value rows, producing a
    /// canonical (sorted, unique-index) slice set.
    ///
    /// This is the "gradient aggregation for sparse variables requires
    /// iterating through nonzero indices one by one" operation whose cost
    /// partitioning parallelizes (Section 3.2).
    /// Sort-based: one index permutation, two exact-size output buffers,
    /// no per-row allocations. Duplicates accumulate in original slot
    /// order within each index group, matching a slot-order hash-merge
    /// exactly.
    pub fn coalesce(&self) -> IndexedSlices {
        let cols = self.cols();
        let vals = self.values.data();
        let order = sorted_slot_order(&self.indices);
        let mut indices: Vec<usize> = Vec::with_capacity(order.len());
        let mut data: Vec<f32> = Vec::with_capacity(vals.len());
        for &slot in &order {
            let idx = self.indices[slot];
            let row = &vals[slot * cols..(slot + 1) * cols];
            if indices.last() == Some(&idx) {
                let base = data.len() - cols;
                for (a, &b) in data[base..].iter_mut().zip(row) {
                    *a += b;
                }
            } else {
                indices.push(idx);
                data.extend_from_slice(row);
            }
        }
        let values =
            Tensor::new([indices.len(), cols], data).expect("coalesce shape is consistent");
        IndexedSlices {
            indices,
            values,
            dense_rows: self.dense_rows,
        }
    }

    /// Coalesces the logical concatenation of several slice sets without
    /// materializing it: equivalent to `concat(parts)?.coalesce()` (the
    /// release path of the sparse gradient accumulator), with value rows
    /// read in place from each part.
    pub fn coalesce_parts<'a>(
        parts: impl IntoIterator<Item = &'a IndexedSlices>,
    ) -> Result<IndexedSlices> {
        let parts: Vec<&IndexedSlices> = parts.into_iter().collect();
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("coalesce of zero IndexedSlices".into()))?;
        let cols = first.cols();
        let dense_rows = first.dense_rows;
        let mut total = 0usize;
        for p in &parts {
            if p.cols() != cols || p.dense_rows != dense_rows {
                return Err(TensorError::ShapeMismatch {
                    op: "IndexedSlices::coalesce_parts",
                    lhs: vec![dense_rows, cols],
                    rhs: vec![p.dense_rows, p.cols()],
                });
            }
            total += p.indices.len();
        }
        // Global slots ordered as in concat: (part, local slot) ascending.
        let mut order: Vec<(usize, usize)> = Vec::with_capacity(total);
        for (pi, p) in parts.iter().enumerate() {
            order.extend((0..p.indices.len()).map(|s| (pi, s)));
        }
        order.sort_unstable_by_key(|&(pi, s)| (parts[pi].indices[s], pi, s));
        let mut indices: Vec<usize> = Vec::with_capacity(total);
        let mut data: Vec<f32> = Vec::with_capacity(total * cols);
        for &(pi, slot) in &order {
            let part = parts[pi];
            let idx = part.indices[slot];
            let row = &part.values.data()[slot * cols..(slot + 1) * cols];
            if indices.last() == Some(&idx) {
                let base = data.len() - cols;
                for (a, &b) in data[base..].iter_mut().zip(row) {
                    *a += b;
                }
            } else {
                indices.push(idx);
                data.extend_from_slice(row);
            }
        }
        let values = Tensor::new([indices.len(), cols], data)?;
        Ok(IndexedSlices {
            indices,
            values,
            dense_rows,
        })
    }

    /// The canonical two-level (machine-blocked) coalesce: parts whose
    /// `group_of` entries match coalesce first, in slot order; the
    /// per-group subtotals then coalesce in group order. `group_of` must
    /// be non-decreasing (parts arranged group-major).
    ///
    /// This is the one association every aggregator — Parameter Server
    /// accumulators, AllGatherv workers, local-aggregation chiefs —
    /// folds sparse gradients in, so placement never changes the bits.
    /// A flat [`IndexedSlices::coalesce_parts`] over the same parts
    /// differs whenever a non-leading group contributes two slices to
    /// one row; pre-aggregated group subtotals are sorted-unique, on
    /// which coalescing is idempotent, so they pass through the inner
    /// level unchanged.
    pub fn coalesce_grouped(parts: &[IndexedSlices], group_of: &[usize]) -> Result<IndexedSlices> {
        if parts.len() != group_of.len() {
            return Err(TensorError::InvalidArgument(format!(
                "coalesce_grouped: {} parts but {} group ids",
                parts.len(),
                group_of.len()
            )));
        }
        if group_of.windows(2).any(|w| w[0] > w[1]) {
            return Err(TensorError::InvalidArgument(
                "coalesce_grouped: parts must be group-major".into(),
            ));
        }
        let mut subtotals: Vec<IndexedSlices> = Vec::new();
        let mut start = 0;
        while start < parts.len() {
            let group = group_of[start];
            let mut end = start + 1;
            while end < parts.len() && group_of[end] == group {
                end += 1;
            }
            subtotals.push(IndexedSlices::coalesce_parts(&parts[start..end])?);
            start = end;
        }
        IndexedSlices::coalesce_parts(&subtotals)
    }

    /// Concatenates several slice sets (the `AllGatherv` aggregation of the
    /// AR architecture): indices and values are appended in argument order.
    ///
    /// Accepts any borrowable parts (`&[IndexedSlices]`,
    /// `&[Arc<IndexedSlices>]`, …) so shared buffers coming off the
    /// transport concatenate without materializing owned copies first.
    pub fn concat<S: std::borrow::Borrow<IndexedSlices>>(parts: &[S]) -> Result<IndexedSlices> {
        let first = parts
            .first()
            .ok_or_else(|| TensorError::InvalidArgument("concat of zero IndexedSlices".into()))?
            .borrow();
        let cols = first.cols();
        let dense_rows = first.dense_rows;
        let mut indices = Vec::new();
        let mut data = Vec::new();
        for p in parts {
            let p = p.borrow();
            if p.cols() != cols || p.dense_rows != dense_rows {
                return Err(TensorError::ShapeMismatch {
                    op: "IndexedSlices::concat",
                    lhs: vec![dense_rows, cols],
                    rhs: vec![p.dense_rows, p.cols()],
                });
            }
            indices.extend_from_slice(&p.indices);
            data.extend_from_slice(p.values.data());
        }
        let values = Tensor::new([indices.len(), cols], data)?;
        IndexedSlices::new(indices, values, dense_rows)
    }

    /// Expands to a dense `[dense_rows, cols]` tensor, accumulating
    /// duplicate indices.
    pub fn to_dense(&self) -> Tensor {
        let cols = self.cols();
        let mut out = Tensor::zeros([self.dense_rows, cols]);
        for (slot, &idx) in self.indices.iter().enumerate() {
            let src = &self.values.data()[slot * cols..(slot + 1) * cols];
            let dst = &mut out.data_mut()[idx * cols..(idx + 1) * cols];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
        }
        out
    }

    /// Scales all values by a constant (gradient averaging).
    pub fn scale(&self, factor: f32) -> IndexedSlices {
        let mut values = self.values.clone();
        for v in values.data_mut() {
            *v *= factor;
        }
        IndexedSlices {
            indices: self.indices.clone(),
            values,
            dense_rows: self.dense_rows,
        }
    }

    /// Splits the slice set by a row-partitioning function: entry `i` goes
    /// to bucket `route(indices[i])` with its index rebased by the bucket's
    /// row offset. Used to scatter sparse pushes across PS partitions.
    pub fn split_by<F>(&self, buckets: usize, route: F) -> Vec<IndexedSlices>
    where
        F: Fn(usize) -> (usize, usize),
    {
        let cols = self.cols();
        // Counting-sort style: route once, then fill exactly-sized
        // buffers in slot order (identical output to repeated pushes,
        // without amortized-growth reallocations).
        let routed: Vec<(usize, usize)> = self.indices.iter().map(|&idx| route(idx)).collect();
        let mut counts: Vec<usize> = vec![0; buckets];
        let mut rows_parts: Vec<usize> = vec![0; buckets];
        for &(bucket, local) in &routed {
            counts[bucket] += 1;
            // Each bucket's dense_rows must cover its largest local
            // index; the caller re-labels with true partition sizes, so
            // use a safe bound.
            rows_parts[bucket] = rows_parts[bucket].max(local + 1);
        }
        let mut idx_parts: Vec<Vec<usize>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        let mut val_parts: Vec<Vec<f32>> = counts
            .iter()
            .map(|&c| Vec::with_capacity(c * cols))
            .collect();
        for (slot, &(bucket, local)) in routed.iter().enumerate() {
            idx_parts[bucket].push(local);
            val_parts[bucket]
                .extend_from_slice(&self.values.data()[slot * cols..(slot + 1) * cols]);
        }
        idx_parts
            .into_iter()
            .zip(val_parts)
            .zip(rows_parts)
            .map(|((indices, data), rows)| {
                let n = indices.len();
                IndexedSlices {
                    indices,
                    values: Tensor::new([n, cols], data).expect("split shape consistent"),
                    dense_rows: rows,
                }
            })
            .collect()
    }
}

/// Either a dense or a sparse gradient — the discriminator Parallax uses to
/// classify variables (Section 5, "Identifying the sparsity of a variable").
#[derive(Debug, Clone, PartialEq)]
pub enum Grad {
    /// Gradient with every element present.
    Dense(Tensor),
    /// Gradient touching a subset of rows.
    Sparse(IndexedSlices),
}

impl Grad {
    /// True if this is a sparse gradient.
    pub fn is_sparse(&self) -> bool {
        matches!(self, Grad::Sparse(_))
    }

    /// Bytes on the wire for this gradient.
    pub fn byte_size(&self) -> u64 {
        match self {
            Grad::Dense(t) => t.byte_size(),
            Grad::Sparse(s) => s.byte_size(),
        }
    }

    /// Densifies (sparse gradients accumulate duplicates).
    pub fn to_dense(&self) -> Tensor {
        match self {
            Grad::Dense(t) => t.clone(),
            Grad::Sparse(s) => s.to_dense(),
        }
    }

    /// Scales the gradient by a constant.
    pub fn scale(&self, factor: f32) -> Grad {
        match self {
            Grad::Dense(t) => {
                let mut t = t.clone();
                for v in t.data_mut() {
                    *v *= factor;
                }
                Grad::Dense(t)
            }
            Grad::Sparse(s) => Grad::Sparse(s.scale(factor)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slices(indices: Vec<usize>, rows_data: Vec<Vec<f32>>, dense_rows: usize) -> IndexedSlices {
        let cols = rows_data[0].len();
        let flat: Vec<f32> = rows_data.concat();
        IndexedSlices::new(
            indices.clone(),
            Tensor::new([indices.len(), cols], flat).unwrap(),
            dense_rows,
        )
        .unwrap()
    }

    #[test]
    fn new_validates_bounds_and_len() {
        let vals = Tensor::zeros([2, 3]);
        assert!(IndexedSlices::new(vec![0, 9], vals.clone(), 10).is_ok());
        assert!(IndexedSlices::new(vec![0, 10], vals.clone(), 10).is_err());
        assert!(IndexedSlices::new(vec![0], vals, 10).is_err());
    }

    #[test]
    fn alpha_counts_distinct_rows() {
        let s = slices(vec![1, 1, 3], vec![vec![1.0], vec![2.0], vec![3.0]], 10);
        assert!((s.alpha() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn coalesce_sums_duplicates_and_sorts() {
        let s = slices(
            vec![3, 1, 3],
            vec![vec![1.0, 0.0], vec![2.0, 2.0], vec![4.0, 1.0]],
            5,
        );
        let c = s.coalesce();
        assert_eq!(c.indices(), &[1, 3]);
        assert_eq!(c.values().data(), &[2.0, 2.0, 5.0, 1.0]);
    }

    #[test]
    fn to_dense_accumulates() {
        let s = slices(vec![0, 0, 2], vec![vec![1.0], vec![1.0], vec![7.0]], 3);
        let d = s.to_dense();
        assert_eq!(d.data(), &[2.0, 0.0, 7.0]);
    }

    #[test]
    fn coalesce_then_densify_equals_densify() {
        let s = slices(
            vec![4, 0, 4, 2, 0],
            vec![
                vec![1., 2.],
                vec![3., 4.],
                vec![5., 6.],
                vec![7., 8.],
                vec![9., 10.],
            ],
            6,
        );
        let direct = s.to_dense();
        let via = s.coalesce().to_dense();
        assert_eq!(direct, via);
    }

    #[test]
    fn coalesce_parts_matches_concat_then_coalesce() {
        let a = slices(
            vec![4, 1, 4],
            vec![vec![1., 2.], vec![3., 4.], vec![5., 6.]],
            6,
        );
        let b = slices(vec![1, 0], vec![vec![7., 8.], vec![9., 10.]], 6);
        let fused = IndexedSlices::coalesce_parts([&a, &b]).unwrap();
        let via = IndexedSlices::concat(&[a, b]).unwrap().coalesce();
        assert_eq!(fused, via);
        assert!(IndexedSlices::coalesce_parts([]).is_err());
    }

    #[test]
    fn concat_appends_in_order() {
        let a = slices(vec![1], vec![vec![1.0]], 4);
        let b = slices(vec![3, 0], vec![vec![2.0], vec![3.0]], 4);
        let c = IndexedSlices::concat(&[a, b]).unwrap();
        assert_eq!(c.indices(), &[1, 3, 0]);
        assert_eq!(c.values().data(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn concat_rejects_mismatched_width() {
        let a = slices(vec![0], vec![vec![1.0]], 4);
        let b = slices(vec![0], vec![vec![1.0, 2.0]], 4);
        assert!(IndexedSlices::concat(&[a, b]).is_err());
    }

    #[test]
    fn split_by_routes_rows() {
        // Partition rows 0..6 into [0..3) and [3..6).
        let s = slices(
            vec![0, 4, 2, 5],
            vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
            6,
        );
        let parts = s.split_by(2, |r| if r < 3 { (0, r) } else { (1, r - 3) });
        assert_eq!(parts[0].indices(), &[0, 2]);
        assert_eq!(parts[0].values().data(), &[1.0, 3.0]);
        assert_eq!(parts[1].indices(), &[1, 2]);
        assert_eq!(parts[1].values().data(), &[2.0, 4.0]);
    }

    #[test]
    fn grad_byte_size_includes_indices() {
        let s = slices(vec![0, 1], vec![vec![1.0, 1.0], vec![1.0, 1.0]], 4);
        // 4 values * 4 bytes + 2 indices * 8 bytes.
        assert_eq!(Grad::Sparse(s).byte_size(), 16 + 16);
    }

    #[test]
    fn grad_scale_dense_and_sparse() {
        let d = Grad::Dense(Tensor::full([2], 2.0)).scale(0.5);
        assert_eq!(d.to_dense().data(), &[1.0, 1.0]);
        let s = Grad::Sparse(slices(vec![1], vec![vec![4.0]], 2)).scale(0.25);
        assert_eq!(s.to_dense().data(), &[0.0, 1.0]);
    }
}
