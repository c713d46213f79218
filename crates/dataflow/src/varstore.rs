//! Variable storage and the provider abstraction.
//!
//! The executor never touches variable memory directly — it asks a
//! [`VarProvider`]. A local [`VarStore`] (AllReduce replicas) answers from
//! its own memory; the Parameter Server client in `parallax-ps` answers by
//! pulling from remote server processes, which is how a single graph
//! executes under either architecture without being rebuilt.

use std::ops::Range;

use parallax_tensor::{ops, DetRng, Shape, Tensor, TensorError};

use crate::graph::{Graph, Init, VarId, VariableDef};
use crate::{DataflowError, Result};

/// Source of variable values during a forward pass.
pub trait VarProvider {
    /// Fetches the full dense value of `var`.
    fn fetch_dense(&mut self, var: VarId, def: &VariableDef) -> Result<Tensor>;

    /// Fetches only rows `ids` of `var` (a sparse read; the provider may
    /// transfer just `alpha * w` bytes, per the paper's analysis).
    fn fetch_sparse_rows(&mut self, var: VarId, def: &VariableDef, ids: &[usize])
        -> Result<Tensor>;
}

/// In-memory variable storage: one dense tensor per [`VarId`] the store
/// holds. A role store ([`VarStore::init_held`]) holds only the
/// variables its role owns; reading any other is the typed error
/// [`DataflowError::VariableNotHeld`].
#[derive(Debug, Clone)]
pub struct VarStore {
    values: Vec<Option<Tensor>>,
}

/// A row range covering every row: [`init_rows`] returns the whole value
/// in its declared shape for it.
const ALL_ROWS: Range<usize> = 0..usize::MAX;

/// Rows drawn per call while skipping a variable's unheld rows: bounds
/// the transient allocation for a skipped embedding.
const SKIP_ELEMS: usize = 16 * 1024;

/// Draws `def`'s initial value from `rng` exactly as [`VarStore::init`]
/// does, but materializes only the disjoint row ranges `rows` (rows of
/// the value's `[rows, cols]` matrix view): one `[len, cols]` tensor per
/// range, or the value in its declared shape for a range covering every
/// row. Every element is drawn whether kept or not, so `rng` ends where
/// `init` would leave it.
pub fn init_rows(
    def: &VariableDef,
    rng: &mut DetRng,
    rows: &[Range<usize>],
) -> Result<Vec<Tensor>> {
    let (nrows, cols) = def.shape.as_matrix().unwrap_or((1, def.shape.volume()));
    let whole = |r: &Range<usize>| r.start == 0 && r.end >= nrows;
    if let Some(r) = rows
        .iter()
        .find(|r| !whole(r) && (r.start > r.end || r.end > nrows))
    {
        return Err(TensorError::IndexOutOfBounds {
            index: r.end,
            bound: nrows + 1,
        }
        .into());
    }
    let shape_of = |r: &Range<usize>| -> Shape {
        if whole(r) {
            def.shape.clone()
        } else {
            Shape::from([r.end - r.start, cols])
        }
    };
    let stddev = match def.init {
        // Nothing is drawn.
        Init::Zeros => return Ok(rows.iter().map(|r| Tensor::zeros(shape_of(r))).collect()),
        Init::Const(c) => return Ok(rows.iter().map(|r| Tensor::full(shape_of(r), c)).collect()),
        // The bound depends on the whole shape, so the whole value is
        // drawn and sliced.
        Init::Glorot => {
            let full = Tensor::glorot(def.shape.clone(), rng);
            if let [r] = rows {
                if whole(r) {
                    return Ok(vec![full]);
                }
            }
            return rows
                .iter()
                .map(|r| {
                    if whole(r) {
                        Ok(full.clone())
                    } else {
                        Ok(full.slice_rows(r.start, r.end)?)
                    }
                })
                .collect();
        }
        Init::Normal(stddev) => stddev,
    };
    // Row-major draws: each held range in one `Tensor::randn` call, the
    // rows between them in bounded chunks that are dropped.
    let mut kept: Vec<Option<Tensor>> = vec![None; rows.len()];
    let skip = (SKIP_ELEMS / cols.max(1)).max(1);
    let mut row = 0;
    while row < nrows {
        match rows.iter().position(|r| r.contains(&row)) {
            Some(k) => {
                let end = rows[k].end.min(nrows);
                kept[k] = Some(Tensor::randn([end - row, cols], stddev, rng));
                row = end;
            }
            None => {
                let next = rows
                    .iter()
                    .map(|r| r.start)
                    .filter(|&s| s > row)
                    .min()
                    .unwrap_or(nrows);
                let end = next.min(row + skip).min(nrows);
                Tensor::randn([end - row, cols], stddev, rng);
                row = end;
            }
        }
    }
    rows.iter()
        .zip(kept)
        .map(|(r, t)| {
            let t = t.unwrap_or_else(|| Tensor::zeros([0, cols]));
            Ok(t.reshape(shape_of(r))?)
        })
        .collect()
}

impl VarStore {
    /// Initializes storage for every variable in the graph, deterministically
    /// from `rng`.
    pub fn init(graph: &Graph, rng: &mut DetRng) -> Self {
        Self::init_held(graph, rng, |_| true)
    }

    /// A role store: like [`VarStore::init`], but materializes only the
    /// variables `held` selects. Every variable's random stream is still
    /// drawn in order, so held values are bitwise those of `init` and
    /// `rng` ends in the same state.
    pub fn init_held(graph: &Graph, rng: &mut DetRng, held: impl Fn(VarId) -> bool) -> Self {
        let values = graph
            .variables()
            .iter()
            .enumerate()
            .map(|(i, def)| {
                let rows: &[Range<usize>] = if held(VarId::from_index(i)) {
                    std::slice::from_ref(&ALL_ROWS)
                } else {
                    &[]
                };
                init_rows(def, rng, rows)
                    .expect("the whole value or nothing is always in range")
                    .pop()
            })
            .collect();
        VarStore { values }
    }

    /// Builds a store from explicit tensors (used when a replica is seeded
    /// by broadcast from the chief).
    pub fn from_values(values: Vec<Tensor>) -> Self {
        VarStore {
            values: values.into_iter().map(Some).collect(),
        }
    }

    /// A store with `len` variable slots that holds none of them yet;
    /// [`VarStore::set`] fills them.
    pub fn empty(len: usize) -> Self {
        VarStore {
            values: vec![None; len],
        }
    }

    /// A copy holding only the variables of this store that `held`
    /// selects (a checkpoint restored into a role store).
    pub fn subset(&self, held: impl Fn(VarId) -> bool) -> Self {
        let values = self
            .values
            .iter()
            .enumerate()
            .map(|(i, v)| v.as_ref().filter(|_| held(VarId::from_index(i))).cloned())
            .collect();
        VarStore { values }
    }

    /// The value of a variable.
    pub fn get(&self, var: VarId) -> Result<&Tensor> {
        self.values
            .get(var.index())
            .ok_or(DataflowError::UnknownVariable(var.index()))?
            .as_ref()
            .ok_or(DataflowError::VariableNotHeld(var.index()))
    }

    /// Mutable value of a variable.
    pub fn get_mut(&mut self, var: VarId) -> Result<&mut Tensor> {
        self.values
            .get_mut(var.index())
            .ok_or(DataflowError::UnknownVariable(var.index()))?
            .as_mut()
            .ok_or(DataflowError::VariableNotHeld(var.index()))
    }

    /// Replaces the value of a variable, holding it from now on.
    pub fn set(&mut self, var: VarId, value: Tensor) -> Result<()> {
        let slot = self
            .values
            .get_mut(var.index())
            .ok_or(DataflowError::UnknownVariable(var.index()))?;
        *slot = Some(value);
        Ok(())
    }

    /// Number of variable slots (held or not).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the store has no variable slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Every held variable with its value, in [`VarId`] order.
    pub fn held(&self) -> impl Iterator<Item = (VarId, &Tensor)> {
        self.values
            .iter()
            .enumerate()
            .filter_map(|(i, v)| Some((VarId::from_index(i), v.as_ref()?)))
    }

    /// Maximum absolute element difference against another store; used by
    /// tests asserting replica synchronization. A variable held by only
    /// one of the two counts as infinitely far apart.
    pub fn max_divergence(&self, other: &VarStore) -> f32 {
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| match (a, b) {
                (Some(a), Some(b)) => a.max_abs_diff(b).unwrap_or(f32::INFINITY),
                (None, None) => 0.0,
                _ => f32::INFINITY,
            })
            .fold(0.0f32, f32::max)
    }
}

impl VarProvider for VarStore {
    fn fetch_dense(&mut self, var: VarId, _def: &VariableDef) -> Result<Tensor> {
        Ok(self.get(var)?.clone())
    }

    fn fetch_sparse_rows(
        &mut self,
        var: VarId,
        _def: &VariableDef,
        ids: &[usize],
    ) -> Result<Tensor> {
        Ok(ops::gather_rows(self.get(var)?, ids)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::VariableDef;

    fn graph_with_vars() -> Graph {
        let mut g = Graph::new();
        g.variable(VariableDef::new("a", [2, 2], Init::Zeros))
            .unwrap();
        g.variable(VariableDef::new("b", [3], Init::Const(1.5)))
            .unwrap();
        g.variable(VariableDef::new("c", [4, 4], Init::Glorot))
            .unwrap();
        g
    }

    #[test]
    fn init_respects_schemes() {
        let g = graph_with_vars();
        let store = VarStore::init(&g, &mut DetRng::seed(1));
        assert_eq!(store.get(VarId(0)).unwrap().sum(), 0.0);
        assert_eq!(store.get(VarId(1)).unwrap().data(), &[1.5, 1.5, 1.5]);
        assert!(store.get(VarId(2)).unwrap().l2_norm() > 0.0);
    }

    #[test]
    fn init_is_deterministic() {
        let g = graph_with_vars();
        let a = VarStore::init(&g, &mut DetRng::seed(7));
        let b = VarStore::init(&g, &mut DetRng::seed(7));
        assert_eq!(a.max_divergence(&b), 0.0);
    }

    #[test]
    fn provider_serves_dense_and_rows() {
        let mut g = Graph::new();
        let v = g
            .variable(VariableDef::new("t", [3, 2], Init::Zeros))
            .unwrap();
        let mut store = VarStore::init(&g, &mut DetRng::seed(1));
        store
            .set(
                v,
                Tensor::new([3, 2], vec![0., 1., 10., 11., 20., 21.]).unwrap(),
            )
            .unwrap();
        let def = g.var_def(v).unwrap().clone();
        let dense = store.fetch_dense(v, &def).unwrap();
        assert_eq!(dense.len(), 6);
        let rows = store.fetch_sparse_rows(v, &def, &[2, 0]).unwrap();
        assert_eq!(rows.data(), &[20., 21., 0., 1.]);
    }

    /// Every initializer kind, in a graph whose variables are large
    /// enough to span several rows.
    fn graph_of_every_init() -> Graph {
        let mut g = Graph::new();
        g.variable(VariableDef::new("emb", [10, 3], Init::Normal(0.5)))
            .unwrap();
        g.variable(VariableDef::new("w", [3, 4], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("b", [4], Init::Const(0.25)))
            .unwrap();
        g.variable(VariableDef::new("out", [6, 2], Init::Glorot))
            .unwrap();
        g.variable(VariableDef::new("z", [2, 2], Init::Zeros))
            .unwrap();
        g
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn role_stores_equal_init_bitwise_on_every_owned_variable() {
        let g = graph_of_every_init();
        let mut full_rng = DetRng::seed(5);
        let full = VarStore::init(&g, &mut full_rng);
        for owned in [vec![], vec![1, 2], vec![0, 3], vec![0, 1, 2, 3, 4]] {
            let mut rng = DetRng::seed(5);
            let role = VarStore::init_held(&g, &mut rng, |v| owned.contains(&v.index()));
            for var in g.var_ids() {
                if owned.contains(&var.index()) {
                    assert_eq!(bits(role.get(var).unwrap()), bits(full.get(var).unwrap()));
                } else {
                    assert_eq!(
                        role.get(var),
                        Err(DataflowError::VariableNotHeld(var.index()))
                    );
                }
            }
            assert_eq!(role.held().count(), owned.len());
            // The RNG is left exactly where `init` leaves it.
            assert_eq!(rng.next_u64(), full_rng.clone().next_u64());
        }
        // A server's shard rows: only the listed rows, same bits.
        let mut rng = DetRng::seed(5);
        let whole = 0..usize::MAX;
        let mut shards = Vec::new();
        for (i, def) in g.variables().iter().enumerate() {
            let rows: &[Range<usize>] = match i {
                0 => &[0..4, 7..10],
                3 => std::slice::from_ref(&whole),
                _ => &[],
            };
            shards.push(init_rows(def, &mut rng, rows).unwrap());
        }
        let emb = full.get(VarId::from_index(0)).unwrap();
        assert_eq!(bits(&shards[0][0]), bits(&emb.slice_rows(0, 4).unwrap()));
        assert_eq!(bits(&shards[0][1]), bits(&emb.slice_rows(7, 10).unwrap()));
        assert_eq!(shards[0][1].shape().dims(), &[3, 3]);
        let out = full.get(VarId::from_index(3)).unwrap();
        assert_eq!(shards[3][0].shape(), out.shape());
        assert_eq!(bits(&shards[3][0]), bits(out));
        assert_eq!(rng.next_u64(), full_rng.next_u64());
    }

    #[test]
    fn rows_past_the_end_are_an_error() {
        let g = graph_of_every_init();
        let def = g.var_def(VarId::from_index(0)).unwrap();
        let past_end = 8..11;
        assert!(init_rows(def, &mut DetRng::seed(1), std::slice::from_ref(&past_end)).is_err());
    }

    #[test]
    fn set_materializes_and_subset_keeps_only_selected() {
        let g = graph_of_every_init();
        let full = VarStore::init(&g, &mut DetRng::seed(2));
        let mut s = full.subset(|v| v.index() == 1);
        assert_eq!(s.held().map(|(v, _)| v.index()).collect::<Vec<_>>(), [1]);
        assert!(s.get_mut(VarId::from_index(4)).is_err());
        s.set(VarId::from_index(4), Tensor::zeros([2, 2])).unwrap();
        assert_eq!(s.held().count(), 2);
        assert!(s.set(VarId::from_index(9), Tensor::zeros([1])).is_err());
        assert_eq!(full.max_divergence(&s), f32::INFINITY);
        assert_eq!(full.max_divergence(&full.clone()), 0.0);
    }

    #[test]
    fn unknown_variable_is_an_error() {
        let g = Graph::new();
        let store = VarStore::init(&g, &mut DetRng::seed(1));
        assert!(store.get(VarId(0)).is_err());
    }
}
