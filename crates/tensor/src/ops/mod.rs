//! Tensor kernels.
//!
//! Free functions over [`crate::Tensor`]; the dataflow layer dispatches
//! graph operations onto these. Kernels validate shapes and return typed
//! errors rather than panicking.

pub mod activation;
pub mod elementwise;
pub mod matmul;
pub mod reduce;

pub use activation::{relu, relu_grad, sigmoid, sigmoid_grad, softmax_rows, tanh, tanh_grad};
pub use elementwise::{add, add_bias, axpy, hadamard, scale, scale_rows, sub};
pub use matmul::{gather_rows, gather_rows_grad, matmul, matmul_a_bt, matmul_at_b, transpose};
pub use reduce::{concat_cols, mean_all, softmax_cross_entropy, split_cols, sum_cols, sum_rows};
