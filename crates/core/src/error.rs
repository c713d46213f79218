//! Core errors.

use std::fmt;

use parallax_comm::CommError;
use parallax_dataflow::DataflowError;
use parallax_ps::PsError;
use parallax_tensor::TensorError;

/// Errors from planning, transformation and distributed execution.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying tensor failure.
    Tensor(TensorError),
    /// Underlying dataflow failure.
    Dataflow(DataflowError),
    /// Underlying transport failure.
    Comm(CommError),
    /// Underlying Parameter Server failure.
    Ps(PsError),
    /// Invalid configuration or plan.
    Config(String),
    /// A worker or server thread failed.
    Worker(String),
    /// The static plan verifier found errors; the rendered report.
    Verify(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Tensor(e) => write!(f, "tensor: {e}"),
            CoreError::Dataflow(e) => write!(f, "dataflow: {e}"),
            CoreError::Comm(e) => write!(f, "comm: {e}"),
            CoreError::Ps(e) => write!(f, "ps: {e}"),
            CoreError::Config(msg) => write!(f, "config: {msg}"),
            CoreError::Worker(msg) => write!(f, "worker: {msg}"),
            CoreError::Verify(report) => write!(f, "plan verification failed:\n{report}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl CoreError {
    /// The transport error behind this failure, when it kept its type
    /// (directly, or through the Parameter Server layer).
    pub fn comm(&self) -> Option<&CommError> {
        match self {
            CoreError::Comm(e) | CoreError::Ps(PsError::Comm(e)) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for CoreError {
    fn from(e: TensorError) -> Self {
        CoreError::Tensor(e)
    }
}

impl From<DataflowError> for CoreError {
    fn from(e: DataflowError) -> Self {
        CoreError::Dataflow(e)
    }
}

impl From<CommError> for CoreError {
    fn from(e: CommError) -> Self {
        CoreError::Comm(e)
    }
}

impl From<PsError> for CoreError {
    fn from(e: PsError) -> Self {
        CoreError::Ps(e)
    }
}
