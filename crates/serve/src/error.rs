//! Serving-layer errors.

use parallax_core::CoreError;
use parallax_dataflow::DataflowError;
use parallax_tensor::TensorError;

/// Errors surfaced by the serving subsystem.
#[derive(Debug)]
pub enum ServeError {
    /// Snapshot load/publish failure (bubbled from `parallax-core`).
    Core(CoreError),
    /// Forward-pass failure (bubbled from `parallax-dataflow`).
    Dataflow(DataflowError),
    /// Kernel failure (bubbled from `parallax-tensor`).
    Tensor(TensorError),
    /// The engine has shut down and accepts no more requests.
    Closed,
    /// The request failed model-specific validation before enqueueing.
    BadRequest(String),
    /// The request was accepted but its batch failed; no response was
    /// produced.
    Canceled,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "serve: {e}"),
            ServeError::Dataflow(e) => write!(f, "serve: {e}"),
            ServeError::Tensor(e) => write!(f, "serve: {e}"),
            ServeError::Closed => write!(f, "serve: engine is shut down"),
            ServeError::BadRequest(msg) => write!(f, "serve: bad request: {msg}"),
            ServeError::Canceled => write!(f, "serve: request canceled (batch failed)"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<DataflowError> for ServeError {
    fn from(e: DataflowError) -> Self {
        ServeError::Dataflow(e)
    }
}

impl From<TensorError> for ServeError {
    fn from(e: TensorError) -> Self {
        ServeError::Tensor(e)
    }
}
