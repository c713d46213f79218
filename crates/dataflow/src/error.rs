//! Error type for graph construction and execution.

use std::fmt;

use parallax_tensor::TensorError;

/// Errors produced while building, validating or executing a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// A tensor kernel failed.
    Tensor(TensorError),
    /// A node id referenced a node that does not exist.
    UnknownNode(usize),
    /// A variable id referenced a variable that does not exist.
    UnknownVariable(usize),
    /// The variable exists, but this store does not hold it: a role
    /// store keeps only the variables its role owns.
    VariableNotHeld(usize),
    /// A placeholder was not fed at run time.
    MissingFeed(String),
    /// A feed had the wrong value kind (float tensor vs index list).
    FeedKindMismatch(String),
    /// A node expected an input of a different value kind.
    ValueKindMismatch {
        /// Operation name.
        op: &'static str,
        /// What the op needed.
        expected: &'static str,
    },
    /// Graph structure is invalid (cycle, bad wiring).
    InvalidGraph(String),
    /// Gradient computation was asked for something unsupported.
    GradUnsupported(String),
    /// A variable provider (e.g. a Parameter Server client) failed.
    Provider(String),
    /// Backward found no kept logits gradient for this `SoftmaxXent`
    /// node: the activations did not come from a forward pass of the
    /// graph being differentiated.
    MissingXentGrad(usize),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::Tensor(e) => write!(f, "tensor error: {e}"),
            DataflowError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            DataflowError::UnknownVariable(id) => write!(f, "unknown variable id {id}"),
            DataflowError::VariableNotHeld(id) => {
                write!(f, "variable {id} is not held by this store")
            }
            DataflowError::MissingFeed(name) => write!(f, "placeholder '{name}' was not fed"),
            DataflowError::FeedKindMismatch(name) => {
                write!(f, "feed for '{name}' has the wrong kind")
            }
            DataflowError::ValueKindMismatch { op, expected } => {
                write!(f, "{op}: expected a {expected} input")
            }
            DataflowError::InvalidGraph(msg) => write!(f, "invalid graph: {msg}"),
            DataflowError::GradUnsupported(msg) => write!(f, "gradient unsupported: {msg}"),
            DataflowError::Provider(msg) => write!(f, "variable provider: {msg}"),
            DataflowError::MissingXentGrad(id) => {
                write!(f, "no forward logits gradient for SoftmaxXent node {id}")
            }
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<TensorError> for DataflowError {
    fn from(e: TensorError) -> Self {
        DataflowError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_errors_convert() {
        let te = TensorError::InvalidArgument("x".into());
        let de: DataflowError = te.into();
        assert!(de.to_string().contains("invalid argument"));
    }
}
