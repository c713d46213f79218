//! Multi-pass static verifier for single-device graphs.
//!
//! Violations are collected as typed [`Diagnostic`]s in a
//! [`VerifyReport`] instead of panicking or stopping at the first
//! problem, mirroring how TensorFlow/XLA-style compilers treat the IR
//! verifier as the backbone of every transformation pass. The passes
//! here cover the *single-device* graph:
//!
//! * [`check_structure`] — dangling references and topological-order
//!   violations (`G001`, `G002`);
//! * [`check_kinds`] — value-kind (tensor vs. ids) slot checking
//!   (`G005`), the pass [`Graph::validate`] delegates to;
//! * [`check_liveness`] — variables and nodes that cannot influence the
//!   loss (`G003`, `G004`, warnings);
//! * [`check_shapes`] — matrix-shape inference with per-op rules
//!   (`S001`–`S003`), including Gather index bounds when a sample feed
//!   is supplied.
//!
//! The distributed-plan passes (`P...`/`B001` codes) live in
//! `parallax-core::plancheck` and reuse the same diagnostic types, so a
//! single report can describe both the graph and its transformed plan.

use std::collections::HashSet;
use std::fmt;

use crate::graph::{Graph, NodeId, Op, PhKind};
use crate::value::{Feed, Value};
use crate::DataflowError;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Suspicious but legal; execution may proceed.
    Warning,
    /// The graph or plan is wrong; the runner refuses to start.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable, documented diagnostic codes. `G` codes come from the
/// structural/kind passes, `S` codes from shape inference, `P` codes
/// from the distributed-plan checker, `B001` from the exchange-plan
/// byte-conservation crosscheck, and `C` codes from the communication
/// session-machine checker (`parallax_core::protocheck`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagCode {
    /// A node references a later (or its own) node: the graph is not in
    /// topological order, i.e. it has a cycle or forward reference.
    G001,
    /// A node references a node, variable or placeholder that does not
    /// exist (dangling input), or is structurally empty (`ConcatCols`
    /// of nothing).
    G002,
    /// A variable is never accessed by any node that can influence the
    /// loss: it would receive no gradient (warning).
    G003,
    /// A node is not an ancestor of the loss: it computes a value no
    /// training step consumes (warning).
    G004,
    /// A value-kind mismatch: a tensor slot wired to an ids producer or
    /// vice versa.
    G005,
    /// A shape mismatch between an op's inputs, or a slice outside its
    /// input's extent.
    S001,
    /// Gather indices out of the table's row bounds (checked against a
    /// sample feed).
    S002,
    /// A reshape that changes the number of elements.
    S003,
    /// A profile-sparse variable placed on AllReduce under an
    /// architecture that should keep it on the Parameter Server.
    P001,
    /// A dense variable placed on the Parameter Server under the hybrid
    /// architecture, or a dense read of a partition-sharded variable.
    P002,
    /// Partition shards fail to tile the variable exactly: gaps, wrong
    /// total row count, or an empty partition table.
    P003,
    /// Partition shard bounds overlap or are not monotonically
    /// increasing.
    P004,
    /// A shard's server index is outside the cluster's machine range.
    P005,
    /// The plan disagrees with a re-derivation of the hybrid decision:
    /// wrong decision list length, placement kind, partition count or
    /// server list.
    P006,
    /// A Parameter-Server variable with no gradient path to the loss:
    /// its servers would wait forever for pushes that never come.
    P008,
    /// The statically predicted per-class traffic does not match the
    /// independent closed-form byte accounting.
    B001,
    /// Send/receive pairing mismatch: the sender-side message count of a
    /// session-machine link disagrees with the receiver-side quota
    /// derived independently from the server's synchronization
    /// arithmetic (or a blocking receive has no sender at all).
    C001,
    /// A reply obligation is not discharged: a request kind that owes a
    /// response has no (or a mis-paired) response event — wrong
    /// direction, wrong variable/partition, wrong multiplicity, or a
    /// dangling `reply_of` reference.
    C002,
    /// Cross-phase message leakage: two distinct session events share
    /// the same wire identity (link, tag namespace, kind, variable,
    /// partition), so one phase could consume a message belonging to
    /// another.
    C003,
    /// Deadlock hazard: the per-iteration wait-for graph (worker program
    /// order plus server reply dependencies) contains a cycle — some set
    /// of peers would block on each other forever.
    C004,
    /// Dedup-unsafety: a non-idempotent request kind is not covered by
    /// the server's at-most-once guard (or the exact-count pull guard is
    /// disabled), so a duplicated message would silently corrupt state
    /// instead of being dropped or surfacing a typed error.
    C005,
    /// Fault-readiness violation: the fault plan can drop messages but
    /// receive deadlines are disarmed, so a drop would hang the run
    /// instead of surfacing `PeerTimeout`/`PeerDead` and recovering.
    C006,
    /// Out-of-phase artifact publish: a `FetchShard` exchange that is
    /// not restricted to checkpoint boundaries, not issued by the chief,
    /// or not ordered after the iteration's update apply.
    C007,
    /// Malformed session event: rank out of range, self-loop,
    /// variable/partition index outside the wire header space, zero
    /// multiplicity, or a dangling dependency reference.
    C008,
}

impl DiagCode {
    /// The stable string form (`"G001"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            DiagCode::G001 => "G001",
            DiagCode::G002 => "G002",
            DiagCode::G003 => "G003",
            DiagCode::G004 => "G004",
            DiagCode::G005 => "G005",
            DiagCode::S001 => "S001",
            DiagCode::S002 => "S002",
            DiagCode::S003 => "S003",
            DiagCode::P001 => "P001",
            DiagCode::P002 => "P002",
            DiagCode::P003 => "P003",
            DiagCode::P004 => "P004",
            DiagCode::P005 => "P005",
            DiagCode::P006 => "P006",
            DiagCode::P008 => "P008",
            DiagCode::B001 => "B001",
            DiagCode::C001 => "C001",
            DiagCode::C002 => "C002",
            DiagCode::C003 => "C003",
            DiagCode::C004 => "C004",
            DiagCode::C005 => "C005",
            DiagCode::C006 => "C006",
            DiagCode::C007 => "C007",
            DiagCode::C008 => "C008",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One typed violation found by a verifier pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The documented code.
    pub code: DiagCode,
    /// Error or warning.
    pub severity: Severity,
    /// The offending node's index, when one is identifiable.
    pub node: Option<usize>,
    /// The offending variable's index, when one is identifiable.
    pub var: Option<usize>,
    /// Builder provenance of the offending node (scope path), when known.
    pub origin: Option<String>,
    /// The op's short name, when a node is identifiable.
    pub op: Option<&'static str>,
    /// For kind mismatches: the kind the slot expected.
    pub expected: Option<&'static str>,
    /// A referenced (missing or out-of-order) node index.
    pub reference: Option<usize>,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// A fresh error diagnostic with only code and message set.
    pub fn error(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: Severity::Error,
            node: None,
            var: None,
            origin: None,
            op: None,
            expected: None,
            reference: None,
            message: message.into(),
        }
    }

    /// A fresh warning diagnostic.
    pub fn warning(code: DiagCode, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches node provenance (index, op name, builder origin).
    pub fn at_node(mut self, graph: &Graph, node: NodeId) -> Self {
        self.node = Some(node.index());
        if let Ok(op) = graph.op(node) {
            self.op = Some(op.name());
        }
        let origin = graph.origin(node);
        if !origin.is_empty() {
            self.origin = Some(origin.to_string());
        }
        self
    }

    /// Attaches the offending variable index.
    pub fn for_var(mut self, var: usize) -> Self {
        self.var = Some(var);
        self
    }

    /// Converts the diagnostic into the legacy error type so
    /// [`Graph::validate`] keeps returning the exact variants its
    /// callers match on.
    pub fn into_error(self) -> DataflowError {
        match self.code {
            DiagCode::G005 => DataflowError::ValueKindMismatch {
                op: self.op.unwrap_or("?"),
                expected: self.expected.unwrap_or("tensor"),
            },
            DiagCode::G001 | DiagCode::G002 => {
                if let Some(n) = self.reference {
                    DataflowError::UnknownNode(n)
                } else if let Some(v) = self.var {
                    DataflowError::UnknownVariable(v)
                } else {
                    DataflowError::InvalidGraph(self.message)
                }
            }
            code => DataflowError::InvalidGraph(format!("[{}] {}", code.as_str(), self.message)),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
            if let Some(op) = self.op {
                write!(f, " ({op})")?;
            }
        }
        if let Some(v) = self.var {
            write!(f, " var {v}")?;
        }
        if let Some(origin) = &self.origin {
            write!(f, " in '{origin}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The collected output of a verification run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// All diagnostics, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// An empty report.
    pub fn new() -> Self {
        VerifyReport::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends every diagnostic of another report.
    pub fn merge(&mut self, other: VerifyReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True when at least one error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// True when a diagnostic with this code was recorded.
    pub fn has_code(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the report as one line per diagnostic plus a summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
        out
    }
}

/// Structural pass: every node reference must point at an existing,
/// *earlier* node (insertion order is the topological order the
/// executor relies on), every variable/placeholder reference must
/// exist, and structurally empty ops are rejected.
///
/// [`Graph::add`] enforces all of this at construction time, so this
/// pass can only fire on graphs assembled through
/// [`Graph::add_unchecked`] — it exists so the verifier does not have
/// to *trust* the builder, which is the property that lets
/// [`Graph::validate`] delegate here.
pub fn check_structure(graph: &Graph, report: &mut VerifyReport) {
    let num_nodes = graph.num_nodes();
    for (idx, op) in graph.ops().iter().enumerate() {
        let here = NodeId::from_index(idx);
        for input in op.inputs() {
            if input.index() >= num_nodes {
                let mut d = Diagnostic::error(
                    DiagCode::G002,
                    format!("input node {} does not exist", input.index()),
                )
                .at_node(graph, here);
                d.reference = Some(input.index());
                report.push(d);
            } else if input.index() >= idx {
                let mut d = Diagnostic::error(
                    DiagCode::G001,
                    format!(
                        "input node {} does not precede node {idx}: the graph is not \
                         topologically ordered (cycle or forward reference)",
                        input.index()
                    ),
                )
                .at_node(graph, here);
                d.reference = Some(input.index());
                report.push(d);
            }
        }
        match op {
            Op::Variable(v) | Op::Gather { table: v, .. }
                if v.index() >= graph.variables().len() =>
            {
                report.push(
                    Diagnostic::error(
                        DiagCode::G002,
                        format!("variable {} does not exist", v.index()),
                    )
                    .at_node(graph, here)
                    .for_var(v.index()),
                );
            }
            Op::Placeholder(p) if p.index() >= graph.placeholders().len() => {
                report.push(
                    Diagnostic::error(
                        DiagCode::G002,
                        format!("placeholder id {} does not exist", p.index()),
                    )
                    .at_node(graph, here),
                );
            }
            Op::ConcatCols(parts) if parts.is_empty() => {
                report.push(
                    Diagnostic::error(DiagCode::G002, "ConcatCols of nothing").at_node(graph, here),
                );
            }
            _ => {}
        }
    }
}

/// Value-kind pass: every tensor slot must be fed by a tensor-valued
/// node and every ids slot (gather indices, labels) by an `Ids`
/// placeholder. This is the pass behind [`Graph::validate`].
pub fn check_kinds(graph: &Graph, report: &mut VerifyReport) {
    // Kind of each node's output: true = ids, false = tensor.
    let mut is_ids = vec![false; graph.num_nodes()];
    for (idx, op) in graph.ops().iter().enumerate() {
        let here = NodeId::from_index(idx);
        // (input, expected-kind) slots this op constrains.
        let mut slots: Vec<(NodeId, &'static str)> = Vec::new();
        match op {
            Op::Placeholder(ph) => {
                if let Ok(def) = graph.placeholder_def(*ph) {
                    is_ids[idx] = def.kind == PhKind::Ids;
                }
            }
            Op::Variable(_) | Op::Constant(_) => {}
            Op::Gather { ids, .. } => slots.push((*ids, "ids")),
            Op::SoftmaxXent { logits, labels } => {
                slots.push((*logits, "tensor"));
                slots.push((*labels, "ids"));
            }
            other => {
                for input in other.inputs() {
                    slots.push((input, "tensor"));
                }
            }
        }
        for (input, expected) in slots {
            // Out-of-range inputs are the structural pass's problem.
            let Some(&got_ids) = is_ids.get(input.index()) else {
                continue;
            };
            if got_ids != (expected == "ids") {
                let mut d = Diagnostic::error(
                    DiagCode::G005,
                    format!(
                        "{} expects a {expected} input but node {} produces {}",
                        op.name(),
                        input.index(),
                        if got_ids { "ids" } else { "a tensor" }
                    ),
                )
                .at_node(graph, here);
                d.expected = Some(expected);
                d.reference = Some(input.index());
                report.push(d);
            }
        }
    }
}

/// Liveness pass (warnings): with a loss node given, flags variables
/// whose every access node lies outside the loss's ancestor set
/// (`G003`: the variable would receive no gradient) and nodes that are
/// not ancestors of the loss (`G004`: dead subgraph). Without a loss,
/// only variables with no access node at all are flagged.
pub fn check_liveness(graph: &Graph, loss: Option<NodeId>, report: &mut VerifyReport) {
    let num_nodes = graph.num_nodes();
    let live: HashSet<usize> = match loss {
        Some(loss) if loss.index() < num_nodes => {
            let mut seen = HashSet::new();
            let mut stack = vec![loss.index()];
            while let Some(n) = stack.pop() {
                if !seen.insert(n) {
                    continue;
                }
                if let Ok(op) = graph.op(NodeId::from_index(n)) {
                    for input in op.inputs() {
                        if input.index() < num_nodes {
                            stack.push(input.index());
                        }
                    }
                }
            }
            seen
        }
        Some(loss) => {
            report.push(Diagnostic::error(
                DiagCode::G002,
                format!("loss node {} does not exist", loss.index()),
            ));
            return;
        }
        None => (0..num_nodes).collect(),
    };

    if loss.is_some() {
        for idx in 0..num_nodes {
            if !live.contains(&idx) {
                report.push(
                    Diagnostic::warning(
                        DiagCode::G004,
                        "node is not an ancestor of the loss (dead subgraph)",
                    )
                    .at_node(graph, NodeId::from_index(idx)),
                );
            }
        }
    }

    let mut accessed = vec![false; graph.variables().len()];
    for (idx, op) in graph.ops().iter().enumerate() {
        if !live.contains(&idx) {
            continue;
        }
        match op {
            Op::Variable(v) | Op::Gather { table: v, .. } => {
                if let Some(slot) = accessed.get_mut(v.index()) {
                    *slot = true;
                }
            }
            _ => {}
        }
    }
    for (v, def) in graph.variables().iter().enumerate() {
        if !accessed[v] {
            report.push(
                Diagnostic::warning(
                    DiagCode::G003,
                    format!(
                        "variable '{}' is never accessed by a loss ancestor and \
                         would receive no gradient",
                        def.name
                    ),
                )
                .for_var(v),
            );
        }
    }
}

/// Matrix shape of a node's output with possibly-unknown dimensions.
/// Everything the executor handles is matrix-like (see
/// `Shape::as_matrix`), so two optional dimensions are a faithful
/// abstraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MatShape {
    rows: Option<usize>,
    cols: Option<usize>,
}

impl MatShape {
    fn known(rows: usize, cols: usize) -> Self {
        MatShape {
            rows: Some(rows),
            cols: Some(cols),
        }
    }

    fn volume(self) -> Option<usize> {
        Some(self.rows? * self.cols?)
    }
}

fn dims_conflict(a: Option<usize>, b: Option<usize>) -> bool {
    matches!((a, b), (Some(x), Some(y)) if x != y)
}

fn unify(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    a.or(b)
}

fn fmt_dim(d: Option<usize>) -> String {
    match d {
        Some(d) => d.to_string(),
        None => "?".to_string(),
    }
}

fn push_s001(report: &mut VerifyReport, graph: &Graph, here: NodeId, message: String) {
    report.push(Diagnostic::error(DiagCode::S001, message).at_node(graph, here));
}

/// Shape pass: forward matrix-shape inference with per-op rules.
/// Dimensions that depend on runtime feeds stay unknown unless a
/// sample `feed` is supplied; only *definite* mismatches (both sides
/// statically known) are reported, so the pass never produces false
/// positives on feed-dependent graphs. With a sample feed the pass
/// additionally checks Gather index bounds against the table's rows
/// (`S002`).
pub fn check_shapes(graph: &Graph, feed: Option<&Feed>, report: &mut VerifyReport) {
    let n = graph.num_nodes();
    let mut shapes: Vec<MatShape> = vec![MatShape::default(); n];
    // Length of the id list a node produces, when statically known.
    let mut ids_len: Vec<Option<usize>> = vec![None; n];

    let fed = |name: &str| -> Option<&Value> { feed.and_then(|f| f.get(name).ok()) };

    for idx in 0..n {
        let here = NodeId::from_index(idx);
        let op = match graph.op(here) {
            Ok(op) => op.clone(),
            Err(_) => continue,
        };
        // Structurally broken inputs are reported by check_structure;
        // treat them as unknown here.
        let input_shape =
            |id: NodeId, shapes: &[MatShape]| shapes.get(id.index()).copied().unwrap_or_default();
        let out = match &op {
            Op::Placeholder(ph) => {
                let Ok(def) = graph.placeholder_def(*ph) else {
                    continue;
                };
                match (def.kind, fed(&def.name)) {
                    (PhKind::Float, Some(Value::Tensor(t))) => match t.shape().as_matrix() {
                        Ok((r, c)) => MatShape::known(r, c),
                        Err(_) => MatShape::default(),
                    },
                    (PhKind::Ids, Some(Value::Ids(ids))) => {
                        ids_len[idx] = Some(ids.len());
                        MatShape::default()
                    }
                    _ => MatShape::default(),
                }
            }
            Op::Variable(v) => match graph.var_def(*v) {
                Ok(def) => match def.shape.as_matrix() {
                    Ok((r, c)) => MatShape::known(r, c),
                    Err(_) => MatShape::default(),
                },
                Err(_) => continue,
            },
            Op::Constant(t) => match t.shape().as_matrix() {
                Ok((r, c)) => MatShape::known(r, c),
                Err(_) => MatShape::default(),
            },
            Op::MatMul(a, b) => {
                let (sa, sb) = (input_shape(*a, &shapes), input_shape(*b, &shapes));
                if dims_conflict(sa.cols, sb.rows) {
                    push_s001(
                        report,
                        graph,
                        here,
                        format!(
                            "MatMul inner dimensions disagree: lhs is [{}, {}], rhs is [{}, {}]",
                            fmt_dim(sa.rows),
                            fmt_dim(sa.cols),
                            fmt_dim(sb.rows),
                            fmt_dim(sb.cols)
                        ),
                    );
                }
                MatShape {
                    rows: sa.rows,
                    cols: sb.cols,
                }
            }
            Op::MatMulBT(a, b) => {
                let (sa, sb) = (input_shape(*a, &shapes), input_shape(*b, &shapes));
                if dims_conflict(sa.cols, sb.cols) {
                    push_s001(
                        report,
                        graph,
                        here,
                        format!(
                            "MatMulBT inner dimensions disagree: lhs cols {} vs rhs cols {}",
                            fmt_dim(sa.cols),
                            fmt_dim(sb.cols)
                        ),
                    );
                }
                MatShape {
                    rows: sa.rows,
                    cols: sb.rows,
                }
            }
            Op::Add(a, b) | Op::Sub(a, b) | Op::Hadamard(a, b) => {
                let (sa, sb) = (input_shape(*a, &shapes), input_shape(*b, &shapes));
                if dims_conflict(sa.rows, sb.rows) || dims_conflict(sa.cols, sb.cols) {
                    push_s001(
                        report,
                        graph,
                        here,
                        format!(
                            "{} operands have different shapes: [{}, {}] vs [{}, {}]",
                            op.name(),
                            fmt_dim(sa.rows),
                            fmt_dim(sa.cols),
                            fmt_dim(sb.rows),
                            fmt_dim(sb.cols)
                        ),
                    );
                }
                MatShape {
                    rows: unify(sa.rows, sb.rows),
                    cols: unify(sa.cols, sb.cols),
                }
            }
            Op::AddBias { x, bias } => {
                let (sx, sb) = (input_shape(*x, &shapes), input_shape(*bias, &shapes));
                if dims_conflict(sx.cols, sb.cols) {
                    push_s001(
                        report,
                        graph,
                        here,
                        format!(
                            "AddBias bias has {} columns but the input has {}",
                            fmt_dim(sb.cols),
                            fmt_dim(sx.cols)
                        ),
                    );
                }
                MatShape {
                    rows: sx.rows,
                    cols: unify(sx.cols, sb.cols),
                }
            }
            Op::Scale(a, _) | Op::Sigmoid(a) | Op::Tanh(a) | Op::Relu(a) | Op::SoftmaxRows(a) => {
                input_shape(*a, &shapes)
            }
            Op::SumRowsToColumn(a) => MatShape {
                rows: input_shape(*a, &shapes).rows,
                cols: Some(1),
            },
            Op::ScaleRows { x, s } => {
                let (sx, ss) = (input_shape(*x, &shapes), input_shape(*s, &shapes));
                if dims_conflict(ss.cols, Some(1)) {
                    push_s001(
                        report,
                        graph,
                        here,
                        format!(
                            "ScaleRows scaling input must be a [rows, 1] column, got {} columns",
                            fmt_dim(ss.cols)
                        ),
                    );
                }
                if dims_conflict(sx.rows, ss.rows) {
                    push_s001(
                        report,
                        graph,
                        here,
                        format!(
                            "ScaleRows operands have different row counts: {} vs {}",
                            fmt_dim(sx.rows),
                            fmt_dim(ss.rows)
                        ),
                    );
                }
                sx
            }
            Op::Gather { table, ids } => {
                let Ok(def) = graph.var_def(*table) else {
                    continue;
                };
                let rows = def.shape.dims().first().copied().unwrap_or(0);
                let cols = def.num_elements().checked_div(rows).unwrap_or(0);
                // Bounds-check fed ids against the table's rows (S002).
                if let Ok(Op::Placeholder(ph)) = graph.op(*ids) {
                    if let Ok(def_ph) = graph.placeholder_def(*ph) {
                        if let Some(Value::Ids(list)) = fed(&def_ph.name) {
                            if let Some(&max) = list.iter().max() {
                                if max >= rows {
                                    report.push(
                                        Diagnostic::error(
                                            DiagCode::S002,
                                            format!(
                                                "Gather index {max} out of bounds for table \
                                                 '{}' with {rows} rows",
                                                def.name
                                            ),
                                        )
                                        .at_node(graph, here)
                                        .for_var(table.index()),
                                    );
                                }
                            }
                        }
                    }
                }
                MatShape {
                    rows: ids_len.get(ids.index()).copied().flatten(),
                    cols: Some(cols),
                }
            }
            Op::ConcatCols(parts) => {
                let mut rows: Option<usize> = None;
                let mut cols: Option<usize> = Some(0);
                for p in parts {
                    let sp = input_shape(*p, &shapes);
                    if dims_conflict(rows, sp.rows) {
                        push_s001(
                            report,
                            graph,
                            here,
                            format!(
                                "ConcatCols inputs have different row counts: {} vs {}",
                                fmt_dim(rows),
                                fmt_dim(sp.rows)
                            ),
                        );
                    }
                    rows = unify(rows, sp.rows);
                    cols = match (cols, sp.cols) {
                        (Some(acc), Some(c)) => Some(acc + c),
                        _ => None,
                    };
                }
                MatShape { rows, cols }
            }
            Op::SliceCols {
                input,
                start,
                width,
            } => {
                let si = input_shape(*input, &shapes);
                if let Some(total) = si.cols {
                    if start + width > total {
                        push_s001(
                            report,
                            graph,
                            here,
                            format!(
                                "SliceCols [{start}, {}) exceeds the input's {total} columns",
                                start + width
                            ),
                        );
                    }
                }
                MatShape {
                    rows: si.rows,
                    cols: Some(*width),
                }
            }
            Op::SliceRows { input, start, rows } => {
                let si = input_shape(*input, &shapes);
                if let Some(total) = si.rows {
                    if start + rows > total {
                        push_s001(
                            report,
                            graph,
                            here,
                            format!(
                                "SliceRows [{start}, {}) exceeds the input's {total} rows",
                                start + rows
                            ),
                        );
                    }
                }
                MatShape {
                    rows: Some(*rows),
                    cols: si.cols,
                }
            }
            Op::Reshape(a, shape) => {
                let sa = input_shape(*a, &shapes);
                if let Some(vol) = sa.volume() {
                    if vol != shape.volume() {
                        report.push(
                            Diagnostic::error(
                                DiagCode::S003,
                                format!(
                                    "Reshape changes the element count: input has {vol} \
                                     elements, target shape {:?} has {}",
                                    shape.dims(),
                                    shape.volume()
                                ),
                            )
                            .at_node(graph, here),
                        );
                    }
                }
                match shape.as_matrix() {
                    Ok((r, c)) => MatShape::known(r, c),
                    Err(_) => MatShape::default(),
                }
            }
            Op::MeanAll(_) => MatShape::known(1, 1),
            Op::SoftmaxXent { logits, labels } => {
                let sl = input_shape(*logits, &shapes);
                if let Some(len) = ids_len.get(labels.index()).copied().flatten() {
                    if dims_conflict(sl.rows, Some(len)) {
                        push_s001(
                            report,
                            graph,
                            here,
                            format!(
                                "SoftmaxXent has {} logit rows but {len} labels",
                                fmt_dim(sl.rows)
                            ),
                        );
                    }
                }
                MatShape::known(1, 1)
            }
        };
        shapes[idx] = out;
    }
}

/// Runs every single-device pass over the graph and returns the
/// collected report. Kind/liveness/shape passes are skipped when the
/// structural pass finds errors, since their premises (in-range,
/// topologically ordered references) would not hold.
pub fn verify_graph(graph: &Graph, loss: Option<NodeId>, feed: Option<&Feed>) -> VerifyReport {
    let mut report = VerifyReport::new();
    check_structure(graph, &mut report);
    if report.has_errors() {
        return report;
    }
    check_kinds(graph, &mut report);
    check_liveness(graph, loss, &mut report);
    check_shapes(graph, feed, &mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Init, VariableDef};
    use parallax_tensor::{Shape, Tensor};

    fn small_graph() -> (Graph, NodeId) {
        let mut g = Graph::new();
        let emb = g
            .variable(VariableDef::new("emb", [10, 4], Init::Glorot))
            .unwrap();
        let w = g
            .variable(VariableDef::new("w", [4, 2], Init::Glorot))
            .unwrap();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        let x = g.add(Op::Gather { table: emb, ids }).unwrap();
        let wr = g.read(w).unwrap();
        let y = g.add(Op::MatMul(x, wr)).unwrap();
        let labels = g.placeholder("labels", PhKind::Ids).unwrap();
        let loss = g.add(Op::SoftmaxXent { logits: y, labels }).unwrap();
        (g, loss)
    }

    #[test]
    fn clean_graph_verifies_clean() {
        let (g, loss) = small_graph();
        let report = verify_graph(&g, Some(loss), None);
        assert!(report.diagnostics.is_empty(), "{}", report.render());
    }

    #[test]
    fn forward_reference_is_g001_not_a_panic() {
        let mut g = Graph::new();
        // Node 0 references node 1 and node 1 references node 0: a cycle.
        g.add_unchecked(Op::Sigmoid(NodeId::from_index(1)));
        g.add_unchecked(Op::Tanh(NodeId::from_index(0)));
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::G001), "{}", report.render());
    }

    #[test]
    fn dangling_input_is_g002() {
        let mut g = Graph::new();
        g.add_unchecked(Op::Relu(NodeId::from_index(7)));
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::G002), "{}", report.render());
        // The structural pass gates the rest; no spurious extras.
        assert!(report.errors().all(|d| d.code == DiagCode::G002));
    }

    #[test]
    fn unreachable_variable_is_g003_warning() {
        let (mut g, loss) = small_graph();
        g.variable(VariableDef::new("orphan", [3, 3], Init::Zeros))
            .unwrap();
        let report = verify_graph(&g, Some(loss), None);
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.has_code(DiagCode::G003));
        let diag = report
            .warnings()
            .find(|d| d.code == DiagCode::G003)
            .unwrap();
        assert_eq!(diag.var, Some(2));
    }

    #[test]
    fn dead_subgraph_is_g004_warning() {
        let (mut g, loss) = small_graph();
        let x = g.placeholder("x", PhKind::Float).unwrap();
        g.add(Op::Relu(x)).unwrap();
        let report = verify_graph(&g, Some(loss), None);
        assert!(!report.has_errors(), "{}", report.render());
        assert!(report.has_code(DiagCode::G004));
    }

    #[test]
    fn kind_mismatch_is_g005() {
        let mut g = Graph::new();
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        g.add(Op::Sigmoid(ids)).unwrap();
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::G005), "{}", report.render());
        let diag = report.errors().next().unwrap();
        assert_eq!(diag.expected, Some("tensor"));
        assert_eq!(diag.op, Some("Sigmoid"));
    }

    #[test]
    fn matmul_shape_mismatch_is_s001() {
        let mut g = Graph::new();
        let a = g
            .variable(VariableDef::new("a", [2, 3], Init::Glorot))
            .unwrap();
        let b = g
            .variable(VariableDef::new("b", [4, 5], Init::Glorot))
            .unwrap();
        let ar = g.read(a).unwrap();
        let br = g.read(b).unwrap();
        g.add(Op::MatMul(ar, br)).unwrap();
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::S001), "{}", report.render());
    }

    #[test]
    fn slice_out_of_range_is_s001() {
        let mut g = Graph::new();
        let a = g
            .variable(VariableDef::new("a", [2, 4], Init::Glorot))
            .unwrap();
        let ar = g.read(a).unwrap();
        g.add(Op::SliceCols {
            input: ar,
            start: 3,
            width: 2,
        })
        .unwrap();
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::S001), "{}", report.render());
    }

    #[test]
    fn gather_bounds_checked_against_feed_is_s002() {
        let (g, loss) = small_graph();
        let feed = Feed::new()
            .with("ids", vec![0usize, 11])
            .with("labels", vec![0usize, 1]);
        let report = verify_graph(&g, Some(loss), Some(&feed));
        assert!(report.has_code(DiagCode::S002), "{}", report.render());
        let ok_feed = Feed::new()
            .with("ids", vec![0usize, 9])
            .with("labels", vec![0usize, 1]);
        let report = verify_graph(&g, Some(loss), Some(&ok_feed));
        assert!(!report.has_errors(), "{}", report.render());
    }

    #[test]
    fn reshape_volume_mismatch_is_s003() {
        let mut g = Graph::new();
        let a = g
            .variable(VariableDef::new("a", [2, 3], Init::Glorot))
            .unwrap();
        let ar = g.read(a).unwrap();
        g.add(Op::Reshape(ar, Shape::from([4, 2]))).unwrap();
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::S003), "{}", report.render());
    }

    #[test]
    fn constant_shapes_flow_through_elementwise_ops() {
        let mut g = Graph::new();
        let c1 = g.constant(Tensor::zeros([2, 3])).unwrap();
        let c2 = g.constant(Tensor::zeros([3, 3])).unwrap();
        g.add(Op::Add(c1, c2)).unwrap();
        let report = verify_graph(&g, None, None);
        assert!(report.has_code(DiagCode::S001), "{}", report.render());
    }

    #[test]
    fn diagnostics_carry_builder_provenance() {
        let mut g = Graph::new();
        g.push_scope("enc");
        g.push_scope("fc1");
        let ids = g.placeholder("ids", PhKind::Ids).unwrap();
        g.add(Op::Sigmoid(ids)).unwrap();
        g.pop_scope();
        g.pop_scope();
        let report = verify_graph(&g, None, None);
        let diag = report.errors().next().expect("kind error");
        assert_eq!(diag.origin.as_deref(), Some("enc/fc1"));
        assert!(diag.to_string().contains("enc/fc1"), "{diag}");
    }

    #[test]
    fn report_renders_summary_line() {
        let mut report = VerifyReport::new();
        report.push(Diagnostic::error(DiagCode::P001, "x"));
        report.push(Diagnostic::warning(DiagCode::G003, "y"));
        let text = report.render();
        assert!(text.contains("error[P001]"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s)"), "{text}");
    }
}
