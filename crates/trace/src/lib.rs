#![warn(missing_docs)]

//! Observability substrate: spans, counters, histograms, and timeline
//! exporters for the Parallax runtime.
//!
//! Every hot layer of the workspace (graph execution, collectives, the
//! Parameter Server, the iteration runner, and the cluster simulator)
//! records into one process-global tracer. The design goals, in order:
//!
//! 1. **Zero overhead when disabled.** [`span`] and [`on_net_bytes`]
//!    compile down to a single relaxed atomic load on the
//!    [`TraceConfig::Off`] path — no allocation, no lock, no time
//!    measurement. The `repro trace-overhead` micro-bench measures this
//!    against the kernel path.
//! 2. **Lock-light when enabled.** Each thread records spans into its
//!    own ring buffer; the only lock taken on the hot path is that
//!    buffer's own (uncontended) mutex. The global registry mutex is
//!    touched once per thread (registration) and at export time.
//! 3. **Cross-checkable byte accounting.** [`on_net_bytes`] is called
//!    from the transport at exactly the site where `TrafficStats`
//!    charges inter-machine bytes, and attributes them to the innermost
//!    open span of the sending thread. Summing span bytes (plus the
//!    unattributed spill counter) therefore reproduces
//!    `TrafficSnapshot::total_network_bytes()` exactly — a property the
//!    integration suite asserts.
//!
//! Exporters live in [`export`]: Chrome `chrome://tracing`/Perfetto
//! JSON (one row per simulated machine/worker), a per-iteration
//! self-time breakdown table, a straggler report, and a
//! machine-readable summary. [`json`] is the workspace's one JSON
//! reader and string escaper.

pub mod export;
pub mod json;
mod tracer;

pub use tracer::{
    configure, counter, disable, drain, enabled, histogram, inject, now_ns, on_net_bytes, reset,
    set_thread_iter, set_thread_track, span, span_with_bytes, span_with_flow, Counter, FlowPoint,
    HistogramHandle, HistogramSnapshot, SpanCat, SpanGuard, SpanRecord, ThreadInfo, TraceConfig,
    TraceDump, SIM_LANE, UNTRACKED_MACHINE,
};
