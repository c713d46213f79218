//! The global tracer: span recording, counters, histograms.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};

// Counter and histogram cells compile against loom's atomics under
// `--cfg loom` so concurrent metric aggregation can be model-checked
// (tests/loom_metrics.rs); ordinary builds use std.
#[cfg(loom)]
use loom::sync::atomic::AtomicU64;
#[cfg(not(loom))]
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Machine id used for threads that never called [`set_thread_track`].
pub const UNTRACKED_MACHINE: u32 = u32::MAX;

/// Lane reserved for *modelled* (simulated) timelines, so measured and
/// simulated rows of the same machine sit side by side in a viewer.
pub const SIM_LANE: u32 = u32::MAX - 1;

/// Default per-thread ring capacity (records).
const DEFAULT_CAPACITY: usize = 1 << 16;

/// Category of a span, mapped to the `cat` field of Chrome trace events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanCat {
    /// Operator execution (forward/backward compute).
    Compute,
    /// Collective communication (AllReduce, AllGatherv, reduce, ...).
    Collective,
    /// Parameter Server protocol activity.
    Ps,
    /// Iteration phases (forward / backward / exchange / apply).
    Phase,
    /// Modelled (simulated) timeline entries, not measured ones.
    Sim,
}

impl SpanCat {
    /// Stable lowercase name for exporters.
    pub fn as_str(&self) -> &'static str {
        match self {
            SpanCat::Compute => "compute",
            SpanCat::Collective => "collective",
            SpanCat::Ps => "ps",
            SpanCat::Phase => "phase",
            SpanCat::Sim => "sim",
        }
    }

    /// Every category, in export order.
    pub fn all() -> [SpanCat; 5] {
        [
            SpanCat::Compute,
            SpanCat::Collective,
            SpanCat::Ps,
            SpanCat::Phase,
            SpanCat::Sim,
        ]
    }
}

/// Flow-event marker carried by a span: links a producer span to the
/// consumer span that handles its payload on another thread. Exporters
/// turn `Start` into a Chrome-trace `s` event and `Finish` into an `f`
/// event with the same id, drawing an arrow between the two slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowPoint {
    /// Span participates in no flow.
    #[default]
    None,
    /// Span originates flow `id` (e.g. a worker pushing a gradient).
    Start(u64),
    /// Span terminates flow `id` (e.g. the server serving that push).
    Finish(u64),
}

impl FlowPoint {
    /// The flow id, if any.
    pub fn id(&self) -> Option<u64> {
        match self {
            FlowPoint::None => None,
            FlowPoint::Start(id) | FlowPoint::Finish(id) => Some(*id),
        }
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Category.
    pub cat: SpanCat,
    /// Span name (static so the hot path never allocates).
    pub name: &'static str,
    /// Machine (Chrome trace `pid`); [`UNTRACKED_MACHINE`] if unset.
    pub machine: u32,
    /// Lane within the machine (Chrome trace `tid`), typically the
    /// worker/server rank; [`SIM_LANE`] for modelled timelines.
    pub lane: u32,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Training iteration the span belongs to (from [`set_thread_iter`]).
    pub iter: u64,
    /// Network bytes attributed to this span by [`on_net_bytes`].
    pub bytes: u64,
    /// Flow-event marker (see [`FlowPoint`]); `None` for most spans.
    pub flow: FlowPoint,
}

/// Tracer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// Tracing disabled: every instrumentation site reduces to one
    /// relaxed atomic load.
    Off,
    /// Tracing enabled with the given per-thread ring capacity.
    On {
        /// Maximum records retained per thread; older records are
        /// dropped (and counted) once the ring is full.
        per_thread_capacity: usize,
    },
}

impl TraceConfig {
    /// Enabled with the default ring capacity.
    pub fn on() -> Self {
        TraceConfig::On {
            per_thread_capacity: DEFAULT_CAPACITY,
        }
    }
}

/// Metadata describing one recording thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Machine (Chrome `pid`).
    pub machine: u32,
    /// Lane (Chrome `tid`).
    pub lane: u32,
    /// Human-readable label ("worker0 (rank 1)", "server(m0)", ...).
    pub label: String,
}

/// A histogram snapshot: power-of-two buckets.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// `buckets[i]` counts values whose bit length is `i` (bucket 0 is
    /// the value zero; bucket `i` covers `2^(i-1) ..= 2^i - 1`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }
}

const BUCKETS: usize = 65;

struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramInner {
    fn new() -> Self {
        HistogramInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// A monotonic counter handle. Cheap to clone; cache it outside hot
/// loops (the name lookup takes the registry lock).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Fresh unregistered counter. For the loom model-check suite,
    /// which needs per-execution state the global registry can't give.
    #[doc(hidden)]
    pub fn standalone() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A histogram handle. Cheap to clone; cache it outside hot loops.
#[derive(Clone)]
pub struct HistogramHandle(Arc<HistogramInner>);

impl HistogramHandle {
    /// Fresh unregistered histogram; see [`Counter::standalone`].
    #[doc(hidden)]
    pub fn standalone() -> HistogramHandle {
        HistogramHandle(Arc::new(HistogramInner::new()))
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.0.record(value);
    }

    /// Snapshot of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0.snapshot()
    }
}

impl std::fmt::Debug for HistogramHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram(count={})",
            self.0.count.load(Ordering::Relaxed)
        )
    }
}

/// Everything the tracer accumulated since the last [`drain`]/[`reset`].
#[derive(Debug, Clone, Default)]
pub struct TraceDump {
    /// Completed spans, grouped by recording thread in completion order.
    pub records: Vec<SpanRecord>,
    /// Metadata of every thread that recorded at least one span.
    pub threads: Vec<ThreadInfo>,
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram snapshots by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Network bytes sent outside any open span (should be 0 when every
    /// send site is covered by instrumentation).
    pub unattributed_net_bytes: u64,
    /// Records lost to ring-buffer overflow.
    pub dropped: u64,
}

impl TraceDump {
    /// Sum of `bytes` over all spans plus the unattributed spill — the
    /// quantity that must equal the traffic accountant's
    /// `total_network_bytes()` when every send is instrumented.
    ///
    /// Spans on [`SIM_LANE`](crate::SIM_LANE) are excluded: those are
    /// *modelled* timelines injected next to the measured ones, and their
    /// bytes restate traffic the accountant already counted.
    pub fn total_span_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.lane != crate::SIM_LANE)
            .map(|r| r.bytes)
            .sum::<u64>()
            + self.unattributed_net_bytes
    }
}

// ------------------------------------------------------------------ globals

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU32 = AtomicU32::new(1 << 20);

struct Ring {
    records: Vec<SpanRecord>,
    next: usize,
    dropped: u64,
}

struct ThreadShared {
    info: Mutex<ThreadInfo>,
    buf: Mutex<Ring>,
}

struct Registry {
    epoch: Instant,
    capacity: AtomicUsize,
    threads: Mutex<Vec<Arc<ThreadShared>>>,
    injected: Mutex<Vec<SpanRecord>>,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    unattributed: AtomicU64,
}

/// Locks `m`, recovering the data when a panicking thread poisoned it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        epoch: Instant::now(),
        capacity: AtomicUsize::new(DEFAULT_CAPACITY),
        threads: Mutex::new(Vec::new()),
        injected: Mutex::new(Vec::new()),
        counters: Mutex::new(BTreeMap::new()),
        histograms: Mutex::new(BTreeMap::new()),
        unattributed: AtomicU64::new(0),
    })
}

struct Frame {
    cat: SpanCat,
    name: &'static str,
    start_ns: u64,
    bytes: u64,
    flow: FlowPoint,
}

struct Tls {
    shared: Arc<ThreadShared>,
    frames: Vec<Frame>,
    machine: u32,
    lane: u32,
    iter: u64,
}

thread_local! {
    static TLS: RefCell<Option<Tls>> = const { RefCell::new(None) };
}

fn with_tls<R>(f: impl FnOnce(&mut Tls) -> R) -> R {
    TLS.with(|slot| {
        let mut slot = slot.borrow_mut();
        let tls = slot.get_or_insert_with(|| {
            let lane = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::new(ThreadShared {
                info: Mutex::new(ThreadInfo {
                    machine: UNTRACKED_MACHINE,
                    lane,
                    label: format!("thread-{lane}"),
                }),
                buf: Mutex::new(Ring {
                    records: Vec::new(),
                    next: 0,
                    dropped: 0,
                }),
            });
            lock(&registry().threads).push(Arc::clone(&shared));
            Tls {
                shared,
                frames: Vec::new(),
                machine: UNTRACKED_MACHINE,
                lane,
                iter: 0,
            }
        });
        f(tls)
    })
}

// ---------------------------------------------------------------- public api

/// Whether tracing is currently enabled. One relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Applies a configuration. `Off` leaves already-recorded data in place
/// (drain it whenever convenient); `On` sets the per-thread capacity for
/// rings created afterwards.
pub fn configure(config: TraceConfig) {
    match config {
        TraceConfig::Off => ENABLED.store(false, Ordering::SeqCst),
        TraceConfig::On {
            per_thread_capacity,
        } => {
            registry()
                .capacity
                .store(per_thread_capacity.max(1), Ordering::Relaxed);
            ENABLED.store(true, Ordering::SeqCst);
        }
    }
}

/// Shorthand for `configure(TraceConfig::Off)`.
pub fn disable() {
    configure(TraceConfig::Off);
}

/// Nanoseconds since the tracer epoch.
pub fn now_ns() -> u64 {
    registry().epoch.elapsed().as_nanos() as u64
}

/// Declares the current thread's position in the cluster: `machine`
/// becomes the Chrome-trace `pid`, `lane` the `tid` (use the worker or
/// server rank). Spans recorded afterwards carry this track.
pub fn set_thread_track(machine: u32, lane: u32, label: &str) {
    if !enabled() {
        return;
    }
    with_tls(|tls| {
        tls.machine = machine;
        tls.lane = lane;
        *lock(&tls.shared.info) = ThreadInfo {
            machine,
            lane,
            label: label.to_string(),
        };
    });
}

/// Tags subsequent spans on this thread with a training iteration.
pub fn set_thread_iter(iter: u64) {
    if !enabled() {
        return;
    }
    with_tls(|tls| tls.iter = iter);
}

/// Opens a span; the span closes (and is recorded) when the returned
/// guard drops. Nesting is per-thread and must be properly bracketed,
/// which scope-based guards guarantee.
#[inline]
pub fn span(cat: SpanCat, name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: false };
    }
    span_slow(cat, name, 0, FlowPoint::None)
}

/// Like [`span`], with `bytes` pre-attributed (for callers that know a
/// payload size upfront rather than routing through [`on_net_bytes`]).
#[inline]
pub fn span_with_bytes(cat: SpanCat, name: &'static str, bytes: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: false };
    }
    span_slow(cat, name, bytes, FlowPoint::None)
}

/// Like [`span`], carrying a [`FlowPoint`] so the exported span links to
/// its producer/consumer on another thread via Chrome-trace flow events.
#[inline]
pub fn span_with_flow(cat: SpanCat, name: &'static str, flow: FlowPoint) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: false };
    }
    span_slow(cat, name, 0, flow)
}

#[inline(never)]
fn span_slow(cat: SpanCat, name: &'static str, bytes: u64, flow: FlowPoint) -> SpanGuard {
    let start_ns = now_ns();
    with_tls(|tls| {
        tls.frames.push(Frame {
            cat,
            name,
            start_ns,
            bytes,
            flow,
        })
    });
    SpanGuard { open: true }
}

/// Attributes `bytes` of network traffic to the innermost open span on
/// this thread (or to the global unattributed counter if none is open).
/// Call this exactly where the traffic accountant charges inter-machine
/// bytes so tracing and accounting can be cross-checked.
#[inline]
pub fn on_net_bytes(bytes: u64) {
    if !enabled() {
        return;
    }
    with_tls(|tls| match tls.frames.last_mut() {
        Some(frame) => frame.bytes += bytes,
        None => {
            registry().unattributed.fetch_add(bytes, Ordering::Relaxed);
        }
    });
}

/// RAII guard returned by [`span`]; records the span on drop.
#[must_use = "a span closes when its guard drops"]
#[derive(Debug)]
pub struct SpanGuard {
    open: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.open {
            return;
        }
        let end_ns = now_ns();
        with_tls(|tls| {
            let Some(frame) = tls.frames.pop() else {
                return;
            };
            let record = SpanRecord {
                cat: frame.cat,
                name: frame.name,
                machine: tls.machine,
                lane: tls.lane,
                start_ns: frame.start_ns,
                dur_ns: end_ns.saturating_sub(frame.start_ns),
                iter: tls.iter,
                bytes: frame.bytes,
                flow: frame.flow,
            };
            let cap = registry().capacity.load(Ordering::Relaxed);
            let mut buf = lock(&tls.shared.buf);
            if buf.records.len() < cap {
                buf.records.push(record);
            } else {
                let slot = buf.next % cap;
                buf.records[slot] = record;
                buf.next = slot + 1;
                buf.dropped += 1;
            }
        });
    }
}

/// Returns the counter registered under `name`, creating it on first
/// use. Cache the handle outside hot loops.
pub fn counter(name: &str) -> Counter {
    let mut counters = lock(&registry().counters);
    let arc = counters
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Counter(Arc::clone(arc))
}

/// Returns the histogram registered under `name`, creating it on first
/// use. Cache the handle outside hot loops.
pub fn histogram(name: &str) -> HistogramHandle {
    let mut histograms = lock(&registry().histograms);
    let arc = histograms
        .entry(name.to_string())
        .or_insert_with(|| Arc::new(HistogramInner::new()));
    HistogramHandle(Arc::clone(arc))
}

/// Appends externally produced records (e.g. a *modelled* timeline from
/// the cluster simulator) so they export alongside measured spans.
pub fn inject(records: impl IntoIterator<Item = SpanRecord>) {
    lock(&registry().injected).extend(records);
}

/// Collects everything recorded since the last drain and resets the
/// tracer's buffers, counters, and histograms. Spans still open on some
/// thread are not included (they record when their guard drops).
pub fn drain() -> TraceDump {
    let reg = registry();
    let mut records = Vec::new();
    let mut threads = Vec::new();
    let mut dropped = 0u64;
    for shared in lock(&reg.threads).iter() {
        let mut buf = lock(&shared.buf);
        if buf.records.is_empty() && buf.dropped == 0 {
            continue;
        }
        // Ring order: oldest first once wrapped.
        let next = buf.next;
        let mut recs = std::mem::take(&mut buf.records);
        if buf.dropped > 0 && next < recs.len() {
            recs.rotate_left(next);
        }
        dropped += buf.dropped;
        buf.next = 0;
        buf.dropped = 0;
        records.extend(recs);
        threads.push(lock(&shared.info).clone());
    }
    records.extend(std::mem::take(&mut *lock(&reg.injected)));
    let counters: Vec<(String, u64)> = lock(&reg.counters)
        .iter()
        .map(|(k, v)| (k.clone(), v.swap(0, Ordering::Relaxed)))
        .filter(|(_, v)| *v > 0)
        .collect();
    let histograms: Vec<(String, HistogramSnapshot)> = lock(&reg.histograms)
        .iter()
        .map(|(k, v)| {
            let snap = v.snapshot();
            v.reset();
            (k.clone(), snap)
        })
        .filter(|(_, s)| s.count > 0)
        .collect();
    TraceDump {
        records,
        threads,
        counters,
        histograms,
        unattributed_net_bytes: reg.unattributed.swap(0, Ordering::Relaxed),
        dropped,
    }
}

/// Discards everything recorded since the last drain.
pub fn reset() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tracer is process-global; tests serialize on this lock so
    /// they do not observe each other's records.
    pub(crate) fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        lock(LOCK.get_or_init(|| Mutex::new(())))
    }

    fn fresh() {
        configure(TraceConfig::on());
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = test_lock();
        fresh();
        disable();
        {
            let _g = span(SpanCat::Compute, "noop");
            on_net_bytes(100);
        }
        configure(TraceConfig::on());
        let dump = drain();
        assert!(dump.records.is_empty());
        assert_eq!(dump.unattributed_net_bytes, 0);
        disable();
    }

    #[test]
    fn spans_nest_and_bytes_go_to_innermost() {
        let _l = test_lock();
        fresh();
        set_thread_track(3, 7, "worker");
        set_thread_iter(5);
        {
            let _outer = span(SpanCat::Collective, "outer");
            on_net_bytes(10);
            {
                let _inner = span(SpanCat::Collective, "inner");
                on_net_bytes(32);
            }
            on_net_bytes(5);
        }
        let dump = drain();
        disable();
        assert_eq!(dump.records.len(), 2);
        // Inner closes (records) first.
        let inner = &dump.records[0];
        let outer = &dump.records[1];
        assert_eq!((inner.name, inner.bytes), ("inner", 32));
        assert_eq!((outer.name, outer.bytes), ("outer", 15));
        assert_eq!((outer.machine, outer.lane, outer.iter), (3, 7, 5));
        assert!(outer.start_ns <= inner.start_ns);
        assert!(outer.start_ns + outer.dur_ns >= inner.start_ns + inner.dur_ns);
        assert_eq!(dump.threads.len(), 1);
        assert_eq!(dump.threads[0].label, "worker");
    }

    #[test]
    fn bytes_outside_spans_are_unattributed() {
        let _l = test_lock();
        fresh();
        on_net_bytes(77);
        let dump = drain();
        disable();
        assert_eq!(dump.unattributed_net_bytes, 77);
        assert_eq!(dump.total_span_bytes(), 77);
    }

    #[test]
    fn ring_overflow_drops_oldest() {
        let _l = test_lock();
        configure(TraceConfig::On {
            per_thread_capacity: 4,
        });
        reset();
        for i in 0..6u64 {
            set_thread_iter(i);
            let _g = span(SpanCat::Compute, "op");
        }
        let dump = drain();
        disable();
        assert_eq!(dump.records.len(), 4);
        assert_eq!(dump.dropped, 2);
        // Oldest-first order preserved after wrap: iters 2..=5 survive.
        let iters: Vec<u64> = dump.records.iter().map(|r| r.iter).collect();
        assert_eq!(iters, vec![2, 3, 4, 5]);
    }

    #[test]
    fn counters_and_histograms_snapshot_and_reset() {
        let _l = test_lock();
        fresh();
        let c = counter("test.bytes");
        c.add(5);
        c.add(7);
        let h = histogram("test.lat");
        h.record(0);
        h.record(3);
        h.record(1000);
        let dump = drain();
        disable();
        assert!(dump.counters.contains(&("test.bytes".to_string(), 12)));
        let (_, snap) = dump
            .histograms
            .iter()
            .find(|(n, _)| n == "test.lat")
            .unwrap();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, 1003);
        assert!((snap.mean() - 1003.0 / 3.0).abs() < 1e-9);
        // 1st of 3 values is the zero; 2nd falls in the 2..=3 bucket.
        assert_eq!(snap.quantile_upper_bound(0.33), 0);
        assert_eq!(snap.quantile_upper_bound(0.34), 3);
        assert!(snap.quantile_upper_bound(1.0) >= 1000);
        // Drained: a second drain sees nothing.
        configure(TraceConfig::on());
        let dump2 = drain();
        disable();
        assert!(dump2.counters.iter().all(|(n, _)| n != "test.bytes"));
    }

    #[test]
    fn inject_appends_external_records() {
        let _l = test_lock();
        fresh();
        inject([SpanRecord {
            cat: SpanCat::Sim,
            name: "sim.compute",
            machine: 0,
            lane: SIM_LANE,
            start_ns: 0,
            dur_ns: 1000,
            iter: 0,
            bytes: 0,
            flow: FlowPoint::None,
        }]);
        let dump = drain();
        disable();
        assert_eq!(dump.records.len(), 1);
        assert_eq!(dump.records[0].cat, SpanCat::Sim);
    }

    #[test]
    fn threads_report_into_one_dump() {
        let _l = test_lock();
        fresh();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                s.spawn(move || {
                    set_thread_track(t, t, &format!("t{t}"));
                    let _g = span(SpanCat::Compute, "work");
                });
            }
        });
        let dump = drain();
        disable();
        assert_eq!(dump.records.len(), 4);
        let mut machines: Vec<u32> = dump.records.iter().map(|r| r.machine).collect();
        machines.sort_unstable();
        assert_eq!(machines, vec![0, 1, 2, 3]);
    }
}
