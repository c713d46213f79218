//! Collective communication: ring AllReduce, AllGatherv, and the
//! gather to a root behind local aggregation.
//!
//! Every participant calls the same function concurrently with its own
//! endpoint and the same participant list and tag. Ring collectives only
//! ever receive from the ring predecessor under a single tag, so FIFO
//! channel ordering guarantees step alignment without per-step tags.
//!
//! Ring AllReduce takes a bucket of buffers and reduces them in one
//! chunk-major ring: the runner passes every ring-exchanged gradient of
//! a step at once, so a step costs one collective and `2(N-1)` messages
//! per rank however many variables ride the ring.
//!
//! Costs match the paper's Section 3.1 analysis: ring AllReduce moves
//! `w/N` bytes per worker per step for `2(N-1)` steps, where `w` is the
//! bucket's total size; AllGatherv moves each worker's full contribution
//! for `N-1` steps.

use std::ops::Range;
use std::sync::Arc;

use parallax_tensor::IndexedSlices;
use parallax_trace::{span, SpanCat};

use crate::transport::{unwrap_shared, Endpoint, Payload};
use crate::wire::{bf16_from_f32, bf16_to_f32, f16_from_f32, f16_to_f32, PackedSlices, WireFormat};
use crate::{CommError, Result};

/// Position of this endpoint within the participant list.
fn position(ep: &Endpoint, ranks: &[usize]) -> Result<usize> {
    if ranks.is_empty() {
        return Err(CommError::InvalidConfig("empty participant list".into()));
    }
    ranks
        .iter()
        .position(|&r| r == ep.rank())
        .ok_or_else(|| CommError::InvalidConfig(format!("rank {} not in group", ep.rank())))
}

/// The element range of chunk `i` when `len` elements are cut into `n`
/// near-equal chunks. Shared with the static traffic predictor
/// (`crate::predict`) so the predicted ring hops cannot drift from the
/// executed ones.
pub(crate) fn chunk_range(len: usize, n: usize, i: usize) -> std::ops::Range<usize> {
    let base = len / n;
    let rem = len % n;
    let start = i * base + i.min(rem);
    let size = base + usize::from(i < rem);
    start..start + size
}

/// The exact sum [`ring_allreduce`] produces, computed locally from the
/// per-participant contributions (indexed by ring position).
///
/// The ring fixes the fold association per chunk: chunk `c` starts at
/// position `c` and accumulates `w_c + w_{c+1} + … + w_{c+n-1}` in
/// ascending position order (wrapping mod `n`). Any aggregator that
/// must be bitwise interchangeable with the ring — in particular the
/// Parameter Server's dense accumulator — replays that exact schedule
/// through this function instead of summing in arrival order. A fused
/// ring cuts each buffer of its bucket into its own chunks, so this
/// one-buffer schedule holds for every buffer of a bucket.
pub fn ring_reduce_reference(parts: &[&[f32]]) -> Result<Vec<f32>> {
    let n = parts.len();
    if n == 0 {
        return Err(CommError::InvalidConfig("empty participant list".into()));
    }
    let len = parts[0].len();
    for p in parts {
        if p.len() != len {
            return Err(CommError::LengthMismatch {
                expected: len,
                actual: p.len(),
            });
        }
    }
    let mut out = vec![0.0f32; len];
    for c in 0..n {
        let range = chunk_range(len, n, c);
        let acc = &mut out[range.clone()];
        acc.copy_from_slice(&parts[c][range.clone()]);
        for k in 1..n {
            for (a, d) in acc.iter_mut().zip(&parts[(c + k) % n][range.clone()]) {
                *a += *d;
            }
        }
    }
    Ok(out)
}

/// The bucket's pieces of ring chunk `c`: each buffer's own
/// `chunk_range(len, n, c)` beside the range it fills in the chunk's hop
/// message, in bucket order. Fails with [`CommError::LengthMismatch`]
/// when a message of `msg_len` elements is not that chunk, before any
/// buffer is touched: a peer whose bucket differs is reported here, not
/// as an out-of-range slice or a write of its data into ours.
fn chunk_parts<'a, 'b>(
    bufs: &'a mut [&'b mut [f32]],
    n: usize,
    c: usize,
    msg_len: usize,
) -> Result<impl Iterator<Item = (Range<usize>, &'a mut [f32])> + use<'a, 'b>> {
    let expected: usize = bufs.iter().map(|b| chunk_range(b.len(), n, c).len()).sum();
    if msg_len != expected {
        return Err(CommError::LengthMismatch {
            expected,
            actual: msg_len,
        });
    }
    let mut at = 0;
    Ok(bufs.iter_mut().map(move |b| {
        let local = chunk_range(b.len(), n, c);
        let msg = at..at + local.len();
        at = msg.end;
        (msg, &mut b[local])
    }))
}

/// Ring chunk `c` of the bucket as its hop message: each buffer's own
/// `chunk_range(len, n, c)` mapped through `f`, concatenated in bucket
/// order. One straight loop per buffer, into a buffer allocated once.
fn gather_chunk<T>(bufs: &[&mut [f32]], n: usize, c: usize, f: impl Fn(f32) -> T) -> Vec<T> {
    let len = bufs.iter().map(|b| chunk_range(b.len(), n, c).len()).sum();
    let mut msg = Vec::with_capacity(len);
    for b in bufs {
        msg.extend(b[chunk_range(b.len(), n, c)].iter().map(|&x| f(x)));
    }
    msg
}

/// Ring AllReduce (sum) in place over a bucket of buffers: after the
/// call every participant's buffers hold the elementwise sums over all
/// participants. All participants must pass buckets of the same lengths.
///
/// The bucket travels as one ring: the hop message of ring chunk `c`
/// concatenates, in bucket order, each buffer's own
/// `chunk_range(len, n, c)`. Every element keeps the fold start and
/// association a ring over its buffer alone would give it (so
/// [`ring_reduce_reference`] holds per buffer), while a rank sends
/// `2(n-1)` messages per call however many buffers ride it.
pub fn ring_allreduce(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    bufs: &mut [&mut [f32]],
) -> Result<()> {
    let _span = span(SpanCat::Collective, "allreduce");
    let pos = position(ep, ranks)?;
    let n = ranks.len();
    if n == 1 {
        return Ok(());
    }
    let next = ranks[(pos + 1) % n];
    let prev = ranks[(pos + n - 1) % n];

    // The chunk travelling the ring lives in `send_buf` and rotates:
    // every hop *moves* it into the router (no per-step copy — only the
    // entry gather of the first outgoing chunk below), adds the local
    // contribution into the incoming buffer, and sends that next.
    //
    // Reduce-scatter: after step s the travelling chunk (pos - s - 1)
    // holds the partial sum of s + 2 contributions; after N-1 steps rank
    // `pos` owns the fully reduced chunk (pos + 1) mod N. The buffers
    // stay untouched during this phase: every chunk index is received
    // exactly once, so their chunk is always the original local
    // contribution, and partial sums never need to be written back
    // (the allgather phase overwrites those ranges anyway).
    let mut send_buf = gather_chunk(bufs, n, pos, |x| x);
    for step in 0..n - 1 {
        let _step = span(SpanCat::Collective, "allreduce.reduce_scatter");
        let recv_idx = (pos + n - step - 1) % n;
        ep.send(next, tag, Payload::Floats(Arc::new(send_buf)))?;
        let mut incoming = ep.recv(prev, tag)?.into_floats()?;
        // partial + local: f32 addition is commutative, so this is
        // bitwise identical to adding incoming into the local chunk.
        for (msg, local) in chunk_parts(bufs, n, recv_idx, incoming.len())? {
            for (x, d) in incoming[msg].iter_mut().zip(local.iter()) {
                *x += *d;
            }
        }
        send_buf = incoming;
    }
    // The rotation ends holding this rank's fully reduced chunk.
    for (msg, out) in chunk_parts(bufs, n, (pos + 1) % n, send_buf.len())? {
        out.copy_from_slice(&send_buf[msg]);
    }
    // Allgather: circulate the reduced chunks, forwarding each received
    // buffer on the next hop. The first outgoing chunk (pos + 1) mod N
    // is exactly what `send_buf` already holds.
    for step in 0..n - 1 {
        let _step = span(SpanCat::Collective, "allreduce.allgather");
        let recv_idx = (pos + n - step) % n;
        ep.send(next, tag, Payload::Floats(Arc::new(send_buf)))?;
        let incoming = ep.recv(prev, tag)?.into_floats()?;
        for (msg, out) in chunk_parts(bufs, n, recv_idx, incoming.len())? {
            out.copy_from_slice(&incoming[msg]);
        }
        send_buf = incoming;
    }
    Ok(())
}

/// [`ring_allreduce`] with a selectable [`WireFormat`]: chunks travel as
/// 16-bit wire words under f16/bf16, halving dense exchange bytes. This
/// is the runner's one ring: each step it reduces every ring-exchanged
/// gradient as one bucket.
///
/// Accumulation stays in f32 on every hop (decode → add local f32 →
/// re-encode), so the reduction order is the fixed ring order and the
/// result is deterministic. The reduced chunk is encoded *once* by its
/// ring owner; the owner keeps the decode of that exact encoding and
/// forwards the same words verbatim around the allgather ring, so every
/// rank decodes identical bytes and all replicas stay bitwise
/// identical — the invariant the distributed-runner tests assert.
pub fn ring_allreduce_wire(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    bufs: &mut [&mut [f32]],
    wire: WireFormat,
) -> Result<()> {
    match wire {
        WireFormat::F32 => ring_allreduce(ep, ranks, tag, bufs),
        WireFormat::F16 => ring_allreduce_words(ep, ranks, tag, bufs, f16_from_f32, f16_to_f32),
        WireFormat::Bf16 => ring_allreduce_words(ep, ranks, tag, bufs, bf16_from_f32, bf16_to_f32),
    }
}

/// [`ring_allreduce_wire`] for one 16-bit format. Generic over the
/// codec so each hop is a single loop per buffer the compiler can
/// vectorize: the format is chosen once per call, not once per element.
fn ring_allreduce_words(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    bufs: &mut [&mut [f32]],
    enc: impl Fn(f32) -> u16,
    dec: impl Fn(u16) -> f32,
) -> Result<()> {
    let _span = span(SpanCat::Collective, "allreduce");
    let pos = position(ep, ranks)?;
    let n = ranks.len();
    if n == 1 {
        // Nothing crosses the wire, so nothing is quantized.
        return Ok(());
    }
    let next = ranks[(pos + 1) % n];
    let prev = ranks[(pos + n - 1) % n];

    // Same rotation as `ring_allreduce`, but the travelling chunk stays
    // in wire words, encoded straight from the buffers: each
    // reduce-scatter hop rewrites the incoming words in place as
    // enc(dec(word) + local) and sends that buffer on. The last hop's
    // chunk is the one this rank owns, fully reduced: the owner encodes
    // it exactly once and keeps the decode of those words.
    let mut send = gather_chunk(bufs, n, pos, &enc);
    for step in 0..n - 1 {
        let _step = span(SpanCat::Collective, "allreduce.reduce_scatter");
        let recv_idx = (pos + n - step - 1) % n;
        ep.send(next, tag, Payload::Words(Arc::new(send)))?;
        let mut words = unwrap_shared(ep.recv(prev, tag)?.into_shared_words()?);
        let owner = step == n - 2;
        for (msg, local) in chunk_parts(bufs, n, recv_idx, words.len())? {
            if owner {
                for (w, d) in words[msg].iter_mut().zip(local.iter_mut()) {
                    *w = enc(dec(*w) + *d);
                    *d = dec(*w);
                }
            } else {
                for (w, &d) in words[msg].iter_mut().zip(local.iter()) {
                    *w = enc(dec(*w) + d);
                }
            }
        }
        send = words;
    }
    // Allgather: forward each reduced chunk's words verbatim (by
    // reference count) and decode them straight into the buffers.
    let mut send = Arc::new(send);
    for step in 0..n - 1 {
        let _step = span(SpanCat::Collective, "allreduce.allgather");
        let recv_idx = (pos + n - step) % n;
        ep.send(next, tag, Payload::Words(send))?;
        let incoming = ep.recv(prev, tag)?.into_shared_words()?;
        for (msg, out) in chunk_parts(bufs, n, recv_idx, incoming.len())? {
            for (o, &w) in out.iter_mut().zip(&incoming[msg]) {
                *o = dec(w);
            }
        }
        send = incoming;
    }
    Ok(())
}

/// Ring AllGatherv: every participant contributes a variable-length float
/// buffer; everyone receives all contributions, ordered by group position.
///
/// Parts are returned behind [`Arc`]s: a forwarded buffer is shared by
/// reference count instead of cloned per hop, so each contribution is
/// allocated once ring-wide no matter how many participants relay it.
pub fn allgatherv(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    local: Vec<f32>,
) -> Result<Vec<Arc<Vec<f32>>>> {
    let _span = span(SpanCat::Collective, "allgatherv");
    let pos = position(ep, ranks)?;
    let n = ranks.len();
    let mut parts: Vec<Option<Arc<Vec<f32>>>> = vec![None; n];
    parts[pos] = Some(Arc::new(local));
    if n == 1 {
        return Ok(parts
            .into_iter()
            .map(|p| p.expect("own part set"))
            .collect());
    }
    let next = ranks[(pos + 1) % n];
    let prev = ranks[(pos + n - 1) % n];
    for step in 0..n - 1 {
        let _step = span(SpanCat::Collective, "allgatherv.step");
        let send_idx = (pos + n - step) % n;
        let recv_idx = (pos + n - step - 1) % n;
        let outgoing = Arc::clone(parts[send_idx].as_ref().expect("forwarding a filled slot"));
        ep.send(next, tag, Payload::Floats(outgoing))?;
        parts[recv_idx] = Some(ep.recv(prev, tag)?.into_shared_floats()?);
    }
    Ok(parts
        .into_iter()
        .map(|p| p.expect("all slots filled"))
        .collect())
}

/// Ring AllGatherv over [`IndexedSlices`] — the sparse-gradient exchange
/// of the AR architecture (Figure 2(d)) — returning the per-participant
/// contributions in group-position order instead of concatenating them.
///
/// Callers group these parts themselves into a machine-blocked
/// aggregation order (the canonical two-level sparse fold shared with
/// the Parameter Server accumulators), or concatenate them with
/// [`IndexedSlices::concat`].
pub fn allgatherv_slices_parts(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    local: IndexedSlices,
) -> Result<Vec<Arc<IndexedSlices>>> {
    let _span = span(SpanCat::Collective, "allgatherv_slices");
    let pos = position(ep, ranks)?;
    let n = ranks.len();
    let mut parts: Vec<Option<Arc<IndexedSlices>>> = vec![None; n];
    parts[pos] = Some(Arc::new(local));
    if n > 1 {
        let next = ranks[(pos + 1) % n];
        let prev = ranks[(pos + n - 1) % n];
        for step in 0..n - 1 {
            let _step = span(SpanCat::Collective, "allgatherv_slices.step");
            let send_idx = (pos + n - step) % n;
            let recv_idx = (pos + n - step - 1) % n;
            // Forward by reference count — the slice set is allocated
            // once ring-wide, not once per relaying hop.
            let outgoing = Arc::clone(parts[send_idx].as_ref().expect("forwarding a filled slot"));
            ep.send(next, tag, Payload::Slices(outgoing))?;
            parts[recv_idx] = Some(ep.recv(prev, tag)?.into_shared_slices()?);
        }
    }
    Ok(parts.into_iter().map(|p| p.expect("all filled")).collect())
}

/// [`allgatherv_slices_parts`] with a selectable [`WireFormat`]: under
/// f16/bf16 the slice *indices* travel as zigzag-delta varints
/// ([`PackedSlices`]) while values stay f32, so the exchange is
/// lossless and the parts are bitwise identical to the raw format's.
/// Each contribution is packed once at its source and forwarded by
/// reference count, exactly like the raw path.
pub fn allgatherv_slices_parts_wire(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    local: IndexedSlices,
    wire: WireFormat,
) -> Result<Vec<IndexedSlices>> {
    if !wire.compresses() {
        return Ok(allgatherv_slices_parts(ep, ranks, tag, local)?
            .into_iter()
            .map(unwrap_shared)
            .collect());
    }
    let _span = span(SpanCat::Collective, "allgatherv_slices");
    let pos = position(ep, ranks)?;
    let n = ranks.len();
    if n == 1 {
        return Ok(vec![local]);
    }
    let mut parts: Vec<Option<Arc<PackedSlices>>> = vec![None; n];
    parts[pos] = Some(Arc::new(PackedSlices::pack(&local)));
    let next = ranks[(pos + 1) % n];
    let prev = ranks[(pos + n - 1) % n];
    for step in 0..n - 1 {
        let _step = span(SpanCat::Collective, "allgatherv_slices.step");
        let send_idx = (pos + n - step) % n;
        let recv_idx = (pos + n - step - 1) % n;
        let outgoing = Arc::clone(parts[send_idx].as_ref().expect("forwarding a filled slot"));
        ep.send(next, tag, Payload::Packed(outgoing))?;
        parts[recv_idx] = Some(ep.recv(prev, tag)?.into_shared_packed()?);
    }
    Ok(parts
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            if i == pos {
                // Own contribution needs no decode roundtrip (the codec
                // is lossless anyway; this just skips the work).
                local.clone()
            } else {
                p.expect("all filled").unpack()
            }
        })
        .collect())
}

/// Gathers [`IndexedSlices`] to `root` and concatenates them there (sparse
/// local aggregation); non-roots return `None`.
pub fn gather_slices_to(
    ep: &mut Endpoint,
    ranks: &[usize],
    tag: u64,
    root: usize,
    data: IndexedSlices,
) -> Result<Option<IndexedSlices>> {
    let _span = span(SpanCat::Collective, "gather_slices_to");
    position(ep, ranks)?;
    if ep.rank() == root {
        let mut parts = vec![data];
        for &r in ranks {
            if r == root {
                continue;
            }
            parts.push(ep.recv(r, tag)?.into_slices()?);
        }
        let joined = IndexedSlices::concat(&parts).map_err(|_| CommError::LengthMismatch {
            expected: 0,
            actual: 0,
        })?;
        Ok(Some(joined))
    } else {
        ep.send(root, tag, Payload::Slices(Arc::new(data)))?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use crate::transport::Router;

    /// Runs `f` on every endpoint concurrently, collecting results by rank.
    fn run_all<T: Send>(
        topo: Topology,
        f: impl Fn(&mut Endpoint, &[usize]) -> T + Sync,
    ) -> (Vec<T>, crate::traffic::TrafficSnapshot) {
        let n = topo.num_workers();
        let ranks: Vec<usize> = (0..n).collect();
        let (eps, traffic) = Router::build(topo);
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for mut ep in eps {
                let ranks = &ranks;
                let f = &f;
                handles.push(s.spawn(move || (ep.rank(), f(&mut ep, ranks))));
            }
            for h in handles {
                let (rank, val) = h.join().expect("worker thread panicked");
                out[rank] = Some(val);
            }
        });
        (
            out.into_iter().map(|v| v.expect("all ranks ran")).collect(),
            traffic.snapshot(),
        )
    }

    #[test]
    fn allreduce_matches_sequential_sum() {
        for machines in [1, 2, 4] {
            let topo = Topology::uniform(machines, 2).unwrap();
            let n = topo.num_workers();
            let len = 10;
            let (results, _) = run_all(topo, |ep, ranks| {
                let mut data: Vec<f32> = (0..len).map(|i| (ep.rank() * 100 + i) as f32).collect();
                ring_allreduce(ep, ranks, 1, &mut [&mut data[..]]).unwrap();
                data
            });
            let expected: Vec<f32> = (0..len)
                .map(|i| (0..n).map(|r| (r * 100 + i) as f32).sum())
                .collect();
            for r in &results {
                assert_eq!(r, &expected);
            }
        }
    }

    #[test]
    fn allreduce_handles_len_not_divisible_by_n() {
        let topo = Topology::uniform(3, 1).unwrap();
        let (results, _) = run_all(topo, |ep, ranks| {
            let mut data = vec![ep.rank() as f32 + 1.0; 7];
            ring_allreduce(ep, ranks, 1, &mut [&mut data[..]]).unwrap();
            data
        });
        for r in &results {
            assert_eq!(r, &vec![6.0; 7]);
        }
    }

    #[test]
    fn allreduce_single_worker_is_identity() {
        let topo = Topology::uniform(1, 1).unwrap();
        let (results, _) = run_all(topo, |ep, ranks| {
            let mut data = vec![3.0, 4.0];
            ring_allreduce(ep, ranks, 1, &mut [&mut data[..]]).unwrap();
            data
        });
        assert_eq!(results[0], vec![3.0, 4.0]);
    }

    #[test]
    fn allreduce_network_bytes_match_ring_formula() {
        // One worker per machine: every ring hop crosses the network, so
        // per machine out-bytes = 2(N-1) * (w/N) * 4 bytes (Table 3, AR
        // dense row: 4 w (N-1)/N total for send+recv).
        let n = 4usize;
        let len = 8usize; // Divisible by N for an exact formula.
        let topo = Topology::uniform(n, 1).unwrap();
        let (_, traffic) = run_all(topo, |ep, ranks| {
            let mut data = vec![1.0f32; len];
            ring_allreduce(ep, ranks, 1, &mut [&mut data[..]]).unwrap();
        });
        let per_machine_out = 2 * (n as u64 - 1) * (len as u64 / n as u64) * 4;
        for m in 0..n {
            assert_eq!(traffic.out_bytes[m], per_machine_out);
            assert_eq!(traffic.in_bytes[m], per_machine_out);
        }
    }

    #[test]
    fn allgatherv_orders_by_rank() {
        let topo = Topology::uniform(3, 1).unwrap();
        let (results, _) = run_all(topo, |ep, ranks| {
            let local = vec![ep.rank() as f32; ep.rank() + 1];
            allgatherv(ep, ranks, 2, local).unwrap()
        });
        for parts in &results {
            assert_eq!(parts.len(), 3);
            for (r, part) in parts.iter().enumerate() {
                assert_eq!(**part, vec![r as f32; r + 1]);
            }
        }
    }

    #[test]
    fn allgatherv_slices_concatenates_in_group_order() {
        use parallax_tensor::Tensor;
        let topo = Topology::uniform(2, 1).unwrap();
        let (results, _) = run_all(topo, |ep, ranks| {
            let r = ep.rank();
            let local =
                IndexedSlices::new(vec![r, r + 1], Tensor::full([2, 1], r as f32), 8).unwrap();
            let parts = allgatherv_slices_parts(ep, ranks, 3, local).unwrap();
            IndexedSlices::concat(&parts).unwrap()
        });
        for s in &results {
            assert_eq!(s.indices(), &[0, 1, 1, 2]);
            assert_eq!(s.values().data(), &[0.0, 0.0, 1.0, 1.0]);
        }
    }

    #[test]
    fn gather_slices_to_root() {
        use parallax_tensor::Tensor;
        let topo = Topology::uniform(1, 2).unwrap();
        let (results, _) = run_all(topo, |ep, ranks| {
            let local = IndexedSlices::new(vec![ep.rank()], Tensor::full([1, 1], 1.0), 4).unwrap();
            gather_slices_to(ep, ranks, 6, 0, local).unwrap()
        });
        let root = results[0].as_ref().unwrap();
        assert_eq!(root.indices(), &[0, 1]);
        assert!(results[1].is_none());
    }

    #[test]
    fn wire_allreduce_replicas_bitwise_identical() {
        // Compression is lossy, but every replica must still end with
        // the *same* bits: the ring owner encodes each reduced chunk
        // once and everyone (owner included) decodes those exact words.
        for wire in [WireFormat::F16, WireFormat::Bf16] {
            for (gpus, len) in [
                (vec![1, 1, 1, 1], 10usize),
                (vec![2, 1], 7),
                (vec![2, 2, 1], 13),
            ] {
                let topo = Topology::new(gpus).unwrap();
                let (results, _) = run_all(topo.clone(), |ep, ranks| {
                    let mut data: Vec<f32> = (0..len)
                        .map(|i| (ep.rank() as f32 + 1.0) * 0.1 + i as f32 * 0.01)
                        .collect();
                    ring_allreduce_wire(ep, ranks, 1, &mut [&mut data[..]], wire).unwrap();
                    data
                });
                for r in &results[1..] {
                    assert_eq!(r, &results[0], "replicas diverged under {wire:?}");
                }
                // The quantized sum stays close to the exact one.
                let n = results.len() as f32;
                for (i, &v) in results[0].iter().enumerate() {
                    let exact: f32 = (0..results.len())
                        .map(|r| (r as f32 + 1.0) * 0.1 + i as f32 * 0.01)
                        .sum();
                    assert!(
                        (v - exact).abs() <= exact.abs() * 0.02 + 1e-3,
                        "n={n} {v} vs {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn wire_allreduce_exact_on_representable_values() {
        // Small integers survive f16/bf16 exactly, so the compressed
        // reduction must equal the raw one bit for bit.
        for wire in [WireFormat::F16, WireFormat::Bf16] {
            let topo = Topology::uniform(4, 1).unwrap();
            let n = 4;
            let len = 9;
            let (results, _) = run_all(topo, |ep, ranks| {
                let mut data: Vec<f32> = (0..len).map(|i| (ep.rank() + i) as f32).collect();
                ring_allreduce_wire(ep, ranks, 1, &mut [&mut data[..]], wire).unwrap();
                data
            });
            let expected: Vec<f32> = (0..len)
                .map(|i| (0..n).map(|r| (r + i) as f32).sum())
                .collect();
            for r in &results {
                assert_eq!(r, &expected);
            }
        }
    }

    /// Contribution of rank `r` (of `n`) at element `i` for the wire
    /// oracle test: ±0, f16 subnormals and rounding ties, values whose
    /// sum overflows f16's 65504, ±inf, NaN on at most one rank per
    /// element (so the result's sign is defined), and seeded randoms of
    /// every magnitude from 2⁻³⁰ to 2¹⁷.
    fn wire_oracle_input(r: usize, n: usize, i: usize) -> f32 {
        let mut z = ((r as u64) << 32 | i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let sign = if z & 1 == 1 { -1.0f32 } else { 1.0 };
        let smallest_sub = f32::from_bits(0x3380_0000); // 2⁻²⁴
        match i % 12 {
            0 => sign * 0.0,
            1 => sign * smallest_sub * (z >> 8 & 0x3ff) as f32,
            2 => sign * smallest_sub * ((z >> 8 & 0x3ff) as f32 + 0.5),
            3 => 30_000.0 + (z >> 8 & 0xfff) as f32,
            4 if r == i / 12 % n => f32::INFINITY,
            5 if r == i / 12 % n => f32::NEG_INFINITY,
            6 if r == i / 12 % n => f32::from_bits(0xffa0_0001 ^ (z as u32 & 0x8000_0000)),
            7 => sign * f32::from_bits(0x3880_0000 | (z >> 8) as u32 & 0x7f_e000 | 0x1000),
            _ => {
                let exp = 97 + (z >> 8) % 48; // 2⁻³⁰ ..= 2¹⁷
                sign * f32::from_bits((exp as u32) << 23 | (z >> 20) as u32 & 0x7f_ffff)
            }
        }
    }

    /// The bucket shapes the oracle tests reduce on a ring of `n`: each
    /// length alone, then all of them (an empty buffer included) as one
    /// fused bucket.
    fn oracle_buckets(n: usize) -> Vec<Vec<usize>> {
        let mut buckets: Vec<Vec<usize>> = [1, n - 1, n + 1, 37].map(|len| vec![len]).into();
        buckets.push(vec![0, 1, n - 1, n + 1, 37]);
        buckets
    }

    /// Rank `r`'s bucket of buffers with the given lengths; buffer `b`'s
    /// element `i` is `input(r, j)` at its position `j` in the bucket's
    /// concatenation, so every buffer holds different values.
    fn bucket_of(lens: &[usize], r: usize, input: impl Fn(usize, usize) -> f32) -> Vec<Vec<f32>> {
        let mut at = 0;
        lens.iter()
            .map(|&len| {
                at += len;
                (at - len..at).map(|j| input(r, j)).collect()
            })
            .collect()
    }

    /// Runs one bucketed ring AllReduce on `n` single-GPU machines and
    /// returns each rank's reduced buffers.
    fn reduce_buckets(
        n: usize,
        lens: &[usize],
        wire: WireFormat,
        input: impl Fn(usize, usize) -> f32 + Sync,
    ) -> Vec<Vec<Vec<f32>>> {
        let topo = Topology::uniform(n, 1).unwrap();
        run_all(topo, |ep, ranks| {
            let mut bufs = bucket_of(lens, ep.rank(), &input);
            let mut views: Vec<&mut [f32]> = bufs.iter_mut().map(|b| &mut b[..]).collect();
            ring_allreduce_wire(ep, ranks, 1, &mut views, wire).unwrap();
            bufs
        })
        .0
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn wire_allreduce_equals_sequential_quantized_fold() {
        // Every hop delivers dec(enc(partial)) and adds the local
        // contribution in f32; the owner encodes the reduced chunk once
        // and every replica decodes those words. So chunk c of every
        // buffer must equal
        //   x = w_c; for k in 1..n { x = q(x) + w_{(c+k) mod n} }; q(x)
        // with q = dec∘enc (the identity under f32), bit for bit,
        // specials included, whatever else shares the buffer's bucket.
        for wire in [WireFormat::F32, WireFormat::F16, WireFormat::Bf16] {
            for n in 2..=5usize {
                let input = |r: usize, j: usize| wire_oracle_input(r, n, j);
                for lens in oracle_buckets(n) {
                    let results = reduce_buckets(n, &lens, wire, input);
                    let mut at = 0;
                    for (b, &len) in lens.iter().enumerate() {
                        let mut want = vec![0u32; len];
                        for c in 0..n {
                            for i in chunk_range(len, n, c) {
                                let mut x = input(c, at + i);
                                for k in 1..n {
                                    x = wire.quantize(x) + input((c + k) % n, at + i);
                                }
                                want[i] = wire.quantize(x).to_bits();
                            }
                        }
                        for (rank, got) in results.iter().enumerate() {
                            assert_eq!(
                                bits(&got[b]),
                                want,
                                "{wire:?} n={n} lens={lens:?} buffer {b} rank {rank}"
                            );
                        }
                        at += len;
                    }
                }
            }
        }
    }

    #[test]
    fn bucket_disagreement_is_a_length_mismatch_before_any_write() {
        // Rank 0's bucket has an extra buffer, or a shorter one, than
        // every other rank's. Its successor must reject the first hop
        // message it receives with a typed error before writing into any
        // buffer; the ranks left waiting run into the short deadline.
        let good = vec![37, 9];
        for wire in [WireFormat::F32, WireFormat::F16, WireFormat::Bf16] {
            for n in 2..=4usize {
                for bad in [vec![37, 9, 5], vec![37 - n, 9]] {
                    let topo = Topology::uniform(n, 1).unwrap();
                    let (results, _) = run_all(topo, |ep, ranks| {
                        ep.set_recv_deadline(std::time::Duration::from_millis(100));
                        let lens = if ep.rank() == 0 { &bad } else { &good };
                        let mut bufs = bucket_of(lens, ep.rank(), |r, j| (r * 100 + j) as f32);
                        let before: Vec<Vec<u32>> = bufs.iter().map(|b| bits(b)).collect();
                        let mut views: Vec<&mut [f32]> =
                            bufs.iter_mut().map(|b| &mut b[..]).collect();
                        let result = ring_allreduce_wire(ep, ranks, 1, &mut views, wire);
                        let after: Vec<Vec<u32>> = bufs.iter().map(|b| bits(b)).collect();
                        (result, before == after)
                    });
                    let (result, untouched) = &results[1];
                    assert!(
                        matches!(result, Err(CommError::LengthMismatch { .. })),
                        "{wire:?} n={n} bad={bad:?}: {result:?}"
                    );
                    assert!(
                        untouched,
                        "{wire:?} n={n} bad={bad:?}: rank 1 wrote a buffer"
                    );
                    assert!(results.iter().all(|(r, _)| r.is_err()));
                }
            }
        }
    }

    #[test]
    fn wire_allreduce_halves_network_bytes() {
        let n = 4usize;
        let len = 8usize;
        let topo = Topology::uniform(n, 1).unwrap();
        let (_, traffic) = run_all(topo, |ep, ranks| {
            let mut data = vec![1.0f32; len];
            ring_allreduce_wire(ep, ranks, 1, &mut [&mut data[..]], WireFormat::F16).unwrap();
        });
        // Same hop schedule as raw, 2 bytes per scalar instead of 4.
        let per_machine_out = 2 * (n as u64 - 1) * (len as u64 / n as u64) * 2;
        for m in 0..n {
            assert_eq!(traffic.out_bytes[m], per_machine_out);
        }
    }

    #[test]
    fn wire_allgatherv_slices_lossless_and_smaller() {
        use parallax_tensor::Tensor;
        let topo = Topology::uniform(3, 1).unwrap();
        let tag = 3u64;
        let build = |r: usize| {
            IndexedSlices::new(
                vec![r, r + 2, r + 2],
                Tensor::full([3, 2], r as f32 + 0.25),
                32,
            )
            .unwrap()
        };
        let gather = |wire| {
            move |ep: &mut Endpoint, ranks: &[usize]| {
                allgatherv_slices_parts_wire(ep, ranks, tag, build(ep.rank()), wire).unwrap()
            }
        };
        let (raw, raw_traffic) = run_all(topo.clone(), gather(WireFormat::F32));
        let (packed, packed_traffic) = run_all(topo, gather(WireFormat::F16));
        // Index packing is lossless: identical result, fewer bytes.
        assert_eq!(raw, packed);
        assert!(
            packed_traffic.total_network_bytes() < raw_traffic.total_network_bytes(),
            "packed {} >= raw {}",
            packed_traffic.total_network_bytes(),
            raw_traffic.total_network_bytes()
        );
    }

    #[test]
    fn ring_reduce_reference_matches_ring_bitwise() {
        // Values chosen so the fold association matters: f32 addition is
        // not associative, and the reference must pick the ring's exact
        // association per chunk.
        for (machines, gpus, len) in [(1, 1, 5), (2, 1, 7), (4, 1, 10), (2, 2, 13), (3, 2, 9)] {
            let topo = Topology::uniform(machines, gpus).unwrap();
            let n = topo.num_workers();
            let contrib = |r: usize, i: usize| {
                (1.0 + r as f32) * 0.101 + (i as f32) * 0.037 + 1e-6 * ((r * 31 + i) as f32)
            };
            let (results, _) = run_all(topo, |ep, ranks| {
                let mut data: Vec<f32> = (0..len).map(|i| contrib(ep.rank(), i)).collect();
                ring_allreduce(ep, ranks, 1, &mut [&mut data[..]]).unwrap();
                data
            });
            let parts: Vec<Vec<f32>> = (0..n)
                .map(|r| (0..len).map(|i| contrib(r, i)).collect())
                .collect();
            let views: Vec<&[f32]> = parts.iter().map(|p| p.as_slice()).collect();
            let reference = ring_reduce_reference(&views).unwrap();
            for r in &results {
                let got: Vec<u32> = r.iter().map(|f| f.to_bits()).collect();
                let want: Vec<u32> = reference.iter().map(|f| f.to_bits()).collect();
                assert_eq!(got, want, "{machines}x{gpus} len {len}");
            }
        }
        // A fused bucket: the reference, run per buffer, still gives
        // every buffer's exact bits.
        for n in 2..=5usize {
            let contrib = |r: usize, j: usize| {
                (1.0 + r as f32) * 0.101 + (j as f32) * 0.037 + 1e-6 * ((r * 31 + j) as f32)
            };
            for lens in oracle_buckets(n) {
                let results = reduce_buckets(n, &lens, WireFormat::F32, contrib);
                let parts: Vec<Vec<Vec<f32>>> =
                    (0..n).map(|r| bucket_of(&lens, r, contrib)).collect();
                for b in 0..lens.len() {
                    let views: Vec<&[f32]> = parts.iter().map(|p| p[b].as_slice()).collect();
                    let want = bits(&ring_reduce_reference(&views).unwrap());
                    for (rank, got) in results.iter().enumerate() {
                        assert_eq!(
                            bits(&got[b]),
                            want,
                            "n={n} lens={lens:?} buffer {b} rank {rank}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn allgatherv_slices_parts_orders_by_group_position() {
        use parallax_tensor::Tensor;
        let topo = Topology::uniform(3, 1).unwrap();
        let (results, _) = run_all(topo, |ep, ranks| {
            let r = ep.rank();
            let local = IndexedSlices::new(vec![r], Tensor::full([1, 2], r as f32), 8).unwrap();
            allgatherv_slices_parts(ep, ranks, 3, local).unwrap()
        });
        for parts in &results {
            assert_eq!(parts.len(), 3);
            for (r, part) in parts.iter().enumerate() {
                assert_eq!(part.indices(), &[r]);
                assert_eq!(part.values().data(), &[r as f32, r as f32]);
            }
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 8, 100] {
            for n in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for i in 0..n {
                    let r = chunk_range(len, n, i);
                    assert_eq!(r.start, covered, "contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, len, "full coverage");
            }
        }
    }
}
