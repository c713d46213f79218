//! The wire-tag codec: the one definition of the 64-bit tag layout.
//!
//! Every message of a training iteration travels under a tag, and the
//! endpoints match receives on `(from, tag)`. All worker->server
//! requests of one iteration share a single *request tag* and carry a
//! packed header naming the request kind and target `(variable,
//! partition)`; server->worker responses use per-target *response tags*
//! so a worker can block on exactly the response it needs; an
//! AllGatherv or a local aggregation uses one tag per variable and
//! iteration, and the one fused ring AllReduce of an iteration one tag
//! named after the first variable of its bucket.
//!
//! Layout: `namespace | kind:6 | var:14 | part:14 | iter:30`. The
//! namespace is the top nibble (`0x1` AllReduce, `0x2` local
//! aggregation, `0x3` AllGatherv, `0x4` request) or, for responses, bit
//! 63 alone: a response tag is `bit 63 | pack(kind, ..)`, so kinds >= 4
//! carry into the top nibble (`0x9…`, and `0xA…` for `FetchShard`).
//!
//! The PS client and server, the runner, the plan and session checkers,
//! the session validator and traffic accounting all build and read tags
//! here, so a layout edit touches this file only.

/// Request/response kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// Worker pulls a full dense variable. Body: `Control(0)`.
    PullDense = 1,
    /// Worker pulls rows of one partition. Body: `Ids(local rows)`.
    PullSparse = 2,
    /// Worker (or local chief) pushes a dense gradient. Body: `Tensor`.
    PushDense = 3,
    /// Worker (or local chief) pushes a sparse gradient partition.
    /// Body: `Slices` (indices already partition-local).
    PushSparse = 4,
    /// The chief worker triggers the read-aggregated-gradient-and-update
    /// step for a variable (Section 5). Body: `Control(0)`.
    ChiefUpdate = 5,
    /// Server notifies workers that a shard's update is applied (the
    /// shared-queue notification). Body: `Control(0)`.
    UpdateDone = 6,
    /// Worker reads the shard's last aggregated gradient (saved by the
    /// update step) for tracing or global-norm clipping (Section 5).
    /// Body: `Control(0)`; response: `Slices` or `Tensor`.
    ReadAgg = 7,
    /// The chief fetches a shard's current (post-update) value for
    /// checkpointing. Body: `Control(0)`; response: `Tensor`.
    FetchShard = 8,
}

impl ReqKind {
    fn from_bits(bits: u64) -> Option<Self> {
        Some(match bits {
            1 => ReqKind::PullDense,
            2 => ReqKind::PullSparse,
            3 => ReqKind::PushDense,
            4 => ReqKind::PushSparse,
            5 => ReqKind::ChiefUpdate,
            6 => ReqKind::UpdateDone,
            7 => ReqKind::ReadAgg,
            8 => ReqKind::FetchShard,
            _ => return None,
        })
    }
}

const VAR_BITS: u64 = 14;
const PART_BITS: u64 = 14;
const ITER_BITS: u64 = 30;
const KIND_SHIFT: u64 = VAR_BITS + PART_BITS + ITER_BITS;
const ITER_MASK: u64 = (1 << ITER_BITS) - 1;

const NS_COLLECTIVE: u64 = 0x1000_0000_0000_0000;
const NS_LOCAL_AGG: u64 = 0x2000_0000_0000_0000;
const NS_GATHERV: u64 = 0x3000_0000_0000_0000;
const NS_REQUEST: u64 = 0x4000_0000_0000_0000;
const NS_RESPONSE: u64 = 0x8000_0000_0000_0000;
const NS_MASK: u64 = 0xF000_0000_0000_0000;

/// Maximum variable index representable in a header.
pub const MAX_VARS: usize = (1 << VAR_BITS) - 1;
/// Maximum partition index representable in a header.
pub const MAX_PARTS: usize = (1 << PART_BITS) - 1;

/// The iteration field a tag or header carries for `iter`: its low 30
/// bits (iterations wrap past 2^30).
pub fn wrap_iter(iter: u64) -> u64 {
    iter & ITER_MASK
}

/// Packs a request header word.
pub fn pack(kind: ReqKind, var: usize, part: usize, iter: u64) -> u64 {
    debug_assert!(var <= MAX_VARS, "variable index {var} exceeds header space");
    debug_assert!(
        part <= MAX_PARTS,
        "partition index {part} exceeds header space"
    );
    ((kind as u64) << KIND_SHIFT)
        | ((var as u64) << (PART_BITS + ITER_BITS))
        | ((part as u64) << ITER_BITS)
        | wrap_iter(iter)
}

fn var_of(word: u64) -> usize {
    ((word >> (PART_BITS + ITER_BITS)) & ((1 << VAR_BITS) - 1)) as usize
}

fn part_of(word: u64) -> usize {
    ((word >> ITER_BITS) & ((1 << PART_BITS) - 1)) as usize
}

/// Unpacks a header word into `(kind, var, part, iter)`; `None` when
/// its kind bits name no [`ReqKind`].
pub fn unpack(header: u64) -> Option<(ReqKind, usize, usize, u64)> {
    let kind = ReqKind::from_bits(header >> KIND_SHIFT)?;
    Some((kind, var_of(header), part_of(header), wrap_iter(header)))
}

/// The single tag all requests of iteration `iter` travel under.
pub fn request_tag(iter: u64) -> u64 {
    NS_REQUEST | wrap_iter(iter)
}

/// The tag of a response (or notification) for `(kind, var, part)` in
/// iteration `iter`.
pub fn response_tag(kind: ReqKind, var: usize, part: usize, iter: u64) -> u64 {
    NS_RESPONSE | pack(kind, var, part, iter)
}

/// Tag of worker-side local aggregation of a variable (intra-machine
/// reduce/gather toward the machine's local chief).
pub fn local_agg_tag(var: usize, iter: u64) -> u64 {
    NS_LOCAL_AGG | pack(ReqKind::PushDense, var, 0, iter)
}

/// Tag of the fused ring AllReduce of a bucket whose first variable is
/// `var`.
pub fn allreduce_tag(var: usize, iter: u64) -> u64 {
    NS_COLLECTIVE | pack(ReqKind::PushDense, var, 0, iter)
}

/// Tag of the ring AllGatherv of a variable.
pub fn gatherv_tag(var: usize, iter: u64) -> u64 {
    NS_GATHERV | pack(ReqKind::PushDense, var, 0, iter)
}

const FLOW_RANK_BITS: u64 = 10;
const FLOW_ITER_BITS: u64 = 20;

/// Chrome-trace flow-correlation id linking a worker's push-request
/// span to the server span that serves it. Both sides can compute it
/// independently: the pusher knows its own rank, the server reads the
/// sender from the transport envelope. Layout:
/// `kind:6 | var:14 | part:14 | from:10 | iter:20` — unique while
/// sender ranks stay below 1024 and iterations below 2^20 (traced runs
/// are far smaller than either bound).
pub fn flow_id(kind: ReqKind, var: usize, part: usize, from: usize, iter: u64) -> u64 {
    let from = (from as u64) & ((1 << FLOW_RANK_BITS) - 1);
    let iter = iter & ((1 << FLOW_ITER_BITS) - 1);
    ((kind as u64) << (VAR_BITS + PART_BITS + FLOW_RANK_BITS + FLOW_ITER_BITS))
        | ((var as u64) << (PART_BITS + FLOW_RANK_BITS + FLOW_ITER_BITS))
        | ((part as u64) << (FLOW_RANK_BITS + FLOW_ITER_BITS))
        | (from << FLOW_ITER_BITS)
        | iter
}

/// What a wire tag says about the message travelling under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TagClass {
    /// Ring-AllReduce traffic of the bucket `var` leads, in `iter`.
    Collective {
        /// Variable index from the tag's header bits.
        var: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// Intra-machine local-aggregation traffic for `var` in `iter`.
    LocalAgg {
        /// Variable index from the tag's header bits.
        var: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// Ring-AllGatherv traffic for `var` in `iter`.
    Gatherv {
        /// Variable index from the tag's header bits.
        var: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// A worker→server request of `iter`; the kind/target live in the
    /// packet header, not the tag.
    Request {
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// A server→worker response or notification.
    Response {
        /// The request kind answered.
        kind: ReqKind,
        /// Target variable index.
        var: usize,
        /// Target partition index.
        part: usize,
        /// Iteration from the tag's low bits.
        iter: u64,
    },
    /// No known namespace claims this tag.
    Unknown,
}

/// Decodes the namespace, identity and iteration of a wire tag.
pub(crate) fn classify(tag: u64) -> TagClass {
    let (var, iter) = (var_of(tag), wrap_iter(tag));
    if tag & NS_RESPONSE != 0 {
        // The kind bits carry into the namespace nibble, so the kind is
        // recovered by clearing the response bit alone.
        return match unpack(tag & !NS_RESPONSE) {
            Some((kind, var, part, iter)) => TagClass::Response {
                kind,
                var,
                part,
                iter,
            },
            None => TagClass::Unknown,
        };
    }
    match tag & NS_MASK {
        NS_COLLECTIVE => TagClass::Collective { var, iter },
        NS_LOCAL_AGG => TagClass::LocalAgg { var, iter },
        NS_GATHERV => TagClass::Gatherv { var, iter },
        NS_REQUEST => TagClass::Request { iter },
        _ => TagClass::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_KINDS: [ReqKind; 8] = [
        ReqKind::PullDense,
        ReqKind::PullSparse,
        ReqKind::PushDense,
        ReqKind::PushSparse,
        ReqKind::ChiefUpdate,
        ReqKind::UpdateDone,
        ReqKind::ReadAgg,
        ReqKind::FetchShard,
    ];

    #[test]
    fn pack_unpack_roundtrip() {
        for (kind, var, part, iter) in [
            (ReqKind::PullDense, 0usize, 0usize, 0u64),
            (ReqKind::PullSparse, 17, 255, 12345),
            (ReqKind::PushSparse, MAX_VARS, MAX_PARTS, ITER_MASK),
            (ReqKind::UpdateDone, 1, 2, 3),
            (ReqKind::FetchShard, 3, 1, 9),
        ] {
            let h = pack(kind, var, part, iter);
            assert_eq!(unpack(h), Some((kind, var, part, iter)));
        }
    }

    #[test]
    fn bad_kind_rejected() {
        assert_eq!(unpack(0), None);
        assert_eq!(unpack(u64::MAX), None);
    }

    #[test]
    fn tag_spaces_are_disjoint() {
        let tags = [
            request_tag(5),
            response_tag(ReqKind::PullDense, 1, 0, 5),
            local_agg_tag(1, 5),
            allreduce_tag(1, 5),
            gatherv_tag(1, 5),
        ];
        for (i, a) in tags.iter().enumerate() {
            for (j, b) in tags.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn flow_ids_distinguish_sender_and_target() {
        let a = flow_id(ReqKind::PushSparse, 1, 0, 0, 7);
        let b = flow_id(ReqKind::PushSparse, 1, 0, 1, 7);
        let c = flow_id(ReqKind::PushSparse, 1, 1, 0, 7);
        let d = flow_id(ReqKind::PushSparse, 1, 0, 0, 8);
        let e = flow_id(ReqKind::PushDense, 1, 0, 0, 7);
        let ids = [a, b, c, d, e];
        for (i, x) in ids.iter().enumerate() {
            for (j, y) in ids.iter().enumerate() {
                if i != j {
                    assert_ne!(x, y, "ids {i} and {j} collide");
                }
            }
        }
    }

    #[test]
    fn distinct_targets_distinct_response_tags() {
        let a = response_tag(ReqKind::PullSparse, 1, 0, 7);
        let b = response_tag(ReqKind::PullSparse, 1, 1, 7);
        let c = response_tag(ReqKind::PullSparse, 2, 0, 7);
        let d = response_tag(ReqKind::PullSparse, 1, 0, 8);
        assert!(a != b && a != c && a != d && b != c);
    }

    #[test]
    fn every_produced_tag_classifies_to_its_namespace() {
        // Field boundaries: zero, mid-range and max values of every
        // header field, for every kind that travels under each tag.
        for var in [0usize, 17, MAX_VARS] {
            for iter in [0u64, 12345, ITER_MASK] {
                assert_eq!(classify(request_tag(iter)), TagClass::Request { iter });
                assert_eq!(
                    classify(allreduce_tag(var, iter)),
                    TagClass::Collective { var, iter }
                );
                assert_eq!(
                    classify(local_agg_tag(var, iter)),
                    TagClass::LocalAgg { var, iter }
                );
                assert_eq!(
                    classify(gatherv_tag(var, iter)),
                    TagClass::Gatherv { var, iter }
                );
                for part in [0usize, 255, MAX_PARTS] {
                    for kind in ALL_KINDS {
                        assert_eq!(
                            classify(response_tag(kind, var, part, iter)),
                            TagClass::Response {
                                kind,
                                var,
                                part,
                                iter,
                            },
                            "{kind:?} response tag mis-classified"
                        );
                    }
                }
            }
        }
        assert_eq!(classify(0), TagClass::Unknown);
        assert_eq!(classify(0x5000_0000_0000_0000), TagClass::Unknown);
        // Response bit set, kind bits naming no kind.
        assert_eq!(classify(0x8000_0000_0000_0abc), TagClass::Unknown);
        assert_eq!(classify(0xB000_0000_0000_0000), TagClass::Unknown);
    }

    /// The wire, bit for bit: every constructor at the field boundaries,
    /// against literals the layout has always produced. A failure here
    /// means a layout edit changed what travels on the wire.
    #[test]
    fn golden_tags() {
        use ReqKind::*;
        const ITER_MAX: u64 = (1 << 30) - 1;
        const WRAP: u64 = (1 << 30) + 7;
        let golden: &[(u64, u64)] = &[
            (request_tag(0), 0x4000_0000_0000_0000),
            (request_tag(12345), 0x4000_0000_0000_3039),
            (request_tag(ITER_MAX), 0x4000_0000_3FFF_FFFF),
            (request_tag(WRAP), 0x4000_0000_0000_0007),
            (response_tag(PullDense, 0, 0, 0), 0x8400_0000_0000_0000),
            (
                response_tag(PullSparse, 17, 255, 12345),
                0x8801_103F_C000_3039,
            ),
            (
                response_tag(PushDense, MAX_VARS, MAX_PARTS, ITER_MAX),
                0x8FFF_FFFF_FFFF_FFFF,
            ),
            (
                response_tag(PushSparse, MAX_VARS, 0, WRAP),
                0x93FF_F000_0000_0007,
            ),
            (
                response_tag(ChiefUpdate, 0, MAX_PARTS, 12345),
                0x9400_0FFF_C000_3039,
            ),
            (
                response_tag(UpdateDone, 17, 255, ITER_MAX),
                0x9801_103F_FFFF_FFFF,
            ),
            (
                response_tag(ReadAgg, MAX_VARS, 255, 0),
                0x9FFF_F03F_C000_0000,
            ),
            (response_tag(FetchShard, 17, 3, 999), 0xA001_1000_C000_03E7),
            (
                response_tag(FetchShard, MAX_VARS, MAX_PARTS, WRAP),
                0xA3FF_FFFF_C000_0007,
            ),
            (pack(PullDense, 0, 0, 0), 0x0400_0000_0000_0000),
            (pack(PullSparse, 17, 255, 12345), 0x0801_103F_C000_3039),
            (
                pack(PushDense, MAX_VARS, MAX_PARTS, ITER_MAX),
                0x0FFF_FFFF_FFFF_FFFF,
            ),
            (
                pack(ChiefUpdate, 0, MAX_PARTS, 12345),
                0x1400_0FFF_C000_3039,
            ),
            (pack(ReadAgg, MAX_VARS, 255, 0), 0x1FFF_F03F_C000_0000),
            (
                pack(FetchShard, MAX_VARS, MAX_PARTS, WRAP),
                0x23FF_FFFF_C000_0007,
            ),
            (local_agg_tag(0, 0), 0x2C00_0000_0000_0000),
            (allreduce_tag(0, 0), 0x1C00_0000_0000_0000),
            (gatherv_tag(0, 0), 0x3C00_0000_0000_0000),
            (local_agg_tag(17, 12345), 0x2C01_1000_0000_3039),
            (allreduce_tag(17, 12345), 0x1C01_1000_0000_3039),
            (gatherv_tag(17, 12345), 0x3C01_1000_0000_3039),
            (local_agg_tag(MAX_VARS, ITER_MAX), 0x2FFF_F000_3FFF_FFFF),
            (allreduce_tag(MAX_VARS, ITER_MAX), 0x1FFF_F000_3FFF_FFFF),
            (gatherv_tag(MAX_VARS, ITER_MAX), 0x3FFF_F000_3FFF_FFFF),
            (local_agg_tag(MAX_VARS, WRAP), 0x2FFF_F000_0000_0007),
            (allreduce_tag(MAX_VARS, WRAP), 0x1FFF_F000_0000_0007),
            (gatherv_tag(MAX_VARS, WRAP), 0x3FFF_F000_0000_0007),
            (flow_id(PushDense, 0, 0, 0, 0), 0x0C00_0000_0000_0000),
            (
                flow_id(PushSparse, 17, 255, 3, 12345),
                0x1001_103F_C030_3039,
            ),
            (
                flow_id(PushSparse, MAX_VARS, MAX_PARTS, 1023, ITER_MAX),
                0x13FF_FFFF_FFFF_FFFF,
            ),
            (flow_id(PushDense, 17, 3, 1, WRAP), 0x0C01_1000_C010_0007),
        ];
        for (i, &(got, want)) in golden.iter().enumerate() {
            assert_eq!(got, want, "golden row {i}: {got:#018X} != {want:#018X}");
        }
    }
}
