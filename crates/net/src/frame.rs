//! Length-prefixed framed encoding of [`Payload`]s for the TCP mesh.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +----------+----------+------------------------------+
//! | u32 len  | u32 crc  |  body (len bytes)            |
//! +----------+----------+------------------------------+
//! body = [u8 frame kind] [rest]
//!   kind 0 (MSG): rest = [u64 tag] [payload]
//!   kind 1 (FIN): rest is empty (graceful shutdown marker)
//! payload = [u8 payload kind] [fields...]
//!   0 Tensor : [u32 ndim][u32 dim]*ndim [f32 data]*prod(dims)
//!   1 Slices : [u64 dense_rows][u32 count][u64 index]*count [tensor]
//!   2 Floats : [u32 len][f32]*len
//!   3 Words  : [u32 len][u16]*len
//!   4 Packed : [u64 dense_rows][u32 count][u32 ib_len][u8 ib]*ib_len [tensor]
//!   5 Ids    : [u32 len][u64]*len
//!   6 Control: [u64]
//!   7 Packet : [u64 header][payload]        (nested, depth-capped)
//! ```
//!
//! `crc` is [`parallax_comm::crc32`] of the body, the checksum that
//! also guards checkpoints and snapshots.
//!
//! The `comm::wire` encodings travel *unchanged*: a `Words` payload
//! carries the same f16/bf16 words, a `Packed` payload the same
//! varint index bytes, that the in-process router moves by `Arc` — so
//! `Payload::byte_size`, and with it all three byte ledgers, is
//! identical on both sides of the socket. The frame header (9 bytes +
//! tag) is transport envelope, not payload, and is deliberately *not*
//! charged: the ledgers account payload bytes, exactly as in-process.
//!
//! Decoding treats the bytes as untrusted: every length is validated
//! against both the [`MAX_FRAME_BODY`] cap and the bytes actually
//! present before any allocation, and every failure is a typed
//! [`FrameError`] — never a panic, never an allocation larger than the
//! (capped, already-read) body.

use std::io::{Read, Write};
use std::sync::Arc;

use parallax_comm::wire::PackedSlices;
use parallax_comm::{crc32, Payload};
use parallax_tensor::{IndexedSlices, Tensor};

use crate::error::FrameError;

/// Hard cap on a frame body. Far above any payload the tiny presets
/// move (the largest is a full embedding tensor, well under a MiB) yet
/// small enough that a corrupted length field cannot drive an
/// unbounded allocation.
pub const MAX_FRAME_BODY: u64 = 64 * 1024 * 1024;

/// Packet payloads nest through `Box<Payload>`; protocol layers use one
/// level. Anything deeper is corruption.
const MAX_DEPTH: u8 = 4;

const KIND_MSG: u8 = 0;
const KIND_FIN: u8 = 1;

const PAYLOAD_TENSOR: u8 = 0;
const PAYLOAD_SLICES: u8 = 1;
const PAYLOAD_FLOATS: u8 = 2;
const PAYLOAD_WORDS: u8 = 3;
const PAYLOAD_PACKED: u8 = 4;
const PAYLOAD_IDS: u8 = 5;
const PAYLOAD_CONTROL: u8 = 6;
const PAYLOAD_PACKET: u8 = 7;

/// A decoded frame.
#[derive(Debug)]
pub enum Frame {
    /// A routed message.
    Msg {
        /// Message tag.
        tag: u64,
        /// The payload.
        payload: Payload,
    },
    /// The peer's graceful-shutdown marker: no further frames follow.
    Fin,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

/// Frame header: `u32 len` + `u32 crc`.
const HEADER_LEN: usize = 8;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a whole array little-endian: one resize, then a copy loop
/// without per-element capacity checks.
fn put_array<T: Copy, const N: usize>(out: &mut Vec<u8>, xs: &[T], to_le: impl Fn(T) -> [u8; N]) {
    let start = out.len();
    out.resize(start + N * xs.len(), 0);
    for (dst, &x) in out[start..].chunks_exact_mut(N).zip(xs) {
        dst.copy_from_slice(&to_le(x));
    }
}

fn put_indices(out: &mut Vec<u8>, indices: &[usize]) {
    put_u32(out, indices.len() as u32);
    put_array(out, indices, |i| (i as u64).to_le_bytes());
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    let dims = t.shape().dims();
    put_u32(out, dims.len() as u32);
    for &d in dims {
        put_u32(out, d as u32);
    }
    put_array(out, t.data(), f32::to_le_bytes);
}

fn tensor_len(t: &Tensor) -> usize {
    4 + 4 * t.shape().dims().len() + 4 * t.len()
}

/// The exact number of bytes [`put_payload`] appends for `p`, so a
/// frame is built in one allocation of the right size.
fn payload_len(p: &Payload) -> usize {
    1 + match p {
        Payload::Tensor(t) => tensor_len(t),
        Payload::Slices(s) => 8 + 4 + 8 * s.indices().len() + tensor_len(s.values()),
        Payload::Floats(fs) => 4 + 4 * fs.len(),
        Payload::Words(ws) => 4 + 2 * ws.len(),
        Payload::Packed(ps) => 8 + 4 + 4 + ps.index_bytes().len() + tensor_len(ps.values()),
        Payload::Ids(ids) => 4 + 8 * ids.len(),
        Payload::Control(_) => 8,
        Payload::Packet { body, .. } => 8 + payload_len(body),
    }
}

/// Encodes a payload into `out` (appends). Depth is pre-validated by
/// the caller; encoding our own payloads cannot fail.
fn put_payload(out: &mut Vec<u8>, p: &Payload) {
    match p {
        Payload::Tensor(t) => {
            out.push(PAYLOAD_TENSOR);
            put_tensor(out, t);
        }
        Payload::Slices(s) => {
            out.push(PAYLOAD_SLICES);
            put_u64(out, s.dense_rows() as u64);
            put_indices(out, s.indices());
            put_tensor(out, s.values());
        }
        Payload::Floats(fs) => {
            out.push(PAYLOAD_FLOATS);
            put_u32(out, fs.len() as u32);
            put_array(out, fs, f32::to_le_bytes);
        }
        Payload::Words(ws) => {
            out.push(PAYLOAD_WORDS);
            put_u32(out, ws.len() as u32);
            put_array(out, ws, u16::to_le_bytes);
        }
        Payload::Packed(ps) => {
            out.push(PAYLOAD_PACKED);
            put_u64(out, ps.dense_rows() as u64);
            put_u32(out, ps.count() as u32);
            put_u32(out, ps.index_bytes().len() as u32);
            out.extend_from_slice(ps.index_bytes());
            put_tensor(out, ps.values());
        }
        Payload::Ids(ids) => {
            out.push(PAYLOAD_IDS);
            put_indices(out, ids);
        }
        Payload::Control(c) => {
            out.push(PAYLOAD_CONTROL);
            put_u64(out, *c);
        }
        Payload::Packet { header, body } => {
            out.push(PAYLOAD_PACKET);
            put_u64(out, *header);
            put_payload(out, body);
        }
    }
}

/// Encodes one message frame (header + body) into one buffer: the
/// header is reserved, the body encoded after it, then the header
/// patched in place.
pub fn encode_msg(tag: u64, payload: &Payload) -> Vec<u8> {
    let mut frame = Vec::with_capacity(HEADER_LEN + 1 + 8 + payload_len(payload));
    frame.extend_from_slice(&[0; HEADER_LEN]);
    frame.push(KIND_MSG);
    put_u64(&mut frame, tag);
    put_payload(&mut frame, payload);
    debug_assert_eq!(frame.len(), frame.capacity());
    seal(frame)
}

/// Encodes the FIN frame.
pub fn encode_fin() -> Vec<u8> {
    let mut frame = vec![0; HEADER_LEN];
    frame.push(KIND_FIN);
    seal(frame)
}

/// Fills in the reserved header of `frame` from the body behind it.
fn seal(mut frame: Vec<u8>) -> Vec<u8> {
    let (header, body) = frame.split_at_mut(HEADER_LEN);
    header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(body).to_le_bytes());
    frame
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// A bounds-checked reader over one frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.fixed()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.fixed()?))
    }

    fn fixed<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// Reads a `count`-element array of `N`-byte little-endian
    /// elements with one bounds check for the whole array, made
    /// *before* allocating — the declared count can never drive an
    /// allocation larger than the (already capped) body.
    fn array<T, const N: usize>(
        &mut self,
        count: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, FrameError> {
        let total = count
            .checked_mul(N)
            .ok_or(FrameError::Malformed("length overflow"))?;
        let bytes = self.take(total)?;
        Ok(bytes
            .chunks_exact(N)
            .map(|c| from_le(c.try_into().expect("chunks_exact yields N bytes")))
            .collect())
    }

    fn indices(&mut self) -> Result<Vec<usize>, FrameError> {
        let count = self.u32()? as usize;
        self.array(count, u64::from_le_bytes)?
            .into_iter()
            .map(|v| usize::try_from(v).map_err(|_| FrameError::Malformed("index exceeds usize")))
            .collect()
    }

    fn tensor(&mut self) -> Result<Tensor, FrameError> {
        let ndim = self.u32()? as usize;
        if ndim > 8 {
            return Err(FrameError::Malformed("tensor rank above 8"));
        }
        let mut dims = Vec::with_capacity(ndim);
        let mut elems: usize = 1;
        for _ in 0..ndim {
            let d = self.u32()? as usize;
            elems = elems
                .checked_mul(d)
                .ok_or(FrameError::Malformed("tensor element-count overflow"))?;
            dims.push(d);
        }
        let data = self.array(elems, f32::from_le_bytes)?;
        Tensor::new(dims, data).map_err(|_| FrameError::Malformed("tensor shape/data mismatch"))
    }
}

fn decode_payload(c: &mut Cursor<'_>, depth: u8) -> Result<Payload, FrameError> {
    if depth > MAX_DEPTH {
        return Err(FrameError::DepthExceeded);
    }
    let kind = c.u8()?;
    let p = match kind {
        PAYLOAD_TENSOR => Payload::Tensor(Arc::new(c.tensor()?)),
        PAYLOAD_SLICES => {
            let dense_rows = c.u64()? as usize;
            let indices = c.indices()?;
            let values = c.tensor()?;
            let slices = IndexedSlices::new(indices, values, dense_rows)
                .map_err(|_| FrameError::Malformed("slices indices/values mismatch"))?;
            Payload::Slices(Arc::new(slices))
        }
        PAYLOAD_FLOATS => {
            let len = c.u32()? as usize;
            Payload::Floats(Arc::new(c.array(len, f32::from_le_bytes)?))
        }
        PAYLOAD_WORDS => {
            let len = c.u32()? as usize;
            Payload::Words(Arc::new(c.array(len, u16::from_le_bytes)?))
        }
        PAYLOAD_PACKED => {
            let dense_rows = c.u64()? as usize;
            let count = c.u32()? as usize;
            let ib_len = c.u32()? as usize;
            let index_bytes = c.take(ib_len)?.to_vec();
            let values = c.tensor()?;
            let packed = PackedSlices::from_wire(values, index_bytes, count, dense_rows)
                .map_err(|_| FrameError::Malformed("packed slices failed validation"))?;
            Payload::Packed(Arc::new(packed))
        }
        PAYLOAD_IDS => Payload::Ids(c.indices()?),
        PAYLOAD_CONTROL => Payload::Control(c.u64()?),
        PAYLOAD_PACKET => {
            let header = c.u64()?;
            let body = decode_payload(c, depth + 1)?;
            Payload::Packet {
                header,
                body: Box::new(body),
            }
        }
        other => return Err(FrameError::BadKind(other)),
    };
    Ok(p)
}

/// Decodes one frame *body* (the bytes after the 8-byte header, whose
/// length and checksum have already been validated).
pub fn decode_body(body: &[u8]) -> Result<Frame, FrameError> {
    let mut c = Cursor::new(body);
    match c.u8()? {
        KIND_FIN => {
            if c.remaining() != 0 {
                return Err(FrameError::Malformed("trailing bytes after FIN"));
            }
            Ok(Frame::Fin)
        }
        KIND_MSG => {
            let tag = c.u64()?;
            let payload = decode_payload(&mut c, 0)?;
            if c.remaining() != 0 {
                return Err(FrameError::Malformed("trailing bytes after payload"));
            }
            Ok(Frame::Msg { tag, payload })
        }
        other => Err(FrameError::BadKind(other)),
    }
}

/// Splits a frame header into the body length and its expected CRC,
/// rejecting a length above [`MAX_FRAME_BODY`] before anything is
/// allocated for it.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(usize, u32), FrameError> {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as u64;
    if len > MAX_FRAME_BODY {
        return Err(FrameError::Oversize {
            len,
            max: MAX_FRAME_BODY,
        });
    }
    Ok((len as usize, u32::from_le_bytes([c0, c1, c2, c3])))
}

/// Checks `body` against the header's CRC, then decodes it.
fn verify_body(body: &[u8], expected: u32) -> Result<Frame, FrameError> {
    let actual = crc32(body);
    if actual != expected {
        return Err(FrameError::CrcMismatch { expected, actual });
    }
    decode_body(body)
}

/// Decodes one whole frame (header + body) from a byte slice — the
/// codec's pure entry point; [`read_frame`] applies the same header
/// and CRC checks to a stream.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, FrameError> {
    let header = bytes
        .first_chunk::<HEADER_LEN>()
        .ok_or(FrameError::Truncated)?;
    let (len, expected) = parse_header(header)?;
    let body = bytes
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or(FrameError::Truncated)?;
    verify_body(body, expected)
}

/// Writes one already-encoded frame to a stream.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> std::io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// Reads one frame from a stream. `Ok(None)` is a clean EOF *between*
/// frames (the peer closed without FIN — a crash, which the caller
/// reports as peer death); EOF *inside* a frame is
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Result<Option<Frame>, FrameError>> {
    let mut header = [0u8; HEADER_LEN];
    match r.read_exact(&mut header) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(Ok(None)),
        Err(e) => return Err(e),
    }
    let (len, expected) = match parse_header(&header) {
        Ok(h) => h,
        Err(e) => return Ok(Err(e)),
    };
    let mut body = vec![0u8; len];
    match r.read_exact(&mut body) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            return Ok(Err(FrameError::Truncated))
        }
        Err(e) => return Err(e),
    }
    Ok(verify_body(&body, expected).map(Some))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &Payload) -> Payload {
        let bytes = encode_msg(0x1234, p);
        match decode_frame(&bytes).expect("decodes") {
            Frame::Msg { tag, payload } => {
                assert_eq!(tag, 0x1234);
                payload
            }
            Frame::Fin => panic!("expected msg"),
        }
    }

    #[test]
    fn every_payload_kind_roundtrips_with_exact_byte_size() {
        let slices = IndexedSlices::new(vec![1, 5, 6], Tensor::zeros([3, 2]), 10).unwrap();
        let packed = PackedSlices::pack(&slices);
        let cases: Vec<Payload> = vec![
            Payload::Tensor(Arc::new(
                Tensor::new([2, 3], vec![1.0, -2.5, 0.0, f32::MIN, f32::MAX, -0.0]).unwrap(),
            )),
            Payload::Slices(Arc::new(slices)),
            Payload::Floats(Arc::new(vec![1.5, -2.25, 3.0])),
            Payload::Words(Arc::new(vec![0x3C00, 0x7FFF, 0])),
            Payload::Packed(Arc::new(packed)),
            Payload::Ids(vec![0, 7, 12345]),
            Payload::Control(0xDEAD_BEEF),
            Payload::Packet {
                header: 42,
                body: Box::new(Payload::Floats(Arc::new(vec![9.0]))),
            },
        ];
        for p in &cases {
            let back = roundtrip(p);
            // The accounted size must survive the wire exactly — this is
            // what keeps in-process and socket ledgers byte-identical.
            assert_eq!(back.byte_size(), p.byte_size(), "{p:?}");
            assert_eq!(format!("{back:?}"), format!("{p:?}"));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Pins the wire format: one frame of every payload kind, plus FIN,
    /// byte for byte (length, CRC, body) as the codec has always written
    /// them. A change here breaks every peer still running the old
    /// encoding, so it must be deliberate.
    #[test]
    fn encoded_frames_match_golden_bytes() {
        let values = Tensor::new([3, 2], vec![0.5, -1.0, 2.0, 3.25, -0.125, 7.0]).unwrap();
        let slices = IndexedSlices::new(vec![1, 5, 6], values, 10).unwrap();
        let packed = PackedSlices::pack(&slices);
        let golden: [(Payload, &str); 8] = [
            (
                Payload::Tensor(Arc::new(
                    Tensor::new([2, 3], vec![1.0, -2.5, 0.0, f32::MIN, f32::MAX, -0.0]).unwrap(),
                )),
                "2e0000005f3441f0000807060504030201000200000002000000030000000000803f\
                 000020c000000000ffff7fffffff7f7f00000080",
            ),
            (
                Payload::Slices(Arc::new(slices)),
                "52000000ab627b40000807060504030201010a000000000000000300000001000000\
                 00000000050000000000000006000000000000000200000003000000020000000000\
                 003f000080bf0000004000005040000000be0000e040",
            ),
            (
                Payload::Floats(Arc::new(vec![1.5, -2.25, 3.0])),
                "1a0000006ba7af2a00080706050403020102030000000000c03f000010c000004040",
            ),
            (
                Payload::Words(Arc::new(vec![0x3C00, 0x7FFF, 0])),
                "14000000f7fe7fa00008070605040302010303000000003cff7f0000",
            ),
            (
                Payload::Packed(Arc::new(packed)),
                "41000000456f3249000807060504030201040a000000000000000300000003000000\
                 0208020200000003000000020000000000003f000080bf0000004000005040000000\
                 be0000e040",
            ),
            (
                Payload::Ids(vec![0, 7, 12345]),
                "2600000043aa66a8000807060504030201050300000000000000000000000700000000\
                 0000003930000000000000",
            ),
            (
                Payload::Control(0xDEAD_BEEF),
                "120000001211c51000080706050403020106efbeadde00000000",
            ),
            (
                Payload::Packet {
                    header: 42,
                    body: Box::new(Payload::Floats(Arc::new(vec![9.0]))),
                },
                "1b0000000fd166c4000807060504030201072a00000000000000020100000000001041",
            ),
        ];
        for (payload, want) in &golden {
            let frame = encode_msg(0x0102_0304_0506_0708, payload);
            assert_eq!(hex(&frame), *want, "{payload:?}");
        }
        assert_eq!(hex(&encode_fin()), "010000001bdf05a501");
    }

    #[test]
    fn fin_roundtrips() {
        let bytes = encode_fin();
        assert!(matches!(decode_frame(&bytes), Ok(Frame::Fin)));
    }

    #[test]
    fn truncation_is_typed() {
        let bytes = encode_msg(7, &Payload::Floats(Arc::new(vec![1.0; 8])));
        for cut in [0, 4, 8, bytes.len() - 1] {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn bit_flip_is_crc_mismatch() {
        let mut bytes = encode_msg(7, &Payload::Control(1));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn packed_count_beyond_index_bytes_rejected_before_allocation() {
        // A well-formed, correctly checksummed frame whose Packed payload
        // declares u32::MAX indices but carries one index byte: the
        // count must be rejected, not used to size an allocation.
        let mut frame = vec![0; HEADER_LEN];
        frame.push(KIND_MSG);
        put_u64(&mut frame, 1);
        frame.push(PAYLOAD_PACKED);
        put_u64(&mut frame, 4);
        put_u32(&mut frame, u32::MAX);
        put_u32(&mut frame, 1);
        frame.push(0);
        put_tensor(&mut frame, &Tensor::zeros([1, 1]));
        assert!(matches!(
            decode_frame(&seal(frame)),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn oversize_length_rejected_before_allocation() {
        let mut bytes = vec![0u8; 16];
        bytes[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        match decode_frame(&bytes) {
            Err(FrameError::Oversize { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, MAX_FRAME_BODY);
            }
            other => panic!("expected Oversize, got {other:?}"),
        }
    }

    #[test]
    fn stream_reader_distinguishes_eof_between_and_inside_frames() {
        let bytes = encode_msg(1, &Payload::Control(2));
        // Clean EOF between frames.
        let mut empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut empty), Ok(Ok(None))));
        // EOF mid-frame.
        let mut cut: &[u8] = &bytes[..bytes.len() - 2];
        assert!(matches!(
            read_frame(&mut cut),
            Ok(Err(FrameError::Truncated))
        ));
        // Whole frame.
        let mut whole: &[u8] = &bytes;
        assert!(matches!(
            read_frame(&mut whole),
            Ok(Ok(Some(Frame::Msg { tag: 1, .. })))
        ));
    }
}
