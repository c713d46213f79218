//! Wire formats: lossy scalar compression and lossless index packing
//! for gradient exchange.
//!
//! The paper's whole argument is about bytes on the wire, and every
//! byte this repo moves is triple-accounted (predicted by
//! [`crate::predict`], traced by `parallax-trace`, measured by
//! [`crate::traffic::TrafficStats`]). A wire format shrinks the
//! payloads while keeping those three ledgers *exactly* equal, because
//! each compressed payload reports its encoded size through
//! [`crate::Payload::byte_size`] and the static replay computes sizes
//! with the same functions that build the payloads.
//!
//! Two codecs:
//!
//! * **Scalars** — dense AllReduce chunks travel as IEEE half (f16) or
//!   bfloat16 words. Encoding is round-to-nearest-even; accumulation
//!   stays in f32 on every rank, and the reduced chunk is encoded once
//!   by its ring owner so all replicas decode identical bytes and stay
//!   bitwise identical.
//! * **Indices** — sparse AllGatherv slice indices travel as
//!   zigzag-delta LEB128 varints ([`PackedSlices`]). Lossless for any
//!   index sequence (unsorted, duplicated, arbitrary gaps); slice
//!   *values* stay f32 so sparse gradients lose no precision.

use parallax_tensor::{IndexedSlices, Tensor};

/// How gradient-exchange payloads are represented on the wire.
///
/// Selected by `ParallaxConfig::wire_format`. `F32` is the raw format
/// (no compression); `F16`/`Bf16` compress dense AllReduce chunks to
/// 2 bytes per scalar *and* pack sparse AllGatherv indices as
/// delta-varints. Parameter-server traffic is never compressed (pulled
/// values parameterize the next forward pass and must stay exact).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireFormat {
    /// Raw little-endian f32 scalars and 8-byte indices.
    #[default]
    F32,
    /// IEEE 754 binary16 scalars (1 sign, 5 exponent, 10 mantissa bits)
    /// plus packed sparse indices.
    F16,
    /// bfloat16 scalars (1 sign, 8 exponent, 7 mantissa bits; the f32
    /// exponent range) plus packed sparse indices.
    Bf16,
}

impl WireFormat {
    /// Bytes one scalar occupies on the wire.
    pub fn scalar_bytes(self) -> u64 {
        match self {
            WireFormat::F32 => 4,
            WireFormat::F16 | WireFormat::Bf16 => 2,
        }
    }

    /// Whether this format compresses (anything but raw f32).
    pub fn compresses(self) -> bool {
        self != WireFormat::F32
    }

    /// Canonical lower-case name (CLI/JSON spelling).
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::F32 => "f32",
            WireFormat::F16 => "f16",
            WireFormat::Bf16 => "bf16",
        }
    }

    /// Parses a [`WireFormat::name`] spelling.
    pub fn parse(s: &str) -> Option<WireFormat> {
        match s {
            "f32" => Some(WireFormat::F32),
            "f16" => Some(WireFormat::F16),
            "bf16" => Some(WireFormat::Bf16),
            _ => None,
        }
    }

    /// Encodes one scalar to its 16-bit wire word. Must not be called
    /// for [`WireFormat::F32`], which has no 16-bit representation.
    pub fn encode_scalar(self, x: f32) -> u16 {
        match self {
            WireFormat::F32 => unreachable!("f32 wire format has no 16-bit scalar"),
            WireFormat::F16 => f16_from_f32(x),
            WireFormat::Bf16 => bf16_from_f32(x),
        }
    }

    /// Decodes one 16-bit wire word.
    pub fn decode_scalar(self, w: u16) -> f32 {
        match self {
            WireFormat::F32 => unreachable!("f32 wire format has no 16-bit scalar"),
            WireFormat::F16 => f16_to_f32(w),
            WireFormat::Bf16 => bf16_to_f32(w),
        }
    }

    /// Encodes a scalar buffer to wire words.
    pub fn encode_vec(self, xs: &[f32]) -> Vec<u16> {
        xs.iter().map(|&x| self.encode_scalar(x)).collect()
    }

    /// Decodes wire words into `out` (lengths must match).
    pub fn decode_into(self, words: &[u16], out: &mut [f32]) {
        debug_assert_eq!(words.len(), out.len());
        for (o, &w) in out.iter_mut().zip(words) {
            *o = self.decode_scalar(w);
        }
    }

    /// Decodes wire words into a fresh buffer.
    pub fn decode_vec(self, words: &[u16]) -> Vec<f32> {
        words.iter().map(|&w| self.decode_scalar(w)).collect()
    }

    /// The value a scalar becomes after one encode/decode roundtrip —
    /// what a peer will see.
    pub fn quantize(self, x: f32) -> f32 {
        if self == WireFormat::F32 {
            x
        } else {
            self.decode_scalar(self.encode_scalar(x))
        }
    }
}

/// f32 → IEEE binary16, round-to-nearest-even. Inf stays inf, NaN stays
/// NaN (quiet), overflow saturates to ±inf exactly as IEEE rounding
/// does, and the subnormal range rounds to multiples of 2⁻²⁴.
pub fn f16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let abs = bits & 0x7fff_ffff;
    if abs >= 0x7f80_0000 {
        // Inf / NaN; set a high mantissa bit so NaN payloads survive.
        let nan = if abs > 0x7f80_0000 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan;
    }
    if abs >= 0x4780_0000 {
        // ≥ 2¹⁶: past every finite half, saturate to infinity. (The
        // rounding carry below covers [65520, 65536) on its own.)
        return sign | 0x7c00;
    }
    if abs >= 0x3880_0000 {
        // Normal half range (≥ 2⁻¹⁴): round the 13 dropped mantissa
        // bits to nearest-even; a mantissa carry propagates into the
        // exponent, saturating to 0x7c00 (inf) past 65504.
        let rounded = abs + 0x0fff + ((abs >> 13) & 1);
        return sign | ((rounded - 0x3800_0000) >> 13) as u16;
    }
    // Subnormal half (or zero): result is round(|x| · 2²⁴) ≤ 1024,
    // where 1024 lands on the smallest normal's bit pattern.
    let exp = abs >> 23;
    if exp < 102 {
        return sign; // below half the smallest subnormal: ±0
    }
    let mant = (abs & 0x007f_ffff) | 0x0080_0000;
    let shift = 126 - exp; // 14..=24
    let rem = mant & ((1 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let mut v = mant >> shift;
    if rem > half || (rem == half && v & 1 == 1) {
        v += 1;
    }
    sign | v as u16
}

/// IEEE binary16 → f32 (exact; every half value is representable).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;
    if exp == 0x1f {
        return f32::from_bits(sign | 0x7f80_0000 | (mant << 13));
    }
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: mant · 2⁻²⁴, exact in f32.
        let mag = mant as f32 * f32::from_bits(0x3380_0000);
        return f32::from_bits(mag.to_bits() | sign);
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (mant << 13))
}

/// f32 → bfloat16, round-to-nearest-even on the dropped 16 mantissa
/// bits. NaN keeps a quiet bit; large values round to ±inf like IEEE.
pub fn bf16_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let rounded = bits.wrapping_add(0x7fff + ((bits >> 16) & 1));
    (rounded >> 16) as u16
}

/// bfloat16 → f32 (exact: bf16 is f32's top half).
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

fn zigzag(d: i64) -> u64 {
    (d.wrapping_shl(1) ^ (d >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Encodes an index sequence as zigzag deltas in LEB128 varints.
/// Lossless and order-preserving for *any* sequence; sorted sequences
/// (the common case after coalescing) get the smallest deltas and so
/// the fewest bytes — typically one byte per index.
pub fn encode_indices(indices: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(indices.len() * 2);
    let mut prev = 0i64;
    for &i in indices {
        let d = i as i64 - prev;
        prev = i as i64;
        push_varint(&mut out, zigzag(d));
    }
    out
}

/// Decodes `count` indices from [`encode_indices`] output.
///
/// Panics on a malformed stream: the encoder lives in this process, so
/// corruption is a bug, not an input condition.
pub fn decode_indices(bytes: &[u8], count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    let mut prev = 0i64;
    let mut it = bytes.iter();
    for _ in 0..count {
        let mut z = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *it.next().expect("truncated packed index stream");
            z |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        prev += unzigzag(z);
        out.push(prev as usize);
    }
    debug_assert!(it.next().is_none(), "trailing bytes in packed index stream");
    out
}

/// Fallible [`decode_indices`]: returns `None` instead of panicking on
/// a truncated stream, trailing bytes, an over-long varint, or a delta
/// run that goes negative. The frame codec in `parallax-net` decodes
/// *untrusted* bytes (a socket peer, possibly corrupted), where
/// malformed input is an input condition, not a bug.
pub fn checked_decode_indices(bytes: &[u8], count: usize) -> Option<Vec<usize>> {
    // Every index takes at least one byte, so a larger count is
    // malformed; rejecting it first keeps an untrusted count from
    // sizing the allocation below.
    if count > bytes.len() {
        return None;
    }
    let mut out = Vec::with_capacity(count);
    let mut prev = 0i64;
    let mut it = bytes.iter();
    for _ in 0..count {
        let mut z = 0u64;
        let mut shift = 0u32;
        loop {
            let b = *it.next()?;
            if shift >= 64 {
                return None;
            }
            z |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        prev = prev.checked_add(unzigzag(z))?;
        if prev < 0 {
            return None;
        }
        out.push(prev as usize);
    }
    if it.next().is_some() {
        return None;
    }
    Some(out)
}

/// The exact byte length [`encode_indices`] produces, computed without
/// allocating. The static traffic predictor uses this so predicted
/// bytes equal measured bytes by construction.
pub fn encoded_index_len(indices: &[usize]) -> usize {
    let mut len = 0usize;
    let mut prev = 0i64;
    for &i in indices {
        let mut z = zigzag(i as i64 - prev);
        prev = i as i64;
        len += 1;
        while z >= 0x80 {
            z >>= 7;
            len += 1;
        }
    }
    len
}

/// The wire size of [`PackedSlices::pack`] applied to `s`: f32 values,
/// varint-packed indices, plus one 8-byte count header the decoder
/// needs. Shared by the payload accounting and the static predictor.
pub fn packed_byte_size(s: &IndexedSlices) -> u64 {
    s.values().byte_size() + encoded_index_len(s.indices()) as u64 + 8
}

/// The bytes one AllGatherv contribution occupies under `wire`: the
/// raw [`IndexedSlices`] size for f32, the packed size otherwise. The
/// static predictor charges exactly this, so predicted sparse-exchange
/// bytes equal measured ones under every format.
pub fn slices_wire_bytes(s: &IndexedSlices, wire: WireFormat) -> u64 {
    if wire.compresses() {
        packed_byte_size(s)
    } else {
        s.byte_size()
    }
}

/// [`IndexedSlices`] with the index list packed for the wire
/// ([`encode_indices`]); values stay raw f32, so packing is lossless.
#[derive(Debug, Clone)]
pub struct PackedSlices {
    values: Tensor,
    index_bytes: Vec<u8>,
    count: usize,
    dense_rows: usize,
}

impl PackedSlices {
    /// Packs a slice set for the wire.
    pub fn pack(s: &IndexedSlices) -> PackedSlices {
        PackedSlices {
            values: s.values().clone(),
            index_bytes: encode_indices(s.indices()),
            count: s.indices().len(),
            dense_rows: s.dense_rows(),
        }
    }

    /// Reassembles a packed slice set from its wire fields (the frame
    /// codec's decode path), validating that `index_bytes` decodes to
    /// exactly `count` in-bounds indices for `values`' row count —
    /// untrusted input must produce a typed error, never a panic.
    pub fn from_wire(
        values: Tensor,
        index_bytes: Vec<u8>,
        count: usize,
        dense_rows: usize,
    ) -> crate::Result<PackedSlices> {
        let indices = checked_decode_indices(&index_bytes, count).ok_or_else(|| {
            crate::CommError::InvalidConfig("malformed packed index stream".into())
        })?;
        // Validate shape and bounds in place, then keep the *original*
        // bytes so byte_size (and thus traffic accounting) is identical
        // on both sides of the wire.
        IndexedSlices::validate(&indices, &values, dense_rows)
            .map_err(|e| crate::CommError::InvalidConfig(format!("packed slices: {e}")))?;
        Ok(PackedSlices {
            values,
            index_bytes,
            count,
            dense_rows,
        })
    }

    /// The packed values (raw f32 rows, one per index).
    pub fn values(&self) -> &Tensor {
        &self.values
    }

    /// The varint-packed index bytes, exactly as they travel.
    pub fn index_bytes(&self) -> &[u8] {
        &self.index_bytes
    }

    /// How many indices are packed.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The dense row space the indices address.
    pub fn dense_rows(&self) -> usize {
        self.dense_rows
    }

    /// Restores the original slice set (exact: the index codec is
    /// lossless and values were never transformed).
    pub fn unpack(&self) -> IndexedSlices {
        let indices = decode_indices(&self.index_bytes, self.count);
        IndexedSlices::new(indices, self.values.clone(), self.dense_rows)
            .expect("packed slices decode to the slices they were packed from")
    }

    /// Bytes on the wire: values + packed indices + count header.
    /// Identical to [`packed_byte_size`] of the unpacked slices.
    pub fn byte_size(&self) -> u64 {
        self.values.byte_size() + self.index_bytes.len() as u64 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_roundtrips_exact_values() {
        // Values exactly representable in half must survive unchanged.
        for &x in &[
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            65504.0,
            -65504.0,
            0.25,
            1.5,
            // 0.0999755859375 == 0x2E66 in half, exactly representable.
            f32::from_bits(0x3dcc_c000),
        ] {
            let r = f16_to_f32(f16_from_f32(x));
            assert_eq!(r.to_bits(), x.to_bits(), "{x} -> {r}");
        }
    }

    #[test]
    fn f16_handles_specials_and_saturation() {
        assert!(f16_to_f32(f16_from_f32(f32::NAN)).is_nan());
        assert_eq!(f16_to_f32(f16_from_f32(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            f16_to_f32(f16_from_f32(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        // Past the max finite half, rounding saturates to infinity.
        assert_eq!(f16_to_f32(f16_from_f32(70000.0)), f32::INFINITY);
        assert_eq!(f16_to_f32(f16_from_f32(-70000.0)), f32::NEG_INFINITY);
        // 65519 rounds down to 65504; 65520 is the first value that
        // rounds up to 2^16 = inf.
        assert_eq!(f16_to_f32(f16_from_f32(65519.0)), 65504.0);
        assert_eq!(f16_to_f32(f16_from_f32(65520.0)), f32::INFINITY);
    }

    #[test]
    fn f16_subnormal_range() {
        let smallest = f32::from_bits(0x3380_0000); // 2^-24
        assert_eq!(f16_to_f32(f16_from_f32(smallest)), smallest);
        // Half the smallest subnormal ties to even (zero).
        assert_eq!(f16_to_f32(f16_from_f32(smallest / 2.0)), 0.0);
        // Just above half rounds up to the smallest subnormal.
        assert_eq!(f16_to_f32(f16_from_f32(smallest * 0.75)), smallest);
        // A mid-range subnormal.
        let x = smallest * 100.0;
        assert_eq!(f16_to_f32(f16_from_f32(x)), x);
        // Largest subnormal and the boundary to normals.
        let largest_sub = 1023.0 * smallest;
        assert_eq!(f16_to_f32(f16_from_f32(largest_sub)), largest_sub);
        let smallest_normal = f32::from_bits(0x3880_0000); // 2^-14
        assert_eq!(f16_to_f32(f16_from_f32(smallest_normal)), smallest_normal);
    }

    #[test]
    fn f16_relative_error_bounded_in_normal_range() {
        // Round-to-nearest gives |err| <= 2^-11 * |x| for normal halfs.
        let mut x = 6.2e-5f32;
        while x < 6.0e4 {
            for s in [x, -x] {
                let err = (f16_to_f32(f16_from_f32(s)) - s).abs();
                assert!(err <= s.abs() * (1.0 / 2048.0) + 1e-30, "x={s} err={err}");
            }
            x *= 1.37;
        }
    }

    #[test]
    fn bf16_roundtrips_and_bounds() {
        for &x in &[0.0f32, -0.0, 1.0, -2.5, 1.0e30, -1.0e-30, 128.0] {
            let r = bf16_to_f32(bf16_from_f32(x));
            let err = (r - x).abs();
            assert!(err <= x.abs() * (1.0 / 256.0), "x={x} r={r}");
        }
        assert!(bf16_to_f32(bf16_from_f32(f32::NAN)).is_nan());
        assert_eq!(bf16_to_f32(bf16_from_f32(f32::INFINITY)), f32::INFINITY);
        // bf16 keeps the f32 exponent: huge magnitudes stay finite.
        assert!(bf16_to_f32(bf16_from_f32(1.0e38)).is_finite());
        // Exact roundtrip for values with <= 7 mantissa bits.
        assert_eq!(bf16_to_f32(bf16_from_f32(3.140625)), 3.140625);
    }

    #[test]
    fn index_codec_roundtrips() {
        let cases: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![5, 5, 5],
            vec![0, 1, 2, 3, 1000000],
            vec![999, 0, 12, 12, 7],
            (0..500).map(|i| i * 13 % 4096).collect(),
        ];
        for indices in cases {
            let bytes = encode_indices(&indices);
            assert_eq!(bytes.len(), encoded_index_len(&indices));
            assert_eq!(decode_indices(&bytes, indices.len()), indices);
        }
    }

    #[test]
    fn sorted_indices_pack_near_one_byte_each() {
        // Coalesced (sorted unique) indices with small gaps: one varint
        // byte per index, an 8x shrink over raw u64 indices.
        let indices: Vec<usize> = (0..1000).map(|i| i * 3).collect();
        let bytes = encode_indices(&indices);
        assert_eq!(bytes.len(), 1000);
    }

    #[test]
    fn packed_slices_roundtrip_and_size() {
        let s = IndexedSlices::new(
            vec![3, 17, 17, 2],
            Tensor::new([4, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]).unwrap(),
            64,
        )
        .unwrap();
        let p = PackedSlices::pack(&s);
        assert_eq!(p.unpack(), s);
        assert_eq!(p.byte_size(), packed_byte_size(&s));
        // Smaller than the raw format (4 bytes/value + 8 bytes/index).
        assert!(p.byte_size() < s.byte_size());
    }

    #[test]
    fn from_wire_rejects_untrusted_fields_with_typed_errors() {
        let values = Tensor::zeros([2, 3]);
        let two = encode_indices(&[1, 4]);
        let p = PackedSlices::from_wire(values.clone(), two.clone(), 2, 5).unwrap();
        assert_eq!(p.unpack().indices(), &[1, 4]);
        let reject = |bytes: &[u8], count: usize, rows: usize| {
            let r = PackedSlices::from_wire(values.clone(), bytes.to_vec(), count, rows);
            match r {
                Err(crate::CommError::InvalidConfig(msg)) => msg,
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        // Stream errors: a count beyond the index bytes (rejected before
        // it sizes an allocation) and trailing bytes.
        let stream = "malformed packed index stream";
        assert_eq!(reject(&two, usize::MAX, 5), stream);
        assert_eq!(reject(&two, 1, 5), stream);
        // Shape and bounds errors: three indices for two value rows, and
        // an index past the dense row space.
        assert!(reject(&encode_indices(&[0, 1, 2]), 3, 5).starts_with("packed slices:"));
        assert!(reject(&two, 2, 4).starts_with("packed slices:"));
    }

    #[test]
    fn wire_format_parse_and_names() {
        for wf in [WireFormat::F32, WireFormat::F16, WireFormat::Bf16] {
            assert_eq!(WireFormat::parse(wf.name()), Some(wf));
        }
        assert_eq!(WireFormat::parse("f64"), None);
        assert_eq!(WireFormat::default(), WireFormat::F32);
        assert_eq!(WireFormat::F32.scalar_bytes(), 4);
        assert_eq!(WireFormat::F16.scalar_bytes(), 2);
        assert_eq!(WireFormat::Bf16.scalar_bytes(), 2);
        assert!(!WireFormat::F32.compresses());
        assert!(WireFormat::F16.compresses());
    }

    #[test]
    fn quantize_matches_roundtrip() {
        for wf in [WireFormat::F16, WireFormat::Bf16] {
            let x = 0.123_456_79_f32;
            assert_eq!(wf.quantize(x), wf.decode_scalar(wf.encode_scalar(x)));
        }
        assert_eq!(WireFormat::F32.quantize(0.1), 0.1);
    }
}
