//! Serde-free wire codec for the plain-data types.
//!
//! The network front-end (`tcast-net`) ships [`ChannelSpec`]s out to a
//! remote service and [`QueryReport`]s back, so the spec/report types need
//! a byte representation that is stable, compact, and dependency-free.
//! This module hand-rolls it: little-endian fixed-width integers, `f64`
//! as IEEE-754 bits (bit-identical round trips), `Option` as a one-byte
//! presence flag, and `Vec`/`String` as a `u32` length prefix followed by
//! the elements. No self-describing metadata — framing, versioning, and
//! integrity checks live one layer up in the wire protocol.
//!
//! Every implementation satisfies decode∘encode ≡ identity (the
//! `tcast-net` round-trip proptests enforce this for each frame type).

use crate::channel::{AdversaryConfig, AdversaryModel, ChannelSpec, LossConfig};
use crate::retry::{DefensePolicy, RetryPolicy};
use crate::types::{CaptureModel, CollisionModel, QueryReport, RoundTrace};

/// Why a byte buffer failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value did.
    UnexpectedEof {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// An enum tag byte had no corresponding variant.
    InvalidTag {
        /// The type whose tag was unreadable.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// A value was structurally unreadable (bad UTF-8, oversized length
    /// prefix, out-of-range numeric).
    Invalid {
        /// What was being decoded.
        what: &'static str,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof { needed, available } => {
                write!(
                    f,
                    "unexpected end of buffer: needed {needed} bytes, {available} left"
                )
            }
            DecodeError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            DecodeError::Invalid { what } => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Cursor over a byte buffer being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof {
                needed: n,
                available: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes the next `N` bytes as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let mut out = [0; N];
        out.copy_from_slice(self.bytes(N)?);
        Ok(out)
    }

    /// Decodes one `u8`.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.bytes(1)?[0])
    }

    /// Decodes one little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Decodes one little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Decodes one `u64` and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize, DecodeError> {
        self.u64()?
            .try_into()
            .map_err(|_| DecodeError::Invalid { what: "usize" })
    }

    /// Decodes one `f64` from its IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Decodes one presence flag followed by a value when present.
    pub fn option<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(read(self)?)),
            tag => Err(DecodeError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }

    /// Decodes a `u32` element count, guarding against length prefixes
    /// that promise more elements than the remaining bytes could hold
    /// (`min_element_size` bytes each) so a corrupt prefix cannot trigger
    /// a huge allocation.
    pub fn len_prefix(&mut self, min_element_size: usize) -> Result<usize, DecodeError> {
        let len = self.u32()? as usize;
        if len.saturating_mul(min_element_size.max(1)) > self.remaining() {
            return Err(DecodeError::Invalid {
                what: "length prefix",
            });
        }
        Ok(len)
    }

    /// Errors unless the whole buffer was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::Invalid {
                what: "trailing bytes",
            })
        }
    }
}

/// FNV-1a 64-bit fingerprint of `bytes`.
///
/// Deterministic across processes and platforms (no per-process hasher
/// seed), so it is usable wherever two machines must agree on a hash of
/// the same encoded value — rendezvous shard weights, cache key
/// digests, log correlation. Not collision-resistant against an
/// adversary; exact-match keys should keep the full encoding.
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    fingerprint64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues a [`fingerprint64`] over more bytes: for any `a` and `b`,
/// `fingerprint64_extend(fingerprint64(a), b) == fingerprint64(a ‖ b)`.
/// A caller that fingerprints many messages behind one fixed prefix
/// keeps the prefix's state and never copies the prefix again.
pub fn fingerprint64_extend(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Types that can append their wire encoding to a byte buffer.
pub trait WireEncode {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: the encoding as a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can be decoded from their wire encoding.
pub trait WireDecode: Sized {
    /// Decodes one value from the reader's current position.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Decodes a value that must occupy the entire buffer.
    fn from_wire(buf: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its IEEE-754 bits.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a presence flag followed by the value when present.
pub fn put_option<T>(out: &mut Vec<u8>, v: &Option<T>, write: impl FnOnce(&mut Vec<u8>, &T)) {
    match v {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            write(out, v);
        }
    }
}

impl WireEncode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.len() as u32);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
}

impl WireDecode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.len_prefix(1)?;
        let bytes = r.bytes(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Invalid { what: "string" })
    }
}

impl WireEncode for CaptureModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CaptureModel::Never => out.push(0),
            CaptureModel::Geometric { alpha } => {
                out.push(1);
                put_f64(out, *alpha);
            }
        }
    }
}

impl WireDecode for CaptureModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(CaptureModel::Never),
            1 => Ok(CaptureModel::Geometric { alpha: r.f64()? }),
            tag => Err(DecodeError::InvalidTag {
                what: "CaptureModel",
                tag,
            }),
        }
    }
}

impl WireEncode for CollisionModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            CollisionModel::OnePlus => out.push(0),
            CollisionModel::TwoPlus(capture) => {
                out.push(1);
                capture.encode(out);
            }
        }
    }
}

impl WireDecode for CollisionModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(CollisionModel::OnePlus),
            1 => Ok(CollisionModel::TwoPlus(CaptureModel::decode(r)?)),
            tag => Err(DecodeError::InvalidTag {
                what: "CollisionModel",
                tag,
            }),
        }
    }
}

impl WireEncode for LossConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, self.reply_miss_prob);
        put_f64(out, self.false_activity_prob);
    }
}

impl WireDecode for LossConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(LossConfig {
            reply_miss_prob: r.f64()?,
            false_activity_prob: r.f64()?,
        })
    }
}

impl WireEncode for RetryPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.max_retries);
        put_option(out, &self.budget, |out, b| put_u64(out, *b));
    }
}

impl WireDecode for RetryPolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RetryPolicy {
            max_retries: r.u32()?,
            budget: r.option(|r| r.u64())?,
        })
    }
}

impl WireEncode for DefensePolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.confirm_activity);
        out.push(u8::from(self.canary));
        put_u32(out, self.confirm_true);
    }
}

impl WireDecode for DefensePolicy {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let confirm_activity = r.u32()?;
        let canary = match r.u8()? {
            0 => false,
            1 => true,
            tag => return Err(DecodeError::InvalidTag { what: "bool", tag }),
        };
        Ok(DefensePolicy {
            confirm_activity,
            canary,
            confirm_true: r.u32()?,
        })
    }
}

impl WireEncode for AdversaryModel {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AdversaryModel::FalseResponders { count } => {
                out.push(0);
                put_u32(out, *count);
            }
            AdversaryModel::Colluders { size } => {
                out.push(1);
                put_u32(out, *size);
            }
            AdversaryModel::Jammer { duty_mille } => {
                out.push(2);
                put_u32(out, *duty_mille);
            }
            AdversaryModel::SilentDrop { budget } => {
                out.push(3);
                put_u64(out, *budget);
            }
        }
    }
}

impl WireDecode for AdversaryModel {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(AdversaryModel::FalseResponders { count: r.u32()? }),
            1 => Ok(AdversaryModel::Colluders { size: r.u32()? }),
            2 => Ok(AdversaryModel::Jammer {
                duty_mille: r.u32()?,
            }),
            3 => Ok(AdversaryModel::SilentDrop { budget: r.u64()? }),
            tag => Err(DecodeError::InvalidTag {
                what: "AdversaryModel",
                tag,
            }),
        }
    }
}

impl WireEncode for AdversaryConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.model.encode(out);
        put_u64(out, self.seed);
    }
}

impl WireDecode for AdversaryConfig {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AdversaryConfig {
            model: AdversaryModel::decode(r)?,
            seed: r.u64()?,
        })
    }
}

impl WireEncode for ChannelSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.n);
        put_usize(out, self.x);
        self.model.encode(out);
        put_option(out, &self.loss, |out, l| l.encode(out));
        put_u64(out, self.placement_seed);
        put_u64(out, self.channel_seed);
        self.retry.encode(out);
        put_option(out, &self.adversary, |out, a| a.encode(out));
        self.defense.encode(out);
    }
}

impl WireDecode for ChannelSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ChannelSpec {
            n: r.usize()?,
            x: r.usize()?,
            model: CollisionModel::decode(r)?,
            loss: r.option(LossConfig::decode)?,
            placement_seed: r.u64()?,
            channel_seed: r.u64()?,
            retry: RetryPolicy::decode(r)?,
            adversary: r.option(AdversaryConfig::decode)?,
            defense: DefensePolicy::decode(r)?,
        })
    }
}

/// Encoded size of one [`RoundTrace`] entry (eight `u64` fields).
const ROUND_TRACE_WIRE_SIZE: usize = 8 * 8;

impl WireEncode for RoundTrace {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.bins);
        put_usize(out, self.queried_bins);
        put_usize(out, self.silent_bins);
        put_usize(out, self.eliminated);
        put_usize(out, self.captured);
        put_usize(out, self.retries);
        put_usize(out, self.defenses);
        put_usize(out, self.remaining);
    }
}

impl WireDecode for RoundTrace {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RoundTrace {
            bins: r.usize()?,
            queried_bins: r.usize()?,
            silent_bins: r.usize()?,
            eliminated: r.usize()?,
            captured: r.usize()?,
            retries: r.usize()?,
            defenses: r.usize()?,
            remaining: r.usize()?,
        })
    }
}

impl WireEncode for QueryReport {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(self.answer));
        put_u64(out, self.queries);
        put_u32(out, self.rounds);
        put_u64(out, self.retry_queries);
        put_u64(out, self.defense_queries);
        put_u64(out, self.anomalies);
        put_usize(out, self.confirmed_positives);
        put_u32(out, self.trace.len() as u32);
        for entry in &self.trace {
            entry.encode(out);
        }
    }
}

impl WireDecode for QueryReport {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let answer = match r.u8()? {
            0 => false,
            1 => true,
            tag => return Err(DecodeError::InvalidTag { what: "bool", tag }),
        };
        let queries = r.u64()?;
        let rounds = r.u32()?;
        let retry_queries = r.u64()?;
        let defense_queries = r.u64()?;
        let anomalies = r.u64()?;
        let confirmed_positives = r.usize()?;
        let len = r.len_prefix(ROUND_TRACE_WIRE_SIZE)?;
        let mut trace = Vec::with_capacity(len);
        for _ in 0..len {
            trace.push(RoundTrace::decode(r)?);
        }
        Ok(QueryReport {
            answer,
            queries,
            rounds,
            retry_queries,
            defense_queries,
            anomalies,
            confirmed_positives,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(T::from_wire(&v.to_wire()).unwrap(), v);
    }

    #[test]
    fn fingerprint_extends_over_any_split() {
        // The published FNV-1a 64 test vectors.
        assert_eq!(fingerprint64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let bytes = b"0:127.0.0.1:4000 then a job key";
        for split in 0..=bytes.len() {
            let (head, tail) = bytes.split_at(split);
            assert_eq!(
                fingerprint64_extend(fingerprint64(head), tail),
                fingerprint64(bytes)
            );
        }
    }

    #[test]
    fn primitive_helpers_roundtrip() {
        let mut out = Vec::new();
        put_u32(&mut out, 0xDEAD_BEEF);
        put_u64(&mut out, u64::MAX - 1);
        put_f64(&mut out, -0.0);
        put_option(&mut out, &Some(7u64), |o, v| put_u64(o, *v));
        put_option::<u64>(&mut out, &None, |o, v| put_u64(o, *v));
        let mut r = Reader::new(&out);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.option(|r| r.u64()).unwrap(), Some(7));
        assert_eq!(r.option(|r| r.u64()).unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn channel_specs_roundtrip() {
        roundtrip(ChannelSpec::ideal(128, 20, CollisionModel::OnePlus).seeded(7, 9));
        roundtrip(
            ChannelSpec::lossy(
                64,
                8,
                CollisionModel::TwoPlus(CaptureModel::Geometric { alpha: 0.37 }),
                LossConfig {
                    reply_miss_prob: 0.03,
                    false_activity_prob: 0.001,
                },
            )
            .seeded(u64::MAX, 0)
            .with_retry(RetryPolicy::verified(2).with_budget(100)),
        );
    }

    #[test]
    fn adversarial_specs_roundtrip() {
        for model in [
            AdversaryModel::FalseResponders { count: 1 },
            AdversaryModel::Colluders { size: 15 },
            AdversaryModel::Jammer { duty_mille: 350 },
            AdversaryModel::SilentDrop { budget: u64::MAX },
        ] {
            roundtrip(AdversaryConfig { model, seed: 77 });
            roundtrip(
                ChannelSpec::adversarial(
                    128,
                    16,
                    CollisionModel::OnePlus,
                    None,
                    AdversaryConfig { model, seed: 9 },
                )
                .with_defense(DefensePolicy::hardened()),
            );
        }
        roundtrip(DefensePolicy::none());
        roundtrip(DefensePolicy::hardened());
        assert!(matches!(
            AdversaryModel::from_wire(&[4]),
            Err(DecodeError::InvalidTag {
                what: "AdversaryModel",
                ..
            })
        ));
    }

    #[test]
    fn reports_roundtrip() {
        roundtrip(QueryReport::trivial(true));
        roundtrip(QueryReport {
            answer: false,
            queries: 1234,
            rounds: 3,
            retry_queries: 17,
            defense_queries: 6,
            anomalies: 1,
            confirmed_positives: 2,
            trace: vec![
                RoundTrace {
                    bins: 32,
                    queried_bins: 30,
                    silent_bins: 20,
                    eliminated: 40,
                    captured: 1,
                    retries: 5,
                    defenses: 4,
                    remaining: 88,
                },
                RoundTrace {
                    bins: 64,
                    queried_bins: 64,
                    silent_bins: 0,
                    eliminated: 0,
                    captured: 1,
                    retries: 12,
                    defenses: 2,
                    remaining: 88,
                },
            ],
        });
    }

    #[test]
    fn strings_roundtrip() {
        roundtrip(String::new());
        roundtrip("deliberate test panic: 日本語 🛰".to_string());
    }

    #[test]
    fn invalid_tags_are_rejected() {
        assert!(matches!(
            CollisionModel::from_wire(&[9]),
            Err(DecodeError::InvalidTag {
                what: "CollisionModel",
                tag: 9
            })
        ));
        assert!(matches!(
            CaptureModel::from_wire(&[7]),
            Err(DecodeError::InvalidTag { .. })
        ));
    }

    #[test]
    fn truncation_is_rejected_not_panicked() {
        let spec = ChannelSpec::ideal(64, 9, CollisionModel::two_plus_default()).seeded(1, 2);
        let bytes = spec.to_wire();
        for cut in 0..bytes.len() {
            assert!(
                ChannelSpec::from_wire(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = QueryReport::trivial(false).to_wire();
        bytes.push(0);
        assert_eq!(
            QueryReport::from_wire(&bytes),
            Err(DecodeError::Invalid {
                what: "trailing bytes"
            })
        );
    }

    #[test]
    fn hostile_length_prefix_cannot_force_a_huge_allocation() {
        // A report whose trace length claims u32::MAX entries but carries
        // no bytes: the guard must reject it before reserving memory.
        let mut bytes = Vec::new();
        bytes.push(1); // answer
        put_u64(&mut bytes, 0); // queries
        put_u32(&mut bytes, 0); // rounds
        put_u64(&mut bytes, 0); // retry_queries
        put_u64(&mut bytes, 0); // defense_queries
        put_u64(&mut bytes, 0); // anomalies
        put_u64(&mut bytes, 0); // confirmed_positives
        put_u32(&mut bytes, u32::MAX); // trace length
        assert_eq!(
            QueryReport::from_wire(&bytes),
            Err(DecodeError::Invalid {
                what: "length prefix"
            })
        );
    }
}
