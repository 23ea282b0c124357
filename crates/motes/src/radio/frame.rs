//! 802.15.4-style frames: a compact MPDU codec with FCS (CRC-16) and
//! on-air timing.
//!
//! Only the pieces the tcast stack needs are modelled: data frames with
//! 16-bit short addressing, the acknowledgement-request FCF flag, and
//! 5-byte hardware ACK frames. The key property exploited by backcast is
//! that **two ACKs for the same sequence number are byte-identical**, so
//! their simultaneous transmissions superpose non-destructively on the
//! medium.

use crate::sim::SimDuration;

/// 16-bit short address (CC2420 hardware address recognition operates on
/// these; backcast reprograms them with ephemeral group identifiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShortAddr(pub u16);

/// The 802.15.4 broadcast address.
pub(crate) const BROADCAST_ADDR: ShortAddr = ShortAddr(0xFFFF);

/// Frame kinds (subset of the 802.15.4 FCF frame types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameType {
    /// MAC data frame.
    Data,
    /// Acknowledgement frame (hardware-generated on the CC2420).
    Ack,
}

/// A decoded MAC frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// Data or Ack.
    pub frame_type: FrameType,
    /// FCF acknowledgement-request flag: set by pollers so that
    /// address-matching receivers auto-ACK (the backcast trigger).
    pub ack_request: bool,
    /// Sequence number; ACKs echo it, making same-`seq` ACKs identical.
    pub seq: u8,
    /// Destination short address.
    pub dest: ShortAddr,
    /// Source short address.
    pub src: ShortAddr,
    /// MAC payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a data frame.
    pub fn data(src: ShortAddr, dest: ShortAddr, seq: u8, payload: Vec<u8>) -> Self {
        Self {
            frame_type: FrameType::Data,
            ack_request: false,
            seq,
            dest,
            src,
            payload,
        }
    }

    /// Builds a data frame that requests a hardware acknowledgement.
    pub fn data_with_ack_request(
        src: ShortAddr,
        dest: ShortAddr,
        seq: u8,
        payload: Vec<u8>,
    ) -> Self {
        Self {
            ack_request: true,
            ..Self::data(src, dest, seq, payload)
        }
    }

    /// Builds the hardware acknowledgement for sequence number `seq`.
    /// Every radio generates the *same bytes* for a given `seq` — the
    /// superposition property backcast relies on.
    pub(crate) fn hack(seq: u8) -> Self {
        Self {
            frame_type: FrameType::Ack,
            ack_request: false,
            seq,
            dest: ShortAddr(0),
            src: ShortAddr(0),
            payload: Vec::new(),
        }
    }

    /// Serializes to MPDU bytes (FCF, seq, addresses, payload, FCS).
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.mpdu_len());
        let mut fcf0 = match self.frame_type {
            FrameType::Data => 0b001u8,
            FrameType::Ack => 0b010u8,
        };
        if self.ack_request {
            fcf0 |= 1 << 5;
        }
        bytes.push(fcf0);
        bytes.push(0x88); // short addressing for dest and src
        bytes.push(self.seq);
        if self.frame_type == FrameType::Data {
            bytes.extend_from_slice(&self.dest.0.to_le_bytes());
            bytes.extend_from_slice(&self.src.0.to_le_bytes());
            bytes.extend_from_slice(&self.payload);
        }
        let fcs = crc16_itu(&bytes);
        bytes.extend_from_slice(&fcs.to_le_bytes());
        bytes
    }

    /// Parses MPDU bytes, verifying the FCS.
    pub fn decode(bytes: &[u8]) -> Result<Frame, FrameError> {
        if bytes.len() < 5 {
            return Err(FrameError::TooShort);
        }
        let (body, fcs_bytes) = bytes.split_at(bytes.len() - 2);
        let fcs = u16::from_le_bytes([fcs_bytes[0], fcs_bytes[1]]);
        if crc16_itu(body) != fcs {
            return Err(FrameError::BadCrc);
        }
        let fcf0 = body[0];
        let ack_request = fcf0 & (1 << 5) != 0;
        let seq = body[2];
        match fcf0 & 0b111 {
            0b010 => Ok(Frame {
                frame_type: FrameType::Ack,
                ack_request,
                seq,
                dest: ShortAddr(0),
                src: ShortAddr(0),
                payload: Vec::new(),
            }),
            0b001 => {
                if body.len() < 7 {
                    return Err(FrameError::TooShort);
                }
                let dest = ShortAddr(u16::from_le_bytes([body[3], body[4]]));
                let src = ShortAddr(u16::from_le_bytes([body[5], body[6]]));
                Ok(Frame {
                    frame_type: FrameType::Data,
                    ack_request,
                    seq,
                    dest,
                    src,
                    payload: body[7..].to_vec(),
                })
            }
            other => Err(FrameError::UnknownType(other)),
        }
    }

    /// MPDU length in bytes (what goes into the PHY header length field).
    pub(crate) fn mpdu_len(&self) -> usize {
        match self.frame_type {
            FrameType::Ack => 5,
            FrameType::Data => 3 + 4 + self.payload.len() + 2,
        }
    }

    /// Time on air, including the synchronization header (4-byte preamble +
    /// SFD) and PHY length byte, at 802.15.4's 250 kbps (32 µs/byte).
    pub(crate) fn airtime(&self) -> SimDuration {
        const SHR_PHR_BYTES: u64 = 4 + 1 + 1;
        SimDuration::micros((SHR_PHR_BYTES + self.mpdu_len() as u64) * 32)
    }
}

/// 802.15.4 rx/tx turnaround (12 symbols at 16 µs).
pub(crate) const TURNAROUND: SimDuration = SimDuration::micros(192);

/// Decode failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the minimal MPDU.
    TooShort,
    /// FCS mismatch.
    BadCrc,
    /// Unsupported FCF frame type.
    UnknownType(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => write!(f, "frame too short"),
            FrameError::BadCrc => write!(f, "FCS (CRC) mismatch"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t:#05b}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-16/KERMIT (ITU-T polynomial 0x1021 reflected, init 0) — the FCS
/// computation used by 802.15.4.
pub(crate) fn crc16_itu(data: &[u8]) -> u16 {
    let mut crc: u16 = 0;
    for &byte in data {
        crc ^= byte as u16;
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0x8408; // 0x1021 bit-reflected
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc_kermit_check_vector() {
        // Standard CRC-16/KERMIT check value for "123456789".
        assert_eq!(crc16_itu(b"123456789"), 0x2189);
        assert_eq!(crc16_itu(b""), 0x0000);
    }

    #[test]
    fn data_frame_roundtrips() {
        let f = Frame::data_with_ack_request(
            ShortAddr(0x0001),
            ShortAddr(0x2A2A),
            17,
            vec![1, 2, 3, 4, 5],
        );
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.mpdu_len());
        let g = Frame::decode(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn ack_frame_roundtrips() {
        let f = Frame::hack(200);
        let bytes = f.encode();
        assert_eq!(bytes.len(), 5);
        let g = Frame::decode(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn hacks_with_same_seq_are_byte_identical() {
        assert_eq!(Frame::hack(7).encode(), Frame::hack(7).encode());
        assert_ne!(Frame::hack(7).encode(), Frame::hack(8).encode());
    }

    #[test]
    fn corrupted_byte_fails_crc() {
        let mut bytes = Frame::data(ShortAddr(1), ShortAddr(2), 3, vec![9, 9]).encode();
        bytes[4] ^= 0x40;
        assert_eq!(Frame::decode(&bytes), Err(FrameError::BadCrc));
    }

    #[test]
    fn truncated_frame_fails() {
        assert_eq!(Frame::decode(&[1, 2, 3]), Err(FrameError::TooShort));
    }

    #[test]
    fn airtime_matches_250kbps() {
        // ACK: 6 SHR/PHR bytes + 5 MPDU bytes = 11 bytes * 32us = 352us.
        assert_eq!(Frame::hack(0).airtime(), SimDuration::micros(352));
        // Data with 4-byte payload: 6 + (3+4+4+2) = 19 bytes = 608us.
        let f = Frame::data(ShortAddr(1), ShortAddr(2), 0, vec![0; 4]);
        assert_eq!(f.airtime(), SimDuration::micros(608));
    }

    #[test]
    fn ack_request_flag_roundtrips() {
        let f = Frame::data(ShortAddr(1), ShortAddr(2), 3, vec![]);
        assert!(!Frame::decode(&f.encode()).unwrap().ack_request);
        let f = Frame::data_with_ack_request(ShortAddr(1), ShortAddr(2), 3, vec![]);
        assert!(Frame::decode(&f.encode()).unwrap().ack_request);
    }
}
