//! The CRC-checked binary wire protocol.
//!
//! Every frame is laid out as:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "TCQW" (0x54 0x43 0x51 0x57)
//! 4       1     frame type
//! 5       1     protocol version (4; ignored on Hello, see below)
//! 6       8     request id, u64 LE (0 when not request-scoped)
//! 14      4     payload length, u32 LE
//! 18      len   payload (type-specific, see `codec` in tcast core)
//! 18+len  4     CRC-32 (IEEE) over bytes 0..18+len, u32 LE
//! ```
//!
//! Integers are little-endian throughout; `f64`s travel as IEEE-754 bits,
//! so payloads round-trip bit-identically. The CRC covers header *and*
//! payload: a flipped bit anywhere in the frame is rejected before any
//! payload field is interpreted.
//!
//! ## Version negotiation
//!
//! One layout exists, [`PROTOCOL_V4`]. A connection opens with the
//! client's [`Frame::Hello`] carrying the inclusive
//! `[min_version, max_version]` range it speaks. The server answers
//! [`Frame::HelloAck`] with version 4 when the range contains it, or an
//! [`ErrorCode::UnsupportedVersion`] error frame and closes. The
//! header's version byte must be 4 on every other frame — anything else
//! decodes to [`MalformedFrame::Version`] — but is deliberately
//! *ignored on Hello*, so a future version bump can still open
//! negotiation with this build.
//!
//! A `Submit` payload ends with the job's trace id
//! ([`tcast_obs::TraceId`]), its priority-class byte
//! ([`tcast_tenant::Priority`]), and its parent span context
//! ([`tcast_obs::SpanContext`]: span id plus sampling flag), so one
//! query's observability trace spans client, wire, and server, and the
//! server's weighted-fair scheduler sees the submitter's class.
//!
//! ## Authentication
//!
//! A server with a tenant registry attached appends a 16-byte challenge
//! nonce to its [`Frame::HelloAck`]. The client must answer with
//! [`Frame::Auth`] carrying its tenant name and an HMAC-SHA-256 over
//! `nonce ‖ name` under the tenant's shared key before any `Submit` is
//! accepted; the server replies [`Frame::AuthOk`] or a typed
//! [`ErrorCode::AuthFailed`] error and closes. Servers without a
//! registry send no challenge and accept unauthenticated traffic
//! exactly as before.
//!
//! ## Request scoping
//!
//! `Submit`, `JobOk`, `JobFailed`, and request-level `Error` frames carry
//! the client-chosen request id; responses may arrive in any order and
//! are matched by that id (pipelining). Connection-level frames (`Hello`,
//! `HelloAck`, `Goodbye`, connection `Error`s) use id 0.

use std::io::{self, Read, Write};

use tcast::codec::{
    put_f64, put_option, put_u32, put_u64, put_usize, DecodeError, Reader, WireDecode, WireEncode,
};
use tcast::ChannelSpec;
use tcast::QueryReport;
use tcast_service::{AlgorithmSpec, Family, JobError, MetricKind, MetricValue, QueryJob, Sample};

use crate::crc::crc32;

/// Frame magic: "TCQW" (Threshold-Cast Query Wire).
pub const MAGIC: [u8; 4] = *b"TCQW";

/// The protocol version this build speaks, stamped in every frame
/// header.
pub const PROTOCOL_V4: u8 = 4;

/// Fixed header size in bytes (magic + type + version + request id + length).
pub const HEADER_LEN: usize = 18;

/// CRC trailer size in bytes.
pub const TRAILER_LEN: usize = 4;

/// Cap on payload size, enforced by every `NetClient` and `NetServer`
/// read; a length prefix beyond this is treated as corruption (or abuse)
/// rather than an allocation request.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

mod frame_type {
    pub const HELLO: u8 = 0x01;
    pub const HELLO_ACK: u8 = 0x02;
    pub const SUBMIT: u8 = 0x03;
    pub const JOB_OK: u8 = 0x04;
    pub const JOB_FAILED: u8 = 0x05;
    pub const ERROR: u8 = 0x06;
    pub const GOODBYE: u8 = 0x07;
    pub const METRICS_DUMP: u8 = 0x08;
    pub const METRICS: u8 = 0x09;
    pub const AUTH: u8 = 0x0B;
    pub const AUTH_OK: u8 = 0x0C;
    pub const TRACE_EXPORT: u8 = 0x0D;
    pub const TRACE_DATA: u8 = 0x0E;
}

/// Typed error frame codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission rejected: the service queue or the connection's in-flight
    /// window is full. The request may be retried.
    Busy,
    /// The peer sent a frame that failed CRC or payload decoding. The
    /// sender of this error closes the connection afterwards (framing is
    /// no longer trustworthy).
    Malformed,
    /// No overlap between the peers' protocol version ranges.
    UnsupportedVersion,
    /// The server is draining and accepts no new requests.
    ShuttingDown,
    /// The server requires an [`Frame::Auth`] handshake before this
    /// frame is acceptable (tenant registry attached, no credentials
    /// presented).
    AuthRequired,
    /// The [`Frame::Auth`] credentials were rejected: unknown tenant,
    /// wrong key, or a MAC that does not match this connection's
    /// challenge (e.g. a replayed response). The server closes the
    /// connection afterwards.
    AuthFailed,
}

impl ErrorCode {
    fn to_wire_tag(self) -> u8 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::Malformed => 2,
            ErrorCode::UnsupportedVersion => 3,
            ErrorCode::ShuttingDown => 4,
            ErrorCode::AuthRequired => 5,
            ErrorCode::AuthFailed => 6,
        }
    }

    fn from_wire_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            1 => ErrorCode::Busy,
            2 => ErrorCode::Malformed,
            3 => ErrorCode::UnsupportedVersion,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::AuthRequired,
            6 => ErrorCode::AuthFailed,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Busy => "busy",
            ErrorCode::Malformed => "malformed frame",
            ErrorCode::UnsupportedVersion => "unsupported protocol version",
            ErrorCode::ShuttingDown => "server shutting down",
            ErrorCode::AuthRequired => "authentication required",
            ErrorCode::AuthFailed => "authentication failed",
        })
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: opens version negotiation with the inclusive
    /// range of protocol versions the client speaks.
    Hello {
        /// Lowest version the client accepts.
        min_version: u8,
        /// Highest version the client accepts.
        max_version: u8,
    },
    /// Server → client: negotiation result — the version both sides will
    /// speak for the rest of the connection.
    HelloAck {
        /// The agreed protocol version.
        version: u8,
        /// Present iff the server requires authentication: a fresh
        /// per-connection nonce the client must MAC in its
        /// [`Frame::Auth`] answer. A fresh nonce per connection makes a
        /// recorded `Auth` frame worthless on any other connection.
        challenge: Option<[u8; 16]>,
    },
    /// Client → server: answers a [`Frame::HelloAck`] challenge with the
    /// tenant's name and `HMAC-SHA-256(key, nonce ‖ name)`.
    Auth {
        /// The tenant name registered on the server.
        tenant: String,
        /// MAC over the challenge nonce and tenant name.
        mac: [u8; 32],
    },
    /// Server → client: the [`Frame::Auth`] credentials were accepted;
    /// submits are now admitted under that tenant's quotas.
    AuthOk,
    /// Client → server: run one query job.
    Submit {
        /// Client-chosen id echoed on the response.
        request_id: u64,
        /// The job to run, complete with channel spec and seeds.
        job: QueryJob,
    },
    /// Server → client: the job finished with a report.
    JobOk {
        /// Id of the `Submit` this answers.
        request_id: u64,
        /// The session report, bit-identical to an in-process run.
        report: QueryReport,
    },
    /// Server → client: the job ran but failed (panic, expired deadline).
    JobFailed {
        /// Id of the `Submit` this answers.
        request_id: u64,
        /// Why the job failed.
        error: JobError,
    },
    /// Typed error. With a non-zero `request_id` it answers one `Submit`
    /// (e.g. [`ErrorCode::Busy`]); with id 0 it describes the connection.
    Error {
        /// Scoping id (0 = connection-level).
        request_id: u64,
        /// What went wrong.
        code: ErrorCode,
        /// Human-readable detail, possibly empty.
        detail: String,
    },
    /// Client → server: ask for the server's metrics.
    MetricsDump {
        /// Client-chosen id echoed on the [`Frame::Metrics`] answer.
        request_id: u64,
    },
    /// Server → client: the registry's typed metric families, answering
    /// a [`Frame::MetricsDump`].
    Metrics {
        /// Id of the `MetricsDump` this answers.
        request_id: u64,
        /// The service registry's metric families, in exposition order.
        families: Vec<Family>,
    },
    /// Client → server: drain up to `max_traces` completed,
    /// tail-sampled trace trees from the server's trace collector.
    /// Drained traces are consumed — two subscribers see disjoint
    /// traces. Like `MetricsDump`, gated by frame type, not version.
    TraceExport {
        /// Client-chosen id echoed on the [`Frame::TraceData`] answer.
        request_id: u64,
        /// Cap on the traces returned in one answer.
        max_traces: u32,
    },
    /// Server → client: the completed traces answering a
    /// [`Frame::TraceExport`]. Empty when the collector has nothing
    /// (or tracing is disabled server-side).
    TraceData {
        /// Id of the `TraceExport` this answers.
        request_id: u64,
        /// Completed trace trees, oldest first.
        traces: Vec<tcast_obs::ExportedTrace>,
    },
    /// Orderly close: the sender will write nothing further.
    Goodbye,
}

/// Why a fully-received frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MalformedFrame {
    /// The first four bytes were not the protocol magic.
    BadMagic([u8; 4]),
    /// The CRC trailer did not match the header + payload bytes.
    BadCrc {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        received: u32,
    },
    /// The header named a protocol version other than [`PROTOCOL_V4`]
    /// (on a non-Hello frame).
    Version(u8),
    /// The header named an unknown frame type.
    UnknownType(u8),
    /// The payload length exceeded the configured cap.
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// Cap in force.
        max: u32,
    },
    /// The payload failed to decode for this frame type.
    Payload(String),
}

impl std::fmt::Display for MalformedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MalformedFrame::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            MalformedFrame::BadCrc { computed, received } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:#010x}, received {received:#010x}"
                )
            }
            MalformedFrame::Version(v) => write!(f, "unsupported protocol version {v}"),
            MalformedFrame::UnknownType(t) => write!(f, "unknown frame type {t:#04x}"),
            MalformedFrame::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            MalformedFrame::Payload(what) => write!(f, "payload decode failed: {what}"),
        }
    }
}

impl std::error::Error for MalformedFrame {}

/// The fields of a frame's [`HEADER_LEN`]-byte header.
struct Header {
    magic: [u8; 4],
    frame_type: u8,
    version: u8,
    request_id: u64,
    /// Payload length in bytes.
    len: u32,
}

impl Header {
    /// Reads the header off the front of `bytes`.
    fn parse(bytes: &[u8]) -> Result<Header, DecodeError> {
        let mut r = Reader::new(bytes);
        Ok(Header {
            magic: r.array()?,
            frame_type: r.u8()?,
            version: r.u8()?,
            request_id: r.u64()?,
            len: r.u32()?,
        })
    }
}

impl From<DecodeError> for MalformedFrame {
    fn from(e: DecodeError) -> Self {
        MalformedFrame::Payload(e.to_string())
    }
}

impl Frame {
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => frame_type::HELLO,
            Frame::HelloAck { .. } => frame_type::HELLO_ACK,
            Frame::Auth { .. } => frame_type::AUTH,
            Frame::AuthOk => frame_type::AUTH_OK,
            Frame::Submit { .. } => frame_type::SUBMIT,
            Frame::JobOk { .. } => frame_type::JOB_OK,
            Frame::JobFailed { .. } => frame_type::JOB_FAILED,
            Frame::Error { .. } => frame_type::ERROR,
            Frame::MetricsDump { .. } => frame_type::METRICS_DUMP,
            Frame::Metrics { .. } => frame_type::METRICS,
            Frame::TraceExport { .. } => frame_type::TRACE_EXPORT,
            Frame::TraceData { .. } => frame_type::TRACE_DATA,
            Frame::Goodbye => frame_type::GOODBYE,
        }
    }

    /// The request id this frame is scoped to (0 = connection-level).
    pub fn request_id(&self) -> u64 {
        match self {
            Frame::Submit { request_id, .. }
            | Frame::JobOk { request_id, .. }
            | Frame::JobFailed { request_id, .. }
            | Frame::Error { request_id, .. }
            | Frame::MetricsDump { request_id }
            | Frame::Metrics { request_id, .. }
            | Frame::TraceExport { request_id, .. }
            | Frame::TraceData { request_id, .. } => *request_id,
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Auth { .. }
            | Frame::AuthOk
            | Frame::Goodbye => 0,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Hello {
                min_version,
                max_version,
            } => {
                out.push(*min_version);
                out.push(*max_version);
            }
            Frame::HelloAck { version, challenge } => {
                out.push(*version);
                put_option(out, challenge, |out, c| out.extend_from_slice(c));
            }
            Frame::Auth { tenant, mac } => {
                tenant.encode(out);
                out.extend_from_slice(mac);
            }
            Frame::AuthOk => {}
            Frame::Submit { job, .. } => encode_job(job, out),
            Frame::JobOk { report, .. } => report.encode(out),
            Frame::JobFailed { error, .. } => match error {
                JobError::Panicked(msg) => {
                    out.push(1);
                    msg.encode(out);
                }
                JobError::DeadlineExceeded => out.push(2),
                JobError::QuotaExceeded => out.push(3),
            },
            Frame::Error { code, detail, .. } => {
                out.push(code.to_wire_tag());
                detail.encode(out);
            }
            Frame::MetricsDump { .. } => {}
            Frame::Metrics { families, .. } => encode_families(families, out),
            Frame::TraceExport { max_traces, .. } => put_u32(out, *max_traces),
            Frame::TraceData { traces, .. } => {
                put_usize(out, traces.len());
                for trace in traces {
                    encode_exported_trace(trace, out);
                }
            }
            Frame::Goodbye => {}
        }
    }

    /// Serializes the frame to its full wire representation (header,
    /// payload, CRC trailer) at [`PROTOCOL_V4`].
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes, which no legal
    /// frame can reach.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(&mut out, PROTOCOL_V4);
        out
    }

    /// Appends the frame's full wire representation (header, payload, CRC
    /// trailer) to `out` — the zero-copy sibling of [`Frame::to_bytes`]:
    /// many frames encode back to back into one outbound buffer with no
    /// intermediate allocations. `version` is only stamped into the
    /// header byte; receivers accept [`PROTOCOL_V4`] alone.
    ///
    /// # Panics
    ///
    /// Panics if the payload exceeds `u32::MAX` bytes, which no legal
    /// frame can reach.
    pub fn encode_into(&self, out: &mut Vec<u8>, version: u8) {
        encode_frame_into(out, version, self.type_byte(), self.request_id(), |out| {
            self.encode_payload(out)
        });
    }

    /// Appends a `JobOk` response for `request_id` carrying `report` —
    /// the zero-copy response path: the server encodes straight from a
    /// borrowed report into the connection's outbound buffer, without
    /// materializing a [`Frame`] (which would clone the report).
    /// Byte-identical to `Frame::JobOk { .. }.encode_into(..)`.
    pub fn encode_job_ok_into(
        out: &mut Vec<u8>,
        version: u8,
        request_id: u64,
        report: &QueryReport,
    ) {
        encode_frame_into(out, version, frame_type::JOB_OK, request_id, |out| {
            report.encode(out)
        });
    }

    /// Parses one complete frame (header + payload + CRC) from `bytes`.
    pub fn from_bytes(bytes: &[u8], max_payload: u32) -> Result<Frame, MalformedFrame> {
        let malformed = |what: &str| MalformedFrame::Payload(what.to_string());
        if bytes.len() < HEADER_LEN + TRAILER_LEN {
            return Err(malformed("frame shorter than header + trailer"));
        }
        let Header {
            magic,
            frame_type,
            version,
            request_id,
            len,
        } = Header::parse(bytes)?;
        if magic != MAGIC {
            return Err(MalformedFrame::BadMagic(magic));
        }
        if len > max_payload {
            return Err(MalformedFrame::Oversized {
                len,
                max: max_payload,
            });
        }
        if bytes.len() != HEADER_LEN + len as usize + TRAILER_LEN {
            return Err(malformed("frame length disagrees with header"));
        }
        let body_end = HEADER_LEN + len as usize;
        let received = Reader::new(&bytes[body_end..]).u32()?;
        let computed = crc32(&bytes[..body_end]);
        if received != computed {
            return Err(MalformedFrame::BadCrc { computed, received });
        }
        if frame_type != frame_type::HELLO && version != PROTOCOL_V4 {
            return Err(MalformedFrame::Version(version));
        }
        let mut r = Reader::new(&bytes[HEADER_LEN..body_end]);
        let frame = match frame_type {
            frame_type::HELLO => Frame::Hello {
                min_version: r.u8()?,
                max_version: r.u8()?,
            },
            frame_type::HELLO_ACK => Frame::HelloAck {
                version: r.u8()?,
                challenge: r.option(Reader::array::<16>)?,
            },
            frame_type::AUTH => Frame::Auth {
                tenant: String::decode(&mut r)?,
                mac: r.array::<32>()?,
            },
            frame_type::AUTH_OK => Frame::AuthOk,
            frame_type::SUBMIT => Frame::Submit {
                request_id,
                job: decode_job(&mut r)?,
            },
            frame_type::JOB_OK => Frame::JobOk {
                request_id,
                report: QueryReport::decode(&mut r)?,
            },
            frame_type::JOB_FAILED => {
                let error = match r.u8()? {
                    1 => JobError::Panicked(String::decode(&mut r)?),
                    2 => JobError::DeadlineExceeded,
                    3 => JobError::QuotaExceeded,
                    tag => return Err(malformed(&format!("job error tag {tag}"))),
                };
                Frame::JobFailed { request_id, error }
            }
            frame_type::ERROR => {
                let tag = r.u8()?;
                let code = ErrorCode::from_wire_tag(tag)
                    .ok_or_else(|| malformed(&format!("error code tag {tag}")))?;
                Frame::Error {
                    request_id,
                    code,
                    detail: String::decode(&mut r)?,
                }
            }
            frame_type::METRICS_DUMP => Frame::MetricsDump { request_id },
            frame_type::METRICS => Frame::Metrics {
                request_id,
                families: decode_families(&mut r)?,
            },
            frame_type::TRACE_EXPORT => Frame::TraceExport {
                request_id,
                max_traces: r.u32()?,
            },
            frame_type::TRACE_DATA => {
                let n = r.usize()?;
                // The payload cap bounds the real size; this only stops
                // a forged count from pre-allocating unbounded memory.
                let mut traces = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    traces.push(decode_exported_trace(&mut r)?);
                }
                Frame::TraceData { request_id, traces }
            }
            frame_type::GOODBYE => Frame::Goodbye,
            other => return Err(MalformedFrame::UnknownType(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Appends one framed message to `out`: header, the payload produced by
/// `payload`, then the CRC trailer, with the length backpatched relative
/// to the frame's own base (so frames stack in one buffer).
fn encode_frame_into(
    out: &mut Vec<u8>,
    version: u8,
    type_byte: u8,
    request_id: u64,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    let base = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(type_byte);
    out.push(version);
    put_u64(out, request_id);
    put_u32(out, 0); // payload length backpatched below
    payload(out);
    let payload_len = out.len() - base - HEADER_LEN;
    let len32 = u32::try_from(payload_len).expect("payload exceeds u32::MAX");
    out[base + 14..base + 18].copy_from_slice(&len32.to_le_bytes());
    let crc = crc32(&out[base..]);
    put_u32(out, crc);
}

fn encode_job(job: &QueryJob, out: &mut Vec<u8>) {
    let algorithm = AlgorithmSpec::ALL
        .iter()
        .position(|a| *a == job.algorithm)
        .expect("algorithm registered in AlgorithmSpec::ALL") as u8;
    out.push(algorithm);
    job.channel.encode(out);
    put_usize(out, job.t);
    put_u64(out, job.session_seed);
    put_option(out, &job.deadline, |out, d| {
        put_u64(out, d.as_nanos() as u64)
    });
    put_option(out, &job.retry_budget, |out, b| put_u64(out, *b));
    put_u64(out, job.trace.0);
    out.push(job.priority.to_wire_tag());
    put_u64(out, job.span_parent.parent);
    out.push(job.span_parent.sampled as u8);
}

fn decode_job(r: &mut Reader<'_>) -> Result<QueryJob, MalformedFrame> {
    let tag = r.u8()?;
    let algorithm = *AlgorithmSpec::ALL
        .get(tag as usize)
        .ok_or_else(|| MalformedFrame::Payload(format!("algorithm tag {tag}")))?;
    let channel = ChannelSpec::decode(r)?;
    let t = r.usize()?;
    let session_seed = r.u64()?;
    let deadline = r.option(|r| r.u64().map(std::time::Duration::from_nanos))?;
    let retry_budget = r.option(|r| r.u64())?;
    let mut job = QueryJob::new(algorithm, channel, t, session_seed);
    job.deadline = deadline;
    job.retry_budget = retry_budget;
    job.trace = tcast_obs::TraceId(r.u64()?);
    let tag = r.u8()?;
    job.priority = tcast_tenant::Priority::from_wire_tag(tag)
        .ok_or_else(|| MalformedFrame::Payload(format!("priority tag {tag}")))?;
    let parent = r.u64()?;
    let sampled = match r.u8()? {
        0 => false,
        1 => true,
        tag => return Err(MalformedFrame::Payload(format!("sampled flag {tag}"))),
    };
    job.span_parent = tcast_obs::SpanContext { parent, sampled };
    Ok(job)
}

fn encode_exported_trace(trace: &tcast_obs::ExportedTrace, out: &mut Vec<u8>) {
    put_u64(out, trace.trace.0);
    put_usize(out, trace.records.len());
    for rec in &trace.records {
        out.push(match rec.kind {
            tcast_obs::RecordKind::SpanStart => 1,
            tcast_obs::RecordKind::SpanEnd => 2,
            tcast_obs::RecordKind::Event => 3,
        });
        rec.name.encode(out);
        put_u64(out, rec.span);
        put_u64(out, rec.parent);
        put_u64(out, rec.t_ns);
        put_u64(out, rec.dur_ns);
        debug_assert!(rec.fields.len() <= tcast_obs::MAX_FIELDS);
        out.push(rec.fields.len().min(tcast_obs::MAX_FIELDS) as u8);
        for (name, value) in rec.fields.iter().take(tcast_obs::MAX_FIELDS) {
            name.encode(out);
            put_u64(out, *value);
        }
    }
}

fn decode_exported_trace(r: &mut Reader<'_>) -> Result<tcast_obs::ExportedTrace, MalformedFrame> {
    let trace = tcast_obs::TraceId(r.u64()?);
    let n = r.usize()?;
    let mut records = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        let kind = match r.u8()? {
            1 => tcast_obs::RecordKind::SpanStart,
            2 => tcast_obs::RecordKind::SpanEnd,
            3 => tcast_obs::RecordKind::Event,
            tag => return Err(MalformedFrame::Payload(format!("record kind tag {tag}"))),
        };
        let name = String::decode(r)?;
        let span = r.u64()?;
        let parent = r.u64()?;
        let t_ns = r.u64()?;
        let dur_ns = r.u64()?;
        let n_fields = r.u8()? as usize;
        if n_fields > tcast_obs::MAX_FIELDS {
            return Err(MalformedFrame::Payload(format!(
                "{n_fields} fields exceeds MAX_FIELDS"
            )));
        }
        let mut fields = Vec::with_capacity(n_fields);
        for _ in 0..n_fields {
            let fname = String::decode(r)?;
            let value = r.u64()?;
            fields.push((fname, value));
        }
        records.push(tcast_obs::ExportedRecord {
            kind,
            name,
            span,
            parent,
            t_ns,
            dur_ns,
            fields,
        });
    }
    Ok(tcast_obs::ExportedTrace { trace, records })
}

/// Metrics payload: per family its name, help, kind tag, and samples; per
/// sample its `(name, value)` labels and a tagged value; `u32` counts.
fn encode_families(families: &[Family], out: &mut Vec<u8>) {
    put_u32(out, families.len() as u32);
    for family in families {
        family.name.encode(out);
        family.help.encode(out);
        out.push(family.kind as u8);
        put_u32(out, family.samples.len() as u32);
        for sample in &family.samples {
            put_u32(out, sample.labels.len() as u32);
            for (name, value) in &sample.labels {
                name.encode(out);
                value.encode(out);
            }
            match &sample.value {
                MetricValue::Int(v) => {
                    out.push(1);
                    put_u64(out, *v);
                }
                MetricValue::Ratio(v) => {
                    out.push(2);
                    put_f64(out, *v);
                }
                MetricValue::Summary {
                    quantiles,
                    sum,
                    count,
                } => {
                    out.push(3);
                    put_u32(out, quantiles.len() as u32);
                    for &(q, v) in quantiles {
                        put_f64(out, q);
                        put_f64(out, v);
                    }
                    put_f64(out, *sum);
                    put_u64(out, *count);
                }
            }
        }
    }
}

fn decode_families(r: &mut Reader<'_>) -> Result<Vec<Family>, MalformedFrame> {
    // Smallest encodings: a family is two empty strings, a kind tag and
    // a sample count (13 bytes); a sample a label count, a tag and 8
    // bytes (13); a label two empty strings (8); a quantile two f64s (16).
    list(r, 13, |r| {
        let (name, help) = (String::decode(r)?, String::decode(r)?);
        let kind = match r.u8()? {
            1 => MetricKind::Counter,
            2 => MetricKind::Gauge,
            3 => MetricKind::Summary,
            tag => return Err(MalformedFrame::Payload(format!("metric kind tag {tag}"))),
        };
        let samples = list(r, 13, |r| {
            let labels = list(r, 8, |r| Ok((String::decode(r)?, String::decode(r)?)))?;
            let value = match r.u8()? {
                1 => MetricValue::Int(r.u64()?),
                2 => MetricValue::Ratio(r.f64()?),
                3 => MetricValue::Summary {
                    quantiles: list(r, 16, |r| Ok((r.f64()?, r.f64()?)))?,
                    sum: r.f64()?,
                    count: r.u64()?,
                },
                tag => return Err(MalformedFrame::Payload(format!("metric value tag {tag}"))),
            };
            Ok(Sample { labels, value })
        })?;
        Ok(Family {
            name,
            help,
            kind,
            samples,
        })
    })
}

/// Decodes a `u32`-counted list of items at least `min_size` bytes each;
/// a count the remaining bytes cannot hold is rejected up front.
fn list<'a, T>(
    r: &mut Reader<'a>,
    min_size: usize,
    mut item: impl FnMut(&mut Reader<'a>) -> Result<T, MalformedFrame>,
) -> Result<Vec<T>, MalformedFrame> {
    let n = r.len_prefix(min_size)?;
    (0..n).map(|_| item(r)).collect()
}

/// Writes `frame` to `w` and returns the number of wire bytes written.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    let bytes = frame.to_bytes();
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Why reading a frame from a stream failed.
#[derive(Debug)]
pub enum FrameReadError {
    /// The underlying transport failed (includes clean EOF as
    /// `UnexpectedEof`).
    Io(io::Error),
    /// The bytes arrived but did not form a valid frame. The stream can
    /// no longer be trusted to be frame-aligned.
    Malformed(MalformedFrame),
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Io(e) => write!(f, "transport error: {e}"),
            FrameReadError::Malformed(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for FrameReadError {}

/// Incremental frame reader that survives read timeouts.
///
/// Socket read timeouts implement idle detection, but a timeout can fire
/// with a frame half-received; naive `read_exact` would drop the partial
/// bytes and desynchronize the stream. This reader keeps the partial
/// frame across calls: [`FrameReader::read_from`] returns `Ok(None)` on a
/// timeout and resumes exactly where it left off next call.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Total frame size once the header is complete.
    target: Option<usize>,
}

impl FrameReader {
    /// A reader with no partial frame buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of the in-progress frame buffered so far.
    ///
    /// Comparing this across [`FrameReader::read_from`] calls lets an
    /// idle-timeout policy count partial-frame progress as activity: a
    /// peer trickling a large frame slower than the idle window is alive,
    /// not idle.
    pub fn buffered_len(&self) -> usize {
        self.buf.len()
    }

    /// Pulls bytes from `r` until a full frame is assembled, the read
    /// times out, or the transport fails.
    ///
    /// Returns `Ok(Some((frame, wire_bytes)))` on a complete frame,
    /// `Ok(None)` when the read timed out mid-wait (idle tick; partial
    /// state is retained), and `Err` on transport failure or a malformed
    /// frame.
    pub fn read_from(
        &mut self,
        r: &mut impl Read,
        max_payload: u32,
    ) -> Result<Option<(Frame, usize)>, FrameReadError> {
        let target = match self.target {
            Some(t) => t,
            None => {
                if self.buf.len() < HEADER_LEN && !self.fill_to(r, HEADER_LEN)? {
                    return Ok(None);
                }
                // Validate the prefix before waiting on the payload, so
                // garbage is rejected without stalling for bytes that
                // will never come.
                let Header { magic, len, .. } =
                    Header::parse(&self.buf).map_err(|e| FrameReadError::Malformed(e.into()))?;
                if magic != MAGIC {
                    return Err(FrameReadError::Malformed(MalformedFrame::BadMagic(magic)));
                }
                if len > max_payload {
                    return Err(FrameReadError::Malformed(MalformedFrame::Oversized {
                        len,
                        max: max_payload,
                    }));
                }
                let t = HEADER_LEN + len as usize + TRAILER_LEN;
                self.target = Some(t);
                t
            }
        };
        if self.buf.len() < target && !self.fill_to(r, target)? {
            return Ok(None);
        }
        let frame = Frame::from_bytes(&self.buf[..target], max_payload)
            .map_err(FrameReadError::Malformed)?;
        let wire_bytes = target;
        self.buf.clear();
        self.target = None;
        Ok(Some((frame, wire_bytes)))
    }

    /// Grows the buffer to `target` bytes. Returns `false` on a read
    /// timeout (partial state kept), errors on EOF or transport failure.
    fn fill_to(&mut self, r: &mut impl Read, target: usize) -> Result<bool, FrameReadError> {
        let mut chunk = [0u8; 4096];
        while self.buf.len() < target {
            let want = (target - self.buf.len()).min(chunk.len());
            match r.read(&mut chunk[..want]) {
                Ok(0) => {
                    return Err(FrameReadError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    )))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(false)
                }
                Err(e) => return Err(FrameReadError::Io(e)),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use tcast::CollisionModel;

    fn sample_job() -> QueryJob {
        QueryJob::new(
            AlgorithmSpec::AbnsP02T,
            ChannelSpec::ideal(64, 20, CollisionModel::two_plus_default()).seeded(3, 4),
            8,
            99,
        )
        .with_deadline(std::time::Duration::from_millis(250))
        .with_retry_budget(12)
    }

    #[test]
    fn frames_roundtrip_through_bytes() {
        let registry = tcast_service::MetricsRegistry::new();
        registry.attach_slo(std::sync::Arc::new(tcast_obs::SloTracker::new(vec![
            tcast_obs::Objective::auth("auth", 0.99),
        ])));
        registry.slo_observe(tcast_obs::SloSignal::Auth, false);
        let report = Ok(tcast_service::JobOutput::Report(QueryReport::trivial(true)));
        registry.record("2tBins", &report, std::time::Duration::from_micros(40));
        registry.net_counters("net/server").frame_in(64);
        let frames = [
            Frame::Hello {
                min_version: PROTOCOL_V4,
                max_version: PROTOCOL_V4,
            },
            Frame::HelloAck {
                version: PROTOCOL_V4,
                challenge: None,
            },
            Frame::HelloAck {
                version: PROTOCOL_V4,
                challenge: Some([0xA5; 16]),
            },
            Frame::Auth {
                tenant: "tenant-a".into(),
                mac: [0x5C; 32],
            },
            Frame::AuthOk,
            Frame::Submit {
                request_id: 42,
                job: sample_job(),
            },
            Frame::JobOk {
                request_id: 42,
                report: QueryReport::trivial(true),
            },
            Frame::JobFailed {
                request_id: 7,
                error: JobError::Panicked("boom".into()),
            },
            Frame::JobFailed {
                request_id: 8,
                error: JobError::QuotaExceeded,
            },
            Frame::Error {
                request_id: 0,
                code: ErrorCode::ShuttingDown,
                detail: "draining".into(),
            },
            Frame::MetricsDump { request_id: 11 },
            Frame::Metrics {
                request_id: 11,
                families: registry.snapshot().families(),
            },
            Frame::Metrics {
                request_id: 13,
                families: vec![],
            },
            Frame::TraceExport {
                request_id: 12,
                max_traces: 64,
            },
            Frame::TraceData {
                request_id: 12,
                traces: vec![
                    tcast_obs::ExportedTrace {
                        trace: tcast_obs::TraceId(0x51),
                        records: vec![
                            tcast_obs::ExportedRecord {
                                kind: tcast_obs::RecordKind::SpanStart,
                                name: "service.execute".into(),
                                span: 2,
                                parent: 1,
                                t_ns: 10,
                                dur_ns: 0,
                                fields: vec![("t".into(), 8), ("n".into(), 64)],
                            },
                            tcast_obs::ExportedRecord {
                                kind: tcast_obs::RecordKind::Event,
                                name: "engine.round".into(),
                                span: 2,
                                parent: 1,
                                t_ns: 20,
                                dur_ns: 0,
                                fields: vec![],
                            },
                            tcast_obs::ExportedRecord {
                                kind: tcast_obs::RecordKind::SpanEnd,
                                name: "service.execute".into(),
                                span: 2,
                                parent: 1,
                                t_ns: 30,
                                dur_ns: 20,
                                fields: vec![],
                            },
                        ],
                    },
                    tcast_obs::ExportedTrace {
                        trace: tcast_obs::TraceId(0x52),
                        records: vec![],
                    },
                ],
            },
            Frame::TraceData {
                request_id: 13,
                traces: vec![],
            },
            Frame::Goodbye,
        ];
        for frame in frames {
            let bytes = frame.to_bytes();
            assert_eq!(bytes[5], PROTOCOL_V4, "header stamps the one version");
            assert_eq!(
                Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD).unwrap(),
                frame
            );
        }
    }

    /// Re-stamps the CRC after a test pokes bytes inside a frame.
    fn fix_crc(bytes: &mut [u8]) {
        let body_end = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[..body_end]).to_le_bytes();
        bytes[body_end..].copy_from_slice(&crc);
    }

    #[test]
    fn submit_ends_with_trace_priority_and_span_context() {
        let frame = Frame::Submit {
            request_id: 7,
            job: sample_job()
                .with_trace(tcast_obs::TraceId(0xDEAD_BEEF_0B5E))
                .with_priority(tcast_tenant::Priority::High)
                .with_parent_span(tcast_obs::SpanContext {
                    parent: 0xCAFE,
                    sampled: true,
                }),
        };
        let bytes = frame.to_bytes();
        assert_eq!(
            Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD).unwrap(),
            frame
        );
        // Trailing fields, in order: trace id, priority tag, parent span
        // id, sampled flag, then the CRC.
        let tail = &bytes[bytes.len() - TRAILER_LEN - 18..bytes.len() - TRAILER_LEN];
        assert_eq!(tail[..8], 0xDEAD_BEEF_0B5E_u64.to_le_bytes());
        assert_eq!(tail[8], tcast_tenant::Priority::High.to_wire_tag());
        assert_eq!(tail[9..17], 0xCAFE_u64.to_le_bytes());
        assert_eq!(tail[17], 1);
    }

    #[test]
    fn bad_sampled_flag_is_rejected() {
        let frame = Frame::Submit {
            request_id: 7,
            job: sample_job(),
        };
        let mut bytes = frame.to_bytes();
        let trailer = bytes.len() - TRAILER_LEN;
        bytes[trailer - 1] = 2; // sampled flag is last before the CRC
        fix_crc(&mut bytes);
        assert!(matches!(
            Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(MalformedFrame::Payload(msg)) if msg.contains("sampled flag 2")
        ));
    }

    #[test]
    fn bad_priority_tag_is_rejected() {
        let frame = Frame::Submit {
            request_id: 6,
            job: sample_job(),
        };
        let mut bytes = frame.to_bytes();
        let trailer = bytes.len() - TRAILER_LEN;
        // Priority precedes the 8-byte parent span id and the flag.
        bytes[trailer - 10] = 7;
        fix_crc(&mut bytes);
        assert!(matches!(
            Frame::from_bytes(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(MalformedFrame::Payload(msg)) if msg.contains("priority tag 7")
        ));
    }

    #[test]
    fn encode_into_stacks_frames_and_matches_to_bytes() {
        let a = Frame::Submit {
            request_id: 1,
            job: sample_job(),
        };
        let b = Frame::JobOk {
            request_id: 1,
            report: QueryReport::trivial(true),
        };
        let mut out = Vec::new();
        a.encode_into(&mut out, PROTOCOL_V4);
        b.encode_into(&mut out, PROTOCOL_V4);
        let mut expected = a.to_bytes();
        expected.extend_from_slice(&b.to_bytes());
        assert_eq!(
            out, expected,
            "stacked frames must match one-at-a-time bytes"
        );
    }

    #[test]
    fn job_ok_encodes_zero_copy_from_a_borrowed_report() {
        let report = QueryReport::trivial(false);
        let mut out = Vec::new();
        Frame::encode_job_ok_into(&mut out, PROTOCOL_V4, 9, &report);
        assert_eq!(
            out,
            Frame::JobOk {
                request_id: 9,
                report,
            }
            .to_bytes(),
        );
    }

    #[test]
    fn reader_reassembles_across_split_reads() {
        // A reader fed one byte at a time must produce the same frames.
        struct OneByte<R>(R);
        impl<R: Read> Read for OneByte<R> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                let take = 1.min(buf.len());
                self.0.read(&mut buf[..take])
            }
        }
        let a = Frame::Submit {
            request_id: 1,
            job: sample_job(),
        };
        let b = Frame::Goodbye;
        let mut wire = a.to_bytes();
        wire.extend_from_slice(&b.to_bytes());
        let mut reader = FrameReader::new();
        let mut src = OneByte(Cursor::new(wire));
        let (got_a, _) = reader
            .read_from(&mut src, DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        let (got_b, n_b) = reader
            .read_from(&mut src, DEFAULT_MAX_PAYLOAD)
            .unwrap()
            .unwrap();
        assert_eq!(got_a, a);
        assert_eq!(got_b, b);
        assert_eq!(n_b, HEADER_LEN + TRAILER_LEN, "goodbye has no payload");
    }

    #[test]
    fn bad_magic_is_rejected_before_payload_wait() {
        let mut bytes = Frame::Goodbye.to_bytes();
        bytes[0] = b'X';
        let mut reader = FrameReader::new();
        let err = reader
            .read_from(&mut Cursor::new(bytes), DEFAULT_MAX_PAYLOAD)
            .unwrap_err();
        assert!(matches!(
            err,
            FrameReadError::Malformed(MalformedFrame::BadMagic(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = Frame::Goodbye.to_bytes();
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new();
        let err = reader.read_from(&mut Cursor::new(bytes), 1024).unwrap_err();
        assert!(matches!(
            err,
            FrameReadError::Malformed(MalformedFrame::Oversized { max: 1024, .. })
        ));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let bytes = Frame::HelloAck {
            version: PROTOCOL_V4,
            challenge: None,
        }
        .to_bytes();
        let mut reader = FrameReader::new();
        let err = reader
            .read_from(
                &mut Cursor::new(&bytes[..bytes.len() - 1]),
                DEFAULT_MAX_PAYLOAD,
            )
            .unwrap_err();
        assert!(matches!(err, FrameReadError::Io(e) if e.kind() == io::ErrorKind::UnexpectedEof));
    }

    #[test]
    fn version_is_checked_on_all_frames_but_hello() {
        for version in [0, 1, 2, 3, 5, 9] {
            let mut ack = Frame::HelloAck {
                version: PROTOCOL_V4,
                challenge: None,
            }
            .to_bytes();
            ack[5] = version;
            fix_crc(&mut ack);
            assert_eq!(
                Frame::from_bytes(&ack, DEFAULT_MAX_PAYLOAD),
                Err(MalformedFrame::Version(version))
            );

            let mut hello = Frame::Hello {
                min_version: PROTOCOL_V4,
                max_version: 9,
            }
            .to_bytes();
            hello[5] = version;
            fix_crc(&mut hello);
            assert!(
                Frame::from_bytes(&hello, DEFAULT_MAX_PAYLOAD).is_ok(),
                "hello must decode regardless of header version"
            );
        }
    }
}
