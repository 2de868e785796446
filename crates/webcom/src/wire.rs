//! Length-prefixed wire framing for the scheduling protocol.
//!
//! A frame is a 4-byte big-endian length followed by that many bytes of
//! UTF-8 serde_json. The format is deliberately boring: framing errors
//! must be *errors* — truncated, oversized and garbage frames all
//! surface as [`WireError`], never as a panic — because the master must
//! keep scheduling when a client feeds it junk.
//!
//! The codec streams: [`encode_frame`] writes the length prefix and the
//! JSON body into one buffer with no intermediate value tree, and
//! [`decode_frame`]/[`read_frame`] parse the typed value straight out of
//! the body bytes. Two rules bound what a peer can make the receiver do:
//!
//! * **Depth cap.** A frame may nest at most [`MAX_DEPTH`] JSON arrays
//!   and objects. Decoding a deeper frame fails with
//!   [`WireError::Malformed`] before it can exhaust the reading thread's
//!   stack, and [`encode_frame`] refuses to produce one. The cap sits
//!   above the deepest frame this workspace's own types produce: a
//!   forwarded credential licensing 500 principals through a `||` chain
//!   nests about 1,000 levels.
//! * **Duplicate keys.** A struct field that appears twice in one
//!   object (or a map key that repeats) makes the frame
//!   [`WireError::Malformed`]; the receiver never picks one of the two
//!   values. Unknown fields are skipped, which is how new optional
//!   fields stay compatible with older peers.
//!
//! Callers that share a socket encode a frame first and hold the
//! writer lock only for [`write_encoded`]. [`encode_schedule`],
//! [`encode_forward`] and [`encode_schedule_batch`] frame borrowed
//! [`ScheduleRequest`]s with the same bytes as the owned
//! [`WireRequest`] variants, without cloning them.
//!
//! [`WireRequest`]: crate::WireRequest

use crate::protocol::ScheduleRequest;
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Serialize, Serializer};
use std::io::{Read, Write};

/// Upper bound on a single frame. A schedule request is a component
/// reference, a handful of credentials and the operand values; anything
/// beyond this is a corrupt length prefix or an attack, and must not
/// make the receiver allocate gigabytes.
pub const MAX_FRAME_LEN: usize = 4 * 1024 * 1024;

/// The deepest nesting of JSON arrays and objects a frame may hold, in
/// either direction (see the module docs).
pub const MAX_DEPTH: usize = serde_json::MAX_DEPTH;

/// Why a frame could not be encoded or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside the length prefix or the payload.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The payload was not valid UTF-8 JSON for the expected type, or
    /// broke the depth or duplicate-key rule.
    Malformed(String),
    /// The underlying stream failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(n) => {
                write!(f, "frame length {n} exceeds maximum {MAX_FRAME_LEN}")
            }
            WireError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
            WireError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// True when the error means the peer timed out rather than sent
    /// garbage (read timeouts surface as `Io(WouldBlock|TimedOut)`).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

fn io_error(e: std::io::Error) -> WireError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        WireError::Truncated
    } else {
        WireError::Io(e)
    }
}

fn malformed(e: serde_json::Error) -> WireError {
    WireError::Malformed(e.to_string())
}

/// Encodes one value as a frame: 4-byte big-endian length + JSON bytes,
/// written into a single buffer.
pub fn encode_frame<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut frame = Vec::with_capacity(256);
    frame.extend_from_slice(&[0; 4]);
    serde_json::to_writer(&mut frame, value).map_err(malformed)?;
    let len = frame.len() - 4;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(frame)
}

/// A borrowed [`WireRequest::Schedule`] or [`WireRequest::Forward`]:
/// serializes exactly as the owned variant does.
///
/// [`WireRequest::Schedule`]: crate::WireRequest::Schedule
/// [`WireRequest::Forward`]: crate::WireRequest::Forward
enum RequestRef<'a> {
    Schedule(&'a ScheduleRequest),
    Forward { request: &'a ScheduleRequest, hops: u8 },
    /// Requests sharing one head; serializes as the owned
    /// `ScheduleBatch` of their head and their `(op_id, args)`.
    ScheduleBatch(&'a [&'a ScheduleRequest]),
}

/// The `ops` of a borrowed batch.
struct OpsRef<'a>(&'a [&'a ScheduleRequest]);

impl Serialize for OpsRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.0.len()))?;
        for request in self.0 {
            seq.serialize_element(&OpRef(request))?;
        }
        seq.end()
    }
}

/// One op of a borrowed batch: a `BatchOp`.
struct OpRef<'a>(&'a ScheduleRequest);

impl Serialize for OpRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("BatchOp", 2)?;
        st.serialize_field("op_id", &self.0.op_id)?;
        st.serialize_field("args", &self.0.args)?;
        st.end()
    }
}

/// The body of a borrowed batch: the head of its first request.
struct BatchRef<'a>(&'a [&'a ScheduleRequest]);

impl Serialize for BatchRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Field order follows `ScheduleBatch`'s declaration order.
        let head = self.0[0];
        let mut st = serializer.serialize_struct("ScheduleBatch", 7)?;
        st.serialize_field("action", &head.action)?;
        st.serialize_field("user", &head.user)?;
        st.serialize_field("principal", &head.principal)?;
        st.serialize_field("master_key", &head.master_key)?;
        st.serialize_field("credentials", &head.credentials)?;
        st.serialize_field("stamps", &head.stamps)?;
        st.serialize_field("ops", &OpsRef(self.0))?;
        st.end()
    }
}

impl Serialize for RequestRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Variant indices follow `WireRequest`'s declaration order.
        match *self {
            RequestRef::Schedule(request) => {
                serializer.serialize_newtype_variant("WireRequest", 1, "Schedule", request)
            }
            RequestRef::Forward { request, hops } => {
                let mut st = serializer.serialize_struct_variant("WireRequest", 2, "Forward", 2)?;
                st.serialize_field("request", request)?;
                st.serialize_field("hops", &hops)?;
                st.end()
            }
            RequestRef::ScheduleBatch(requests) => serializer.serialize_newtype_variant(
                "WireRequest",
                3,
                "ScheduleBatch",
                &BatchRef(requests),
            ),
        }
    }
}

/// Frames `WireRequest::Schedule(request)` without cloning `request`.
pub fn encode_schedule(request: &ScheduleRequest) -> Result<Vec<u8>, WireError> {
    encode_frame(&RequestRef::Schedule(request))
}

/// Frames `WireRequest::Forward { request, hops }` without cloning
/// `request`.
pub fn encode_forward(request: &ScheduleRequest, hops: u8) -> Result<Vec<u8>, WireError> {
    encode_frame(&RequestRef::Forward { request, hops })
}

/// Frames `WireRequest::ScheduleBatch` of `requests` without cloning
/// them. The batch's head is the first request's: every request must
/// [share it](ScheduleRequest::shares_head). `requests` must not be
/// empty.
pub fn encode_schedule_batch(requests: &[&ScheduleRequest]) -> Result<Vec<u8>, WireError> {
    debug_assert!(requests.iter().all(|r| r.shares_head(requests[0])));
    encode_frame(&RequestRef::ScheduleBatch(requests))
}

/// Writes one already-encoded frame to a stream.
pub fn write_encoded<W: Write>(writer: &mut W, frame: &[u8]) -> Result<(), WireError> {
    writer.write_all(frame).map_err(io_error)?;
    writer.flush().map_err(io_error)
}

/// Encodes and writes one frame to a stream.
pub fn write_frame<T: Serialize + ?Sized, W: Write>(
    writer: &mut W,
    value: &T,
) -> Result<(), WireError> {
    write_encoded(writer, &encode_frame(value)?)
}

/// Reads one frame from a stream. A short read is [`WireError::Truncated`],
/// an absurd length prefix is [`WireError::Oversized`], and a payload
/// that is not UTF-8 JSON of the expected shape — or breaks the depth
/// or duplicate-key rule — is [`WireError::Malformed`].
pub fn read_frame<T: for<'de> Deserialize<'de>, R: Read>(reader: &mut R) -> Result<T, WireError> {
    let mut len_buf = [0u8; 4];
    reader.read_exact(&mut len_buf).map_err(io_error)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(io_error)?;
    serde_json::from_slice(&body).map_err(malformed)
}

/// Reads frames from a stream through one buffer that survives a failed
/// read. Each read syscall takes whatever the socket holds, so frames
/// that arrived together are decoded without further syscalls, and
/// [`has_frame`](Self::has_frame) tells whether the next frame is
/// already complete in the buffer. A read that fails mid-frame — a
/// read timeout, typically — leaves the bytes read so far buffered, and
/// the next [`read_frame`](Self::read_frame) resumes where it stopped,
/// so a deadline never breaks the framing.
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    /// Start of the unconsumed bytes.
    start: usize,
    /// End of the bytes read.
    end: usize,
}

impl FrameReader {
    /// Bytes asked of the stream per read, at least.
    const CHUNK: usize = 16 * 1024;

    pub(crate) fn new() -> Self {
        FrameReader {
            buf: vec![0; Self::CHUNK],
            start: 0,
            end: 0,
        }
    }

    /// The length of the frame the buffer starts with, once its prefix
    /// is in.
    fn frame_len(&self) -> Option<usize> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>()?;
        Some(u32::from_be_bytes(*prefix) as usize)
    }

    /// True when a whole frame is buffered, so the next
    /// [`read_frame`](Self::read_frame) needs no syscall.
    pub(crate) fn has_frame(&self) -> bool {
        self.frame_len()
            .is_some_and(|len| len <= MAX_FRAME_LEN && self.end - self.start >= 4 + len)
    }

    /// Reads one frame, with the errors of [`read_frame`]. The stream
    /// ending anywhere, even between frames, is [`WireError::Truncated`].
    pub(crate) fn read_frame<T: for<'de> Deserialize<'de>, R: Read>(
        &mut self,
        source: &mut R,
    ) -> Result<T, WireError> {
        loop {
            let need = match self.frame_len() {
                Some(len) if len > MAX_FRAME_LEN => return Err(WireError::Oversized(len)),
                Some(len) if self.end - self.start >= 4 + len => {
                    let body = self.start + 4..self.start + 4 + len;
                    self.start = body.end;
                    let decoded = serde_json::from_slice(&self.buf[body]).map_err(malformed);
                    if self.start == self.end {
                        self.start = 0;
                        self.end = 0;
                        // One large frame must not pin its buffer.
                        self.buf.truncate(Self::CHUNK);
                        self.buf.shrink_to_fit();
                    }
                    return decoded;
                }
                Some(len) => 4 + len,
                None => 4,
            };
            self.fill(source, need)?;
        }
    }

    /// Makes room for a frame of `need` bytes, then reads once.
    fn fill<R: Read>(&mut self, source: &mut R, need: usize) -> Result<(), WireError> {
        let room = self.buf.len() - self.end;
        if self.start > 0 && (self.start + need > self.buf.len() || room < Self::CHUNK / 2) {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.start + need > self.buf.len() {
            self.buf.resize(need, 0);
        }
        loop {
            match source.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(WireError::Truncated),
                Ok(n) => {
                    self.end += n;
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(io_error(e)),
            }
        }
    }
}

/// Decodes one frame from a byte slice.
pub fn decode_frame<T: for<'de> Deserialize<'de>>(bytes: &[u8]) -> Result<T, WireError> {
    let mut cursor = bytes;
    read_frame(&mut cursor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{WireRequest, WireResponse};

    #[test]
    fn roundtrip() {
        let frame = encode_frame(&WireRequest::Identify).unwrap();
        let back: WireRequest = decode_frame(&frame).unwrap();
        assert_eq!(back, WireRequest::Identify);
    }

    #[test]
    fn truncated_frames_error() {
        let frame = encode_frame(&WireRequest::Identify).unwrap();
        for cut in 0..frame.len() {
            let err = decode_frame::<WireRequest>(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_errors_without_allocating() {
        let mut frame = vec![0xFF, 0xFF, 0xFF, 0xFF];
        frame.extend_from_slice(b"ignored");
        match decode_frame::<WireResponse>(&frame) {
            Err(WireError::Oversized(n)) => assert!(n > MAX_FRAME_LEN),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn garbage_payload_is_malformed() {
        let mut frame = (7u32).to_be_bytes().to_vec();
        frame.extend_from_slice(b"not-js\xFF");
        assert!(matches!(
            decode_frame::<WireRequest>(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn borrowed_requests_frame_like_the_owned_variants() {
        use crate::authz::ScheduledAction;
        use crate::protocol::{BatchOp, ScheduleBatch};
        use hetsec_graphs::Value;
        use hetsec_middleware::component::ComponentRef;
        use hetsec_middleware::naming::MiddlewareKind;
        let request = ScheduleRequest {
            op_id: 3,
            action: ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            credentials: vec![],
            stamps: vec![],
            args: vec![Value::Int(1), Value::Str("x".into())],
        };
        let owned = WireRequest::Schedule(Box::new(request.clone()));
        assert_eq!(encode_schedule(&request).unwrap(), encode_frame(&owned).unwrap());
        let owned = WireRequest::Forward { request: Box::new(request.clone()), hops: 2 };
        assert_eq!(encode_forward(&request, 2).unwrap(), encode_frame(&owned).unwrap());
        let second = ScheduleRequest {
            op_id: 4,
            args: vec![],
            ..request.clone()
        };
        let mut owned = ScheduleBatch::from(request.clone());
        owned.ops.push(BatchOp { op_id: 4, args: vec![] });
        let owned = WireRequest::ScheduleBatch(Box::new(owned));
        assert_eq!(
            encode_schedule_batch(&[&request, &second]).unwrap(),
            encode_frame(&owned).unwrap()
        );
    }
}
