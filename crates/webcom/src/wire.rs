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
//! **Presented sets by reference.** A request's credentials and stamps
//! (its [`PresentedSet`]) cross a mux connection once. The set's id is
//! the SHA-256 of its inline encoding — the JSON object of its
//! `credentials` and `stamps` — computed once per set object, when it
//! first crosses a connection or when its definition arrives. A
//! `DefineSet { id, set }` frame goes ahead of the first frame on the
//! connection that names the set; a reference frame is the ordinary
//! `Schedule`, `Forward` or `ScheduleBatch` frame with `credentials`
//! and `stamps` empty and a `set` field holding the id. Each end keeps
//! a table of the last [`SET_TABLE_CAPACITY`] sets, first in,
//! first out: the sender's updated under its writer lock, in the order
//! frames reach the socket ([`crate::mux`]), the receiver's by the
//! thread holding the read role, in frame order, before any handler
//! sees the request ([`crate::net`]). The receiver stores a set under
//! the id it computes itself; a definition stating another id, or a
//! frame naming an id the receiver does not hold, closes the
//! connection. An empty set always goes inline, and the one-shot
//! [`encode_frame`]/[`decode_frame`] and the `encode_*` functions above
//! keep the inline form.
//!
//! [`WireRequest`]: crate::WireRequest

use crate::protocol::{Presented, PresentedSet, ScheduleRequest, SetId, WireRequest};
use serde::ser::{SerializeSeq, SerializeStruct};
use serde::{Deserialize, Serialize, Serializer};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::sync::Arc;

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

/// A borrowed request frame: serializes exactly as the owned
/// [`WireRequest`] variant does, or, given the id of the presented set
/// its requests share, as the reference form that names the set instead
/// of carrying it.
///
/// [`WireRequest`]: crate::WireRequest
pub(crate) enum RequestRef<'a> {
    Schedule(&'a ScheduleRequest, Option<SetId>),
    Forward {
        request: &'a ScheduleRequest,
        hops: u8,
        by_id: Option<SetId>,
    },
    /// Requests sharing one head; serializes as the owned
    /// `ScheduleBatch` of their head and their `(op_id, args)`.
    ScheduleBatch(&'a [&'a ScheduleRequest], Option<SetId>),
    DefineSet(SetId, &'a PresentedSet),
}

/// A borrowed request, its presented set named by the id when given.
struct Body<'a>(&'a ScheduleRequest, Option<SetId>);

impl Serialize for Body<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.0.serialize_as(serializer, self.1)
    }
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
struct BatchRef<'a>(&'a [&'a ScheduleRequest], Option<SetId>);

impl Serialize for BatchRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Field order follows `ScheduleBatch`'s serialization.
        let head = self.0[0];
        let mut st = serializer.serialize_struct("ScheduleBatch", 7)?;
        st.serialize_field("action", &head.action)?;
        st.serialize_field("user", &head.user)?;
        st.serialize_field("principal", &head.principal)?;
        st.serialize_field("master_key", &head.master_key)?;
        head.presented.serialize_fields(&mut st, self.1)?;
        st.serialize_field("ops", &OpsRef(self.0))?;
        st.end()
    }
}

impl Serialize for RequestRef<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Variant indices follow `WireRequest`'s declaration order.
        match *self {
            RequestRef::Schedule(request, by_id) => serializer.serialize_newtype_variant(
                "WireRequest",
                1,
                "Schedule",
                &Body(request, by_id),
            ),
            RequestRef::Forward { request, hops, by_id } => {
                let mut st = serializer.serialize_struct_variant("WireRequest", 2, "Forward", 2)?;
                st.serialize_field("request", &Body(request, by_id))?;
                st.serialize_field("hops", &hops)?;
                st.end()
            }
            RequestRef::ScheduleBatch(requests, by_id) => serializer.serialize_newtype_variant(
                "WireRequest",
                3,
                "ScheduleBatch",
                &BatchRef(requests, by_id),
            ),
            RequestRef::DefineSet(id, set) => {
                let mut st =
                    serializer.serialize_struct_variant("WireRequest", 4, "DefineSet", 2)?;
                st.serialize_field("id", &id)?;
                st.serialize_field("set", set)?;
                st.end()
            }
        }
    }
}

/// Frames `WireRequest::Schedule(request)` without cloning `request`.
pub fn encode_schedule(request: &ScheduleRequest) -> Result<Vec<u8>, WireError> {
    encode_frame(&RequestRef::Schedule(request, None))
}

/// Frames `WireRequest::Forward { request, hops }` without cloning
/// `request`.
pub fn encode_forward(request: &ScheduleRequest, hops: u8) -> Result<Vec<u8>, WireError> {
    encode_frame(&RequestRef::Forward {
        request,
        hops,
        by_id: None,
    })
}

/// Frames `WireRequest::ScheduleBatch` of `requests` without cloning
/// them. The batch's head is the first request's: every request must
/// [share it](ScheduleRequest::shares_head). `requests` must not be
/// empty.
pub fn encode_schedule_batch(requests: &[&ScheduleRequest]) -> Result<Vec<u8>, WireError> {
    debug_assert!(requests.iter().all(|r| r.shares_head(requests[0])));
    encode_frame(&RequestRef::ScheduleBatch(requests, None))
}

/// Frames `WireRequest::DefineSet { id, set }` without cloning `set`.
pub(crate) fn encode_definition(id: SetId, set: &PresentedSet) -> Result<Vec<u8>, WireError> {
    encode_frame(&RequestRef::DefineSet(id, set))
}

/// How many presented sets each end of a mux connection remembers. The
/// sender's table and the receiver's evict alike — first in, first out
/// at this capacity, updated in the order frames cross the socket — so
/// every id a sender names is one its receiver holds.
pub const SET_TABLE_CAPACITY: usize = 16;

/// The presented sets one end of a connection holds by id, oldest
/// first, at most [`SET_TABLE_CAPACITY`].
#[derive(Default)]
pub(crate) struct SetTable(VecDeque<(SetId, Arc<PresentedSet>)>);

impl SetTable {
    pub(crate) fn contains(&self, id: SetId) -> bool {
        self.0.iter().any(|(held, _)| *held == id)
    }

    /// Adds `set` under `id`, evicting the oldest set when full.
    pub(crate) fn insert(&mut self, id: SetId, set: Arc<PresentedSet>) {
        if self.0.len() == SET_TABLE_CAPACITY {
            self.0.pop_front();
        }
        self.0.push_back((id, set));
    }

    /// Replaces a set `request` names with the set held under its id;
    /// false if no set is held under it.
    pub(crate) fn resolve(&self, request: &mut WireRequest) -> bool {
        let Some(presented) = request.presented_mut() else {
            return true;
        };
        let Some(id) = presented.unresolved() else {
            return true;
        };
        match self.0.iter().find(|(held, _)| *held == id) {
            Some((_, set)) => {
                *presented = Presented::Set(Arc::clone(set));
                true
            }
            None => false,
        }
    }
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
            presented: Presented::default(),
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

    fn set_of(n: usize) -> Arc<PresentedSet> {
        use hetsec_keynote::ast::{Assertion, LicenseeExpr, Principal};
        let credentials = (0..n)
            .map(|i| {
                Assertion::new(
                    Principal::Policy,
                    LicenseeExpr::Principal(format!("Kdelegate{i}")),
                )
            })
            .collect();
        Arc::new(PresentedSet::new(credentials, Vec::new()))
    }

    #[test]
    fn reference_frames_match_the_owned_named_form() {
        use crate::authz::ScheduledAction;
        use crate::protocol::ScheduleBatch;
        use hetsec_middleware::component::ComponentRef;
        use hetsec_middleware::naming::MiddlewareKind;
        let set = set_of(3);
        let id = set.id().unwrap();
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
            presented: Presented::Set(Arc::clone(&set)),
            args: vec![],
        };
        let named = ScheduleRequest {
            presented: Presented::Named(id),
            ..request.clone()
        };
        let by_id = Some(id);
        let owned = WireRequest::Schedule(Box::new(named.clone()));
        let frame = encode_frame(&RequestRef::Schedule(&request, by_id)).unwrap();
        assert_eq!(frame, encode_frame(&owned).unwrap());
        assert_eq!(decode_frame::<WireRequest>(&frame).unwrap(), owned);
        let owned = WireRequest::Forward { request: Box::new(named.clone()), hops: 1 };
        let forward = RequestRef::Forward { request: &request, hops: 1, by_id };
        assert_eq!(encode_frame(&forward).unwrap(), encode_frame(&owned).unwrap());
        let owned = WireRequest::ScheduleBatch(Box::new(ScheduleBatch::from(named)));
        let batch = RequestRef::ScheduleBatch(&[&request], by_id);
        assert_eq!(encode_frame(&batch).unwrap(), encode_frame(&owned).unwrap());
        // The definition is the owned frame, and names the id the set's
        // content hashes to.
        let (_, definition) = set.wire().unwrap();
        let owned = WireRequest::DefineSet { id, set: Arc::clone(&set) };
        assert_eq!(definition, encode_frame(&owned).unwrap());
        match decode_frame::<WireRequest>(definition).unwrap() {
            WireRequest::DefineSet { id: stated, set: got } => {
                assert_eq!((stated, &*got), (id, &*set));
                assert_eq!(got.id(), Some(id));
            }
            other => panic!("unexpected frame {other:?}"),
        }
        // A request names its set or carries it, never both.
        let inline = encode_frame(&WireRequest::Schedule(Box::new(request))).unwrap();
        let text = String::from_utf8(inline[4..].to_vec()).unwrap();
        let both = text.replace("\"args\"", &format!("\"set\":\"{id}\",\"args\""));
        let mut framed = (both.len() as u32).to_be_bytes().to_vec();
        framed.extend_from_slice(both.as_bytes());
        assert!(matches!(decode_frame::<WireRequest>(&framed), Err(WireError::Malformed(_))));
    }

    #[test]
    fn the_set_table_evicts_first_in_first_out() {
        let sets: Vec<Arc<PresentedSet>> = (1..=SET_TABLE_CAPACITY + 1).map(set_of).collect();
        let mut table = SetTable::default();
        for set in &sets {
            table.insert(set.id().unwrap(), Arc::clone(set));
        }
        assert!(!table.contains(sets[0].id().unwrap()));
        assert!(sets[1..].iter().all(|s| table.contains(s.id().unwrap())));
        let mut request = WireRequest::ScheduleBatch(Box::new(crate::protocol::ScheduleBatch {
            action: crate::authz::ScheduledAction::new(
                hetsec_middleware::component::ComponentRef::new(
                    hetsec_middleware::naming::MiddlewareKind::Ejb,
                    "Dom",
                    "Calc",
                    "add",
                ),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            presented: Presented::Named(sets[1].id().unwrap()),
            ops: vec![],
        }));
        assert!(table.resolve(&mut request));
        assert_eq!(request.presented_mut().unwrap(), &Presented::Set(Arc::clone(&sets[1])));
        *request.presented_mut().unwrap() = Presented::Named(sets[0].id().unwrap());
        assert!(!table.resolve(&mut request), "an evicted set resolved");
    }
}
