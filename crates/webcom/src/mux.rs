//! Pipelined multiplexed TCP transport: the master's one TCP
//! [`ClientTransport`], and the connection behind every
//! [`crate::TcpPeerLink`].
//!
//! A transport that keeps one request on the wire at a time costs
//! `service time + RTT` per op no matter how many ops are ready, with
//! every other caller queued on the connection. [`MuxTransport`] splits
//! the connection instead: callers write their frames under a short
//! lock, and replies are correlated to their callers through a
//! pending-reply table keyed by `op_id`. Many ops ride one socket
//! concurrently, bounded by an in-flight *window* of tokens; the window
//! composes with the master's per-client `CallPermit` quota
//! (`HealthConfig::max_in_flight`) — the permit gates whether a
//! dispatch may target the client at all, the window gates how many of
//! the admitted calls may be on the wire at once.
//!
//! No thread of its own reads the socket. The callers take turns: after
//! writing, a caller takes the *read role* if it is free, and otherwise
//! waits on its reply channel. The reader reads through one resumable
//! frame buffer, hands every reply to its caller by `op_id` (its own
//! included), and once its own ops are settled — answered or past their
//! deadline — hands the read role to a caller still waiting, or frees
//! it. A reply thus reaches its caller without a hop through another
//! thread whenever that caller is the one reading, and a read deadline
//! that expires mid-frame leaves the partial frame buffered for the next
//! reader.
//!
//! A batch ([`ClientTransport::call_batch`], how a condensed-graph wave
//! reaches the wire) takes as many window slots as are free, registers
//! that many op ids, and collects the replies by `op_id`, a window at a
//! time. The ops of a window that [share a
//! head](ScheduleRequest::shares_head) go out as one `ScheduleBatch`
//! frame, ops with other heads as further frames of the same socket
//! write, and a lone op as a plain `Schedule` frame; the reader routes
//! each reply of a `ReplyBatch` frame to its caller by `op_id`. A single
//! call is a batch of one.
//!
//! A connection has one of two framings, fixed by what it was made for.
//! A client connection writes `Schedule`/`ScheduleBatch` frames and
//! takes only `Reply`/`ReplyBatch` frames back. A peer link's connection
//! (behind a [`crate::TcpPeerLink`]) writes one `Forward` frame per op
//! and takes only `ForwardReply` frames back, so several forwards to one
//! peer master share its socket, each answered by `op_id`. Everything
//! else — pending table, read role, window, poison, the refusal of a
//! duplicate op id — is the same code for both.
//!
//! Both framings send a request's presented set — its credentials and
//! stamps — by reference (see [`crate::wire`]): each connection keeps
//! the table of sets it has defined to its receiver, checked and
//! updated under the writer lock so it follows the order frames reach
//! the socket. Frames are encoded outside the lock, naming their set by
//! id; under it, a set the receiver does not hold gets its definition,
//! encoded once per set and cached on it, written ahead of the first
//! frame naming it. A new connection generation starts with an empty
//! table, as its receiver does. A request naming a set it does not
//! carry is refused with [`TransportError::Protocol`], unsent.
//!
//! Failure model: when the socket fails under a reader or a writer, the
//! connection generation is marked dead and every pending op fails. A
//! lost connection (peer reset, truncated frame) fails them with a
//! retryable [`TransportError::Closed`], so the master's dispatch loop
//! can retry or fail over, and the next call connects a fresh
//! generation. With no reader between calls, a peer that closes an idle
//! connection is noticed by the next call, which fails fast with
//! `Closed`. A peer that speaks the protocol wrong (a frame of the other
//! framing, or of no reply kind, or garbage) fails them with
//! [`TransportError::Protocol`], which is not retried against the same
//! peer. A reply arriving after its caller timed out is dropped
//! silently — its pending entry is already gone.

use crate::protocol::{
    head_groups, ClientIdentity, Presented, PresentedSet, ScheduleReply, ScheduleRequest, SetId,
    WireRequest,
};
use crate::transport::{ClientTransport, TransportError};
use crate::wire::{
    encode_frame, read_frame, write_encoded, FrameReader, RequestRef, SetTable, WireError,
};
use crate::WireResponse;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Default in-flight window per connection.
pub const DEFAULT_WINDOW: usize = 32;

/// The longest a caller lets a dial take; a call with a shorter timeout
/// allows the dial only that.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

type ReplyResult = Result<ScheduleReply, TransportError>;

/// How a call's requests go on the wire, and which reply frames its
/// connection takes. Every call on one connection has the same kind: a
/// [`MuxTransport`] either schedules or forwards.
#[derive(Clone, Copy)]
enum Framing {
    /// To a serving client: `Schedule` and `ScheduleBatch` frames out,
    /// `Reply` and `ReplyBatch` frames back.
    Schedule,
    /// To a peer master: a `Forward` frame per op, with this hop count,
    /// out; `ForwardReply` frames back.
    Forward(u8),
}

/// What a waiting caller receives on its reply channel.
#[derive(Debug)]
enum Delivery {
    /// A reply for one of its ops, or the failure of the connection.
    Reply(ReplyResult),
    /// The read role, handed on by a reader whose own ops are settled.
    Read,
}

/// Counting semaphore for in-flight slots. (An mpsc receiver is
/// `!Sync`, so the token pool cannot be a channel shared across caller
/// threads.)
struct Window {
    slots: StdMutex<usize>,
    freed: Condvar,
}

impl Window {
    fn new(size: usize) -> Self {
        Window {
            slots: StdMutex::new(size),
            freed: Condvar::new(),
        }
    }

    /// Takes between one and `want` slots — as many as are free once
    /// one is — waiting at most `timeout` for the first. Returns how
    /// many it took (0 on timeout). A caller never holds slots while
    /// waiting for more, so two batches cannot deadlock on one window.
    fn acquire_up_to(&self, want: usize, timeout: Duration) -> usize {
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        let mut woken = false;
        loop {
            if *slots > 0 {
                let taken = want.min(*slots);
                *slots -= taken;
                if woken && *slots > 0 {
                    // Pass the wake-up on: a release may free several
                    // slots but wakes one waiter.
                    self.freed.notify_one();
                }
                return taken;
            }
            let now = Instant::now();
            if now >= deadline {
                return 0;
            }
            slots = self
                .freed
                .wait_timeout(slots, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            woken = true;
        }
    }

    fn release(&self, slots: usize) {
        *self.slots.lock().unwrap_or_else(|e| e.into_inner()) += slots;
        self.freed.notify_one();
    }
}

/// Callers awaiting replies, and whether one of them holds the read
/// role. One lock covers both, so a reader that finds nobody waiting
/// frees the role before any new caller can look for it.
struct Pending {
    waiters: HashMap<u64, Sender<Delivery>>,
    reading: bool,
}

/// One connection generation: the socket, the resumable frame buffer
/// the read-role holder reads through, the pending-reply table and the
/// in-flight window. Once dead, it fails every pending op.
struct ConnState {
    stream: TcpStream,
    /// Serialises writes, and with them the table of presented sets
    /// this connection has defined to its receiver.
    writing: Mutex<SetTable>,
    /// Locked only by the read-role holder.
    frames: Mutex<FrameReader>,
    pending: Mutex<Pending>,
    window: Window,
    dead: AtomicBool,
}

impl ConnState {
    fn new(stream: TcpStream, window: usize) -> Self {
        ConnState {
            stream,
            writing: Mutex::new(SetTable::default()),
            frames: Mutex::new(FrameReader::new()),
            pending: Mutex::new(Pending {
                waiters: HashMap::new(),
                reading: false,
            }),
            window: Window::new(window),
            dead: AtomicBool::new(false),
        }
    }

    /// Marks the generation dead, severs the socket (waking a reader
    /// blocked on it), and fails every pending op with the error `kind`
    /// builds: `Closed` for a lost connection, `Protocol` for a peer
    /// that broke the protocol.
    fn poison(&self, kind: fn(String) -> TransportError, reason: &str) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return; // already poisoned; pending already drained
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        let drained: Vec<(u64, Sender<Delivery>)> =
            self.pending.lock().waiters.drain().collect();
        for (op_id, tx) in drained {
            let _ = tx.send(Delivery::Reply(Err(kind(format!(
                "mux connection failed with op {op_id} in flight: {reason}"
            )))));
        }
    }

    /// Registers a caller's reply channel under `op_id`, closing the
    /// race with [`poison`]: the insert lands first, then `dead` is
    /// re-checked. `poison` sets `dead` before draining the table, so
    /// either this sees `dead` and withdraws the entry itself, or the
    /// drain finds the entry and fails it — the entry can never be
    /// orphaned with a caller blocked on it for the full timeout.
    ///
    /// An `op_id` that is already pending is refused with
    /// [`TransportError::DuplicateOp`] rather than overwriting the other
    /// caller's entry, which would hand it this caller's reply.
    ///
    /// [`poison`]: ConnState::poison
    fn register(&self, op_id: u64, tx: Sender<Delivery>) -> Result<(), TransportError> {
        match self.pending.lock().waiters.entry(op_id) {
            Entry::Occupied(_) => return Err(TransportError::DuplicateOp(op_id)),
            Entry::Vacant(slot) => {
                slot.insert(tx);
            }
        }
        if self.dead.load(Ordering::SeqCst) {
            self.pending.lock().waiters.remove(&op_id);
            return Err(TransportError::Closed(format!(
                "mux connection died while registering op {op_id}"
            )));
        }
        Ok(())
    }

    /// Puts one window's worth of requests (by index) on the wire in a
    /// single write and collects their replies by `op_id` until
    /// `deadline`, filling `results`. `Ok(false)` means some op was
    /// still unanswered at the deadline: it is withdrawn and left
    /// `None`. `Err` means the connection was lost: every op of the
    /// chunk still outstanding is left `None` for the caller to fail
    /// with that error, and the pending table holds none of them.
    fn exchange(
        &self,
        requests: &[&ScheduleRequest],
        framing: Framing,
        chunk: Vec<usize>,
        results: &mut [Option<ReplyResult>],
        deadline: Instant,
    ) -> Result<bool, TransportError> {
        if self.dead.load(Ordering::SeqCst) {
            return Err(TransportError::Closed(
                "mux connection died while waiting for a window slot".to_string(),
            ));
        }
        // Register interest before writing, so no reply can race past
        // an unregistered op_id. `register` re-checks `dead` after each
        // insert: a poison() in between would otherwise orphan entries
        // and block us for the full timeout.
        let (reply_tx, reply_rx) = mpsc::channel::<Delivery>();
        let mut registered: Vec<usize> = Vec::with_capacity(chunk.len());
        for i in chunk {
            match self.register(requests[i].op_id, reply_tx.clone()) {
                Ok(()) => registered.push(i),
                Err(e @ TransportError::DuplicateOp(_)) => results[i] = Some(Err(e)),
                // Dead mid-registration: poison() drained the entries
                // registered so far.
                Err(e) => return Err(e),
            }
        }
        drop(reply_tx);
        let mut wire: Vec<u8> = Vec::new();
        let mut by_reference: Vec<SetRef> = Vec::new();
        let mut outstanding: Vec<(u64, usize)> = Vec::with_capacity(registered.len());
        for group in head_groups(requests, &registered) {
            let shared = match &requests[group[0]].presented {
                Presented::Set(set) => set.wire().map(|(id, definition)| (id, definition, set)),
                Presented::Nothing | Presented::Named(_) => None,
            };
            for (i, frame) in encode_group(requests, &group, framing, shared.map(|s| s.0)) {
                match frame {
                    Ok(frame) => {
                        if let Some((id, definition, set)) = shared {
                            by_reference.push(SetRef { at: wire.len(), id, definition, set });
                        }
                        if wire.is_empty() {
                            wire = frame;
                        } else {
                            wire.extend_from_slice(&frame);
                        }
                    }
                    Err(e) => {
                        self.pending.lock().waiters.remove(&requests[i].op_id);
                        results[i] = Some(Err(e));
                    }
                }
            }
            outstanding.extend(
                group
                    .iter()
                    .filter(|&&i| results[i].is_none())
                    .map(|&i| (requests[i].op_id, i)),
            );
        }
        if outstanding.is_empty() {
            return Ok(true);
        }
        let written = {
            let mut sent = self.writing.lock();
            let wire = with_definitions(&mut sent, wire, &by_reference);
            write_encoded(&mut &self.stream, &wire)
        };
        if let Err(e) = written {
            // Drains this chunk's entries with everyone else's.
            self.poison(TransportError::Closed, &format!("write failed: {e}"));
            return Err(TransportError::Closed(format!("mux write failed: {e}")));
        }
        let mut wait = Wait {
            outstanding,
            lost: None,
            reading: self.take_read_role(),
        };
        while !wait.outstanding.is_empty() && wait.lost.is_none() {
            let delivery = if wait.reading {
                match reply_rx.try_recv() {
                    Ok(delivery) => Ok(delivery),
                    Err(TryRecvError::Empty) if Instant::now() < deadline => {
                        self.read_one(deadline, framing);
                        continue;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => Err(RecvTimeoutError::Disconnected),
                }
            } else {
                reply_rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
            };
            match delivery {
                Ok(delivery) => wait.take(delivery, results),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => {
                    wait.lost = Some(TransportError::Closed(
                        "mux connection dropped the pending table".to_string(),
                    ))
                }
            }
        }
        self.settle(&mut wait, &reply_rx, results);
        wait.lost.map_or(Ok(wait.outstanding.is_empty()), Err)
    }

    /// True if the caller took the free read role.
    fn take_read_role(&self) -> bool {
        !std::mem::replace(&mut self.pending.lock().reading, true)
    }

    /// As the read-role holder, reads one frame — waiting for it at
    /// most until `deadline` — and hands it to its caller by `op_id`. A
    /// reply nobody waits for (its caller timed out) is dropped; a
    /// failed read, or a frame `framing` does not take, poisons the
    /// generation.
    fn read_one(&self, deadline: Instant, framing: Framing) {
        let mut frames = self.frames.lock();
        if !frames.has_frame() {
            let left = deadline
                .saturating_duration_since(Instant::now())
                .max(Duration::from_millis(1));
            if let Err(e) = self.stream.set_read_timeout(Some(left)) {
                return self.poison(TransportError::Closed, &format!("set read timeout: {e}"));
            }
        }
        let schedules = matches!(framing, Framing::Schedule);
        match frames.read_frame::<WireResponse, _>(&mut &self.stream) {
            Ok(WireResponse::Reply(reply)) if schedules => self.deliver([reply]),
            Ok(WireResponse::ReplyBatch(replies)) if schedules => self.deliver(replies),
            Ok(WireResponse::ForwardReply(reply)) if !schedules => self.deliver([reply]),
            Ok(other) => self.poison(
                TransportError::Protocol,
                &format!("unexpected frame {other:?} on a mux connection"),
            ),
            // The deadline passed; a partial frame stays buffered.
            Err(e) if e.is_timeout() => {}
            Err(e @ (WireError::Truncated | WireError::Io(_))) => {
                self.poison(TransportError::Closed, &e.to_string())
            }
            Err(e) => self.poison(TransportError::Protocol, &e.to_string()),
        }
    }

    /// Hands each reply to the caller waiting for its `op_id`; a reply
    /// nobody waits for is dropped.
    fn deliver(&self, replies: impl IntoIterator<Item = ScheduleReply>) {
        let mut pending = self.pending.lock();
        for reply in replies {
            if let Some(tx) = pending.waiters.remove(&reply.op_id) {
                let _ = tx.send(Delivery::Reply(Ok(reply)));
            }
        }
    }

    /// Ends a caller's wait: withdraws its unanswered ops, so a late
    /// reply finds no waiter, takes what was sent to it meanwhile, and
    /// passes the read role on if it holds it — to a caller still
    /// waiting, or back to free. Under the table's lock nothing more can
    /// be sent to it.
    fn settle(
        &self,
        wait: &mut Wait,
        reply_rx: &Receiver<Delivery>,
        results: &mut [Option<ReplyResult>],
    ) {
        let mut pending = self.pending.lock();
        for (op_id, _) in &wait.outstanding {
            pending.waiters.remove(op_id);
        }
        while let Ok(delivery) = reply_rx.try_recv() {
            wait.take(delivery, results);
        }
        if wait.reading {
            match pending.waiters.values().next() {
                Some(next) => {
                    let _ = next.send(Delivery::Read);
                }
                None => pending.reading = false,
            }
        }
    }
}

/// A frame this side could not encode (nesting past the depth cap): a
/// protocol error, raised before anything touches the socket.
fn encode_error(e: WireError) -> TransportError {
    TransportError::Protocol(format!("cannot encode frame: {e}"))
}

/// Frames one head group: a lone op as `Schedule`, more as one
/// `ScheduleBatch`, and every forward as a `Forward` frame of its own,
/// naming the group's presented set by `by_id` when given. A batch that
/// cannot be encoded — past the frame size cap, or one op nesting too
/// deep — falls back to a frame per op, so only the ops that cannot be
/// encoded on their own fail. A group whose set is named but was never
/// resolved fails whole: its receiver could not resolve it either.
/// Yields the frames with the index of an op each covers.
fn encode_group(
    requests: &[&ScheduleRequest],
    group: &[usize],
    framing: Framing,
    by_id: Option<SetId>,
) -> Vec<(usize, Result<Vec<u8>, TransportError>)> {
    if let Some(id) = requests[group[0]].presented.unresolved() {
        let refusal = TransportError::Protocol(format!("presented set {id} was never resolved"));
        return group.iter().map(|&i| (i, Err(refusal.clone()))).collect();
    }
    if group.len() > 1 && matches!(framing, Framing::Schedule) {
        let batch: Vec<&ScheduleRequest> = group.iter().map(|&i| requests[i]).collect();
        if let Ok(frame) = encode_frame(&RequestRef::ScheduleBatch(&batch, by_id)) {
            return vec![(group[0], Ok(frame))];
        }
    }
    group
        .iter()
        .map(|&i| {
            let request = requests[i];
            let frame = match framing {
                Framing::Schedule => encode_frame(&RequestRef::Schedule(request, by_id)),
                Framing::Forward(hops) => encode_frame(&RequestRef::Forward {
                    request,
                    hops,
                    by_id,
                }),
            };
            (i, frame.map_err(encode_error))
        })
        .collect()
}

/// A frame of a chunk that names its presented set by id.
struct SetRef<'a> {
    /// Where the frame starts in the chunk's bytes.
    at: usize,
    id: SetId,
    /// The set's `DefineSet` frame.
    definition: &'a [u8],
    set: &'a Arc<PresentedSet>,
}

/// A chunk's bytes with the definition of each set its frames name,
/// that the receiver does not hold, ahead of the first frame naming it;
/// records those sets as held. Runs under the writer lock, so the table
/// is updated in the order frames reach the socket, and adds bytes only
/// when a set is defined.
fn with_definitions(sent: &mut SetTable, wire: Vec<u8>, frames: &[SetRef]) -> Vec<u8> {
    let mut defined: Option<Vec<u8>> = None;
    let mut copied = 0;
    for frame in frames {
        if sent.contains(frame.id) {
            continue;
        }
        sent.insert(frame.id, Arc::clone(frame.set));
        let out = defined
            .get_or_insert_with(|| Vec::with_capacity(wire.len() + frame.definition.len()));
        out.extend_from_slice(&wire[copied..frame.at]);
        out.extend_from_slice(frame.definition);
        copied = frame.at;
    }
    match defined {
        Some(mut out) => {
            out.extend_from_slice(&wire[copied..]);
            out
        }
        None => wire,
    }
}

/// One caller's wait for a chunk's replies.
struct Wait {
    /// (op id, request index) of the ops not yet answered.
    outstanding: Vec<(u64, usize)>,
    /// Set when the connection failed.
    lost: Option<TransportError>,
    /// Whether this caller holds the read role.
    reading: bool,
}

impl Wait {
    fn take(&mut self, delivery: Delivery, results: &mut [Option<ReplyResult>]) {
        match delivery {
            Delivery::Reply(Ok(reply)) => {
                if let Some(k) = self.outstanding.iter().position(|&(id, _)| id == reply.op_id) {
                    results[self.outstanding.swap_remove(k).1] = Some(Ok(reply));
                }
            }
            Delivery::Reply(Err(e)) => self.lost = Some(e),
            Delivery::Read => self.reading = true,
        }
    }
}

/// Returns its window slots when the caller is done with them — on
/// reply, timeout, and every error path alike.
struct WindowToken {
    conn: Arc<ConnState>,
    slots: usize,
}

impl Drop for WindowToken {
    fn drop(&mut self) {
        self.conn.window.release(self.slots);
    }
}

/// A pipelined multiplexed transport to one serving client, or, behind
/// a [`crate::TcpPeerLink`], to one peer master.
pub struct MuxTransport {
    peer: SocketAddr,
    window: usize,
    conn: Mutex<Option<Arc<ConnState>>>,
}

impl MuxTransport {
    /// A transport dialing `peer` on first use with the
    /// [`DEFAULT_WINDOW`].
    pub fn new(peer: SocketAddr) -> Self {
        MuxTransport {
            peer,
            window: DEFAULT_WINDOW,
            conn: Mutex::new(None),
        }
    }

    /// Overrides the in-flight window (minimum 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// The peer address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Registration handshake: who is serving at the peer, and which
    /// domains do they cover? It runs over a throwaway connection of its
    /// own, so it cannot interleave with pipelined replies: `timeout`
    /// bounds the dial, the write and the read, a truncated reply or
    /// socket error is a lost connection, and a malformed one the peer
    /// speaking the protocol wrong.
    pub fn identify(&self, timeout: Duration) -> Result<ClientIdentity, TransportError> {
        let frame = encode_frame(&WireRequest::Identify).map_err(encode_error)?;
        let mut stream = TcpStream::connect_timeout(&self.peer, timeout)
            .map_err(|e| TransportError::Unreachable(format!("{}: {e}", self.peer)))?;
        let response = stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(WireError::Io)
            .and_then(|()| write_encoded(&mut stream, &frame))
            .and_then(|()| read_frame(&mut stream))
            .map_err(|e| match e {
                e if e.is_timeout() => TransportError::Timeout(timeout),
                WireError::Truncated | WireError::Io(_) => TransportError::Closed(e.to_string()),
                other => TransportError::Protocol(other.to_string()),
            })?;
        match response {
            WireResponse::Identity(id) => Ok(id),
            WireResponse::Error(e) => Err(TransportError::Protocol(e.detail)),
            other => Err(TransportError::Protocol(format!(
                "expected identity, got {other:?}"
            ))),
        }
    }

    /// The live connection generation, connecting a fresh one if there
    /// is none or the last one died.
    fn ensure_conn(&self, timeout: Duration) -> Result<Arc<ConnState>, TransportError> {
        let mut guard = self.conn.lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let stream = TcpStream::connect_timeout(&self.peer, CONNECT_TIMEOUT.min(timeout))
            .map_err(|e| TransportError::Unreachable(format!("{}: {e}", self.peer)))?;
        stream.set_nodelay(true).ok();
        let conn = Arc::new(ConnState::new(stream, self.window));
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Forwards `request` to the peer master at the other end with the
    /// given hop count, as one `Forward` frame answered by one
    /// `ForwardReply`. Forwards from many callers share the connection,
    /// each waiting at most `timeout` for its own reply. Use a transport
    /// either to forward or to schedule, never both.
    pub(crate) fn forward(
        &self,
        request: &ScheduleRequest,
        hops: u8,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        self.pipeline(&[request], Framing::Forward(hops), timeout)
            .pop()
            .expect("one result per request")
    }

    /// Pipelines the batch: each chunk of up to one window is
    /// registered, framed, written with a single socket write, and
    /// collected by `op_id`, so the batch costs one round trip per
    /// window rather than one per op. Each chunk has `timeout` from when
    /// it starts waiting for window slots.
    fn pipeline(
        &self,
        requests: &[&ScheduleRequest],
        framing: Framing,
        timeout: Duration,
    ) -> Vec<ReplyResult> {
        let mut results: Vec<Option<ReplyResult>> = requests.iter().map(|_| None).collect();
        let mut queue: Vec<usize> = (0..requests.len()).collect();
        // What every op left unanswered fails with: a timeout, unless
        // the connection was lost.
        let mut lost: Option<TransportError> = None;
        while !queue.is_empty() {
            let conn = match self.ensure_conn(timeout) {
                Ok(conn) => conn,
                Err(e) => {
                    lost = Some(e);
                    break;
                }
            };
            // Window admission: wait for a free in-flight slot, but
            // never past the chunk's deadline.
            let deadline = Instant::now() + timeout;
            let taken = conn.window.acquire_up_to(queue.len(), timeout);
            if taken == 0 {
                break;
            }
            let _token = WindowToken {
                conn: Arc::clone(&conn),
                slots: taken,
            };
            let chunk: Vec<usize> = queue.drain(..taken).collect();
            match conn.exchange(requests, framing, chunk, &mut results, deadline) {
                Ok(true) => {}
                // Unresponsive: the ops not yet sent time out unsent.
                Ok(false) => break,
                Err(e) => {
                    lost = Some(e);
                    break;
                }
            }
        }
        let fallback = lost.unwrap_or(TransportError::Timeout(timeout));
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(fallback.clone())))
            .collect()
    }
}

impl ClientTransport for MuxTransport {
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        self.call_batch(&[request], timeout)
            .pop()
            .expect("one result per request")
    }

    /// Pipelines the batch, a head group to a frame: one round trip per
    /// window rather than one per op. Each window has `timeout` from
    /// when it starts waiting for slots.
    fn call_batch(
        &self,
        requests: &[&ScheduleRequest],
        timeout: Duration,
    ) -> Vec<Result<ScheduleReply, TransportError>> {
        self.pipeline(requests, Framing::Schedule, timeout)
    }

    fn describe(&self) -> String {
        format!("mux+tcp://{} (window {})", self.peer, self.window)
    }
}

impl Drop for MuxTransport {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.lock().take() {
            conn.poison(TransportError::Closed, "transport dropped");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::ScheduledAction;
    use crate::protocol::ExecOutcome;
    use crate::wire::read_frame;
    use hetsec_graphs::Value;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::MiddlewareKind;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::thread::JoinHandle;

    /// A ConnState over a real loopback socket pair (no caller reads:
    /// these tests drive poison() and register() directly).
    fn loopback_conn() -> (Arc<ConnState>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (peer_half, _) = listener.accept().unwrap();
        let conn = Arc::new(ConnState::new(stream, 4));
        (conn, peer_half)
    }

    #[test]
    fn poison_between_admission_and_registration_fails_fast() {
        let (conn, _peer) = loopback_conn();
        // The caller has passed the pre-insert dead check (dead is still
        // false here) when poison() sets the flag and drains the table —
        // the exact interleaving that used to orphan the entry.
        assert!(!conn.dead.load(Ordering::SeqCst));
        conn.poison(TransportError::Closed, "peer reset during registration");
        let (tx, rx) = mpsc::channel::<Delivery>();
        let started = Instant::now();
        let err = conn.register(7, tx).unwrap_err();
        // Fails immediately — far inside any op timeout — instead of
        // leaving the caller to block out the deadline.
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(matches!(err, TransportError::Closed(_)));
        // Retryable: the dispatch loop may fail over to another client.
        assert!(err.to_exec_error().retryable);
        // The entry was withdrawn, not orphaned.
        assert!(conn.pending.lock().waiters.is_empty());
        drop(rx);
    }

    #[test]
    fn registration_before_poison_is_drained() {
        // The complementary interleaving: the insert lands first, then
        // poison() drains it — the caller gets the drained error.
        let (conn, _peer) = loopback_conn();
        let (tx, rx) = mpsc::channel::<Delivery>();
        conn.register(9, tx).unwrap();
        conn.poison(TransportError::Closed, "peer reset");
        match rx.try_recv() {
            Ok(Delivery::Reply(Err(TransportError::Closed(reason)))) => {
                assert!(reason.contains("op 9"), "unexpected reason: {reason}");
            }
            other => panic!("expected drained Closed error, got {other:?}"),
        }
        assert!(conn.pending.lock().waiters.is_empty());
    }

    #[test]
    fn duplicate_op_id_is_refused_not_overwritten() {
        let (conn, _peer) = loopback_conn();
        let (first_tx, first_rx) = mpsc::channel::<Delivery>();
        conn.register(11, first_tx).unwrap();
        let (second_tx, _second_rx) = mpsc::channel::<Delivery>();
        let err = conn.register(11, second_tx).unwrap_err();
        assert!(matches!(err, TransportError::DuplicateOp(11)), "{err:?}");
        assert!(!err.to_exec_error().retryable);
        // The first caller still owns the entry: the drain reaches it.
        conn.poison(TransportError::Closed, "peer reset");
        assert!(matches!(
            first_rx.try_recv(),
            Ok(Delivery::Reply(Err(TransportError::Closed(_))))
        ));
    }

    #[test]
    fn a_multi_slot_release_reaches_every_waiter() {
        let window = Arc::new(Window::new(2));
        assert_eq!(window.acquire_up_to(5, Duration::from_millis(10)), 2);
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let window = Arc::clone(&window);
                std::thread::spawn(move || window.acquire_up_to(1, Duration::from_secs(5)))
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let released = Instant::now();
        // One release of two slots wakes one waiter, which passes the
        // wake-up on to the other.
        window.release(2);
        for waiter in waiters {
            assert_eq!(waiter.join().unwrap(), 1);
        }
        assert!(released.elapsed() < Duration::from_secs(2));
    }

    fn request(op_id: u64) -> ScheduleRequest {
        ScheduleRequest {
            op_id,
            action: ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            presented: Presented::default(),
            args: vec![Value::Int(op_id as i64)],
        }
    }

    /// A scripted serving peer on loopback: `serve` drives the accepted
    /// socket, and returning from it resets the connection.
    fn fake_peer(
        window: usize,
        serve: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (MuxTransport, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = MuxTransport::new(listener.local_addr().unwrap()).with_window(window);
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            serve(stream);
        });
        (transport, peer)
    }

    fn read_op(stream: &mut TcpStream) -> u64 {
        match read_frame::<WireRequest, _>(stream).unwrap() {
            WireRequest::Schedule(request) => request.op_id,
            other => panic!("unexpected frame {other:?}"),
        }
    }

    /// Reads one frame carrying ops sharing a head: their op ids.
    fn read_batch(stream: &mut TcpStream) -> Vec<u64> {
        match read_frame::<WireRequest, _>(stream).unwrap() {
            WireRequest::ScheduleBatch(batch) => batch.ops.iter().map(|op| op.op_id).collect(),
            other => panic!("unexpected frame {other:?}"),
        }
    }

    /// Answers `op_id` with `Ok(op_id)`.
    fn reply(stream: &mut TcpStream, op_id: u64) {
        let frame = encode_frame(&WireResponse::Reply(ScheduleReply {
            op_id,
            client: "peer".to_string(),
            outcome: ExecOutcome::Ok(Value::Int(op_id as i64)),
            replayed: false,
        }))
        .unwrap();
        write_encoded(stream, &frame).unwrap();
    }

    fn call_batch(transport: &MuxTransport, ids: &[u64]) -> Vec<ReplyResult> {
        let requests: Vec<ScheduleRequest> = ids.iter().map(|&id| request(id)).collect();
        let refs: Vec<&ScheduleRequest> = requests.iter().collect();
        transport.call_batch(&refs, Duration::from_secs(5))
    }

    fn pending_ops(transport: &MuxTransport) -> usize {
        transport
            .conn
            .lock()
            .as_ref()
            .map_or(0, |c| c.pending.lock().waiters.len())
    }

    #[test]
    fn batch_replies_in_reverse_order_land_on_their_requests() {
        let (transport, peer) = fake_peer(8, |mut stream| {
            let ids = read_batch(&mut stream);
            assert_eq!(ids.len(), 5);
            for &id in ids.iter().rev() {
                reply(&mut stream, id);
            }
        });
        let ids = [40, 41, 42, 43, 44];
        let results = call_batch(&transport, &ids);
        peer.join().unwrap();
        for (id, result) in ids.iter().zip(results) {
            let reply = result.unwrap();
            assert_eq!(reply.op_id, *id);
            assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(*id as i64)));
        }
    }

    #[test]
    fn batch_wider_than_the_window_is_split_and_fully_answered() {
        let window = 4;
        let (transport, peer) = fake_peer(window, move |mut stream| {
            // Never more than one window outstanding: read a window's
            // batch frame, then answer it.
            for _ in 0..3 {
                let ids = read_batch(&mut stream);
                assert_eq!(ids.len(), window);
                for id in ids {
                    reply(&mut stream, id);
                }
            }
        });
        let ids: Vec<u64> = (100..100 + 3 * window as u64).collect();
        let results = call_batch(&transport, &ids);
        peer.join().unwrap();
        let answered: Vec<u64> = results.into_iter().map(|r| r.unwrap().op_id).collect();
        assert_eq!(answered, ids);
        assert_eq!(pending_ops(&transport), 0);
    }

    #[test]
    fn each_window_of_a_batch_gets_its_own_timeout() {
        let (transport, peer) = fake_peer(2, |mut stream| {
            // Slow but alive: each window is answered after 150 ms, so
            // the batch takes longer than one timeout in total.
            for _ in 0..2 {
                let ids = read_batch(&mut stream);
                assert_eq!(ids.len(), 2);
                std::thread::sleep(Duration::from_millis(150));
                for id in ids {
                    reply(&mut stream, id);
                }
            }
        });
        let requests: Vec<ScheduleRequest> = (1..=4).map(request).collect();
        let refs: Vec<&ScheduleRequest> = requests.iter().collect();
        let results = transport.call_batch(&refs, Duration::from_millis(250));
        peer.join().unwrap();
        for (id, result) in (1..=4).zip(results) {
            assert_eq!(result.unwrap().op_id, id);
        }
    }

    #[test]
    fn peer_reset_mid_batch_fails_the_rest_as_retryable_closed() {
        let (transport, peer) = fake_peer(8, |mut stream| {
            let ids = read_batch(&mut stream);
            assert_eq!(ids.len(), 6);
            reply(&mut stream, ids[0]);
            reply(&mut stream, ids[1]);
            let _ = stream.shutdown(Shutdown::Both);
        });
        let started = Instant::now();
        let results = call_batch(&transport, &[1, 2, 3, 4, 5, 6]);
        peer.join().unwrap();
        // Fails fast, not at the deadline.
        assert!(started.elapsed() < Duration::from_secs(4));
        assert_eq!(results.len(), 6);
        for (i, result) in results.into_iter().enumerate() {
            match (i, result) {
                (0 | 1, Ok(reply)) => assert_eq!(reply.op_id, i as u64 + 1),
                (2.., Err(e @ TransportError::Closed(_))) => assert!(e.to_exec_error().retryable),
                (i, other) => panic!("op {i}: unexpected {other:?}"),
            }
        }
        assert_eq!(pending_ops(&transport), 0);
    }

    #[test]
    fn duplicate_op_id_in_a_batch_is_refused_for_that_op_only() {
        let (transport, peer) = fake_peer(8, |mut stream| {
            // Only the two distinct ops reach the wire.
            let ids = read_batch(&mut stream);
            assert_eq!(ids, [7, 8]);
            for id in ids {
                reply(&mut stream, id);
            }
        });
        let results = call_batch(&transport, &[7, 7, 8]);
        peer.join().unwrap();
        assert_eq!(results[0].as_ref().unwrap().op_id, 7);
        assert!(
            matches!(results[1], Err(TransportError::DuplicateOp(7))),
            "{:?}",
            results[1]
        );
        assert_eq!(results[2].as_ref().unwrap().op_id, 8);
        assert_eq!(pending_ops(&transport), 0);
    }

    #[test]
    fn a_batch_past_the_frame_cap_goes_out_a_frame_per_op() {
        let (transport, peer) = fake_peer(8, |mut stream| {
            for _ in 0..3 {
                let id = read_op(&mut stream);
                reply(&mut stream, id);
            }
        });
        // Each op fits a frame; the three together do not.
        let big = Value::Str("x".repeat(crate::wire::MAX_FRAME_LEN / 2));
        let requests: Vec<ScheduleRequest> = (1..=3)
            .map(|id| ScheduleRequest {
                args: vec![big.clone()],
                ..request(id)
            })
            .collect();
        let refs: Vec<&ScheduleRequest> = requests.iter().collect();
        let results = transport.call_batch(&refs, Duration::from_secs(5));
        peer.join().unwrap();
        for (id, result) in (1..=3).zip(results) {
            assert_eq!(result.unwrap().op_id, id);
        }
        assert_eq!(pending_ops(&transport), 0);
    }

    #[test]
    fn a_deadline_mid_frame_leaves_the_framing_intact() {
        let (transport, peer) = fake_peer(8, |mut stream| {
            let first = read_op(&mut stream);
            let frame = encode_frame(&WireResponse::Reply(ScheduleReply {
                op_id: first,
                client: "peer".to_string(),
                outcome: ExecOutcome::Ok(Value::Int(first as i64)),
                replayed: false,
            }))
            .unwrap();
            // Half the reply, then the rest after the caller gave up.
            let (head, tail) = frame.split_at(frame.len() / 2);
            write_encoded(&mut stream, head).unwrap();
            std::thread::sleep(Duration::from_millis(300));
            write_encoded(&mut stream, tail).unwrap();
            let second = read_op(&mut stream);
            reply(&mut stream, second);
        });
        let err = transport
            .call(&request(1), Duration::from_millis(100))
            .unwrap_err();
        assert!(matches!(err, TransportError::Timeout(_)), "{err:?}");
        // The late reply is read past and dropped; the next call gets
        // its own reply off the same connection.
        let reply = transport.call(&request(2), Duration::from_secs(5)).unwrap();
        peer.join().unwrap();
        assert_eq!(reply.op_id, 2);
        assert_eq!(reply.outcome, ExecOutcome::Ok(Value::Int(2)));
        assert_eq!(pending_ops(&transport), 0);
    }

    #[test]
    fn a_reply_of_the_other_framing_poisons_the_connection_as_protocol() {
        // A forward answered with a client's `Reply` frame.
        let (link, peer) = fake_peer(8, |mut stream| {
            match read_frame::<WireRequest, _>(&mut stream).unwrap() {
                WireRequest::Forward { request, hops: 2 } => reply(&mut stream, request.op_id),
                other => panic!("unexpected frame {other:?}"),
            }
        });
        let err = link.forward(&request(5), 2, Duration::from_secs(5)).unwrap_err();
        peer.join().unwrap();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
        // A schedule answered with a peer master's `ForwardReply` frame.
        let (transport, peer) = fake_peer(8, |mut stream| {
            let op_id = read_op(&mut stream);
            let frame = encode_frame(&WireResponse::ForwardReply(ScheduleReply {
                op_id,
                client: "peer".to_string(),
                outcome: ExecOutcome::Ok(Value::Int(op_id as i64)),
                replayed: false,
            }))
            .unwrap();
            write_encoded(&mut stream, &frame).unwrap();
        });
        let err = transport.call(&request(6), Duration::from_secs(5)).unwrap_err();
        peer.join().unwrap();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
    }

    /// Threads of this process whose name starts with `prefix`.
    fn threads_named(prefix: &str) -> usize {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return 0;
        };
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|name| name.starts_with(prefix))
            .count()
    }

    #[test]
    fn callers_read_each_others_replies_with_no_reader_thread() {
        let readers = Arc::new(AtomicUsize::new(usize::MAX));
        let seen = Arc::clone(&readers);
        let (second_sent_tx, second_sent_rx) = mpsc::channel::<()>();
        let (transport, peer) = fake_peer(8, move |mut stream| {
            let first = read_op(&mut stream);
            second_sent_tx.send(()).unwrap();
            let second = read_op(&mut stream);
            seen.store(threads_named("webcom-mux"), Ordering::SeqCst);
            // The second caller is answered first.
            reply(&mut stream, second);
            reply(&mut stream, first);
        });
        let transport = &transport;
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(move || transport.call(&request(1), Duration::from_secs(5)));
            second_sent_rx.recv().unwrap();
            let second = s.spawn(move || transport.call(&request(2), Duration::from_secs(5)));
            (first.join().unwrap(), second.join().unwrap())
        });
        peer.join().unwrap();
        assert_eq!(first.unwrap().outcome, ExecOutcome::Ok(Value::Int(1)));
        assert_eq!(second.unwrap().outcome, ExecOutcome::Ok(Value::Int(2)));
        assert_eq!(readers.load(Ordering::SeqCst), 0, "a mux reader thread is running");
        assert_eq!(pending_ops(transport), 0);
    }

    #[test]
    fn a_peer_closing_an_idle_connection_costs_one_fast_retryable_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let transport = MuxTransport::new(listener.local_addr().unwrap());
        let (closed_tx, closed_rx) = mpsc::channel::<()>();
        let peer = std::thread::spawn(move || {
            // The first connection answers once, then the peer closes it.
            let (mut stream, _) = listener.accept().unwrap();
            let id = read_op(&mut stream);
            reply(&mut stream, id);
            drop(stream);
            closed_tx.send(()).unwrap();
            // The second answers until the caller hangs up.
            let (mut stream, _) = listener.accept().unwrap();
            while let Ok(WireRequest::Schedule(request)) = read_frame(&mut stream) {
                reply(&mut stream, request.op_id);
            }
        });
        let timeout = Duration::from_secs(5);
        assert_eq!(transport.call(&request(1), timeout).unwrap().op_id, 1);
        closed_rx.recv().unwrap();
        let started = Instant::now();
        let mut failures = 0;
        for id in 2..=3 {
            match transport.call(&request(id), timeout) {
                Ok(reply) => assert_eq!(reply.op_id, id),
                Err(e @ TransportError::Closed(_)) => {
                    assert!(e.to_exec_error().retryable);
                    assert!(started.elapsed() < timeout / 5, "failed after {:?}", started.elapsed());
                    failures += 1;
                }
                Err(e) => panic!("op {id}: unexpected {e:?}"),
            }
        }
        assert!(failures <= 1, "{failures} calls failed on the closed connection");
        drop(transport);
        peer.join().unwrap();
    }
}
