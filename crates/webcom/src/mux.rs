//! Pipelined multiplexed TCP transport.
//!
//! [`crate::TcpTransport`] is lockstep: one request goes out, the
//! caller blocks on the socket until that reply comes back, and every
//! other caller queues on the connection mutex. Per-op cost is then
//! `service time + RTT` no matter how many ops are ready — the
//! single-socket scaling ceiling the ROADMAP calls out.
//!
//! [`MuxTransport`] splits the connection instead: one writer side
//! (callers write frames under a short lock and return) and one
//! dedicated reader thread that correlates every incoming reply to its
//! waiting caller through a pending-reply table keyed by `op_id` — the
//! wire format has carried the correlation id since PR 2, so the frames
//! are unchanged and a mux client interoperates with any server. Many
//! ops ride one socket concurrently, bounded by an in-flight *window*
//! of tokens; the window composes with the master's per-client
//! `CallPermit` quota (`HealthConfig::max_in_flight`) — the permit
//! gates whether a dispatch may target the client at all, the window
//! gates how many of the admitted calls may be on the wire at once.
//!
//! Failure model: if the reader thread dies (peer reset, garbage
//! frame, protocol violation), it marks the connection generation dead
//! and fails every pending op with a retryable
//! [`TransportError::Closed`] so the master's dispatch loop can retry
//! or fail over; the next call connects a fresh generation. A reply
//! arriving after its caller timed out is dropped silently — its
//! pending entry is already gone.

use crate::protocol::{ClientIdentity, ScheduleReply, ScheduleRequest};
use crate::transport::{encode_error, ClientTransport, TcpTransport, TransportError};
use crate::wire::{encode_schedule, read_frame, write_encoded};
use crate::WireResponse;
use crossbeam::channel::{self, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Default in-flight window per connection.
pub const DEFAULT_WINDOW: usize = 32;

type ReplyResult = Result<ScheduleReply, TransportError>;

/// Counting semaphore for in-flight slots. (The vendored channel's
/// receiver is `!Sync`, so the token pool cannot be a channel shared
/// across caller threads.)
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

    /// Takes one slot, waiting at most `timeout` for one to free up.
    fn acquire(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *slots > 0 {
                *slots -= 1;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            slots = self
                .freed
                .wait_timeout(slots, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn release(&self) {
        *self.slots.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        self.freed.notify_one();
    }
}

/// One connection generation: writer half, pending-reply table, and
/// the in-flight window. The reader thread owns the read half; when it
/// exits it poisons the generation and drains the table.
struct ConnState {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, Sender<ReplyResult>>>,
    window: Window,
    dead: AtomicBool,
}

impl ConnState {
    /// Marks the generation dead, severs the socket (waking the reader
    /// if it is still alive), and fails every pending op with a
    /// retryable error.
    fn poison(&self, reason: &str) {
        if self.dead.swap(true, Ordering::SeqCst) {
            return; // already poisoned; pending already drained
        }
        let _ = self.writer.lock().shutdown(Shutdown::Both);
        let drained: Vec<(u64, Sender<ReplyResult>)> =
            self.pending.lock().drain().collect();
        for (op_id, tx) in drained {
            let _ = tx.send(Err(TransportError::Closed(format!(
                "mux connection lost with op {op_id} in flight: {reason}"
            ))));
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
    fn register(&self, op_id: u64, tx: Sender<ReplyResult>) -> Result<(), TransportError> {
        match self.pending.lock().entry(op_id) {
            Entry::Occupied(_) => return Err(TransportError::DuplicateOp(op_id)),
            Entry::Vacant(slot) => {
                slot.insert(tx);
            }
        }
        if self.dead.load(Ordering::SeqCst) {
            self.pending.lock().remove(&op_id);
            return Err(TransportError::Closed(format!(
                "mux connection died while registering op {op_id}"
            )));
        }
        Ok(())
    }
}

/// Returns its window slot when the caller is done with it — on reply,
/// timeout, and every error path alike.
struct WindowToken {
    conn: Arc<ConnState>,
}

impl Drop for WindowToken {
    fn drop(&mut self) {
        self.conn.window.release();
    }
}

/// A pipelined multiplexed transport to one serving client.
pub struct MuxTransport {
    peer: SocketAddr,
    connect_timeout: Duration,
    window: usize,
    conn: Mutex<Option<Arc<ConnState>>>,
}

impl MuxTransport {
    /// A transport dialing `peer` on first use with the
    /// [`DEFAULT_WINDOW`].
    pub fn new(peer: SocketAddr) -> Self {
        MuxTransport {
            peer,
            connect_timeout: Duration::from_secs(5),
            window: DEFAULT_WINDOW,
            conn: Mutex::new(None),
        }
    }

    /// Overrides the in-flight window (minimum 1).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Overrides the connect timeout.
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// The peer address.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Registration handshake, over a throwaway lockstep connection so
    /// it cannot interleave with pipelined replies.
    pub fn identify(&self, timeout: Duration) -> Result<ClientIdentity, TransportError> {
        TcpTransport::new(self.peer)
            .with_connect_timeout(self.connect_timeout)
            .identify(timeout)
    }

    /// The live connection generation, connecting a fresh one if there
    /// is none or the last one died.
    fn ensure_conn(&self) -> Result<Arc<ConnState>, TransportError> {
        let mut guard = self.conn.lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.dead.load(Ordering::SeqCst) {
                return Ok(Arc::clone(conn));
            }
        }
        let stream = TcpStream::connect_timeout(&self.peer, self.connect_timeout)
            .map_err(|e| TransportError::Unreachable(format!("{}: {e}", self.peer)))?;
        stream.set_nodelay(true).ok();
        let reader_half = stream
            .try_clone()
            .map_err(|e| TransportError::Closed(format!("clone mux socket: {e}")))?;
        let conn = Arc::new(ConnState {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            window: Window::new(self.window),
            dead: AtomicBool::new(false),
        });
        let reader_conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("webcom-mux-{}", self.peer))
            .spawn(move || reader_loop(reader_half, reader_conn))
            .map_err(|e| TransportError::Closed(format!("spawn mux reader: {e}")))?;
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }
}

/// Reads replies until the socket dies or the peer violates the
/// protocol, routing each to its pending caller by `op_id`.
fn reader_loop(mut stream: TcpStream, conn: Arc<ConnState>) {
    let reason = loop {
        match read_frame::<WireResponse, _>(&mut stream) {
            Ok(WireResponse::Reply(reply)) => {
                let waiter = conn.pending.lock().remove(&reply.op_id);
                if let Some(tx) = waiter {
                    let _ = tx.send(Ok(reply));
                }
                // No waiter: the caller timed out and withdrew; the
                // late reply is dropped on the floor by design.
            }
            Ok(other) => break format!("unexpected frame {other:?} on a mux connection"),
            Err(e) => break e.to_string(),
        }
    };
    conn.poison(&reason);
    let _ = stream.shutdown(Shutdown::Both);
}

impl ClientTransport for MuxTransport {
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        let started = Instant::now();
        // Encode up front: the writer lock then covers only the socket
        // write, and a frame that cannot be encoded never takes a slot.
        let frame = encode_schedule(request).map_err(encode_error)?;
        let conn = self.ensure_conn()?;
        // Window admission: wait for a free in-flight slot, but never
        // past the call deadline.
        let remaining = timeout
            .checked_sub(started.elapsed())
            .filter(|r| !r.is_zero())
            .ok_or(TransportError::Timeout(timeout))?;
        if !conn.window.acquire(remaining) {
            return Err(TransportError::Timeout(timeout));
        }
        let _token = WindowToken {
            conn: Arc::clone(&conn),
        };
        if conn.dead.load(Ordering::SeqCst) {
            return Err(TransportError::Closed(
                "mux connection died while waiting for a window slot".to_string(),
            ));
        }
        // Register interest before writing, so the reply cannot race
        // past an unregistered op_id. `register` re-checks `dead` after
        // the insert: a poison() between the check above and the insert
        // would otherwise orphan the entry and block us for the full
        // timeout.
        let (reply_tx, reply_rx) = channel::unbounded::<ReplyResult>();
        conn.register(request.op_id, reply_tx)?;
        {
            let mut writer = conn.writer.lock();
            if let Err(e) = write_encoded(&mut *writer, &frame) {
                drop(writer);
                conn.pending.lock().remove(&request.op_id);
                conn.poison(&format!("write failed: {e}"));
                return Err(TransportError::Closed(format!("mux write failed: {e}")));
            }
        }
        let remaining = timeout
            .checked_sub(started.elapsed())
            .filter(|r| !r.is_zero())
            .unwrap_or(Duration::from_millis(1));
        match reply_rx.recv_timeout(remaining) {
            Ok(Ok(reply)) => Ok(reply),
            Ok(Err(e)) => Err(e),
            Err(RecvTimeoutError::Timeout) => {
                // Withdraw: a late reply finds no waiter and is dropped.
                conn.pending.lock().remove(&request.op_id);
                Err(TransportError::Timeout(timeout))
            }
            Err(RecvTimeoutError::Disconnected) => {
                conn.pending.lock().remove(&request.op_id);
                Err(TransportError::Closed(
                    "mux connection dropped the pending table".to_string(),
                ))
            }
        }
    }

    fn describe(&self) -> String {
        format!("mux+tcp://{} (window {})", self.peer, self.window)
    }
}

impl Drop for MuxTransport {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.lock().take() {
            conn.poison("transport dropped");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A ConnState over a real loopback socket pair (no reader thread:
    /// these tests drive poison() and register() directly).
    fn loopback_conn() -> (Arc<ConnState>, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (peer_half, _) = listener.accept().unwrap();
        let conn = Arc::new(ConnState {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            window: Window::new(4),
            dead: AtomicBool::new(false),
        });
        (conn, peer_half)
    }

    #[test]
    fn poison_between_admission_and_registration_fails_fast() {
        let (conn, _peer) = loopback_conn();
        // The caller has passed the pre-insert dead check (dead is still
        // false here) when poison() sets the flag and drains the table —
        // the exact interleaving that used to orphan the entry.
        assert!(!conn.dead.load(Ordering::SeqCst));
        conn.poison("peer reset during registration");
        let (tx, rx) = channel::unbounded::<ReplyResult>();
        let started = Instant::now();
        let err = conn.register(7, tx).unwrap_err();
        // Fails immediately — far inside any op timeout — instead of
        // leaving the caller to block out the deadline.
        assert!(started.elapsed() < Duration::from_secs(1));
        assert!(matches!(err, TransportError::Closed(_)));
        // Retryable: the dispatch loop may fail over to another client.
        assert!(err.to_exec_error().retryable);
        // The entry was withdrawn, not orphaned.
        assert!(conn.pending.lock().is_empty());
        drop(rx);
    }

    #[test]
    fn registration_before_poison_is_drained() {
        // The complementary interleaving: the insert lands first, then
        // poison() drains it — the caller gets the drained error.
        let (conn, _peer) = loopback_conn();
        let (tx, rx) = channel::unbounded::<ReplyResult>();
        conn.register(9, tx).unwrap();
        conn.poison("peer reset");
        match rx.try_recv() {
            Ok(Err(TransportError::Closed(reason))) => {
                assert!(reason.contains("op 9"), "unexpected reason: {reason}");
            }
            other => panic!("expected drained Closed error, got {other:?}"),
        }
        assert!(conn.pending.lock().is_empty());
    }

    #[test]
    fn duplicate_op_id_is_refused_not_overwritten() {
        let (conn, _peer) = loopback_conn();
        let (first_tx, first_rx) = channel::unbounded::<ReplyResult>();
        conn.register(11, first_tx).unwrap();
        let (second_tx, _second_rx) = channel::unbounded::<ReplyResult>();
        let err = conn.register(11, second_tx).unwrap_err();
        assert!(matches!(err, TransportError::DuplicateOp(11)), "{err:?}");
        assert!(!err.to_exec_error().retryable);
        // The first caller still owns the entry: the drain reaches it.
        conn.poison("peer reset");
        assert!(matches!(first_rx.try_recv(), Ok(Err(TransportError::Closed(_)))));
    }
}
