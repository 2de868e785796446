//! Transport abstraction for the master/client scheduling fabric.
//!
//! The master schedules through a [`ClientTransport`]: one synchronous,
//! deadline-bounded request/reply exchange per call (or per batch of
//! independent requests, [`ClientTransport::call_batch`]), with replies
//! correlated to requests by `op_id`. Two real implementations exist —
//! [`ChannelTransport`] over the in-process channel fabric (the fast
//! path, and what tests use) and [`crate::MuxTransport`], which
//! pipelines many requests down one TCP connection speaking the
//! length-prefixed wire protocol (see [`crate::wire`]) — plus
//! [`FaultyTransport`], a wrapper that injects drops, delays and
//! crashes at the transport level for fault-tolerance tests and benches.
//! The master-to-master peer link ([`crate::TcpPeerLink`]) rides the
//! same mux connection code, with `Forward` frames.

use crate::client::ClientMessage;
use crate::protocol::{head_groups, ExecError, ScheduleBatch, ScheduleReply, ScheduleRequest};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Why a transport call failed.
#[derive(Clone, Debug)]
pub enum TransportError {
    /// No reply arrived before the deadline.
    Timeout(Duration),
    /// The peer could not be reached (connect refused, channel closed
    /// before the request was accepted).
    Unreachable(String),
    /// The connection died after the request was sent — the operation's
    /// fate is unknown and it must be rescheduled.
    Closed(String),
    /// The peer spoke the protocol wrong (bad frame, reply for a
    /// different operation).
    Protocol(String),
    /// Another call with this op id is already awaiting its reply on the
    /// connection; the replies could not be told apart, so this call is
    /// refused before it is sent.
    DuplicateOp(u64),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Timeout(d) => write!(f, "no reply within {d:?}"),
            TransportError::Unreachable(m) => write!(f, "peer unreachable: {m}"),
            TransportError::Closed(m) => write!(f, "connection lost: {m}"),
            TransportError::Protocol(m) => write!(f, "protocol violation: {m}"),
            TransportError::DuplicateOp(id) => write!(f, "op {id} is already in flight"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// True for timeouts (counted separately by the master).
    pub fn is_timeout(&self) -> bool {
        matches!(self, TransportError::Timeout(_))
    }

    /// The structured execution error this transport failure maps to.
    pub fn to_exec_error(&self) -> ExecError {
        match self {
            TransportError::Timeout(_) => ExecError::timeout(self.to_string()),
            TransportError::Unreachable(_) | TransportError::Closed(_) => {
                ExecError::transport(self.to_string())
            }
            TransportError::Protocol(_) | TransportError::DuplicateOp(_) => {
                ExecError::protocol(self.to_string())
            }
        }
    }
}

/// The master's view of one client connection: a synchronous RPC with a
/// deadline. Implementations must be safe to call from multiple
/// scheduler threads.
pub trait ClientTransport: Send + Sync {
    /// Sends `request` and waits up to `timeout` for the reply whose
    /// `op_id` matches the request's.
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError>;

    /// Sends a batch of independent requests and waits for their
    /// replies, positionally aligned with `requests`. Each request waits
    /// at most `timeout` for its reply. Once one times out the peer is
    /// taken as unresponsive: the requests not yet sent fail with a
    /// timeout without being sent, so a hung peer costs one `timeout`,
    /// not one per request. The default sends the requests one after
    /// another through [`call`](Self::call); a pipelined transport
    /// overrides it to put the batch on the wire at once.
    fn call_batch(
        &self,
        requests: &[&ScheduleRequest],
        timeout: Duration,
    ) -> Vec<Result<ScheduleReply, TransportError>> {
        let mut unresponsive = false;
        requests
            .iter()
            .map(|request| {
                if unresponsive {
                    return Err(TransportError::Timeout(timeout));
                }
                let reply = self.call(request, timeout);
                unresponsive = matches!(reply, Err(TransportError::Timeout(_)));
                reply
            })
            .collect()
    }

    /// Human-readable description (diagnostics).
    fn describe(&self) -> String {
        "transport".to_string()
    }
}

// ---- In-process channel transport ----

/// The in-process fabric: requests travel to the client thread over a
/// channel, a batch per message, each message carrying a fresh reply
/// sender (the envelope owns the sender — the serializable
/// [`ScheduleRequest`] itself does not). A single call is a batch of
/// one.
pub struct ChannelTransport {
    sender: Sender<ClientMessage>,
}

impl ChannelTransport {
    /// Wraps a client's request channel.
    pub fn new(sender: Sender<ClientMessage>) -> Self {
        ChannelTransport { sender }
    }
}

impl ClientTransport for ChannelTransport {
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        self.call_batch(&[request], timeout)
            .pop()
            .expect("one result per request")
    }

    /// Sends the batch as one message, its requests grouped by shared
    /// head, and takes the replies as the client sends them, waiting at
    /// most `timeout` for each. Once one times out the rest fail with a
    /// timeout too, without waiting.
    fn call_batch(
        &self,
        requests: &[&ScheduleRequest],
        timeout: Duration,
    ) -> Vec<Result<ScheduleReply, TransportError>> {
        let indices: Vec<usize> = (0..requests.len()).collect();
        let groups = head_groups(requests, &indices);
        let batches = groups
            .iter()
            .map(|group| ScheduleBatch::of_group(requests, group))
            .collect();
        let (reply_tx, reply_rx) = mpsc::channel();
        let mut results: Vec<Option<Result<ScheduleReply, TransportError>>> =
            requests.iter().map(|_| None).collect();
        let mut lost = self
            .sender
            .send(ClientMessage::Request(batches, reply_tx))
            .err()
            .map(|_| TransportError::Unreachable("client channel closed".to_string()));
        for i in groups.into_iter().flatten() {
            let op_id = requests[i].op_id;
            results[i] = Some(match &lost {
                Some(e) => Err(e.clone()),
                None => match reply_rx.recv_timeout(timeout) {
                    Ok(reply) if reply.op_id == op_id => Ok(reply),
                    Ok(reply) => Err(TransportError::Protocol(format!(
                        "reply for op {} while awaiting op {op_id}",
                        reply.op_id
                    ))),
                    Err(e) => {
                        let e = match e {
                            RecvTimeoutError::Timeout => TransportError::Timeout(timeout),
                            RecvTimeoutError::Disconnected => TransportError::Closed(
                                "client hung up mid-request".to_string(),
                            ),
                        };
                        lost = Some(e.clone());
                        Err(e)
                    }
                },
            });
        }
        results
            .into_iter()
            .map(|r| r.expect("every request is in one group"))
            .collect()
    }

    fn describe(&self) -> String {
        "in-process channel".to_string()
    }
}

// ---- Fault injection ----

/// A transport wrapper injecting faults at the transport level: dropped
/// calls, added latency, and permanent death. Deterministic — tests and
/// benches script the faults they want.
pub struct FaultyTransport {
    inner: Box<dyn ClientTransport>,
    /// Fail this many upcoming calls with `Closed` before passing calls
    /// through again.
    drop_next: AtomicUsize,
    /// Latency added to every call (simulates a slow link; pair with a
    /// short call timeout to force timeouts).
    delay: Mutex<Duration>,
    /// Once set, every call fails with `Unreachable` (a crashed client).
    killed: AtomicBool,
    /// Calls attempted against this transport (including faulted ones).
    calls: AtomicUsize,
}

impl FaultyTransport {
    /// Wraps a transport with no faults armed.
    pub fn new(inner: impl ClientTransport + 'static) -> Self {
        FaultyTransport {
            inner: Box::new(inner),
            drop_next: AtomicUsize::new(0),
            delay: Mutex::new(Duration::ZERO),
            killed: AtomicBool::new(false),
            calls: AtomicUsize::new(0),
        }
    }

    /// Drops (fails with `Closed`) the next `n` calls.
    pub fn drop_next(&self, n: usize) {
        self.drop_next.store(n, Ordering::SeqCst);
    }

    /// Adds `delay` of latency to every subsequent call.
    pub fn set_delay(&self, delay: Duration) {
        *self.delay.lock() = delay;
    }

    /// Kills the transport: every subsequent call is `Unreachable`.
    pub fn kill(&self) {
        self.killed.store(true, Ordering::SeqCst);
    }

    /// True once [`kill`](Self::kill) has been called.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Revives a killed transport (a partitioned client coming back):
    /// subsequent calls pass through again.
    pub fn revive(&self) {
        self.killed.store(false, Ordering::SeqCst);
    }

    /// How many calls have been attempted, faulted or not. Lets tests
    /// assert a breaker ejected a dead client after a bounded number of
    /// probes rather than paying one call per operation.
    pub fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }
}

impl ClientTransport for FaultyTransport {
    fn call(
        &self,
        request: &ScheduleRequest,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if self.killed.load(Ordering::SeqCst) {
            return Err(TransportError::Unreachable("injected crash".to_string()));
        }
        if self
            .drop_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(TransportError::Closed("injected drop".to_string()));
        }
        let delay = *self.delay.lock();
        if delay > Duration::ZERO {
            // A real slow link costs the caller at most its deadline:
            // sleep min(delay, timeout) and report the timeout at the
            // deadline rather than charging the full injected delay.
            if delay >= timeout {
                std::thread::sleep(timeout);
                return Err(TransportError::Timeout(timeout));
            }
            std::thread::sleep(delay);
            return self.inner.call(request, timeout - delay);
        }
        self.inner.call(request, timeout)
    }

    fn describe(&self) -> String {
        format!("faulty({})", self.inner.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Presented;
    use crate::protocol::ExecOutcome;
    use hetsec_graphs::Value;

    /// A transport answering every call successfully.
    struct EchoTransport;

    impl ClientTransport for EchoTransport {
        fn call(
            &self,
            request: &ScheduleRequest,
            _timeout: Duration,
        ) -> Result<ScheduleReply, TransportError> {
            Ok(ScheduleReply {
                op_id: request.op_id,
                client: "echo".to_string(),
                outcome: ExecOutcome::Ok(Value::Unit),
                replayed: false,
            })
        }
    }

    fn request(op_id: u64) -> ScheduleRequest {
        use hetsec_middleware::component::ComponentRef;
        use hetsec_middleware::naming::MiddlewareKind;
        ScheduleRequest {
            op_id,
            action: crate::authz::ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Kmaster".to_string(),
            presented: Presented::default(),
            args: vec![],
        }
    }

    #[test]
    fn faulty_transport_drops_then_recovers() {
        let t = FaultyTransport::new(EchoTransport);
        t.drop_next(2);
        assert!(matches!(
            t.call(&request(1), Duration::from_secs(1)),
            Err(TransportError::Closed(_))
        ));
        assert!(matches!(
            t.call(&request(2), Duration::from_secs(1)),
            Err(TransportError::Closed(_))
        ));
        assert!(t.call(&request(3), Duration::from_secs(1)).is_ok());
    }

    #[test]
    fn killed_transport_stays_dead() {
        let t = FaultyTransport::new(EchoTransport);
        assert!(t.call(&request(1), Duration::from_secs(1)).is_ok());
        t.kill();
        for op in 2..5 {
            assert!(matches!(
                t.call(&request(op), Duration::from_secs(1)),
                Err(TransportError::Unreachable(_))
            ));
        }
    }

    #[test]
    fn delay_beyond_deadline_times_out() {
        let t = FaultyTransport::new(EchoTransport);
        t.set_delay(Duration::from_millis(20));
        let err = t.call(&request(1), Duration::from_millis(5)).unwrap_err();
        assert!(err.is_timeout());
        // A deadline longer than the delay still succeeds.
        assert!(t.call(&request(2), Duration::from_millis(200)).is_ok());
    }

    #[test]
    fn injected_delay_is_charged_at_most_the_deadline() {
        // A huge injected delay must cost the caller only its timeout:
        // the old behaviour slept the full delay before reporting.
        let t = FaultyTransport::new(EchoTransport);
        t.set_delay(Duration::from_secs(30));
        let started = std::time::Instant::now();
        let err = t.call(&request(1), Duration::from_millis(20)).unwrap_err();
        assert!(err.is_timeout());
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "slept {:?}, should be ~the 20ms deadline",
            started.elapsed()
        );
    }

    #[test]
    fn revive_restores_a_killed_transport() {
        let t = FaultyTransport::new(EchoTransport);
        t.kill();
        assert!(t.call(&request(1), Duration::from_secs(1)).is_err());
        t.revive();
        assert!(!t.is_killed());
        assert!(t.call(&request(2), Duration::from_secs(1)).is_ok());
        assert_eq!(t.calls(), 2);
    }

    #[test]
    fn transport_errors_map_to_exec_errors() {
        use crate::protocol::ExecErrorKind;
        let timeout = TransportError::Timeout(Duration::from_secs(1)).to_exec_error();
        assert_eq!(timeout.kind, ExecErrorKind::Timeout);
        assert!(timeout.retryable);
        let lost = TransportError::Closed("x".into()).to_exec_error();
        assert_eq!(lost.kind, ExecErrorKind::Transport);
        assert!(lost.retryable);
        let proto = TransportError::Protocol("x".into()).to_exec_error();
        assert_eq!(proto.kind, ExecErrorKind::Protocol);
        assert!(!proto.retryable);
    }
}
