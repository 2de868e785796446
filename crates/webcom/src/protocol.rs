//! Messages between the WebCom master and its clients (Figure 3).
//!
//! Every type here is plain serializable data: a [`ScheduleRequest`]
//! carries no channel handles, so the same message crosses an
//! in-process channel fabric or a TCP connection unchanged. Reply
//! correlation is the transport's job — replies carry the request's
//! `op_id` and the transport matches them up (see
//! [`crate::transport`]). The message shapes mirror the paper's flow:
//! the master sends a component-execution request carrying its key and
//! supporting credentials; the client independently verifies the
//! master's authority and its own stack before executing and replying.

use crate::authz::ScheduledAction;
use hetsec_graphs::Value;
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::stamp::VerdictStamp;
use hetsec_rbac::{Domain, User};
use serde::{Deserialize, Serialize};

/// Why an execution failed, in a form the master's retry loop can
/// classify without string matching.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecErrorKind {
    /// The fabric itself failed: connection refused/reset, send on a
    /// closed channel, malformed frame. Usually worth retrying on
    /// another client.
    Transport,
    /// An authorisation layer refused. Never retryable: policy does not
    /// change because we ask again.
    Authorization,
    /// The component's own business logic failed.
    Component,
    /// A deadline elapsed before the client replied.
    Timeout,
    /// The peer violated the wire protocol (e.g. a reply for the wrong
    /// operation).
    Protocol,
}

impl std::fmt::Display for ExecErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExecErrorKind::Transport => "transport",
            ExecErrorKind::Authorization => "authorization",
            ExecErrorKind::Component => "component",
            ExecErrorKind::Timeout => "timeout",
            ExecErrorKind::Protocol => "protocol",
        };
        write!(f, "{s}")
    }
}

/// A structured execution failure: what broke, whether trying again can
/// possibly help, and a human-readable detail.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExecError {
    /// The failure class.
    pub kind: ExecErrorKind,
    /// Whether the master's retry loop may usefully re-attempt the
    /// operation (same or different client).
    pub retryable: bool,
    /// Human-readable detail.
    pub detail: String,
}

impl ExecError {
    /// A deterministic component failure (not retryable: the component
    /// will fail the same way again).
    pub fn component(detail: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Component,
            retryable: false,
            detail: detail.into(),
        }
    }

    /// A transient component failure (e.g. a briefly unavailable
    /// backend) that is worth retrying.
    pub fn component_transient(detail: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Component,
            retryable: true,
            detail: detail.into(),
        }
    }

    /// A fabric failure (connection lost, channel closed). Retryable —
    /// typically on another client.
    pub fn transport(detail: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Transport,
            retryable: true,
            detail: detail.into(),
        }
    }

    /// A deadline expiry. Retryable on another client.
    pub fn timeout(detail: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Timeout,
            retryable: true,
            detail: detail.into(),
        }
    }

    /// A wire-protocol violation. Not retryable against the same peer.
    pub fn protocol(detail: impl Into<String>) -> Self {
        ExecError {
            kind: ExecErrorKind::Protocol,
            retryable: false,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} error: {}", self.kind, self.detail)
    }
}

/// Why an execution did not produce a value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExecOutcome {
    /// Execution succeeded.
    Ok(Value),
    /// An authorisation layer refused. Never retried.
    Denied(String),
    /// The execution failed; the [`ExecError`] says how and whether a
    /// retry can help.
    Failed(ExecError),
}

impl ExecOutcome {
    /// True for [`ExecOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, ExecOutcome::Ok(_))
    }

    /// A failed outcome with a deterministic component error.
    pub fn failed(detail: impl Into<String>) -> Self {
        ExecOutcome::Failed(ExecError::component(detail))
    }
}

/// A request from the master to a client. Plain data — the transport
/// layer correlates the eventual [`ScheduleReply`] by `op_id`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRequest {
    /// Correlation id; echoed in the reply.
    pub op_id: u64,
    /// What to execute and under which (domain, role).
    pub action: ScheduledAction,
    /// The user identity to execute under.
    pub user: User,
    /// The user's key (trust-management identity).
    pub principal: String,
    /// The master's key: clients verify the master is authorised to
    /// schedule to them (mutual mediation, Figure 3).
    pub master_key: String,
    /// Credentials supporting the request (e.g. delegation chains).
    pub credentials: Vec<Assertion>,
    /// Verdict stamps: the home master's signed attestations of the
    /// signature verdicts it reached for `credentials`, letting the
    /// receiving node admit them into its verify cache after one
    /// cached-context stamp check instead of a full RSA verify per
    /// credential. Defaults to empty on the wire, so requests from
    /// masters predating stamps still parse.
    #[serde(default)]
    pub stamps: Vec<VerdictStamp>,
    /// Operand values.
    pub args: Vec<Value>,
}

impl ScheduleRequest {
    /// True when `self` and `other` differ only in `op_id` and `args`,
    /// so both can ride one [`ScheduleBatch`] and share one mediation.
    pub fn shares_head(&self, other: &ScheduleRequest) -> bool {
        self.action == other.action
            && self.user == other.user
            && self.principal == other.principal
            && self.master_key == other.master_key
            && self.credentials == other.credentials
            && self.stamps == other.stamps
    }
}

/// Splits `indices` into groups of requests that share a head, each
/// group in order and the groups in order of their first request.
pub(crate) fn head_groups(requests: &[&ScheduleRequest], indices: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &i in indices {
        match groups
            .iter_mut()
            .find(|g| requests[g[0]].shares_head(requests[i]))
        {
            Some(group) => group.push(i),
            None => groups.push(vec![i]),
        }
    }
    groups
}

/// What one op of a [`ScheduleBatch`] carries of its own.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchOp {
    /// Correlation id; echoed in the op's reply.
    pub op_id: u64,
    /// Operand values.
    pub args: Vec<Value>,
}

/// Operations that share everything but their op id and operands — a
/// client's share of a condensed-graph wave — sent as one frame. The
/// shared *head* (the [`ScheduleRequest`] fields other than `op_id` and
/// `args`) crosses the wire once, and the client mediates it once;
/// each op is still answered with its own [`ScheduleReply`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleBatch {
    /// What to execute and under which (domain, role).
    pub action: ScheduledAction,
    /// The user identity to execute under.
    pub user: User,
    /// The user's key (trust-management identity).
    pub principal: String,
    /// The master's key.
    pub master_key: String,
    /// Credentials supporting every op of the batch.
    pub credentials: Vec<Assertion>,
    /// Verdict stamps over `credentials`.
    pub stamps: Vec<VerdictStamp>,
    /// The ops, in the order the master sent them.
    pub ops: Vec<BatchOp>,
}

impl ScheduleBatch {
    /// The batch of `requests[i]` for each `i` in `group`, under the
    /// head of the first; every one must share it.
    pub(crate) fn of_group(requests: &[&ScheduleRequest], group: &[usize]) -> Self {
        let head = requests[group[0]];
        ScheduleBatch {
            action: head.action.clone(),
            user: head.user.clone(),
            principal: head.principal.clone(),
            master_key: head.master_key.clone(),
            credentials: head.credentials.clone(),
            stamps: head.stamps.clone(),
            ops: group
                .iter()
                .map(|&i| BatchOp {
                    op_id: requests[i].op_id,
                    args: requests[i].args.clone(),
                })
                .collect(),
        }
    }
}

impl From<ScheduleRequest> for ScheduleBatch {
    /// A batch of one.
    fn from(request: ScheduleRequest) -> Self {
        ScheduleBatch {
            action: request.action,
            user: request.user,
            principal: request.principal,
            master_key: request.master_key,
            credentials: request.credentials,
            stamps: request.stamps,
            ops: vec![BatchOp {
                op_id: request.op_id,
                args: request.args,
            }],
        }
    }
}

/// A client's reply.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReply {
    /// Correlation id (copied from the request).
    pub op_id: u64,
    /// Which client executed (or refused).
    pub client: String,
    /// The outcome.
    pub outcome: ExecOutcome,
    /// True when the client served this reply from its executed-op memo
    /// instead of executing again — i.e. the master re-asked about an
    /// operation the client had already run (typically after a
    /// timed-out first call). Defaults to `false` on the wire so
    /// replies from older clients still parse.
    #[serde(default)]
    pub replayed: bool,
}

/// What a serving client tells a connecting master about itself — the
/// network analogue of registering a [`crate::client::ClientHandle`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClientIdentity {
    /// The client's name (diagnostics).
    pub name: String,
    /// The client's public key text (the master mediates scheduling
    /// against this identity).
    pub key_text: String,
    /// Domains this client serves.
    pub domains: Vec<Domain>,
}

/// Maximum number of peer-to-peer forwards an op may take before a
/// master rejects it as mis-routed. With consistent rings every op
/// reaches its home shard in one hop; anything deeper means the peers
/// disagree about ring layout and the op would loop forever.
pub const MAX_FORWARD_HOPS: u8 = 3;

/// One frame from master to client.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireRequest {
    /// Ask the client who it is (registration handshake).
    Identify,
    /// Schedule an operation (boxed: requests dwarf the handshake
    /// variant).
    Schedule(Box<ScheduleRequest>),
    /// Master-to-master: schedule an operation on behalf of a peer
    /// that received it but does not own the principal's shard. `hops`
    /// counts forwards already taken; a receiver at
    /// [`MAX_FORWARD_HOPS`] rejects instead of forwarding again, which
    /// turns a ring-configuration loop into an error rather than a
    /// livelock.
    Forward {
        /// The operation being forwarded (unchanged from the original).
        request: Box<ScheduleRequest>,
        /// Forwards taken so far, including the one carrying this frame.
        hops: u8,
    },
    /// Schedule several operations sharing one head, answered with a
    /// [`WireResponse::ReplyBatch`] or with one [`WireResponse::Reply`]
    /// per op, in any mix. A master sends a lone op as
    /// [`WireRequest::Schedule`], never as a batch of one.
    ScheduleBatch(Box<ScheduleBatch>),
}

/// One frame from client to master.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WireResponse {
    /// Answer to [`WireRequest::Identify`].
    Identity(ClientIdentity),
    /// Answer to [`WireRequest::Schedule`].
    Reply(ScheduleReply),
    /// Answer to [`WireRequest::Forward`]: the owning shard's reply,
    /// relayed verbatim back toward the originating master.
    ForwardReply(ScheduleReply),
    /// A typed protocol refusal: the endpoint understood the frame but
    /// does not serve it — e.g. a client `Identify` dialled at a
    /// master-to-master peer port. Carrying a structured [`ExecError`]
    /// instead of a fabricated reply lets the misdialling side fail
    /// fast with an accurate diagnostic.
    Error(ExecError),
    /// Answers to ops of [`WireRequest::ScheduleBatch`] frames, each
    /// correlated by its own `op_id`.
    ReplyBatch(Vec<ScheduleReply>),
}

/// Executes middleware components on a client. Implementations wrap the
/// environment's actual middleware simulators, which is why the
/// executing user identity travels with the call (native middleware
/// re-mediates at invocation time, exactly as the paper's L1 layer
/// does).
pub trait ComponentExecutor: Send + Sync {
    /// Invokes `component`'s operation on `args` as `user`.
    fn invoke(
        &self,
        user: &User,
        component: &hetsec_middleware::component::ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError>;
}

/// A component executor that interprets the component's *operation*
/// name as one of the built-in arithmetic primitives — the synthetic
/// business logic used by examples, tests and benches.
#[derive(Default)]
pub struct ArithComponentExecutor;

impl ComponentExecutor for ArithComponentExecutor {
    fn invoke(
        &self,
        _user: &User,
        component: &hetsec_middleware::component::ComponentRef,
        args: &[Value],
    ) -> Result<Value, ExecError> {
        use hetsec_graphs::{ArithExecutor, OpExecutor};
        ArithExecutor
            .execute(&component.operation, args)
            .map_err(|e| ExecError::component(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::MiddlewareKind;

    #[test]
    fn outcome_predicate() {
        assert!(ExecOutcome::Ok(Value::Unit).is_ok());
        assert!(!ExecOutcome::Denied("x".into()).is_ok());
        assert!(!ExecOutcome::failed("x").is_ok());
    }

    #[test]
    fn error_constructors_classify_retryability() {
        assert!(!ExecError::component("deterministic").retryable);
        assert!(ExecError::component_transient("flaky").retryable);
        assert!(ExecError::transport("conn reset").retryable);
        assert!(ExecError::timeout("deadline").retryable);
        assert!(!ExecError::protocol("bad frame").retryable);
        assert_eq!(ExecError::timeout("d").kind, ExecErrorKind::Timeout);
    }

    #[test]
    fn arith_component_executor_runs_operations() {
        let exec = ArithComponentExecutor;
        let u: User = "worker".into();
        let c = ComponentRef::new(MiddlewareKind::Ejb, "d", "Calc", "add");
        assert_eq!(
            exec.invoke(&u, &c, &[Value::Int(2), Value::Int(3)]),
            Ok(Value::Int(5))
        );
        let bad = ComponentRef::new(MiddlewareKind::Ejb, "d", "Calc", "no-such");
        let err = exec.invoke(&u, &bad, &[]).unwrap_err();
        assert_eq!(err.kind, ExecErrorKind::Component);
        assert!(!err.retryable);
    }

    #[test]
    fn messages_roundtrip_through_json() {
        let req = ScheduleRequest {
            op_id: 42,
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
        let text = serde_json::to_string(&WireRequest::Schedule(Box::new(req.clone()))).unwrap();
        let back: WireRequest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, WireRequest::Schedule(Box::new(req)));

        let reply = WireResponse::Reply(ScheduleReply {
            op_id: 42,
            client: "c1".to_string(),
            outcome: ExecOutcome::Failed(ExecError::timeout("slow backend")),
            replayed: false,
        });
        let text = serde_json::to_string(&reply).unwrap();
        let back: WireResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn request_without_stamps_field_still_parses() {
        // Wire compatibility: masters predating verdict stamps omit
        // `stamps`; receivers must default it to empty.
        let req = ScheduleRequest {
            op_id: 9,
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
            args: vec![],
        };
        let text = serde_json::to_string(&req).unwrap();
        assert!(text.contains("\"stamps\":[]"));
        let old_wire = text.replace("\"stamps\":[],", "");
        let back: ScheduleRequest = serde_json::from_str(&old_wire).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn error_frame_roundtrips() {
        let frame = WireResponse::Error(ExecError::protocol("peer port, not a client"));
        let text = serde_json::to_string(&frame).unwrap();
        let back: WireResponse = serde_json::from_str(&text).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn reply_without_replayed_field_still_parses() {
        // Wire compatibility: clients predating the executed-op memo
        // omit `replayed`; the master must default it to false.
        let text = r#"{"op_id":7,"client":"c0","outcome":{"Ok":"Unit"}}"#;
        let reply: ScheduleReply = serde_json::from_str(text).unwrap();
        assert!(!reply.replayed);
        assert_eq!(reply.op_id, 7);
    }
}
