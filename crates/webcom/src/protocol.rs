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
//!
//! What a request presents in support of itself — its credentials and
//! the verdict stamps over them — is one [`PresentedSet`], shared by
//! `Arc` among every request presenting it (see [`Presented`]). On a
//! mux connection a non-empty set crosses the socket once, in a
//! [`WireRequest::DefineSet`] frame, and later frames name it by its
//! [`SetId`] (see [`crate::wire`]).

use crate::authz::ScheduledAction;
use hetsec_crypto::sha256::{hex_digest, sha256};
use hetsec_graphs::Value;
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::stamp::VerdictStamp;
use hetsec_rbac::{Domain, User};
use serde::ser::SerializeStruct;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::sync::{Arc, OnceLock};

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

/// The content id of a [`PresentedSet`]: the SHA-256 of the set's
/// inline encoding (the JSON object of its `credentials` and `stamps`).
/// On the wire it is 64 lowercase hex digits.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetId(pub [u8; 32]);

impl std::fmt::Display for SetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&hex_digest(&self.0))
    }
}

impl std::fmt::Debug for SetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SetId({self})")
    }
}

impl Serialize for SetId {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&hex_digest(&self.0))
    }
}

impl<'de> Deserialize<'de> for SetId {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let text = String::deserialize(deserializer)?;
        if text.len() != 64 || !text.bytes().all(|c| matches!(c, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(serde::de::Error::custom(
                "a set id is 64 lowercase hex digits",
            ));
        }
        let mut id = [0u8; 32];
        for (i, byte) in id.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&text[2 * i..2 * i + 2], 16).expect("hex digits");
        }
        Ok(SetId(id))
    }
}

/// What a request presents in support of itself: the credentials it
/// carries (e.g. delegation chains) and the verdict stamps — the home
/// master's signed attestations of the signature verdicts it reached
/// for them. Immutable once made, and shared by `Arc`: a master builds
/// one set for all its requests, and a connection's reader one per
/// definition it receives.
#[derive(Debug, Default)]
pub struct PresentedSet {
    credentials: Vec<Assertion>,
    stamps: Vec<VerdictStamp>,
    /// The set's id, made when first needed, or `None` if the set
    /// cannot be encoded (nesting past the depth cap).
    id: OnceLock<Option<SetId>>,
    /// The set's `DefineSet` frame, made the first time it is sent.
    definition: OnceLock<Option<Vec<u8>>>,
}

impl PresentedSet {
    /// A set of `credentials` and the `stamps` over them.
    pub fn new(credentials: Vec<Assertion>, stamps: Vec<VerdictStamp>) -> Self {
        PresentedSet {
            credentials,
            stamps,
            id: OnceLock::new(),
            definition: OnceLock::new(),
        }
    }

    /// The credentials.
    pub fn credentials(&self) -> &[Assertion] {
        &self.credentials
    }

    /// The verdict stamps over the credentials.
    pub fn stamps(&self) -> &[VerdictStamp] {
        &self.stamps
    }

    /// The set's content id, computed once per set; `None` if the set
    /// cannot be encoded.
    pub fn id(&self) -> Option<SetId> {
        *self.id.get_or_init(|| {
            let mut inline = Vec::new();
            serde_json::to_writer(&mut inline, self).ok()?;
            Some(SetId(sha256(&inline)))
        })
    }

    /// The id and the `DefineSet` frame, each computed once.
    pub(crate) fn wire(&self) -> Option<(SetId, &[u8])> {
        let id = self.id()?;
        let definition = self
            .definition
            .get_or_init(|| crate::wire::encode_definition(id, self).ok());
        definition.as_deref().map(|frame| (id, frame))
    }
}

impl PartialEq for PresentedSet {
    fn eq(&self, other: &Self) -> bool {
        self.credentials == other.credentials && self.stamps == other.stamps
    }
}

impl Serialize for PresentedSet {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("PresentedSet", 2)?;
        st.serialize_field("credentials", &self.credentials)?;
        st.serialize_field("stamps", &self.stamps)?;
        st.end()
    }
}

/// The fields of a [`PresentedSet`] as they decode.
#[derive(Deserialize)]
struct SetFields {
    credentials: Vec<Assertion>,
    stamps: Vec<VerdictStamp>,
}

impl<'de> Deserialize<'de> for PresentedSet {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let fields = SetFields::deserialize(deserializer)?;
        Ok(PresentedSet::new(fields.credentials, fields.stamps))
    }
}

/// A request's presented set, as [`ScheduleRequest`] and
/// [`ScheduleBatch`] hold it. Cloning shares the set.
#[derive(Clone, Debug, Default)]
pub enum Presented {
    /// Nothing presented: always carried inline, as two empty fields.
    #[default]
    Nothing,
    /// A set, shared by `Arc` with every request presenting it. A mux
    /// connection sends it once and then names it by id. [`new`] makes
    /// an empty set [`Nothing`].
    ///
    /// [`new`]: Presented::new
    /// [`Nothing`]: Presented::Nothing
    Set(Arc<PresentedSet>),
    /// A set a frame named by id, before the receiving connection
    /// resolved it against the sets its peer defined. Only a
    /// connection's reader holds a request in this form: handlers get
    /// resolved requests, a client refuses to run one that is not, and a
    /// mux refuses to send one.
    Named(SetId),
}

impl Presented {
    /// `credentials` and the `stamps` over them; [`Presented::Nothing`]
    /// when both are empty.
    pub fn new(credentials: Vec<Assertion>, stamps: Vec<VerdictStamp>) -> Self {
        if credentials.is_empty() && stamps.is_empty() {
            Presented::Nothing
        } else {
            Presented::Set(Arc::new(PresentedSet::new(credentials, stamps)))
        }
    }

    /// The presented credentials (none while [`Named`](Self::Named)).
    pub fn credentials(&self) -> &[Assertion] {
        match self {
            Presented::Set(set) => set.credentials(),
            Presented::Nothing | Presented::Named(_) => &[],
        }
    }

    /// The presented stamps (none while [`Named`](Self::Named)).
    pub fn stamps(&self) -> &[VerdictStamp] {
        match self {
            Presented::Set(set) => set.stamps(),
            Presented::Nothing | Presented::Named(_) => &[],
        }
    }

    /// The id of a set named but not resolved.
    pub fn unresolved(&self) -> Option<SetId> {
        match self {
            Presented::Named(id) => Some(*id),
            _ => None,
        }
    }

    /// Writes the set as the `credentials` and `stamps` fields of a
    /// request or batch — empty, followed by a `set` field, when the set
    /// is named: by `by_id`, or by the request itself.
    pub(crate) fn serialize_fields<S: SerializeStruct>(
        &self,
        st: &mut S,
        by_id: Option<SetId>,
    ) -> Result<(), S::Error> {
        match by_id.or(self.unresolved()) {
            None => {
                st.serialize_field("credentials", self.credentials())?;
                st.serialize_field("stamps", self.stamps())
            }
            Some(id) => {
                st.serialize_field("credentials", &[] as &[Assertion])?;
                st.serialize_field("stamps", &[] as &[VerdictStamp])?;
                st.serialize_field("set", &id)
            }
        }
    }

    /// The presented set of decoded `credentials`, `stamps` and `set`
    /// fields: carried inline, or named by id with nothing inline.
    fn from_fields<E: serde::de::Error>(
        credentials: Vec<Assertion>,
        stamps: Vec<VerdictStamp>,
        set: Option<SetId>,
    ) -> Result<Self, E> {
        match set {
            None => Ok(Presented::new(credentials, stamps)),
            Some(id) if credentials.is_empty() && stamps.is_empty() => Ok(Presented::Named(id)),
            Some(_) => Err(E::custom(
                "a presented set is either named by `set` or carried inline, not both",
            )),
        }
    }
}

impl From<Vec<Assertion>> for Presented {
    /// Credentials with no stamps.
    fn from(credentials: Vec<Assertion>) -> Self {
        Presented::new(credentials, Vec::new())
    }
}

impl PartialEq for Presented {
    /// Equal content; sets shared by `Arc` compare by address first.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Presented::Set(a), Presented::Set(b)) if Arc::ptr_eq(a, b) => true,
            (Presented::Named(a), Presented::Named(b)) => a == b,
            (Presented::Named(_), _) | (_, Presented::Named(_)) => false,
            _ => self.credentials() == other.credentials() && self.stamps() == other.stamps(),
        }
    }
}

/// A request from the master to a client. Plain data — the transport
/// layer correlates the eventual [`ScheduleReply`] by `op_id`.
///
/// On the wire the presented set is two fields, `credentials` and
/// `stamps` (which older masters omit), or, in a reference frame, those
/// two empty and a `set` field naming it.
#[derive(Clone, Debug, PartialEq)]
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
    /// Credentials supporting the request and the verdict stamps over
    /// them, which let the receiving node admit the credentials into its
    /// verify cache after one cached-context stamp check instead of a
    /// full RSA verify per credential.
    pub presented: Presented,
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
            && self.presented == other.presented
    }

    /// Serializes the request, naming its presented set by `by_id`
    /// instead of carrying it when given.
    pub(crate) fn serialize_as<S: Serializer>(
        &self,
        serializer: S,
        by_id: Option<SetId>,
    ) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("ScheduleRequest", 8)?;
        st.serialize_field("op_id", &self.op_id)?;
        st.serialize_field("action", &self.action)?;
        st.serialize_field("user", &self.user)?;
        st.serialize_field("principal", &self.principal)?;
        st.serialize_field("master_key", &self.master_key)?;
        self.presented.serialize_fields(&mut st, by_id)?;
        st.serialize_field("args", &self.args)?;
        st.end()
    }
}

impl Serialize for ScheduleRequest {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.serialize_as(serializer, None)
    }
}

/// The fields of a [`ScheduleRequest`] as they decode. `stamps` defaults
/// to empty, so requests from masters predating stamps still parse.
#[derive(Deserialize)]
struct RequestFields {
    op_id: u64,
    action: ScheduledAction,
    user: User,
    principal: String,
    master_key: String,
    credentials: Vec<Assertion>,
    #[serde(default)]
    stamps: Vec<VerdictStamp>,
    set: Option<SetId>,
    args: Vec<Value>,
}

impl<'de> Deserialize<'de> for ScheduleRequest {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let f = RequestFields::deserialize(deserializer)?;
        Ok(ScheduleRequest {
            op_id: f.op_id,
            action: f.action,
            user: f.user,
            principal: f.principal,
            master_key: f.master_key,
            presented: Presented::from_fields(f.credentials, f.stamps, f.set)?,
            args: f.args,
        })
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
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleBatch {
    /// What to execute and under which (domain, role).
    pub action: ScheduledAction,
    /// The user identity to execute under.
    pub user: User,
    /// The user's key (trust-management identity).
    pub principal: String,
    /// The master's key.
    pub master_key: String,
    /// Credentials and verdict stamps supporting every op of the batch.
    pub presented: Presented,
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
            presented: head.presented.clone(),
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
            presented: request.presented,
            ops: vec![BatchOp {
                op_id: request.op_id,
                args: request.args,
            }],
        }
    }
}

impl Serialize for ScheduleBatch {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("ScheduleBatch", 7)?;
        st.serialize_field("action", &self.action)?;
        st.serialize_field("user", &self.user)?;
        st.serialize_field("principal", &self.principal)?;
        st.serialize_field("master_key", &self.master_key)?;
        self.presented.serialize_fields(&mut st, None)?;
        st.serialize_field("ops", &self.ops)?;
        st.end()
    }
}

/// The fields of a [`ScheduleBatch`] as they decode.
#[derive(Deserialize)]
struct BatchFields {
    action: ScheduledAction,
    user: User,
    principal: String,
    master_key: String,
    credentials: Vec<Assertion>,
    stamps: Vec<VerdictStamp>,
    set: Option<SetId>,
    ops: Vec<BatchOp>,
}

impl<'de> Deserialize<'de> for ScheduleBatch {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let f = BatchFields::deserialize(deserializer)?;
        Ok(ScheduleBatch {
            action: f.action,
            user: f.user,
            principal: f.principal,
            master_key: f.master_key,
            presented: Presented::from_fields(f.credentials, f.stamps, f.set)?,
            ops: f.ops,
        })
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
    /// Defines a presented set for the rest of the connection: later
    /// request frames on it may name the set by `id` instead of carrying
    /// it. Not answered. The receiver stores the set under the id it
    /// computes from `set` itself, and closes the connection if `id` is
    /// not that.
    DefineSet {
        /// The id the sender states for `set`.
        id: SetId,
        /// The set.
        set: Arc<PresentedSet>,
    },
}

impl WireRequest {
    /// The presented set of a request frame.
    pub(crate) fn presented_mut(&mut self) -> Option<&mut Presented> {
        match self {
            WireRequest::Schedule(request) | WireRequest::Forward { request, .. } => {
                Some(&mut request.presented)
            }
            WireRequest::ScheduleBatch(batch) => Some(&mut batch.presented),
            WireRequest::Identify | WireRequest::DefineSet { .. } => None,
        }
    }
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
            presented: Presented::default(),
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
            presented: Presented::default(),
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
