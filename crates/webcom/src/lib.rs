//! Secure WebCom: the distributed metacomputing environment that
//! coordinates middleware components under a unified, interoperable
//! security architecture — the system the paper describes.
//!
//! * [`authz`] — scheduling actions as KeyNote queries (Figure 3's TM
//!   mediation), the per-environment [`authz::TrustManager`];
//! * [`stack`] — the stacked L0-L3 pluggable authorisation architecture
//!   (Figure 10): OS, middleware, trust-management and application
//!   layers with configurable combination rules;
//! * [`protocol`] / [`client`] / [`master`] — the master/client fabric
//!   (Figure 3): mutual mediation, component execution, and the master
//!   as a condensed-graph [`hetsec_graphs::OpExecutor`] so evaluating a
//!   graph distributes the application;
//! * [`health`] — per-client health tracking for the master's
//!   dispatcher: EWMA latency/error-rate, a three-state circuit
//!   breaker, and bounded in-flight quotas (backpressure);
//! * [`wire`] / [`transport`] / [`net`] — the transport-agnostic
//!   scheduling protocol: length-prefixed framing, the
//!   [`transport::ClientTransport`] abstraction (in-process channels,
//!   TCP, fault injection), and the TCP server frontend for clients;
//! * Figure 9's differently equipped systems (W, X, Y, Z) are each one
//!   [`client::ClientConfig`] passed to [`client::spawn_client`]: the
//!   [`stack::AuthzStack`] holds the layers that platform provides, and
//!   `master_trust` names the masters it accepts (see the suite's
//!   `interop_scenario` example);
//! * [`keycom`] — the automated administration service applying
//!   credential-backed policy updates to middleware catalogues
//!   (Figure 8);
//! * [`ide`] — headless component-palette interrogation and partial
//!   execution specifications (Figure 11, §6).

pub mod audit;
pub mod authz;
pub mod cache;
pub mod executor;
pub mod client;
pub mod fabric;
pub mod health;
pub mod histogram;
pub mod ide;
pub mod keycom;
pub mod load;
pub mod master;
pub mod mux;
pub mod net;
pub mod protocol;
pub mod stack;
pub mod stamp;
pub mod transport;
pub mod wire;

pub use audit::{AuditLog, AuditRecord};
pub use authz::{AuthzRequest, ScheduledAction, TrustManager, ADAPTER_ATTRIBUTES};
pub use cache::{decision_fingerprint, CacheKey, CacheStats, DecisionCache};
pub use client::{
    spawn_client, spawn_engine, ClientConfig, ClientEngine, ClientHandle, ClientMessage,
    ClientStats,
};
pub use executor::MiddlewareExecutor;
pub use fabric::{
    serve_master, LocalPeerLink, MasterServer, PeerLink, ShardInfo, ShardRing, ShardRouter,
    TcpPeerLink, DEFAULT_VNODES, PEER_PIPELINE,
};
pub use health::{BreakerState, ClientHealth, HealthConfig, HealthSnapshot};
pub use histogram::{LatencyHistogram, LatencySnapshot};
pub use ide::{interrogate, resolve_spec, Combo, ComponentPalette, PaletteEntry, PartialSpec};
pub use keycom::{KeyComError, KeyComService, PolicyUpdateRequest};
pub use load::{
    principal_key, run_load, run_load_with_stack, synthetic_stack, Arrival, LoadConfig,
    LoadReport, SleepingExecutor, ZipfSampler,
};
pub use master::{Binding, BurstOp, MasterStats, RetryPolicy, WebComMaster};
pub use mux::{MuxTransport, DEFAULT_WINDOW};
pub use net::{serve_tcp, serve_tcp_with, ServeOptions, TcpClientServer};
pub use protocol::{
    ArithComponentExecutor, BatchOp, ClientIdentity, ComponentExecutor, ExecError, ExecErrorKind,
    ExecOutcome, Presented, PresentedSet, ScheduleBatch, ScheduleReply, ScheduleRequest, SetId,
    WireRequest, WireResponse, MAX_FORWARD_HOPS,
};
pub use transport::{ChannelTransport, ClientTransport, FaultyTransport, TransportError};
pub use stamp::{StampIssuer, StampStats, StampVerifier};
pub use wire::{
    decode_frame, encode_forward, encode_frame, encode_schedule, encode_schedule_batch,
    read_frame, write_encoded, write_frame, WireError, MAX_DEPTH, MAX_FRAME_LEN,
    SET_TABLE_CAPACITY,
};
pub use stack::{
    ApplicationLayer, AuthzContext, AuthzLayer, AuthzStack, CombinationRule, LayerLevel,
    MiddlewareLayer, StackDecision, TrustLayer, UnixOsLayer, Verdict, WindowsOsLayer,
};
