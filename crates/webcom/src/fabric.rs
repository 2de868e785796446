//! Sharded multi-master scheduling tier.
//!
//! One `WebComMaster` with a mutex-guarded dispatch loop is the scaling
//! ceiling once per-decision cost is ~1 µs: every op in the system
//! funnels through one registry lock, one decision cache, and one
//! health model. This module partitions the fabric instead. A
//! [`ShardRing`] consistent-hashes interned principal fingerprints
//! (see [`hetsec_keynote::principal_fingerprint`]) over N shards using
//! virtual nodes, a [`ShardRouter`] fans a burst out so each shard's
//! share rides its own master — own clients, own `DecisionCache`, own
//! breakers, nothing shared on the hot path — and a master that is
//! handed an op it does not own *forwards* it peer-to-peer over the
//! same wire protocol ([`crate::WireRequest::Forward`]) instead of
//! rejecting it, with a hop-count guard turning ring disagreement into
//! an error rather than a routing loop.
//!
//! Peer links come in two flavours: [`LocalPeerLink`] calls the peer
//! master in-process (routers, tests, benches), [`TcpPeerLink`] is a
//! [`MuxTransport`] connection to the peer's [`serve_master`] listener.
//! Forwards from any number of callers share that one socket, each
//! answered by `op_id`, and the listener — the listener core behind
//! [`crate::serve_tcp`], with a peer-master handler instead of a client
//! engine — answers several at once.

use crate::master::{BurstOp, MasterStats, WebComMaster};
use crate::mux::MuxTransport;
use crate::net::Listener;
use crate::protocol::{ExecError, ExecOutcome, ScheduleReply, ScheduleRequest};
use crate::transport::TransportError;
use crate::{WireRequest, WireResponse};
use hetsec_keynote::principal_fingerprint;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Virtual nodes per shard when a caller does not choose: enough that
/// the largest shard owns within a few percent of the mean.
pub const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring partitioning principal fingerprints over
/// shards. Each shard contributes `vnodes` points; a principal belongs
/// to the shard owning the first point at or after its fingerprint
/// (wrapping). Every node computes the same ring from `(shards,
/// vnodes)` alone, so no layout needs to be gossiped.
#[derive(Clone, Debug)]
pub struct ShardRing {
    /// `(point, shard)` sorted by point; ties broken toward the lower
    /// shard id so all nodes agree.
    points: Vec<(u64, usize)>,
    shards: usize,
}

impl ShardRing {
    /// A ring of `shards` shards with [`DEFAULT_VNODES`] virtual nodes
    /// each.
    pub fn new(shards: usize) -> Self {
        Self::with_vnodes(shards, DEFAULT_VNODES)
    }

    /// A ring with an explicit virtual-node count per shard.
    pub fn with_vnodes(shards: usize, vnodes: usize) -> Self {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for v in 0..vnodes {
                points.push((principal_fingerprint(&format!("shard-{shard}/vnode-{v}")), shard));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        ShardRing { points, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `principal`.
    pub fn owner_of(&self, principal: &str) -> usize {
        self.owner_of_hash(principal_fingerprint(principal))
    }

    /// The shard owning an already-computed fingerprint.
    pub fn owner_of_hash(&self, h: u64) -> usize {
        match self.points.binary_search_by_key(&h, |p| p.0) {
            Ok(i) => self.points[i].1,
            Err(i) if i < self.points.len() => self.points[i].1,
            Err(_) => self.points[0].1, // wrap past the last point
        }
    }
}

/// How a master reaches one peer shard. Implementations must be safe to
/// call from many dispatch threads at once.
pub trait PeerLink: Send + Sync {
    /// Forwards `request` to the peer with the given hop count,
    /// blocking for the owning shard's reply.
    fn forward(
        &self,
        request: &ScheduleRequest,
        hops: u8,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError>;

    /// Human-readable description for diagnostics.
    fn describe(&self) -> String;
}

/// A master's place in the sharded fabric: the ring, its own shard id,
/// and a link to every peer shard.
pub struct ShardInfo {
    /// The (shared) consistent-hash ring.
    pub ring: Arc<ShardRing>,
    /// This master's shard.
    pub shard_id: usize,
    /// Links to peers, by shard id.
    pub peers: HashMap<usize, Arc<dyn PeerLink>>,
}

/// In-process peer link: forwards by calling the peer master directly.
/// Holds a `Weak` so mutually-linked masters do not leak each other.
pub struct LocalPeerLink {
    peer: Weak<WebComMaster>,
    name: String,
}

impl LocalPeerLink {
    /// A link to `peer`, labelled `name` for diagnostics.
    pub fn new(peer: &Arc<WebComMaster>, name: impl Into<String>) -> Self {
        LocalPeerLink {
            peer: Arc::downgrade(peer),
            name: name.into(),
        }
    }
}

impl PeerLink for LocalPeerLink {
    fn forward(
        &self,
        request: &ScheduleRequest,
        hops: u8,
        _timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        let Some(master) = self.peer.upgrade() else {
            return Err(TransportError::Closed(format!(
                "peer master {} is gone",
                self.name
            )));
        };
        Ok(master.handle_forward(request.clone(), hops))
    }

    fn describe(&self) -> String {
        format!("local peer {}", self.name)
    }
}

/// TCP peer link: a [`MuxTransport`] connection to a peer's
/// [`serve_master`] listener speaking `Forward`/`ForwardReply` frames.
/// Forwards from many dispatch threads ride it at once, up to the mux
/// window, each answered by `op_id`; a lost connection fails every
/// forward in flight as a retryable `Closed`, and the next forward dials
/// afresh.
pub struct TcpPeerLink {
    mux: MuxTransport,
}

impl TcpPeerLink {
    /// A link to the peer listening on `addr`, dialled on first use.
    pub fn new(addr: SocketAddr) -> Self {
        TcpPeerLink {
            mux: MuxTransport::new(addr),
        }
    }
}

impl PeerLink for TcpPeerLink {
    fn forward(
        &self,
        request: &ScheduleRequest,
        hops: u8,
        timeout: Duration,
    ) -> Result<ScheduleReply, TransportError> {
        self.mux.forward(request, hops, timeout)
    }

    fn describe(&self) -> String {
        format!("tcp peer {}", self.mux.peer())
    }
}

/// A running master peer listener (see [`serve_master`]).
pub struct MasterServer {
    forwards: Arc<AtomicUsize>,
    listener: Listener,
}

impl MasterServer {
    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Forward frames served so far.
    pub fn forwards(&self) -> usize {
        self.forwards.load(Ordering::SeqCst)
    }

    /// Stops accepting and severs live peer connections.
    pub fn stop(mut self) {
        self.listener.shutdown();
    }
}

/// The most threads that answer one peer connection's forwards at once
/// (the listener's `pipeline`, see [`crate::ServeOptions::pipeline`]).
/// A forward's handler holds its thread for a whole dispatch to the
/// owner's client, and a [`TcpPeerLink`] keeps several forwards in
/// flight on its one connection, so one thread per connection would
/// queue them behind each other. A connection starts with two threads
/// and grows toward this bound only while forwards wait with every
/// thread busy, so an idle link costs two.
pub const PEER_PIPELINE: usize = 8;

/// Puts a master behind a TCP listener answering peer
/// `Forward`/`ForwardReply` frames — how masters in different processes
/// form one sharded fabric. `Identify`/`Schedule`/`ScheduleBatch`
/// frames from stray clients are answered with a protocol error rather
/// than silence. Each connection answers up to [`PEER_PIPELINE`]
/// forwards at once, replying in completion order.
pub fn serve_master(master: Arc<WebComMaster>, addr: &str) -> std::io::Result<MasterServer> {
    let forwards = Arc::new(AtomicUsize::new(0));
    let handler_forwards = Arc::clone(&forwards);
    let handler = move |request| match request {
        WireRequest::Forward { request, hops } => {
            handler_forwards.fetch_add(1, Ordering::SeqCst);
            WireResponse::ForwardReply(master.handle_forward(*request, hops))
        }
        WireRequest::Schedule(req) => WireResponse::Reply(ScheduleReply {
            op_id: req.op_id,
            client: "master".to_string(),
            outcome: ExecOutcome::Failed(ExecError::protocol(
                "this endpoint serves master-to-master forwards, not client scheduling",
            )),
            replayed: false,
        }),
        // A typed error frame, not a fabricated identity: a client that
        // misdials a peer port must get a protocol error it can
        // surface, never something that registers the master's own
        // port as a schedulable client.
        WireRequest::Identify => WireResponse::Error(ExecError::protocol(
            "this endpoint serves master-to-master forwards, not client identify",
        )),
        WireRequest::ScheduleBatch(_) => WireResponse::Error(ExecError::protocol(
            "this endpoint serves master-to-master forwards, not client batches",
        )),
        // Applied by the connection's reader; never answered.
        WireRequest::DefineSet { .. } => {
            WireResponse::Error(ExecError::protocol("a set definition is not a request"))
        }
    };
    let listener =
        Listener::spawn(addr, "webcom-master-serve".to_string(), PEER_PIPELINE, handler)?;
    Ok(MasterServer { forwards, listener })
}

/// Routes bursts across a set of shard masters by principal, running
/// each shard's share concurrently. The masters stay independently
/// usable — handing a master an op it does not own just makes it
/// forward over its peer link, which is exactly what the forwarding
/// property tests exercise.
pub struct ShardRouter {
    ring: Arc<ShardRing>,
    masters: Vec<Arc<WebComMaster>>,
}

impl ShardRouter {
    /// Builds a router over `masters` and wires each one's
    /// [`ShardInfo`] with in-process [`LocalPeerLink`]s to all peers.
    pub fn local(masters: Vec<Arc<WebComMaster>>) -> Self {
        let ring = Arc::new(ShardRing::new(masters.len()));
        for (i, m) in masters.iter().enumerate() {
            let peers: HashMap<usize, Arc<dyn PeerLink>> = masters
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(j, pm)| {
                    (
                        j,
                        Arc::new(LocalPeerLink::new(pm, format!("shard-{j}")))
                            as Arc<dyn PeerLink>,
                    )
                })
                .collect();
            m.set_shard(Arc::new(ShardInfo {
                ring: Arc::clone(&ring),
                shard_id: i,
                peers,
            }));
        }
        ShardRouter { ring, masters }
    }

    /// Builds a router over masters whose [`ShardInfo`] the caller has
    /// already wired (e.g. with [`TcpPeerLink`]s); `ring` must be the
    /// same ring the masters were given.
    pub fn from_parts(ring: Arc<ShardRing>, masters: Vec<Arc<WebComMaster>>) -> Self {
        ShardRouter { ring, masters }
    }

    /// The ring the router partitions by.
    pub fn ring(&self) -> &Arc<ShardRing> {
        &self.ring
    }

    /// The shard masters, in shard-id order.
    pub fn masters(&self) -> &[Arc<WebComMaster>] {
        &self.masters
    }

    /// The shard owning `principal`.
    pub fn shard_of(&self, principal: &str) -> usize {
        self.ring.owner_of(principal)
    }

    /// Fans a burst across the shards: each op goes to its home
    /// master, every shard's share is scheduled concurrently as one
    /// per-shard burst, and outcomes come back positionally aligned
    /// with `ops`.
    pub fn schedule_burst(&self, ops: Vec<BurstOp>) -> Vec<ExecOutcome> {
        if ops.is_empty() {
            return Vec::new();
        }
        if self.masters.len() == 1 {
            return self.masters[0].schedule_burst(ops);
        }
        let total = ops.len();
        let mut per_shard: Vec<(Vec<usize>, Vec<BurstOp>)> =
            (0..self.masters.len()).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, op) in ops.into_iter().enumerate() {
            let shard = self.ring.owner_of(&op.principal);
            per_shard[shard].0.push(i);
            per_shard[shard].1.push(op);
        }
        let mut outcomes: Vec<Option<ExecOutcome>> = (0..total).map(|_| None).collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = per_shard
                .into_iter()
                .enumerate()
                .filter(|(_, (idx, _))| !idx.is_empty())
                .map(|(shard, (idx, share))| {
                    let master = &self.masters[shard];
                    s.spawn(move || (idx, master.schedule_burst(share)))
                })
                .collect();
            for h in handles {
                let (idx, outs) = h.join().expect("shard burst worker panicked");
                for (i, out) in idx.into_iter().zip(outs) {
                    outcomes[i] = Some(out);
                }
            }
        });
        outcomes
            .into_iter()
            .map(|o| o.expect("every op produces an outcome"))
            .collect()
    }

    /// Fleet-wide statistics: counters summed and dispatch-latency
    /// histograms merged across all shards.
    pub fn merged_stats(&self) -> MasterStats {
        let mut merged = MasterStats::default();
        for m in &self.masters {
            merged.merge(&m.stats());
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Presented;
    use crate::authz::TrustManager;
    use std::net::TcpStream;

    #[test]
    fn ring_is_deterministic_and_total() {
        let a = ShardRing::new(4);
        let b = ShardRing::new(4);
        for i in 0..1000 {
            let p = format!("K{i}");
            let owner = a.owner_of(&p);
            assert_eq!(owner, b.owner_of(&p), "two rings disagree on {p}");
            assert!(owner < 4);
        }
    }

    #[test]
    fn ring_spreads_principals_roughly_evenly() {
        let ring = ShardRing::new(4);
        let mut counts = [0usize; 4];
        for i in 0..40_000 {
            counts[ring.owner_of(&format!("Kuser{i}"))] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            // Mean is 10k; with 64 vnodes the spread stays well within
            // a factor of two of it.
            assert!(
                (5_000..=20_000).contains(&c),
                "shard {shard} owns {c} of 40000: {counts:?}"
            );
        }
    }

    #[test]
    fn single_shard_ring_owns_everything() {
        let ring = ShardRing::new(1);
        for i in 0..100 {
            assert_eq!(ring.owner_of(&format!("K{i}")), 0);
        }
    }

    #[test]
    fn growing_the_ring_moves_a_bounded_share() {
        // Consistent hashing's point: going 3 → 4 shards should move
        // roughly 1/4 of the keys, not rehash everything.
        let small = ShardRing::new(3);
        let big = ShardRing::new(4);
        let mut moved = 0usize;
        let n = 20_000;
        for i in 0..n {
            let p = format!("Kuser{i}");
            if small.owner_of(&p) != big.owner_of(&p) {
                moved += 1;
            }
        }
        let frac = moved as f64 / n as f64;
        assert!(
            frac < 0.45,
            "adding one shard to three moved {:.0}% of keys",
            frac * 100.0
        );
    }

    #[test]
    fn peer_listener_refuses_a_batch_with_a_protocol_error() {
        use crate::authz::ScheduledAction;
        use crate::protocol::{BatchOp, ExecErrorKind, ScheduleBatch};
        use crate::wire::{read_frame, write_frame};
        use hetsec_middleware::component::ComponentRef;
        use hetsec_middleware::naming::MiddlewareKind;
        let master = Arc::new(WebComMaster::new(
            "Km",
            Arc::new(TrustManager::permissive()),
        ));
        let server = serve_master(master, "127.0.0.1:0").unwrap();
        let batch = ScheduleBatch {
            action: ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
            user: "worker".into(),
            principal: "Kworker".to_string(),
            master_key: "Km".to_string(),
            presented: Presented::default(),
            ops: (1..=2).map(|op_id| BatchOp { op_id, args: vec![] }).collect(),
        };
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(&mut stream, &WireRequest::ScheduleBatch(Box::new(batch))).unwrap();
        match read_frame::<WireResponse, _>(&mut stream).unwrap() {
            WireResponse::Error(e) => assert_eq!(e.kind, ExecErrorKind::Protocol),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        server.stop();
    }

    #[test]
    fn peer_listener_untracks_closed_connections() {
        let master = Arc::new(WebComMaster::new(
            "Km",
            Arc::new(TrustManager::permissive()),
        ));
        let server = serve_master(master, "127.0.0.1:0").unwrap();
        for _ in 0..100 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        assert_eq!(
            server.listener.tracked_after(Duration::from_secs(5)),
            0,
            "closed peer connections are still tracked"
        );
        server.stop();
    }
}
