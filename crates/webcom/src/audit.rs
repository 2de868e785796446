//! Mediation auditing: a bounded, thread-safe log of stack decisions.
//!
//! The paper's maintenance story (§4.4) needs visibility into what the
//! layers actually decided; [`AuditLog::record`] keeps each
//! [`AuthzStack`](crate::stack::AuthzStack) decision (principal, user,
//! component, per-layer trace) in a ring buffer the administrator can
//! query. A client engine records through
//! [`ClientEngine::with_audit`](crate::client::ClientEngine::with_audit).

use crate::stack::{AuthzContext, StackDecision, Verdict};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

/// One audited decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Monotone sequence number.
    pub seq: u64,
    /// The requesting principal (key text).
    pub principal: String,
    /// The executing user.
    pub user: String,
    /// The component identifier.
    pub component: String,
    /// Whether the stack permitted.
    pub permitted: bool,
    /// (layer name, verdict summary) top-down.
    pub trace: Vec<(String, String)>,
}

/// A bounded audit log.
pub struct AuditLog {
    records: Mutex<VecDeque<AuditRecord>>,
    capacity: usize,
    seq: AtomicU64,
    denials: AtomicU64,
    grants: AtomicU64,
}

impl AuditLog {
    /// A log keeping the last `capacity` records.
    pub fn new(capacity: usize) -> Self {
        AuditLog {
            records: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity: capacity.max(1),
            seq: AtomicU64::new(0),
            denials: AtomicU64::new(0),
            grants: AtomicU64::new(0),
        }
    }

    /// Records one decision. Returns the record's sequence number.
    pub fn record(&self, ctx: &AuthzContext, decision: &StackDecision) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if decision.permitted {
            self.grants.fetch_add(1, Ordering::Relaxed);
        } else {
            self.denials.fetch_add(1, Ordering::Relaxed);
        }
        let rec = AuditRecord {
            seq,
            principal: ctx.principal.clone(),
            user: ctx.user.to_string(),
            component: ctx.action.component.identifier(),
            permitted: decision.permitted,
            trace: decision
                .trace
                .iter()
                .map(|(name, v)| {
                    let summary = match v {
                        Verdict::Grant => "grant".to_string(),
                        Verdict::Abstain => "abstain".to_string(),
                        Verdict::Deny(r) => format!("deny: {r}"),
                    };
                    (name.clone(), summary)
                })
                .collect(),
        };
        let mut records = self.records.lock();
        if records.len() == self.capacity {
            records.pop_front();
        }
        records.push_back(rec);
        seq
    }

    /// The most recent `n` records, oldest first.
    pub fn recent(&self, n: usize) -> Vec<AuditRecord> {
        let records = self.records.lock();
        records.iter().rev().take(n).rev().cloned().collect()
    }

    /// All retained denials, oldest first.
    pub fn denials(&self) -> Vec<AuditRecord> {
        self.records
            .lock()
            .iter()
            .filter(|r| !r.permitted)
            .cloned()
            .collect()
    }

    /// Totals since creation (grants, denials) — not limited by capacity.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.grants.load(Ordering::Relaxed),
            self.denials.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::authz::{ScheduledAction, TrustManager};
    use crate::stack::{AuthzStack, TrustLayer};
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::MiddlewareKind;
    use std::sync::Arc;

    /// A one-layer stack and a log of capacity 4.
    fn audited() -> (AuthzStack, AuditLog) {
        let tm = TrustManager::permissive();
        tm.add_policy(
            "Authorizer: POLICY\nLicensees: \"Kok\"\nConditions: app_domain==\"WebCom\";\n",
        )
        .unwrap();
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(Arc::new(tm))));
        (stack, AuditLog::new(4))
    }

    fn ctx(principal: &str) -> AuthzContext {
        AuthzContext::new(
            "worker",
            principal,
            ScheduledAction::new(
                ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
                "Dom",
                "Worker",
            ),
        )
    }

    /// Decides `principal`'s request and records the decision.
    fn decide(stack: &AuthzStack, log: &AuditLog, principal: &str) -> bool {
        let c = ctx(principal);
        let decision = stack.decide(&c);
        log.record(&c, &decision);
        decision.permitted
    }

    #[test]
    fn decisions_are_recorded_with_traces() {
        let (stack, log) = audited();
        assert!(decide(&stack, &log, "Kok"));
        assert!(!decide(&stack, &log, "Kbad"));
        let recent = log.recent(10);
        assert_eq!(recent.len(), 2);
        assert!(recent[0].permitted);
        assert_eq!(recent[0].principal, "Kok");
        assert_eq!(recent[0].trace.len(), 1);
        assert_eq!(recent[0].trace[0].1, "grant");
        assert!(!recent[1].permitted);
        assert!(recent[1].trace[0].1.starts_with("deny:"));
        assert_eq!(log.totals(), (1, 1));
    }

    #[test]
    fn ring_buffer_caps_retention_but_not_totals() {
        let (stack, log) = audited();
        for i in 0..10 {
            let p = if i % 2 == 0 { "Kok" } else { "Kbad" };
            decide(&stack, &log, p);
        }
        assert_eq!(log.recent(100).len(), 4); // capacity
        assert_eq!(log.totals(), (5, 5)); // full history counted
        // Sequence numbers stay monotone across eviction.
        let recent = log.recent(100);
        assert!(recent.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(recent.last().unwrap().seq, 9);
    }

    #[test]
    fn denials_filter() {
        let (stack, log) = audited();
        decide(&stack, &log, "Kok");
        decide(&stack, &log, "Kbad");
        decide(&stack, &log, "Kworse");
        let denials = log.denials();
        assert_eq!(denials.len(), 2);
        assert!(denials.iter().all(|r| !r.permitted));
    }

    #[test]
    fn concurrent_recording() {
        let (stack, log) = audited();
        let shared = Arc::new((stack, log));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let p = if i % 2 == 0 { "Kok" } else { "Kbad" };
                    decide(&shared.0, &shared.1, p)
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(shared.1.totals(), (4, 4));
    }
}
