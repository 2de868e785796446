//! Integration tests for the authorization fast path: request-scoped
//! credentials, the epoch-invalidated decision cache, and their
//! behaviour under concurrent mutation.

use hetsec_keynote::parser::parse_assertion;
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_webcom::stack::{AuthzContext, AuthzStack, TrustLayer};
use hetsec_webcom::{AuthzRequest, ScheduledAction, TrustManager};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn trust_manager(policy: &str) -> Arc<TrustManager> {
    let tm = TrustManager::permissive();
    tm.add_policy(policy).unwrap();
    Arc::new(tm)
}

fn action(operation: &str) -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", operation),
        "Dom",
        "Worker",
    )
}

fn ctx(principal: &str, operation: &str) -> AuthzContext {
    AuthzContext::new("worker", principal, action(operation))
}

/// The headline regression: a credential presented with request A must
/// not authorize request B, and deciding must not grow the credential
/// store.
#[test]
fn presented_credential_does_not_leak_into_later_requests() {
    let tm = trust_manager(
        "Authorizer: POLICY\nLicensees: \"Kboss\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(Arc::clone(&tm))));

    let delegation =
        parse_assertion("Authorizer: \"Kboss\"\nLicensees: \"Ktemp\"\n").unwrap();

    let count_before = tm.credential_count();
    let epoch_before = tm.epoch();

    // Request A presents the delegation and is granted.
    let mut request_a = ctx("Ktemp", "add");
    request_a.presented = vec![delegation].into();
    assert!(stack.decide(&request_a).permitted);

    // Deciding mutated nothing: no stored credentials, no epoch bump.
    assert_eq!(tm.credential_count(), count_before);
    assert_eq!(tm.epoch(), epoch_before);

    // Request B, same principal, no credential: denied.
    assert!(!stack.decide(&ctx("Ktemp", "add")).permitted);

    // And presenting the credential again still works.
    assert!(stack.decide(&request_a).permitted);
}

/// An epoch bump (revocation) must be reflected in the very next
/// decision, through the trust manager's decision cache.
#[test]
fn revocation_reflected_in_next_decision() {
    let tm = trust_manager(
        "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(Arc::clone(&tm))));

    let c = ctx("Kworker", "add");
    assert!(stack.decide(&c).permitted);
    assert!(stack.decide(&c).permitted); // now cached

    tm.revoke_key("Kworker");
    assert!(!stack.decide(&c).permitted, "stale grant served after revocation");

    tm.reinstate_key("Kworker");
    assert!(stack.decide(&c).permitted, "stale denial served after reinstatement");
}

/// Concurrency: deciders hammer a stack over a trust manager while a
/// mutator flips a key between revoked and reinstated and injects
/// credentials. The trust manager's decision cache must never serve a
/// decision from a stale epoch: whenever the
/// mutator holds the key revoked (stable state), deciders must observe
/// a denial, and vice versa.
#[test]
fn cache_never_serves_stale_epoch_under_concurrency() {
    let tm = trust_manager(
        "Authorizer: POLICY\nLicensees: \"Kworker\"\nConditions: app_domain==\"WebCom\";\n",
    );
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(Arc::clone(&tm))));
    let stack = Arc::new(stack);

    let stop = Arc::new(AtomicBool::new(false));

    // Deciders: issue a spread of queries nonstop. Their answers during
    // transitions are unordered, but they keep the cache hot so the
    // checker below always races against populated entries.
    let deciders: Vec<_> = (0..4)
        .map(|i| {
            let stack = Arc::clone(&stack);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let ops = ["add", "mul", "sub", "div"];
                while !stop.load(Ordering::Relaxed) {
                    let _ = stack.decide(&ctx("Kworker", ops[i % ops.len()]));
                    let _ = stack.decide(&ctx("Kworker", "add"));
                }
            })
        })
        .collect();

    // Mutator + checker: after every mutation the very next decision
    // must reflect it, no matter what the deciders cached meanwhile.
    let mut churn_credential = 0u64;
    for round in 0..200 {
        if round % 2 == 0 {
            tm.revoke_key("Kworker");
            assert!(
                !stack.decide(&ctx("Kworker", "add")).permitted,
                "round {round}: cached grant survived revocation"
            );
        } else {
            tm.reinstate_key("Kworker");
            assert!(
                stack.decide(&ctx("Kworker", "add")).permitted,
                "round {round}: cached denial survived reinstatement"
            );
        }
        // Unrelated credential churn also bumps the epoch; decisions
        // must stay consistent with the current revocation state.
        if round % 5 == 0 {
            churn_credential += 1;
            let cred = parse_assertion(&format!(
                "Authorizer: \"Knoise\"\nLicensees: \"Knoise{churn_credential}\"\n"
            ))
            .unwrap();
            tm.add_credential(cred).unwrap();
            let expect = round % 2 != 0;
            assert_eq!(
                stack.decide(&ctx("Kworker", "add")).permitted,
                expect,
                "round {round}: decision changed by unrelated credential"
            );
        }
    }

    stop.store(true, Ordering::Relaxed);
    for d in deciders {
        d.join().unwrap();
    }

    let stats = tm.cache_stats();
    assert!(stats.hits > 0, "cache was never exercised: {stats:?}");
    assert!(
        stats.invalidations > 0,
        "epoch invalidation was never exercised: {stats:?}"
    );
}

/// The worklist fixpoint must agree with the paper's semantics when
/// queries mix stored and request-scoped assertions at scale.
#[test]
fn large_store_with_request_scoped_chain() {
    let tm = TrustManager::permissive();
    tm.add_policy("Authorizer: POLICY\nLicensees: \"Kroot\"\n").unwrap();
    // A long stored delegation chain Kroot -> K0 -> ... -> K63.
    tm.add_credentials_text(
        &(0..64)
            .map(|i| {
                let from = if i == 0 { "Kroot".to_string() } else { format!("K{}", i - 1) };
                format!("Authorizer: \"{from}\"\nLicensees: \"K{i}\"\n")
            })
            .collect::<Vec<_>>()
            .join("\n"),
    )
    .unwrap();
    let attrs = hetsec_keynote::ActionAttributes::new();
    assert!(tm.decide(&AuthzRequest::principal("K63").attributes(attrs.clone())));
    // A request-scoped extension of the chain works for one request...
    let extra = parse_assertion("Authorizer: \"K63\"\nLicensees: \"Kguest\"\n").unwrap();
    assert!(tm.decide(
        &AuthzRequest::principal("Kguest")
            .attributes(attrs.clone())
            .credentials(std::slice::from_ref(&extra))
    ));
    // ...and only that request.
    assert!(!tm.decide(&AuthzRequest::principal("Kguest").attributes(attrs)));
}
