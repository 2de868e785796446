//! Property-based tests over the framework's core invariants.
//!
//! Written against a small deterministic generator harness. Each test
//! drives a fixed number of pseudo-random cases from a seeded
//! splitmix64 stream, so failures are reproducible; the failing case is
//! reported through the assertion message.

use hetsec_crypto::bigint::U512;
use hetsec_keynote::ast::{CmpOp, Expr, LicenseeExpr, Term};
use hetsec_keynote::parser::{parse_expression, parse_licensees};
use hetsec_keynote::print::{print_expr, print_licensees};
use hetsec_keynote::regex::Regex;
use hetsec_keynote::session::ActionQuery;
use hetsec_rbac::policy::{PermissionGrant, RbacPolicy, RoleAssignment};
use hetsec_suite::Rng;
use hetsec_translate::{decode_policy, encode_policy, SymbolicDirectory};

// ---- Deterministic generator helpers over `hetsec_suite::Rng` ----

fn next_u128(rng: &mut Rng) -> u128 {
    (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
}

/// Uniform value in `lo..hi` (half-open, hi > lo).
fn range(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    lo + rng.below(hi - lo)
}

/// A string of `len` characters drawn from `alphabet`.
fn pick_string(rng: &mut Rng, alphabet: &[char], len: usize) -> String {
    (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect()
}

fn chars(ranges: &[(char, char)]) -> Vec<char> {
    let mut out = Vec::new();
    for &(lo, hi) in ranges {
        let (lo, hi) = (lo as u32, hi as u32);
        out.extend((lo..=hi).filter_map(char::from_u32));
    }
    out
}

/// `[a-z_][a-z0-9_]{0,6}` — a KeyNote attribute identifier.
fn gen_ident(rng: &mut Rng) -> String {
    let first = chars(&[('a', 'z'), ('_', '_')]);
    let rest = chars(&[('a', 'z'), ('0', '9'), ('_', '_')]);
    let mut s = pick_string(rng, &first, 1);
    let n = rng.below(7);
    s.push_str(&pick_string(rng, &rest, n));
    s
}

/// `[A-Za-z][A-Za-z0-9]{0,8}` — a principal name.
fn gen_principal(rng: &mut Rng) -> String {
    let first = chars(&[('A', 'Z'), ('a', 'z')]);
    let rest = chars(&[('A', 'Z'), ('a', 'z'), ('0', '9')]);
    let mut s = pick_string(rng, &first, 1);
    let n = rng.below(9);
    s.push_str(&pick_string(rng, &rest, n));
    s
}

/// `[A-Z][a-z]{1,5}` — a capitalised name (domain/role/type).
fn gen_cap_name(rng: &mut Rng) -> String {
    let first = chars(&[('A', 'Z')]);
    let rest = chars(&[('a', 'z')]);
    let mut s = pick_string(rng, &first, 1);
    let n = range(rng, 1, 6);
    s.push_str(&pick_string(rng, &rest, n));
    s
}

/// `[a-z]{lo,hi}` — a lowercase word.
fn gen_word(rng: &mut Rng, lo: usize, hi: usize) -> String {
    let alpha = chars(&[('a', 'z')]);
    let n = range(rng, lo, hi + 1);
    pick_string(rng, &alpha, n)
}

// ---- U512 arithmetic vs u128 reference ----

#[test]
fn u512_add_matches_u128() {
    let mut rng = Rng::new(0x5add);
    for case in 0..256 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let sum = U512::from_u64(a).add(&U512::from_u64(b));
        assert_eq!(
            sum,
            U512::from_u128(a as u128 + b as u128),
            "case {case}: {a} + {b}"
        );
    }
}

#[test]
fn u512_mul_matches_u128() {
    let mut rng = Rng::new(0x5b01);
    for case in 0..256 {
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let prod = U512::from_u64(a).mul(&U512::from_u64(b));
        assert_eq!(
            prod,
            U512::from_u128(a as u128 * b as u128),
            "case {case}: {a} * {b}"
        );
    }
}

#[test]
fn u512_divmod_matches_u128() {
    let mut rng = Rng::new(0x5d17);
    for case in 0..256 {
        let a = next_u128(&mut rng);
        let b = rng.next_u64().max(1);
        let (q, r) = U512::from_u128(a).divmod(&U512::from_u64(b));
        assert_eq!(q, U512::from_u128(a / b as u128), "case {case}: {a} / {b}");
        assert_eq!(r, U512::from_u128(a % b as u128), "case {case}: {a} % {b}");
    }
}

#[test]
fn u512_hex_roundtrip() {
    let mut rng = Rng::new(0x4e7);
    for case in 0..256 {
        let v = U512::from_u128(next_u128(&mut rng));
        assert_eq!(U512::from_hex(&v.to_hex()), Some(v), "case {case}");
    }
}

#[test]
fn u512_shift_roundtrip() {
    let mut rng = Rng::new(0x54f7);
    for case in 0..256 {
        let v = U512::from_u128(next_u128(&mut rng));
        let s = rng.below(256) as u32;
        assert_eq!(v.shl_small(s).shr_small(s), v, "case {case}: shift {s}");
    }
}

#[test]
fn u512_modpow_mul_law() {
    let mut rng = Rng::new(0x0d90);
    for case in 0..256 {
        // (a*b) mod m == mulmod(a, b, m)
        let a = rng.next_u64().max(1);
        let b = rng.next_u64().max(1);
        let m = rng.next_u64().max(2);
        let lhs = U512::from_u64(a).mulmod(&U512::from_u64(b), &U512::from_u64(m));
        let rhs = U512::from_u128((a as u128 * b as u128) % m as u128);
        assert_eq!(lhs, rhs, "case {case}: {a} * {b} mod {m}");
    }
}

// ---- Expression printer/parser round-trips over generated ASTs ----

fn gen_term(rng: &mut Rng, depth: usize) -> Term {
    let printable = chars(&[(' ', '~')]);
    match if depth == 0 { rng.below(3) } else { rng.below(5) } {
        0 => Term::Attr(gen_ident(rng)),
        1 => {
            let n = rng.below(9);
            Term::Str(pick_string(rng, &printable, n))
        }
        2 => Term::Num(rng.below(100_000) as f64),
        3 => Term::Concat(
            Box::new(gen_term(rng, depth - 1)),
            Box::new(gen_term(rng, depth - 1)),
        ),
        _ => Term::Deref(Box::new(gen_term(rng, depth - 1))),
    }
}

fn gen_expr(rng: &mut Rng, depth: usize) -> Expr {
    match if depth == 0 { rng.below(4) } else { rng.below(7) } {
        0 => Expr::True,
        1 => Expr::False,
        2 => Expr::Cmp {
            op: CmpOp::Eq,
            lhs: gen_term(rng, 2),
            rhs: gen_term(rng, 2),
        },
        3 => Expr::Cmp {
            op: CmpOp::Le,
            lhs: gen_term(rng, 2),
            rhs: gen_term(rng, 2),
        },
        4 => Expr::And(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        5 => Expr::Or(
            Box::new(gen_expr(rng, depth - 1)),
            Box::new(gen_expr(rng, depth - 1)),
        ),
        _ => Expr::Not(Box::new(gen_expr(rng, depth - 1))),
    }
}

fn gen_licensees(rng: &mut Rng, depth: usize) -> LicenseeExpr {
    match if depth == 0 { 0 } else { rng.below(4) } {
        0 => LicenseeExpr::Principal(gen_principal(rng)),
        1 => LicenseeExpr::And(
            Box::new(gen_licensees(rng, depth - 1)),
            Box::new(gen_licensees(rng, depth - 1)),
        ),
        2 => LicenseeExpr::Or(
            Box::new(gen_licensees(rng, depth - 1)),
            Box::new(gen_licensees(rng, depth - 1)),
        ),
        _ => {
            let n = range(rng, 1, 4);
            let items: Vec<LicenseeExpr> =
                (0..n).map(|_| gen_licensees(rng, depth - 1)).collect();
            let k = range(rng, 1, n + 1);
            LicenseeExpr::KOf(k, items)
        }
    }
}

#[test]
fn expr_print_parse_roundtrip() {
    let mut rng = Rng::new(0xe387);
    for case in 0..64 {
        let e = gen_expr(&mut rng, 4);
        let printed = print_expr(&e);
        let back = parse_expression(&printed)
            .unwrap_or_else(|err| panic!("case {case}: `{printed}` failed to parse: {err:?}"));
        assert_eq!(back, e, "case {case}: `{printed}`");
    }
}

#[test]
fn licensees_print_parse_roundtrip() {
    let mut rng = Rng::new(0x11c5);
    for case in 0..64 {
        let l = gen_licensees(&mut rng, 3);
        let printed = print_licensees(&l);
        let back = parse_licensees(&printed)
            .unwrap_or_else(|err| panic!("case {case}: `{printed}` failed to parse: {err:?}"));
        assert_eq!(back, l, "case {case}: `{printed}`");
    }
}

// ---- Regex engine vs a naive literal matcher ----

#[test]
fn regex_literal_agrees_with_contains() {
    let mut rng = Rng::new(0x9e8e);
    for case in 0..128 {
        let needle = gen_word(&mut rng, 1, 5);
        let hay = gen_word(&mut rng, 0, 12);
        let re = Regex::new(&needle).unwrap();
        assert_eq!(
            re.is_match(&hay),
            hay.contains(&needle),
            "case {case}: needle `{needle}` hay `{hay}`"
        );
    }
}

#[test]
fn regex_anchored_literal_agrees_with_eq() {
    let mut rng = Rng::new(0xa9c0);
    for case in 0..128 {
        let needle = gen_word(&mut rng, 1, 5);
        let hay = gen_word(&mut rng, 0, 7);
        let re = Regex::new(&format!("^{needle}$")).unwrap();
        assert_eq!(
            re.is_match(&hay),
            hay == needle,
            "case {case}: needle `{needle}` hay `{hay}`"
        );
    }
}

#[test]
fn regex_star_never_panics() {
    // Any syntactically valid pattern must match or not without
    // panicking or hanging.
    let mut rng = Rng::new(0x57a6);
    let pat_alpha: Vec<char> = chars(&[('a', 'z')])
        .into_iter()
        .chain(".()*+?|[]".chars())
        .collect();
    for _case in 0..128 {
        let n = rng.below(11);
        let pat = pick_string(&mut rng, &pat_alpha, n);
        let hay = gen_word(&mut rng, 0, 10);
        if let Ok(re) = Regex::new(&pat) {
            let _ = re.is_match(&hay);
        }
    }
}

// ---- RBAC <-> KeyNote encode/decode round-trips ----

fn gen_policy(rng: &mut Rng) -> RbacPolicy {
    let mut p = RbacPolicy::new();
    for _ in 0..rng.below(12) {
        p.grant(PermissionGrant::new(
            gen_cap_name(rng).as_str(),
            gen_cap_name(rng).as_str(),
            gen_cap_name(rng).as_str(),
            gen_word(rng, 1, 5).as_str(),
        ));
    }
    for _ in 0..rng.below(12) {
        p.assign(RoleAssignment::new(
            gen_word(rng, 1, 6).as_str(),
            gen_cap_name(rng).as_str(),
            gen_cap_name(rng).as_str(),
        ));
    }
    p
}

#[test]
fn encode_decode_is_identity() {
    let mut rng = Rng::new(0xe4c0);
    for case in 0..64 {
        let policy = gen_policy(&mut rng);
        let dir = SymbolicDirectory::default();
        let assertions = encode_policy(&policy, "KWebCom", &dir);
        let report = decode_policy(&assertions, "KWebCom", &dir);
        assert_eq!(report.policy, policy, "case {case}");
        assert!(report.skipped.is_empty(), "case {case}: {:?}", report.skipped);
    }
}

#[test]
fn merge_is_monotone() {
    // Merging never removes access.
    let mut rng = Rng::new(0x3e66);
    for case in 0..64 {
        let a = gen_policy(&mut rng);
        let b = gen_policy(&mut rng);
        let mut merged = a.clone();
        merged.merge(&b);
        for g in a.grants() {
            assert!(
                merged.role_has_permission(&g.domain, &g.role, &g.object_type, &g.permission),
                "case {case}: lost grant {g}"
            );
        }
        for asg in b.assignments() {
            assert!(
                merged.user_in_role(&asg.user, &asg.domain, &asg.role),
                "case {case}: lost assignment"
            );
        }
    }
}

// ---- Compliance monotonicity: adding credentials never revokes ----

#[test]
fn adding_credentials_is_monotone() {
    use hetsec_keynote::session::KeyNoteSession;
    let mut rng = Rng::new(0xc4ed);
    for case in 0..32 {
        let policy = gen_policy(&mut rng);
        let extra = gen_word(&mut rng, 1, 6);
        let dir = SymbolicDirectory::default();
        let assertions = encode_policy(&policy, "KWebCom", &dir);
        let mut base = KeyNoteSession::permissive();
        for a in assertions.clone() {
            base.add_policy_assertion(a).unwrap();
        }
        let mut extended = KeyNoteSession::permissive();
        for a in assertions {
            extended.add_policy_assertion(a).unwrap();
        }
        // An unrelated extra credential from an unknown key.
        extended
            .add_credentials(&format!(
                "Authorizer: \"Kstray\"\nLicensees: \"K{extra}\"\n"
            ))
            .unwrap();
        // Every decision authorised before stays authorised.
        for asg in policy.assignments() {
            for g in policy.grants() {
                let attrs: hetsec_keynote::ActionAttributes = [
                    ("app_domain", "WebCom"),
                    ("Domain", g.domain.as_str()),
                    ("Role", g.role.as_str()),
                    ("ObjectType", g.object_type.as_str()),
                    ("Permission", g.permission.as_str()),
                ]
                .into_iter()
                .collect();
                let key = format!("K{}", asg.user.as_str().to_lowercase());
                let before = base.evaluate(&ActionQuery::principals(&[key.as_str()]).attributes(&attrs)).is_authorized();
                if before {
                    assert!(
                        extended.evaluate(&ActionQuery::principals(&[key.as_str()]).attributes(&attrs)).is_authorized(),
                        "case {case}: user {key} lost access to {g}"
                    );
                }
            }
        }
    }
}
