//! A simulated Windows NT security model: accounts and groups in NT
//! domains, security identifiers (SIDs), and ordered discretionary ACLs.
//!
//! This is the operating-system layer underneath the paper's COM+
//! middleware (Figures 8-10): COM+ roles resolve to NT users/groups and
//! the final access check consults an ACL.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A security identifier. Real SIDs are structured (`S-1-5-21-...`); the
/// simulation keeps the string shape and derives them deterministically
/// from `domain\name`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Sid(String);

impl Sid {
    /// Derives the SID for an account name in a domain.
    pub fn of(domain: &str, name: &str) -> Sid {
        // Stable readable encoding; uniqueness comes from the pair.
        Sid(format!("S-1-5-21-{}-{}", mangle(domain), mangle(name)))
    }

    /// The well-known *Everyone* SID.
    pub fn everyone() -> Sid {
        Sid("S-1-1-0".to_string())
    }

    /// The raw string.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

fn mangle(s: &str) -> u64 {
    // FNV-1a, enough for a deterministic readable id.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl fmt::Display for Sid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Access rights as a bit mask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessMask(pub u32);

impl AccessMask {
    /// Read access.
    pub const READ: AccessMask = AccessMask(0x1);
    /// Write access.
    pub const WRITE: AccessMask = AccessMask(0x2);
    /// Execute / launch.
    pub const EXECUTE: AccessMask = AccessMask(0x4);
    /// All of the above.
    pub const ALL: AccessMask = AccessMask(0x7);

    /// Union of two masks.
    pub fn union(self, other: AccessMask) -> AccessMask {
        AccessMask(self.0 | other.0)
    }

    /// True when every bit of `wanted` is present in `self`.
    pub fn covers(self, wanted: AccessMask) -> bool {
        self.0 & wanted.0 == wanted.0
    }

    /// True when the masks share any bit.
    pub fn intersects(self, other: AccessMask) -> bool {
        self.0 & other.0 != 0
    }
}

/// Whether an ACE grants or denies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AceKind {
    /// Access-allowed ACE.
    Allow,
    /// Access-denied ACE.
    Deny,
}

/// One access-control entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ace {
    /// Allow or deny.
    pub kind: AceKind,
    /// Which SID the entry applies to.
    pub trustee: Sid,
    /// Which rights it grants/denies.
    pub mask: AccessMask,
}

/// An ordered discretionary ACL. Evaluation follows Windows semantics:
/// walk entries in order, accumulating allowed bits; a deny ACE matching
/// any still-wanted bit fails the check immediately.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Acl {
    entries: Vec<Ace>,
}

impl Acl {
    /// Empty ACL (denies everything — "null DACL denies" simplification).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an ACE.
    pub fn push(&mut self, ace: Ace) {
        self.entries.push(ace);
    }

    /// Canonicalises: deny ACEs before allow ACEs (Windows canonical
    /// order), preserving relative order within each kind.
    pub fn canonicalize(&mut self) {
        self.entries.sort_by_key(|a| match a.kind {
            AceKind::Deny => 0,
            AceKind::Allow => 1,
        });
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The access check: does a token holding `sids` get all of
    /// `wanted`?
    pub fn access_check(&self, sids: &BTreeSet<Sid>, wanted: AccessMask) -> bool {
        let mut remaining = wanted;
        for ace in &self.entries {
            if !sids.contains(&ace.trustee) {
                continue;
            }
            match ace.kind {
                AceKind::Deny => {
                    if ace.mask.intersects(remaining) {
                        return false;
                    }
                }
                AceKind::Allow => {
                    remaining = AccessMask(remaining.0 & !ace.mask.0);
                    if remaining.0 == 0 {
                        return true;
                    }
                }
            }
        }
        remaining.0 == 0
    }
}

/// An NT domain: accounts, groups, and group membership.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct NtDomain {
    name: String,
    users: BTreeSet<String>,
    /// group name -> member user names.
    groups: BTreeMap<String, BTreeSet<String>>,
}

impl NtDomain {
    /// A new, empty domain.
    pub fn new(name: impl Into<String>) -> Self {
        NtDomain {
            name: name.into(),
            ..Self::default()
        }
    }

    /// The domain name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Creates a user account; returns its SID.
    pub fn add_user(&mut self, user: &str) -> Sid {
        self.users.insert(user.to_string());
        Sid::of(&self.name, user)
    }

    /// True when the account exists.
    pub fn has_user(&self, user: &str) -> bool {
        self.users.contains(user)
    }

    /// Creates a group; returns its SID.
    pub fn add_group(&mut self, group: &str) -> Sid {
        self.groups.entry(group.to_string()).or_default();
        Sid::of(&self.name, group)
    }

    /// Adds a user to a group (creating both as needed).
    pub fn add_member(&mut self, group: &str, user: &str) {
        self.users.insert(user.to_string());
        self.groups
            .entry(group.to_string())
            .or_default()
            .insert(user.to_string());
    }

    /// Removes a user from a group; returns false if not a member.
    pub fn remove_member(&mut self, group: &str, user: &str) -> bool {
        self.groups
            .get_mut(group)
            .is_some_and(|g| g.remove(user))
    }

    /// The user's *token*: their own SID, every group they belong to,
    /// and Everyone.
    pub fn token(&self, user: &str) -> BTreeSet<Sid> {
        let mut sids = BTreeSet::new();
        if self.users.contains(user) {
            sids.insert(Sid::of(&self.name, user));
            sids.insert(Sid::everyone());
            for (group, members) in &self.groups {
                if members.contains(user) {
                    sids.insert(Sid::of(&self.name, group));
                }
            }
        }
        sids
    }

    /// Groups a user belongs to.
    pub fn groups_of(&self, user: &str) -> Vec<&str> {
        self.groups
            .iter()
            .filter(|(_, m)| m.contains(user))
            .map(|(g, _)| g.as_str())
            .collect()
    }

    /// All user names.
    pub fn users(&self) -> impl Iterator<Item = &str> {
        self.users.iter().map(String::as_str)
    }

    /// All group names.
    pub fn groups(&self) -> impl Iterator<Item = &str> {
        self.groups.keys().map(String::as_str)
    }
}

/// A Windows machine: one NT domain plus securable objects with ACLs.
#[derive(Default)]
pub struct WindowsSecurity {
    domain: RwLock<NtDomain>,
    objects: RwLock<BTreeMap<String, Acl>>,
}

impl WindowsSecurity {
    /// A machine joined to `domain`.
    pub fn new(domain: &str) -> Self {
        WindowsSecurity {
            domain: RwLock::new(NtDomain::new(domain)),
            objects: RwLock::new(BTreeMap::new()),
        }
    }

    /// Mutates the domain database.
    pub fn with_domain<R>(&self, f: impl FnOnce(&mut NtDomain) -> R) -> R {
        f(&mut self.domain.write())
    }

    /// Appends an ACE to an object's ACL (creating the object).
    pub fn add_ace(&self, object: &str, ace: Ace) {
        self.objects
            .write()
            .entry(object.to_string())
            .or_default()
            .push(ace);
    }

    /// The access check: token of `user` vs the object's ACL.
    /// Unknown objects and unknown users are denied.
    pub fn access_check(&self, user: &str, object: &str, wanted: AccessMask) -> bool {
        let token = self.domain.read().token(user);
        if token.is_empty() {
            return false;
        }
        let objects = self.objects.read();
        match objects.get(object) {
            Some(acl) => acl.access_check(&token, wanted),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sids_are_stable_and_distinct() {
        assert_eq!(Sid::of("DOM", "alice"), Sid::of("DOM", "alice"));
        assert_ne!(Sid::of("DOM", "alice"), Sid::of("DOM", "bob"));
        assert_ne!(Sid::of("DOM", "alice"), Sid::of("OTHER", "alice"));
        assert!(Sid::of("D", "u").as_str().starts_with("S-1-5-21-"));
    }

    #[test]
    fn masks() {
        let rw = AccessMask::READ.union(AccessMask::WRITE);
        assert!(rw.covers(AccessMask::READ));
        assert!(rw.covers(rw));
        assert!(!rw.covers(AccessMask::EXECUTE));
        assert!(rw.intersects(AccessMask::WRITE));
        assert!(!AccessMask::READ.intersects(AccessMask::WRITE));
        assert!(AccessMask::ALL.covers(rw));
    }

    #[test]
    fn allow_ace_grants() {
        let mut acl = Acl::new();
        let alice = Sid::of("D", "alice");
        acl.push(Ace {
            kind: AceKind::Allow,
            trustee: alice.clone(),
            mask: AccessMask::READ,
        });
        let token: BTreeSet<Sid> = [alice].into_iter().collect();
        assert!(acl.access_check(&token, AccessMask::READ));
        assert!(!acl.access_check(&token, AccessMask::WRITE));
        assert!(!acl.access_check(&token, AccessMask::READ.union(AccessMask::WRITE)));
    }

    #[test]
    fn deny_ace_wins() {
        let mut acl = Acl::new();
        let alice = Sid::of("D", "alice");
        acl.push(Ace {
            kind: AceKind::Deny,
            trustee: alice.clone(),
            mask: AccessMask::WRITE,
        });
        acl.push(Ace {
            kind: AceKind::Allow,
            trustee: alice.clone(),
            mask: AccessMask::ALL,
        });
        let token: BTreeSet<Sid> = [alice].into_iter().collect();
        assert!(acl.access_check(&token, AccessMask::READ));
        assert!(!acl.access_check(&token, AccessMask::WRITE));
    }

    #[test]
    fn canonicalize_moves_denies_first() {
        let mut acl = Acl::new();
        let s = Sid::of("D", "x");
        acl.push(Ace {
            kind: AceKind::Allow,
            trustee: s.clone(),
            mask: AccessMask::ALL,
        });
        acl.push(Ace {
            kind: AceKind::Deny,
            trustee: s.clone(),
            mask: AccessMask::WRITE,
        });
        // Before canonicalisation the allow matches first and grants all.
        let token: BTreeSet<Sid> = [s].into_iter().collect();
        assert!(acl.access_check(&token, AccessMask::WRITE));
        acl.canonicalize();
        assert!(!acl.access_check(&token, AccessMask::WRITE));
        assert_eq!(acl.len(), 2);
    }

    #[test]
    fn allow_bits_accumulate_across_aces() {
        let mut acl = Acl::new();
        let user = Sid::of("D", "u");
        let grp = Sid::of("D", "g");
        acl.push(Ace {
            kind: AceKind::Allow,
            trustee: user.clone(),
            mask: AccessMask::READ,
        });
        acl.push(Ace {
            kind: AceKind::Allow,
            trustee: grp.clone(),
            mask: AccessMask::WRITE,
        });
        let token: BTreeSet<Sid> = [user, grp].into_iter().collect();
        assert!(acl.access_check(&token, AccessMask::READ.union(AccessMask::WRITE)));
    }

    #[test]
    fn domain_membership_and_tokens() {
        let mut d = NtDomain::new("CORP");
        d.add_user("alice");
        d.add_group("Managers");
        d.add_member("Managers", "alice");
        assert!(d.has_user("alice"));
        assert_eq!(d.groups_of("alice"), vec!["Managers"]);
        let token = d.token("alice");
        assert!(token.contains(&Sid::of("CORP", "alice")));
        assert!(token.contains(&Sid::of("CORP", "Managers")));
        assert!(token.contains(&Sid::everyone()));
        // Unknown user gets an empty token.
        assert!(d.token("mallory").is_empty());
        assert!(d.remove_member("Managers", "alice"));
        assert!(!d.remove_member("Managers", "alice"));
        assert!(d.token("alice").len() == 2); // self + everyone
    }

    #[test]
    fn machine_access_checks() {
        let w = WindowsSecurity::new("CORP");
        w.with_domain(|d| {
            d.add_member("Payroll", "alice");
        });
        let payroll = Sid::of("CORP", "Payroll");
        w.add_ace(
            "SalariesDB",
            Ace {
                kind: AceKind::Allow,
                trustee: payroll,
                mask: AccessMask::READ.union(AccessMask::WRITE),
            },
        );
        assert!(w.access_check("alice", "SalariesDB", AccessMask::WRITE));
        assert!(!w.access_check("mallory", "SalariesDB", AccessMask::READ));
        assert!(!w.access_check("alice", "OtherDB", AccessMask::READ));
    }

    #[test]
    fn everyone_ace_reaches_all_known_users() {
        let w = WindowsSecurity::new("CORP");
        w.with_domain(|d| {
            d.add_user("alice");
            d.add_user("bob");
        });
        w.add_ace(
            "Bulletin",
            Ace {
                kind: AceKind::Allow,
                trustee: Sid::everyone(),
                mask: AccessMask::READ,
            },
        );
        assert!(w.access_check("alice", "Bulletin", AccessMask::READ));
        assert!(w.access_check("bob", "Bulletin", AccessMask::READ));
        // But not unknown accounts: no token, no access.
        assert!(!w.access_check("mallory", "Bulletin", AccessMask::READ));
    }
}
