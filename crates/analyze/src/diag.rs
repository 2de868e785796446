//! Diagnostics: lint codes, severities, findings, and the report.
//!
//! Every finding carries a stable `HS0xx` code so CI gates and golden
//! files can match on it, a severity, the index (and, when the store
//! was analyzed from text, the line span) of the offending assertion,
//! and a one-line fix hint.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Finding severity, ordered `Info < Warn < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Info,
    Warn,
    Error,
}

impl Severity {
    /// Lowercase label used in both human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// Stable lint codes. The numeric suffix never changes meaning once
/// released; retired codes are not reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// Delegation-graph cycle among principals.
    DelegationCycle,
    /// Credential whose authorizer is unreachable from `POLICY`.
    UnreachableCredential,
    /// Licensee never bound to a key, a directory user, or an authorizer.
    DanglingLicensee,
    /// Principal can reach a verdict the RBAC policy never granted.
    Escalation,
    /// Condition clause that can never evaluate to true.
    UnsatisfiableCondition,
    /// Condition clause that always evaluates to true.
    TautologicalCondition,
    /// Clause whose test duplicates an earlier clause in the program.
    ShadowedClause,
    /// Reference to an action attribute no adapter ever sets.
    UnknownAttribute,
    /// Malformed regex literal (evaluation-total false at runtime).
    BadRegex,
    /// Assertion expired or not yet valid at the analysis time.
    OutsideValidity,
    /// Authorizer key that is neither `POLICY`, key material, nor a
    /// directory-resolvable principal.
    UnknownAuthorizer,
    /// Byte-identical assertion stored more than once.
    DuplicateAssertion,
    /// Assertion involving a revoked principal.
    RevokedPrincipal,
    /// RBAC grant the credential store does not honour (decode drift).
    MissingGrant,
    /// Semantic diff: the candidate store authorizes a request the
    /// current store denies (witness-backed grant widening).
    GrantWidening,
    /// Semantic diff: the candidate store denies a request the current
    /// store authorizes (witness-backed grant narrowing).
    GrantNarrowing,
}

impl LintCode {
    /// All codes, in code order. The last two ([`LintCode::is_diff`])
    /// only arise from the two-store verdict diff, never from linting a
    /// single store.
    pub const ALL: [LintCode; 16] = [
        LintCode::DelegationCycle,
        LintCode::UnreachableCredential,
        LintCode::DanglingLicensee,
        LintCode::Escalation,
        LintCode::UnsatisfiableCondition,
        LintCode::TautologicalCondition,
        LintCode::ShadowedClause,
        LintCode::UnknownAttribute,
        LintCode::BadRegex,
        LintCode::OutsideValidity,
        LintCode::UnknownAuthorizer,
        LintCode::DuplicateAssertion,
        LintCode::RevokedPrincipal,
        LintCode::MissingGrant,
        LintCode::GrantWidening,
        LintCode::GrantNarrowing,
    ];

    /// True for the verdict-diff codes, which compare two stores and
    /// can never be tripped by analyzing one store in isolation.
    pub fn is_diff(self) -> bool {
        matches!(self, LintCode::GrantWidening | LintCode::GrantNarrowing)
    }

    /// The stable code string (`HS001` ...).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::DelegationCycle => "HS001",
            LintCode::UnreachableCredential => "HS002",
            LintCode::DanglingLicensee => "HS003",
            LintCode::Escalation => "HS004",
            LintCode::UnsatisfiableCondition => "HS005",
            LintCode::TautologicalCondition => "HS006",
            LintCode::ShadowedClause => "HS007",
            LintCode::UnknownAttribute => "HS008",
            LintCode::BadRegex => "HS009",
            LintCode::OutsideValidity => "HS010",
            LintCode::UnknownAuthorizer => "HS011",
            LintCode::DuplicateAssertion => "HS012",
            LintCode::RevokedPrincipal => "HS013",
            LintCode::MissingGrant => "HS014",
            LintCode::GrantWidening => "HS015",
            LintCode::GrantNarrowing => "HS016",
        }
    }

    /// The severity every finding with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            LintCode::DelegationCycle
            | LintCode::UnreachableCredential
            | LintCode::DanglingLicensee
            | LintCode::ShadowedClause
            | LintCode::UnknownAttribute
            | LintCode::DuplicateAssertion
            | LintCode::MissingGrant
            | LintCode::GrantNarrowing => Severity::Warn,
            LintCode::TautologicalCondition => Severity::Info,
            LintCode::Escalation
            | LintCode::UnsatisfiableCondition
            | LintCode::BadRegex
            | LintCode::OutsideValidity
            | LintCode::UnknownAuthorizer
            | LintCode::RevokedPrincipal
            | LintCode::GrantWidening => Severity::Error,
        }
    }
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Finding {
    pub code: LintCode,
    /// Index of the offending assertion in the analyzed store, when the
    /// finding is about one assertion (escalation findings are about
    /// the store as a whole).
    pub assertion: Option<usize>,
    /// 1-based line span in the source text, when analyzed from text.
    pub line_start: Option<usize>,
    pub line_end: Option<usize>,
    pub message: String,
    pub hint: String,
}

impl Finding {
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

/// Serialized form of a finding — field order is the JSON golden-file
/// contract.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JsonFinding {
    pub code: String,
    pub severity: String,
    pub assertion: Option<usize>,
    pub line_start: Option<usize>,
    pub line_end: Option<usize>,
    pub message: String,
    pub hint: String,
}

/// Serialized report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JsonReport {
    pub findings: Vec<JsonFinding>,
    pub errors: usize,
    pub warnings: usize,
}

/// The full analysis result.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
}

impl Report {
    /// Sorts findings into the stable output order: severity
    /// (errors first), then code, then assertion index, then message.
    pub(crate) fn finish(mut self) -> Report {
        self.findings.sort_by(|a, b| {
            b.severity()
                .cmp(&a.severity())
                .then_with(|| a.code.cmp(&b.code))
                .then_with(|| a.assertion.cmp(&b.assertion))
                .then_with(|| a.message.cmp(&b.message))
        });
        self
    }

    /// True when nothing was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The distinct codes tripped, as `HS0xx` strings.
    pub fn codes(&self) -> BTreeSet<&'static str> {
        self.findings.iter().map(|f| f.code.as_str()).collect()
    }

    fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity() == sev).count()
    }

    /// Pretty JSON for `--format json` and golden files.
    pub fn to_json(&self) -> String {
        let json = JsonReport {
            findings: self
                .findings
                .iter()
                .map(|f| JsonFinding {
                    code: f.code.as_str().to_string(),
                    severity: f.severity().as_str().to_string(),
                    assertion: f.assertion,
                    line_start: f.line_start,
                    line_end: f.line_end,
                    message: f.message.clone(),
                    hint: f.hint.clone(),
                })
                .collect(),
            errors: self.count(Severity::Error),
            warnings: self.count(Severity::Warn),
        };
        serde_json::to_string_pretty(&json).expect("report serializes")
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "clean: no findings");
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(
                f,
                "{}[{}]",
                finding.severity().as_str(),
                finding.code.as_str()
            )?;
            if let Some(idx) = finding.assertion {
                write!(f, " assertion #{idx}")?;
                if let (Some(a), Some(b)) = (finding.line_start, finding.line_end) {
                    write!(f, " (lines {a}-{b})")?;
                }
            }
            write!(f, ": {}", finding.message)?;
            if !finding.hint.is_empty() {
                write!(f, "\n  hint: {}", finding.hint)?;
            }
        }
        write!(
            f,
            "\n{} finding(s): {} error(s), {} warning(s)",
            self.findings.len(),
            self.count(Severity::Error),
            self.count(Severity::Warn)
        )
    }
}
