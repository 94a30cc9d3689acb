//! Workspace-wide error type.
//!
//! A single error enum keeps cross-crate plumbing simple; variants carry a
//! human-readable message plus, where useful, structured context. The enum
//! is `#[non_exhaustive]` so downstream code matches with a catch-all.

use redsim_faultkit::ErrClass;
use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T, E = RsError> = std::result::Result<T, E>;

/// The error type for every fallible operation in `redshift-sim`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RsError {
    /// SQL text could not be tokenized or parsed.
    Parse(String),
    /// The statement is well-formed but semantically invalid
    /// (unknown table/column, type mismatch, ...).
    Analysis(String),
    /// The planner/optimizer could not produce a plan.
    Plan(String),
    /// A runtime execution failure (overflow, bad cast, ...).
    Execution(String),
    /// Storage-layer failure (corrupt block, missing chain, ...).
    Storage(String),
    /// An object was not found (table, snapshot, S3 key, node, ...).
    NotFound(String),
    /// An object already exists.
    AlreadyExists(String),
    /// Data failed encode/decode (compression codecs, binary codec).
    Codec(String),
    /// Replication / backup / restore failure.
    Replication(String),
    /// Encryption / key-management failure.
    Crypto(String),
    /// Control-plane workflow failure (provisioning, patching, resize, ...).
    ControlPlane(String),
    /// A simulated hardware fault was injected and surfaced to the caller.
    FaultInjected(String),
    /// The cluster (or a table) is in a state that forbids the operation,
    /// e.g. writes during resize while the source is read-only.
    InvalidState(String),
    /// Transaction conflict (the single-leader serialization point
    /// rejected a concurrent writer).
    TxnConflict(String),
    /// First-committer-wins MVCC conflict: a concurrent writer already
    /// holds (or committed) a write transaction on the same table. The
    /// statement touched nothing and is safe to retry verbatim — the
    /// Redshift "1023: serializable isolation violation" analogue.
    Serializable(String),
    /// Feature intentionally outside the reproduced SQL subset.
    Unsupported(String),
    /// A service (simulated S3, a saturated mirror, an exhausted retry
    /// budget) asked the caller to slow down. Always transient: callers
    /// with a [`is_retryable`](RsError::is_retryable)-driven retry loop
    /// absorb these; callers without one surface `THROTTLE`.
    Throttled(String),
}

impl RsError {
    /// Short machine-readable code for telemetry bucketing
    /// (the control plane's Pareto error tracker keys on this).
    pub fn code(&self) -> &'static str {
        match self {
            RsError::Parse(_) => "PARSE",
            RsError::Analysis(_) => "ANALYSIS",
            RsError::Plan(_) => "PLAN",
            RsError::Execution(_) => "EXEC",
            RsError::Storage(_) => "STORAGE",
            RsError::NotFound(_) => "NOT_FOUND",
            RsError::AlreadyExists(_) => "ALREADY_EXISTS",
            RsError::Codec(_) => "CODEC",
            RsError::Replication(_) => "REPL",
            RsError::Crypto(_) => "CRYPTO",
            RsError::ControlPlane(_) => "CTRL",
            RsError::FaultInjected(_) => "FAULT",
            RsError::InvalidState(_) => "STATE",
            RsError::TxnConflict(_) => "TXN",
            RsError::Serializable(_) => "SERIALIZABLE",
            RsError::Unsupported(_) => "UNSUPPORTED",
            RsError::Throttled(_) => "THROTTLE",
        }
    }

    /// The error an `err(class)` action at failpoint `fp` raises. The
    /// variant *is* the retry classification: `Throttle`, `Fault` and
    /// `Repl` are transient, `NotFound` is permanent and fails fast.
    /// Every seam maps a class through here, so a class is the same
    /// error wherever it is injected.
    pub fn injected(fp: &str, class: ErrClass) -> RsError {
        let msg = format!("injected {} at failpoint {fp}", class.as_str());
        match class {
            ErrClass::Throttle => RsError::Throttled(msg),
            ErrClass::Fault => RsError::FaultInjected(msg),
            ErrClass::NotFound => RsError::NotFound(msg),
            ErrClass::Repl => RsError::Replication(msg),
        }
    }

    /// Append context to the error's message while keeping its variant
    /// (and therefore its [`code()`](RsError::code) and
    /// [`is_retryable()`](RsError::is_retryable) classification). Used
    /// by retry exhaustion and by COPY's seal-phase aggregation: a
    /// THROTTLE that exhausted its budget must never remap to a fake
    /// permanent error just because we enriched the message.
    pub fn with_note(self, note: &str) -> RsError {
        match self {
            RsError::Parse(m) => RsError::Parse(m + note),
            RsError::Analysis(m) => RsError::Analysis(m + note),
            RsError::Plan(m) => RsError::Plan(m + note),
            RsError::Execution(m) => RsError::Execution(m + note),
            RsError::Storage(m) => RsError::Storage(m + note),
            RsError::NotFound(m) => RsError::NotFound(m + note),
            RsError::AlreadyExists(m) => RsError::AlreadyExists(m + note),
            RsError::Codec(m) => RsError::Codec(m + note),
            RsError::Replication(m) => RsError::Replication(m + note),
            RsError::Crypto(m) => RsError::Crypto(m + note),
            RsError::ControlPlane(m) => RsError::ControlPlane(m + note),
            RsError::FaultInjected(m) => RsError::FaultInjected(m + note),
            RsError::InvalidState(m) => RsError::InvalidState(m + note),
            RsError::TxnConflict(m) => RsError::TxnConflict(m + note),
            RsError::Serializable(m) => RsError::Serializable(m + note),
            RsError::Unsupported(m) => RsError::Unsupported(m + note),
            RsError::Throttled(m) => RsError::Throttled(m + note),
        }
    }

    /// Whether a retry loop may absorb this error.
    ///
    /// The classification is the contract between fault injection and
    /// the [`retry`](crate::retry) machinery: transient classes
    /// (throttles, injected hardware faults, replication hiccups,
    /// serialization conflicts) are worth retrying with backoff;
    /// everything else is permanent and must surface immediately —
    /// retrying a parse error or a genuinely missing S3 object only
    /// burns the attempt budget and hides the bug.
    ///
    /// The match is deliberately exhaustive (no `_` arm) and lives in
    /// the defining crate, so adding a variant without deciding its
    /// retry class is a compile error, and
    /// `every_code_has_a_retry_classification` keeps the `code()` table
    /// in sync.
    pub fn is_retryable(&self) -> bool {
        match self {
            // Transient: a later attempt can genuinely succeed.
            RsError::Throttled(_) => true,
            RsError::FaultInjected(_) => true,
            RsError::Replication(_) => true,
            RsError::TxnConflict(_) => true,
            RsError::Serializable(_) => true,
            // Permanent: deterministic given the request and state.
            RsError::Parse(_)
            | RsError::Analysis(_)
            | RsError::Plan(_)
            | RsError::Execution(_)
            | RsError::Storage(_)
            | RsError::NotFound(_)
            | RsError::AlreadyExists(_)
            | RsError::Codec(_)
            | RsError::Crypto(_)
            | RsError::ControlPlane(_)
            | RsError::InvalidState(_)
            | RsError::Unsupported(_) => false,
        }
    }

    /// The bare message, without the [`code`](Self::code) prefix that
    /// [`Display`](fmt::Display) adds. Transports that carry code and
    /// message as separate fields (the wire protocol's `Err` frame)
    /// must send this, not `to_string()`, or the prefix doubles on
    /// re-display after decode.
    pub fn message(&self) -> &str {
        match self {
            RsError::Parse(m)
            | RsError::Analysis(m)
            | RsError::Plan(m)
            | RsError::Execution(m)
            | RsError::Storage(m)
            | RsError::NotFound(m)
            | RsError::AlreadyExists(m)
            | RsError::Codec(m)
            | RsError::Replication(m)
            | RsError::Crypto(m)
            | RsError::ControlPlane(m)
            | RsError::FaultInjected(m)
            | RsError::InvalidState(m)
            | RsError::TxnConflict(m)
            | RsError::Serializable(m)
            | RsError::Unsupported(m)
            | RsError::Throttled(m) => m,
        }
    }
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code(), self.message())
    }
}

impl std::error::Error for RsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_and_message() {
        let e = RsError::Parse("unexpected token `)`".into());
        assert_eq!(e.to_string(), "PARSE: unexpected token `)`");
    }

    #[test]
    fn codes_are_stable_and_distinct() {
        let errs = [
            RsError::Parse(String::new()),
            RsError::Analysis(String::new()),
            RsError::Plan(String::new()),
            RsError::Execution(String::new()),
            RsError::Storage(String::new()),
            RsError::NotFound(String::new()),
            RsError::AlreadyExists(String::new()),
            RsError::Codec(String::new()),
            RsError::Replication(String::new()),
            RsError::Crypto(String::new()),
            RsError::ControlPlane(String::new()),
            RsError::FaultInjected(String::new()),
            RsError::InvalidState(String::new()),
            RsError::TxnConflict(String::new()),
            RsError::Serializable(String::new()),
            RsError::Unsupported(String::new()),
            RsError::Throttled(String::new()),
        ];
        let codes: std::collections::BTreeSet<_> = errs.iter().map(|e| e.code()).collect();
        assert_eq!(codes.len(), errs.len());
    }

    /// One constructed value per variant. `is_retryable()` (an
    /// exhaustive match in the defining crate, no `_` arm) already makes
    /// "new variant, no classification" a compile error; this list keeps
    /// the *tests* honest by failing `every_code_has_a_retry_classification`
    /// until the new variant is added here and to the expected table.
    fn every_variant() -> Vec<RsError> {
        vec![
            RsError::Parse(String::new()),
            RsError::Analysis(String::new()),
            RsError::Plan(String::new()),
            RsError::Execution(String::new()),
            RsError::Storage(String::new()),
            RsError::NotFound(String::new()),
            RsError::AlreadyExists(String::new()),
            RsError::Codec(String::new()),
            RsError::Replication(String::new()),
            RsError::Crypto(String::new()),
            RsError::ControlPlane(String::new()),
            RsError::FaultInjected(String::new()),
            RsError::InvalidState(String::new()),
            RsError::TxnConflict(String::new()),
            RsError::Serializable(String::new()),
            RsError::Unsupported(String::new()),
            RsError::Throttled(String::new()),
        ]
    }

    #[test]
    fn every_code_has_a_retry_classification() {
        // The full (code, retryable) contract, frozen. A new variant
        // can't silently skip classification: `is_retryable()` has no
        // wildcard arm (compile error in the defining crate), and this
        // table fails if the observed classification set drifts.
        let expected: std::collections::BTreeMap<&str, bool> = [
            ("PARSE", false),
            ("ANALYSIS", false),
            ("PLAN", false),
            ("EXEC", false),
            ("STORAGE", false),
            ("NOT_FOUND", false),
            ("ALREADY_EXISTS", false),
            ("CODEC", false),
            ("REPL", true),
            ("CRYPTO", false),
            ("CTRL", false),
            ("FAULT", true),
            ("STATE", false),
            ("TXN", true),
            ("SERIALIZABLE", true),
            ("UNSUPPORTED", false),
            ("THROTTLE", true),
        ]
        .into_iter()
        .collect();
        let variants = every_variant();
        assert_eq!(
            variants.len(),
            expected.len(),
            "every_variant() and the expected table must cover the same set"
        );
        let observed: std::collections::BTreeMap<&str, bool> =
            variants.iter().map(|e| (e.code(), e.is_retryable())).collect();
        assert_eq!(observed.len(), variants.len(), "codes must stay distinct");
        assert_eq!(observed, expected);
    }

    #[test]
    fn throttled_is_retryable_and_displays() {
        let e = RsError::Throttled("s3.get attempt budget exhausted".into());
        assert!(e.is_retryable());
        assert_eq!(e.code(), "THROTTLE");
        assert_eq!(e.to_string(), "THROTTLE: s3.get attempt budget exhausted");
    }
}
