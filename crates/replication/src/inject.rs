//! Glue between `faultkit` outcomes, `RsError` classes, and `obs`.
//!
//! Failpoints are *named seams*; this module decides what firing one
//! means for the S3 and mirror paths: how drops are represented, and
//! which counters/spans get bumped. Which `RsError` variant each
//! `ErrClass` maps to (and therefore whether a retry loop may absorb
//! it) is [`RsError::injected`], the one mapping every seam shares, so
//! `stl_fault_event`, the `fault.injected` counter and the retry
//! classification can never disagree about what an injected fault *is*.
//!
//! The per-cluster `fault.injected` counter counts only what fires here:
//! the nine S3, mirror, restore and COPY seams. The WAL seams,
//! `exec.scan_slice` and `frontdoor.disconnect` fire on the registry
//! directly; `stl_fault_event` (the registry's ring) is the full record.

use redsim_common::{Result, RetryEvent, RsError};
use redsim_faultkit::{FaultRegistry, Outcome};
use redsim_obs::{AttrValue, TraceSink};
use std::sync::Arc;

/// What a call site should do after consulting a failpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a Skip flow must actually skip the operation"]
pub enum Flow {
    /// Run the operation normally.
    Continue,
    /// Silently skip the operation (drop-action semantics; only valid
    /// at sites where skipping is meaningful, e.g. a lost write).
    Skip,
}

/// Evaluate failpoint `fp`, bumping the `fault.injected` counter on
/// `sink` when it fires. Disarmed registries cost one relaxed load.
#[inline]
pub fn fire(reg: &FaultRegistry, sink: Option<&Arc<TraceSink>>, fp: &'static str) -> Result<Flow> {
    match reg.fire(fp) {
        Outcome::Proceed => Ok(Flow::Continue),
        Outcome::Err(class) => {
            if let Some(s) = sink {
                s.counter("fault.injected").incr();
            }
            Err(RsError::injected(fp, class))
        }
        Outcome::Drop => {
            if let Some(s) = sink {
                s.counter("fault.injected").incr();
            }
            Ok(Flow::Skip)
        }
    }
}

/// Like [`fire`], for read-like sites where skipping is meaningless: a
/// `drop` action surfaces as a transient replication error instead
/// (a dropped read *is* a lost response).
#[inline]
pub fn fire_no_skip(
    reg: &FaultRegistry,
    sink: Option<&Arc<TraceSink>>,
    fp: &'static str,
) -> Result<()> {
    match fire(reg, sink, fp)? {
        Flow::Continue => Ok(()),
        Flow::Skip => Err(RsError::Replication(format!("response dropped at failpoint {fp}"))),
    }
}

/// A [`RetryPolicy::run_observed`](redsim_common::RetryPolicy::run_observed)
/// hook that publishes the standard retry telemetry to `sink`:
/// `retry.attempts` / `retry.exhausted` counters, and a retroactive
/// `retry.wait` span per backoff sleep.
pub fn retry_observer(sink: Option<Arc<TraceSink>>) -> impl FnMut(&RetryEvent) {
    move |ev| {
        let Some(s) = &sink else { return };
        match ev {
            RetryEvent::Backoff { op, attempt, wait, .. } => {
                s.counter("retry.attempts").incr();
                s.span_completed(
                    "retry.wait",
                    wait.as_nanos() as u64,
                    &[
                        ("op", AttrValue::Str((*op).to_string())),
                        ("attempt", AttrValue::U64(*attempt as u64)),
                    ],
                );
            }
            RetryEvent::GaveUp { retryable, .. } => {
                if *retryable {
                    s.counter("retry.exhausted").incr();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redsim_common::RetryPolicy;
    use redsim_faultkit::{fp, ErrClass, FaultSpec};
    use std::time::Duration;

    #[test]
    fn classes_map_to_typed_errors_with_correct_retryability() {
        let cases = [
            (ErrClass::Throttle, "THROTTLE", true),
            (ErrClass::Fault, "FAULT", true),
            (ErrClass::Repl, "REPL", true),
            (ErrClass::NotFound, "NOT_FOUND", false),
        ];
        for (class, code, retryable) in cases {
            let e = RsError::injected("s3.get", class);
            assert_eq!(e.code(), code);
            assert_eq!(e.is_retryable(), retryable, "{e}");
            assert!(e.to_string().contains("s3.get"), "{e}");
        }
    }

    #[test]
    fn fire_bumps_fault_injected_counter() {
        let sink = Arc::new(TraceSink::new());
        let reg = FaultRegistry::new(1);
        reg.configure(fp::S3_GET, FaultSpec::err(ErrClass::Throttle).times(2));
        reg.configure(fp::S3_PUT, FaultSpec::drop_op().once());
        assert!(fire(&reg, Some(&sink), fp::S3_GET).is_err());
        assert_eq!(fire(&reg, Some(&sink), fp::S3_PUT).unwrap(), Flow::Skip);
        assert_eq!(fire(&reg, Some(&sink), fp::S3_PUT).unwrap(), Flow::Continue);
        assert_eq!(sink.counter_value("fault.injected"), 2);
        // Read-like sites turn drops into transient errors.
        reg.configure(fp::RESTORE_PAGE_FAULT, FaultSpec::drop_op().once());
        let err = fire_no_skip(&reg, Some(&sink), fp::RESTORE_PAGE_FAULT).unwrap_err();
        assert_eq!(err.code(), "REPL");
        assert!(err.is_retryable());
    }

    #[test]
    fn retry_observer_publishes_counters_and_wait_spans() {
        let sink = Arc::new(TraceSink::new());
        let policy = RetryPolicy::default()
            .with_max_attempts(3)
            .with_delays(Duration::from_micros(50), Duration::from_micros(200));
        let out: Result<()> = policy.run_observed(
            "s3.get",
            || Err(RsError::Throttled("injected".into())),
            retry_observer(Some(Arc::clone(&sink))),
        );
        assert_eq!(out.unwrap_err().code(), "THROTTLE");
        assert_eq!(sink.counter_value("retry.attempts"), 2);
        assert_eq!(sink.counter_value("retry.exhausted"), 1);
        let waits = sink.records_named("retry.wait");
        assert_eq!(waits.len(), 2);
        for w in &waits {
            assert_eq!(w.parent, 0, "retry.wait records are standalone roots");
            assert_eq!(w.trace, w.id);
            assert!(w.attr_str("op").unwrap() == "s3.get");
        }
        // Success path publishes nothing extra.
        let before = sink.counter_value("retry.attempts");
        let ok: Result<u8> =
            policy.run_observed("s3.get", || Ok(1), retry_observer(Some(Arc::clone(&sink))));
        assert_eq!(ok.unwrap(), 1);
        assert_eq!(sink.counter_value("retry.attempts"), before);
    }
}
