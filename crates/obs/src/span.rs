//! Span guards and their completed-record form.

use crate::sink::TraceSink;
use std::sync::Arc;
use std::time::Instant;

/// A typed span/event attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    I64(i64),
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl AttrValue {
    /// Render as text (the snapshot's content ordering key).
    pub fn render(&self) -> String {
        match self {
            AttrValue::I64(v) => v.to_string(),
            AttrValue::U64(v) => v.to_string(),
            AttrValue::F64(v) => {
                if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".into()
                }
            }
            AttrValue::Bool(v) => v.to_string(),
            AttrValue::Str(s) => s.clone(),
        }
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// A finished span, as stored in the sink.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique per-sink id (1-based; ids are never reused).
    pub id: u64,
    /// Parent span id; 0 for roots.
    pub parent: u64,
    /// Root span id of this span's tree (== `id` for roots).
    pub trace: u64,
    /// Static span name (e.g. `"query"`, `"copy.object"`).
    pub name: &'static str,
    /// Start offset from the sink's epoch, nanoseconds (monotonic).
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant events).
    pub dur_ns: u64,
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Integer view of an attribute (covers I64 and in-range U64).
    pub fn attr_i64(&self, key: &str) -> Option<i64> {
        match self.attr(key)? {
            AttrValue::I64(v) => Some(*v),
            AttrValue::U64(v) => i64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        match self.attr(key)? {
            AttrValue::U64(v) => Some(*v),
            AttrValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn attr_str(&self, key: &str) -> Option<&str> {
        match self.attr(key)? {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn attr_bool(&self, key: &str) -> Option<bool> {
        match self.attr(key)? {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Content key used for deterministic snapshot ordering: everything
    /// except the racy `(id, start_ns)` pair.
    pub(crate) fn content_key(&self) -> String {
        let mut s = String::with_capacity(32 + self.name.len());
        s.push_str(self.name);
        for (k, v) in &self.attrs {
            s.push('\u{1}');
            s.push_str(k);
            s.push('=');
            s.push_str(&v.render());
        }
        s
    }
}

pub(crate) struct SpanInner {
    pub(crate) sink: Arc<TraceSink>,
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) trace: u64,
    pub(crate) name: &'static str,
    pub(crate) start: Instant,
    pub(crate) start_ns: u64,
    pub(crate) attrs: Vec<(&'static str, AttrValue)>,
}

/// An in-flight span. Created via [`TraceSink::span`] (roots) or
/// [`Span::child`]; publishes its [`SpanRecord`] on drop. Every span
/// opened on a sink is recorded; only [`Span::disabled`] is inert.
pub struct Span {
    pub(crate) inner: Option<SpanInner>,
}

impl Span {
    /// The inert span, for what is deliberately unrecorded: system-table
    /// reads, and components built without a sink. Its children are
    /// inert too.
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// This span's id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.id)
    }

    /// Attach/overwrite an attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if let Some(inner) = &mut self.inner {
            let value = value.into();
            match inner.attrs.iter_mut().find(|(k, _)| *k == key) {
                Some(slot) => slot.1 = value,
                None => inner.attrs.push((key, value)),
            }
        }
    }

    /// Open a child span. Children may be created from worker threads
    /// through a shared reference; the guard itself stays on the
    /// creating thread.
    pub fn child(&self, name: &'static str) -> Span {
        match &self.inner {
            Some(inner) => inner.sink.open_span(name, inner.id, inner.trace),
            None => Span::disabled(),
        }
    }

    /// Record an instant (zero-duration) child event.
    pub fn event(&self, name: &'static str) {
        self.event_with(name, &[]);
    }

    /// Record an instant child event with attributes.
    pub fn event_with(&self, name: &'static str, attrs: &[(&'static str, AttrValue)]) {
        if let Some(inner) = &self.inner {
            inner.sink.push_completed(name, inner.id, inner.trace, inner.start_ns, 0, attrs);
        }
    }

    /// Record an already-timed child (e.g. a phase measured before the
    /// parent span existed, like parsing). The recorded interval is
    /// clipped to the parent's extent so trace invariants (children nest
    /// inside parents) hold even for retroactive measurements.
    pub fn child_completed(
        &self,
        name: &'static str,
        dur_ns: u64,
        attrs: &[(&'static str, AttrValue)],
    ) {
        if let Some(inner) = &self.inner {
            inner.sink.push_completed(name, inner.id, inner.trace, inner.start_ns, dur_ns, attrs);
        }
    }

    /// Close the span now (equivalent to dropping it).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dur_ns = inner.start.elapsed().as_nanos() as u64;
            let record = SpanRecord {
                id: inner.id,
                parent: inner.parent,
                trace: inner.trace,
                name: inner.name,
                start_ns: inner.start_ns,
                dur_ns,
                attrs: inner.attrs,
            };
            inner.sink.close_span(record);
        }
    }
}
