//! Structured events: the low-rate, high-information side-channel.
//!
//! Metrics answer "how many / how fast"; events carry the rest — a
//! degraded recovery's full `RecoveryReport`-shaped story, a fault
//! injector's op log.  An [`Event`] is a name plus ordered key/value
//! fields, pushed to the installed [`EventSink`].  The default sink is
//! `NoopSink` and emission first checks one relaxed atomic, so
//! uninstalled event call sites cost one load and never format anything.
//!
//! ```
//! let sink = er_obs::event::CapturingSink::shared();
//! er_obs::event::set_sink(sink.clone());
//! er_obs::event::emit("wal_rotated", |e| {
//!     e.push("segment", 7);
//!     e.push("bytes", 4096);
//! });
//! assert_eq!(sink.take().len(), 1);
//! er_obs::event::clear_sink();
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// One structured event: a static name plus ordered key/value fields.
#[derive(Debug, Clone, Default)]
pub struct Event {
    /// Event name, same naming scheme as metrics (`persist_recovery`, …).
    pub name: &'static str,
    /// Ordered key/value fields.
    pub fields: Vec<(&'static str, String)>,
}

impl Event {
    /// An empty event named `name`.
    pub fn new(name: &'static str) -> Self {
        Event {
            name,
            fields: Vec::new(),
        }
    }

    /// Appends one field, formatting the value with `Display`.
    pub fn push(&mut self, key: &'static str, value: impl fmt::Display) -> &mut Self {
        self.fields.push((key, value.to_string()));
        self
    }

    /// The first field with `key`, if any.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// logfmt-style rendering: `name key=value key="two words"`.
impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (key, value) in &self.fields {
            if value.contains([' ', '"', '=']) {
                write!(f, " {key}={:?}", value)?;
            } else {
                write!(f, " {key}={value}")?;
            }
        }
        Ok(())
    }
}

/// Where emitted events go.  Implementations must tolerate concurrent
/// emission.
pub trait EventSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &Event);
}

/// The default sink: drops everything.
#[derive(Debug, Default)]
pub(crate) struct NoopSink;

impl EventSink for NoopSink {
    fn emit(&self, _event: &Event) {}
}

/// Buffers events for inspection; the test-suite sink.
#[derive(Debug, Default)]
pub struct CapturingSink {
    events: Mutex<Vec<Event>>,
}

impl CapturingSink {
    /// A fresh shareable sink.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Drains and returns everything captured so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }

    /// A copy of everything captured so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().unwrap().clone()
    }
}

impl EventSink for CapturingSink {
    fn emit(&self, event: &Event) {
        self.events.lock().unwrap().push(event.clone());
    }
}

static SINK_ACTIVE: AtomicBool = AtomicBool::new(false);

fn sink_slot() -> &'static RwLock<Arc<dyn EventSink>> {
    static SLOT: OnceLock<RwLock<Arc<dyn EventSink>>> = OnceLock::new();
    SLOT.get_or_init(|| RwLock::new(Arc::new(NoopSink)))
}

/// Installs `sink` as the global event sink.
pub fn set_sink(sink: Arc<dyn EventSink>) {
    *sink_slot().write().unwrap() = sink;
    SINK_ACTIVE.store(true, Ordering::Relaxed);
}

/// Restores the default `NoopSink`; emission goes back to one relaxed
/// load.
pub fn clear_sink() {
    *sink_slot().write().unwrap() = Arc::new(NoopSink);
    SINK_ACTIVE.store(false, Ordering::Relaxed);
}

/// True if a non-noop sink is installed and the layer is enabled — the
/// guard emit call sites get for free.
#[inline]
pub(crate) fn sink_active() -> bool {
    SINK_ACTIVE.load(Ordering::Relaxed) && crate::enabled()
}

/// Emits one event, building it only if a sink is installed: `build`
/// never runs (no allocation, no formatting) under the default
/// `NoopSink`.
pub fn emit(name: &'static str, build: impl FnOnce(&mut Event)) {
    if !sink_active() {
        return;
    }
    let mut event = Event::new(name);
    build(&mut event);
    let sink = sink_slot().read().unwrap().clone();
    sink.emit(&event);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn noop_by_default_never_builds() {
        let _guard = crate::global_state_lock();
        clear_sink();
        let built = AtomicUsize::new(0);
        emit("test_event", |_| {
            built.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(built.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn capturing_sink_round_trips() {
        let _guard = crate::global_state_lock();
        let sink = CapturingSink::shared();
        set_sink(sink.clone());
        emit("test_round_trip", |e| {
            e.push("k", 42).push("msg", "two words");
        });
        clear_sink();
        emit("after_clear", |e| {
            e.push("k", 0);
        });
        let events = sink.take();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "test_round_trip");
        assert_eq!(events[0].get("k"), Some("42"));
        assert_eq!(
            events[0].to_string(),
            "test_round_trip k=42 msg=\"two words\""
        );
    }
}
