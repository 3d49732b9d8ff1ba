//! Lightweight structured tracing for simulations.
//!
//! Components emit [`TraceEvent`]s through a [`Tracer`]; a disabled
//! tracer drops them with zero allocation, so tracing costs nothing when
//! off. A recording tracer keeps every event in order, for protocol
//! tests and the benchmark's trace twin.

use crate::time::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// A structured trace point emitted by simulation components.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Static category, e.g. `"pdu.tx"`, `"completion.coalesced"`.
    pub kind: &'static str,
    /// Component identifier (initiator id, target id...).
    pub who: u32,
    /// Free-form detail value (CID, byte count...).
    pub detail: u64,
}

/// Records every event; for protocol-behaviour tests.
#[derive(Default, Clone, Debug)]
pub struct RecordingSink {
    /// All events in emission order.
    pub events: Vec<TraceEvent>,
}

/// A cloneable handle to a shared sink, suitable for wiring one sink into
/// many components.
#[derive(Clone)]
pub struct Tracer {
    sink: Option<Rc<RefCell<RecordingSink>>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that drops all events (no allocation per event).
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// Build a shared [`RecordingSink`] and a tracer over it.
    pub fn recording() -> (Rc<RefCell<RecordingSink>>, Tracer) {
        let sink = Rc::new(RefCell::new(RecordingSink::default()));
        let tracer = Tracer {
            sink: Some(sink.clone()),
        };
        (sink, tracer)
    }

    /// Emit an event (no-op when disabled).
    #[inline]
    pub fn emit(&self, at: SimTime, kind: &'static str, who: u32, detail: u64) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().events.push(TraceEvent {
                at,
                kind,
                who,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_drops() {
        let t = Tracer::disabled();
        t.emit(SimTime::ZERO, "x", 0, 0); // must not panic
        assert!(t.sink.is_none());
    }

    #[test]
    fn recording_sink_preserves_order_and_fields() {
        let (sink, t) = Tracer::recording();
        t.emit(SimTime::from_nanos(1), "a", 7, 99);
        t.emit(SimTime::from_nanos(2), "b", 8, 100);
        let evs = &sink.borrow().events;
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, "a");
        assert_eq!(evs[0].who, 7);
        assert_eq!(evs[0].detail, 99);
        assert_eq!(evs[1].at, SimTime::from_nanos(2));
    }

    #[test]
    fn tracer_clones_share_the_sink() {
        let (sink, t) = Tracer::recording();
        let t2 = t.clone();
        t.emit(SimTime::ZERO, "k", 0, 0);
        t2.emit(SimTime::ZERO, "k", 0, 1);
        let details: Vec<u64> = sink.borrow().events.iter().map(|e| e.detail).collect();
        assert_eq!(details, vec![0, 1]);
    }
}
