//! The [`Telemetry`] handle and its pluggable sinks.
//!
//! A `Telemetry` is either **disabled** — a `None` inner, so `emit` is a
//! branch and nothing else (the fast path the counting-allocator proofs
//! rely on) — or carries one sink:
//!
//! - **Memory**: a preallocated ring buffer of [`SchedEvent`]s. Events
//!   are `Copy`, the buffer never grows, so a steady-state `emit`
//!   performs zero heap allocations; when full, the oldest events are
//!   overwritten (and counted as dropped).
//! - **Jsonl**: buffered line-per-event JSON to a file, formatting into
//!   a reused `String`.
//!
//! A **fanout** handle tees every event to several such handles.

use crate::event::SchedEvent;
use crate::metrics::MetricsRegistry;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Ring buffer of events: fixed capacity, overwrite-oldest.
#[derive(Debug)]
struct Ring {
    buf: Vec<SchedEvent>,
    head: usize,
    cap: usize,
}

impl Ring {
    fn with_capacity(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap.max(1)),
            head: 0,
            cap: cap.max(1),
        }
    }

    #[inline]
    fn push(&mut self, ev: SchedEvent) -> bool {
        if self.buf.len() < self.cap {
            // Within the preallocated capacity: no growth, no allocation.
            self.buf.push(ev);
            false
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.cap;
            true
        }
    }

    fn events(&self) -> Vec<SchedEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }
}

#[derive(Debug)]
enum Sink {
    Memory(Ring),
    Jsonl {
        out: BufWriter<File>,
        line: String,
    },
    /// Tee: forward every event to each child handle (events are
    /// `Copy`). Lets one pipeline feed e.g. a JSONL file for offline
    /// analysis *and* a memory ring the `/journal` endpoint tails.
    Fanout(Vec<Telemetry>),
}

#[derive(Debug)]
struct TelemetryInner {
    sink: Mutex<Sink>,
    registry: MetricsRegistry,
    emitted: AtomicU64,
    dropped: AtomicU64,
}

/// A cloneable handle to one telemetry pipeline (journal sink + metrics
/// registry), or the disabled no-op.
///
/// The default (and [`Telemetry::disabled`]) handle carries nothing:
/// `emit` tests an `Option` and returns — zero work, zero allocation —
/// so instrumented code paths keep their zero-alloc steady-state
/// guarantees without any feature gating.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<TelemetryInner>>,
}

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    fn with_sink(sink: Sink) -> Self {
        Telemetry {
            inner: Some(Arc::new(TelemetryInner {
                sink: Mutex::new(sink),
                registry: MetricsRegistry::new(),
                emitted: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// In-memory capture with a preallocated ring of `capacity` events.
    /// Pushing into the ring never allocates; once full, the oldest
    /// events are overwritten (counted by [`events_dropped`]).
    ///
    /// [`events_dropped`]: Telemetry::events_dropped
    pub fn memory(capacity: usize) -> Self {
        Self::with_sink(Sink::Memory(Ring::with_capacity(capacity)))
    }

    /// Line-per-event JSON written (buffered) to `path`.
    pub fn jsonl<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::with_sink(Sink::Jsonl {
            out: BufWriter::new(file),
            line: String::with_capacity(256),
        }))
    }

    /// Tee every event to each of `children` (disabled children are
    /// skipped for free; events are `Copy`). The fanout handle carries
    /// its own metrics registry; [`events`](Telemetry::events)
    /// delegates to the first child that can answer.
    pub fn fanout(children: Vec<Telemetry>) -> Self {
        Self::with_sink(Sink::Fanout(children))
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The metrics registry backing this handle (None when disabled).
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_ref().map(|i| &i.registry)
    }

    /// Record one event. No-op (one branch) when disabled.
    #[inline]
    pub fn emit(&self, ev: SchedEvent) {
        let Some(inner) = &self.inner else { return };
        inner.emitted.fetch_add(1, Ordering::Relaxed);
        let mut sink = inner.sink.lock().expect("telemetry sink poisoned");
        match &mut *sink {
            Sink::Memory(ring) => {
                if ring.push(ev) {
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Sink::Jsonl { out, line } => {
                line.clear();
                ev.write_jsonl(line);
                line.push('\n');
                if out.write_all(line.as_bytes()).is_err() {
                    inner.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
            Sink::Fanout(children) => {
                for child in children.iter() {
                    child.emit(ev);
                }
            }
        }
    }

    /// Events emitted through this handle.
    pub fn events_emitted(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.emitted.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Events lost (ring overwrites, write errors).
    pub fn events_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Snapshot of the captured events, oldest first (memory sink only;
    /// empty otherwise).
    pub fn events(&self) -> Vec<SchedEvent> {
        match &self.inner {
            Some(inner) => match &*inner.sink.lock().expect("telemetry sink poisoned") {
                Sink::Memory(ring) => ring.events(),
                Sink::Fanout(children) => children
                    .iter()
                    .map(|c| c.events())
                    .find(|e| !e.is_empty())
                    .unwrap_or_default(),
                _ => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    /// Flush buffered output (JSONL sinks, through fanouts; no-op
    /// otherwise).
    pub fn flush(&self) -> io::Result<()> {
        if let Some(inner) = &self.inner {
            match &mut *inner.sink.lock().expect("telemetry sink poisoned") {
                Sink::Jsonl { out, .. } => out.flush()?,
                Sink::Fanout(children) => {
                    for child in children.iter() {
                        child.flush()?;
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TriggerKind;

    fn round_end(round: u64) -> SchedEvent {
        SchedEvent::RoundEnd {
            round,
            feasible: true,
            demotions: 1,
            predicted_power_w: 280.0,
            budget_w: 294.0,
            headroom_w: 14.0,
            wall_ns: 1000,
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        t.emit(round_end(0));
        assert!(!t.enabled());
        assert_eq!(t.events_emitted(), 0);
        assert!(t.events().is_empty());
        assert!(t.registry().is_none());
    }

    #[test]
    fn memory_ring_preserves_order_and_overwrites_oldest() {
        let t = Telemetry::memory(3);
        for i in 0..5 {
            t.emit(round_end(i));
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        let rounds: Vec<u64> = events
            .iter()
            .map(|e| match e {
                SchedEvent::RoundEnd { round, .. } => *round,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![2, 3, 4]);
        assert_eq!(t.events_emitted(), 5);
        assert_eq!(t.events_dropped(), 2);
    }

    #[test]
    fn jsonl_sink_writes_one_parseable_line_per_event() {
        let path = std::env::temp_dir().join("fvsst-telemetry-sink-test.jsonl");
        let t = Telemetry::jsonl(&path).unwrap();
        t.emit(SchedEvent::RoundStart {
            round: 0,
            t_s: 0.0,
            trigger: TriggerKind::Timer,
            budget_w: 294.0,
        });
        t.emit(round_end(0));
        t.flush().unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            let v: serde_json::Value = serde_json::from_str(l).unwrap();
            assert!(v.get("kind").is_some());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fanout_tees_to_every_child() {
        let ring = Telemetry::memory(8);
        let small = Telemetry::memory(1);
        let t = Telemetry::fanout(vec![Telemetry::disabled(), ring.clone(), small.clone()]);
        t.emit(round_end(0));
        t.emit(round_end(1));
        assert_eq!(ring.events().len(), 2);
        assert_eq!((small.events().len(), small.events_dropped()), (1, 1));
        // The fanout handle answers through its children.
        assert_eq!(t.events().len(), 2);
        t.flush().unwrap();
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Telemetry::memory(8);
        let t2 = t.clone();
        t2.emit(round_end(0));
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.events_emitted(), 1);
    }
}
