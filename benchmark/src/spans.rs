//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer; spans inside the product are a later issue. Records go
//! into a preallocated `Vec` and are written out as chrome-trace JSON
//! when the traced pass ends.

use std::time::Instant;

/// `parent` of a root span, and the id handed out by a disabled or full
/// recorder.
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One id chain per tick / round / step / burst: a root span and the
/// children opened while it is the innermost open span.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder that records nothing: untraced passes run the same
    /// code and pay one branch per span site.
    pub fn off() -> Self {
        Self::with_capacity(0)
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            stack: Vec::with_capacity(8),
            capacity,
            dropped: 0,
        }
    }

    /// Forget what was recorded: a pass that is measured again starts
    /// from an empty trace.
    pub fn clear(&mut self) {
        self.origin = Instant::now();
        self.spans.clear();
        self.stack.clear();
        self.dropped = 0;
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if self.capacity == 0 {
            return NONE;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `enter` returned.
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let end_ns = self.ns(Instant::now());
        self.spans[id as usize].end_ns = end_ns;
        debug_assert_eq!(self.stack.last(), Some(&id), "spans close innermost first");
        self.stack.pop();
    }

    /// Rename a span once its outcome is known (`decide` says whether
    /// it ran a scheduling round only when it returns).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        if id != NONE {
            self.spans[id as usize].name = name;
        }
    }

    /// Record a span from timestamps taken elsewhere (the wire
    /// workloads stamp frames as they decode them, not around a call).
    pub fn add(&mut self, name: &'static str, parent: u32, start: Instant, end: Instant) -> u32 {
        if self.capacity == 0 {
            return NONE;
        }
        if self.spans.len() == self.capacity {
            self.dropped += 1;
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Self time per span: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                children[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times (ns) of every span called `name`.
    pub fn self_ns_of(&self, name: &str) -> Vec<f64> {
        let self_ns = self.self_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self_ns[s.id as usize] as f64)
            .collect()
    }

    /// Self times must account for the time they split: under every
    /// root, the self times of the whole chain sum to the root's
    /// duration within 5 %. A child that overruns its parent, or two
    /// that overlap, break this.
    pub fn check_self_times(&self) -> Result<(), String> {
        let self_ns = self.self_ns();
        let mut root_of = vec![NONE; self.spans.len()];
        let mut sums = vec![0u64; self.spans.len()];
        for s in &self.spans {
            let root = if s.parent == NONE {
                s.id
            } else {
                root_of[s.parent as usize]
            };
            root_of[s.id as usize] = root;
            sums[root as usize] += self_ns[s.id as usize];
        }
        for s in self.spans.iter().filter(|s| s.parent == NONE) {
            let dur = s.dur_ns() as f64;
            let sum = sums[s.id as usize] as f64;
            if (sum - dur).abs() > 0.05 * dur {
                return Err(format!(
                    "span {} `{}`: self times sum to {sum} ns, span lasted {dur} ns",
                    s.id, s.name
                ));
            }
        }
        Ok(())
    }

    /// The trace in the JSON array form `chrome://tracing` and Perfetto
    /// load: one complete (`"ph":"X"`) event per span, times in µs.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 32);
        out.push_str("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.id,
                parent
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_sum_to_the_parent() {
        let mut r = Recorder::with_capacity(64);
        for _ in 0..3 {
            let round = r.enter("round");
            let a = r.enter("ingest");
            spin(Duration::from_micros(300));
            let inner = r.enter("decode");
            spin(Duration::from_micros(200));
            r.exit(inner);
            r.exit(a);
            let b = r.enter("schedule");
            spin(Duration::from_micros(400));
            r.exit(b);
            r.exit(round);
        }
        assert_eq!(r.spans().len(), 12);
        r.check_self_times().unwrap();
        let self_ns = r.self_ns();
        for root in r.spans().iter().filter(|s| s.parent == NONE) {
            let chain: u64 = r
                .spans()
                .iter()
                .filter(|s| s.id >= root.id && s.id < root.id + 4)
                .map(|s| self_ns[s.id as usize])
                .sum();
            let dur = (root.end_ns - root.start_ns) as f64;
            assert!((chain as f64 - dur).abs() <= 0.05 * dur);
        }
        // A parent's self time excludes its children.
        assert!(r.self_ns_of("ingest").iter().all(|ns| *ns < 450_000.0));
        assert_eq!(r.self_ns_of("decode").len(), 3);
    }

    #[test]
    fn overrunning_child_fails_the_check() {
        let mut r = Recorder::with_capacity(4);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(1);
        let t3 = t0 + Duration::from_millis(3);
        let root = r.add("step", NONE, t0, t1);
        r.add("late", root, t0, t3);
        assert!(r.check_self_times().is_err());
    }

    #[test]
    fn disabled_and_full_recorders_drop() {
        let mut off = Recorder::off();
        let id = off.enter("x");
        assert_eq!(id, NONE);
        off.exit(id);
        assert!(off.spans().is_empty() && !off.enabled());

        let mut tiny = Recorder::with_capacity(1);
        let a = tiny.enter("a");
        let b = tiny.enter("b");
        tiny.exit(b);
        tiny.exit(a);
        assert_eq!((tiny.spans().len(), tiny.dropped()), (1, 1));
        assert!(tiny.chrome_json().contains("\"name\":\"a\""));
    }
}
