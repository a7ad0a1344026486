//! Benchmark-side spans: host-time intervals recorded around calls into
//! the program's public functions.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began (its parent). A span's *self time* is its duration minus the
//! time its child spans cover. The recorder is switched off for the timed
//! pass, where [`Spans::time`] only measures the one interval its caller
//! asks for and records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    secs: f64,
}

/// An in-memory span recorder.
pub struct Spans {
    on: bool,
    done: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over every recorded span of that name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, seconds.
    pub total_s: f64,
    /// Sum of their self times, seconds.
    pub self_s: f64,
}

impl Spans {
    /// A recorder that keeps every span.
    pub fn on() -> Self {
        Spans { on: true, done: Vec::new(), open: Vec::new() }
    }

    /// A recorder that keeps nothing (the timed pass).
    pub fn off() -> Self {
        Spans { on: false, done: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` inside a span called `name`; returns its result and the
    /// host seconds it took (measured whether or not the recorder is on).
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let slot = self.on.then(|| {
            let parent = self.open.last().copied();
            self.done.push(Span { name, parent, secs: 0.0 });
            let id = self.done.len() - 1;
            self.open.push(id);
            id
        });
        let start = Instant::now();
        let out = f(self);
        let secs = start.elapsed().as_secs_f64();
        if let Some(id) = slot {
            self.done[id].secs = secs;
            self.open.pop();
        }
        (out, secs)
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_s = vec![0.0; self.done.len()];
        for s in &self.done {
            if let Some(p) = s.parent {
                child_s[p] += s.secs;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.done.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.secs;
            t.self_s += s.secs - children;
        }
        out
    }

    /// Total seconds recorded under `name` (0 when none).
    pub fn total_s(&self, name: &str) -> f64 {
        self.done.iter().filter(|s| s.name == name).fold(0.0, |t, s| t + s.secs)
    }
}
