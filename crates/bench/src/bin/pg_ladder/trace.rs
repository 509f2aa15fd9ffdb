//! The clock and the span recorder.
//!
//! Every timed call in `pg_ladder` goes through [`Tracer::timed`]: it reads
//! the clock around the call and returns the duration, and — only when
//! tracing is on — also keeps a [`Span`] (layer name, start, end, the span
//! that was open when it started, an operation id) in memory. End-to-end
//! numbers come from runs with tracing off; a traced run repeats the same
//! calls with recording on, and the difference between the two is the
//! tracing overhead (`trace.overhead_frac`).
//!
//! Spans are recorded **from outside** the `pg_*` crates, around calls into
//! their public functions; spans inside the program are a later issue.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::json::Json;

/// Sentinel parent of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One recorded call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], or `u32::MAX`.
    pub parent: u32,
    /// Which operation of its phase this was (round number, request
    /// number); spans of one request share it.
    pub op: u64,
}

/// The run's clock, and its span store when tracing is on.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread: same epoch, its own span store.
    /// Hand it back with [`Tracer::adopt`] after the thread is joined.
    pub fn fork(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            recording: self.recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Merges a forked recorder's spans; its roots become children of the
    /// span currently open here.
    pub fn adopt(&mut self, child: Tracer) {
        let base = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// Turns span recording on or off; timing is unaffected. Only
    /// between phases: no span may be open.
    pub fn set_recording(&mut self, recording: bool) {
        assert!(self.open.is_empty(), "recording toggled inside a span");
        self.recording = recording;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Times one call into layer `name` and returns `(result, seconds)`.
    /// `f` receives the tracer so calls it makes nest under this span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns();
        let slot = if self.recording {
            let slot = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                op,
            });
            self.open.push(slot);
            Some(slot)
        } else {
            None
        };
        let result = f(self);
        let end_ns = self.now_ns();
        if let Some(slot) = slot {
            self.spans[slot as usize].end_ns = end_ns;
            self.open.pop();
        }
        (result, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// [`Tracer::timed`] for a call whose result is not needed.
    pub fn time(&mut self, name: &'static str, op: u64, f: impl FnOnce()) -> f64 {
        self.timed(name, op, |_| f()).1
    }

    /// Calls `f(i)` repeatedly under one phase span: `warmup` calls are
    /// discarded, then calls are timed until `budget` has passed **and** at
    /// least `min_samples` are in. Returns the per-call seconds in arrival
    /// order. `f` returns whether the call's output was correct; the number
    /// of incorrect timed calls comes back alongside.
    pub fn sample(
        &mut self,
        phase: &'static str,
        call: &'static str,
        warmup: usize,
        budget: Duration,
        min_samples: usize,
        mut f: impl FnMut(usize) -> bool,
    ) -> (Vec<f64>, u64) {
        for i in 0..warmup {
            std::hint::black_box(f(i));
        }
        let mut wrong = 0u64;
        let (samples, _) = self.timed(phase, 0, |tr| {
            let mut samples = Vec::with_capacity(min_samples);
            let begin = tr.epoch.elapsed();
            while samples.len() < min_samples || tr.epoch.elapsed() - begin < budget {
                let i = warmup + samples.len();
                let (ok, secs) = tr.timed(call, i as u64, |_| f(i));
                wrong += u64::from(!ok);
                samples.push(secs);
            }
            samples
        });
        (samples, wrong)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name: call count, total seconds, and **self** seconds — a
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.calls += 1;
            e.total_s += total as f64 * 1e-9;
            e.self_s += total.saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// The trace file: the self-time table, then every span as
    /// `[name index, start ns, end ns, parent index or -1, op]`.
    pub fn to_json(&self) -> String {
        let table = self.self_times();
        let names: Vec<&'static str> = table.keys().copied().collect();
        let layers = table
            .iter()
            .map(|(name, t)| {
                let row = Json::obj([
                    ("calls", Json::Num(t.calls as f64)),
                    ("total_s", Json::Num(t.total_s)),
                    ("self_s", Json::Num(t.self_s)),
                ]);
                (name.to_string(), row)
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let name = names.binary_search(&s.name).unwrap_or(0);
                let parent = if s.parent == NO_PARENT {
                    -1.0
                } else {
                    f64::from(s.parent)
                };
                Json::Arr(
                    [
                        name as f64,
                        s.start_ns as f64,
                        s.end_ns as f64,
                        parent,
                        s.op as f64,
                    ]
                    .map(Json::Num)
                    .to_vec(),
                )
            })
            .collect();
        Json::obj([
            ("schema", Json::Str("pg_ladder.trace/1".into())),
            ("layers", Json::Obj(layers)),
            (
                "names",
                Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect()),
            ),
            ("spans", Json::Arr(spans)),
        ])
        .pretty()
    }
}

/// One row of the self-time table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.timed("outer", 0, |tr| {
            tr.time("inner", 1, || std::thread::sleep(Duration::from_millis(4)));
            tr.time("inner", 2, || std::thread::sleep(Duration::from_millis(4)));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[1].op, spans[2].op), (1, 2));
        let t = tr.self_times();
        assert_eq!(t["inner"].calls, 2);
        assert!(t["inner"].total_s >= 0.008);
        assert!((t["outer"].total_s - t["outer"].self_s - t["inner"].total_s).abs() < 1e-9);
        assert!(t["outer"].self_s < t["inner"].total_s);
        assert!(tr.to_json().contains("\"inner\": {\"calls\": 2, "));
    }

    #[test]
    fn a_tracer_that_is_off_still_times_but_keeps_nothing() {
        let mut tr = Tracer::new(false);
        let secs = tr.time("x", 0, || std::thread::sleep(Duration::from_millis(2)));
        assert!(secs >= 0.002);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn forked_spans_hang_under_the_open_span() {
        let mut tr = Tracer::new(true);
        tr.timed("phase", 0, |tr| {
            let mut child = tr.fork();
            child.timed("request", 7, |c| c.time("codec", 7, || {}));
            tr.adopt(child);
        });
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].name, s[1].parent), ("request", 0));
        assert_eq!((s[2].name, s[2].parent), ("codec", 1));
    }

    #[test]
    fn sample_discards_warmup_and_honours_both_floors() {
        let mut tr = Tracer::new(true);
        let mut seen = Vec::new();
        let (samples, wrong) = tr.sample("phase", "call", 3, Duration::ZERO, 5, |i| {
            seen.push(i);
            i != 4
        });
        assert_eq!(samples.len(), 5);
        assert_eq!(wrong, 1);
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Warm-up calls leave no span: 1 phase + 5 timed calls.
        assert_eq!(tr.spans().len(), 6);
        // The time budget keeps sampling past the minimum count.
        let (samples, _) = tr.sample("phase", "call", 0, Duration::from_millis(30), 1, |_| {
            std::thread::sleep(Duration::from_millis(1));
            true
        });
        assert!(samples.len() >= 2, "{}", samples.len());
    }
}
