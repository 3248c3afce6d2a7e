//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; nothing inside the crates is instrumented. A span has
//! a name (which names its layer), start and end offsets from the trace
//! origin, its parent, and an id (program / pair / trial). A layer's self
//! time is the sum over its spans of duration minus the duration of their
//! children. Spans stay in memory until the run ends and are then written
//! out as tab-separated text.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// What a span covers, by position in the workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanId {
    pub program: u32,
    pub pair: u32,
    pub trial: u32,
}

#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `racefuzzer.trial`; `pass` is the root.
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub id: SpanId,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span is charged to: the part of its name before the
    /// first dot. The root `pass` span belongs to no layer.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, id: SpanId) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `index`.
    pub fn exit(&mut self, index: usize) {
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(index), "spans must nest");
        self.spans[index].end = self.now();
    }

    /// Times `body` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, id: SpanId, body: impl FnOnce() -> T) -> T {
        let index = self.enter(name, id);
        let value = body();
        self.exit(index);
        value
    }

    /// Records an already-measured span under the innermost open span (the
    /// campaign's trial runner measures its own spans while the campaign
    /// holds the thread).
    pub fn record(&mut self, name: &'static str, start: Duration, end: Duration, id: SpanId) {
        self.spans.push(Span {
            name,
            start,
            end,
            parent: self.open.last().copied(),
            id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Sum of durations of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Durations of the spans named `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Self time per layer, in seconds.
    pub fn layer_self_time(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.duration();
            }
        }
        let mut layers = BTreeMap::new();
        for (span, inner) in self.spans.iter().zip(children) {
            if let Some(layer) = span.layer() {
                *layers.entry(layer).or_insert(0.0) +=
                    span.duration().saturating_sub(inner).as_secs_f64();
            }
        }
        layers
    }

    /// Share of `wall` covered by layer spans: the summed self time of
    /// every layer, which equals the union of the outermost layer spans
    /// because spans nest.
    pub fn coverage(&self, wall: Duration) -> f64 {
        let covered: f64 = self.layer_self_time().values().sum();
        covered / wall.as_secs_f64().max(f64::EPSILON)
    }

    /// The spans as tab-separated text: index, name, start and end in
    /// microseconds, parent index (`-` for none), program, pair, trial.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_us\tend_us\tparent\tprogram\tpair\ttrial\n");
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |parent| parent.to_string());
            let _ = writeln!(
                out,
                "{index}\t{}\t{}\t{}\t{parent}\t{}\t{}\t{}",
                span.name,
                span.start.as_micros(),
                span.end.as_micros(),
                span.id.program,
                span.id.pair,
                span.id.trial
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut trace = Trace::new();
        let id = SpanId::default();
        let ms = Duration::from_millis;
        trace.spans = vec![
            Span {
                name: "pass",
                start: ms(0),
                end: ms(100),
                parent: None,
                id,
            },
            Span {
                name: "racefuzzer.pair",
                start: ms(10),
                end: ms(60),
                parent: Some(0),
                id,
            },
            Span {
                name: "racefuzzer.trial",
                start: ms(20),
                end: ms(50),
                parent: Some(1),
                id,
            },
            Span {
                name: "detector.predict",
                start: ms(60),
                end: ms(90),
                parent: Some(0),
                id,
            },
        ];
        let layers = trace.layer_self_time();
        assert!((layers["racefuzzer"] - 0.050).abs() < 1e-9);
        assert!((layers["detector"] - 0.030).abs() < 1e-9);
        assert!(!layers.contains_key("pass"));
        assert!((trace.coverage(ms(100)) - 0.8).abs() < 1e-9);
    }
}
