//! Reads the program's existing trace spans back from the flight recorder
//! during a traced run. The benchmark adds no span of its own inside the
//! program.

use std::collections::HashMap;

use alvc::telemetry::recorder::{clear_recorder, configure_recorder, recorder_entries, RecorderEntry};
use alvc::telemetry::trace::set_tracing_enabled;
use alvc::telemetry::SpanId;

use crate::stats::Samples;

/// Span names whose durations are reported as per-layer metrics.
pub const LAYER_SPANS: [&str; 3] = ["nfv.place", "nfv.admit_bandwidth", "nfv.install_rules"];

/// Recorder entries retained between drains. Draining walks every slot,
/// so the recorder is kept small and drained every
/// [`DRAIN_EVERY_INTENTS`] executed intents, well before it wraps.
const RECORDER_CAPACITY: usize = 1 << 15;

/// Executed intents between drains (each emits about ten spans).
pub const DRAIN_EVERY_INTENTS: usize = 1024;

/// Span aggregates of a traced run.
#[derive(Debug, Default)]
pub struct SpanStats {
    /// Durations of each of [`LAYER_SPANS`], µs.
    pub layer_us: HashMap<&'static str, Samples>,
    /// Σ root `intent` span durations, µs.
    pub root_us: f64,
    /// Σ over roots of the part covered by their direct named children
    /// (capped at the root's own duration), µs.
    pub attributed_us: f64,
}

impl SpanStats {
    /// Turns causal tracing on with an empty recorder.
    pub fn start() -> SpanStats {
        configure_recorder(RECORDER_CAPACITY);
        clear_recorder();
        set_tracing_enabled(true);
        SpanStats::default()
    }

    /// Turns causal tracing off and folds in what is left.
    pub fn stop(&mut self) {
        set_tracing_enabled(false);
        self.drain();
    }

    /// Folds every recorded span into the aggregates and empties the
    /// recorder. Call it between batches only: an intent's root span and
    /// its children are recorded within the batch that runs it, so both
    /// land in the same drain.
    pub fn drain(&mut self) {
        let spans: Vec<_> = recorder_entries()
            .into_iter()
            .filter_map(|e| match e {
                RecorderEntry::Span(s) => Some(s),
                _ => None,
            })
            .collect();
        clear_recorder();
        // Direct-child time per parent span. `intent.execute_bulk` covers
        // a whole coalesced run and is re-attributed per intent by each
        // `intent.execute`, so it is left out.
        let mut children: HashMap<SpanId, f64> = HashMap::new();
        for span in &spans {
            if let Some(&name) = LAYER_SPANS.iter().find(|&&n| n == span.name) {
                self.layer_us.entry(name).or_default().push(span.duration_us);
            }
            if !span.parent.is_none() && span.name != "intent.execute_bulk" {
                *children.entry(span.parent).or_default() += span.duration_us;
            }
        }
        for span in spans.iter().filter(|s| s.name == "intent" && s.parent.is_none()) {
            let covered = children.get(&span.span).copied().unwrap_or(0.0);
            self.root_us += span.duration_us;
            self.attributed_us += covered.min(span.duration_us);
        }
    }

    /// Share of root `intent` time covered by the program's named child
    /// spans.
    pub fn attributed_ratio(&self) -> f64 {
        if self.root_us == 0.0 {
            0.0
        } else {
            self.attributed_us / self.root_us
        }
    }

    /// Median duration of a layer span, µs (0 when never recorded).
    pub fn layer_p50(&self, name: &str) -> f64 {
        self.layer_us.get(name).map_or(0.0, Samples::median)
    }
}
