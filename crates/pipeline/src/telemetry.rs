//! Structured per-run telemetry: every pipeline run appends typed events
//! (stage completions with wall time and node counts, cache hits/misses,
//! poisoned-entry rebuilds) to a [`Telemetry`] sink threaded through the
//! shared [`crate::PipelineCtx`]. The sink renders to a hand-rolled JSON
//! event stream for `--telemetry json` and is queryable in tests — the
//! cache-reuse guarantee ("a warm run performs zero ADD apply steps") is
//! asserted against it.

use std::time::Duration;

/// The canonical stages of the build/eval path, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Netlist acquisition: file parse (BLIF/Verilog) or benchmark
    /// generation.
    ParseNetlist,
    /// Capacitive back-annotation against the cell library.
    Annotate,
    /// The budgeted symbolic gate loop (paper Fig. 6) accumulating
    /// partial-sum ADDs.
    BuildAdd,
    /// Partial-sum fold, size-ceiling enforcement, diagonal gating and
    /// leaf recalibration down to the finished model.
    Collapse,
    /// Flattening the model ADD into an arena-free evaluation kernel.
    CompileKernel,
    /// Batched trace evaluation on the compiled kernel.
    Evaluate,
}

impl Stage {
    /// Stable kebab-case name (used in JSON and log lines).
    pub fn name(self) -> &'static str {
        match self {
            Stage::ParseNetlist => "parse-netlist",
            Stage::Annotate => "annotate",
            Stage::BuildAdd => "build-add",
            Stage::Collapse => "collapse",
            Stage::CompileKernel => "compile-kernel",
            Stage::Evaluate => "evaluate",
        }
    }
}

/// One telemetry event.
#[derive(Debug, Clone)]
pub enum Event {
    /// A stage ran to completion.
    Stage {
        /// Which stage.
        stage: Stage,
        /// Wall time the stage took.
        wall: Duration,
        /// The decision-diagram node count most relevant to the stage
        /// (live arena nodes after `BuildAdd`, final model size after
        /// `Collapse`), when one exists.
        nodes: Option<u64>,
        /// Degradation rungs taken by the stage.
        rungs: u64,
        /// Free-form one-line detail.
        detail: String,
    },
    /// An artifact was served from the content-addressed store.
    CacheHit {
        /// Content hash (hex).
        key: String,
    },
    /// No artifact was stored under the key; the stage ran cold.
    CacheMiss {
        /// Content hash (hex).
        key: String,
    },
    /// A freshly built artifact was written to the store.
    CacheStored {
        /// Content hash (hex).
        key: String,
    },
    /// An artifact file existed under the key but failed validation; the
    /// pipeline rebuilt instead of serving it.
    CachePoisoned {
        /// Content hash (hex).
        key: String,
        /// Why the entry was rejected.
        reason: String,
    },
    /// Writing a freshly built artifact to the store failed; the run
    /// continued uncached.
    CacheStoreFailed {
        /// Content hash (hex).
        key: String,
        /// The write failure.
        reason: String,
    },
}

/// An append-only event sink threaded through the whole pipeline run.
#[derive(Debug, Default)]
pub struct Telemetry {
    events: Vec<Event>,
}

impl Telemetry {
    /// An empty sink.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// Appends an event.
    pub fn emit(&mut self, event: Event) {
        self.events.push(event);
    }

    /// All events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of cache hits recorded.
    pub fn cache_hits(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::CacheHit { .. }))
            .count()
    }

    /// Number of cache misses recorded (poisoned
    /// entries count as misses — the artifact was rebuilt).
    pub fn cache_misses(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::CacheMiss { .. } | Event::CachePoisoned { .. }))
            .count()
    }

    /// Whether any completed stage matches `stage`.
    pub fn stage_ran(&self, stage: Stage) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, Event::Stage { stage: s, .. } if *s == stage))
    }

    /// Renders the event stream as a JSON array (one object per event).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, event) in self.events.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&event_json(event));
            if i + 1 < self.events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push(']');
        out
    }
}

fn event_json(event: &Event) -> String {
    match event {
        Event::Stage {
            stage,
            wall,
            nodes,
            rungs,
            detail,
        } => {
            let mut obj = format!(
                "{{\"event\": \"stage\", \"stage\": \"{}\", \"wall_ms\": {:.3}",
                stage.name(),
                wall.as_secs_f64() * 1e3
            );
            if let Some(nodes) = nodes {
                obj.push_str(&format!(", \"nodes\": {nodes}"));
            }
            if *rungs > 0 {
                obj.push_str(&format!(", \"degradation_rungs\": {rungs}"));
            }
            obj.push_str(&format!(", \"detail\": \"{}\"}}", json_escape(detail)));
            obj
        }
        Event::CacheHit { key } => cache_json("cache-hit", key, None),
        Event::CacheMiss { key } => cache_json("cache-miss", key, None),
        Event::CacheStored { key } => cache_json("cache-stored", key, None),
        Event::CachePoisoned { key, reason } => cache_json("cache-poisoned", key, Some(reason)),
        Event::CacheStoreFailed { key, reason } => {
            cache_json("cache-store-failed", key, Some(reason))
        }
    }
}

fn cache_json(event: &str, key: &str, reason: Option<&str>) -> String {
    let mut obj = format!(
        "{{\"event\": \"{event}\", \"key\": \"{}\"",
        json_escape(key)
    );
    if let Some(reason) = reason {
        obj.push_str(&format!(", \"reason\": \"{}\"", json_escape(reason)));
    }
    obj.push('}');
    obj
}

/// Escapes a string for embedding in a JSON literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_json() {
        let mut t = Telemetry::new();
        t.emit(Event::Stage {
            stage: Stage::BuildAdd,
            wall: Duration::from_millis(12),
            nodes: Some(345),
            rungs: 1,
            detail: "8 gates".to_owned(),
        });
        t.emit(Event::CacheMiss {
            key: "abc123".to_owned(),
        });
        t.emit(Event::CacheHit {
            key: "abc123".to_owned(),
        });
        t.emit(Event::CachePoisoned {
            key: "abc123".to_owned(),
            reason: "bad \"header\"".to_owned(),
        });
        assert_eq!(t.cache_hits(), 1);
        assert_eq!(t.cache_misses(), 2);
        assert!(t.stage_ran(Stage::BuildAdd));
        assert!(!t.stage_ran(Stage::Evaluate));
        let json = t.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"stage\": \"build-add\""), "{json}");
        assert!(json.contains("\"nodes\": 345"), "{json}");
        assert!(json.contains("\"degradation_rungs\": 1"), "{json}");
        assert!(json.contains("\"event\": \"cache-poisoned\""), "{json}");
        assert!(json.contains("bad \\\"header\\\""), "{json}");
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Stage::ParseNetlist.name(), "parse-netlist");
        assert_eq!(Stage::CompileKernel.name(), "compile-kernel");
    }
}
