//! Point-in-time metrics snapshot rendered as Prometheus text exposition.
//!
//! [`MetricsSnapshot`] is built from the same [`TraceDocument`] counters
//! `validate()` already cross-checks, so the scrape surface can never
//! disagree with the trace. `recode metrics` prints the exposition to
//! stdout today; a future `recode-serve` serves the identical bytes over
//! HTTP (ROADMAP item 1).
//!
//! Naming follows the Prometheus conventions: dotted trace counters map to
//! underscored metric names under the `recode_` prefix (`exec.jobs` →
//! `recode_exec_jobs`), monotonic values are typed `counter`, point-in-time
//! values `gauge`, and per-span wall times share one family with a `span`
//! label.

use crate::telemetry::TraceDocument;
use std::fmt::Write as _;

/// One metric family: name, type, help, and its samples (label-less or
/// labeled with a single key).
#[derive(Debug, Clone, PartialEq)]
struct Family {
    name: String,
    kind: &'static str,
    help: String,
    /// `(optional ("key", "value") label, sample value)`.
    samples: Vec<(Option<(String, String)>, f64)>,
}

/// A renderable set of metric families derived from one trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    families: Vec<Family>,
}

/// `exec.blocks_fell_back` → `recode_exec_blocks_fell_back`.
fn metric_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 7);
    out.push_str("recode_");
    for c in dotted.chars() {
        out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    out
}

impl MetricsSnapshot {
    /// Derives the snapshot from a sealed trace document.
    pub fn from_document(doc: &TraceDocument) -> Self {
        let mut families = Vec::new();

        for (name, value) in &doc.counters {
            families.push(Family {
                name: metric_name(name),
                kind: "counter",
                help: format!("Trace counter `{name}`."),
                samples: vec![(None, *value as f64)],
            });
        }

        let mut push_gauge = |name: &str, help: &str, value: f64| {
            families.push(Family {
                name: metric_name(name),
                kind: "gauge",
                help: help.to_string(),
                samples: vec![(None, value)],
            });
        };
        push_gauge(
            "trace.wall_ns_total",
            "Host wall-clock nanoseconds for the traced run.",
            doc.wall_ns_total as f64,
        );
        push_gauge("matrix.nnz", "Stored non-zeros of the traced matrix.", doc.matrix.nnz as f64);
        push_gauge(
            "matrix.bytes_per_nnz",
            "Compressed bytes per non-zero.",
            doc.matrix.bytes_per_nnz,
        );
        push_gauge(
            "accel.lane_utilization",
            "Busy fraction of the accelerator's lane-cycle envelope.",
            doc.exec.accel.lane_utilization,
        );
        push_gauge(
            "accel.makespan_cycles",
            "Accelerator makespan in lane cycles.",
            doc.exec.accel.makespan_cycles as f64,
        );
        if let Some(rec) = &doc.recorder {
            push_gauge(
                "recorder.recorded",
                "Flight-recorder events accepted.",
                rec.recorded as f64,
            );
            push_gauge(
                "recorder.dropped",
                "Flight-recorder events lost to ring overwrite.",
                rec.dropped as f64,
            );
            if !rec.by_kind.is_empty() {
                families.push(Family {
                    name: "recode_recorder_events_total".to_string(),
                    kind: "counter",
                    help: "Flight-recorder events drained, by kind (jit_compile = \
                           JIT compilations observed during the run)."
                        .to_string(),
                    samples: rec
                        .by_kind
                        .iter()
                        .map(|(k, n)| (Some(("kind".to_string(), k.clone())), *n as f64))
                        .collect(),
                });
            }
        }

        if !doc.spans.is_empty() {
            families.push(Family {
                name: "recode_span_wall_ns".to_string(),
                kind: "gauge",
                help: "Host wall-clock nanoseconds per pipeline phase.".to_string(),
                samples: doc
                    .spans
                    .iter()
                    .map(|s| (Some(("span".to_string(), s.name.clone())), s.wall_ns as f64))
                    .collect(),
            });
        }

        MetricsSnapshot { families }
    }

    /// Renders the Prometheus text exposition (format version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.name, f.help);
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.kind);
            for (label, value) in &f.samples {
                let v = format_value(*value);
                match label {
                    Some((k, val)) => {
                        let _ = writeln!(out, "{}{{{}=\"{}\"}} {v}", f.name, k, escape_label(val));
                    }
                    None => {
                        let _ = writeln!(out, "{} {v}", f.name);
                    }
                }
            }
        }
        out
    }

    /// Number of metric families in the snapshot.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// True when the snapshot carries no families.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }
}

/// Integral values print without an exponent or decimal; the rest use
/// Rust's shortest round-trip form (valid Prometheus floats either way).
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{
        CycleHistogram, MatrixMeta, RecorderSummary, Span, SystemMeta, TRACE_SCHEMA,
    };
    use recode_mem::traffic::TrafficLedger;
    use recode_mem::MemorySystem;
    use std::collections::BTreeMap;

    fn doc() -> TraceDocument {
        let mut doc = TraceDocument {
            schema: TRACE_SCHEMA.to_string(),
            matrix: MatrixMeta {
                name: "m".into(),
                nnz: 100,
                bytes_per_nnz: 4.5,
                ..MatrixMeta::default()
            },
            system: SystemMeta::default(),
            wall_ns_total: 5_000,
            spans: vec![Span::new("exec.decode_batch", 1_000, 0.0, 64)],
            counters: BTreeMap::from([
                ("exec.jobs".to_string(), 8),
                ("pool.checkouts".to_string(), 3),
            ]),
            block_cycles: CycleHistogram::new(),
            block_events: Vec::new(),
            codec_stages: recode_codec::telemetry::CodecStageReport::default(),
            mem_traffic: TrafficLedger::new().report(&MemorySystem::ddr4()),
            exec: crate::exec::ExecStats::default(),
            recorder: None,
        };
        doc.attach_recorder(RecorderSummary {
            recorded: 10,
            dropped: 2,
            capacity: 256,
            by_kind: BTreeMap::from([
                ("jit_compile".to_string(), 7u64),
                ("block_done".to_string(), 3u64),
            ]),
        });
        doc
    }

    #[test]
    fn exposition_names_types_and_values_line_up() {
        let text = MetricsSnapshot::from_document(&doc()).render_prometheus();
        assert!(text.contains("# TYPE recode_exec_jobs counter"), "{text}");
        assert!(text.contains("\nrecode_exec_jobs 8\n"), "{text}");
        assert!(text.contains("# TYPE recode_pool_checkouts counter"), "{text}");
        assert!(text.contains("# TYPE recode_matrix_bytes_per_nnz gauge"), "{text}");
        assert!(text.contains("\nrecode_matrix_bytes_per_nnz 4.5\n"), "{text}");
        assert!(text.contains("recode_span_wall_ns{span=\"exec.decode_batch\"} 1000"), "{text}");
        assert!(text.contains("\nrecode_recorder_dropped 2\n"), "{text}");
        assert!(text.contains("recode_recorder_events_total{kind=\"jit_compile\"} 7"), "{text}");
        assert!(text.contains("recode_recorder_events_total{kind=\"block_done\"} 3"), "{text}");
        // Every sample line's family has HELP and TYPE preceding it.
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let family = line.split(['{', ' ']).next().expect("metric name");
            assert!(text.contains(&format!("# TYPE {family} ")), "untyped family {family}");
        }
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("exec.blocks_fell_back"), "recode_exec_blocks_fell_back");
        assert_eq!(metric_name("mem.read.compressed-stream"), "recode_mem_read_compressed_stream");
    }
}
