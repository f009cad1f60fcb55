//! Lightweight span/counter/histogram telemetry for the whole recoded-SpMV
//! pipeline, exported as one stable JSON trace document.
//!
//! Everything here is plain data + `std` — no new dependencies. Both
//! executors always record their phase spans and block events into the
//! [`ExecStats`] they return, and [`TraceDocument::from_run`] folds those
//! stats into the document.
//!
//! ## Schema
//!
//! A [`TraceDocument`] (version [`TRACE_SCHEMA`]) aggregates:
//!
//! * [`Span`]s — wall-clock (`wall_ns`) and/or modeled (`modeled_seconds`)
//!   durations for each pipeline phase (`exec.decode_batch`, `exec.retry`,
//!   `exec.fallback`, `exec.reassemble`, `exec.mem_stream`, `exec.dma`,
//!   `exec.cpu_multiply`);
//! * counters — dotted lowercase names (`exec.blocks_retried`,
//!   `mem.read.compressed_stream`, ...);
//! * a log₂-bucketed [`CycleHistogram`] of per-block decode cycles;
//! * per-block [`BlockEvent`] records (job, stream, block, lane, cycles,
//!   outcome);
//! * the accelerator's per-lane/per-opcode-class breakdown (via
//!   `ExecStats::accel`), the codec's per-stage timings, and the memory
//!   traffic ledger by source.

use crate::arch::SystemConfig;
use crate::exec::{ExecStats, RecodedSpmv};
use crate::resilience::{BreakerState, CircuitBreaker};
use recode_codec::telemetry::CodecStageReport;
use recode_mem::traffic::{TrafficLedger, TrafficReport, TrafficSource};
use std::collections::BTreeMap;

mod serial;

/// Current trace-document schema identifier. v2 adds the resilience layer:
/// `pool.*` / `breaker.*` counters and an optional flight-recorder summary.
pub const TRACE_SCHEMA: &str = "recode-trace/v2";

/// The original schema. Documents without any v2 content are still stamped
/// (and [`TraceDocument::validate`]d) as v1, so traces from paths that never
/// touch the resilience machinery — and old golden fixtures — stay
/// byte-identical.
pub const TRACE_SCHEMA_V1: &str = "recode-trace/v1";

/// A log₂-bucketed histogram of `u64` samples (block decode cycles).
///
/// Bucket 0 holds zeros; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b - 1]`. Buckets are stored sparsely so the JSON stays
/// small and schema-stable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleHistogram {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Sparse `bucket index → count` map.
    pub buckets: BTreeMap<u8, u64>,
}

impl CycleHistogram {
    /// Fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` lands in.
    pub fn bucket_index(value: u64) -> u8 {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as u8
        }
    }

    /// Inclusive `[lo, hi]` value range of bucket `b`.
    pub fn bucket_range(b: u8) -> (u64, u64) {
        match b {
            0 => (0, 0),
            64 => (1u64 << 63, u64::MAX),
            b => (1u64 << (b - 1), (1u64 << b) - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(Self::bucket_index(value)).or_insert(0) += 1;
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// One named pipeline phase. `wall_ns` is host wall-clock time actually
/// spent simulating/executing the phase; `modeled_seconds` is the
/// architectural model's time for the phase (0.0 when not applicable).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted lowercase phase name (e.g. `exec.decode_batch`).
    pub name: String,
    /// Host wall-clock nanoseconds spent in the phase.
    pub wall_ns: u64,
    /// Modeled seconds on the simulated system (0.0 if not modeled).
    pub modeled_seconds: f64,
    /// Bytes the phase processed (0 if not meaningful).
    pub bytes: u64,
}

impl Span {
    /// A finished phase.
    pub fn new(name: &str, wall_ns: u64, modeled_seconds: f64, bytes: u64) -> Self {
        Span { name: name.to_string(), wall_ns, modeled_seconds, bytes }
    }
}

/// Which compressed stream a block belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Column-index stream.
    Index,
    /// Value stream.
    Value,
}

/// How a block's decode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockOutcome {
    /// Decoded cleanly on the first attempt.
    Ok,
    /// Failed at least once, recovered by a retry on a fresh lane.
    Retried,
    /// Retries exhausted; served from the raw fallback store.
    FellBack,
}

/// One block's journey through the decode batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockEvent {
    /// Job index in the interleaved batch.
    pub job: usize,
    /// Stream the block belongs to.
    pub stream: StreamKind,
    /// Block index within its stream.
    pub block: usize,
    /// Lane the job ran on (`job % lanes`).
    pub lane: usize,
    /// Decode cycles (the successful attempt's; 0 for fallback blocks).
    pub cycles: u64,
    /// Outcome classification.
    pub outcome: BlockOutcome,
}

/// Aggregate view of a flight-recorder session, embedded in v2 traces when
/// the recorder was enabled for the run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecorderSummary {
    /// Events accepted by the recorder over the run.
    pub recorded: u64,
    /// Events lost to ring overwrite (the ring never blocks the pipeline).
    pub dropped: u64,
    /// Ring capacity in events.
    pub capacity: usize,
    /// Drained events by kind label (`span_begin`, `block_outcome`, ...).
    pub by_kind: BTreeMap<String, u64>,
}

impl RecorderSummary {
    /// Builds the summary from a drained event list plus recorder stats.
    pub fn from_events(
        events: &[crate::recorder::Event],
        stats: crate::recorder::RecorderStats,
    ) -> Self {
        let mut by_kind = BTreeMap::new();
        for e in events {
            *by_kind.entry(e.kind.label().to_string()).or_insert(0u64) += 1;
        }
        RecorderSummary {
            recorded: stats.recorded,
            dropped: stats.dropped,
            capacity: stats.capacity,
            by_kind,
        }
    }
}

/// Matrix identity in a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatrixMeta {
    /// Display name (file stem or generator name; may be empty).
    pub name: String,
    /// Rows.
    pub nrows: usize,
    /// Columns.
    pub ncols: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Compressed wire bytes.
    pub compressed_bytes: usize,
    /// Compressed bytes per non-zero (raw CSR = 12.0).
    pub bytes_per_nnz: f64,
}

/// Simulated-platform identity in a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SystemMeta {
    /// Memory-system name.
    pub memory: String,
    /// UDP lanes.
    pub lanes: usize,
    /// UDP clock, Hz.
    pub freq_hz: f64,
}

/// The exported trace: one self-contained, schema-versioned JSON document.
#[derive(Debug, Clone)]
pub struct TraceDocument {
    /// Schema identifier ([`TRACE_SCHEMA`]).
    pub schema: String,
    /// Matrix identity.
    pub matrix: MatrixMeta,
    /// Platform identity.
    pub system: SystemMeta,
    /// Host wall-clock nanoseconds for the whole traced run.
    pub wall_ns_total: u64,
    /// Per-phase spans, in execution order.
    pub spans: Vec<Span>,
    /// Dotted-name counters.
    pub counters: BTreeMap<String, u64>,
    /// Log₂ histogram of per-block decode cycles.
    pub block_cycles: CycleHistogram,
    /// Per-block event records.
    pub block_events: Vec<BlockEvent>,
    /// Software-codec per-stage timings and byte counters.
    pub codec_stages: CodecStageReport,
    /// Memory traffic by source.
    pub mem_traffic: TrafficReport,
    /// Execution stats, including the accelerator report with per-lane
    /// profiles, opcode-class and stage cycle attribution.
    pub exec: ExecStats,
    /// Flight-recorder summary (v2; absent in v1 documents and when the
    /// recorder was off for the run).
    pub recorder: Option<RecorderSummary>,
}

impl TraceDocument {
    /// Folds one finished run of either executor over `recoded` into its
    /// document: the run's spans and block events, counters derived from
    /// its stats, memory traffic by source, the block-cycle histogram, and
    /// the schema stamp. `name` labels the matrix; `wall_ns_total` is the
    /// host time of the whole run.
    ///
    /// Counters and traffic follow the phases the run recorded: the
    /// `pipeline.overlap.*` and `cache.*` counters and the decoded-cache
    /// traffic belong to pipelined runs (an `exec.overlap` span), the
    /// dense-vector traffic to runs that multiplied (`exec.overlap` or
    /// `exec.cpu_multiply`), and the `pool.*` counters to runs that sampled
    /// the lane pool. `mem.read.<source>` / `mem.write.<source>` counters
    /// are derived from the same ledger as the traffic report, so the two
    /// can never disagree.
    pub fn from_run(
        recoded: &RecodedSpmv,
        sys: &SystemConfig,
        stats: &ExecStats,
        name: &str,
        wall_ns_total: u64,
    ) -> Self {
        let cm = recoded.compressed();
        let mut exec = stats.clone();
        let spans = std::mem::take(&mut exec.spans);
        let block_events = std::mem::take(&mut exec.block_events);
        let ran = |phase: &str| spans.iter().any(|s| s.name == phase);
        let pipelined = ran("exec.overlap");
        let multiplied = pipelined || ran("exec.cpu_multiply");

        let mut counters = BTreeMap::new();
        let mut add = |name: &str, value: u64| {
            counters.insert(name.to_string(), value);
        };
        add("exec.jobs", stats.accel.jobs as u64);
        add("exec.jobs_failed", stats.accel.jobs_failed as u64);
        add("exec.blocks_retried", stats.blocks_retried as u64);
        add("exec.blocks_fell_back", stats.blocks_fell_back as u64);
        add("exec.fallback_bytes", stats.fallback_bytes as u64);
        add("exec.retry_cycles", stats.retry_cycles);
        if let Some(p) = &stats.pool {
            add("pool.checkouts", p.checkouts);
            add("pool.recycled_hits", p.recycled_hits);
            add("pool.fresh_builds", p.fresh_builds);
            add("pool.returned", p.returned);
            add("pool.dropped_at_capacity", p.dropped_at_capacity);
            add("pool.quarantined", p.quarantined);
            add("pool.readmitted", p.readmitted);
        }
        let ov = &stats.overlap;
        if pipelined {
            add("pipeline.overlap.stages", ov.stages as u64);
            add("pipeline.overlap.decode_cycles", ov.decode_cycles);
            add("pipeline.overlap.multiply_cycles", ov.multiply_cycles);
            add("pipeline.overlap.makespan_cycles", ov.overlapped_makespan_cycles);
            add("pipeline.overlap.serial_cycles", ov.serial_makespan_cycles);
            add("pipeline.overlap.saved_cycles", ov.saved_cycles());
            add("cache.hits", ov.cache_hits);
            add("cache.misses", ov.cache_misses);
            add("cache.evictions", ov.cache_evictions);
            add("cache.hit_bytes", ov.cache_hit_bytes);
        }

        let mut traffic = TrafficLedger::new();
        traffic.read(TrafficSource::CompressedStream, stats.compressed_bytes as u64);
        traffic.read(TrafficSource::FallbackRefetch, stats.fallback_bytes as u64);
        traffic.read(TrafficSource::RowPtr, ((cm.nrows + 1) * 8) as u64);
        traffic.read(TrafficSource::DecodedCache, ov.cache_hit_bytes);
        if multiplied {
            traffic.read(TrafficSource::Vectors, (cm.ncols * 8) as u64);
            traffic.write(TrafficSource::Vectors, (cm.nrows * 8) as u64);
        }
        for s in TrafficSource::ALL {
            let (r, w) = (traffic.read_bytes(s), traffic.write_bytes(s));
            if r > 0 {
                add(&format!("mem.read.{}", s.name()), r);
            }
            if w > 0 {
                add(&format!("mem.write.{}", s.name()), w);
            }
        }

        let mut block_cycles = CycleHistogram::new();
        for e in &block_events {
            block_cycles.record(e.cycles);
        }
        let mut doc = TraceDocument {
            schema: TRACE_SCHEMA_V1.to_string(),
            matrix: MatrixMeta {
                name: name.to_string(),
                nrows: cm.nrows,
                ncols: cm.ncols,
                nnz: cm.nnz,
                compressed_bytes: stats.compressed_bytes,
                bytes_per_nnz: cm.bytes_per_nnz(),
            },
            system: SystemMeta {
                memory: sys.mem.name.to_string(),
                lanes: sys.udp.lanes,
                freq_hz: sys.udp.freq_hz,
            },
            wall_ns_total,
            spans,
            counters,
            block_cycles,
            block_events,
            codec_stages: recoded.stage_telemetry().map(|t| t.snapshot()).unwrap_or_default(),
            mem_traffic: traffic.report(&sys.mem),
            exec,
            recorder: None,
        };
        // Schema is content-dependent: a document only claims v2 when it
        // carries v2 content, so runs that never touch the resilience layer
        // keep emitting byte-identical v1 documents.
        if doc.has_v2_content() {
            doc.schema = TRACE_SCHEMA.to_string();
        }
        doc
    }

    /// Records the circuit breaker's posture after the run as `breaker.*`
    /// counters — v2 content, so this promotes the schema stamp.
    /// `breaker.state` is a code: 0 closed, 1 open, 2 half-open.
    pub fn attach_breaker(&mut self, breaker: &CircuitBreaker) {
        let state = match breaker.state() {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        };
        for (name, value) in [
            ("breaker.trips", breaker.trips()),
            ("breaker.probes", breaker.probes()),
            ("breaker.state", state),
        ] {
            self.counters.insert(name.to_string(), value);
        }
        self.schema = TRACE_SCHEMA.to_string();
    }

    /// Sum of measured span time (nanoseconds).
    pub fn spans_wall_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.wall_ns).sum()
    }

    /// Attaches a flight-recorder summary, which is v2-only content and so
    /// promotes the document's schema stamp.
    pub fn attach_recorder(&mut self, summary: RecorderSummary) {
        self.recorder = Some(summary);
        self.schema = TRACE_SCHEMA.to_string();
    }

    /// True when the document carries any v2-only content (resilience
    /// counters or a recorder summary).
    pub fn has_v2_content(&self) -> bool {
        self.recorder.is_some()
            || self.counters.keys().any(|k| k.starts_with("pool.") || k.starts_with("breaker."))
    }

    /// Structural validation: schema version plus the invariants the
    /// pipeline guarantees. Accepts both [`TRACE_SCHEMA`] (v2) and
    /// [`TRACE_SCHEMA_V1`] documents; a v1 stamp on v2 content is a
    /// violation. Returns a list of violations (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = Vec::new();
        match self.schema.as_str() {
            TRACE_SCHEMA => {}
            TRACE_SCHEMA_V1 => {
                if self.has_v2_content() {
                    errs.push(format!(
                        "document stamped `{TRACE_SCHEMA_V1}` carries v2 content \
                         (recorder summary or pool.*/breaker.* counters)"
                    ));
                }
            }
            other => {
                errs.push(format!(
                    "schema `{other}` is neither `{TRACE_SCHEMA}` nor `{TRACE_SCHEMA_V1}`"
                ));
            }
        }
        if let Some(rec) = &self.recorder {
            let drained: u64 = rec.by_kind.values().sum();
            if drained > rec.recorded {
                errs.push(format!(
                    "recorder summary drains {drained} events but only {} were recorded",
                    rec.recorded
                ));
            }
        }
        if self.spans_wall_ns() > self.wall_ns_total {
            errs.push(format!(
                "span wall time {} ns exceeds total {} ns",
                self.spans_wall_ns(),
                self.wall_ns_total
            ));
        }
        if self.block_cycles.count != self.block_events.len() as u64 {
            errs.push(format!(
                "histogram count {} != block events {}",
                self.block_cycles.count,
                self.block_events.len()
            ));
        }
        let event_cycles: u64 = self.block_events.iter().map(|e| e.cycles).sum();
        if self.block_cycles.sum != event_cycles {
            errs.push(format!(
                "histogram sum {} != event cycle sum {}",
                self.block_cycles.sum, event_cycles
            ));
        }
        // Certified-bound floor: a block that actually ran on a lane spent
        // at least one cycle (fallback blocks never ran and record zero).
        // The full envelope re-check — rebuilding the table-independent
        // stage programs and comparing against their certified CycleBounds —
        // lives in `recode trace-check --bounds`; this structural floor is
        // the part every trace can assert without access to the programs.
        for e in &self.block_events {
            if e.outcome != BlockOutcome::FellBack && e.cycles == 0 {
                errs.push(format!(
                    "block event (job {}, outcome {:?}) ran on a lane but recorded 0 cycles",
                    e.job, e.outcome
                ));
            }
        }
        let accel = &self.exec.accel;
        if !accel.lane_profiles.is_empty() && accel.lane_profiles.len() != accel.lanes {
            errs.push(format!(
                "{} lane profiles for {} lanes",
                accel.lane_profiles.len(),
                accel.lanes
            ));
        }
        let lane_busy: u64 =
            accel.lane_profiles.iter().map(|p| p.busy_cycles + p.stall_cycles).sum();
        // Retry cycles are folded into the batch totals after the fact, so
        // lane profiles may undercount busy cycles by exactly that much.
        if !accel.lane_profiles.is_empty()
            && lane_busy + self.exec.retry_cycles != accel.busy_cycles
        {
            errs.push(format!(
                "lane profiles sum to {} busy cycles, report says {} (retry {})",
                lane_busy, accel.busy_cycles, self.exec.retry_cycles
            ));
        }
        let traffic_total: u64 =
            self.mem_traffic.by_source.iter().map(|s| s.read_bytes + s.write_bytes).sum();
        if traffic_total != self.mem_traffic.total_bytes {
            errs.push(format!(
                "traffic by-source sum {} != total {}",
                traffic_total, self.mem_traffic.total_bytes
            ));
        }
        for (name, stat) in [
            ("exec.blocks_retried", self.exec.blocks_retried as u64),
            ("exec.blocks_fell_back", self.exec.blocks_fell_back as u64),
        ] {
            if self.counter(name) != stat {
                errs.push(format!(
                    "counter {name} = {} disagrees with exec stats {stat}",
                    self.counter(name)
                ));
            }
        }
        // Overlapped-schedule invariants. The batch path leaves OverlapStats
        // all-zero and emits none of these counters, so every check below is
        // vacuously true on old traces.
        let ov = &self.exec.overlap;
        if ov.overlapped_makespan_cycles > ov.serial_makespan_cycles {
            errs.push(format!(
                "overlapped makespan {} exceeds serial makespan {}",
                ov.overlapped_makespan_cycles, ov.serial_makespan_cycles
            ));
        }
        if ov.overlapped_makespan_cycles < ov.decode_cycles.max(ov.multiply_cycles) {
            errs.push(format!(
                "overlapped makespan {} below an engine's critical path (decode {}, multiply {})",
                ov.overlapped_makespan_cycles, ov.decode_cycles, ov.multiply_cycles
            ));
        }
        for (name, stat) in [
            ("pipeline.overlap.stages", ov.stages as u64),
            ("pipeline.overlap.decode_cycles", ov.decode_cycles),
            ("pipeline.overlap.multiply_cycles", ov.multiply_cycles),
            ("pipeline.overlap.makespan_cycles", ov.overlapped_makespan_cycles),
            ("pipeline.overlap.serial_cycles", ov.serial_makespan_cycles),
            ("cache.hits", ov.cache_hits),
            ("cache.misses", ov.cache_misses),
            ("cache.evictions", ov.cache_evictions),
            ("cache.hit_bytes", ov.cache_hit_bytes),
        ] {
            if self.counter(name) != stat {
                errs.push(format!(
                    "counter {name} = {} disagrees with overlap stats {stat}",
                    self.counter(name)
                ));
            }
        }
        if ov.enabled && self.exec.accel.makespan_cycles != ov.overlapped_makespan_cycles {
            errs.push(format!(
                "accel makespan {} != overlapped makespan {}",
                self.exec.accel.makespan_cycles, ov.overlapped_makespan_cycles
            ));
        }
        errs
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// Renders the human-readable `recode report` table for a trace.
pub fn render_report(doc: &TraceDocument) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let m = &doc.matrix;
    let _ = writeln!(out, "== recode trace report ({}) ==", doc.schema);
    let _ = writeln!(
        out,
        "matrix {}: {} x {}, {} nnz, {} compressed bytes ({:.2} B/nnz)",
        if m.name.is_empty() { "<unnamed>" } else { &m.name },
        m.nrows,
        m.ncols,
        m.nnz,
        m.compressed_bytes,
        m.bytes_per_nnz
    );
    let s = &doc.system;
    let _ =
        writeln!(out, "system: {} | {} UDP lanes @ {:.2} GHz", s.memory, s.lanes, s.freq_hz / 1e9);
    let _ = writeln!(out, "\n-- phases (wall {:.3} ms total) --", doc.wall_ns_total as f64 / 1e6);
    let _ = writeln!(out, "{:<20} {:>12} {:>14} {:>12}", "span", "wall us", "modeled us", "bytes");
    for sp in &doc.spans {
        let _ = writeln!(
            out,
            "{:<20} {:>12.1} {:>14.3} {:>12}",
            sp.name,
            sp.wall_ns as f64 / 1e3,
            sp.modeled_seconds * 1e6,
            sp.bytes
        );
    }
    let a = &doc.exec.accel;
    let _ = writeln!(out, "\n-- accelerator --");
    let _ = writeln!(
        out,
        "jobs {} (failed {}), makespan {} cycles, busy {}, utilization {:.1}%",
        a.jobs,
        a.jobs_failed,
        a.makespan_cycles,
        a.busy_cycles,
        a.lane_utilization * 100.0
    );
    let oc = &a.opclass;
    let total = oc.total().max(1);
    let _ = writeln!(
        out,
        "opcode classes: dispatch {:.1}% | alu {:.1}% | mem {:.1}% | stream {:.1}%",
        oc.dispatch as f64 * 100.0 / total as f64,
        oc.alu as f64 * 100.0 / total as f64,
        oc.mem as f64 * 100.0 / total as f64,
        oc.stream as f64 * 100.0 / total as f64
    );
    let st = &a.stage_cycles;
    let stotal = st.total().max(1);
    let _ = writeln!(
        out,
        "decode stages: huffman {:.1}% | snappy {:.1}% | delta {:.1}%",
        st.huffman as f64 * 100.0 / stotal as f64,
        st.snappy as f64 * 100.0 / stotal as f64,
        st.delta as f64 * 100.0 / stotal as f64
    );
    let h = &doc.block_cycles;
    let _ = writeln!(out, "\n-- per-block decode cycles (log2 buckets) --");
    let _ = writeln!(out, "count {}, mean {:.0}, min {}, max {}", h.count, h.mean(), h.min, h.max);
    for (&b, &c) in &h.buckets {
        let (lo, hi) = CycleHistogram::bucket_range(b);
        let _ = writeln!(out, "  [{lo:>10}, {hi:>10}] {c:>6}");
    }
    let _ = writeln!(out, "\n-- memory traffic ({}) --", doc.mem_traffic.memory);
    for src in &doc.mem_traffic.by_source {
        let _ = writeln!(
            out,
            "{:<20} read {:>12} B  write {:>12} B",
            src.source.name(),
            src.read_bytes,
            src.write_bytes
        );
    }
    let _ = writeln!(
        out,
        "total {} B, {:.3} us at peak bandwidth, {:.3} mJ",
        doc.mem_traffic.total_bytes,
        doc.mem_traffic.stream_seconds * 1e6,
        doc.mem_traffic.transfer_joules * 1e3
    );
    let cs = &doc.codec_stages;
    let _ = writeln!(out, "\n-- software codec stages --");
    for (dir, d) in [("encode", &cs.encode), ("decode", &cs.decode)] {
        for (stage, st) in [("delta", &d.delta), ("snappy", &d.snappy), ("huffman", &d.huffman)] {
            if st.calls == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "{dir:<7} {stage:<8} {:>8} blocks {:>12.1} us  {:>12} -> {:>12} B",
                st.calls,
                st.ns as f64 / 1e3,
                st.bytes_in,
                st.bytes_out
            );
        }
    }
    let e = &doc.exec;
    let _ = writeln!(out, "\n-- degradation --");
    let _ = writeln!(
        out,
        "retried {} | fell back {} | fallback bytes {} | retry cycles {} | degraded: {}",
        e.blocks_retried, e.blocks_fell_back, e.fallback_bytes, e.retry_cycles, e.degraded
    );
    let ov = &e.overlap;
    if ov.stages > 0 || ov.enabled {
        let _ = writeln!(out, "\n-- overlap --");
        let _ = writeln!(
            out,
            "pipelined: {} | stages {} | workers {} | decode {} cy | multiply {} cy",
            ov.enabled, ov.stages, ov.workers, ov.decode_cycles, ov.multiply_cycles
        );
        let _ = writeln!(
            out,
            "makespan {} cy overlapped vs {} cy serial (saved {} cy)",
            ov.overlapped_makespan_cycles,
            ov.serial_makespan_cycles,
            ov.saved_cycles()
        );
        let _ = writeln!(
            out,
            "cache: {} hits / {} misses / {} evictions, {} B served from cache",
            ov.cache_hits, ov.cache_misses, ov.cache_evictions, ov.cache_hit_bytes
        );
    }
    // Resilience section: only v2 documents carry pool/breaker counters or
    // a recorder summary, so v1 reports are unchanged byte-for-byte.
    if doc.has_v2_content() {
        let _ = writeln!(out, "\n-- resilience --");
        if doc.counters.keys().any(|k| k.starts_with("pool.")) {
            let _ = writeln!(
                out,
                "lane pool: {} checkouts ({} recycled, {} fresh, {} readmitted) | \
                 returned {} | dropped {} | quarantined {}",
                doc.counter("pool.checkouts"),
                doc.counter("pool.recycled_hits"),
                doc.counter("pool.fresh_builds"),
                doc.counter("pool.readmitted"),
                doc.counter("pool.returned"),
                doc.counter("pool.dropped_at_capacity"),
                doc.counter("pool.quarantined"),
            );
        }
        if doc.counters.keys().any(|k| k.starts_with("breaker.")) {
            let state = match doc.counter("breaker.state") {
                0 => "closed",
                1 => "open",
                _ => "half-open",
            };
            let _ = writeln!(
                out,
                "circuit breaker: state {state} | trips {} | probes {}",
                doc.counter("breaker.trips"),
                doc.counter("breaker.probes"),
            );
        }
        if let Some(rec) = &doc.recorder {
            let _ = writeln!(
                out,
                "flight recorder: {} events recorded, {} dropped (ring capacity {})",
                rec.recorded, rec.dropped, rec.capacity
            );
            for (kind, n) in &rec.by_kind {
                let _ = writeln!(out, "  {kind:<20} {n:>8}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_indexing_is_log2() {
        assert_eq!(CycleHistogram::bucket_index(0), 0);
        assert_eq!(CycleHistogram::bucket_index(1), 1);
        assert_eq!(CycleHistogram::bucket_index(2), 2);
        assert_eq!(CycleHistogram::bucket_index(3), 2);
        assert_eq!(CycleHistogram::bucket_index(4), 3);
        assert_eq!(CycleHistogram::bucket_index(1023), 10);
        assert_eq!(CycleHistogram::bucket_index(1024), 11);
        assert_eq!(CycleHistogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_bucket_ranges_tile_the_u64_line() {
        let (lo0, hi0) = CycleHistogram::bucket_range(0);
        assert_eq!((lo0, hi0), (0, 0));
        let mut expected_lo = 1u64;
        for b in 1..=63u8 {
            let (lo, hi) = CycleHistogram::bucket_range(b);
            assert_eq!(lo, expected_lo, "bucket {b}");
            assert_eq!(hi, lo * 2 - 1, "bucket {b}");
            // Every value in [lo, hi] maps back to bucket b.
            assert_eq!(CycleHistogram::bucket_index(lo), b);
            assert_eq!(CycleHistogram::bucket_index(hi), b);
            expected_lo = hi + 1;
        }
        assert_eq!(CycleHistogram::bucket_range(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn histogram_records_samples() {
        let mut a = CycleHistogram::new();
        for v in [0u64, 1, 5, 5, 1000] {
            a.record(v);
        }
        assert_eq!(a.count, 5);
        assert_eq!(a.sum, 1011);
        assert_eq!(a.min, 0);
        assert_eq!(a.max, 1000);
        assert_eq!(a.buckets[&0], 1);
        assert_eq!(a.buckets[&3], 2, "two fives in [4,7]");
    }
}
