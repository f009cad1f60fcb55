//! The JSON form of a [`TraceDocument`].
//!
//! Field names, field order and unit-enum spellings follow the schema every
//! committed trace uses. The optional parts are the ones the schema grew
//! over time, and the reader restores them when an older trace omits them:
//! `exec.retry_cycles`, `exec.backoff_cycles`, `exec.software_decode`,
//! `exec.overlap` (and each of its fields), `exec.accel.lane_profiles`,
//! `exec.accel.opclass`, `exec.accel.stage_cycles` and `recorder` default
//! when absent. The writer leaves out `backoff_cycles` when zero,
//! `software_decode` when false and `recorder` when `None`, so clean runs
//! still render as v1 documents; `blocks_ok` and `blocks_recovered` are
//! in-memory accounting and never written. The run's `spans`,
//! `block_events` and `pool` deltas are written at the document's top
//! level (the pool deltas as `pool.*` counters), never inside `exec`.

use super::{
    BlockEvent, BlockOutcome, CycleHistogram, MatrixMeta, RecorderSummary, Span, StreamKind,
    SystemMeta, TraceDocument,
};
use crate::exec::ExecStats;
use crate::json::{parse, FromJson, Json, ToJson};
use crate::overlap::OverlapStats;
use recode_codec::telemetry::{CodecStageReport, DirectionStats, StageStats};
use recode_mem::traffic::{SourceTraffic, TrafficReport, TrafficSource};
use recode_udp::accel::{AccelReport, LaneProfile, StageCycles};
use recode_udp::lane::OpClassCycles;
use std::collections::BTreeMap;

/// Depth from which flat objects are written on one line: the codec
/// stages, the opcode-class and stage-cycle splits.
const RECORDS_FROM: usize = 3;

impl TraceDocument {
    /// The document as pretty JSON, one record (span, block event, traffic
    /// source, codec stage) per line, with a trailing newline.
    pub fn to_json_string(&self) -> String {
        let mut s = self.to_json().to_string_pretty_records(RECORDS_FROM);
        s.push('\n');
        s
    }

    /// Parses a trace document written by [`Self::to_json_string`] or by
    /// any earlier version of the schema.
    ///
    /// # Errors
    /// A JSON syntax error, or a message naming the first field that is
    /// missing or of the wrong type.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        Self::from_json(&parse(text)?)
    }
}

impl ToJson for TraceDocument {
    fn to_json(&self) -> Json {
        let doc = Json::obj()
            .set("schema", self.schema.to_json())
            .set("matrix", self.matrix.to_json())
            .set("system", self.system.to_json())
            .set("wall_ns_total", self.wall_ns_total.to_json())
            .set("spans", self.spans.to_json())
            .set("counters", self.counters.to_json())
            .set("block_cycles", self.block_cycles.to_json())
            .set("block_events", self.block_events.to_json())
            .set("codec_stages", self.codec_stages.to_json())
            .set("mem_traffic", self.mem_traffic.to_json())
            .set("exec", self.exec.to_json());
        match &self.recorder {
            Some(r) => doc.set("recorder", r.to_json()),
            None => doc,
        }
    }
}

impl FromJson for TraceDocument {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(TraceDocument {
            schema: v.field("schema")?,
            matrix: v.field("matrix")?,
            system: v.field("system")?,
            wall_ns_total: v.field("wall_ns_total")?,
            spans: v.field("spans")?,
            counters: v.field("counters")?,
            block_cycles: v.field("block_cycles")?,
            block_events: v.field("block_events")?,
            codec_stages: v.field("codec_stages")?,
            mem_traffic: v.field("mem_traffic")?,
            exec: v.field("exec")?,
            recorder: v.field_or_default("recorder")?,
        })
    }
}

crate::impl_json!(MatrixMeta { name, nrows, ncols, nnz, compressed_bytes, bytes_per_nnz });

crate::impl_json!(SystemMeta { memory, lanes, freq_hz });

crate::impl_json!(Span { name, wall_ns, modeled_seconds, bytes });

/// Bucket keys are written as decimal strings, as JSON object keys must be.
impl ToJson for CycleHistogram {
    fn to_json(&self) -> Json {
        let buckets = self.buckets.iter().map(|(b, c)| (b.to_string(), c.to_json())).collect();
        Json::obj()
            .set("count", self.count.to_json())
            .set("sum", self.sum.to_json())
            .set("min", self.min.to_json())
            .set("max", self.max.to_json())
            .set("buckets", Json::Obj(buckets))
    }
}

impl FromJson for CycleHistogram {
    fn from_json(v: &Json) -> Result<Self, String> {
        let buckets: BTreeMap<String, u64> = v.field("buckets")?;
        Ok(CycleHistogram {
            count: v.field("count")?,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
            buckets: buckets
                .into_iter()
                .map(|(k, c)| {
                    k.parse::<u8>().map(|b| (b, c)).map_err(|_| format!("bad bucket key `{k}`"))
                })
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Unit variants are written as their names.
fn variant_name<T: std::fmt::Debug>(v: &T) -> Json {
    Json::Str(format!("{v:?}"))
}

/// Reads a unit variant back by name from the full list of variants.
fn variant_from<T: std::fmt::Debug + Copy>(v: &Json, all: &[T]) -> Result<T, String> {
    let name = v.as_str().ok_or_else(|| format!("expected a variant name, got {v}"))?;
    all.iter()
        .copied()
        .find(|x| format!("{x:?}") == name)
        .ok_or_else(|| format!("unknown variant `{name}`"))
}

impl ToJson for StreamKind {
    fn to_json(&self) -> Json {
        variant_name(self)
    }
}

impl FromJson for StreamKind {
    fn from_json(v: &Json) -> Result<Self, String> {
        variant_from(v, &[StreamKind::Index, StreamKind::Value])
    }
}

impl ToJson for BlockOutcome {
    fn to_json(&self) -> Json {
        variant_name(self)
    }
}

impl FromJson for BlockOutcome {
    fn from_json(v: &Json) -> Result<Self, String> {
        variant_from(v, &[BlockOutcome::Ok, BlockOutcome::Retried, BlockOutcome::FellBack])
    }
}

impl ToJson for TrafficSource {
    fn to_json(&self) -> Json {
        variant_name(self)
    }
}

impl FromJson for TrafficSource {
    fn from_json(v: &Json) -> Result<Self, String> {
        variant_from(v, &TrafficSource::ALL)
    }
}

crate::impl_json!(BlockEvent { job, stream, block, lane, cycles, outcome });

crate::impl_json!(RecorderSummary { recorded, dropped, capacity, by_kind });

crate::impl_json!(StageStats { calls, ns, bytes_in, bytes_out });

crate::impl_json!(DirectionStats { delta, snappy, huffman });

crate::impl_json!(CodecStageReport { encode, decode });

crate::impl_json!(SourceTraffic { source, read_bytes, write_bytes });

crate::impl_json!(TrafficReport {
    memory,
    by_source,
    total_bytes,
    stream_seconds,
    transfer_joules
});

crate::impl_json!(OpClassCycles { dispatch, alu, mem, stream });

crate::impl_json!(StageCycles { huffman, snappy, delta });

crate::impl_json!(LaneProfile {
    lane,
    jobs,
    jobs_failed,
    busy_cycles,
    stall_cycles,
    output_bytes,
    opclass
});

crate::impl_to_json!(AccelReport {
    jobs,
    jobs_failed,
    lanes,
    makespan_cycles,
    busy_cycles,
    injected_stall_cycles,
    output_bytes,
    lane_utilization,
    freq_hz,
    lane_profiles,
    opclass,
    stage_cycles
});

impl FromJson for AccelReport {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(AccelReport {
            jobs: v.field("jobs")?,
            jobs_failed: v.field("jobs_failed")?,
            lanes: v.field("lanes")?,
            makespan_cycles: v.field("makespan_cycles")?,
            busy_cycles: v.field("busy_cycles")?,
            injected_stall_cycles: v.field("injected_stall_cycles")?,
            output_bytes: v.field("output_bytes")?,
            lane_utilization: v.field("lane_utilization")?,
            freq_hz: v.field("freq_hz")?,
            lane_profiles: v.field_or_default("lane_profiles")?,
            opclass: v.field_or_default("opclass")?,
            stage_cycles: v.field_or_default("stage_cycles")?,
        })
    }
}

crate::impl_to_json!(OverlapStats {
    enabled,
    stages,
    workers,
    decode_cycles,
    multiply_cycles,
    overlapped_makespan_cycles,
    serial_makespan_cycles,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_hit_bytes
});

/// Every field is optional: traces from before the overlapped executor
/// carry none of them.
impl FromJson for OverlapStats {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(OverlapStats {
            enabled: v.field_or_default("enabled")?,
            stages: v.field_or_default("stages")?,
            workers: v.field_or_default("workers")?,
            decode_cycles: v.field_or_default("decode_cycles")?,
            multiply_cycles: v.field_or_default("multiply_cycles")?,
            overlapped_makespan_cycles: v.field_or_default("overlapped_makespan_cycles")?,
            serial_makespan_cycles: v.field_or_default("serial_makespan_cycles")?,
            cache_hits: v.field_or_default("cache_hits")?,
            cache_misses: v.field_or_default("cache_misses")?,
            cache_evictions: v.field_or_default("cache_evictions")?,
            cache_hit_bytes: v.field_or_default("cache_hit_bytes")?,
        })
    }
}

impl ToJson for ExecStats {
    fn to_json(&self) -> Json {
        let mut e = Json::obj()
            .set("accel", self.accel.to_json())
            .set("mem_stream_seconds", self.mem_stream_seconds.to_json())
            .set("dma_seconds", self.dma_seconds.to_json())
            .set("compressed_bytes", self.compressed_bytes.to_json())
            .set("blocks_retried", self.blocks_retried.to_json())
            .set("blocks_fell_back", self.blocks_fell_back.to_json())
            .set("fallback_bytes", self.fallback_bytes.to_json())
            .set("retry_cycles", self.retry_cycles.to_json());
        if self.backoff_cycles != 0 {
            e = e.set("backoff_cycles", self.backoff_cycles.to_json());
        }
        e = e.set("degraded", self.degraded.to_json());
        if self.software_decode {
            e = e.set("software_decode", true.to_json());
        }
        e.set("overlap", self.overlap.to_json())
    }
}

impl FromJson for ExecStats {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ExecStats {
            accel: v.field("accel")?,
            mem_stream_seconds: v.field("mem_stream_seconds")?,
            dma_seconds: v.field("dma_seconds")?,
            compressed_bytes: v.field("compressed_bytes")?,
            blocks_retried: v.field("blocks_retried")?,
            blocks_fell_back: v.field("blocks_fell_back")?,
            fallback_bytes: v.field("fallback_bytes")?,
            retry_cycles: v.field_or_default("retry_cycles")?,
            backoff_cycles: v.field_or_default("backoff_cycles")?,
            degraded: v.field("degraded")?,
            software_decode: v.field_or_default("software_decode")?,
            blocks_ok: 0,
            blocks_recovered: 0,
            overlap: v.field_or_default("overlap")?,
            spans: Vec::new(),
            block_events: Vec::new(),
            pool: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TRACE_SCHEMA_V1;
    use recode_mem::traffic::TrafficLedger;
    use recode_mem::MemorySystem;

    fn doc() -> TraceDocument {
        let event = BlockEvent {
            job: 0,
            stream: StreamKind::Value,
            block: 0,
            lane: 0,
            cycles: 300,
            outcome: BlockOutcome::Retried,
        };
        let mut block_cycles = CycleHistogram::new();
        block_cycles.record(event.cycles);
        let mut exec = ExecStats::default();
        exec.accel.lane_profiles = vec![LaneProfile { lane: 0, jobs: 1, ..LaneProfile::default() }];
        TraceDocument {
            schema: TRACE_SCHEMA_V1.to_string(),
            matrix: MatrixMeta {
                name: "m".into(),
                nrows: 2,
                ncols: 2,
                nnz: 3,
                ..MatrixMeta::default()
            },
            system: SystemMeta { memory: "DDR4".into(), lanes: 1, freq_hz: 1.6e9 },
            wall_ns_total: 20,
            spans: vec![Span::new("exec.decode_batch", 10, 2.5e-7, 64)],
            counters: BTreeMap::from([("exec.jobs".to_string(), 1)]),
            block_cycles,
            block_events: vec![event],
            codec_stages: CodecStageReport::default(),
            mem_traffic: TrafficLedger::new().report(&MemorySystem::ddr4()),
            exec,
            recorder: None,
        }
    }

    fn without(mut v: Json, path: &[&str]) -> Json {
        let Json::Obj(fields) = &mut v else { panic!("not an object") };
        if let [last] = path {
            fields.retain(|(k, _)| k != last);
        } else {
            let (_, inner) = fields.iter_mut().find(|(k, _)| k == path[0]).expect("path exists");
            *inner = without(std::mem::replace(inner, Json::Null), &path[1..]);
        }
        v
    }

    #[test]
    fn optional_fields_are_skipped_when_empty_and_kept_when_set() {
        let clean = doc().to_json();
        let exec = clean.get("exec").unwrap();
        assert!(exec.get("backoff_cycles").is_none() && exec.get("software_decode").is_none());
        assert!(clean.get("recorder").is_none());

        let mut d = doc();
        d.exec.backoff_cycles = 7;
        d.exec.software_decode = true;
        d.exec.blocks_ok = 9;
        d.attach_recorder(RecorderSummary { recorded: 4, capacity: 8, ..Default::default() });
        let back = TraceDocument::from_json_str(&d.to_json_string()).unwrap();
        assert_eq!(back.exec.backoff_cycles, 7);
        assert!(back.exec.software_decode);
        assert_eq!(back.exec.blocks_ok, 0, "in-memory accounting is never written");
        assert_eq!(back.recorder, d.recorder);
        assert_eq!(back.to_json_string(), d.to_json_string());
    }

    #[test]
    fn fields_added_after_v1_default_when_absent() {
        let mut v = doc().to_json();
        for path in [
            &["exec", "retry_cycles"][..],
            &["exec", "overlap"],
            &["exec", "accel", "lane_profiles"],
            &["exec", "accel", "opclass"],
            &["exec", "accel", "stage_cycles"],
        ] {
            v = without(v, path);
        }
        let back = TraceDocument::from_json(&v).expect("older trace loads");
        assert_eq!(back.exec.retry_cycles, 0);
        assert_eq!(back.exec.overlap, OverlapStats::default());
        assert!(back.exec.accel.lane_profiles.is_empty());
        assert_eq!(back.exec.accel.opclass, OpClassCycles::default());
        assert_eq!(back.exec.accel.stage_cycles, StageCycles::default());
        assert!(back.recorder.is_none());

        let partial = Json::obj().set("enabled", Json::Bool(true));
        let ov = OverlapStats::from_json(&partial).unwrap();
        assert!(ov.enabled && ov.stages == 0, "every overlap field defaults on its own");
    }

    #[test]
    fn missing_or_mistyped_required_fields_are_named() {
        let err =
            TraceDocument::from_json(&without(doc().to_json(), &["exec", "degraded"])).unwrap_err();
        assert!(err.contains("degraded"), "{err}");
        let text = doc().to_json_string().replace("\"Retried\"", "\"Rebooted\"");
        let err = TraceDocument::from_json_str(&text).unwrap_err();
        assert!(err.contains("Rebooted"), "{err}");
        assert!(TraceDocument::from_json_str("{\"schema\": 1}").is_err());
    }
}
