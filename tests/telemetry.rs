//! Integration tests for the observability path: a traced SpMV must produce
//! a schema-stable JSON document whose numbers are internally consistent —
//! spans fit inside the wall clock, per-lane cycles sum to the batch totals,
//! traffic is attributed by source, and the JSON form round-trips losslessly.

use recode_spmv::codec::pipeline::MatrixCodecConfig;
use recode_spmv::core::exec::RecodedSpmv;
use recode_spmv::core::telemetry::{RecorderSummary, TraceDocument, TRACE_SCHEMA, TRACE_SCHEMA_V1};
use recode_spmv::core::SystemConfig;
use recode_spmv::prelude::*;
use recode_spmv::sparse::spmv::SpmvKernel;

fn test_matrix() -> Csr {
    generate(
        &GenSpec::Stencil2D {
            nx: 70,
            ny: 70,
            points: 9,
            values: ValueModel::QuantizedGaussian { levels: 32 },
        },
        23,
    )
}

fn traced_run() -> (Csr, TraceDocument) {
    let a = test_matrix();
    let r = RecodedSpmv::new_traced(&a, MatrixCodecConfig::udp_dsh()).unwrap();
    // Exercise the software decoder too, so the codec-stage snapshot has
    // both directions populated.
    let sw = r.decompress_via_software().unwrap();
    assert_eq!(sw, a);
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let t_run = std::time::Instant::now();
    let (_, stats) = r.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
    let wall_ns = t_run.elapsed().as_nanos() as u64;
    let doc = TraceDocument::from_run(&r, &sys, &stats, "stencil70", wall_ns);
    (a, doc)
}

#[test]
fn trace_document_round_trips_through_json() {
    let (_, doc) = traced_run();
    let json = doc.to_json_string();
    let back = TraceDocument::from_json_str(&json).unwrap();
    assert_eq!(back.schema, TRACE_SCHEMA);
    assert_eq!(back.matrix, doc.matrix);
    assert_eq!(back.system, doc.system);
    assert_eq!(back.wall_ns_total, doc.wall_ns_total);
    assert_eq!(back.spans, doc.spans);
    assert_eq!(back.counters, doc.counters);
    assert_eq!(back.block_cycles, doc.block_cycles);
    assert_eq!(back.block_events, doc.block_events);
    assert_eq!(back.codec_stages, doc.codec_stages);
    assert_eq!(back.mem_traffic, doc.mem_traffic);
    assert_eq!(back.exec.accel.lane_profiles.len(), doc.exec.accel.lane_profiles.len());
    assert_eq!(back.to_json_string(), json, "parse -> render is byte-identical");
    let errs = back.validate();
    assert!(errs.is_empty(), "round-tripped trace must still validate: {errs:?}");
}

#[test]
fn span_wall_times_fit_inside_the_total() {
    let (_, doc) = traced_run();
    assert!(doc.wall_ns_total > 0);
    assert!(
        doc.spans_wall_ns() <= doc.wall_ns_total,
        "phase spans ({} ns) exceed the run's wall clock ({} ns)",
        doc.spans_wall_ns(),
        doc.wall_ns_total
    );
    // Every expected phase is present, in execution order, and the
    // simulated decode actually cost wall time.
    let names: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "exec.decode_batch",
            "exec.reassemble",
            "exec.mem_stream",
            "exec.dma",
            "exec.cpu_multiply"
        ],
        "clean run emits exactly the happy-path phases"
    );
    let batch = &doc.spans[0];
    assert!(batch.wall_ns > 0, "simulating the decode takes host time");
    assert!(batch.modeled_seconds > 0.0, "and models accelerator time");
    assert!(batch.bytes > 0);
}

#[test]
fn per_lane_and_per_stage_breakdowns_are_consistent() {
    let (a, doc) = traced_run();
    let accel = &doc.exec.accel;
    assert_eq!(accel.lane_profiles.len(), accel.lanes, "one profile per lane");
    let lane_busy: u64 = accel.lane_profiles.iter().map(|p| p.busy_cycles).sum();
    assert_eq!(lane_busy, accel.busy_cycles, "lane profiles tile the busy cycles");
    // Opcode-class attribution covers every busy cycle of the batch.
    assert_eq!(accel.opclass.total(), accel.busy_cycles);
    assert!(accel.opclass.stream > 0, "DSH decode is stream-dominated");
    // Stage cycles partition each job's cycles, so they sum to busy too.
    assert_eq!(accel.stage_cycles.total(), accel.busy_cycles);
    assert!(accel.stage_cycles.huffman > 0);
    assert!(accel.stage_cycles.snappy > 0);
    assert!(accel.stage_cycles.delta > 0);
    // Codec-stage timing has both directions after an encode + sw decode.
    assert!(doc.codec_stages.encode.huffman.calls > 0);
    assert!(doc.codec_stages.decode.huffman.calls > 0);
    assert_eq!(doc.codec_stages.decode.delta.bytes_out, (a.nnz() * 4) as u64);
    // Every block produced an event and the histogram matches.
    assert_eq!(doc.block_events.len(), accel.jobs);
    assert_eq!(doc.block_cycles.count, accel.jobs as u64);
    assert_eq!(doc.block_cycles.sum, accel.busy_cycles);
}

#[test]
fn memory_traffic_is_attributed_by_source() {
    let (a, doc) = traced_run();
    assert!(doc.counter("mem.read.compressed_stream") > 0);
    assert!(doc.counter("mem.read.row_ptr") >= (a.nrows() as u64 + 1) * 8);
    assert_eq!(doc.counter("mem.read.vectors"), (a.ncols() * 8) as u64);
    assert_eq!(doc.counter("mem.write.vectors"), (a.nrows() * 8) as u64);
    assert_eq!(doc.counter("mem.read.fallback_refetch"), 0, "clean run never re-fetches");
    let by_total: u64 =
        doc.mem_traffic.by_source.iter().map(|s| s.read_bytes + s.write_bytes).sum();
    assert_eq!(by_total, doc.mem_traffic.total_bytes);
    assert!(doc.mem_traffic.stream_seconds > 0.0);
    assert!(doc.mem_traffic.transfer_joules > 0.0);
}

#[test]
fn render_report_mentions_every_section() {
    let (_, doc) = traced_run();
    let text = recode_spmv::core::telemetry::render_report(&doc);
    for needle in [
        "recode trace report",
        "stencil70",
        "exec.decode_batch",
        "opcode classes",
        "decode stages",
        "log2 buckets",
        "memory traffic",
        "compressed_stream",
        "software codec stages",
        "degradation",
        // v2: the batch path reports lane-pool activity.
        "-- resilience --",
        "lane pool:",
    ] {
        assert!(text.contains(needle), "report missing `{needle}`:\n{text}");
    }
}

/// The batch path reports `pool.*` counters, which are v2 content:
/// the document must stamp itself `recode-trace/v2` and carry the pool's
/// checkout accounting.
#[test]
fn batch_traced_documents_are_schema_v2_with_pool_counters() {
    let (_, doc) = traced_run();
    assert_eq!(doc.schema, TRACE_SCHEMA);
    assert!(doc.has_v2_content());
    assert!(doc.counter("pool.checkouts") > 0, "every decode job checks a lane out");
    assert_eq!(
        doc.counter("pool.checkouts"),
        doc.counter("pool.recycled_hits") + doc.counter("pool.fresh_builds"),
        "checkouts partition into recycled hits and fresh builds"
    );
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
}

/// Attaching a flight-recorder summary promotes the schema and renders the
/// recorder section; an inconsistent summary (more drained than recorded)
/// fails validation.
#[test]
fn recorder_summary_promotes_schema_and_is_validated() {
    let (_, mut doc) = traced_run();
    let mut by_kind = std::collections::BTreeMap::new();
    by_kind.insert("block_outcome".to_string(), 40u64);
    by_kind.insert("span_begin".to_string(), 2u64);
    doc.attach_recorder(RecorderSummary { recorded: 42, dropped: 0, capacity: 65536, by_kind });
    assert_eq!(doc.schema, TRACE_SCHEMA);
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    let text = recode_spmv::core::telemetry::render_report(&doc);
    assert!(text.contains("flight recorder: 42 events recorded"), "{text}");
    assert!(text.contains("block_outcome"), "{text}");

    doc.recorder.as_mut().unwrap().recorded = 10;
    let errs = doc.validate();
    assert!(
        errs.iter().any(|e| e.contains("recorder summary")),
        "drained > recorded must be flagged: {errs:?}"
    );
}

/// Certified-bound floor (ISSUE 9): a block event that claims to have run
/// on a lane (Ok or Retried) but recorded zero cycles contradicts every
/// certified `CycleBound` minimum, so `validate()` must flag it. Fallback
/// events legitimately carry zero and stay exempt.
#[test]
fn zero_cycle_lane_events_fail_validation() {
    let (_, mut doc) = traced_run();
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    let first = doc.block_events.first().copied().expect("traced run has block events");
    let stolen = first.cycles;
    doc.block_events[0].cycles = 0;
    // Keep the histogram consistent so only the floor check fires.
    doc.block_cycles.sum -= stolen;
    let errs = doc.validate();
    assert!(
        errs.iter().any(|e| e.contains("0 cycles")),
        "zero-cycle lane event must be flagged: {errs:?}"
    );
}

/// Back-compat (ISSUE 7 satellite): the PR 3 golden fixture is a v1
/// document and must still load and validate as v1 — `validate()` accepts
/// both schema generations.
#[test]
fn golden_v1_fixture_still_validates_as_v1() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_trace_v1.json");
    let golden = std::fs::read_to_string(path).expect("golden fixture present");
    let doc = TraceDocument::from_json_str(&golden).expect("v1 fixture parses");
    assert_eq!(doc.schema, TRACE_SCHEMA_V1);
    assert!(!doc.has_v2_content(), "the v1 fixture must not carry v2 content");
    assert!(doc.recorder.is_none(), "absent recorder field defaults to None");
    let errs = doc.validate();
    assert!(errs.is_empty(), "v1 fixture must validate under the v2 code: {errs:?}");
    // And its report renders without a resilience section.
    let text = recode_spmv::core::telemetry::render_report(&doc);
    assert!(text.contains("recode trace report (recode-trace/v1)"), "{text}");
    assert!(!text.contains("-- resilience --"), "{text}");
}
