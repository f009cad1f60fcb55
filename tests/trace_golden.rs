//! Golden-trace schema pinning.
//!
//! `tests/fixtures/golden_trace_v1.json` is the canonical `recode-trace/v1`
//! document for one fixed pipelined run (16x16 5-point stencil, seed 7,
//! one worker, cache capacity 8). The trace schema is a public artifact —
//! `recode report` / `recode trace-check` consume it — so any field
//! rename, reorder, or value drift must be a conscious decision, not an
//! accident. This suite regenerates the canonical run and compares it to
//! the fixture field by field.
//!
//! Everything deterministic is pinned: cycle counts (the lane simulator is
//! cycle-exact), modeled seconds, traffic bytes, counters, block events.
//! Host wall-clock fields (`wall_ns_total`, span `wall_ns`) are normalized
//! to zero in both the fixture and the regenerated document.
//!
//! Documents render through the library writer the CLI's `--trace` uses
//! (`TraceDocument::to_json_string`), and the fixture must read back
//! through `TraceDocument::from_json_str` and re-render byte for byte. To
//! regenerate the fixture after an intentional schema change:
//! `RECODE_BLESS_TRACE=1 cargo test --test trace_golden`.

#[path = "common/golden.rs"]
mod golden;

use golden::{assert_matches_fixture, canonical_doc, golden_matrix, normalize_wall};
use recode_spmv::core::telemetry::{BlockOutcome, TraceDocument};
use recode_spmv::prelude::*;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_trace_v1.json");

#[test]
fn golden_trace_matches_the_canonical_run() {
    let doc = canonical_doc();
    let errs = doc.validate();
    assert!(errs.is_empty(), "canonical run fails its own invariants: {errs:?}");
    assert_matches_fixture(&doc.to_json_string(), FIXTURE, true);
}

#[test]
fn golden_fixture_pins_the_headline_fields() {
    let doc = canonical_doc();
    // Field-level pins, independent of the byte-level comparison: the
    // contract downstream consumers (report/trace-check, dashboards) lean
    // on hardest.
    assert_eq!(doc.schema, "recode-trace/v1");
    assert_eq!(doc.matrix.name, "golden_stencil16");
    assert_eq!((doc.matrix.nrows, doc.matrix.ncols), (256, 256));
    assert!(doc.matrix.nnz > 0);
    assert_eq!(doc.system.lanes, 64);
    let span_names: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(span_names, ["exec.overlap", "exec.mem_stream", "exec.dma"]);
    for key in [
        "exec.jobs",
        "pipeline.overlap.stages",
        "pipeline.overlap.decode_cycles",
        "pipeline.overlap.multiply_cycles",
        "pipeline.overlap.makespan_cycles",
        "pipeline.overlap.serial_cycles",
        "pipeline.overlap.saved_cycles",
        "cache.hits",
        "cache.misses",
        "mem.read.compressed_stream",
    ] {
        assert!(doc.counters.contains_key(key), "counter `{key}` missing from the trace");
    }
    assert!(doc.exec.overlap.enabled);
    assert_eq!(doc.exec.overlap.workers, 1);
    assert_eq!(
        doc.block_events.len() as u64,
        doc.counter("exec.jobs"),
        "one block event per decode job"
    );
}

/// The flight recorder must observe, never perturb (ISSUE 7): with the
/// recorder ON the canonical run renders byte-for-byte identical to the
/// fixture — no re-blessing — and the document stays `recode-trace/v1`
/// (the overlap path emits no resilience counters, so nothing promotes
/// the schema).
#[test]
fn golden_trace_is_unchanged_with_the_recorder_enabled() {
    use recode_spmv::core::recorder;
    // Bless first if the fixture does not exist yet; the byte test owns
    // that flow.
    let Ok(golden) = std::fs::read_to_string(FIXTURE) else { return };
    recorder::enable(recorder::DEFAULT_CAPACITY);
    let doc = canonical_doc();
    let events = recorder::drain();
    recorder::disable();
    assert!(!events.is_empty(), "recorder must capture the canonical run");
    assert_eq!(doc.schema, "recode-trace/v1");
    let rendered = doc.to_json_string();
    assert_eq!(rendered, golden, "recorder-on run must not move a byte of the golden trace");
}

/// The fixture reads back into a `TraceDocument`, still validates, matches
/// the live run, and re-renders to the same bytes — the reader and the
/// writer agree on every field of the schema.
#[test]
fn golden_fixture_parses_validates_and_re_renders_byte_for_byte() {
    let golden = std::fs::read_to_string(FIXTURE).expect("golden fixture");
    let doc = TraceDocument::from_json_str(&golden).expect("golden fixture must parse");
    let errs = doc.validate();
    assert!(errs.is_empty(), "parsed fixture fails validation: {errs:?}");
    assert_eq!(doc.to_json_string(), golden, "parse -> render must reproduce the fixture");
    let live = canonical_doc();
    assert_eq!(doc.schema, live.schema);
    assert_eq!(doc.matrix, live.matrix);
    assert_eq!(doc.counters, live.counters);
    assert_eq!(doc.block_events, live.block_events);
    assert_eq!(doc.block_cycles, live.block_cycles);
}

const BATCH_FIXTURE: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden_trace_batch_v2.json");

/// The canonical faulted batch run `golden_trace_batch_v2.json` pins: the
/// golden matrix through the row-parallel batch executor, with index
/// block 0 CRC-corrupted (every retry fails, so it is served from the raw
/// store) and job 1, the first value block, trapped once (a retry recovers
/// it). Host wall-clock fields and the `pool.*` counters are zeroed: the
/// lane pool is process-global, so its deltas depend on what else ran.
fn canonical_batch_doc() -> TraceDocument {
    use recode_spmv::sparse::spmv::SpmvKernel;
    let a = golden_matrix();
    let mut recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).expect("compress");
    recoded.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let hook = FaultHook::new().trap(1);
    let opts = RunOptions { faults: Some(&hook), budget: None };
    let (y, stats) =
        recoded.spmv_with(&sys, SpmvKernel::RowParallel, &x, opts).expect("faulted batch run");
    assert_eq!(y, spmv(&a, &x), "recovered batch run stays bit-exact");
    let mut doc = TraceDocument::from_run(&recoded, &sys, &stats, "golden_stencil16_batch", 0);
    normalize_wall(&mut doc);
    for (name, value) in &mut doc.counters {
        if name.starts_with("pool.") {
            *value = 0;
        }
    }
    doc
}

/// The batch executor's document, retry and fallback included, is pinned
/// byte for byte like the pipelined one.
#[test]
fn batch_golden_trace_matches_the_faulted_canonical_run() {
    let doc = canonical_batch_doc();
    let errs = doc.validate();
    assert!(errs.is_empty(), "canonical batch run fails its own invariants: {errs:?}");
    assert_eq!(doc.schema, "recode-trace/v2", "pool counters make the batch document v2");
    let span_names: Vec<&str> = doc.spans.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(
        span_names,
        [
            "exec.decode_batch",
            "exec.retry",
            "exec.fallback",
            "exec.reassemble",
            "exec.mem_stream",
            "exec.dma",
            "exec.cpu_multiply"
        ]
    );
    let outcomes: Vec<BlockOutcome> = doc.block_events.iter().map(|e| e.outcome).collect();
    assert_eq!(outcomes, [BlockOutcome::FellBack, BlockOutcome::Retried, BlockOutcome::Ok]);
    assert_matches_fixture(&doc.to_json_string(), BATCH_FIXTURE, true);
}
