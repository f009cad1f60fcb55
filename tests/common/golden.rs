//! Shared golden-trace machinery: the canonical default run and the
//! fixture comparison, included by both `trace_golden.rs` (default
//! pipeline fixture) and `trace_golden_tuned.rs` (auto-tuned pipeline
//! fixture) via `#[path]`. Documents render through the library's own
//! writer, `TraceDocument::to_json_string`. Lives under `tests/common/` so
//! Cargo does not compile it as a test crate of its own.

use recode_spmv::core::telemetry::TraceDocument;
use recode_spmv::prelude::*;

/// The canonical matrix both golden fixtures pin: 16x16 5-point stencil,
/// seed 7.
pub fn golden_matrix() -> Csr {
    generate(
        &GenSpec::Stencil2D { nx: 16, ny: 16, points: 5, values: ValueModel::StencilCoeffs },
        7,
    )
}

/// The canonical executor settings both fixtures pin.
pub fn golden_overlap_config() -> OverlapConfig {
    OverlapConfig { overlap: true, cache_blocks: 8, workers: 1 }
}

/// Zeroes the host wall-clock fields, the only nondeterministic ones.
pub fn normalize_wall(doc: &mut TraceDocument) {
    doc.wall_ns_total = 0;
    for span in &mut doc.spans {
        span.wall_ns = 0;
    }
}

/// Runs the canonical pipelined job over `recoded` and folds its stats
/// into a trace document, host wall-clock fields zeroed.
pub fn traced_overlap_run(recoded: &RecodedSpmv, ncols: usize, name: &str) -> TraceDocument {
    let sys = SystemConfig::ddr4();
    let ex = OverlapExecutor::new(recoded, golden_overlap_config());
    let x = vec![1.0; ncols];
    let (_, stats) = ex.spmv(&sys, &x).expect("pipelined run");
    let mut doc = TraceDocument::from_run(recoded, &sys, &stats, name, 0);
    normalize_wall(&mut doc);
    doc
}

/// The one canonical default run `golden_trace_v1.json` pins.
pub fn canonical_doc() -> TraceDocument {
    let a = golden_matrix();
    // No stage telemetry (RecodedSpmv::new, not new_traced): the codec
    // section stays all-zero, which keeps the fixture deterministic.
    let recoded = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).expect("compress");
    traced_overlap_run(&recoded, a.ncols(), "golden_stencil16")
}

/// Compares a rendered document against a fixture with a line-precise
/// failure message, or blesses the fixture when `RECODE_BLESS_TRACE` is
/// set and `allow_bless` is true.
pub fn assert_matches_fixture(rendered: &str, fixture: &str, allow_bless: bool) {
    if allow_bless && std::env::var("RECODE_BLESS_TRACE").is_ok() {
        std::fs::write(fixture, rendered).expect("write fixture");
        eprintln!("blessed {fixture}");
        return;
    }
    let golden = std::fs::read_to_string(fixture)
        .unwrap_or_else(|e| panic!("{fixture}: {e} (run with RECODE_BLESS_TRACE=1 to create)"));
    if rendered != golden {
        for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "output drifted from the golden fixture {} at line {} — if the \
                 change is intentional, re-bless with RECODE_BLESS_TRACE=1",
                fixture,
                i + 1
            );
        }
        panic!(
            "output drifted from the golden fixture {fixture}: {} lines rendered vs {} in fixture",
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}
