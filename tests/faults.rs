//! End-to-end fault-injection suite for the recoded-SpMV pipeline.
//!
//! Every trial injects one seeded fault — a stream mutation from the codec's
//! [`FaultInjector`] or an accelerator-side trap/stall from a [`FaultHook`] —
//! and then demands exactly one of two outcomes:
//!
//! 1. **bit-exact recovery** with `degraded == true` and nonzero
//!    retry/fallback counters (or a clean result when the fault landed on
//!    dead bytes / was a pure stall), or
//! 2. a **typed error** that names the offending block.
//!
//! Panics and silently wrong results both fail the suite. The trial count
//! is ≥ 256 across all fault classes, per the robustness acceptance bar.

use recode_spmv::codec::faults::{FaultInjector, FaultKind};
use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_spmv::core::error::ExecError;
use recode_spmv::core::exec::RecodedSpmv;
use recode_spmv::core::SystemConfig;
use recode_spmv::prelude::*;
use recode_spmv::udp::FaultHook;

fn test_matrix() -> Csr {
    generate(
        &GenSpec::FemBand {
            n: 700,
            band: 10,
            fill: 0.6,
            values: ValueModel::MixedRepeated { distinct: 8 },
        },
        99,
    )
}

/// The paper's stage mix, but 2 KB blocks: several blocks per stream (so
/// drop/reorder faults have targets) at a fraction of the simulation cost.
fn small_block_config() -> MatrixCodecConfig {
    MatrixCodecConfig {
        index: PipelineConfig { block_bytes: 2048, ..PipelineConfig::dsh_udp() },
        value: PipelineConfig { block_bytes: 2048, ..PipelineConfig::sh_udp() },
    }
}

fn faulty(hook: &FaultHook) -> RunOptions<'_> {
    RunOptions { faults: Some(hook), ..RunOptions::default() }
}

/// Outcome bookkeeping across the whole campaign.
#[derive(Default, Debug)]
struct Tally {
    recovered_degraded: usize,
    clean: usize,
    typed_error: usize,
}

/// Runs one stream-mutation trial; panics (failing the test) on silent
/// corruption or an error without block context.
fn run_stream_trial(
    a: &Csr,
    clean_cm: &CompressedMatrix,
    seed: u64,
    kind: FaultKind,
    hit_values: bool,
    with_store: bool,
    tally: &mut Tally,
) {
    let mut cm = clean_cm.clone();
    let mut inj = FaultInjector::new(seed);
    let report = if hit_values {
        inj.inject(&mut cm.value_stream, kind)
    } else {
        inj.inject(&mut cm.index_stream, kind)
    };

    let r = if with_store {
        RecodedSpmv::from_compressed_with_store(
            cm,
            Some(recode_spmv::core::exec::RawFallbackStore::from_csr(a)),
        )
        .expect("decoder construction is fault-independent")
    } else {
        RecodedSpmv::from_compressed(cm).expect("decoder construction is fault-independent")
    };

    let sys = SystemConfig::ddr4();
    match r.decompress_via_udp(&sys) {
        Ok((b, stats)) => {
            assert_eq!(
                &b, a,
                "seed {seed} kind {kind} (values={hit_values}): decode differs from original \
                 without an error — silent corruption"
            );
            if report.is_some() && stats.degraded {
                assert!(
                    stats.blocks_retried > 0 || stats.blocks_fell_back > 0,
                    "degraded run must count retries or fallbacks"
                );
                tally.recovered_degraded += 1;
            } else {
                // No-op mutation (e.g. truncation of an empty payload) or a
                // fault on bytes the decode never depends on.
                tally.clean += 1;
            }
        }
        Err(e) => {
            assert!(
                report.is_some(),
                "seed {seed} kind {kind}: error {e} from an uncorrupted stream"
            );
            match &e {
                ExecError::Udp(u) => assert!(
                    u.block().is_some() || u.codec_error().is_some(),
                    "seed {seed} kind {kind}: untyped context in {e}"
                ),
                ExecError::Unrecoverable { block, .. } => {
                    assert!(block.is_some(), "seed {seed} kind {kind}: no block in {e}");
                }
                ExecError::Reassembly(_) | ExecError::Codec(_) => {}
                // These trials run unbudgeted, panic-free plans; the
                // resilience-only terminal states must never appear here.
                ExecError::DeadlineExceeded { .. } | ExecError::WorkerPanic { .. } => {
                    panic!("seed {seed} kind {kind}: unexpected resilience error {e}")
                }
            }
            tally.typed_error += 1;
        }
    }
}

#[test]
fn seeded_stream_faults_recover_or_error_never_corrupt() {
    let a = test_matrix();
    let clean = CompressedMatrix::compress(&a, small_block_config()).unwrap();
    let mut tally = Tally::default();
    let mut trials = 0usize;
    // 2 store modes x 2 streams x 6 kinds x 12 seeds = 288 trials.
    for with_store in [true, false] {
        for hit_values in [false, true] {
            for (ki, kind) in FaultKind::ALL.into_iter().enumerate() {
                for s in 0..12u64 {
                    let seed = 1 + s + 100 * ki as u64 + 10_000 * u64::from(hit_values);
                    run_stream_trial(&a, &clean, seed, kind, hit_values, with_store, &mut tally);
                    trials += 1;
                }
            }
        }
    }
    assert!(trials >= 256, "need >=256 trials, ran {trials}");
    // The campaign must actually exercise both recovery paths.
    assert!(tally.recovered_degraded > 0, "no trial recovered via degradation: {tally:?}");
    assert!(tally.typed_error > 0, "no trial produced a typed error: {tally:?}");
}

#[test]
fn injected_lane_traps_recover_transparently() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    let n_jobs =
        r.compressed().index_stream.blocks.len() + r.compressed().value_stream.blocks.len();
    assert!(n_jobs >= 2, "matrix too small for trap trials");
    for trial in 0..32usize {
        let hook = FaultHook::new().trap(trial % n_jobs).trap((trial * 7 + 1) % n_jobs);
        let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        assert_eq!(b, a, "trial {trial}: trap recovery must stay bit-exact");
        assert!(stats.degraded, "trial {trial}: traps must mark the run degraded");
        assert!(stats.blocks_retried > 0);
        assert_eq!(stats.blocks_fell_back, 0, "transient traps never need the raw store");
    }
}

#[test]
fn injected_dma_stalls_only_cost_cycles() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    for trial in 0..8u64 {
        let hook = FaultHook::new().stall(trial as usize, 50_000 * (trial + 1));
        let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        assert_eq!(b, a);
        assert_eq!(stats.accel.injected_stall_cycles, 50_000 * (trial + 1));
        assert!(!stats.degraded, "stalls are slowdown, not degradation");
    }
}

#[test]
fn retry_cycles_fold_into_makespan_under_traps() {
    let a = test_matrix();
    let r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    let sys = SystemConfig::ddr4();
    let (_, clean) = r.decompress_via_udp(&sys).unwrap();
    assert_eq!(clean.retry_cycles, 0, "clean run has no retry cycles");
    let hook = FaultHook::new().trap(0).trap(1).trap(2);
    let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
    assert_eq!(b, a);
    assert!(stats.retry_cycles > 0, "trap retries must report their cycles");
    // Trapped jobs cost nothing in the batch and their full decode cycles
    // on retry, so the folded totals do the same work over a longer
    // critical path — the makespan is honest about recovery cost.
    assert_eq!(stats.accel.busy_cycles, clean.accel.busy_cycles);
    assert!(stats.accel.makespan_cycles > clean.accel.makespan_cycles);
    let util = stats.accel.busy_cycles as f64
        / (stats.accel.makespan_cycles as f64 * stats.accel.lanes as f64);
    assert!(
        (stats.accel.lane_utilization - util).abs() < 1e-12,
        "utilization must be recomputed over the folded totals"
    );
}

#[test]
fn telemetry_events_record_fault_outcomes() {
    use recode_spmv::core::telemetry::{BlockOutcome, TraceDocument};
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // Index block 1 is CRC-corrupt (falls back); the first value job traps
    // transiently (recovers via retry).
    r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index);
    let sys = SystemConfig::ddr4();
    let t_run = std::time::Instant::now();
    let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
    let wall_ns = t_run.elapsed().as_nanos() as u64;
    assert_eq!(b, a);
    let evs = &stats.block_events;
    assert_eq!(evs.len(), stats.accel.jobs, "one event per job");
    assert_eq!(evs[1].outcome, BlockOutcome::FellBack);
    assert_eq!(evs[1].cycles, 0);
    assert_eq!(evs[n_index].outcome, BlockOutcome::Retried);
    assert!(evs[n_index].cycles > 0);
    let non_ok = evs.iter().filter(|e| e.outcome != BlockOutcome::Ok).count();
    assert_eq!(non_ok, 2, "exactly the two faulted jobs deviate");
    let doc = TraceDocument::from_run(&r, &sys, &stats, "faults", wall_ns);
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    assert_eq!(doc.counter("exec.blocks_fell_back"), 1);
    assert!(doc.counter("exec.blocks_retried") >= 1);
    assert_eq!(doc.counter("exec.retry_cycles"), stats.retry_cycles);
}

/// Relative-tolerance check for the pipelined executor: tile-merge
/// reassociates rows that straddle block boundaries, so recovery is
/// numerically identical only to 1e-10, not bit-exact.
fn assert_spmv_close(seed: u64, kind: FaultKind, y: &[f64], y_ref: &[f64]) {
    for (i, (g, w)) in y.iter().zip(y_ref).enumerate() {
        let err = (g - w).abs() / w.abs().max(1.0);
        assert!(
            err <= 1e-10,
            "seed {seed} kind {kind}: row {i} diverged after recovery \
             (got {g}, want {w}) — silent corruption through the pipeline"
        );
    }
}

/// Clean-run context shared by every overlap fault trial: the matrix, the
/// probe vector, its reference product, and the uncorrupted streams.
#[derive(Clone, Copy)]
struct OverlapProbe<'a> {
    a: &'a Csr,
    x: &'a [f64],
    y_ref: &'a [f64],
    clean_cm: &'a CompressedMatrix,
}

/// One stream-mutation trial routed through the pipelined overlap executor
/// (decode of tile i+1 overlapped with multiply of tile i, decoded-block
/// cache enabled) instead of the batch path. Same oracle: recover within
/// tolerance or produce a typed error naming the block.
fn run_overlap_stream_trial(
    probe: &OverlapProbe<'_>,
    seed: u64,
    kind: FaultKind,
    hit_values: bool,
    with_store: bool,
    tally: &mut Tally,
) {
    use recode_spmv::core::{OverlapConfig, OverlapExecutor};
    let OverlapProbe { a, x, y_ref, clean_cm } = *probe;
    let mut cm = clean_cm.clone();
    let mut inj = FaultInjector::new(seed);
    let report = if hit_values {
        inj.inject(&mut cm.value_stream, kind)
    } else {
        inj.inject(&mut cm.index_stream, kind)
    };

    let r = if with_store {
        RecodedSpmv::from_compressed_with_store(
            cm,
            Some(recode_spmv::core::exec::RawFallbackStore::from_csr(a)),
        )
        .expect("decoder construction is fault-independent")
    } else {
        RecodedSpmv::from_compressed(cm).expect("decoder construction is fault-independent")
    };
    let ex =
        OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 64, workers: 0 });

    let sys = SystemConfig::ddr4();
    match ex.spmv(&sys, x) {
        Ok((y, stats)) => {
            assert_spmv_close(seed, kind, &y, y_ref);
            if report.is_some() && stats.degraded {
                assert!(
                    stats.blocks_retried > 0 || stats.blocks_fell_back > 0,
                    "degraded pipelined run must count retries or fallbacks"
                );
                tally.recovered_degraded += 1;
            } else {
                tally.clean += 1;
            }
        }
        Err(e) => {
            assert!(
                report.is_some(),
                "seed {seed} kind {kind}: error {e} from an uncorrupted stream"
            );
            match &e {
                ExecError::Udp(u) => assert!(
                    u.block().is_some() || u.codec_error().is_some(),
                    "seed {seed} kind {kind}: untyped context in {e}"
                ),
                ExecError::Unrecoverable { block, .. } => {
                    assert!(block.is_some(), "seed {seed} kind {kind}: no block in {e}");
                }
                ExecError::Reassembly(_) | ExecError::Codec(_) => {}
                // These trials run unbudgeted, panic-free plans; the
                // resilience-only terminal states must never appear here.
                ExecError::DeadlineExceeded { .. } | ExecError::WorkerPanic { .. } => {
                    panic!("seed {seed} kind {kind}: unexpected resilience error {e}")
                }
            }
            tally.typed_error += 1;
        }
    }
}

#[test]
fn seeded_stream_faults_through_the_overlap_executor() {
    let a = test_matrix();
    let clean = CompressedMatrix::compress(&a, small_block_config()).unwrap();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
    let y_ref = spmv(&a, &x);
    let probe = OverlapProbe { a: &a, x: &x, y_ref: &y_ref, clean_cm: &clean };
    let mut tally = Tally::default();
    let mut trials = 0usize;
    // Same 288-trial grid as the batch campaign, through the pipeline:
    // 2 store modes x 2 streams x 6 kinds x 12 seeds.
    for with_store in [true, false] {
        for hit_values in [false, true] {
            for (ki, kind) in FaultKind::ALL.into_iter().enumerate() {
                for s in 0..12u64 {
                    let seed = 1 + s + 100 * ki as u64 + 10_000 * u64::from(hit_values);
                    run_overlap_stream_trial(
                        &probe, seed, kind, hit_values, with_store, &mut tally,
                    );
                    trials += 1;
                }
            }
        }
    }
    assert!(trials >= 256, "need >=256 trials, ran {trials}");
    assert!(tally.recovered_degraded > 0, "no trial recovered via degradation: {tally:?}");
    assert!(tally.typed_error > 0, "no trial produced a typed error: {tally:?}");
}

#[test]
fn overlap_recovery_keeps_blocks_in_position_and_traces_stay_valid() {
    use recode_spmv::core::telemetry::{BlockOutcome, TraceDocument};
    use recode_spmv::core::{OverlapConfig, OverlapExecutor};
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // A CRC-corrupt index block (falls back mid-pipeline) plus a transient
    // trap and a DMA stall on other jobs: recovery must not disturb tile
    // ordering, and the sealed trace must satisfy every invariant.
    r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index).stall(n_index + 1, 25_000);
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
    let y_ref = spmv(&a, &x);
    let ex =
        OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 256, workers: 0 });
    let t_run = std::time::Instant::now();
    let (y, stats) = ex.spmv_with(&sys, &x, faulty(&hook)).unwrap();
    let wall_ns = t_run.elapsed().as_nanos() as u64;
    let doc = TraceDocument::from_run(&r, &sys, &stats, "fault_pipeline", wall_ns);
    assert_spmv_close(0, FaultKind::BitFlip, &y, &y_ref);
    assert!(stats.degraded);
    assert_eq!(stats.blocks_fell_back, 1, "the CRC-broken block needs the raw store");
    assert!(stats.blocks_retried > 0, "the trapped value job recovers via retry");
    assert_eq!(stats.accel.injected_stall_cycles, 25_000);
    let errs = doc.validate();
    assert!(errs.is_empty(), "trace invariants violated under faults: {errs:?}");
    // Events stay in job order, and each fault shows up exactly where it
    // was injected — proof the pipeline kept recovered blocks in position.
    assert!(doc.block_events.windows(2).all(|w| w[0].job < w[1].job));
    assert_eq!(doc.block_events[1].outcome, BlockOutcome::FellBack);
    assert_eq!(doc.block_events[n_index].outcome, BlockOutcome::Retried);

    // A second run hits the warm cache and must agree with the first.
    let (y2, stats2) = ex.spmv(&sys, &x).unwrap();
    assert_eq!(y, y2, "warm-cache rerun of the same executor must be bit-identical");
    assert!(stats2.overlap.cache_hits > 0, "rerun should be served from the cache");
}

#[test]
fn spmv_stays_correct_under_combined_faults() {
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // Corrupt one index block (CRC path) while also trapping a value job.
    r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let hook = FaultHook::new().trap(n_index); // first value job
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
    let (y, stats) = r.spmv_with(&sys, SpmvKernel::Serial, &x, faulty(&hook)).unwrap();
    assert_eq!(y, recode_spmv::sparse::spmv::spmv(&a, &x));
    assert!(stats.degraded);
    assert!(stats.blocks_retried > 0);
    assert_eq!(stats.blocks_fell_back, 1, "the CRC-broken block needs the raw store");
    assert!(stats.fallback_bytes > 0);
    assert!(stats.mem_stream_seconds > 0.0);
}

/// Both executors run the one fault ladder, so the same faults must yield
/// the same recovery accounting on the batch path and through the
/// pipelined overlap executor.
#[test]
fn batch_and_overlap_walk_the_same_fault_ladder() {
    use recode_spmv::core::{ExecStats, OverlapConfig, OverlapExecutor};
    let a = test_matrix();
    let mut r = RecodedSpmv::new(&a, small_block_config()).unwrap();
    // CRC-corrupt: every retry fails, so this block falls back to the store.
    r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x01;
    let n_index = r.compressed().index_stream.blocks.len();
    let sys = SystemConfig::ddr4();
    let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 29) % 13) as f64 - 6.0).collect();
    let ex = OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 1 });
    let ladder = |s: &ExecStats| {
        (
            (s.blocks_ok, s.blocks_recovered, s.blocks_retried, s.blocks_fell_back),
            (s.fallback_bytes, s.retry_cycles),
            (s.accel.jobs, s.accel.jobs_failed, s.accel.busy_cycles),
        )
    };
    for hook in [FaultHook::new(), FaultHook::new().trap(0), FaultHook::new().trap(n_index).trap(2)]
    {
        let (_, batch) = r.spmv_with(&sys, SpmvKernel::Serial, &x, faulty(&hook)).unwrap();
        let (_, pipelined) = ex.spmv_with(&sys, &x, faulty(&hook)).unwrap();
        assert_eq!(ladder(&batch), ladder(&pipelined), "hook {hook:?}");
        assert_eq!(batch.blocks_fell_back, 1, "hook {hook:?}");
    }
}
