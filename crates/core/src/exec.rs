//! Functional execution of recoding-enhanced SpMV (paper Figs. 6 and 7).
//!
//! The matrix lives in memory compressed; UDP lanes decode the column-index
//! and value blocks (running the real decoder programs on the simulator);
//! the CPU multiplies the recovered CSR. This module is the workspace's
//! end-to-end correctness proof: `RecodedSpmv::spmv` must equal the
//! uncompressed kernel bit-for-bit, because the pipeline is lossless.
//!
//! ## Fault tolerance
//!
//! A batch never dies on one bad block. Each failed job (lane trap or CRC
//! mismatch) goes down one fault ladder, [`RecodedSpmv::recover_block`],
//! which the pipelined [`crate::overlap::OverlapExecutor`] shares: up to
//! [`MAX_BLOCK_RETRIES`] retries on a fresh lane — transient faults clear,
//! integrity failures do not — then a re-fetch from the optional
//! [`RawFallbackStore`] holding the uncompressed stream bytes, with the
//! extra memory traffic charged to [`ExecStats`]. Only when both paths are
//! exhausted does the call fail, with [`ExecError::Unrecoverable`] naming
//! the block.
//!
//! Fault injection and a [`JobBudget`] reach every executor entry point
//! through one [`RunOptions`] value.
//!
//! ## One run path
//!
//! Every run records its phase spans (host wall time, modeled seconds,
//! bytes) and one [`BlockEvent`] per decode job into the [`ExecStats`] it
//! returns, and
//! [`TraceDocument::from_run`](crate::telemetry::TraceDocument::from_run)
//! folds those stats into the trace document.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::overlap::OverlapStats;
use crate::recorder;
use crate::resilience::{
    BreakerState, BudgetTracker, CircuitBreaker, JobBudget, JobReport, JobState,
};
use crate::telemetry::{BlockEvent, BlockOutcome, Span, StreamKind};
use recode_codec::block::BlockStream;
use recode_codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_codec::telemetry::StageTelemetry;
use recode_codec::CodecError;
use recode_sparse::spmv::{spmv_with_into, SpmvKernel};
use recode_sparse::Csr;
use recode_udp::accel::{AccelReport, BatchOutcome, FaultHook, JobEvent, JobEventSink, JobOutcome};
use recode_udp::pool::PoolStats;
use recode_udp::progs::DshDecoder;
use recode_udp::{Lane, UdpError};
use std::sync::Arc;
use std::time::Instant;

/// How many times a failed block is re-decoded on a fresh lane before the
/// raw-store fallback kicks in.
pub const MAX_BLOCK_RETRIES: usize = 2;

/// What one executor run is asked to do besides decoding:
/// `RunOptions::default()` is the plain, unbudgeted run.
#[derive(Debug, Default, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Faults injected into each block's first decode attempt; retries run
    /// hook-free, modeling transient faults that clear.
    pub faults: Option<&'a FaultHook>,
    /// Limits consulted at every retry boundary.
    pub budget: Option<&'a JobBudget>,
}

/// Statistics from one UDP-decoded execution.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Accelerator-side report (cycles, throughput, utilization). Cycles
    /// spent on successful retry decodes *are* folded into the makespan and
    /// busy totals (retries run serially after the batch, extending the
    /// critical path), and utilization is recomputed accordingly; the extra
    /// amount is broken out in [`ExecStats::retry_cycles`].
    pub accel: AccelReport,
    /// Modeled wall-clock seconds to stream the compressed matrix from
    /// memory (the memory side of the pipeline), including any raw-store
    /// re-fetch traffic.
    pub mem_stream_seconds: f64,
    /// Modeled DMA seconds moving blocks into UDP local memory.
    pub dma_seconds: f64,
    /// Compressed bytes moved.
    pub compressed_bytes: usize,
    /// Retry decode attempts made for failed blocks.
    pub blocks_retried: usize,
    /// Blocks whose retries were exhausted and were served from the raw
    /// fallback store instead.
    pub blocks_fell_back: usize,
    /// Uncompressed bytes re-fetched through the fallback path.
    pub fallback_bytes: usize,
    /// Lane cycles spent on successful retry decodes, already included in
    /// `accel.makespan_cycles` / `accel.busy_cycles`.
    pub retry_cycles: u64,
    /// Scheduler backoff cycles charged by the [`JobBudget`] per retry
    /// attempt. Folded into `accel.makespan_cycles` only — backoff is
    /// waiting, not work, so busy cycles are untouched. Zero unless a
    /// budget with backoff was supplied.
    pub backoff_cycles: u64,
    /// True when any block needed a retry or a fallback — the result is
    /// still bit-exact, but the run did not complete on the happy path.
    pub degraded: bool,
    /// True when the run never touched the accelerator: the circuit breaker
    /// bypassed it to the software decoder ([`RecodedSpmv::run_job`]).
    pub software_decode: bool,
    /// Blocks that decoded cleanly on the first attempt. In-memory
    /// accounting only (not serialized):
    /// `blocks_ok + blocks_recovered + blocks_fell_back == accel.jobs`.
    pub blocks_ok: usize,
    /// Blocks that failed initially but recovered via retry (each counted
    /// once, unlike [`ExecStats::blocks_retried`] which counts attempts).
    pub blocks_recovered: usize,
    /// Pipelined-schedule and decoded-block-cache statistics. All-zero
    /// (`enabled == false`) on the plain batch path, populated by the
    /// [`crate::overlap::OverlapExecutor`].
    pub overlap: OverlapStats,
    /// The run's phases in execution order: host wall time, modeled
    /// seconds and bytes of each. In-memory only; the trace document
    /// carries them at its top level.
    pub spans: Vec<Span>,
    /// One record per decode job, in job order (cache hits decode nothing
    /// and are not jobs). In-memory only, like `spans`.
    pub block_events: Vec<BlockEvent>,
    /// Lane-pool activity over the run, as deltas of the process-wide
    /// pool's counters; concurrent runs inflate them, so they are reported,
    /// never validated. Sampled by the batch path only; other runs leave
    /// it `None`.
    pub pool: Option<PoolStats>,
}

impl ExecStats {
    /// Compressed bytes per non-zero actually moved by this run, through the
    /// one shared [`recode_codec::metrics::bytes_per_nnz`] definition.
    pub fn bytes_per_nnz(&self, nnz: usize) -> f64 {
        recode_codec::metrics::bytes_per_nnz(self.compressed_bytes, nnz)
    }
}

/// Uncompressed stream bytes kept aside so a block whose decode cannot be
/// recovered is re-fetched from memory instead of failing the whole SpMV —
/// the paper's raw-CSR re-fetch degradation path.
#[derive(Debug, Clone, Default)]
pub struct RawFallbackStore {
    /// Column indices as little-endian `u32` words.
    pub index_bytes: Vec<u8>,
    /// Values as little-endian `f64` words.
    pub value_bytes: Vec<u8>,
}

impl RawFallbackStore {
    /// Serializes the fallback streams from an uncompressed matrix.
    pub fn from_csr(a: &Csr) -> Self {
        RawFallbackStore {
            index_bytes: a.col_idx().iter().flat_map(|c| c.to_le_bytes()).collect(),
            value_bytes: a.values().iter().flat_map(|v| v.to_le_bytes()).collect(),
        }
    }

    /// The uncompressed byte range block `block` of a stream covers, or
    /// `None` if the store is shorter than the block claims.
    pub(crate) fn block_range(bytes: &[u8], block: usize, block_bytes: usize) -> Option<&[u8]> {
        let start = block.checked_mul(block_bytes)?;
        if start >= bytes.len() && !(start == 0 && bytes.is_empty()) {
            return None;
        }
        let end = start.checked_add(block_bytes)?.min(bytes.len());
        Some(&bytes[start..end])
    }
}

/// A sparse matrix held in compressed form, executable through the
/// simulated heterogeneous system.
pub struct RecodedSpmv {
    compressed: CompressedMatrix,
    index_decoder: DshDecoder,
    value_decoder: DshDecoder,
    raw_store: Option<RawFallbackStore>,
    /// Software-codec stage telemetry, present on traced instances
    /// ([`RecodedSpmv::new_traced`]). Encode timings accumulate at
    /// compression; decode timings whenever the software path runs.
    stage_telemetry: Option<Arc<StageTelemetry>>,
}

/// Transport-structure check: block count and sequence positions. Per-block
/// CRCs are deliberately *not* checked here — a payload-corrupted block must
/// reach the per-job retry/fallback machinery, but a dropped, duplicated, or
/// reordered block (whose CRC is still valid) would otherwise reassemble
/// into a silently wrong matrix.
pub(crate) fn check_stream_structure(stream: &BlockStream) -> Result<(), UdpError> {
    let expected = stream.expected_blocks().map_err(UdpError::from)?;
    if stream.blocks.len() != expected {
        return Err(UdpError::from(CodecError::BlockCount {
            expected,
            actual: stream.blocks.len(),
        }));
    }
    for (k, b) in stream.blocks.iter().enumerate() {
        if b.seq as usize != k {
            return Err(UdpError::from(CodecError::BlockSequence {
                expected: k,
                found: b.seq as usize,
            })
            .with_block(k));
        }
    }
    Ok(())
}

impl RecodedSpmv {
    /// Compresses `a` for the heterogeneous system, keeping the raw stream
    /// bytes as the degradation fallback.
    ///
    /// # Errors
    /// Codec preconditions or decoder-construction failures.
    pub fn new(a: &Csr, config: MatrixCodecConfig) -> ExecResult<Self> {
        let compressed = CompressedMatrix::compress(a, config)?;
        Self::from_compressed_with_store(compressed, Some(RawFallbackStore::from_csr(a)))
    }

    /// Compresses `a` under a persisted [`crate::tune::TunedConfig`],
    /// after checking the config actually belongs to this matrix.
    ///
    /// The tuned codec (stage subset + block size) governs compression
    /// here; callers then run the tuned kernel via [`RecodedSpmv::spmv`]
    /// with [`crate::tune::TunedConfig::kernel`], or hand the recoded
    /// operand to an [`crate::overlap::OverlapExecutor`], whose tiled
    /// multiply consumes the same tuned codec stream.
    ///
    /// # Errors
    /// [`crate::tune::TuneError::DigestMismatch`] when the config was
    /// tuned for a different matrix — never a silent fallback — and
    /// [`crate::tune::TuneError::Exec`] for codec failures.
    pub fn new_tuned(
        a: &Csr,
        tuned: &crate::tune::TunedConfig,
    ) -> Result<Self, crate::tune::TuneError> {
        tuned.validate_for(a)?;
        Ok(Self::new(a, tuned.codec_config())?)
    }

    /// [`RecodedSpmv::new`] with codec-stage telemetry attached: per-stage
    /// encode timings are recorded during compression here, decode timings
    /// whenever [`RecodedSpmv::decompress_via_software`] runs, and the
    /// accumulated snapshot lands in every trace document
    /// [`TraceDocument::from_run`](crate::telemetry::TraceDocument::from_run)
    /// folds from a run over this matrix.
    ///
    /// # Errors
    /// As [`RecodedSpmv::new`].
    pub fn new_traced(a: &Csr, config: MatrixCodecConfig) -> ExecResult<Self> {
        let stage_telemetry = Arc::new(StageTelemetry::new());
        let compressed = CompressedMatrix::compress_with_telemetry(a, config, &stage_telemetry)?;
        let mut this =
            Self::from_compressed_with_store(compressed, Some(RawFallbackStore::from_csr(a)))?;
        this.stage_telemetry = Some(stage_telemetry);
        Ok(this)
    }

    /// Wraps an already-compressed matrix (no fallback store: unrecoverable
    /// blocks become hard errors).
    ///
    /// # Errors
    /// Decoder-construction failures (bad tables).
    pub fn from_compressed(compressed: CompressedMatrix) -> ExecResult<Self> {
        Self::from_compressed_with_store(compressed, None)
    }

    /// Wraps an already-compressed matrix with an explicit fallback store.
    ///
    /// # Errors
    /// Decoder-construction failures (bad tables).
    pub fn from_compressed_with_store(
        compressed: CompressedMatrix,
        raw_store: Option<RawFallbackStore>,
    ) -> ExecResult<Self> {
        let index_decoder =
            DshDecoder::new(compressed.config.index, compressed.index_table_lengths.as_deref())?;
        let value_decoder =
            DshDecoder::new(compressed.config.value, compressed.value_table_lengths.as_deref())?;
        Ok(RecodedSpmv {
            compressed,
            index_decoder,
            value_decoder,
            raw_store,
            stage_telemetry: None,
        })
    }

    /// The codec-stage telemetry attached by [`RecodedSpmv::new_traced`],
    /// if any.
    pub fn stage_telemetry(&self) -> Option<&Arc<StageTelemetry>> {
        self.stage_telemetry.as_ref()
    }

    /// The compressed representation.
    pub fn compressed(&self) -> &CompressedMatrix {
        &self.compressed
    }

    /// The lane decoder for the column-index stream.
    pub(crate) fn index_decoder(&self) -> &DshDecoder {
        &self.index_decoder
    }

    /// The lane decoder for the value stream.
    pub(crate) fn value_decoder(&self) -> &DshDecoder {
        &self.value_decoder
    }

    /// Mutable access to the compressed representation — the fault-injection
    /// tests corrupt blocks through this.
    pub fn compressed_mut(&mut self) -> &mut CompressedMatrix {
        &mut self.compressed
    }

    /// Decodes the whole matrix through the UDP simulator and reassembles
    /// the CSR form, with accelerator statistics.
    ///
    /// # Errors
    /// [`ExecError::Unrecoverable`] if a block fails decoding, exhausts its
    /// retries, and no fallback store covers it; [`ExecError::Reassembly`]
    /// if the decoded streams do not form a valid matrix.
    pub fn decompress_via_udp(&self, sys: &SystemConfig) -> ExecResult<(Csr, ExecStats)> {
        self.decompress_via_udp_with(sys, RunOptions::default())
    }

    /// [`RecodedSpmv::decompress_via_udp`] under `opts`.
    ///
    /// * `faults` applies to the initial batch only; retries run hook-free,
    ///   modeling transient faults that clear on a second attempt.
    /// * `budget` is checked at every retry boundary — the job's natural
    ///   preemption points — so an exhausted budget surfaces as
    ///   [`ExecError::DeadlineExceeded`] naming what ran out, never as a
    ///   hang. Per-retry backoff accumulates into
    ///   [`ExecStats::backoff_cycles`] and stretches the modeled makespan
    ///   without touching busy cycles; an unbounded budget behaves exactly
    ///   like none.
    ///
    /// The returned stats carry the phase spans (`exec.decode_batch`,
    /// `exec.retry`, `exec.fallback`, `exec.reassemble`, `exec.mem_stream`,
    /// `exec.dma`), one block event per job with its lane and outcome, and
    /// the lane-pool deltas of the run.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`], plus
    /// [`ExecError::DeadlineExceeded`] when the budget runs out.
    pub fn decompress_via_udp_with(
        &self,
        sys: &SystemConfig,
        opts: RunOptions<'_>,
    ) -> ExecResult<(Csr, ExecStats)> {
        let RunOptions { faults, budget } = opts;
        check_stream_structure(&self.compressed.index_stream)?;
        check_stream_structure(&self.compressed.value_stream)?;

        // Interleave index and value blocks, as the DMA engine would.
        let n_index = self.compressed.index_stream.blocks.len();
        let jobs: Vec<(StreamKind, usize)> = (0..n_index)
            .map(|pos| (StreamKind::Index, pos))
            .chain(
                (0..self.compressed.value_stream.blocks.len()).map(|pos| (StreamKind::Value, pos)),
            )
            .collect();

        let run = |lane: &mut Lane, &(stream, pos): &(StreamKind, usize)| {
            let (decoder, encoded, _) = self.stream_parts(stream);
            decoder.decode_block(lane, &encoded.blocks[pos])
        };
        let empty_hook = FaultHook::default();
        let pool_before = recode_udp::pool::global().stats();
        // The sink only feeds the flight recorder's lane tracks.
        let sink_fn = |e: &JobEvent| {
            recorder::record(
                recorder::EventKind::BlockOutcome,
                recorder::Track::lane(e.lane),
                "block",
                e.cycles,
                0,
            );
        };
        let sink: Option<JobEventSink<'_>> = recorder::is_enabled().then_some(&sink_fn);
        let t_batch = Instant::now();
        let outcome: BatchOutcome<UdpError> = {
            let _span = recorder::span(recorder::Track::MAIN, "exec.decode_batch");
            sys.udp.run_jobs_observed(&jobs, run, faults.unwrap_or(&empty_hook), sink)
        };
        let batch_ns = t_batch.elapsed().as_nanos() as u64;

        let mut report = outcome.report;
        let mut tracker = budget.map(|b| BudgetTracker::new(*b));
        let mut blocks_ok = 0usize;
        let mut blocks_recovered = 0usize;
        let mut blocks_retried = 0usize;
        let mut blocks_fell_back = 0usize;
        let mut fallback_bytes = 0usize;
        let mut retry_cycles = 0u64;
        let mut retry_ns = 0u64;
        let mut fallback_ns = 0u64;
        let mut block_events = Vec::with_capacity(jobs.len());
        let mut outputs: Vec<Vec<u8>> = Vec::with_capacity(jobs.len());

        for (k, result) in outcome.results.into_iter().enumerate() {
            let (stream, block) = jobs[k];
            let mut event = |cycles, outcome| {
                let lane = k % sys.udp.lanes;
                block_events.push(BlockEvent { job: k, stream, block, lane, cycles, outcome });
            };
            if let Ok(o) = result {
                blocks_ok += 1;
                event(o.cycles, BlockOutcome::Ok);
                outputs.push(o.output);
                continue;
            }
            let t_retry = Instant::now();
            // One pooled lane serves every retry attempt: `run` fully
            // resets lane state, so attempt N is as "fresh" as a new lane.
            let mut lane = recode_udp::pool::global().checkout();
            let recovered = self
                .recover_block(stream, block, k, &mut lane, recorder::Track::MAIN, tracker.as_mut())
                .map_err(|e| {
                    with_completed_blocks(e, blocks_ok + blocks_recovered + blocks_fell_back)
                })?;
            retry_ns += t_retry.elapsed().as_nanos() as u64;
            blocks_retried += recovered.attempts();
            match recovered {
                Recovered::Retried { outcome: o, .. } => {
                    report.output_bytes += o.output.len() as u64;
                    report.opclass.merge(&o.opclass);
                    report.stage_cycles.merge(&o.stage_cycles);
                    retry_cycles += o.cycles;
                    event(o.cycles, BlockOutcome::Retried);
                    blocks_recovered += 1;
                    outputs.push(o.output);
                }
                Recovered::FellBack(raw) => {
                    let t_fallback = Instant::now();
                    blocks_fell_back += 1;
                    fallback_bytes += raw.len();
                    report.output_bytes += raw.len() as u64;
                    event(0, BlockOutcome::FellBack);
                    outputs.push(raw.to_vec());
                    fallback_ns += t_fallback.elapsed().as_nanos() as u64;
                }
            }
        }

        // Fold retry decode cycles into the batch totals: retries run
        // serially after the batch on one lane, so they extend the critical
        // path as well as the busy sum, and utilization must be recomputed.
        // Budget backoff is pure waiting: it stretches the makespan but is
        // never busy work, keeping budgeted and unbudgeted clean runs
        // cycle-identical when backoff is zero.
        let backoff_cycles = tracker.as_ref().map_or(0, BudgetTracker::backoff_cycles);
        if retry_cycles > 0 {
            report.makespan_cycles += retry_cycles;
            report.busy_cycles += retry_cycles;
        }
        report.makespan_cycles += backoff_cycles;
        if retry_cycles > 0 || backoff_cycles > 0 {
            report.refresh_utilization();
        }

        let t_reassemble = Instant::now();
        let index_bytes: Vec<u8> = outputs[..n_index].concat();
        let value_bytes: Vec<u8> = outputs[n_index..].concat();
        if !index_bytes.len().is_multiple_of(4) {
            return Err(ExecError::Reassembly(format!(
                "index stream decoded to {} bytes, not 4-byte aligned",
                index_bytes.len()
            )));
        }
        if !value_bytes.len().is_multiple_of(8) {
            return Err(ExecError::Reassembly(format!(
                "value stream decoded to {} bytes, not 8-byte aligned",
                value_bytes.len()
            )));
        }
        let decoded_bytes = (index_bytes.len() + value_bytes.len()) as u64;
        let col_idx: Vec<u32> = index_bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact")))
            .collect();
        let values: Vec<f64> = value_bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact")))
            .collect();
        let a = Csr::try_from_parts(
            self.compressed.nrows,
            self.compressed.ncols,
            self.compressed.row_ptr.clone(),
            col_idx,
            values,
        )
        .map_err(|e| ExecError::Reassembly(format!("decoded matrix invalid: {e}")))?;
        let reassemble_ns = t_reassemble.elapsed().as_nanos() as u64;

        let compressed_bytes = self.compressed.wire_bytes();
        // Fallback re-fetch is extra memory traffic over the same channel.
        let mem_stream_seconds = sys.mem.stream_seconds(compressed_bytes as u64)
            + sys.mem.stream_seconds(fallback_bytes as u64);
        let dma_seconds = sys.dma.transfer_seconds(jobs.len() as u64, compressed_bytes as u64);
        let freq = sys.udp.freq_hz;
        let mut spans = vec![Span::new(
            "exec.decode_batch",
            batch_ns,
            (report.makespan_cycles - retry_cycles) as f64 / freq,
            report.output_bytes,
        )];
        if blocks_retried > 0 {
            spans.push(Span::new("exec.retry", retry_ns, retry_cycles as f64 / freq, 0));
        }
        if blocks_fell_back > 0 {
            spans.push(Span::new("exec.fallback", fallback_ns, 0.0, fallback_bytes as u64));
        }
        spans.extend([
            Span::new("exec.reassemble", reassemble_ns, 0.0, decoded_bytes),
            Span::new(
                "exec.mem_stream",
                0,
                mem_stream_seconds,
                (compressed_bytes + fallback_bytes) as u64,
            ),
            Span::new("exec.dma", 0, dma_seconds, compressed_bytes as u64),
        ]);
        let stats = ExecStats {
            accel: report,
            mem_stream_seconds,
            dma_seconds,
            compressed_bytes,
            blocks_retried,
            blocks_fell_back,
            fallback_bytes,
            retry_cycles,
            backoff_cycles,
            degraded: blocks_retried > 0 || blocks_fell_back > 0,
            software_decode: false,
            blocks_ok,
            blocks_recovered,
            overlap: OverlapStats::default(),
            spans,
            block_events,
            pool: Some(recode_udp::pool::global().stats().since(&pool_before)),
        };
        Ok((a, stats))
    }

    /// Full recoding-enhanced SpMV: UDP-decode, then multiply with `kernel`.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`]; panics on shape mismatch like
    /// the plain kernels do.
    pub fn spmv(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_with(sys, kernel, x, RunOptions::default())
    }

    /// [`RecodedSpmv::spmv`] under `opts`, as for
    /// [`RecodedSpmv::decompress_via_udp_with`]. The stats also carry the
    /// `exec.cpu_multiply` span, whose bytes are the dense vectors the
    /// multiply streams through memory.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp_with`].
    pub fn spmv_with(
        &self,
        sys: &SystemConfig,
        kernel: SpmvKernel,
        x: &[f64],
        opts: RunOptions<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        let (a, mut stats) = self.decompress_via_udp_with(sys, opts)?;
        let t_multiply = Instant::now();
        let mut y = vec![0.0; a.nrows()];
        spmv_with_into(kernel, &a, x, &mut y);
        // The decoded matrix stays on-chip in the paper's tiled flow, so
        // only x and y are charged to DRAM.
        let vector_bytes = ((a.ncols() + a.nrows()) * 8) as u64;
        stats.spans.push(Span::new(
            "exec.cpu_multiply",
            t_multiply.elapsed().as_nanos() as u64,
            sys.mem.stream_seconds(vector_bytes),
            vector_bytes,
        ));
        Ok((y, stats))
    }

    /// Synthesized stats for a breaker-bypassed software decode: no
    /// accelerator cycles, the compressed stream still crosses memory, and
    /// the run is flagged `software_decode` + `degraded`.
    fn software_stats(&self, sys: &SystemConfig) -> ExecStats {
        let compressed_bytes = self.compressed.wire_bytes();
        ExecStats {
            mem_stream_seconds: sys.mem.stream_seconds(compressed_bytes as u64),
            compressed_bytes,
            degraded: true,
            software_decode: true,
            ..ExecStats::default()
        }
    }

    /// One fully governed job: circuit-breaker admission, an accelerator
    /// run under `opts` (normally with a budget), degradation to the
    /// software decoder when the breaker is open, and a typed terminal
    /// [`JobState`] no matter what happened — [`JobReport`] is total over
    /// all outcomes.
    ///
    /// The degradation ladder, top to bottom: accelerator happy path →
    /// per-block retry → per-block raw-CSR re-fetch → (breaker open)
    /// whole-job software decode. Every rung is bit-exact; only the last
    /// gives up on the accelerator entirely. The caller keeps the breaker:
    /// [`TraceDocument::attach_breaker`](crate::telemetry::TraceDocument::attach_breaker)
    /// records its posture in a trace.
    pub fn run_job(
        &self,
        sys: &SystemConfig,
        opts: RunOptions<'_>,
        mut breaker: Option<&mut CircuitBreaker>,
    ) -> JobReport {
        let admitted = breaker.as_deref_mut().is_none_or(CircuitBreaker::admit);
        if !admitted {
            // Open breaker: the accelerator is bypassed entirely and the
            // job is served by the software decoder — degraded, bit-exact.
            let breaker_state =
                breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state);
            return match self.decompress_via_software() {
                Ok(a) => JobReport {
                    state: JobState::Degraded,
                    matrix: Some(a),
                    stats: Some(self.software_stats(sys)),
                    error: None,
                    software_path: true,
                    breaker: breaker_state,
                },
                Err(e) => JobReport {
                    state: JobState::Rejected,
                    matrix: None,
                    stats: None,
                    error: Some(ExecError::Codec(e)),
                    software_path: true,
                    breaker: breaker_state,
                },
            };
        }
        match self.decompress_via_udp_with(sys, opts) {
            Ok((a, stats)) => {
                if let Some(b) = breaker.as_deref_mut() {
                    b.record(stats.accel.jobs, stats.accel.jobs_failed);
                }
                let state = if stats.degraded { JobState::Degraded } else { JobState::Completed };
                JobReport {
                    state,
                    matrix: Some(a),
                    stats: Some(stats),
                    error: None,
                    software_path: false,
                    breaker: breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state),
                }
            }
            Err(e) => {
                if let Some(b) = breaker.as_deref_mut() {
                    // A run that died counts fully against the window.
                    let jobs = self.total_blocks().max(1);
                    b.record(jobs, jobs);
                }
                let state = match &e {
                    ExecError::DeadlineExceeded { .. } => JobState::DeadlineExceeded,
                    _ => JobState::Rejected,
                };
                JobReport {
                    state,
                    matrix: None,
                    stats: None,
                    error: Some(e),
                    software_path: false,
                    breaker: breaker.as_deref().map_or(BreakerState::Closed, CircuitBreaker::state),
                }
            }
        }
    }

    /// Software-only decode path (reference), for differential testing.
    /// On a traced instance ([`RecodedSpmv::new_traced`]) the per-stage
    /// decode timings accumulate into the attached telemetry.
    ///
    /// # Errors
    /// Codec errors.
    pub fn decompress_via_software(&self) -> Result<Csr, CodecError> {
        match &self.stage_telemetry {
            Some(t) => self.compressed.decompress_with_telemetry(t),
            None => self.compressed.decompress(),
        }
    }

    /// The lane decoder, compressed blocks and raw-store bytes of `stream`.
    pub(crate) fn stream_parts(
        &self,
        stream: StreamKind,
    ) -> (&DshDecoder, &BlockStream, Option<&[u8]>) {
        let raw = self.raw_store.as_ref();
        match stream {
            StreamKind::Index => (
                &self.index_decoder,
                &self.compressed.index_stream,
                raw.map(|s| s.index_bytes.as_slice()),
            ),
            StreamKind::Value => (
                &self.value_decoder,
                &self.compressed.value_stream,
                raw.map(|s| s.value_bytes.as_slice()),
            ),
        }
    }

    /// Index plus value blocks: the job count of a full decode.
    fn total_blocks(&self) -> usize {
        self.compressed.index_stream.blocks.len() + self.compressed.value_stream.blocks.len()
    }

    /// The fault ladder both executors run for block `pos` of `stream`
    /// (batch job number `job`) once its first decode has failed: up to
    /// [`MAX_BLOCK_RETRIES`] hook-free retries on `lane`, then the block's
    /// range of the [`RawFallbackStore`], then [`ExecError::Unrecoverable`].
    ///
    /// Transient faults (injected traps, late DMA) clear on a retry; CRC
    /// failures repeat deterministically and fall through to the raw
    /// store. Every attempt is first admitted by the budget `tracker`, the
    /// job's preemption point, and a successful one is charged to it. An
    /// exhausted budget is [`ExecError::DeadlineExceeded`] with
    /// `completed_blocks` left at 0 for the caller to fill in
    /// ([`with_completed_blocks`]). Retry and fallback events go to the
    /// flight recorder on `track`.
    pub(crate) fn recover_block(
        &self,
        stream: StreamKind,
        pos: usize,
        job: usize,
        lane: &mut Lane,
        track: recorder::Track,
        mut tracker: Option<&mut BudgetTracker>,
    ) -> ExecResult<Recovered<'_>> {
        let (decoder, encoded, raw) = self.stream_parts(stream);
        let block = &encoded.blocks[pos];
        let mut last_err = None;
        for attempt in 1..=MAX_BLOCK_RETRIES {
            if let Some(t) = tracker.as_deref_mut() {
                if let Err(what) = t.admit_retry() {
                    return Err(ExecError::DeadlineExceeded {
                        budget: what.to_string(),
                        completed_blocks: 0,
                        total_blocks: self.total_blocks(),
                    });
                }
            }
            recorder::record(
                recorder::EventKind::Retry,
                track,
                "exec.retry",
                attempt as u64,
                job as u64,
            );
            match decoder.decode_block(lane, block) {
                Ok(outcome) => {
                    if let Some(t) = tracker {
                        t.charge_retry_cycles(outcome.cycles);
                    }
                    return Ok(Recovered::Retried { attempts: attempt, outcome });
                }
                Err(e) => last_err = Some(e),
            }
        }
        let Some(raw) =
            raw.and_then(|b| RawFallbackStore::block_range(b, pos, encoded.block_bytes))
        else {
            let source = last_err.expect("MAX_BLOCK_RETRIES > 0, so a retry failed");
            return Err(ExecError::Unrecoverable {
                block: source.block().or(Some(pos)),
                lane: None,
                source,
            });
        };
        recorder::record(
            recorder::EventKind::Fallback,
            track,
            "exec.fallback",
            raw.len() as u64,
            job as u64,
        );
        Ok(Recovered::FellBack(raw))
    }
}

/// How [`RecodedSpmv::recover_block`] served a block whose first decode
/// failed.
pub(crate) enum Recovered<'s> {
    /// Retry number `attempts` decoded the block.
    Retried { attempts: usize, outcome: JobOutcome },
    /// Every retry failed; these are the block's raw bytes from the store.
    FellBack(&'s [u8]),
}

impl Recovered<'_> {
    /// Retry attempts made, each admitted by the budget.
    pub(crate) fn attempts(&self) -> usize {
        match self {
            Recovered::Retried { attempts, .. } => *attempts,
            Recovered::FellBack(_) => MAX_BLOCK_RETRIES,
        }
    }
}

/// Fills in how many blocks a run had finished when its budget ran out;
/// other errors pass through unchanged.
pub(crate) fn with_completed_blocks(e: ExecError, completed: usize) -> ExecError {
    match e {
        ExecError::DeadlineExceeded { budget, total_blocks, .. } => {
            ExecError::DeadlineExceeded { budget, completed_blocks: completed, total_blocks }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_sparse::prelude::*;

    fn faulty(hook: &FaultHook) -> RunOptions<'_> {
        RunOptions { faults: Some(hook), ..RunOptions::default() }
    }

    fn budgeted<'a>(faults: Option<&'a FaultHook>, budget: &'a JobBudget) -> RunOptions<'a> {
        RunOptions { faults, budget: Some(budget) }
    }

    fn test_matrix() -> Csr {
        generate(
            &GenSpec::Stencil2D {
                nx: 60,
                ny: 60,
                points: 9,
                values: ValueModel::QuantizedGaussian { levels: 48 },
            },
            17,
        )
    }

    #[test]
    fn udp_decode_equals_software_decode_equals_original() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let (via_udp, stats) = r.decompress_via_udp(&sys).unwrap();
        let via_sw = r.decompress_via_software().unwrap();
        assert_eq!(via_udp, a, "UDP-decoded matrix differs from original");
        assert_eq!(via_sw, a);
        assert!(stats.accel.makespan_cycles > 0);
        assert!(stats.mem_stream_seconds > 0.0);
        assert!(stats.dma_seconds > 0.0);
        assert!(stats.compressed_bytes < a.nnz() * 12);
        assert!(!stats.degraded, "clean decode must not be degraded");
        assert_eq!(stats.blocks_retried, 0);
        assert_eq!(stats.blocks_fell_back, 0);
    }

    #[test]
    fn recoded_spmv_matches_uncompressed_kernel_bit_for_bit() {
        let a = test_matrix();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        for kernel in [SpmvKernel::Serial, SpmvKernel::RowParallel] {
            let (y, _) = r.spmv(&sys, kernel, &x).unwrap();
            assert_eq!(y, want, "kernel {kernel:?}");
        }
    }

    #[test]
    fn cpu_snappy_config_also_round_trips() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::cpu_snappy()).unwrap();
        let (b, _) = r.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn injected_lane_trap_recovers_via_retry() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).trap(1);
        let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        assert_eq!(b, a, "retried decode must stay bit-exact");
        assert!(stats.degraded);
        assert!(stats.blocks_retried >= 2, "retried {}", stats.blocks_retried);
        // Traps are transient: the hook does not apply to retries, so the
        // raw store is never needed.
        assert_eq!(stats.blocks_fell_back, 0);
        assert_eq!(stats.accel.jobs_failed, 2);
    }

    #[test]
    fn corrupt_block_falls_back_to_raw_store_bit_exact() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        // Flip a payload bit; CRC catches it on every decode attempt.
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        let (b, stats) = r.decompress_via_udp(&sys).unwrap();
        assert_eq!(b, a, "fallback decode must stay bit-exact");
        assert!(stats.degraded);
        assert!(stats.blocks_retried > 0);
        assert_eq!(stats.blocks_fell_back, 1);
        assert!(stats.fallback_bytes > 0);
    }

    #[test]
    fn corrupt_block_without_store_is_a_typed_error_naming_the_block() {
        let a = test_matrix();
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap();
        r.compressed_mut().value_stream.blocks[1].payload[0] ^= 0x40;
        let err = r.decompress_via_udp(&SystemConfig::ddr4()).unwrap_err();
        match &err {
            ExecError::Unrecoverable { block, source, .. } => {
                assert_eq!(*block, Some(1), "{err}");
                assert!(source.codec_error().is_some(), "{err}");
            }
            other => panic!("expected Unrecoverable, got {other}"),
        }
        assert!(err.to_string().contains("block 1"), "{err}");
    }

    #[test]
    fn injected_dma_stall_charges_cycles_without_degrading() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().stall(0, 100_000);
        let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        assert_eq!(b, a);
        assert_eq!(stats.accel.injected_stall_cycles, 100_000);
        assert!(!stats.degraded, "a stall slows the batch but decodes cleanly");
    }

    #[test]
    fn retry_cycles_are_folded_into_the_makespan() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let (_, clean) = r.decompress_via_udp(&sys).unwrap();
        assert_eq!(clean.retry_cycles, 0);
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, faulty) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        assert!(faulty.retry_cycles > 0);
        // The trapped jobs cost nothing in the batch but their full decode
        // cycles on retry, so total busy work matches the clean run and the
        // serialized retries stretch the makespan past it.
        assert_eq!(faulty.accel.busy_cycles, clean.accel.busy_cycles);
        assert!(faulty.accel.makespan_cycles > clean.accel.makespan_cycles);
        // Utilization is recomputed over the folded totals.
        let expect = faulty.accel.busy_cycles as f64
            / (faulty.accel.makespan_cycles as f64 * faulty.accel.lanes as f64);
        assert!((faulty.accel.lane_utilization - expect).abs() < 1e-12);
    }

    #[test]
    fn spmv_stats_fold_into_a_consistent_document() {
        use crate::telemetry::TraceDocument;
        let a = test_matrix();
        let r = RecodedSpmv::new_traced(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let t0 = Instant::now();
        let (y, stats) = r.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
        let doc =
            TraceDocument::from_run(&r, &sys, &stats, "stencil", t0.elapsed().as_nanos() as u64);
        assert_eq!(y, recode_sparse::spmv::spmv(&a, &x));
        let errs = doc.validate();
        assert!(errs.is_empty(), "trace invariants violated: {errs:?}");
        assert_eq!(doc.matrix.name, "stencil");
        assert_eq!(doc.matrix.nnz, a.nnz());
        assert_eq!(doc.block_events.len(), stats.accel.jobs);
        assert_eq!(doc.counter("exec.jobs"), stats.accel.jobs as u64);
        for name in [
            "exec.decode_batch",
            "exec.reassemble",
            "exec.mem_stream",
            "exec.dma",
            "exec.cpu_multiply",
        ] {
            assert!(doc.spans.iter().any(|s| s.name == name), "missing span {name}");
        }
        // Encode-stage codec telemetry was captured at compression time.
        assert!(doc.codec_stages.encode.delta.calls > 0);
        assert!(doc.codec_stages.encode.huffman.calls > 0);
        // Traffic covers the compressed stream, row pointers, and vectors.
        assert!(doc.mem_traffic.total_bytes > 0);
        assert!(doc.counter("mem.read.compressed_stream") == stats.compressed_bytes as u64);
        assert!(doc.counter("mem.read.row_ptr") > 0);
        assert!(doc.counter("mem.read.vectors") > 0);
    }

    #[test]
    fn block_events_classify_outcomes() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        // Job 0 (index block 0) traps transiently; value block 0 is corrupt
        // and falls back to the raw store.
        r.compressed_mut().value_stream.blocks[0].payload[0] ^= 0x40;
        let n_index = r.compressed().index_stream.blocks.len();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let (b, stats) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        assert_eq!(b, a);
        let evs = &stats.block_events;
        assert_eq!(evs.len(), stats.accel.jobs);
        for (k, e) in evs.iter().enumerate() {
            assert_eq!(e.job, k, "events sorted by job");
            assert_eq!(e.lane, k % sys.udp.lanes);
        }
        assert_eq!(evs[0].outcome, BlockOutcome::Retried);
        assert_eq!(evs[0].stream, StreamKind::Index);
        assert!(evs[0].cycles > 0, "retried block reports its successful decode cycles");
        let fb = &evs[n_index];
        assert_eq!(fb.stream, StreamKind::Value);
        assert_eq!(fb.block, 0);
        assert_eq!(fb.outcome, BlockOutcome::FellBack);
        assert_eq!(fb.cycles, 0, "fallback block never decoded");
        let ok = evs.iter().filter(|e| e.outcome == BlockOutcome::Ok).count();
        assert_eq!(ok, evs.len() - 2);
    }

    #[test]
    fn lane_utilization_is_high_for_many_blocks() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let (_, stats) = r.decompress_via_udp(&SystemConfig::ddr4()).unwrap();
        // 60x60 9-pt has ~31k nnz -> ~20 blocks over 64 lanes; utilization
        // just needs to be sane, not high.
        assert!(stats.accel.lane_utilization > 0.0 && stats.accel.lane_utilization <= 1.0);
    }

    /// Drift lock: every executor path must derive bytes-per-nnz and lane
    /// utilization through the one shared helper each, so the batch and
    /// pipelined stats can never silently diverge.
    #[test]
    fn batch_and_overlap_stats_share_one_metric_definition() {
        use crate::overlap::{OverlapConfig, OverlapExecutor};
        use recode_codec::metrics::bytes_per_nnz;
        use recode_udp::accel::lane_utilization;

        let a = test_matrix();
        let sys = SystemConfig::ddr4();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let cm = r.compressed();
        let x = vec![1.0; a.ncols()];

        // Batch path: ExecStats::bytes_per_nnz is the same helper, and the
        // report's utilization is the shared lane_utilization definition.
        let (_, batch) = r.spmv(&sys, SpmvKernel::Serial, &x).unwrap();
        assert_eq!(batch.compressed_bytes, cm.wire_bytes());
        assert_eq!(batch.bytes_per_nnz(a.nnz()), cm.bytes_per_nnz());
        assert_eq!(
            batch.accel.lane_utilization,
            lane_utilization(
                batch.accel.busy_cycles,
                batch.accel.makespan_cycles,
                batch.accel.lanes
            ),
            "batch AccelReport must use the shared lane_utilization helper"
        );

        // Pipelined path: same two definitions again.
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, ov) = ex.spmv(&sys, &x).unwrap();
        assert_eq!(ov.bytes_per_nnz(a.nnz()), bytes_per_nnz(ov.compressed_bytes, a.nnz()));
        assert_eq!(
            ov.accel.lane_utilization,
            lane_utilization(ov.accel.busy_cycles, ov.accel.makespan_cycles, ov.accel.lanes),
            "overlap AccelReport must use the shared lane_utilization helper"
        );

        // Degenerate inputs stay locked down too.
        assert_eq!(bytes_per_nnz(123, 0), 0.0);
        assert_eq!(lane_utilization(0, 0, 64), 1.0);
    }

    #[test]
    fn zero_deadline_with_faults_is_deadline_exceeded() {
        use std::time::Duration;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let err = r.decompress_via_udp_with(&sys, budgeted(Some(&hook), &budget)).unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, completed_blocks, total_blocks } => {
                assert_eq!(budget, "wall deadline");
                assert!(completed_blocks < total_blocks, "{err}");
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert!(err.to_string().contains("wall deadline"), "{err}");
    }

    #[test]
    fn retry_budget_exhaustion_names_the_budget() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        // Two transient traps against a budget that admits only one retry.
        let hook = FaultHook::new().trap(0).trap(1);
        let budget = JobBudget { max_total_retries: Some(1), ..JobBudget::default() };
        let err = r.decompress_via_udp_with(&sys, budgeted(Some(&hook), &budget)).unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, .. } => assert_eq!(budget, "retry budget"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // The same faults under an unbounded budget recover fine.
        let (b, _) = r
            .decompress_via_udp_with(&sys, budgeted(Some(&hook), &JobBudget::unbounded()))
            .unwrap();
        assert_eq!(b, a);
    }

    #[test]
    fn unbounded_budget_is_cycle_identical_to_the_unbudgeted_path() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).trap(1);
        let (b1, plain) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        let budget = JobBudget::unbounded();
        let (b2, budgeted) =
            r.decompress_via_udp_with(&sys, budgeted(Some(&hook), &budget)).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(budgeted.accel.makespan_cycles, plain.accel.makespan_cycles);
        assert_eq!(budgeted.accel.busy_cycles, plain.accel.busy_cycles);
        assert_eq!(budgeted.retry_cycles, plain.retry_cycles);
        assert_eq!(budgeted.blocks_retried, plain.blocks_retried);
        assert_eq!(budgeted.backoff_cycles, 0, "unbounded default has zero backoff");
    }

    #[test]
    fn backoff_stretches_makespan_but_never_busy_cycles() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, plain) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        let budget = JobBudget { backoff_cycles_per_retry: 1_000, ..JobBudget::default() };
        let (_, backed) = r.decompress_via_udp_with(&sys, budgeted(Some(&hook), &budget)).unwrap();
        // Two admitted retries -> 2000 backoff cycles, critical path only.
        assert_eq!(backed.backoff_cycles, 2_000);
        assert_eq!(
            backed.accel.makespan_cycles,
            plain.accel.makespan_cycles + 2_000,
            "backoff stretches the makespan"
        );
        assert_eq!(backed.accel.busy_cycles, plain.accel.busy_cycles, "lanes never spin backoff");
    }

    #[test]
    fn block_accounting_identity_holds_on_every_terminal_path() {
        let a = test_matrix();
        let sys = SystemConfig::ddr4();
        let check = |stats: &ExecStats, what: &str| {
            assert_eq!(
                stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back,
                stats.accel.jobs,
                "accounting broken on {what}"
            );
        };
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let (_, clean) = r.decompress_via_udp(&sys).unwrap();
        check(&clean, "clean run");
        assert_eq!(clean.blocks_ok, clean.accel.jobs);
        let hook = FaultHook::new().trap(0).trap(1);
        let (_, retried) = r.decompress_via_udp_with(&sys, faulty(&hook)).unwrap();
        check(&retried, "retried run");
        assert_eq!(retried.blocks_recovered, 2);
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        let budget = JobBudget::unbounded();
        let (_, fell_back) = r.decompress_via_udp_with(&sys, budgeted(None, &budget)).unwrap();
        check(&fell_back, "fallback run");
        assert_eq!(fell_back.blocks_fell_back, 1);
    }

    #[test]
    fn run_job_walks_the_breaker_ladder_bit_exact() {
        use crate::resilience::BreakerConfig;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let budget = JobBudget::unbounded();

        // No breaker, clean run: Completed on the accelerator.
        let report = r.run_job(&sys, budgeted(None, &budget), None);
        assert_eq!(report.state, JobState::Completed);
        assert!(!report.software_path);
        assert_eq!(report.matrix.as_ref(), Some(&a));

        // An already-open breaker bypasses to the software decoder.
        let config = BreakerConfig {
            window_runs: 4,
            error_rate_threshold: 0.5,
            min_window_jobs: 10,
            cooldown_runs: 2,
        };
        let mut b = CircuitBreaker::new(config);
        b.record(10, 10);
        assert_eq!(b.state(), BreakerState::Open);
        let report = r.run_job(&sys, budgeted(None, &budget), Some(&mut b));
        assert_eq!(report.state, JobState::Degraded);
        assert!(report.software_path, "open breaker must bypass the accelerator");
        assert_eq!(report.matrix.as_ref(), Some(&a), "software bypass stays bit-exact");
        let stats = report.stats.expect("bypass synthesizes stats");
        assert!(stats.software_decode && stats.degraded);
        assert_eq!(stats.accel.jobs, 0, "no accelerator work on the bypass");

        // The next run is the half-open probe; it succeeds and re-closes.
        let report = r.run_job(&sys, budgeted(None, &budget), Some(&mut b));
        assert_eq!(report.state, JobState::Completed);
        assert!(!report.software_path, "probe runs on the accelerator");
        assert_eq!(report.breaker, BreakerState::Closed, "clean probe closes the breaker");
    }

    #[test]
    fn run_job_records_a_dead_run_and_trips_the_breaker() {
        use crate::resilience::BreakerConfig;
        let a = test_matrix();
        let cm = CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap();
        // Corrupt with no fallback store: the run dies with a typed error.
        r.compressed_mut().index_stream.blocks[0].payload[0] ^= 0x40;
        let sys = SystemConfig::ddr4();
        let config = BreakerConfig {
            window_runs: 4,
            error_rate_threshold: 0.5,
            min_window_jobs: 10,
            cooldown_runs: 2,
        };
        let mut b = CircuitBreaker::new(config);
        let report = r.run_job(&sys, budgeted(None, &JobBudget::unbounded()), Some(&mut b));
        assert_eq!(report.state, JobState::Rejected);
        assert!(report.error.is_some());
        assert!(report.matrix.is_none());
        assert_eq!(b.state(), BreakerState::Open, "a dead run counts fully against the window");
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn run_job_surfaces_budget_exhaustion_as_deadline_exceeded() {
        use std::time::Duration;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0);
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let report = r.run_job(&sys, budgeted(Some(&hook), &budget), None);
        assert_eq!(report.state, JobState::DeadlineExceeded);
        assert!(matches!(report.error, Some(ExecError::DeadlineExceeded { .. })));
    }
}
