//! **Overlapped decode/multiply execution with decoded-block caching** —
//! the paper's Fig. 7 pipeline taken one step further.
//!
//! A serial tiled loop decodes a tile, multiplies it, then decodes the
//! next: decode and multiply cycles *add* (this executor with
//! [`OverlapConfig::overlap`] off). On the real machine the UDP lanes and
//! the CPU cores are independent engines, so a double-buffered schedule
//! lets the lanes decode tile *i + 1* while the CPU multiplies tile *i*;
//! per stage the modeled cost is `max(decode, multiply)` instead of their
//! sum:
//!
//! ```text
//! lane:  [d0][d1   ][d2][d3   ]
//! cpu:       [m0][m1   ][m2][m3]
//! makespan = d0 + Σ max(d_i, m_{i-1}) + m_last
//! ```
//!
//! [`OverlapExecutor`] realizes both halves of that claim:
//!
//! * **modeled** — the per-tile decode cycles (from the lane simulator,
//!   stalls and retries included) and modeled CPU multiply cycles are
//!   combined by the pipelined-schedule formula above, and both the
//!   overlapped and the serial (sum) makespan are reported in
//!   [`OverlapStats`];
//! * **wall-clock** — a producer thread decodes blocks in stream order and
//!   feeds tiles through a bounded channel to a pool of CPU worker threads
//!   (`RECODE_THREADS`, default `available_parallelism`), whose partial row
//!   sums are merged back in tile order so the result is deterministic for
//!   a given tiling.
//!
//! An [`ExecCache`] (seeded-capacity LRU over decoded blocks) sits in front
//! of the lanes: iterative callers — [`OverlapExecutor::spmv_iter`],
//! [`OverlapExecutor::conjugate_gradient`] — pay decode cost once and hit
//! the cache on every later iteration, with hits/misses/evictions folded into
//! [`ExecStats`] and the trace document.
//!
//! The schedule composes with the fault layer of [`crate::exec`]: a block
//! that traps goes down the same fault ladder as on the batch path
//! (retries on a fresh lane, then the [`crate::exec::RawFallbackStore`]),
//! *inside* its pipeline slot, so a retried or fallback block can never
//! land in the wrong output position.

use crate::arch::SystemConfig;
use crate::error::{ExecError, ExecResult};
use crate::exec::{
    check_stream_structure, with_completed_blocks, ExecStats, RecodedSpmv, Recovered, RunOptions,
};
use crate::recorder;
use crate::resilience::{BudgetTracker, JobBudget};
use crate::telemetry::{BlockEvent, BlockOutcome, Span, StreamKind};
use recode_sparse::solve::{self, SolveResult};
use recode_udp::accel::{panic_payload_message, AccelReport, FaultHook};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Key of a decoded block: which stream, which block position.
pub type CacheKey = (StreamKind, usize);

/// Lifetime counters of an [`ExecCache`]. Per-run numbers in
/// [`OverlapStats`] are deltas of two snapshots of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (the block was then decoded and inserted).
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Decoded bytes served from the cache (decode work avoided).
    pub hit_bytes: u64,
}

struct CacheEntry {
    bytes: Arc<Vec<u8>>,
    stamp: u64,
}

/// Seeded-capacity LRU cache over decoded blocks, keyed by
/// `(stream, block)`. Capacity is counted in *blocks* (decoded blocks are
/// all ≤ the codec block size), and capacity 0 disables the cache
/// entirely — inserts are dropped and lookups are never attempted by the
/// executor, so the counters stay zero.
pub struct ExecCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, CacheEntry>,
    stats: CacheStats,
}

impl std::fmt::Debug for ExecCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl ExecCache {
    /// Cache holding at most `capacity` decoded blocks (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        ExecCache { capacity, tick: 0, map: HashMap::new(), stats: CacheStats::default() }
    }

    /// Maximum resident blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Blocks currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&mut self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.stamp = self.tick;
            self.stats.hits += 1;
            self.stats.hit_bytes += e.bytes.len() as u64;
            recorder::record(
                recorder::EventKind::CacheHit,
                recorder::Track::stage(0),
                "cache.hit",
                e.bytes.len() as u64,
                key.1 as u64,
            );
            Some(Arc::clone(&e.bytes))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry when full.
    /// A no-op at capacity 0.
    pub fn insert(&mut self, key: CacheKey, bytes: Arc<Vec<u8>>) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k) {
                self.map.remove(&victim);
                self.stats.evictions += 1;
                recorder::record(
                    recorder::EventKind::CacheEvict,
                    recorder::Track::stage(0),
                    "cache.evict",
                    victim.1 as u64,
                    0,
                );
            }
        }
        self.map.insert(key, CacheEntry { bytes, stamp: self.tick });
    }
}

/// Knobs of the overlapped executor.
#[derive(Debug, Clone, Copy)]
pub struct OverlapConfig {
    /// Model the pipelined schedule (`max(decode, multiply)` per stage).
    /// When false the same tiled execution runs but stage costs add.
    pub overlap: bool,
    /// Decoded-block LRU capacity in blocks; 0 disables caching.
    pub cache_blocks: usize,
    /// CPU multiply workers; 0 means `RECODE_THREADS` or, failing that,
    /// `available_parallelism` (capped at 8).
    pub workers: usize,
}

impl Default for OverlapConfig {
    fn default() -> Self {
        OverlapConfig { overlap: true, cache_blocks: 0, workers: 0 }
    }
}

/// Parses a `RECODE_THREADS` value into a worker count. Pure so both the
/// accept and the reject path are testable without mutating the process
/// environment (env-var mutation races under the parallel test harness).
///
/// # Errors
/// A human-readable message naming the variable and the offending value:
/// non-numeric garbage, or an explicit `0` (a zero-thread pool cannot make
/// progress, so it is rejected rather than silently remapped).
pub fn parse_recode_threads(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err(format!("RECODE_THREADS must be at least 1, got \"{trimmed}\"")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "RECODE_THREADS is not a thread count: \"{raw}\" (expected a positive integer)"
        )),
    }
}

impl OverlapConfig {
    /// Resolves `workers == 0` through `RECODE_THREADS` and the host. A
    /// garbage `RECODE_THREADS` value is *not* silently ignored: a warning
    /// naming the value goes to stderr and the host default is used.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        if let Ok(v) = std::env::var("RECODE_THREADS") {
            match parse_recode_threads(&v) {
                Ok(n) => return n,
                Err(msg) => eprintln!("warning: ignoring {msg}; using the host default"),
            }
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get).min(8)
    }
}

/// Pipelined-schedule and cache statistics of one overlapped run, carried
/// inside [`ExecStats::overlap`]. All-zero (`enabled == false`) for the
/// plain batch path, so old traces deserialize unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverlapStats {
    /// True when the run modeled the pipelined schedule.
    pub enabled: bool,
    /// Pipeline stages executed (tiles = index blocks with non-zeros).
    pub stages: usize,
    /// CPU multiply workers used.
    pub workers: usize,
    /// Lane cycles spent decoding (stalls and successful retries included;
    /// cache hits cost zero).
    pub decode_cycles: u64,
    /// Modeled CPU multiply cycles across all tiles, in UDP-clock cycles.
    pub multiply_cycles: u64,
    /// Modeled makespan of the pipelined schedule:
    /// `d0 + Σ max(d_i, m_{i-1}) + m_last`.
    pub overlapped_makespan_cycles: u64,
    /// Modeled makespan with no overlap: `Σ d_i + Σ m_i`.
    pub serial_makespan_cycles: u64,
    /// Cache hits during this run.
    pub cache_hits: u64,
    /// Cache misses during this run.
    pub cache_misses: u64,
    /// Cache evictions during this run.
    pub cache_evictions: u64,
    /// Decoded bytes served from the cache during this run.
    pub cache_hit_bytes: u64,
}

impl OverlapStats {
    /// Cycles the pipelined schedule saves over the serial one.
    pub fn saved_cycles(&self) -> u64 {
        self.serial_makespan_cycles.saturating_sub(self.overlapped_makespan_cycles)
    }
}

/// One decoded block, as produced by the retry/fallback-aware decode step.
struct DecodedBlock {
    bytes: Arc<Vec<u8>>,
    /// Lane cycles of the successful first attempt (0 for hit/retry/fallback).
    cycles: u64,
    stall_cycles: u64,
    retries: usize,
    retry_cycles: u64,
    fallback_bytes: usize,
    /// Compressed payload bytes fetched (0 on a cache hit).
    wire_bytes: usize,
    cache_hit: bool,
    outcome: BlockOutcome,
}

impl DecodedBlock {
    /// Every lane cycle this block charged to the pipeline's decode side.
    fn decode_cost(&self) -> u64 {
        self.cycles + self.retry_cycles + self.stall_cycles
    }
}

/// One tile of work handed from the decode side to the multiply side.
struct TileWork {
    tile: usize,
    k_start: usize,
    idx: Arc<Vec<u8>>,
    vals: Vec<u8>,
}

/// A worker's partial row sums for one tile.
struct TileResult {
    tile: usize,
    row_start: usize,
    partial: Vec<f64>,
}

/// Everything the producer (decode) side learns about a run.
#[derive(Default)]
struct ProducerOut {
    per_tile_decode: Vec<u64>,
    per_tile_nnz: Vec<usize>,
    /// One event per decode job, in production order.
    events: Vec<BlockEvent>,
    jobs: usize,
    jobs_failed: usize,
    blocks_ok: usize,
    blocks_recovered: usize,
    blocks_retried: usize,
    blocks_fell_back: usize,
    fallback_bytes: usize,
    retry_cycles: u64,
    backoff_cycles: u64,
    stall_cycles: u64,
    fetched_bytes: usize,
    decoded_bytes: u64,
    cache_hit_blocks: usize,
}

/// The overlapped, cached executor over one [`RecodedSpmv`].
///
/// The executor borrows the compressed matrix and owns the decoded-block
/// cache, so a single executor reused across calls is what makes iterative
/// workloads cheap: iteration 1 decodes, iterations 2… hit the cache.
pub struct OverlapExecutor<'m> {
    recoded: &'m RecodedSpmv,
    config: OverlapConfig,
    cache: Mutex<ExecCache>,
}

impl<'m> OverlapExecutor<'m> {
    /// Executor over `recoded` with `config`.
    pub fn new(recoded: &'m RecodedSpmv, config: OverlapConfig) -> Self {
        OverlapExecutor { recoded, config, cache: Mutex::new(ExecCache::new(config.cache_blocks)) }
    }

    /// Executor over an operand recoded under a persisted tuned config,
    /// verifying the operand really carries the tuned codec stream.
    ///
    /// The overlap pipeline's tiled multiply is kernel-agnostic (each tile
    /// is reduced in CSR row order), so the tuned *kernel* choice applies
    /// to the batch path; what the tuned config contributes here is the
    /// codec stage subset and block size the decode lanes run.
    ///
    /// # Errors
    /// [`crate::tune::TuneError::CodecMismatch`] when `recoded` was
    /// compressed under a different codec config than `tuned` prescribes.
    pub fn from_tuned(
        recoded: &'m RecodedSpmv,
        tuned: &crate::tune::TunedConfig,
        config: OverlapConfig,
    ) -> Result<Self, crate::tune::TuneError> {
        if recoded.compressed().config != tuned.codec_config() {
            return Err(crate::tune::TuneError::CodecMismatch);
        }
        Ok(Self::new(recoded, config))
    }

    /// The configuration this executor runs with.
    pub fn config(&self) -> OverlapConfig {
        self.config
    }

    /// Lifetime cache counters (across every run of this executor).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache poisoned").stats()
    }

    /// Decoded blocks currently resident in the cache.
    pub fn cached_blocks(&self) -> usize {
        self.cache.lock().expect("cache poisoned").len()
    }

    /// Pipelined SpMV `y = A x`.
    ///
    /// # Errors
    /// As [`RecodedSpmv::decompress_via_udp`] — a block that fails decode,
    /// exhausts retries, and has no fallback coverage is
    /// [`ExecError::Unrecoverable`].
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv(&self, sys: &SystemConfig, x: &[f64]) -> ExecResult<(Vec<f64>, ExecStats)> {
        self.spmv_with(sys, x, RunOptions::default())
    }

    /// Repeated SpMV `x ← normalize(A x)` for `iters` iterations — the
    /// access pattern of every iterative consumer. With a warm cache only
    /// iteration 1 pays decode cycles. Returns the final iterate and the
    /// per-iteration stats.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv`].
    ///
    /// # Panics
    /// If the matrix is not square or `x0.len() != ncols`.
    pub fn spmv_iter(
        &self,
        sys: &SystemConfig,
        x0: &[f64],
        iters: usize,
    ) -> ExecResult<(Vec<f64>, Vec<ExecStats>)> {
        let cm = self.recoded.compressed();
        assert_eq!(cm.nrows, cm.ncols, "spmv_iter needs a square matrix");
        let mut x = x0.to_vec();
        let mut per_iter = Vec::with_capacity(iters);
        for _ in 0..iters {
            let (y, stats) = self.spmv(sys, &x)?;
            per_iter.push(stats);
            let norm = y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            x = if norm > 0.0 { y.iter().map(|v| v / norm).collect() } else { y };
        }
        Ok((x, per_iter))
    }

    /// Conjugate gradients with every `A p` apply going through the
    /// pipelined, cached executor. Returns the solve outcome plus the
    /// per-apply stats.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv`].
    pub fn conjugate_gradient(
        &self,
        sys: &SystemConfig,
        b: &[f64],
        tol: f64,
        max_iters: usize,
    ) -> ExecResult<(SolveResult, Vec<ExecStats>)> {
        let mut per_apply = Vec::new();
        let result = solve::conjugate_gradient_op(b, tol, max_iters, |x, y| {
            let (out, stats) = self.spmv(sys, x)?;
            y.copy_from_slice(&out);
            per_apply.push(stats);
            Ok::<(), ExecError>(())
        })?;
        Ok((result, per_apply))
    }

    /// Decodes one block through the same cache-then-retry-ladder path a
    /// pipelined run uses, returning the decoded length. Hidden: it exists
    /// so the allocation-regression suite can measure warm-cache hits
    /// without spinning up the worker threads `run` needs.
    #[doc(hidden)]
    pub fn decode_one_for_test(&self, stream: StreamKind, pos: usize) -> ExecResult<usize> {
        let hook = FaultHook::default();
        self.decode_one(stream, pos, usize::MAX, &hook, None).map(|d| d.bytes.len())
    }

    /// Decodes one block, consulting the cache first and falling through
    /// the shared fault ladder ([`RecodedSpmv::recover_block`]) on failure.
    /// `job` uses batch numbering (index blocks `0..n_index`, value blocks
    /// after). When a budget `tracker` is supplied it is consulted before
    /// every retry attempt and charged for successful ones.
    fn decode_one(
        &self,
        stream: StreamKind,
        pos: usize,
        job: usize,
        hook: &FaultHook,
        tracker: Option<&mut BudgetTracker>,
    ) -> ExecResult<DecodedBlock> {
        if self.config.cache_blocks > 0 {
            if let Some(bytes) = self.cache.lock().expect("cache poisoned").get((stream, pos)) {
                return Ok(DecodedBlock {
                    bytes,
                    cycles: 0,
                    stall_cycles: 0,
                    retries: 0,
                    retry_cycles: 0,
                    fallback_bytes: 0,
                    wire_bytes: 0,
                    cache_hit: true,
                    outcome: BlockOutcome::Ok,
                });
            }
        }

        let (decoder, encoded, _) = self.recoded.stream_parts(stream);
        let blk = &encoded.blocks[pos];
        let stall_cycles = hook.stall_cycles.get(&job).copied().unwrap_or(0);
        let wire_bytes = blk.payload.len();
        // Decode work happens on the producer (stage 0) track; cache hits
        // returned above never open this span.
        let _decode_span = recorder::span(recorder::Track::stage(0), "decode");
        let mut lane = recode_udp::pool::global().checkout();
        let first = if hook.trap_jobs.contains(&job) {
            None
        } else {
            decoder.decode_block(&mut lane, blk).ok()
        };

        let mut retries = 0;
        let mut retry_cycles = 0;
        let mut fallback_bytes = 0;
        let (cycles, outcome, bytes) = if let Some(o) = first {
            (o.cycles, BlockOutcome::Ok, o.output)
        } else {
            let recovered = self.recoded.recover_block(
                stream,
                pos,
                job,
                &mut lane,
                recorder::Track::stage(0),
                tracker,
            )?;
            retries = recovered.attempts();
            match recovered {
                Recovered::Retried { outcome: o, .. } => {
                    retry_cycles = o.cycles;
                    (0, BlockOutcome::Retried, o.output)
                }
                Recovered::FellBack(raw) => {
                    fallback_bytes = raw.len();
                    (0, BlockOutcome::FellBack, raw.to_vec())
                }
            }
        };
        let bytes = Arc::new(bytes);
        if self.config.cache_blocks > 0 {
            self.cache.lock().expect("cache poisoned").insert((stream, pos), Arc::clone(&bytes));
        }
        Ok(DecodedBlock {
            bytes,
            cycles,
            stall_cycles,
            retries,
            retry_cycles,
            fallback_bytes,
            wire_bytes,
            cache_hit: false,
            outcome,
        })
    }

    /// The decode side of the pipeline: walks index blocks in order,
    /// pulling value blocks as each tile needs them, and hands assembled
    /// tiles to `emit`. Runs on the producer thread (or inline). `emit`
    /// returns `false` when the consumers are gone (every worker exited) —
    /// the producer then stops decoding immediately instead of filling a
    /// channel nobody drains. Block events name lane `job % lanes`, the
    /// batch path's round-robin assignment.
    fn produce_tiles(
        &self,
        lanes: usize,
        hook: &FaultHook,
        budget: Option<&JobBudget>,
        mut emit: impl FnMut(TileWork) -> bool,
    ) -> ExecResult<ProducerOut> {
        let cm = self.recoded.compressed();
        let n_index = cm.index_stream.blocks.len();
        let mut tracker = budget.map(|b| BudgetTracker::new(*b));
        let mut out = ProducerOut::default();
        let mut val_buf: Vec<u8> = Vec::new();
        let mut next_value = 0usize;
        let mut k_global = 0usize;

        let note = |out: &mut ProducerOut, d: &DecodedBlock, stream: StreamKind, pos: usize| {
            let job = match stream {
                StreamKind::Index => pos,
                StreamKind::Value => n_index + pos,
            };
            out.decoded_bytes += d.bytes.len() as u64;
            if d.cache_hit {
                out.cache_hit_blocks += 1;
                return;
            }
            out.jobs += 1;
            if d.outcome != BlockOutcome::Ok {
                out.jobs_failed += 1;
            }
            match d.outcome {
                BlockOutcome::Ok => out.blocks_ok += 1,
                BlockOutcome::Retried => out.blocks_recovered += 1,
                BlockOutcome::FellBack => {
                    out.blocks_fell_back += 1;
                    out.fallback_bytes += d.fallback_bytes;
                }
            }
            out.blocks_retried += d.retries;
            out.retry_cycles += d.retry_cycles;
            out.stall_cycles += d.stall_cycles;
            out.fetched_bytes += d.wire_bytes;
            out.events.push(BlockEvent {
                job,
                stream,
                block: pos,
                lane: job % lanes,
                cycles: if d.outcome == BlockOutcome::Retried { d.retry_cycles } else { d.cycles },
                outcome: d.outcome,
            });
        };

        // A budget that runs out mid-run reports the blocks finished so
        // far (decoded, recovered, served from the raw store or the cache),
        // as the batch path does.
        let stopped = |out: &ProducerOut, e: ExecError| {
            with_completed_blocks(
                e,
                out.blocks_ok + out.blocks_recovered + out.blocks_fell_back + out.cache_hit_blocks,
            )
        };

        for t in 0..n_index {
            let ib = self
                .decode_one(StreamKind::Index, t, t, hook, tracker.as_mut())
                .map_err(|e| stopped(&out, e))?;
            let mut tile_cycles = ib.decode_cost();
            note(&mut out, &ib, StreamKind::Index, t);
            let tile_nnz = ib.bytes.len() / 4;
            while val_buf.len() < tile_nnz * 8 {
                let vpos = next_value;
                if vpos >= cm.value_stream.blocks.len() {
                    return Err(ExecError::Reassembly("value stream ended early".into()));
                }
                let vb = self
                    .decode_one(StreamKind::Value, vpos, n_index + vpos, hook, tracker.as_mut())
                    .map_err(|e| stopped(&out, e))?;
                next_value += 1;
                tile_cycles += vb.decode_cost();
                note(&mut out, &vb, StreamKind::Value, vpos);
                val_buf.extend_from_slice(&vb.bytes);
            }
            let vals: Vec<u8> = val_buf[..tile_nnz * 8].to_vec();
            val_buf.drain(..tile_nnz * 8);
            out.per_tile_decode.push(tile_cycles);
            out.per_tile_nnz.push(tile_nnz);
            if !emit(TileWork { tile: t, k_start: k_global, idx: Arc::clone(&ib.bytes), vals }) {
                // Every consumer is gone; `spmv_with` substitutes the real panic
                // message when one was captured.
                return Err(ExecError::WorkerPanic {
                    context: "tile channel closed: every multiply worker exited".into(),
                });
            }
            k_global += tile_nnz;
        }
        if k_global != cm.nnz {
            return Err(ExecError::Reassembly(format!(
                "streamed {} non-zeros but the matrix has {}",
                k_global, cm.nnz
            )));
        }
        out.backoff_cycles = tracker.as_ref().map_or(0, BudgetTracker::backoff_cycles);
        Ok(out)
    }

    /// [`OverlapExecutor::spmv`] under `opts` — the engine behind every
    /// entry point: decode (producer) and multiply (workers) run
    /// concurrently over a bounded channel; partial row sums merge back in
    /// tile order.
    ///
    /// * `faults` uses batch job numbering (index blocks first, then value
    ///   blocks), so the same hook means the same faults on either
    ///   executor; its `panic_tiles` fire inside the multiply workers.
    /// * `budget` is consulted by the producer at every retry boundary
    ///   (the pipeline's preemption points), so an exhausted budget
    ///   surfaces as [`ExecError::DeadlineExceeded`] instead of grinding
    ///   through the remaining tiles. Backoff accumulates into
    ///   [`ExecStats::backoff_cycles`] as a reported quantity; the modeled
    ///   pipelined makespan keeps its `max(decode, multiply)` definition.
    ///
    /// The returned stats carry the `exec.overlap`, `exec.mem_stream` and
    /// `exec.dma` spans and one block event per decode job, in job order.
    ///
    /// ## Panic containment
    ///
    /// A panic anywhere in the pipeline — a multiply worker (including
    /// injected [`FaultHook::panic_tile`] faults) or the producer — is
    /// caught at the thread boundary and converted into
    /// [`ExecError::WorkerPanic`]; it can never strand the bounded tile
    /// channel with a blocked sender. Two pieces make that guarantee: the
    /// producer stops as soon as a send fails, and this function drops its
    /// own handle on the tile receiver so dead workers actually close the
    /// channel.
    ///
    /// # Errors
    /// As [`OverlapExecutor::spmv`], plus [`ExecError::DeadlineExceeded`]
    /// and [`ExecError::WorkerPanic`].
    ///
    /// # Panics
    /// If `x.len() != ncols`.
    pub fn spmv_with(
        &self,
        sys: &SystemConfig,
        x: &[f64],
        opts: RunOptions<'_>,
    ) -> ExecResult<(Vec<f64>, ExecStats)> {
        let RunOptions { faults: hook, budget } = opts;
        let cm = self.recoded.compressed();
        assert_eq!(x.len(), cm.ncols, "x length must equal ncols");
        check_stream_structure(&cm.index_stream)?;
        check_stream_structure(&cm.value_stream)?;
        let empty_hook = FaultHook::default();
        let hook = hook.unwrap_or(&empty_hook);
        let workers = self.config.effective_workers().max(1);
        let row_ptr: &[usize] = &cm.row_ptr;
        let cache_before = self.cache.lock().expect("cache poisoned").stats();

        let t_wall = Instant::now();
        let _overlap_span = recorder::span(recorder::Track::MAIN, "exec.overlap");
        let mut y = vec![0.0f64; cm.nrows];
        let (tile_tx, tile_rx) = mpsc::sync_channel::<TileWork>(workers + 1);
        let tile_rx = Arc::new(Mutex::new(tile_rx));
        let (res_tx, res_rx) = mpsc::channel::<TileResult>();
        // First contained worker panic, if any; checked after the scope.
        let worker_panic: Mutex<Option<String>> = Mutex::new(None);

        let produced = std::thread::scope(|s| {
            let producer = s.spawn(move || {
                let out = catch_unwind(AssertUnwindSafe(|| {
                    // `send` fails only when every worker is gone; the
                    // producer then stops decoding instead of blocking.
                    let lanes = sys.udp.lanes;
                    self.produce_tiles(lanes, hook, budget, |tile| tile_tx.send(tile).is_ok())
                }));
                drop(tile_tx);
                // The scope waits for this closure, not the thread's TLS
                // destructors: publish recorder events before returning so
                // the caller's drain sees them.
                recorder::flush_thread();
                out
            });
            for w in 0..workers {
                let rx = Arc::clone(&tile_rx);
                let tx = res_tx.clone();
                let worker_panic = &worker_panic;
                s.spawn(move || {
                    loop {
                        let Ok(work) = rx.lock().unwrap_or_else(PoisonError::into_inner).recv()
                        else {
                            break;
                        };
                        let tile = work.tile;
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            assert!(
                                !hook.panic_tiles.contains(&tile),
                                "injected panic in tile {tile}"
                            );
                            let _span = recorder::span(recorder::Track::worker(w), "multiply_tile");
                            multiply_tile(row_ptr, x, &work)
                        }));
                        match result {
                            Ok((row_start, partial)) => {
                                if tx.send(TileResult { tile, row_start, partial }).is_err() {
                                    break;
                                }
                            }
                            Err(payload) => {
                                let msg = format!(
                                    "worker {w}, tile {tile}: {}",
                                    panic_payload_message(payload.as_ref())
                                );
                                worker_panic
                                    .lock()
                                    .unwrap_or_else(PoisonError::into_inner)
                                    .get_or_insert(msg);
                                break;
                            }
                        }
                    }
                    // As with the producer: the scope orders this closure's
                    // end, not the TLS flush, so publish span events now.
                    recorder::flush_thread();
                });
            }
            drop(res_tx);
            // Drop run's own handle on the tile queue: once every worker
            // has exited, the producer's next send must fail fast rather
            // than block on a receiver nobody holds.
            drop(tile_rx);

            // Merge partials strictly in tile order, buffering out-of-order
            // arrivals, so straddling rows accumulate deterministically.
            let mut pending: BTreeMap<usize, TileResult> = BTreeMap::new();
            let mut next_tile = 0usize;
            for r in &res_rx {
                pending.insert(r.tile, r);
                while let Some(r) = pending.remove(&next_tile) {
                    for (i, v) in r.partial.iter().enumerate() {
                        y[r.row_start + i] += v;
                    }
                    next_tile += 1;
                }
            }
            match producer.join().expect("producer thread join failed") {
                Ok(res) => res,
                Err(payload) => Err(ExecError::WorkerPanic {
                    context: format!("producer: {}", panic_payload_message(payload.as_ref())),
                }),
            }
        });
        // A contained worker panic outranks whatever the producer saw: the
        // merged result is incomplete, and the generic channel-closed error
        // the producer reports is only a symptom.
        if let Some(context) = worker_panic.lock().unwrap_or_else(PoisonError::into_inner).take() {
            return Err(ExecError::WorkerPanic { context });
        }
        let mut produced = produced?;
        let wall_ns = t_wall.elapsed().as_nanos() as u64;

        // Modeled schedule: the lane decodes tile i+1 while the CPU
        // multiplies tile i.
        let bpnnz = cm.bytes_per_nnz();
        let per_tile_multiply: Vec<u64> = produced
            .per_tile_nnz
            .iter()
            .map(|&nnz| modeled_multiply_cycles(sys, bpnnz, nnz))
            .collect();
        let decode_cycles: u64 = produced.per_tile_decode.iter().sum();
        let multiply_cycles: u64 = per_tile_multiply.iter().sum();
        let stages = produced.per_tile_decode.len();
        let serial_makespan = decode_cycles + multiply_cycles;
        let overlapped_makespan = if stages == 0 {
            0
        } else {
            let mut total = produced.per_tile_decode[0];
            for i in 1..stages {
                total += produced.per_tile_decode[i].max(per_tile_multiply[i - 1]);
            }
            total + per_tile_multiply[stages - 1]
        };
        let makespan = if self.config.overlap { overlapped_makespan } else { serial_makespan };

        let cache_after = self.cache.lock().expect("cache poisoned").stats();
        let overlap = OverlapStats {
            enabled: self.config.overlap,
            stages,
            workers,
            decode_cycles,
            multiply_cycles,
            overlapped_makespan_cycles: overlapped_makespan,
            serial_makespan_cycles: serial_makespan,
            cache_hits: cache_after.hits - cache_before.hits,
            cache_misses: cache_after.misses - cache_before.misses,
            cache_evictions: cache_after.evictions - cache_before.evictions,
            cache_hit_bytes: cache_after.hit_bytes - cache_before.hit_bytes,
        };

        let mut report = AccelReport {
            jobs: produced.jobs,
            jobs_failed: produced.jobs_failed,
            lanes: sys.udp.lanes,
            makespan_cycles: makespan,
            busy_cycles: decode_cycles,
            injected_stall_cycles: produced.stall_cycles,
            output_bytes: produced.decoded_bytes,
            freq_hz: sys.udp.freq_hz,
            ..AccelReport::default()
        };
        report.refresh_utilization();

        let fetched = (produced.fetched_bytes + produced.fallback_bytes) as u64;
        let mem_stream_seconds = sys.mem.stream_seconds(fetched);
        let dma_seconds =
            sys.dma.transfer_seconds(produced.jobs as u64, produced.fetched_bytes as u64);
        let spans = vec![
            Span::new(
                "exec.overlap",
                wall_ns,
                makespan as f64 / sys.udp.freq_hz,
                produced.decoded_bytes,
            ),
            Span::new("exec.mem_stream", 0, mem_stream_seconds, fetched),
            Span::new("exec.dma", 0, dma_seconds, produced.fetched_bytes as u64),
        ];
        produced.events.sort_by_key(|e| e.job);
        let stats = ExecStats {
            accel: report,
            mem_stream_seconds,
            dma_seconds,
            compressed_bytes: produced.fetched_bytes,
            blocks_retried: produced.blocks_retried,
            blocks_fell_back: produced.blocks_fell_back,
            fallback_bytes: produced.fallback_bytes,
            retry_cycles: produced.retry_cycles,
            backoff_cycles: produced.backoff_cycles,
            degraded: produced.blocks_retried > 0 || produced.blocks_fell_back > 0,
            software_decode: false,
            blocks_ok: produced.blocks_ok,
            blocks_recovered: produced.blocks_recovered,
            overlap,
            spans,
            block_events: produced.events,
            pool: None,
        };
        Ok((y, stats))
    }
}

/// Multiplies one tile: walks rows as the nnz cursor advances (exactly the
/// streaming loop) but accumulates into a tile-local partial vector rooted
/// at the tile's first row, so tiles can run on any worker.
fn multiply_tile(row_ptr: &[usize], x: &[f64], work: &TileWork) -> (usize, Vec<f64>) {
    let tile_nnz = work.idx.len() / 4;
    if tile_nnz == 0 {
        return (0, Vec::new());
    }
    // First row whose span contains k_start (empty rows skip past).
    let row_start = row_ptr.partition_point(|&p| p <= work.k_start) - 1;
    let mut row = row_start;
    let mut partial: Vec<f64> = Vec::new();
    for t in 0..tile_nnz {
        let k = work.k_start + t;
        while row_ptr[row + 1] <= k {
            row += 1;
        }
        if partial.len() < row - row_start + 1 {
            partial.resize(row - row_start + 1, 0.0);
        }
        let c = u32::from_le_bytes(work.idx[t * 4..t * 4 + 4].try_into().expect("4-byte index"))
            as usize;
        let v = f64::from_le_bytes(work.vals[t * 8..t * 8 + 8].try_into().expect("8-byte value"));
        partial[row - row_start] += v * x[c];
    }
    (row_start, partial)
}

/// Modeled CPU cycles (in UDP-clock cycles, so they compose with lane
/// decode cycles) to multiply a tile of `nnz` non-zeros: `2·nnz` flops at
/// the bandwidth-bound SpMV rate of [`recode_mem::cpu::CpuModel`].
fn modeled_multiply_cycles(sys: &SystemConfig, bytes_per_nnz: f64, nnz: usize) -> u64 {
    if nnz == 0 {
        return 0;
    }
    let flops = 2.0 * nnz as f64;
    let rate = sys.cpu.spmv_flops(&sys.mem, bytes_per_nnz);
    ((flops / rate) * sys.udp.freq_hz).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use recode_codec::pipeline::MatrixCodecConfig;
    use recode_sparse::prelude::*;
    use recode_sparse::spmv::SpmvKernel;

    fn faulty(hook: &FaultHook) -> RunOptions<'_> {
        RunOptions { faults: Some(hook), ..RunOptions::default() }
    }

    fn budgeted<'a>(hook: &'a FaultHook, budget: &'a JobBudget) -> RunOptions<'a> {
        RunOptions { faults: Some(hook), budget: Some(budget) }
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

    fn max_rel_err(got: &[f64], want: &[f64]) -> f64 {
        got.iter()
            .zip(want)
            .map(|(g, w)| {
                let scale = w.abs().max(1.0);
                (g - w).abs() / scale
            })
            .fold(0.0, f64::max)
    }

    #[test]
    fn overlapped_spmv_matches_reference_within_tolerance() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 37) % 11) as f64 - 5.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        for overlap in [true, false] {
            for cache_blocks in [0usize, 64] {
                let ex =
                    OverlapExecutor::new(&r, OverlapConfig { overlap, cache_blocks, workers: 3 });
                let (y, stats) = ex.spmv(&sys, &x).unwrap();
                assert!(max_rel_err(&y, &want) < 1e-10, "overlap={overlap} cache={cache_blocks}");
                assert_eq!(stats.overlap.enabled, overlap);
                assert!(stats.overlap.stages > 0);
                assert!(!stats.degraded);
            }
        }
    }

    #[test]
    fn overlapped_makespan_beats_the_serial_sum() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, stats) = ex.spmv(&sys, &x).unwrap();
        let ov = stats.overlap;
        assert!(ov.stages >= 2, "need at least two tiles to overlap: {}", ov.stages);
        assert!(
            ov.overlapped_makespan_cycles < ov.serial_makespan_cycles,
            "overlapped {} must beat serial {}",
            ov.overlapped_makespan_cycles,
            ov.serial_makespan_cycles
        );
        // The schedule can never beat either engine's own critical path.
        assert!(ov.overlapped_makespan_cycles >= ov.decode_cycles);
        assert!(ov.overlapped_makespan_cycles >= ov.multiply_cycles);
        assert_eq!(stats.accel.makespan_cycles, ov.overlapped_makespan_cycles);
    }

    #[test]
    fn warm_cache_pays_at_least_five_times_fewer_decode_cycles() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x0 = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { overlap: true, cache_blocks: 4096, workers: 2 },
        );
        let (_, per_iter) = ex.spmv_iter(&sys, &x0, 10).unwrap();
        assert_eq!(per_iter.len(), 10);
        let cold = per_iter[0].overlap.decode_cycles;
        let warm: u64 = per_iter[1..].iter().map(|s| s.overlap.decode_cycles).sum();
        assert!(cold > 0);
        assert_eq!(warm, 0, "a fully warm cache decodes nothing");
        // The acceptance bar: iteration 1 spends >= 5x the decode cycles of
        // any later iteration (trivially true at 0, asserted robustly).
        let max_warm = per_iter[1..].iter().map(|s| s.overlap.decode_cycles).max().unwrap();
        assert!(cold >= 5 * max_warm.max(1) || max_warm == 0);
        assert!(per_iter[1].overlap.cache_hits > 0);
        assert_eq!(per_iter[1].overlap.cache_misses, 0);
    }

    #[test]
    fn lru_evicts_and_recovers_under_tiny_capacity() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        // Fewer slots than blocks: every run re-decodes, evicting as it goes.
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 2, workers: 1 });
        let (_, s1) = ex.spmv(&sys, &x).unwrap();
        let (_, s2) = ex.spmv(&sys, &x).unwrap();
        assert!(s1.overlap.cache_evictions > 0, "capacity 2 must evict");
        assert!(s2.overlap.cache_misses > 0, "thrashing cache cannot serve everything");
        assert!(ex.cached_blocks() <= 2);
        let want = recode_sparse::spmv::spmv(&a, &x);
        let (y, _) = ex.spmv(&sys, &x).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10);
    }

    #[test]
    fn faults_inside_the_pipeline_keep_blocks_in_position() {
        let a = test_matrix();
        let mut r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        // Value block 1 is corrupt (falls back); job 0 traps transiently.
        r.compressed_mut().value_stream.blocks[1].payload[0] ^= 0x40;
        let sys = SystemConfig::ddr4();
        let hook = FaultHook::new().trap(0).stall(2, 50_000);
        let x: Vec<f64> = (0..a.ncols()).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let want = recode_sparse::spmv::spmv(&a, &x);
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { overlap: true, cache_blocks: 128, workers: 4 },
        );
        let (y, stats) = ex.spmv_with(&sys, &x, faulty(&hook)).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10, "recovered blocks must land in place");
        assert!(stats.degraded);
        assert!(stats.blocks_retried > 0);
        assert_eq!(stats.blocks_fell_back, 1);
        assert!(stats.fallback_bytes > 0);
        assert_eq!(stats.accel.injected_stall_cycles, 50_000);
        // Second run: the cache holds recovered bytes, so nothing degrades.
        let (y2, s2) = ex.spmv_with(&sys, &x, faulty(&hook)).unwrap();
        assert!(max_rel_err(&y2, &want) < 1e-10);
        assert!(!s2.degraded, "cached blocks skip the fault path entirely");
        assert_eq!(s2.overlap.cache_misses, 0);
    }

    #[test]
    fn unrecoverable_block_is_a_typed_error_not_a_hang() {
        let a = test_matrix();
        let cm =
            recode_codec::pipeline::CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh())
                .unwrap();
        let mut r = RecodedSpmv::from_compressed(cm).unwrap(); // no raw store
        r.compressed_mut().index_stream.blocks[1].payload[0] ^= 0x10;
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let err = ex.spmv(&sys, &x).unwrap_err();
        match err {
            ExecError::Unrecoverable { block, .. } => assert_eq!(block, Some(1)),
            other => panic!("expected Unrecoverable, got {other}"),
        }
    }

    #[test]
    fn overlap_stats_fold_into_a_valid_document() {
        use crate::telemetry::TraceDocument;
        let a = test_matrix();
        let r = RecodedSpmv::new_traced(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { overlap: true, cache_blocks: 512, workers: 2 },
        );
        let t0 = Instant::now();
        let (_, stats) = ex.spmv(&sys, &x).unwrap();
        let wall = t0.elapsed().as_nanos() as u64;
        let doc = TraceDocument::from_run(&r, &sys, &stats, "stencil-overlap", wall);
        let errs = doc.validate();
        assert!(errs.is_empty(), "trace invariants violated: {errs:?}");
        assert!(doc.spans.iter().any(|s| s.name == "exec.overlap"));
        assert_eq!(doc.counter("pipeline.overlap.stages"), stats.overlap.stages as u64);
        assert_eq!(doc.counter("cache.misses"), stats.overlap.cache_misses);
        assert_eq!(doc.block_events.len(), stats.accel.jobs);
        // Warm run: hits appear in the counters and the traffic ledger.
        let t0 = Instant::now();
        let (_, stats2) = ex.spmv(&sys, &x).unwrap();
        let wall = t0.elapsed().as_nanos() as u64;
        let doc2 = TraceDocument::from_run(&r, &sys, &stats2, "stencil-overlap", wall);
        assert!(doc2.validate().is_empty(), "{:?}", doc2.validate());
        assert!(stats2.overlap.cache_hits > 0);
        assert_eq!(doc2.counter("cache.hits"), stats2.overlap.cache_hits);
        assert_eq!(doc2.counter("mem.read.decoded_cache"), stats2.overlap.cache_hit_bytes);
        assert_eq!(doc2.block_events.len(), 0, "cache hits are not decode jobs");
    }

    #[test]
    fn conjugate_gradient_runs_through_the_cached_executor() {
        // SPD 1D Laplacian, same as the solver unit tests.
        let n = 200usize;
        let mut coo = Coo::new(n, n).unwrap();
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
            if i > 0 {
                coo.push(i, i - 1, -1.0).unwrap();
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let b = vec![1.0; n];
        let ex = OverlapExecutor::new(
            &r,
            OverlapConfig { overlap: true, cache_blocks: 1024, workers: 2 },
        );
        let (result, per_apply) = ex.conjugate_gradient(&sys, &b, 1e-10, 1000).unwrap();
        assert!(result.converged, "residual {}", result.residual);
        let reference =
            recode_sparse::solve::conjugate_gradient(&a, &b, SpmvKernel::Serial, 1e-10, 1000);
        assert!(max_rel_err(&result.x, &reference.x) < 1e-6);
        assert!(per_apply.len() >= 2);
        // Applies after the first decode nothing.
        assert_eq!(per_apply[1].overlap.decode_cycles, 0);
        assert!(per_apply[0].overlap.decode_cycles > 0);
    }

    #[test]
    fn empty_matrix_runs_cleanly() {
        let empty = Csr::try_from_parts(2, 2, vec![0, 0, 0], vec![], vec![]).unwrap();
        let r = RecodedSpmv::new(&empty, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (y, stats) = ex.spmv(&sys, &[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![0.0, 0.0]);
        assert_eq!(stats.overlap.stages, 0);
        assert_eq!(stats.accel.makespan_cycles, 0);

        // Empty rows between non-empty ones, on both schedules.
        let a = Csr::try_from_parts(4, 4, vec![0, 0, 2, 2, 3], vec![1, 3, 0], vec![2.0, 4.0, 8.0])
            .unwrap();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let x = [1.0, 10.0, 100.0, 1000.0];
        for overlap in [true, false] {
            let ex =
                OverlapExecutor::new(&r, OverlapConfig { overlap, ..OverlapConfig::default() });
            let (y, _) = ex.spmv(&sys, &x).unwrap();
            assert_eq!(y, recode_sparse::spmv::spmv(&a, &x), "overlap={overlap}");
        }
    }

    #[test]
    fn cache_capacity_zero_disables_lookups_entirely() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let (_, stats) = ex.spmv(&sys, &x).unwrap();
        assert_eq!(stats.overlap.cache_hits, 0);
        assert_eq!(stats.overlap.cache_misses, 0);
        assert_eq!(ex.cache_stats(), CacheStats::default());
    }

    #[test]
    fn exec_cache_lru_evicts_least_recent() {
        let mut c = ExecCache::new(2);
        let k = |i: usize| (StreamKind::Index, i);
        c.insert(k(0), Arc::new(vec![0u8; 4]));
        c.insert(k(1), Arc::new(vec![1u8; 4]));
        assert!(c.get(k(0)).is_some()); // 0 is now most recent
        c.insert(k(2), Arc::new(vec![2u8; 4])); // evicts 1
        assert!(c.get(k(0)).is_some());
        assert!(c.get(k(1)).is_none());
        assert!(c.get(k(2)).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn single_worker_and_many_workers_agree() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 17) as f64 * 0.25 - 2.0).collect();
        let one =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 1 });
        let many =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 6 });
        let (y1, _) = one.spmv(&sys, &x).unwrap();
        let (y2, _) = many.spmv(&sys, &x).unwrap();
        assert_eq!(y1, y2, "tile-ordered merge must be worker-count invariant");
    }

    #[test]
    fn injected_worker_panic_is_contained_as_a_typed_error() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let hook = FaultHook::new().panic_tile(0);
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 3 });
        let err = ex.spmv_with(&sys, &x, faulty(&hook)).unwrap_err();
        match &err {
            ExecError::WorkerPanic { context } => {
                assert!(context.contains("tile 0"), "{context}");
                assert!(context.contains("injected panic"), "{context}");
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
        // The pipeline is not wedged: the same executor runs cleanly after.
        let want = recode_sparse::spmv::spmv(&a, &x);
        let (y, _) = ex.spmv(&sys, &x).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10);
    }

    #[test]
    fn every_worker_panicking_still_terminates_with_a_typed_error() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        // Panic on every tile: all workers die, and the producer must not
        // block forever on the bounded tile channel.
        let mut hook = FaultHook::new();
        let tiles = r.compressed().index_stream.blocks.len();
        for t in 0..tiles.max(8) {
            hook = hook.panic_tile(t);
        }
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 2 });
        let err = ex.spmv_with(&sys, &x, faulty(&hook)).unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanic { .. }), "{err}");
    }

    #[test]
    fn overlap_budget_exhaustion_is_deadline_exceeded() {
        use std::time::Duration;
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let hook = FaultHook::new().trap(0);
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        let budget = JobBudget::with_deadline(Duration::ZERO);
        let err = ex.spmv_with(&sys, &x, budgeted(&hook, &budget)).unwrap_err();
        match &err {
            ExecError::DeadlineExceeded { budget, .. } => assert_eq!(budget, "wall deadline"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        // Unbounded budget with the same faults recovers bit-exact.
        let want = recode_sparse::spmv::spmv(&a, &x);
        let (y, stats) = ex.spmv_with(&sys, &x, budgeted(&hook, &JobBudget::unbounded())).unwrap();
        assert!(max_rel_err(&y, &want) < 1e-10);
        assert!(stats.degraded);
        assert_eq!(
            stats.blocks_ok + stats.blocks_recovered + stats.blocks_fell_back,
            stats.accel.jobs,
            "overlap accounting identity"
        );
    }

    /// A budget that runs out mid-run reports the blocks the producer
    /// finished, not the batch job index of the block it stopped on.
    #[test]
    fn overlap_deadline_counts_finished_blocks() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let cm = r.compressed();
        let n_index = cm.index_stream.blocks.len();
        let total = n_index + cm.value_stream.blocks.len();
        assert!(n_index > 1, "the check needs a job index that differs from the count");
        // Job `n_index` is tile 0's first value block: only tile 0's index
        // block has finished when its trap meets a zero retry budget.
        let hook = FaultHook::new().trap(n_index);
        let budget = JobBudget { max_total_retries: Some(0), ..JobBudget::default() };
        let ex = OverlapExecutor::new(&r, OverlapConfig::default());
        match ex.spmv_with(&sys, &x, budgeted(&hook, &budget)).unwrap_err() {
            ExecError::DeadlineExceeded { budget, completed_blocks, total_blocks } => {
                assert_eq!(budget, "retry budget");
                assert_eq!(completed_blocks, 1);
                assert_eq!(total_blocks, total);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn overlap_backoff_is_reported_but_never_folded_into_the_makespan() {
        let a = test_matrix();
        let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).unwrap();
        let sys = SystemConfig::ddr4();
        let x = vec![1.0; a.ncols()];
        let hook = FaultHook::new().trap(0);
        let ex =
            OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 2 });
        let budget = JobBudget { backoff_cycles_per_retry: 1_000, ..JobBudget::default() };
        let (_, stats) = ex.spmv_with(&sys, &x, budgeted(&hook, &budget)).unwrap();
        assert_eq!(stats.backoff_cycles, 1_000, "one retry, one backoff charge");
        // The overlap schedule invariant pins makespan to the overlapped
        // schedule, so backoff stays a reported stat here.
        assert_eq!(stats.accel.makespan_cycles, stats.overlap.overlapped_makespan_cycles);
    }

    #[test]
    fn recode_threads_parser_accepts_counts_and_rejects_garbage() {
        assert_eq!(parse_recode_threads("4"), Ok(4));
        assert_eq!(parse_recode_threads("  8  "), Ok(8), "whitespace is trimmed");
        let err = parse_recode_threads("0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse_recode_threads("banana").unwrap_err();
        assert!(err.contains("not a thread count"), "{err}");
        assert!(err.contains("banana"), "the garbage value is echoed: {err}");
        assert!(parse_recode_threads("-3").is_err());
        assert!(parse_recode_threads("").is_err());
    }
}
