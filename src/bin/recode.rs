//! `recode` — command-line front end to the CPU-UDP recoding system.
//!
//! ```text
//! recode info      <matrix.mtx>                  structural + value statistics
//! recode compress  <matrix.mtx> -o <out.rcmx>    DSH-compress (binary .rcmx container)
//! recode decompress <in.rcmx>   -o <matrix.mtx>  restore MatrixMarket
//! recode spmv      <matrix.mtx> [--trace <out.json>]
//!                  [--overlap] [--cache-blocks N] [--iters N]
//!                  [--tuned <config.json>]
//!                                                run SpMV through the simulated
//!                                                heterogeneous system and report;
//!                                                --trace writes the full telemetry
//!                                                document (recode-trace/v1 JSON);
//!                                                --overlap routes through the
//!                                                pipelined decode/multiply
//!                                                executor, --cache-blocks seeds
//!                                                its decoded-block LRU cache, and
//!                                                --iters repeats the multiply to
//!                                                show the warm-cache decode cost;
//!                                                --tuned runs the kernel and codec
//!                                                a persisted recode-tuned/v1
//!                                                config prescribes (digest
//!                                                mismatch is a hard error)
//! recode tune      <matrix.mtx> [-o <config.json>] [--seed N]
//!                                                search kernel x codec-stage x
//!                                                block size, print the candidate
//!                                                table, and persist the winner
//!                                                (selection is by deterministic
//!                                                modeled cycles; RECODE_TUNE_TRIALS
//!                                                resizes only the informational
//!                                                wall-clock column)
//! recode report    <trace.json>                  render a trace as a table
//! recode trace-check <trace.json> [--bounds]     validate a trace's schema and
//!                                                internal invariants; --bounds
//!                                                additionally re-verifies the
//!                                                stored per-stage cycles against
//!                                                the certified static cycle
//!                                                envelopes of the builtin stage
//!                                                programs (exit 1 on violation)
//! recode gen       <family> <target_nnz> -o <matrix.mtx>
//!                                                emit a synthetic matrix
//! recode verify-program <file.udp | builtin:NAME>
//!                                                run the static verifier on a
//!                                                lane program and print its
//!                                                findings plus the certified
//!                                                per-block cycle-bounds table
//!                                                (exit 1 on Error); builtins:
//!                                                delta, snappy, huffman, or
//!                                                dsh for the whole pipeline
//!                                                (bare names also accepted)
//! recode chaos     [--trials N] [--seed N] [--json <out.json>]
//!                                                run a seeded chaos campaign
//!                                                over the resilient executors
//!                                                and report; exit 1 unless the
//!                                                resilience contract held on
//!                                                every trial
//! recode metrics   <matrix.mtx>                  run one budgeted job and print
//!                                                the trace counters as a
//!                                                Prometheus text exposition
//! recode bench-compare <old.json> <new.json>     diff two bench snapshots;
//!                                                exit 1 when a gated metric
//!                                                regressed >20% beyond noise
//! ```
//!
//! Flags: `-o PATH` output, `--config dsh|ds|snappy` codec choice,
//! `--seed N` for `gen`/`chaos`, `--trace PATH` / `--overlap` /
//! `--cache-blocks N` / `--iters N` for `spmv`, `--inject-trap JOB` /
//! `--inject-corrupt BLOCK` fault injection for `spmv`, `--trials N` /
//! `--json PATH` for `chaos`, and `--chrome-trace PATH` (`spmv`, `chaos`)
//! to switch on the flight recorder and export the run as a Chrome
//! trace-event / Perfetto JSON timeline.
//!
//! Exit codes: `0` success, `1` error, `2` usage, [`EXIT_DEGRADED`] (3) when
//! the run recovered through retries, [`EXIT_FALLBACK`] (4) when any block
//! was served from the raw-CSR store or the whole job degraded to the
//! software decoder.

use recode_spmv::codec::metrics::CompressionSummary;
use recode_spmv::codec::pipeline::{CompressedMatrix, MatrixCodecConfig};
use recode_spmv::core::corpus;
use recode_spmv::core::measure::measure_udp_decomp;
use recode_spmv::core::perfmodel::SpmvPerfModel;
use recode_spmv::core::recorder;
use recode_spmv::core::report;
use recode_spmv::core::telemetry::{RecorderSummary, TraceDocument};
use recode_spmv::core::ExecStats;
use recode_spmv::prelude::*;
use recode_spmv::sparse::io::{read_matrix_market_path, write_matrix_market};
use recode_spmv::sparse::spmv::SpmvKernel;
use recode_spmv::sparse::stats::MatrixStats;
use std::process::ExitCode;
use std::time::Instant;

/// Exit code for a run that finished bit-exact but needed retries.
const EXIT_DEGRADED: u8 = 3;
/// Exit code for a run that served blocks from the raw-CSR store or fell
/// back to the software decoder entirely.
const EXIT_FALLBACK: u8 = 4;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  recode info <matrix.mtx>\n  recode compress <matrix.mtx> -o <out.rcmx> [--config dsh|ds|snappy]\n  recode decompress <in.rcmx> -o <matrix.mtx>\n  recode spmv <matrix.mtx> [--trace <out.json>] [--chrome-trace <out.trace.json>]\n              [--overlap] [--cache-blocks N] [--iters N] [--tuned <config.json>]\n              [--inject-trap JOB] [--inject-corrupt BLOCK]\n  recode tune <matrix.mtx> [-o <config.json>] [--seed N]\n  recode report <trace.json>\n  recode trace-check <trace.json> [--bounds]\n  recode gen <family> <target_nnz> -o <matrix.mtx> [--seed N]\n  recode disasm <snappy|delta>\n  recode verify-program <file.udp | builtin:delta|snappy|huffman|dsh>\n  recode chaos [--trials N] [--seed N] [--json <out.json>] [--chrome-trace <out.trace.json>]\n  recode metrics <matrix.mtx> [-o <metrics.prom>]\n  recode bench-compare <old.json> <new.json>\n\nspmv exit codes: 0 clean, 3 degraded (retries), 4 raw-CSR/software fallback\nfamilies: {}",
        FAMILIES.join(", ")
    );
    ExitCode::from(2)
}

const FAMILIES: [&str; 11] = [
    "stencil2d",
    "stencil2d9",
    "stencil3d",
    "multidiag",
    "femband",
    "blockjac",
    "circuit",
    "rmat",
    "erdos",
    "smallworld",
    "laplacian",
];

struct Flags {
    positional: Vec<String>,
    output: Option<String>,
    config: MatrixCodecConfig,
    seed: u64,
    trace: Option<String>,
    overlap: bool,
    cache_blocks: usize,
    iters: usize,
    inject_trap: Option<usize>,
    inject_corrupt: Option<usize>,
    trials: usize,
    json: Option<String>,
    chrome_trace: Option<String>,
    tuned: Option<String>,
    bounds: bool,
}

fn parse(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        output: None,
        config: MatrixCodecConfig::udp_dsh(),
        seed: 2019,
        trace: None,
        overlap: false,
        cache_blocks: 0,
        iters: 1,
        inject_trap: None,
        inject_corrupt: None,
        trials: 500,
        json: None,
        chrome_trace: None,
        tuned: None,
        bounds: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--output" => {
                i += 1;
                f.output = Some(args.get(i).ok_or("missing value for -o")?.clone());
            }
            "--config" => {
                i += 1;
                f.config = match args.get(i).map(String::as_str) {
                    Some("dsh") => MatrixCodecConfig::udp_dsh(),
                    Some("ds") => MatrixCodecConfig::udp_ds(),
                    Some("snappy") => MatrixCodecConfig::cpu_snappy(),
                    other => return Err(format!("bad --config {other:?}")),
                };
            }
            "--trace" => {
                i += 1;
                f.trace = Some(args.get(i).ok_or("missing value for --trace")?.clone());
            }
            "--overlap" => f.overlap = true,
            "--cache-blocks" => {
                i += 1;
                f.cache_blocks =
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --cache-blocks value")?;
            }
            "--iters" => {
                i += 1;
                f.iters = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("bad --iters value (need an integer >= 1)")?;
            }
            "--seed" => {
                i += 1;
                f.seed = args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --seed value")?;
            }
            "--inject-trap" => {
                i += 1;
                f.inject_trap = Some(
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --inject-trap value")?,
                );
            }
            "--inject-corrupt" => {
                i += 1;
                f.inject_corrupt = Some(
                    args.get(i).and_then(|s| s.parse().ok()).ok_or("bad --inject-corrupt value")?,
                );
            }
            "--trials" => {
                i += 1;
                f.trials = args
                    .get(i)
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .ok_or("bad --trials value (need an integer >= 1)")?;
            }
            "--json" => {
                i += 1;
                f.json = Some(args.get(i).ok_or("missing value for --json")?.clone());
            }
            "--chrome-trace" => {
                i += 1;
                f.chrome_trace =
                    Some(args.get(i).ok_or("missing value for --chrome-trace")?.clone());
            }
            "--tuned" => {
                i += 1;
                f.tuned = Some(args.get(i).ok_or("missing value for --tuned")?.clone());
            }
            "--bounds" => f.bounds = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
        i += 1;
    }
    Ok(f)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "info" => cmd_info(&flags),
        "compress" => cmd_compress(&flags),
        "decompress" => cmd_decompress(&flags),
        "spmv" => cmd_spmv(&flags),
        "tune" => cmd_tune(&flags),
        "report" => cmd_report(&flags),
        "trace-check" => cmd_trace_check(&flags),
        "gen" => cmd_gen(&flags),
        "disasm" => cmd_disasm(&flags),
        "verify-program" => cmd_verify_program(&flags),
        "chaos" => cmd_chaos(&flags),
        "metrics" => cmd_metrics(&flags),
        "bench-compare" => cmd_bench_compare(&flags),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Maps a run's recovery stats onto the documented exit codes: raw-CSR or
/// software fallback beats plain degradation, which beats success.
fn exit_for(stats: &ExecStats) -> ExitCode {
    if stats.blocks_fell_back > 0 || stats.software_decode {
        eprintln!(
            "note: {} block(s) served from the raw-CSR store{} (exit {EXIT_FALLBACK})",
            stats.blocks_fell_back,
            if stats.software_decode { ", software decode" } else { "" },
        );
        ExitCode::from(EXIT_FALLBACK)
    } else if stats.degraded {
        eprintln!(
            "note: run degraded — {} block(s) recovered via retry (exit {EXIT_DEGRADED})",
            stats.blocks_recovered
        );
        ExitCode::from(EXIT_DEGRADED)
    } else {
        ExitCode::SUCCESS
    }
}

fn load(flags: &Flags) -> Result<Csr, String> {
    let path = flags.positional.first().ok_or("missing input matrix path")?;
    read_matrix_market_path(path).map_err(|e| format!("{path}: {e}"))
}

/// Switches on the flight recorder when `--chrome-trace` was given. Called
/// before the run so every span/instant of the pipeline lands in the ring.
fn arm_recorder(flags: &Flags) {
    if flags.chrome_trace.is_some() {
        recorder::enable(recorder::DEFAULT_CAPACITY);
    }
}

/// Drains the flight recorder and writes the Chrome trace-event JSON.
/// Returns the drained events and ring stats so a `--trace` document can
/// also carry the [`RecorderSummary`].
fn finish_chrome_trace(
    path: &str,
) -> Result<(Vec<recorder::Event>, recorder::RecorderStats), String> {
    let events = recorder::drain();
    let stats = recorder::stats();
    let doc = recode_spmv::core::export_chrome_trace(&events);
    std::fs::write(path, doc.to_string_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "chrome trace written to {path}: {} events, {} dropped (open in Perfetto or chrome://tracing)",
        events.len(),
        stats.dropped
    );
    Ok((events, stats))
}

/// The input file's stem, which labels the matrix in trace documents.
fn matrix_name(flags: &Flags) -> String {
    std::path::Path::new(&flags.positional[0])
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Compresses `a` for a `spmv` run; with `--trace` the codec-stage
/// telemetry is attached, so the trace document carries it.
fn recode_for(flags: &Flags, a: &Csr, config: MatrixCodecConfig) -> Result<RecodedSpmv, String> {
    if flags.trace.is_some() {
        RecodedSpmv::new_traced(a, config)
    } else {
        RecodedSpmv::new(a, config)
    }
    .map_err(|e| e.to_string())
}

/// Largest row error of `y` relative to `y_ref` (absolute below 1.0).
fn worst_rel_err(y: &[f64], y_ref: &[f64]) -> f64 {
    y.iter()
        .zip(y_ref)
        .fold(0.0f64, |w, (got, want)| w.max((got - want).abs() / want.abs().max(1.0)))
}

/// Finishes a `spmv` run's observability outputs: the `--chrome-trace`
/// timeline, and the `--trace` document folded from the run's stats (with
/// the flight-recorder summary when both were asked for). `t_run` marks
/// the start of the run.
fn write_traces(
    flags: &Flags,
    recoded: &RecodedSpmv,
    sys: &SystemConfig,
    stats: &ExecStats,
    t_run: Instant,
) -> Result<(), String> {
    let wall_ns_total = t_run.elapsed().as_nanos() as u64;
    let recorded = flags.chrome_trace.as_deref().map(finish_chrome_trace).transpose()?;
    let Some(trace_path) = &flags.trace else {
        return Ok(());
    };
    let mut doc = TraceDocument::from_run(recoded, sys, stats, &matrix_name(flags), wall_ns_total);
    if let Some((events, rec_stats)) = recorded {
        doc.attach_recorder(RecorderSummary::from_events(&events, rec_stats));
    }
    std::fs::write(trace_path, doc.to_json_string()).map_err(|e| format!("{trace_path}: {e}"))?;
    println!(
        "trace ({}) written to {trace_path}: {} spans, {} block events, {} counters",
        doc.schema,
        doc.spans.len(),
        doc.block_events.len(),
        doc.counters.len()
    );
    Ok(())
}

fn cmd_info(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
    let s = MatrixStats::compute(&a);
    println!("shape            {} x {}", s.nrows, s.ncols);
    println!("non-zeros        {} (density {:.3e})", s.nnz, s.density);
    println!("nnz/row          avg {:.1}, max {}", s.avg_nnz_per_row, s.max_nnz_per_row);
    println!("empty rows       {}", s.empty_rows);
    println!("bandwidth        {} (avg |i-j| {:.1})", s.bandwidth, s.avg_band);
    println!("avg col delta    {:.2}", s.avg_col_delta);
    println!("distinct values  {} (sampled)", s.distinct_values_sampled);
    println!("value entropy    {:.2} bits/byte", s.value_byte_entropy);
    println!("symmetric        {} (structurally: {})", s.symmetric, s.structurally_symmetric);
    let cm =
        CompressedMatrix::compress(&a, MatrixCodecConfig::udp_dsh()).map_err(|e| e.to_string())?;
    let sum = CompressionSummary::of(&cm);
    println!(
        "DSH compression  {:.2} B/nnz (index {:.2} + value {:.2}; raw 12.00)",
        sum.bytes_per_nnz, sum.index_bytes_per_nnz, sum.value_bytes_per_nnz
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_compress(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
    let out = flags.output.as_ref().ok_or("compress needs -o <out.rcmx>")?;
    let cm = CompressedMatrix::compress(&a, flags.config).map_err(|e| e.to_string())?;
    let container = cm.to_bytes();
    std::fs::write(out, &container).map_err(|e| e.to_string())?;
    let raw = a.nnz() * 12;
    println!(
        "{} -> {}: {} nnz, {:.2} B/nnz ({} compressed bytes vs {} raw, container {} bytes)",
        flags.positional[0],
        out,
        a.nnz(),
        cm.bytes_per_nnz(),
        cm.wire_bytes(),
        raw,
        container.len()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_decompress(flags: &Flags) -> Result<ExitCode, String> {
    let input = flags.positional.first().ok_or("missing input .rcmx path")?;
    let out = flags.output.as_ref().ok_or("decompress needs -o <matrix.mtx>")?;
    let container = std::fs::read(input).map_err(|e| e.to_string())?;
    let cm = CompressedMatrix::from_bytes(&container).map_err(|e| format!("{input}: {e}"))?;
    let a = cm.decompress().map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(out, buf).map_err(|e| e.to_string())?;
    println!("{input} -> {out}: {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    Ok(ExitCode::SUCCESS)
}

/// Applies `--inject-corrupt BLOCK`: flips a payload bit in one index-stream
/// block so CRC framing catches it on every decode attempt and the run is
/// forced through the retry → raw-CSR fallback ladder.
fn apply_injection(recoded: &mut RecodedSpmv, flags: &Flags) -> Result<(), String> {
    if let Some(b) = flags.inject_corrupt {
        let blocks = &mut recoded.compressed_mut().index_stream.blocks;
        let n = blocks.len();
        let blk = blocks
            .get_mut(b)
            .ok_or_else(|| format!("--inject-corrupt {b}: the index stream has {n} blocks"))?;
        let byte =
            blk.payload.first_mut().ok_or("--inject-corrupt: target block has no payload")?;
        *byte ^= 0x40;
    }
    Ok(())
}

/// Loads, parses, and digest-validates the `--tuned` config, if given.
/// Every failure is a hard error — a stale or foreign tuning never falls
/// back silently to the defaults.
fn tuned_for(flags: &Flags, a: &Csr) -> Result<Option<TunedConfig>, String> {
    let Some(path) = &flags.tuned else {
        return Ok(None);
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let tuned = TunedConfig::from_json_str(&text).map_err(|e| format!("{path}: {e}"))?;
    tuned.validate_for(a).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "tuned: kernel {}, stages {}, block {} B ({} candidates searched)",
        tuned.kernel.name(),
        tuned.stages.name(),
        tuned.block_bytes,
        tuned.candidates
    );
    Ok(Some(tuned))
}

fn cmd_spmv(flags: &Flags) -> Result<ExitCode, String> {
    let a = load(flags)?;
    if flags.overlap {
        return cmd_spmv_overlap(flags, &a);
    }
    if flags.iters > 1 {
        return Err("--iters needs --overlap (the batch path has no decoded-block cache)".into());
    }
    if flags.cache_blocks > 0 {
        return Err("--cache-blocks needs --overlap".into());
    }
    let tuned = tuned_for(flags, &a)?;
    let config = tuned.as_ref().map_or(flags.config, TunedConfig::codec_config);
    let kernel = tuned.as_ref().map_or(SpmvKernel::RowParallel, |t| t.kernel);
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let y_ref = spmv(&a, &x);
    let hook = flags.inject_trap.map(|j| FaultHook::new().trap(j));
    arm_recorder(flags);
    let mut recoded = recode_for(flags, &a, config)?;
    if flags.trace.is_some() {
        // The software decode both cross-checks losslessness and populates
        // the decode direction of the codec-stage telemetry in the trace.
        let sw = recoded.decompress_via_software().map_err(|e| e.to_string())?;
        if sw != a {
            return Err("software decode diverged from the original matrix".into());
        }
    }
    apply_injection(&mut recoded, flags)?;
    let opts = RunOptions { faults: hook.as_ref(), budget: None };
    let t_run = Instant::now();
    let (y, stats) = recoded.spmv_with(&sys, kernel, &x, opts).map_err(|e| e.to_string())?;
    write_traces(flags, &recoded, &sys, &stats, t_run)?;
    // Merge-path and partially-diagonal kernels reassociate row sums, so a
    // tuned run verifies to summation tolerance; the default row-parallel
    // path stays bit-exact.
    if tuned.is_some() {
        let worst = worst_rel_err(&y, &y_ref);
        if worst > 1e-10 {
            return Err(format!(
                "tuned SpMV diverged from the uncompressed kernel (worst rel err {worst:.3e})"
            ));
        }
    } else if y != y_ref {
        return Err("recoded SpMV diverged from the uncompressed kernel".into());
    }
    println!("recoded SpMV verified against the uncompressed kernel ({} rows)", y.len());
    println!(
        "UDP: {} blocks, makespan {} cycles, {:.2} GB/s decompressed, {:.1}% lane utilization",
        stats.accel.jobs,
        stats.accel.makespan_cycles,
        stats.accel.throughput_bps() / 1e9,
        stats.accel.lane_utilization * 100.0
    );
    // The throughput measurement re-decodes sampled blocks outside the
    // retry/fallback ladder, so it only makes sense on a pristine stream.
    if flags.inject_trap.is_none() && flags.inject_corrupt.is_none() {
        let cm = recoded.compressed();
        let m = measure_udp_decomp(cm, &sys.udp, 24).map_err(|e| e.to_string())?;
        let model = SpmvPerfModel {
            bytes_per_nnz: cm.bytes_per_nnz(),
            udp_out_bps_per_accel: m.accel_out_bps.max(1e9),
        };
        println!("\nmodeled on the 100 GB/s DDR4 system ({:.2} B/nnz):", cm.bytes_per_nnz());
        print!("{}", report::scenarios(&model.evaluate_all(&sys)));
        let p = PowerSavings::compute(&sys, cm.bytes_per_nnz(), m.accel_out_bps.max(1e9));
        println!("iso-performance power: {:.1} W of {:.0} W saved", p.net_saving_w, p.max_power_w);
    }
    Ok(exit_for(&stats))
}

/// The `--overlap` arm of `recode spmv`: route through the pipelined
/// decode/multiply executor with an optional decoded-block LRU cache.
/// Multi-tile pipelined results reassociate rows that straddle tile
/// boundaries, so verification is against a 1e-10 relative tolerance
/// rather than bit equality.
fn cmd_spmv_overlap(flags: &Flags, a: &Csr) -> Result<ExitCode, String> {
    let tuned = tuned_for(flags, a)?;
    let config = tuned.as_ref().map_or(flags.config, TunedConfig::codec_config);
    let sys = SystemConfig::ddr4();
    let x = vec![1.0; a.ncols()];
    let y_ref = spmv(a, &x);
    let hook = flags.inject_trap.map(|j| FaultHook::new().trap(j));
    arm_recorder(flags);
    let mut recoded = recode_for(flags, a, config)?;
    apply_injection(&mut recoded, flags)?;
    let overlap_config =
        OverlapConfig { overlap: true, cache_blocks: flags.cache_blocks, workers: 0 };
    // The overlap pipeline's tiled multiply is kernel-agnostic; a tuned
    // config contributes its codec stage subset and block size here, and
    // `from_tuned` re-checks the operand really carries that stream.
    let ex = match &tuned {
        Some(t) => {
            OverlapExecutor::from_tuned(&recoded, t, overlap_config).map_err(|e| e.to_string())?
        }
        None => OverlapExecutor::new(&recoded, overlap_config),
    };
    let opts = RunOptions { faults: hook.as_ref(), budget: None };
    let t_run = Instant::now();
    let (y, stats) = ex.spmv_with(&sys, &x, opts).map_err(|e| e.to_string())?;
    write_traces(flags, &recoded, &sys, &stats, t_run)?;
    let worst = worst_rel_err(&y, &y_ref);
    if worst > 1e-10 {
        return Err(format!(
            "pipelined SpMV diverged from the uncompressed kernel (worst rel err {worst:.3e})"
        ));
    }
    println!(
        "pipelined SpMV verified against the uncompressed kernel ({} rows, worst rel err {:.1e})",
        y.len(),
        worst
    );
    let ov = stats.overlap;
    println!(
        "overlap: {} stages on {} workers; decode {} + multiply {} cycles",
        ov.stages, ov.workers, ov.decode_cycles, ov.multiply_cycles
    );
    println!(
        "         makespan {} cycles vs {} serial ({} saved, {:.1}% lane utilization)",
        ov.overlapped_makespan_cycles,
        ov.serial_makespan_cycles,
        ov.saved_cycles(),
        stats.accel.lane_utilization * 100.0
    );
    if flags.cache_blocks > 0 {
        println!(
            "cache: capacity {} blocks; {} hits / {} misses / {} evictions ({} decoded bytes served)",
            flags.cache_blocks, ov.cache_hits, ov.cache_misses, ov.cache_evictions, ov.cache_hit_bytes
        );
    }
    if flags.iters > 1 {
        if a.nrows() != a.ncols() {
            return Err("--iters needs a square matrix".into());
        }
        let (_, per_iter) = ex.spmv_iter(&sys, &x, flags.iters - 1).map_err(|e| e.to_string())?;
        println!("\niterated multiply (decode cycles per iteration):");
        let decode: Vec<u64> = std::iter::once(ov.decode_cycles)
            .chain(per_iter.iter().map(|s| s.overlap.decode_cycles))
            .collect();
        for (i, d) in decode.iter().enumerate() {
            println!("  iter {:>3}: {d:>12} decode cycles", i + 1);
        }
        let warm_sum: u64 = decode[1..].iter().sum();
        if warm_sum == 0 {
            println!("  warm iterations paid zero decode cycles (every block served from cache)");
        } else {
            let warm_avg = warm_sum as f64 / (decode.len() - 1) as f64;
            println!("  cold/warm decode ratio: {:.1}x", decode[0] as f64 / warm_avg);
        }
    }
    Ok(exit_for(&stats))
}

/// `recode tune`: search kernel × codec-stage × block size over the input
/// matrix, print the scored candidate table, and persist the winner as a
/// digest-keyed `recode-tuned/v1` document for `recode spmv --tuned`.
/// Selection is purely by modeled cycles, so the written config is a pure
/// function of (matrix, --seed); `RECODE_TUNE_TRIALS` resizes only the
/// informational wall-clock column.
fn cmd_tune(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::tune::TRIALS_ENV;
    let a = load(flags)?;
    let input = &flags.positional[0];
    let mut opts = TuneOptions::from_env();
    opts.seed = flags.seed;
    println!(
        "tuning {} ({} x {}, {} nnz) with seed {} ({} wall trial(s); {TRIALS_ENV} resizes)...",
        input,
        a.nrows(),
        a.ncols(),
        a.nnz(),
        opts.seed,
        opts.trials
    );
    let outcome = tune_matrix(&a, &opts).map_err(|e| e.to_string())?;
    let mut ranked: Vec<&recode_spmv::core::CandidateScore> = outcome.candidates.iter().collect();
    ranked.sort_by_key(|c| c.total_cycles());
    println!(
        "\n{:<18} {:>7} {:>7} {:>13} {:>13} {:>8} {:>10}",
        "kernel", "stages", "block", "decode cyc", "multiply cyc", "B/nnz", "wall us"
    );
    for c in ranked.iter().take(10) {
        println!(
            "{:<18} {:>7} {:>7} {:>13} {:>13} {:>8.2} {:>10.1}",
            c.kernel.name(),
            c.stages.name(),
            c.block_bytes,
            c.decode_cycles,
            c.multiply_cycles,
            c.wire_bytes_per_nnz,
            c.wall_ns as f64 / 1e3
        );
    }
    if outcome.candidates.len() > 10 {
        println!("({} more candidates not shown)", outcome.candidates.len() - 10);
    }
    let cfg = &outcome.config;
    let out = flags.output.clone().unwrap_or_else(|| format!("{input}.tuned.json"));
    std::fs::write(&out, cfg.to_json_string()).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "\nwinner: kernel {}, stages {}, block {} B — {} modeled cycles ({} decode + {} multiply)",
        cfg.kernel.name(),
        cfg.stages.name(),
        cfg.block_bytes,
        cfg.modeled_total_cycles(),
        cfg.modeled_decode_cycles,
        cfg.modeled_multiply_cycles
    );
    println!("tuned config ({}) written to {out}", recode_spmv::core::TUNED_SCHEMA);
    println!("run it: recode spmv {input} --tuned {out}");
    Ok(ExitCode::SUCCESS)
}

fn load_trace(flags: &Flags) -> Result<TraceDocument, String> {
    let path = flags.positional.first().ok_or("missing trace.json path")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    TraceDocument::from_json_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_report(flags: &Flags) -> Result<ExitCode, String> {
    let doc = load_trace(flags)?;
    print!("{}", recode_spmv::core::telemetry::render_report(&doc));
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace_check(flags: &Flags) -> Result<ExitCode, String> {
    let doc = load_trace(flags)?;
    let errs = doc.validate();
    if !errs.is_empty() {
        for e in &errs {
            eprintln!("invariant violated: {e}");
        }
        return Err(format!("trace failed validation with {} error(s)", errs.len()));
    }
    if flags.bounds {
        check_trace_bounds(&doc)?;
    }
    println!(
        "trace OK: schema {}, matrix {} ({} nnz), {} spans, {} block events, {} counters, {} lanes profiled",
        doc.schema,
        if doc.matrix.name.is_empty() { "<unnamed>" } else { &doc.matrix.name },
        doc.matrix.nnz,
        doc.spans.len(),
        doc.block_events.len(),
        doc.counters.len(),
        doc.exec.accel.lane_profiles.len()
    );
    Ok(ExitCode::SUCCESS)
}

/// The `--bounds` arm of `recode trace-check`: rebuild the
/// table-independent builtin stage programs (inverse delta, Snappy), take
/// their statically certified [`CycleBound`] envelopes, and re-verify the
/// trace's stored cycles against them. The compiled Huffman stage is
/// per-matrix (its table is not in the trace), so it contributes no bound
/// here — every check stays sound without it.
///
/// Checks, all vacuous on empty traces:
/// 1. the rebuildable stage programs still certify a bounded envelope;
/// 2. every block event that ran on a lane (Ok/Retried) spent at least the
///    summed certified minimum of the active rebuildable stages;
/// 3. when the Huffman stage was inactive, no event exceeds the summed
///    certified maximum at the lane output-window input cap;
/// 4. each rebuildable stage's aggregate cycles fit
///    `attempts x certified max`, where attempts = jobs + retries.
///
/// A trace whose lane events ran but which carries no stage attribution
/// (the pipelined executor's) leaves stage activity unknown: with no
/// stage known to be active the floor of check 2 is 0, check 3 is skipped
/// rather than derived from missing data, and the OK line says so.
fn check_trace_bounds(doc: &TraceDocument) -> Result<(), String> {
    use recode_spmv::core::telemetry::BlockOutcome;
    use recode_spmv::udp::isa::SCRATCHPAD_BYTES;
    use recode_spmv::udp::progs;
    // Any intermediate stage input fits the lane output window (half the
    // scratchpad), which caps the bits a later stage can consume; first
    // stages see at most one compressed block, which is smaller still.
    let bits_cap = 8 * (SCRATCHPAD_BYTES as u64 / 2);
    let st = &doc.exec.accel.stage_cycles;
    let mut stages = Vec::new();
    for (name, image, active_cycles) in [
        ("snappy", progs::snappy::build().map_err(|e| e.to_string())?, st.snappy),
        ("delta", progs::delta::build().map_err(|e| e.to_string())?, st.delta),
    ] {
        let bound =
            image.verify_report.cycle_bound.filter(|b| b.max.is_some()).ok_or_else(|| {
                format!("builtin `{name}` no longer certifies a bounded envelope")
            })?;
        stages.push((name, bound, active_cycles));
    }
    let mut violations = Vec::new();
    let floor: u64 = stages.iter().filter(|(_, _, c)| *c > 0).map(|(_, b, _)| b.min).sum();
    let huffman_active = st.huffman > 0;
    let stages_unknown =
        st.total() == 0 && doc.block_events.iter().any(|e| e.outcome != BlockOutcome::FellBack);
    let per_event = !(huffman_active || stages_unknown);
    let event_cap: u64 = stages
        .iter()
        .filter(|(_, _, c)| *c > 0)
        .map(|(_, b, _)| b.max.expect("filtered above").max_for(bits_cap))
        .sum();
    let mut ran = 0u64;
    for e in &doc.block_events {
        if e.outcome == BlockOutcome::FellBack {
            continue;
        }
        ran += 1;
        if e.cycles < floor {
            violations.push(format!(
                "block event (job {}, {:?}) spent {} cycles, under the certified floor {floor}",
                e.job, e.outcome, e.cycles
            ));
        }
        if per_event && e.cycles > event_cap {
            violations.push(format!(
                "block event (job {}, {:?}) spent {} cycles, over the certified cap {event_cap}",
                e.job, e.outcome, e.cycles
            ));
        }
    }
    let attempts = (doc.exec.accel.jobs + doc.exec.blocks_retried) as u64;
    for (name, bound, stage_total) in &stages {
        let cap = attempts.saturating_mul(bound.max.expect("filtered above").max_for(bits_cap));
        if *stage_total > cap {
            violations.push(format!(
                "stage `{name}` spent {stage_total} cycles across {attempts} attempt(s), \
                 over the certified aggregate cap {cap}"
            ));
        }
    }
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("certified bound violated: {v}");
        }
        return Err(format!(
            "trace escaped its certified envelopes ({} violation(s))",
            violations.len()
        ));
    }
    println!(
        "certified bounds OK: {ran} lane event(s) >= floor {floor}, stage aggregates within \
         {} certified envelope(s){}",
        stages.len(),
        if stages_unknown {
            " (no stage attribution in the trace: per-event envelope not checked)"
        } else if huffman_active {
            " (huffman stage active: per-matrix, not re-checked)"
        } else {
            ""
        }
    );
    Ok(())
}

fn cmd_disasm(flags: &Flags) -> Result<ExitCode, String> {
    let which = flags.positional.first().map_or("", String::as_str);
    let image = match which {
        "snappy" => recode_spmv::udp::progs::snappy::build().map_err(|e| e.to_string())?,
        "delta" => recode_spmv::udp::progs::delta::build().map_err(|e| e.to_string())?,
        other => return Err(format!("disasm takes `snappy` or `delta`, got `{other}`")),
    };
    print!("{}", image.disassemble());
    Ok(ExitCode::SUCCESS)
}

/// Renders the certified per-block bounds table for a verified image: one
/// row per placed code word (a word IS a basic block on this machine) with
/// its per-visit cycle cost, capped for very large compiled programs, then
/// the program's certified envelope.
fn render_bounds_table(image: &recode_spmv::udp::Image) -> String {
    use recode_spmv::udp::machine::DecodedTransition;
    use std::fmt::Write as _;
    const MAX_ROWS: usize = 32;
    let mut out = String::new();
    let _ = writeln!(out, "-- certified cycle bounds: {} --", image.name);
    let _ = writeln!(out, "{:>6}  {:>9}  {:>7}  terminator", "addr", "cyc/visit", "actions");
    let mut shown = 0usize;
    let mut total = 0usize;
    for addr in 0..image.words.len() as u32 {
        let Some(block) = image.decode(addr) else { continue };
        total += 1;
        if shown >= MAX_ROWS {
            continue;
        }
        shown += 1;
        let term = match block.transition {
            DecodedTransition::Halt => "halt".to_string(),
            DecodedTransition::Jump(a) => format!("jump @{a}"),
            DecodedTransition::DispatchSym { bits, .. } => format!("dispatch.sym {bits}"),
            DecodedTransition::DispatchPeek { bits, .. } => format!("dispatch.peek {bits}"),
            DecodedTransition::DispatchReg { rs, .. } => format!("dispatch.reg r{rs}"),
            DecodedTransition::Branch { taken, .. } => format!("branch @{taken}"),
        };
        let marker = if addr == image.entry { " <entry>" } else { "" };
        let _ = writeln!(
            out,
            "{addr:>6}  {:>9}  {:>7}  {term}{marker}",
            1 + block.actions.len(),
            block.actions.len()
        );
    }
    if total > shown {
        let _ = writeln!(out, "  ({} more blocks not shown)", total - shown);
    }
    match image.verify_report.cycle_bound {
        Some(b) => {
            let _ = writeln!(out, "program envelope: {b} cycles over the whole input");
        }
        None => {
            let _ = writeln!(out, "program envelope: none (no reachable halt)");
        }
    }
    out
}

/// `recode verify-program`: run the static verifier on a `.udp` assembly
/// file (findings annotated with source lines) or one of the shipped
/// programs by name (`builtin:delta`, `builtin:snappy`, `builtin:huffman`,
/// or `builtin:dsh` for the whole pipeline; bare names still accepted).
/// Prints the severity-ranked report and the certified per-block bounds
/// table; exits nonzero when a program carries `Error` findings — the same
/// findings that make `Lane::run` refuse the image.
fn cmd_verify_program(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::udp::{asm, machine, progs, Image};
    let target = flags.positional.first().ok_or(
        "verify-program needs a .udp file or a builtin (builtin:delta|snappy|huffman|dsh)",
    )?;
    let build_builtin = |name: &str| -> Option<Result<Image, String>> {
        match name {
            "delta" => Some(progs::delta::build().map_err(|e| e.to_string())),
            "snappy" => Some(progs::snappy::build().map_err(|e| e.to_string())),
            // A representative compiled decoder: uniform 8-bit code lengths
            // (Kraft-complete over 256 symbols).
            "huffman" => Some(progs::huffman::compile(&[8u8; 256]).map_err(|e| e.to_string())),
            _ => None,
        }
    };
    let spelled = target.strip_prefix("builtin:").unwrap_or(target);
    let images: Vec<Image> = if spelled == "dsh" {
        // The whole decode pipeline, in stage order.
        vec![
            build_builtin("huffman").unwrap()?,
            build_builtin("snappy").unwrap()?,
            build_builtin("delta").unwrap()?,
        ]
    } else if let Some(img) = build_builtin(spelled) {
        vec![img?]
    } else if target.starts_with("builtin:") {
        return Err(format!("unknown builtin `{spelled}` (try delta|snappy|huffman|dsh)"));
    } else {
        let path = target;
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let name = std::path::Path::new(path)
            .file_stem()
            .map_or_else(|| "program".into(), |s| s.to_string_lossy().into_owned());
        let (program, map) =
            asm::assemble_text_with_map(&name, &src).map_err(|e| format!("{path}: {e}"))?;
        let mut image = machine::assemble(&program).map_err(|e| e.to_string())?;
        image.verify_report.attach_lines(&map);
        vec![image]
    };
    let mut errors = 0usize;
    for image in &images {
        print!("{}", image.verify_report);
        print!("{}", render_bounds_table(image));
        errors += image.verify_report.error_count();
    }
    if errors > 0 {
        return Err(format!("`{target}` rejected: {errors} error finding(s)"));
    }
    Ok(ExitCode::SUCCESS)
}

/// `recode chaos`: run a seeded chaos campaign over the resilient
/// executors. The campaign is a pure function of `--seed` and `--trials`,
/// so a failing run reproduces exactly from its printed parameters.
/// `--json` writes the machine-readable summary (the CI artifact).
fn cmd_chaos(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::chaos::{run_campaign, ChaosConfig};
    let config = ChaosConfig { trials: flags.trials, seed: flags.seed, ..ChaosConfig::default() };
    println!("running {} chaos trials with seed {:#x}...", config.trials, config.seed);
    arm_recorder(flags);
    let summary = run_campaign(&config);
    if let Some(ct_path) = &flags.chrome_trace {
        finish_chrome_trace(ct_path)?;
    }
    print!("{}", summary.render());
    if let Some(path) = &flags.json {
        std::fs::write(path, summary.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("summary written to {path}");
    }
    if summary.healthy() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err("chaos campaign violated the resilience contract".into())
    }
}

/// `recode metrics`: run one budgeted job through the resilient executor
/// (default budget, fresh circuit breaker), fold it into a trace document,
/// and print that as a Prometheus text exposition — the scrape surface for
/// the pipeline's counters, gauges, and span timings.
fn cmd_metrics(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::MetricsSnapshot;
    let a = load(flags)?;
    let sys = SystemConfig::ddr4();
    // Arm the flight recorder before compression so the exposition carries
    // per-kind event counters — including the jit_compile events fired
    // while the decoder's lane images are assembled just below.
    recorder::enable(recorder::DEFAULT_CAPACITY);
    let recoded = RecodedSpmv::new_traced(&a, flags.config).map_err(|e| e.to_string())?;
    let mut breaker = CircuitBreaker::new(BreakerConfig::default());
    let budget = JobBudget::default();
    let t_run = Instant::now();
    let report = recoded.run_job(
        &sys,
        RunOptions { faults: None, budget: Some(&budget) },
        Some(&mut breaker),
    );
    let wall_ns_total = t_run.elapsed().as_nanos() as u64;
    let stats = report
        .stats
        .as_ref()
        .ok_or_else(|| format!("job produced no stats to trace (state {:?})", report.state))?;
    let mut doc =
        TraceDocument::from_run(&recoded, &sys, stats, &matrix_name(flags), wall_ns_total);
    doc.attach_breaker(&breaker);
    doc.attach_recorder(RecorderSummary::from_events(&recorder::drain(), recorder::stats()));
    let text = MetricsSnapshot::from_document(&doc).render_prometheus();
    match &flags.output {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("metrics written to {path} ({} bytes)", text.len());
        }
        None => print!("{text}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// `recode bench-compare`: diff two bench-snapshot JSON files and fail
/// (exit 1) when a gated deterministic metric regressed beyond the
/// threshold. Wall-clock metrics are reported but never gate — baselines
/// are blessed on whatever machine ran them.
fn cmd_bench_compare(flags: &Flags) -> Result<ExitCode, String> {
    use recode_spmv::core::benchcmp::GATE_THRESHOLD;
    let old_path = flags.positional.first().ok_or("bench-compare needs <old.json> <new.json>")?;
    let new_path = flags.positional.get(1).ok_or("bench-compare needs <old.json> <new.json>")?;
    let old = std::fs::read_to_string(old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new = std::fs::read_to_string(new_path).map_err(|e| format!("{new_path}: {e}"))?;
    let report = recode_spmv::core::compare_snapshots(&old, &new)?;
    print!("{}", report.render());
    if report.has_regressions() {
        return Err(format!(
            "{} gated metric(s) regressed more than {:.0}% beyond noise",
            report.regressions().len(),
            GATE_THRESHOLD * 100.0
        ));
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_gen(flags: &Flags) -> Result<ExitCode, String> {
    let family = flags.positional.first().ok_or("gen needs a family")?;
    let target: usize =
        flags.positional.get(1).and_then(|s| s.parse().ok()).ok_or("gen needs a target nnz")?;
    let out = flags.output.as_ref().ok_or("gen needs -o <matrix.mtx>")?;
    // Reuse the corpus parameterization: scan corpus entries for the family
    // and rescale, or build directly for the common families.
    let spec = corpus::spec_for_family(family, target, flags.seed)
        .ok_or_else(|| format!("unknown family {family} (try: {})", FAMILIES.join(", ")))?;
    let a = recode_spmv::sparse::gen::generate(&spec, flags.seed);
    let mut buf = Vec::new();
    write_matrix_market(&a, &mut buf).map_err(|e| e.to_string())?;
    std::fs::write(out, buf).map_err(|e| e.to_string())?;
    println!("{family} -> {out}: {} x {}, {} nnz", a.nrows(), a.ncols(), a.nnz());
    Ok(ExitCode::SUCCESS)
}
