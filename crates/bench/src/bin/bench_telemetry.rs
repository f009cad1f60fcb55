//! `BENCH_telemetry.json` — headline observability snapshot from the trace
//! path over a sampled synthetic corpus: geomean compressed bytes/nnz,
//! geomean single-lane µs per 8 KB block, mean lane utilization, and the
//! batch-wide opcode-class / decode-stage cycle mix (paper Figs. 12/13).
//!
//! The `overhead` section times what observability costs on one fixed
//! matrix (80x80 9-point stencil): the batch decode alone (`untraced`) vs
//! the decode plus folding its stats into a trace document (`traced`), and
//! the decode with the flight recorder off vs on. Each figure is the median wall time of
//! [`OVERHEAD_REPS`] runs; `_wall_ns` metrics are informational in
//! `recode bench-compare`, never gated.
//!
//! Usage: `bench_telemetry [--scale ...] [--sample N] [--json PATH]`
//! (defaults: small scale, 12 matrices, writes BENCH_telemetry.json).

use recode_bench::{corpus_entries, parse_args};
use recode_codec::pipeline::MatrixCodecConfig;
use recode_core::corpus::CorpusScale;
use recode_core::exec::RecodedSpmv;
use recode_core::json::Json;
use recode_core::recorder;
use recode_core::telemetry::TraceDocument;
use recode_core::SystemConfig;
use recode_sparse::gen::{generate, GenSpec, ValueModel};
use recode_sparse::spmv::SpmvKernel;
use recode_sparse::util::geometric_mean;

struct PerMatrix {
    name: String,
    nnz: usize,
    bytes_per_nnz: f64,
    us_per_block: f64,
    lane_utilization: f64,
    makespan_cycles: u64,
    wall_ns_total: u64,
}

impl PerMatrix {
    fn to_json(&self) -> Json {
        Json::obj()
            .set("name", Json::Str(self.name.clone()))
            .set("nnz", Json::U64(self.nnz as u64))
            .set("bytes_per_nnz", Json::F64(self.bytes_per_nnz))
            .set("us_per_block", Json::F64(self.us_per_block))
            .set("lane_utilization", Json::F64(self.lane_utilization))
            .set("makespan_cycles", Json::U64(self.makespan_cycles))
            .set("wall_ns_total", Json::U64(self.wall_ns_total))
    }
}

struct Snapshot {
    schema: &'static str,
    matrices: usize,
    geomean_bytes_per_nnz: f64,
    geomean_us_per_block: f64,
    mean_lane_utilization: f64,
    /// Fraction of batch cycles by opcode class, summed over all runs.
    opclass_share: OpclassShare,
    /// Fraction of batch cycles by decode stage, summed over all runs.
    stage_share: StageShare,
    per_matrix: Vec<PerMatrix>,
}

impl Snapshot {
    /// Shared `core::json` writer: feeds `recode bench-compare` the same
    /// bytes CI diffs.
    fn to_json(&self) -> Json {
        Json::obj()
            .set("schema", Json::Str(self.schema.to_string()))
            .set("matrices", Json::U64(self.matrices as u64))
            .set("geomean_bytes_per_nnz", Json::F64(self.geomean_bytes_per_nnz))
            .set("geomean_us_per_block", Json::F64(self.geomean_us_per_block))
            .set("mean_lane_utilization", Json::F64(self.mean_lane_utilization))
            .set(
                "opclass_share",
                Json::obj()
                    .set("dispatch_share", Json::F64(self.opclass_share.dispatch))
                    .set("alu_share", Json::F64(self.opclass_share.alu))
                    .set("mem_share", Json::F64(self.opclass_share.mem))
                    .set("stream_share", Json::F64(self.opclass_share.stream)),
            )
            .set(
                "stage_share",
                Json::obj()
                    .set("huffman_share", Json::F64(self.stage_share.huffman))
                    .set("snappy_share", Json::F64(self.stage_share.snappy))
                    .set("delta_share", Json::F64(self.stage_share.delta)),
            )
            .set("per_matrix", Json::Arr(self.per_matrix.iter().map(PerMatrix::to_json).collect()))
    }
}

/// Timed runs per overhead figure.
const OVERHEAD_REPS: usize = 11;

/// Median wall nanoseconds of [`OVERHEAD_REPS`] calls of `run`.
fn median_wall_ns(mut run: impl FnMut()) -> u64 {
    let mut ns: Vec<u64> = (0..OVERHEAD_REPS)
        .map(|_| {
            let t0 = std::time::Instant::now();
            run();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// Decode vs decode plus trace fold, and recorder off vs on, over one
/// fixed matrix.
fn overhead(sys: &SystemConfig) -> Json {
    let a = generate(
        &GenSpec::Stencil2D {
            nx: 80,
            ny: 80,
            points: 9,
            values: ValueModel::QuantizedGaussian { levels: 48 },
        },
        2019,
    );
    let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).expect("compress bench matrix");
    let untraced = || {
        let (_, stats) = r.decompress_via_udp(sys).expect("untraced decode");
        std::hint::black_box(stats.accel.makespan_cycles);
    };
    recorder::disable();
    let untraced_wall_ns = median_wall_ns(untraced);
    let traced_wall_ns = median_wall_ns(|| {
        let t_run = std::time::Instant::now();
        let (_, stats) = r.decompress_via_udp(sys).expect("traced decode");
        let wall_ns = t_run.elapsed().as_nanos() as u64;
        let doc = TraceDocument::from_run(&r, sys, &stats, "overhead", wall_ns);
        std::hint::black_box((stats.accel.makespan_cycles, doc.block_events.len()));
    });
    let recorder_off_wall_ns = median_wall_ns(untraced);
    recorder::enable(recorder::DEFAULT_CAPACITY);
    let recorder_on_wall_ns = median_wall_ns(untraced);
    std::hint::black_box(recorder::drain().len());
    recorder::disable();
    Json::obj()
        .set("nnz", Json::U64(a.nnz() as u64))
        .set("reps", Json::U64(OVERHEAD_REPS as u64))
        .set("untraced_wall_ns", Json::U64(untraced_wall_ns))
        .set("traced_wall_ns", Json::U64(traced_wall_ns))
        .set("recorder_off_wall_ns", Json::U64(recorder_off_wall_ns))
        .set("recorder_on_wall_ns", Json::U64(recorder_on_wall_ns))
}

struct OpclassShare {
    dispatch: f64,
    alu: f64,
    mem: f64,
    stream: f64,
}

struct StageShare {
    huffman: f64,
    snappy: f64,
    delta: f64,
}

fn main() {
    let mut args = parse_args();
    if args.sample.is_none() {
        args.sample = Some(12);
        args.scale = CorpusScale::Small;
    }
    let out_path =
        args.json.clone().unwrap_or_else(|| std::path::PathBuf::from("BENCH_telemetry.json"));

    let sys = SystemConfig::ddr4();
    let mut per_matrix = Vec::new();
    let mut opclass = recode_udp::OpClassCycles::default();
    let mut stages = recode_udp::StageCycles::default();
    for entry in corpus_entries(&args) {
        let a = entry.generate();
        let r = match RecodedSpmv::new_traced(&a, MatrixCodecConfig::udp_dsh()) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{}: skipped ({e})", entry.name);
                continue;
            }
        };
        let x = vec![1.0; a.ncols()];
        let t_run = std::time::Instant::now();
        let (_, stats) = r.spmv(&sys, SpmvKernel::Serial, &x).expect("spmv on self-encoded corpus");
        let wall_ns = t_run.elapsed().as_nanos() as u64;
        let doc = TraceDocument::from_run(&r, &sys, &stats, &entry.name, wall_ns);
        let accel = &stats.accel;
        opclass.merge(&accel.opclass);
        stages.merge(&accel.stage_cycles);
        let us_per_block = if accel.jobs == 0 {
            0.0
        } else {
            accel.busy_cycles as f64 / accel.jobs as f64 / accel.freq_hz * 1e6
        };
        per_matrix.push(PerMatrix {
            name: entry.name.clone(),
            nnz: a.nnz(),
            bytes_per_nnz: doc.matrix.bytes_per_nnz,
            us_per_block,
            lane_utilization: accel.lane_utilization,
            makespan_cycles: accel.makespan_cycles,
            wall_ns_total: doc.wall_ns_total,
        });
        eprintln!(
            "{}: {:.2} B/nnz, {:.1} us/block, {:.0}% lanes",
            entry.name,
            doc.matrix.bytes_per_nnz,
            us_per_block,
            accel.lane_utilization * 100.0
        );
    }

    let bpn: Vec<f64> = per_matrix.iter().map(|m| m.bytes_per_nnz).collect();
    let uspb: Vec<f64> = per_matrix.iter().map(|m| m.us_per_block).filter(|v| *v > 0.0).collect();
    let util_sum: f64 = per_matrix.iter().map(|m| m.lane_utilization).sum();
    let oc_total = opclass.total().max(1) as f64;
    let st_total = stages.total().max(1) as f64;
    let snapshot = Snapshot {
        schema: "recode-bench-telemetry/v1",
        matrices: per_matrix.len(),
        geomean_bytes_per_nnz: geometric_mean(&bpn).unwrap_or(0.0),
        geomean_us_per_block: geometric_mean(&uspb).unwrap_or(0.0),
        mean_lane_utilization: if per_matrix.is_empty() {
            0.0
        } else {
            util_sum / per_matrix.len() as f64
        },
        opclass_share: OpclassShare {
            dispatch: opclass.dispatch as f64 / oc_total,
            alu: opclass.alu as f64 / oc_total,
            mem: opclass.mem as f64 / oc_total,
            stream: opclass.stream as f64 / oc_total,
        },
        stage_share: StageShare {
            huffman: stages.huffman as f64 / st_total,
            snappy: stages.snappy as f64 / st_total,
            delta: stages.delta as f64 / st_total,
        },
        per_matrix,
    };
    let overhead = overhead(&sys);
    eprintln!("overhead: {overhead}");
    let text = snapshot.to_json().set("overhead", overhead).to_string_pretty();
    std::fs::write(&out_path, text).unwrap_or_else(|e| {
        eprintln!("failed to write {}: {e}", out_path.display());
        std::process::exit(1);
    });
    println!(
        "wrote {} ({} matrices, geomean {:.2} B/nnz, {:.1} us/block, {:.0}% mean lane utilization)",
        out_path.display(),
        snapshot.matrices,
        snapshot.geomean_bytes_per_nnz,
        snapshot.geomean_us_per_block,
        snapshot.mean_lane_utilization * 100.0
    );
}
