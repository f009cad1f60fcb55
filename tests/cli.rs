//! End-to-end test of the `recode` CLI binary: generate, inspect, compress,
//! decompress, verify, and run the simulated SpMV — the full workflow a
//! downstream user drives from the shell.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_recode"))
}

fn tmpdir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("recode-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&d).expect("mkdir");
    d
}

#[test]
fn gen_info_compress_decompress_spmv_workflow() {
    let dir = tmpdir();
    let mtx = dir.join("m.mtx");
    let rcmx = dir.join("m.rcmx");
    let back = dir.join("back.mtx");

    // gen
    let out = bin()
        .args(["gen", "femband", "60000", "-o", mtx.to_str().unwrap(), "--seed", "7"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    // info
    let out = bin().args(["info", mtx.to_str().unwrap()]).output().expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("non-zeros"), "{text}");
    assert!(text.contains("DSH compression"), "{text}");

    // compress
    let out = bin()
        .args(["compress", mtx.to_str().unwrap(), "-o", rcmx.to_str().unwrap()])
        .output()
        .expect("run compress");
    assert!(out.status.success(), "compress: {}", String::from_utf8_lossy(&out.stderr));
    assert!(rcmx.exists());

    // decompress
    let out = bin()
        .args(["decompress", rcmx.to_str().unwrap(), "-o", back.to_str().unwrap()])
        .output()
        .expect("run decompress");
    assert!(out.status.success(), "decompress: {}", String::from_utf8_lossy(&out.stderr));

    // The round trip must preserve the matrix exactly: same structure,
    // same value bits, and the same MatrixMarket bytes `gen` wrote.
    let a = recode_spmv::sparse::io::read_matrix_market_path(&mtx).unwrap();
    let b = recode_spmv::sparse::io::read_matrix_market_path(&back).unwrap();
    assert_eq!(a, b, "CLI compress/decompress round trip");
    let bits =
        |m: &recode_spmv::sparse::Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&a), bits(&b), "value bits survive the container");
    assert_eq!(std::fs::read(&mtx).unwrap(), std::fs::read(&back).unwrap());

    // A truncated container is a clean error, never a panic.
    let container = std::fs::read(&rcmx).unwrap();
    let cut = dir.join("cut.rcmx");
    std::fs::write(&cut, &container[..container.len() / 2]).unwrap();
    let out = bin()
        .args(["decompress", cut.to_str().unwrap(), "-o", back.to_str().unwrap()])
        .output()
        .expect("run decompress on a truncated container");
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("truncated"));

    // spmv (verifies internally against the uncompressed kernel)
    let out = bin().args(["spmv", mtx.to_str().unwrap()]).output().expect("run spmv");
    assert!(out.status.success(), "spmv: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified against the uncompressed kernel"), "{text}");
    assert!(text.contains("Decomp(UDP+CPU)"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spmv_trace_report_and_check_workflow() {
    let dir = std::env::temp_dir().join(format!("recode-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("t.mtx");
    let trace = dir.join("trace.json");

    let out = bin()
        .args(["gen", "stencil2d", "50000", "-o", mtx.to_str().unwrap(), "--seed", "3"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    // spmv --trace writes the telemetry document alongside the normal report.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--trace", trace.to_str().unwrap()])
        .output()
        .expect("run spmv --trace");
    assert!(out.status.success(), "spmv: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    // The batch path reports pool.* counters, which are v2 content.
    assert!(text.contains("trace (recode-trace/v2) written"), "{text}");
    assert!(text.contains("verified against the uncompressed kernel"), "{text}");

    // The file is a valid, internally consistent TraceDocument.
    let doc = recode_spmv::core::telemetry::TraceDocument::from_json_str(
        &std::fs::read_to_string(&trace).expect("read trace"),
    )
    .expect("parse");
    assert_eq!(doc.schema, recode_spmv::core::telemetry::TRACE_SCHEMA);
    assert!(doc.validate().is_empty(), "{:?}", doc.validate());
    assert_eq!(doc.matrix.name, "t");
    assert!(!doc.exec.accel.lane_profiles.is_empty());

    // `recode report` renders it.
    let out = bin().args(["report", trace.to_str().unwrap()]).output().expect("run report");
    assert!(out.status.success(), "report: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("recode trace report"), "{text}");
    assert!(text.contains("exec.decode_batch"), "{text}");

    // `recode trace-check` accepts it...
    let out =
        bin().args(["trace-check", trace.to_str().unwrap()]).output().expect("run trace-check");
    assert!(out.status.success(), "trace-check: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace OK"));

    // `--bounds` additionally re-verifies the stored per-stage cycles
    // against the certified envelopes of the rebuildable stage programs.
    let out = bin()
        .args(["trace-check", trace.to_str().unwrap(), "--bounds"])
        .output()
        .expect("run trace-check --bounds");
    assert!(out.status.success(), "trace-check --bounds: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("certified bounds OK"));

    // A trace whose stage cycles escape the certified envelope exits
    // nonzero under --bounds (plain trace-check does not re-verify them).
    let inflated = dir.join("inflated.json");
    let json = std::fs::read_to_string(&trace).unwrap();
    let snappy_cycles = doc.exec.accel.stage_cycles.snappy;
    std::fs::write(
        &inflated,
        json.replace(
            &format!("\"snappy\": {snappy_cycles}"),
            &format!("\"snappy\": {}", u64::MAX / 2),
        ),
    )
    .unwrap();
    let out = bin()
        .args(["trace-check", inflated.to_str().unwrap(), "--bounds"])
        .output()
        .expect("run trace-check --bounds inflated");
    assert!(!out.status.success(), "inflated stage cycles must fail --bounds");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("certified"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // ...and rejects a tampered schema with a nonzero exit.
    let tampered = dir.join("tampered.json");
    let json = std::fs::read_to_string(&trace).unwrap();
    std::fs::write(&tampered, json.replace("recode-trace/v2", "recode-trace/v0")).unwrap();
    let out = bin()
        .args(["trace-check", tampered.to_str().unwrap()])
        .output()
        .expect("run trace-check tampered");
    assert!(!out.status.success(), "tampered trace must fail validation");
    assert!(String::from_utf8_lossy(&out.stderr).contains("schema"));

    // A pathologically nested document is a parse error with exit 1, not a
    // stack overflow, for both readers.
    let deep = dir.join("deep.json");
    std::fs::write(&deep, "[".repeat(200_000)).unwrap();
    for cmd in ["trace-check", "report"] {
        let out = bin().args([cmd, deep.to_str().unwrap()]).output().expect("run on deep.json");
        assert_eq!(out.status.code(), Some(1), "{cmd}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stderr).contains("nesting"));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Pipelined-executor traces carry no per-stage cycle attribution, so
/// `trace-check --bounds` must treat stage activity as unknown instead of
/// deriving a zero per-event cap from the missing data.
#[test]
fn overlap_trace_passes_the_certified_bounds_check() {
    // Its own directory: other tests remove the shared one when they end.
    let dir = tmpdir().with_extension("overlap");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("overlap.mtx");
    let trace = dir.join("overlap-trace.json");
    let out = bin()
        .args(["gen", "stencil2d", "8000", "-o", mtx.to_str().unwrap()])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--overlap", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("run spmv --overlap --trace");
    assert!(out.status.success(), "spmv: {}", String::from_utf8_lossy(&out.stderr));
    let out = bin()
        .args(["trace-check", trace.to_str().unwrap(), "--bounds"])
        .output()
        .expect("run trace-check --bounds");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "trace-check --bounds: {}", String::from_utf8_lossy(&out.stderr));
    assert!(text.contains("no stage attribution"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spmv_exit_codes_distinguish_degraded_and_fallback_runs() {
    let dir = std::env::temp_dir().join(format!("recode-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mtx = dir.join("e.mtx");
    let out = bin()
        .args(["gen", "stencil2d", "30000", "-o", mtx.to_str().unwrap(), "--seed", "5"])
        .output()
        .expect("run gen");
    assert!(out.status.success(), "gen: {}", String::from_utf8_lossy(&out.stderr));

    // Clean run: exit 0.
    let out = bin().args(["spmv", mtx.to_str().unwrap()]).output().expect("run spmv");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // A transient trap forces a retry: the run recovers bit-exact but the
    // exit code reports the degradation.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--inject-trap", "0"])
        .output()
        .expect("run spmv --inject-trap");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("verified against the uncompressed kernel"), "{text}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("degraded"), "stderr notes the cause");

    // A corrupt block exhausts retries and is served from the raw-CSR
    // store: still bit-exact, exit 4.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--inject-corrupt", "0"])
        .output()
        .expect("run spmv --inject-corrupt");
    assert_eq!(out.status.code(), Some(4), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("raw-CSR"), "stderr notes the cause");

    // The overlap executor reports through the same codes.
    let out = bin()
        .args(["spmv", mtx.to_str().unwrap(), "--overlap", "--inject-trap", "0"])
        .output()
        .expect("run spmv --overlap --inject-trap");
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn chaos_subcommand_runs_a_seeded_campaign_and_writes_json() {
    let dir = std::env::temp_dir().join(format!("recode-cli-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json_path = dir.join("campaign.json");
    let out = bin()
        .args(["chaos", "--trials", "30", "--seed", "11", "--json", json_path.to_str().unwrap()])
        .output()
        .expect("run chaos");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("HEALTHY"), "{text}");
    assert!(text.contains("injection points:"), "{text}");
    let json = std::fs::read_to_string(&json_path).expect("campaign json");
    assert!(json.contains("\"trials\":30"), "{json}");
    assert!(json.contains("\"healthy\":true"), "{json}");
    assert!(json.contains("\"hung\":0"), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_program_prints_certified_bounds_for_builtins() {
    // Every builtin spelling prints the findings report, the per-block
    // bounds table, and a certified envelope; `builtin:dsh` covers the
    // whole pipeline. Bare names stay accepted for compatibility.
    for target in ["builtin:delta", "builtin:snappy", "builtin:huffman", "builtin:dsh", "delta"] {
        let out = bin().args(["verify-program", target]).output().expect("run verify-program");
        assert!(out.status.success(), "{target}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("certified cycle envelope"), "{target}: {text}");
        assert!(text.contains("-- certified cycle bounds"), "{target}: {text}");
        assert!(text.contains("program envelope: ["), "{target}: {text}");
    }
    let out = bin()
        .args(["verify-program", "builtin:dsh"])
        .output()
        .expect("run verify-program builtin:dsh");
    let text = String::from_utf8_lossy(&out.stdout);
    for prog in ["udp-huffman-decode", "udp-snappy-decode", "udp-delta-decode"] {
        assert!(text.contains(prog), "dsh must verify all three stages: {text}");
    }
    let out = bin().args(["verify-program", "builtin:nope"]).output().expect("run verify-program");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown builtin"));
}

#[test]
fn cli_rejects_bad_usage() {
    let out = bin().output().expect("run bare");
    assert!(!out.status.success());
    let out = bin().args(["info", "/nonexistent/file.mtx"]).output().expect("run info");
    assert!(!out.status.success());
    let out =
        bin().args(["gen", "nosuchfamily", "1000", "-o", "/tmp/x.mtx"]).output().expect("gen");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown family"), "{err}");
}
