//! # recode-core — the CPU–UDP heterogeneous architecture
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`arch`] — system configurations (CPU-only, CPU+software-decomp,
//!   CPU+UDP) over `recode-mem` models;
//! * [`exec`] — *functional* recoding-enhanced SpMV: compressed blocks are
//!   decoded by real UDP programs on the lane simulator, reassembled, and
//!   multiplied — the Fig. 6/7 flow, verified bit-exact against the
//!   uncompressed kernel;
//! * [`overlap`] — the pipelined executor: UDP lanes decode tile *i+1*
//!   while CPU workers multiply tile *i* (modeled makespan overlaps decode
//!   with multiply), with a seeded-capacity decoded-block LRU cache so
//!   iterative solvers pay decode cost once;
//! * [`measure`] — measured recoding throughput: per-lane cycle counts from
//!   the UDP simulator (sampled blocks, extrapolated) and the calibrated
//!   CPU software rates;
//! * [`perfmodel`] — the analytic bandwidth-bound SpMV model behind
//!   Figs. 3, 14, 15;
//! * [`power`] — iso-performance memory-power savings (Figs. 16, 17);
//! * [`seven`] — synthetic stand-ins for the paper's 7 representative
//!   matrices (copter2, g7jac160, gas_sensor, m3dc1_a30, matrix-new_3,
//!   shipsec1, xenon1);
//! * [`corpus`] — the 369-matrix TAMU-substitute corpus;
//! * [`experiment`] — per-figure experiment runners with serializable
//!   results;
//! * [`report`] — plain-text tables matching the paper's figures;
//! * [`telemetry`] — the schema-stable [`TraceDocument`] behind
//!   `recode spmv --trace`, folded from a run's [`ExecStats`] by
//!   [`TraceDocument::from_run`];
//! * [`recorder`] — the always-on flight recorder: a lock-light ring of
//!   typed runtime events (spans, block outcomes, breaker transitions,
//!   pool and cache traffic) exportable as a Chrome/Perfetto trace via
//!   [`chrometrace`];
//! * [`metrics`] — point-in-time [`metrics::MetricsSnapshot`] rendered as
//!   Prometheus text exposition;
//! * [`benchcmp`] — the BENCH_*.json regression comparator behind
//!   `recode bench-compare`;
//! * [`json`] — the dependency-free JSON writer/parser shared by the
//!   chaos, bench, trace-export, and metrics emitters;
//! * [`tune`] — the per-matrix auto-tuner: kernel × codec-stage × block
//!   search scored by deterministic modeled cycles, persisted as a
//!   digest-keyed `recode-tuned/v1` document.

pub mod arch;
pub mod benchcmp;
pub mod chaos;
pub mod chrometrace;
pub mod corpus;
pub mod error;
pub mod exec;
pub mod experiment;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod overlap;
pub mod perfmodel;
pub mod power;
pub mod recorder;
pub mod report;
pub mod resilience;
pub mod seven;
pub mod telemetry;
pub mod tune;

pub use arch::SystemConfig;
pub use benchcmp::{compare_snapshots, CompareReport, MetricDelta, Verdict};
pub use chaos::{run_campaign, CampaignSummary, ChaosConfig, TrialOutcome};
pub use chrometrace::export_chrome_trace;
pub use error::{ExecError, ExecResult};
pub use exec::{ExecStats, RawFallbackStore, RecodedSpmv, RunOptions};
pub use metrics::MetricsSnapshot;
pub use overlap::{
    parse_recode_threads, CacheStats, ExecCache, OverlapConfig, OverlapExecutor, OverlapStats,
};
pub use perfmodel::SpmvPerfModel;
pub use power::PowerSavings;
pub use resilience::{
    BreakerConfig, BreakerState, BudgetTracker, CircuitBreaker, JobBudget, JobReport, JobState,
};
pub use tune::{
    matrix_digest, tune_matrix, CandidateScore, StageSubset, TuneError, TuneOptions, TuneOutcome,
    TunedConfig, TUNED_SCHEMA,
};

pub use telemetry::{
    render_report, BlockEvent, BlockOutcome, CycleHistogram, MatrixMeta, RecorderSummary, Span,
    StreamKind, SystemMeta, TraceDocument, TRACE_SCHEMA, TRACE_SCHEMA_V1,
};
