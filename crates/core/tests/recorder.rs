//! Flight-recorder tests. They live in their own test binary because the
//! recorder is process-global: in the library's unit-test process, other
//! tests run pipelines that record (or flush buffered events) while one of
//! these has the recorder enabled, so exact event counts would race.

use std::sync::{Mutex, PoisonError};

use recode_core::recorder::*;

// Recorder state is process-global, so every test in this binary runs
// under one lock to keep enable/disable/drain from interleaving.
fn serialized() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn disabled_recorder_records_nothing() {
    let _g = serialized();
    disable();
    record(EventKind::Retry, Track::MAIN, "noop", 1, 2);
    let _span = span(Track::MAIN, "noop");
    assert!(drain().is_empty());
}

#[test]
fn events_drain_in_timestamp_order_across_threads() {
    let _g = serialized();
    enable(4096);
    let before = stats().recorded;
    std::thread::scope(|s| {
        for w in 0..4 {
            s.spawn(move || {
                for i in 0..50u64 {
                    record(EventKind::BlockOutcome, Track::worker(w), "blk", i, 0);
                }
                // The scope only waits for this closure, not the TLS
                // destructor, so publish before returning.
                flush_thread();
            });
        }
    });
    record(EventKind::Retry, Track::MAIN, "after", 0, 0);
    let events = drain();
    disable();
    assert_eq!(events.len(), 201, "4x50 worker events + 1 main event");
    assert_eq!(stats().recorded - before, 201);
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns), "chronological");
    for w in 0..4 {
        let n = events.iter().filter(|e| e.track == Track::worker(w)).count();
        assert_eq!(n, 50, "worker {w} events all flushed at scope exit");
    }
}

#[test]
fn ring_overwrites_oldest_and_counts_drops() {
    let _g = serialized();
    enable(0); // clamped up to LOCAL_CAPACITY
    assert_eq!(stats().capacity, LOCAL_CAPACITY);
    for i in 0..(LOCAL_CAPACITY as u64 * 3) {
        record(EventKind::Retry, Track::MAIN, "spin", i, 0);
    }
    let events = drain();
    let st = stats();
    disable();
    assert_eq!(events.len(), LOCAL_CAPACITY, "ring keeps exactly its capacity");
    assert_eq!(st.dropped, LOCAL_CAPACITY as u64 * 2, "overflow is counted");
    // The survivors are the *newest* events.
    assert_eq!(events.last().expect("non-empty").a, LOCAL_CAPACITY as u64 * 3 - 1);
}

/// Seeded interleaving stress: many threads overflow a small ring
/// concurrently from a fixed barrier. Whatever the schedule, the accounting
/// must partition exactly — every accepted event is either drained or
/// counted dropped, never both and never neither — and no surviving event
/// is duplicated or reordered within its track.
#[test]
fn concurrent_overflow_accounting_is_exact() {
    const THREADS: usize = 8;
    const CAPACITY: usize = 512;
    let _g = serialized();
    enable(CAPACITY);
    let before = stats().recorded;
    // Fixed xorshift seed → fixed per-thread event counts, so the
    // totals below are deterministic across runs and machines.
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    let counts: [u64; THREADS] = std::array::from_fn(|_| {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        300 + seed % 200
    });
    let total: u64 = counts.iter().sum();
    let barrier = std::sync::Barrier::new(THREADS);
    std::thread::scope(|s| {
        for (w, &n) in counts.iter().enumerate() {
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..n {
                    record(EventKind::BlockOutcome, Track::lane(w), "stress", i, 0);
                }
                flush_thread();
            });
        }
    });
    let events = drain();
    let st = stats();
    disable();
    assert_eq!(st.recorded - before, total, "every record() call is counted once");
    assert_eq!(
        events.len() as u64 + st.dropped,
        total,
        "drained + dropped partition the accepted events exactly"
    );
    assert_eq!(events.len(), CAPACITY, "overflowed ring keeps exactly its capacity");
    assert!(events.iter().all(|e| e.name == "stress"), "no phantom events survive");
    for w in 0..THREADS {
        let payloads: Vec<u64> =
            events.iter().filter(|e| e.track == Track::lane(w)).map(|e| e.a).collect();
        assert!(
            payloads.windows(2).all(|p| p[0] < p[1]),
            "lane {w} survivors are never duplicated or reordered: {payloads:?}"
        );
    }
}

#[test]
fn span_guard_balances_begin_end() {
    let _g = serialized();
    enable(4096);
    {
        let _outer = span(Track::stage(0), "outer");
        let _inner = span(Track::stage(0), "inner");
    }
    let events = drain();
    disable();
    let kinds: Vec<(EventKind, &str)> = events.iter().map(|e| (e.kind, e.name)).collect();
    assert_eq!(
        kinds,
        [
            (EventKind::SpanBegin, "outer"),
            (EventKind::SpanBegin, "inner"),
            (EventKind::SpanEnd, "inner"),
            (EventKind::SpanEnd, "outer"),
        ],
        "guards close in LIFO order"
    );
}

#[test]
fn jit_compile_events_reach_the_ring() {
    let _g = serialized();
    enable(4096);
    // Drive the hook directly — assemble-time compiles fire the same
    // path, but depend on platform/env JIT availability.
    recode_codec::jit::report_compile(&recode_codec::jit::CompileEvent {
        what: "lane",
        code_bytes: 1234,
        blocks: 7,
        wall_ns: 42,
        ok: true,
    });
    recode_codec::jit::report_compile(&recode_codec::jit::CompileEvent {
        what: "huffman",
        code_bytes: 0,
        blocks: 0,
        wall_ns: 9,
        ok: false,
    });
    let events = drain();
    disable();
    let jit: Vec<_> = events.iter().filter(|e| e.kind == EventKind::JitCompile).collect();
    assert_eq!(jit.len(), 2, "both compile reports must reach the ring");
    assert_eq!(jit[0].name, "jit.lane");
    assert_eq!(jit[0].a >> 32, 7, "blocks lowered ride the high half of `a`");
    assert_eq!(jit[0].a & 0xFFFF_FFFF, 1234, "code bytes ride the low half");
    assert_eq!(jit[0].b, 42, "wall ns rides `b`");
    assert_eq!(jit[1].name, "jit.huffman.failed", "failures are distinguishable");
}

/// A retry the budget refuses never runs, so it must not reach the ring:
/// `recode_recorder_events_total{kind="retry"}` counts attempts made, on
/// the batch and the pipelined executor alike.
#[test]
fn refused_retries_record_no_retry_event_on_either_executor() {
    use recode_codec::pipeline::MatrixCodecConfig;
    use recode_core::{
        ExecError, JobBudget, OverlapConfig, OverlapExecutor, RecodedSpmv, RunOptions, SystemConfig,
    };
    use recode_sparse::prelude::{generate, GenSpec, ValueModel};
    use recode_udp::accel::FaultHook;

    let _g = serialized();
    let spec = GenSpec::Stencil2D { nx: 24, ny: 24, points: 5, values: ValueModel::StencilCoeffs };
    let a = generate(&spec, 5);
    let r = RecodedSpmv::new(&a, MatrixCodecConfig::udp_dsh()).expect("compress");
    let sys = SystemConfig::ddr4();
    let hook = FaultHook::new().trap(0);
    let budget = JobBudget { max_total_retries: Some(0), ..JobBudget::default() };
    let opts = || RunOptions { faults: Some(&hook), budget: Some(&budget) };
    let retries = |events: &[Event]| events.iter().filter(|e| e.kind == EventKind::Retry).count();

    enable(4096);
    let batch = r.decompress_via_udp_with(&sys, opts());
    let batch_events = drain();
    let ex = OverlapExecutor::new(&r, OverlapConfig { overlap: true, cache_blocks: 0, workers: 1 });
    let overlap = ex.spmv_with(&sys, &vec![1.0; a.ncols()], opts());
    let overlap_events = drain();
    disable();

    assert!(matches!(batch, Err(ExecError::DeadlineExceeded { .. })), "{:?}", batch.err());
    assert!(matches!(overlap, Err(ExecError::DeadlineExceeded { .. })), "{:?}", overlap.err());
    assert_eq!(retries(&batch_events), 0, "batch recorded a retry the budget refused");
    assert_eq!(retries(&overlap_events), 0, "overlap recorded a retry the budget refused");
}
