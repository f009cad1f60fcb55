//! Lane recycling: a process-wide free list of [`Lane`]s so "fresh lane"
//! call sites (fault retries, per-tile decodes in the overlap executor,
//! per-batch worker lanes) stop paying a 64 KB zeroed allocation each time.
//!
//! Correctness rests on the lane's own contract: every `run*` entry point
//! fully re-initializes architectural state, so a pooled lane is
//! indistinguishable from `Lane::new()` — the differential and fault suites
//! exercise exactly this substitution.
//!
//! ## Lane health & quarantine
//!
//! Each lane carries a [`LaneHealth`](crate::lane::LaneHealth) record that
//! the decode path updates (`note_trap` on a lane-attributable trap,
//! `note_success` on a clean decode). When a returning lane has trapped
//! [`PoolConfig::quarantine_threshold`] times in a row it is parked on a
//! quarantine list instead of the free list. Every
//! [`PoolConfig::probation_interval`] checkouts one quarantined lane is
//! readmitted *on probation*: it serves the checkout directly, and a single
//! further trap sends it straight back to quarantine while one clean decode
//! restores it to full health. Quarantined lanes do **not** count against
//! [`PoolConfig::capacity`] (the free-list cap); the quarantine list is
//! bounded by the same capacity value independently.

use crate::lane::Lane;
use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, OnceLock};

/// Pool lifecycle notifications fanned out through the hook installed with
/// [`set_event_hook`]. The pool itself keeps no observers — the hook exists
/// so a higher layer (the `recode-core` flight recorder) can timestamp pool
/// traffic without this crate depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolEvent {
    /// A returning lane crossed the quarantine threshold and was parked.
    Quarantined,
    /// A quarantined lane was readmitted on probation to serve a checkout.
    Readmitted,
    /// A checkout was served by recycling a parked lane.
    Recycled,
}

static EVENT_HOOK: OnceLock<fn(PoolEvent)> = OnceLock::new();

/// Installs the process-wide pool event hook. First caller wins; later
/// calls are no-ops (the hook is a `fn` pointer, so there is nothing to
/// tear down). The hook runs outside the pool lock.
pub fn set_event_hook(hook: fn(PoolEvent)) {
    let _ = EVENT_HOOK.set(hook);
}

#[inline]
fn emit(event: PoolEvent) {
    if let Some(hook) = EVENT_HOOK.get() {
        hook(event);
    }
}

/// Default free-lane cap per pool; beyond this, returned lanes are dropped
/// (each holds a 64 KB scratchpad — the cap bounds idle memory at ~16 MB).
pub const DEFAULT_POOL_CAPACITY: usize = 256;

/// Tuning knobs for a [`LanePool`]. All fields have documented defaults;
/// construct with `PoolConfig::default()` and override selectively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Maximum lanes parked on the free list ([`DEFAULT_POOL_CAPACITY`]).
    /// Quarantined lanes are exempt from this cap.
    pub capacity: usize,
    /// Consecutive lane-attributable traps before a returning lane is
    /// quarantined. `0` disables quarantine entirely.
    pub quarantine_threshold: u32,
    /// Checkouts between probation probes: every this-many checkouts one
    /// quarantined lane is readmitted on probation. `0` disables
    /// readmission (quarantine becomes permanent for the pool's lifetime).
    pub probation_interval: u64,
}

impl PoolConfig {
    /// The default policy: capacity 256, quarantine after 3 consecutive
    /// traps, probe one quarantined lane every 16 checkouts.
    pub const fn new() -> Self {
        PoolConfig {
            capacity: DEFAULT_POOL_CAPACITY,
            quarantine_threshold: 3,
            probation_interval: 16,
        }
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Monotonic pool counters; the batch executor reports their deltas over a
/// run, which trace documents carry as `pool.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total checkouts served.
    pub checkouts: u64,
    /// Checkouts served from the free list (recycled allocation).
    pub recycled_hits: u64,
    /// Checkouts that had to build a fresh lane.
    pub fresh_builds: u64,
    /// Lanes returned to the free list on guard drop.
    pub returned: u64,
    /// Lanes dropped on return because the free list was at capacity.
    pub dropped_at_capacity: u64,
    /// Lanes moved to the quarantine list on return.
    pub quarantined: u64,
    /// Quarantined lanes readmitted on probation.
    pub readmitted: u64,
}

impl PoolStats {
    /// What happened between `before` and `self`. Saturating:
    /// [`LanePool::reset`] can zero the counters in between.
    pub fn since(&self, before: &PoolStats) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.saturating_sub(before.checkouts),
            recycled_hits: self.recycled_hits.saturating_sub(before.recycled_hits),
            fresh_builds: self.fresh_builds.saturating_sub(before.fresh_builds),
            returned: self.returned.saturating_sub(before.returned),
            dropped_at_capacity: self
                .dropped_at_capacity
                .saturating_sub(before.dropped_at_capacity),
            quarantined: self.quarantined.saturating_sub(before.quarantined),
            readmitted: self.readmitted.saturating_sub(before.readmitted),
        }
    }
}

/// Everything behind the pool's single mutex.
struct PoolInner {
    config: PoolConfig,
    free: Vec<Lane>,
    quarantined: Vec<Lane>,
    stats: PoolStats,
    checkouts_since_probe: u64,
}

/// A free list of reusable lanes with health-based quarantine. Checkout
/// pops a recycled lane (or builds one on first use); dropping the guard
/// returns it — to the free list, or to quarantine when its health record
/// crossed [`PoolConfig::quarantine_threshold`].
pub struct LanePool {
    inner: Mutex<PoolInner>,
}

impl LanePool {
    /// An empty pool with the default [`PoolConfig`].
    pub const fn new() -> Self {
        LanePool {
            inner: Mutex::new(PoolInner {
                config: PoolConfig::new(),
                free: Vec::new(),
                quarantined: Vec::new(),
                stats: PoolStats {
                    checkouts: 0,
                    recycled_hits: 0,
                    fresh_builds: 0,
                    returned: 0,
                    dropped_at_capacity: 0,
                    quarantined: 0,
                    readmitted: 0,
                },
                checkouts_since_probe: 0,
            }),
        }
    }

    /// An empty pool with an explicit config.
    pub fn with_config(config: PoolConfig) -> Self {
        let pool = Self::new();
        pool.set_config(config);
        pool
    }

    /// Replaces the pool's policy. Takes effect for subsequent checkouts
    /// and returns; lanes already parked are kept (the free list is
    /// truncated if the new capacity is smaller).
    pub fn set_config(&self, config: PoolConfig) {
        let mut inner = self.lock();
        inner.config = config;
        if inner.free.len() > config.capacity {
            inner.free.truncate(config.capacity);
        }
    }

    /// The active policy.
    pub fn config(&self) -> PoolConfig {
        self.lock().config
    }

    /// Takes a lane out of the pool, creating one if none are free. The
    /// lane rides back into the pool when the returned guard drops.
    ///
    /// Every [`PoolConfig::probation_interval`] checkouts, one quarantined
    /// lane (if any) is readmitted on probation and serves the checkout
    /// directly.
    pub fn checkout(&self) -> PooledLane<'_> {
        let (lane, event) = {
            let mut inner = self.lock();
            inner.stats.checkouts += 1;
            inner.checkouts_since_probe += 1;
            let interval = inner.config.probation_interval;
            if interval > 0
                && inner.checkouts_since_probe >= interval
                && !inner.quarantined.is_empty()
            {
                inner.checkouts_since_probe = 0;
                let mut lane = inner.quarantined.pop().expect("non-empty quarantine");
                lane.begin_probation();
                inner.stats.readmitted += 1;
                (lane, Some(PoolEvent::Readmitted))
            } else if let Some(lane) = inner.free.pop() {
                inner.stats.recycled_hits += 1;
                (lane, Some(PoolEvent::Recycled))
            } else {
                inner.stats.fresh_builds += 1;
                (Lane::new(), None)
            }
        };
        if let Some(event) = event {
            emit(event);
        }
        PooledLane { pool: self, lane: Some(lane) }
    }

    /// Number of lanes currently parked in the free list.
    pub fn idle(&self) -> usize {
        self.lock().free.len()
    }

    /// Number of lanes currently held in quarantine.
    pub fn quarantined_count(&self) -> usize {
        self.lock().quarantined.len()
    }

    /// Snapshot of the pool's monotonic counters.
    pub fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    /// Drops every parked lane (free and quarantined) and zeroes the
    /// counters. The config is kept. Used by the chaos harness to isolate
    /// trials sharing the process-wide pool.
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.free.clear();
        inner.quarantined.clear();
        inner.stats = PoolStats::default();
        inner.checkouts_since_probe = 0;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PoolInner> {
        // A panicked holder can only have poisoned the state mid-push/pop
        // of whole lanes; the lists are still structurally sound.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl Default for LanePool {
    fn default() -> Self {
        Self::new()
    }
}

/// The process-wide pool used by the accelerator batch loop, the exec
/// retry ladder, and the overlap executor.
pub fn global() -> &'static LanePool {
    static POOL: LanePool = LanePool::new();
    &POOL
}

/// Checkout guard: derefs to [`Lane`], returns the lane to its pool on drop.
pub struct PooledLane<'a> {
    pool: &'a LanePool,
    lane: Option<Lane>,
}

impl Deref for PooledLane<'_> {
    type Target = Lane;
    fn deref(&self) -> &Lane {
        self.lane.as_ref().expect("lane present until drop")
    }
}

impl DerefMut for PooledLane<'_> {
    fn deref_mut(&mut self) -> &mut Lane {
        self.lane.as_mut().expect("lane present until drop")
    }
}

impl Drop for PooledLane<'_> {
    fn drop(&mut self) {
        if let Some(lane) = self.lane.take() {
            let quarantined = {
                let mut inner = self.pool.lock();
                let cfg = inner.config;
                if lane.health().should_quarantine(cfg.quarantine_threshold) {
                    // Quarantined lanes are exempt from `capacity`; their
                    // list is independently bounded by the same value.
                    if inner.quarantined.len() < cfg.capacity {
                        inner.quarantined.push(lane);
                    }
                    inner.stats.quarantined += 1;
                    true
                } else {
                    if inner.free.len() < cfg.capacity {
                        inner.free.push(lane);
                        inner.stats.returned += 1;
                    } else {
                        inner.stats.dropped_at_capacity += 1;
                    }
                    false
                }
            };
            if quarantined {
                emit(PoolEvent::Quarantined);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkout_recycles_the_same_lane_allocation() {
        let pool = LanePool::new();
        assert_eq!(pool.idle(), 0);
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
        }
        assert_eq!(pool.idle(), 2);
        {
            let _c = pool.checkout();
            assert_eq!(pool.idle(), 1, "checkout must reuse a parked lane");
        }
        assert_eq!(pool.idle(), 2);
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 3);
        assert_eq!(stats.fresh_builds, 2);
        assert_eq!(stats.recycled_hits, 1);
        assert_eq!(stats.returned, 3);
    }

    #[test]
    fn global_pool_is_shared() {
        let before = global().idle();
        drop(global().checkout());
        assert!(global().idle() >= 1.min(before + 1));
    }

    #[test]
    fn capacity_bounds_the_free_list() {
        let pool = LanePool::with_config(PoolConfig { capacity: 2, ..PoolConfig::new() });
        {
            let _a = pool.checkout();
            let _b = pool.checkout();
            let _c = pool.checkout();
        }
        assert_eq!(pool.idle(), 2, "free list capped at capacity");
        assert_eq!(pool.stats().dropped_at_capacity, 1);
    }

    #[test]
    fn repeated_traps_quarantine_a_lane() {
        let cfg =
            PoolConfig { quarantine_threshold: 3, probation_interval: 0, ..PoolConfig::new() };
        let pool = LanePool::with_config(cfg);
        {
            let mut lane = pool.checkout();
            lane.note_trap();
            lane.note_trap();
        }
        assert_eq!(pool.idle(), 1, "two traps stay below the threshold");
        assert_eq!(pool.quarantined_count(), 0);
        {
            let mut lane = pool.checkout();
            lane.note_trap();
        }
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.quarantined_count(), 1, "third consecutive trap quarantines");
        assert_eq!(pool.stats().quarantined, 1);
    }

    #[test]
    fn a_success_resets_the_trap_streak() {
        let cfg =
            PoolConfig { quarantine_threshold: 2, probation_interval: 0, ..PoolConfig::new() };
        let pool = LanePool::with_config(cfg);
        {
            let mut lane = pool.checkout();
            lane.note_trap();
            lane.note_success();
            lane.note_trap();
        }
        assert_eq!(pool.quarantined_count(), 0, "streak broken by the success");
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn quarantined_lanes_do_not_count_against_capacity() {
        // Capacity 1: the free list holds at most one lane, but a second
        // (quarantined) lane must still be retained.
        let cfg = PoolConfig { capacity: 1, quarantine_threshold: 1, probation_interval: 0 };
        let pool = LanePool::with_config(cfg);
        {
            let _healthy = pool.checkout();
            let mut sick = pool.checkout();
            sick.note_trap();
        }
        assert_eq!(pool.idle(), 1, "healthy lane fills the capacity-1 free list");
        assert_eq!(
            pool.quarantined_count(),
            1,
            "quarantined lane retained even though the free list is full"
        );
        // And the reverse: a full quarantine list does not block healthy returns.
        {
            let _healthy = pool.checkout();
        }
        assert_eq!(pool.idle(), 1);
        assert_eq!(pool.quarantined_count(), 1);
    }

    #[test]
    fn probation_readmits_and_a_clean_run_restores_health() {
        let cfg = PoolConfig { capacity: 8, quarantine_threshold: 1, probation_interval: 2 };
        let pool = LanePool::with_config(cfg);
        {
            let mut sick = pool.checkout();
            sick.note_trap();
        }
        assert_eq!(pool.quarantined_count(), 1);
        // Second checkout since the last probe: the quarantined lane comes
        // back on probation and serves it.
        let lane = pool.checkout();
        assert!(lane.health().probation, "readmitted lane is on probation");
        assert_eq!(pool.stats().readmitted, 1);
        drop(lane);
        // Returned without a further trap (probation with a zero streak is
        // not a quarantine offence) — but still on probation until a success.
        assert_eq!(pool.quarantined_count(), 0);
        assert_eq!(pool.idle(), 1);
        {
            let mut lane = pool.checkout();
            lane.note_success();
            assert!(!lane.health().probation, "success clears probation");
        }
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn a_trap_during_probation_requarantines_immediately() {
        let cfg = PoolConfig { capacity: 8, quarantine_threshold: 3, probation_interval: 1 };
        let pool = LanePool::with_config(cfg);
        {
            let mut sick = pool.checkout();
            sick.note_trap();
            sick.note_trap();
            sick.note_trap();
        }
        assert_eq!(pool.quarantined_count(), 1);
        {
            let mut lane = pool.checkout();
            assert!(lane.health().probation);
            lane.note_trap();
        }
        assert_eq!(
            pool.quarantined_count(),
            1,
            "one trap on probation goes straight back to quarantine"
        );
        assert_eq!(pool.stats().quarantined, 2);
    }

    /// Seeded interleaving stress (ISSUE 9): many threads checkout/trap/
    /// return against a small pool from a fixed barrier. The monotonic
    /// counters must partition exactly under every schedule: each checkout
    /// is served by exactly one source, each guard drop lands in exactly
    /// one return bucket, and the parked inventory respects its caps.
    #[test]
    fn concurrent_quarantine_counters_partition_exactly() {
        const THREADS: usize = 8;
        const ITERS: u64 = 200;
        let cfg = PoolConfig { capacity: 4, quarantine_threshold: 2, probation_interval: 3 };
        let pool = LanePool::with_config(cfg);
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|s| {
            for w in 0..THREADS {
                let pool = &pool;
                let barrier = &barrier;
                s.spawn(move || {
                    // Fixed per-thread xorshift seed: the trap/success mix
                    // is deterministic, only the interleaving varies.
                    let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ (w as u64 + 1);
                    barrier.wait();
                    for _ in 0..ITERS {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let mut lane = pool.checkout();
                        match seed % 4 {
                            0 => lane.note_success(),
                            1 => {
                                lane.note_trap();
                                lane.note_trap();
                            }
                            2 => lane.note_trap(),
                            _ => {}
                        }
                    }
                });
            }
        });
        let st = pool.stats();
        let total = THREADS as u64 * ITERS;
        assert_eq!(st.checkouts, total, "every checkout is counted exactly once");
        assert_eq!(
            st.recycled_hits + st.fresh_builds + st.readmitted,
            total,
            "each checkout is served by exactly one source"
        );
        assert_eq!(
            st.returned + st.dropped_at_capacity + st.quarantined,
            total,
            "each guard drop lands in exactly one return bucket"
        );
        assert!(st.readmitted <= st.quarantined, "cannot readmit more lanes than were parked");
        assert!(pool.idle() <= cfg.capacity, "free list respects its cap");
        assert!(pool.quarantined_count() <= cfg.capacity, "quarantine list respects its cap");
        assert!(
            (pool.idle() as u64) <= st.returned,
            "parked inventory never exceeds counted returns"
        );
    }

    #[test]
    fn reset_clears_lanes_and_counters() {
        let pool = LanePool::new();
        drop(pool.checkout());
        assert_eq!(pool.idle(), 1);
        pool.reset();
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
    }
}
