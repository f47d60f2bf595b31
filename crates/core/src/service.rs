//! Overload-resilient DPI service runtime: per-core flow workers with
//! backpressure, a graceful-degradation ladder, ruleset hot-swap, and
//! worker fault isolation.
//!
//! The matcher stack below this module answers "how fast can one core
//! scan bytes it is handed?". A resident inspection node must answer a
//! harder question: what happens in the moments it *cannot* keep up —
//! bursts past line rate, elephant flows skewing one queue, a ruleset
//! reload mid-stream, a worker fault. This module makes those moments
//! part of the contract instead of undefined behaviour:
//!
//! - **Steering.** Packets are steered RSS-style by a hash of their
//!   [`FlowKey`] onto bounded per-worker queues, so one flow's bytes
//!   always reach one worker in order and per-flow scanner state never
//!   crosses cores.
//! - **Backpressure and shedding.** When a worker's queue fills, the
//!   producer sheds **whole flows**, never individual packets: a flow
//!   picked for shedding stays shed until pressure clears, then resumes
//!   with an explicit [`FlowState::reset_at`] resync at its next
//!   segment — a stream is either scanned contiguously or visibly cut,
//!   never silently corrupted. Every shed byte is counted.
//! - **Degradation ladder.** Under sustained queue pressure a worker
//!   descends [`FidelityTier::Exact`] → [`FidelityTier::TwoStage`] →
//!   [`FidelityTier::FlagOnly`], with hysteresis in both directions, and
//!   climbs back automatically when the queue drains. Per-tier fidelity
//!   is documented on [`FidelityTier`]; per-tier scanned bytes are
//!   counted so a capture's effective fidelity is auditable after the
//!   fact.
//! - **Hot-swap.** A new ruleset compiles into a fresh [`RulesetArena`]
//!   off the worker threads, then flips in by [`Arc`] swap; each flow's
//!   scan state lazily regenerates at its current stream offset on next
//!   delivery (boundary-local loss, counted). A failed build rolls back
//!   to the old arena — the service never runs ruleless.
//! - **Fault isolation.** A panicking worker is caught at the batch
//!   boundary ([`std::panic::catch_unwind`] in the threaded runtime),
//!   its flow table is rebuilt, and its flows re-materialize on their
//!   next segment — the reassembler's budget rule skips the gap the
//!   dead table took with it and counts the loss as skipped holes —
//!   boundary-local loss, counted, instead of a dead core.
//!
//! Two drivers share the same `WorkerCore` logic: [`Service`] runs
//! real threads with blocking queues and wall-clock latency histograms;
//! [`ServiceSim`] runs the identical per-worker state machine in
//! lockstep on one thread, driven by a seeded [`FaultPlan`] so every
//! recovery path above is deterministic and property-testable.
//!
//! # Fidelity ladder
//!
//! | Tier | Engine | Fidelity |
//! |------|--------|----------|
//! | [`Exact`](FidelityTier::Exact) | sharded full-set matcher | exact: every occurrence of every pattern |
//! | [`TwoStage`](FidelityTier::TwoStage) | stage-1 sweep + windowed exact replay | exact (byte-equivalent to `Exact`), cheaper on clean traffic, dearer on flag-dense traffic |
//! | [`FlagOnly`](FidelityTier::FlagOnly) | stage-1 sweep only | reported matches all true; windowed-family occurrences missed but **counted** as [`suspect_flags`](TwoStageStats::suspect_flags) |
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dpi_automaton::PatternSet;
//! use dpi_core::service::{RulesetArena, ServiceConfig, ServiceSim};
//! use dpi_core::{FlowKey, TwoStageConfig};
//!
//! let set = PatternSet::new(["attack-sig", "evil-payload"])?;
//! let arena = Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1)?);
//! let mut sim = ServiceSim::new(arena, ServiceConfig::with_workers(2))?;
//! sim.offer(FlowKey(7), 0, b"xx attack-sig yy", 1);
//! sim.pump();
//! let report = sim.finish();
//! assert_eq!(report.matches.len(), 1);
//! assert_eq!(report.stats.offered_bytes, report.stats.admitted_bytes);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashSet;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dpi_automaton::{Match, PatternSet, ShardPlanError};

use crate::flow::{FlowConfigError, FlowKey, FlowMatch, FlowSegment, FlowState, FlowTable};
use crate::protocol::{ProtoConfig, ProtoFlow, ProtocolStats};
use crate::reassembly::{ReassemblyConfig, ReassemblyConfigError, StreamFlow};
use crate::sharded::{ShardedMatcher, ShardedScanState, ShardedScratch};
use crate::two_stage::{TwoStageConfig, TwoStageMatcher, TwoStageScratch, TwoStageState, TwoStageStats};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Degradation-ladder thresholds, in queue-depth units, with hysteresis
/// in batches. A worker samples its queue depth once per batch it takes:
/// depths at or above `high_water` accumulate toward a descent, depths
/// at or below `low_water` accumulate toward a recovery, and the two
/// counters reset each other — so a queue oscillating across one
/// threshold cannot flap the tier.
#[derive(Debug, Clone, Copy)]
pub struct LadderConfig {
    /// Queue depth at or above which a batch counts as overload.
    pub high_water: usize,
    /// Queue depth at or below which a batch counts as calm.
    pub low_water: usize,
    /// Consecutive overload batches before descending one tier.
    pub descend_after: u32,
    /// Consecutive calm batches before ascending one tier (recovery is
    /// deliberately slower than descent: set this higher than
    /// `descend_after` to avoid thrashing at the boundary).
    pub ascend_after: u32,
}

impl Default for LadderConfig {
    fn default() -> LadderConfig {
        LadderConfig {
            high_water: 48,
            low_water: 8,
            descend_after: 4,
            ascend_after: 16,
        }
    }
}

/// Load-shedding thresholds. Shedding starts when a queue is full
/// (depth ≥ `queue_cap`) and a shed flow resumes only once its queue's
/// depth has fallen to `resume_below` — the gap is the hysteresis that
/// stops a flow from resuming into a queue that is about to refuse its
/// next packet.
#[derive(Debug, Clone, Copy)]
pub struct ShedConfig {
    /// Queue depth a shed flow's queue must fall to before the flow is
    /// readmitted (with a resync marker).
    pub resume_below: usize,
}

impl Default for ShedConfig {
    fn default() -> ShedConfig {
        ShedConfig { resume_below: 16 }
    }
}

/// Full service-runtime configuration. Construct with
/// [`ServiceConfig::with_workers`] and adjust fields; every constructor
/// of [`Service`] / [`ServiceSim`] validates with
/// [`ServiceConfig::validate`] so a malformed config is an error value,
/// never a worker panic.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker (and queue) count.
    pub workers: usize,
    /// Bounded queue capacity, in packets, per worker.
    pub queue_cap: usize,
    /// Most packets a worker drains per batch (one ladder observation
    /// per batch).
    pub batch: usize,
    /// Per-worker flow-table capacity (flows).
    pub flow_capacity: usize,
    /// Flow-table associativity.
    pub flow_ways: usize,
    /// Per-flow reassembly budget and overlap policy.
    pub reassembly: ReassemblyConfig,
    /// Per-flow protocol detect/normalize stage. Workers pipeline
    /// reassemble → detect/normalize → scan; disable (or rely on the
    /// fail-open downgrades) to get plain raw-byte scanning. The
    /// service always scans every lane with the full ruleset, so
    /// `scoped` is forced off by the workers — honoring it would only
    /// reset tier-scanner history at classification (see the invariant
    /// on [`ProtoConfig::scoped`]).
    pub protocol: ProtoConfig,
    /// Degradation-ladder thresholds.
    pub ladder: LadderConfig,
    /// Load-shedding thresholds.
    pub shed: ShedConfig,
}

impl ServiceConfig {
    /// Defaults for `workers` cores: 256-deep queues, 64-packet
    /// batches, 4096 flows per worker, default reassembly/ladder/shed
    /// settings.
    pub fn with_workers(workers: usize) -> ServiceConfig {
        ServiceConfig {
            workers,
            queue_cap: 256,
            batch: 64,
            flow_capacity: 4096,
            flow_ways: crate::flow::DEFAULT_WAYS,
            reassembly: ReassemblyConfig::default(),
            protocol: ProtoConfig::default(),
            ladder: LadderConfig::default(),
            shed: ShedConfig::default(),
        }
    }

    /// Rejects configurations that cannot produce a working runtime.
    pub fn validate(&self) -> Result<(), ServiceConfigError> {
        if self.workers == 0 {
            return Err(ServiceConfigError::ZeroWorkers);
        }
        if self.queue_cap == 0 {
            return Err(ServiceConfigError::ZeroQueue);
        }
        if self.batch == 0 {
            return Err(ServiceConfigError::ZeroBatch);
        }
        if self.ladder.low_water >= self.ladder.high_water {
            return Err(ServiceConfigError::LadderInverted);
        }
        if self.ladder.descend_after == 0 || self.ladder.ascend_after == 0 {
            return Err(ServiceConfigError::LadderZeroHysteresis);
        }
        if self.shed.resume_below >= self.queue_cap {
            return Err(ServiceConfigError::ShedInverted);
        }
        // Borrow the flow/reassembly validators so their error cases
        // stay in one place.
        FlowTable::try_with_ways(self.flow_capacity, self.flow_ways, NullState)?;
        ReassemblyConfig::try_new(self.reassembly.budget)?;
        Ok(())
    }
}

/// Zero-sized [`FlowState`] used only to run [`FlowTable`]'s config
/// validation without building real scanner states.
#[derive(Clone, Copy)]
struct NullState;

impl FlowState for NullState {
    fn reset(&mut self) {}
    fn reset_at(&mut self, _offset: u64) {}
}

/// A [`ServiceConfig`] that can never produce a working runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceConfigError {
    /// `workers` was zero.
    ZeroWorkers,
    /// `queue_cap` was zero — every packet would shed.
    ZeroQueue,
    /// `batch` was zero — workers could never drain.
    ZeroBatch,
    /// `ladder.low_water >= ladder.high_water` — hysteresis band empty
    /// or inverted.
    LadderInverted,
    /// A ladder hysteresis count was zero — the tier would flap on
    /// every batch.
    LadderZeroHysteresis,
    /// `shed.resume_below >= queue_cap` — a shed flow would resume into
    /// a full queue.
    ShedInverted,
    /// The per-worker flow table config was invalid.
    Flow(FlowConfigError),
    /// The per-flow reassembly config was invalid.
    Reassembly(ReassemblyConfigError),
}

impl std::fmt::Display for ServiceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceConfigError::ZeroWorkers => write!(f, "worker count must be non-zero"),
            ServiceConfigError::ZeroQueue => write!(f, "queue capacity must be non-zero"),
            ServiceConfigError::ZeroBatch => write!(f, "batch size must be non-zero"),
            ServiceConfigError::LadderInverted => {
                write!(f, "ladder low_water must be below high_water")
            }
            ServiceConfigError::LadderZeroHysteresis => {
                write!(f, "ladder hysteresis counts must be non-zero")
            }
            ServiceConfigError::ShedInverted => {
                write!(f, "shed resume_below must be below queue_cap")
            }
            ServiceConfigError::Flow(e) => write!(f, "flow table: {e}"),
            ServiceConfigError::Reassembly(e) => write!(f, "reassembly: {e}"),
        }
    }
}

impl std::error::Error for ServiceConfigError {}

impl From<FlowConfigError> for ServiceConfigError {
    fn from(e: FlowConfigError) -> ServiceConfigError {
        ServiceConfigError::Flow(e)
    }
}

impl From<ReassemblyConfigError> for ServiceConfigError {
    fn from(e: ReassemblyConfigError) -> ServiceConfigError {
        ServiceConfigError::Reassembly(e)
    }
}

// ---------------------------------------------------------------------------
// Arena, tiers, per-flow state
// ---------------------------------------------------------------------------

/// One generation of compiled rules: the exact sharded matcher (the
/// [`Exact`](FidelityTier::Exact) tier) and the two-stage matcher (the
/// [`TwoStage`](FidelityTier::TwoStage) and
/// [`FlagOnly`](FidelityTier::FlagOnly) tiers) built from the same
/// pattern set. Workers hold it behind an [`Arc`]; a hot-swap builds
/// the next generation off-thread and flips the pointer, so scan paths
/// never wait on a build.
#[derive(Debug)]
pub struct RulesetArena {
    exact: ShardedMatcher,
    two: TwoStageMatcher,
    generation: u64,
}

impl RulesetArena {
    /// Compiles both engines from `set`. `generation` must be strictly
    /// greater than any arena this one will replace — per-flow scan
    /// states carry the generation they were built against and
    /// regenerate when it no longer matches.
    pub fn build(
        set: &PatternSet,
        config: &TwoStageConfig,
        generation: u64,
    ) -> Result<RulesetArena, ShardPlanError> {
        let exact = ShardedMatcher::build(set, &config.exact)?;
        let two = TwoStageMatcher::build(set, config)?;
        Ok(RulesetArena {
            exact,
            two,
            generation,
        })
    }

    /// The exact-tier engine.
    pub fn exact(&self) -> &ShardedMatcher {
        &self.exact
    }

    /// The two-stage engine (also serves the flag-only tier).
    pub fn two_stage(&self) -> &TwoStageMatcher {
        &self.two
    }

    /// This arena's generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The graceful-degradation ladder, cheapest-fidelity last. See the
/// [module docs](self) for the per-tier fidelity table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FidelityTier {
    /// Single-stage sharded exact matching: every byte through every
    /// shard.
    Exact,
    /// Two-stage matching: byte-equivalent results to `Exact`, with
    /// stage-2 cost only on flagged windows.
    TwoStage,
    /// Stage-1 sweep only: true-positive matches still emitted,
    /// windowed-family occurrences recorded as suspect flags instead of
    /// verified.
    FlagOnly,
}

impl FidelityTier {
    /// Index into per-tier counter arrays.
    fn index(self) -> usize {
        match self {
            FidelityTier::Exact => 0,
            FidelityTier::TwoStage => 1,
            FidelityTier::FlagOnly => 2,
        }
    }

    /// The next-cheaper tier (self when already at the bottom).
    fn lower(self) -> FidelityTier {
        match self {
            FidelityTier::Exact => FidelityTier::TwoStage,
            _ => FidelityTier::FlagOnly,
        }
    }

    /// The next-richer tier (self when already at the top).
    fn higher(self) -> FidelityTier {
        match self {
            FidelityTier::FlagOnly => FidelityTier::TwoStage,
            _ => FidelityTier::Exact,
        }
    }
}

/// Per-flow scanner state that survives tier moves and ruleset swaps:
/// the concrete engine state plus the arena generation it was built
/// against. Materialization is lazy — a flow touched after a swap or an
/// `Exact`↔`TwoStage` tier move rebuilds its state *at its current
/// stream offset* on next delivery ([`FlowState::reset_at`] semantics:
/// boundary-local loss only, and the rebuild is counted). Moves between
/// `TwoStage` and `FlagOnly` share one state and lose nothing.
#[derive(Debug, Clone)]
pub struct TierScan {
    generation: u64,
    kind: TierKind,
}

#[derive(Debug, Clone)]
enum TierKind {
    /// Not yet materialized against any arena; scanning will resume at
    /// `at`.
    Fresh { at: u64 },
    Exact(ShardedScanState),
    // Boxed: a two-stage state is several times the size of the other
    // variants, and a TierScan is per-flow — millions of resident
    // flows would otherwise all pay the largest variant's footprint.
    Two(Box<TwoStageState>),
}

impl TierScan {
    /// A state that materializes on first delivery.
    pub fn fresh() -> TierScan {
        TierScan {
            generation: 0,
            kind: TierKind::Fresh { at: 0 },
        }
    }

    /// Stream offset consumed so far.
    pub fn offset(&self) -> u64 {
        match &self.kind {
            TierKind::Fresh { at } => *at,
            TierKind::Exact(s) => s.offset(),
            TierKind::Two(s) => s.offset(),
        }
    }
}

impl FlowState for TierScan {
    fn reset(&mut self) {
        self.generation = 0;
        self.kind = TierKind::Fresh { at: 0 };
    }

    fn reset_at(&mut self, offset: u64) {
        match &mut self.kind {
            TierKind::Fresh { at } => *at = offset,
            TierKind::Exact(s) => s.reset_at(offset),
            TierKind::Two(s) => FlowState::reset_at(s.as_mut(), offset),
        }
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// One worker's cumulative counters (survive panics and restarts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Segments processed.
    pub packets: u64,
    /// Bytes delivered to the scan stage per tier, indexed
    /// `[exact, two_stage, flag_only]`. A byte counts where it was
    /// delivered, after reassembly — so the sum is delivered bytes, not
    /// admitted bytes (duplicates are trimmed, buffered bytes count when
    /// delivered or flushed). The protocol stage's ledger
    /// ([`ProtocolStats`]) splits the same total into normalized vs
    /// raw-scanned bytes.
    pub tier_bytes: [u64; 3],
    /// Matches emitted.
    pub matches: u64,
    /// Window-opening flags recorded unverified by flag-only scans —
    /// the honest record of what the degraded tier did not check.
    pub suspect_flags: u64,
    /// Ladder descents.
    pub degrades: u64,
    /// Ladder ascents.
    pub recoveries: u64,
    /// Per-flow states rebuilt at their stream offset (tier move or
    /// ruleset swap).
    pub state_rebuilds: u64,
    /// Mid-stream resyncs: flows repositioned by a shed-resume marker.
    pub resyncs: u64,
    /// Ruleset swaps installed.
    pub swaps: u64,
    /// Panics caught (threaded runtime) or injected (simulator).
    pub panics: u64,
    /// Flow tables rebuilt after a panic.
    pub restarts: u64,
    /// Bytes known lost to panics: the panicking item's payload plus
    /// the rebuilt table's buffered reassembly bytes.
    pub panic_lost_bytes: u64,
    /// Protocol detect/normalize counters (ledger, per-protocol flow
    /// counts, fail-open downgrades). `delivered_bytes` here equals the
    /// tier-bytes sum: every byte a worker hands its scanner first
    /// passes through the detect stage.
    pub protocol: ProtocolStats,
}

impl WorkerStats {
    fn absorb(&mut self, other: &WorkerStats) {
        self.packets += other.packets;
        for i in 0..3 {
            self.tier_bytes[i] += other.tier_bytes[i];
        }
        self.matches += other.matches;
        self.suspect_flags += other.suspect_flags;
        self.degrades += other.degrades;
        self.recoveries += other.recoveries;
        self.state_rebuilds += other.state_rebuilds;
        self.resyncs += other.resyncs;
        self.swaps += other.swaps;
        self.panics += other.panics;
        self.restarts += other.restarts;
        self.panic_lost_bytes += other.panic_lost_bytes;
        self.protocol.absorb(&other.protocol);
    }
}

/// Whole-service counters: the steering/shedding side plus every
/// worker's [`WorkerStats`] absorbed. The load-shedding identity
/// `offered == admitted + shed` holds for both packets and bytes at all
/// times, and every admitted byte is scanned or named:
/// `admitted_bytes == scanned_bytes() + reassembly.dup_bytes +
/// reassembly.overlap_bytes + reassembly.evicted_bytes +
/// workers.panic_lost_bytes + buffered_bytes`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Packets presented to [`Service::offer`] / [`ServiceSim::offer`].
    pub offered_packets: u64,
    /// Bytes presented.
    pub offered_bytes: u64,
    /// Packets refused by the shed gate.
    pub shed_packets: u64,
    /// Bytes refused by the shed gate.
    pub shed_bytes: u64,
    /// Flows newly placed into shedding.
    pub shed_flows: u64,
    /// Shed flows readmitted (each carries a resync marker).
    pub resumed_flows: u64,
    /// Packets enqueued.
    pub admitted_packets: u64,
    /// Bytes enqueued.
    pub admitted_bytes: u64,
    /// Successful ruleset swaps.
    pub swaps: u64,
    /// Ruleset builds that failed and rolled back.
    pub failed_swaps: u64,
    /// Flows resident across all workers at report time.
    pub flows_resident: u64,
    /// Out-of-order bytes still buffered at report time.
    pub buffered_bytes: u64,
    /// Reassembly counters aggregated across every worker's flow table,
    /// including tables retired by panic recovery (their monotonic
    /// counters survive; their held-bytes gauge is accounted as
    /// [`panic_lost_bytes`](WorkerStats::panic_lost_bytes) instead).
    /// This is the other half of the zero-silent-drops ledger: admitted
    /// bytes not delivered to a scanner show up here as duplicates,
    /// skipped holes, or buffered residue — never as nothing.
    pub reassembly: crate::reassembly::ReassemblyStats,
    /// Every worker's counters, absorbed.
    pub workers: WorkerStats,
}

impl ServiceStats {
    /// Total bytes delivered to a scanner at any tier.
    pub fn scanned_bytes(&self) -> u64 {
        self.workers.tier_bytes.iter().sum()
    }
}

/// Adds `src`'s monotonic reassembly counters into `dst` (gauge summed
/// only when `include_gauge` — a retired table's held bytes are lost,
/// not held).
fn add_reassembly(
    dst: &mut crate::reassembly::ReassemblyStats,
    src: &crate::reassembly::ReassemblyStats,
    include_gauge: bool,
) {
    dst.segments += src.segments;
    dst.segments_buffered += src.segments_buffered;
    dst.bytes_buffered += src.bytes_buffered;
    if include_gauge {
        dst.bytes_held += src.bytes_held;
    }
    dst.bytes_held_peak = dst.bytes_held_peak.max(src.bytes_held_peak);
    dst.dup_bytes += src.dup_bytes;
    dst.overlap_bytes += src.overlap_bytes;
    dst.overlap_conflicts += src.overlap_conflicts;
    dst.holes_skipped += src.holes_skipped;
    dst.hole_bytes += src.hole_bytes;
    dst.budget_drops += src.budget_drops;
    dst.evicted_bytes += src.evicted_bytes;
}

// ---------------------------------------------------------------------------
// Worker core (shared by the simulator and the threaded runtime)
// ---------------------------------------------------------------------------

/// One unit of work on a worker queue.
enum Item {
    /// A flow segment. `resync` marks the first segment of a flow
    /// readmitted after shedding. `payload` is a recycled buffer from
    /// the queue's [`SparePool`]; the worker hands it back once scanned.
    Segment {
        key: FlowKey,
        seq: u64,
        time: u64,
        resync: bool,
        payload: Vec<u8>,
    },
    /// Install a new ruleset generation.
    Swap(Arc<RulesetArena>),
    /// Injected fault: the worker panics when it dequeues this (the
    /// simulator models the panic; the threaded runtime really
    /// unwinds).
    Panic,
}

impl Item {
    fn payload_len(&self) -> usize {
        match self {
            Item::Segment { payload, .. } => payload.len(),
            _ => 0,
        }
    }
}

/// Spent payload buffers waiting for the producer's next segment, so a
/// steady packet stream allocates nothing. One pool per queue, capped at
/// `queue_cap + batch` — the most buffers a queue and its worker's batch
/// can hold at once — so a burst cannot pin memory beyond that.
struct SparePool {
    bufs: Vec<Vec<u8>>,
    cap: usize,
}

impl SparePool {
    fn new(config: &ServiceConfig) -> SparePool {
        SparePool {
            bufs: Vec::new(),
            cap: config.queue_cap.saturating_add(config.batch),
        }
    }

    /// A buffer holding exactly `payload`: a spare one when there is
    /// one, else a new one.
    fn fill(&mut self, payload: &[u8]) -> Vec<u8> {
        let mut buf = self.bufs.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        buf
    }

    /// Takes a spent buffer back, or drops it when the pool is full.
    fn give_back(&mut self, buf: Vec<u8>) {
        if self.bufs.len() < self.cap {
            self.bufs.push(buf);
        }
    }
}

/// Matches per block of a [`MatchLog`]: 4,096 × 32 B = 128 KiB.
const LOG_BLOCK: usize = 4096;

/// A worker's append-only match log: fixed-capacity blocks, every one
/// but the last full. Appending never reallocates or copies a block;
/// the blocks are concatenated once, into the final report.
#[derive(Default)]
struct MatchLog {
    blocks: Vec<Vec<FlowMatch>>,
}

impl MatchLog {
    fn len(&self) -> usize {
        self.blocks
            .last()
            .map_or(0, |last| (self.blocks.len() - 1) * LOG_BLOCK + last.len())
    }

    /// Moves every logged match, in order, onto the end of `out`.
    fn drain_into(&mut self, out: &mut Vec<FlowMatch>) {
        for block in self.blocks.drain(..) {
            out.extend_from_slice(&block);
        }
    }
}

impl Extend<FlowMatch> for MatchLog {
    fn extend<I: IntoIterator<Item = FlowMatch>>(&mut self, iter: I) {
        let mut iter = iter.into_iter().peekable();
        while iter.peek().is_some() {
            if self.blocks.last().is_none_or(|b| b.len() == LOG_BLOCK) {
                self.blocks.push(Vec::with_capacity(LOG_BLOCK));
            }
            let block = self.blocks.last_mut().expect("a block with room");
            let room = LOG_BLOCK - block.len();
            block.extend(iter.by_ref().take(room));
        }
    }
}

/// The per-worker state machine: arena, tier ladder, flow table,
/// scratches, counters. Both runtimes drive exactly this logic, so the
/// deterministic simulator exercises the same recovery paths the
/// threaded service runs.
struct WorkerCore {
    arena: Arc<RulesetArena>,
    tier: FidelityTier,
    table: FlowTable<StreamFlow<ProtoFlow<TierScan>>>,
    sharded_scratch: ShardedScratch,
    two_scratch: TwoStageScratch,
    ladder: LadderConfig,
    overload_batches: u32,
    calm_batches: u32,
    flow_capacity: usize,
    flow_ways: usize,
    reassembly: ReassemblyConfig,
    protocol: ProtoConfig,
    /// Reassembly counters of tables retired by panic recovery.
    retired_reassembly: crate::reassembly::ReassemblyStats,
    stats: WorkerStats,
    matches: MatchLog,
}

impl WorkerCore {
    fn new(arena: Arc<RulesetArena>, config: &ServiceConfig) -> Result<WorkerCore, ServiceConfigError> {
        // The worker sink scans every lane with the one full-ruleset
        // tier engine, so `scoped` must be off (see the invariant on
        // ProtoConfig::scoped): honoring a user-set flag would reset
        // tier-scanner history at classification for a lane change
        // that never happens.
        let protocol = ProtoConfig {
            scoped: false,
            ..config.protocol
        };
        let template = StreamFlow::new(
            config.reassembly,
            ProtoFlow::new(TierScan::fresh(), protocol),
        );
        let table = FlowTable::try_with_ways(config.flow_capacity, config.flow_ways, template)?;
        let sharded_scratch = arena.exact.scratch();
        let two_scratch = arena.two.scratch();
        Ok(WorkerCore {
            arena,
            tier: FidelityTier::Exact,
            table,
            sharded_scratch,
            two_scratch,
            ladder: config.ladder,
            overload_batches: 0,
            calm_batches: 0,
            flow_capacity: config.flow_capacity,
            flow_ways: config.flow_ways,
            reassembly: config.reassembly,
            protocol,
            retired_reassembly: crate::reassembly::ReassemblyStats::default(),
            stats: WorkerStats::default(),
            matches: MatchLog::default(),
        })
    }

    /// One ladder observation: called with the queue depth seen when
    /// the worker takes a batch.
    fn observe_queue(&mut self, depth: usize) {
        if depth >= self.ladder.high_water {
            self.calm_batches = 0;
            self.overload_batches += 1;
            if self.overload_batches >= self.ladder.descend_after {
                self.overload_batches = 0;
                let next = self.tier.lower();
                if next != self.tier {
                    self.tier = next;
                    self.stats.degrades += 1;
                }
            }
        } else if depth <= self.ladder.low_water {
            self.overload_batches = 0;
            self.calm_batches += 1;
            if self.calm_batches >= self.ladder.ascend_after {
                self.calm_batches = 0;
                let next = self.tier.higher();
                if next != self.tier {
                    self.tier = next;
                    self.stats.recoveries += 1;
                }
            }
        } else {
            self.overload_batches = 0;
            self.calm_batches = 0;
        }
    }

    /// Runs one item; returns a segment's spent payload buffer for
    /// recycling.
    fn process(&mut self, item: Item) -> Option<Vec<u8>> {
        match item {
            Item::Segment {
                key,
                seq,
                time,
                resync,
                payload,
            } => {
                self.ingest(key, seq, time, resync, &payload);
                Some(payload)
            }
            Item::Swap(arena) => {
                self.install(arena);
                None
            }
            // The drivers intercept Panic before calling process; a
            // Panic reaching here (e.g. via a future driver) is treated
            // as the real thing.
            Item::Panic => panic!("injected worker fault"),
        }
    }

    fn ingest(&mut self, key: FlowKey, seq: u64, time: u64, resync: bool, payload: &[u8]) {
        self.stats.packets += 1;
        let tier = self.tier;
        // A flow scanned while degraded to FlagOnly bypasses
        // normalization permanently (counted `tier_bypassed`): the
        // cheap tier exists to shed work, and a later upgrade must not
        // resume a parser that missed bytes.
        let bypass = tier == FidelityTier::FlagOnly;
        let arena = Arc::clone(&self.arena);
        let generation = arena.generation;
        let mut rebuilds = 0u64;
        let mut tier_bytes = [0u64; 3];
        let mut suspects = 0u64;
        let mut proto_stats = ProtocolStats::default();
        let sharded_scratch = &mut self.sharded_scratch;
        let two_scratch = &mut self.two_scratch;
        let before = self.matches.len();
        let _outcome = self.table.ingest_segment_at(
            FlowSegment { key, seq, payload },
            time,
            resync,
            |proto: &mut ProtoFlow<TierScan>, chunk: &[u8], out: &mut Vec<Match>| {
                tier_bytes[tier.index()] += chunk.len() as u64;
                // Every lane maps to the same full-ruleset tier engine:
                // the service's normalization win is decode (catching
                // boundary-split signatures), not scoping.
                proto.deliver(
                    chunk,
                    bypass,
                    &mut proto_stats,
                    |_lane, scan: &mut TierScan, bytes: &[u8], out: &mut Vec<Match>| {
                        materialize(&arena, generation, tier, scan, &mut rebuilds);
                        match (&mut scan.kind, tier) {
                            (TierKind::Exact(state), _) => {
                                arena.exact.scan_chunk_into(state, bytes, sharded_scratch, out);
                            }
                            (TierKind::Two(state), FidelityTier::FlagOnly) => {
                                let s0 = flow_stats(state).suspect_flags;
                                arena.two.scan_chunk_flag_only(state, bytes, two_scratch, out);
                                suspects += flow_stats(state).suspect_flags - s0;
                            }
                            (TierKind::Two(state), _) => {
                                arena.two.scan_chunk_into(state, bytes, two_scratch, out);
                            }
                            (TierKind::Fresh { .. }, _) => unreachable!("materialized above"),
                        }
                    },
                    out,
                );
            },
            &mut self.matches,
        );
        if resync {
            self.stats.resyncs += 1;
        }
        self.stats.state_rebuilds += rebuilds;
        for (total, batch) in self.stats.tier_bytes.iter_mut().zip(tier_bytes) {
            *total += batch;
        }
        self.stats.suspect_flags += suspects;
        self.stats.protocol.absorb(&proto_stats);
        self.stats.matches += (self.matches.len() - before) as u64;
    }

    fn install(&mut self, arena: Arc<RulesetArena>) {
        // Scratches are sized to the arena's shard plan; rebuild them
        // with it. Flow states regenerate lazily on next delivery.
        self.sharded_scratch = arena.exact.scratch();
        self.two_scratch = arena.two.scratch();
        self.arena = arena;
        self.stats.swaps += 1;
    }

    /// Post-panic recovery: count what was knowably lost, rebuild the
    /// flow table (the panic may have left a mid-scan state
    /// inconsistent), keep the arena, counters, and collected matches.
    /// Flows re-materialize on their next segment; the never-readmitted
    /// gap surfaces as reassembly hole-skips, not silent loss.
    fn recover(&mut self) {
        self.stats.panics += 1;
        self.stats.restarts += 1;
        self.stats.panic_lost_bytes += self.table.stats().reassembly.bytes_held;
        add_reassembly(
            &mut self.retired_reassembly,
            &self.table.stats().reassembly,
            false,
        );
        let template = StreamFlow::new(
            self.reassembly,
            ProtoFlow::new(TierScan::fresh(), self.protocol),
        );
        self.table = FlowTable::with_ways(self.flow_capacity, self.flow_ways, template);
        self.sharded_scratch = self.arena.exact.scratch();
        self.two_scratch = self.arena.two.scratch();
    }

    /// End-of-stream drain: flush every flow's reassembler through the
    /// scanner at the current tier, then drain two-stage pending
    /// windows, appending everything to the worker's match log.
    fn finish(&mut self) {
        let tier = self.tier;
        let bypass = tier == FidelityTier::FlagOnly;
        let arena = Arc::clone(&self.arena);
        let generation = arena.generation;
        let mut rebuilds = 0u64;
        let mut tier_bytes = [0u64; 3];
        let mut suspects = 0u64;
        let mut proto_stats = ProtocolStats::default();
        let sharded_scratch = &mut self.sharded_scratch;
        let two_scratch = &mut self.two_scratch;
        let before = self.matches.len();
        let mut flushed = Vec::new();
        self.table.flush_flows(
            |proto: &mut ProtoFlow<TierScan>, chunk: &[u8], out: &mut Vec<Match>| {
                tier_bytes[tier.index()] += chunk.len() as u64;
                proto.deliver(
                    chunk,
                    bypass,
                    &mut proto_stats,
                    |_lane, scan: &mut TierScan, bytes: &[u8], out: &mut Vec<Match>| {
                        materialize(&arena, generation, tier, scan, &mut rebuilds);
                        match (&mut scan.kind, tier) {
                            (TierKind::Exact(state), _) => {
                                arena.exact.scan_chunk_into(state, bytes, sharded_scratch, out);
                            }
                            (TierKind::Two(state), FidelityTier::FlagOnly) => {
                                let s0 = flow_stats(state).suspect_flags;
                                arena.two.scan_chunk_flag_only(state, bytes, two_scratch, out);
                                suspects += flow_stats(state).suspect_flags - s0;
                            }
                            (TierKind::Two(state), _) => {
                                arena.two.scan_chunk_into(state, bytes, two_scratch, out);
                            }
                            (TierKind::Fresh { .. }, _) => unreachable!("materialized above"),
                        }
                    },
                    out,
                );
            },
            &mut flushed,
        );
        self.matches.extend(flushed);
        // Two-stage states may hold verified matches behind the merge
        // watermark; drain them per flow.
        let mut tail = Vec::new();
        let matches = &mut self.matches;
        self.table.for_each_flow(|key, flow| {
            if let TierKind::Two(state) = &mut flow.scan.scan.kind {
                tail.clear();
                arena.two.finish_flow(state, &mut tail);
                matches.extend(tail.iter().map(|&m| FlowMatch { key, matched: m }));
            }
        });
        self.stats.state_rebuilds += rebuilds;
        for (total, batch) in self.stats.tier_bytes.iter_mut().zip(tier_bytes) {
            *total += batch;
        }
        self.stats.suspect_flags += suspects;
        self.stats.protocol.absorb(&proto_stats);
        self.stats.matches += (self.matches.len() - before) as u64;
    }

    /// Adds this worker's counters, residency and reassembly ledger
    /// into `stats`.
    fn absorb_into(&self, stats: &mut ServiceStats) {
        stats.workers.absorb(&self.stats);
        stats.flows_resident += self.table.len() as u64;
        stats.buffered_bytes += self.table.buffered_bytes() as u64;
        add_reassembly(&mut stats.reassembly, &self.table.stats().reassembly, true);
        add_reassembly(&mut stats.reassembly, &self.retired_reassembly, false);
    }
}

/// The final report over finished workers: their counters absorbed and
/// their match logs concatenated, once, in worker order.
fn report(steer: &Steer, workers: &mut [WorkerCore], latency: LatencyHistogram) -> ServiceReport {
    let mut stats = ServiceStats::default();
    steer.stats_into(&mut stats);
    let mut matches = Vec::with_capacity(workers.iter().map(|w| w.matches.len()).sum());
    let mut final_tiers = Vec::with_capacity(workers.len());
    for worker in workers {
        worker.absorb_into(&mut stats);
        worker.matches.drain_into(&mut matches);
        final_tiers.push(worker.tier);
    }
    ServiceReport {
        stats,
        matches,
        final_tiers,
        latency,
    }
}

/// Shorthand: a flow's cumulative two-stage counters.
fn flow_stats(state: &TwoStageState) -> TwoStageStats {
    state.stats()
}

/// Ensures `scan` holds a state for (`arena`, `tier`): rebuilds it at
/// the flow's current stream offset when the generation or the engine
/// family changed. `TwoStage` and `FlagOnly` share the `Two` state, so
/// ladder moves between them rebuild nothing.
fn materialize(
    arena: &RulesetArena,
    generation: u64,
    tier: FidelityTier,
    scan: &mut TierScan,
    rebuilds: &mut u64,
) {
    let wants_exact = tier == FidelityTier::Exact;
    let compatible = scan.generation == generation
        && match &scan.kind {
            TierKind::Fresh { .. } => false,
            TierKind::Exact(_) => wants_exact,
            TierKind::Two(_) => !wants_exact,
        };
    if compatible {
        return;
    }
    let at = scan.offset();
    let was_live = !matches!(scan.kind, TierKind::Fresh { .. });
    scan.kind = if wants_exact {
        let mut state = arena.exact.flow_state();
        if at > 0 {
            state.reset_at(at);
        }
        TierKind::Exact(state)
    } else {
        let mut state = arena.two.flow_state();
        if at > 0 {
            FlowState::reset_at(&mut state, at);
        }
        TierKind::Two(Box::new(state))
    };
    scan.generation = generation;
    if was_live {
        *rebuilds += 1;
    }
}

// ---------------------------------------------------------------------------
// Steering and shedding (producer side)
// ---------------------------------------------------------------------------

/// SplitMix64 over the folded key halves — independent of the flow
/// table's set-index hash (a different finalizing constant), so queue
/// steering and set placement do not correlate.
fn steer_hash(key: FlowKey) -> u64 {
    let mut z = (key.0 as u64) ^ ((key.0 >> 64) as u64) ^ 0xD6E8_FEB8_6659_FD93;
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^ (z >> 32)
}

/// Producer-side per-queue shed gate: tracks which flows are currently
/// shed and applies the full/resume hysteresis.
struct ShedGate {
    shedding: HashSet<u128>,
}

impl ShedGate {
    fn new() -> ShedGate {
        ShedGate {
            shedding: HashSet::new(),
        }
    }

    /// Decides one packet given the queue's current depth.
    fn admit(&mut self, key: FlowKey, depth: usize, cap: usize, resume_below: usize) -> Gate {
        if self.shedding.contains(&key.0) {
            if depth <= resume_below {
                self.shedding.remove(&key.0);
                Gate::Resync
            } else {
                Gate::Shed { new_flow: false }
            }
        } else if depth >= cap {
            self.shedding.insert(key.0);
            Gate::Shed { new_flow: true }
        } else {
            Gate::Admit
        }
    }
}

enum Gate {
    Admit,
    Resync,
    Shed { new_flow: bool },
}

/// Steering + shedding front end shared by both runtimes. The caller
/// supplies the target queue's depth; this updates the offered/shed
/// counters and says what to do with the packet.
struct Steer {
    gates: Vec<ShedGate>,
    queue_cap: usize,
    resume_below: usize,
    offered_packets: u64,
    offered_bytes: u64,
    shed_packets: u64,
    shed_bytes: u64,
    shed_flows: u64,
    resumed_flows: u64,
    admitted_packets: u64,
    admitted_bytes: u64,
    swaps: u64,
    failed_swaps: u64,
}

impl Steer {
    fn new(config: &ServiceConfig) -> Steer {
        Steer {
            gates: (0..config.workers).map(|_| ShedGate::new()).collect(),
            queue_cap: config.queue_cap,
            resume_below: config.shed.resume_below,
            offered_packets: 0,
            offered_bytes: 0,
            shed_packets: 0,
            shed_bytes: 0,
            shed_flows: 0,
            resumed_flows: 0,
            admitted_packets: 0,
            admitted_bytes: 0,
            swaps: 0,
            failed_swaps: 0,
        }
    }

    fn worker_of(&self, key: FlowKey) -> usize {
        (steer_hash(key) % self.gates.len() as u64) as usize
    }

    /// Counts the packet and returns `Some(resync)` to admit it to its
    /// queue, `None` when it was shed.
    fn offer(&mut self, worker: usize, key: FlowKey, len: usize, depth: usize) -> Option<bool> {
        self.offered_packets += 1;
        self.offered_bytes += len as u64;
        match self.gates[worker].admit(key, depth, self.queue_cap, self.resume_below) {
            Gate::Admit => {
                self.admitted_packets += 1;
                self.admitted_bytes += len as u64;
                Some(false)
            }
            Gate::Resync => {
                self.resumed_flows += 1;
                self.admitted_packets += 1;
                self.admitted_bytes += len as u64;
                Some(true)
            }
            Gate::Shed { new_flow } => {
                if new_flow {
                    self.shed_flows += 1;
                }
                self.shed_packets += 1;
                self.shed_bytes += len as u64;
                None
            }
        }
    }

    fn stats_into(&self, stats: &mut ServiceStats) {
        stats.offered_packets = self.offered_packets;
        stats.offered_bytes = self.offered_bytes;
        stats.shed_packets = self.shed_packets;
        stats.shed_bytes = self.shed_bytes;
        stats.shed_flows = self.shed_flows;
        stats.resumed_flows = self.resumed_flows;
        stats.admitted_packets = self.admitted_packets;
        stats.admitted_bytes = self.admitted_bytes;
        stats.swaps = self.swaps;
        stats.failed_swaps = self.failed_swaps;
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// One injected fault, fired when the offered-packet counter reaches
/// its trigger index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Worker `.0` panics at the point this reaches the front of its
    /// queue (in-band, so delivery order around the fault is exact).
    WorkerPanic(usize),
    /// Worker `.0` stalls for `.1` simulator steps — the queue keeps
    /// filling, which is how queue-full shedding is provoked
    /// deterministically.
    SlowWorker(usize, u32),
    /// The next hot-swap's build fails (the simulator sabotages the
    /// build config), exercising rollback.
    BuildFailure,
    /// All subsequent offered timestamps are skewed by `.0` (clamped at
    /// zero) — the clock-tolerance fault.
    ClockSkew(i64),
}

/// A deterministic schedule of injected faults: `(offered-packet
/// index, fault)` pairs, fired in order as [`ServiceSim::offer`] passes
/// each index. Build one explicitly or derive a pseudo-random plan from
/// a seed with [`FaultPlan::from_seed`].
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(u64, FaultKind)>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An explicit schedule (sorted by trigger index internally).
    pub fn new(mut events: Vec<(u64, FaultKind)>) -> FaultPlan {
        events.sort_by_key(|&(at, _)| at);
        FaultPlan { events }
    }

    /// `count` pseudo-random faults over the first `horizon` offered
    /// packets, derived from `seed` (SplitMix64) across all four fault
    /// kinds — the property-test generator.
    pub fn from_seed(seed: u64, count: usize, horizon: u64, workers: usize) -> FaultPlan {
        let mut z = seed;
        let mut next = move || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let mut events = Vec::with_capacity(count);
        for _ in 0..count {
            let at = next() % horizon.max(1);
            let worker = (next() % workers.max(1) as u64) as usize;
            let kind = match next() % 4 {
                0 => FaultKind::WorkerPanic(worker),
                1 => FaultKind::SlowWorker(worker, (next() % 8 + 1) as u32),
                2 => FaultKind::BuildFailure,
                _ => FaultKind::ClockSkew((next() % 1_000) as i64 - 500),
            };
            events.push((at, kind));
        }
        FaultPlan::new(events)
    }
}

// ---------------------------------------------------------------------------
// Deterministic simulator
// ---------------------------------------------------------------------------

/// What a finished run produced: final counters, every match tagged
/// with its flow (per-worker logs concatenated; within one flow,
/// stream order), and the per-worker tier each worker ended at.
#[derive(Debug)]
pub struct ServiceReport {
    /// Final counters.
    pub stats: ServiceStats,
    /// Every match, tagged with its flow.
    pub matches: Vec<FlowMatch>,
    /// The fidelity tier each worker ended at.
    pub final_tiers: Vec<FidelityTier>,
    /// Wall-clock per-packet latency (empty for simulator runs).
    pub latency: LatencyHistogram,
}

/// The deterministic single-threaded service harness: the same
/// `WorkerCore` state machine as the threaded [`Service`], driven in
/// lockstep with seeded fault injection. One `step()` gives every
/// worker one batch; `offer` applies steering, shedding, and the fault
/// plan. No wall clock, no threads — identical inputs give identical
/// outputs, so every robustness property is testable.
pub struct ServiceSim {
    config: ServiceConfig,
    arena: Arc<RulesetArena>,
    workers: Vec<WorkerCore>,
    queues: Vec<VecDeque<Item>>,
    /// Parallel to `queues`: recycled payload buffers.
    spares: Vec<SparePool>,
    stalled: Vec<u32>,
    steer: Steer,
    plan: FaultPlan,
    next_event: usize,
    offered_index: u64,
    skew: i64,
    build_failure_armed: bool,
}

impl ServiceSim {
    /// A simulator with no fault plan.
    pub fn new(arena: Arc<RulesetArena>, config: ServiceConfig) -> Result<ServiceSim, ServiceConfigError> {
        ServiceSim::with_faults(arena, config, FaultPlan::none())
    }

    /// A simulator driven by `plan`.
    pub fn with_faults(
        arena: Arc<RulesetArena>,
        config: ServiceConfig,
        plan: FaultPlan,
    ) -> Result<ServiceSim, ServiceConfigError> {
        config.validate()?;
        let workers = (0..config.workers)
            .map(|_| WorkerCore::new(Arc::clone(&arena), &config))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ServiceSim {
            steer: Steer::new(&config),
            queues: (0..config.workers).map(|_| VecDeque::new()).collect(),
            spares: (0..config.workers)
                .map(|_| SparePool::new(&config))
                .collect(),
            stalled: vec![0; config.workers],
            workers,
            arena,
            config,
            plan,
            next_event: 0,
            offered_index: 0,
            skew: 0,
            build_failure_armed: false,
        })
    }

    /// Which worker `key` steers to.
    pub fn worker_of(&self, key: FlowKey) -> usize {
        self.steer.worker_of(key)
    }

    /// The tier worker `worker` currently runs at.
    pub fn worker_tier(&self, worker: usize) -> FidelityTier {
        self.workers[worker].tier
    }

    /// How many workers have installed arena generation `generation`
    /// (or newer). The swap-drain experiment measures how many extra
    /// steps a stalled worker stretches the in-band broadcast: the
    /// drain is complete when this reaches the worker count.
    pub fn workers_at_generation(&self, generation: u64) -> usize {
        self.workers
            .iter()
            .filter(|w| w.arena.generation >= generation)
            .count()
    }

    /// Offers one segment to the service: fires any fault-plan events
    /// due at this offered-packet index, applies clock skew, steers,
    /// and either enqueues or sheds. Returns `true` when the segment
    /// was admitted.
    pub fn offer(&mut self, key: FlowKey, seq: u64, payload: &[u8], time: u64) -> bool {
        while self.next_event < self.plan.events.len()
            && self.plan.events[self.next_event].0 <= self.offered_index
        {
            let (_, kind) = self.plan.events[self.next_event];
            self.next_event += 1;
            match kind {
                FaultKind::WorkerPanic(w) => {
                    let w = w % self.queues.len();
                    self.queues[w].push_back(Item::Panic);
                }
                FaultKind::SlowWorker(w, steps) => {
                    let w = w % self.stalled.len();
                    self.stalled[w] += steps;
                }
                FaultKind::BuildFailure => self.build_failure_armed = true,
                FaultKind::ClockSkew(delta) => self.skew += delta,
            }
        }
        self.offered_index += 1;
        let time = (time as i64).saturating_add(self.skew).max(0) as u64;
        let worker = self.steer.worker_of(key);
        let depth = self.queues[worker].len();
        match self.steer.offer(worker, key, payload.len(), depth) {
            Some(resync) => {
                let payload = self.spares[worker].fill(payload);
                self.queues[worker].push_back(Item::Segment {
                    key,
                    seq,
                    time,
                    resync,
                    payload,
                });
                true
            }
            None => false,
        }
    }

    /// One lockstep round: every non-stalled worker observes its queue
    /// depth (driving the ladder) and drains up to one batch.
    pub fn step(&mut self) {
        for w in 0..self.workers.len() {
            if self.stalled[w] > 0 {
                self.stalled[w] -= 1;
                continue;
            }
            let depth = self.queues[w].len();
            if depth == 0 {
                self.workers[w].observe_queue(0);
                continue;
            }
            self.workers[w].observe_queue(depth);
            for _ in 0..self.config.batch {
                let Some(item) = self.queues[w].pop_front() else {
                    break;
                };
                if matches!(item, Item::Panic) {
                    // The simulator models the unwind: the item is lost
                    // and recovery runs, exactly as the threaded
                    // runtime's catch_unwind path.
                    self.workers[w].recover();
                } else if let Some(spent) = self.workers[w].process(item) {
                    self.spares[w].give_back(spent);
                }
            }
        }
    }

    /// Steps until every queue is empty and every stall has elapsed.
    pub fn pump(&mut self) {
        while self.queues.iter().any(|q| !q.is_empty()) || self.stalled.iter().any(|&s| s > 0) {
            self.step();
        }
    }

    /// Hot-swaps the ruleset: builds a next-generation
    /// [`RulesetArena`] (synchronously here — the simulator has no
    /// threads to move the build off of) and broadcasts it in-band to
    /// every worker queue, so each worker installs it exactly after the
    /// packets admitted before the swap. On build failure the old arena
    /// stays installed and the error is returned — rollback is the
    /// no-op. Returns the new generation on success.
    ///
    /// An armed [`FaultKind::BuildFailure`] sabotages this build's
    /// budget so the failure path is reachable deterministically.
    pub fn hot_swap(
        &mut self,
        set: &PatternSet,
        config: &TwoStageConfig,
    ) -> Result<u64, ShardPlanError> {
        let mut config = *config;
        if self.build_failure_armed {
            self.build_failure_armed = false;
            // A budget no real pattern fits: the build must fail.
            config.exact.budget_bytes = 1;
        }
        let generation = self.arena.generation + 1;
        match RulesetArena::build(set, &config, generation) {
            Ok(arena) => {
                let arena = Arc::new(arena);
                self.arena = Arc::clone(&arena);
                for queue in &mut self.queues {
                    // Control-plane item: bypasses the shed gate's
                    // packet capacity.
                    queue.push_back(Item::Swap(Arc::clone(&arena)));
                }
                self.steer.swaps += 1;
                Ok(generation)
            }
            Err(e) => {
                self.steer.failed_swaps += 1;
                Err(e)
            }
        }
    }

    /// Snapshot of the counters mid-run (workers absorbed, gauges
    /// current).
    pub fn stats(&self) -> ServiceStats {
        let mut stats = ServiceStats::default();
        self.steer.stats_into(&mut stats);
        for worker in &self.workers {
            worker.absorb_into(&mut stats);
        }
        stats
    }

    /// Drains every queue, flushes every flow, and returns the final
    /// report. The simulator is spent afterwards.
    pub fn finish(mut self) -> ServiceReport {
        self.pump();
        for worker in &mut self.workers {
            worker.finish();
        }
        report(&self.steer, &mut self.workers, LatencyHistogram::new())
    }
}

// ---------------------------------------------------------------------------
// Latency histogram
// ---------------------------------------------------------------------------

/// Log₂-bucketed nanosecond histogram: 64 buckets, constant-time
/// record, quantiles answered at bucket granularity (≤ 2× relative
/// error) — cheap enough to stamp every packet.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
        }
    }

    /// Records one latency observation.
    pub fn record(&mut self, nanos: u64) {
        let bucket = (64 - nanos.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The latency (in nanoseconds, bucket upper bound) at quantile
    /// `q` in `[0, 1]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { 1u64 << i };
            }
        }
        u64::MAX
    }

    /// Merges `other`'s observations into this histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for i in 0..64 {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
    }
}

// ---------------------------------------------------------------------------
// Threaded runtime
// ---------------------------------------------------------------------------

struct QueueInner {
    items: VecDeque<(Item, Instant)>,
    spares: SparePool,
    closed: bool,
}

/// One worker's queue: a `Mutex`-guarded deque with condvar wakeup and
/// the queue's spare payload buffers. The producer takes the lock once
/// per packet — shed check against the live depth, buffer fill and push
/// together — and never blocks on capacity: the shed gate resolves that
/// before the push. The worker takes it once per batch, handing back
/// the previous batch's spent buffers and draining the next, and blocks
/// only when the queue is empty.
struct SharedQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

impl SharedQueue {
    fn new(config: &ServiceConfig) -> SharedQueue {
        SharedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                spares: SparePool::new(config),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner
            .lock()
            .expect("no thread panics while holding a queue lock")
    }

    /// The producer's one lock per packet: `admit` sees the live depth
    /// and returns `Some(resync)` to enqueue the segment, copied into a
    /// spare buffer, or `None` to shed it. Returns whether it was
    /// enqueued.
    fn offer(
        &self,
        key: FlowKey,
        seq: u64,
        payload: &[u8],
        time: u64,
        admit: impl FnOnce(usize) -> Option<bool>,
    ) -> bool {
        let mut inner = self.lock();
        let Some(resync) = admit(inner.items.len()) else {
            return false;
        };
        let payload = inner.spares.fill(payload);
        let segment = Item::Segment {
            key,
            seq,
            time,
            resync,
            payload,
        };
        inner.items.push_back((segment, Instant::now()));
        drop(inner);
        self.ready.notify_one();
        true
    }

    /// Enqueues a control-plane item (swap, injected fault): these
    /// bypass the shed gate.
    fn push(&self, item: Item) {
        self.lock().items.push_back((item, Instant::now()));
        self.ready.notify_one();
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    /// Returns `spent` payload buffers to the spare pool, blocks until
    /// at least one item (or close), then moves up to `batch` items
    /// into `items`. Returns the observed depth; `None` means closed
    /// and drained.
    fn take_batch(
        &self,
        batch: usize,
        items: &mut Vec<(Item, Instant)>,
        spent: &mut Vec<Vec<u8>>,
    ) -> Option<usize> {
        let mut inner = self.lock();
        for buf in spent.drain(..) {
            inner.spares.give_back(buf);
        }
        loop {
            if !inner.items.is_empty() {
                let depth = inner.items.len();
                let take = depth.min(batch);
                items.extend(inner.items.drain(..take));
                return Some(depth);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .expect("no thread panics while holding a queue lock");
        }
    }
}

/// The resident threaded runtime: `workers` OS threads, each owning one
/// `WorkerCore` and one bounded queue; the caller's thread is the
/// producer (steering + shedding) and the control plane (hot-swap).
/// Worker panics are caught per item ([`catch_unwind`]) and recovered
/// in place — the thread is its own watchdog, so one poisoned packet
/// costs one flow table, not a core.
///
/// Per-packet wall-clock latency (enqueue → scan complete) is recorded
/// in a per-worker [`LatencyHistogram`] and merged into the final
/// [`ServiceReport`].
pub struct Service {
    config: ServiceConfig,
    arena: Arc<RulesetArena>,
    queues: Vec<Arc<SharedQueue>>,
    handles: Vec<std::thread::JoinHandle<(WorkerCore, LatencyHistogram)>>,
    steer: Steer,
}

impl Service {
    /// Starts the runtime: validates `config`, spawns the workers, and
    /// returns the producer handle.
    pub fn start(arena: Arc<RulesetArena>, config: ServiceConfig) -> Result<Service, ServiceConfigError> {
        config.validate()?;
        let queues: Vec<_> = (0..config.workers)
            .map(|_| Arc::new(SharedQueue::new(&config)))
            .collect();
        let mut handles = Vec::with_capacity(config.workers);
        for queue in &queues {
            let queue = Arc::clone(queue);
            let mut core = WorkerCore::new(Arc::clone(&arena), &config)?;
            let batch = config.batch;
            handles.push(std::thread::spawn(move || {
                let mut latency = LatencyHistogram::new();
                let mut items = Vec::new();
                let mut spent = Vec::new();
                while let Some(depth) = queue.take_batch(batch, &mut items, &mut spent) {
                    core.observe_queue(depth);
                    for (item, enqueued) in items.drain(..) {
                        let lost = item.payload_len() as u64;
                        match catch_unwind(AssertUnwindSafe(|| core.process(item))) {
                            Ok(Some(buf)) => {
                                latency.record(enqueued.elapsed().as_nanos() as u64);
                                spent.push(buf);
                            }
                            Ok(None) => {}
                            Err(_) => {
                                core.stats.panic_lost_bytes += lost;
                                core.recover();
                            }
                        }
                    }
                }
                core.finish();
                (core, latency)
            }));
        }
        Ok(Service {
            steer: Steer::new(&config),
            queues,
            handles,
            arena,
            config,
        })
    }

    /// Which worker `key` steers to.
    pub fn worker_of(&self, key: FlowKey) -> usize {
        self.steer.worker_of(key)
    }

    /// Offers one segment: steers, consults the shed gate against the
    /// live queue depth, and enqueues or sheds — all under one lock of
    /// the target queue. The payload is copied into a recycled buffer.
    /// Returns `true` when admitted. Never blocks on capacity.
    pub fn offer(&mut self, key: FlowKey, seq: u64, payload: &[u8], time: u64) -> bool {
        let worker = self.steer.worker_of(key);
        let steer = &mut self.steer;
        self.queues[worker].offer(key, seq, payload, time, |depth| {
            steer.offer(worker, key, payload.len(), depth)
        })
    }

    /// Hot-swaps the ruleset. The build runs on the calling (control)
    /// thread — off every worker thread, which keep scanning the old
    /// generation until the swap item reaches them in-band. On build
    /// failure the old arena stays live and the error is returned.
    /// Returns the new generation on success.
    pub fn hot_swap(
        &mut self,
        set: &PatternSet,
        config: &TwoStageConfig,
    ) -> Result<u64, ShardPlanError> {
        let generation = self.arena.generation + 1;
        match RulesetArena::build(set, config, generation) {
            Ok(arena) => {
                let arena = Arc::new(arena);
                self.arena = Arc::clone(&arena);
                for queue in &self.queues {
                    queue.push(Item::Swap(Arc::clone(&arena)));
                }
                self.steer.swaps += 1;
                Ok(generation)
            }
            Err(e) => {
                self.steer.failed_swaps += 1;
                Err(e)
            }
        }
    }

    /// The broadcast half of [`Service::hot_swap`] for callers that
    /// built (or cached) the [`RulesetArena`] somewhere else — another
    /// thread, ahead of time, a warm standby. Costs only the in-band
    /// queue broadcast on this thread; build failures never reach this
    /// method because the caller already holds a finished arena. The
    /// arena's generation should differ from the live one, or workers
    /// will treat resident flow states as already current.
    pub fn install_arena(&mut self, arena: Arc<RulesetArena>) {
        self.arena = Arc::clone(&arena);
        for queue in &self.queues {
            queue.push(Item::Swap(Arc::clone(&arena)));
        }
        self.steer.swaps += 1;
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.config.workers
    }

    /// Closes every queue, joins every worker (each flushes its flows
    /// first), and returns the final report.
    pub fn shutdown(mut self) -> ServiceReport {
        for queue in &self.queues {
            queue.close();
        }
        let mut latency = LatencyHistogram::new();
        let mut cores: Vec<WorkerCore> = self
            .handles
            .drain(..)
            .map(|handle| {
                let (core, worker_latency) = handle
                    .join()
                    .expect("worker threads catch their own panics");
                latency.merge(&worker_latency);
                core
            })
            .collect();
        report(&self.steer, &mut cores, latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_automaton::PatternSet;

    fn arena() -> Arc<RulesetArena> {
        let set = PatternSet::new(["attack-sig", "evil-payload", "he"]).unwrap();
        Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap())
    }

    #[test]
    fn config_validation_rejects_each_degenerate_knob() {
        let ok = ServiceConfig::with_workers(2);
        assert!(ok.validate().is_ok());
        let mut c = ok;
        c.workers = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::ZeroWorkers));
        let mut c = ok;
        c.queue_cap = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::ZeroQueue));
        let mut c = ok;
        c.batch = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::ZeroBatch));
        let mut c = ok;
        c.ladder.low_water = c.ladder.high_water;
        assert_eq!(c.validate(), Err(ServiceConfigError::LadderInverted));
        let mut c = ok;
        c.ladder.ascend_after = 0;
        assert_eq!(c.validate(), Err(ServiceConfigError::LadderZeroHysteresis));
        let mut c = ok;
        c.shed.resume_below = c.queue_cap;
        assert_eq!(c.validate(), Err(ServiceConfigError::ShedInverted));
        let mut c = ok;
        c.flow_capacity = 0;
        assert_eq!(
            c.validate(),
            Err(ServiceConfigError::Flow(FlowConfigError::ZeroCapacity))
        );
        let mut c = ok;
        c.reassembly = ReassemblyConfig::new(4096);
        c.reassembly.budget = 0;
        assert_eq!(
            c.validate(),
            Err(ServiceConfigError::Reassembly(ReassemblyConfigError::ZeroBudget))
        );
    }

    #[test]
    fn steering_is_stable_and_in_range() {
        let arena = arena();
        let sim = ServiceSim::new(arena, ServiceConfig::with_workers(4)).unwrap();
        for i in 0..256u128 {
            let key = FlowKey(i * 0x1234_5678_9ABC_DEF1);
            let w = sim.worker_of(key);
            assert!(w < 4);
            assert_eq!(w, sim.worker_of(key), "steering must be a pure function");
        }
    }

    #[test]
    fn latency_histogram_quantiles_are_monotonic() {
        let mut h = LatencyHistogram::new();
        for n in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            for _ in 0..10 {
                h.record(n);
            }
        }
        assert_eq!(h.count(), 60);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!(p50 <= p99 && p99 <= p999);
        assert!((1_000..=2_048).contains(&p50));
        let mut merged = LatencyHistogram::new();
        merged.merge(&h);
        merged.merge(&h);
        assert_eq!(merged.count(), 120);
        assert_eq!(merged.quantile(0.5), h.quantile(0.5));
    }

    #[test]
    fn sim_scans_a_split_flow_exactly_once() {
        let arena = arena();
        let mut sim = ServiceSim::new(Arc::clone(&arena), ServiceConfig::with_workers(2)).unwrap();
        let key = FlowKey(42);
        // "attack-sig" split across two segments, delivered out of
        // order to exercise the reassembler under the service.
        sim.offer(key, 6, b"-sig tail", 2);
        sim.offer(key, 0, b"attack", 1);
        let report = sim.finish();
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].key, key);
        assert_eq!(report.matches[0].matched.end, 10);
        let s = report.stats;
        assert_eq!(s.offered_packets, 2);
        assert_eq!(s.shed_packets, 0);
        assert_eq!(s.admitted_bytes, s.offered_bytes);
        assert_eq!(s.scanned_bytes(), s.admitted_bytes);
    }

    #[test]
    fn match_log_fills_fixed_blocks_across_the_boundary() {
        let set = PatternSet::new(["a"]).unwrap();
        let arena = Arc::new(RulesetArena::build(&set, &TwoStageConfig::with_cores(1), 1).unwrap());
        let payload = vec![b'a'; 2 * LOG_BLOCK + 17];
        let key = FlowKey(5);
        let mut sim = ServiceSim::new(Arc::clone(&arena), ServiceConfig::with_workers(1)).unwrap();
        let mut service =
            Service::start(Arc::clone(&arena), ServiceConfig::with_workers(1)).unwrap();
        for (i, segment) in payload.chunks(1000).enumerate() {
            let seq = (i * 1000) as u64;
            assert!(sim.offer(key, seq, segment, i as u64));
            assert!(service.offer(key, seq, segment, i as u64));
            sim.step();
        }
        sim.pump();
        let blocks = &sim.workers[0].matches.blocks;
        assert_eq!(blocks.len(), 3);
        for block in &blocks[..2] {
            // Full and never grown: a filled block was not reallocated.
            assert_eq!((block.len(), block.capacity()), (LOG_BLOCK, LOG_BLOCK));
        }
        let mut want = Vec::new();
        arena
            .exact()
            .scan_into(&payload, &mut arena.exact().scratch(), &mut want);
        assert_eq!(want.len(), payload.len());
        for report in [sim.finish(), service.shutdown()] {
            assert_eq!(report.stats.workers.matches, report.matches.len() as u64);
            let got: Vec<Match> = report.matches.iter().map(|m| m.matched).collect();
            assert_eq!(got, want, "stream order must survive the block log");
        }
    }

    #[test]
    fn sim_recycles_payload_buffers_without_stale_bytes() {
        let arena = arena();
        let mut sim = ServiceSim::new(Arc::clone(&arena), ServiceConfig::with_workers(1)).unwrap();
        let (long, short) = (FlowKey(1), FlowKey(2));
        let mut tail = vec![b'.'; 200];
        tail[180..190].copy_from_slice(b"attack-sig");
        assert!(sim.offer(long, 0, &tail, 1));
        sim.step();
        assert_eq!(sim.spares[0].bufs.len(), 1, "the spent buffer is spare");
        assert!(sim.spares[0].bufs[0].capacity() >= tail.len());
        assert!(sim.offer(short, 0, b"xx", 2));
        assert!(sim.spares[0].bufs.is_empty(), "the next segment reuses it");
        sim.step();
        assert!(sim.offer(short, 2, b"yy", 3));
        let report = sim.finish();
        // One match, in the long flow: the short flow's reused buffer
        // never exposed the long payload's tail.
        assert_eq!(report.matches.len(), 1);
        assert_eq!(report.matches[0].key, long);
        assert_eq!(report.stats.scanned_bytes(), 204);
    }

    #[test]
    fn threaded_queue_recycles_spent_buffers_under_the_batch_lock() {
        let config = ServiceConfig::with_workers(1);
        let queue = SharedQueue::new(&config);
        let admit = |_| Some(false);
        let (mut items, mut spent) = (Vec::new(), Vec::new());
        let take = |items: &mut Vec<_>, spent: &mut Vec<_>| {
            items.clear();
            assert_eq!(queue.take_batch(config.batch, items, spent), Some(1));
            match items.pop() {
                Some((Item::Segment { payload, .. }, _)) => payload,
                _ => panic!("expected one segment"),
            }
        };
        assert!(queue.offer(FlowKey(1), 0, &[7; 300], 1, admit));
        let long = take(&mut items, &mut spent);
        let recycled = long.as_ptr();
        spent.push(long);
        // Spent buffers return with the worker's next batch, not before.
        assert!(queue.offer(FlowKey(2), 0, b"ab", 2, admit));
        let fresh = take(&mut items, &mut spent);
        assert_ne!(fresh.as_ptr(), recycled);
        assert!(spent.is_empty());
        assert!(queue.offer(FlowKey(3), 0, b"cd", 3, admit));
        let short = take(&mut items, &mut spent);
        assert_eq!((short.as_ptr(), short.as_slice()), (recycled, &b"cd"[..]));
        assert!(!queue.offer(FlowKey(4), 0, b"shed", 4, |_| None));
        assert!(queue.lock().items.is_empty());
    }

    #[test]
    fn spare_pool_is_capped_at_queue_plus_batch() {
        let mut config = ServiceConfig::with_workers(1);
        config.queue_cap = 3;
        config.batch = 2;
        let mut pool = SparePool::new(&config);
        for _ in 0..10 {
            pool.give_back(Vec::with_capacity(8));
        }
        assert_eq!(pool.bufs.len(), 5);
        assert_eq!(pool.fill(b"abc"), b"abc");
        assert_eq!(pool.bufs.len(), 4);
    }

    #[test]
    fn worker_panic_is_isolated_in_threads() {
        let arena = arena();
        let mut config = ServiceConfig::with_workers(1);
        config.queue_cap = 512;
        let mut service = Service::start(Arc::clone(&arena), config).unwrap();
        let key = FlowKey(9);
        assert!(service.offer(key, 0, b"xx attack", 1));
        // Inject a real panic through the queue, then keep feeding the
        // same flow: the worker must survive and resync.
        service.queues[0].push(Item::Panic);
        assert!(service.offer(key, 9, b"-sig yy attack-sig", 2));
        let report = service.shutdown();
        assert_eq!(report.stats.workers.panics, 1);
        assert_eq!(report.stats.workers.restarts, 1);
        // The straddling occurrence may be lost with the table; the
        // fully-post-restart occurrence must be found.
        assert!(report
            .matches
            .iter()
            .any(|m| m.key == key && m.matched.end == 27));
    }
}
