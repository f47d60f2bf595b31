//! The traced run's passes. The benchmark builds the worker's pipeline
//! itself from public types, `FlowTable<StreamFlow<ProtoFlow<S>>>`, and
//! records a span around each nested call. Every pass runs the same
//! arrival stream and checks its own matches; where two layers share one
//! call they are split by the difference between two passes.
//!
//! | pass | pipeline | spans |
//! |---|---|---|
//! | `service` | `ServiceSim`, one worker, stepped as in the capacity run | offer, step |
//! | `table_outer` | table → exact | one span per 32 ingest_segment_at calls |
//! | `table` | table → exact | ingest_segment_at > deliver > scan_chunk_into |
//! | `direct` | per-flow `StreamFlow`s held by the benchmark → exact | StreamFlow::ingest > deliver > scan_chunk_into |
//! | `two_stage` | table → two-stage | scan_chunk_into |
//! | `flag_only` | table → two-stage flag-only | scan_chunk_flag_only |
//!
//! The passes whose spans are subtracted run [`REPS`] times, interleaved
//! pairwise, and the fastest run of each is kept: co-tenant cache
//! contention slows whole passes, and a difference between passes taken
//! in different phases would measure the phases.

use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use dpi_automaton::Match;
use dpi_core::{
    FlowMatch, FlowSegment, FlowState, FlowTable, FlowTableStats, ProtoFlow, ProtocolStats,
    ReassemblyStats, RulesetArena, ServiceConfig, ServiceSim, StreamFlow, TwoStageStats,
};

use crate::alloc;
use crate::check::{self, Expect, PerFlow};
use crate::closed::{self, STEP_EVERY};
use crate::trace::{of, Name, Tracer};
use crate::workload::{Arrival, Workload};

/// Runs of each pass pair whose spans are subtracted.
const REPS: usize = 3;

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Copies one batch of payloads into `buf` before it is ingested,
/// outside any span, as a step's batch was copied by the offers before
/// it: otherwise the passes would read payload from memory that the
/// service reads from cache, and their spans would not subtract from the
/// step's. Returns each payload's range in `buf`.
fn copy_batch(buf: &mut Vec<u8>, w: &Workload, batch: &[Arrival]) -> Vec<std::ops::Range<usize>> {
    buf.clear();
    batch
        .iter()
        .map(|&a| {
            let start = buf.len();
            buf.extend_from_slice(w.payload(a));
            start..buf.len()
        })
        .collect()
}

/// Checks a pass's matches against the reference.
fn checked(
    w: &Workload,
    reference: &PerFlow,
    matches: &[FlowMatch],
    expect: Expect,
    pass: &str,
) -> Result<(), String> {
    let got = check::group(w, matches)?;
    check::compare(reference, None, &got, expect).map_err(|e| format!("{pass} pass: {e}"))
}

/// Keeps the faster of two runs of one pass.
fn faster<T>(best: Option<(f64, T)>, secs: f64, run: T) -> Option<(f64, T)> {
    match best {
        Some(b) if b.0 <= secs => Some(b),
        _ => Some((secs, run)),
    }
}

/// Which spans a table pass records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// One span per [`STEP_EVERY`] table calls: the granularity of the
    /// service pass's step spans, so the two subtract cleanly.
    Outer,
    /// Table call, protocol call and scan call.
    Full,
    /// The scan call only.
    Scan,
}

struct TablePass {
    tracer: Tracer,
    table: FlowTableStats,
    proto: ProtocolStats,
    scanned: u64,
    matches: usize,
}

/// Runs the arrival stream through a benchmark-owned flow table with
/// the service's default sizes and protocol config, then checks the
/// matches. `scan` is the tier engine, `finish` drains a flow's state at
/// the end. Returns the wall time of the traced loop with the pass.
#[allow(clippy::too_many_arguments)]
fn table_pass<S: FlowState + Clone>(
    w: &Workload,
    reference: &PerFlow,
    expect: Expect,
    state: S,
    depth: Depth,
    scan_name: Name,
    mut scan: impl FnMut(&mut S, &[u8], &mut Vec<Match>),
    mut finish: impl FnMut(&mut S, &mut Vec<Match>),
) -> Result<(f64, TablePass), String> {
    let config = ServiceConfig::with_workers(1);
    let template = StreamFlow::new(
        config.reassembly,
        ProtoFlow::new(state, check::service_proto()),
    );
    let mut table = FlowTable::with_ways(config.flow_capacity, config.flow_ways, template);
    let mut proto = ProtocolStats::default();
    let mut matches = Vec::new();
    let mut scanned = 0u64;
    let (outer, middle, inner) = match depth {
        Depth::Outer => (false, false, false),
        Depth::Full => (true, true, true),
        Depth::Scan => (false, false, true),
    };
    let batched = depth == Depth::Outer;
    let mut tracer = Tracer::with_capacity(if middle { 3 } else { 2 } * w.arrivals.len());
    let mut buf = Vec::new();
    let start = Instant::now();
    for (b, batch) in w.arrivals.chunks(STEP_EVERY).enumerate() {
        let ranges = copy_batch(&mut buf, w, batch);
        tracer.request = (b * STEP_EVERY) as u32;
        if batched {
            tracer.enter(Name::Flow);
        }
        for (j, (&a, range)) in batch.iter().zip(ranges).enumerate() {
            let i = b * STEP_EVERY + j;
            tracer.request = i as u32;
            let segment = FlowSegment {
                key: Workload::key(a.flow),
                seq: a.seq as u64,
                payload: &buf[range],
            };
            if outer {
                tracer.enter(Name::Flow);
            }
            table.ingest_segment_at(
                segment,
                i as u64,
                false,
                |flow: &mut ProtoFlow<S>, chunk: &[u8], out: &mut Vec<Match>| {
                    if middle {
                        tracer.enter(Name::Protocol);
                    }
                    flow.deliver(
                        chunk,
                        false,
                        &mut proto,
                        |_, state, bytes, out| {
                            scanned += bytes.len() as u64;
                            if inner {
                                tracer.enter(scan_name);
                            }
                            scan(state, bytes, out);
                            if inner {
                                tracer.exit();
                            }
                        },
                        out,
                    );
                    if middle {
                        tracer.exit();
                    }
                },
                &mut matches,
            );
            if outer {
                tracer.exit();
            }
        }
        if batched {
            tracer.exit();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let mut tail = Vec::new();
    table.flush_flows(
        |flow: &mut ProtoFlow<S>, chunk: &[u8], out: &mut Vec<Match>| {
            flow.deliver(
                chunk,
                false,
                &mut proto,
                |_, state, bytes, out| scan(state, bytes, out),
                out,
            )
        },
        &mut tail,
    );
    matches.append(&mut tail);
    let mut drained = Vec::new();
    table.for_each_flow(|key, flow| {
        drained.clear();
        finish(&mut flow.scan.scan, &mut drained);
        matches.extend(drained.iter().map(|&m| FlowMatch { key, matched: m }));
    });
    let pass = format!("{scan_name:?} {depth:?}");
    checked(w, reference, &matches, expect, &pass)?;
    let stats = table.stats();
    if stats.reassembly.hole_bytes != 0 {
        return Err(format!(
            "{pass} pass lost {} bytes to reassembly holes",
            stats.reassembly.hole_bytes
        ));
    }
    Ok((
        secs,
        TablePass {
            tracer,
            table: stats,
            proto,
            scanned,
            matches: matches.len(),
        },
    ))
}

/// The table pass's pipeline without the table: per-flow states held in
/// a vector indexed by flow, each segment handed to `StreamFlow::ingest`.
fn direct_pass(
    w: &Workload,
    reference: &PerFlow,
    arena: &RulesetArena,
) -> Result<(f64, Tracer), String> {
    let exact = arena.exact();
    let mut scratch = exact.scratch();
    let config = ServiceConfig::with_workers(1);
    let template = StreamFlow::new(
        config.reassembly,
        ProtoFlow::new(exact.flow_state(), check::service_proto()),
    );
    let mut flows = vec![template; w.wire.len()];
    let mut proto = ProtocolStats::default();
    let mut reassembly = ReassemblyStats::default();
    let mut out = Vec::new();
    let mut matches = Vec::new();
    let mut buf = Vec::new();
    let mut tracer = Tracer::with_capacity(3 * w.arrivals.len());
    let start = Instant::now();
    for (b, batch) in w.arrivals.chunks(STEP_EVERY).enumerate() {
        let ranges = copy_batch(&mut buf, w, batch);
        for (j, (&a, range)) in batch.iter().zip(ranges).enumerate() {
            tracer.request = (b * STEP_EVERY + j) as u32;
            out.clear();
            tracer.enter(Name::Reassembly);
            flows[a.flow as usize].ingest(
                a.seq as u64,
                &buf[range],
                &mut |flow: &mut ProtoFlow<_>, chunk: &[u8], out: &mut Vec<Match>| {
                    tracer.enter(Name::Protocol);
                    flow.deliver(
                        chunk,
                        false,
                        &mut proto,
                        |_, state, bytes, out| {
                            tracer.enter(Name::Sharded);
                            exact.scan_chunk_into(state, bytes, &mut scratch, out);
                            tracer.exit();
                        },
                        out,
                    );
                    tracer.exit();
                },
                &mut out,
                &mut reassembly,
            );
            tracer.exit();
            let key = Workload::key(a.flow);
            matches.extend(out.iter().map(|&m| FlowMatch { key, matched: m }));
        }
    }
    let secs = start.elapsed().as_secs_f64();
    for (flow, state) in flows.iter_mut().enumerate() {
        out.clear();
        state.flush(
            &mut |f: &mut ProtoFlow<_>, chunk: &[u8], out: &mut Vec<Match>| {
                f.deliver(
                    chunk,
                    false,
                    &mut proto,
                    |_, s, bytes, out| exact.scan_chunk_into(s, bytes, &mut scratch, out),
                    out,
                )
            },
            &mut out,
            &mut reassembly,
        );
        let key = Workload::key(flow as u32);
        matches.extend(out.iter().map(|&m| FlowMatch { key, matched: m }));
    }
    checked(w, reference, &matches, Expect::Equal, "direct")?;
    Ok((secs, tracer))
}

/// The capacity run's simulator loop with spans around `offer` and
/// `step`, counting allocations over both; checked like a capacity pass.
fn service_pass(
    w: &Workload,
    reference: &PerFlow,
    arena: &Arc<RulesetArena>,
) -> Result<(f64, (Tracer, u64)), String> {
    let mut sim = ServiceSim::new(Arc::clone(arena), ServiceConfig::with_workers(1))
        .expect("the default one-worker config is valid");
    let mut tracer = Tracer::with_capacity(2 * w.arrivals.len());
    let before = alloc::allocs();
    let start = Instant::now();
    for (i, &a) in w.arrivals.iter().enumerate() {
        tracer.request = i as u32;
        tracer.enter(Name::Offer);
        sim.offer(Workload::key(a.flow), a.seq as u64, w.payload(a), i as u64);
        tracer.exit();
        if (i + 1) % STEP_EVERY == 0 || i + 1 == w.arrivals.len() {
            tracer.enter(Name::Step);
            sim.step();
            tracer.exit();
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let allocs = alloc::allocs() - before;
    closed::check(w, reference, &sim.finish()).map_err(|e| format!("service pass: {e}"))?;
    Ok((secs, (tracer, allocs)))
}

/// Runs every traced pass, writes the kept passes' spans to `spans`, and
/// returns the per-layer metrics they measure. `capacity_mbps` is the
/// untraced capacity of the same run.
pub fn run(
    w: &Workload,
    arena: &Arc<RulesetArena>,
    reference: &PerFlow,
    capacity_mbps: f64,
    spans: &mut impl Write,
) -> Result<Vec<Metric>, String> {
    let packets = w.arrivals.len() as f64;
    let exact = arena.exact();
    let two = arena.two_stage();
    let mut scratch = exact.scratch();
    let mut exact_pass = |depth| {
        table_pass(
            w,
            reference,
            Expect::Equal,
            exact.flow_state(),
            depth,
            Name::Sharded,
            |s, bytes, out| exact.scan_chunk_into(s, bytes, &mut scratch, out),
            |_, _| {},
        )
    };

    let (mut service, mut outer, mut table, mut direct) = (None, None, None, None);
    for _ in 0..REPS {
        let (secs, run) = service_pass(w, reference, arena)?;
        service = faster(service, secs, run);
        let (secs, run) = exact_pass(Depth::Outer)?;
        outer = faster(outer, secs, run);
        let (secs, run) = exact_pass(Depth::Full)?;
        table = faster(table, secs, run);
        let (secs, run) = direct_pass(w, reference, arena)?;
        direct = faster(direct, secs, run);
    }
    let (_, (service, allocs)) = service.expect("REPS > 0");
    let (_, outer) = outer.expect("REPS > 0");
    let (table_secs, table) = table.expect("REPS > 0");
    let (_, direct) = direct.expect("REPS > 0");

    let mut two_scratch = two.scratch();
    let mut two_stats = TwoStageStats::default();
    let (_, staged) = table_pass(
        w,
        reference,
        Expect::Equal,
        two.flow_state(),
        Depth::Scan,
        Name::TwoStage,
        |s, bytes, out| two.scan_chunk_into(s, bytes, &mut two_scratch, out),
        |s, out| {
            two.finish_flow(s, out);
            let f = s.stats();
            two_stats.pre_bytes += f.pre_bytes;
            two_stats.windows += f.windows;
            two_stats.fp_windows += f.fp_windows;
            two_stats.verified_bytes += f.verified_bytes;
        },
    )?;
    let (_, flag) = table_pass(
        w,
        reference,
        Expect::Subset,
        two.flow_state(),
        Depth::Scan,
        Name::FlagOnly,
        |s, bytes, out| two.scan_chunk_flag_only(s, bytes, &mut two_scratch, out),
        |s, out| two.finish_flow(s, out),
    )?;

    let passes = [
        ("service", &service),
        ("table_outer", &outer.tracer),
        ("table", &table.tracer),
        ("direct", &direct),
        ("two_stage", &staged.tracer),
        ("flag_only", &flag.tracer),
    ];
    for (name, tracer) in passes {
        tracer
            .write(name, spans)
            .map_err(|e| format!("writing spans: {e}"))?;
    }

    let s = service.totals();
    let t = table.tracer.totals();
    let flow_self = of(&t, Name::Flow).self_ns as f64;
    let reassembly_self = of(&direct.totals(), Name::Reassembly).self_ns as f64;
    let step = of(&s, Name::Step).total_ns as f64;
    let pipeline = of(&outer.tracer.totals(), Name::Flow).total_ns as f64;
    let staged_ns = of(&staged.tracer.totals(), Name::TwoStage).total_ns as f64;
    let flag_ns = of(&flag.tracer.totals(), Name::FlagOnly).total_ns as f64;
    let stats = &table.table;
    let r = &stats.reassembly;
    let p = &table.proto;
    let delivered = p.delivered_bytes as f64;
    let traced_mbps = w.bytes() as f64 / table_secs / 1e6;
    Ok(vec![
        (
            "service.offer_ns_per_pkt",
            of(&s, Name::Offer).total_ns as f64 / packets,
            "ns",
        ),
        ("service.allocs_per_pkt", allocs as f64 / packets, "count"),
        (
            "service.worker_self_ns_per_pkt",
            (step - pipeline) / packets,
            "ns",
        ),
        (
            "flow.self_ns_per_pkt",
            (flow_self - reassembly_self) / packets,
            "ns",
        ),
        (
            "flow.hit_pct",
            100.0 * ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
            "%",
        ),
        ("flow.evictions", stats.evictions as f64, "count"),
        (
            "reassembly.self_ns_per_pkt",
            reassembly_self / packets,
            "ns",
        ),
        (
            "reassembly.buffered_seg_pct",
            100.0 * ratio(r.segments_buffered as f64, r.segments as f64),
            "%",
        ),
        (
            "reassembly.held_peak_kb",
            r.bytes_held_peak as f64 / 1024.0,
            "KiB",
        ),
        ("reassembly.lost_bytes", r.hole_bytes as f64, "bytes"),
        (
            "protocol.self_ns_per_byte",
            ratio(of(&t, Name::Protocol).self_ns as f64, delivered),
            "ns/B",
        ),
        (
            "protocol.normalized_pct",
            100.0 * ratio(p.normalized_bytes as f64, delivered),
            "%",
        ),
        (
            "protocol.framing_pct",
            100.0 * ratio((p.normalized_bytes - p.emitted_bytes) as f64, delivered),
            "%",
        ),
        (
            "protocol.scan_calls_per_pkt",
            of(&t, Name::Sharded).count as f64 / packets,
            "count",
        ),
        ("protocol.downgrades", p.downgrades() as f64, "count"),
        (
            "sharded.ns_per_byte",
            ratio(of(&t, Name::Sharded).total_ns as f64, table.scanned as f64),
            "ns/B",
        ),
        (
            "sharded.matches_per_kb",
            ratio(table.matches as f64 * 1024.0, table.scanned as f64),
            "count/KiB",
        ),
        (
            "two_stage.ns_per_byte",
            ratio(staged_ns, staged.scanned as f64),
            "ns/B",
        ),
        (
            "two_stage.flag_only_ns_per_byte",
            ratio(flag_ns, flag.scanned as f64),
            "ns/B",
        ),
        (
            "two_stage.replay_pct",
            100.0 * ratio(two_stats.verified_bytes as f64, two_stats.pre_bytes as f64),
            "%",
        ),
        (
            "two_stage.fp_window_pct",
            100.0 * ratio(two_stats.fp_windows as f64, two_stats.windows as f64),
            "%",
        ),
        (
            "trace.overhead_pct",
            100.0 * ratio(capacity_mbps - traced_mbps, capacity_mbps),
            "%",
        ),
    ])
}
