//! Lane conformance under probe-window-shaped cuts and exits.
//!
//! The compiled engine's skip lane (8-byte SWAR windows plus the exact
//! per-byte danger walk) may change how fast bytes are consumed, never
//! which matches come out. This suite pins that differentially; its
//! 16/32-byte cut and exit shapes land the lane at every misaligned
//! resume offset, and on x86_64 it also pins the `simd` module's
//! shuffle kernels:
//!
//! 1. **Lane matrix** — every lane stack the automaton can be built
//!    with (prefilter on/off) reports exactly the reference
//!    `DtpMatcher` matches, on clean, infected and adversarial
//!    payloads, whole and under every `ChopProfile`.
//! 2. **Window-interior cuts and exits** — chunk boundaries ±1 around
//!    every 16- and 32-byte multiple, 3-way splits inside a maximal
//!    skippable run, and a planted lane exit swept across a 32-byte
//!    span of offsets, so suspend/resume lands mid-skip at odd offsets.
//! 3. **Horizon sweep** — anchor horizons 0, 1 and 2, and `nocase`
//!    pattern sets (the fold must be applied before classification).
//! 4. **Sharded + reassembly** — `ShardedMatcher` streamed under
//!    ragged cuts, and adversarial `SegmentProfile` schedules through a
//!    `FlowTable`.
//! 5. **Table model** (x86_64) — the nibble-split shuffle tables and
//!    their vector kernels checked against a production skip bitmap.

use dpi_accel::core::{FlowKey, FlowSegment, FlowTable, ShardedConfig, ShardedMatcher};
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    adversarial_payload, chop, extract_preserving, master_ruleset, ChopProfile, Packet, Segment,
    SegmentProfile, TrafficGenerator,
};

/// Anchors at `horizon`: every lane stack built from them, the
/// fast-path stack first, each labelled `prefilter=…`.
fn build_stack(set: &PatternSet, horizon: u8) -> Vec<(String, CompiledAutomaton)> {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, horizon);
    vec![
        (
            "prefilter=true".to_string(),
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors),
        ),
        (
            "prefilter=false".to_string(),
            CompiledAutomaton::compile(&reduced),
        ),
    ]
}

/// Scans `payload` chunked at `cuts` through every lane configuration
/// and asserts each equals the whole-payload `DtpMatcher` reference.
fn assert_matrix_conforms(
    stacks: &[(String, CompiledAutomaton)],
    set: &PatternSet,
    reference: &[Match],
    payload: &[u8],
    cuts: &[usize],
    ctx: &str,
) {
    let segments = chop(payload, cuts);
    for (name, compiled) in stacks {
        let m = CompiledMatcher::new(compiled, set);
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for seg in &segments {
            m.scan_chunk_into(&mut state, seg, &mut got);
        }
        assert_eq!(got, reference, "{name} diverged [{ctx}]");
    }
}

fn dtp_reference(set: &PatternSet, payload: &[u8]) -> Vec<Match> {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    DtpMatcher::new(&reduced, set).find_all(payload)
}

/// Lane matrix × traffic kind × chop profile on a realistic 300-rule
/// slice.
#[test]
fn traffic_and_chop_matrix_conformance() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let stacks = build_stack(&set, AnchorSet::DEFAULT_HORIZON);
    let mut gen = TrafficGenerator::new(0x51D0);

    let clean = gen.clean_packet(16 * 1024);
    let infected = gen.infected_packet(16 * 1024, &set, 24);
    let adversarial = Packet {
        payload: adversarial_payload(&set, 8 * 1024),
        injected: Vec::new(),
    };
    for (kind, packet) in [
        ("clean", &clean),
        ("infected", &infected),
        ("adversarial", &adversarial),
    ] {
        let reference = dtp_reference(&set, &packet.payload);
        // Whole payload first, then every chop profile.
        assert_matrix_conforms(&stacks, &set, &reference, &packet.payload, &[], kind);
        for profile in [
            ChopProfile::Mtu(1500),
            ChopProfile::Random { min: 1, max: 97 },
            ChopProfile::MidPattern { mtu: 200 },
        ] {
            let cuts = gen.chop_points(packet, &set, profile);
            assert_matrix_conforms(
                &stacks,
                &set,
                &reference,
                &packet.payload,
                &cuts,
                &format!("{kind}/{profile:?}"),
            );
        }
        // SingleByte on a prefix — the worst case for per-chunk costs.
        let prefix = &packet.payload[..2048.min(packet.payload.len())];
        let reference = dtp_reference(&set, prefix);
        let cuts: Vec<usize> = (1..prefix.len()).collect();
        assert_matrix_conforms(
            &stacks,
            &set,
            &reference,
            prefix,
            &cuts,
            &format!("{kind}/SingleByte"),
        );
    }
}

/// Chunk boundaries at every multiple of 16 and 32 ± 1 (so each resumed
/// chunk re-enters the lane from an odd offset, mid SWAR window), plus
/// 3-way splits inside the longest skippable run (suspend/resume
/// mid-skip).
#[test]
fn cuts_inside_simd_windows() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let dfa = Dfa::build(&set);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let stacks = build_stack(&set, AnchorSet::DEFAULT_HORIZON);
    let mut gen = TrafficGenerator::new(0xA11A);
    let packet = gen.infected_packet(4096, &set, 12);
    let payload = &packet.payload;
    let reference = dtp_reference(&set, payload);

    // ±1 around every 16- and 32-byte multiple — every cut is at an
    // odd offset, so each resumed chunk re-enters the lane misaligned.
    for width in [16usize, 32] {
        let cuts: Vec<usize> = (1..payload.len() / width)
            .flat_map(|i| [i * width - 1, i * width + 1])
            .collect();
        assert_matrix_conforms(
            &stacks,
            &set,
            &reference,
            payload,
            &cuts,
            &format!("width-{width} interior cuts"),
        );
    }

    // 3-way split inside the longest fully-skippable run: the SWAR
    // skip is interrupted twice mid-run and must resume without losing
    // the (prev, byte) history.
    let mut best = (0usize, 0usize); // (start, len)
    let mut run = 0usize;
    for (i, &b) in payload.iter().enumerate() {
        if anchors.is_skippable(b) {
            run += 1;
            if run > best.1 {
                best = (i + 1 - run, run);
            }
        } else {
            run = 0;
        }
    }
    let (start, len) = best;
    if len >= 3 {
        let cuts = vec![start + len / 3, start + 2 * len / 3];
        assert_matrix_conforms(
            &stacks,
            &set,
            &reference,
            payload,
            &cuts,
            "3-way mid-skip split",
        );
    }
}

/// A lane exit planted at every offset of a 32-byte span, with a second
/// exit and register rebuild right behind it. The exit `(p, c)` — `p`
/// reachable through skippable filler, `(p, c)` danger — is followed by
/// `d` and a byte `e` that is danger after `d` when one exists. The
/// sweep meets the exit at every position of an 8-byte SWAR window and
/// of the walk runs between probes; a cut between `c` and `d` suspends
/// right behind the exit.
#[test]
fn calm_pair_rescue_straddling_probe_windows() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let dfa = Dfa::build(&set);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let stacks = build_stack(&set, AnchorSet::DEFAULT_HORIZON);
    let filler = (0..=255u8)
        .find(|&b| anchors.is_skippable(b))
        .expect("300-rule set has skippable bytes");
    let mut planted: Vec<(u8, u8)> = Vec::new();
    for p in 0..=255u8 {
        if anchors.is_danger(filler as u32, p) {
            continue;
        }
        if let Some(c) = (0..=255u8).find(|&c| anchors.is_danger(p as u32, c)) {
            planted.push((p, c));
            if planted.len() >= 4 {
                break;
            }
        }
    }
    assert!(!planted.is_empty(), "no danger pair in the 300-rule tables");
    for &(p, c) in &planted {
        let d = filler;
        let e = (0..=255u8)
            .find(|&e| anchors.is_danger(d as u32, e))
            .unwrap_or(filler);
        for lead in 64usize..64 + 32 {
            let mut payload = vec![filler; lead];
            payload.extend_from_slice(&[p, c, d, e]);
            payload.extend(std::iter::repeat_n(filler, 64));
            let reference = dtp_reference(&set, &payload);
            let ctx = format!("exit ({p:#04x},{c:#04x})+{e:#04x} lead {lead}");
            assert_matrix_conforms(&stacks, &set, &reference, &payload, &[], &ctx);
            assert_matrix_conforms(
                &stacks,
                &set,
                &reference,
                &payload,
                &[lead + 2],
                &format!("{ctx} (cut behind the exit)"),
            );
        }
    }
}

/// Horizons 0, 1 and 2: the danger relation changes shape with the
/// region depth; each must stay exact.
#[test]
fn horizon_sweep_conformance() {
    let set = extract_preserving(&master_ruleset(), 80, 0x707);
    let mut gen = TrafficGenerator::new(0xBEEF);
    let clean = gen.clean_packet(4096);
    let infected = gen.infected_packet(4096, &set, 8);
    for horizon in 0u8..=2 {
        let stacks = build_stack(&set, horizon);
        for (kind, packet) in [("clean", &clean), ("infected", &infected)] {
            let reference = dtp_reference(&set, &packet.payload);
            let cuts = gen.chop_points(packet, &set, ChopProfile::Random { min: 1, max: 61 });
            assert_matrix_conforms(
                &stacks,
                &set,
                &reference,
                &packet.payload,
                &cuts,
                &format!("horizon-{horizon}/{kind}"),
            );
        }
    }
}

/// `nocase` sets: the ASCII fold is applied *before* classification,
/// so the lane tables see folded bytes — mixed-case occurrences must
/// land exactly as the reference reports them.
#[test]
fn nocase_conformance() {
    let set = PatternSet::new_nocase([
        b"User-Agent:".as_slice(),
        b"EVIL/1.0",
        b"malware.exe",
        b"GET /admin",
        b"xHeLLoX",
    ])
    .unwrap();
    let stacks = build_stack(&set, AnchorSet::DEFAULT_HORIZON);
    let mut payload = Vec::new();
    let mut gen = TrafficGenerator::new(0x0CA5);
    for case in [
        b"user-agent: EVIL/1.0\r\n".as_slice(),
        b"USER-AGENT: evil/1.0\r\n",
        b"get /ADMIN MALWARE.EXE xhellox",
        b"GeT /aDmIn MaLwArE.eXe XHELLOX",
    ] {
        payload.extend_from_slice(&gen.clean_packet(512).payload);
        payload.extend_from_slice(case);
    }
    let reference = dtp_reference(&set, &payload);
    assert!(!reference.is_empty(), "mixed-case occurrences must match");
    assert_matrix_conforms(&stacks, &set, &reference, &payload, &[], "nocase whole");
    let cuts: Vec<usize> = (1..payload.len() / 16).map(|i| i * 16 + 1).collect();
    assert_matrix_conforms(&stacks, &set, &reference, &payload, &cuts, "nocase cut");
}

/// `ShardedMatcher` streamed under ragged cuts: per-shard anchor sets
/// each carry their own lane tables; the merge must stay
/// byte-identical to the reference.
#[test]
fn sharded_conformance() {
    let set = extract_preserving(&master_ruleset(), 300, 42);
    let mut gen = TrafficGenerator::new(0x5AD3);
    let packet = gen.infected_packet(8192, &set, 16);
    let reference = dtp_reference(&set, &packet.payload);
    for cores in [1usize, 3] {
        let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(cores))
            .expect("300 rules fit the default budget");
        let cuts = gen.chop_points(&packet, &set, ChopProfile::Random { min: 3, max: 113 });
        let segments = chop(&packet.payload, &cuts);
        let mut scratch = sharded.scratch();
        let mut flow = sharded.flow_state();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(got, reference, "sharded(cores={cores}) diverged");
    }
}

/// Adversarial `SegmentProfile` schedules through a `FlowTable`: the
/// reassembly layer feeds the skip lane restart-heavy chunk shapes
/// (hole skips reset the scan state mid-stream); the scan must agree
/// with the whole-payload reference.
#[test]
fn reassembly_segment_profiles_conformance() {
    let set = extract_preserving(&master_ruleset(), 150, 0x6E0);
    let stacks = build_stack(&set, AnchorSet::DEFAULT_HORIZON);
    let matcher = CompiledMatcher::new(&stacks[0].1, &set);
    let mut gen = TrafficGenerator::new(0xF10E);

    for profile in [
        SegmentProfile::InOrder,
        SegmentProfile::Reorder { window: 4 },
        SegmentProfile::Retransmit { every: 3 },
        SegmentProfile::OverlapConsistent { extend: 12 },
        SegmentProfile::OverlapConflicting { extend: 12 },
    ] {
        let packet = gen.infected_packet(2048, &set, 5);
        let schedule: Vec<Segment> =
            gen.segment_schedule(&packet, &set, ChopProfile::MidPattern { mtu: 200 }, profile);
        let reference = dtp_reference(&set, &packet.payload);
        let template = StreamFlow::new(ReassemblyConfig::new(4096), ScanState::fresh());
        let mut table = FlowTable::new(16, template);
        let mut alerts = Vec::new();
        let mut got: Vec<Match> = Vec::new();
        for seg in &schedule {
            table.ingest_segments(
                [FlowSegment {
                    key: FlowKey(7),
                    seq: seg.seq,
                    payload: &seg.bytes,
                }],
                |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
                &mut alerts,
            );
            got.extend(alerts.iter().map(|a| a.matched));
        }
        table.flush_flows(
            |state, chunk, out| matcher.scan_chunk_into(state, chunk, out),
            &mut alerts,
        );
        got.extend(alerts.iter().map(|a| a.matched));
        assert_eq!(got, reference, "diverged under {profile:?}");
    }
}

/// Table-model pinning (x86_64 only, where the shuffle kernels exist).
#[cfg(target_arch = "x86_64")]
mod table_models {
    use super::*;
    use dpi_accel::automaton::simd::{ByteSetTables, SimdToken};

    /// The nibble-split tables and their vector kernels against a
    /// production byte set (the 300-rule candidate-anchor bytes, i.e.
    /// the complement of the skip bitmap): the scalar model must equal
    /// the bitmap on all 256 bytes, and on a pseudorandom buffer the
    /// 16- and 32-lane membership masks must equal the model
    /// byte-for-byte.
    #[test]
    fn kernels_match_models_on_production_tables() {
        let set = extract_preserving(&master_ruleset(), 300, 42);
        let dfa = Dfa::build(&set);
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        let tables = ByteSetTables::build(|b| !anchors.is_skippable(b));
        for b in 0..=255u8 {
            assert_eq!(tables.model_contains(b), !anchors.is_skippable(b), "byte {b:#04x}");
        }
        let Some(token) = SimdToken::detect() else {
            eprintln!("no SSSE3 — kernel/model differential skipped");
            return;
        };

        // Deterministic xorshift buffer.
        let mut x = 0x2545F4914F6CDD1Du64;
        let buf: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        for w in (1..buf.len() - 32).step_by(97) {
            let m16 = token.member_mask16(&tables, buf[w..w + 16].try_into().unwrap());
            let m32 = token.member_mask32(&tables, buf[w..w + 32].try_into().unwrap());
            for k in 0..32usize {
                let model = tables.model_contains(buf[w + k]);
                if k < 16 {
                    assert_eq!(m16 & (1 << k) != 0, model, "mask16 bit {k} at {w}");
                }
                assert_eq!(m32 & (1 << k) != 0, model, "mask32 bit {k} at {w}");
            }
        }
    }
}
