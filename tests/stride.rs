//! Misaligned-seam suite: the anchor skip lane must resume exactly
//! from suspension points that share no alignment with its walk.
//!
//! These cases were written for the stride-2 pair layer, which has
//! since been removed (ARCHITECTURE.md, Stage 2⅞); they stay because
//! the lane that ships suspends at the same seams — odd stream
//! offsets, cuts inside candidate-but-inert text where the lane is in
//! its danger walk, and nocase soft exits from a single-byte pattern.
//! Every scan must report byte-for-byte the reference matchers'
//! matches. Covers [`CompiledMatcher`] and [`ShardedMatcher`].

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{chop, extract_preserving, master_ruleset, ChopProfile};

/// Compiles `set` with anchors at `horizon` into the skip-lane stack
/// and the plain stepper, plus the reference reduced automaton.
fn build(
    set: &PatternSet,
    horizon: u8,
) -> (ReducedAutomaton, CompiledAutomaton, CompiledAutomaton) {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, horizon);
    let lane = CompiledAutomaton::compile_with_prefilter(&reduced, anchors);
    let plain = CompiledAutomaton::compile(&reduced);
    (reduced, lane, plain)
}

/// Every chop profile resumed through one `ScanState`, with the cut
/// offsets forced **odd** so no suspension point shares the alignment
/// of the 8-byte skip windows, equals the whole-payload reference — for
/// the skip lane and the sharded matcher, and for chunks alternating
/// between the skip lane, the plain stepper and the reference matcher.
#[test]
fn odd_offset_chop_profiles_with_alternating_resume() {
    let master = master_ruleset();
    let set = extract_preserving(&master, 120, 9);
    let (reduced, lane, plain) = build(&set, AnchorSet::DEFAULT_HORIZON);
    let dtp = DtpMatcher::new(&reduced, &set);
    assert!(lane.prefilter().is_some() && plain.prefilter().is_none());
    let on = CompiledMatcher::new(&lane, &set);
    let off = CompiledMatcher::new(&plain, &set);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    assert!((0..sharded.shard_count()).all(|s| sharded.shard_anchors(s).is_some()));
    let mut gen = TrafficGenerator::new(11);
    let packet = gen.infected_packet(6 << 10, &set, 12);
    let whole = dtp.find_all(&packet.payload);
    for profile in [
        ChopProfile::Mtu(1500),
        ChopProfile::Mtu(64),
        ChopProfile::SingleByte,
        ChopProfile::Random { min: 1, max: 48 },
        ChopProfile::MidPattern { mtu: 900 },
    ] {
        let mut cuts: Vec<usize> = gen
            .chop_points(&packet, &set, profile)
            .into_iter()
            .map(|c| c | 1)
            .filter(|&c| c < packet.payload.len())
            .collect();
        cuts.dedup();
        assert!(cuts.iter().all(|c| c % 2 == 1));
        let segments = chop(&packet.payload, &cuts);

        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for seg in &segments {
            on.scan_chunk_into(&mut state, seg, &mut got);
        }
        assert_eq!(got, whole, "skip lane diverged under odd {profile:?}");
        assert_eq!(state.offset, packet.payload.len() as u64);

        // A state suspended by one scanner must resume exactly under
        // each of the others.
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            match i % 3 {
                0 => on.scan_chunk_into(&mut state, seg, &mut got),
                1 => off.scan_chunk_into(&mut state, seg, &mut got),
                _ => dtp.scan_chunk_into(&mut state, seg, &mut got),
            }
        }
        assert_eq!(
            got, whole,
            "alternating resume diverged under odd {profile:?}"
        );

        let mut flow = sharded.flow_state();
        let mut scratch = sharded.scratch();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(got, whole, "sharded diverged under odd {profile:?}");
    }
    for &(id, end) in &packet.injected {
        assert!(whole.iter().any(|m| m.pattern == id && m.end == end));
    }
}

/// Cuts inside candidate-but-inert text: the words around the patterns
/// keep the lane in its danger walk (never a clean skip window), and
/// the single-byte pattern adds soft exits, so the walk is mid-flight
/// at every split point.
#[test]
fn cuts_inside_calm_windows_and_mid_pair() {
    let set = PatternSet::new(["hers", "she", "attack", "x"]).unwrap();
    let (_, lane, _) = build(&set, AnchorSet::DEFAULT_HORIZON);
    let m = CompiledMatcher::new(&lane, &set);
    let payload = b"the quiet theme there hers the quiet theme attack x end".to_vec();
    let whole = NaiveMatcher::new(&set).find_all(&payload);
    assert_eq!(m.find_all(&payload), whole);
    assert!(whole.len() >= 3);
    for cut in 0..=payload.len() {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        m.scan_chunk_into(&mut state, &payload[..cut], &mut got);
        m.scan_chunk_into(&mut state, &payload[cut..], &mut got);
        assert_eq!(got, whole, "cut at {cut} diverged");
    }
    // Three-way splits with both boundaries odd.
    for (a, b) in [(3usize, 17usize), (7, 9), (1, 31)] {
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        m.scan_chunk_into(&mut state, &payload[..a], &mut got);
        m.scan_chunk_into(&mut state, &payload[a..b], &mut got);
        m.scan_chunk_into(&mut state, &payload[b..], &mut got);
        assert_eq!(got, whole, "splits at {a}/{b} diverged");
    }
}

/// Nocase with a single-byte pattern: the fold is baked into the
/// anchor tables, so the soft exits on `z`/`Z` and mixed-case payloads
/// classify identically to the folded reference scan at every horizon.
#[test]
fn nocase_pair_lane_equivalence() {
    let set = PatternSet::new_nocase(["Attack", "GET /", "hers", "Z"]).unwrap();
    for horizon in 0..=AnchorSet::MAX_HORIZON {
        let (reduced, lane, _) = build(&set, horizon);
        let dtp = DtpMatcher::new(&reduced, &set);
        let on = CompiledMatcher::new(&lane, &set);
        for payload in [
            &b"ATTACK at dawn: get / HeRs aTtAcK z"[..],
            b"zzzzZZZZzzzzZZZZattackZZZZ",
            b"GeT /index gEt hers HERS Z z",
        ] {
            let want = dtp.find_all(payload);
            assert!(!want.is_empty());
            assert_eq!(on.find_all(payload), want, "h={horizon}");
            assert_eq!(on.count(payload), want.len(), "h={horizon}");
        }
    }
}
