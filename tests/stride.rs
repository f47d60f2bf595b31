//! Stride-2 pair-lane equivalence suite: the pair layer must be
//! *scan-invisible*.
//!
//! For every workload shape — clean, infected and adversarial payloads,
//! whole or packetized under every [`ChopProfile`] (including cuts at
//! odd stream offsets and inside calm-pair windows), case-sensitive and
//! nocase, at every anchor horizon, with or without the skip lane —
//! scanning an automaton built with the pair layer must report
//! byte-for-byte the matches of one built without it, which in turn
//! equals the reference matchers. Covers [`CompiledMatcher`] (both the composed lane and the
//! pairs-only core) and [`ShardedMatcher`], plus budget shapes from
//! region-rows-only up to the profiled default.

use dpi_accel::automaton::NaiveMatcher;
use dpi_accel::prelude::*;
use dpi_accel::rulesets::{
    adversarial_payload, chop, extract_preserving, master_ruleset, ChopProfile,
};
use proptest::prelude::*;

/// The three lane stacks under test, each its own automaton built from
/// the same anchor analysis and pair table.
struct Stacks {
    /// Skip lane plus pair layer (the shipped stack).
    both: CompiledAutomaton,
    /// Skip lane alone.
    lane: CompiledAutomaton,
    /// Pair layer alone (the pairs-only core).
    pairs: CompiledAutomaton,
}

/// Compiles `set` with anchors at `horizon` plus a pair layer under
/// `budget` into every lane stack (and the reference reduced automaton).
fn build(set: &PatternSet, horizon: u8, budget: usize) -> (ReducedAutomaton, Stacks) {
    let dfa = Dfa::build(set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let anchors = AnchorSet::build(&dfa, set, horizon);
    let pairs = PairTable::build_with_region(&dfa, set, &anchors, budget);
    let stacks = Stacks {
        both: CompiledAutomaton::compile_with_prefilter(&reduced, anchors.clone())
            .with_pair_table(pairs.clone()),
        lane: CompiledAutomaton::compile_with_prefilter(&reduced, anchors),
        pairs: CompiledAutomaton::compile(&reduced).with_pair_table(pairs),
    };
    (reduced, stacks)
}

/// The budget shapes worth distinguishing: region rows alone (stride-2
/// walk, no excursion stepping), hot rows riding along, and the
/// default.
fn budgets() -> [usize; 3] {
    [
        PairTable::REGION_ROW_BYTES,
        PairTable::REGION_ROW_BYTES + 2 * PairTable::ROW_BYTES,
        PairTable::DEFAULT_BUDGET,
    ]
}

/// Pairs-on ≡ pairs-off ≡ DtpMatcher on generated traffic, across
/// horizons, budgets, and with or without the skip lane.
#[test]
fn generated_traffic_equivalence_across_horizons_and_budgets() {
    let master = master_ruleset();
    for n in [40usize, 300] {
        let set = extract_preserving(&master, n, 42);
        let mut gen = TrafficGenerator::new(7);
        let clean = gen.clean_packet(16 << 10).payload;
        let infected = gen.infected_packet(16 << 10, &set, 24).payload;
        let crafted = adversarial_payload(&set, 4 << 10);
        for horizon in 0..=AnchorSet::MAX_HORIZON {
            for budget in budgets() {
                let (reduced, stacks) = build(&set, horizon, budget);
                let dtp = DtpMatcher::new(&reduced, &set);
                let both = CompiledMatcher::new(&stacks.both, &set);
                let lane_only = CompiledMatcher::new(&stacks.lane, &set);
                let pairs_only = CompiledMatcher::new(&stacks.pairs, &set);
                for (label, payload) in
                    [("clean", &clean), ("infected", &infected), ("adversarial", &crafted)]
                {
                    let want = dtp.find_all(payload);
                    for (name, m) in [
                        ("lane+pairs", &both),
                        ("lane-only", &lane_only),
                        ("pairs-only", &pairs_only),
                    ] {
                        assert_eq!(
                            m.find_all(payload),
                            want,
                            "{name} diverged (n={n} h={horizon} budget={budget} {label})"
                        );
                        assert_eq!(m.count(payload), want.len());
                        assert_eq!(m.is_match(payload), !want.is_empty());
                    }
                }
            }
        }
    }
}

/// Every chop profile resumed through one `ScanState`, with the cut
/// offsets forced **odd** so pair alignment never coincides with the
/// packetization, equals the whole-payload reference — for the pair
/// lane, the pairs-only core, and the sharded matcher, including
/// chunks alternating between the stride-2 and byte-stepper matchers.
#[test]
fn odd_offset_chop_profiles_with_alternating_resume() {
    let master = master_ruleset();
    let set = extract_preserving(&master, 120, 9);
    let (reduced, stacks) = build(&set, AnchorSet::DEFAULT_HORIZON, budgets()[2]);
    let dtp = DtpMatcher::new(&reduced, &set);
    assert!(stacks.both.pairs().is_some() && stacks.lane.pairs().is_none());
    let on = CompiledMatcher::new(&stacks.both, &set);
    let off = CompiledMatcher::new(&stacks.lane, &set);
    let pairs_only = CompiledMatcher::new(&stacks.pairs, &set);
    let sharded = ShardedMatcher::build(&set, &ShardedConfig::with_cores(2)).unwrap();
    assert!((0..sharded.shard_count()).all(|s| sharded.shard_pairs(s).is_some()));
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
        // Force every interior cut to an odd stream offset (the
        // stride-2 lane consumes pairs from wherever the scan stands,
        // so odd suspension points are the interesting ones).
        let mut cuts: Vec<usize> = gen
            .chop_points(&packet, &set, profile)
            .into_iter()
            .map(|c| c | 1)
            .filter(|&c| c < packet.payload.len())
            .collect();
        cuts.dedup();
        assert!(cuts.iter().all(|c| c % 2 == 1));
        let segments = chop(&packet.payload, &cuts);

        for (name, m) in [("lane+pairs", &on), ("pairs-only", &pairs_only)] {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            for seg in &segments {
                m.scan_chunk_into(&mut state, seg, &mut got);
            }
            assert_eq!(got, whole, "{name} diverged under odd {profile:?}");
            assert_eq!(state.offset, packet.payload.len() as u64);
        }

        // Alternating stride-2 / byte-stepper resume: a state suspended
        // by the pair lane must resume exactly under the plain lane and
        // vice versa.
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            match i % 3 {
                0 => on.scan_chunk_into(&mut state, seg, &mut got),
                1 => off.scan_chunk_into(&mut state, seg, &mut got),
                _ => dtp.scan_chunk_into(&mut state, seg, &mut got),
            }
        }
        assert_eq!(got, whole, "alternating resume diverged under odd {profile:?}");

        let mut flow = sharded.flow_state();
        let mut scratch = sharded.scratch();
        let mut got = Vec::new();
        for seg in &segments {
            sharded.scan_chunk_into(&mut flow, seg, &mut scratch, &mut got);
        }
        assert_eq!(got, whole, "sharded pairs diverged under odd {profile:?}");
    }
    for &(id, end) in &packet.injected {
        assert!(whole.iter().any(|m| m.pattern == id && m.end == end));
    }
}

/// Cuts inside calm-pair windows and mid-pair: a payload engineered so
/// the stride-2 walk is mid-flight at every split point.
#[test]
fn cuts_inside_calm_windows_and_mid_pair() {
    let set = PatternSet::new(["hers", "she", "attack", "x"]).unwrap();
    let (_, stacks) = build(&set, AnchorSet::DEFAULT_HORIZON, budgets()[2]);
    assert!(stacks.both.pairs().is_some());
    let m = CompiledMatcher::new(&stacks.both, &set);
    // Candidate-but-calm text around the patterns keeps the walk in
    // stride-2 mode (never the SWAR window).
    let payload = b"the quiet theme there hers the quiet theme attack x end".to_vec();
    let whole = m.find_all(&payload);
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

/// A chunk boundary between a danger hit and the lane-register
/// rebuild: the anchor lane exits where `is_danger(prev, byte)` fires,
/// then rebuilds its history registers from the bytes just behind the
/// exit before the stepper takes over. Splitting the payload exactly
/// at the danger byte and exactly one past it puts the suspend/resume
/// seam inside that exit→rebuild window, while rotating the lane mode
/// per chunk (as in `rotating_pair_mode_resume`) so every mode has to
/// resume from a seam another mode produced.
#[test]
fn danger_exit_rebuild_boundary_alignment() {
    let set = extract_preserving(&master_ruleset(), 120, 0x77);
    let dfa = Dfa::build(&set);
    let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
    let (_, stacks) = build(&set, AnchorSet::DEFAULT_HORIZON, budgets()[2]);
    let mut gen = TrafficGenerator::new(0xD4E);
    let payload = gen.infected_packet(1536, &set, 6).payload;
    let both = CompiledMatcher::new(&stacks.both, &set);
    let lane = CompiledMatcher::new(&stacks.lane, &set);
    let pairs = CompiledMatcher::new(&stacks.pairs, &set);
    let whole = NaiveMatcher::new(&set).find_all(&payload);
    assert_eq!(both.find_all(&payload), whole);

    // Every position where the streamed history raises danger.
    let exits: Vec<usize> = (1..payload.len() - 2)
        .filter(|&j| anchors.is_danger(payload[j - 1] as u32, payload[j]))
        .collect();
    assert!(!exits.is_empty(), "payload never leaves the lane");
    let rotation: [&CompiledMatcher; 3] = [&both, &lane, &pairs];
    for &j in &exits {
        // Cut at the danger byte and one past it: chunk 2 is the
        // single byte whose consumption is the lane exit, so the
        // rebuild's look-behind spans both seams.
        for cuts in [[j, j + 1], [j, j + 2], [j + 1, j + 2]] {
            let segments = chop(&payload, &cuts);
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            for (i, seg) in segments.iter().enumerate() {
                rotation[i % 3].scan_chunk_into(&mut state, seg, &mut got);
            }
            assert_eq!(got, whole, "exit at {j}, cuts {cuts:?} diverged");
        }
    }
}

/// Nocase: the fold is baked into both axes of every pair table, so
/// mixed-case payloads classify identically to the folded scan.
#[test]
fn nocase_pair_lane_equivalence() {
    let set = PatternSet::new_nocase(["Attack", "GET /", "hers", "Z"]).unwrap();
    for horizon in 0..=AnchorSet::MAX_HORIZON {
        for budget in budgets() {
            let (reduced, stacks) = build(&set, horizon, budget);
            let dtp = DtpMatcher::new(&reduced, &set);
            let on = CompiledMatcher::new(&stacks.both, &set);
            let pairs_only = CompiledMatcher::new(&stacks.pairs, &set);
            for payload in [
                &b"ATTACK at dawn: get / HeRs aTtAcK z"[..],
                b"zzzzZZZZzzzzZZZZattackZZZZ",
                b"GeT /index gEt hers HERS Z z",
            ] {
                let want = dtp.find_all(payload);
                assert_eq!(on.find_all(payload), want, "h={horizon} b={budget}");
                assert_eq!(pairs_only.find_all(payload), want, "h={horizon} b={budget}");
            }
        }
    }
}

/// The profiled build is equivalent to the in-degree build whatever the
/// sample (selection changes which states are fast, never what is
/// found) — including a sample that is itself the scanned payload.
#[test]
fn profiled_selection_is_scan_invisible() {
    let master = master_ruleset();
    let set = extract_preserving(&master, 80, 3);
    let dfa = Dfa::build(&set);
    let reduced = ReducedAutomaton::reduce(&dfa, DtpConfig::PAPER);
    let mut gen = TrafficGenerator::new(5);
    let payload = gen.infected_packet(8 << 10, &set, 10).payload;
    let dtp = DtpMatcher::new(&reduced, &set);
    let want = dtp.find_all(&payload);
    for sample in [&b""[..], b"zzzz", &payload] {
        let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
        let pairs = PairTable::build_profiled(
            &dfa,
            &set,
            &anchors,
            PairTable::DEFAULT_BUDGET,
            sample,
        );
        let compiled =
            CompiledAutomaton::compile_with_prefilter(&reduced, anchors).with_pair_table(pairs);
        let m = CompiledMatcher::new(&compiled, &set);
        assert_eq!(m.find_all(&payload), want, "sample len {}", sample.len());
    }
}

fn mixed_patterns() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'z')],
            1..6,
        ),
        1..8,
    )
}

fn mixed_payload(len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'z'),
            Just(b'z'),
            Just(b'z'),
            Just(b'a'),
            Just(b'a'),
            Just(b'b'),
            Just(b'c'),
            Just(b'x'),
        ],
        0..len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any packetization, any horizon, any budget shape: the pair lane
    /// and pairs-only core stream exactly the naive whole-payload scan.
    #[test]
    fn pair_lane_streaming_equivalence(
        patterns in mixed_patterns(),
        payload in mixed_payload(160),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..24),
        horizon in 0..3u8,
        budget_idx in 0..3usize,
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let naive = NaiveMatcher::new(&set).find_all(&payload);
        let mut cuts: Vec<usize> = if payload.len() < 2 {
            Vec::new()
        } else {
            raw_cuts.iter().map(|i| 1 + i.index(payload.len() - 1)).collect()
        };
        cuts.sort_unstable();
        cuts.dedup();
        let segments = chop(&payload, &cuts);

        let (_, stacks) = build(&set, horizon, budgets()[budget_idx]);
        for (name, m) in [
            ("lane+pairs", CompiledMatcher::new(&stacks.both, &set)),
            ("pairs-only", CompiledMatcher::new(&stacks.pairs, &set)),
        ] {
            let mut state = ScanState::fresh();
            let mut got = Vec::new();
            for seg in &segments {
                m.scan_chunk_into(&mut state, seg, &mut got);
            }
            prop_assert_eq!(&got, &naive, "{} h={} cuts {:?}", name, horizon, cuts);
            prop_assert_eq!(m.find_all(&payload), naive.clone());
            prop_assert_eq!(m.is_match(&payload), !naive.is_empty());
        }
    }

    /// Suspended states are interchangeable between the pair lane, the
    /// plain lane, and the pairs-only core — rotating per chunk still
    /// equals the whole-payload scan.
    #[test]
    fn rotating_pair_mode_resume(
        patterns in mixed_patterns(),
        payload in mixed_payload(120),
        raw_cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let Ok(set) = PatternSet::new(&patterns) else { return Ok(()); };
        let naive = NaiveMatcher::new(&set).find_all(&payload);
        let mut cuts: Vec<usize> = if payload.len() < 2 {
            Vec::new()
        } else {
            raw_cuts.iter().map(|i| 1 + i.index(payload.len() - 1)).collect()
        };
        cuts.sort_unstable();
        cuts.dedup();
        let segments = chop(&payload, &cuts);
        let (_, stacks) = build(&set, AnchorSet::DEFAULT_HORIZON, budgets()[1]);
        let both = CompiledMatcher::new(&stacks.both, &set);
        let lane = CompiledMatcher::new(&stacks.lane, &set);
        let pairs = CompiledMatcher::new(&stacks.pairs, &set);
        let mut state = ScanState::fresh();
        let mut got = Vec::new();
        for (i, seg) in segments.iter().enumerate() {
            match i % 3 {
                0 => both.scan_chunk_into(&mut state, seg, &mut got),
                1 => lane.scan_chunk_into(&mut state, seg, &mut got),
                _ => pairs.scan_chunk_into(&mut state, seg, &mut got),
            }
        }
        prop_assert_eq!(got, naive, "rotation diverged at {:?}", cuts);
    }
}
