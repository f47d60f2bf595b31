//! Anchor-byte analysis: which bytes can pull the automaton out of its
//! start-state neighborhood — and, by complement, which bytes a scanner
//! may skip without stepping the automaton at all.
//!
//! Real DPI traffic is overwhelmingly *clean*: the scanner sits in the
//! start state's neighborhood for almost every input byte, yet a
//! move-function scanner still pays a full transition lookup per byte.
//! The hardware shrugs — it does one lookup per cycle no matter what —
//! but the software fast path can exploit the skew: derive, once at
//! build time, byte classifications that prove most steps boring, and
//! fast-forward through them.
//!
//! [`AnchorSet`] is that derivation, with a configurable **shallow-depth
//! horizon** `H` (0, 1 or 2; default 1):
//!
//! - the *shallow region* is the set of states of depth ≤ `H`;
//! - the **danger table** is the exact per-byte exit test: bit
//!   `(prev, c)` says whether consuming byte `c` right after byte `prev`
//!   may leave the region or enter an accepting state. A clear bit
//!   proves the step stays shallow with nothing to report — resolved
//!   without touching the automaton's arenas at all;
//! - a byte is **skippable** when it is non-danger under *every*
//!   predecessor and resets the automaton to the start state. Skippable
//!   runs of any length need no per-byte test — a SWAR loop classifies
//!   8 bytes per iteration and jumps to the next candidate anchor.
//!
//! The correctness backbone is the longest-suffix invariant (DESIGN.md
//! §5, pinned by `dfa::tests`): after any input, the DFA state's path is
//! exactly the longest input suffix that is a pattern prefix. Hence a
//! state of depth ≤ `H ≤ 2` is a *function of the last two input bytes*,
//! and those bytes are precisely the two history registers every scanner
//! already carries ([`ScanState::prev`]/[`ScanState::prev2`]) or —
//! mid-chunk — sit in the input buffer itself. That is what makes a skip
//! lane resumable: the DTP history registers are provably **dead** at
//! every skip point (nothing a skipped byte would have written into them
//! can ever be observed), and the exact `(state, prev, prev2)` registers
//! the plain scan would hold are reconstructible on demand from the
//! buffer tail — the state by replaying at most two bytes from the start
//! state under start-signal masking.
//!
//! Why the exit test can key on a byte *pair* even though depth-3 paths
//! have three bytes: from a region state (depth ≤ 2, path a suffix of
//! `(y, c)` where `y, c` are the previous two stream bytes), consuming
//! `d` lands on
//!
//! - the depth-3 state `(y, c, d)` — only if such a path exists, which
//!   implies `(c, d)` are the *last two* bytes of some depth-3 path:
//!   over-approximated by one pair bit (a false hit just wakes the
//!   exact stepper early — soundness is one-directional);
//! - the depth-2 state `(c, d)` — inside the region; an exit only if it
//!   accepts;
//! - the depth-1 state `(d)` or the start state — an exit only if it
//!   accepts (single-byte patterns).
//!
//! Depth ≥ 4 is impossible: a suffix of length 4 ending at `d` would
//! need the pre-`d` state at depth ≥ 3, contradicting region residency.
//! So one 257 × 256-bit table — indexed by the previous byte, with row
//! 256 for "no byte observed yet" (start-signal masking) — is an exact
//! *sound* exit test, and everything the lane consumes is provably
//! matchless and shallow.
//!
//! The analysis lives here, beside the shard planning, because it is a
//! property of the *pattern set's DFA* alone — independent of the DTP
//! configuration the automaton is later reduced and compiled under. The
//! compiled engine (`dpi-core::compiled`) embeds an `AnchorSet` and runs
//! the skip lane; per-shard automata get *smaller* anchor sets than the
//! master's (fewer patterns → fewer anchors), so sharded scanning skips
//! strictly more of the same traffic.
//!
//! [`ScanState::prev`]: crate::ScanState::prev
//! [`ScanState::prev2`]: crate::ScanState::prev2

use crate::dfa::Dfa;
use crate::pattern::PatternSet;
use crate::trie::StateId;

/// Number of 64-bit words in a 256-bit byte bitmap.
const BYTE_WORDS: usize = 4;

/// Rows in the danger table: one per possible previous-byte value
/// `0..=255`, plus row 256 for "no byte observed yet" (the same
/// encoding the compiled engine's `HIST_NONE` register uses).
const DANGER_ROWS: usize = 257;

/// The build-time anchor analysis of one pattern set's DFA: byte
/// classifications and state bitsets that let a scanner fast-forward
/// through clean traffic. Build once with [`AnchorSet::build`]; the
/// compiled engine embeds it via `CompiledAutomaton::compile_with_prefilter`.
///
/// # Examples
///
/// ```
/// use dpi_automaton::{AnchorSet, Dfa, PatternSet};
///
/// let set = PatternSet::new(["he", "she", "his", "hers"])?;
/// let dfa = Dfa::build(&set);
/// let anchors = AnchorSet::build(&dfa, &set, AnchorSet::DEFAULT_HORIZON);
/// // 'h' heads two patterns: a candidate anchor. 'z' appears nowhere:
/// // skippable.
/// assert!(!anchors.is_skippable(b'h'));
/// assert!(anchors.is_skippable(b'z'));
/// // "he" completes a pattern — its second byte is dangerous after 'h',
/// // but harmless after anything else.
/// assert!(anchors.is_danger(b'h' as u32, b'e'));
/// assert!(!anchors.is_danger(b'x' as u32, b'e'));
/// # Ok::<(), dpi_automaton::PatternSetError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorSet {
    /// Shallow-region depth bound (0, 1 or 2).
    horizon: u8,
    /// States in the source DFA (for compatibility checks downstream).
    states: usize,
    /// 256-bit bitmap over **raw** input bytes (case fold baked in):
    /// bit set ⇔ the byte is skippable from anywhere in the region.
    skip: [u64; BYTE_WORDS],
    /// 257 × 256-bit rows, both axes **raw** bytes (case fold baked in;
    /// row 256 = no history): bit `(prev, c)` set ⇔ consuming byte `c`
    /// with previous stream byte `prev` may leave the shallow region or
    /// enter an accepting state — the exact per-byte exit test of the
    /// lane. Folded register values index the same rows correctly
    /// because folding is idempotent.
    danger: Vec<u64>,
    /// Same shape as `danger`: the subset of danger bits that are
    /// **soft** — the step provably stays in the region and lands on
    /// `d1[c]`, it merely *accepts* (single-byte patterns). The lane
    /// emits those matches itself and keeps going; only hard bits wake
    /// the stepper.
    soft: Vec<u64>,
    /// Raw byte → id of the depth-1 state whose (folded) path is that
    /// byte, or `StateId::START` when no pattern starts with it.
    d1: [u32; 256],
    /// Bitset over state ids: depth ≤ `horizon` (lane residency test).
    shallow: Vec<u64>,
    /// Byte-indexed mirror of the skip bitmap (`0` = skippable, `1` =
    /// candidate): the SWAR window loop folds eight of these into its
    /// candidate mask with one indexed load each — half the µops of
    /// re-deriving the bit from the packed bitmap per byte.
    cand: [u8; 256],
    /// Conditional `(prev, c)` exit pairs installed in the danger table
    /// (pairs beyond the unconditional per-byte exits).
    pair_count: usize,
}

impl AnchorSet {
    /// The default shallow-depth horizon: depth ≤ 1. Measured on the
    /// clean-traffic workloads, horizon 1 dominates: horizon 0 exits on
    /// every pattern-heading byte (a fifth of clean traffic), while
    /// horizon 2 *shrinks* the skippable set (at 6,275 rules to zero —
    /// nearly every byte value ends some depth-3 path) and its
    /// pair-keyed over-approximation of the triple boundary test fires
    /// more, not less, than horizon 1's exact pair test. The
    /// shallow-accept fast path ([`AnchorSet::is_soft`]) removes the
    /// exit class horizon 2 was meant to absorb.
    pub const DEFAULT_HORIZON: u8 = 1;

    /// Largest supported horizon. Depth-3 residency would need a 2²⁴-bit
    /// triple table for the exit test, and — decisively — the region
    /// state would stop being a function of the two history bytes a
    /// [`ScanState`](crate::ScanState) carries across chunk boundaries,
    /// so a mid-skip suspend could not be reconstructed.
    pub const MAX_HORIZON: u8 = 2;

    /// Derives the anchor analysis of `dfa` (built for `set`) under the
    /// given shallow-depth `horizon`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon > AnchorSet::MAX_HORIZON`.
    pub fn build(dfa: &Dfa, set: &PatternSet, horizon: u8) -> AnchorSet {
        assert!(
            horizon <= Self::MAX_HORIZON,
            "anchor horizon {horizon} exceeds the supported maximum {}",
            Self::MAX_HORIZON
        );
        let n = dfa.len();
        // Folded-space facts: depth-1 map and accepts, depth-2 paths and
        // accepts, last-two-byte pairs of depth-3 paths.
        let mut d1f = [StateId::START.0; 256];
        let mut accept1 = [false; 256];
        let mut pair2 = vec![0u64; 256 * BYTE_WORDS];
        let mut accept2 = vec![0u64; 256 * BYTE_WORDS];
        let mut trip23 = vec![0u64; 256 * BYTE_WORDS];
        let mut last_of = [false; 256]; // folded byte ends some ≤H-depth path
        for s in dfa.states() {
            match dfa.depth(s) {
                1 => {
                    let c = dfa.last_byte(s).expect("depth-1 state has a last byte");
                    d1f[c as usize] = s.0;
                    if !dfa.output(s).is_empty() {
                        accept1[c as usize] = true;
                    }
                }
                2 if horizon >= 1 => {
                    let [y, c] = dfa.last_two_bytes(s).expect("depth-2 has two bytes");
                    set_bit(&mut pair2, y as usize * 256 + c as usize);
                    if !dfa.output(s).is_empty() {
                        set_bit(&mut accept2, y as usize * 256 + c as usize);
                    }
                    last_of[c as usize] = true;
                }
                3 if horizon >= 2 => {
                    let [y, c] = dfa.last_two_bytes(s).expect("depth-3 has two bytes");
                    set_bit(&mut trip23, y as usize * 256 + c as usize);
                    last_of[c as usize] = true;
                }
                _ => {}
            }
        }
        // Expand into the raw-indexed runtime tables, baking the case
        // fold into both axes so the scan loop never folds a byte just
        // to classify it. Row 256 is the no-history row: only
        // unconditional (single-byte) exits can fire on a flow's first
        // byte — the start-signal masking, in table form.
        let mut d1 = [StateId::START.0; 256];
        let mut danger = vec![0u64; DANGER_ROWS * BYTE_WORDS];
        let mut soft = vec![0u64; DANGER_ROWS * BYTE_WORDS];
        let mut pair_count = 0usize;
        for (c_raw, d1_slot) in d1.iter_mut().enumerate() {
            let c = set.fold(c_raw as u8) as usize;
            *d1_slot = d1f[c];
            for p_raw in 0..DANGER_ROWS {
                // Hard exits: the step may leave the region (or land on
                // a state the lane cannot identify); the stepper takes
                // over.
                let hard = if p_raw < 256 {
                    let p = set.fold(p_raw as u8) as usize;
                    let idx = p * 256 + c;
                    match horizon {
                        0 => d1f[c] != StateId::START.0,
                        1 => get_bit(&pair2, idx),
                        _ => get_bit(&trip23, idx) || get_bit(&accept2, idx),
                    }
                } else {
                    // No-history row: on a flow's first byte no pair or
                    // triple can complete (start-signal masking).
                    horizon == 0 && d1f[c] != StateId::START.0
                };
                // Soft exits: the step provably lands on d1[c] inside
                // the region and merely accepts — the suffix argument
                // needs every deeper candidate ruled out, which the
                // hard conditions above do exactly.
                let is_soft = !hard && horizon >= 1 && accept1[c];
                if hard || is_soft {
                    if hard && horizon >= 1 && p_raw < 256 {
                        pair_count += 1;
                    }
                    set_bit(&mut danger, p_raw * 256 + c_raw);
                }
                if is_soft {
                    set_bit(&mut soft, p_raw * 256 + c_raw);
                }
            }
        }
        // Skippable raw bytes: the folded byte must head no pattern — so
        // every region state steps on it to START — and end no path the
        // region's exit test keys on, so it can complete nothing with
        // any predecessor. That is what makes whole runs skippable
        // without per-byte pair tests.
        let mut skip = [0u64; BYTE_WORDS];
        for raw in 0..256usize {
            let f = set.fold(raw as u8) as usize;
            if d1f[f] == StateId::START.0 && !last_of[f] {
                skip[raw >> 6] |= 1u64 << (raw & 63);
            }
        }
        let mut shallow = vec![0u64; n.div_ceil(64)];
        for s in dfa.states() {
            if dfa.depth(s) <= horizon as u16 {
                shallow[s.index() >> 6] |= 1u64 << (s.index() & 63);
            }
        }
        let mut cand = [1u8; 256];
        for (raw, slot) in cand.iter_mut().enumerate() {
            if (skip[raw >> 6] >> (raw & 63)) & 1 != 0 {
                *slot = 0;
            }
        }
        AnchorSet {
            horizon,
            states: n,
            skip,
            soft,
            d1,
            shallow,
            pair_count,
            cand,
            danger,
        }
    }

    /// The shallow-depth horizon this analysis was built with.
    pub fn horizon(&self) -> u8 {
        self.horizon
    }

    /// States in the DFA the analysis was derived from.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Number of raw byte values the skip lane may fast-forward over.
    pub fn skippable_bytes(&self) -> usize {
        self.skip.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of raw byte values that are candidate anchors
    /// (`256 − skippable`).
    pub fn anchor_bytes(&self) -> usize {
        256 - self.skippable_bytes()
    }

    /// Conditional `(prev, byte)` exit pairs installed in the danger
    /// table (beyond the unconditional single-byte exits).
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// Resident bytes of the analysis tables (what the scan loop can
    /// touch: skip bitmap, danger rows, depth-1 map, shallow bitset).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(&self.skip)
            + self.danger.len() * 8
            + self.soft.len() * 8
            + self.d1.len() * 4
            + self.shallow.len() * 8
            + self.cand.len()
    }

    /// `true` when **raw** input byte `raw` is skippable (case fold is
    /// baked into the bitmap).
    #[inline(always)]
    pub fn is_skippable(&self, raw: u8) -> bool {
        (self.skip[(raw >> 6) as usize] >> (raw & 63)) & 1 != 0
    }

    /// SWAR classification of 8 raw bytes at once: `w` is a little-endian
    /// window (`u64::from_le_bytes`), the result has bit `j` set ⇔ byte
    /// `j` of the window is a candidate anchor. `0` means the whole
    /// window is skippable; otherwise `trailing_zeros()` is the offset of
    /// the first candidate. Each lane's bitmap test folds into the mask
    /// with no branches.
    #[inline(always)]
    pub fn candidate_mask(&self, w: u64) -> u32 {
        let mut m = 0u32;
        for j in 0..8 {
            let b = (w >> (8 * j)) as u8;
            m |= (self.cand[b as usize] as u32) << j;
        }
        m
    }

    /// Exact per-byte exit test of the lane: `true` when consuming
    /// **raw** byte `c` with previous stream byte `prev` may leave the
    /// shallow region or enter an accepting state; `false` guarantees
    /// the step stays in the region with nothing to report. `prev` is a
    /// raw *or* folded byte value (folding is idempotent, both index the
    /// same row), or `0x100` for "no byte observed yet" (the
    /// start-signal masking).
    ///
    /// # Panics
    ///
    /// Debug-asserts `prev ≤ 0x100`.
    #[inline(always)]
    pub fn is_danger(&self, prev: u32, c: u8) -> bool {
        debug_assert!(prev <= 0x100, "prev register out of range: {prev:#x}");
        let idx = prev as usize * 256 + c as usize;
        (self.danger[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    /// Discriminates a [`AnchorSet::is_danger`] hit: `true` when the
    /// step is a **soft** exit — it provably stays in the region,
    /// landing on [`AnchorSet::depth1_state`]`(c)`, and merely enters an
    /// accepting state (single-byte patterns). The lane emits that
    /// state's outputs itself and continues; only hard hits wake the
    /// stepper. Meaningful only for `(prev, c)` pairs whose danger bit
    /// is set.
    #[inline(always)]
    pub fn is_soft(&self, prev: u32, c: u8) -> bool {
        debug_assert!(prev <= 0x100, "prev register out of range: {prev:#x}");
        let idx = prev as usize * 256 + c as usize;
        (self.soft[idx >> 6] >> (idx & 63)) & 1 != 0
    }

    /// The depth-1 state whose (folded) path is **raw** byte `c`, or the
    /// start state. For horizons ≤ 1 this alone reconstructs the lane's
    /// resume state; horizon 2 replays the last two bytes through the
    /// stepper instead (the state may sit at depth 2).
    #[inline(always)]
    pub fn depth1_state(&self, c: u8) -> u32 {
        self.d1[c as usize]
    }

    /// `true` when `state` lies in the shallow region (depth ≤ horizon)
    /// — the lane residency test the scan loop runs after each stepped
    /// byte.
    #[inline(always)]
    pub fn contains_state(&self, state: u32) -> bool {
        (self.shallow[(state >> 6) as usize] >> (state & 63)) & 1 != 0
    }
}

#[inline]
fn set_bit(words: &mut [u64], idx: usize) {
    words[idx >> 6] |= 1u64 << (idx & 63);
}

#[inline]
fn get_bit(words: &[u64], idx: usize) -> bool {
    (words[idx >> 6] >> (idx & 63)) & 1 != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::match_event::MultiMatcher;
    use crate::naive::NaiveMatcher;

    fn figure1() -> (PatternSet, Dfa) {
        let set = PatternSet::new(["he", "she", "his", "hers"]).unwrap();
        let dfa = Dfa::build(&set);
        (set, dfa)
    }

    /// The safety contract, checked exhaustively against the DFA: from
    /// every shallow state with every *consistent* history, a non-danger
    /// byte must keep the automaton in the region with no output, and a
    /// skippable byte must land on START. Consistent histories are
    /// enumerated from the suffix invariant: the previous byte(s) are
    /// the state's path suffix, and for states shallower than the
    /// horizon any predecessor bytes that would *not* have produced a
    /// deeper state.
    fn assert_sound(set: &PatternSet, dfa: &Dfa, horizon: u8) {
        let anchors = AnchorSet::build(dfa, set, horizon);
        for s in dfa.states() {
            if dfa.depth(s) > horizon as u16 {
                assert!(!anchors.contains_state(s.0), "{s} must not be shallow");
                continue;
            }
            assert!(anchors.contains_state(s.0), "{s} must be shallow");
            // Previous-byte values consistent with residing in `s`.
            let prevs: Vec<u32> = match dfa.depth(s) {
                0 => {
                    // START: the previous byte (if any) heads no pattern.
                    let mut p: Vec<u32> = (0..256u32)
                        .filter(|&b| anchors.depth1_state(b as u8) == StateId::START.0)
                        .collect();
                    p.push(0x100);
                    p
                }
                _ => vec![dfa.last_byte(s).expect("depth ≥ 1") as u32],
            };
            for c in 0..=255u8 {
                let next = dfa.step(s, c);
                let accepts = !dfa.output(next).is_empty();
                if anchors.is_skippable(c) {
                    // Test sets are case-sensitive: fold = identity.
                    assert_eq!(next, StateId::START, "skip byte {c:#04x} from {s}");
                    assert!(!accepts);
                }
                for &prev in &prevs {
                    if !anchors.is_danger(prev, c) {
                        assert!(
                            dfa.depth(next) <= horizon as u16,
                            "non-danger byte {c:#04x} from {s} (prev {prev:#x}) left the region"
                        );
                        assert!(!accepts, "non-danger byte {c:#04x} accepts from {s}");
                        assert!(anchors.contains_state(next.0));
                        if horizon <= 1 {
                            assert_eq!(
                                next.0,
                                anchors.depth1_state(c),
                                "h≤1 resume state diverged on {c:#04x} from {s}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn figure1_sound_under_every_horizon() {
        let (set, dfa) = figure1();
        for h in 0..=AnchorSet::MAX_HORIZON {
            assert_sound(&set, &dfa, h);
        }
    }

    #[test]
    fn assorted_sets_sound() {
        for patterns in [
            vec!["a".to_string()],
            vec!["aa".into(), "ab".into(), "ba".into()],
            vec!["GET /".into(), "POST /".into(), "Host:".into()],
            vec!["x".into(), "xy".into(), "xyz".into(), "yz".into()],
            (0..40).map(|i| format!("p{i:02}x")).collect::<Vec<_>>(),
        ] {
            let set = PatternSet::new(&patterns).unwrap();
            let dfa = Dfa::build(&set);
            for h in 0..=AnchorSet::MAX_HORIZON {
                assert_sound(&set, &dfa, h);
            }
        }
    }

    #[test]
    fn horizon0_anchors_are_exactly_start_bytes() {
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 0);
        assert_eq!(anchors.anchor_bytes(), 2); // 'h' and 's'
        assert!(!anchors.is_skippable(b'h'));
        assert!(!anchors.is_skippable(b's'));
        assert!(anchors.is_skippable(b'e')); // continuation bytes skippable at H=0
        assert_eq!(anchors.pair_count(), 0);
        // Shallow region is the start state alone.
        assert!(anchors.contains_state(StateId::START.0));
        for s in dfa.states().skip(1) {
            assert!(!anchors.contains_state(s.0));
        }
    }

    #[test]
    fn horizon1_pairs_and_second_bytes() {
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 1);
        // Depth-2 paths he, hi, sh become conditional exits.
        assert_eq!(anchors.pair_count(), 3);
        // 'e', 'i' end pairs → candidate anchors even though they head
        // no pattern; 'r' ends nothing at depth ≤ 2.
        assert!(!anchors.is_skippable(b'e'));
        assert!(!anchors.is_skippable(b'i'));
        assert!(anchors.is_skippable(b'r'));
        // Danger fires exactly on the pair, not on unrelated history.
        assert!(anchors.is_danger(b'h' as u32, b'e'));
        assert!(!anchors.is_danger(b'x' as u32, b'e'));
        assert!(!anchors.is_danger(0x100, b'e'));
        // Depth-1 map round-trips.
        let h = dfa.step(StateId::START, b'h');
        assert_eq!(anchors.depth1_state(b'h'), h.0);
        assert_eq!(anchors.depth1_state(b'q'), StateId::START.0);
    }

    #[test]
    fn horizon2_exits_on_third_bytes_and_accepting_pairs() {
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 2);
        // Depth-2 states (he, hi, sh) are now *residents*; the pair
        // "he" still exits — it accepts. "sh"/"hi" do not exit...
        assert!(anchors.is_danger(b'h' as u32, b'e')); // he accepts
        assert!(!anchors.is_danger(b's' as u32, b'h')); // sh resident
        assert!(!anchors.is_danger(b'h' as u32, b'i')); // hi resident
        // ...but the last two bytes of depth-3 paths (she, her, his) do.
        assert!(anchors.is_danger(b'h' as u32, b'e')); // (s)he
        assert!(anchors.is_danger(b'e' as u32, b'r')); // (h)er
        assert!(anchors.is_danger(b'i' as u32, b's')); // (h)is
        // 's' ends "his"→ not skippable; 'r' ends "her" → not skippable.
        assert!(!anchors.is_skippable(b'r'));
        assert!(!anchors.is_skippable(b's'));
        assert!(anchors.is_skippable(b'z'));
        // Depth-2 states are in the region, depth-3 are not.
        let h = dfa.step(StateId::START, b'h');
        let hi = dfa.step(h, b'i');
        assert_eq!(dfa.depth(hi), 2);
        assert!(anchors.contains_state(hi.0));
        let his = dfa.step(hi, b's');
        assert!(!anchors.contains_state(his.0));
    }

    #[test]
    fn single_byte_patterns_are_danger_everywhere() {
        let set = PatternSet::new(["a", "bc"]).unwrap();
        let dfa = Dfa::build(&set);
        for h in 0..=AnchorSet::MAX_HORIZON {
            let anchors = AnchorSet::build(&dfa, &set, h);
            assert!(!anchors.is_skippable(b'a'), "horizon {h}");
            for prev in (0..256u32).chain([0x100]) {
                assert!(anchors.is_danger(prev, b'a'), "horizon {h} prev {prev:#x}");
            }
        }
        // ... and the naive matcher confirms why: 'a' alone is a match.
        assert_eq!(NaiveMatcher::new(&set).find_all(b"a").len(), 1);
    }

    #[test]
    fn nocase_fold_is_baked_into_tables() {
        let set = PatternSet::new_nocase(["attack"]).unwrap();
        let dfa = Dfa::build(&set);
        let anchors = AnchorSet::build(&dfa, &set, 2);
        // Both cases of the start byte are anchors; unrelated bytes skip.
        assert!(!anchors.is_skippable(b'a'));
        assert!(!anchors.is_skippable(b'A'));
        assert!(anchors.is_skippable(b'z'));
        assert!(anchors.is_skippable(b'Z'));
        // The danger rows fold both axes: "tt" (3rd byte after "at").
        assert!(anchors.is_danger(b't' as u32, b't'));
        assert!(anchors.is_danger(b'T' as u32, b'T'));
        assert_eq!(anchors.depth1_state(b'A'), anchors.depth1_state(b'a'));
    }

    #[test]
    fn candidate_mask_matches_scalar_classification() {
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 1);
        let windows: [[u8; 8]; 4] = [
            *b"zzzzzzzz",
            *b"zzzhzzzz",
            *b"hershey!",
            [0u8, 255, b'e', b'z', b's', 1, 2, 3],
        ];
        for bytes in windows {
            let m = anchors.candidate_mask(u64::from_le_bytes(bytes));
            for (j, &b) in bytes.iter().enumerate() {
                assert_eq!(
                    (m >> j) & 1 != 0,
                    !anchors.is_skippable(b),
                    "byte {j} of {bytes:?}"
                );
            }
        }
        assert_eq!(anchors.candidate_mask(u64::from_le_bytes(*b"zzzzzzzz")), 0);
    }

    #[test]
    fn horizon_cap_is_enforced() {
        let (set, dfa) = figure1();
        let err = std::panic::catch_unwind(|| AnchorSet::build(&dfa, &set, 3));
        assert!(err.is_err(), "horizon 3 must be rejected");
    }

    #[test]
    fn deeper_horizons_trade_skip_set_for_fewer_exit_pairs() {
        // More patterns than figure 1, so every horizon has work to do.
        let patterns: Vec<String> = ["he", "she", "his", "hers", "GET /", "Host:", "ab", "abc"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let set = PatternSet::new(&patterns).unwrap();
        let dfa = Dfa::build(&set);
        let h0 = AnchorSet::build(&dfa, &set, 0);
        let h1 = AnchorSet::build(&dfa, &set, 1);
        let h2 = AnchorSet::build(&dfa, &set, 2);
        // The skippable set can only shrink as the horizon deepens...
        assert!(h0.skippable_bytes() >= h1.skippable_bytes());
        assert!(h1.skippable_bytes() >= h2.skippable_bytes());
        // ...while the region grows.
        let shallow = |a: &AnchorSet| dfa.states().filter(|s| a.contains_state(s.0)).count();
        assert!(shallow(&h0) < shallow(&h1));
        assert!(shallow(&h1) < shallow(&h2));
    }

    #[test]
    fn memory_accounting_counts_all_tables() {
        let (set, dfa) = figure1();
        let anchors = AnchorSet::build(&dfa, &set, 1);
        // skip 32 B + (danger + soft) 2×257×32 B + d1 1 KiB + shallow.
        assert!(anchors.memory_bytes() >= 32 + 2 * 257 * 32 + 1024 + 8);
        assert!(anchors.memory_bytes() < 32 * 1024);
        assert_eq!(anchors.states(), dfa.len());
        assert_eq!(anchors.horizon(), 1);
    }
}
