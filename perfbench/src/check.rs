//! Output checks: a per-flow reference computed before timing, the
//! match comparison every run must pass, and the service's ledger
//! identities. Any failed check ends the benchmark with a nonzero exit.

use dpi_automaton::Match;
use dpi_core::{FlowMatch, ProtoConfig, ProtoFlow, ProtocolStats, RulesetArena, ServiceStats};

use crate::workload::Workload;

/// One occurrence: `(end, pattern)`, the order both lists are sorted in.
pub type Hit = (u64, u32);

fn hit(m: &Match) -> Hit {
    (m.end as u64, m.pattern.0)
}

/// Per-flow sorted hit lists.
pub type PerFlow = Vec<Vec<Hit>>;

/// How a run's matches must relate to the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every flow scanned whole at full fidelity: per-flow multisets
    /// equal the reference.
    Equal,
    /// Bytes were shed or flow states rebuilt, so matches straddling a
    /// cut are lost. A resynced flow continues raw at wire offsets, so a
    /// flow's matches must fit in its reference plus a raw scan of its
    /// wire bytes.
    Subset,
    /// Some flow ran at the flag-only tier, which bypasses normalization
    /// and continues the scanner's offsets from the decoded count: ends
    /// no longer name wire or decoded positions. Every match is still an
    /// occurrence of its pattern in the reference or the wire stream, so
    /// per pattern a flow may report at most their summed counts.
    PatternCount,
}

/// The normalizer-fed exact matches of every flow. For flows whose
/// decoded stream the generator knows (HTTP) this is an exact scan of
/// that stream, independent of the normalizer; otherwise the whole flow
/// goes through one [`ProtoFlow`] into the exact engine.
pub fn reference(w: &Workload, arena: &RulesetArena) -> PerFlow {
    let exact = arena.exact();
    let mut scratch = exact.scratch();
    let mut out = Vec::new();
    let mut stats = ProtocolStats::default();
    (0..w.wire.len())
        .map(|flow| {
            out.clear();
            match &w.decoded {
                Some(decoded) => exact.scan_into(&decoded[flow], &mut scratch, &mut out),
                None => {
                    let mut proto = ProtoFlow::new(exact.flow_state(), service_proto());
                    proto.deliver(
                        &w.wire[flow],
                        false,
                        &mut stats,
                        |_, state, bytes, out| {
                            exact.scan_chunk_into(state, bytes, &mut scratch, out)
                        },
                        &mut out,
                    );
                }
            }
            sorted(out.iter().map(hit).collect())
        })
        .collect()
}

/// A raw exact scan of every flow's wire bytes (the [`Expect::Subset`]
/// allowance for flows that fell back to raw scanning).
pub fn wire_reference(w: &Workload, arena: &RulesetArena) -> PerFlow {
    let mut scratch = arena.exact().scratch();
    let mut out = Vec::new();
    w.wire
        .iter()
        .map(|wire| {
            arena.exact().scan_into(wire, &mut scratch, &mut out);
            sorted(out.iter().map(hit).collect())
        })
        .collect()
}

/// The protocol config the service's workers run (`scoped` forced off).
pub fn service_proto() -> ProtoConfig {
    ProtoConfig {
        scoped: false,
        ..ProtoConfig::default()
    }
}

fn sorted(mut v: Vec<Hit>) -> Vec<Hit> {
    v.sort_unstable();
    v
}

/// Groups a run's matches by flow, each list sorted.
pub fn group(w: &Workload, matches: &[FlowMatch]) -> Result<PerFlow, String> {
    let mut per: PerFlow = vec![Vec::new(); w.wire.len()];
    for m in matches {
        let flow = w
            .flow_of(m.key)
            .ok_or_else(|| format!("match on unknown flow {}", m.key))?;
        per[flow].push(hit(&m.matched));
    }
    Ok(per.into_iter().map(sorted).collect())
}

/// Compares grouped matches against the reference. `wire` is consulted
/// only by the relaxed expectations.
pub fn compare(
    reference: &PerFlow,
    wire: Option<&PerFlow>,
    got: &PerFlow,
    expect: Expect,
) -> Result<(), String> {
    for (flow, (want, have)) in reference.iter().zip(got).enumerate() {
        let extra = || wire.map_or(&[][..], |w| &w[flow][..]);
        let ok = match expect {
            Expect::Equal => want == have,
            Expect::Subset => sub_multiset(have, &merged(want, extra())),
            Expect::PatternCount => {
                let mut allowed = patterns(want);
                allowed.extend(patterns(extra()));
                allowed.sort_unstable();
                sub_multiset(&patterns(have), &allowed)
            }
        };
        if !ok {
            return Err(format!(
                "flow {flow}: {} matches are not {expect:?} to the reference's {}",
                have.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

fn merged(a: &[Hit], b: &[Hit]) -> Vec<Hit> {
    sorted(a.iter().chain(b).copied().collect())
}

fn patterns(hits: &[Hit]) -> Vec<u32> {
    let mut p: Vec<u32> = hits.iter().map(|h| h.1).collect();
    p.sort_unstable();
    p
}

/// `small ⊆ big` as multisets of sorted lists.
fn sub_multiset<T: Ord>(small: &[T], big: &[T]) -> bool {
    let mut big = big.iter();
    small.iter().all(|s| big.by_ref().any(|b| b == s))
}

/// The service's ledger identities after a finished run: every offered
/// packet admitted or shed, every admitted byte scanned or accounted as
/// duplicate, panic loss or buffered residue, and the protocol ledger
/// balanced.
pub fn ledger(s: &ServiceStats) -> Result<(), String> {
    let scanned = s.scanned_bytes();
    let checks = [
        (
            "offered packets == admitted + shed",
            s.offered_packets == s.admitted_packets + s.shed_packets,
        ),
        (
            "offered bytes == admitted + shed",
            s.offered_bytes == s.admitted_bytes + s.shed_bytes,
        ),
        (
            "admitted bytes == scanned + panic-lost + duplicate + buffered",
            s.admitted_bytes
                == scanned + s.workers.panic_lost_bytes + s.reassembly.dup_bytes + s.buffered_bytes,
        ),
        (
            "protocol unaccounted bytes == 0",
            s.workers.protocol.unaccounted_bytes() == 0,
        ),
        (
            "protocol delivered bytes == scanned",
            s.workers.protocol.delivered_bytes == scanned,
        ),
    ];
    match checks.iter().find(|(_, ok)| !ok) {
        Some((what, _)) => Err(format!("ledger: {what} fails: {s:?}")),
        None => Ok(()),
    }
}

/// Which expectation a finished service run must meet.
pub fn expectation(s: &ServiceStats) -> Expect {
    let w = &s.workers;
    if w.tier_bytes[2] > 0 || w.protocol.tier_bypassed > 0 {
        Expect::PatternCount
    } else if s.shed_packets > 0 || w.state_rebuilds > 0 || w.resyncs > 0 {
        Expect::Subset
    } else {
        Expect::Equal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> PerFlow {
        vec![vec![(4, 0), (9, 1), (9, 2)], vec![], vec![(3, 1)]]
    }

    #[test]
    fn equal_accepts_the_reference_itself() {
        let r = reference();
        assert!(compare(&r, None, &r.clone(), Expect::Equal).is_ok());
    }

    #[test]
    fn one_planted_missing_match_is_rejected() {
        let r = reference();
        let mut got = r.clone();
        got[0].remove(1);
        assert!(compare(&r, None, &got, Expect::Equal).is_err());
        // A lossy run may miss it.
        assert!(compare(&r, None, &got, Expect::Subset).is_ok());
    }

    #[test]
    fn a_match_outside_the_reference_is_rejected_at_every_level() {
        let r = reference();
        let mut got = r.clone();
        got[1].push((7, 3));
        for expect in [Expect::Equal, Expect::Subset, Expect::PatternCount] {
            assert!(compare(&r, None, &got, expect).is_err(), "{expect:?}");
        }
    }

    #[test]
    fn relaxed_levels_admit_wire_matches() {
        let r = reference();
        let wire: PerFlow = vec![vec![(12, 1)], vec![], vec![]];
        let mut got = r.clone();
        got[0].push((12, 1));
        assert!(compare(&r, Some(&wire), &got, Expect::Subset).is_ok());
        // Same pattern at a shifted offset: only the pattern count holds.
        got[0].pop();
        got[0].push((10, 1));
        assert!(compare(&r, Some(&wire), &got, Expect::Subset).is_err());
        assert!(compare(&r, Some(&wire), &got, Expect::PatternCount).is_ok());
    }

    #[test]
    fn ledger_rejects_an_unbalanced_run() {
        let mut s = ServiceStats {
            offered_packets: 2,
            offered_bytes: 10,
            admitted_packets: 2,
            admitted_bytes: 10,
            ..ServiceStats::default()
        };
        s.workers.tier_bytes[0] = 10;
        s.workers.protocol.delivered_bytes = 10;
        s.workers.protocol.raw_bytes = 10;
        assert!(ledger(&s).is_ok());
        s.workers.tier_bytes[0] = 9;
        assert!(ledger(&s).is_err());
    }
}
