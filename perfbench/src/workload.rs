//! The three traffic shapes. Each is generated from a seed; the service
//! sees only the generated segments.
//!
//! | workload | flows | segments | what it loads |
//! |---|---|---|---|
//! | `bulk_tls` | 32 TLS streams | 1,460 B, in order | the Exact scan kernel |
//! | `small_chatter` | 512 mixed flows, 1 in 8 infected | 64 B, in order | per-packet plumbing, match emission |
//! | `http_reorder` | 64 keep-alive HTTP/1.1 connections | 200–1,460 B, shuffled in windows of 4 | reassembly buffering, HTTP decoding |

use dpi_automaton::PatternSet;
use dpi_core::FlowKey;
use dpi_rulesets::{ChopProfile, Packet, SegmentProfile, TrafficGenerator};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["bulk_tls", "small_chatter", "http_reorder"];

/// Packets the open-loop producer releases per burst, on every
/// workload. Below the ladder's default `high_water` (48), so one burst
/// alone never reads as overload.
pub const BURST: usize = 32;

/// Flow keys start here so that key 0 is never used.
const KEY_BASE: u128 = 0xFACE_0000;

/// One segment on the wire: bytes `seq..seq + len` of flow `flow`'s wire
/// stream. Sequence offsets are relative to flow start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub flow: u32,
    pub seq: u32,
    pub len: u32,
}

/// A generated workload: per-flow streams plus the arrival order.
#[derive(Debug, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Each flow's wire bytes.
    pub wire: Vec<Vec<u8>>,
    /// Each flow's decoded stream, where the generator knows it (HTTP):
    /// what a correct normalizer feeds the scanner.
    pub decoded: Option<Vec<Vec<u8>>>,
    /// Segments in arrival order.
    pub arrivals: Vec<Arrival>,
}

/// Sizes of one workload; [`Spec::of`] gives the benchmark's.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub flows: usize,
    /// Bytes per flow (`bulk_tls`, `small_chatter`) or HTTP messages per
    /// connection (`http_reorder`).
    pub flow_len: usize,
}

impl Spec {
    /// The benchmark's sizes for workload `name`.
    pub fn of(name: &str) -> Option<Spec> {
        match name {
            "bulk_tls" => Some(Spec {
                flows: 32,
                flow_len: 512 << 10,
            }),
            "small_chatter" => Some(Spec {
                flows: 512,
                flow_len: 16 << 10,
            }),
            "http_reorder" => Some(Spec {
                flows: 64,
                flow_len: 48,
            }),
            _ => None,
        }
    }
}

impl Workload {
    /// The service-facing key of flow `flow`.
    pub fn key(flow: u32) -> FlowKey {
        FlowKey(KEY_BASE + flow as u128)
    }

    /// The flow index behind `key`, if it is one of this workload's.
    pub fn flow_of(&self, key: FlowKey) -> Option<usize> {
        let flow = key.0.checked_sub(KEY_BASE)?;
        usize::try_from(flow).ok().filter(|&f| f < self.wire.len())
    }

    /// Payload bytes of one arrival.
    pub fn payload(&self, a: Arrival) -> &[u8] {
        let start = a.seq as usize;
        &self.wire[a.flow as usize][start..start + a.len as usize]
    }

    /// Total offered payload bytes.
    pub fn bytes(&self) -> u64 {
        self.arrivals.iter().map(|a| a.len as u64).sum()
    }
}

/// Generates workload `name` at the benchmark's size.
pub fn generate(name: &str, seed: u64, set: &PatternSet) -> Option<Workload> {
    Some(generate_with(name, Spec::of(name)?, seed, set))
}

/// Generates workload `name` at size `spec`.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn generate_with(name: &str, spec: Spec, seed: u64, set: &PatternSet) -> Workload {
    let mut gen = TrafficGenerator::new(seed);
    match name {
        "bulk_tls" => {
            let wire: Vec<Vec<u8>> = (0..spec.flows)
                .map(|_| gen.tls_stream(spec.flow_len).payload)
                .collect();
            let pieces = wire.iter().map(|w| mtu_pieces(w.len(), 1460)).collect();
            interleave(&mut gen, "bulk_tls", wire, None, pieces)
        }
        "small_chatter" => {
            // One flow in eight infected with six planted occurrences.
            let mix = gen.service_mix(spec.flows, spec.flow_len, 64, set, 8, 6);
            let mut wire = vec![Vec::with_capacity(spec.flow_len); spec.flows];
            let arrivals = mix
                .into_iter()
                .map(|(flow, segment)| {
                    // service_mix emits each flow's segments in order.
                    assert_eq!(segment.seq as usize, wire[flow].len());
                    wire[flow].extend_from_slice(&segment.bytes);
                    Arrival {
                        flow: flow as u32,
                        seq: segment.seq as u32,
                        len: segment.bytes.len() as u32,
                    }
                })
                .collect();
            Workload {
                name: "small_chatter",
                wire,
                decoded: None,
                arrivals,
            }
        }
        "http_reorder" => {
            let mut wire = Vec::with_capacity(spec.flows);
            let mut decoded = Vec::with_capacity(spec.flows);
            let mut pieces = Vec::with_capacity(spec.flows);
            for flow in 0..spec.flows {
                // Every other connection frames its bodies chunked.
                let chunked = if flow % 2 == 0 { 1.0 } else { 0.0 };
                let stream = gen.http_stream(spec.flow_len, 4096, chunked);
                let packet = Packet {
                    payload: stream.wire,
                    injected: Vec::new(),
                };
                let schedule = gen.segment_schedule(
                    &packet,
                    set,
                    ChopProfile::Random {
                        min: 200,
                        max: 1460,
                    },
                    SegmentProfile::Reorder { window: 4 },
                );
                pieces.push(
                    schedule
                        .iter()
                        .map(|s| (s.seq as u32, s.bytes.len() as u32))
                        .collect(),
                );
                wire.push(packet.payload);
                decoded.push(stream.decoded);
            }
            interleave(&mut gen, "http_reorder", wire, Some(decoded), pieces)
        }
        other => panic!("unknown workload {other}"),
    }
}

/// `(seq, len)` of `len`-byte in-order segments covering `total` bytes.
fn mtu_pieces(total: usize, mtu: usize) -> Vec<(u32, u32)> {
    (0..total)
        .step_by(mtu)
        .map(|seq| (seq as u32, mtu.min(total - seq) as u32))
        .collect()
}

/// Shuffles flows against each other, keeping each flow's own segment
/// order (`pieces[flow]` as `(seq, len)`).
fn interleave(
    gen: &mut TrafficGenerator,
    name: &'static str,
    wire: Vec<Vec<u8>>,
    decoded: Option<Vec<Vec<u8>>>,
    pieces: Vec<Vec<(u32, u32)>>,
) -> Workload {
    let counts: Vec<usize> = pieces.iter().map(Vec::len).collect();
    let mut cursor = vec![0usize; pieces.len()];
    let arrivals = gen
        .interleave_schedule(&counts)
        .into_iter()
        .map(|flow| {
            let (seq, len) = pieces[flow][cursor[flow]];
            cursor[flow] += 1;
            Arrival {
                flow: flow as u32,
                seq,
                len,
            }
        })
        .collect();
    Workload {
        name,
        wire,
        decoded,
        arrivals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &str) -> Spec {
        match name {
            "bulk_tls" => Spec {
                flows: 4,
                flow_len: 20_000,
            },
            "small_chatter" => Spec {
                flows: 16,
                flow_len: 2048,
            },
            _ => Spec {
                flows: 4,
                flow_len: 3,
            },
        }
    }

    fn set() -> PatternSet {
        PatternSet::new(["attack-sig", "evil", "GET /"]).unwrap()
    }

    #[test]
    fn same_seed_gives_byte_identical_workloads() {
        for name in NAMES {
            let a = generate_with(name, small(name), 7, &set());
            let b = generate_with(name, small(name), 7, &set());
            assert_eq!(a, b, "{name}");
            let c = generate_with(name, small(name), 8, &set());
            assert_ne!(a.wire, c.wire, "{name}: seed must matter");
        }
    }

    #[test]
    fn arrivals_cover_every_flow_byte_exactly_once() {
        for name in NAMES {
            let w = generate_with(name, small(name), 3, &set());
            let mut covered: Vec<Vec<bool>> = w.wire.iter().map(|f| vec![false; f.len()]).collect();
            for a in &w.arrivals {
                for b in &mut covered[a.flow as usize][a.seq as usize..(a.seq + a.len) as usize] {
                    assert!(!*b, "{name}: byte offered twice");
                    *b = true;
                }
            }
            assert!(
                covered.iter().flatten().all(|&b| b),
                "{name}: byte never offered"
            );
            assert_eq!(
                w.bytes(),
                w.wire.iter().map(|f| f.len() as u64).sum::<u64>()
            );
        }
    }

    #[test]
    fn every_workload_fits_the_service_flow_table_without_eviction() {
        use dpi_core::{FlowTable, ServiceConfig};
        let config = ServiceConfig::with_workers(1);
        for name in NAMES {
            let mut table = FlowTable::with_ways(
                config.flow_capacity,
                config.flow_ways,
                dpi_automaton::ScanState::fresh(),
            );
            for flow in 0..Spec::of(name).unwrap().flows {
                table.touch(Workload::key(flow as u32));
            }
            assert_eq!(table.stats().evictions, 0, "{name}");
        }
    }

    #[test]
    fn http_reorder_actually_reorders() {
        let w = generate_with("http_reorder", small("http_reorder"), 5, &set());
        let mut next = vec![0u32; w.wire.len()];
        let mut out_of_order = 0;
        for a in &w.arrivals {
            if a.seq != next[a.flow as usize] {
                out_of_order += 1;
            }
            next[a.flow as usize] = next[a.flow as usize].max(a.seq + a.len);
        }
        assert!(out_of_order > 0);
    }
}
