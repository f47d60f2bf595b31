//! Open-loop sustained rate: one producer thread offers the workload to
//! the threaded `Service` in fixed-length bursts on a wall-clock
//! schedule that does not slow down when the service does. A grid sweep
//! finds the highest rate the service sustains.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpi_core::{RulesetArena, Service, ServiceConfig};

use crate::check::{self, Expect, PerFlow};
use crate::percentile;
use crate::workload::{Workload, BURST};

/// Grid points per doubling of the offered rate.
const STEPS_PER_OCTAVE: i32 = 16;

/// Longest trial: the sweep goes no lower than the rate at which one
/// pass over the workload lasts this long.
const MAX_TRIAL_SECS: f64 = 8.0;

/// Share of scanned bytes that must stay at Exact for a sustained pass.
const EXACT_FLOOR_PCT: f64 = 99.0;

/// Offered rate of grid point `k`, in bytes per second: 1 MB/s × 2^(k/16).
fn grid_rate(k: i32) -> f64 {
    1e6 * 2f64.powf(k as f64 / STEPS_PER_OCTAVE as f64)
}

/// The highest grid point at or below `rate` bytes per second.
fn grid_at_or_below(rate: f64) -> i32 {
    ((rate / 1e6).log2() * STEPS_PER_OCTAVE as f64 + 1e-9).floor() as i32
}

/// The outcome of one grid point.
#[derive(Debug, Clone, Copy)]
pub struct Trial {
    /// Offered rate, bytes per second.
    pub rate: f64,
    /// False when the generator ran later than one burst period (p99),
    /// so the service never saw the scheduled rate.
    pub measured: bool,
    pub offered_packets: u64,
    pub shed_packets: u64,
    pub shed_pct: f64,
    /// Share of scanned bytes at the Exact tier.
    pub exact_pct: f64,
    /// p99 of how late bursts were released, and the burst period.
    pub late_p99_ns: f64,
    pub period_ns: f64,
    /// Service latency quantiles (power-of-two bucket upper edges).
    pub lat_p50_ns: u64,
    pub lat_p99_ns: u64,
}

impl Trial {
    /// Nothing shed at any tier.
    pub fn lossless(&self) -> bool {
        self.measured && self.shed_packets == 0
    }

    /// Nothing shed and at least 99 % of bytes scanned at Exact.
    pub fn sustained(&self) -> bool {
        self.lossless() && self.exact_pct >= EXACT_FLOOR_PCT
    }
}

/// Everything one trial needs besides its rate.
pub struct Target<'a> {
    pub arena: &'a Arc<RulesetArena>,
    pub workload: &'a Workload,
    pub workers: usize,
    pub reference: &'a PerFlow,
    /// Raw wire-scan matches, computed the first time a lossy trial
    /// needs them.
    pub wire: OnceCell<PerFlow>,
}

/// Offers the whole workload once at `rate` bytes per second to a fresh
/// service, then checks its output.
pub fn trial(t: &Target, rate: f64) -> Result<Trial, String> {
    let w = t.workload;
    let mut service = Service::start(Arc::clone(t.arena), ServiceConfig::with_workers(t.workers))
        .map_err(|e| format!("service config: {e}"))?;
    let bursts = w.arrivals.len().div_ceil(BURST);
    let mut late: Vec<f64> = Vec::with_capacity(bursts);
    let mut sent = 0u64;
    let start = Instant::now();
    for (b, burst) in w.arrivals.chunks(BURST).enumerate() {
        let due = Duration::from_secs_f64(sent as f64 / rate);
        let mut now = start.elapsed();
        while now < due {
            std::thread::yield_now();
            now = start.elapsed();
        }
        late.push((now - due).as_nanos() as f64);
        for (i, &a) in burst.iter().enumerate() {
            let payload = w.payload(a);
            service.offer(
                Workload::key(a.flow),
                a.seq as u64,
                payload,
                (b * BURST + i) as u64,
            );
            sent += payload.len() as u64;
        }
    }
    let report = service.shutdown();

    let s = &report.stats;
    check::ledger(s)?;
    if s.offered_bytes != w.bytes() {
        return Err(format!(
            "trial offered {} of {} bytes",
            s.offered_bytes,
            w.bytes()
        ));
    }
    let expect = check::expectation(s);
    let got = check::group(w, &report.matches)?;
    let wire =
        (expect != Expect::Equal).then(|| t.wire.get_or_init(|| check::wire_reference(w, t.arena)));
    check::compare(t.reference, wire, &got, expect)?;

    let period_ns = w.bytes() as f64 / bursts as f64 / rate * 1e9;
    let late_p99_ns = percentile(&late, 0.99);
    let scanned = s.scanned_bytes().max(1) as f64;
    Ok(Trial {
        rate,
        measured: late_p99_ns <= period_ns,
        offered_packets: s.offered_packets,
        shed_packets: s.shed_packets,
        shed_pct: 100.0 * s.shed_packets as f64 / s.offered_packets as f64,
        exact_pct: 100.0 * s.workers.tier_bytes[0] as f64 / scanned,
        late_p99_ns,
        period_ns,
        lat_p50_ns: report.latency.quantile(0.50),
        lat_p99_ns: report.latency.quantile(0.99),
    })
}

/// The highest grid point `k` with `pass(k)`, found by galloping from
/// `start` and then bisecting, on the assumption that passing is
/// monotone in the rate. Searches no lower than `floor`; `None` when
/// nothing down to it passes.
fn highest_passing(
    start: i32,
    floor: i32,
    mut pass: impl FnMut(i32) -> Result<bool, String>,
) -> Result<Option<i32>, String> {
    let (mut lo, mut hi);
    let start = start.max(floor);
    if pass(start)? {
        lo = start;
        let mut step = 1;
        loop {
            hi = lo + step;
            if !pass(hi)? {
                break;
            }
            lo = hi;
            step *= 2;
        }
    } else {
        hi = start;
        let mut step = 1;
        loop {
            if hi <= floor {
                return Ok(None);
            }
            lo = (hi - step).max(floor);
            if pass(lo)? {
                break;
            }
            hi = lo;
            step *= 2;
        }
    }
    // Invariant: pass(lo) and !pass(hi).
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pass(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(Some(lo))
}

/// One sweep: every trial it ran, by grid point, and the two answers
/// (`None` when no grid point down to the floor passed).
struct Sweep {
    trials: BTreeMap<i32, Trial>,
    sustained: Option<i32>,
    lossless: Option<i32>,
}

/// Finds the highest sustained grid point (searching from `start`), then
/// the highest lossless one (searching from there), no lower than
/// `floor`. Each grid point runs at most once per sweep.
fn sweep(
    start: i32,
    floor: i32,
    mut run: impl FnMut(i32) -> Result<Trial, String>,
) -> Result<Sweep, String> {
    let mut trials: BTreeMap<i32, Trial> = BTreeMap::new();
    let mut at = |k: i32, trials: &mut BTreeMap<i32, Trial>| -> Result<Trial, String> {
        if let Some(t) = trials.get(&k) {
            return Ok(*t);
        }
        let t = run(k)?;
        trials.insert(k, t);
        Ok(t)
    };
    let sustained = highest_passing(start, floor, |k| Ok(at(k, &mut trials)?.sustained()))?;
    let lossless = highest_passing(sustained.unwrap_or(start), floor, |k| {
        Ok(at(k, &mut trials)?.lossless())
    })?;
    Ok(Sweep {
        trials,
        sustained,
        lossless,
    })
}

/// The open-loop figures of a traced run: medians over repeated sweeps.
pub struct Summary {
    /// Median sustained and lossless rates, MB/s; a sweep with no
    /// passing grid point down to its floor counts 0.
    pub sustained_mbps: f64,
    pub lossless_mbps: f64,
    /// From the sweep with the median sustained rate: the trial at its
    /// sustained point (its lowest trial when none passed) and the one
    /// a grid point above.
    pub at: Trial,
    pub edge: Trial,
    /// p99 over every trial of the generator's p99 lateness.
    pub late_p99_ns: f64,
    /// Packets offered, and shed, by trials at or below their sweep's
    /// sustained rate.
    pub attempted: u64,
    pub failed: u64,
}

/// Runs sweeps until `deadline` (at least one), each starting where the
/// last one ended, the first at the closed-loop `capacity_mbps`.
pub fn sweeps(t: &Target, capacity_mbps: f64, deadline: Instant) -> Result<Summary, String> {
    let floor = grid_at_or_below(t.workload.bytes() as f64 / MAX_TRIAL_SECS) + 1;
    let mut from = grid_at_or_below(capacity_mbps * 1e6);
    let mut done: Vec<Sweep> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    while done.is_empty() || Instant::now() < deadline {
        let s = sweep(from, floor, |k| {
            let r = trial(t, grid_rate(k))?;
            eprintln!(
                "perfbench: trial {:.1} MB/s: shed {:.2}%, exact {:.1}%, generator late p99 {:.1} us of {:.1} us period{}",
                r.rate / 1e6,
                r.shed_pct,
                r.exact_pct,
                r.late_p99_ns / 1e3,
                r.period_ns / 1e3,
                if r.measured { "" } else { " (unmeasured)" }
            );
            Ok(r)
        })?;
        let ceiling = s.sustained.map_or(0.0, grid_rate);
        for r in s.trials.values().filter(|r| r.rate <= ceiling) {
            attempted += r.offered_packets;
            failed += r.shed_packets;
        }
        from = s.sustained.unwrap_or(floor);
        done.push(s);
    }
    let mbps = |k: Option<i32>| k.map_or(0.0, |k| grid_rate(k) / 1e6);
    done.sort_by_key(|s| s.sustained);
    let mid = &done[done.len() / 2];
    let k = mid
        .sustained
        .unwrap_or_else(|| *mid.trials.keys().next().expect("a sweep runs a trial"));
    let at = mid.trials[&k];
    let late: Vec<f64> = done
        .iter()
        .flat_map(|s| s.trials.values().map(|r| r.late_p99_ns))
        .collect();
    let median = |v: Vec<f64>| percentile(&v, 0.5);
    Ok(Summary {
        sustained_mbps: median(done.iter().map(|s| mbps(s.sustained)).collect()),
        lossless_mbps: median(done.iter().map(|s| mbps(s.lossless)).collect()),
        at,
        edge: mid.trials.get(&(k + 1)).copied().unwrap_or(at),
        late_p99_ns: percentile(&late, 0.99),
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(k: i32, sustained_to: i32, lossless_to: i32, unmeasured_from: i32) -> Trial {
        Trial {
            rate: grid_rate(k),
            measured: k < unmeasured_from,
            offered_packets: 100,
            shed_packets: if k > lossless_to { 5 } else { 0 },
            shed_pct: 0.0,
            exact_pct: if k > sustained_to { 50.0 } else { 100.0 },
            late_p99_ns: 0.0,
            period_ns: 1.0,
            lat_p50_ns: 0,
            lat_p99_ns: 0,
        }
    }

    #[test]
    fn highest_passing_finds_the_threshold_from_either_side() {
        for threshold in 90..130 {
            for start in [95, 100, 110, 127] {
                let mut calls = 0;
                let got = highest_passing(start, 94, |k| {
                    calls += 1;
                    assert!(k >= 94, "searched below the floor");
                    Ok(k <= threshold)
                })
                .unwrap();
                if threshold < 94 {
                    assert_eq!(got, None);
                } else {
                    assert_eq!(got, Some(threshold), "start {start}");
                }
                assert!(calls <= 16, "{calls} trials");
            }
        }
    }

    #[test]
    fn sweep_returns_the_highest_passing_rates() {
        let mut runs = Vec::new();
        let s = sweep(100, 0, |k| {
            runs.push(k);
            Ok(fake(k, 104, 111, 1000))
        })
        .unwrap();
        assert_eq!((s.sustained, s.lossless), (Some(104), Some(111)));
        assert!(!s.trials[&105].sustained());
        let mut unique = runs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), runs.len(), "a grid point ran twice");
    }

    #[test]
    fn an_unmeasured_point_is_never_a_pass() {
        let s = sweep(100, 0, |k| Ok(fake(k, 120, 130, 103))).unwrap();
        assert_eq!((s.sustained, s.lossless), (Some(102), Some(102)));
        assert!(!s.trials[&103].measured);
    }

    #[test]
    fn a_sweep_with_no_passing_rate_reports_none() {
        let s = sweep(100, 90, |k| Ok(fake(k, 80, 95, 1000))).unwrap();
        assert_eq!((s.sustained, s.lossless), (None, Some(95)));
        assert!(s.trials.keys().all(|&k| k >= 90));
    }

    #[test]
    fn grid_round_trips() {
        for k in -20..200 {
            assert_eq!(grid_at_or_below(grid_rate(k)), k);
            assert_eq!(grid_at_or_below(grid_rate(k) * 1.01), k);
        }
    }
}
