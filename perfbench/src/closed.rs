//! Closed-loop capacity: the whole worker path through `ServiceSim` with
//! one worker and the default config, on one thread. The loop steps
//! after every [`STEP_EVERY`] offers, so a queue never reaches the
//! ladder's `high_water` and every byte is scanned at Exact.

use std::sync::Arc;
use std::time::Instant;

use dpi_core::{RulesetArena, ServiceConfig, ServiceReport, ServiceSim};

use crate::alloc;
use crate::check::{self, Expect, PerFlow};
use crate::workload::Workload;

/// Offers between worker steps: below the default ladder `high_water`
/// (48) and within one batch (64), so each step empties the queue.
pub const STEP_EVERY: usize = 32;

/// One closed-loop pass over the workload.
pub struct Pass {
    pub secs: f64,
    /// Peak heap above the live bytes at the start of the pass.
    pub peak_bytes: usize,
    pub report: ServiceReport,
}

/// Offers the whole workload to a fresh one-worker simulator and
/// finishes it.
pub fn pass(arena: &Arc<RulesetArena>, w: &Workload) -> Pass {
    let mut sim = ServiceSim::new(Arc::clone(arena), ServiceConfig::with_workers(1))
        .expect("the default one-worker config is valid");
    let base = alloc::live();
    alloc::reset_peak();
    let start = Instant::now();
    for (i, &a) in w.arrivals.iter().enumerate() {
        sim.offer(Workload::key(a.flow), a.seq as u64, w.payload(a), i as u64);
        if (i + 1) % STEP_EVERY == 0 || i + 1 == w.arrivals.len() {
            sim.step();
        }
    }
    // Every segment of every flow has arrived, so every byte has been
    // scanned; the end-of-stream flush and the report's copy of the
    // match log are teardown, not capacity.
    let secs = start.elapsed().as_secs_f64();
    let report = sim.finish();
    Pass {
        secs,
        peak_bytes: alloc::peak().saturating_sub(base),
        report,
    }
}

/// The checks every capacity pass must pass: nothing shed or lost, every
/// byte at Exact, ledger balanced, matches equal to the reference.
pub fn check(w: &Workload, reference: &PerFlow, report: &ServiceReport) -> Result<(), String> {
    let s = &report.stats;
    check::ledger(s)?;
    if s.offered_bytes != w.bytes() || s.shed_packets != 0 {
        return Err(format!(
            "capacity pass offered {} of {} bytes and shed {} packets",
            s.offered_bytes,
            w.bytes(),
            s.shed_packets
        ));
    }
    if s.workers.tier_bytes[0] != s.scanned_bytes() {
        return Err(format!(
            "capacity pass left Exact: tier bytes {:?}",
            s.workers.tier_bytes
        ));
    }
    if s.reassembly.hole_bytes != 0 {
        return Err(format!(
            "capacity pass lost {} bytes to holes",
            s.reassembly.hole_bytes
        ));
    }
    let got = check::group(w, &report.matches)?;
    check::compare(reference, None, &got, Expect::Equal)
}
