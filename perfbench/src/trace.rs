//! In-memory spans recorded by the benchmark around its calls into each
//! layer. The program itself carries no tracing: every span here wraps
//! a public call made from the benchmark's own pipeline.

use std::io::{self, Write};
use std::time::Instant;

/// Span names: one per traced call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Offer,
    Step,
    Flow,
    Reassembly,
    Protocol,
    Sharded,
    TwoStage,
    FlagOnly,
}

const COUNT: usize = 8;

impl Name {
    /// The traced call.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Offer => "ServiceSim::offer",
            Name::Step => "ServiceSim::step",
            Name::Flow => "FlowTable::ingest_segment_at",
            Name::Reassembly => "StreamFlow::ingest",
            Name::Protocol => "ProtoFlow::deliver",
            Name::Sharded => "ShardedMatcher::scan_chunk_into",
            Name::TwoStage => "TwoStageMatcher::scan_chunk_into",
            Name::FlagOnly => "TwoStageMatcher::scan_chunk_flag_only",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    start: u64,
    end: u64,
    parent: u32,
    /// The packet (arrival index) the span served.
    request: u32,
    name: Name,
}

/// Count, summed duration and summed self time (duration minus the
/// direct children's durations) of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Records nested spans for one pass.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// The packet the next spans serve.
    pub request: u32,
}

impl Tracer {
    /// A tracer with room for `spans` spans, so recording does not
    /// allocate inside a pass.
    pub fn with_capacity(spans: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(8),
            request: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span, child of the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: Name) {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            start,
            end: start,
            parent,
            request: self.request,
            name,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id as usize].end = end;
    }

    /// Per-name totals of the recorded spans.
    pub fn totals(&self) -> [Totals; COUNT] {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize] += s.end - s.start;
            }
        }
        let mut t = [Totals::default(); COUNT];
        for (s, child) in self.spans.iter().zip(children) {
            let dur = s.end - s.start;
            let e = &mut t[s.name as usize];
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        t
    }

    /// Writes the pass's spans as tab-separated rows tagged `pass`.
    pub fn write(&self, pass: &str, out: &mut impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::from("-")
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{pass}\t{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.name.as_str(),
                s.start,
                s.end
            )?;
        }
        Ok(())
    }
}

/// Totals of one name.
pub fn of(t: &[Totals; COUNT], name: Name) -> Totals {
    t[name as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_only() {
        let mut t = Tracer::with_capacity(4);
        t.enter(Name::Flow);
        t.enter(Name::Protocol);
        t.enter(Name::Sharded);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        t.exit();
        let totals = t.totals();
        let flow = of(&totals, Name::Flow);
        let proto = of(&totals, Name::Protocol);
        let scan = of(&totals, Name::Sharded);
        assert_eq!((flow.count, proto.count, scan.count), (1, 1, 1));
        assert!(scan.self_ns >= 2_000_000);
        assert_eq!(flow.self_ns, flow.total_ns - proto.total_ns);
        assert_eq!(proto.self_ns, proto.total_ns - scan.total_ns);
        let mut rows = Vec::new();
        t.write("p", &mut rows).unwrap();
        let rows = String::from_utf8(rows).unwrap();
        assert_eq!(rows.lines().count(), 3);
        assert!(rows
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("p\t2\t1\t0\tShardedMatcher"));
    }
}
