//! In-memory spans around the benchmark's calls into each layer, and the
//! self-time reconciliation they feed.
//!
//! A span is (name, start, end, parent, slot). Spans are recorded only by
//! the benchmark's own code, around public calls; the program itself is
//! not instrumented. A disabled tracer records nothing and reads no clock,
//! so the untraced rebuild runs the same calls without the tracing cost.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span of one slot.
pub const SLOT: &str = "slot";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    pub slot: u64,
}

/// A span handle; `None` when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    slot: u64,
    stack: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            slot: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between slots.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the slot id stamped on the spans opened from now on.
    pub fn set_slot(&mut self, slot: u64) {
        self.slot = slot;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            slot: self.slot,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            let now = self.now_ns();
            self.spans[index].end_ns = now;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans close in LIFO order");
        }
    }

    /// Duration in µs of a closed span.
    pub fn micros(&self, open: Open) -> Option<f64> {
        open.0
            .map(|i| (self.spans[i].end_ns - self.spans[i].start_ns) as f64 / 1e3)
    }
}

/// Per-name totals over a set of tracers.
#[derive(Debug, Default, Clone)]
pub struct Reconciliation {
    /// name → (span count, total µs, self µs).
    pub rows: BTreeMap<&'static str, (u64, f64, f64)>,
    /// Total µs inside root `slot` spans.
    pub slot_us: f64,
    /// Root `slot` spans seen.
    pub slots: u64,
}

impl Reconciliation {
    /// Self time = span duration minus its children's durations. Children
    /// of one span run one after another on one thread, so their sum is
    /// the part of the parent they cover.
    pub fn of(tracers: &[&Tracer]) -> Self {
        let mut rec = Reconciliation::default();
        for tracer in tracers {
            let spans = &tracer.spans;
            let mut child_ns = vec![0u64; spans.len()];
            for span in spans {
                if let Some(p) = span.parent {
                    child_ns[p] += span.end_ns - span.start_ns;
                }
            }
            for (i, span) in spans.iter().enumerate() {
                let dur = span.end_ns - span.start_ns;
                let row = rec.rows.entry(span.name).or_insert((0, 0.0, 0.0));
                row.0 += 1;
                row.1 += dur as f64 / 1e3;
                row.2 += dur.saturating_sub(child_ns[i]) as f64 / 1e3;
                if span.name == SLOT && span.parent.is_none() {
                    rec.slot_us += dur as f64 / 1e3;
                    rec.slots += 1;
                }
            }
        }
        rec
    }

    /// Self µs of `name` per traced slot.
    pub fn self_us_per_slot(&self, name: &str) -> f64 {
        self.rows.get(name).map_or(0.0, |r| r.2) / self.slots.max(1) as f64
    }

    /// Share of slot time no layer span covers: the root spans' self time.
    pub fn unattributed_share(&self) -> f64 {
        self.rows.get(SLOT).map_or(0.0, |r| r.2) / self.slot_us.max(f64::MIN_POSITIVE)
    }

    /// The reconciliation table: per-layer self time and its share of the
    /// traced slot time. Spans outside any slot (probes) are listed apart.
    pub fn table(&self, outside: &[&str]) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>14} {:>14} {:>8}",
            "span", "count", "self_us/slot", "total_us/slot", "share"
        );
        let per = self.slots.max(1) as f64;
        let mut self_sum = 0.0;
        for (name, (count, total, self_us)) in &self.rows {
            if outside.contains(name) {
                continue;
            }
            self_sum += self_us;
            let _ = writeln!(
                out,
                "{:<22} {:>9} {:>14.2} {:>14.2} {:>7.2}%",
                name,
                count,
                self_us / per,
                total / per,
                100.0 * self_us / self.slot_us.max(f64::MIN_POSITIVE)
            );
        }
        let _ = writeln!(
            out,
            "{:<22} {:>9} {:>14.2} {:>14.2} {:>7.2}%  (sum of self times; slot span = 100%)",
            "= total",
            self.slots,
            self_sum / per,
            self.slot_us / per,
            100.0 * self_sum / self.slot_us.max(f64::MIN_POSITIVE)
        );
        for name in outside {
            if let Some((count, total, _)) = self.rows.get(name) {
                let _ = writeln!(
                    out,
                    "{:<22} {:>9} {:>14} {:>14.2}   (probe outside the slot, not in the sum)",
                    name,
                    count,
                    "-",
                    total / per
                );
            }
        }
        out
    }
}

/// Writes every span as one JSON line to `path`.
pub fn write_spans(path: &str, tracers: &[(&str, &Tracer)]) -> Result<(), String> {
    let mut out = String::new();
    for (lane, tracer) in tracers {
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"lane\":\"{lane}\",\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"slot\":{}}}",
                s.name, s.start_ns, s.end_ns, s.slot
            );
        }
    }
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))
}
