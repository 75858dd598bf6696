//! In-memory span recorder for the traced run.
//!
//! A span is a name, an id shared by every span of one slot or round, a
//! parent (the enclosing span's name), and start/end times. Spans nest as a
//! stack; when one closes, its duration is charged to its parent's child
//! time, so every name accumulates both total time and self time (its
//! duration minus its children's). Per-name totals are always kept; the
//! individual span records are kept up to a fixed capacity (allocated up
//! front, so recording never allocates inside a measured call) and written
//! out when the run ends.

use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span name (`layer.call`).
    pub name: &'static str,
    /// Slot or round id shared by the spans of one unit of work.
    pub id: u64,
    /// Name of the enclosing span, if any.
    pub parent: Option<&'static str>,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
}

/// Accumulated time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Closed spans.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus time spent in child spans.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    id: u64,
    start_ns: u64,
    child_ns: u64,
}

/// The recorder. One per thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    dropped: u64,
    totals: Vec<(&'static str, SpanTotals)>,
}

impl Spans {
    /// A recorder keeping at most `capacity` span records.
    pub fn new(epoch: Instant, capacity: usize) -> Spans {
        Spans {
            epoch,
            stack: Vec::with_capacity(16),
            records: Vec::with_capacity(capacity),
            dropped: 0,
            totals: Vec::with_capacity(32),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        let t = self.now_ns();
        self.enter_at(name, id, t);
    }

    /// Closes the innermost open span now and returns its duration.
    pub fn exit(&mut self) -> u64 {
        let t = self.now_ns();
        self.exit_at(t)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let r = f();
        self.exit();
        r
    }

    /// Opens a span at an explicit time (ns since the epoch).
    pub fn enter_at(&mut self, name: &'static str, id: u64, start_ns: u64) {
        self.stack.push(Open { name, id, start_ns, child_ns: 0 });
    }

    /// Closes the innermost open span at an explicit time and returns its
    /// duration. Closing with no open span is a no-op returning 0.
    pub fn exit_at(&mut self, end_ns: u64) -> u64 {
        let Some(open) = self.stack.pop() else {
            return 0;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.name
        });
        let t = self.totals_mut(open.name);
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if self.records.len() < self.records.capacity() {
            self.records.push(SpanRecord {
                name: open.name,
                id: open.id,
                parent,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
        dur
    }

    fn totals_mut(&mut self, name: &'static str) -> &mut SpanTotals {
        let pos = match self.totals.iter().position(|(n, _)| *n == name) {
            Some(pos) => pos,
            None => {
                self.totals.push((name, SpanTotals::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[pos].1
    }

    /// Totals of one span name (zero if never closed).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.iter().find(|(n, _)| *n == name).map(|(_, t)| *t).unwrap_or_default()
    }

    /// Folds another recorder's totals and records into this one.
    pub fn absorb(&mut self, other: Spans) {
        for (name, t) in other.totals {
            let mine = self.totals_mut(name);
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
        let room = self.records.capacity() - self.records.len();
        let take = other.records.len().min(room);
        self.records.extend_from_slice(&other.records[..take]);
        self.dropped += other.dropped + (other.records.len() - take) as u64;
    }

    /// Every name with its totals, in first-seen order.
    pub fn all_totals(&self) -> &[(&'static str, SpanTotals)] {
        &self.totals
    }

    /// Writes the kept span records as JSON lines; returns (written,
    /// dropped).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<(usize, u64)> {
        for r in &self.records {
            let parent = r.parent.map_or_else(|| "null".to_owned(), |p| format!("\"{p}\""));
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                r.name, r.id, parent, r.start_ns, r.end_ns
            )?;
        }
        Ok((self.records.len(), self.dropped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Spans {
        Spans::new(Instant::now(), 16)
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = recorder();
        // slot [0, 100) ⊃ generate [10, 30) and advance [30, 90) ⊃ match [40, 80)
        s.enter_at("slot", 7, 0);
        s.enter_at("generate", 7, 10);
        assert_eq!(s.exit_at(30), 20);
        s.enter_at("advance", 7, 30);
        s.enter_at("match", 7, 40);
        s.exit_at(80);
        s.exit_at(90);
        s.exit_at(100);

        assert_eq!(s.totals("slot"), SpanTotals { count: 1, total_ns: 100, self_ns: 20 });
        assert_eq!(s.totals("generate"), SpanTotals { count: 1, total_ns: 20, self_ns: 20 });
        assert_eq!(s.totals("advance"), SpanTotals { count: 1, total_ns: 60, self_ns: 20 });
        assert_eq!(s.totals("match"), SpanTotals { count: 1, total_ns: 40, self_ns: 40 });
        let self_sum: u64 = s.all_totals().iter().map(|(_, t)| t.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn repeated_names_accumulate_and_records_keep_parents() {
        let mut s = recorder();
        for round in 0..3u64 {
            let base = round * 50;
            s.enter_at("round", round, base);
            s.enter_at("frame", round, base + 5);
            s.exit_at(base + 15);
            s.enter_at("frame", round, base + 20);
            s.exit_at(base + 40);
            s.exit_at(base + 45);
        }
        assert_eq!(s.totals("frame"), SpanTotals { count: 6, total_ns: 90, self_ns: 90 });
        assert_eq!(s.totals("round"), SpanTotals { count: 3, total_ns: 135, self_ns: 45 });
        let mut buf = Vec::new();
        let (written, dropped) = s.write_jsonl(&mut buf).unwrap();
        assert_eq!((written, dropped), (9, 0));
        let text = String::from_utf8(buf).unwrap();
        let first = text.lines().next().unwrap();
        assert_eq!(
            first,
            "{\"name\":\"frame\",\"id\":0,\"parent\":\"round\",\"start_ns\":5,\"end_ns\":15}"
        );
        assert!(text.lines().any(|l| l.contains("\"name\":\"round\"") && l.contains("null")));
    }

    #[test]
    fn records_beyond_capacity_are_counted_not_kept() {
        let mut s = Spans::new(Instant::now(), 2);
        for i in 0..5 {
            s.enter_at("x", i, i * 10);
            s.exit_at(i * 10 + 3);
        }
        assert_eq!(s.totals("x").count, 5, "totals cover every span");
        let mut sink = Vec::new();
        assert_eq!(s.write_jsonl(&mut sink).unwrap(), (2, 3));
    }

    #[test]
    fn absorb_merges_totals() {
        let mut a = recorder();
        a.enter_at("x", 0, 0);
        a.exit_at(10);
        let mut b = recorder();
        b.enter_at("x", 1, 0);
        b.exit_at(5);
        b.enter_at("y", 1, 0);
        b.exit_at(2);
        a.absorb(b);
        assert_eq!(a.totals("x"), SpanTotals { count: 2, total_ns: 15, self_ns: 15 });
        assert_eq!(a.totals("y").count, 1);
        assert_eq!(a.exit_at(99), 0, "closing with nothing open is a no-op");
    }
}
