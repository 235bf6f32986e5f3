//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as JSON lines when the run ends.
//!
//! Nothing here reaches into the program: a span is two clock reads taken by
//! the benchmark before and after a call to a public function.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

use adaptive_deep_reuse::obs::Json;

/// One closed interval on the benchmark's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Training step or request id shared by the spans of one operation.
    pub group: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval its
/// direct children cover. Children are nested and sequential (the benchmark
/// is single-threaded around its spans), so their durations simply add up.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Count, total and self time of every span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<usize>,
    origin: Instant,
}

impl Tracer {
    pub fn new() -> Self {
        Self { names: Vec::new(), spans: Vec::new(), open: Vec::new(), origin: Instant::now() }
    }

    /// Interns `name`; done once per call site, outside the timed region.
    pub fn name(&mut self, name: &str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i;
        }
        self.names.push(name.to_string());
        self.names.len() - 1
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under whichever span is currently open.
    pub fn begin(&mut self, name: usize, group: u64) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, group });
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Adds a span whose ends were stamped elsewhere (after this tracer was
    /// created), under an explicit parent.
    pub fn record(
        &mut self,
        name: usize,
        group: u64,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, group });
        self.spans.len() - 1
    }

    /// Times `f` as one span.
    pub fn span<T>(&mut self, name: usize, group: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, group);
        let out = f();
        self.end(id);
        out
    }

    pub fn totals(&self) -> BTreeMap<&str, NameTotals> {
        let own = self_times_ns(&self.spans);
        let mut out: BTreeMap<&str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(own) {
            let t = out.entry(self.names[span.name].as_str()).or_default();
            t.count += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
        }
        out
    }

    /// Duration of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            return Vec::new();
        };
        let of_name = self.spans.iter().filter(|s| s.name == id);
        of_name.map(|s| s.duration_ns() as f64 / 1e6).collect()
    }

    /// Total and self time of the spans called `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> (f64, f64) {
        let t = self.totals().get(name).copied().unwrap_or_default();
        (t.total_ns as f64 / 1e6, t.self_ns as f64 / 1e6)
    }

    /// One JSON object per span: `{name, start_ns, end_ns, parent, id}`,
    /// where `id` is the step or request the span belongs to.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let parent = span.parent.map_or(Json::Null, |p| Json::Uint(p as u64));
            let line = Json::Obj(vec![
                ("name".into(), Json::Str(self.names[span.name].clone())),
                ("start_ns".into(), Json::Uint(span.start_ns)),
                ("end_ns".into(), Json::Uint(span.end_ns)),
                ("parent".into(), parent),
                ("id".into(), Json::Uint(span.group)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: 0, start_ns, end_ns, parent, group: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // step [0,100] > forward [10,60] > conv [20,50]; step > sgd [70,90].
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 50, Some(1)),
            span(70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 30, 20]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_and_totals_by_name() {
        let mut tracer = Tracer::new();
        let (step, conv) = (tracer.name("step"), tracer.name("conv"));
        assert_eq!(tracer.name("step"), step);
        for group in 0..2 {
            let root = tracer.begin(step, group);
            tracer.span(conv, group, || std::hint::black_box(1 + 1));
            tracer.end(root);
        }
        assert_eq!(tracer.spans.len(), 4);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[3].parent, Some(2));
        assert_eq!(tracer.spans[3].group, 1);
        let totals = tracer.totals();
        assert_eq!(totals["step"].count, 2);
        assert_eq!(totals["step"].total_ns, totals["step"].self_ns + totals["conv"].total_ns);
    }
}
