//! In-memory spans recorded by the benchmark's own code around each public
//! call into the library (name, start, end, parent; one id per
//! repetition), written out at exit as a Chrome trace.
//!
//! A span's *self time* is its duration minus the part of that interval
//! its child spans cover, so a repetition's self time is exactly the time
//! no driver, emit or check span accounts for.

use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 = warm-up or outside any rep).
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Disabled recorders run the closure and record nothing,
/// so the untraced path pays one branch per span.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tag every span opened from now on with repetition id `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested under the span that is
    /// currently open.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            rep: self.rep,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .fold(0.0, |a, b| a + b)
    }

    /// Forget which spans are open: a panic unwound through them.
    pub fn abandon_open(&mut self) {
        self.stack.clear();
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, the repetition id as `tid` so each
    /// repetition gets its own track.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"azbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.rep,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                i,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                self_time_ns(&self.spans, i) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of span `idx`: its duration minus the union of its direct
/// children's intervals, each clipped to the span itself.
pub fn self_time_ns(spans: &[Span], idx: usize) -> u64 {
    let me = &spans[idx];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.dur_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            sp("rep", 0, 100, None),
            sp("a", 10, 30, Some(0)),
            sp("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 20 - 40);
        assert_eq!(self_time_ns(&spans, 1), 20);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            sp("rep", 0, 100, None),
            sp("a", 10, 60, Some(0)),
            sp("b", 40, 80, Some(0)),
            sp("inside-a", 20, 30, Some(0)),
        ];
        // Union of [10,60] ∪ [40,80] ∪ [20,30] = [10,80].
        assert_eq!(self_time_ns(&spans, 0), 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = vec![
            sp("rep", 0, 100, None),
            sp("driver", 0, 80, Some(0)),
            sp("point", 10, 70, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 20);
        assert_eq!(self_time_ns(&spans, 1), 20);
        assert_eq!(self_time_ns(&spans, 2), 60);
    }

    #[test]
    fn zero_length_and_out_of_range_children() {
        let spans = vec![
            sp("rep", 50, 50, None),
            sp("kid", 50, 50, Some(0)),
            sp("outer", 100, 200, None),
            sp("spills", 90, 250, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 0);
        assert_eq!(self_time_ns(&spans, 1), 0);
        // A child that spills past its parent is clipped to it.
        assert_eq!(self_time_ns(&spans, 2), 0);
    }

    #[test]
    fn recorder_nests_and_tags_reps() {
        let mut s = Spans::new(true);
        s.set_rep(3);
        let v = s.span("rep", |s| s.span("driver", |_| 7));
        assert_eq!(v, 7);
        let all = s.all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].parent, None);
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[1].rep, 3);
        assert!(all[0].start_ns <= all[1].start_ns && all[1].end_ns <= all[0].end_ns);
        assert!(s.total_s("driver") <= s.total_s("rep"));
        assert_eq!(s.total_s("absent"), 0.0);
        let trace = s.to_chrome_trace();
        assert!(trace.contains("\"name\":\"driver\"") && trace.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        assert_eq!(s.span("x", |_| 1), 1);
        assert!(s.all().is_empty());
    }
}
