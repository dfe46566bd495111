//! The harness's own in-memory span list.
//!
//! Every layer is measured *from outside*: the harness opens a span, calls
//! one public function of a layer crate, and closes the span. Spans nest
//! (one root span per op, one child per layer call), carry the op and pass
//! they belong to, stay in memory while the benchmark runs, and are written
//! as a Chrome trace-event file at exit. A layer's self time is its span
//! minus the part its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;
use vegen_trace::json::Json;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// The op (kernel / request / spec index) this span belongs to.
    pub op: u64,
    /// The pass it was recorded in.
    pub pass: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Span recorder for one thread of the harness.
pub struct Tracer {
    /// Off for untraced passes: calls run, nothing is recorded.
    enabled: bool,
    epoch: Instant,
    /// Lane in the exported trace (`tid`).
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
    pass: u32,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared between the
    /// threads of one run so their lanes line up).
    pub fn new(epoch: Instant, thread: u32) -> Tracer {
        Tracer { enabled: true, epoch, thread, spans: Vec::new(), open: Vec::new(), op: 0, pass: 0 }
    }

    /// A tracer that records nothing: calls made through it just run.
    pub fn off() -> Tracer {
        let mut tracer = Tracer::new(Instant::now(), 0);
        tracer.enabled = false;
        tracer
    }

    /// Record spans from now on, or stop recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag subsequent spans with this op and pass.
    pub fn set_op(&mut self, pass: u32, op: u64) {
        self.pass = pass;
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
            pass: self.pass,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (which must be the innermost open one) and return
    /// its duration in microseconds (0 while recording is off).
    pub fn exit(&mut self, id: usize) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = now;
        self.spans[id].dur_us()
    }

    /// Time one call as a leaf span.
    pub fn timed<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    /// Record an already-measured interval as a child of span `parent`,
    /// starting where the parent starts (for sub-phases a layer reports
    /// about itself, like the beam search's freeze pre-pass).
    pub fn synthesize_child(&mut self, parent: usize, name: &'static str, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let p = &self.spans[parent];
        let (start, op, pass) = (p.start_ns, p.op, p.pass);
        let end = (start + dur_ns).min(p.end_ns);
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            op,
            pass,
        });
    }

    /// Self time of every span: duration minus its direct children's.
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// Per pass, the summed self time (µs) of each span name.
    pub fn self_sums_by_pass(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let own = self.self_times_us();
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for (s, own_us) in self.spans.iter().zip(own) {
            *out.entry(s.pass).or_default().entry(s.name).or_default() += own_us;
        }
        out
    }

    /// Per pass, the summed *total* duration (µs) of each span name.
    pub fn total_sums_by_pass(&self) -> BTreeMap<u32, BTreeMap<&'static str, f64>> {
        let mut out: BTreeMap<u32, BTreeMap<&'static str, f64>> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.pass).or_default().entry(s.name).or_default() += s.dur_us();
        }
        out
    }

    /// Chrome trace-event objects (`ph: "X"`) for the spans of passes below
    /// `max_passes` — enough to read in Perfetto without a 100 MB file.
    pub fn chrome_events(&self, max_passes: u32) -> Vec<Json> {
        self.spans
            .iter()
            .filter(|s| s.pass < max_passes)
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("perf")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_us())),
                    ("pid", Json::int(1)),
                    ("tid", Json::int(u64::from(self.thread))),
                    (
                        "args",
                        Json::obj([
                            ("op", Json::int(s.op)),
                            ("pass", Json::int(u64::from(s.pass))),
                            ("parent", s.parent.map_or(Json::Null, |p| Json::int(p as u64))),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// Median over passes of one span name's per-pass sum.
pub fn median_over_passes(sums: &BTreeMap<u32, BTreeMap<&'static str, f64>>, name: &str) -> f64 {
    let per_pass: Vec<f64> =
        sums.values().map(|by_name| by_name.get(name).copied().unwrap_or(0.0)).collect();
    crate::stats::median(&per_pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0, pass: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new(Instant::now(), 0);
        // op [0, 100µs] > select [10, 70µs] > freeze [10, 30µs]; lower [70, 90µs]
        t.spans = vec![
            span("op", 0, 100_000, None),
            span("select", 10_000, 70_000, Some(0)),
            span("freeze", 10_000, 30_000, Some(1)),
            span("lower", 70_000, 90_000, Some(0)),
        ];
        assert_eq!(t.self_times_us(), vec![20.0, 40.0, 20.0, 20.0]);
        // Self times partition the root: they sum back to its duration.
        assert_eq!(t.self_times_us().iter().sum::<f64>(), 100.0);
        let sums = t.self_sums_by_pass();
        assert_eq!(sums[&0]["select"], 40.0);
        assert_eq!(median_over_passes(&sums, "lower"), 20.0);
        assert_eq!(median_over_passes(&sums, "absent"), 0.0);
    }

    #[test]
    fn enter_exit_nest_and_tag() {
        let mut t = Tracer::new(Instant::now(), 3);
        t.set_op(2, 7);
        let root = t.enter("op");
        t.timed("leaf", || std::hint::black_box(1 + 1));
        t.exit(root);
        assert_eq!(t.spans[1].parent, Some(root));
        assert_eq!((t.spans[1].op, t.spans[1].pass), (7, 2));
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        assert_eq!(t.chrome_events(2).len(), 0, "pass 2 is beyond the export cap");
        assert_eq!(t.chrome_events(3).len(), 2);
        t.set_enabled(false);
        let off = t.enter("unrecorded");
        assert_eq!(t.exit(off), 0.0);
        assert_eq!(t.spans.len(), 2, "a disabled tracer records nothing");
    }
}
