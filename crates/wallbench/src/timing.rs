//! The only module that reads the host clock.
//!
//! Everything timed in the benchmark goes through a [`Stopwatch`] or a
//! [`Tracer`] span, so a host time can never leak into a `sim_digest`:
//! digests are built from values the workloads return, and no workload
//! module can name `Instant`.

use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Times one call of `f`, returning its result and the seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let sw = Stopwatch::start();
    let r = f();
    (r, sw.elapsed_s())
}

/// One recorded call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `hpl.numeric.factorize`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Timed-pass number the span belongs to (0 = outside any pass).
    pub pass: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

/// In-memory span recorder for the traced run. Disabled, every method is
/// a branch and a call, so the untraced run pays nothing measurable.
/// Spans nest pass → basket item → call through [`Tracer::begin`] /
/// [`Tracer::end`]; all of them are recorded on the driving thread.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores (`!on`) spans.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags subsequent spans with a timed-pass number.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`]. Spans close innermost
    /// first.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as a leaf span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// An isolated microbenchmark: one untimed warm-up call, then calls
    /// of `f` until `budget_s` has passed (at least `min_reps`). Returns
    /// the per-call seconds; the trace gets one span called `name` around
    /// all of them (a span per call of a nanosecond-scale body would make
    /// the trace file tens of megabytes). Runs whether or not the tracer
    /// records, because the traced run needs the numbers.
    pub fn bench<R>(
        &mut self,
        name: &'static str,
        budget_s: f64,
        min_reps: usize,
        mut f: impl FnMut() -> R,
    ) -> Summary {
        black_box(f());
        let id = self.begin(name);
        let total = Stopwatch::start();
        let mut secs = Vec::new();
        while secs.len() < min_reps.max(1) || total.elapsed_s() < budget_s {
            let sw = Stopwatch::start();
            black_box(f());
            secs.push(sw.elapsed_s());
        }
        self.end(id);
        summarize(&secs)
    }

    /// All recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call seconds of every span called `name` inside timed passes.
    pub fn pass_seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.pass > 0 && s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Self time per span name over the timed passes, seconds: a span's
    /// duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.pass == 0 {
                continue;
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(child[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Chrome trace-event JSON (loads in Perfetto / `about://tracing`):
    /// one complete event per span, nesting shown by containment, the
    /// parent index and pass number in `args`.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, i64::from);
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"{workload}\", \"ph\": \"X\", \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"pid\": 1, \"tid\": 1, \
                 \"args\": {{\"id\": {i}, \"parent\": {parent}, \"pass\": {}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.pass
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Iterations of the canary loop (≈ 5 ms on the reference box).
const CANARY_ITERS: u64 = 2_000_000;

/// The noise canary: a fixed, allocation-free chain of dependent integer
/// operations (the xorshift keeps the compiler from closing the form)
/// whose time depends only on the machine's state. Returns the median of five
/// repetitions, milliseconds. Timed before and after every workload; a
/// drift between the two marks the run as disturbed.
pub fn canary_spin_ms() -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let sw = Stopwatch::start();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
            for _ in 0..CANARY_ITERS {
                x = (x ^ (x >> 29))
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            black_box(x);
            sw.elapsed_s() * 1e3
        })
        .collect();
    summarize(&reps).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a");
        t.end(id);
        assert_eq!(t.time("b", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_pass(1);
        let outer = t.begin("outer");
        t.time("inner", || black_box((0..1000u64).sum::<u64>()));
        t.time("inner", || black_box((0..1000u64).sum::<u64>()));
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(t.pass_seconds("inner").len(), 2);
        let own = t.self_times();
        let inner_total: f64 = t.pass_seconds("inner").iter().sum();
        let outer_total = spans[0].seconds();
        assert!((own["outer"] - (outer_total - inner_total)).abs() < 1e-9);
    }

    #[test]
    fn bench_runs_min_reps_and_records_one_span() {
        let mut t = Tracer::new(true);
        let mut calls = 0;
        let s = t.bench("x", 0.0, 3, || calls += 1);
        assert_eq!(s.n, 3);
        assert_eq!(calls, 4, "one warm-up plus three timed calls");
        assert_eq!(t.spans().iter().filter(|s| s.name == "x").count(), 1);
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let mut t = Tracer::new(true);
        t.time("a", || ());
        t.time("b", || ());
        let json = t.chrome_json("w");
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.trim_end().ends_with(']'));
    }
}
