//! Execution tracing for Gantt charts and time-breakdown profiles.
//!
//! Fig. 7 of the paper is a Gantt chart of the native LU execution
//! (light blue: DLASWP, orange: DTRSM, violet: DGETRF, green: DGEMM,
//! white: barrier); Fig. 9 is a stacked per-iteration breakdown of hybrid
//! HPL. Both regenerators record [`Span`]s here and render them as ASCII
//! charts / CSV series.

/// What a span of time was spent on — the palette of Fig. 7 / Fig. 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Panel factorization (DGETRF) — violet in Fig. 7.
    Panel,
    /// Row swapping (DLASWP) — light blue.
    Swap,
    /// Triangular solve (DTRSM) — orange.
    Trsm,
    /// Trailing-matrix product (DGEMM) — green.
    Gemm,
    /// Barrier / idle wait — white.
    Barrier,
    /// Communication (PCIe DMA, network broadcast).
    Comm,
    /// Packing / copying tiles.
    Pack,
    /// An injected fault window (degraded link, straggler, dead card).
    Fault,
    /// Fault-recovery work (checkpoint restore, §V re-division).
    Recovery,
    /// Anything else.
    Other,
}

impl Kind {
    /// One-character code for ASCII Gantt rendering.
    fn glyph(self) -> char {
        match self {
            Kind::Panel => 'P',
            Kind::Swap => 'S',
            Kind::Trsm => 'T',
            Kind::Gemm => 'G',
            Kind::Barrier => '.',
            Kind::Comm => 'C',
            Kind::Pack => 'K',
            Kind::Fault => 'F',
            Kind::Recovery => 'R',
            Kind::Other => '?',
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Panel => "DGETRF",
            Kind::Swap => "DLASWP",
            Kind::Trsm => "DTRSM",
            Kind::Gemm => "DGEMM",
            Kind::Barrier => "barrier",
            Kind::Comm => "comm",
            Kind::Pack => "pack",
            Kind::Fault => "fault",
            Kind::Recovery => "recovery",
            Kind::Other => "other",
        }
    }

    /// All kinds, for iteration in reports.
    const ALL: [Kind; 10] = [
        Kind::Panel,
        Kind::Swap,
        Kind::Trsm,
        Kind::Gemm,
        Kind::Barrier,
        Kind::Comm,
        Kind::Pack,
        Kind::Fault,
        Kind::Recovery,
        Kind::Other,
    ];
}

/// One traced activity on one lane (a thread group, a device, a node).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Lane index (rendering row).
    pub lane: u32,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Activity class.
    pub kind: Kind,
}

/// A collection of spans, recording-disabled by default to keep the big
/// sweeps allocation-free.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    enabled: bool,
}

impl Trace {
    /// Enables recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records a span when enabled; zero-length spans are dropped.
    pub fn record(&mut self, lane: u32, start: f64, end: f64, kind: Kind) {
        debug_assert!(end >= start, "span ends before it starts");
        if self.enabled && end > start {
            self.spans.push(Span {
                lane,
                start,
                end,
                kind,
            });
        }
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total time per activity kind across all lanes.
    pub fn totals(&self) -> Vec<(Kind, f64)> {
        Kind::ALL
            .iter()
            .map(|&k| {
                (
                    k,
                    self.spans
                        .iter()
                        .filter(|s| s.kind == k)
                        .map(|s| s.end - s.start)
                        .sum(),
                )
            })
            .filter(|&(_, t)| t > 0.0)
            .collect()
    }

    /// Busy fraction of a lane over `[0, horizon]`.
    pub fn lane_busy_fraction(&self, lane: u32, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .spans
            .iter()
            .filter(|s| s.lane == lane && s.kind != Kind::Barrier)
            .map(|s| s.end - s.start)
            .sum();
        (busy / horizon).min(1.0)
    }

    /// Renders an ASCII Gantt chart: one row per lane, `width` columns
    /// spanning `[0, horizon]`. Later spans overwrite earlier ones within
    /// a cell; empty cells are spaces.
    pub fn gantt_ascii(&self, width: usize, horizon: f64) -> String {
        assert!(width > 0);
        if self.spans.is_empty() || horizon <= 0.0 {
            return String::new();
        }
        let lanes = self.spans.iter().map(|s| s.lane).max().unwrap() as usize + 1;
        let mut grid = vec![vec![' '; width]; lanes];
        for s in &self.spans {
            let c0 = ((s.start / horizon) * width as f64).floor() as usize;
            let c1 = (((s.end / horizon) * width as f64).ceil() as usize).min(width);
            for cell in grid[s.lane as usize]
                .iter_mut()
                .take(c1.max(c0 + 1).min(width))
                .skip(c0.min(width - 1))
            {
                *cell = s.kind.glyph();
            }
        }
        let mut out = String::new();
        for (lane, row) in grid.iter().enumerate() {
            out.push_str(&format!("{lane:>4} |"));
            out.extend(row.iter());
            out.push('\n');
        }
        out
    }

    /// CSV export: `lane,start,end,kind`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("lane,start,end,kind\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{},{:.9},{:.9},{}\n",
                s.lane,
                s.start,
                s.end,
                s.kind.label()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.record(0, 0.0, 1.0, Kind::Gemm);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn totals_by_kind() {
        let mut t = Trace::default();
        t.enable();
        t.record(0, 0.0, 1.0, Kind::Gemm);
        t.record(1, 0.0, 2.0, Kind::Gemm);
        t.record(0, 1.0, 1.5, Kind::Panel);
        t.record(0, 2.0, 2.0, Kind::Swap); // zero-length → dropped
        let totals = t.totals();
        assert!(totals.contains(&(Kind::Gemm, 3.0)));
        assert!(totals.contains(&(Kind::Panel, 0.5)));
        assert_eq!(totals.iter().filter(|(k, _)| *k == Kind::Swap).count(), 0);
    }

    #[test]
    fn busy_fraction_excludes_barriers() {
        let mut t = Trace::default();
        t.enable();
        t.record(2, 0.0, 4.0, Kind::Gemm);
        t.record(2, 4.0, 10.0, Kind::Barrier);
        assert!((t.lane_busy_fraction(2, 10.0) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn gantt_renders_rows() {
        let mut t = Trace::default();
        t.enable();
        t.record(0, 0.0, 5.0, Kind::Panel);
        t.record(1, 5.0, 10.0, Kind::Gemm);
        let g = t.gantt_ascii(10, 10.0);
        let rows: Vec<&str> = g.lines().collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].contains("PPPPP"));
        assert!(rows[1].ends_with("GGGGG"));
    }

    #[test]
    fn csv_roundtrip_fields() {
        let mut t = Trace::default();
        t.enable();
        t.record(3, 0.25, 0.75, Kind::Trsm);
        let csv = t.to_csv();
        assert!(csv.starts_with("lane,start,end,kind\n"));
        assert!(csv.contains("3,0.250000000,0.750000000,DTRSM"));
    }
}
