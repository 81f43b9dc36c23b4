//! A small deterministic discrete-event simulation (DES) engine.
//!
//! The Linpack experiments in this workspace run at paper scale — up to
//! N = 825,000 on a hundred simulated nodes — where holding the matrix is
//! impossible (5.4 TB) and real threads would be pointless on the build
//! machine. Instead, the *actual scheduling algorithms* (the DAG dynamic
//! scheduler, the look-ahead pipelines, work stealing) execute over
//! virtual time: every kernel invocation becomes a scheduled completion
//! event whose duration comes from the calibrated machine models in
//! `phi-knc` / `phi-xeon`.
//!
//! Design choices:
//!
//! * **Single-threaded, deterministic.** Events at equal timestamps fire
//!   in schedule order (a monotone sequence number breaks ties), so every
//!   simulation is exactly reproducible.
//! * **Callback style.** An event is a `FnOnce(&mut Sim)`; shared
//!   scheduler state lives in `Rc<RefCell<…>>` captured by the closures.
//!   The scheduler data structures themselves (in `phi-sched`) are plain
//!   and synchronous, so the same code drives both the DES backend and
//!   the real-thread numeric backend.
//! * **Mechanism-free resources.** [`Link`] models a serialized
//!   bandwidth×latency channel (PCIe, InfiniBand); [`trace::Trace`]
//!   records per-lane spans for the Gantt charts of Fig. 7 / Fig. 9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod link;
pub mod parallel;
mod trace;

pub use link::Link;
pub use trace::{Kind, Trace};

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// The total event-ordering key shared by the sequential executive and
/// the rank-partitioned parallel engine: events fire by `(time, rank,
/// seq)`. Because every `(rank, seq)` pair is unique, the order is
/// *total* — no two distinct events compare equal — so pop order cannot
/// depend on heap internals or insertion order.
#[derive(Clone, Copy, Debug)]
struct EventKey {
    /// Firing time in simulated seconds.
    pub at: f64,
    /// Originating rank (0 for single-partition simulations).
    pub rank: u32,
    /// Monotone per-rank sequence number.
    pub seq: u64,
}

impl EventKey {
    /// Builds a key.
    fn new(at: f64, rank: u32, seq: u64) -> Self {
        Self { at, rank, seq }
    }
}

impl PartialEq for EventKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for EventKey {}
impl PartialOrd for EventKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.rank.cmp(&other.rank))
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

/// Recoverable misuse of the timing models, surfaced as a value instead
/// of a panic. The panicking entry point (`Link::transfer`) remains for
/// internal call sites whose inputs are invariants; externally-driven
/// callers should prefer the `try_*` variant.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ModelError {
    /// A transfer was requested with a negative byte count.
    NegativeBytes {
        /// The offending byte count.
        bytes: f64,
    },
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::NegativeBytes { bytes } => {
                write!(f, "negative transfer size {bytes} bytes")
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// A scheduled event: fires by its [`EventKey`] — time order, rank and
/// FIFO sequence breaking ties.
struct Scheduled {
    key: EventKey,
    cb: Box<dyn FnOnce(&mut Sim)>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// The simulation executive: virtual clock plus event queue.
#[derive(Default)]
pub struct Sim {
    now: f64,
    seq: u64,
    queue: BinaryHeap<Scheduled>,
    trace: Trace,
    events_fired: u64,
}

impl Sim {
    /// Fresh simulation at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of events executed so far.
    pub fn events_fired(&self) -> u64 {
        self.events_fired
    }

    /// Schedules `cb` to fire `delay` seconds from now.
    ///
    /// # Panics
    /// Panics on negative or NaN delays — an event cannot fire in the
    /// past.
    pub fn schedule<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: f64, cb: F) {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "invalid event delay {delay}"
        );
        self.schedule_at(self.now + delay, cb);
    }

    /// Schedules `cb` at absolute time `at` (must not be in the past).
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: f64, cb: F) {
        self.schedule_at_ranked(at, 0, cb);
    }

    /// Schedules `cb` at absolute time `at`, tagged with an explicit
    /// `rank` for the tie-break key. Events at the same timestamp fire
    /// by ascending `(rank, seq)`; single-partition callers use
    /// [`Self::schedule`]/[`Self::schedule_at`] (rank 0), which keeps
    /// their tie-break pure schedule-order FIFO.
    pub fn schedule_at_ranked<F: FnOnce(&mut Sim) + 'static>(&mut self, at: f64, rank: u32, cb: F) {
        assert!(
            at >= self.now && at.is_finite(),
            "event at {at} is before now {}",
            self.now
        );
        self.seq += 1;
        self.queue.push(Scheduled {
            key: EventKey::new(at, rank, self.seq),
            cb: Box::new(cb),
        });
    }

    /// Runs until the event queue drains. Returns the final time.
    pub fn run(&mut self) -> f64 {
        while let Some(ev) = self.queue.pop() {
            debug_assert!(ev.key.at >= self.now, "time went backwards");
            self.now = ev.key.at;
            self.events_fired += 1;
            (ev.cb)(self);
        }
        self.now
    }

    /// The span trace collected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (record spans / enable / clear).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for (delay, tag) in [(3.0, 'c'), (1.0, 'a'), (2.0, 'b')] {
            let order = order.clone();
            sim.schedule(delay, move |s| {
                order.borrow_mut().push((tag, s.now()));
            });
        }
        sim.run();
        let got = order.borrow().clone();
        assert_eq!(got, vec![('a', 1.0), ('b', 2.0), ('c', 3.0)]);
    }

    #[test]
    fn equal_timestamps_fire_fifo() {
        let order = Rc::new(RefCell::new(String::new()));
        let mut sim = Sim::new();
        for tag in ['x', 'y', 'z'] {
            let order = order.clone();
            sim.schedule(5.0, move |_| order.borrow_mut().push(tag));
        }
        sim.run();
        assert_eq!(*order.borrow(), "xyz");
    }

    #[test]
    fn events_can_schedule_events() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut sim = Sim::new();
        // A chain of 10 events, each 0.5s after its parent.
        fn chain(sim: &mut Sim, hits: Rc<RefCell<u32>>, left: u32) {
            if left == 0 {
                return;
            }
            sim.schedule(0.5, move |s| {
                *hits.borrow_mut() += 1;
                chain(s, hits, left - 1);
            });
        }
        chain(&mut sim, hits.clone(), 10);
        let end = sim.run();
        assert_eq!(*hits.borrow(), 10);
        assert!((end - 5.0).abs() < 1e-12);
        assert_eq!(sim.events_fired(), 10);
    }

    #[test]
    #[should_panic(expected = "invalid event delay")]
    fn negative_delay_rejected() {
        Sim::new().schedule(-1.0, |_| {});
    }

    #[test]
    fn zero_delay_fires_after_current_timestamp_peers() {
        let order = Rc::new(RefCell::new(String::new()));
        let mut sim = Sim::new();
        {
            let order = order.clone();
            sim.schedule(1.0, move |s| {
                order.borrow_mut().push('a');
                let o2 = order.clone();
                s.schedule(0.0, move |_| o2.borrow_mut().push('b'));
            });
        }
        {
            let order = order.clone();
            sim.schedule(1.0, move |_| order.borrow_mut().push('c'));
        }
        sim.run();
        // 'c' was scheduled first at t=1; 'b' lands behind it (same time,
        // later sequence number).
        assert_eq!(*order.borrow(), "acb");
    }

    #[test]
    fn event_key_order_is_total() {
        // Every pair of distinct keys compares strictly — the heap can
        // never see Ordering::Equal for two different events.
        let keys = [
            EventKey::new(0.0, 0, 0),
            EventKey::new(0.0, 0, 1),
            EventKey::new(0.0, 1, 0),
            EventKey::new(1.0, 0, 0),
            EventKey::new(-0.0, 0, 2), // total_cmp: -0.0 < +0.0
            EventKey::new(1.0, 2, 7),
        ];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i == j {
                    assert_eq!(a.cmp(b), Ordering::Equal);
                } else {
                    assert_ne!(a.cmp(b), Ordering::Equal, "keys {i} and {j} tied");
                    assert_eq!(a.cmp(b), b.cmp(a).reverse(), "antisymmetry {i},{j}");
                }
            }
        }
        // Lexicographic component priority: time, then rank, then seq.
        assert!(EventKey::new(1.0, 9, 9) < EventKey::new(2.0, 0, 0));
        assert!(EventKey::new(1.0, 0, 9) < EventKey::new(1.0, 1, 0));
        assert!(EventKey::new(1.0, 1, 0) < EventKey::new(1.0, 1, 1));
    }

    #[test]
    fn ranked_pop_order_is_insertion_order_independent() {
        // The same set of (time, rank) events must fire in the same
        // order no matter how they are inserted. Ranks make the key
        // unique, so the per-permutation seq numbers never decide.
        let events: Vec<(f64, u32, char)> = vec![
            (2.0, 1, 'd'),
            (1.0, 2, 'b'),
            (1.0, 0, 'a'),
            (2.0, 0, 'c'),
            (1.0, 7, 'z'),
        ];
        let mut orders = Vec::new();
        // Six distinct insertion orders (rotations + reversals).
        for perm in 0..6 {
            let mut evs = events.clone();
            let n = evs.len();
            evs.rotate_left(perm % n);
            if perm >= 3 {
                evs.reverse();
            }
            let order = Rc::new(RefCell::new(String::new()));
            let mut sim = Sim::new();
            for (at, rank, tag) in evs {
                let order = order.clone();
                sim.schedule_at_ranked(at, rank, move |_| order.borrow_mut().push(tag));
            }
            sim.run();
            orders.push(order.borrow().clone());
        }
        for o in &orders {
            assert_eq!(o, "abzcd", "pop order must be (time, rank): {orders:?}");
        }
    }

    #[test]
    fn rank_breaks_ties_before_seq() {
        // Two events at the same instant: the lower rank fires first even
        // though it was scheduled later (higher seq).
        let order = Rc::new(RefCell::new(String::new()));
        let mut sim = Sim::new();
        {
            let order = order.clone();
            sim.schedule_at_ranked(5.0, 3, move |_| order.borrow_mut().push('h'));
        }
        {
            let order = order.clone();
            sim.schedule_at_ranked(5.0, 1, move |_| order.borrow_mut().push('l'));
        }
        sim.run();
        assert_eq!(*order.borrow(), "lh");
    }
}
