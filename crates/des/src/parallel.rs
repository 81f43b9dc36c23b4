//! Deterministic parallel DES: rank-partitioned conservative lookahead.
//!
//! The sequential [`crate::Sim`] drives closures over one global heap —
//! perfect for a single node, a wall-clock floor for cluster-scale
//! campaigns. This module partitions a simulation into *ranks* (logical
//! processes), each with its own event heap and clock, and executes them
//! window-by-window under the classic conservative contract:
//!
//! * every cross-rank message must arrive at least `lookahead` after it
//!   is sent (in the cluster models the network latency bounds every
//!   broadcast/swap hop from below, so the horizon is real physics, not
//!   a tuning knob);
//! * a window processes, on every rank in parallel, exactly the events
//!   strictly before `floor + lookahead`, where `floor` is the earliest
//!   pending event anywhere — no message generated this window can land
//!   inside it;
//! * messages are exchanged at the barrier and enqueued under the total
//!   `EventKey` order `(time, source rank, source seq)`.
//!
//! Because each rank consumes its events in total key order and the
//! windows advance monotonically, the execution is **byte-identical at
//! any thread count** — the per-rank digests (and therefore the merged
//! digest) cannot observe how ranks were assigned to workers. The tests
//! pin this by comparing 1/2/8-thread runs and a windowless sequential
//! reference executor event-for-event.

use crate::EventKey;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv_fold(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One rank of a partitioned simulation: owns its state, reacts to
/// timestamped messages, and emits new ones through the [`Mailbox`].
pub trait LogicalProcess: Send {
    /// The message/event payload type.
    type Msg: Send;
    /// Handles one event at simulated time `now`.
    fn handle(&mut self, now: f64, msg: Self::Msg, out: &mut Mailbox<Self::Msg>);
}

/// The outbox handed to [`LogicalProcess::handle`]: self-schedules and
/// cross-rank sends.
pub struct Mailbox<M> {
    now: f64,
    lookahead: f64,
    local: Vec<(f64, M)>,
    remote: Vec<(u32, f64, M)>,
}

impl<M> Mailbox<M> {
    /// Schedules a message to this rank `delay` seconds from now. Self
    /// messages are exempt from the lookahead contract (they never cross
    /// the partition boundary), so any non-negative delay is legal.
    pub fn schedule(&mut self, delay: f64, msg: M) {
        assert!(
            delay >= 0.0 && delay.is_finite(),
            "invalid self-schedule delay {delay}"
        );
        self.local.push((self.now + delay, msg));
    }

    /// Sends a message to rank `dst`, arriving `delay` seconds from now.
    ///
    /// # Panics
    /// Panics when `delay < lookahead` — a message that could land inside
    /// the current window would break the conservative contract (and with
    /// it, determinism). Model the sub-lookahead part of a link as local
    /// processing time instead.
    pub fn send(&mut self, dst: u32, delay: f64, msg: M) {
        assert!(
            delay.is_finite() && delay >= self.lookahead,
            "cross-rank delay {delay} violates conservative lookahead {}",
            self.lookahead
        );
        self.remote.push((dst, self.now + delay, msg));
    }
}

/// A routed cross-rank message awaiting delivery at a window barrier:
/// `(source rank, destination rank, arrival time, payload)`.
type Routed<M> = (u32, u32, f64, M);

/// Heap entry ordered by [`EventKey`] alone (payloads are opaque).
struct Ev<M> {
    key: EventKey,
    msg: M,
}

impl<M> PartialEq for Ev<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Ev<M> {}
impl<M> PartialOrd for Ev<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Ev<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inversion: smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// Per-rank execution state.
struct Rank<P: LogicalProcess> {
    proc: P,
    heap: BinaryHeap<Ev<P::Msg>>,
    seq: u64,
    now: f64,
    fired: u64,
    digest: u64,
}

impl<P: LogicalProcess> Rank<P> {
    /// Processes every pending event strictly before `horizon`; returns
    /// the cross-rank messages produced.
    fn process_window(
        &mut self,
        rank: u32,
        horizon: f64,
        lookahead: f64,
    ) -> Vec<(u32, f64, P::Msg)> {
        let mut outbox = Vec::new();
        while let Some(ev) = self.heap.peek() {
            if ev.key.at >= horizon {
                break;
            }
            let ev = self.heap.pop().expect("peeked");
            self.now = ev.key.at;
            self.fired += 1;
            self.digest = fnv_fold(self.digest, ev.key.at.to_bits());
            self.digest = fnv_fold(self.digest, ev.key.rank as u64);
            self.digest = fnv_fold(self.digest, ev.key.seq);
            let mut mb = Mailbox {
                now: self.now,
                lookahead,
                local: Vec::new(),
                remote: Vec::new(),
            };
            self.proc.handle(self.now, ev.msg, &mut mb);
            for (at, msg) in mb.local {
                self.seq += 1;
                self.heap.push(Ev {
                    key: EventKey::new(at, rank, self.seq),
                    msg,
                });
            }
            outbox.extend(mb.remote);
        }
        outbox
    }
}

/// Summary of a parallel (or sequential reference) run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParallelReport {
    /// Total events processed across all ranks.
    pub events: u64,
    /// Synchronization windows executed (0 for the sequential reference).
    pub windows: u64,
    /// Latest rank clock at drain — the simulation's end time.
    pub end_time: f64,
    /// FNV-1a digest folding every rank's processed-event key stream in
    /// rank order: byte-identical across thread counts by construction.
    pub digest: u64,
}

/// The rank-partitioned conservative-lookahead engine.
pub struct ParallelDes<P: LogicalProcess> {
    ranks: Vec<Rank<P>>,
    lookahead: f64,
}

impl<P: LogicalProcess> ParallelDes<P> {
    /// Builds an engine over `procs` (one rank each) with the given
    /// conservative lookahead (must be positive and finite).
    pub fn new(procs: Vec<P>, lookahead: f64) -> Self {
        assert!(
            lookahead > 0.0 && lookahead.is_finite(),
            "lookahead must be positive, got {lookahead}"
        );
        Self {
            ranks: procs
                .into_iter()
                .map(|proc| Rank {
                    proc,
                    heap: BinaryHeap::new(),
                    seq: 0,
                    now: 0.0,
                    fired: 0,
                    digest: FNV_OFFSET,
                })
                .collect(),
            lookahead,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Seeds an initial event on `rank` at absolute time `at`.
    pub fn seed(&mut self, rank: usize, at: f64, msg: P::Msg) {
        assert!(at >= 0.0 && at.is_finite(), "invalid seed time {at}");
        let r = &mut self.ranks[rank];
        r.seq += 1;
        r.heap.push(Ev {
            key: EventKey::new(at, rank as u32, r.seq),
            msg,
        });
    }

    /// A reference to rank `i`'s process (inspect final state after a
    /// run).
    pub fn process(&self, i: usize) -> &P {
        &self.ranks[i].proc
    }

    fn floor(&self) -> Option<f64> {
        self.ranks
            .iter()
            .filter_map(|r| r.heap.peek().map(|e| e.key.at))
            .min_by(f64::total_cmp)
    }

    fn deliver(&mut self, outbox: Vec<Routed<P::Msg>>) {
        for (src, dst, at, msg) in outbox {
            let s = &mut self.ranks[src as usize];
            s.seq += 1;
            let key = EventKey::new(at, src, s.seq);
            self.ranks[dst as usize].heap.push(Ev { key, msg });
        }
    }

    fn report(&self, windows: u64) -> ParallelReport {
        let mut digest = FNV_OFFSET;
        for r in &self.ranks {
            digest = fnv_fold(digest, r.digest);
        }
        ParallelReport {
            events: self.ranks.iter().map(|r| r.fired).sum(),
            windows,
            end_time: self
                .ranks
                .iter()
                .map(|r| r.now)
                .fold(0.0, |a, b| if b > a { b } else { a }),
            digest,
        }
    }

    /// Runs every rank to drain on `threads` worker threads (1 runs
    /// inline). The result — process states, digests, event counts — is
    /// byte-identical for every `threads` value.
    pub fn run(&mut self, threads: usize) -> ParallelReport {
        let threads = threads.max(1);
        let mut windows = 0u64;
        while let Some(floor) = self.floor() {
            let horizon = floor + self.lookahead;
            windows += 1;
            let lookahead = self.lookahead;
            let nranks = self.ranks.len();
            let mut outbox: Vec<Routed<P::Msg>> = Vec::new();
            if threads == 1 || nranks <= 1 {
                for (i, r) in self.ranks.iter_mut().enumerate() {
                    for (dst, at, msg) in r.process_window(i as u32, horizon, lookahead) {
                        outbox.push((i as u32, dst, at, msg));
                    }
                }
            } else {
                // Contiguous chunks over ranks; the chunk→worker mapping
                // cannot affect results because ranks share no state and
                // the outbox is merged back in rank order.
                let chunk = nranks.div_ceil(threads);
                let mut per_chunk: Vec<Vec<Routed<P::Msg>>> = Vec::new();
                std::thread::scope(|scope| {
                    let mut handles = Vec::new();
                    for (ci, ranks) in self.ranks.chunks_mut(chunk).enumerate() {
                        handles.push(scope.spawn(move || {
                            let base = ci * chunk;
                            let mut out = Vec::new();
                            for (off, r) in ranks.iter_mut().enumerate() {
                                let i = (base + off) as u32;
                                for (dst, at, msg) in r.process_window(i, horizon, lookahead) {
                                    out.push((i, dst, at, msg));
                                }
                            }
                            out
                        }));
                    }
                    for h in handles {
                        per_chunk.push(h.join().expect("parallel DES worker panicked"));
                    }
                });
                for v in per_chunk {
                    outbox.extend(v);
                }
            }
            self.deliver(outbox);
        }
        self.report(windows)
    }

    /// Windowless reference executor: one event at a time in global
    /// `EventKey` order, messages delivered immediately. Exists to
    /// prove the windowed parallel run changes nothing — its report must
    /// equal [`Self::run`]'s except for the window count.
    pub fn run_sequential(&mut self) -> ParallelReport {
        loop {
            let next = self
                .ranks
                .iter()
                .enumerate()
                .filter_map(|(i, r)| r.heap.peek().map(|e| (e.key, i)))
                .min_by(|a, b| a.0.cmp(&b.0));
            let Some((_, i)) = next else { break };
            let horizon = self.ranks[i].heap.peek().expect("peeked").key.at;
            // Process exactly one event: a horizon just past it.
            let r = &mut self.ranks[i];
            let ev = r.heap.pop().expect("peeked");
            r.now = ev.key.at;
            r.fired += 1;
            r.digest = fnv_fold(r.digest, ev.key.at.to_bits());
            r.digest = fnv_fold(r.digest, ev.key.rank as u64);
            r.digest = fnv_fold(r.digest, ev.key.seq);
            let mut mb = Mailbox {
                now: r.now,
                lookahead: self.lookahead,
                local: Vec::new(),
                remote: Vec::new(),
            };
            r.proc.handle(r.now, ev.msg, &mut mb);
            for (at, msg) in mb.local {
                r.seq += 1;
                r.heap.push(Ev {
                    key: EventKey::new(at, i as u32, r.seq),
                    msg,
                });
            }
            let remote: Vec<Routed<P::Msg>> = mb
                .remote
                .into_iter()
                .map(|(dst, at, msg)| (i as u32, dst, at, msg))
                .collect();
            self.deliver(remote);
            let _ = horizon;
        }
        self.report(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rank that fires `hops` messages around a ring, recording every
    /// (time, payload) it sees.
    struct RingNode {
        rank: u32,
        n: u32,
        hops: u32,
        seen: Vec<(u64, u32)>,
    }

    #[derive(Clone)]
    struct Hop {
        left: u32,
        tag: u32,
    }

    impl LogicalProcess for RingNode {
        type Msg = Hop;
        fn handle(&mut self, now: f64, msg: Hop, out: &mut Mailbox<Hop>) {
            self.seen.push((now.to_bits(), msg.tag));
            if msg.left > 0 {
                let dst = (self.rank + 1) % self.n;
                out.send(
                    dst,
                    1e-3 + (msg.tag % 3) as f64 * 1e-4,
                    Hop {
                        left: msg.left - 1,
                        tag: msg.tag,
                    },
                );
            }
            let _ = self.hops;
        }
    }

    fn ring(n: u32, hops: u32) -> ParallelDes<RingNode> {
        let procs = (0..n)
            .map(|rank| RingNode {
                rank,
                n,
                hops,
                seen: Vec::new(),
            })
            .collect();
        let mut des = ParallelDes::new(procs, 1e-3);
        for r in 0..n {
            des.seed(r as usize, 0.0, Hop { left: hops, tag: r });
        }
        des
    }

    #[test]
    fn ring_drains_with_expected_event_count() {
        let mut des = ring(8, 20);
        let rep = des.run(1);
        // Each of the 8 seeds fires once plus 20 hops.
        assert_eq!(rep.events, 8 * 21);
        assert!(rep.end_time > 0.0);
        assert!(rep.windows > 0);
    }

    #[test]
    fn thread_count_cannot_change_anything() {
        let base = ring(13, 37).run(1);
        for threads in [2, 3, 8, 16] {
            let rep = ring(13, 37).run(threads);
            assert_eq!(rep.events, base.events, "threads={threads}");
            assert_eq!(rep.digest, base.digest, "threads={threads}");
            assert_eq!(
                rep.end_time.to_bits(),
                base.end_time.to_bits(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn windowed_run_matches_sequential_reference() {
        let par = ring(11, 25).run(4);
        let seq = ring(11, 25).run_sequential();
        assert_eq!(par.events, seq.events);
        assert_eq!(par.digest, seq.digest);
        assert_eq!(par.end_time.to_bits(), seq.end_time.to_bits());
        // And the per-rank observation logs agree message-for-message.
        let mut a = ring(5, 9);
        let mut b = ring(5, 9);
        a.run(8);
        b.run_sequential();
        for i in 0..5 {
            assert_eq!(a.process(i).seen, b.process(i).seen, "rank {i} log");
        }
    }

    #[test]
    #[should_panic(expected = "conservative lookahead")]
    fn sub_lookahead_send_is_rejected() {
        struct Bad;
        impl LogicalProcess for Bad {
            type Msg = ();
            fn handle(&mut self, _now: f64, _msg: (), out: &mut Mailbox<()>) {
                out.send(1, 1e-9, ()); // below the 1e-3 lookahead
            }
        }
        let mut des = ParallelDes::new(vec![Bad, Bad], 1e-3);
        des.seed(0, 0.0, ());
        des.run(1);
    }

    #[test]
    fn zero_delay_self_schedule_is_legal_and_ordered() {
        struct Chain {
            log: Vec<u32>,
        }
        impl LogicalProcess for Chain {
            type Msg = u32;
            fn handle(&mut self, _now: f64, msg: u32, out: &mut Mailbox<u32>) {
                self.log.push(msg);
                if msg < 5 {
                    out.schedule(0.0, msg + 1);
                }
            }
        }
        let mut des = ParallelDes::new(vec![Chain { log: Vec::new() }], 1.0);
        des.seed(0, 0.0, 0);
        let rep = des.run(1);
        assert_eq!(rep.events, 6);
        assert_eq!(des.process(0).log, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rep.end_time, 0.0);
    }

    #[test]
    fn same_time_cross_rank_messages_order_by_source_rank() {
        // Ranks 1 and 2 both message rank 0 to arrive at the same
        // instant; rank 0 must see them ordered by source rank, however
        // the windows happened to batch them.
        struct Node {
            rank: u32,
            log: Vec<u32>,
        }
        #[derive(Clone)]
        enum M {
            Kick,
            Tagged(u32),
        }
        impl LogicalProcess for Node {
            type Msg = M;
            fn handle(&mut self, _now: f64, msg: M, out: &mut Mailbox<M>) {
                match msg {
                    M::Kick => out.send(0, 0.5, M::Tagged(self.rank)),
                    M::Tagged(src) => self.log.push(src),
                }
            }
        }
        for seed_order in [[2usize, 1], [1, 2]] {
            let mut des = ParallelDes::new(
                (0..3)
                    .map(|rank| Node {
                        rank,
                        log: Vec::new(),
                    })
                    .collect(),
                0.5,
            );
            for &r in &seed_order {
                des.seed(r, 0.0, M::Kick);
            }
            des.run(3);
            assert_eq!(des.process(0).log, vec![1, 2], "seeds {seed_order:?}");
        }
    }
}
