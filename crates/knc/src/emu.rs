//! Cycle-level functional emulator of one Knights Corner core.
//!
//! [`CoreSim`] executes a kernel [`Program`] on up to four hardware
//! threads, advancing a virtual cycle counter under the issue rules of
//! [`PipelineConfig`]:
//!
//! * one vector (U-pipe) instruction per cycle, round-robin among threads;
//! * one prefetch/scalar (V-pipe) instruction may co-issue with it;
//! * every memory-operand instruction claims the L1 read port for its
//!   cycle, stores claim the write port;
//! * an L1 prefetch enqueues a *pending fill* that arrives after the
//!   L2-hit latency and then needs a cycle with both ports free; after
//!   `fill_defer_threshold` deferrals the pipeline stalls to force it
//!   through (Fig. 1c);
//! * demand misses stall the pipeline.
//!
//! Arithmetic is executed for real — the register file and memory hold
//! actual `f64`s — so the same run yields both a bit-exact result and a
//! cycle count. `vprefetch1` (L2 prefetch) installs its line eagerly; the
//! approximation only affects demand accesses landing inside the L2
//! latency window, which the tuned kernels never do.

use crate::cache::{Cache, CacheConfig, PendingFill};
use crate::isa::{
    broadcast, swizzle, Addr, Instr, Operand, Program, StreamId, VReg, NUM_VREGS, VLEN,
};
use crate::pipeline::{PipelineConfig, TraceConfig};
use crate::tlb::Tlb;
use crate::trace::{self, Cmd, CmdKind, ExecOut, ReadOut, Recording, TraceEngine, TraceStats};

/// Per-thread base element indices of the three kernel streams.
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamBases {
    /// Base of the packed `A` tile (usually shared across threads).
    pub a: usize,
    /// Base of this thread's packed `B` tile.
    pub b: usize,
    /// Base of this thread's `C` output tile.
    pub c: usize,
}

impl StreamBases {
    fn get(&self, s: StreamId) -> usize {
        match s {
            StreamId::A => self.a,
            StreamId::B => self.b,
            StreamId::C => self.c,
        }
    }
}

/// Counters produced by a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Vector (U-pipe) instructions issued.
    pub vector_issued: u64,
    /// Vector multiply-adds among them.
    pub fmadds: u64,
    /// V-pipe (prefetch/scalar) instructions issued.
    pub vpipe_issued: u64,
    /// Pipeline stall cycles forced by blocked prefetch fills (Fig. 1c).
    pub fill_stall_cycles: u64,
    /// Stall cycles from demand misses (unprefetched data).
    pub demand_stall_cycles: u64,
    /// Prefetch fills completed without stalling (landed in port holes).
    pub fills_in_holes: u64,
    /// Total L1 prefetch fills completed.
    pub fills_completed: u64,
}

/// Control state of one hardware thread (registers live in [`CoreSim`]).
#[derive(Clone, Copy, Debug)]
pub(crate) struct ThreadCtl {
    pub(crate) bases: StreamBases,
    pub(crate) pc: usize,
    pub(crate) iter: usize,
    pub(crate) in_epilogue: bool,
    pub(crate) done: bool,
}

impl ThreadCtl {
    fn new(bases: StreamBases) -> Self {
        Self {
            bases,
            pc: 0,
            iter: 0,
            in_epilogue: false,
            done: false,
        }
    }
}

/// One simulated KNC core: shared L1/L2, four threads, one vector pipe.
pub struct CoreSim {
    pub(crate) cfg: PipelineConfig,
    pub(crate) mem: Vec<f64>,
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
    pub(crate) tlb: Tlb,
    pub(crate) thread_regs: Vec<[VReg; NUM_VREGS]>,
    pub(crate) pending_fills: Vec<PendingFill>,
    pub(crate) stats: RunStats,
    pub(crate) cycle: u64,
    /// Remaining stall cycles (no issue while > 0).
    pub(crate) stall: u64,
    /// Block-trace engine; `None` runs pure interpretation.
    trace: Option<Box<TraceEngine>>,
    /// In-progress segment recording (owned here so the hot execute path
    /// can push commands without going through the engine).
    pub(crate) rec: Option<Recording>,
    /// Outcome class of the instruction currently executing (scratch).
    last_out: ExecOut,
}

impl CoreSim {
    /// Creates a core over the given memory image.
    pub fn new(cfg: PipelineConfig, mem: Vec<f64>) -> Self {
        let threads = cfg.threads_per_core;
        Self {
            cfg,
            mem,
            l1: Cache::new(CacheConfig::knc_l1()),
            l2: Cache::new(CacheConfig::knc_l2()),
            tlb: Tlb::knc_dtlb(),
            thread_regs: vec![[[0.0; VLEN]; NUM_VREGS]; threads],
            pending_fills: Vec::new(),
            stats: RunStats::default(),
            cycle: 0,
            stall: 0,
            trace: None,
            rec: None,
            last_out: ExecOut::None,
        }
    }

    /// Enables the block-trace fast path with default knobs. Runs stay
    /// bit-identical to pure interpretation; see `crate::trace`.
    pub fn enable_trace(&mut self) {
        self.enable_trace_with(TraceConfig::default());
    }

    /// [`Self::enable_trace`] with explicit [`TraceConfig`] knobs.
    fn enable_trace_with(&mut self, cfg: TraceConfig) {
        self.trace = Some(Box::new(TraceEngine::new(cfg)));
    }

    /// Trace-engine counters (`None` when tracing is disabled).
    pub fn trace_stats(&self) -> Option<TraceStats> {
        self.trace.as_ref().map(|t| t.stats())
    }

    /// Ratio of total simulated cycles to interpreter-executed cycles —
    /// the deterministic coverage speedup of the fast path (1.0 when
    /// nothing replayed).
    pub(crate) fn replay_speedup(&self) -> f64 {
        let Some(ts) = self.trace_stats() else {
            return 1.0;
        };
        let total = self.stats.cycles;
        let interpreted = total.saturating_sub(ts.replayed_cycles);
        if total == 0 || interpreted == 0 {
            1.0
        } else {
            total as f64 / interpreted as f64
        }
    }

    /// A TLB shootdown: drops every translation and, because the modelled
    /// invalidation also flushes the core's caches and kills in-flight
    /// prefetches, it is a block-invalidating event — all trace templates
    /// are discarded. Applied identically whether or not tracing is on.
    pub fn tlb_shootdown(&mut self) {
        self.tlb.flush();
        self.l1.flush();
        self.l2.flush();
        self.pending_fills.clear();
        self.rec = None;
        if let Some(t) = &mut self.trace {
            t.invalidate_templates();
        }
    }

    /// FNV-1a digest of the complete architectural + micro-architectural
    /// state: cycle, stall, all counters, every register bit, every memory
    /// bit, cache tag state, TLB state, and pending fills. Two simulations
    /// agree on this digest iff they are bit-identical.
    pub fn state_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let fold = |w: u64, h: &mut u64| {
            for b in w.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        fold(self.cycle, &mut h);
        fold(self.stall, &mut h);
        let s = &self.stats;
        for w in [
            s.cycles,
            s.vector_issued,
            s.fmadds,
            s.vpipe_issued,
            s.fill_stall_cycles,
            s.demand_stall_cycles,
            s.fills_in_holes,
            s.fills_completed,
        ] {
            fold(w, &mut h);
        }
        for regs in &self.thread_regs {
            for r in regs.iter() {
                for v in r {
                    fold(v.to_bits(), &mut h);
                }
            }
        }
        for v in &self.mem {
            fold(v.to_bits(), &mut h);
        }
        fold(self.l1.digest(), &mut h);
        fold(self.l2.digest(), &mut h);
        fold(self.tlb.digest(), &mut h);
        for f in &self.pending_fills {
            fold(f.elem_idx as u64, &mut h);
            fold(f.ready_at, &mut h);
            fold(f.deferred as u64, &mut h);
            fold(f.scale_iter as u64, &mut h);
        }
        h
    }

    /// L1 (hits, misses).
    pub fn l1_stats(&self) -> (u64, u64) {
        self.l1.stats()
    }

    /// L2 (hits, misses).
    pub fn l2_stats(&self) -> (u64, u64) {
        self.l2.stats()
    }

    /// TLB (hits, misses).
    pub fn tlb_stats(&self) -> (u64, u64) {
        self.tlb.stats()
    }

    /// Marks `len` elements starting at `start` as L2-resident, as if
    /// freshly written through the cache hierarchy. Runners call this for
    /// buffers their packing stage just produced (packed SpMV slices,
    /// stencil tap blocks): a packer that stored the data moments ago
    /// leaves it in L2, so the kernel's `vprefetch0` pays the L2-hit
    /// latency rather than a full GDDR access. Costs no cycles.
    pub(crate) fn warm_l2(&mut self, start: usize, len: usize) {
        let mut idx = start;
        while idx < start + len {
            self.l2.fill(idx);
            idx += 8;
        }
    }

    /// The memory image (read results back after a run).
    pub fn mem(&self) -> &[f64] {
        &self.mem
    }

    /// Mutable access to memory (set up inputs).
    pub fn mem_mut(&mut self) -> &mut [f64] {
        &mut self.mem
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// Runs `body` for `iters` iterations followed by `epilogue` once, on
    /// one hardware thread per entry of `threads`. Returns the cycles
    /// consumed by this segment.
    pub fn run(
        &mut self,
        body: &Program,
        epilogue: &Program,
        iters: usize,
        threads: &[StreamBases],
    ) -> u64 {
        self.run_with_marks(body, epilogue, iters, threads, iters, iters)
            .0
    }

    /// Like [`Self::run`], but additionally reports two checkpoints for
    /// steady-state measurement: the cycles at which **all** threads had
    /// completed `mark1` (resp. `mark2`) loop iterations. Placing both
    /// marks strictly inside the loop excludes cold-start effects *and*
    /// the end-of-loop drain (where the first thread's epilogue demand
    /// misses stall threads still finishing the loop).
    pub fn run_with_marks(
        &mut self,
        body: &Program,
        epilogue: &Program,
        iters: usize,
        threads: &[StreamBases],
        mark1: usize,
        mark2: usize,
    ) -> (u64, u64, u64) {
        assert!(!threads.is_empty() && threads.len() <= self.cfg.threads_per_core);
        let start_cycle = self.cycle;
        let nthreads = self.cfg.threads_per_core;
        let mut ts: Vec<ThreadCtl> = threads.iter().map(|b| ThreadCtl::new(*b)).collect();
        if iters == 0 && epilogue.body.is_empty() {
            return (0, 0, 0);
        }
        let budget = 10_000_000u64
            + (iters as u64 + 2) * 64 * (body.body.len() + epilogue.body.len() + 1) as u64;
        let mut mark1_cycle: Option<u64> = None;
        let mut mark2_cycle: Option<u64> = None;

        // The engine is moved out so it can borrow `self` mutably at
        // segment boundaries; restored before returning.
        let mut eng = self.trace.take();
        if let Some(e) = eng.as_mut() {
            e.begin_run(trace::fingerprint(body, epilogue, threads, nthreads));
        }

        while !ts.iter().all(|t| t.done) {
            if let Some(e) = eng.as_mut() {
                // A candidate segment boundary: thread 0's own issue slot
                // with the pipeline drained. The loop-body wrap itself is
                // not observable between slots (`issue_slot` wraps and
                // keeps issuing), so segment completion is detected by
                // thread 0's iteration counter having advanced to the
                // recording's target `k` — segments then tile the run
                // one macro-iteration at a time.
                let in_segment = self.rec.as_ref().is_some_and(|r| ts[0].iter < r.k);
                if self.stall == 0
                    && !body.body.is_empty()
                    && (self.cycle as usize).is_multiple_of(nthreads)
                    && !ts[0].done
                    && !ts[0].in_epilogue
                    && !in_segment
                {
                    e.on_boundary(self, &ts);
                    while let Some(r) = e.try_replay(self, &mut ts, iters) {
                        // The interpreter's mark checkpoints fire on the
                        // first cycle where every thread reached the mark
                        // iteration; inside a replayed segment those are
                        // its recorded crossings, in ascending order.
                        let entry_rel = self.cycle - start_cycle - r.len;
                        for &(rel, off) in &r.reach {
                            let v = r.k as i64 + rel;
                            if mark1_cycle.is_none() && v >= mark1 as i64 {
                                mark1_cycle = Some(entry_rel + off as u64);
                            }
                            if mark2_cycle.is_none() && v >= mark2 as i64 {
                                mark2_cycle = Some(entry_rel + off as u64);
                            }
                        }
                    }
                    e.arm_recording(self, &ts);
                }
            }
            let mut read_busy = false;
            let mut write_busy = false;

            if self.stall > 0 {
                self.stall -= 1;
            } else {
                let tid = (self.cycle as usize) % nthreads;
                if tid < ts.len() && !ts[tid].done {
                    self.issue_slot(
                        &mut ts[tid],
                        tid,
                        body,
                        epilogue,
                        iters,
                        &mut read_busy,
                        &mut write_busy,
                    );
                }
            }

            self.advance_fills(read_busy, write_busy);
            self.cycle += 1;
            self.stats.cycles = self.cycle;
            if mark1_cycle.is_none() && ts.iter().all(|t| t.iter >= mark1 || t.done) {
                mark1_cycle = Some(self.cycle - start_cycle);
            }
            if mark2_cycle.is_none() && ts.iter().all(|t| t.iter >= mark2 || t.done) {
                mark2_cycle = Some(self.cycle - start_cycle);
            }
            if let Some(rec) = &mut self.rec {
                // Mark-crossing detector: record the offset at which each
                // successive iteration count becomes reached-by-all.
                let min_live = ts.iter().filter(|t| !t.done).map(|t| t.iter as i64).min();
                if let Some(m) = min_live {
                    while rec.last_min < m {
                        rec.last_min += 1;
                        rec.reach.push((
                            rec.last_min - rec.k as i64,
                            (self.cycle - rec.entry_cycle) as u32,
                        ));
                    }
                }
            }
            assert!(
                self.cycle - start_cycle < budget,
                "emulated kernel failed to converge"
            );
        }
        self.rec = None;
        self.trace = eng;
        let total = self.cycle - start_cycle;
        (
            total,
            mark1_cycle.unwrap_or(total),
            mark2_cycle.unwrap_or(total),
        )
    }

    /// Issues up to one U-pipe and one V-pipe instruction for one thread.
    #[allow(clippy::too_many_arguments)]
    fn issue_slot(
        &mut self,
        t: &mut ThreadCtl,
        tid: usize,
        body: &Program,
        epilogue: &Program,
        iters: usize,
        read_busy: &mut bool,
        write_busy: &mut bool,
    ) {
        let mut issued_vector = false;
        let mut issued_vpipe = false;

        loop {
            let prog: &Program = if t.in_epilogue { epilogue } else { body };
            if t.pc >= prog.body.len() {
                if !t.in_epilogue {
                    t.iter += 1;
                    t.pc = 0;
                    if t.iter >= iters {
                        t.in_epilogue = true;
                        if epilogue.body.is_empty() {
                            t.done = true;
                            return;
                        }
                    }
                    continue;
                }
                t.done = true;
                return;
            }
            let instr = prog.body[t.pc];
            if instr.is_vector() {
                if issued_vector {
                    return;
                }
                issued_vector = true;
            } else {
                if issued_vpipe {
                    return;
                }
                issued_vpipe = true;
            }
            t.pc += 1;
            self.execute(instr, t.iter, tid, t.bases, read_busy, write_busy);
            if issued_vector && issued_vpipe {
                return;
            }
        }
    }

    /// Functional + port-model execution of a single instruction.
    fn execute(
        &mut self,
        instr: Instr,
        iter: usize,
        thread: usize,
        bases: StreamBases,
        read_busy: &mut bool,
        write_busy: &mut bool,
    ) {
        self.last_out = ExecOut::None;
        let resolve = |a: &Addr| a.resolve(iter, thread, bases.get(a.stream));
        match instr {
            Instr::Fmadd { acc, src, b } => {
                let sv = self.operand_value(&src, iter, thread, bases, read_busy);
                let bv = self.thread_regs[thread][b as usize];
                let out = &mut self.thread_regs[thread][acc as usize];
                for l in 0..VLEN {
                    out[l] = sv[l].mul_add(bv[l], out[l]);
                }
                self.stats.vector_issued += 1;
                self.stats.fmadds += 1;
            }
            Instr::Load { dst, addr } => {
                let idx = resolve(&addr);
                self.demand_access(idx, read_busy);
                let mut v = [0.0; VLEN];
                v.copy_from_slice(&self.mem[idx..idx + VLEN]);
                self.thread_regs[thread][dst as usize] = v;
                self.stats.vector_issued += 1;
            }
            Instr::Store { src, addr } => {
                let idx = resolve(&addr);
                *write_busy = true;
                self.tlb.access(idx * 8);
                let v = self.thread_regs[thread][src as usize];
                self.mem[idx..idx + VLEN].copy_from_slice(&v);
                self.l1.fill(idx); // write-allocate
                self.stats.vector_issued += 1;
            }
            Instr::Broadcast { dst, addr, mode } => {
                let idx = resolve(&addr);
                self.demand_access(idx, read_busy);
                self.thread_regs[thread][dst as usize] = broadcast(&self.mem, idx, mode);
                self.stats.vector_issued += 1;
            }
            Instr::Add { dst, src } => {
                let sv = self.operand_value(&src, iter, thread, bases, read_busy);
                let out = &mut self.thread_regs[thread][dst as usize];
                for l in 0..VLEN {
                    out[l] += sv[l];
                }
                self.stats.vector_issued += 1;
            }
            Instr::Mul { dst, src } => {
                let sv = self.operand_value(&src, iter, thread, bases, read_busy);
                let out = &mut self.thread_regs[thread][dst as usize];
                for l in 0..VLEN {
                    out[l] *= sv[l];
                }
                self.stats.vector_issued += 1;
            }
            Instr::PrefetchL1(addr) => {
                let idx = resolve(&addr);
                self.tlb.access(idx * 8);
                self.stats.vpipe_issued += 1;
                let line = idx / 8;
                if !self.l1.contains(idx)
                    && !self.pending_fills.iter().any(|f| f.elem_idx / 8 == line)
                {
                    let l2_hit = self.l2.contains(idx);
                    let latency = if l2_hit {
                        self.cfg.l2_hit_latency
                    } else {
                        self.cfg.mem_latency
                    };
                    self.l2.fill(idx); // the line passes through L2
                    self.pending_fills.push(PendingFill {
                        elem_idx: idx,
                        ready_at: self.cycle + latency,
                        deferred: 0,
                        scale_iter: addr.scale_iter,
                    });
                    self.last_out = ExecOut::Pref1Queue { l2_hit };
                } else {
                    self.last_out = ExecOut::Pref1Skip;
                }
            }
            Instr::PrefetchL2(addr) => {
                let idx = resolve(&addr);
                self.tlb.access(idx * 8);
                self.stats.vpipe_issued += 1;
                // Eager install (see module docs): no L1 port cost.
                self.l2.fill(idx);
            }
            Instr::ScalarOp => {
                self.stats.vpipe_issued += 1;
            }
        }
        let out = self.last_out;
        let cycle = self.cycle;
        if let Some(rec) = self.rec.as_mut() {
            // Iteration-relative address constant: replay recomputes the
            // concrete index as c0 + k * scale_iter.
            let c0 = match Self::instr_addr(&instr) {
                Some(a) => {
                    a.resolve(iter, thread, bases.get(a.stream)) as i64
                        - (rec.k as i64) * (a.scale_iter as i64)
                }
                None => 0,
            };
            rec.cmds.push(Cmd {
                off: (cycle - rec.entry_cycle) as u32,
                kind: CmdKind::Exec {
                    tid: thread as u8,
                    instr,
                    c0,
                    out,
                },
            });
        }
    }

    /// The memory address an instruction touches, if any.
    fn instr_addr(instr: &Instr) -> Option<Addr> {
        match instr {
            Instr::Load { addr, .. }
            | Instr::Store { addr, .. }
            | Instr::Broadcast { addr, .. }
            | Instr::PrefetchL1(addr)
            | Instr::PrefetchL2(addr) => Some(*addr),
            Instr::Fmadd { src, .. } | Instr::Add { src, .. } | Instr::Mul { src, .. } => {
                src.addr()
            }
            Instr::ScalarOp => None,
        }
    }

    /// Reads a source operand, modelling its port usage and demand misses.
    fn operand_value(
        &mut self,
        op: &Operand,
        iter: usize,
        thread: usize,
        bases: StreamBases,
        read_busy: &mut bool,
    ) -> VReg {
        match op {
            Operand::Reg(r) => self.thread_regs[thread][*r as usize],
            Operand::Swizzle(r, i) => swizzle(&self.thread_regs[thread][*r as usize], *i),
            Operand::Mem(a) => {
                let idx = a.resolve(iter, thread, bases.get(a.stream));
                self.demand_access(idx, read_busy);
                let mut v = [0.0; VLEN];
                v.copy_from_slice(&self.mem[idx..idx + VLEN]);
                v
            }
            Operand::MemBcast(a, mode) => {
                let idx = a.resolve(iter, thread, bases.get(a.stream));
                self.demand_access(idx, read_busy);
                broadcast(&self.mem, idx, *mode)
            }
        }
    }

    /// Models a demand read: claims the read port; on L1 miss, charges the
    /// appropriate stall and installs the line.
    fn demand_access(&mut self, idx: usize, read_busy: &mut bool) {
        *read_busy = true;
        self.tlb.access(idx * 8);
        if self.l1.access(idx) {
            self.last_out = ExecOut::Read(ReadOut::Hit);
            return;
        }
        let line = idx / 8;
        if let Some(pos) = self
            .pending_fills
            .iter()
            .position(|f| f.elem_idx / 8 == line)
        {
            // Prefetch in flight: wait only for its arrival.
            let f = self.pending_fills.remove(pos);
            let wait = f.ready_at.saturating_sub(self.cycle).max(1);
            self.stall += wait;
            self.stats.demand_stall_cycles += wait;
            self.l1.fill(idx);
            self.stats.fills_completed += 1;
            self.last_out = ExecOut::Read(ReadOut::Pending { wait });
            return;
        }
        let l2_hit = self.l2.contains(idx);
        let penalty = if l2_hit {
            self.cfg.demand_l2_penalty
        } else {
            self.cfg.demand_mem_penalty
        };
        self.stall += penalty;
        self.stats.demand_stall_cycles += penalty;
        self.l2.fill(idx);
        self.l1.fill(idx);
        self.last_out = ExecOut::Read(if l2_hit { ReadOut::L2 } else { ReadOut::Mem });
    }

    /// Tries to complete one pending L1 fill this cycle; defers or forces
    /// a stall per Fig. 1c.
    fn advance_fills(&mut self, read_busy: bool, write_busy: bool) {
        let cyc = self.cycle;
        let Some(pos) = self.pending_fills.iter().position(|f| f.ready_at <= cyc) else {
            return;
        };
        let kind;
        if !read_busy && !write_busy {
            let f = self.pending_fills.remove(pos);
            self.l1.fill(f.elem_idx);
            self.stats.fills_completed += 1;
            self.stats.fills_in_holes += 1;
            kind = trace::FillKind::Hole;
        } else {
            let f = &mut self.pending_fills[pos];
            f.deferred += 1;
            if f.deferred >= self.cfg.fill_defer_threshold {
                let f = self.pending_fills.remove(pos);
                self.l1.fill(f.elem_idx);
                self.stats.fills_completed += 1;
                self.stall += self.cfg.fill_stall_cycles;
                self.stats.fill_stall_cycles += self.cfg.fill_stall_cycles;
                kind = trace::FillKind::Forced;
            } else {
                kind = trace::FillKind::Defer;
            }
        }
        if let Some(rec) = &mut self.rec {
            rec.cmds.push(Cmd {
                off: (cyc - rec.entry_cycle) as u32,
                kind: CmdKind::Fill(kind),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::BcastMode;

    fn addr(stream: StreamId, scale: usize, off: usize) -> Addr {
        Addr::new(stream, scale, off)
    }

    /// A trivial program: load 8 values, add a broadcast constant, store.
    #[test]
    fn functional_load_add_store() {
        let mut mem = vec![0.0; 64];
        for (i, m) in mem.iter_mut().enumerate().take(8) {
            *m = i as f64;
        }
        mem[8] = 10.0; // broadcast source
        let mut sim = CoreSim::new(PipelineConfig::default(), mem);
        let mut body = Program::new();
        body.push(Instr::Load {
            dst: 0,
            addr: addr(StreamId::A, 0, 0),
        });
        body.push(Instr::Add {
            dst: 0,
            src: Operand::MemBcast(addr(StreamId::A, 0, 8), BcastMode::OneToEight),
        });
        body.push(Instr::Store {
            src: 0,
            addr: addr(StreamId::C, 0, 0),
        });
        let threads = [StreamBases { a: 0, b: 0, c: 16 }];
        sim.run(&body, &Program::new(), 1, &threads);
        for i in 0..8 {
            assert_eq!(sim.mem()[16 + i], i as f64 + 10.0);
        }
    }

    /// An FMA with a register operand and a swizzled operand.
    #[test]
    fn functional_fmadd_swizzle() {
        let mut mem = vec![0.0; 64];
        // b row = [1..8]; a 4to8 source = [2,3,4,5].
        for (i, m) in mem.iter_mut().enumerate().take(8) {
            *m = (i + 1) as f64;
        }
        mem[8] = 2.0;
        mem[9] = 3.0;
        mem[10] = 4.0;
        mem[11] = 5.0;
        let mut sim = CoreSim::new(PipelineConfig::default(), mem);
        let mut body = Program::new();
        body.push(Instr::Load {
            dst: 31,
            addr: addr(StreamId::A, 0, 0),
        });
        body.push(Instr::Broadcast {
            dst: 30,
            addr: addr(StreamId::A, 0, 8),
            mode: BcastMode::FourToEight,
        });
        // acc v0 += swizzle_1(v30) * v31  →  lane l: 3.0 * (l+1)
        body.push(Instr::Fmadd {
            acc: 0,
            src: Operand::Swizzle(30, 1),
            b: 31,
        });
        body.push(Instr::Store {
            src: 0,
            addr: addr(StreamId::C, 0, 0),
        });
        let threads = [StreamBases { a: 0, b: 0, c: 32 }];
        sim.run(&body, &Program::new(), 1, &threads);
        for l in 0..8 {
            assert_eq!(sim.mem()[32 + l], 3.0 * (l + 1) as f64, "lane {l}");
        }
        assert_eq!(sim.stats().fmadds, 1);
    }

    /// Demand misses cost cycles; a second pass over the same data does
    /// not.
    #[test]
    fn demand_misses_are_charged_once() {
        let mem = vec![1.0; 1024];
        let mut sim = CoreSim::new(PipelineConfig::default(), mem);
        let mut body = Program::new();
        body.push(Instr::Load {
            dst: 0,
            addr: addr(StreamId::A, 8, 0),
        });
        let threads = [StreamBases::default()];
        let cold = sim.run(&body, &Program::new(), 8, &threads);
        let warm = sim.run(&body, &Program::new(), 8, &threads);
        assert!(
            cold > warm,
            "cold pass ({cold}) must be slower than warm ({warm})"
        );
        assert!(sim.stats().demand_stall_cycles > 0);
    }

    /// Prefetched lines arrive without demand stalls.
    #[test]
    fn prefetch_hides_latency() {
        let mem = vec![1.0; 4096];
        // Version A: stream loads with no prefetch.
        let mut body_np = Program::new();
        body_np.push(Instr::Load {
            dst: 0,
            addr: addr(StreamId::A, 8, 0),
        });
        // Pad with register FMAs so there is time for fills to land.
        for _ in 0..7 {
            body_np.push(Instr::Fmadd {
                acc: 1,
                src: Operand::Reg(2),
                b: 3,
            });
        }
        // Version B: same plus an L1 prefetch 2 iterations ahead (plenty
        // of holes: the register FMAs leave the read port free).
        let mut body_pf = body_np.clone();
        body_pf.push(Instr::PrefetchL2(addr(StreamId::A, 8, 32)));
        body_pf.push(Instr::PrefetchL1(addr(StreamId::A, 8, 16)));

        let threads = [StreamBases::default()];
        let mut sim_np = CoreSim::new(PipelineConfig::default(), mem.clone());
        let c_np = sim_np.run(&body_np, &Program::new(), 64, &threads);
        let mut sim_pf = CoreSim::new(PipelineConfig::default(), mem);
        let c_pf = sim_pf.run(&body_pf, &Program::new(), 64, &threads);
        assert!(
            c_pf < c_np,
            "prefetch ({c_pf}) must beat no-prefetch ({c_np})"
        );
        assert!(sim_pf.stats().fills_in_holes > 0);
    }

    /// Four threads share the vector pipe round-robin: cycles scale with
    /// the thread count, not quadratically.
    #[test]
    fn four_threads_interleave() {
        let mem = vec![1.0; 4096];
        let mut body = Program::new();
        for _ in 0..8 {
            body.push(Instr::Fmadd {
                acc: 1,
                src: Operand::Reg(2),
                b: 3,
            });
        }
        let one = [StreamBases::default()];
        let four = [StreamBases::default(); 4];
        let mut s1 = CoreSim::new(PipelineConfig::default(), mem.clone());
        let c1 = s1.run(&body, &Program::new(), 100, &one);
        let mut s4 = CoreSim::new(PipelineConfig::default(), mem);
        let c4 = s4.run(&body, &Program::new(), 100, &four);
        // One thread only issues every 4th cycle; four threads fill the
        // pipe, so the same per-thread work takes roughly the same wall
        // cycles while doing 4x the FMAs.
        assert_eq!(s4.stats().fmadds, 4 * s1.stats().fmadds);
        assert!(c4 < c1 * 2, "c1={c1} c4={c4}");
        // With 4 threads the pipe is ~fully utilized.
        let fma_efficiency = s4.stats().fmadds as f64 / s4.stats().cycles as f64;
        assert!(fma_efficiency > 0.95, "{fma_efficiency}");
    }
}
