//! Block-trace fast path for the cycle-level emulator.
//!
//! The paper's kernels are steady-state loops: after cache warm-up, every
//! macro-iteration (one pass of the loop body on all hardware threads)
//! issues the same instructions on the same relative cycles with the same
//! cache outcomes. This module exploits that shape the way block-
//! compiling emulators do — but with a guard discipline that makes the
//! fast path *provably* bit-identical to the interpreter:
//!
//! 1. **Record.** While interpreting, [`crate::emu::CoreSim`] logs every
//!    executed instruction and every prefetch-fill event of the current
//!    segment (boundary = thread 0 about to wrap its loop body) as a
//!    `Cmd` with its cycle offset, iteration-relative address constant,
//!    and observed outcome class (L1 hit, in-flight prefetch with its
//!    wait, L2/memory miss, fill-in-hole, defer, forced fill).
//! 2. **Form.** When the last `2p` recorded segments are `p`-periodic
//!    (`p ≤` [`crate::pipeline::TraceConfig::max_period`]), they become a
//!    replay template.
//! 3. **Replay with guards.** At a segment boundary whose architectural
//!    entry pattern (thread PCs, uniform iteration counts, zero stall,
//!    iteration-relative pending-fill list) matches the template, the
//!    segment is re-executed command-by-command: real register/memory
//!    arithmetic, real cache/TLB/pending-list updates — but no per-cycle
//!    loop, no decode, no address resolution. Every cache and fill
//!    decision is re-evaluated against live state and compared to the
//!    recorded outcome class. **Any mismatch rolls the whole segment back
//!    via an undo log and deopts to the interpreter** — so the fast path
//!    can be wrong about steadiness, never about state.
//!
//! Deopt events: a mid-segment outcome mismatch (template dropped, ring
//! cleared), an entry-guard miss (that boundary interprets; recording
//! continues so the template can re-form), a program/bases fingerprint
//! change between runs (self-modifying listings), and
//! [`crate::emu::CoreSim::tlb_shootdown`].

use crate::cache::{CacheUndo, PendingFill};
use crate::emu::{CoreSim, RunStats, StreamBases, ThreadCtl};
use crate::isa::{broadcast, swizzle, Instr, Operand, Program, VReg, VLEN};
use crate::pipeline::TraceConfig;
use crate::tlb::TlbUndo;
use std::collections::VecDeque;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Identity of a (body, epilogue, stream bases, thread count) workload.
/// A change — e.g. a self-modifying edit of the kernel listing between
/// runs — invalidates every template.
pub(crate) fn fingerprint(
    body: &Program,
    epilogue: &Program,
    threads: &[StreamBases],
    nthreads: usize,
) -> u64 {
    let mut h = FNV_OFFSET;
    for s in [
        format!("{body:?}"),
        format!("{epilogue:?}"),
        format!("{threads:?}"),
        format!("{nthreads}"),
    ] {
        for &b in s.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Outcome class of a demand read, recorded and re-verified at replay.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ReadOut {
    /// L1 hit.
    Hit,
    /// Line in flight from a prefetch; stalled `wait` cycles for it.
    Pending {
        /// The exact stall charged (verified at replay).
        wait: u64,
    },
    /// L1 miss, L2 hit.
    L2,
    /// Missed both levels.
    Mem,
}

/// Outcome class of one executed instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum ExecOut {
    /// No memory decision involved.
    None,
    /// The instruction's demand read resolved as recorded.
    Read(ReadOut),
    /// `vprefetch0` deduplicated against L1 or an in-flight fill.
    Pref1Skip,
    /// `vprefetch0` queued a fill (`l2_hit` selects its latency).
    Pref1Queue {
        /// Whether the line was already in L2.
        l2_hit: bool,
    },
}

/// What `advance_fills` did on a cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum FillKind {
    /// Fill completed in a port-free hole.
    Hole,
    /// Fill deferred by a busy port.
    Defer,
    /// Deferral threshold crossed: fill forced through with a stall.
    Forced,
}

/// One recorded event of a segment.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Cmd {
    /// Cycle offset from segment entry.
    pub(crate) off: u32,
    pub(crate) kind: CmdKind,
}

#[derive(Clone, Debug, PartialEq)]
pub(crate) enum CmdKind {
    /// An issued instruction. `c0` is the iteration-relative address
    /// constant: the concrete element index is `c0 + k * scale_iter` for
    /// segment iteration `k` (0 for address-free instructions).
    Exec {
        tid: u8,
        instr: Instr,
        c0: i64,
        out: ExecOut,
    },
    /// An `advance_fills` action.
    Fill(FillKind),
}

/// Iteration-relative view of one in-flight prefetch.
#[derive(Clone, Copy, Debug, PartialEq)]
struct PendPat {
    elem_rel: i64,
    ready_rel: i64,
    deferred: u32,
    scale: usize,
}

/// The architectural entry guard of a segment: thread PCs, per-thread
/// iteration offsets relative to the segment reference (demand-stall
/// windows skew the round-robin by fractional iterations, so threads may
/// run permanently staggered), zero stall, no epilogue/done threads, and
/// the pending-fill list in iteration-relative form.
#[derive(Clone, Debug, PartialEq)]
struct EntryPat {
    pcs: Vec<u16>,
    /// `t.iter - (k - 1)` per thread; index 0 is 0 by construction of
    /// the reference `k = ts[0].iter + 1`.
    deltas: Vec<i16>,
    pending: Vec<PendPat>,
}

impl EntryPat {
    fn capture(core: &CoreSim, ts: &[ThreadCtl], k: usize, entry_cycle: u64) -> Option<Self> {
        if core.stall != 0 || ts.is_empty() || ts[0].iter + 1 != k {
            return None;
        }
        let mut pcs = Vec::with_capacity(ts.len());
        let mut deltas = Vec::with_capacity(ts.len());
        for t in ts {
            if t.in_epilogue || t.done || t.pc > u16::MAX as usize {
                return None;
            }
            let d = t.iter as i64 - (k as i64 - 1);
            if i16::try_from(d).is_err() {
                return None;
            }
            pcs.push(t.pc as u16);
            deltas.push(d as i16);
        }
        let pending = core
            .pending_fills
            .iter()
            .map(|f| PendPat {
                elem_rel: f.elem_idx as i64 - (k as i64) * (f.scale_iter as i64),
                ready_rel: f.ready_at as i64 - entry_cycle as i64,
                deferred: f.deferred,
                scale: f.scale_iter,
            })
            .collect();
        Some(Self {
            pcs,
            deltas,
            pending,
        })
    }

    fn max_delta(&self) -> i64 {
        self.deltas.iter().map(|&d| d as i64).max().unwrap_or(0)
    }
}

/// An in-progress segment recording (owned by [`CoreSim`] while the
/// interpreter runs; the emulator pushes [`Cmd`]s into it).
pub(crate) struct Recording {
    /// Segment reference iteration: entry `ts[0].iter + 1`. Address
    /// constants and mark crossings are stored relative to it.
    pub(crate) k: usize,
    /// Absolute cycle at segment entry.
    pub(crate) entry_cycle: u64,
    entry: EntryPat,
    /// Events in interpreter execution order.
    pub(crate) cmds: Vec<Cmd>,
    /// Smallest live-thread iteration seen so far (crossing detector).
    pub(crate) last_min: i64,
    /// Mark crossings: `(v - k, off)` for each iteration count `v` that
    /// became reached-by-all at cycle offset `off` — the points the
    /// `run_with_marks` checkpoints observe.
    pub(crate) reach: Vec<(i64, u32)>,
}

/// A finalized recorded segment.
#[derive(Clone, Debug, PartialEq)]
struct SegRec {
    entry: EntryPat,
    /// The architectural pattern observed at the segment's exit boundary,
    /// relative to reference `k + adv`. Replay restores thread state from
    /// *this* — never from the next template phase's entry, which is only
    /// equal to it when the recorded segments were truly consecutive.
    exit: EntryPat,
    cmds: Vec<Cmd>,
    len: u64,
    /// Reference-iteration advance across the segment (usually 1; a
    /// boundary gap can fuse several loop passes into one segment).
    adv: u32,
    reach: Vec<(i64, u32)>,
}

struct Template {
    /// `period` consecutive segments; replay cycles through them.
    segs: Vec<SegRec>,
    next_phase: usize,
}

/// Counters of the trace engine, exposed via
/// [`crate::emu::CoreSim::trace_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceStats {
    /// Segments recorded by the interpreter.
    pub recorded_segments: u64,
    /// Templates formed from periodic recordings.
    pub templates_formed: u64,
    /// Segments replayed through the fast path.
    pub replayed_segments: u64,
    /// Cycles covered by replayed segments.
    pub replayed_cycles: u64,
    /// Boundaries where a template existed but the entry guard missed.
    pub guard_misses: u64,
    /// Mid-segment mismatches: replay rolled back, template dropped.
    pub deopts: u64,
    /// Wholesale invalidations (fingerprint change, TLB shootdown).
    pub invalidations: u64,
}

/// Result of one successful segment replay.
pub(crate) struct Replayed {
    /// The segment's reference iteration.
    pub(crate) k: usize,
    /// Cycles the segment spans.
    pub(crate) len: u64,
    /// Mark crossings of the segment, `(v - k, off)` (see [`Recording`]).
    pub(crate) reach: Vec<(i64, u32)>,
}

/// The record/replay engine, held by [`CoreSim`] when tracing is enabled.
pub(crate) struct TraceEngine {
    cfg: TraceConfig,
    fp: Option<u64>,
    ring: VecDeque<SegRec>,
    template: Option<Template>,
    stats: TraceStats,
}

impl TraceEngine {
    pub(crate) fn new(cfg: TraceConfig) -> Self {
        assert!(cfg.max_period >= 1 && cfg.ring_cap > 2 * cfg.max_period);
        Self {
            cfg,
            fp: None,
            ring: VecDeque::new(),
            template: None,
            stats: TraceStats::default(),
        }
    }

    /// Engine counters.
    pub(crate) fn stats(&self) -> TraceStats {
        self.stats
    }

    /// Drops all templates and recordings (block-invalidating event).
    pub(crate) fn invalidate_templates(&mut self) {
        if self.template.is_some() || !self.ring.is_empty() {
            self.stats.invalidations += 1;
        }
        self.template = None;
        self.ring.clear();
    }

    /// Called at the start of each `run_with_marks`: a changed workload
    /// fingerprint (edited listing, new bases) invalidates everything.
    /// The ring is cleared unconditionally — segments recorded in
    /// different runs are not temporally adjacent, and letting period
    /// detection pair them across the gap can form a template whose
    /// phases never occurred back-to-back.
    pub(crate) fn begin_run(&mut self, fp: u64) {
        if self.fp != Some(fp) {
            if self.fp.is_some() {
                self.invalidate_templates();
            }
            self.fp = Some(fp);
        }
        self.ring.clear();
    }

    /// Finalizes the recording that ended at this boundary (if any) and
    /// re-runs period detection over the ring. A recording is only
    /// finalized when this slot can itself serve as a segment entry
    /// (capture succeeds); the captured pattern is stored as the
    /// segment's exit so replay restores the state the interpreter
    /// actually reached.
    pub(crate) fn on_boundary(&mut self, core: &mut CoreSim, ts: &[ThreadCtl]) {
        let Some(rec) = core.rec.take() else { return };
        let Some(t0) = ts.first() else { return };
        let Some(exit) = EntryPat::capture(core, ts, t0.iter + 1, core.cycle) else {
            return;
        };
        let len = core.cycle - rec.entry_cycle;
        if t0.iter < rec.k || len == 0 {
            return;
        }
        let adv = (t0.iter - (rec.k - 1)) as u32;
        self.ring.push_back(SegRec {
            entry: rec.entry,
            exit,
            cmds: rec.cmds,
            len,
            adv,
            reach: rec.reach,
        });
        if self.ring.len() > self.cfg.ring_cap {
            self.ring.pop_front();
        }
        self.stats.recorded_segments += 1;
        self.try_form();
    }

    fn try_form(&mut self) {
        let n = self.ring.len();
        for p in 1..=self.cfg.max_period {
            if n < 2 * p {
                break;
            }
            if (n - p..n).all(|i| self.ring[i] == self.ring[i - p]) {
                self.template = Some(Template {
                    segs: (n - p..n).map(|i| self.ring[i].clone()).collect(),
                    next_phase: 0,
                });
                self.stats.templates_formed += 1;
                return;
            }
        }
    }

    /// Attempts to replay one segment at the current boundary. `None`
    /// means the interpreter must execute it (no template, guard miss,
    /// last iterations, or a deopt that just rolled back).
    pub(crate) fn try_replay(
        &mut self,
        core: &mut CoreSim,
        ts: &mut [ThreadCtl],
        iters: usize,
    ) -> Option<Replayed> {
        let p = self.template.as_ref()?.segs.len();
        let k = ts.first()?.iter + 1;
        let entry_cycle = core.cycle;
        let entry = EntryPat::capture(core, ts, k, entry_cycle)?;
        let tpl = self.template.as_ref()?;
        let phase = (0..p)
            .map(|i| (tpl.next_phase + i) % p)
            .find(|&ph| tpl.segs[ph].entry == entry);
        let Some(phase) = phase else {
            self.stats.guard_misses += 1;
            return None;
        };
        let next = (phase + 1) % p;
        // Loop-exit guard: every wrap the recorded segment performed
        // compared `iter >= iters` and found it false. That transfers to
        // the current `iters` iff the largest iteration count any thread
        // reaches by segment exit is still below it.
        let k_next = k + tpl.segs[phase].adv as usize;
        if (k_next as i64 - 1) + tpl.segs[phase].exit.max_delta() >= iters as i64 {
            return None;
        }
        match replay_segment(core, &tpl.segs[phase], k) {
            Ok(()) => {
                let seg_len = tpl.segs[phase].len;
                let reach = tpl.segs[phase].reach.clone();
                let xp = &tpl.segs[phase].exit;
                for ((t, &pc), &d) in ts.iter_mut().zip(xp.pcs.iter()).zip(xp.deltas.iter()) {
                    t.iter = ((k_next as i64 - 1) + d as i64) as usize;
                    t.pc = pc as usize;
                }
                core.cycle += seg_len;
                core.stats.cycles = core.cycle;
                self.template.as_mut().expect("template present").next_phase = next;
                self.stats.replayed_segments += 1;
                self.stats.replayed_cycles += seg_len;
                Some(Replayed {
                    k,
                    len: seg_len,
                    reach,
                })
            }
            Err(()) => {
                // State already rolled back bit-exactly; the interpreter
                // takes over and recording starts fresh.
                self.template = None;
                self.ring.clear();
                self.stats.deopts += 1;
                None
            }
        }
    }

    /// Arms a fresh recording for the segment starting at this boundary
    /// (a no-op when the entry state is not recordable).
    pub(crate) fn arm_recording(&mut self, core: &mut CoreSim, ts: &[ThreadCtl]) {
        let Some(t0) = ts.first() else {
            core.rec = None;
            return;
        };
        let k = t0.iter + 1;
        let entry_min = ts
            .iter()
            .filter(|t| !t.done)
            .map(|t| t.iter as i64)
            .min()
            .unwrap_or(0);
        core.rec = EntryPat::capture(core, ts, k, core.cycle).map(|entry| Recording {
            k,
            entry_cycle: core.cycle,
            entry,
            cmds: Vec::new(),
            last_min: entry_min,
            reach: Vec::new(),
        });
    }
}

/// Undo record for the pending-fill list.
enum PendUndo {
    Removed { pos: usize, f: PendingFill },
    Pushed,
    Deferred { pos: usize },
}

/// The rollback context of one replay attempt: snapshots of the `Copy`
/// state plus ordered undo logs for every mutated structure. Undoing each
/// log in reverse restores the exact pre-replay state (per-structure
/// ordering suffices — the structures share no storage).
struct ReplayCtx {
    snap_stats: RunStats,
    snap_cycle: u64,
    snap_stall: u64,
    snap_l1: (u64, u64),
    snap_l2: (u64, u64),
    snap_tlb: (u64, u64),
    l1_undo: Vec<CacheUndo>,
    l2_undo: Vec<CacheUndo>,
    tlb_undo: Vec<TlbUndo>,
    mem_undo: Vec<(usize, [f64; VLEN])>,
    reg_undo: Vec<(usize, usize, VReg)>,
    pend_undo: Vec<PendUndo>,
}

impl ReplayCtx {
    fn new(core: &CoreSim) -> Self {
        Self {
            snap_stats: core.stats,
            snap_cycle: core.cycle,
            snap_stall: core.stall,
            snap_l1: core.l1.stats(),
            snap_l2: core.l2.stats(),
            snap_tlb: core.tlb.stats(),
            l1_undo: Vec::new(),
            l2_undo: Vec::new(),
            tlb_undo: Vec::new(),
            mem_undo: Vec::new(),
            reg_undo: Vec::new(),
            pend_undo: Vec::new(),
        }
    }

    fn rollback(self, core: &mut CoreSim) {
        for op in self.pend_undo.into_iter().rev() {
            match op {
                PendUndo::Removed { pos, f } => core.pending_fills.insert(pos, f),
                PendUndo::Pushed => {
                    core.pending_fills.pop();
                }
                PendUndo::Deferred { pos } => core.pending_fills[pos].deferred -= 1,
            }
        }
        for (idx, old) in self.mem_undo.into_iter().rev() {
            core.mem[idx..idx + VLEN].copy_from_slice(&old);
        }
        for (tid, r, old) in self.reg_undo.into_iter().rev() {
            core.thread_regs[tid][r] = old;
        }
        for op in self.l1_undo.into_iter().rev() {
            core.l1.undo(op);
        }
        for op in self.l2_undo.into_iter().rev() {
            core.l2.undo(op);
        }
        for op in self.tlb_undo.into_iter().rev() {
            core.tlb.undo(op);
        }
        core.l1.set_stats(self.snap_l1.0, self.snap_l1.1);
        core.l2.set_stats(self.snap_l2.0, self.snap_l2.1);
        core.tlb.set_stats(self.snap_tlb.0, self.snap_tlb.1);
        core.stats = self.snap_stats;
        core.cycle = self.snap_cycle;
        core.stall = self.snap_stall;
    }
}

/// Replays a whole segment for iteration `k`, committing directly to core
/// state under guard checks. On any mismatch — including a post-condition
/// check that the resulting pending-fill list matches the segment's
/// recorded exit pattern — the undo log restores the entry state
/// bit-exactly and `Err` is returned.
fn replay_segment(core: &mut CoreSim, seg: &SegRec, k: usize) -> Result<(), ()> {
    let entry_cycle = core.cycle;
    let mut ctx = ReplayCtx::new(core);
    for cmd in &seg.cmds {
        let cur = entry_cycle + cmd.off as u64;
        let r = match &cmd.kind {
            CmdKind::Exec {
                tid,
                instr,
                c0,
                out,
            } => apply_exec(core, *tid as usize, instr, *c0, *out, k, cur, &mut ctx),
            CmdKind::Fill(kind) => apply_fill(core, *kind, cur, &mut ctx),
        };
        if r.is_err() {
            ctx.rollback(core);
            return Err(());
        }
    }
    let k_fin = (k + seg.adv as usize) as i64;
    let exit_cycle = (entry_cycle + seg.len) as i64;
    let pending_ok = core.pending_fills.len() == seg.exit.pending.len()
        && core
            .pending_fills
            .iter()
            .zip(seg.exit.pending.iter())
            .all(|(f, p)| {
                f.elem_idx as i64 - k_fin * (f.scale_iter as i64) == p.elem_rel
                    && f.ready_at as i64 - exit_cycle == p.ready_rel
                    && f.deferred == p.deferred
                    && f.scale_iter == p.scale
            });
    if !pending_ok {
        ctx.rollback(core);
        return Err(());
    }
    Ok(())
}

fn idx_of(c0: i64, scale: usize, k: usize) -> usize {
    (c0 + (k as i64) * (scale as i64)) as usize
}

fn expect_read(out: ExecOut) -> Result<ReadOut, ()> {
    match out {
        ExecOut::Read(r) => Ok(r),
        _ => Err(()),
    }
}

/// Mirror of `CoreSim::demand_access`, with the resolved outcome checked
/// against the recorded class.
fn replay_read(
    core: &mut CoreSim,
    idx: usize,
    expected: ReadOut,
    cur: u64,
    ctx: &mut ReplayCtx,
) -> Result<(), ()> {
    core.tlb.access_logged(idx * 8, &mut ctx.tlb_undo);
    if core.l1.access_logged(idx, &mut ctx.l1_undo) {
        return if expected == ReadOut::Hit {
            Ok(())
        } else {
            Err(())
        };
    }
    let line = idx / 8;
    if let Some(pos) = core
        .pending_fills
        .iter()
        .position(|f| f.elem_idx / 8 == line)
    {
        let f = core.pending_fills.remove(pos);
        ctx.pend_undo.push(PendUndo::Removed { pos, f });
        let wait = f.ready_at.saturating_sub(cur).max(1);
        if expected != (ReadOut::Pending { wait }) {
            return Err(());
        }
        core.stats.demand_stall_cycles += wait;
        core.l1.fill_logged(idx, &mut ctx.l1_undo);
        core.stats.fills_completed += 1;
        return Ok(());
    }
    let l2_hit = core.l2.contains(idx);
    let want = if l2_hit { ReadOut::L2 } else { ReadOut::Mem };
    if expected != want {
        return Err(());
    }
    let penalty = if l2_hit {
        core.cfg.demand_l2_penalty
    } else {
        core.cfg.demand_mem_penalty
    };
    core.stats.demand_stall_cycles += penalty;
    core.l2.fill_logged(idx, &mut ctx.l2_undo);
    core.l1.fill_logged(idx, &mut ctx.l1_undo);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn read_operand(
    core: &mut CoreSim,
    tid: usize,
    src: &Operand,
    c0: i64,
    out: ExecOut,
    k: usize,
    cur: u64,
    ctx: &mut ReplayCtx,
) -> Result<VReg, ()> {
    match src {
        Operand::Reg(r) => Ok(core.thread_regs[tid][*r as usize]),
        Operand::Swizzle(r, i) => Ok(swizzle(&core.thread_regs[tid][*r as usize], *i)),
        Operand::Mem(a) => {
            let idx = idx_of(c0, a.scale_iter, k);
            replay_read(core, idx, expect_read(out)?, cur, ctx)?;
            let mut v = [0.0; VLEN];
            v.copy_from_slice(&core.mem[idx..idx + VLEN]);
            Ok(v)
        }
        Operand::MemBcast(a, mode) => {
            let idx = idx_of(c0, a.scale_iter, k);
            replay_read(core, idx, expect_read(out)?, cur, ctx)?;
            Ok(broadcast(&core.mem, idx, *mode))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_exec(
    core: &mut CoreSim,
    tid: usize,
    instr: &Instr,
    c0: i64,
    out: ExecOut,
    k: usize,
    cur: u64,
    ctx: &mut ReplayCtx,
) -> Result<(), ()> {
    match *instr {
        Instr::Fmadd { acc, src, b } => {
            let sv = read_operand(core, tid, &src, c0, out, k, cur, ctx)?;
            let bv = core.thread_regs[tid][b as usize];
            ctx.reg_undo
                .push((tid, acc as usize, core.thread_regs[tid][acc as usize]));
            let dst = &mut core.thread_regs[tid][acc as usize];
            for l in 0..VLEN {
                dst[l] = sv[l].mul_add(bv[l], dst[l]);
            }
            core.stats.vector_issued += 1;
            core.stats.fmadds += 1;
            Ok(())
        }
        Instr::Load { dst, addr } => {
            let idx = idx_of(c0, addr.scale_iter, k);
            replay_read(core, idx, expect_read(out)?, cur, ctx)?;
            ctx.reg_undo
                .push((tid, dst as usize, core.thread_regs[tid][dst as usize]));
            let mut v = [0.0; VLEN];
            v.copy_from_slice(&core.mem[idx..idx + VLEN]);
            core.thread_regs[tid][dst as usize] = v;
            core.stats.vector_issued += 1;
            Ok(())
        }
        Instr::Store { src, addr } => {
            let idx = idx_of(c0, addr.scale_iter, k);
            core.tlb.access_logged(idx * 8, &mut ctx.tlb_undo);
            let mut old = [0.0; VLEN];
            old.copy_from_slice(&core.mem[idx..idx + VLEN]);
            ctx.mem_undo.push((idx, old));
            let v = core.thread_regs[tid][src as usize];
            core.mem[idx..idx + VLEN].copy_from_slice(&v);
            core.l1.fill_logged(idx, &mut ctx.l1_undo);
            core.stats.vector_issued += 1;
            Ok(())
        }
        Instr::Broadcast { dst, addr, mode } => {
            let idx = idx_of(c0, addr.scale_iter, k);
            replay_read(core, idx, expect_read(out)?, cur, ctx)?;
            ctx.reg_undo
                .push((tid, dst as usize, core.thread_regs[tid][dst as usize]));
            core.thread_regs[tid][dst as usize] = broadcast(&core.mem, idx, mode);
            core.stats.vector_issued += 1;
            Ok(())
        }
        Instr::Add { dst, src } => {
            let sv = read_operand(core, tid, &src, c0, out, k, cur, ctx)?;
            ctx.reg_undo
                .push((tid, dst as usize, core.thread_regs[tid][dst as usize]));
            let d = &mut core.thread_regs[tid][dst as usize];
            for l in 0..VLEN {
                d[l] += sv[l];
            }
            core.stats.vector_issued += 1;
            Ok(())
        }
        Instr::Mul { dst, src } => {
            let sv = read_operand(core, tid, &src, c0, out, k, cur, ctx)?;
            ctx.reg_undo
                .push((tid, dst as usize, core.thread_regs[tid][dst as usize]));
            let d = &mut core.thread_regs[tid][dst as usize];
            for l in 0..VLEN {
                d[l] *= sv[l];
            }
            core.stats.vector_issued += 1;
            Ok(())
        }
        Instr::PrefetchL1(addr) => {
            let idx = idx_of(c0, addr.scale_iter, k);
            core.tlb.access_logged(idx * 8, &mut ctx.tlb_undo);
            core.stats.vpipe_issued += 1;
            let line = idx / 8;
            let skip =
                core.l1.contains(idx) || core.pending_fills.iter().any(|f| f.elem_idx / 8 == line);
            match out {
                ExecOut::Pref1Skip if skip => Ok(()),
                ExecOut::Pref1Queue { l2_hit } if !skip => {
                    if core.l2.contains(idx) != l2_hit {
                        return Err(());
                    }
                    let latency = if l2_hit {
                        core.cfg.l2_hit_latency
                    } else {
                        core.cfg.mem_latency
                    };
                    core.l2.fill_logged(idx, &mut ctx.l2_undo);
                    core.pending_fills.push(PendingFill {
                        elem_idx: idx,
                        ready_at: cur + latency,
                        deferred: 0,
                        scale_iter: addr.scale_iter,
                    });
                    ctx.pend_undo.push(PendUndo::Pushed);
                    Ok(())
                }
                _ => Err(()),
            }
        }
        Instr::PrefetchL2(addr) => {
            let idx = idx_of(c0, addr.scale_iter, k);
            core.tlb.access_logged(idx * 8, &mut ctx.tlb_undo);
            core.stats.vpipe_issued += 1;
            core.l2.fill_logged(idx, &mut ctx.l2_undo);
            Ok(())
        }
        Instr::ScalarOp => {
            core.stats.vpipe_issued += 1;
            Ok(())
        }
    }
}

/// Mirror of `CoreSim::advance_fills` for one recorded action.
fn apply_fill(core: &mut CoreSim, kind: FillKind, cur: u64, ctx: &mut ReplayCtx) -> Result<(), ()> {
    let Some(pos) = core.pending_fills.iter().position(|f| f.ready_at <= cur) else {
        return Err(());
    };
    match kind {
        FillKind::Hole => {
            let f = core.pending_fills.remove(pos);
            ctx.pend_undo.push(PendUndo::Removed { pos, f });
            core.l1.fill_logged(f.elem_idx, &mut ctx.l1_undo);
            core.stats.fills_completed += 1;
            core.stats.fills_in_holes += 1;
            Ok(())
        }
        FillKind::Defer => {
            core.pending_fills[pos].deferred += 1;
            ctx.pend_undo.push(PendUndo::Deferred { pos });
            if core.pending_fills[pos].deferred >= core.cfg.fill_defer_threshold {
                Err(())
            } else {
                Ok(())
            }
        }
        FillKind::Forced => {
            let f = core.pending_fills.remove(pos);
            ctx.pend_undo.push(PendUndo::Removed { pos, f });
            if f.deferred + 1 < core.cfg.fill_defer_threshold {
                return Err(());
            }
            core.l1.fill_logged(f.elem_idx, &mut ctx.l1_undo);
            core.stats.fills_completed += 1;
            core.stats.fill_stall_cycles += core.cfg.fill_stall_cycles;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::emu::{CoreSim, StreamBases};
    use crate::isa::{Addr, Instr, Operand, Program, StreamId};
    use crate::pipeline::PipelineConfig;

    /// A streaming kernel shaped like the paper's inner loops: one load,
    /// FMA work, an L2 and an L1 prefetch one/two iterations ahead.
    fn streaming_body() -> Program {
        let mut p = Program::new();
        p.push(Instr::Load {
            dst: 0,
            addr: Addr::new(StreamId::A, 8, 0),
        });
        for _ in 0..6 {
            p.push(Instr::Fmadd {
                acc: 1,
                src: Operand::Reg(0),
                b: 2,
            });
        }
        p.push(Instr::PrefetchL2(Addr::new(StreamId::A, 8, 32)));
        p.push(Instr::PrefetchL1(Addr::new(StreamId::A, 8, 16)));
        p.push(Instr::ScalarOp);
        p
    }

    fn epilogue_store() -> Program {
        let mut p = Program::new();
        p.push(Instr::Store {
            src: 1,
            addr: Addr::new(StreamId::C, 0, 0),
        });
        p
    }

    fn mem_image() -> Vec<f64> {
        (0..16384).map(|i| (i % 97) as f64 * 0.5 - 3.0).collect()
    }

    fn pair() -> (CoreSim, CoreSim) {
        let slow = CoreSim::new(PipelineConfig::default(), mem_image());
        let mut fast = CoreSim::new(PipelineConfig::default(), mem_image());
        fast.enable_trace();
        (slow, fast)
    }

    #[test]
    fn steady_loop_replays_bit_identically() {
        let body = streaming_body();
        let epi = epilogue_store();
        let threads = [StreamBases {
            a: 0,
            b: 0,
            c: 8192,
        }];
        let (mut slow, mut fast) = pair();
        let rs = slow.run_with_marks(&body, &epi, 96, &threads, 24, 80);
        let rf = fast.run_with_marks(&body, &epi, 96, &threads, 24, 80);
        assert_eq!(rs, rf, "total and mark cycles must match");
        assert_eq!(slow.state_digest(), fast.state_digest());
        let ts = fast.trace_stats().unwrap();
        assert!(ts.templates_formed >= 1, "{ts:?}");
        assert!(ts.replayed_segments > 60, "{ts:?}");
        assert_eq!(ts.deopts, 0, "{ts:?}");
        assert!(fast.replay_speedup() > 2.0, "{}", fast.replay_speedup());
    }

    #[test]
    fn four_threads_replay_bit_identically() {
        let body = streaming_body();
        let mk = |t: usize| StreamBases {
            a: t * 2048,
            b: 0,
            c: 8192 + t * 64,
        };
        let threads = [mk(0), mk(1), mk(2), mk(3)];
        let (mut slow, mut fast) = pair();
        let rs = slow.run_with_marks(&body, &epilogue_store(), 64, &threads, 16, 48);
        let rf = fast.run_with_marks(&body, &epilogue_store(), 64, &threads, 16, 48);
        assert_eq!(rs, rf);
        assert_eq!(slow.state_digest(), fast.state_digest());
        let ts = fast.trace_stats().unwrap();
        assert!(ts.replayed_segments > 0, "{ts:?}");
    }

    #[test]
    fn cache_divergence_deopts_and_rolls_back_exactly() {
        // An all-vector body: the wrap slot re-issues body[0] (a vector
        // op) immediately, so the steady boundary state is pc == 0 —
        // identical to a fresh run's first boundary. Run 1's template
        // records cold demand misses; run 2 walks the same (now cached)
        // addresses, so the entry guard matches but the first replayed
        // read resolves differently → a genuine mid-segment deopt whose
        // rollback must leave the state bit-identical to the interpreter.
        let mut body = Program::new();
        body.push(Instr::Load {
            dst: 0,
            addr: Addr::new(StreamId::A, 8, 0),
        });
        for _ in 0..7 {
            body.push(Instr::Fmadd {
                acc: 1,
                src: Operand::Reg(0),
                b: 2,
            });
        }
        let threads = [StreamBases::default()];
        let (mut slow, mut fast) = pair();
        slow.run(&body, &Program::new(), 48, &threads);
        fast.run(&body, &Program::new(), 48, &threads);
        assert!(fast.trace_stats().unwrap().replayed_segments > 0);
        slow.run(&body, &Program::new(), 48, &threads);
        fast.run(&body, &Program::new(), 48, &threads);
        let ts = fast.trace_stats().unwrap();
        assert!(ts.deopts >= 1, "stale template must deopt: {ts:?}");
        assert_eq!(slow.state_digest(), fast.state_digest());
        assert!(
            ts.replayed_segments > 0,
            "template must re-form after deopt: {ts:?}"
        );
    }

    #[test]
    fn program_edit_invalidates_templates() {
        let body = streaming_body();
        let threads = [StreamBases::default()];
        let (mut slow, mut fast) = pair();
        slow.run(&body, &Program::new(), 40, &threads);
        fast.run(&body, &Program::new(), 40, &threads);
        // A self-modifying listing edit: same length, different opcode mix.
        let mut edited = streaming_body();
        edited.body[3] = Instr::Add {
            dst: 1,
            src: Operand::Reg(0),
        };
        slow.run(&edited, &Program::new(), 40, &threads);
        fast.run(&edited, &Program::new(), 40, &threads);
        let ts = fast.trace_stats().unwrap();
        assert!(ts.invalidations >= 1, "{ts:?}");
        assert_eq!(slow.state_digest(), fast.state_digest());
    }

    #[test]
    fn tlb_shootdown_matches_interpreter() {
        let body = streaming_body();
        let threads = [StreamBases::default()];
        let (mut slow, mut fast) = pair();
        slow.run(&body, &Program::new(), 40, &threads);
        fast.run(&body, &Program::new(), 40, &threads);
        slow.tlb_shootdown();
        fast.tlb_shootdown();
        slow.run(&body, &Program::new(), 40, &threads);
        fast.run(&body, &Program::new(), 40, &threads);
        assert_eq!(slow.state_digest(), fast.state_digest());
        assert!(fast.trace_stats().unwrap().invalidations >= 1);
    }

    #[test]
    fn empty_body_and_epilogue_only_runs_are_safe() {
        let threads = [StreamBases::default()];
        let (mut slow, mut fast) = pair();
        let rs = slow.run(&Program::new(), &epilogue_store(), 0, &threads);
        let rf = fast.run(&Program::new(), &epilogue_store(), 0, &threads);
        assert_eq!(rs, rf);
        assert_eq!(slow.state_digest(), fast.state_digest());
        let ts = fast.trace_stats().unwrap();
        assert_eq!(ts.replayed_segments, 0);
    }

    #[test]
    fn memory_value_changes_do_not_need_deopt() {
        // Replay executes real arithmetic against live memory, so changing
        // *data* (not programs) between runs must neither deopt nor
        // diverge.
        let body = streaming_body();
        let threads = [StreamBases::default()];
        let (mut slow, mut fast) = pair();
        slow.run(&body, &Program::new(), 48, &threads);
        fast.run(&body, &Program::new(), 48, &threads);
        for m in [&mut slow, &mut fast] {
            for v in m.mem_mut().iter_mut().take(512) {
                *v *= -1.25;
            }
        }
        slow.run(&body, &Program::new(), 48, &threads);
        fast.run(&body, &Program::new(), 48, &threads);
        assert_eq!(slow.state_digest(), fast.state_digest());
        let ts = fast.trace_stats().unwrap();
        assert_eq!(ts.deopts, 0, "{ts:?}");
        assert!(ts.replayed_segments > 40, "{ts:?}");
    }
}
