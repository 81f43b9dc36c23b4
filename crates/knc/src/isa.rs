//! The Knights Corner vector ISA subset used by the paper's DGEMM kernels.
//!
//! KNC cores have 32 vector registers of 512 bits — eight `f64` lanes —
//! and a rich FMA-centric instruction set (Section II of the paper):
//!
//! * most vector operations can take one operand **from memory**, which
//!   shrinks the instruction footprint of the inner loop;
//! * memory operands can be **broadcast**: `1to8` replicates one double
//!   eight times, `4to8` replicates four doubles twice (Fig. 1a);
//! * register operands can be **swizzled in flight**: `SWIZZLE_i`
//!   replicates the i-th element of each 4-element lane (Fig. 1b);
//! * `vprefetch0`/`vprefetch1` prefetch into L1/L2 and may **co-issue**
//!   with a vector instruction thanks to the dual-issue pipeline.
//!
//! Addresses are symbolic: an [`Addr`] names a *stream* (the packed `a`
//! tile, `b` tile, or `c` output) plus a per-iteration scale and a fixed
//! offset, so one [`Program`] describes every iteration of the inner loop
//! and every hardware thread (threads differ only in stream bases).

/// Number of vector registers per thread (KNC has 32: `v0`–`v31`).
pub const NUM_VREGS: usize = 32;
/// f64 lanes per 512-bit vector register.
pub const VLEN: usize = 8;
/// Elements (f64) per 64-byte cache line.
pub const LINE_ELEMS: usize = 8;

/// A 512-bit vector register value: eight doubles.
pub(crate) type VReg = [f64; VLEN];

/// Identifies one of the data streams a kernel walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StreamId {
    /// The packed `MR × k` tile of `A` (shared by the core's 4 threads).
    A,
    /// The packed `k × 8` tile of `B` (private per thread).
    B,
    /// The `MR × 8` output tile of `C` (private per thread).
    C,
}

/// A symbolic effective address:
/// `element_index = base(stream) + iter*scale_iter + thread*scale_thread + offset`.
///
/// The thread term lets all four hardware threads share one [`Program`]
/// while, e.g., splitting the prefetch of the four `a` cache lines among
/// themselves ("the four lines are only brought in once from L2 into L1 by
/// one of the threads", Section III-A2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Addr {
    /// Which stream's base to use.
    pub stream: StreamId,
    /// Elements advanced per loop iteration.
    pub scale_iter: usize,
    /// Elements advanced per hardware-thread index.
    pub scale_thread: usize,
    /// Fixed element offset.
    pub offset: usize,
}

impl Addr {
    /// Address within stream `s` at `iter*scale + offset`.
    pub const fn new(stream: StreamId, scale_iter: usize, offset: usize) -> Self {
        Self {
            stream,
            scale_iter,
            scale_thread: 0,
            offset,
        }
    }

    /// Adds a per-thread stride to the address.
    pub const fn with_thread_scale(mut self, scale_thread: usize) -> Self {
        self.scale_thread = scale_thread;
        self
    }

    /// Resolves to a concrete element index for loop iteration `iter`,
    /// hardware thread `thread`, and the given stream base.
    pub fn resolve(&self, iter: usize, thread: usize, base: usize) -> usize {
        base + iter * self.scale_iter + thread * self.scale_thread + self.offset
    }
}

/// Memory broadcast flavours (Fig. 1a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BcastMode {
    /// `1to8`: one double replicated into all 8 lanes.
    OneToEight,
    /// `4to8`: four consecutive doubles replicated twice.
    FourToEight,
}

/// The second source of an FMA / arithmetic op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// A vector register.
    Reg(u8),
    /// A full 8-element aligned memory operand.
    Mem(Addr),
    /// A broadcast memory operand (uses the L1 read port).
    MemBcast(Addr, BcastMode),
    /// `SWIZZLE_i(reg)`: lane-replicate element `i` (0..4) of each
    /// 4-element half of `reg` — **no memory access** (Fig. 1b), the key
    /// property Basic Kernel 2 exploits.
    Swizzle(u8, u8),
}

impl Operand {
    /// True when evaluating this operand touches the L1 read port.
    fn reads_memory(&self) -> bool {
        matches!(self, Operand::Mem(_) | Operand::MemBcast(_, _))
    }

    /// The address read, if any.
    pub fn addr(&self) -> Option<Addr> {
        match self {
            Operand::Mem(a) | Operand::MemBcast(a, _) => Some(*a),
            _ => None,
        }
    }
}

/// One instruction of the emulated subset.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// `vfmadd231pd acc, b, src`: `acc += src .* b` elementwise.
    Fmadd {
        /// Accumulator register.
        acc: u8,
        /// First multiplicand (register, memory or swizzle source).
        src: Operand,
        /// Second multiplicand register.
        b: u8,
    },
    /// `vmovapd dst, [addr]`: aligned vector load.
    Load {
        /// Destination register.
        dst: u8,
        /// Source address.
        addr: Addr,
    },
    /// `vmovapd [addr], src`: aligned vector store (uses the L1 write
    /// port).
    Store {
        /// Source register.
        src: u8,
        /// Destination address.
        addr: Addr,
    },
    /// `vbroadcast dst, [addr]`: broadcast load into a register ("v30" in
    /// Fig. 2c).
    Broadcast {
        /// Destination register.
        dst: u8,
        /// Source address.
        addr: Addr,
        /// Replication pattern.
        mode: BcastMode,
    },
    /// `vaddpd dst, dst, src`: elementwise add (used by the C update).
    Add {
        /// Destination (and first source) register.
        dst: u8,
        /// Second source.
        src: Operand,
    },
    /// `vmulpd dst, dst, src`: elementwise multiply (alpha scaling).
    Mul {
        /// Destination (and first source) register.
        dst: u8,
        /// Second source.
        src: Operand,
    },
    /// `vprefetch0 [addr]`: prefetch the line into L1. Co-issues on the
    /// V-pipe; its *fill* later needs a free L1 port cycle (Fig. 1c).
    PrefetchL1(Addr),
    /// `vprefetch1 [addr]`: prefetch the line into L2. Co-issues; fills
    /// into L2 without contending for L1 ports.
    PrefetchL2(Addr),
    /// Scalar bookkeeping (loop counter, address arithmetic) on the
    /// V-pipe; co-issues with a vector instruction.
    ScalarOp,
}

impl Instr {
    /// True for instructions executed on the vector U-pipe (occupy the
    /// single vector issue slot).
    pub fn is_vector(&self) -> bool {
        !matches!(
            self,
            Instr::PrefetchL1(_) | Instr::PrefetchL2(_) | Instr::ScalarOp
        )
    }

    /// True when this instruction is a vector multiply-add — the unit the
    /// efficiency metric counts.
    fn is_fmadd(&self) -> bool {
        matches!(self, Instr::Fmadd { .. })
    }

    /// True when executing the instruction occupies the L1 read port this
    /// cycle.
    pub fn uses_l1_read_port(&self) -> bool {
        match self {
            Instr::Load { .. } | Instr::Broadcast { .. } => true,
            Instr::Fmadd { src, .. } | Instr::Add { src, .. } | Instr::Mul { src, .. } => {
                src.reads_memory()
            }
            _ => false,
        }
    }

    /// True when executing the instruction occupies the L1 write port.
    pub fn uses_l1_write_port(&self) -> bool {
        matches!(self, Instr::Store { .. })
    }
}

/// A straight-line kernel body, executed once per loop iteration.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Instructions in program order.
    pub body: Vec<Instr>,
}

impl Program {
    /// Empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.body.push(i);
        self
    }

    /// Number of vector (U-pipe) instructions per iteration.
    pub fn vector_count(&self) -> usize {
        self.body.iter().filter(|i| i.is_vector()).count()
    }

    /// Number of vector multiply-adds per iteration.
    pub fn fmadd_count(&self) -> usize {
        self.body.iter().filter(|i| i.is_fmadd()).count()
    }

    /// Theoretical efficiency: FMAs / vector slots — 31/32 = 96.9% for
    /// Basic Kernel 1, 30/32 = 93.7% for Basic Kernel 2 (Section III-A2).
    pub(crate) fn theoretical_efficiency(&self) -> f64 {
        self.fmadd_count() as f64 / self.vector_count() as f64
    }
}

/// Applies `SWIZZLE_i` to a register value: replicate element `i` of each
/// 4-element lane four times within that lane (Fig. 1b).
pub fn swizzle(v: &VReg, i: u8) -> VReg {
    assert!(i < 4, "swizzle selects within a 4-element lane");
    let i = i as usize;
    [
        v[i],
        v[i],
        v[i],
        v[i],
        v[4 + i],
        v[4 + i],
        v[4 + i],
        v[4 + i],
    ]
}

/// Materializes a broadcast memory value (Fig. 1a).
pub fn broadcast(mem: &[f64], idx: usize, mode: BcastMode) -> VReg {
    match mode {
        BcastMode::OneToEight => [mem[idx]; VLEN],
        BcastMode::FourToEight => {
            let m = &mem[idx..idx + 4];
            [m[0], m[1], m[2], m[3], m[0], m[1], m[2], m[3]]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swizzle_replicates_lane_elements() {
        let v = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(swizzle(&v, 0), [0.0, 0.0, 0.0, 0.0, 4.0, 4.0, 4.0, 4.0]);
        assert_eq!(swizzle(&v, 2), [2.0, 2.0, 2.0, 2.0, 6.0, 6.0, 6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "4-element lane")]
    fn swizzle_index_bounded() {
        let _ = swizzle(&[0.0; 8], 4);
    }

    #[test]
    fn broadcast_modes() {
        let mem = [9.0, 8.0, 7.0, 6.0, 5.0];
        assert_eq!(broadcast(&mem, 1, BcastMode::OneToEight), [8.0; 8]);
        assert_eq!(
            broadcast(&mem, 0, BcastMode::FourToEight),
            [9.0, 8.0, 7.0, 6.0, 9.0, 8.0, 7.0, 6.0]
        );
    }

    #[test]
    fn addr_resolution() {
        let a = Addr::new(StreamId::A, 30, 7);
        assert_eq!(a.resolve(0, 0, 100), 107);
        assert_eq!(a.resolve(3, 0, 100), 100 + 90 + 7);
        let t = a.with_thread_scale(8);
        assert_eq!(t.resolve(3, 2, 100), 100 + 90 + 16 + 7);
    }

    #[test]
    fn port_usage_classification() {
        let mem = Addr::new(StreamId::B, 8, 0);
        assert!(Instr::Load { dst: 0, addr: mem }.uses_l1_read_port());
        assert!(Instr::Store { src: 0, addr: mem }.uses_l1_write_port());
        assert!(Instr::Fmadd {
            acc: 0,
            src: Operand::MemBcast(mem, BcastMode::OneToEight),
            b: 1
        }
        .uses_l1_read_port());
        assert!(!Instr::Fmadd {
            acc: 0,
            src: Operand::Swizzle(30, 1),
            b: 1
        }
        .uses_l1_read_port());
        assert!(!Instr::PrefetchL1(mem).is_vector());
        assert!(!Instr::ScalarOp.is_vector());
    }

    #[test]
    fn program_counting() {
        let mut p = Program::new();
        let mem = Addr::new(StreamId::B, 8, 0);
        p.push(Instr::Load { dst: 31, addr: mem });
        for r in 0..31u8 {
            p.push(Instr::Fmadd {
                acc: r,
                src: Operand::MemBcast(
                    Addr::new(StreamId::A, 31, r as usize),
                    BcastMode::OneToEight,
                ),
                b: 31,
            });
        }
        p.push(Instr::PrefetchL1(mem));
        assert_eq!(p.vector_count(), 32);
        assert_eq!(p.fmadd_count(), 31);
        assert!((p.theoretical_efficiency() - 31.0 / 32.0).abs() < 1e-12);
    }
}
