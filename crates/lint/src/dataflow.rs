//! Pass 1 — def-use dataflow over the 32 vector registers.
//!
//! The kernel convention (Fig. 2): accumulators live across iterations
//! (read-modify-write FMAs against the zeroed live-in register file),
//! every other register must be fully defined before a pure read, and a
//! full define must reach a reader. Three diagnostics fall out:
//!
//! * [`LintKind::UninitializedRead`] — a pure source read before any
//!   define in first-iteration order;
//! * [`LintKind::DeadStore`] — a full define overwritten (cyclically,
//!   because the body loops) before any use;
//! * [`LintKind::AccumulatorClobber`] — a full define of a register that
//!   carries partial sums across iterations.

use crate::diag::{Diagnostic, LintKind, Region};
use phi_knc::isa::NUM_VREGS;
use phi_knc::{Instr, Operand, Program};

/// Register effects of one instruction.
#[derive(Clone, Copy, Debug, Default)]
struct Effects {
    /// Pure source reads (up to two: `b` and a register/swizzle operand).
    uses: [Option<u8>; 2],
    /// Read-modify-write target (FMA accumulator, `Add`/`Mul` dst).
    rmw: Option<u8>,
    /// Full define (load / broadcast destination).
    def: Option<u8>,
}

fn operand_reg(op: &Operand) -> Option<u8> {
    match op {
        Operand::Reg(r) | Operand::Swizzle(r, _) => Some(*r),
        Operand::Mem(_) | Operand::MemBcast(_, _) => None,
    }
}

fn effects(i: &Instr) -> Effects {
    let mut e = Effects::default();
    match i {
        Instr::Fmadd { acc, src, b } => {
            e.uses = [Some(*b), operand_reg(src)];
            e.rmw = Some(*acc);
        }
        Instr::Load { dst, .. } | Instr::Broadcast { dst, .. } => e.def = Some(*dst),
        Instr::Store { src, .. } => e.uses[0] = Some(*src),
        Instr::Add { dst, src } | Instr::Mul { dst, src } => {
            e.uses[0] = operand_reg(src);
            e.rmw = Some(*dst);
        }
        Instr::PrefetchL1(_) | Instr::PrefetchL2(_) | Instr::ScalarOp => {}
    }
    e
}

fn reads(e: &Effects, r: u8) -> bool {
    e.uses.iter().flatten().any(|&u| u == r) || e.rmw == Some(r)
}

/// Runs the dataflow pass over `body` + `epilogue`.
pub(crate) fn check(body: &Program, epilogue: &Program) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let body_fx: Vec<Effects> = body.body.iter().map(effects).collect();
    let epi_fx: Vec<Effects> = epilogue.body.iter().map(effects).collect();

    // --- Uninitialized reads: first-iteration order through body, then
    // epilogue. RMW targets count as defined afterwards (the zeroed
    // live-in accumulator convention).
    let mut defined = [false; NUM_VREGS];
    let ever_defined: Vec<u8> = (0..NUM_VREGS as u8)
        .filter(|&r| {
            body_fx
                .iter()
                .chain(&epi_fx)
                .any(|e| e.def == Some(r) || e.rmw == Some(r))
        })
        .collect();
    for (region, prog, fx) in [
        (Region::Body, body, &body_fx),
        (Region::Epilogue, epilogue, &epi_fx),
    ] {
        for (at, e) in fx.iter().enumerate() {
            for &r in e.uses.iter().flatten() {
                if !defined[r as usize] {
                    let later = ever_defined.contains(&r);
                    let why = if later {
                        "defined only later in the loop, so iteration 0 reads the zeroed live-in"
                    } else {
                        "never defined anywhere in the program"
                    };
                    diags.push(Diagnostic::new(
                        LintKind::UninitializedRead { reg: r },
                        region,
                        at,
                        prog,
                        format!("v{r} is read as a pure source but {why}"),
                    ));
                    defined[r as usize] = true; // report each register once
                }
            }
            if let Some(r) = e.rmw {
                defined[r as usize] = true;
            }
            if let Some(r) = e.def {
                defined[r as usize] = true;
            }
        }
    }

    // --- Accumulator clobbers: a register RMW'd anywhere in the body
    // carries sums across iterations; a full define of it in the body
    // resets those sums every iteration.
    let acc: Vec<u8> = (0..NUM_VREGS as u8)
        .filter(|&r| body_fx.iter().any(|e| e.rmw == Some(r)))
        .collect();
    for (at, e) in body_fx.iter().enumerate() {
        if let Some(r) = e.def {
            if acc.contains(&r) {
                diags.push(Diagnostic::new(
                    LintKind::AccumulatorClobber { reg: r },
                    Region::Body,
                    at,
                    body,
                    format!("v{r} accumulates across iterations but is fully overwritten here"),
                ));
            }
        }
    }

    // --- Dead stores in the body (cyclic: the next iteration's
    // instructions follow the current one's).
    let n = body_fx.len();
    for (at, e) in body_fx.iter().enumerate() {
        let Some(r) = e.def else { continue };
        let mut verdict = None; // None = no event in a full cycle
        for step in 1..=n.max(1) {
            let j = (at + step) % n.max(1);
            if step < n && reads(&body_fx[j], r) {
                verdict = Some(true);
                break;
            }
            if step < n && body_fx[j].def == Some(r) {
                verdict = Some(false);
                break;
            }
            if step == n {
                // Wrapped all the way: the define at `at` itself is next.
                verdict = Some(false);
            }
        }
        let live = verdict.unwrap_or(true);
        // A value only the epilogue consumes is live-out of the loop.
        let epi_live = epi_fx.iter().any(|e| reads(e, r));
        if !live && !epi_live {
            diags.push(Diagnostic::new(
                LintKind::DeadStore { reg: r },
                Region::Body,
                at,
                body,
                format!("v{r} is overwritten before any instruction reads it"),
            ));
        }
    }
    // --- Dead stores in the epilogue (straight-line).
    for (at, e) in epi_fx.iter().enumerate() {
        let Some(r) = e.def else { continue };
        let mut dead = false;
        for later in &epi_fx[at + 1..] {
            if reads(later, r) {
                break;
            }
            if later.def == Some(r) {
                dead = true;
                break;
            }
        }
        if dead {
            diags.push(Diagnostic::new(
                LintKind::DeadStore { reg: r },
                Region::Epilogue,
                at,
                epilogue,
                format!("v{r} is overwritten before any instruction reads it"),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_knc::{Addr, BcastMode, StreamId};

    fn b_load(dst: u8) -> Instr {
        Instr::Load {
            dst,
            addr: Addr::new(StreamId::B, 8, 0),
        }
    }

    fn a_fma(acc: u8, b: u8) -> Instr {
        Instr::Fmadd {
            acc,
            src: Operand::MemBcast(Addr::new(StreamId::A, 32, 0), BcastMode::OneToEight),
            b,
        }
    }

    #[test]
    fn clean_accumulator_loop_has_no_findings() {
        let mut body = Program::new();
        body.push(b_load(31));
        body.push(a_fma(0, 31));
        let mut epi = Program::new();
        epi.push(Instr::Store {
            src: 0,
            addr: Addr::new(StreamId::C, 0, 0),
        });
        assert!(check(&body, &epi).is_empty());
    }

    #[test]
    fn use_before_loop_carried_def_is_reported() {
        // The b row is loaded *after* the FMA that consumes it: iteration
        // 0 multiplies by the zeroed live-in register.
        let mut body = Program::new();
        body.push(a_fma(0, 31));
        body.push(b_load(31));
        let ds = check(&body, &Program::new());
        assert!(ds.iter().any(
            |d| matches!(d.kind, LintKind::UninitializedRead { reg: 31 })
                && d.message.contains("later in the loop")
        ));
    }

    #[test]
    fn never_defined_read_is_reported_once() {
        let mut body = Program::new();
        body.push(a_fma(0, 29));
        body.push(a_fma(1, 29));
        let ds = check(&body, &Program::new());
        let hits: Vec<_> = ds
            .iter()
            .filter(|d| matches!(d.kind, LintKind::UninitializedRead { reg: 29 }))
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("never defined"));
    }

    #[test]
    fn double_load_is_a_dead_store() {
        let mut body = Program::new();
        body.push(b_load(31));
        body.push(b_load(31));
        body.push(a_fma(0, 31));
        let ds = check(&body, &Program::new());
        let dead: Vec<_> = ds
            .iter()
            .filter(|d| matches!(d.kind, LintKind::DeadStore { reg: 31 }))
            .collect();
        assert_eq!(dead.len(), 1);
        assert_eq!(dead[0].at, 0, "the first load is the dead one");
    }

    #[test]
    fn loop_carried_value_consumed_only_by_epilogue_is_live() {
        let mut body = Program::new();
        body.push(b_load(31));
        body.push(a_fma(0, 31));
        body.push(b_load(29)); // never read in the body...
        let mut epi = Program::new();
        epi.push(Instr::Store {
            src: 29, // ...but stored by the epilogue
            addr: Addr::new(StreamId::C, 0, 0),
        });
        assert!(check(&body, &epi).is_empty());
    }

    #[test]
    fn accumulator_clobber_is_reported() {
        let mut body = Program::new();
        body.push(b_load(31));
        body.push(a_fma(0, 31));
        body.push(b_load(0)); // clobbers the partial sums in v0
        let ds = check(&body, &Program::new());
        assert!(ds
            .iter()
            .any(|d| matches!(d.kind, LintKind::AccumulatorClobber { reg: 0 }) && d.at == 2));
    }
}
