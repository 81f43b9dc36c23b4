//! Disassembly and static validation of kernel programs.
//!
//! [`disassemble`] renders a [`Program`] in an Intel-ish syntax close to
//! the listings of Fig. 2b/2c, so the kernel regenerators can print what
//! the paper printed. [`parse_instr`] / [`parse_program`] invert that
//! syntax exactly (the ISA conformance tables in `tests/isa/*.md` are
//! written in it). `validate` statically checks a program against the
//! machine constraints (register indices, lane selectors, address
//! sanity) before it reaches the emulator.

#[cfg(any(test, debug_assertions))]
use crate::isa::NUM_VREGS;
use crate::isa::{Addr, BcastMode, Instr, Operand, Program, StreamId};

fn stream_name(s: StreamId) -> &'static str {
    match s {
        StreamId::A => "rA",
        StreamId::B => "rB",
        StreamId::C => "rC",
    }
}

fn addr_str(a: &Addr) -> String {
    let mut s = format!("[{}", stream_name(a.stream));
    if a.scale_iter != 0 {
        s.push_str(&format!(" + i*{}", a.scale_iter));
    }
    if a.scale_thread != 0 {
        s.push_str(&format!(" + t*{}", a.scale_thread));
    }
    if a.offset != 0 {
        s.push_str(&format!(" + {}", a.offset));
    }
    s.push(']');
    s
}

fn operand_str(op: &Operand) -> String {
    match op {
        Operand::Reg(r) => format!("v{r}"),
        Operand::Mem(a) => addr_str(a),
        Operand::MemBcast(a, BcastMode::OneToEight) => format!("{}{{1to8}}", addr_str(a)),
        Operand::MemBcast(a, BcastMode::FourToEight) => format!("{}{{4to8}}", addr_str(a)),
        Operand::Swizzle(r, i) => format!("v{r}{{dddd}}[{i}]"),
    }
}

/// Renders one instruction.
pub fn instr_str(i: &Instr) -> String {
    match i {
        Instr::Fmadd { acc, src, b } => {
            format!("vfmadd231pd v{acc}, v{b}, {}", operand_str(src))
        }
        Instr::Load { dst, addr } => format!("vmovapd v{dst}, {}", addr_str(addr)),
        Instr::Store { src, addr } => format!("vmovapd {}, v{src}", addr_str(addr)),
        Instr::Broadcast {
            dst,
            addr,
            mode: BcastMode::OneToEight,
        } => format!("vbroadcastsd v{dst}, {}", addr_str(addr)),
        Instr::Broadcast {
            dst,
            addr,
            mode: BcastMode::FourToEight,
        } => format!("vbroadcastf64x4 v{dst}, {}", addr_str(addr)),
        Instr::Add { dst, src } => format!("vaddpd v{dst}, v{dst}, {}", operand_str(src)),
        Instr::Mul { dst, src } => format!("vmulpd v{dst}, v{dst}, {}", operand_str(src)),
        Instr::PrefetchL1(a) => format!("vprefetch0 {}", addr_str(a)),
        Instr::PrefetchL2(a) => format!("vprefetch1 {}", addr_str(a)),
        Instr::ScalarOp => "add r13, 1".to_string(),
    }
}

/// Renders a whole program with issue-slot annotations: `U` for vector
/// (U-pipe) instructions, `V` for co-issuable prefetch/scalar ones.
pub fn disassemble(p: &Program) -> String {
    let mut out = String::new();
    for (idx, i) in p.body.iter().enumerate() {
        let pipe = if i.is_vector() { 'U' } else { 'V' };
        out.push_str(&format!("{idx:>3} {pipe}  {}\n", instr_str(i)));
    }
    out
}

/// A static program defect.
#[cfg(any(test, debug_assertions))]
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ValidationError {
    /// Register index ≥ 32.
    BadRegister {
        /// Offending instruction index.
        at: usize,
        /// Register number.
        reg: u8,
    },
    /// Swizzle lane selector ≥ 4 (Fig. 1b: lanes are 4-wide).
    BadSwizzleLane {
        /// Offending instruction index.
        at: usize,
        /// Lane selector.
        lane: u8,
    },
}

#[cfg(any(test, debug_assertions))]
impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::BadRegister { at, reg } => {
                write!(f, "instruction {at}: register v{reg} out of range")
            }
            ValidationError::BadSwizzleLane { at, lane } => {
                write!(f, "instruction {at}: swizzle lane {lane} out of range")
            }
        }
    }
}

#[cfg(any(test, debug_assertions))]
fn check_reg(at: usize, r: u8, errs: &mut Vec<ValidationError>) {
    if r as usize >= NUM_VREGS {
        errs.push(ValidationError::BadRegister { at, reg: r });
    }
}

#[cfg(any(test, debug_assertions))]
fn check_operand(at: usize, op: &Operand, errs: &mut Vec<ValidationError>) {
    match op {
        Operand::Reg(r) => check_reg(at, *r, errs),
        Operand::Swizzle(r, lane) => {
            check_reg(at, *r, errs);
            if *lane >= 4 {
                errs.push(ValidationError::BadSwizzleLane { at, lane: *lane });
            }
        }
        _ => {}
    }
}

/// Checks every instruction against the machine constraints. Returns all
/// defects found (empty = valid).
#[cfg(any(test, debug_assertions))]
pub(crate) fn validate(p: &Program) -> Vec<ValidationError> {
    let mut errs = Vec::new();
    for (at, i) in p.body.iter().enumerate() {
        match i {
            Instr::Fmadd { acc, src, b } => {
                check_reg(at, *acc, &mut errs);
                check_reg(at, *b, &mut errs);
                check_operand(at, src, &mut errs);
            }
            Instr::Load { dst, .. } | Instr::Broadcast { dst, .. } => {
                check_reg(at, *dst, &mut errs)
            }
            Instr::Store { src, .. } => check_reg(at, *src, &mut errs),
            Instr::Add { dst, src } | Instr::Mul { dst, src } => {
                check_reg(at, *dst, &mut errs);
                check_operand(at, src, &mut errs);
            }
            Instr::PrefetchL1(_) | Instr::PrefetchL2(_) | Instr::ScalarOp => {}
        }
    }
    errs
}

/// Why a line of kernel assembly failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The mnemonic is not part of the emulated subset.
    UnknownMnemonic {
        /// 1-based source line (0 from [`parse_instr`]).
        line: usize,
        /// The offending mnemonic.
        found: String,
    },
    /// An operand, address, or operand count is wrong.
    Malformed {
        /// 1-based source line (0 from [`parse_instr`]).
        line: usize,
        /// What was wrong.
        detail: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownMnemonic { line, found } => {
                write!(f, "line {line}: unknown mnemonic `{found}`")
            }
            ParseError::Malformed { line, detail } => write!(f, "line {line}: {detail}"),
        }
    }
}

impl std::error::Error for ParseError {}

fn malformed(detail: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line: 0,
        detail: detail.into(),
    }
}

fn parse_reg(tok: &str) -> Result<u8, ParseError> {
    tok.strip_prefix('v')
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| malformed(format!("expected register `vN`, found `{tok}`")))
}

/// Parses `[rA + i*S + t*T + O]` — every term after the stream optional,
/// in any order (the renderer omits zero terms).
fn parse_addr(tok: &str) -> Result<Addr, ParseError> {
    let inner = tok
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| malformed(format!("expected `[...]` address, found `{tok}`")))?;
    let mut terms = inner.split('+').map(str::trim);
    let stream = match terms.next() {
        Some("rA") => StreamId::A,
        Some("rB") => StreamId::B,
        Some("rC") => StreamId::C,
        other => {
            return Err(malformed(format!(
                "address must start with a stream rA/rB/rC, found `{}`",
                other.unwrap_or("")
            )))
        }
    };
    let mut addr = Addr::new(stream, 0, 0);
    for term in terms {
        let (field, num): (&mut usize, &str) = if let Some(n) = term.strip_prefix("i*") {
            (&mut addr.scale_iter, n)
        } else if let Some(n) = term.strip_prefix("t*") {
            (&mut addr.scale_thread, n)
        } else {
            (&mut addr.offset, term)
        };
        *field = num
            .parse()
            .map_err(|_| malformed(format!("bad address term `{term}` in `{tok}`")))?;
    }
    Ok(addr)
}

fn parse_operand(tok: &str) -> Result<Operand, ParseError> {
    if let Some(mem) = tok.strip_suffix("{1to8}") {
        return Ok(Operand::MemBcast(parse_addr(mem)?, BcastMode::OneToEight));
    }
    if let Some(mem) = tok.strip_suffix("{4to8}") {
        return Ok(Operand::MemBcast(parse_addr(mem)?, BcastMode::FourToEight));
    }
    if tok.starts_with('[') {
        return Ok(Operand::Mem(parse_addr(tok)?));
    }
    if let Some((reg, lane)) = tok.split_once("{dddd}[") {
        let lane = lane
            .strip_suffix(']')
            .and_then(|l| l.parse().ok())
            .ok_or_else(|| malformed(format!("bad swizzle lane in `{tok}`")))?;
        return Ok(Operand::Swizzle(parse_reg(reg)?, lane));
    }
    Ok(Operand::Reg(parse_reg(tok)?))
}

/// Parses one instruction in the exact syntax [`instr_str`] renders.
pub fn parse_instr(line: &str) -> Result<Instr, ParseError> {
    let line = line.trim();
    let (mnemonic, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
    let ops: Vec<&str> = if rest.trim().is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(str::trim).collect()
    };
    let want = |n: usize| -> Result<(), ParseError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(malformed(format!(
                "`{mnemonic}` takes {n} operand(s), found {} in `{line}`",
                ops.len()
            )))
        }
    };
    match mnemonic {
        "vfmadd231pd" => {
            want(3)?;
            Ok(Instr::Fmadd {
                acc: parse_reg(ops[0])?,
                b: parse_reg(ops[1])?,
                src: parse_operand(ops[2])?,
            })
        }
        "vmovapd" => {
            want(2)?;
            if ops[0].starts_with('[') {
                Ok(Instr::Store {
                    src: parse_reg(ops[1])?,
                    addr: parse_addr(ops[0])?,
                })
            } else {
                Ok(Instr::Load {
                    dst: parse_reg(ops[0])?,
                    addr: parse_addr(ops[1])?,
                })
            }
        }
        "vbroadcastsd" | "vbroadcastf64x4" => {
            want(2)?;
            Ok(Instr::Broadcast {
                dst: parse_reg(ops[0])?,
                addr: parse_addr(ops[1])?,
                mode: if mnemonic == "vbroadcastsd" {
                    BcastMode::OneToEight
                } else {
                    BcastMode::FourToEight
                },
            })
        }
        "vaddpd" | "vmulpd" => {
            want(3)?;
            let dst = parse_reg(ops[0])?;
            if parse_reg(ops[1])? != dst {
                return Err(malformed(format!(
                    "`{mnemonic}` is destructive: first two operands must match in `{line}`"
                )));
            }
            let src = parse_operand(ops[2])?;
            Ok(if mnemonic == "vaddpd" {
                Instr::Add { dst, src }
            } else {
                Instr::Mul { dst, src }
            })
        }
        "vprefetch0" => {
            want(1)?;
            Ok(Instr::PrefetchL1(parse_addr(ops[0])?))
        }
        "vprefetch1" => {
            want(1)?;
            Ok(Instr::PrefetchL2(parse_addr(ops[0])?))
        }
        "add" => {
            if ops == ["r13", "1"] {
                Ok(Instr::ScalarOp)
            } else {
                Err(malformed(format!(
                    "the only scalar form is `add r13, 1`, found `{line}`"
                )))
            }
        }
        other => Err(ParseError::UnknownMnemonic {
            line: 0,
            found: other.to_string(),
        }),
    }
}

/// Strips the `NNN U  ` index/pipe prefix [`disassemble`] emits, if
/// present, so its output parses back directly.
fn strip_listing_prefix(line: &str) -> &str {
    let digits = line.len() - line.trim_start_matches(|c: char| c.is_ascii_digit()).len();
    if digits == 0 {
        return line;
    }
    let rest = &line[digits..];
    let trimmed = rest.trim_start();
    if trimmed.len() == rest.len() {
        return line; // no whitespace after the digits: not a listing prefix
    }
    if let Some(r) = trimmed.strip_prefix(['U', 'V']) {
        if r.starts_with(char::is_whitespace) {
            return r.trim_start();
        }
    }
    line
}

/// Parses a whole program, one instruction per line. Blank lines and
/// `;`/`#` comments are skipped; [`disassemble`]'s index/pipe prefix is
/// accepted, so `parse_program(&disassemble(p))` round-trips. Errors
/// carry 1-based line numbers.
pub fn parse_program(text: &str) -> Result<Program, ParseError> {
    let mut p = Program::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') || line.starts_with('#') {
            continue;
        }
        let instr = parse_instr(strip_listing_prefix(line)).map_err(|e| match e {
            ParseError::UnknownMnemonic { found, .. } => ParseError::UnknownMnemonic {
                line: idx + 1,
                found,
            },
            ParseError::Malformed { detail, .. } => ParseError::Malformed {
                line: idx + 1,
                detail,
            },
        })?;
        p.push(instr);
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::build_basic_kernel;
    use phi_blas::gemm::MicroKernelKind;

    #[test]
    fn kernels_disassemble_like_the_paper() {
        let (k2, epi) = build_basic_kernel(MicroKernelKind::Kernel2);
        let text = disassemble(&k2);
        // The salient features of Fig. 2c appear:
        assert!(text.contains("vbroadcastf64x4"), "4to8 broadcast:\n{text}");
        assert!(text.contains("{dddd}[0]"), "swizzled FMA:\n{text}");
        assert!(text.contains("{1to8}"), "memory-broadcast FMAs:\n{text}");
        assert!(text.contains("vprefetch0"), "L1 prefetch:\n{text}");
        assert!(text.contains("vprefetch1"), "L2 prefetch:\n{text}");
        // Dual-issue annotation: both pipes present.
        assert!(text.contains(" U  ") && text.contains(" V  "));
        // The epilogue stores the accumulators.
        let etext = disassemble(&epi);
        assert!(etext.contains("vmovapd [rC"), "C update:\n{etext}");
    }

    #[test]
    fn kernel1_shows_only_memory_broadcasts() {
        let (k1, _) = build_basic_kernel(MicroKernelKind::Kernel1);
        let text = disassemble(&k1);
        assert!(!text.contains("{dddd}"), "Kernel 1 has no swizzles");
        assert_eq!(text.matches("{1to8}").count(), 31);
    }

    #[test]
    fn built_kernels_validate_clean() {
        for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
            let (body, epi) = build_basic_kernel(kind);
            assert!(validate(&body).is_empty());
            assert!(validate(&epi).is_empty());
        }
    }

    #[test]
    fn bad_register_reported_for_every_operand_position() {
        use crate::isa::{Addr, StreamId};
        let mem = Addr::new(StreamId::B, 8, 0);
        let cases: Vec<Instr> = vec![
            Instr::Fmadd {
                acc: 32,
                src: Operand::Reg(0),
                b: 0,
            },
            Instr::Fmadd {
                acc: 0,
                src: Operand::Reg(99),
                b: 0,
            },
            Instr::Fmadd {
                acc: 0,
                src: Operand::Swizzle(40, 0),
                b: 0,
            },
            Instr::Fmadd {
                acc: 0,
                src: Operand::Reg(0),
                b: 32,
            },
            Instr::Load { dst: 32, addr: mem },
            Instr::Store { src: 32, addr: mem },
            Instr::Broadcast {
                dst: 32,
                addr: mem,
                mode: BcastMode::OneToEight,
            },
            Instr::Add {
                dst: 32,
                src: Operand::Reg(0),
            },
            Instr::Mul {
                dst: 0,
                src: Operand::Reg(32),
            },
        ];
        for instr in cases {
            let mut p = Program::new();
            p.push(instr);
            let errs = validate(&p);
            assert!(
                errs.iter()
                    .any(|e| matches!(e, ValidationError::BadRegister { at: 0, .. })),
                "{instr:?}: {errs:?}"
            );
        }
    }

    #[test]
    fn bad_swizzle_lane_reported_at_the_boundary() {
        for lane in [4u8, 5, 255] {
            let mut p = Program::new();
            p.push(Instr::Fmadd {
                acc: 0,
                src: Operand::Swizzle(30, lane),
                b: 31,
            });
            let errs = validate(&p);
            assert_eq!(
                errs,
                vec![ValidationError::BadSwizzleLane { at: 0, lane }],
                "lane {lane}"
            );
        }
        // Lane 3 is the last legal selector.
        let mut p = Program::new();
        p.push(Instr::Fmadd {
            acc: 0,
            src: Operand::Swizzle(30, 3),
            b: 31,
        });
        assert!(validate(&p).is_empty());
    }

    #[test]
    fn instr_str_round_trips_the_fig2_listing_forms() {
        use crate::isa::{Addr, StreamId};
        // Every rendered form, spelled exactly as the Fig. 2b/2c
        // listings (and the README excerpts) expect them.
        let cases: Vec<(Instr, &str)> = vec![
            (
                Instr::Fmadd {
                    acc: 0,
                    src: Operand::MemBcast(Addr::new(StreamId::A, 32, 5), BcastMode::OneToEight),
                    b: 31,
                },
                "vfmadd231pd v0, v31, [rA + i*32 + 5]{1to8}",
            ),
            (
                Instr::Fmadd {
                    acc: 2,
                    src: Operand::Swizzle(30, 2),
                    b: 31,
                },
                "vfmadd231pd v2, v31, v30{dddd}[2]",
            ),
            (
                Instr::Broadcast {
                    dst: 30,
                    addr: Addr::new(StreamId::A, 32, 0),
                    mode: BcastMode::FourToEight,
                },
                "vbroadcastf64x4 v30, [rA + i*32]",
            ),
            (
                Instr::Broadcast {
                    dst: 29,
                    addr: Addr::new(StreamId::A, 0, 3),
                    mode: BcastMode::OneToEight,
                },
                "vbroadcastsd v29, [rA + 3]",
            ),
            (
                Instr::Load {
                    dst: 31,
                    addr: Addr::new(StreamId::B, 8, 0),
                },
                "vmovapd v31, [rB + i*8]",
            ),
            (
                Instr::Store {
                    src: 0,
                    addr: Addr::new(StreamId::C, 0, 8),
                },
                "vmovapd [rC + 8], v0",
            ),
            (
                Instr::Add {
                    dst: 0,
                    src: Operand::Mem(Addr::new(StreamId::C, 0, 0)),
                },
                "vaddpd v0, v0, [rC]",
            ),
            (
                Instr::Mul {
                    dst: 1,
                    src: Operand::Reg(7),
                },
                "vmulpd v1, v1, v7",
            ),
            (
                Instr::PrefetchL1(Addr::new(StreamId::A, 32, 32).with_thread_scale(8)),
                "vprefetch0 [rA + i*32 + t*8 + 32]",
            ),
            (
                Instr::PrefetchL2(Addr::new(StreamId::B, 8, 16)),
                "vprefetch1 [rB + i*8 + 16]",
            ),
            (Instr::ScalarOp, "add r13, 1"),
        ];
        for (instr, expect) in cases {
            assert_eq!(instr_str(&instr), expect);
        }
    }

    #[test]
    fn disassemble_lines_carry_index_and_pipe_columns() {
        let (k1, _) = build_basic_kernel(MicroKernelKind::Kernel1);
        let text = disassemble(&k1);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), k1.body.len());
        assert_eq!(lines[0], "  0 V  vprefetch0 [rB + i*8 + 8]");
        assert_eq!(lines[1], "  1 U  vmovapd v31, [rB + i*8]");
        assert_eq!(lines[2], "  2 V  vprefetch0 [rA + i*32 + t*8 + 32]");
        assert_eq!(lines[3], "  3 U  vfmadd231pd v0, v31, [rA + i*32]{1to8}");
    }

    #[test]
    fn parse_inverts_instr_str_on_every_form() {
        use crate::isa::{Addr, StreamId};
        let cases: Vec<Instr> = vec![
            Instr::Fmadd {
                acc: 0,
                src: Operand::MemBcast(Addr::new(StreamId::A, 32, 5), BcastMode::OneToEight),
                b: 31,
            },
            Instr::Fmadd {
                acc: 2,
                src: Operand::Swizzle(30, 2),
                b: 31,
            },
            Instr::Fmadd {
                acc: 7,
                src: Operand::Reg(12),
                b: 29,
            },
            Instr::Broadcast {
                dst: 30,
                addr: Addr::new(StreamId::A, 32, 0),
                mode: BcastMode::FourToEight,
            },
            Instr::Broadcast {
                dst: 29,
                addr: Addr::new(StreamId::A, 0, 3),
                mode: BcastMode::OneToEight,
            },
            Instr::Load {
                dst: 31,
                addr: Addr::new(StreamId::B, 8, 0),
            },
            Instr::Store {
                src: 0,
                addr: Addr::new(StreamId::C, 0, 8),
            },
            Instr::Add {
                dst: 0,
                src: Operand::Mem(Addr::new(StreamId::C, 0, 0)),
            },
            Instr::Mul {
                dst: 1,
                src: Operand::Reg(7),
            },
            Instr::PrefetchL1(Addr::new(StreamId::A, 32, 32).with_thread_scale(8)),
            Instr::PrefetchL2(Addr::new(StreamId::B, 8, 16)),
            Instr::ScalarOp,
        ];
        for instr in cases {
            let text = instr_str(&instr);
            assert_eq!(parse_instr(&text), Ok(instr), "round trip of `{text}`");
        }
    }

    #[test]
    fn parse_program_round_trips_both_kernels() {
        for kind in [MicroKernelKind::Kernel1, MicroKernelKind::Kernel2] {
            let (body, epi) = build_basic_kernel(kind);
            // Via the annotated listing (index/pipe prefix stripped)...
            let p = parse_program(&disassemble(&body)).expect("listing parses");
            assert_eq!(p.body, body.body, "{kind:?} body");
            // ...and via bare instr_str lines with comments interleaved.
            let mut text = String::from("; epilogue\n\n");
            for i in &epi.body {
                text.push_str(&instr_str(i));
                text.push('\n');
            }
            let e = parse_program(&text).expect("bare lines parse");
            assert_eq!(e.body, epi.body, "{kind:?} epilogue");
        }
    }

    #[test]
    fn parse_accepts_address_terms_in_any_order() {
        use crate::isa::{Addr, StreamId};
        let a = parse_instr("vprefetch0 [rA + 32 + t*8 + i*32]").unwrap();
        assert_eq!(
            a,
            Instr::PrefetchL1(Addr::new(StreamId::A, 32, 32).with_thread_scale(8))
        );
    }

    #[test]
    fn parse_rejects_defective_lines_with_reasons() {
        // Unknown mnemonic.
        assert!(matches!(
            parse_instr("vsubpd v0, v0, v1"),
            Err(ParseError::UnknownMnemonic { found, .. }) if found == "vsubpd"
        ));
        // Operand-count mismatch.
        assert!(parse_instr("vfmadd231pd v0, v1").is_err());
        // Non-destructive vaddpd spelling.
        assert!(parse_instr("vaddpd v0, v1, v2").is_err());
        // Bad stream register.
        assert!(parse_instr("vmovapd v0, [rD + i*8]").is_err());
        // Bad address term.
        assert!(parse_instr("vmovapd v0, [rB + i*x]").is_err());
        // Bad swizzle suffix.
        assert!(parse_instr("vfmadd231pd v0, v1, v2{dddd}[x]").is_err());
        // Non-canonical scalar op.
        assert!(parse_instr("add r12, 1").is_err());
        // parse_program reports 1-based line numbers.
        let err = parse_program("vmulpd v1, v1, v7\nbogus v0\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::UnknownMnemonic { line: 2, ref found } if found == "bogus"
        ));
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn validator_catches_defects() {
        use crate::isa::{Addr, StreamId};
        let mut p = Program::new();
        p.push(Instr::Fmadd {
            acc: 40, // out of range
            src: Operand::Swizzle(2, 7),
            b: 1,
        });
        p.push(Instr::Load {
            dst: 33,
            addr: Addr::new(StreamId::A, 0, 0),
        });
        let errs = validate(&p);
        assert_eq!(errs.len(), 3);
        assert!(matches!(
            errs[0],
            ValidationError::BadRegister { at: 0, reg: 40 }
        ));
        assert!(matches!(
            errs[1],
            ValidationError::BadSwizzleLane { at: 0, lane: 7 }
        ));
        assert!(errs[2].to_string().contains("v33"));
    }
}
