//! The `phi` command line: every table, figure, gate and campaign
//! driver of the workspace is one subcommand of one binary.
//!
//! Four things live here and nowhere else: the command table
//! (`commands::COMMANDS`), the one parser over the process arguments,
//! the one seed parser and the one `--out` writer. A refused argument is
//! a [`CliError`] and exit status 1, never a panic.

mod commands;

use commands::COMMANDS;
use std::ffi::OsString;
use std::fmt;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

/// One subcommand: its name, a one-line summary, its flags and its body.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<Report, CliError>,
}

/// One flag, spelled `--name` (a bare word for [`Kind::SeedArg`]).
struct Flag {
    name: &'static str,
    kind: Kind,
}

const fn flag(name: &'static str, kind: Kind) -> Flag {
    Flag { name, kind }
}

/// What a flag takes, and its default.
enum Kind {
    /// Present or absent.
    Switch,
    /// An integer of at least `min`. A `default` below `min` means "not
    /// given": the flag may be left out but not set to that value.
    Int { default: usize, min: usize },
    /// A finite real.
    Real(f64),
    /// A seed (see [`seed`]).
    Seed(u64),
    /// A seed given as a bare word rather than after a `--flag`.
    SeedArg(u64),
    /// A process grid `PxQ`, both sides at least 1; default `1x1`.
    Grid,
    /// One of the listed words; the first is the default.
    Choice(&'static [&'static str]),
    /// One of the listed words per use, repeatable; default none.
    Choices(&'static [&'static str]),
    /// A path, and its default if it has one.
    Path(Option<&'static str>),
    /// A file the report is also written to.
    Out,
}

/// A checked flag value, one variant per [`Kind`].
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Switch(bool),
    Int(usize),
    Real(f64),
    Seed(u64),
    Grid((usize, usize)),
    Choice(&'static str),
    Choices(Vec<&'static str>),
    Path(Option<String>),
}

/// Why a command line was refused, or why the subcommand failed.
#[derive(Debug, PartialEq)]
enum CliError {
    NoCommand,
    UnknownCommand(String),
    /// An argument that is not UTF-8, shown lossily.
    NotUtf8(String),
    /// An argument the subcommand does not declare, and its usage line.
    UnknownArg {
        arg: String,
        usage: String,
    },
    /// A value flag with nothing after it.
    MissingValue(String),
    BadValue {
        flag: String,
        value: String,
        expected: String,
    },
    BelowMin {
        flag: String,
        min: usize,
        value: usize,
    },
    /// A body read a flag its table entry does not declare with that
    /// type: a bug in the table, not in the command line.
    Undeclared(&'static str),
    /// The subcommand ran and failed.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::NoCommand => write!(f, "no command given\n{}", usage()),
            CliError::UnknownCommand(c) => write!(f, "unknown command `{c}`\n{}", usage()),
            CliError::NotUtf8(a) => write!(f, "argument `{a}` is not valid UTF-8"),
            CliError::UnknownArg { arg, usage } => {
                write!(f, "unrecognized argument `{arg}`\n{usage}")
            }
            CliError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "{flag} expects {expected}, got `{value}`"),
            CliError::BelowMin { flag, min, value } => {
                write!(f, "{flag} must be at least {min}, got {value}")
            }
            CliError::Undeclared(flag) => write!(f, "internal error: flag `{flag}` not declared"),
            CliError::Failed(msg) => f.write_str(msg),
        }
    }
}

fn failed(e: impl fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

/// What a subcommand produced: the report for stdout (and `--out`), and
/// whether the process exits 0.
struct Report {
    text: String,
    pass: bool,
}

/// A report, and whether the process exits 0.
fn verdict(text: String, pass: bool) -> Result<Report, CliError> {
    Ok(Report { text, pass })
}

/// A report that always exits 0.
fn report(text: String) -> Result<Report, CliError> {
    verdict(text, true)
}

/// The one seed parser: a `u64`, decimal or `0x`-hex, surrounding
/// whitespace ignored.
fn seed(s: &str) -> Option<u64> {
    let s = s.trim();
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Flag {
    fn spelling(&self) -> String {
        match self.kind {
            Kind::SeedArg(_) => self.name.to_uppercase(),
            _ => format!("--{}", self.name),
        }
    }

    fn usage(&self) -> String {
        let name = self.spelling();
        match self.kind {
            Kind::Switch | Kind::SeedArg(_) => format!("[{name}]"),
            Kind::Int { .. } => format!("[{name} N]"),
            Kind::Real(_) => format!("[{name} X]"),
            Kind::Seed(_) => format!("[{name} SEED]"),
            Kind::Grid => format!("[{name} PxQ]"),
            Kind::Choice(words) => format!("[{name} {}]", words.join("|")),
            Kind::Choices(words) => format!("[{name} {}]...", words.join("|")),
            Kind::Path(_) => format!("[{name} PATH]"),
            Kind::Out => format!("[{name} FILE]"),
        }
    }

    fn default_value(&self) -> Value {
        match self.kind {
            Kind::Switch => Value::Switch(false),
            Kind::Int { default, .. } => Value::Int(default),
            Kind::Real(x) => Value::Real(x),
            Kind::Seed(s) | Kind::SeedArg(s) => Value::Seed(s),
            Kind::Grid => Value::Grid((1, 1)),
            Kind::Choice(words) => Value::Choice(words.first().copied().unwrap_or_default()),
            Kind::Choices(_) => Value::Choices(Vec::new()),
            Kind::Path(p) => Value::Path(p.map(String::from)),
            Kind::Out => Value::Path(None),
        }
    }

    /// Checks `raw` against this flag's kind and stores it in `slot`.
    fn set(&self, slot: &mut Value, raw: &str) -> Result<(), CliError> {
        let bad = |expected: &str| CliError::BadValue {
            flag: self.spelling(),
            value: raw.to_string(),
            expected: expected.to_string(),
        };
        let at_least = |min: usize, value: usize| {
            if value < min {
                let flag = self.spelling();
                return Err(CliError::BelowMin { flag, min, value });
            }
            Ok(value)
        };
        let word = |words: &[&'static str]| {
            let w = words.iter().copied().find(|w| *w == raw);
            w.ok_or_else(|| bad(&format!("one of {}", words.join("|"))))
        };
        if let (Kind::Choices(words), Value::Choices(picked)) = (&self.kind, &mut *slot) {
            picked.push(word(words)?);
            return Ok(());
        }
        *slot = match self.kind {
            Kind::Switch => Value::Switch(true),
            Kind::Int { min, .. } => {
                let n = raw.parse().map_err(|_| bad("an integer"))?;
                Value::Int(at_least(min, n)?)
            }
            Kind::Real(_) => match raw.parse::<f64>() {
                Ok(x) if x.is_finite() => Value::Real(x),
                _ => return Err(bad("a finite number")),
            },
            Kind::Seed(_) | Kind::SeedArg(_) => {
                Value::Seed(seed(raw).ok_or_else(|| bad("a u64, decimal or 0x-hex"))?)
            }
            Kind::Grid => {
                let (p, q) = raw.split_once(['x', 'X']).ok_or_else(|| bad("PxQ"))?;
                let side = |s: &str| at_least(1, s.parse().map_err(|_| bad("PxQ"))?);
                Value::Grid((side(p)?, side(q)?))
            }
            Kind::Choice(words) => Value::Choice(word(words)?),
            Kind::Choices(words) => Value::Choices(vec![word(words)?]),
            Kind::Path(_) | Kind::Out => Value::Path(Some(raw.to_string())),
        };
        Ok(())
    }
}

impl Command {
    fn usage(&self) -> String {
        let flags: Vec<String> = self.flags.iter().map(Flag::usage).collect();
        format!("usage: phi {} {}", self.name, flags.join(" "))
            .trim_end()
            .to_string()
    }
}

/// Every subcommand with its summary: what `phi` alone prints.
fn usage() -> String {
    let mut s = String::from("usage: phi <command> [flags]; commands:");
    for c in COMMANDS {
        s += &format!("\n  {:<22} {}", c.name, c.about);
    }
    s
}

/// A parsed command line: the subcommand and one checked value per
/// declared flag, defaults filled in.
struct Args {
    cmd: &'static Command,
    values: Vec<Value>,
}

/// Typed getters. Reading a flag the table does not declare with that
/// type is [`CliError::Undeclared`], never a panic.
macro_rules! getter {
    ($name:ident -> $t:ty, $variant:ident($v:ident) => $e:expr) => {
        fn $name(&self, flag: &'static str) -> Result<$t, CliError> {
            match self.value(flag)? {
                Value::$variant($v) => Ok($e),
                _ => Err(CliError::Undeclared(flag)),
            }
        }
    };
}

impl Args {
    fn value(&self, flag: &'static str) -> Result<&Value, CliError> {
        let mut declared = self.cmd.flags.iter().zip(&self.values);
        declared
            .find(|(f, _)| f.name == flag)
            .map(|(_, v)| v)
            .ok_or(CliError::Undeclared(flag))
    }

    getter!(switch -> bool, Switch(v) => *v);
    getter!(int -> usize, Int(v) => *v);
    getter!(real -> f64, Real(v) => *v);
    getter!(seed -> u64, Seed(v) => *v);
    getter!(grid -> (usize, usize), Grid(v) => *v);
    getter!(choice -> &'static str, Choice(v) => *v);
    getter!(choices -> &[&'static str], Choices(v) => v.as_slice());
    getter!(path -> Option<&str>, Path(v) => v.as_deref());

    /// A path flag whose table entry has a default.
    fn file(&self, flag: &'static str) -> Result<PathBuf, CliError> {
        let path = self.path(flag)?.ok_or(CliError::Undeclared(flag))?;
        Ok(PathBuf::from(path))
    }
}

/// The one parser: `argv` is the command line after the program name.
fn parse(argv: impl IntoIterator<Item = OsString>) -> Result<Args, CliError> {
    let mut argv = argv.into_iter().map(|a| {
        a.into_string()
            .map_err(|a| CliError::NotUtf8(a.to_string_lossy().into_owned()))
    });
    let name = argv.next().ok_or(CliError::NoCommand)??;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or(CliError::UnknownCommand(name))?;
    let mut values: Vec<Value> = cmd.flags.iter().map(Flag::default_value).collect();
    while let Some(arg) = argv.next() {
        let arg = arg?;
        let key = arg.strip_prefix("--");
        let found = cmd.flags.iter().zip(values.iter_mut()).find(|(f, _)| {
            let bare = matches!(f.kind, Kind::SeedArg(_));
            key.map_or(bare, |k| !bare && f.name == k)
        });
        let Some((flag, slot)) = found else {
            let usage = cmd.usage();
            return Err(CliError::UnknownArg { arg, usage });
        };
        match flag.kind {
            Kind::Switch | Kind::SeedArg(_) => flag.set(slot, &arg)?,
            _ => {
                let missing = || CliError::MissingValue(flag.spelling());
                flag.set(slot, &argv.next().ok_or_else(missing)??)?;
            }
        }
    }
    Ok(Args { cmd, values })
}

/// The one `--out` writer: the report also goes to the file of every
/// [`Kind::Out`] flag given.
fn write_out(args: &Args, text: &str) -> Result<(), CliError> {
    for (flag, value) in args.cmd.flags.iter().zip(&args.values) {
        if let (Kind::Out, Value::Path(Some(path))) = (&flag.kind, value) {
            std::fs::write(path, text).map_err(|e| failed(format!("cannot write {path}: {e}")))?;
        }
    }
    Ok(())
}

/// Runs `phi` on `argv`, the command line after the program name:
/// parse it, run the subcommand, print its report and write `--out`.
/// Exits 1 on a refused command line, a failed run or a failing gate.
pub fn run_cli(argv: impl IntoIterator<Item = OsString>) -> ExitCode {
    let args = match parse(argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("phi: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = (args.cmd.run)(&args).and_then(|r| {
        let printed = std::io::stdout().lock().write_all(r.text.as_bytes());
        printed.map_err(|e| failed(format!("cannot write stdout: {e}")))?;
        write_out(&args, &r.text)?;
        Ok(r.pass)
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("phi {}: {e}", args.cmd.name);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phi_faults::FaultRng;
    use std::os::unix::ffi::OsStringExt;

    fn argv(s: &[&str]) -> Vec<OsString> {
        s.iter().map(OsString::from).collect()
    }

    fn args(s: &[&str]) -> Args {
        parse(argv(s)).unwrap()
    }

    fn err(s: &[&str]) -> CliError {
        parse(argv(s)).err().unwrap()
    }

    #[test]
    fn parses_flags_and_grid() {
        let a = args(&["hybrid", "--n", "1000", "--grid", "2x3"]);
        assert_eq!(a.int("n").unwrap(), 1000);
        assert_eq!(a.grid("grid").unwrap(), (2, 3));
        assert_eq!(a.int("cards").unwrap(), 1, "default");
        assert_eq!(a.real("mem").unwrap(), 64.0, "default");
        assert_eq!(a.choice("lookahead").unwrap(), "pipelined", "default");
        // Repeated: the last value wins.
        assert_eq!(
            args(&["solve", "--n", "5", "--n", "6"]).int("n").unwrap(),
            6
        );
        let f = args(&["faults", "0x10", "--cluster", "--scope", "rack"]);
        assert_eq!(f.seed("seed").unwrap(), 16);
        assert!(f.switch("cluster").unwrap() && !f.switch("single").unwrap());
        assert_eq!(f.choice("scope").unwrap(), "rack");
        let w = args(&["workloads", "--workload", "spmv", "--workload", "dgemm"]);
        assert_eq!(w.choices("workload").unwrap(), ["spmv", "dgemm"]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            err(&["solve", "n", "1"]),
            CliError::UnknownArg { .. }
        ));
        assert_eq!(err(&["solve", "--n"]), CliError::MissingValue("--n".into()));
        assert!(matches!(
            err(&["hybrid", "--grid", "2y3"]),
            CliError::BadValue { .. }
        ));
        assert!(matches!(
            err(&["solve", "--n", "abc"]),
            CliError::BadValue { .. }
        ));
        assert!(matches!(
            err(&["faults", "0xZZ"]),
            CliError::BadValue { .. }
        ));
        assert!(matches!(
            err(&["hybrid", "--mem", "NaN"]),
            CliError::BadValue { .. }
        ));
        assert!(matches!(
            err(&["native", "--scheme", "bogus"]),
            CliError::BadValue { .. }
        ));
        assert!(matches!(err(&["solve", "--"]), CliError::UnknownArg { .. }));
    }

    #[test]
    fn unknown_command_errors() {
        assert_eq!(
            err(&["frobnicate"]),
            CliError::UnknownCommand("frobnicate".into())
        );
        assert_eq!(err(&[]), CliError::NoCommand);
        assert!(
            err(&[]).to_string().contains("schedule-lint"),
            "lists commands"
        );
    }

    #[test]
    fn tune_flags_parse_and_reject() {
        let ok = args(&["tune", "--smoke", "--out", "x.json", "--cache-dir", "c"]);
        assert!(ok.switch("smoke").unwrap());
        assert_eq!(ok.file("out").unwrap(), PathBuf::from("x.json"));
        assert_eq!(ok.file("cache-dir").unwrap(), PathBuf::from("c"));
        let dflt = args(&["tune"]);
        assert!(!dflt.switch("smoke").unwrap());
        assert_eq!(dflt.file("out").unwrap(), PathBuf::from("BENCH_tune.json"));
        assert_eq!(
            dflt.file("cache-dir").unwrap(),
            PathBuf::from("target/tune-cache")
        );
        assert!(matches!(
            err(&["tune", "--bogus"]),
            CliError::UnknownArg { .. }
        ));
        assert!(matches!(err(&["tune", "--out"]), CliError::MissingValue(_)));
    }

    /// Each of these made the former binaries panic (exit 101).
    #[test]
    fn former_crash_inputs_are_typed_errors() {
        let below = |flag: &str| CliError::BelowMin {
            flag: flag.into(),
            min: 1,
            value: 0,
        };
        let probes: [(Vec<OsString>, CliError); 9] = [
            (argv(&["solve", "--threads", "0"]), below("--threads")),
            (argv(&["solve", "--tpg", "0"]), below("--tpg")),
            (argv(&["native", "--nb", "0"]), below("--nb")),
            (argv(&["native", "--n", "0"]), below("--n")),
            (argv(&["hybrid", "--n", "0"]), below("--n")),
            (argv(&["hybrid", "--grid", "0x2"]), below("--grid")),
            (argv(&["cluster", "--grid", "0x1"]), below("--grid")),
            (argv(&["offload", "--cards", "0"]), below("--cards")),
            (
                vec!["table1".into(), OsString::from_vec(vec![0xff])],
                CliError::NotUtf8("\u{fffd}".into()),
            ),
        ];
        for (argv, want) in probes {
            let got = parse(argv.clone()).err();
            assert_eq!(got.as_ref(), Some(&want), "{argv:?}");
            if let CliError::BelowMin { flag, .. } = &want {
                let msg = want.to_string();
                assert!(msg.contains(flag) && msg.contains("at least 1"), "{msg}");
            }
            assert_eq!(run_cli(argv), ExitCode::FAILURE);
        }
        // Zero cards is a legal host-only run where the model allows it.
        assert_eq!(args(&["hybrid", "--cards", "0"]).int("cards").unwrap(), 0);
        assert_eq!(args(&["dat", "--cards", "0"]).int("cards").unwrap(), 0);
    }

    #[test]
    fn every_command_parses_its_defaults_and_refuses_strays() {
        for c in COMMANDS {
            let a = args(&[c.name]);
            for (f, v) in c.flags.iter().zip(&a.values) {
                assert_eq!(*v, f.default_value(), "{} --{}", c.name, f.name);
            }
            for stray in ["--bogus", "--", ""] {
                let e = err(&[c.name, stray]);
                let bare_seed = c.flags.iter().any(|f| matches!(f.kind, Kind::SeedArg(_)));
                match e {
                    CliError::BadValue { .. } if bare_seed && !stray.starts_with("--") => {}
                    CliError::UnknownArg { usage, .. } => assert!(usage.contains(c.name)),
                    other => panic!("{} {stray:?}: {other:?}", c.name),
                }
            }
            let not_utf8 = vec![c.name.into(), OsString::from_vec(vec![b'-', 0xc3])];
            assert!(matches!(parse(not_utf8), Err(CliError::NotUtf8(_))));
        }
        let names: std::collections::BTreeSet<_> = COMMANDS.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), 30, "30 distinct subcommands");
    }

    #[test]
    fn out_writer_writes_the_report_to_the_out_file() {
        let path = std::env::temp_dir().join(format!("phi-cli-out-{}", std::process::id()));
        let p = path.to_str().unwrap();
        write_out(&args(&["workloads", "--out", p]), "report\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "report\n");
        let _ = std::fs::remove_file(&path);
        // `tune --out` names its JSON artifact, not a copy of the report.
        let tune = args(&["tune", "--out", p]);
        write_out(&tune, "report\n").unwrap();
        assert!(!path.exists());
        let missing = args(&["fleet", "--out", "/nonexistent-dir/x"]);
        assert!(matches!(write_out(&missing, ""), Err(CliError::Failed(_))));
    }

    /// Seeded structure-aware fuzz of the parser: argv vectors drawn per
    /// subcommand from its own flag names, good and bad values, `--`,
    /// empty and non-UTF-8 words, repeats and unknown tokens. Parse only;
    /// every outcome must be `Ok` with every value inside its declared
    /// bounds, or a typed error. A panicking case is printed with its
    /// index; add its argv to `former_crash_inputs_are_typed_errors`.
    #[test]
    fn seeded_argv_fuzz_never_panics() {
        const CASES: usize = 20_000;
        const WORDS: [&str; 24] = [
            "0",
            "1",
            "2",
            "64",
            "-1",
            "0x10",
            "0XfF",
            "0x",
            "18446744073709551616",
            "2x3",
            "0x2",
            "3X",
            "x",
            "",
            " 7",
            "nan",
            "-inf",
            "1e3",
            "static",
            "storm",
            "spmv",
            "wholesale",
            "--",
            "--json",
        ];
        let mut rng = FaultRng::new(0xC11_F022);
        for case in 0..CASES {
            let cmd = &COMMANDS[rng.index(0, COMMANDS.len())];
            let mut argv = vec![OsString::from(cmd.name)];
            for _ in 0..rng.index(0, 7) {
                let word = match rng.index(0, 8) {
                    0..=2 if !cmd.flags.is_empty() => {
                        format!("--{}", cmd.flags[rng.index(0, cmd.flags.len())].name).into()
                    }
                    3 => OsString::from_vec(vec![0xff, b'x']),
                    4 => COMMANDS[rng.index(0, COMMANDS.len())].name.into(),
                    _ => WORDS[rng.index(0, WORDS.len())].into(),
                };
                argv.push(word);
            }
            let parsed = std::panic::catch_unwind(|| parse(argv.clone()))
                .unwrap_or_else(|_| panic!("case {case}: parse panicked on {argv:?}"));
            let Ok(a) = parsed else { continue };
            for (f, v) in cmd.flags.iter().zip(&a.values) {
                let ok = match (&f.kind, v) {
                    (Kind::Switch, Value::Switch(_))
                    | (Kind::Path(_) | Kind::Out, Value::Path(_)) => true,
                    (Kind::Int { default, min }, Value::Int(n)) => n >= min || n == default,
                    (Kind::Real(_), Value::Real(x)) => x.is_finite(),
                    (Kind::Seed(_) | Kind::SeedArg(_), Value::Seed(_)) => true,
                    (Kind::Grid, Value::Grid((p, q))) => *p >= 1 && *q >= 1,
                    (Kind::Choice(words), Value::Choice(w)) => words.contains(w),
                    (Kind::Choices(words), Value::Choices(ws)) => {
                        ws.iter().all(|w| words.contains(w))
                    }
                    _ => false,
                };
                assert!(ok, "case {case}: {argv:?} gave --{} = {v:?}", f.name);
            }
        }
    }
}
