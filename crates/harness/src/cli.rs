//! The `dsm` front end: one command line for every table, gate and
//! analysis in the harness.
//!
//! ```text
//! dsm <command> [scale] [nprocs] [flags]
//! ```
//!
//! Every invocation parses into one [`RunSpec`] — application, version,
//! protocol, engine, scale and processor count — by one parser driven
//! by the command's row of the command table: its default scale and
//! processor count, how many of the two positionals it reads, and the
//! flags it reads. A flag the command does not read is a usage error,
//! never a silent no-op. Commands write to the `out` they are handed,
//! so `all` runs the table renderers in-process and tests compare the
//! output byte for byte.
//!
//! The default engine is **sequential**: the regenerated tables are then
//! deterministic (identical on every invocation) and the sweeps fan out
//! across CPU cores, one single-threaded simulation per worker. Pass
//! `--engine threaded` to run on the original thread-per-node backend.
//! The default protocol is **lrc** (the original TreadMarks protocol);
//! `--protocol hlrc` runs the shared-memory versions under home-based
//! LRC instead.
//!
//! [`run`] returns an [`Error`] instead of exiting: a failed gate maps
//! to exit status 1, a bad command line, an unreadable or malformed
//! file or an I/O failure to 2.

use std::fmt;
use std::io::{self, Write};

use apps::{AppId, Version};
use sp2sim::EngineKind;
use treadmarks::ProtocolMode;

mod analyze;
mod tables;
mod tools;

/// Why a command did not succeed.
#[derive(Debug)]
pub enum Error {
    /// A gate the command checks failed (exit status 1).
    Gate(String),
    /// The command line was malformed (exit status 2).
    Usage(String),
    /// A file could not be read, parsed or written (exit status 2).
    Io(String),
}

impl Error {
    /// The process exit status this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            Error::Gate(_) => 1,
            Error::Usage(_) | Error::Io(_) => 2,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Gate(m) => write!(f, "{m}"),
            Error::Usage(m) => write!(f, "error: {m} (see dsm --help)"),
            Error::Io(m) => write!(f, "error: {m}"),
        }
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Error {
        Error::Io(e.to_string())
    }
}

/// The run an invocation describes. Commands that sweep an axis
/// themselves (every application, both protocols) read only the
/// fields their flags set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct RunSpec {
    /// Application (`--app`, default jacobi).
    pub app: AppId,
    /// Program version (`--version`, default spf).
    pub version: Version,
    /// Coherence protocol for the shared-memory versions.
    pub protocol: ProtocolMode,
    /// Execution engine for every simulation.
    pub engine: EngineKind,
    /// Problem scale (1.0 = the paper's sizes).
    pub scale: f64,
    /// Simulated processor count.
    pub nprocs: usize,
}

/// A parsed invocation: the run plus the command-specific flags given.
pub(crate) struct Args {
    pub(crate) spec: RunSpec,
    /// Flags in command-line order with their values ("" for switches).
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// The value of `flag`, if it was given.
    pub(crate) fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }
}

/// Where a command writes its report.
type Out<'a> = &'a mut dyn Write;

type Run = fn(&Args, Out) -> Result<(), Error>;

/// One row of the command table.
struct Command {
    name: &'static str,
    /// Default scale and processor count.
    scale: f64,
    nprocs: usize,
    /// How many of `[scale] [nprocs]` the command reads.
    positionals: usize,
    /// The flags the command reads; any other flag is rejected.
    flags: &'static [&'static str],
    run: Run,
}

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["--breakdown", "--gate-identity", "--seeded", "--smoke"];

const RUN: &[&str] = &["--engine", "--protocol"];

/// A table renderer reading scale, nprocs, engine and protocol.
const fn table(name: &'static str, run: Run) -> Command {
    Command {
        name,
        scale: 0.1,
        nprocs: 8,
        positionals: 2,
        flags: RUN,
        run,
    }
}

/// The paper's tables and figures plus the extension studies, in the
/// order `all` prints them.
const SUITE: [Command; 10] = [
    Command {
        positionals: 1,
        flags: &["--engine"],
        ..table("table1", tables::table1)
    },
    table("figure1", tables::figure1),
    table("table2", tables::table2),
    table("figure2_table3", tables::figure2_table3),
    table("handopt", tables::handopt),
    table("interface_ablation", tables::interface_ablation),
    Command {
        flags: &["--engine", "--protocol", "--app", "--check-baseline"],
        ..table("compiler_opt", tables::compiler_opt)
    },
    Command {
        flags: &["--engine", "--check-baseline"],
        ..table("protocol_compare", tables::protocol_compare)
    },
    table("scaling", tables::scaling),
    table("page_size", tables::page_size),
];

/// Everything else: the gates, the perf sweep, the trace and causal
/// analyses, and the whole suite at once.
const TOOLS: [Command; 5] = [
    Command {
        scale: 0.035,
        nprocs: 4,
        flags: &["--engine", "--seeded"],
        ..table("races", tools::races)
    },
    Command {
        scale: 1.0,
        flags: &["--smoke", "--out", "--check"],
        ..table("sweep", tools::sweep)
    },
    Command {
        flags: &[
            "--engine",
            "--protocol",
            "--app",
            "--version",
            "--out",
            "--breakdown",
            "--check",
        ],
        ..table("trace", tools::trace)
    },
    Command {
        flags: &[
            "--engine",
            "--protocol",
            "--app",
            "--version",
            "--out",
            "--top",
            "--gate-identity",
            "--check",
        ],
        ..table("analyze", analyze::analyze)
    },
    table("all", all),
];

fn all(a: &Args, out: Out) -> Result<(), Error> {
    SUITE.iter().try_for_each(|c| (c.run)(a, out))
}

/// Run one `dsm` invocation (`args` excludes the program name),
/// writing everything it reports to `out`.
pub fn run<I: IntoIterator<Item = String>>(args: I, out: Out) -> Result<(), Error> {
    let argv: Vec<String> = args.into_iter().collect();
    let Some((name, rest)) = argv.split_first() else {
        return Err(Error::Usage("missing command".into()));
    };
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(out.write_all(usage().as_bytes())?);
    }
    let cmd = SUITE
        .iter()
        .chain(&TOOLS)
        .find(|c| c.name == name)
        .ok_or_else(|| Error::Usage(format!("unknown command {name}")))?;
    (cmd.run)(&parse(cmd, rest)?, out)
}

fn usage() -> String {
    let mut s = String::from("usage: dsm <command> [scale] [nprocs] [flags]\n\n");
    for c in SUITE.iter().chain(&TOOLS) {
        let pos = ["", " [scale]", " [scale] [nprocs]"][c.positionals];
        s += &format!("  {}{pos}  {}\n", c.name, c.flags.join(" "));
    }
    s
}

fn parse(cmd: &Command, argv: &[String]) -> Result<Args, Error> {
    let usage = |m: String| Error::Usage(format!("{}: {m}", cmd.name));
    let mut spec = RunSpec {
        app: AppId::Jacobi,
        version: Version::Spf,
        protocol: ProtocolMode::Lrc,
        engine: EngineKind::Sequential,
        scale: cmd.scale,
        nprocs: cmd.nprocs,
    };
    let mut flags = Vec::new();
    let mut positional = 0;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            let bad = || usage(format!("bad argument {arg}"));
            match positional {
                0 if cmd.positionals > 0 => spec.scale = arg.parse().map_err(|_| bad())?,
                1 if cmd.positionals > 1 => spec.nprocs = arg.parse().map_err(|_| bad())?,
                _ => return Err(usage(format!("unexpected argument {arg}"))),
            }
            positional += 1;
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((n, v)) => (n, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let flag = *cmd
            .flags
            .iter()
            .find(|f| **f == name)
            .ok_or_else(|| usage(format!("does not take {name}")))?;
        if flags.iter().any(|(f, _)| *f == flag) {
            return Err(usage(format!("{flag} given twice")));
        }
        let value = if SWITCHES.contains(&flag) {
            if inline.is_some() {
                return Err(usage(format!("{flag} takes no value")));
            }
            String::new()
        } else {
            inline
                .or_else(|| it.next().cloned())
                .ok_or_else(|| usage(format!("missing value after {flag}")))?
        };
        match flag {
            "--engine" => spec.engine = value.parse().map_err(usage)?,
            "--protocol" => spec.protocol = value.parse().map_err(usage)?,
            "--app" => spec.app = parse_app(&value).map_err(usage)?,
            "--version" => spec.version = parse_version(&value).map_err(usage)?,
            _ => {}
        }
        flags.push((flag, value));
    }
    check_size(spec.scale, spec.nprocs).map_err(usage)?;
    let given = |flag| flags.iter().any(|(f, _)| *f == flag);
    if given("--check") && (positional > 0 || flags.len() > 1) {
        return Err(usage("--check FILE takes no other arguments".into()));
    }
    if given("--seeded") && positional > 0 {
        return Err(usage(
            "--seeded runs a fixed program and takes no scale or nprocs".into(),
        ));
    }
    Ok(Args { spec, flags })
}

/// Check a run size, whether it came from the command line or from a
/// baseline file.
pub(crate) fn check_size(scale: f64, nprocs: usize) -> Result<(), String> {
    if nprocs == 0 {
        return Err("nprocs must be at least 1".into());
    }
    if !(scale.is_finite() && scale > 0.0) {
        return Err("scale must be a positive finite number".into());
    }
    Ok(())
}

/// Parse an application name as accepted by `--app`.
fn parse_app(s: &str) -> Result<AppId, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "jacobi" => AppId::Jacobi,
        "shallow" => AppId::Shallow,
        "mgs" => AppId::Mgs,
        "fft3d" | "fft" => AppId::Fft3d,
        "igrid" => AppId::IGrid,
        "nbf" => AppId::Nbf,
        _ => return Err(format!("unknown app '{s}'")),
    })
}

/// Parse a program-version name as accepted by `--version`.
fn parse_version(s: &str) -> Result<Version, String> {
    Ok(match s.to_ascii_lowercase().as_str() {
        "seq" => Version::Seq,
        "spf" => Version::Spf,
        "spf-cri" | "spfcri" | "cri" => Version::SpfCri,
        "tmk" | "treadmarks" => Version::Tmk,
        "xhpf" => Version::Xhpf,
        "pvme" => Version::Pvme,
        "handopt" | "hand-opt" => Version::HandOpt,
        _ => return Err(format!("unknown version '{s}'")),
    })
}

/// Read a file a command was pointed at.
fn read(path: &str) -> Result<String, Error> {
    std::fs::read_to_string(path).map_err(|e| Error::Io(format!("cannot read {path}: {e}")))
}

/// Write a file a command was asked to produce.
fn write(path: &str, text: &str) -> Result<(), Error> {
    std::fs::write(path, text).map_err(|e| Error::Io(format!("cannot write {path}: {e}")))
}
