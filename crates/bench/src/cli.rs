//! Command-line handling shared by the `src/bin/*` binaries: one flag
//! parser that rejects anything a binary does not declare (so `serve
//! --fsat` fails instead of silently running the full budget), and the
//! rule for where a run's result files land.

use std::path::{Path, PathBuf};

/// What one binary accepts on its command line.
#[derive(Debug, Clone, Copy)]
pub struct Cli<'a> {
    /// Usage text printed (to stderr) when parsing fails.
    pub usage: &'a str,
    /// Flags without a value (`--fast`, `--check`).
    pub switches: &'a [&'a str],
    /// Flags that take the next argument as their value (`--out FILE`).
    pub options: &'a [&'a str],
    /// Largest number of positional (non-flag) arguments accepted.
    pub max_positional: usize,
}

/// A parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    given: Vec<(String, Option<String>)>,
    /// Positional arguments, in order.
    pub positional: Vec<String>,
}

impl Args {
    /// Whether switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.given.iter().any(|(k, _)| k == name)
    }

    /// The value of option `name`, if given (the last one wins).
    pub fn option(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(k, _)| k == name)?
            .1
            .as_deref()
    }
}

impl<'a> Cli<'a> {
    /// A command line of `switches` only: no options, no positionals.
    pub const fn switches(usage: &'a str, switches: &'a [&'a str]) -> Self {
        Self {
            usage,
            switches,
            options: &[],
            max_positional: 0,
        }
    }

    /// Parses `args` (without the program name). Any argument starting
    /// with `-` must be a declared switch or option.
    ///
    /// # Errors
    /// A message naming the unknown flag, the option missing its value,
    /// or the surplus positional argument.
    pub fn parse(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if self.switches.contains(&arg.as_str()) {
                parsed.given.push((arg, None));
            } else if self.options.contains(&arg.as_str()) {
                let value = args.next().ok_or(format!("option '{arg}' needs a value"))?;
                parsed.given.push((arg, Some(value)));
            } else if arg.starts_with('-') {
                return Err(format!("unknown flag '{arg}'"));
            } else if parsed.positional.len() == self.max_positional {
                return Err(format!("unexpected argument '{arg}'"));
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments, exiting through
    /// [`exit_usage`](Self::exit_usage) on an error.
    pub fn parse_env(&self) -> Args {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| self.exit_usage(&e))
    }

    /// Prints `error` and the usage text to stderr and exits with
    /// status 2.
    pub fn exit_usage(&self, error: &str) -> ! {
        eprintln!("{error}\n{}", self.usage);
        std::process::exit(2);
    }
}

/// Where a binary writes its result file `name`: the repository root for
/// a full run (the committed baseline), `target/bench/` for a `--fast`
/// smoke run, so a smoke run never overwrites the committed full-mode
/// file. Creates the directory if needed.
pub fn output_path(name: &str, fast: bool) -> PathBuf {
    let root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let dir = if fast {
        root.join("target/bench")
    } else {
        root
    };
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir.join(name)
}

/// The `--check` re-read of the result file at `path`: panics unless
/// every one of `fields` landed in it, and returns its text for any
/// further checks.
pub fn reread_with_fields(path: &Path, fields: &[&str]) -> String {
    let written =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("re-read {}: {e}", path.display()));
    let missing: Vec<&str> = fields
        .iter()
        .filter(|f| !written.contains(**f))
        .copied()
        .collect();
    assert!(
        missing.is_empty(),
        "{} is missing fields: {missing:?}",
        path.display()
    );
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLI: Cli = Cli {
        usage: "usage: t [--fast] [--check] [--out FILE] [name]",
        switches: &["--fast", "--check"],
        options: &["--out"],
        max_positional: 1,
    };

    fn parse(args: &[&str]) -> Result<Args, String> {
        CLI.parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn declared_arguments_parse_in_any_order() {
        let none = parse(&[]).unwrap();
        assert!(!none.flag("--fast") && none.option("--out").is_none());
        let args = parse(&["--out", "x.json", "fig14", "--fast"]).unwrap();
        assert!(args.flag("--fast") && !args.flag("--check"));
        assert_eq!(args.option("--out"), Some("x.json"));
        assert_eq!(args.positional, ["fig14"]);
    }

    #[test]
    fn undeclared_arguments_are_rejected() {
        for (args, error) in [
            (&["--fsat"][..], "unknown flag '--fsat'"),
            (&["-f"], "unknown flag '-f'"),
            (&["--out"], "option '--out' needs a value"),
            (&["a", "b"], "unexpected argument 'b'"),
        ] {
            assert_eq!(parse(args).unwrap_err(), error);
        }
        let switches_only = Cli::switches("usage: s [--fast]", &["--fast"]);
        let error = switches_only.parse(["x".to_string()]).unwrap_err();
        assert_eq!(error, "unexpected argument 'x'");
    }

    #[test]
    fn fast_runs_write_under_target() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(
            output_path("BENCH_x.json", false),
            root.join("BENCH_x.json")
        );
        let fast = output_path("BENCH_x.json", true);
        assert_eq!(fast, root.join("target/bench/BENCH_x.json"));
    }
}
