//! Shared plumbing for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the paper
//! (the README's "Paper experiments" section has the index). They all accept
//! `--paper-scale` to run at the paper's full instruction counts and reject
//! any other argument; by default they run scaled-down configurations that
//! finish in seconds and extrapolate where the paper's headline numbers are
//! per-instruction rates. Run them with `--release`.

use std::{env, process};

/// Command-line options shared by every experiment binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentOptions {
    /// Run at the paper's full instruction counts instead of the scaled
    /// defaults.
    pub paper_scale: bool,
}

impl ExperimentOptions {
    /// Parses the options from the process arguments. An argument other
    /// than `--paper-scale` prints the usage line to stderr and exits with
    /// status 2.
    pub fn from_args() -> Self {
        let mut args = env::args_os().map(|a| a.to_string_lossy().into_owned());
        let program = args.next().unwrap_or_default();
        ExperimentOptions::parse(args).unwrap_or_else(|arg| {
            eprintln!("unknown argument `{arg}`\nusage: {program} [--paper-scale]");
            process::exit(2)
        })
    }

    /// Parses the arguments that follow the program name. `--paper-scale`
    /// is the only one accepted; the first other argument is the error.
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut paper_scale = false;
        for arg in args {
            match arg.as_str() {
                "--paper-scale" => paper_scale = true,
                _ => return Err(arg),
            }
        }
        Ok(ExperimentOptions { paper_scale })
    }

    /// Chooses between the scaled default and the paper-scale value.
    pub fn pick(&self, scaled: u64, paper: u64) -> u64 {
        if self.paper_scale {
            paper
        } else {
            scaled
        }
    }

    /// Chooses a floating-point scale factor.
    pub fn scale(&self, scaled: f64) -> f64 {
        if self.paper_scale {
            1.0
        } else {
            scaled
        }
    }
}

/// Prints a table header followed by an underline, `|`-separated.
pub fn print_header(columns: &[&str]) {
    let row = columns.join(" | ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Formats a byte count the way the paper's tables do.
pub fn format_bytes(bytes: u64) -> String {
    bugnet_types::ByteSize::from_bytes(bytes).to_string()
}

/// Formats an instruction count compactly (10 M, 1 B, ...).
pub fn format_instructions(count: u64) -> String {
    if count >= 1_000_000_000 {
        format!("{:.1} B", count as f64 / 1e9)
    } else if count >= 1_000_000 {
        format!("{:.1} M", count as f64 / 1e6)
    } else if count >= 1_000 {
        format!("{:.1} K", count as f64 / 1e3)
    } else {
        count.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_only_paper_scale() {
        let parse = |list: &[&str]| ExperimentOptions::parse(list.iter().map(|a| a.to_string()));
        assert_eq!(parse(&[]), Ok(ExperimentOptions { paper_scale: false }));
        assert_eq!(
            parse(&["--paper-scale"]),
            Ok(ExperimentOptions { paper_scale: true })
        );
        assert_eq!(parse(&["--paper-scael"]), Err("--paper-scael".to_string()));
        assert_eq!(parse(&["--paper-scale", "extra"]), Err("extra".to_string()));
    }

    #[test]
    fn pick_respects_paper_scale() {
        let scaled = ExperimentOptions { paper_scale: false };
        let paper = ExperimentOptions { paper_scale: true };
        assert_eq!(scaled.pick(10, 1000), 10);
        assert_eq!(paper.pick(10, 1000), 1000);
        assert_eq!(scaled.scale(0.01), 0.01);
        assert_eq!(paper.scale(0.01), 1.0);
    }

    #[test]
    fn instruction_formatting() {
        assert_eq!(format_instructions(591), "591");
        assert_eq!(format_instructions(32_209), "32.2 K");
        assert_eq!(format_instructions(10_000_000), "10.0 M");
        assert_eq!(format_instructions(1_000_000_000), "1.0 B");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(225 * 1024), "225.00 KB");
    }
}
