//! Name-based workload resolution for crash dumps and the `bugnet` CLI.
//!
//! BugNet replay needs the exact program binary that was recorded. All of
//! this crate's workloads are generated deterministically from a small set of
//! parameters, so a short *workload spec string* is enough to rebuild the
//! identical program images offline. The crash-dump manifest stores that
//! string; `bugnet replay` parses it back through [`WorkloadSpec`].
//!
//! Spec-string grammar (all fields `:`-separated):
//!
//! * `spec:<profile>:<instructions>:<threads>` — a SPEC-2000-like profile
//!   from [`SpecProfile::all`], e.g. `spec:gzip:30000:1`.
//! * `bug:<name>:<scale_milli>` — a Table-1 bug program from
//!   [`BugSpec::all`] with the root-cause-to-crash window scaled by
//!   `scale_milli / 1000`, e.g. `bug:gzip-1.2.4:1000` for the paper's
//!   distance.
//! * `mt:locked_counter:<threads>:<increments>`,
//!   `mt:racy_counter:<threads>:<increments>`,
//!   `mt:producer_consumer:<items>` — the multithreaded kernels.

use std::fmt;

use crate::bugs::BugSpec;
use crate::mt;
use crate::spec::SpecProfile;
use crate::workload::Workload;

/// A parsed, buildable workload identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadSpec {
    /// A SPEC-2000-like profile.
    Spec {
        /// Profile name (`art`, `bzip2`, `crafty`, `gzip`, `mcf`, `parser`,
        /// `vpr`).
        profile: String,
        /// Instruction-count hint passed to the program generator.
        instructions: u64,
        /// Number of identical threads.
        threads: usize,
    },
    /// A Table-1 bug program.
    Bug {
        /// Bug name as it appears in the paper (e.g. `gzip-1.2.4`).
        name: String,
        /// Window scale in thousandths (1000 = the paper's distance).
        scale_milli: u32,
    },
    /// A multithreaded kernel from [`mt`].
    Mt {
        /// Kernel name (`locked_counter`, `racy_counter`,
        /// `producer_consumer`).
        kind: String,
        /// Kernel parameters (thread count and iterations, or item count).
        params: Vec<u32>,
    },
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadSpec::Spec {
                profile,
                instructions,
                threads,
            } => write!(f, "spec:{profile}:{instructions}:{threads}"),
            WorkloadSpec::Bug { name, scale_milli } => write!(f, "bug:{name}:{scale_milli}"),
            WorkloadSpec::Mt { kind, params } => {
                write!(f, "mt:{kind}")?;
                for p in params {
                    write!(f, ":{p}")?;
                }
                Ok(())
            }
        }
    }
}

impl WorkloadSpec {
    /// Parses a spec string (see the module docs for the grammar).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax problem.
    /// Unknown profile/bug names are reported by [`WorkloadSpec::build`],
    /// which is where the name tables live.
    pub fn parse(s: &str) -> Result<Self, String> {
        let fields: Vec<&str> = s.split(':').collect();
        let int = |field: &str, what: &str| -> Result<u64, String> {
            field
                .parse::<u64>()
                .map_err(|_| format!("{what} `{field}` is not a number in `{s}`"))
        };
        match fields.as_slice() {
            ["spec", profile, instructions, threads] => Ok(WorkloadSpec::Spec {
                profile: (*profile).to_string(),
                instructions: int(instructions, "instruction count")?,
                threads: int(threads, "thread count")?.clamp(1, MAX_THREADS as u64) as usize,
            }),
            ["bug", name, scale] => Ok(WorkloadSpec::Bug {
                name: (*name).to_string(),
                scale_milli: int(scale, "window scale")?.clamp(1, 1_000_000) as u32,
            }),
            ["mt", kind, params @ ..] if !params.is_empty() => Ok(WorkloadSpec::Mt {
                kind: (*kind).to_string(),
                params: params
                    .iter()
                    .map(|p| int(p, "parameter").map(|v| v.min(u64::from(u32::MAX)) as u32))
                    .collect::<Result<_, _>>()?,
            }),
            _ => Err(format!(
                "unrecognized workload spec `{s}` (expected spec:<profile>:<instrs>:<threads>, \
                 bug:<name>:<scale_milli>, or mt:<kind>:<params...>)"
            )),
        }
    }

    /// Builds the workload this spec names.
    ///
    /// # Errors
    ///
    /// Returns a description of the unknown profile, bug or kernel name.
    pub fn build(&self) -> Result<Workload, String> {
        match self {
            WorkloadSpec::Spec {
                profile,
                instructions,
                threads,
            } => {
                let p = SpecProfile::all()
                    .into_iter()
                    .find(|p| p.name == profile)
                    .ok_or_else(|| {
                        format!(
                            "unknown SPEC profile `{profile}` (known: {})",
                            known_profiles().join(", ")
                        )
                    })?;
                Ok(p.build_workload(*instructions, (*threads).max(1)))
            }
            WorkloadSpec::Bug { name, scale_milli } => {
                let spec = BugSpec::all()
                    .into_iter()
                    .find(|b| b.name == name)
                    .ok_or_else(|| {
                        format!("unknown bug `{name}` (known: {})", known_bugs().join(", "))
                    })?;
                Ok(spec.build(f64::from(*scale_milli) / 1000.0))
            }
            WorkloadSpec::Mt { kind, params } => match (kind.as_str(), params.as_slice()) {
                ("locked_counter", [threads, increments]) => {
                    Ok(mt::locked_counter(clamp_threads(*threads), *increments))
                }
                ("racy_counter", [threads, increments]) => {
                    Ok(mt::racy_counter(clamp_threads(*threads), *increments))
                }
                ("producer_consumer", [items]) => Ok(mt::producer_consumer(*items)),
                _ => Err(format!(
                    "unknown mt kernel `{kind}` with {} parameter(s) (known: \
                     locked_counter:<threads>:<increments>, racy_counter:<threads>:<increments>, \
                     producer_consumer:<items>)",
                    params.len()
                )),
            },
        }
    }
}

/// The most threads a registry workload has: `spec:` and `mt:` thread
/// counts are capped here, so a spec string from the command line or a
/// dump manifest cannot size the simulator's per-thread state.
pub const MAX_THREADS: usize = 64;

fn clamp_threads(threads: u32) -> usize {
    (threads as usize).min(MAX_THREADS)
}

/// Names of the available SPEC-like profiles.
pub fn known_profiles() -> Vec<&'static str> {
    SpecProfile::all().into_iter().map(|p| p.name).collect()
}

/// Names of the available Table-1 bug programs.
pub fn known_bugs() -> Vec<&'static str> {
    BugSpec::all().into_iter().map(|b| b.name).collect()
}

/// Parses and builds in one step: the resolution path used by
/// `bugnet replay` on a manifest's workload string.
///
/// # Errors
///
/// Returns a description of the syntax or name problem.
pub fn resolve(spec: &str) -> Result<Workload, String> {
    WorkloadSpec::parse(spec)?.build()
}

/// Whether two spec strings name the same workload, comparing parsed specs
/// so spelling variants (`mt:racy_counter:2:0400` vs `mt:racy_counter:2:400`)
/// compare equal. Strings that do not parse fall back to literal
/// comparison — `bugnet replay` uses this to warn when `--workload`
/// overrides a dump with a *different* recorded spec.
pub fn specs_equivalent(a: &str, b: &str) -> bool {
    match (WorkloadSpec::parse(a), WorkloadSpec::parse(b)) {
        (Ok(a), Ok(b)) => a == b,
        _ => a == b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_strings_round_trip_through_display() {
        for s in [
            "spec:gzip:30000:1",
            "bug:gzip-1.2.4:1000",
            "mt:racy_counter:2:400",
            "mt:producer_consumer:64",
        ] {
            let parsed = WorkloadSpec::parse(s).unwrap();
            assert_eq!(parsed.to_string(), s);
        }
    }

    #[test]
    fn mt_thread_counts_clamp_like_spec_thread_counts() {
        // A spec string reaches here from the command line and from dump
        // manifests; neither may size the simulator's per-thread state.
        assert_eq!(
            resolve("mt:racy_counter:100:4").unwrap().thread_count(),
            MAX_THREADS
        );
        assert_eq!(
            resolve("spec:gzip:1000:100").unwrap().thread_count(),
            MAX_THREADS
        );
    }

    #[test]
    fn resolve_builds_identical_programs() {
        // The whole point: two resolutions of the same string yield the same
        // program images, so offline replay sees the recorded binary.
        let a = resolve("spec:crafty:20000:2").unwrap();
        let b = resolve("spec:crafty:20000:2").unwrap();
        assert_eq!(a.thread_count(), 2);
        for (ta, tb) in a.threads.iter().zip(&b.threads) {
            assert_eq!(ta.program.code(), tb.program.code());
        }
        let bug = resolve("bug:bc-1.06:1000").unwrap();
        assert_eq!(bug.name, "bc-1.06");
    }

    #[test]
    fn spec_equivalence_ignores_spelling_variants() {
        assert!(specs_equivalent(
            "mt:racy_counter:2:400",
            "mt:racy_counter:2:0400"
        ));
        assert!(specs_equivalent("spec:gzip:30000:1", "spec:gzip:30000:01"));
        assert!(!specs_equivalent("spec:gzip:30000:1", "spec:gzip:30000:2"));
        assert!(!specs_equivalent(
            "spec:gzip:30000:1",
            "bug:gzip-1.2.4:1000"
        ));
        // Unparseable strings (ad-hoc workload names) compare literally.
        assert!(specs_equivalent("adhoc:demo", "adhoc:demo"));
        assert!(!specs_equivalent("adhoc:demo", "adhoc:other"));
    }

    #[test]
    fn unknown_names_are_reported() {
        assert!(resolve("spec:nosuch:1000:1")
            .unwrap_err()
            .contains("nosuch"));
        assert!(resolve("bug:nosuch:1000").unwrap_err().contains("nosuch"));
        assert!(resolve("mt:nosuch:1").unwrap_err().contains("nosuch"));
        assert!(WorkloadSpec::parse("gibberish").is_err());
        assert!(WorkloadSpec::parse("spec:gzip:abc:1").is_err());
        assert!(WorkloadSpec::parse("mt:racy_counter").is_err());
    }
}
