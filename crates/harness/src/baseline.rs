//! `--check-baseline` files for the CI regression gates
//! (`dsm compiler_opt`, `dsm protocol_compare`).
//!
//! A baseline file records `scale nprocs max_count` — the configuration
//! a deterministic (sequential-engine) sweep was recorded at and the
//! count it must not exceed there. What the count bounds (messages,
//! access-miss round trips, ...) is the command's business; reading the
//! file and the recorded-config-wins rule are shared so both gates keep
//! one contract.

use crate::cli::{check_size, Error, RunSpec};

/// Parsed `scale nprocs max_count` baseline record.
pub struct Baseline {
    /// Problem scale the baseline was recorded at.
    pub scale: f64,
    /// Processor count the baseline was recorded at.
    pub nprocs: usize,
    /// The gated quantity's recorded maximum.
    pub max_count: u64,
}

impl Baseline {
    /// Read a baseline file. `what` names the count field in the error
    /// for a malformed file (e.g. `max_msgs`).
    pub fn read(path: &str, what: &str) -> Result<Baseline, Error> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Io(format!("cannot read baseline {path}: {e}")))?;
        let parsed = match text.split_whitespace().collect::<Vec<_>>()[..] {
            [scale, nprocs, max_count] => (|| {
                Some(Baseline {
                    scale: scale.parse().ok()?,
                    nprocs: nprocs.parse().ok()?,
                    max_count: max_count.parse().ok()?,
                })
            })(),
            _ => None,
        };
        let b = parsed.ok_or_else(|| {
            Error::Io(format!(
                "baseline {path} must contain `scale nprocs {what}`, got {text:?}"
            ))
        })?;
        check_size(b.scale, b.nprocs).map_err(|e| Error::Io(format!("baseline {path}: {e}")))?;
        Ok(b)
    }

    /// Move `spec` to the configuration the baseline was recorded at.
    /// Counts are only comparable there — silently comparing across
    /// scales would flag phantom regressions — so the recorded
    /// `(scale, nprocs)` win over the command line, and a mismatch is
    /// reported.
    pub fn pin(&self, spec: &mut RunSpec) {
        if self.scale != spec.scale || self.nprocs != spec.nprocs {
            eprintln!(
                "note: baseline recorded at scale {} / {} procs; \
                 running the gate there (command line said {} / {})",
                self.scale, self.nprocs, spec.scale, spec.nprocs
            );
        }
        spec.scale = self.scale;
        spec.nprocs = self.nprocs;
    }
}
