//! The repository's benchmark: end-to-end and per-layer measurements of
//! the DSM reproduction on the sequential engine, with every run's
//! output checked against the Seq reference. See `README.md`.

pub mod measure;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod workload;
