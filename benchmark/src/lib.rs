//! The repo's benchmark: four workloads on the enforcement path, six
//! end-to-end metrics a caller feels, and a per-layer ledger taken from
//! outside the program. `README.md` explains the design; `BENCHMARK.json`
//! at the repo root is the contract a later change is judged against.

#![warn(missing_docs)]

pub mod drive;
pub mod e2e;
pub mod host;
pub mod ledger;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod workload;
