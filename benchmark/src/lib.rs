//! The eXACML+ benchmark: five end-to-end workloads through the public
//! `Backend` API, a traced run that times each layer's public functions on
//! the same inputs, and a steadiness mode that repeats a workload over
//! seeds. See `README.md` in this directory.

pub mod inputs;
pub mod output;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;

pub use inputs::Scale;
pub use workloads::{run, Params, Report, Workload};
