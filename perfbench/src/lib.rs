//! End-to-end and per-layer benchmark for the aft workspace.
//!
//! Four workloads (see [`workloads`]) run as closed loops from one client
//! thread; every run's outputs are checked. The untraced run reports the
//! end-to-end metrics, the traced run the per-layer metrics it measures
//! from outside the program: a scheduler wrapper, a step loop, the
//! `Metrics` counters, a wire-vs-sim differential and the `aft-partyd`
//! control protocol. See `README.md` beside this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod layers;
pub mod machine;
pub mod measure;
pub mod metrics;
pub mod workloads;
