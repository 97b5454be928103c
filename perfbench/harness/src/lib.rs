//! The repository benchmark's harness: builds each workload from its
//! seed, times the calls into the simulator and into each layer's public
//! functions from outside, checks the outputs, and reports metrics.

pub mod bench;
pub mod metrics;
pub mod probes;
pub mod reference;
pub mod spans;
pub mod workload;
