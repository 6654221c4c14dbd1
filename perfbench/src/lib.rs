//! End-to-end and per-layer benchmark of the AL-VC control plane and AL
//! construction. See `perfbench/README.md` for the workloads and metrics.

pub mod calibrate;
pub mod clock;
pub mod dcbuild;
pub mod driver;
pub mod gate;
pub mod metrics;
pub mod replay;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod storm;
pub mod tenants;
pub mod workloads;
