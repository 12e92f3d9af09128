//! Host-side benchmark of the Do-All simulator.
//!
//! Three workloads run through the public API of the simulator crates.
//! An untraced run reports end-to-end metrics; a traced run splits the
//! time by layer from outside, by timing calls into each crate's public
//! functions and by wrapping the protocol and adversary trait objects in
//! the transparent timers of [`wrap`]. See `README.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// The one exception is the process CPU-time clock in `probe`.
#![deny(unsafe_code)]

pub mod pins;
pub mod probe;
pub mod report;
pub mod stats;
pub mod workloads;
pub mod wrap;
