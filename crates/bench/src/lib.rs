//! Experiment harness for the paper's evaluation section.
//!
//! Every figure of the paper has a module under [`experiments`] that
//! regenerates it:
//!
//! | module | paper figure |
//! |---|---|
//! | [`experiments::fig01`] | Fig. 1 — sequential X-tree NN time vs dimension |
//! | [`experiments::fig02`] | Fig. 2 — speed-up of round-robin parallel NN |
//! | [`experiments::fig03`] | Fig. 3 — improvement of Hilbert over round robin |
//! | [`experiments::fig05`] | Fig. 5 — data points near the space surface |
//! | [`experiments::fig07`] | Fig. 7 — DM/FX/Hilbert are not near-optimal |
//! | [`experiments::fig10`] | Fig. 10 — colors required by `col` (staircase) |
//! | [`experiments::fig12`] | Fig. 12 — speed-up of our technique, uniform data |
//! | [`experiments::fig13`] | Fig. 13 — speed-up ours vs Hilbert, Fourier data |
//! | [`experiments::fig14`] | Fig. 14 — improvement factor over Hilbert |
//! | [`experiments::fig15`] | Fig. 15 — scale-up (disks and data grow together) |
//! | [`experiments::fig16`] | Fig. 16 — effect of recursive declustering |
//! | [`experiments::fig17`] | Fig. 17 — ours vs Hilbert on text descriptors |
//!
//! Run them with the `figures` binary:
//!
//! ```sh
//! cargo run --release -p parsim-bench --bin figures -- all
//! cargo run --release -p parsim-bench --bin figures -- fig13 --scale 2.0
//! ```
//!
//! The paper's comparison points live here too, beside the experiments
//! that measure them, not in the engine's index crate: the Section-2
//! survey structures [`gridfile`] (Welch's grid), [`kdtree`] (the FBF
//! k-d-tree) and [`tvtree`] (a TV-style telescope tree), run by `ext5`,
//! and the \[BBKK 97\] cost model [`costmodel`], checked by `ext2`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod experiments;
pub mod gridfile;
pub mod kdtree;
pub mod report;
pub mod svg;
pub mod tvtree;

pub use report::ExperimentReport;
