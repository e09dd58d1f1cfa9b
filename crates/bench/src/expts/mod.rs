//! The experiment bodies behind the scenario registry.
//!
//! Each module reproduces one table of EXPERIMENTS.md (T1–T11, S1, the
//! ablations): it sweeps the parameters DESIGN.md §5 lists, runs the
//! algorithms through the shared [`crate::runner::sweep`] trial loop (or
//! on real threads where throughput is the point), and prints both an
//! aligned text table and JSON lines (`--json`).
//!
//! The entry point is the `expt` multiplexer binary — `expt -- list`,
//! `expt -- run <name>` — which resolves these through
//! [`crate::scenario::registry`].

pub mod ablation;
pub mod adaptive;
pub mod almost_adaptive;
pub mod basic;
pub mod compare;
pub mod engine;
pub mod lowerbound;
pub mod majority;
pub mod mega;
pub mod polylog;
pub mod reduced;
pub mod repository;
pub mod scaling;
pub mod service;
pub mod storecollect;
