//! # themis-bench
//!
//! The experiment harness of the Themis (ISCA 2022) reproduction: one module
//! per figure/table of the paper's evaluation, each regenerating the rows or
//! series the paper reports on the simulated substrate built by the other
//! crates in this workspace.
//!
//! | Module | Paper reference |
//! |---|---|
//! | [`experiments::table2`] | Table 2 — evaluated topologies |
//! | [`experiments::fig04`] | Fig. 4 — normalized runtime vs avg BW utilisation |
//! | [`experiments::fig05`] | Fig. 5 / Fig. 7 — 2D pipeline example, baseline vs Themis |
//! | [`experiments::fig08`] | Fig. 8 — All-Reduce communication time |
//! | [`experiments::fig09`] | Fig. 9 — per-dimension frontend activity rate |
//! | [`experiments::fig10`] | Fig. 10 — BW utilisation vs chunks per collective |
//! | [`experiments::fig11`] | Fig. 11 — average BW utilisation vs collective size |
//! | [`experiments::fig12`] | Fig. 12 — end-to-end training iteration breakdown |
//! | [`experiments::stream_overlap`] | Sec. 4.3 applied across collectives — streaming queue vs sequential timeline |
//! | [`experiments::sec63`] | Sec. 6.3 — BW provisioning scenarios |
//! | [`experiments::fault_sweep`] | Fault sweep — scheduling under link degradation and failure |
//! | [`experiments::summary`] | Sec. 6 headline numbers |
//!
//! Every module exposes a `run()` (or `run_with` for parameterised sweeps)
//! returning a [`report::Report`] that `themis-experiments` collects into
//! `EXPERIMENTS.md`-ready markdown.
//!
//! The experiments are built on the facade's campaign layer
//! ([`themis::api`]): each sweep is declared as a
//! [`themis::api::Campaign`] and executed through the parallel
//! [`themis::api::Runner`], so the harness contains no hand-wired
//! schedule-then-simulate plumbing.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod harness;
pub mod report;
pub mod service_ext;

pub use harness::{measure, BenchStat};
pub use report::{Report, Table};
