//! The evaluation harness: one runner per table and figure of the paper's
//! evaluation (Sec. V and VI).
//!
//! | module | reproduces |
//! |--------|------------|
//! | [`tables`] | Table I (system parameters) and Table II (memory parameters) |
//! | [`area`]   | Sec. V-A area/timing overheads (3.5 % / 15.3 %) |
//! | [`fig08`]  | Fig. 8 — folding cycles vs accelerator tile size |
//! | [`fig09`]  | Fig. 9 — max accelerator tiles vs compute:memory split |
//! | [`fig10`]  | Fig. 10 — speedup vs tile size, single slice |
//! | [`fig11`]  | Fig. 11 — speedup vs MCC:memory ratio, single slice |
//! | [`fig12`]  | Fig. 12 — speedup/power/perf-per-watt vs slice count, with CPU and FPGA baselines |
//! | [`fig13`]  | Fig. 13 — end-to-end vs kernel-only speedup |
//! | [`fig14`]  | Fig. 14 — embedded cores in the LLC vs FReaC |
//! | [`fig15`]  | Fig. 15 — cache-interference study |
//! | [`ablations`] | LUT mode, large-tile clock, netlist opt, LUT packing, scheduling policy, LLC inclusion |
//!
//! Each runner returns a structured result that renders to an aligned text
//! table (the same rows/series the paper plots) via [`render::TextTable`].
//! [`artefacts`] names every rendered artefact; the `freac-eval` CLI and
//! the `paper_figures` example both print from it.
//!
//! Runners fan their independent jobs across the [`parallel`] worker pool
//! (worker count via `FREAC_WORKERS`, default: available parallelism) and
//! share synthesized circuits through the memoized mapping cache in
//! [`runner`]; results are bit-identical for any worker count.

pub mod ablations;
pub mod area;
pub mod artefacts;
pub mod energy_breakdown;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod multi;
pub mod parallel;
pub mod render;
pub mod runner;
pub mod sensitivity;
pub mod tables;

pub use render::TextTable;
