//! Experiment runners, statistics and table formatting for the
//! reproduction of Hoffmann & Désérable (PaCT 2013).
//!
//! Every table and figure of the paper has a runner here (see DESIGN.md's
//! per-experiment index):
//!
//! * [`experiments::density`] — **Table 1 / Fig. 5**: communication time
//!   vs. agent density in the T- and S-grids, with the published paper
//!   values for side-by-side comparison;
//! * [`experiments::distances`] — **Fig. 2 / Eq. (1)–(3)**: distance maps,
//!   diameters, mean distances and the T/S ratios;
//! * [`experiments::traces`] — **Fig. 6 / Fig. 7**: two-agent street- and
//!   honeycomb-building traces;
//! * [`experiments::grid33`] — the 33×33 scaling comparison of Sect. 5;
//! * [`experiments::ablation`] — colours, initial control states,
//!   conflict priority and turn-set ablations;
//! * [`experiments::extensions`] — bordered and obstacle environments
//!   (the conclusion's future work).
//!
//! Supporting utilities: [`Summary`] statistics, [`TextTable`] rendering
//! and the genome transforms used by the ablations
//! ([`suppress_colors`], [`remap_to_full_turns`]).
//!
//! # Examples
//!
//! A miniature Table 1 (three densities, a few configurations):
//!
//! ```
//! use a2a_analysis::experiments::density::{run_density_comparison, DensityExperiment};
//!
//! # fn main() -> Result<(), a2a_sim::SimError> {
//! let exp = DensityExperiment {
//!     m: 16,
//!     agent_counts: vec![2, 256],
//!     n_random: 3,
//!     seed: 2013,
//!     t_max: 3000,
//!     threads: 1,
//! };
//! let cmp = run_density_comparison(&exp)?;
//! println!("{}", cmp.to_table());
//! assert!(cmp.ratios().iter().all(|r| *r < 1.0), "T is faster everywhere");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod bounds;
mod chart;
mod histogram;
pub mod experiments;
mod inference;
mod stats;
mod table;
mod transform;
mod usage;

pub use bounds::{diffusion_lower_bound, stationary_time};
pub use chart::{AsciiChart, Series, XScale};
pub use histogram::Histogram;
pub use inference::{
    bootstrap_mean_ci, significantly_different, welch_t, ConfidenceInterval,
};
pub use stats::Summary;
pub use table::{f2, f3, TextTable};
pub use transform::{remap_to_full_turns, reinterpret_turns_naive, suppress_colors};
pub use usage::{profile_usage, UsageProfile};
