//! Dependency-free SVG visualisation for the PaCT 2013 reproduction:
//! field snapshots (the graphical Fig. 6/7), trajectory plots, and line
//! charts (the graphical Fig. 5).
//!
//! Everything renders to plain `String`s of SVG markup — no drawing
//! libraries required — so the experiment binaries can simply write the
//! result to a `.svg` file.
//!
//! # Examples
//!
//! ```
//! use a2a_sim::{InitialConfig, World, WorldConfig};
//! use a2a_fsm::best_t_agent;
//! use a2a_grid::{Dir, GridKind, Pos};
//! use a2a_viz::{render_field, Theme};
//!
//! # fn main() -> Result<(), a2a_sim::SimError> {
//! let cfg = WorldConfig::paper(GridKind::Triangulate, 16);
//! let init = InitialConfig::new(vec![
//!     (Pos::new(2, 2), Dir::new(0)),
//!     (Pos::new(9, 12), Dir::new(3)),
//! ]);
//! let mut world = World::new(&cfg, best_t_agent(), &init)?;
//! for _ in 0..20 {
//!     world.step();
//! }
//! let svg = render_field(&world, &Theme::default());
//! assert!(svg.starts_with("<svg"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod chart;
mod field;
mod svg;
mod theme;
mod trajectory;

pub use chart::{render_chart, ChartScale, ChartSeries};
pub use field::render_field;
pub use svg::SvgDoc;
pub use theme::Theme;
pub use trajectory::render_trajectory;
