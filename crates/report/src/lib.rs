//! Reporting substrate: ASCII Gantt rendering (figure regeneration), table
//! and CSV writers, summary statistics, scaling fits, timing helpers and a
//! scoped-thread parallel sweep harness for the benchmark binaries.

mod gantt;
mod solution;
mod stats;
mod sweep;
mod table;
mod timing;

pub use gantt::{render_gantt, GanttOptions};
pub use solution::{solution_summary, solution_table};
pub use stats::{fit_loglog, Summary};
pub use sweep::{chunk_plan, parallel_map, parallel_map_budgeted, parallel_map_with, ChunkPlan};
pub use table::Table;
pub use timing::{time, time_best_of};
