//! Statistics support for the soft-timers reproduction.
//!
//! The paper's evaluation reports summary statistics (Table 1), cumulative
//! distribution functions (Figures 4 and 6), windowed medians (Figure 5) and
//! derived overhead percentages (Figure 3). This crate provides the
//! corresponding building blocks:
//!
//! - [`Summary`] — streaming count/mean/variance/min/max (Welford).
//! - [`Histogram`] — fixed-width linear histogram with quantile queries.
//! - [`HdrHistogram`] — log-bucketed histogram with bounded relative error
//!   for wall-clock nanosecond ranges (host-runtime measurements).
//! - [`Samples`] — exact sample sets with order-statistic quantiles.
//! - [`WindowedMedian`] — per-interval medians over a time series.
//! - [`Series`] — simple (x, y) series with CSV export for plotting.
//!
//! The crate is dependency-free so that every other crate in the workspace
//! can use it without pulling anything else in.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(missing_docs)]

pub mod cdf;
pub mod hdr;
pub mod histogram;
pub mod series;
pub mod summary;
pub mod window;

pub use cdf::Samples;
pub use hdr::HdrHistogram;
pub use histogram::{Histogram, QuantileSnapshot};
pub use series::Series;
pub use summary::Summary;
pub use window::WindowedMedian;
