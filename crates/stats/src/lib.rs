//! # bcd-stats — statistics for the port-range OS-identification model
//!
//! The paper's §5.3.2 models the *range* of 10 ephemeral source ports drawn
//! uniformly from an OS-specific pool: scaled by pool size, the range of
//! `n` uniform draws follows `Beta(n-1, 2)`. This crate provides:
//!
//! * [`beta`] — Beta(α, β) pdf / cdf / quantiles (Lanczos log-gamma +
//!   continued-fraction incomplete beta),
//! * [`range`] — the *exact discrete* distribution of the sample range of
//!   `n` draws from a pool of `s` ports, used both to cross-check the Beta
//!   approximation and to compute the classification cutoffs of Table 4,
//! * [`cutoff`] — minimum-misclassification cutoffs between two pools'
//!   range distributions (the paper's "0.05% of FreeBSD and 3.5% of Linux
//!   misclassified" optimization),
//! * [`occupancy`] — the probability of observing at most `k` distinct
//!   values in `n` draws from a pool of size `s` (the §5.2.3 "0.066%, or 1
//!   in 1,500" computation),
//! * [`hist`] — plain and stacked histograms used to render Figures 2/3.

pub mod beta;
pub mod cutoff;
pub mod gamma;
pub mod hist;
pub mod occupancy;
pub mod range;

pub use beta::Beta;
pub use cutoff::optimal_cutoff;
pub use hist::{Histogram, StackedHistogram};
pub use range::RangeDistribution;
