//! Observability primitives for the PIF reproduction: metrics, logging,
//! exposition and the workspace's JSON module — with zero dependencies.
//!
//! Four pieces, all hand-rolled so nothing new has to build offline:
//!
//! * [`metrics`] — an atomic metric registry. [`Counter`], [`Gauge`],
//!   and [`Histogram`] are cloneable handles over shared atomics;
//!   recording a sample is one or two relaxed atomic ops with no locks
//!   and no allocation. Histograms use fixed power-of-two (log2)
//!   buckets, preallocated at registration, mirroring
//!   `pif_sim::stats::Log2Histogram` bucketing so engine-side and
//!   service-side distributions line up.
//! * [`expose`] — renders a [`Registry`] snapshot as Prometheus text
//!   exposition, and validates exposition text (used by `piflab
//!   metrics` on every scrape of the daemon).
//! * [`log`] — a leveled structured logger writing `key=value` lines to
//!   stderr, filtered by the `PIF_LOG` environment variable
//!   (`PIF_LOG=debug` or `PIF_LOG=warn,pifd=trace`). Disabled targets
//!   cost one relaxed atomic load and a short scan.
//! * [`json`] — the JSON value, its depth-limited parser and the
//!   [`escape`](json::escape)/[`fmt_f64`](json::fmt_f64) emitter helpers.
//!   It lives here, at the bottom of the dependency graph, so every
//!   crate above it shares one implementation; `pif-lab` re-exports it
//!   as `pif_lab::json`.
//!
//! Nothing in this crate touches simulated state: metrics and logs are
//! about the *host* (wall-clock latencies, queue depths, cache traffic),
//! and must never leak into a `SweepReport` or any other byte-identical
//! artifact. Callers that honor that contract (the engine's `Probe`
//! layer, `pif_lab::service`) keep every golden stable with
//! observability enabled.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expose;
pub mod json;
pub mod log;
pub mod metrics;

pub use expose::{render_prometheus, validate_prometheus};
pub use log::Level;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, MetricSnapshot, MetricValue,
    Registry, HIST_BUCKETS,
};
