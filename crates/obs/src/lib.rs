//! # mlq-obs — unified observability for the MLQ workspace
//!
//! A zero-dependency metrics registry plus lightweight span tracing,
//! shared by every layer of the serving stack. The paper's case for the
//! memory-limited quadtree is that its maintenance cost is small enough
//! to live inside an optimizer (He/Lee/Snapp §6.3); a self-tuning system
//! only keeps that promise if it can *see* its own predict latency,
//! compression stalls, and feedback lag under drift. This crate is that
//! eyesight:
//!
//! * **[`Registry`]** — named [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   log-scale [`Histogram`]s. Handles are `Arc`-cheap and recording is a
//!   couple of relaxed atomic ops: no locks, no allocation, hot-path
//!   safe. One [`Registry::snapshot`] serves tests, the bench harness,
//!   and counter reports alike.
//! * **[`RegistrySnapshot`]** — immutable point-in-time view with
//!   order-independent [`merge`](RegistrySnapshot::merge), a
//!   Prometheus-style [text exposition](RegistrySnapshot::to_prometheus_text),
//!   and a round-tripping [parser](RegistrySnapshot::parse_prometheus_text).
//! * **[`TraceRing`]** — span tracing into a bounded ring buffer that
//!   consumers drain.
//!
//! Metric names follow `mlq_<crate>_<metric>`, with `{key="value"}`
//! label blocks built by [`labeled`] (see DESIGN.md §9 for the naming
//! registry and how to add a metric).
//!
//! ```
//! use mlq_obs::{labeled, Registry};
//!
//! let registry = Registry::new();
//! let applied = registry.counter(&labeled("mlq_serve_applied", &[("udf", "WIN")]));
//! let latency = registry.histogram("mlq_serve_predict_nanos");
//!
//! applied.inc();
//! latency.record(750);
//!
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("mlq_serve_applied{udf=\"WIN\"}"), Some(1));
//! assert_eq!(snap.histogram("mlq_serve_predict_nanos").unwrap().quantile(0.5), Some(1023));
//! println!("{}", snap.to_prometheus_text());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

mod metrics;
mod registry;
mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use registry::{labeled, MetricValue, ParseError, Registry, RegistrySnapshot};
pub use trace::{Span, SpanEvent, TraceRing};
