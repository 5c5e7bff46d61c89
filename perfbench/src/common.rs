//! Measurement machinery shared by every workload: a seeded point
//! generator, bounded latency samples, span recording through an
//! `mlq_obs::TraceRing`, sub-window rates, and the outcome each workload
//! fills in.

use mlq_core::Space;
use mlq_experiments::SYNTHETIC_BASE_COST;
use mlq_metrics::OnlineNae;
use mlq_obs::{
    labeled, Counter, HistogramSnapshot, Registry, RegistrySnapshot, SpanEvent, TraceRing,
};
use mlq_optimizer::Estimator;
use mlq_serve::{
    ConcurrentEstimator, ConcurrentEstimatorBuilder, EstimatorHandle, QueueCounters, ServeConfig,
};
use mlq_synth::{CostSurface, SyntheticUdf};
use mlq_udfs::ExecutionCost;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds between two instants.
pub fn nanos(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// splitmix64: the benchmark's only randomness, so one seed fixes every
/// input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform point inside `space`.
    pub fn point(&mut self, space: &Space) -> Vec<f64> {
        (0..space.dims())
            .map(|i| space.low(i) + self.unit() * (space.high(i) - space.low(i)))
            .collect()
    }
}

/// Seed of the workloads' data: the UDF databases, the synthetic cost
/// surfaces and the NAE probe points. `--seed` drives the query and
/// feedback streams, so runs with different seeds measure one system on
/// different traffic.
pub const DATA_SEED: u64 = 2004;

/// The service's CPU-unit cost of one page read, for combined costs.
pub fn io_weight() -> f64 {
    ServeConfig::default().io_weight
}

/// Synthetic UDFs over one space, one `SyntheticUdf` surface per shard,
/// lifted by the experiments' `SYNTHETIC_BASE_COST` floor. A shard's CPU
/// cost is its surface; its IO cost is an eighth of that, as in the
/// repository's fleet harness.
pub struct Surfaces {
    pub space: Space,
    pub names: Vec<String>,
    surfaces: Vec<SyntheticUdf>,
}

impl Surfaces {
    pub fn new(prefix: &str, shards: usize, dims: usize, peaks: usize) -> Self {
        let space = Space::cube(dims, 0.0, 1000.0).expect("a valid cube");
        Surfaces {
            names: (0..shards).map(|i| format!("{prefix}{i:02}")).collect(),
            surfaces: (0..shards)
                .map(|i| {
                    SyntheticUdf::builder(space.clone())
                        .peaks(peaks)
                        .base_cost(SYNTHETIC_BASE_COST)
                        .seed(DATA_SEED.wrapping_mul(1000).wrapping_add(i as u64))
                        .build()
                })
                .collect(),
            space,
        }
    }

    /// Executes shard `shard`'s UDF at `point`.
    pub fn execute(&self, shard: usize, point: &[f64]) -> ExecutionCost {
        let cpu = self.surfaces[shard].cost(point);
        ExecutionCost { cpu, io: cpu / 8.0, results: 0 }
    }

    /// Registers every shard with `builder`.
    pub fn register(&self, mut builder: ConcurrentEstimatorBuilder) -> ConcurrentEstimatorBuilder {
        for name in &self.names {
            builder = builder.register(name, &self.space).expect("distinct shard names");
        }
        builder
    }

    /// NAE (Eq. 10) of the published snapshots on a fixed probe set of
    /// `per_shard` points per shard, through the service's `predict`
    /// (which wakes hibernated shards).
    pub fn probe_nae(
        &self,
        svc: &ConcurrentEstimator,
        per_shard: usize,
        answers: &mut Answers,
    ) -> Option<f64> {
        let mut rng = Rng::new(DATA_SEED ^ 0x9E0B_E5E7);
        let mut nae = OnlineNae::new();
        for (shard, name) in self.names.iter().enumerate() {
            for _ in 0..per_shard {
                let point = rng.point(&self.space);
                let cost = self.execute(shard, &point);
                if let Some(predicted) = answers.note(&svc.predict(name, &point)) {
                    nae.record(predicted, cost.cpu + io_weight() * cost.io);
                }
            }
        }
        nae.value()
    }
}

/// One timed single-point predict through `handle`, snapshot fetch
/// included; returns the answer when it is `Some` and finite. Traced,
/// the fetch and the descent are separate spans.
pub fn timed_predict(
    handle: &EstimatorHandle,
    point: &[f64],
    spans: &mut Spans,
    answers: &mut Answers,
) -> Option<f64> {
    let answer = if spans.traced() {
        let t0 = Instant::now();
        let snapshot = handle.snapshot();
        let t1 = Instant::now();
        let answer = snapshot.predict(point);
        let t2 = Instant::now();
        spans.record(Stage::Fetch, t0, t1);
        spans.record(Stage::Descent, t1, t2);
        answer
    } else {
        let t0 = Instant::now();
        let answer = handle.predict(point);
        spans.record(Stage::Predict, t0, Instant::now());
        answer
    };
    answers.note(&answer)
}

/// One timed `predict_batch_into` through `handle`.
pub fn timed_batch(
    handle: &EstimatorHandle,
    points: &[Vec<f64>],
    out: &mut Vec<Option<f64>>,
    spans: &mut Spans,
    answers: &mut Answers,
) {
    let t0 = Instant::now();
    let ok = handle.predict_batch_into(points, out).is_ok();
    spans.record(Stage::Batch, t0, Instant::now());
    answers.note_batch(ok, out, points.len());
}

/// Replaces (or adds) one named value.
pub fn set(list: &mut Vec<(&'static str, f64)>, name: &'static str, value: f64) {
    match list.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => slot.1 = value,
        None => list.push((name, value)),
    }
}

/// A registry histogram's growth between two snapshots.
pub fn histogram_delta(
    after: &RegistrySnapshot,
    before: &RegistrySnapshot,
    name: &str,
) -> HistogramSnapshot {
    let mut out = after.histogram(name).cloned().unwrap_or_default();
    if let Some(b) = before.histogram(name) {
        for (o, b) in out.buckets.iter_mut().zip(b.buckets.iter()) {
            *o -= b;
        }
        out.sum -= b.sum;
    }
    out
}

/// Most samples a series keeps; beyond it the series keeps every other
/// sample and doubles its stride, so memory stays bounded while counts
/// and totals stay exact.
const SAMPLE_CAP: usize = 1 << 17;

/// One latency series: exact count and total, plus a deterministic
/// systematic sample for quantiles.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    kept: Vec<u64>,
    stride: u64,
    count: u64,
    total: u64,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        let stride = self.stride.max(1);
        if self.count.is_multiple_of(stride) {
            self.kept.push(ns);
            if self.kept.len() >= SAMPLE_CAP {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride = stride * 2;
            }
        }
        self.count += 1;
        self.total = self.total.saturating_add(ns);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn total_ns(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds; 0 when empty. Clock readings come
    /// in ticks (10 ns on some hosts), so many calls tie on one reading.
    /// The quantile is interpolated as for grouped data: a reading covers
    /// the interval between the midpoints to its distinct neighbours, and
    /// its tied calls spread evenly across it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.kept.is_empty() {
            return 0.0;
        }
        let mut v = self.kept.clone();
        v.sort_unstable();
        let target = q.clamp(0.0, 1.0) * v.len() as f64;
        let value = v[(target.floor() as usize).min(v.len() - 1)];
        let below = v.partition_point(|&x| x < value);
        let above = v.partition_point(|&x| x <= value);
        let value = value as f64;
        let prev = if below > 0 { v[below - 1] as f64 } else { value };
        let next = if above < v.len() { v[above] as f64 } else { value };
        // With no neighbour on one side, mirror the other side's gap.
        let lo = if below > 0 { (prev + value) / 2.0 } else { value - (next - value) / 2.0 };
        let hi = if above < v.len() { (value + next) / 2.0 } else { value + (value - prev) / 2.0 };
        let ties = (above - below) as f64;
        lo + (hi - lo) * ((target - below as f64) / ties).clamp(0.0, 1.0)
    }
}

/// The layer boundaries the benchmark times. Each is one call into a
/// public function of a workspace crate, made from the benchmark's code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// `FeedbackExecutor::run` over one chunk of rows.
    Run,
    /// `Udf::execute` (or a synthetic cost surface standing in for one).
    Execute,
    /// A single predict call, snapshot fetch included (untraced windows).
    Predict,
    /// `EstimatorHandle::snapshot` alone (traced windows).
    Fetch,
    /// `ShardSnapshot::predict` on a fetched snapshot (traced windows).
    Descent,
    /// One 256-point `predict_batch_into`.
    Batch,
    /// `Estimator::combine`.
    Combine,
    /// Offering feedback (`observe`), block waits included.
    Observe,
    /// `ConcurrentEstimator::step`.
    Step,
    /// A predict that woke a hibernated shard.
    Wake,
}

pub const STAGES: [Stage; 10] = [
    Stage::Run,
    Stage::Execute,
    Stage::Predict,
    Stage::Fetch,
    Stage::Descent,
    Stage::Batch,
    Stage::Combine,
    Stage::Observe,
    Stage::Step,
    Stage::Wake,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Run => "optimizer.run",
            Stage::Execute => "udfs.execute",
            Stage::Predict => "serve.predict",
            Stage::Fetch => "serve.snapshot",
            Stage::Descent => "core.descent",
            Stage::Batch => "core.descent.batch",
            Stage::Combine => "serve.combine",
            Stage::Observe => "serve.queue.observe",
            Stage::Step => "serve.maintainer.step",
            Stage::Wake => "fleet.wake_predict",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    fn from_name(name: &str) -> Option<Stage> {
        STAGES.into_iter().find(|s| s.name() == name)
    }

    /// Prediction cost in the served Fig. 10 sense.
    pub fn is_read(self) -> bool {
        matches!(self, Stage::Predict | Stage::Fetch | Stage::Descent | Stage::Batch | Stage::Wake)
    }

    /// Model-update cost in the served Fig. 10 sense.
    pub fn is_write(self) -> bool {
        matches!(self, Stage::Observe | Stage::Step)
    }
}

/// Records every timed call. Untraced, durations go straight into the
/// per-stage series; traced, each call becomes a span in an
/// `mlq_obs::TraceRing`, and the series are rebuilt from the drained
/// spans. Per-stage totals are kept in both modes.
pub struct Spans {
    ring: Option<Arc<TraceRing>>,
    epoch: Instant,
    series: Vec<Samples>,
    totals: [u64; STAGES.len()],
}

/// Spans buffered before the ring overwrites; workloads drain once per
/// chunk, well below this.
const RING_CAPACITY: usize = 1 << 16;

impl Spans {
    pub fn new(traced: bool) -> Self {
        Spans {
            ring: traced.then(|| Arc::new(TraceRing::new(RING_CAPACITY))),
            epoch: Instant::now(),
            series: vec![Samples::default(); STAGES.len()],
            totals: [0; STAGES.len()],
        }
    }

    pub fn traced(&self) -> bool {
        self.ring.is_some()
    }

    /// Records one call of `stage` that ran from `start` to `end`;
    /// returns its duration.
    pub fn record(&mut self, stage: Stage, start: Instant, end: Instant) -> u64 {
        let ns = nanos(start, end);
        self.totals[stage.index()] += ns;
        match &self.ring {
            Some(ring) => ring.record(SpanEvent {
                name: stage.name(),
                start_ns: nanos(self.epoch, start),
                duration_ns: ns,
            }),
            None => self.series[stage.index()].push(ns),
        }
        ns
    }

    /// Moves buffered spans into the per-stage series.
    pub fn drain(&mut self) {
        if let Some(ring) = &self.ring {
            for event in ring.drain() {
                if let Some(stage) = Stage::from_name(event.name) {
                    self.series[stage.index()].push(event.duration_ns);
                }
            }
        }
    }

    /// Spans the ring overwrote before a drain (must stay 0).
    pub fn dropped(&self) -> u64 {
        self.ring.as_ref().map_or(0, |r| r.dropped())
    }

    pub fn series(&self, stage: Stage) -> &Samples {
        &self.series[stage.index()]
    }

    pub fn total(&self, stage: Stage) -> u64 {
        self.totals[stage.index()]
    }

    /// Summed read, write and UDF time so far.
    pub fn fig10(&self) -> (u64, u64, u64) {
        let sum = |f: fn(Stage) -> bool| {
            STAGES.into_iter().filter(|s| f(*s)).map(|s| self.total(s)).sum::<u64>()
        };
        (sum(Stage::is_read), sum(Stage::is_write), self.total(Stage::Execute))
    }
}

/// One slice of a measurement window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Part {
    /// Measured time.
    pub ns: u64,
    /// The workload's unit of work (rows, applied feedbacks, predictions
    /// or events).
    pub units: u64,
    /// Feedbacks applied.
    pub applied: u64,
    /// Time in predict calls.
    pub read_ns: u64,
    /// Time in observe and step calls.
    pub write_ns: u64,
    /// Time in UDF executions.
    pub udf_ns: u64,
}

impl Part {
    fn add(&mut self, o: &Part) {
        self.ns += o.ns;
        self.units += o.units;
        self.applied += o.applied;
        self.read_ns += o.read_ns;
        self.write_ns += o.write_ns;
        self.udf_ns += o.udf_ns;
    }
}

/// Slices of this many per measurement window; rates are the median
/// over slices, so one stalled slice does not move them.
pub const PARTS: usize = 20;

/// A measurement window cut into [`PARTS`] slices of equal measured time.
#[derive(Debug, Clone)]
pub struct Window {
    target_ns: u64,
    part_ns: u64,
    cur: Part,
    parts: Vec<Part>,
    total: Part,
}

impl Window {
    pub fn new(seconds: f64) -> Self {
        let target_ns = (seconds * 1e9) as u64;
        Window {
            target_ns,
            part_ns: (target_ns / PARTS as u64).max(1),
            cur: Part::default(),
            parts: Vec::new(),
            total: Part::default(),
        }
    }

    pub fn add(&mut self, p: Part) {
        self.cur.add(&p);
        self.total.add(&p);
        if self.cur.ns >= self.part_ns {
            self.parts.push(std::mem::take(&mut self.cur));
        }
    }

    pub fn done(&self) -> bool {
        self.total.ns >= self.target_ns
    }

    /// Slices completed so far.
    pub fn closed(&self) -> usize {
        self.parts.len()
    }

    /// Slices completed once `p` is added.
    pub fn closed_after(&self, p: &Part) -> usize {
        self.parts.len() + usize::from(self.cur.ns + p.ns >= self.part_ns)
    }

    pub fn total(&self) -> Part {
        self.total
    }

    /// Median of `f` over the slices (a trailing slice shorter than half
    /// a slice is left out).
    pub fn median(&self, f: impl Fn(&Part) -> f64) -> f64 {
        let mut parts = self.parts.clone();
        if self.cur.ns * 2 >= self.part_ns || parts.is_empty() {
            parts.push(self.cur);
        }
        let values: Vec<f64> = parts.iter().map(f).filter(|v| v.is_finite()).collect();
        median(&values)
    }

    pub fn rate(&self, units: impl Fn(&Part) -> u64) -> f64 {
        self.median(|p| units(p) as f64 * 1e9 / p.ns.max(1) as f64)
    }
}

/// Builds a workload's state `n` times, dropping each before the next:
/// returns the median set-up time in seconds and the last state.
pub fn timed_setups<T>(n: usize, mut build: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let state = build(i);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(state);
    }
    (median(&times), last.expect("at least one set-up ran"))
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Sum of one `{udf=...}` counter family over the given shards, read
/// through registry handles (lock-free after the first lookup).
pub struct Family(Vec<Counter>);

impl Family {
    pub fn new(registry: &Registry, metric: &str, names: &[String]) -> Self {
        Family(names.iter().map(|n| registry.counter(&labeled(metric, &[("udf", n)]))).collect())
    }

    pub fn get(&self) -> u64 {
        self.0.iter().map(Counter::get).sum()
    }
}

/// Named pass/fail checks on the program's outputs.
#[derive(Debug, Default)]
pub struct Checks(pub Vec<(String, bool, String)>);

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.0.push((name.to_string(), ok, detail));
    }

    /// Every prediction after set-up was `Some` and finite.
    pub fn answered(&mut self, answers: &Answers) {
        self.check(
            "predictions.some_and_finite",
            answers.bad == 0,
            format!("{} of {} predictions failed or were None", answers.bad, answers.made),
        );
    }

    pub fn all_ok(&self) -> bool {
        self.0.iter().all(|(_, ok, _)| *ok)
    }
}

/// Prediction accounting: every prediction after set-up must be `Some`
/// and finite.
#[derive(Debug, Default, Clone, Copy)]
pub struct Answers {
    pub made: u64,
    pub bad: u64,
}

impl Answers {
    pub fn note(&mut self, answer: &Result<Option<f64>, mlq_core::MlqError>) -> Option<f64> {
        self.made += 1;
        match answer {
            Ok(Some(v)) if v.is_finite() => Some(*v),
            _ => {
                self.bad += 1;
                None
            }
        }
    }

    pub fn note_batch(&mut self, ok: bool, out: &[Option<f64>], expected: usize) {
        self.made += expected as u64;
        if !ok || out.len() != expected {
            self.bad += expected as u64;
            return;
        }
        self.bad += out.iter().filter(|v| !v.is_some_and(f64::is_finite)).count() as u64;
    }
}

/// Guard and apply accounting summed over every shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardTotals {
    pub applied: u64,
    pub apply_errors: u64,
    pub cpu_quarantined: u64,
    pub io_quarantined: u64,
    pub regime_resets: u64,
    pub trips: u64,
}

impl ShardTotals {
    pub fn read(svc: &ConcurrentEstimator) -> Self {
        let mut t = ShardTotals::default();
        for name in svc.names() {
            let c = svc.counters(name).expect("registered shard");
            t.applied += c.applied;
            t.apply_errors += c.apply_errors;
            t.cpu_quarantined += c.cpu_guard.quarantined;
            t.io_quarantined += c.io_guard.quarantined;
            t.regime_resets += c.cpu_guard.regime_resets + c.io_guard.regime_resets;
            t.trips += c.cpu_guard.trips + c.io_guard.trips;
        }
        t
    }

    pub fn minus(&self, o: &ShardTotals) -> ShardTotals {
        ShardTotals {
            applied: self.applied - o.applied,
            apply_errors: self.apply_errors - o.apply_errors,
            cpu_quarantined: self.cpu_quarantined - o.cpu_quarantined,
            io_quarantined: self.io_quarantined - o.io_quarantined,
            regime_resets: self.regime_resets - o.regime_resets,
            trips: self.trips - o.trips,
        }
    }
}

/// Lossless-queue accounting after a flush: nothing dropped or sampled,
/// everything offered was enqueued and processed, and what was
/// processed splits into absorbed plus rejected (each rejected feedback
/// was quarantined by one or both components, or failed to apply).
pub fn check_queue(
    checks: &mut Checks,
    svc: &ConcurrentEstimator,
    offered: u64,
    totals: &ShardTotals,
) {
    let q: QueueCounters = svc.queue_counters();
    let processed = svc.metrics().counter("mlq_serve_processed").unwrap_or(0);
    let lossless = q.dropped_oldest == 0 && q.sampled_out == 0;
    checks.check(
        "queue.lossless",
        lossless && q.enqueued == offered && processed == offered,
        format!(
            "offered {offered}, enqueued {}, processed {processed}, dropped {}, sampled out {}",
            q.enqueued, q.dropped_oldest, q.sampled_out
        ),
    );
    let settled = totals.applied + totals.apply_errors;
    let low = settled + totals.cpu_quarantined.max(totals.io_quarantined);
    let high = settled + totals.cpu_quarantined + totals.io_quarantined;
    checks.check(
        "queue.offered_is_absorbed_plus_rejected",
        low <= processed && processed <= high,
        format!(
            "applied {} + errors {} + quarantined (cpu {}, io {}) vs processed {processed}",
            totals.applied, totals.apply_errors, totals.cpu_quarantined, totals.io_quarantined
        ),
    );
}

/// Packed bytes of every published snapshot.
pub fn model_bytes(svc: &ConcurrentEstimator) -> u64 {
    svc.names()
        .into_iter()
        .map(|n| {
            let snap = svc.snapshot(n).expect("registered shard");
            let (cpu, io) = snap.components();
            (cpu.tree().bytes() + io.tree().bytes()) as u64
        })
        .sum()
}

/// Components (CPU and IO model of every shard) that have compressed at
/// least once, i.e. reached their byte budget.
pub fn models_at_budget(metrics: &RegistrySnapshot, names: &[String]) -> usize {
    let mut at = 0;
    for name in names {
        for component in ["cpu", "io"] {
            let c = metrics
                .counter_labeled(
                    "mlq_core_compressions",
                    &[("udf", name), ("component", component)],
                )
                .unwrap_or(0);
            if c > 0 {
                at += 1;
            }
        }
    }
    at
}

/// Counter deltas between two registry snapshots, summed over labels.
pub fn delta(after: &RegistrySnapshot, before: &RegistrySnapshot, family: &str) -> u64 {
    after.sum_counters(family).saturating_sub(before.sum_counters(family))
}

/// One row of the per-layer table.
#[derive(Debug, Clone)]
pub struct Row {
    pub layer: String,
    pub count: u64,
    pub total_ns: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
}

impl Row {
    pub fn from_samples(layer: &str, s: &Samples) -> Row {
        Row {
            layer: layer.to_string(),
            count: s.count(),
            total_ns: s.total_ns(),
            p50_ns: s.quantile(0.5),
            p99_ns: s.quantile(0.99),
        }
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    /// End-to-end metrics (name, value), from the untraced window.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics (name, value), from the traced window.
    pub per_layer: Vec<(&'static str, f64)>,
    /// The per-layer table of the traced window, and its measured time.
    pub table: Vec<Row>,
    pub table_ns: u64,
    /// Exact counts that must repeat for a repeated seed.
    pub fingerprint: Vec<(&'static str, String)>,
    /// Workload-specific figures printed with the result.
    pub notes: Vec<String>,
}

/// Per-layer metrics every workload reports, zero where the workload
/// leaves a layer idle.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("optimizer.self_pct", "%"),
    ("optimizer.evaluations_per_row", "count"),
    ("optimizer.plan_cost_per_row", "cost"),
    ("udfs.execute_count", "count"),
    ("udfs.execute_p50_us", "us"),
    ("udfs.execute_p99_us", "us"),
    ("udfs.execute_pct", "%"),
    ("udfs.io_misses", "count"),
    ("serve.snapshot.fetch_p50_ns", "ns"),
    ("serve.snapshot.fetch_p99_ns", "ns"),
    ("core.descent.predict_p50_ns", "ns"),
    ("core.descent.predict_p99_ns", "ns"),
    ("core.descent.batch_p50_us", "us"),
    ("core.descent.batch_p99_us", "us"),
    ("core.descent.pct", "%"),
    ("serve.queue.observe_p50_ns", "ns"),
    ("serve.queue.observe_p99_ns", "ns"),
    ("serve.queue.block_waits", "count"),
    ("serve.queue.max_depth", "count"),
    ("serve.maintainer.steps", "count"),
    ("serve.maintainer.step_p50_us", "us"),
    ("serve.maintainer.step_p99_us", "us"),
    ("serve.maintainer.pct", "%"),
    ("serve.maintainer.publishes", "count"),
    ("core.guard.cpu_quarantines", "count"),
    ("core.guard.io_quarantines", "count"),
    ("core.guard.accept_ratio", "ratio"),
    ("core.guard.regime_resets", "count"),
    ("core.guard.breaker_trips", "count"),
    ("core.insert.insertions", "count"),
    ("core.insert.ns_per_insert", "ns"),
    ("core.insert.lazy_skips", "count"),
    ("core.compress.compressions_per_insert", "ratio"),
    ("core.compress.sseg_evictions_per_compression", "ratio"),
    ("core.compress.ns_per_compression", "ns"),
    ("core.refreeze.freezes", "count"),
    ("core.refreeze.ns_per_freeze", "ns"),
    ("serve.wal.commits", "count"),
    ("serve.wal.records", "count"),
    ("fleet.arbitrations", "count"),
    ("fleet.evicted_leaves", "count"),
    ("fleet.evicted_bytes", "bytes"),
    ("fleet.hibernations", "count"),
    ("fleet.restores", "count"),
    ("fleet.budget_overruns", "count"),
    ("fleet.wake_predict_p50_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_dropped", "count"),
];

/// What one measurement window saw.
pub struct Measured {
    pub window: Window,
    pub spans: Spans,
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
    /// Guard and apply accounting over the window.
    pub guard: ShardTotals,
    /// Feedback offered in the window.
    pub offered: u64,
    pub answers: Answers,
}

/// What PC and MUC are a share of.
#[derive(Debug, Clone, Copy)]
pub enum Fig10 {
    /// Time in UDF executions: the paper's Fig. 10.
    UdfTime,
    /// The loop's measured time.
    LoopTime,
}

impl Measured {
    /// The end-to-end metrics every workload measures alike.
    pub fn e2e(&self, fig10: Fig10) -> Vec<(&'static str, f64)> {
        let w = &self.window;
        let share = |part: u64, p: &Part| {
            let base = match fig10 {
                Fig10::UdfTime => p.udf_ns,
                Fig10::LoopTime => p.ns,
            };
            100.0 * part as f64 / base.max(1) as f64
        };
        let rejected = self.offered - self.guard.applied + self.answers.bad;
        vec![
            ("throughput_per_s", w.rate(|p| p.units)),
            ("applied_per_s", w.rate(|p| p.applied)),
            ("pc_pct", w.median(|p| share(p.read_ns, p))),
            ("muc_pct", w.median(|p| share(p.write_ns, p))),
            ("predict_p50_ns", self.spans.series(Stage::Predict).quantile(0.5)),
            ("batch_p50_us", self.spans.series(Stage::Batch).quantile(0.5) / 1e3),
            ("rejected_share", rejected as f64 / (self.offered + self.answers.made).max(1) as f64),
        ]
    }

    /// The per-layer metrics every workload measures alike, from this
    /// (traced) window; `untraced_throughput` gives the tracing overhead.
    /// Workload-specific entries are added by the workload.
    pub fn layers(&self, untraced_throughput: f64) -> Vec<(&'static str, f64)> {
        let window_ns = self.window.total().ns;
        let pct = |ns: u64| 100.0 * ns as f64 / window_ns.max(1) as f64;
        let execute = self.spans.series(Stage::Execute);
        let traced_throughput = self.window.rate(|p| p.units);
        let mut layers = registry_layers(self, window_ns);
        layers.extend([
            ("udfs.execute_count", execute.count() as f64),
            ("udfs.execute_p50_us", execute.quantile(0.5) / 1e3),
            ("udfs.execute_p99_us", execute.quantile(0.99) / 1e3),
            ("udfs.execute_pct", pct(self.spans.total(Stage::Execute))),
            (
                "trace.overhead_pct",
                100.0 * (untraced_throughput - traced_throughput) / untraced_throughput.max(1e-9),
            ),
        ]);
        layers
    }

    /// The per-layer table rows of this window.
    pub fn rows(&self) -> Vec<Row> {
        STAGES
            .into_iter()
            .filter(|s| self.spans.series(*s).count() > 0)
            .map(|s| Row::from_samples(s.name(), self.spans.series(s)))
            .collect()
    }
}

/// Counts the operations attempted and failed in `windows`, plus the
/// workload's failed `observe` calls.
pub fn tally(o: &mut Outcome, windows: [Option<&Measured>; 2], observe_errors: u64) {
    let windows = windows.into_iter().flatten();
    o.attempted = windows.clone().map(|m| m.offered + m.answers.made).sum();
    o.failed = windows.map(|m| m.answers.bad + m.guard.apply_errors).sum::<u64>() + observe_errors;
}

/// Per-layer values read from the registry and the spans of one traced
/// window.
fn registry_layers(m: &Measured, window_ns: u64) -> Vec<(&'static str, f64)> {
    let (spans, before, after, guard, offered) =
        (&m.spans, &m.before, &m.after, &m.guard, m.offered);
    let d = |family: &str| delta(after, before, family);
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let pct = |ns: u64| 100.0 * ns as f64 / window_ns.max(1) as f64;
    let us = |ns: f64| ns / 1e3;
    let insertions = d("mlq_core_insertions");
    let compressions = d("mlq_core_compressions");
    let freezes = d("mlq_core_freezes");
    let fetch = spans.series(Stage::Fetch);
    let descent = spans.series(Stage::Descent);
    let batch = spans.series(Stage::Batch);
    let observe = spans.series(Stage::Observe);
    let step = spans.series(Stage::Step);
    let read_ns = spans.total(Stage::Descent) + spans.total(Stage::Batch);
    vec![
        ("serve.snapshot.fetch_p50_ns", fetch.quantile(0.5)),
        ("serve.snapshot.fetch_p99_ns", fetch.quantile(0.99)),
        ("core.descent.predict_p50_ns", descent.quantile(0.5)),
        ("core.descent.predict_p99_ns", descent.quantile(0.99)),
        ("core.descent.batch_p50_us", us(batch.quantile(0.5))),
        ("core.descent.batch_p99_us", us(batch.quantile(0.99))),
        ("core.descent.pct", pct(read_ns)),
        ("serve.queue.observe_p50_ns", observe.quantile(0.5)),
        ("serve.queue.observe_p99_ns", observe.quantile(0.99)),
        ("serve.queue.block_waits", d("mlq_serve_queue_block_waits") as f64),
        ("serve.queue.max_depth", after.gauge("mlq_serve_queue_max_depth").unwrap_or(0.0)),
        ("serve.maintainer.steps", step.count() as f64),
        ("serve.maintainer.step_p50_us", us(step.quantile(0.5))),
        ("serve.maintainer.step_p99_us", us(step.quantile(0.99))),
        ("serve.maintainer.pct", pct(spans.total(Stage::Step))),
        ("serve.maintainer.publishes", d("mlq_serve_publishes") as f64),
        ("core.guard.cpu_quarantines", guard.cpu_quarantined as f64),
        ("core.guard.io_quarantines", guard.io_quarantined as f64),
        ("core.guard.accept_ratio", per(guard.applied, offered)),
        ("core.guard.regime_resets", guard.regime_resets as f64),
        ("core.guard.breaker_trips", guard.trips as f64),
        ("core.insert.insertions", insertions as f64),
        ("core.insert.ns_per_insert", per(d("mlq_core_insert_nanos"), insertions)),
        ("core.insert.lazy_skips", d("mlq_core_lazy_skips") as f64),
        ("core.compress.compressions_per_insert", per(compressions, insertions)),
        (
            "core.compress.sseg_evictions_per_compression",
            per(d("mlq_core_sseg_evictions"), compressions),
        ),
        ("core.compress.ns_per_compression", per(d("mlq_core_compress_nanos"), compressions)),
        ("core.refreeze.freezes", freezes as f64),
        ("core.refreeze.ns_per_freeze", per(d("mlq_core_freeze_nanos"), freezes)),
        ("serve.wal.commits", d("mlq_serve_wal_commits") as f64),
        ("serve.wal.records", d("mlq_serve_wal_appended_records") as f64),
        ("fleet.arbitrations", d("mlq_catalog_arbitrations") as f64),
        ("fleet.evicted_leaves", d("mlq_catalog_evicted_leaves") as f64),
        ("fleet.evicted_bytes", d("mlq_catalog_evicted_bytes") as f64),
        ("fleet.hibernations", d("mlq_catalog_hibernations") as f64),
        ("fleet.restores", d("mlq_catalog_restores") as f64),
        ("fleet.budget_overruns", d("mlq_catalog_budget_overruns") as f64),
        ("trace.spans_dropped", spans.dropped() as f64),
    ]
}
