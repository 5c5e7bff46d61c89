//! `udf-loop`: the paper's Fig. 1 loop as served.
//!
//! A `FeedbackExecutor` under `OrderingPolicy::EstimatedRank` evaluates
//! the six real UDFs of `real_udf_suite` as a conjunction of row
//! predicates, asking `EstimatorHandle`s into one Manual-mode
//! `ConcurrentEstimator` (journal on) for costs and feeding every
//! observed cost back. After each chunk of rows the same thread calls
//! `step()`, which journals (one group commit per shard), applies and
//! republishes the chunk's feedback. This is the served Fig. 10: PC and
//! MUC as a share of UDF execution time.

use crate::common::{
    check_queue, model_bytes, models_at_budget, nanos, tally, timed_predict, Answers, Family,
    Fig10, Measured, Outcome, Part, Rng, ShardTotals, Spans, Stage, Window, DATA_SEED,
};
use crate::Plan;
use mlq_core::{MlqError, Space};
use mlq_experiments::suite::real_udf_suite;
use mlq_metrics::OnlineNae;
use mlq_obs::RegistrySnapshot;
use mlq_optimizer::{Estimator, FeedbackExecutor, OrderingPolicy, RowPredicate};
use mlq_serve::{
    ConcurrentEstimator, DurabilityConfig, EstimatorHandle, MaintainerMode, ServeConfig,
};
use mlq_udfs::{ExecutionCost, Udf};
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Rows per `FeedbackExecutor::run` call; at most six feedbacks a row
/// keeps a chunk's feedback (at most 3,072) inside the 4,096-slot queue.
const CHUNK_ROWS: usize = 512;
/// Points in the batch probe after each chunk.
const BATCH: usize = 256;
/// Per-UDF pass thresholds, as quantiles of `ExecutionCost::results`:
/// different selectivities give the rank ordering something to choose.
const PASS_QUANTILES: [f64; 6] = [0.7, 0.5, 0.8, 0.6, 0.9, 0.4];
/// Warm-up ends once this many chunks in a row brought no further model
/// to its budget: SIMPLE's one-dimensional trees saturate below it.
const WARMUP_PLATEAU: usize = 16;

/// State the timed wrappers share on the one loop thread.
struct Shared {
    spans: Spans,
    answers: Answers,
    nae: OnlineNae,
    offered: u64,
    observe_errors: u64,
    io_misses: f64,
}

impl Shared {
    fn new() -> Rc<RefCell<Shared>> {
        Rc::new(RefCell::new(Shared {
            spans: Spans::new(false),
            answers: Answers::default(),
            nae: OnlineNae::new(),
            offered: 0,
            observe_errors: 0,
            io_misses: 0.0,
        }))
    }
}

type SharedRef = Rc<RefCell<Shared>>;

/// A UDF as a row predicate: the row passes when the UDF's result count
/// is at most the UDF's threshold.
struct UdfPredicate {
    udf: Rc<dyn Udf>,
    threshold: u64,
    shared: SharedRef,
}

impl RowPredicate for UdfPredicate {
    fn name(&self) -> &str {
        self.udf.name()
    }

    fn space(&self) -> &Space {
        self.udf.space()
    }

    fn evaluate(&self, point: &[f64]) -> (bool, ExecutionCost) {
        let t0 = Instant::now();
        let cost = self.udf.execute(point).expect("uniform points lie in the UDF's space");
        let t1 = Instant::now();
        let mut shared = self.shared.borrow_mut();
        shared.spans.record(Stage::Execute, t0, t1);
        shared.io_misses += cost.io;
        (cost.results <= self.threshold, cost)
    }
}

fn predicates(
    udfs: &[Rc<dyn Udf>],
    thresholds: &[u64],
    shared: &SharedRef,
) -> Vec<Box<dyn RowPredicate>> {
    udfs.iter()
        .zip(thresholds)
        .map(|(udf, &threshold)| {
            Box::new(UdfPredicate { udf: Rc::clone(udf), threshold, shared: Rc::clone(shared) })
                as Box<dyn RowPredicate>
        })
        .collect()
}

/// An `EstimatorHandle` whose calls are timed (and traced), whose
/// predictions are checked, and whose feedback is scored against the
/// prediction made for the same point (online NAE, Eq. 10).
struct TimedHandle {
    inner: EstimatorHandle,
    shared: SharedRef,
    last: Cell<Option<f64>>,
}

impl Estimator for TimedHandle {
    /// A failed or `None` prediction is counted and answers `None`.
    fn predict(&self, point: &[f64]) -> Result<Option<f64>, MlqError> {
        let Shared { spans, answers, .. } = &mut *self.shared.borrow_mut();
        let answer = timed_predict(&self.inner, point, spans, answers);
        self.last.set(answer);
        Ok(answer)
    }

    fn observe(&mut self, point: &[f64], cost: ExecutionCost) -> Result<(), MlqError> {
        let t0 = Instant::now();
        let outcome = self.inner.offer(point, cost).map(|_| ());
        let t1 = Instant::now();
        let mut shared = self.shared.borrow_mut();
        shared.spans.record(Stage::Observe, t0, t1);
        shared.offered += 1;
        if outcome.is_err() {
            shared.observe_errors += 1;
        }
        if let Some(predicted) = self.last.take() {
            shared.nae.record(predicted, self.inner.combine(cost));
        }
        outcome
    }

    fn combine(&self, cost: ExecutionCost) -> f64 {
        let t0 = Instant::now();
        let value = self.inner.combine(cost);
        self.shared.borrow_mut().spans.record(Stage::Combine, t0, Instant::now());
        value
    }

    fn memory_used(&self) -> usize {
        self.inner.memory_used()
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The model-free estimator of the `OrderingPolicy::Fixed` reference run.
struct Unmodeled;

impl Estimator for Unmodeled {
    fn predict(&self, _: &[f64]) -> Result<Option<f64>, MlqError> {
        Ok(None)
    }

    fn observe(&mut self, _: &[f64], _: ExecutionCost) -> Result<(), MlqError> {
        Ok(())
    }

    fn combine(&self, cost: ExecutionCost) -> f64 {
        cost.cpu + cost.io
    }

    fn memory_used(&self) -> usize {
        0
    }

    fn name(&self) -> String {
        "unmodeled".into()
    }
}

/// One chunk as measured: the generator state that produced its rows
/// (so the reference run can regenerate them) and its qualified count.
struct ChunkLog {
    rng: Rng,
    qualified: usize,
}

struct State {
    svc: Arc<ConcurrentEstimator>,
    exec: FeedbackExecutor<TimedHandle>,
    udfs: Vec<Rc<dyn Udf>>,
    thresholds: Vec<u64>,
    shared: SharedRef,
    rows: Rng,
    input_hash: u64,
    applied: Family,
    log: Vec<ChunkLog>,
    warmup_chunks: usize,
    at_budget: usize,
    components: usize,
    wal_dir: PathBuf,
}

/// What one window of the loop measured.
struct Loop {
    base: Measured,
    nae: OnlineNae,
    rows: u64,
    evaluations: u64,
    plan_cost: f64,
    io_misses: f64,
}

fn chunk_rows(rng: &mut Rng, udfs: &[Rc<dyn Udf>]) -> Vec<Vec<Vec<f64>>> {
    (0..CHUNK_ROWS).map(|_| udfs.iter().map(|u| rng.point(u.space())).collect()).collect()
}

fn hash_rows(mut h: u64, rows: &[Vec<Vec<f64>>]) -> u64 {
    for v in rows.iter().flatten().flatten() {
        h = (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl State {
    fn build(plan: &Plan, idx: usize) -> State {
        let scale = if plan.small { 0.1 } else { 1.0 };
        let udfs: Vec<Rc<dyn Udf>> = real_udf_suite(scale, DATA_SEED)
            .expect("the UDF suite builds")
            .into_iter()
            .map(Rc::from)
            .collect();
        let mut sample = Rng::new(DATA_SEED ^ 0x7E57);
        let thresholds: Vec<u64> = udfs
            .iter()
            .zip(PASS_QUANTILES)
            .map(|(udf, q)| {
                let mut results: Vec<u64> = (0..256)
                    .map(|_| {
                        udf.execute(&sample.point(udf.space())).expect("point in space").results
                    })
                    .collect();
                results.sort_unstable();
                results[((results.len() - 1) as f64 * q) as usize]
            })
            .collect();

        let wal_dir = plan.work_dir.join(format!("udf-loop-wal-{idx}"));
        let _ = std::fs::remove_dir_all(&wal_dir);
        let config = ServeConfig { maintainer: MaintainerMode::Manual, ..ServeConfig::default() };
        // Journal on, periodic checkpoints off: one checkpoint writes,
        // fsyncs and renames three new files per shard, which on an ext4
        // disk takes seconds and would make the window a disk benchmark.
        let durability =
            DurabilityConfig { checkpoint_every: 0, ..DurabilityConfig::new(&wal_dir) };
        let mut builder = ConcurrentEstimator::builder(config).with_durability_config(durability);
        for udf in &udfs {
            builder = builder.register(udf.name(), udf.space()).expect("distinct UDF names");
        }
        let svc = Arc::new(builder.build().expect("service builds"));
        let names: Vec<String> = udfs.iter().map(|u| u.name().to_string()).collect();
        let shared = Shared::new();
        let handles = names
            .iter()
            .map(|n| TimedHandle {
                inner: svc.handle(n).expect("registered"),
                shared: Rc::clone(&shared),
                last: Cell::new(None),
            })
            .collect();
        let registry = Arc::clone(svc.registry());
        let mut state = State {
            exec: FeedbackExecutor::new(predicates(&udfs, &thresholds, &shared), handles),
            applied: Family::new(&registry, "mlq_serve_applied", &names),
            svc,
            udfs,
            thresholds,
            shared,
            // Warm-up traffic is part of the set-up, so every run starts
            // from the same models; `--seed` drives the measured rows.
            rows: Rng::new(DATA_SEED ^ 0x3A93),
            input_hash: 0xCBF2_9CE4_8422_2325,
            log: Vec::new(),
            warmup_chunks: 0,
            at_budget: 0,
            components: 2 * names.len(),
            wal_dir,
        };
        // Warm-up: run the loop until every model that can reach its
        // budget has (the self-test runs a fixed few chunks instead).
        let mut since_progress = 0;
        while state.at_budget < state.components {
            let rows = chunk_rows(&mut state.rows, &state.udfs);
            state.input_hash = hash_rows(state.input_hash, &rows);
            state.exec.run(&rows, &OrderingPolicy::EstimatedRank);
            state.svc.flush();
            state.warmup_chunks += 1;
            let at_budget = models_at_budget(&state.svc.metrics(), &names);
            since_progress = if at_budget > state.at_budget { 0 } else { since_progress + 1 };
            state.at_budget = at_budget;
            let done = if plan.small { 8 } else { WARMUP_PLATEAU };
            if (plan.small && state.warmup_chunks >= done)
                || (!plan.small && since_progress >= done)
            {
                break;
            }
        }
        // Predictions from here on must all be answered.
        state.shared.borrow_mut().answers = Answers::default();
        state.rows = Rng::new(plan.seed);
        state
    }

    fn window(&mut self, plan: &Plan, traced: bool) -> Loop {
        {
            let mut shared = self.shared.borrow_mut();
            shared.spans = Spans::new(traced);
            shared.nae = OnlineNae::new();
            shared.io_misses = 0.0;
        }
        let guard_before = ShardTotals::read(&self.svc);
        let (offered_before, answers_before) = {
            let shared = self.shared.borrow();
            (shared.offered, shared.answers)
        };
        let mut m = Loop {
            base: Measured {
                window: Window::new(plan.seconds),
                spans: Spans::new(false),
                before: self.svc.metrics(),
                after: RegistrySnapshot::default(),
                guard: ShardTotals::default(),
                offered: 0,
                answers: Answers::default(),
            },
            nae: OnlineNae::new(),
            rows: 0,
            evaluations: 0,
            plan_cost: 0.0,
            io_misses: 0.0,
        };
        let mut out = Vec::with_capacity(CHUNK_ROWS);
        let mut chunks = 0;
        while !plan.window_done(&m.base.window, chunks) {
            let rng = self.rows.clone();
            let rows = chunk_rows(&mut self.rows, &self.udfs);
            self.input_hash = hash_rows(self.input_hash, &rows);
            let applied = self.applied.get();
            let (read0, write0, udf0) = self.shared.borrow().spans.fig10();

            let t0 = Instant::now();
            let report = self.exec.run(&rows, &OrderingPolicy::EstimatedRank);
            let t1 = Instant::now();
            self.shared.borrow_mut().spans.record(Stage::Run, t0, t1);
            self.svc.step(usize::MAX).expect("manual-mode service is live");
            let t2 = Instant::now();
            self.shared.borrow_mut().spans.record(Stage::Step, t1, t2);
            let (read1, write1, udf1) = self.shared.borrow().spans.fig10();
            m.base.window.add(Part {
                ns: nanos(t0, t2),
                units: report.rows as u64,
                applied: self.applied.get() - applied,
                read_ns: read1 - read0,
                write_ns: write1 - write0,
                udf_ns: udf1 - udf0,
            });

            // A batch probe outside the measured time: one 256-point
            // `predict_batch_into` over the first 256 of this chunk's
            // points of one UDF.
            let shard = chunks % self.udfs.len();
            let points: Vec<Vec<f64>> = rows.iter().take(BATCH).map(|r| r[shard].clone()).collect();
            let handle = &self.exec.estimator(shard).inner;
            let b0 = Instant::now();
            let ok = handle.predict_batch_into(&points, &mut out).is_ok();
            let b1 = Instant::now();
            {
                let mut shared = self.shared.borrow_mut();
                shared.spans.record(Stage::Batch, b0, b1);
                shared.answers.note_batch(ok, &out, points.len());
                shared.spans.drain();
            }

            self.log.push(ChunkLog { rng, qualified: report.qualified });
            m.rows += report.rows as u64;
            m.evaluations += report.evaluations;
            m.plan_cost += report.total_cost;
            chunks += 1;
        }
        m.base.after = self.svc.metrics();
        m.base.guard = ShardTotals::read(&self.svc).minus(&guard_before);
        let mut shared = self.shared.borrow_mut();
        m.base.spans = std::mem::replace(&mut shared.spans, Spans::new(false));
        m.base.offered = shared.offered - offered_before;
        m.base.answers = Answers {
            made: shared.answers.made - answers_before.made,
            bad: shared.answers.bad - answers_before.bad,
        };
        m.nae = shared.nae;
        m.io_misses = shared.io_misses;
        m
    }

    /// Re-runs every fourth measured chunk under a fixed order with
    /// feedback off; a conjunction's qualified rows cannot depend on the
    /// order.
    fn reference_qualified(&self) -> (usize, usize) {
        let shared = Shared::new();
        let n = self.udfs.len();
        let mut reference = FeedbackExecutor::new(
            predicates(&self.udfs, &self.thresholds, &shared),
            (0..n).map(|_| Unmodeled).collect(),
        );
        reference.set_feedback(false);
        let fixed = OrderingPolicy::Fixed((0..n).collect());
        let (mut measured, mut expected) = (0, 0);
        for chunk in self.log.iter().step_by(4) {
            let rows = chunk_rows(&mut chunk.rng.clone(), &self.udfs);
            expected += reference.run(&rows, &fixed).qualified;
            measured += chunk.qualified;
        }
        (measured, expected)
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let (setup_s, mut state) = crate::common::timed_setups(plan.setups, |i| State::build(plan, i));
    let untraced = state.window(plan, false);
    let traced = plan.trace.then(|| state.window(plan, true));
    let mut o = Outcome { setup_s, ..Outcome::default() };

    let w = &untraced.base.window;
    let throughput = w.rate(|p| p.units);
    o.e2e = untraced.base.e2e(Fig10::UdfTime);
    o.e2e.push(("nae", untraced.nae.value().unwrap_or(0.0)));

    if let Some(t) = &traced {
        let window_ns = t.base.window.total().ns;
        let spans = &t.base.spans;
        let wrapped: u64 =
            [Stage::Fetch, Stage::Descent, Stage::Combine, Stage::Observe, Stage::Execute]
                .into_iter()
                .map(|s| spans.total(s))
                .sum();
        let pct = |ns: u64| 100.0 * ns as f64 / window_ns.max(1) as f64;
        o.per_layer = t.base.layers(throughput);
        o.per_layer.extend([
            ("optimizer.self_pct", pct(spans.total(Stage::Run).saturating_sub(wrapped))),
            ("optimizer.evaluations_per_row", t.evaluations as f64 / t.rows.max(1) as f64),
            ("optimizer.plan_cost_per_row", t.plan_cost / t.rows.max(1) as f64),
            ("udfs.io_misses", t.io_misses),
        ]);
        o.table = t.base.rows();
        o.table_ns = window_ns;
    }

    // Correctness, after every window: all feedback applied, the queue
    // lossless, every prediction answered, the conjunction order-free.
    state.svc.flush();
    let (measured, expected) = state.reference_qualified();
    o.checks.check(
        "udf_loop.qualified_matches_fixed_order",
        measured == expected,
        format!("EstimatedRank qualified {measured}, Fixed reference {expected}"),
    );
    let totals = ShardTotals::read(&state.svc);
    let shared = state.shared.borrow();
    check_queue(&mut o.checks, &state.svc, shared.offered, &totals);
    o.checks.answered(&shared.answers);
    let bytes = model_bytes(&state.svc);
    o.e2e.push(("model_bytes", bytes as f64));
    tally(&mut o, [Some(&untraced.base), traced.as_ref().map(|t| &t.base)], shared.observe_errors);

    let metrics = state.svc.metrics();
    let plan_cost_per_row = untraced.plan_cost / untraced.rows.max(1) as f64;
    o.fingerprint = vec![
        ("inputs", format!("{:016x}", state.input_hash)),
        ("applied", totals.applied.to_string()),
        ("quarantined", format!("{}/{}", totals.cpu_quarantined, totals.io_quarantined)),
        ("compressions", metrics.sum_counters("mlq_core_compressions").to_string()),
        ("sseg_evictions", metrics.sum_counters("mlq_core_sseg_evictions").to_string()),
        ("plan_cost_per_row", format!("{plan_cost_per_row:?}")),
        ("nae", format!("{:?}", untraced.nae.value())),
        ("qualified", measured.to_string()),
        ("model_bytes", bytes.to_string()),
    ];
    o.notes = vec![
        format!(
            "warm-up {} chunks of {CHUNK_ROWS} rows; {}/{} models at budget; journal in {}",
            state.warmup_chunks,
            state.at_budget,
            state.components,
            state.wal_dir.display()
        ),
        format!(
            "rows {} in {:.3} s measured; plan_cost_per_row {plan_cost_per_row:.3}; \
             evaluations_per_row {:.3}; pass thresholds {:?}",
            untraced.rows,
            w.total().ns as f64 / 1e9,
            untraced.evaluations as f64 / untraced.rows.max(1) as f64,
            state.thresholds
        ),
        format!(
            "untraced step p50 {:.1} us, p99 {:.1} us",
            untraced.base.spans.series(Stage::Step).quantile(0.5) / 1e3,
            untraced.base.spans.series(Stage::Step).quantile(0.99) / 1e3
        ),
    ];
    o
}
