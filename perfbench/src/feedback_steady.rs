//! `feedback-steady`: the write path at steady state.
//!
//! Four shards on 4-D 50-peak synthetic surfaces, filled to their byte
//! budget during set-up. One producer offers feedback as fast as
//! `observe` admits it to the real Background maintainer: two threads.
//! Under lossless `Block` backpressure the producer waits for the
//! maintainer, so applied feedbacks per second is the maintainer's
//! sustained rate and nothing dropped can count. The journal is off, so
//! a gain in insert, compression or refreeze is not hidden under fsync.
//! Reads are probes between slices of the window, on a drained queue.

use crate::common::{
    check_queue, histogram_delta, model_bytes, models_at_budget, nanos, set, tally, timed_batch,
    timed_predict, Answers, Family, Fig10, Measured, Outcome, Part, Rng, Row, ShardTotals, Spans,
    Stage, Surfaces, Window, DATA_SEED,
};
use crate::Plan;
use mlq_serve::{ConcurrentEstimator, EstimatorHandle, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const DIMS: usize = 4;
const PEAKS: usize = 50;
/// PC and MUC are shares of UDF execution time (served Fig. 10).
const FIG10: Fig10 = Fig10::UdfTime;
/// Offers between window bookkeeping.
const CHUNK: usize = 256;
/// Batches of the 256 probe points per shard in each read probe; the
/// first pass after the drain runs cold, the rest set the p50.
const PROBE_BATCHES: usize = 16;
/// Set-up offers at most, should a model never reach its budget.
const FILL_CAP: u64 = 1 << 21;
/// Offers after every model first reached its budget, so the window
/// starts from trees that have already compressed many times over.
const SETTLE: u64 = 1 << 16;

struct State {
    svc: Arc<ConcurrentEstimator>,
    handles: Vec<EstimatorHandle>,
    surfaces: Surfaces,
    rng: Rng,
    applied: Family,
    offered: u64,
    observe_errors: u64,
    answers: Answers,
    at_budget: usize,
    fill_offers: u64,
    probe_points: Vec<Vec<f64>>,
}

impl State {
    fn build(plan: &Plan) -> State {
        let surfaces = Surfaces::new("W", SHARDS, DIMS, PEAKS);
        let builder = surfaces.register(ConcurrentEstimator::builder(ServeConfig::default()));
        let svc = Arc::new(builder.build().expect("service builds"));
        let handles = surfaces.names.iter().map(|n| svc.handle(n).expect("registered")).collect();
        let applied = Family::new(svc.registry(), "mlq_serve_applied", &surfaces.names);
        let mut probe = Rng::new(DATA_SEED ^ 0xBA7C);
        let probe_points = (0..256).map(|_| probe.point(&surfaces.space)).collect();
        let mut state = State {
            svc,
            handles,
            // The fill is part of the set-up, so every run starts from the
            // same trees; `--seed` drives the measured feedback.
            rng: Rng::new(DATA_SEED ^ 0xF111),
            applied,
            offered: 0,
            observe_errors: 0,
            answers: Answers::default(),
            at_budget: 0,
            fill_offers: 0,
            probe_points,
            surfaces,
        };
        // Fill every model to its byte budget.
        let mut spans = Spans::new(false);
        while state.at_budget < 2 * SHARDS && state.offered < FILL_CAP {
            for _ in 0..16 {
                state.offer_chunk(&mut spans);
            }
            state.at_budget = models_at_budget(&state.svc.metrics(), &state.surfaces.names);
        }
        let settled = state.offered + SETTLE;
        while state.offered < settled {
            state.offer_chunk(&mut spans);
        }
        state.svc.flush();
        state.fill_offers = state.offered;
        state.answers = Answers::default();
        state.rng = Rng::new(plan.seed);
        state
    }

    /// Offers one chunk of feedback, timing each UDF execution and each
    /// `observe`.
    fn offer_chunk(&mut self, spans: &mut Spans) {
        for _ in 0..CHUNK {
            let shard = self.rng.below(SHARDS);
            let point = self.rng.point(&self.surfaces.space);
            let t0 = Instant::now();
            let cost = self.surfaces.execute(shard, &point);
            let t1 = Instant::now();
            let outcome = self.handles[shard].offer(&point, cost);
            let t2 = Instant::now();
            spans.record(Stage::Execute, t0, t1);
            spans.record(Stage::Observe, t1, t2);
            self.offered += 1;
            if outcome.is_err() {
                self.observe_errors += 1;
            }
        }
    }

    /// One read probe on a drained queue: per shard, a batch of the probe
    /// points and single predicts of some of them. Reads made while the
    /// maintainer is busy contend with it on two CPUs and read bimodally
    /// from run to run, so the window probes between slices instead.
    fn probe_reads(&mut self, spans: &mut Spans, out: &mut Vec<Option<f64>>) {
        self.svc.flush();
        for handle in &self.handles {
            for _ in 0..PROBE_BATCHES {
                timed_batch(handle, &self.probe_points, out, spans, &mut self.answers);
            }
            for point in &self.probe_points {
                timed_predict(handle, point, spans, &mut self.answers);
            }
        }
    }

    fn window(&mut self, plan: &Plan, traced: bool) -> Measured {
        self.svc.flush();
        let mut spans = Spans::new(traced);
        let before = self.svc.metrics();
        let guard_before = ShardTotals::read(&self.svc);
        let (offered_before, answers_before) = (self.offered, self.answers);
        let mut window = Window::new(plan.seconds);
        let mut out = Vec::with_capacity(self.probe_points.len());
        let mut chunks = 0;
        while !plan.window_done(&window, chunks) {
            let applied = self.applied.get();
            let (_, write0, udf0) = spans.fig10();
            let t0 = Instant::now();
            self.offer_chunk(&mut spans);
            let t1 = Instant::now();
            let (_, write1, udf1) = spans.fig10();
            let applied = self.applied.get() - applied;
            let closed = window.closed();
            let mut part = Part {
                ns: nanos(t0, t1),
                units: applied,
                applied,
                read_ns: 0,
                write_ns: write1 - write0,
                udf_ns: udf1 - udf0,
            };
            if closed < window.closed_after(&part) {
                // The slice closes with this chunk: its reads are one probe.
                let (read0, _, _) = spans.fig10();
                self.probe_reads(&mut spans, &mut out);
                part.read_ns = spans.fig10().0 - read0;
            }
            window.add(part);
            spans.drain();
            chunks += 1;
        }
        // Everything offered in the window is applied before accounting.
        self.svc.flush();
        Measured {
            window,
            spans,
            before,
            after: self.svc.metrics(),
            guard: ShardTotals::read(&self.svc).minus(&guard_before),
            offered: self.offered - offered_before,
            answers: Answers {
                made: self.answers.made - answers_before.made,
                bad: self.answers.bad - answers_before.bad,
            },
        }
    }
}

pub fn run(plan: &Plan) -> Outcome {
    let (setup_s, mut state) = crate::common::timed_setups(plan.setups, |_| State::build(plan));
    let untraced = state.window(plan, false);
    let traced = plan.trace.then(|| state.window(plan, true));
    let mut o = Outcome { setup_s, ..Outcome::default() };

    let w = &untraced.window;
    let throughput = w.rate(|p| p.units);
    o.e2e = untraced.e2e(FIG10);

    if let Some(t) = &traced {
        let window_ns = t.window.total().ns;
        o.per_layer = t.layers(throughput);
        // The maintainer runs on its own thread here: its batches come
        // from the service's `mlq_serve_batch_apply_nanos` histogram.
        let batches = histogram_delta(&t.after, &t.before, "mlq_serve_batch_apply_nanos");
        let p50 = batches.quantile(0.5).unwrap_or(0) as f64;
        let p99 = batches.quantile(0.99).unwrap_or(0) as f64;
        set(&mut o.per_layer, "serve.maintainer.steps", batches.count() as f64);
        set(&mut o.per_layer, "serve.maintainer.step_p50_us", p50 / 1e3);
        set(&mut o.per_layer, "serve.maintainer.step_p99_us", p99 / 1e3);
        set(
            &mut o.per_layer,
            "serve.maintainer.pct",
            100.0 * batches.sum as f64 / window_ns.max(1) as f64,
        );
        o.table = t.rows();
        o.table.push(Row {
            layer: "serve.maintainer.batch".into(),
            count: batches.count(),
            total_ns: batches.sum,
            p50_ns: p50,
            p99_ns: p99,
        });
        o.table_ns = window_ns;
    }

    let bytes = model_bytes(&state.svc);
    let mut probe_answers = Answers::default();
    let nae = state.surfaces.probe_nae(&state.svc, 1024, &mut probe_answers);
    o.e2e.extend([("nae", nae.unwrap_or(0.0)), ("model_bytes", bytes as f64)]);

    let totals = ShardTotals::read(&state.svc);
    check_queue(&mut o.checks, &state.svc, state.offered, &totals);
    let answers = Answers {
        made: state.answers.made + probe_answers.made,
        bad: state.answers.bad + probe_answers.bad,
    };
    o.checks.answered(&answers);
    tally(&mut o, [Some(&untraced), traced.as_ref()], state.observe_errors);
    let q = state.svc.queue_counters();
    o.notes = vec![
        format!(
            "fill {} offers; {}/{} models at budget",
            state.fill_offers,
            state.at_budget,
            2 * SHARDS
        ),
        format!(
            "window: {} offered, {} applied, {:.3} s measured; queue max depth {}, block waits {}",
            untraced.offered,
            untraced.guard.applied,
            w.total().ns as f64 / 1e9,
            q.max_depth,
            q.block_waits
        ),
    ];
    o
}
