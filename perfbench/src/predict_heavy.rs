//! `predict-heavy`: the read path, with writes alongside.
//!
//! The same four at-budget shards as `feedback-steady`, served in Manual
//! mode on one thread: 256-point `predict_batch_into` calls plus single
//! `predict` calls, and a sparse trickle of feedback whose `step()`
//! keeps copy-on-write republication running under the reads. Each chunk
//! ends by executing and offering its feedbacks, then stepping.

use crate::common::{
    check_queue, model_bytes, models_at_budget, nanos, tally, timed_batch, timed_predict, Answers,
    Family, Fig10, Measured, Outcome, Part, Rng, ShardTotals, Spans, Stage, Surfaces, Window,
    DATA_SEED,
};
use crate::Plan;
use mlq_serve::{ConcurrentEstimator, EstimatorHandle, MaintainerMode, ServeConfig};
use std::sync::Arc;
use std::time::Instant;

const SHARDS: usize = 4;
const DIMS: usize = 4;
const PEAKS: usize = 50;
/// PC and MUC are shares of the loop's measured time: four UDF
/// executions per 17k predictions are too little time to divide by (their
/// total swings by a third between runs on a shared host).
const FIG10: Fig10 = Fig10::LoopTime;
/// Points per batch call.
const BATCH: usize = 256;
/// Single-point predicts per cycle (one batch and these per cycle).
const SINGLES: usize = 16;
/// Cycles per chunk; each chunk ends with its feedbacks and `step()`.
const CYCLES: usize = 64;
/// Feedbacks per chunk: one per 16 cycles (one per 4,352 predictions).
const FEEDBACKS: usize = 4;
/// Query points, cycled through by the reads.
const POOL: usize = 1 << 14;
/// Set-up offers at most, should a model never reach its budget.
const FILL_CAP: u64 = 1 << 21;
/// Offers after every model first reached its budget.
const SETTLE: u64 = 1 << 16;

struct State {
    svc: Arc<ConcurrentEstimator>,
    handles: Vec<EstimatorHandle>,
    surfaces: Surfaces,
    rng: Rng,
    pool: Vec<Vec<f64>>,
    next: usize,
    applied: Family,
    offered: u64,
    observe_errors: u64,
    answers: Answers,
    at_budget: usize,
    fill_offers: u64,
}

impl State {
    fn build(plan: &Plan) -> State {
        let surfaces = Surfaces::new("R", SHARDS, DIMS, PEAKS);
        let config = ServeConfig { maintainer: MaintainerMode::Manual, ..ServeConfig::default() };
        let builder = surfaces.register(ConcurrentEstimator::builder(config));
        let svc = Arc::new(builder.build().expect("service builds"));
        let handles = surfaces.names.iter().map(|n| svc.handle(n).expect("registered")).collect();
        let applied = Family::new(svc.registry(), "mlq_serve_applied", &surfaces.names);
        let mut rng = Rng::new(plan.seed);
        let pool = (0..POOL).map(|_| rng.point(&surfaces.space)).collect();
        // The fill is part of the set-up, so every run starts from the same
        // trees; `--seed` drives the measured reads and feedback.
        let rng = Rng::new(DATA_SEED ^ 0xF111);
        let mut state = State {
            svc,
            handles,
            rng,
            pool,
            next: 0,
            applied,
            offered: 0,
            observe_errors: 0,
            answers: Answers::default(),
            at_budget: 0,
            fill_offers: 0,
            surfaces,
        };
        // Fill every model to its byte budget.
        let mut spans = Spans::new(false);
        while state.at_budget < 2 * SHARDS && state.offered < FILL_CAP {
            for _ in 0..1024 {
                state.offer(&mut spans);
            }
            state.svc.flush();
            state.at_budget = models_at_budget(&state.svc.metrics(), &state.surfaces.names);
        }
        // Manual mode: nothing drains the queue between steps, so offer
        // at most a queue's worth (4,096) before each flush.
        for _ in 0..SETTLE / 1024 {
            for _ in 0..1024 {
                state.offer(&mut spans);
            }
            state.svc.flush();
        }
        state.fill_offers = state.offered;
        state.rng = Rng::new(plan.seed ^ 0xFEED);
        state
    }

    /// Executes one shard's UDF at a fresh point and offers the cost.
    fn offer(&mut self, spans: &mut Spans) {
        let shard = self.rng.below(SHARDS);
        let point = self.rng.point(&self.surfaces.space);
        let t0 = Instant::now();
        let cost = self.surfaces.execute(shard, &point);
        let t1 = Instant::now();
        let outcome = self.handles[shard].offer(&point, cost);
        spans.record(Stage::Execute, t0, t1);
        spans.record(Stage::Observe, t1, Instant::now());
        self.offered += 1;
        if outcome.is_err() {
            self.observe_errors += 1;
        }
    }

    fn window(&mut self, plan: &Plan, traced: bool) -> Measured {
        let mut spans = Spans::new(traced);
        let before = self.svc.metrics();
        let guard_before = ShardTotals::read(&self.svc);
        let (offered_before, answers_before) = (self.offered, self.answers);
        let mut window = Window::new(plan.seconds);
        let mut out = Vec::with_capacity(BATCH);
        let mut chunks = 0;
        while !plan.window_done(&window, chunks) {
            let applied = self.applied.get();
            let made = self.answers.made;
            let (read0, write0, udf0) = spans.fig10();
            let t0 = Instant::now();
            for cycle in 0..CYCLES {
                let handle = &self.handles[cycle % SHARDS];
                let points = &self.pool[self.next..self.next + BATCH + SINGLES];
                self.next = (self.next + BATCH + SINGLES) % (POOL - BATCH - SINGLES);
                timed_batch(handle, &points[..BATCH], &mut out, &mut spans, &mut self.answers);
                for point in &points[BATCH..] {
                    timed_predict(handle, point, &mut spans, &mut self.answers);
                }
            }
            for _ in 0..FEEDBACKS {
                self.offer(&mut spans);
            }
            let s0 = Instant::now();
            self.svc.step(usize::MAX).expect("manual-mode service is live");
            let t1 = Instant::now();
            spans.record(Stage::Step, s0, t1);
            let (read1, write1, udf1) = spans.fig10();
            window.add(Part {
                ns: nanos(t0, t1),
                units: self.answers.made - made,
                applied: self.applied.get() - applied,
                read_ns: read1 - read0,
                write_ns: write1 - write0,
                udf_ns: udf1 - udf0,
            });
            spans.drain();
            chunks += 1;
        }
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
        o.table = t.rows();
        o.table_ns = window_ns;
    }

    state.svc.flush();
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
    o.notes = vec![
        format!(
            "fill {} offers; {}/{} models at budget",
            state.fill_offers,
            state.at_budget,
            2 * SHARDS
        ),
        format!(
            "window: {} predictions, {} feedbacks, {:.3} s measured; step share {:.2}%",
            untraced.answers.made,
            untraced.offered,
            w.total().ns as f64 / 1e9,
            100.0 * untraced.spans.total(Stage::Step) as f64 / w.total().ns.max(1) as f64
        ),
    ];
    o
}
