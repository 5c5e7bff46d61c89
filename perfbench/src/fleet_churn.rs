//! `fleet-churn`: many models under one global budget.
//!
//! Thirty-two two-dimensional models share one `FleetConfig` budget too
//! small to hold them all, served in Manual mode on one thread. Each
//! event predicts, executes the model's synthetic UDF and observes; the
//! hot set rotates every cycle, so cold models hibernate and later wake.
//! Arbitration, eviction, hibernation and restore do most of their work
//! here; fleet mode is off in every other workload.

use crate::common::{
    check_queue, delta, model_bytes, nanos, set, tally, Answers, Fig10, Measured, Outcome, Part,
    Rng, ShardTotals, Spans, Stage, Surfaces, Window,
};
use crate::Plan;
use mlq_serve::{ConcurrentEstimator, FleetConfig, MaintainerMode, ServeConfig};
use std::time::Instant;

const MODELS: usize = 32;
const DIMS: usize = 2;
const PEAKS: usize = 10;
/// PC and MUC are shares of UDF execution time (served Fig. 10).
const FIG10: Fig10 = Fig10::UdfTime;
/// Models in the hot set; the set moves on by this many each cycle.
const HOT: usize = 4;
/// Events per chunk; each chunk ends with one `step()` (one arbitration
/// round).
const CHUNK: usize = 256;
/// Chunks per cycle of one hot set.
const CHUNKS_PER_CYCLE: usize = 4;
/// Idle arbitration rounds before a model hibernates.
const HIBERNATE_AFTER: u32 = 2;
/// The global budget: about a third of what the live models would
/// otherwise hold, so every round evicts.
const GLOBAL_BUDGET: usize = 96 * 1024;
/// Full rotations of the hot set during set-up, so every model is trained
/// before the window.
const WARM_ROTATIONS: usize = 8;
/// One 256-point batch probe per chunk, outside the measured time.
const BATCH: usize = 256;

struct State {
    svc: ConcurrentEstimator,
    surfaces: Surfaces,
    rng: Rng,
    input_hash: u64,
    chunk: usize,
    offered: u64,
    observe_errors: u64,
    answers: Answers,
}

impl State {
    fn build(plan: &Plan) -> State {
        let surfaces = Surfaces::new("F", MODELS, DIMS, PEAKS);
        let config = ServeConfig {
            maintainer: MaintainerMode::Manual,
            fleet: Some(FleetConfig {
                global_budget: GLOBAL_BUDGET,
                hibernate_after: HIBERNATE_AFTER,
            }),
            ..ServeConfig::default()
        };
        let svc = surfaces.register(ConcurrentEstimator::builder(config)).build().expect("builds");
        let mut state = State {
            svc,
            surfaces,
            rng: Rng::new(plan.seed),
            input_hash: 0xCBF2_9CE4_8422_2325,
            chunk: 0,
            offered: 0,
            observe_errors: 0,
            answers: Answers::default(),
        };
        let rotations = if plan.small { 1 } else { WARM_ROTATIONS };
        let mut spans = Spans::new(false);
        for _ in 0..rotations * (MODELS / HOT) * CHUNKS_PER_CYCLE {
            state.run_chunk(&mut spans);
        }
        // A model's very first prediction has nothing to answer from;
        // from here on every prediction must be answered.
        state.answers = Answers::default();
        state
    }

    /// One chunk of events on the current hot set, then one `step()`.
    /// Returns the events driven.
    fn run_chunk(&mut self, spans: &mut Spans) -> u64 {
        let hot = (self.chunk / CHUNKS_PER_CYCLE * HOT) % MODELS;
        for _ in 0..CHUNK {
            let model = hot + self.rng.below(HOT);
            let point = self.rng.point(&self.surfaces.space);
            self.input_hash = point
                .iter()
                .fold(self.input_hash, |h, v| (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01B3));
            let name = &self.surfaces.names[model];
            let asleep = self.svc.is_hibernated(name).expect("registered");
            let t0 = Instant::now();
            let answer = self.svc.predict(name, &point);
            let t1 = Instant::now();
            let cost = self.surfaces.execute(model, &point);
            let t2 = Instant::now();
            let outcome = self.svc.observe(name, &point, cost);
            let t3 = Instant::now();
            spans.record(if asleep { Stage::Wake } else { Stage::Predict }, t0, t1);
            spans.record(Stage::Execute, t1, t2);
            spans.record(Stage::Observe, t2, t3);
            self.answers.note(&answer);
            self.offered += 1;
            if outcome.is_err() {
                self.observe_errors += 1;
            }
        }
        let s0 = Instant::now();
        self.svc.step(usize::MAX).expect("manual-mode service is live");
        spans.record(Stage::Step, s0, Instant::now());
        self.chunk += 1;
        2 * CHUNK as u64
    }

    fn window(&mut self, plan: &Plan, traced: bool) -> Measured {
        let mut spans = Spans::new(traced);
        let before = self.svc.metrics();
        let guard_before = ShardTotals::read(&self.svc);
        let (offered_before, answers_before) = (self.offered, self.answers);
        let mut window = Window::new(plan.seconds);
        let mut out = Vec::with_capacity(BATCH);
        let mut probe = Rng::new(plan.seed ^ 0xBA7C);
        let mut chunks = 0;
        // Windows end on a rotation boundary, so the final mix of live and
        // hibernated models (and so `model_bytes`) does not depend on
        // where the time ran out.
        let rotation = (MODELS / HOT) * CHUNKS_PER_CYCLE;
        while !(plan.window_done(&window, chunks) && self.chunk.is_multiple_of(rotation)) {
            let applied = ShardTotals::read(&self.svc).applied;
            let (read0, write0, udf0) = spans.fig10();
            let t0 = Instant::now();
            let events = self.run_chunk(&mut spans);
            let t1 = Instant::now();
            let (read1, write1, udf1) = spans.fig10();
            window.add(Part {
                ns: nanos(t0, t1),
                units: events,
                applied: ShardTotals::read(&self.svc).applied - applied,
                read_ns: read1 - read0,
                write_ns: write1 - write0,
                udf_ns: udf1 - udf0,
            });
            // A batch probe on one hot model, outside the measured time.
            let hot = (self.chunk / CHUNKS_PER_CYCLE * HOT) % MODELS;
            let points: Vec<Vec<f64>> =
                (0..BATCH).map(|_| probe.point(&self.surfaces.space)).collect();
            let b0 = Instant::now();
            let ok = self.svc.predict_batch_into(&self.surfaces.names[hot], &points, &mut out);
            spans.record(Stage::Batch, b0, Instant::now());
            self.answers.note_batch(ok.is_ok(), &out, BATCH);
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
        set(
            &mut o.per_layer,
            "fleet.wake_predict_p50_us",
            t.spans.series(Stage::Wake).quantile(0.5) / 1e3,
        );
        o.table = t.rows();
        o.table_ns = window_ns;
    }

    // Model bytes before the probe wakes every hibernated model.
    state.svc.flush();
    let bytes = model_bytes(&state.svc);
    let totals = ShardTotals::read(&state.svc);
    check_queue(&mut o.checks, &state.svc, state.offered, &totals);
    let metrics = state.svc.metrics();
    let windows = [Some(&untraced), traced.as_ref()];
    let in_windows = |family: &str| {
        windows.iter().flatten().map(|m| delta(&m.after, &m.before, family)).sum::<u64>()
    };
    let overruns = metrics.counter("mlq_catalog_budget_overruns").unwrap_or(0);
    let (hibernations, restores) =
        (in_windows("mlq_catalog_hibernations"), in_windows("mlq_catalog_restores"));
    o.checks.check(
        "fleet.no_overruns_and_churn",
        overruns == 0 && hibernations > 0 && restores > 0,
        format!(
            "overruns {overruns}; in the windows {hibernations} hibernations, {restores} restores"
        ),
    );
    let mut probe_answers = Answers::default();
    let nae = state.surfaces.probe_nae(&state.svc, 64, &mut probe_answers);
    o.e2e.extend([("nae", nae.unwrap_or(0.0)), ("model_bytes", bytes as f64)]);
    let answers = Answers {
        made: state.answers.made + probe_answers.made,
        bad: state.answers.bad + probe_answers.bad,
    };
    o.checks.answered(&answers);
    tally(&mut o, windows, state.observe_errors);

    let counter = |name: &str| metrics.counter(name).unwrap_or(0).to_string();
    o.fingerprint = vec![
        ("inputs", format!("{:016x}", state.input_hash)),
        ("applied", totals.applied.to_string()),
        ("quarantined", format!("{}/{}", totals.cpu_quarantined, totals.io_quarantined)),
        ("compressions", metrics.sum_counters("mlq_core_compressions").to_string()),
        ("sseg_evictions", metrics.sum_counters("mlq_core_sseg_evictions").to_string()),
        ("evicted_leaves", counter("mlq_catalog_evicted_leaves")),
        ("hibernations", counter("mlq_catalog_hibernations")),
        ("restores", counter("mlq_catalog_restores")),
        ("nae", format!("{nae:?}")),
        ("model_bytes", bytes.to_string()),
    ];
    o.notes = vec![format!(
        "window: {} events in {:.3} s measured; evicted leaves {}, hibernations {}, restores {}",
        untraced.window.total().units,
        w.total().ns as f64 / 1e9,
        delta(&untraced.after, &untraced.before, "mlq_catalog_evicted_leaves"),
        delta(&untraced.after, &untraced.before, "mlq_catalog_hibernations"),
        delta(&untraced.after, &untraced.before, "mlq_catalog_restores"),
    )];
    o
}
