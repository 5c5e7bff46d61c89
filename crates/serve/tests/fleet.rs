//! Deterministic fleet-arbitration harness.
//!
//! Proves the three load-bearing properties of fleet-level budget
//! arbitration (DESIGN.md §14):
//!
//! 1. **Budget invariant** — after every arbitration step the summed
//!    accounted bytes of all live models fit the global budget.
//! 2. **Hibernation transparency** — hibernate → wake → predict is
//!    bit-identical to never hibernating at all.
//! 3. **Skew pays off** — under a seeded 90/10 traffic skew the hot
//!    model's accuracy (NAE over a holdout grid) is no worse than
//!    dedicated-budget operation with the same total memory, while the
//!    cold models shrink to hibernation envelopes.
//!
//! Plus the traffic-accounting regression tests: arbitration snapshots
//! every read counter exactly once per round, so the per-round traffic
//! deltas partition the true read totals even under concurrent readers
//! (the stale-counter bug class the `feedback_lag` fix addressed).
//!
//! Seeds come from `MLQ_FLEET_SEED` (CI sweeps 25); on an equivalence
//! or accuracy failure the diff is written under `target/fleet-diff/`
//! for the CI artifact upload.

use mlq_core::GuardConfig;
use mlq_serve::{ConcurrentEstimator, FleetConfig, MaintainerMode, ServeConfig};
use mlq_synth::{CostSurface, FleetScenario, QueryDistribution};
use mlq_udfs::ExecutionCost;
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn space() -> mlq_core::Space {
    mlq_core::Space::cube(2, 0.0, 1000.0).unwrap()
}

fn harness_seed() -> u64 {
    std::env::var("MLQ_FLEET_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xF1EE7)
}

/// SplitMix64, the harness-standard deterministic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn serve_config(fleet: Option<FleetConfig>, budget_per_model: usize) -> ServeConfig {
    ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model,
        // Disable outlier quarantine: fleet and dedicated services must
        // absorb identical observation sets for the comparisons below.
        guard: GuardConfig { mad_k: 1e9, ..GuardConfig::default() },
        fleet,
        ..ServeConfig::default()
    }
}

fn build(names: &[String], config: ServeConfig) -> ConcurrentEstimator {
    let mut b = ConcurrentEstimator::builder(config);
    for name in names {
        b = b.register(name, &space()).unwrap();
    }
    b.build().unwrap()
}

fn model_names(n: usize) -> Vec<String> {
    (0..n).map(|m| format!("M{m}")).collect()
}

fn probe_points() -> Vec<[f64; 2]> {
    let mut points = Vec::new();
    for i in 0..7 {
        for j in 0..7 {
            points.push([40.0 + 140.0 * f64::from(i), 70.0 + 138.0 * f64::from(j)]);
        }
    }
    points
}

fn diff_artifact_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "../../target".into());
    PathBuf::from(target).join("fleet-diff")
}

fn write_diff(tag: &str, diff: &str) -> PathBuf {
    let dir = diff_artifact_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{tag}.txt"));
    std::fs::write(&path, diff).ok();
    path
}

/// Mean absolute error over the holdout grid, normalized by the mean
/// true cost. Uninformed predictions score as full misses.
fn nae(svc: &ConcurrentEstimator, name: &str, scenario: &FleetScenario, model: usize) -> f64 {
    let mut err = 0.0;
    let mut truth_sum = 0.0;
    for p in probe_points() {
        let truth = scenario.surface(model).cost(&p);
        let pred = svc.predict(name, &p).unwrap().unwrap_or(0.0);
        err += (pred - truth).abs();
        truth_sum += truth;
    }
    err / truth_sum
}

/// Property 1: after every arbitration step, the live models fit the
/// global budget (and the round reports `fit`). Exercised under eviction
/// pressure: generous per-model budgets, a tight global one.
#[test]
fn global_budget_holds_after_every_arbitration_step() {
    let seed = harness_seed();
    let names = model_names(4);
    let budget = 24 * 1024;
    let scenario = FleetScenario::new(space(), QueryDistribution::Uniform, 4, 2, 0.9, seed);
    let svc = build(
        &names,
        serve_config(Some(FleetConfig { global_budget: budget, hibernate_after: 0 }), 1 << 20),
    );
    let events = scenario.stream(1200);
    for (step, chunk) in events.chunks(64).enumerate() {
        for e in chunk {
            svc.observe(
                &names[e.model],
                &e.point,
                ExecutionCost { cpu: e.cost, io: e.cost / 8.0, results: 1 },
            )
            .unwrap();
            // Every event is also a read: the traffic signal arbitration
            // weighs.
            svc.predict(&names[e.model], &e.point).unwrap();
        }
        svc.flush();
        let live = svc.fleet_live_bytes().unwrap();
        assert!(
            live <= budget,
            "step {step}: live models hold {live} B over the {budget} B global budget"
        );
        let report = svc.last_arbitration().unwrap().expect("arbitration ran");
        assert!(report.fit, "step {step}: round {} reported unfit", report.round);
    }
    let metrics = svc.metrics();
    assert_eq!(
        metrics.counter("mlq_catalog_budget_overruns"),
        Some(0),
        "arbitration reported a budget overrun"
    );
    assert!(
        metrics.counter("mlq_catalog_evicted_leaves").unwrap_or(0) > 0,
        "the tight budget never forced a cross-model eviction — the test lost its teeth"
    );
    svc.shutdown();
}

/// Property 2: hibernate → wake → predict is bit-identical to never
/// hibernating. The global budget is effectively infinite so eviction
/// never runs — any divergence is the hibernation envelope's fault
/// alone.
#[test]
fn hibernation_roundtrip_is_bit_identical() {
    let seed = harness_seed();
    let names = model_names(2);
    let fleet = build(
        &names,
        serve_config(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 2 }), 1 << 20),
    );
    let twin = build(&names, serve_config(None, 1 << 20));

    let mut rng = SplitMix64(seed ^ 0xB17);
    for _ in 0..300 {
        let shard = (rng.next_u64() % 2) as usize;
        let point = [rng.next_f64() * 1000.0, rng.next_f64() * 1000.0];
        let cost = ExecutionCost {
            cpu: (1 + rng.next_u64() % 800) as f64 / 8.0,
            io: (1 + rng.next_u64() % 160) as f64 / 8.0,
            results: 1,
        };
        fleet.observe(&names[shard], &point, cost).unwrap();
        twin.observe(&names[shard], &point, cost).unwrap();
    }
    fleet.flush();
    twin.flush();

    // Starve M1 of reads while keeping M0 hot until M1 hibernates.
    let mut rounds = 0;
    while !fleet.is_hibernated("M1").unwrap() {
        fleet.predict("M0", &[500.0, 500.0]).unwrap();
        fleet.step(64).unwrap();
        rounds += 1;
        assert!(rounds < 50, "M1 never hibernated after {rounds} idle rounds");
    }
    assert!(!fleet.is_hibernated("M0").unwrap(), "the hot shard must stay live");

    // The first M1 predict wakes it; every prediction after the round
    // trip must match the never-hibernated twin bit for bit.
    let mut diff = String::new();
    for name in &names {
        for p in probe_points() {
            let got = fleet.predict(name, &p).unwrap().map(f64::to_bits);
            let want = twin.predict(name, &p).unwrap().map(f64::to_bits);
            if got != want {
                diff.push_str(&format!(
                    "shard {name} probe {p:?}: woken {got:?} != twin {want:?}\n"
                ));
            }
        }
    }
    if !diff.is_empty() {
        let path = write_diff(&format!("hibernate_roundtrip_seed_{seed}"), &diff);
        panic!("hibernation round trip diverged:\n{diff}(diff written to {})", path.display());
    }
    assert!(!fleet.is_hibernated("M1").unwrap(), "prediction must wake the shard");
    assert!(
        fleet.metrics().counter("mlq_catalog_restores").unwrap_or(0) > 0,
        "no restore was counted — hibernation never round-tripped"
    );
    fleet.shutdown();
    twin.shutdown();
}

/// Hibernation shrinks a model: an at-budget shard's envelopes take
/// fewer bytes than the live accounted bytes the hibernation freed.
#[test]
fn hibernated_model_takes_fewer_cold_bytes_than_it_freed() {
    let budget = 16 << 10;
    let names = model_names(1);
    let svc = build(
        &names,
        serve_config(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 2 }), budget),
    );
    let mut rng = SplitMix64(harness_seed() ^ 0xC01D);
    for _ in 0..4000 {
        let point = [rng.next_f64() * 1000.0, rng.next_f64() * 1000.0];
        let cost = ExecutionCost {
            cpu: 1.0 + rng.next_f64() * 99.0,
            io: 1.0 + rng.next_f64() * 9.0,
            results: 1,
        };
        svc.observe("M0", &point, cost).unwrap();
    }
    svc.flush();
    let live_before = svc.fleet_live_bytes().unwrap();
    assert!(live_before * 10 >= 2 * budget * 9, "CPU and IO trees not at budget: {live_before}");

    let mut rounds = 0;
    while !svc.is_hibernated("M0").unwrap() {
        svc.step(64).unwrap();
        rounds += 1;
        assert!(rounds < 50, "M0 never hibernated after {rounds} idle rounds");
    }
    let freed = live_before - svc.fleet_live_bytes().unwrap();
    let cold = svc.metrics().gauge("mlq_catalog_cold_bytes").unwrap();
    assert!(cold > 0.0, "no envelope bytes recorded");
    assert!(cold < freed as f64, "envelopes take {cold} bytes, hibernation freed {freed}");
    svc.shutdown();
}

/// Property 2 under the background maintainer, the configuration the
/// README documents: with nobody stepping, the maintainer thread's own
/// idle rounds hibernate both shards, and a read wakes each one inline.
/// Every prediction after the round trip must match a never-hibernated
/// twin bit for bit. The reads run on a helper thread behind a timeout,
/// so a wake that never completes fails the test instead of hanging it.
#[test]
fn background_maintainer_hibernates_and_wakes_bit_identically() {
    let seed = harness_seed();
    let names = model_names(2);
    let fleet = Arc::new(build(
        &names,
        ServeConfig {
            maintainer: MaintainerMode::Background,
            ..serve_config(
                Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 2 }),
                1 << 20,
            )
        },
    ));
    let twin = build(&names, serve_config(None, 1 << 20));

    let mut rng = SplitMix64(seed ^ 0xBA6);
    for _ in 0..300 {
        let shard = (rng.next_u64() % 2) as usize;
        let point = [rng.next_f64() * 1000.0, rng.next_f64() * 1000.0];
        let cost = ExecutionCost {
            cpu: (1 + rng.next_u64() % 800) as f64 / 8.0,
            io: (1 + rng.next_u64() % 160) as f64 / 8.0,
            results: 1,
        };
        fleet.observe(&names[shard], &point, cost).unwrap();
        twin.observe(&names[shard], &point, cost).unwrap();
    }
    fleet.flush();
    twin.flush();

    // No reads at all: both shards go cold and hibernate on their own.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !names.iter().all(|name| fleet.is_hibernated(name).unwrap()) {
        assert!(
            Instant::now() < deadline,
            "shards never hibernated under the background maintainer"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (tx, rx) = mpsc::channel();
    let reader = Arc::clone(&fleet);
    let reader_names = names.clone();
    let reads = std::thread::spawn(move || {
        let woken: Vec<Vec<Option<u64>>> = reader_names
            .iter()
            .map(|name| {
                probe_points()
                    .iter()
                    .map(|p| reader.predict(name, p).unwrap().map(f64::to_bits))
                    .collect()
            })
            .collect();
        tx.send(woken).ok();
    });
    let woken = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a read against a hibernated shard never returned");
    reads.join().unwrap();

    let mut diff = String::new();
    for (name, got_row) in names.iter().zip(&woken) {
        for (p, got) in probe_points().iter().zip(got_row) {
            let want = twin.predict(name, p).unwrap().map(f64::to_bits);
            if *got != want {
                diff.push_str(&format!(
                    "shard {name} probe {p:?}: woken {got:?} != twin {want:?}\n"
                ));
            }
        }
    }
    if !diff.is_empty() {
        let path = write_diff(&format!("background_hibernate_seed_{seed}"), &diff);
        panic!("background wake diverged:\n{diff}(diff written to {})", path.display());
    }
    assert!(
        fleet.metrics().counter("mlq_catalog_restores").unwrap_or(0) > 0,
        "no restore was counted — hibernation never round-tripped"
    );
    fleet.shutdown();
    twin.shutdown();
}

/// Regression: a shard read only through an [`EstimatorHandle`] is
/// traffic like any other. Every handle read counts toward arbitration
/// and wakes a hibernated shard, so a shard read once per round never
/// goes cold, and the handle answers exactly what the service answers —
/// never the hibernated stand-in's running-average fallback.
///
/// [`EstimatorHandle`]: mlq_serve::EstimatorHandle
#[test]
fn handle_reads_count_as_traffic_and_wake_hibernated_shards() {
    use mlq_optimizer::Estimator as _;

    let names = model_names(1);
    let svc = Arc::new(build(
        &names,
        serve_config(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 2 }), 1 << 20),
    ));
    // Two cost regimes, so the tree's answer at a probe differs from the
    // guard's running average a stand-in would fall back to.
    let mut rng = SplitMix64(harness_seed() ^ 0x4A7D);
    for i in 0..200 {
        let (base, cpu) = if i % 2 == 0 { (0.0, 100.0) } else { (500.0, 1000.0) };
        let point = [base + rng.next_f64() * 400.0, base + rng.next_f64() * 400.0];
        svc.observe("M0", &point, ExecutionCost { cpu, io: 16.0, results: 1 }).unwrap();
    }
    svc.flush();

    let handle = svc.handle("M0").unwrap();
    let probe = [700.0, 700.0];
    const ROUNDS: u64 = 10;
    for _ in 0..ROUNDS {
        handle.predict(&probe).unwrap();
        svc.step(64).unwrap();
    }
    assert_eq!(
        svc.metrics().counter(r#"mlq_serve_reads{udf="M0"}"#),
        Some(ROUNDS),
        "every handle read must count as traffic"
    );
    assert!(!svc.is_hibernated("M0").unwrap(), "a shard read every round must stay live");

    // Starved of reads, the shard hibernates; the next handle read wakes
    // it and answers from the real model.
    let mut rounds = 0;
    while !svc.is_hibernated("M0").unwrap() {
        svc.step(64).unwrap();
        rounds += 1;
        assert!(rounds < 50, "M0 never hibernated after {rounds} idle rounds");
    }
    let via_handle = handle.predict(&probe).unwrap().map(f64::to_bits);
    assert!(!svc.is_hibernated("M0").unwrap(), "a handle read must wake the shard");
    let via_service = svc.predict("M0", &probe).unwrap().map(f64::to_bits);
    assert_eq!(via_handle, via_service, "handle and service must answer alike");
    svc.shutdown();
}

/// Property 3: under a seeded 90/10 skew, the fleet-arbitrated hot model
/// is at least as accurate as dedicated-budget operation with the same
/// total memory, and the cold models shrink to hibernation envelopes.
#[test]
fn skew_preserves_hot_accuracy_while_cold_models_shrink() {
    let seed = harness_seed();
    let n = 6;
    let names = model_names(n);
    let global_budget = 48 * 1024;
    let scenario = FleetScenario::new(space(), QueryDistribution::Uniform, n, 1, 0.9, seed);
    // Dedicated operation: the same total memory split evenly across the
    // fleet's 2n component models, no global coupling.
    let dedicated = build(&names, serve_config(None, global_budget / (2 * n)));
    // Fleet operation: generous per-model budgets, the global budget and
    // hibernation doing the arbitration.
    let fleet = build(
        &names,
        serve_config(Some(FleetConfig { global_budget, hibernate_after: 3 }), 1 << 20),
    );

    let feed = |svc: &ConcurrentEstimator, events: &[mlq_synth::FleetEvent], hot_only: bool| {
        for chunk in events.chunks(64) {
            for e in chunk {
                if hot_only && e.model != 0 {
                    continue;
                }
                svc.observe(
                    &names[e.model],
                    &e.point,
                    ExecutionCost { cpu: e.cost, io: 0.0, results: 1 },
                )
                .unwrap();
                svc.predict(&names[e.model], &e.point).unwrap();
            }
            svc.flush();
        }
    };

    let events = scenario.stream(2500);
    // Phase 1: the whole fleet trains and serves (everything warm).
    feed(&dedicated, &events, false);
    feed(&fleet, &events, false);
    // Phase 2: traffic collapses onto the hot model. Cold shards stop
    // reading entirely, so their streaks grow past `hibernate_after`.
    let tail = scenario.stream(1500);
    feed(&dedicated, &tail, true);
    feed(&fleet, &tail, true);

    // Cold models shrank: every zero-traffic shard hibernated, and what
    // remains live fits the budget with room the hot model now owns.
    for name in names.iter().skip(1) {
        assert!(
            fleet.is_hibernated(name).unwrap(),
            "cold shard {name} never hibernated under sustained zero traffic"
        );
    }
    assert!(!fleet.is_hibernated("M0").unwrap());
    assert!(fleet.fleet_live_bytes().unwrap() <= global_budget);

    // Hot accuracy: measure before any cold shard is woken. The fleet
    // hot model may use what the cold fleet gave up, so it must be at
    // least as accurate as its dedicated-slice twin (small tolerance for
    // tie-level noise).
    let fleet_nae = nae(&fleet, "M0", &scenario, 0);
    let dedicated_nae = nae(&dedicated, "M0", &scenario, 0);
    if fleet_nae > dedicated_nae * 1.05 + 1e-9 {
        let diff = format!(
            "seed {seed}: hot-model NAE under fleet arbitration {fleet_nae} \
             exceeds dedicated-budget NAE {dedicated_nae}\n"
        );
        let path = write_diff(&format!("skew_nae_seed_{seed}"), &diff);
        panic!("{diff}(diff written to {})", path.display());
    }
    fleet.shutdown();
    dedicated.shutdown();
}

/// Regression (scripted interleaving): arbitration reads every shard's
/// traffic counter exactly once per round, so each round's deltas are
/// exactly the reads issued since the previous round — no mid-scan
/// re-reads, no double counting across rounds.
#[test]
fn traffic_deltas_match_scripted_interleaving_exactly() {
    let names = model_names(3);
    let svc = build(
        &names,
        serve_config(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 0 }), 1 << 16),
    );
    let p = [100.0, 200.0];
    for _ in 0..5 {
        svc.predict("M0", &p).unwrap();
    }
    for _ in 0..2 {
        svc.predict("M1", &p).unwrap();
    }
    svc.step(16).unwrap();
    let r1 = svc.last_arbitration().unwrap().unwrap();
    assert_eq!(r1.traffic, vec![5, 2, 0]);
    assert_eq!(r1.traffic_total, 7);

    for _ in 0..3 {
        svc.predict("M1", &p).unwrap();
    }
    svc.step(16).unwrap();
    let r2 = svc.last_arbitration().unwrap().unwrap();
    assert_eq!(r2.round, r1.round + 1);
    assert_eq!(r2.traffic, vec![0, 3, 0], "round 2 must not re-count round 1's reads");

    svc.step(16).unwrap();
    let r3 = svc.last_arbitration().unwrap().unwrap();
    assert_eq!(r3.traffic, vec![0, 0, 0]);
    svc.shutdown();
}

/// Regression (concurrent hammer): with reader threads predicting while
/// the maintainer arbitrates, the per-round traffic deltas still
/// partition the true read totals — sum of deltas over all rounds equals
/// reads issued, per shard. A mid-scan re-read of the live atomics
/// (the stale-counter window) would break this conservation.
#[test]
fn traffic_deltas_partition_reads_under_concurrency() {
    let names = model_names(3);
    let svc = std::sync::Arc::new(build(
        &names,
        serve_config(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 0 }), 1 << 16),
    ));
    const THREADS: usize = 4;
    const PER_THREAD: usize = 500;
    let mut issued = [0u64; 3];
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            issued[(t + i) % 3] += 1;
        }
    }
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let svc = std::sync::Arc::clone(&svc);
            let names = names.clone();
            std::thread::spawn(move || {
                let p = [10.0 * (t + 1) as f64, 500.0];
                for i in 0..PER_THREAD {
                    svc.predict(&names[(t + i) % 3], &p).unwrap();
                }
            })
        })
        .collect();

    // The main thread is the maintainer: step (one arbitration round
    // each) while readers hammer, accumulating every round's deltas.
    let mut accumulated = [0u64; 3];
    let mut last_round = 0;
    let mut absorb = |svc: &ConcurrentEstimator, accumulated: &mut [u64; 3]| {
        let report = svc.last_arbitration().unwrap().expect("arbitration ran");
        assert_eq!(report.round, last_round + 1, "the stepping thread must observe every round");
        last_round = report.round;
        for (acc, d) in accumulated.iter_mut().zip(&report.traffic) {
            *acc += d;
        }
    };
    for h in handles {
        while !h.is_finished() {
            svc.step(16).unwrap();
            absorb(&svc, &mut accumulated);
        }
        h.join().unwrap();
    }
    // One final round collects whatever landed after the last step.
    svc.step(16).unwrap();
    absorb(&svc, &mut accumulated);
    assert_eq!(
        accumulated, issued,
        "per-round traffic deltas failed to partition the true read totals"
    );
    svc.shutdown();
}

/// Regression: `mlq_core_*` counters keep counting across a model swap.
/// A woken shard runs on a model restored from its envelope, whose own
/// counters start at zero; the export must add what each incarnation
/// did rather than stall until the new model passes the old one's
/// high-water mark.
#[test]
fn core_counters_count_across_hibernation() {
    let names = model_names(1);
    let svc = build(
        &names,
        serve_config(Some(FleetConfig { global_budget: 1 << 30, hibernate_after: 1 }), 1 << 20),
    );
    let mut rng = SplitMix64(harness_seed() ^ 0xC0DE);
    let mut train = |n: usize| {
        for _ in 0..n {
            let point = [rng.next_f64() * 1000.0, rng.next_f64() * 1000.0];
            let cost = ExecutionCost { cpu: 1.0 + rng.next_f64() * 99.0, io: 1.0, results: 1 };
            svc.observe("M0", &point, cost).unwrap();
        }
        svc.flush();
    };

    // First incarnation: train, then step with no reads until it sleeps.
    train(200);
    let mut rounds = 0;
    while !svc.is_hibernated("M0").unwrap() {
        svc.step(64).unwrap();
        rounds += 1;
        assert!(rounds < 50, "M0 never hibernated after {rounds} idle rounds");
    }
    // Second incarnation: feedback wakes the shard, then trains it more
    // (the idle round after the flush puts it back to sleep). Fewer
    // inserts than the first, so a high-water-mark export would stay
    // stuck at the first incarnation's count.
    train(150);

    let guard = svc.counters("M0").unwrap().cpu_guard;
    assert_eq!(guard.quarantined + guard.rejected_points + guard.inner_errors, 0);
    let insertions = svc.metrics().counter(r#"mlq_core_insertions{udf="M0",component="cpu"}"#);
    assert_eq!(insertions, Some(350), "CPU inserts accepted across both incarnations");
    assert!(svc.metrics().counter("mlq_catalog_restores").unwrap_or(0) > 0, "no wake");
    svc.shutdown();
}
