//! Crash-safety of the serving tier: the write-ahead feedback journal,
//! checkpoint/recovery, fault injection, and graceful degradation.
//!
//! The load-bearing invariant is **recovery equivalence**: after a crash
//! at *any* injected crash point, a recovered service's predictions are
//! bit-identical to a reference estimator fed the recovered feedback
//! prefix from scratch — and that prefix always covers every observation
//! the journal acknowledged before the crash. The crash sweep drives a
//! seeded workload into a deliberately dying service for every crash
//! operation at several occurrences, then proves the invariant.
//!
//! Seeds come from `MLQ_DURABILITY_SEED` (CI sweeps many); on an
//! equivalence failure the recovered-vs-reference diff is written under
//! `target/durability-diff/` for the CI artifact upload.

use mlq_serve::{
    ConcurrentEstimator, CrashOp, CrashPoint, DurabilityConfig, DurabilityStatus, FleetConfig,
    MaintainerMode, RestoreKind, RetryPolicy, ServeConfig, CRASH_OPS,
};
use mlq_storage::FaultConfig;
use mlq_udfs::ExecutionCost;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

const NAMES: [&str; 2] = ["ALPHA", "BETA"];
/// Observations in the seed run (phase A) and the crash run (phase B).
const PHASE_A: usize = 36;
const PHASE_B: usize = 54;
/// Observations fed per manual maintenance step.
const CHUNK: usize = 6;

fn space() -> mlq_core::Space {
    mlq_core::Space::cube(2, 0.0, 100.0).unwrap()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model: 4096,
        ..ServeConfig::default()
    }
}

fn harness_seed() -> u64 {
    std::env::var("MLQ_DURABILITY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlq_durability_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// SplitMix64: the same tiny deterministic generator the storage fault
/// injector uses, so workloads replay exactly from a seed.
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

struct Obs {
    shard: usize,
    point: [f64; 2],
    cost: ExecutionCost,
}

/// A seeded workload across every shard, with continuous (tie-free)
/// costs so model state is a sensitive witness of the applied prefix.
fn workload(seed: u64, n: usize) -> Vec<Obs> {
    let mut rng = SplitMix64(seed);
    (0..n)
        .map(|_| Obs {
            shard: (rng.next_u64() % NAMES.len() as u64) as usize,
            point: [rng.next_f64() * 100.0, rng.next_f64() * 100.0],
            cost: ExecutionCost {
                cpu: 0.5 + rng.next_f64() * 19.5,
                io: 0.25 + rng.next_f64() * 7.75,
                results: 1 + rng.next_u64() % 100,
            },
        })
        .collect()
}

fn build_durable(dir: &PathBuf, crash: Option<CrashPoint>) -> ConcurrentEstimator {
    let mut dconfig = DurabilityConfig::new(dir);
    dconfig.checkpoint_every = 3;
    dconfig.crash = crash;
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    b.with_durability_config(dconfig).build().unwrap()
}

/// Feeds `obs` in deterministic CHUNK-sized maintenance steps.
fn feed(svc: &ConcurrentEstimator, obs: &[Obs]) {
    for chunk in obs.chunks(CHUNK) {
        for o in chunk {
            svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        }
        svc.step(CHUNK).unwrap();
    }
}

fn probe_points() -> Vec<[f64; 2]> {
    let mut points = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            points.push([4.0 + 19.0 * f64::from(i), 7.0 + 18.5 * f64::from(j)]);
        }
    }
    points
}

/// Per-shard probe predictions as bit patterns (`None` kept distinct).
fn predictions(svc: &ConcurrentEstimator) -> Vec<Vec<Option<u64>>> {
    NAMES
        .iter()
        .map(|name| {
            probe_points().iter().map(|p| svc.predict(name, p).unwrap().map(f64::to_bits)).collect()
        })
        .collect()
}

/// The ground truth: a fresh, non-durable estimator fed exactly the
/// first `counts[shard]` observations of each shard, in stream order.
fn reference_predictions(stream: &[Obs], counts: &[u64]) -> Vec<Vec<Option<u64>>> {
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    let svc = b.build().unwrap();
    let mut fed = vec![0u64; NAMES.len()];
    for o in stream {
        if fed[o.shard] < counts[o.shard] {
            fed[o.shard] += 1;
            svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        }
    }
    svc.flush();
    let preds = predictions(&svc);
    svc.shutdown();
    assert_eq!(fed, counts, "stream too short for requested prefix");
    preds
}

fn diff_artifact_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "../../target".into());
    PathBuf::from(target).join("durability-diff")
}

/// Asserts bit-identical predictions; on mismatch writes the full diff
/// to `target/durability-diff/<tag>.txt` before panicking.
fn assert_equivalent(tag: &str, recovered: &[Vec<Option<u64>>], reference: &[Vec<Option<u64>>]) {
    if recovered == reference {
        return;
    }
    let mut diff = format!("recovery equivalence failure: {tag}\n");
    for (s, name) in NAMES.iter().enumerate() {
        for (i, p) in probe_points().iter().enumerate() {
            let (got, want) = (recovered[s][i], reference[s][i]);
            if got != want {
                diff.push_str(&format!(
                    "shard {name} probe {p:?}: recovered {got:?} != reference {want:?}\n"
                ));
            }
        }
    }
    let dir = diff_artifact_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{tag}.txt"));
    std::fs::write(&path, &diff).ok();
    panic!("{diff}\n(diff written to {})", path.display());
}

/// One full crash case: seed disk state, crash a second run at `crash`,
/// recover, and prove the recovered service equals the reference fed the
/// recovered prefix — which must cover everything acknowledged durable.
fn run_crash_case(seed: u64, crash: CrashPoint, tag: &str) {
    let dir = temp_dir(tag);
    let stream = workload(seed, PHASE_A + PHASE_B);

    // Phase A: a clean run leaves checkpoints (and possibly a journal
    // tail) on disk, so the crash run also exercises startup recovery.
    let svc = build_durable(&dir, None);
    feed(&svc, &stream[..PHASE_A]);
    svc.shutdown();

    // Phase B: the dying run.
    let svc = build_durable(&dir, Some(crash));
    feed(&svc, &stream[PHASE_A..]);
    let acked: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    let crashed = svc.durability_status() == DurabilityStatus::Crashed;
    // Snapshots keep serving after the crash point fires.
    for name in NAMES {
        svc.predict(name, &[50.0, 50.0]).unwrap();
    }
    svc.shutdown();

    // Phase C: recovery.
    let svc = build_durable(&dir, None);
    assert_eq!(svc.durability_status(), DurabilityStatus::Active);
    let report = svc.recovery_report().clone();
    assert_eq!(report.shards.len(), NAMES.len());
    let mut counts = vec![0u64; NAMES.len()];
    for shard in &report.shards {
        let idx = NAMES.iter().position(|n| *n == shard.name).unwrap();
        counts[idx] = shard.recovered_seq;
        assert!(
            shard.recovered_seq >= acked[idx],
            "{tag}: shard {} recovered seq {} < acked {} (crashed={crashed}, detail: {})",
            shard.name,
            shard.recovered_seq,
            acked[idx],
            shard.detail,
        );
    }
    let total: u64 = counts.iter().sum();
    assert!(total <= (PHASE_A + PHASE_B) as u64, "{tag}: recovered more than was ever fed");

    let recovered = predictions(&svc);
    svc.shutdown();
    let reference = reference_predictions(&stream, &counts);
    assert_equivalent(tag, &recovered, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash sweep: every crash operation, at several occurrences (the
/// low ones land in startup recovery, the higher ones in steady state),
/// with torn-write cuts for the journal write. Recovery must be exact
/// after every single one.
#[test]
fn every_crash_point_recovers_the_acked_prefix_exactly() {
    let seed = harness_seed();
    for op in CRASH_OPS {
        let torn_cuts: &[usize] = if op == CrashOp::WalWrite { &[0, 9, 57] } else { &[0] };
        for at in [1u32, 2, 3, 5, 9] {
            for &torn_bytes in torn_cuts {
                let crash = CrashPoint { op, at, torn_bytes };
                let tag = format!("seed{seed}_{op:?}_at{at}_torn{torn_bytes}");
                run_crash_case(seed, crash, &tag);
            }
        }
    }
}

/// A clean shutdown checkpoints everything: recovery replays nothing and
/// the recovered service predicts bit-identically to the one that shut
/// down.
#[test]
fn clean_restart_replays_nothing_and_serves_identically() {
    let seed = harness_seed() ^ 0xC1EA;
    let dir = temp_dir("clean_restart");
    let stream = workload(seed, PHASE_A + PHASE_B);

    let svc = build_durable(&dir, None);
    feed(&svc, &stream);
    let before = predictions(&svc);
    let fed: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    svc.shutdown();

    let svc = build_durable(&dir, None);
    for shard in &svc.recovery_report().shards {
        assert_eq!(shard.kind, RestoreKind::Restored, "shard {}: {}", shard.name, shard.detail);
        assert_eq!(shard.replayed, 0, "clean shutdown left journal records: {}", shard.detail);
    }
    let after_counts: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    assert_eq!(after_counts, fed);
    let after = predictions(&svc);
    svc.shutdown();
    assert_equivalent("clean_restart", &after, &before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A rotted newest checkpoint generation degrades recovery to the
/// previous one and surfaces as `corrupt_recovered` in both the report
/// and the `mlq_serve_restore_outcome` startup counter.
#[test]
fn corrupt_newest_checkpoint_recovers_from_previous_generation() {
    let seed = harness_seed() ^ 0xB17;
    let dir = temp_dir("corrupt_gen");
    let stream = workload(seed, PHASE_A);

    let svc = build_durable(&dir, None);
    feed(&svc, &stream);
    svc.shutdown();

    // Rot every newest-generation tree file.
    let mut rotted = 0;
    let mut newest: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(prefix) = name.strip_suffix(".meta") {
            let (stem, generation) = prefix.rsplit_once('.').unwrap();
            let generation: u64 = generation.parse().unwrap();
            let e = newest.entry(stem.to_string()).or_insert(generation);
            *e = (*e).max(generation);
        }
    }
    for (stem, generation) in &newest {
        let path = dir.join(format!("{stem}.{generation}.cpu.mlqs"));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        rotted += 1;
    }
    assert_eq!(rotted, NAMES.len());

    let svc = build_durable(&dir, None);
    let metrics = svc.metrics();
    for shard in &svc.recovery_report().shards {
        assert_eq!(
            shard.kind,
            RestoreKind::CorruptRecovered,
            "shard {}: {}",
            shard.name,
            shard.detail
        );
        assert_eq!(
            metrics.counter_labeled(
                "mlq_serve_restore_outcome",
                &[("udf", &shard.name), ("outcome", "corrupt_recovered")],
            ),
            Some(1),
        );
    }
    // The fallback generation plus the journal tail still reconstructs a
    // serveable prefix bit-identically.
    let counts: Vec<u64> = svc.recovery_report().shards.iter().map(|s| s.recovered_seq).collect();
    let recovered = predictions(&svc);
    svc.shutdown();
    let reference = reference_predictions(&stream, &counts);
    assert_equivalent("corrupt_gen", &recovered, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

/// When persistence cannot be established at all, the circuit breaker
/// drops the layer to in-memory-only serving: status `Degraded`, the
/// `mlq_serve_durability_degraded` gauge raised, the failure recorded —
/// and predictions keep flowing.
#[test]
fn persistent_sync_failure_degrades_to_in_memory_serving() {
    let dir = temp_dir("degrade");
    let mut dconfig = DurabilityConfig::new(&dir);
    dconfig.fault = Some(FaultConfig { seed: 7, sync_error_rate: 1.0, ..FaultConfig::none() });
    dconfig.retry = RetryPolicy { max_retries: 2, backoff: Duration::ZERO };
    dconfig.degrade_after = 2;
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    let svc = b.with_durability_config(dconfig).build().unwrap();

    assert_eq!(svc.durability_status(), DurabilityStatus::Degraded);
    assert_eq!(svc.metrics().gauge("mlq_serve_durability_degraded"), Some(1.0));
    assert!(svc.durability_error().is_some(), "the tripping failure must be inspectable");

    // In-memory serving continues: feedback still applies, reads work.
    let stream = workload(11, 24);
    feed(&svc, &stream);
    let _ = svc.predict(NAMES[0], &[50.0, 50.0]).expect("degraded reads must not error");
    for name in NAMES {
        assert_eq!(svc.durable_seq(name).unwrap(), 0, "degraded mode must not claim durability");
    }
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Transient journal and checkpoint faults — write errors, torn
    /// writes, failed fsyncs, failed renames — are retried into full
    /// durability: the layer stays `Active`, every observation becomes
    /// durable, and recovery is still bit-exact.
    #[test]
    fn transient_faults_never_lose_acked_feedback(
        seed in 0u64..1u64 << 48,
        write_rate in 0.0..0.35f64,
        torn_rate in 0.0..0.25f64,
        sync_rate in 0.0..0.25f64,
        rename_rate in 0.0..0.25f64,
    ) {
        let dir = temp_dir(&format!("proptest_{seed}"));
        let stream = workload(seed ^ 0xF417, PHASE_A);

        let mut dconfig = DurabilityConfig::new(&dir);
        dconfig.checkpoint_every = 2;
        dconfig.fault = Some(FaultConfig {
            seed,
            write_error_rate: write_rate,
            torn_write_rate: torn_rate,
            sync_error_rate: sync_rate,
            rename_error_rate: rename_rate,
            ..FaultConfig::none()
        });
        dconfig.retry = RetryPolicy { max_retries: 64, backoff: Duration::ZERO };
        let mut b = ConcurrentEstimator::builder(serve_config());
        for name in NAMES {
            b = b.register(name, &space()).unwrap();
        }
        let svc = b.with_durability_config(dconfig).build().unwrap();
        feed(&svc, &stream);
        prop_assert_eq!(svc.durability_status(), DurabilityStatus::Active);
        let mut fed = vec![0u64; NAMES.len()];
        for o in &stream {
            fed[o.shard] += 1;
        }
        for (idx, name) in NAMES.iter().enumerate() {
            prop_assert_eq!(svc.durable_seq(name).unwrap(), fed[idx]);
        }
        svc.shutdown();

        let svc = build_durable(&dir, None);
        let counts: Vec<u64> =
            svc.recovery_report().shards.iter().map(|s| s.recovered_seq).collect();
        prop_assert_eq!(&counts, &fed);
        let recovered = predictions(&svc);
        svc.shutdown();
        let reference = reference_predictions(&stream, &counts);
        assert_equivalent(&format!("proptest_seed{seed}"), &recovered, &reference);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A durable Manual-mode service registering `names` in the given order.
fn build_registered(
    dir: &PathBuf,
    names: &[&str],
    checkpoint_every: u64,
    crash: Option<CrashPoint>,
    fleet: Option<FleetConfig>,
) -> ConcurrentEstimator {
    let mut dconfig = DurabilityConfig::new(dir);
    dconfig.checkpoint_every = checkpoint_every;
    dconfig.crash = crash;
    let mut b = ConcurrentEstimator::builder(ServeConfig { fleet, ..serve_config() });
    for name in names {
        b = b.register(name, &space()).unwrap();
    }
    b.with_durability_config(dconfig).build().unwrap()
}

/// Recovered sequence number per shard, by name.
fn recovered_seqs(svc: &ConcurrentEstimator) -> BTreeMap<String, u64> {
    svc.recovery_report().shards.iter().map(|s| (s.name.clone(), s.recovered_seq)).collect()
}

/// Observations per shard in `stream`.
fn fed_counts(stream: &[Obs]) -> Vec<u64> {
    let mut fed = vec![0u64; NAMES.len()];
    for o in stream {
        fed[o.shard] += 1;
    }
    fed
}

/// Journal records name their shard through the journal's name table,
/// not through registration order: a restart that registers the shards
/// in reverse order plus a new shard sorting first (which shifts every
/// shard's index) still routes every record home, and so does a second
/// restart that registers only one of the three.
#[test]
fn reordered_and_added_shards_recover_every_record_exactly() {
    let seed = harness_seed() ^ 0x0DE7;
    let dir = temp_dir("reorder");
    let stream = workload(seed, PHASE_A + PHASE_B);
    // No periodic checkpoints, and a crash in the shutdown checkpoint:
    // every record a run journals is still in the journal at restart.
    let dies_at_shutdown = |shards: u32| {
        Some(CrashPoint { op: CrashOp::CheckpointCpu, at: shards + 1, torn_bytes: 0 })
    };

    let svc = build_registered(&dir, &NAMES, 0, dies_at_shutdown(2), None);
    feed(&svc, &stream[..PHASE_A]);
    svc.shutdown();
    assert_eq!(svc.durability_status(), DurabilityStatus::Crashed);

    let svc = build_registered(&dir, &["BETA", "ALPHA", "AAA"], 0, dies_at_shutdown(3), None);
    let first = fed_counts(&stream[..PHASE_A]);
    let seqs = recovered_seqs(&svc);
    assert_eq!((seqs["ALPHA"], seqs["BETA"], seqs["AAA"]), (first[0], first[1], 0));
    let mut aaa_fed = 0u64;
    for (i, chunk) in stream[PHASE_A..].chunks(CHUNK).enumerate() {
        for o in chunk {
            svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        }
        let x = 10.0 * i as f64;
        let cost = ExecutionCost { cpu: 3.0 + x, io: 1.5, results: 2 };
        svc.observe("AAA", &[x, 100.0 - x], cost).unwrap();
        aaa_fed += 1;
        svc.step(CHUNK + 1).unwrap();
    }
    let aaa_before: Vec<Option<u64>> =
        probe_points().iter().map(|p| svc.predict("AAA", p).unwrap().map(f64::to_bits)).collect();
    svc.shutdown();
    assert_eq!(svc.durability_status(), DurabilityStatus::Crashed);

    let svc = build_registered(&dir, &["BETA"], 0, None, None);
    let all = fed_counts(&stream);
    let seqs = recovered_seqs(&svc);
    assert_eq!((seqs["ALPHA"], seqs["BETA"], seqs["AAA"]), (all[0], all[1], aaa_fed));
    for shard in &svc.recovery_report().shards {
        assert!(shard.replayed > 0, "shard {} replayed nothing: {}", shard.name, shard.detail);
    }
    let recovered = predictions(&svc);
    let aaa_after: Vec<Option<u64>> =
        probe_points().iter().map(|p| svc.predict("AAA", p).unwrap().map(f64::to_bits)).collect();
    svc.shutdown();
    assert_equivalent("reorder", &recovered, &reference_predictions(&stream, &all));
    assert_eq!(aaa_after, aaa_before, "the added shard did not recover bit-identically");
    std::fs::remove_dir_all(&dir).ok();
}

/// A directory written by the per-shard journal layout (committed
/// fixture: two shards, checkpoints covering 18 records each, and
/// per-shard `{stem}.wal` tails past them) replays its legacy journals
/// once, recovers bit-identically, and keeps no `{stem}.wal` afterwards.
#[test]
fn legacy_per_shard_journals_replay_once_and_are_deleted() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/testdata/legacy_journal");
    let dir = temp_dir("legacy");
    for entry in std::fs::read_dir(&fixture).unwrap().flatten() {
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }
    let wal_files = |dir: &PathBuf| {
        std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".wal"))
            .count()
    };
    assert_eq!(wal_files(&dir), NAMES.len());
    // The fixture's writer fed this stream in 6-observation steps.
    let stream = workload(0x1E6A, 48);
    let fed = fed_counts(&stream);

    let svc = build_durable(&dir, None);
    assert_eq!(svc.durability_status(), DurabilityStatus::Active);
    assert_eq!(wal_files(&dir), 0, "a legacy journal survived the startup checkpoint");
    for (idx, name) in NAMES.iter().enumerate() {
        let shard = svc.recovery_report().shards.iter().find(|s| s.name == *name).unwrap();
        assert_eq!(shard.kind, RestoreKind::Restored, "{}", shard.detail);
        assert_eq!(shard.checkpoint_seq, 18, "{}", shard.detail);
        assert_eq!(shard.recovered_seq, fed[idx], "{}", shard.detail);
        assert_eq!(shard.replayed, fed[idx] - 18);
    }
    let recovered = predictions(&svc);
    svc.shutdown();
    assert_equivalent("legacy", &recovered, &reference_predictions(&stream, &fed));

    // The replayed records now live in a checkpoint: the next restart
    // replays nothing and serves the same answers.
    let svc = build_durable(&dir, None);
    assert!(svc.recovery_report().shards.iter().all(|s| s.replayed == 0));
    assert_equivalent("legacy_restart", &predictions(&svc), &recovered);
    svc.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A hibernated shard does not pin the journal: checkpoint rounds write
/// it from its spilled envelopes, so the journal still truncates while
/// it sleeps with records no earlier checkpoint covers, and a restart
/// after a crash recovers it from that checkpoint bit-identically to a
/// twin that never had a fleet.
#[test]
fn hibernated_shard_is_checkpointed_and_does_not_pin_the_journal() {
    let seed = harness_seed() ^ 0xF1EE7;
    let dir = temp_dir("fleet");
    let mut stream = workload(seed, 4 * CHUNK);
    let fleet = FleetConfig { global_budget: 1 << 30, hibernate_after: 2 };
    // Steps 1-4 feed both shards and end in a checkpoint round; step 5
    // journals one more BETA record; steps 6-17 feed ALPHA only, keeping
    // it hot, while BETA sleeps from step 6 through the checkpoint
    // rounds of steps 8, 12 and 16. One commit per step, so the commit
    // of step 18 dies.
    let crash = CrashPoint { op: CrashOp::WalWrite, at: 18, torn_bytes: 0 };
    let svc = build_registered(&dir, &NAMES, 4, Some(crash), Some(fleet));
    feed(&svc, &stream);
    let truncations =
        |svc: &ConcurrentEstimator| svc.metrics().counter("mlq_serve_wal_truncations").unwrap_or(0);
    let mut truncated_while_asleep = false;
    for i in 0..14u32 {
        let x = 7.0 * f64::from(i) + 3.0;
        let o = Obs {
            shard: usize::from(i == 0),
            point: [x, 100.0 - x],
            cost: ExecutionCost { cpu: 2.0 + x / 10.0, io: 1.0, results: 1 },
        };
        svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        svc.predict(NAMES[0], &[50.0, 50.0]).unwrap();
        let asleep = svc.is_hibernated(NAMES[1]).unwrap();
        let before = truncations(&svc);
        svc.step(CHUNK).unwrap();
        truncated_while_asleep |=
            asleep && svc.is_hibernated(NAMES[1]).unwrap() && truncations(&svc) > before;
        stream.push(o);
    }
    assert!(svc.is_hibernated(NAMES[1]).unwrap(), "BETA never hibernated");
    assert!(truncated_while_asleep, "no checkpoint round truncated the journal while BETA slept");
    assert_eq!(svc.durability_status(), DurabilityStatus::Crashed);
    let mut fed = fed_counts(&stream);
    fed[0] -= 1; // the dying step's record was never acked
    let acked: Vec<u64> = NAMES.iter().map(|n| svc.durable_seq(n).unwrap()).collect();
    assert_eq!(acked, fed);
    svc.shutdown();

    let svc = build_durable(&dir, None);
    let beta = svc.recovery_report().shards.iter().find(|s| s.name == NAMES[1]).unwrap();
    assert_eq!(beta.checkpoint_seq, fed[1], "BETA's sleeping checkpoint missed records");
    assert_eq!(beta.replayed, 0, "{}", beta.detail);
    assert_eq!(recovered_seqs(&svc)[NAMES[0]], fed[0]);
    let recovered = predictions(&svc);
    svc.shutdown();
    assert_equivalent("fleet", &recovered, &reference_predictions(&stream, &fed));
    std::fs::remove_dir_all(&dir).ok();
}

/// The crash sweep tests nothing at a point that never fires. Every
/// crash operation must fire at its first and second occurrence in the
/// sweep's dying run; the later occurrences are counted for the report.
#[test]
fn every_crash_op_fires_at_its_first_two_occurrences() {
    let seed = harness_seed();
    let mut fired: BTreeMap<String, Vec<u32>> = BTreeMap::new();
    for op in CRASH_OPS {
        for at in [1u32, 2, 3, 5, 9] {
            let dir = temp_dir(&format!("coverage_{op:?}_{at}"));
            let stream = workload(seed, PHASE_A + PHASE_B);
            let svc = build_durable(&dir, None);
            feed(&svc, &stream[..PHASE_A]);
            svc.shutdown();
            let svc = build_durable(&dir, Some(CrashPoint { op, at, torn_bytes: 0 }));
            feed(&svc, &stream[PHASE_A..]);
            let crashed = svc.durability_status() == DurabilityStatus::Crashed;
            svc.shutdown();
            std::fs::remove_dir_all(&dir).ok();
            let entry = fired.entry(format!("{op:?}")).or_default();
            if crashed {
                entry.push(at);
            }
        }
    }
    for op in CRASH_OPS {
        let at = &fired[&format!("{op:?}")];
        assert!(at.starts_with(&[1, 2]), "{op:?} fired only at {at:?}; all: {fired:?}");
    }
}
