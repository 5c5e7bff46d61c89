//! Merge-equivalence of the replicated estimator tier.
//!
//! The load-bearing invariant: after anti-entropy converges, **every**
//! replica's predictions are bit-identical to a single estimator fed the
//! union of all replicas' feedback streams in stream order
//! (pre-compression). The harness drives seeded workloads through
//! seeded interleavings of feeding, stepping, and mid-stream sync
//! rounds — with and without injected storage faults on the replicas'
//! write-ahead journals — and proves the invariant at the end.
//!
//! Costs are dyadic rationals (multiples of 1/8) so the summary sums
//! are exact in f64 regardless of merge order; budgets are generous so
//! nothing compresses. Both are required for *bit* equality — with
//! arbitrary costs or tight budgets the merge is still statistically
//! exact, just not bit-for-bit.
//!
//! Seeds come from `MLQ_REPLICATION_SEED` (CI sweeps 25); on an
//! equivalence failure the merged-vs-reference diff is written under
//! `target/replication-diff/` for the CI artifact upload.

use mlq_core::GuardConfig;
use mlq_serve::{
    ConcurrentEstimator, DurabilityConfig, DurabilityStatus, MaintainerMode, ReplicaGroup,
    ReplicaGroupConfig, RetryPolicy, ServeConfig,
};
use mlq_storage::FaultConfig;
use mlq_udfs::ExecutionCost;
use proptest::prelude::*;
use std::path::PathBuf;
use std::time::Duration;

const NAMES: [&str; 2] = ["ALPHA", "BETA"];
const REPLICAS: usize = 3;
/// Observations in the union stream.
const STREAM_LEN: usize = 180;

fn space() -> mlq_core::Space {
    mlq_core::Space::cube(2, 0.0, 100.0).unwrap()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        maintainer: MaintainerMode::Manual,
        // Generous budget: bit-exact equivalence requires that neither
        // the live models nor the merge base ever compress.
        budget_per_model: 1 << 20,
        // An effectively infinite MAD multiplier disables outlier
        // quarantine: equivalence needs every replica and the reference
        // to absorb the identical observation set, whereas quarantine
        // decisions depend on each replica's local window.
        guard: GuardConfig { mad_k: 1e9, ..GuardConfig::default() },
        ..ServeConfig::default()
    }
}

fn group_config(maintainer: MaintainerMode) -> ReplicaGroupConfig {
    ReplicaGroupConfig {
        replicas: REPLICAS,
        serve: ServeConfig { maintainer, ..serve_config() },
        delta_budget: 1 << 20,
        sync_interval: Duration::from_millis(20),
    }
}

fn build_group(config: ReplicaGroupConfig) -> ReplicaGroup {
    let mut b = ReplicaGroup::builder(config);
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    b.build().unwrap()
}

fn harness_seed() -> u64 {
    std::env::var("MLQ_REPLICATION_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED)
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

struct Obs {
    replica: usize,
    shard: usize,
    point: [f64; 2],
    cost: ExecutionCost,
}

/// A seeded union stream. Which replica receives each observation is
/// part of the seed — the partition is arbitrary, the union is what
/// must be reproduced. Costs are dyadic so merged sums are exact.
fn workload(seed: u64, n: usize) -> Vec<Obs> {
    let mut rng = SplitMix64(seed);
    (0..n)
        .map(|_| Obs {
            replica: (rng.next_u64() % REPLICAS as u64) as usize,
            shard: (rng.next_u64() % NAMES.len() as u64) as usize,
            point: [rng.next_f64() * 100.0, rng.next_f64() * 100.0],
            cost: ExecutionCost {
                cpu: (1 + rng.next_u64() % 160) as f64 / 8.0,
                io: (1 + rng.next_u64() % 64) as f64 / 8.0,
                results: 1 + rng.next_u64() % 100,
            },
        })
        .collect()
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

/// Ground truth: a single (non-replicated) estimator fed the whole union
/// stream in stream order.
fn reference_predictions(stream: &[Obs]) -> Vec<Vec<Option<u64>>> {
    let mut b = ConcurrentEstimator::builder(serve_config());
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    let svc = b.build().unwrap();
    for o in stream {
        svc.observe(NAMES[o.shard], &o.point, o.cost).unwrap();
    }
    svc.flush();
    let preds = predictions(&svc);
    svc.shutdown();
    preds
}

fn diff_artifact_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "../../target".into());
    PathBuf::from(target).join("replication-diff")
}

/// Asserts bit-identical predictions; on mismatch writes the full diff
/// to `target/replication-diff/<tag>.txt` before panicking.
fn assert_equivalent(tag: &str, merged: &[Vec<Option<u64>>], reference: &[Vec<Option<u64>>]) {
    if merged == reference {
        return;
    }
    let mut diff = format!("merge equivalence failure: {tag}\n");
    for (s, name) in NAMES.iter().enumerate() {
        for (i, p) in probe_points().iter().enumerate() {
            let (got, want) = (merged[s][i], reference[s][i]);
            if got != want {
                diff.push_str(&format!(
                    "shard {name} probe {p:?}: merged {got:?} != reference {want:?}\n"
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

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlq_replication_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Drives `stream` into `group` under a seeded interleaving: each
/// observation goes to its home replica; replicas are stepped at seeded
/// moments; several anti-entropy rounds run mid-stream. Ends converged:
/// every queue drained, one final round.
fn feed_interleaved(group: &ReplicaGroup, stream: &[Obs], seed: u64) {
    let mut rng = SplitMix64(seed ^ 0x1717);
    for (i, o) in stream.iter().enumerate() {
        group.replica(o.replica).observe(NAMES[o.shard], &o.point, o.cost).unwrap();
        // Step a random replica about every other observation, by a
        // random amount — queues drain unevenly, like real traffic.
        if rng.next_u64().is_multiple_of(2) {
            let victim = (rng.next_u64() % REPLICAS as u64) as usize;
            let max = 1 + (rng.next_u64() % 8) as usize;
            group.replica(victim).step(max).unwrap();
        }
        // A few mid-stream anti-entropy rounds at seeded positions.
        if i > 0 && i % (STREAM_LEN / 4) == 0 {
            group.sync().unwrap();
        }
    }
    group.flush();
    let report = group.sync().unwrap();
    assert!(!report.skipped || report.merged_observations == 0);
}

/// The keystone invariant, swept across 25 seeds in CI: N merged
/// replicas ≡ one estimator fed the union stream, bit for bit, on every
/// replica.
#[test]
fn merged_replicas_match_union_stream_reference() {
    let seed = harness_seed();
    let stream = workload(seed, STREAM_LEN);
    let group = build_group(group_config(MaintainerMode::Manual));
    feed_interleaved(&group, &stream, seed);

    let reference = reference_predictions(&stream);
    for r in 0..REPLICAS {
        let got = predictions(group.replica(r));
        assert_equivalent(&format!("seed{seed}_replica{r}"), &got, &reference);
    }
    let report = group.shutdown().unwrap();
    assert_eq!(report.final_sync.merged_observations, 0, "everything was already synced");
    assert_eq!(report.replicas.len(), REPLICAS);
}

/// Same invariant with transient storage faults injected into every
/// replica's write-ahead journal: retries absorb the faults, the local
/// guard/WAL path stays intact, and the merged tier still reproduces
/// the union stream bit-identically.
#[test]
fn merged_replicas_match_union_under_storage_faults() {
    let seed = harness_seed() ^ 0xFA17;
    let stream = workload(seed, STREAM_LEN);
    let dir = temp_dir("faults");

    let mut b = ReplicaGroup::builder(group_config(MaintainerMode::Manual));
    for name in NAMES {
        b = b.register(name, &space()).unwrap();
    }
    for r in 0..REPLICAS {
        let mut dconfig = DurabilityConfig::new(dir.join(format!("replica-{r}")));
        dconfig.checkpoint_every = 2;
        dconfig.fault = Some(FaultConfig {
            seed: seed ^ r as u64,
            write_error_rate: 0.2,
            torn_write_rate: 0.15,
            sync_error_rate: 0.15,
            rename_error_rate: 0.15,
            ..FaultConfig::none()
        });
        dconfig.retry = RetryPolicy { max_retries: 64, backoff: Duration::ZERO };
        b = b.with_replica_durability(r, dconfig).unwrap();
    }
    let group = b.build().unwrap();
    feed_interleaved(&group, &stream, seed);

    let reference = reference_predictions(&stream);
    for r in 0..REPLICAS {
        assert_eq!(group.replica(r).durability_status(), DurabilityStatus::Active);
        let got = predictions(group.replica(r));
        assert_equivalent(&format!("faults_seed{seed}_replica{r}"), &got, &reference);
    }
    group.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The background tier (replica maintainer threads + anti-entropy
/// scheduler) converges to the same invariant once shut down: shutdown joins the
/// threads, drains every queue, and runs the final round.
#[test]
fn background_group_converges_on_shutdown() {
    let seed = harness_seed() ^ 0xB6;
    let stream = workload(seed, STREAM_LEN);
    let mut config = group_config(MaintainerMode::Background);
    config.sync_interval = Duration::from_millis(5);
    let group = build_group(config);
    for o in &stream {
        group.replica(o.replica).observe(NAMES[o.shard], &o.point, o.cost).unwrap();
    }
    let report = group.shutdown().expect("first shutdown returns the report");
    assert!(group.shutdown().is_none(), "shutdown is idempotent");

    let reference = reference_predictions(&stream);
    for r in 0..REPLICAS {
        let got = predictions(group.replica(r));
        assert_equivalent(&format!("background_seed{seed}_replica{r}"), &got, &reference);
    }
    let applied: u64 =
        report.replicas.iter().flat_map(|r| r.shards.iter().map(|(_, c)| c.applied)).sum();
    assert_eq!(applied, STREAM_LEN as u64, "every observation was absorbed somewhere");
}

/// Merged models ship through the CRC-32 envelope, whose round trip is
/// value-exact: the shipped replicas match the reference bit for bit,
/// and every shipped byte is accounted.
#[test]
fn envelope_shipping_is_bit_exact_and_counted() {
    let seed = harness_seed() ^ 0xE27;
    let stream = workload(seed, STREAM_LEN);
    let reference = reference_predictions(&stream);
    let group = build_group(group_config(MaintainerMode::Manual));
    feed_interleaved(&group, &stream, seed);
    for r in 0..REPLICAS {
        let got = predictions(group.replica(r));
        assert_equivalent(&format!("envelope_seed{seed}_replica{r}"), &got, &reference);
    }
    let shipped = group.metrics().counter("mlq_serve_replica_envelope_bytes").unwrap_or(0);
    assert!(shipped > 0, "shipped envelope bytes must be accounted");
    group.shutdown();
}

/// The `mlq_serve_replica_*` series and the labeled per-replica registry
/// views tell the anti-entropy story end to end.
#[test]
fn replica_metrics_expose_sync_rounds_and_labeled_views() {
    let seed = harness_seed() ^ 0x3E7;
    let stream = workload(seed, STREAM_LEN);
    let group = build_group(group_config(MaintainerMode::Manual));
    feed_interleaved(&group, &stream, seed);

    let metrics = group.metrics();
    let syncs = metrics.counter("mlq_serve_replica_syncs").unwrap();
    assert!(syncs >= 4, "mid-stream rounds plus the final one, got {syncs}");
    assert_eq!(
        metrics.counter("mlq_serve_replica_merged_observations"),
        Some(STREAM_LEN as u64),
        "every absorbed observation is folded exactly once"
    );
    assert_eq!(metrics.counter("mlq_serve_replica_installs"), Some(syncs * REPLICAS as u64));
    assert_eq!(metrics.gauge("mlq_serve_replica_count"), Some(REPLICAS as f64));
    assert!(metrics.histogram("mlq_serve_replica_sync_nanos").unwrap().count() >= syncs);
    // Per-replica delta tallies cover the whole stream.
    let mut delta_total = 0;
    for r in 0..REPLICAS {
        let label = r.to_string();
        delta_total += metrics
            .counter_labeled("mlq_serve_replica_delta_observations", &[("replica", &label)])
            .unwrap();
        // Each replica's own serving metrics surface relabeled.
        let processed =
            metrics.counter_labeled("mlq_serve_processed", &[("replica", &label)]).unwrap();
        let home: u64 = stream.iter().filter(|o| o.replica == r).count() as u64;
        assert_eq!(processed, home, "replica {r} processed exactly its partition");
    }
    assert_eq!(delta_total, STREAM_LEN as u64);
    group.shutdown();
}

/// Misconfigurations fail loudly, not at sync time.
#[test]
fn replication_requires_delta_tracking_and_a_live_service() {
    // take_deltas / install_models without delta tracking.
    let svc = ConcurrentEstimator::builder(serve_config())
        .register("X", &space())
        .unwrap()
        .build()
        .unwrap();
    assert!(svc.take_deltas().is_err());
    assert!(svc.install_models(Vec::new()).is_err());
    svc.shutdown();

    // A background-maintainer service serves the replication half-steps
    // while live and refuses them once shut down.
    let svc = ConcurrentEstimator::builder(ServeConfig::default())
        .with_delta_tracking(1 << 16)
        .register("X", &space())
        .unwrap()
        .build()
        .unwrap();
    assert_eq!(svc.take_deltas().unwrap().len(), 1);
    svc.shutdown();
    assert!(svc.take_deltas().is_err());

    // Group-level validation.
    let empty = ReplicaGroup::builder(group_config(MaintainerMode::Manual)).build();
    assert!(empty.is_err(), "no registered UDFs");
    let zero = ReplicaGroup::builder(ReplicaGroupConfig {
        replicas: 0,
        ..group_config(MaintainerMode::Manual)
    })
    .register("X", &space())
    .and_then(mlq_serve::ReplicaGroupBuilder::build);
    assert!(zero.is_err(), "zero replicas");
    let out_of_range = ReplicaGroup::builder(group_config(MaintainerMode::Manual))
        .with_replica_durability(REPLICAS, DurabilityConfig::new(temp_dir("oob")));
    assert!(out_of_range.is_err(), "durability index out of range");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merge equivalence holds across arbitrary seeds, stream lengths,
    /// and interleavings — not just the harness defaults.
    #[test]
    fn merge_equivalence_holds_for_arbitrary_seeds(
        seed in 0u64..1u64 << 48,
        len in 40usize..160,
    ) {
        let stream = workload(seed, len);
        let group = build_group(group_config(MaintainerMode::Manual));
        let mut rng = SplitMix64(seed ^ 0xABCD);
        for o in &stream {
            group.replica(o.replica).observe(NAMES[o.shard], &o.point, o.cost).unwrap();
            if rng.next_u64().is_multiple_of(3) {
                let victim = (rng.next_u64() % REPLICAS as u64) as usize;
                group.replica(victim).step(4).unwrap();
            }
            if rng.next_u64().is_multiple_of(37) {
                group.sync().unwrap();
            }
        }
        group.flush();
        group.sync().unwrap();
        let reference = reference_predictions(&stream);
        for r in 0..REPLICAS {
            let got = predictions(group.replica(r));
            prop_assert_eq!(&got, &reference, "replica {} diverged (seed {})", r, seed);
        }
        group.shutdown();
    }
}
