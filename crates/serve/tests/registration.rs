//! What registration builds and what it refuses.
//!
//! Every registered UDF gets the paper's model pair (§1): a CPU model
//! with `β = 1` and an IO model with `β = 10`, both lazy. Names are the
//! shard keys, so registering one twice is a configuration error on both
//! the single service and the replica group, and so is asking for a name
//! that was never registered.

use mlq_core::{InsertionStrategy, MlqError, Space};
use mlq_serve::{
    ConcurrentEstimator, MaintainerMode, ReplicaGroup, ReplicaGroupConfig, ServeConfig,
};
use mlq_udfs::ExecutionCost;

fn space() -> Space {
    Space::cube(2, 0.0, 1000.0).expect("space")
}

fn manual_config() -> ServeConfig {
    ServeConfig {
        maintainer: MaintainerMode::Manual,
        budget_per_model: 1 << 15,
        ..ServeConfig::default()
    }
}

#[test]
fn per_kind_betas_follow_the_paper() {
    let svc = ConcurrentEstimator::builder(manual_config())
        .register("F", &space())
        .expect("register")
        .build()
        .expect("build");
    svc.observe("F", &[1.0, 1.0], ExecutionCost { cpu: 10.0, io: 10.0, results: 0 })
        .expect("observe");
    svc.observe("F", &[999.0, 999.0], ExecutionCost { cpu: 90.0, io: 90.0, results: 0 })
        .expect("observe");
    assert_eq!(svc.step(usize::MAX).expect("step"), 2);

    let snap = svc.snapshot("F").expect("snapshot");
    assert_eq!(snap.counters().applied, 2);
    let (cpu, io) = snap.components();
    for (component, beta) in [(cpu, 1), (io, 10)] {
        let config = component.tree().config();
        assert_eq!(config.beta, beta);
        assert_eq!(config.strategy, InsertionStrategy::Lazy { alpha: 0.05 });
    }
    // The CPU model (β = 1) localizes at once: opposite corners answer
    // differently.
    let cpu_a = cpu.predict(&[1.0, 1.0]).expect("predict").expect("informed");
    let cpu_b = cpu.predict(&[999.0, 999.0]).expect("predict").expect("informed");
    assert_ne!(cpu_a, cpu_b);
    // The IO model (β = 10) needs ten points before it descends below the
    // root, so both corners still read the root average of 50.
    for corner in [[1.0, 1.0], [999.0, 999.0]] {
        let io_v = io.predict(&corner).expect("predict").expect("informed");
        assert!((io_v - 50.0).abs() < 1e-9, "IO at {corner:?} read {io_v}");
    }
    svc.shutdown();
}

#[test]
fn service_builder_rejects_a_duplicate_name() {
    let err = ConcurrentEstimator::builder(manual_config())
        .register("F", &space())
        .expect("first registration")
        .register("F", &space())
        .err()
        .expect("a second F must be refused");
    assert!(matches!(err, MlqError::InvalidConfig { .. }), "got {err:?}");
}

#[test]
fn service_refuses_unregistered_names() {
    let svc = ConcurrentEstimator::builder(manual_config())
        .register("F", &space())
        .expect("register")
        .build()
        .expect("build");
    let errors = [
        svc.predict("G", &[1.0, 1.0]).err(),
        svc.observe("G", &[1.0, 1.0], ExecutionCost::default()).err(),
        svc.snapshot("G").err(),
    ];
    for err in errors {
        assert!(matches!(err, Some(MlqError::InvalidConfig { .. })), "got {err:?}");
    }
    svc.shutdown();
}

#[test]
fn replica_builder_rejects_a_duplicate_name() {
    let config = ReplicaGroupConfig { serve: manual_config(), ..ReplicaGroupConfig::default() };
    let err = ReplicaGroup::builder(config)
        .register("F", &space())
        .expect("first registration")
        .register("F", &space())
        .err()
        .expect("a second F must be refused");
    assert!(matches!(err, MlqError::InvalidConfig { .. }), "got {err:?}");
}
