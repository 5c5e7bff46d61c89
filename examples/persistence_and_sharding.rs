//! Operating MLQ like optimizer statistics: fold per-connection shard
//! models into one, persist it as a checksummed snapshot envelope and
//! restore it in a "new process", and replay a recorded workload trace
//! against a fresh configuration.
//!
//! Run with: `cargo run --release --example persistence_and_sharding`

use mlq_core::{InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space, TreeSnapshot};
use mlq_experiments::trace::WorkloadTrace;
use mlq_synth::{CostSurface, QueryDistribution, SyntheticUdf};

fn config(space: &Space) -> MlqConfig {
    MlqConfig::builder(space.clone())
        .memory_budget(4096)
        .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
        .build()
        .expect("valid config")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let space = Space::cube(2, 0.0, 1000.0)?;
    let udf = SyntheticUdf::builder(space.clone()).peaks(40).seed(11).build();

    // --- 1. Sharded training: two "connections" observe disjoint streams.
    let mut shard_a = MemoryLimitedQuadtree::new(config(&space))?;
    let mut shard_b = MemoryLimitedQuadtree::new(config(&space))?;
    let workload = QueryDistribution::paper_gaussian_random().generate(&space, 4000, 21);
    let mut trace = WorkloadTrace::new("gauss-random over 40-peak surface, seed 21");
    for (i, q) in workload.iter().enumerate() {
        let actual = udf.cost(q);
        trace.record(q, actual);
        if i % 2 == 0 {
            shard_a.insert(q, actual)?;
        } else {
            shard_b.insert(q, actual)?;
        }
    }
    println!(
        "shard A: {} observations in {} nodes; shard B: {} in {}",
        shard_a.root_summary().count,
        shard_a.node_count(),
        shard_b.root_summary().count,
        shard_b.node_count(),
    );

    // --- 2. Merge into one model (summaries are additive).
    let report = shard_a.merge_from(&shard_b)?;
    println!(
        "merged model: {} observations, {} nodes (compression: {:?})",
        shard_a.root_summary().count,
        shard_a.node_count(),
        report,
    );

    // --- 3. Persist as a snapshot envelope and restore ("optimizer
    //        restart"). The envelope is CRC-checked on the way back in.
    let snapshot = shard_a.snapshot();
    let bytes = snapshot.to_envelope();
    println!(
        "snapshot: {} nodes sealed into a {}-byte envelope",
        snapshot.node_count(),
        bytes.len()
    );
    let restored = MemoryLimitedQuadtree::from_snapshot(&TreeSnapshot::from_envelope(&bytes)?)?;
    let probe = &workload[17];
    assert_eq!(restored.predict(probe)?, shard_a.predict(probe)?);
    println!("restored model answers identically at a probe point");

    // --- 4. Replay the recorded trace against a different configuration
    //        (what-if tuning without re-running the workload).
    for (label, strategy) in
        [("eager", InsertionStrategy::Eager), ("lazy ", InsertionStrategy::Lazy { alpha: 0.05 })]
    {
        let mut what_if = MemoryLimitedQuadtree::new(
            MlqConfig::builder(space.clone()).memory_budget(1800).strategy(strategy).build()?,
        )?;
        let nae = trace.replay(&mut what_if)?.expect("trace has positive costs");
        println!(
            "replayed {} observations against a 1.8 KB {} model: NAE {:.3}, {} compressions",
            trace.len(),
            label,
            nae,
            what_if.counters().compressions,
        );
    }
    Ok(())
}
