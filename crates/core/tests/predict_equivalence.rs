//! Property: the fast read path is bit-for-bit invisible. Two invariants
//! guard the rework:
//!
//!  * **Fused pair ≡ scalar.** The one multi-lane kernel, the fused
//!    two-tree pair descent the shard read path uses (packed descent
//!    words, sixteen queries per wave, software prefetch), must answer
//!    every query with exactly the bits the per-point scalar descent
//!    produces on each tree — for eager and lazy trees, pre- and
//!    post-compression, at every batch size including partial waves,
//!    with one tree empty, with the same tree twice, and for wide-mask
//!    trees.
//!
//!  * **CoW ≡ fresh freeze.** A snapshot republished by patching the
//!    previous frozen tree copy-on-write must be bit-identical — node
//!    stats, child topology, and predictions — to a freeze built from
//!    scratch, whether the interleaved feedback was value-only (patch
//!    applies) or structural (full-freeze fallback).
//!
//! Seeds come from `MLQ_PREDICT_SEED` (CI sweeps 25); on a mismatch the
//! scalar-vs-batch (or fresh-vs-patched) diff is written under
//! `target/predict-diff/` for the CI artifact upload.

use mlq_core::{BatchPlan, FrozenTree, InsertionStrategy, MemoryLimitedQuadtree, MlqConfig, Space};
use proptest::prelude::*;
use std::path::PathBuf;

const SIDE: f64 = 1000.0;

fn tree(
    dims: usize,
    budget: usize,
    strategy: InsertionStrategy,
    beta: u64,
) -> MemoryLimitedQuadtree {
    let space = Space::cube(dims, 0.0, SIDE).unwrap();
    let floor = MlqConfig::min_budget(&space, 4);
    let config = MlqConfig::builder(space)
        .memory_budget(budget.max(floor))
        .strategy(strategy)
        .lambda(4)
        .beta(beta)
        .build()
        .unwrap();
    MemoryLimitedQuadtree::new(config).unwrap()
}

fn harness_seed() -> u64 {
    std::env::var("MLQ_PREDICT_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x5EED)
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

    fn point(&mut self, dims: usize) -> Vec<f64> {
        (0..dims).map(|_| self.next_f64() * SIDE).collect()
    }
}

fn diff_artifact_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "../../target".into());
    PathBuf::from(target).join("predict-diff")
}

/// Writes `diff` under `target/predict-diff/<tag>.txt` and panics.
fn fail_with_diff(tag: &str, diff: &str) -> ! {
    let dir = diff_artifact_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{tag}.txt"));
    std::fs::write(&path, diff).ok();
    panic!("{diff}\n(diff written to {})", path.display());
}

/// Asserts the fused pair kernel answers, for both trees, exactly the
/// bits the scalar descent gives per query — at every batch size from an
/// empty batch and a lone query up through several full waves. Plans
/// are prepared at the wider of the two trees' packed levels, exactly
/// like the shard path. The plan and output buffers are reused across
/// calls, so stale-result clearing is exercised too.
fn assert_pair_matches_scalar(tag: &str, a: &FrozenTree, b: &FrozenTree, queries: &[Vec<f64>]) {
    let scalar = |f: &FrozenTree| -> Vec<Option<u64>> {
        queries.iter().map(|q| f.predict(q).unwrap().map(f64::to_bits)).collect()
    };
    let (a_scalar, b_scalar) = (scalar(a), scalar(b));
    let levels = a.packed_levels().max(b.packed_levels());
    let mut plan = BatchPlan::new();
    let (mut a_out, mut b_out) = (Vec::new(), Vec::new());
    // Prefix lengths cover empty batches, partial waves, exact waves, and
    // multi-wave batches without quadratic work.
    for len in (0..queries.len().min(18)).chain([queries.len()]) {
        let slice = &queries[..len];
        plan.prepare(&a.config().space, levels, slice).unwrap();
        FrozenTree::predict_planned_pair_into(a, b, &plan, &mut a_out, &mut b_out);
        for (name, f, want, got) in
            [("a", a, &a_scalar[..len], &a_out), ("b", b, &b_scalar[..len], &b_out)]
        {
            check_batch(&format!("{tag}-{name}"), f, slice, want, got);
        }
    }
}

fn check_batch(
    tag: &str,
    frozen: &FrozenTree,
    queries: &[Vec<f64>],
    scalar: &[Option<u64>],
    batch: &[Option<f64>],
) {
    let got: Vec<Option<u64>> = batch.iter().map(|p| p.map(f64::to_bits)).collect();
    if got == scalar {
        return;
    }
    let mut diff = format!(
        "fused pair vs scalar divergence: {tag} (batch of {}, {} nodes)\n",
        queries.len(),
        frozen.node_count()
    );
    for (i, q) in queries.iter().enumerate() {
        if got.get(i) != scalar.get(i) {
            diff.push_str(&format!(
                "query {i} {q:?}: batch {:?} != scalar {:?}\n",
                got.get(i),
                scalar.get(i)
            ));
        }
    }
    fail_with_diff(tag, &diff);
}

/// Asserts two frozen trees are bit-identical: same node stats in the
/// same slab order, same child topology, same root summary.
fn assert_bit_identical(tag: &str, fresh: &FrozenTree, patched: &FrozenTree) {
    let mut diff = String::new();
    if fresh.node_count() != patched.node_count() {
        diff.push_str(&format!(
            "node counts differ: fresh {} != patched {}\n",
            fresh.node_count(),
            patched.node_count()
        ));
    } else {
        if fresh.root_summary() != patched.root_summary() {
            diff.push_str(&format!(
                "root summaries differ: fresh {:?} != patched {:?}\n",
                fresh.root_summary(),
                patched.root_summary()
            ));
        }
        let fanout = fresh.config().space.fanout();
        for idx in 0..fresh.node_count() {
            let (fc, fa) = fresh.node_stats(idx);
            let (pc, pa) = patched.node_stats(idx);
            if fc != pc || fa.to_bits() != pa.to_bits() {
                diff.push_str(&format!(
                    "node {idx}: fresh (count {fc}, avg {fa:?}) != patched (count {pc}, avg {pa:?})\n"
                ));
            }
            for slot in 0..fanout {
                if fresh.child_of(idx, slot) != patched.child_of(idx, slot) {
                    diff.push_str(&format!("node {idx} slot {slot}: child topology differs\n"));
                }
            }
        }
    }
    if !diff.is_empty() {
        fail_with_diff(tag, &format!("CoW republication vs fresh freeze: {tag}\n{diff}"));
    }
}

fn arb_points(dims: usize) -> impl Strategy<Value = Vec<(Vec<f64>, f64)>> {
    prop::collection::vec((prop::collection::vec(0.0..SIDE, dims), 0.0..500.0f64), 1..120)
}

fn arb_queries(dims: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0..SIDE, dims), 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pair_matches_scalar_eager(
        data in arb_points(2),
        queries in arb_queries(2),
    ) {
        // A lazy sibling over the same points with other values, budget
        // and β drifts in shape, so lanes retire at different depths in
        // the two trees.
        let mut live = tree(2, 1 << 20, InsertionStrategy::Eager, 2);
        let mut sibling = tree(2, 1 << 16, InsertionStrategy::Lazy { alpha: 0.05 }, 3);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
            sibling.insert(p, v / 8.0).unwrap();
        }
        let all: Vec<Vec<f64>> =
            queries.iter().chain(data.iter().map(|(p, _)| p)).cloned().collect();
        assert_pair_matches_scalar("proptest-eager", &live.freeze(), &sibling.freeze(), &all);
    }

    #[test]
    fn pair_matches_scalar_lazy_under_compression(
        data in arb_points(2),
        queries in arb_queries(2),
    ) {
        // Budget at the floor: compression keeps evicting, so batches run
        // against heavily restructured trees.
        let mut live = tree(2, 0, InsertionStrategy::Lazy { alpha: 0.05 }, 1);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
        }
        let frozen = live.freeze();
        assert_pair_matches_scalar("proptest-lazy-compressed", &frozen, &frozen, &queries);
    }

    #[test]
    fn cow_republication_matches_fresh_freeze(
        data in arb_points(2),
        extra in arb_points(2),
        queries in arb_queries(2),
    ) {
        let mut live = tree(2, 1 << 20, InsertionStrategy::Eager, 2);
        for (p, v) in &data {
            live.insert(p, *v).unwrap();
        }
        let mut prev = live.freeze();
        // Round 1: re-observe known points — value-only updates, so the
        // patch path applies. Round 2: fresh points may add structure,
        // forcing the full-freeze fallback. Both must be invisible.
        let reinserts: Vec<(Vec<f64>, f64)> =
            data.iter().take(8).map(|(p, v)| (p.clone(), v + 1.0)).collect();
        for round in [reinserts, extra] {
            for (p, v) in &round {
                live.insert(p, *v).unwrap();
            }
            let patched = live.refreeze(&prev);
            assert_bit_identical("proptest-cow", &live.freeze(), &patched);
            assert_pair_matches_scalar("proptest-cow-batch", &patched, &prev, &queries);
            prev = patched;
        }
    }
}

/// The shard read path descends a CPU and an IO tree fused in one wave —
/// two trees over the same space whose values and structure diverge
/// (different values drive different `th_SSE` split decisions, different
/// β changes descent termination). The fused pair kernel must equal the
/// scalar descent on each tree exactly, including when one side is
/// empty, both sides are the same tree, or the masks are wide.
#[test]
fn pair_kernel_matches_scalar_per_tree() {
    let seed = harness_seed();
    // d = 6 is the widest space whose fanout still fits the inline mask.
    for dims in [1usize, 2, 3, 4, 6] {
        let tag = format!("pair-seed-{seed}-d{dims}");
        let mut rng = SplitMix64(seed ^ 0x9A12 ^ ((dims as u64) << 16));
        let mut cpu = tree(dims, 1 << 20, InsertionStrategy::Eager, 2);
        let mut io = tree(dims, 1 << 16, InsertionStrategy::Lazy { alpha: 0.05 }, 3);
        for _ in 0..300 {
            let p = rng.point(dims);
            cpu.insert(&p, rng.next_f64() * 100.0).unwrap();
            // The IO tree sees the same points with different values and
            // a tighter budget, so its shape drifts from the CPU tree's.
            io.insert(&p, rng.next_f64()).unwrap();
        }
        let queries: Vec<Vec<f64>> = (0..60).map(|_| rng.point(dims)).collect();
        let (cpu, io) = (cpu.freeze(), io.freeze());
        assert_pair_matches_scalar(&tag, &cpu, &io, &queries);
        assert_pair_matches_scalar(&format!("{tag}-same"), &cpu, &cpu, &queries);

        // Exactly one empty side takes the kernel's scalar fallback, in
        // either position.
        let empty = tree(dims, 1 << 16, InsertionStrategy::Eager, 2).freeze();
        assert_pair_matches_scalar(&format!("{tag}-empty-b"), &cpu, &empty, &queries);
        assert_pair_matches_scalar(&format!("{tag}-empty-a"), &empty, &io, &queries);
    }

    // Wide fanout (d = 7) exceeds the inline mask; the pair kernel must
    // fall back to the scalar wide-mask walk on both trees.
    let mut rng = SplitMix64(seed ^ 0x0009_A127);
    let mut a = tree(7, 1 << 20, InsertionStrategy::Eager, 2);
    let mut b = tree(7, 1 << 20, InsertionStrategy::Eager, 2);
    for _ in 0..150 {
        let p = rng.point(7);
        a.insert(&p, rng.next_f64() * 10.0).unwrap();
        b.insert(&p, rng.next_f64() * 1000.0).unwrap();
    }
    let queries: Vec<Vec<f64>> = (0..40).map(|_| rng.point(7)).collect();
    assert_pair_matches_scalar("pair-wide", &a.freeze(), &b.freeze(), &queries);
}

/// Fanout 128 (d = 7) exceeds one 64-bit inline mask, so the frozen tree
/// takes the wide-mask slab path and the pair kernel falls back to
/// scalar descent per query — which still must match exactly.
#[test]
fn wide_fanout_batches_match_scalar() {
    let mut rng = SplitMix64(harness_seed() ^ 0x71DE);
    let mut live = tree(7, 1 << 20, InsertionStrategy::Eager, 2);
    for _ in 0..200 {
        let p = rng.point(7);
        live.insert(&p, (rng.next_u64() % 1000) as f64).unwrap();
    }
    let queries: Vec<Vec<f64>> = (0..50).map(|_| rng.point(7)).collect();
    let frozen = live.freeze();
    assert_pair_matches_scalar("wide-fanout", &frozen, &frozen, &queries);
}

/// The seeded sweep CI loops over: a feedback stream driven through
/// freeze → observe → republish rounds, with the CoW snapshot chain and
/// the pair kernel (each snapshot paired with its predecessor) checked
/// against scalar ground truth every round.
#[test]
fn seeded_stream_stays_equivalent_across_republications() {
    let seed = harness_seed();
    for dims in [2usize, 4] {
        for (si, strategy) in
            [InsertionStrategy::Eager, InsertionStrategy::Lazy { alpha: 0.05 }].iter().enumerate()
        {
            let tag = format!("seed-{seed}-d{dims}-s{si}");
            let mut rng = SplitMix64(seed ^ ((dims as u64) << 8) ^ si as u64);
            let mut live = tree(dims, 1 << 18, *strategy, 2);
            let mut inserted: Vec<Vec<f64>> = Vec::new();
            let mut prev: Option<FrozenTree> = None;
            for _round in 0..6 {
                // A mix of fresh points and re-observations of old ones,
                // so rounds alternate between patchable and structural.
                for _ in 0..40 {
                    let p = if !inserted.is_empty() && rng.next_u64().is_multiple_of(3) {
                        inserted[(rng.next_u64() as usize) % inserted.len()].clone()
                    } else {
                        rng.point(dims)
                    };
                    live.insert(&p, (rng.next_u64() % 4000) as f64 / 8.0).unwrap();
                    inserted.push(p);
                }
                let frozen = match &prev {
                    Some(p) => live.refreeze(p),
                    None => live.freeze(),
                };
                assert_bit_identical(&tag, &live.freeze(), &frozen);
                let queries: Vec<Vec<f64>> = (0..30)
                    .map(|_| rng.point(dims))
                    .chain(inserted.iter().rev().take(20).cloned())
                    .collect();
                assert_pair_matches_scalar(
                    &tag,
                    &frozen,
                    prev.as_ref().unwrap_or(&frozen),
                    &queries,
                );
                prev = Some(frozen);
            }
        }
    }
}

/// Republishing through the CoW chain shares untouched chunks with the
/// previous snapshot — the memory/latency claim behind `refreeze` —
/// while a fresh freeze shares nothing.
#[test]
fn cow_chain_shares_chunks_with_predecessor() {
    let mut rng = SplitMix64(harness_seed() ^ 0xC057);
    let mut live = tree(2, 1 << 20, InsertionStrategy::Eager, 2);
    let points: Vec<Vec<f64>> = (0..600).map(|_| rng.point(2)).collect();
    for p in &points {
        live.insert(p, 7.0).unwrap();
    }
    let prev = live.freeze();
    // Value-only round: re-observe one known point.
    live.insert(&points[0], 9.5).unwrap();
    let patched = live.refreeze(&prev);
    assert!(
        patched.shared_chunks(&prev) > 0,
        "value-only republication should share chunks with its predecessor"
    );
    assert_bit_identical("cow-chain", &live.freeze(), &patched);
    let fresh = live.freeze();
    assert_eq!(fresh.shared_chunks(&prev), 0, "a fresh freeze shares no chunks");
}
