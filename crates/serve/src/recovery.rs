//! Checkpointing and crash recovery for the serving tier.
//!
//! A checkpoint captures one shard's *complete* mutable state — both
//! component trees through the PR-1 snapshot envelope, plus both guards'
//! [`GuardState`] — so a restored shard is behaviorally bit-identical to
//! the live shard at the captured sequence number: same predictions
//! (including the running-average fallback for uninformed regions) and
//! the same future quarantine and breaker decisions during replay.
//!
//! ## On-disk layout
//!
//! Checkpoints are *generation* numbered; per shard, generation `G`
//! consists of three files under the durability directory, beside the
//! one journal every shard shares:
//!
//! ```text
//! {stem}.{G}.cpu.mlqs   CPU tree, PR-1 snapshot envelope
//! {stem}.{G}.io.mlqs    IO tree, PR-1 snapshot envelope
//! {stem}.{G}.meta       sealed frame: name, generation, sequence
//!                       number, both guard states
//! feedback.journal      the service-wide feedback journal (see wal.rs)
//! ```
//!
//! The meta file is written last, through a temporary and an atomic
//! rename — it *publishes* the generation. A crash between the tree
//! files and the meta leaves a headless generation that recovery never
//! looks at. Recovery tries generations newest first and settles on the
//! first one whose meta and both tree files all verify; the previous
//! generation is retained after every checkpoint precisely so that bit
//! rot in the newest one degrades recovery ("corrupt-recovered") instead
//! of losing the shard. Anything older is pruned.
//!
//! ## Retired formats
//!
//! An artifact that is intact but in a format this build does not read
//! is reported as [`RestoreKind::VersionMismatch`], never as corruption:
//!
//! - a meta frame or tree envelope of another version (such as the JSON
//!   version-1 envelope) rejects its generation, so the shard is served
//!   from the newest generation that verifies, or fresh if none does;
//! - a `{stem}.wal` per-shard journal, which builds before the shared
//!   journal wrote, is not replayed and is left on disk; the shard is
//!   served from its checkpoint and `detail` names the file.
//!
//! ## Recovery protocol
//!
//! 1. Discover shards by their `{stem}.{G}.meta` files.
//! 2. Per shard, load the newest fully valid generation.
//! 3. Scan the journal's valid prefix once, routing each record to its
//!    shard by the name table; per shard, keep the contiguous run of
//!    records with sequence numbers greater than the checkpoint's.
//! 4. Replay that run through the normal guarded-apply path (the caller
//!    does this, with the imported guard states, so replay decisions are
//!    exactly the live decisions).
//! 5. Write a fresh checkpoint of every shard, then truncate the journal,
//!    so a crash during recovery itself still recovers from the old
//!    state.

use crate::wal::{
    read_journal, shard_stem, write_file_durable, ByteReader, CrashOp, DurabilityIo, WalError,
    WalRecord, JOURNAL_FILE,
};
use mlq_core::{
    open_frame, seal_frame, BreakerState, GuardCounters, GuardState, MemoryLimitedQuadtree,
    MlqError, Summary, TreeSnapshot,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Magic bytes of the checkpoint metadata frame.
const META_MAGIC: [u8; 4] = *b"MLQM";

/// Metadata frame version written by this build.
const META_VERSION: u32 = 2;

/// Sanity bound on the shard-name field of a meta frame.
const MAX_NAME_LEN: usize = 4096;

/// Sanity bound on a persisted guard window.
const MAX_WINDOW_LEN: usize = 1 << 20;

/// How a shard came back at startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreKind {
    /// The newest checkpoint generation verified and was restored.
    Restored,
    /// No durable state existed; the shard started fresh.
    Fresh,
    /// The newest durable state failed verification; an older generation
    /// (or a fresh model) served as the fallback.
    CorruptRecovered,
    /// Recovery passed over an intact artifact in a format this build
    /// does not read: a generation of another version (an older one, or
    /// a fresh model, served instead) or a retired per-shard journal
    /// (not replayed). Takes precedence over `CorruptRecovered`.
    VersionMismatch,
}

impl RestoreKind {
    /// Stable label used for the `mlq_serve_restore_outcome` metric.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RestoreKind::Restored => "restored",
            RestoreKind::Fresh => "fresh",
            RestoreKind::CorruptRecovered => "corrupt_recovered",
            RestoreKind::VersionMismatch => "version_mismatch",
        }
    }
}

/// What recovery did for one shard.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    /// Shard (UDF) name.
    pub name: String,
    /// How the shard came back.
    pub kind: RestoreKind,
    /// Sequence number the restored checkpoint covered.
    pub checkpoint_seq: u64,
    /// Journal records replayed on top of the checkpoint.
    pub replayed: u64,
    /// Highest sequence number reflected in the recovered models.
    pub recovered_seq: u64,
    /// Human-readable notes: which generation, what was passed over and
    /// why, journal tail state.
    pub detail: String,
}

/// Full account of one recovery pass, in shard-name order.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Per-shard outcomes.
    pub shards: Vec<ShardRecovery>,
}

/// A shard reconstructed from disk, before guard wrapping and replay.
pub(crate) struct RecoveredShard {
    pub name: String,
    pub cpu: MemoryLimitedQuadtree,
    pub io: MemoryLimitedQuadtree,
    pub cpu_guard: GuardState,
    pub io_guard: GuardState,
    pub checkpoint_seq: u64,
    pub generation: u64,
    /// Contiguous journal tail to replay, sequence numbers ascending
    /// from `checkpoint_seq + 1`.
    pub records: Vec<WalRecord>,
    pub kind: RestoreKind,
    pub detail: String,
}

/// Everything a durability directory yielded.
pub(crate) struct DirRecovery {
    pub shards: Vec<RecoveredShard>,
    /// Stems with no generation that could be restored, so no model or
    /// configuration could be reconstructed: `(stem, kind, reason)`,
    /// `kind` being `CorruptRecovered` or `VersionMismatch`.
    pub unreadable: Vec<(String, RestoreKind, String)>,
}

/// Why a generation was passed over: the [`RestoreKind`] it makes the
/// shard's outcome, and a reason for the report.
type Rejection = (RestoreKind, String);

/// The outcome an artifact that failed to open with `e` gives its shard:
/// a version mismatch for an intact artifact of another format version,
/// corruption for anything else.
fn rejection_kind(e: &MlqError) -> RestoreKind {
    match e {
        MlqError::VersionMismatch { .. } => RestoreKind::VersionMismatch,
        _ => RestoreKind::CorruptRecovered,
    }
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn encode_guard(out: &mut Vec<u8>, g: &GuardState) {
    out.push(match g.breaker {
        BreakerState::Closed => 0,
        BreakerState::Open => 1,
        BreakerState::HalfOpen => 2,
    });
    out.extend_from_slice(&(g.window.len() as u32).to_le_bytes());
    for &v in &g.window {
        put_f64(out, v);
    }
    put_f64(out, g.fallback.sum);
    out.extend_from_slice(&g.fallback.count.to_le_bytes());
    put_f64(out, g.fallback.sum_sq);
    out.extend_from_slice(&g.consecutive_failures.to_le_bytes());
    out.extend_from_slice(&g.open_ops.to_le_bytes());
    out.extend_from_slice(&g.half_open_successes.to_le_bytes());
    out.extend_from_slice(&g.accepted.to_le_bytes());
    for c in [
        g.counters.quarantined,
        g.counters.clamped_points,
        g.counters.rejected_points,
        g.counters.inner_errors,
        g.counters.trips,
        g.counters.probes,
        g.counters.fallback_predictions,
        g.counters.invariant_failures,
        g.counters.regime_resets,
    ] {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.extend_from_slice(&g.pending_predict_failures.to_le_bytes());
    out.extend_from_slice(&g.fallback_predictions.to_le_bytes());
    out.extend_from_slice(&g.consecutive_quarantined.to_le_bytes());
}

fn decode_guard(r: &mut ByteReader<'_>) -> Result<GuardState, String> {
    let breaker = match r.u8()? {
        0 => BreakerState::Closed,
        1 => BreakerState::Open,
        2 => BreakerState::HalfOpen,
        other => return Err(format!("unknown breaker state {other}")),
    };
    let window_len = r.u32()? as usize;
    if window_len > MAX_WINDOW_LEN {
        return Err(format!("guard window claims {window_len} entries"));
    }
    let mut window = Vec::with_capacity(window_len);
    for _ in 0..window_len {
        window.push(r.f64()?);
    }
    let fallback = Summary { sum: r.f64()?, count: r.u64()?, sum_sq: r.f64()? };
    let consecutive_failures = r.u32()?;
    let open_ops = r.u32()?;
    let half_open_successes = r.u32()?;
    let accepted = r.u64()?;
    let counters = GuardCounters {
        quarantined: r.u64()?,
        clamped_points: r.u64()?,
        rejected_points: r.u64()?,
        inner_errors: r.u64()?,
        trips: r.u64()?,
        probes: r.u64()?,
        fallback_predictions: r.u64()?,
        invariant_failures: r.u64()?,
        regime_resets: r.u64()?,
    };
    let pending_predict_failures = r.u32()?;
    let fallback_predictions = r.u64()?;
    let consecutive_quarantined = r.u32()?;
    Ok(GuardState {
        breaker,
        window,
        fallback,
        consecutive_failures,
        consecutive_quarantined,
        open_ops,
        half_open_successes,
        accepted,
        counters,
        pending_predict_failures,
        fallback_predictions,
    })
}

struct Meta {
    name: String,
    generation: u64,
    seq: u64,
    cpu_guard: GuardState,
    io_guard: GuardState,
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&(meta.name.len() as u32).to_le_bytes());
    payload.extend_from_slice(meta.name.as_bytes());
    payload.extend_from_slice(&meta.generation.to_le_bytes());
    payload.extend_from_slice(&meta.seq.to_le_bytes());
    encode_guard(&mut payload, &meta.cpu_guard);
    encode_guard(&mut payload, &meta.io_guard);
    seal_frame(META_MAGIC, META_VERSION, &payload)
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, Rejection> {
    let payload = open_frame(META_MAGIC, META_VERSION, bytes)
        .map_err(|e| (rejection_kind(&e), e.to_string()))?;
    read_meta(payload).map_err(|reason| (RestoreKind::CorruptRecovered, reason))
}

fn read_meta(payload: &[u8]) -> Result<Meta, String> {
    let mut r = ByteReader::new(payload);
    let name_len = r.u32()? as usize;
    if name_len > MAX_NAME_LEN {
        return Err(format!("meta name claims {name_len} bytes"));
    }
    let name = String::from_utf8(r.take(name_len)?.to_vec())
        .map_err(|_| "meta name is not UTF-8".to_string())?;
    let generation = r.u64()?;
    let seq = r.u64()?;
    let cpu_guard = decode_guard(&mut r)?;
    let io_guard = decode_guard(&mut r)?;
    if !r.done() {
        return Err("meta frame has trailing bytes".to_string());
    }
    Ok(Meta { name, generation, seq, cpu_guard, io_guard })
}

fn gen_path(dir: &Path, stem: &str, generation: u64, suffix: &str) -> PathBuf {
    dir.join(format!("{stem}.{generation}.{suffix}"))
}

/// A shard's complete mutable state as bytes and guard states: both
/// components as snapshot envelopes plus both guards' [`GuardState`].
/// A checkpoint writes it; a hibernated shard holds it in place of its
/// live trees, so a hibernated shard's checkpoint is what it holds.
pub(crate) struct ShardState {
    pub cpu_env: Vec<u8>,
    pub io_env: Vec<u8>,
    pub cpu_guard: GuardState,
    pub io_guard: GuardState,
}

/// Writes checkpoint generation `generation` of shard `name`: both tree
/// envelopes first, then the meta frame whose atomic rename publishes
/// the generation. Screened by `io` for fault injection and crash hooks.
pub(crate) fn write_checkpoint(
    io: &mut DurabilityIo,
    dir: &Path,
    name: &str,
    generation: u64,
    seq: u64,
    state: &ShardState,
) -> Result<(), WalError> {
    let stem = shard_stem(name);
    write_file_durable(
        io,
        &gen_path(dir, &stem, generation, "cpu.mlqs"),
        &state.cpu_env,
        Some(CrashOp::CheckpointCpu),
        None,
    )?;
    write_file_durable(
        io,
        &gen_path(dir, &stem, generation, "io.mlqs"),
        &state.io_env,
        Some(CrashOp::CheckpointIo),
        None,
    )?;
    let meta = Meta {
        name: name.to_string(),
        generation,
        seq,
        cpu_guard: state.cpu_guard.clone(),
        io_guard: state.io_guard.clone(),
    };
    write_file_durable(
        io,
        &gen_path(dir, &stem, generation, "meta"),
        &encode_meta(&meta),
        None,
        Some(CrashOp::CheckpointMeta),
    )
}

/// Deletes generations older than `generation - 1` for `name`: the
/// current and previous generations are the corrupt-recovered safety
/// net, anything older is dead weight. Best-effort; removal failures
/// are ignored (they cost disk, not correctness).
pub(crate) fn prune_generations(dir: &Path, name: &str, generation: u64) {
    let stem = shard_stem(name);
    let keep_from = generation.saturating_sub(1);
    for (gen_found, _) in list_generations(dir, &stem) {
        if gen_found < keep_from {
            for suffix in ["cpu.mlqs", "io.mlqs", "meta"] {
                let _ = std::fs::remove_file(gen_path(dir, &stem, gen_found, suffix));
            }
        }
    }
}

/// All `(generation, meta path)` pairs on disk for `stem`, unordered.
fn list_generations(dir: &Path, stem: &str) -> Vec<(u64, PathBuf)> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return found };
    for entry in entries.flatten() {
        let file_name = entry.file_name();
        let Some(name) = file_name.to_str() else { continue };
        let Some(rest) = name.strip_prefix(stem) else { continue };
        let Some(rest) = rest.strip_prefix('.') else { continue };
        let Some(gen_str) = rest.strip_suffix(".meta") else { continue };
        if let Ok(generation) = gen_str.parse::<u64>() {
            found.push((generation, entry.path()));
        }
    }
    found
}

/// Tries to load one full generation: meta plus both tree envelopes.
fn load_generation(dir: &Path, stem: &str, meta_path: &Path) -> Result<RecoveredShard, Rejection> {
    let corrupt = |reason: String| (RestoreKind::CorruptRecovered, reason);
    let bytes = std::fs::read(meta_path).map_err(|e| corrupt(format!("meta read: {e}")))?;
    let meta = decode_meta(&bytes)?;
    if shard_stem(&meta.name) != stem {
        return Err(corrupt(format!(
            "meta names shard {:?}, which does not match stem {stem}",
            meta.name
        )));
    }
    let load_tree = |suffix: &str| -> Result<MemoryLimitedQuadtree, Rejection> {
        let path = gen_path(dir, stem, meta.generation, suffix);
        let bytes = std::fs::read(&path)
            .map_err(|e| corrupt(format!("tree read {}: {e}", path.display())))?;
        let snapshot = TreeSnapshot::from_envelope(&bytes)
            .map_err(|e| (rejection_kind(&e), format!("tree envelope {}: {e}", path.display())))?;
        MemoryLimitedQuadtree::from_snapshot(&snapshot)
            .map_err(|e| corrupt(format!("tree rebuild {}: {e}", path.display())))
    };
    let cpu = load_tree("cpu.mlqs")?;
    let io = load_tree("io.mlqs")?;
    Ok(RecoveredShard {
        name: meta.name,
        cpu,
        io,
        cpu_guard: meta.cpu_guard,
        io_guard: meta.io_guard,
        checkpoint_seq: meta.seq,
        generation: meta.generation,
        records: Vec::new(),
        kind: RestoreKind::Restored,
        detail: String::new(),
    })
}

/// Recovers every shard a durability directory holds: newest valid
/// generation per shard plus the contiguous journal tail to replay,
/// routed out of one scan of the shared journal. A missing directory
/// recovers nothing (first boot). A retired `{stem}.wal` journal beside
/// a shard's checkpoints is reported, not read.
///
/// # Errors
///
/// [`MlqError::IoFault`] when the directory exists but cannot be listed,
/// or a journal exists but cannot be read. Corrupt *content* is never an
/// error — it degrades to an older generation or lands in `unreadable`.
pub(crate) fn recover_dir(dir: &Path) -> Result<DirRecovery, MlqError> {
    let mut stems: BTreeMap<String, Vec<(u64, PathBuf)>> = BTreeMap::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries.flatten() {
                let file_name = entry.file_name();
                let Some(name) = file_name.to_str() else { continue };
                let Some(prefix) = name.strip_suffix(".meta") else { continue };
                // `{stem}.{gen}` — split at the last dot.
                let Some((stem, gen_str)) = prefix.rsplit_once('.') else { continue };
                let Ok(generation) = gen_str.parse::<u64>() else { continue };
                stems.entry(stem.to_string()).or_default().push((generation, entry.path()));
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(DirRecovery { shards: Vec::new(), unreadable: Vec::new() });
        }
        Err(e) => {
            return Err(MlqError::IoFault {
                reason: format!("durability dir read {}: {e}", dir.display()),
            });
        }
    }

    let mut shards = Vec::new();
    let mut unreadable = Vec::new();
    for (stem, mut generations) in stems {
        generations.sort_by_key(|g| std::cmp::Reverse(g.0));
        let wal = dir.join(format!("{stem}.wal"));
        let retired = wal
            .exists()
            .then(|| format!("{} is a retired per-shard journal, not replayed", wal.display()));
        let mut kind =
            if retired.is_some() { RestoreKind::VersionMismatch } else { RestoreKind::Restored };
        let mut chosen: Option<RecoveredShard> = None;
        let mut failures: Vec<String> = Vec::new();
        for (generation, meta_path) in &generations {
            match load_generation(dir, &stem, meta_path) {
                Ok(mut shard) => {
                    shard.kind = kind;
                    shard.detail = if failures.is_empty() {
                        format!("generation {generation}")
                    } else {
                        format!(
                            "generation {generation} after rejecting newer: {}",
                            failures.join("; ")
                        )
                    };
                    chosen = Some(shard);
                    break;
                }
                Err((why, reason)) => {
                    if kind != RestoreKind::VersionMismatch {
                        kind = why;
                    }
                    failures.push(format!("gen {generation}: {reason}"));
                }
            }
        }
        match chosen {
            Some(mut shard) => {
                if let Some(note) = retired {
                    shard.detail.push_str(&format!("; {note}"));
                }
                shards.push(shard);
            }
            None => {
                failures.extend(retired);
                unreadable.push((stem, kind, failures.join("; ")));
            }
        }
    }

    // One scan of the shared journal, routed by name.
    let journal = read_journal(&dir.join(JOURNAL_FILE))?;
    let mut routed: Vec<Vec<WalRecord>> = vec![Vec::new(); journal.names.len()];
    for (idx, rec) in journal.records {
        routed[idx].push(rec);
    }
    for shard in &mut shards {
        let shared = journal
            .names
            .iter()
            .position(|n| *n == shard.name)
            .map(|idx| std::mem::take(&mut routed[idx]))
            .unwrap_or_default();
        // The journal tail: records past the checkpoint, contiguous.
        let mut expected = shard.checkpoint_seq + 1;
        for rec in shared {
            if rec.seq < expected {
                continue; // already covered by the checkpoint
            }
            if rec.seq == expected {
                expected += 1;
                shard.records.push(rec);
            } else {
                shard
                    .detail
                    .push_str(&format!("; journal gap at seq {expected} (found {})", rec.seq));
                break;
            }
        }
        if let Some(torn) = &journal.torn {
            let valid = journal.valid_len;
            shard.detail.push_str(&format!("; journal tail: {torn} (valid prefix {valid} bytes)"));
        }
    }
    Ok(DirRecovery { shards, unreadable })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{DurabilityConfig, Journal};
    use mlq_core::{CostModel, GuardConfig, GuardedModel, InsertionStrategy, MlqConfig, Space};
    use mlq_udfs::ExecutionCost;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlq_rec_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quiet_io() -> DurabilityIo {
        DurabilityIo::new(&DurabilityConfig::new("unused")).unwrap()
    }

    /// [`write_checkpoint`] from live trees.
    #[allow(clippy::too_many_arguments)]
    fn checkpoint(
        io: &mut DurabilityIo,
        dir: &Path,
        name: &str,
        generation: u64,
        seq: u64,
        cpu: &MemoryLimitedQuadtree,
        io_model: &MemoryLimitedQuadtree,
        cpu_guard: &GuardState,
        io_guard: &GuardState,
    ) -> Result<(), WalError> {
        let state = ShardState {
            cpu_env: cpu.snapshot().to_envelope(),
            io_env: io_model.snapshot().to_envelope(),
            cpu_guard: cpu_guard.clone(),
            io_guard: io_guard.clone(),
        };
        write_checkpoint(io, dir, name, generation, seq, &state)
    }

    fn trained_pair() -> (MemoryLimitedQuadtree, MemoryLimitedQuadtree, GuardState, GuardState) {
        let config = MlqConfig::builder(Space::cube(2, 0.0, 100.0).unwrap())
            .memory_budget(4096)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap();
        let mut cpu = GuardedModel::for_quadtree(
            MemoryLimitedQuadtree::new(config.clone()).unwrap(),
            GuardConfig::default(),
        )
        .unwrap();
        let mut io = GuardedModel::for_quadtree(
            MemoryLimitedQuadtree::new(config).unwrap(),
            GuardConfig::default(),
        )
        .unwrap();
        for i in 0..150u32 {
            let p = [f64::from(i.wrapping_mul(13) % 100), f64::from(i.wrapping_mul(7) % 100)];
            cpu.observe(&p, f64::from(i % 11) + 0.5).unwrap();
            io.observe(&p, f64::from(i % 5) + 0.25).unwrap();
        }
        let (cs, is) = (cpu.export_state(), io.export_state());
        (cpu.into_inner(), io.into_inner(), cs, is)
    }

    #[test]
    fn checkpoint_roundtrips_models_and_guard_states() {
        let dir = temp_dir("roundtrip");
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let mut io = quiet_io();
        checkpoint(&mut io, &dir, "WIN", 3, 150, &cpu, &io_model, &cpu_guard, &io_guard).unwrap();

        let rec = recover_dir(&dir).unwrap();
        assert!(rec.unreadable.is_empty());
        assert_eq!(rec.shards.len(), 1);
        let shard = &rec.shards[0];
        assert_eq!(shard.name, "WIN");
        assert_eq!(shard.kind, RestoreKind::Restored);
        assert_eq!(shard.checkpoint_seq, 150);
        assert_eq!(shard.generation, 3);
        assert!(shard.records.is_empty());
        assert_eq!(shard.cpu_guard, cpu_guard);
        assert_eq!(shard.io_guard, io_guard);
        for i in 0..50u32 {
            let p = [f64::from(i * 3 % 100), f64::from(i * 17 % 100)];
            assert_eq!(shard.cpu.predict(&p).unwrap(), cpu.predict(&p).unwrap());
            assert_eq!(shard.io.predict(&p).unwrap(), io_model.predict(&p).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_generation_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let mut io = quiet_io();
        for generation in [1, 2] {
            checkpoint(
                &mut io,
                &dir,
                "WIN",
                generation,
                generation * 100,
                &cpu,
                &io_model,
                &cpu_guard,
                &io_guard,
            )
            .unwrap();
        }
        // Rot the newest generation's CPU tree.
        let cpu_path = dir.join(format!("{}.2.cpu.mlqs", shard_stem("WIN")));
        let mut bytes = std::fs::read(&cpu_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&cpu_path, &bytes).unwrap();

        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.shards.len(), 1);
        let shard = &rec.shards[0];
        assert_eq!(shard.kind, RestoreKind::CorruptRecovered);
        assert_eq!(shard.generation, 1);
        assert_eq!(shard.checkpoint_seq, 100);
        assert!(
            shard.detail.contains("gen 2"),
            "detail should cite the rejected gen: {}",
            shard.detail
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_generation_corrupt_is_unreadable_not_an_error() {
        let dir = temp_dir("unreadable");
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let mut io = quiet_io();
        checkpoint(&mut io, &dir, "WIN", 1, 10, &cpu, &io_model, &cpu_guard, &io_guard).unwrap();
        let meta_path = dir.join(format!("{}.1.meta", shard_stem("WIN")));
        std::fs::write(&meta_path, b"garbage").unwrap();

        let rec = recover_dir(&dir).unwrap();
        assert!(rec.shards.is_empty());
        assert_eq!(rec.unreadable.len(), 1);
        assert_eq!(rec.unreadable[0].0, shard_stem("WIN"));
        assert_eq!(rec.unreadable[0].1, RestoreKind::CorruptRecovered);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_tail_replays_contiguously_and_skips_covered_records() {
        let dir = temp_dir("tail");
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let mut io = quiet_io();
        checkpoint(&mut io, &dir, "WIN", 1, 2, &cpu, &io_model, &cpu_guard, &io_guard).unwrap();
        // The shared journal holds WIN's seq 1..=5 interleaved with
        // another shard's; the checkpoint covers 1..=2.
        let names = vec!["OTHER".to_string(), "WIN".to_string()];
        let mut wal = Journal::open_preserving(dir.join(JOURNAL_FILE), names, vec![0, 0]).unwrap();
        wal.truncate(&mut io).unwrap();
        for i in 1..=5u32 {
            let cost = ExecutionCost { cpu: f64::from(i), io: 1.0, results: 1 };
            wal.append(1, &[f64::from(i), 0.0], cost);
            wal.append(0, &[0.0, f64::from(i)], cost);
        }
        wal.commit(&mut io).unwrap();

        let rec = recover_dir(&dir).unwrap();
        let shard = &rec.shards[0];
        let seqs: Vec<u64> = shard.records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5]);
        assert!(shard.records.iter().all(|r| r.point[1] == 0.0), "another shard's record leaked");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The core crate's JSON (version 1) golden envelope, a tree format
    /// this build no longer reads.
    const V1_ENVELOPE: &[u8] = include_bytes!("../../core/testdata/trained_model_v1.mlqs");

    /// Checkpoints WIN's trained pair as generation `g` at seq `100 g`
    /// for every `g` in `generations`; returns the pair.
    fn write_generations(
        dir: &Path,
        generations: &[u64],
    ) -> (MemoryLimitedQuadtree, MemoryLimitedQuadtree, GuardState, GuardState) {
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let mut io = quiet_io();
        for &g in generations {
            checkpoint(&mut io, dir, "WIN", g, 100 * g, &cpu, &io_model, &cpu_guard, &io_guard)
                .unwrap();
        }
        (cpu, io_model, cpu_guard, io_guard)
    }

    /// Re-seals WIN's generation-`g` meta frame, intact, as `version`.
    fn reseal_meta(dir: &Path, g: u64, version: u32) {
        let path = gen_path(dir, &shard_stem("WIN"), g, "meta");
        let bytes = std::fs::read(&path).unwrap();
        let payload = open_frame(META_MAGIC, META_VERSION, &bytes).unwrap();
        std::fs::write(&path, seal_frame(META_MAGIC, version, payload)).unwrap();
    }

    #[test]
    fn newest_generation_of_another_version_is_a_mismatch_served_from_the_previous() {
        for tag in ["meta", "v1_tree"] {
            let dir = temp_dir(&format!("mismatch_{tag}"));
            let (cpu, io_model, cpu_guard, io_guard) = write_generations(&dir, &[1, 2]);
            if tag == "meta" {
                reseal_meta(&dir, 2, META_VERSION + 1);
            } else {
                let path = gen_path(&dir, &shard_stem("WIN"), 2, "cpu.mlqs");
                std::fs::write(path, V1_ENVELOPE).unwrap();
            }

            let rec = recover_dir(&dir).unwrap();
            assert!(rec.unreadable.is_empty(), "{tag}");
            let shard = &rec.shards[0];
            assert_eq!(shard.kind, RestoreKind::VersionMismatch, "{tag}: {}", shard.detail);
            assert_eq!((shard.generation, shard.checkpoint_seq), (1, 100), "{tag}");
            assert!(shard.detail.contains("gen 2: ") && shard.detail.contains("format version"));
            assert_eq!((&shard.cpu_guard, &shard.io_guard), (&cpu_guard, &io_guard), "{tag}");
            assert_eq!(shard.cpu.snapshot().to_envelope(), cpu.snapshot().to_envelope(), "{tag}");
            assert_eq!(shard.io.snapshot().to_envelope(), io_model.snapshot().to_envelope());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn no_current_format_generation_is_an_unreadable_mismatch() {
        let dir = temp_dir("mismatch_all");
        write_generations(&dir, &[1, 2]);
        reseal_meta(&dir, 2, META_VERSION + 1);
        std::fs::write(gen_path(&dir, &shard_stem("WIN"), 1, "io.mlqs"), V1_ENVELOPE).unwrap();
        let wal_path = dir.join(format!("{}.wal", shard_stem("WIN")));
        std::fs::write(&wal_path, b"per-shard frames").unwrap();

        let rec = recover_dir(&dir).unwrap();
        assert!(rec.shards.is_empty());
        let (stem, kind, reason) = &rec.unreadable[0];
        assert_eq!((stem.as_str(), *kind), ("WIN", RestoreKind::VersionMismatch));
        assert!(reason.contains("gen 2: ") && reason.contains("gen 1: "), "{reason}");
        assert!(reason.contains(&format!("{} is a retired", wal_path.display())), "{reason}");
        assert_eq!(rec.unreadable.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_mismatch_outranks_corruption_of_another_generation() {
        let dir = temp_dir("mismatch_corrupt");
        write_generations(&dir, &[1, 2, 3]);
        reseal_meta(&dir, 3, META_VERSION + 1);
        std::fs::write(gen_path(&dir, &shard_stem("WIN"), 2, "meta"), b"garbage").unwrap();

        let rec = recover_dir(&dir).unwrap();
        let shard = &rec.shards[0];
        assert_eq!((shard.kind, shard.generation), (RestoreKind::VersionMismatch, 1));
        assert!(shard.detail.contains("gen 3: ") && shard.detail.contains("gen 2: "));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_retired_per_shard_journal_is_reported_not_replayed() {
        let dir = temp_dir("retired_wal");
        write_generations(&dir, &[1]);
        let wal_path = dir.join(format!("{}.wal", shard_stem("WIN")));
        std::fs::write(&wal_path, b"per-shard frames").unwrap();
        // The shared journal still replays past the checkpoint.
        let cost = ExecutionCost { cpu: 1.0, io: 1.0, results: 1 };
        let mut wal =
            Journal::open_preserving(dir.join(JOURNAL_FILE), vec!["WIN".into()], vec![100])
                .unwrap();
        wal.truncate(&mut quiet_io()).unwrap();
        wal.append(0, &[1.0, 0.0], cost);
        wal.commit(&mut quiet_io()).unwrap();

        let rec = recover_dir(&dir).unwrap();
        let shard = &rec.shards[0];
        assert_eq!((shard.kind, shard.generation), (RestoreKind::VersionMismatch, 1));
        assert_eq!(shard.records.iter().map(|r| r.seq).collect::<Vec<_>>(), [101]);
        assert!(shard.detail.contains(&format!("{} is a retired", wal_path.display())));
        assert!(wal_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruning_keeps_current_and_previous_generations() {
        let dir = temp_dir("prune");
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let mut io = quiet_io();
        for generation in 1..=4u64 {
            checkpoint(
                &mut io, &dir, "WIN", generation, generation, &cpu, &io_model, &cpu_guard,
                &io_guard,
            )
            .unwrap();
        }
        prune_generations(&dir, "WIN", 4);
        let stem = shard_stem("WIN");
        let gens: Vec<u64> = list_generations(&dir, &stem).into_iter().map(|(g, _)| g).collect();
        let mut gens = gens;
        gens.sort_unstable();
        assert_eq!(gens, vec![3, 4]);
        assert!(!dir.join(format!("{stem}.1.cpu.mlqs")).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn meta_bit_flips_never_restore_silently() {
        let (cpu, io_model, cpu_guard, io_guard) = trained_pair();
        let _ = (cpu, io_model);
        let meta = Meta { name: "WIN".into(), generation: 9, seq: 1234, cpu_guard, io_guard };
        let bytes = encode_meta(&meta);
        let back = decode_meta(&bytes).unwrap();
        assert_eq!(back.name, "WIN");
        assert_eq!(back.generation, 9);
        assert_eq!(back.seq, 1234);
        assert_eq!(back.cpu_guard, meta.cpu_guard);
        assert_eq!(back.io_guard, meta.io_guard);
        let stride = (bytes.len() / 61).max(1);
        for idx in (0..bytes.len()).step_by(stride) {
            let mut mutated = bytes.clone();
            mutated[idx] ^= 0x08;
            if let Ok(decoded) = decode_meta(&mutated) {
                panic!("flip at byte {idx} decoded: name {:?}", decoded.name);
            }
        }
    }
}
