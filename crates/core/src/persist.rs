//! Model persistence: snapshot, restore, and a crash-safe on-disk format.
//!
//! A query optimizer keeps its statistics in the catalog so they survive
//! restarts; a self-tuning cost model is only useful if what it learned
//! does too. [`TreeSnapshot`] is a compact, serde-serializable image of a
//! model — configuration plus the live nodes in depth-first order — that
//! rebuilds into an identical tree.
//!
//! ## Envelope format
//!
//! For durable storage a snapshot is wrapped in a versioned, checksummed
//! envelope so that torn writes, bit rot, and format drift are *detected*
//! instead of silently restoring garbage statistics into the optimizer:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MLQS"
//! 4       4     format version, little-endian u32
//! 8       8     payload length, little-endian u64
//! 16      4     CRC-32 (IEEE) over version ‖ length ‖ payload
//! 20      n     payload: the JSON-serialized TreeSnapshot
//! ```
//!
//! The checksum covers the version and length fields as well as the
//! payload, so a flipped header bit cannot masquerade as a different
//! (valid) version or length. Decoding never panics: every claim the
//! header makes is validated against the actual byte count before use.
//!
//! [`MemoryLimitedQuadtree::save_to_file`] writes the envelope to a
//! sibling temporary file and atomically renames it over the target, so
//! a crash mid-write leaves the previous snapshot intact. The restore
//! path ([`MemoryLimitedQuadtree::restore`] /
//! [`MemoryLimitedQuadtree::restore_from_file`]) verifies the checksum,
//! rebuilds the tree, re-runs the structural invariant checker, and
//! reports what happened as a typed [`RestoreOutcome`] — falling back to
//! a fresh model rather than failing the caller when the snapshot is bad.

use crate::config::MlqConfig;
use crate::error::MlqError;
use crate::node::NIL;
use crate::summary::Summary;
use crate::tree::MemoryLimitedQuadtree;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// One node in a snapshot. `parent` indexes into the snapshot's node list
/// (`None` for the root); nodes appear in an order where parents precede
/// children.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SnapshotNode {
    summary: Summary,
    depth: u8,
    slot_in_parent: u16,
    parent: Option<u32>,
}

/// A serializable image of a [`MemoryLimitedQuadtree`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeSnapshot {
    config: MlqConfig,
    nodes: Vec<SnapshotNode>,
    had_compression: bool,
}

impl TreeSnapshot {
    /// Number of nodes captured.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The captured configuration.
    #[must_use]
    pub fn config(&self) -> &MlqConfig {
        &self.config
    }
}

impl MemoryLimitedQuadtree {
    /// Captures the model into a serializable snapshot. Operation
    /// counters (APC/AUC bookkeeping) are not part of the model state and
    /// are not captured.
    #[must_use]
    pub fn snapshot(&self) -> TreeSnapshot {
        let mut nodes = Vec::with_capacity(self.node_count());
        // Pre-order DFS so parents always precede children.
        let mut stack: Vec<(u32, Option<u32>)> = vec![(self.root, None)];
        while let Some((idx, parent)) = stack.pop() {
            let node = self.arena.get(idx);
            let my_index = u32::try_from(nodes.len()).expect("node count fits u32");
            nodes.push(SnapshotNode {
                summary: node.summary,
                depth: node.depth,
                slot_in_parent: node.slot_in_parent,
                parent,
            });
            if let Some(children) = &node.children {
                for &child in children.iter() {
                    if child != NIL {
                        stack.push((child, Some(my_index)));
                    }
                }
            }
        }
        TreeSnapshot {
            config: self.config().clone(),
            nodes,
            had_compression: self.has_compressed(),
        }
    }

    /// Rebuilds a model from a snapshot. The result is structurally
    /// identical to the captured tree (verified against the full
    /// invariant checker).
    ///
    /// # Errors
    ///
    /// [`MlqError::InvalidConfig`] when the snapshot is malformed
    /// (dangling parents, children out of order, duplicate slots) or its
    /// configuration no longer validates.
    pub fn from_snapshot(snapshot: &TreeSnapshot) -> Result<Self, MlqError> {
        let mut tree = MemoryLimitedQuadtree::new(snapshot.config.clone())?;
        let malformed = |reason: &str| MlqError::InvalidConfig {
            reason: format!("malformed snapshot: {reason}"),
        };
        if snapshot.nodes.is_empty() {
            return Err(malformed("no root node"));
        }
        // arena index of each snapshot node, filled as we materialize.
        let mut arena_index: Vec<u32> = Vec::with_capacity(snapshot.nodes.len());
        for (i, snode) in snapshot.nodes.iter().enumerate() {
            match snode.parent {
                None => {
                    if i != 0 {
                        return Err(malformed("multiple roots"));
                    }
                    if snode.depth != 0 {
                        return Err(malformed("root at non-zero depth"));
                    }
                    tree.arena.get_mut(tree.root).summary = snode.summary;
                    arena_index.push(tree.root);
                }
                Some(p) => {
                    let p = p as usize;
                    if p >= i {
                        return Err(malformed("child precedes its parent"));
                    }
                    let parent_arena = arena_index[p];
                    if snode.depth != snapshot.nodes[p].depth + 1 {
                        return Err(malformed("depth does not match parent"));
                    }
                    if usize::from(snode.slot_in_parent) >= tree.fanout {
                        return Err(malformed("slot outside fanout"));
                    }
                    if tree
                        .arena
                        .get(parent_arena)
                        .child(usize::from(snode.slot_in_parent))
                        .is_some()
                    {
                        return Err(malformed("duplicate child slot"));
                    }
                    let child =
                        tree.materialize_child(parent_arena, usize::from(snode.slot_in_parent));
                    tree.arena.get_mut(child).summary = snode.summary;
                    arena_index.push(child);
                }
            }
        }
        tree.set_had_compression(snapshot.had_compression);
        tree.check_invariants().map_err(|reason| MlqError::InvalidConfig {
            reason: format!("snapshot failed invariants: {reason}"),
        })?;
        Ok(tree)
    }
}

/// Magic bytes opening every snapshot envelope.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"MLQS";

/// Envelope format version written by this build.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Envelope header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over the
/// concatenation of `chunks`, bytewise. Small and dependency-free;
/// durable payloads here are a few KiB, so table generation tricks are
/// not worth their complexity. Public so every durable byte format in
/// the workspace (snapshot envelopes, the serving layer's feedback
/// journal and checkpoint metadata) shares one checksum implementation.
#[must_use]
pub fn crc32_ieee(chunks: &[&[u8]]) -> u32 {
    crc32(chunks)
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`), bytewise.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let mut crc: u32 = !0;
    for chunk in chunks {
        for &byte in *chunk {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
    }
    !crc
}

/// Why an envelope failed to decode. Internal: the public surface is
/// [`RestoreOutcome`].
enum DecodeFailure {
    /// Structurally bad bytes: wrong magic, bad checksum, truncation,
    /// unparseable payload, or a snapshot the tree rejects.
    Corrupt(String),
    /// A well-formed envelope from a different format version.
    Version {
        /// The version recorded in the envelope.
        found: u32,
    },
}

/// Result of restoring a model from persisted bytes.
///
/// Every variant carries a usable model: restore is total, and the
/// variant tells the caller whether learned state survived. "Fell back
/// to fresh" outcomes start from the supplied fallback configuration
/// with zero observations.
#[derive(Debug)]
pub enum RestoreOutcome {
    /// The envelope verified and the captured tree passed the invariant
    /// checker; `0` is the restored model.
    Restored(MemoryLimitedQuadtree),
    /// The bytes were corrupt (checksum mismatch, truncation, hostile
    /// payload, or failed invariants); a fresh model was built instead.
    CorruptFellBackToFresh {
        /// The fresh, empty model.
        model: MemoryLimitedQuadtree,
        /// What check the snapshot failed.
        reason: String,
    },
    /// The envelope is intact but from an unsupported format version; a
    /// fresh model was built instead.
    VersionMismatch {
        /// The fresh, empty model.
        model: MemoryLimitedQuadtree,
        /// Version found in the envelope.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
}

impl RestoreOutcome {
    /// Unwraps the model, whichever way the restore went.
    #[must_use]
    pub fn into_model(self) -> MemoryLimitedQuadtree {
        match self {
            RestoreOutcome::Restored(model)
            | RestoreOutcome::CorruptFellBackToFresh { model, .. }
            | RestoreOutcome::VersionMismatch { model, .. } => model,
        }
    }

    /// True when learned state survived the restore.
    #[must_use]
    pub fn is_restored(&self) -> bool {
        matches!(self, RestoreOutcome::Restored(_))
    }
}

impl TreeSnapshot {
    /// Serializes the snapshot into the versioned, checksummed envelope
    /// documented at the [module level](self).
    #[must_use]
    pub fn to_envelope(&self) -> Vec<u8> {
        let payload = serde_json::to_string(self).expect("snapshot serialization is infallible");
        seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, payload.as_bytes())
    }

    /// Decodes an envelope, verifying magic, version, length, and
    /// checksum before touching the payload. Never panics, whatever the
    /// bytes.
    ///
    /// # Errors
    ///
    /// [`MlqError::SnapshotCorrupt`] on any validation failure, including
    /// an unsupported version (use [`MemoryLimitedQuadtree::restore`] for
    /// the typed distinction).
    pub fn from_envelope(bytes: &[u8]) -> Result<Self, MlqError> {
        match decode_envelope(bytes) {
            Ok(snapshot) => Ok(snapshot),
            Err(DecodeFailure::Corrupt(reason)) => Err(MlqError::SnapshotCorrupt { reason }),
            Err(DecodeFailure::Version { found }) => Err(MlqError::SnapshotCorrupt {
                reason: format!(
                    "unsupported snapshot version {found} (this build reads {SNAPSHOT_VERSION})"
                ),
            }),
        }
    }
}

fn decode_envelope(bytes: &[u8]) -> Result<TreeSnapshot, DecodeFailure> {
    let (version, payload) = open_frame_any(SNAPSHOT_MAGIC, bytes)
        .map_err(|e| DecodeFailure::Corrupt(format!("envelope {e}")))?;
    // Checksum verified: a version difference is now a genuine format
    // difference, not a flipped bit.
    if version != SNAPSHOT_VERSION {
        return Err(DecodeFailure::Version { found: version });
    }
    let text = std::str::from_utf8(payload)
        .map_err(|_| DecodeFailure::Corrupt("payload is not UTF-8".to_string()))?;
    serde_json::from_str(text)
        .map_err(|e| DecodeFailure::Corrupt(format!("payload does not parse: {e}")))
}

/// Seals `payload` in the `magic ‖ version ‖ length ‖ CRC-32 ‖ payload`
/// envelope layout, under a caller chosen magic and version; snapshot
/// envelopes are this frame under [`SNAPSHOT_MAGIC`]. The checksum
/// covers version, length, and payload, so header corruption is
/// detected like payload corruption.
///
/// [`open_frame`] is the inverse. The serving layer's checkpoint
/// metadata and journal headers use this so every durable artifact in
/// the workspace fails loudly — never by restoring garbage.
#[must_use]
pub fn seal_frame(magic: [u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let version_bytes = version.to_le_bytes();
    let len = (payload.len() as u64).to_le_bytes();
    let crc = crc32(&[&version_bytes, &len, payload]).to_le_bytes();
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&magic);
    out.extend_from_slice(&version_bytes);
    out.extend_from_slice(&len);
    out.extend_from_slice(&crc);
    out.extend_from_slice(payload);
    out
}

/// Opens a [`seal_frame`] envelope, validating magic, version, length,
/// and checksum before handing back the payload slice. Never panics,
/// whatever the bytes.
///
/// # Errors
///
/// [`MlqError::SnapshotCorrupt`] on any validation failure, including a
/// version other than `version`.
pub fn open_frame(magic: [u8; 4], version: u32, bytes: &[u8]) -> Result<&[u8], MlqError> {
    let corrupt = |reason: String| MlqError::SnapshotCorrupt { reason };
    let (found, payload) =
        open_frame_any(magic, bytes).map_err(|e| corrupt(format!("frame {e}")))?;
    if found != version {
        return Err(corrupt(format!("unsupported frame version {found} (expected {version})")));
    }
    Ok(payload)
}

/// Validates a frame's magic, length, and checksum and returns the
/// version it records with its payload, whatever that version is — so
/// callers can tell an intact frame from another format version apart
/// from corruption.
fn open_frame_any(magic: [u8; 4], bytes: &[u8]) -> Result<(u32, &[u8]), String> {
    if bytes.len() < HEADER_LEN {
        return Err(format!("truncated: {} bytes, header needs {HEADER_LEN}", bytes.len()));
    }
    if bytes[0..4] != magic {
        return Err("has bad magic".to_string());
    }
    let version_bytes: [u8; 4] = bytes[4..8].try_into().expect("slice length checked");
    let len_bytes: [u8; 8] = bytes[8..16].try_into().expect("slice length checked");
    let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("slice length checked"));
    let payload = &bytes[HEADER_LEN..];
    let claimed = u64::from_le_bytes(len_bytes);
    if claimed != payload.len() as u64 {
        return Err(format!("length mismatch: header claims {claimed}, found {}", payload.len()));
    }
    let actual_crc = crc32(&[&version_bytes, &len_bytes, payload]);
    if actual_crc != stored_crc {
        return Err(format!(
            "checksum mismatch: stored {stored_crc:#010x}, computed {actual_crc:#010x}"
        ));
    }
    Ok((u32::from_le_bytes(version_bytes), payload))
}

impl MemoryLimitedQuadtree {
    /// Restores a model from envelope bytes, falling back to a fresh
    /// model built from `fallback` when the bytes are corrupt or from an
    /// unsupported version. The restored tree has passed the full
    /// structural invariant checker. Never panics on hostile bytes.
    ///
    /// # Errors
    ///
    /// Only when `fallback` itself fails validation — a bad snapshot is
    /// reported through [`RestoreOutcome`], not as an error.
    pub fn restore(bytes: &[u8], fallback: MlqConfig) -> Result<RestoreOutcome, MlqError> {
        match decode_envelope(bytes) {
            Ok(snapshot) => match MemoryLimitedQuadtree::from_snapshot(&snapshot) {
                Ok(model) => Ok(RestoreOutcome::Restored(model)),
                Err(e) => Ok(RestoreOutcome::CorruptFellBackToFresh {
                    model: MemoryLimitedQuadtree::new(fallback)?,
                    reason: e.to_string(),
                }),
            },
            Err(DecodeFailure::Corrupt(reason)) => Ok(RestoreOutcome::CorruptFellBackToFresh {
                model: MemoryLimitedQuadtree::new(fallback)?,
                reason,
            }),
            Err(DecodeFailure::Version { found }) => Ok(RestoreOutcome::VersionMismatch {
                model: MemoryLimitedQuadtree::new(fallback)?,
                found,
                supported: SNAPSHOT_VERSION,
            }),
        }
    }

    /// Writes the model's snapshot envelope to `path` atomically: the
    /// bytes go to a sibling `<name>.tmp` file, are flushed to the
    /// device, and the temporary is renamed over the target. A crash at
    /// any point leaves either the old snapshot or the new one — never a
    /// torn mix. (Single-writer: concurrent savers to the same path race
    /// on the temporary name.)
    ///
    /// # Errors
    ///
    /// [`MlqError::IoFault`] when the filesystem refuses any step.
    pub fn save_to_file(&self, path: &Path) -> Result<(), MlqError> {
        let io = |stage: &str, e: std::io::Error| MlqError::IoFault {
            reason: format!("snapshot {stage} {}: {e}", path.display()),
        };
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let bytes = self.snapshot().to_envelope();
        let mut file = std::fs::File::create(&tmp).map_err(|e| io("create", e))?;
        file.write_all(&bytes).map_err(|e| io("write", e))?;
        file.sync_all().map_err(|e| io("sync", e))?;
        drop(file);
        std::fs::rename(&tmp, path).map_err(|e| io("rename", e))
    }

    /// Restores a model from the snapshot file at `path`, with the same
    /// fallback semantics as [`MemoryLimitedQuadtree::restore`]. A
    /// missing file reads as "no snapshot yet" and falls back to fresh.
    ///
    /// # Errors
    ///
    /// [`MlqError::IoFault`] when the file exists but cannot be read, or
    /// the fallback configuration's own validation error.
    pub fn restore_from_file(path: &Path, fallback: MlqConfig) -> Result<RestoreOutcome, MlqError> {
        match std::fs::read(path) {
            Ok(bytes) => MemoryLimitedQuadtree::restore(&bytes, fallback),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok(RestoreOutcome::CorruptFellBackToFresh {
                    model: MemoryLimitedQuadtree::new(fallback)?,
                    reason: format!("snapshot file not found: {}", path.display()),
                })
            }
            Err(e) => {
                Err(MlqError::IoFault { reason: format!("snapshot read {}: {e}", path.display()) })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InsertionStrategy, Space};

    fn trained_model() -> MemoryLimitedQuadtree {
        let config = MlqConfig::builder(Space::cube(2, 0.0, 1000.0).unwrap())
            .memory_budget(2048)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        for i in 0..300u32 {
            let x = f64::from(i.wrapping_mul(97) % 1000);
            let y = f64::from(i.wrapping_mul(31) % 1000);
            m.insert(&[x, y], f64::from(i % 17)).unwrap();
        }
        m
    }

    #[test]
    fn snapshot_roundtrip_preserves_structure_and_predictions() {
        let original = trained_model();
        let snapshot = original.snapshot();
        assert_eq!(snapshot.node_count(), original.node_count());

        let restored = MemoryLimitedQuadtree::from_snapshot(&snapshot).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.bytes_used(), original.bytes_used());
        assert_eq!(restored.root_summary(), original.root_summary());
        assert_eq!(restored.has_compressed(), original.has_compressed());
        for i in 0..100u32 {
            let p = [f64::from(i * 7 % 1000), f64::from(i * 13 % 1000)];
            assert_eq!(restored.predict(&p).unwrap(), original.predict(&p).unwrap());
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let original = trained_model();
        let json = serde_json::to_string(&original.snapshot()).unwrap();
        let back: TreeSnapshot = serde_json::from_str(&json).unwrap();
        let restored = MemoryLimitedQuadtree::from_snapshot(&back).unwrap();
        assert_eq!(restored.node_count(), original.node_count());
    }

    #[test]
    fn restored_model_keeps_learning() {
        let original = trained_model();
        let mut restored = MemoryLimitedQuadtree::from_snapshot(&original.snapshot()).unwrap();
        restored.insert(&[500.0, 500.0], 42.0).unwrap();
        assert_eq!(restored.root_summary().count, original.root_summary().count + 1);
        restored.check_invariants().unwrap();
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        let good = trained_model().snapshot();

        let mut empty = good.clone();
        empty.nodes.clear();
        assert!(MemoryLimitedQuadtree::from_snapshot(&empty).is_err());

        let mut dangling = good.clone();
        let n = dangling.nodes.len() as u32;
        if let Some(last) = dangling.nodes.last_mut() {
            last.parent = Some(n + 5);
        }
        assert!(MemoryLimitedQuadtree::from_snapshot(&dangling).is_err());

        let mut bad_depth = good.clone();
        if bad_depth.nodes.len() > 1 {
            bad_depth.nodes[1].depth = 7;
            assert!(MemoryLimitedQuadtree::from_snapshot(&bad_depth).is_err());
        }

        let mut two_roots = good;
        if two_roots.nodes.len() > 1 {
            two_roots.nodes[1].parent = None;
            assert!(MemoryLimitedQuadtree::from_snapshot(&two_roots).is_err());
        }
    }

    #[test]
    fn empty_model_roundtrips() {
        let config =
            MlqConfig::builder(Space::unit(1).unwrap()).memory_budget(1024).build().unwrap();
        let m = MemoryLimitedQuadtree::new(config).unwrap();
        let restored = MemoryLimitedQuadtree::from_snapshot(&m.snapshot()).unwrap();
        assert_eq!(restored.node_count(), 1);
        assert_eq!(restored.predict(&[0.5]).unwrap(), None);
    }

    fn fallback_config() -> MlqConfig {
        MlqConfig::builder(Space::cube(2, 0.0, 1000.0).unwrap())
            .memory_budget(2048)
            .strategy(InsertionStrategy::Lazy { alpha: 0.05 })
            .build()
            .unwrap()
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The classic IEEE check value for "123456789".
        assert_eq!(crc32(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b"1234", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32(&[b""]), 0);
    }

    /// Golden bytes: the envelope of a fixed tree is pinned by length and
    /// CRC-32, so a change to the framing code cannot silently change
    /// what hibernation and checkpoints write.
    #[test]
    fn envelope_bytes_are_pinned() {
        let bytes = trained_model().snapshot().to_envelope();
        assert_eq!(bytes.len(), 3584);
        assert_eq!(crc32(&[&bytes]), 0xD162_2A77);
        assert_eq!(
            open_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &bytes).unwrap(),
            &bytes[HEADER_LEN..]
        );
    }

    #[test]
    fn envelope_roundtrips() {
        let original = trained_model();
        let bytes = original.snapshot().to_envelope();
        assert_eq!(&bytes[0..4], &SNAPSHOT_MAGIC);
        let outcome = MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap();
        assert!(outcome.is_restored());
        let restored = outcome.into_model();
        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.root_summary(), original.root_summary());
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let original = trained_model();
        let bytes = original.snapshot().to_envelope();
        // Exhaustively flipping every bit is O(n²) in payload size; a
        // stride keeps the test fast while still crossing header,
        // payload, and tail.
        let stride = (bytes.len() / 97).max(1);
        for byte_idx in (0..bytes.len()).step_by(stride) {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[byte_idx] ^= 1 << bit;
                let outcome = MemoryLimitedQuadtree::restore(&mutated, fallback_config()).unwrap();
                assert!(
                    !outcome.is_restored(),
                    "flip of bit {bit} in byte {byte_idx} restored silently"
                );
            }
        }
    }

    #[test]
    fn truncation_and_garbage_are_corrupt_not_panics() {
        let bytes = trained_model().snapshot().to_envelope();
        for len in [0, 1, 4, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            let outcome = MemoryLimitedQuadtree::restore(&bytes[..len], fallback_config()).unwrap();
            assert!(!outcome.is_restored(), "truncation to {len} bytes restored");
        }
        let garbage: Vec<u8> = (0..1000u32).map(|i| (i.wrapping_mul(251) % 256) as u8).collect();
        assert!(matches!(
            MemoryLimitedQuadtree::restore(&garbage, fallback_config()).unwrap(),
            RestoreOutcome::CorruptFellBackToFresh { .. }
        ));
        assert!(matches!(
            TreeSnapshot::from_envelope(&garbage),
            Err(MlqError::SnapshotCorrupt { .. })
        ));
    }

    #[test]
    fn future_version_reports_mismatch() {
        let mut bytes = trained_model().snapshot().to_envelope();
        // Rewrite the version field and re-stamp the checksum so the
        // envelope is intact, just from the future.
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&[&bytes[4..8], &bytes[8..16], &bytes[HEADER_LEN..]]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        match MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap() {
            RestoreOutcome::VersionMismatch { found, supported, model } => {
                assert_eq!(found, 99);
                assert_eq!(supported, SNAPSHOT_VERSION);
                assert_eq!(model.root_summary().count, 0);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        // Without the checksum fix-up the same edit reads as corruption.
        let mut unstamped = trained_model().snapshot().to_envelope();
        unstamped[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            MemoryLimitedQuadtree::restore(&unstamped, fallback_config()).unwrap(),
            RestoreOutcome::CorruptFellBackToFresh { .. }
        ));
    }

    #[test]
    fn valid_envelope_with_hostile_payload_falls_back() {
        // A well-checksummed envelope whose payload parses as a snapshot
        // the tree itself rejects must fall back, not panic.
        let mut snapshot = trained_model().snapshot();
        if snapshot.nodes.len() > 1 {
            snapshot.nodes[1].depth = 200;
        }
        let bytes = snapshot.to_envelope();
        match MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap() {
            RestoreOutcome::CorruptFellBackToFresh { reason, .. } => {
                assert!(reason.contains("snapshot"), "unhelpful reason: {reason}");
            }
            other => panic!("expected fallback, got {other:?}"),
        }
    }

    #[test]
    fn generic_frames_roundtrip_and_reject_corruption() {
        let payload = b"some durable payload".to_vec();
        let sealed = seal_frame(*b"MLQX", 7, &payload);
        assert_eq!(open_frame(*b"MLQX", 7, &sealed).unwrap(), payload.as_slice());
        // Wrong magic, wrong version, flipped bits, truncation: all loud.
        assert!(open_frame(*b"XXXX", 7, &sealed).is_err());
        assert!(open_frame(*b"MLQX", 8, &sealed).is_err());
        for idx in [0, 5, 12, 17, sealed.len() - 1] {
            let mut mutated = sealed.clone();
            mutated[idx] ^= 1;
            assert!(open_frame(*b"MLQX", 7, &mutated).is_err(), "flip at {idx} opened");
        }
        assert!(open_frame(*b"MLQX", 7, &sealed[..sealed.len() - 1]).is_err());
        assert!(open_frame(*b"MLQX", 7, &[]).is_err());
        // An empty payload is a valid frame.
        let empty = seal_frame(*b"MLQX", 1, &[]);
        assert_eq!(open_frame(*b"MLQX", 1, &empty).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn save_and_restore_file_atomically() {
        let dir = std::env::temp_dir().join("mlq_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.mlqs");
        let original = trained_model();
        original.save_to_file(&path).unwrap();
        // The temporary is gone after a successful save.
        assert!(!dir.join("model.mlqs.tmp").exists());

        let outcome = MemoryLimitedQuadtree::restore_from_file(&path, fallback_config()).unwrap();
        assert!(outcome.is_restored());
        assert_eq!(outcome.into_model().node_count(), original.node_count());

        // Corrupt the file on disk: detected, falls back fresh.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let outcome = MemoryLimitedQuadtree::restore_from_file(&path, fallback_config()).unwrap();
        assert!(matches!(outcome, RestoreOutcome::CorruptFellBackToFresh { .. }));

        // A missing file is "no snapshot yet", not an error.
        let outcome = MemoryLimitedQuadtree::restore_from_file(
            &dir.join("never_written.mlqs"),
            fallback_config(),
        )
        .unwrap();
        assert!(matches!(outcome, RestoreOutcome::CorruptFellBackToFresh { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }
}
