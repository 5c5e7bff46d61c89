//! Model persistence: snapshot, restore, and a checksummed byte format.
//!
//! A query optimizer keeps its statistics in the catalog so they survive
//! restarts; a self-tuning cost model is only useful if what it learned
//! does too. [`TreeSnapshot`] is a compact image of a model —
//! configuration plus the live nodes in depth-first order — that rebuilds
//! into an identical tree.
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
//! 20      n     payload (below)
//! ```
//!
//! The checksum covers the version and length fields as well as the
//! payload, so a flipped header bit cannot masquerade as a different
//! (valid) version or length. Decoding never panics: every claim the
//! header makes is validated against the actual byte count before use.
//!
//! ## Payload
//!
//! This build writes version 2: fixed little-endian binary records, with
//! every `f64` stored as its IEEE-754 bit pattern so a round trip is bit
//! exact. `d` is the space's dimension count and `n` the node count:
//!
//! ```text
//! size   field
//! 1      d, dimension count (1..=MAX_DIMS)
//! 8·d    per-dimension lows (f64)
//! 8·d    per-dimension highs (f64)
//! 8      memory budget (u64)
//! 1      strategy: 0 eager, 1 lazy
//! 8      lazy α (f64; zero bits for eager)
//! 8      β (u64)
//! 8      γ (f64)
//! 1      λ (u8)
//! 1      had_compression: 0 or 1
//! 4      n (u32)
//! 31·n   node records in pre-order, parents before children:
//!          sum (f64) ‖ sum_sq (f64) ‖ count (u64) ‖ depth (u8)
//!          ‖ slot_in_parent (u16) ‖ parent index (u32, u32::MAX at the root)
//! ```
//!
//! The decoder checks the node count against the remaining payload before
//! it allocates anything and rejects trailing bytes; the configuration
//! and the tree structure are then validated exactly as for any snapshot
//! (see [`MemoryLimitedQuadtree::from_snapshot`]). Version 1 envelopes,
//! whose payload is the JSON-serialized [`TreeSnapshot`], are still read
//! but no longer written.
//!
//! [`MemoryLimitedQuadtree::restore`] verifies the checksum, rebuilds
//! the tree, re-runs the structural invariant checker, and reports what
//! happened as a typed [`RestoreOutcome`] — falling back to a fresh model
//! rather than failing the caller when the snapshot is bad. Writing the
//! bytes to disk crash-safely is the caller's job (`mlq-serve`'s
//! checkpoints write a temporary, sync it and rename it into place).

use crate::config::{InsertionStrategy, MlqConfig};
use crate::error::MlqError;
use crate::node::NIL;
use crate::space::{Space, MAX_DIMS};
use crate::summary::Summary;
use crate::tree::MemoryLimitedQuadtree;
use serde::Deserialize;

/// One node in a snapshot. `parent` indexes into the snapshot's node list
/// (`None` for the root); nodes appear in an order where parents precede
/// children. `Deserialize` reads version 1 (JSON) payloads.
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
struct SnapshotNode {
    summary: Summary,
    depth: u8,
    slot_in_parent: u16,
    parent: Option<u32>,
}

/// An image of a [`MemoryLimitedQuadtree`], persisted as the binary
/// envelope of the [module docs](self). `Deserialize` reads version 1
/// (JSON) payloads; nothing writes that format any more.
#[derive(Debug, Clone, PartialEq, Deserialize)]
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

/// Envelope format version written by this build: the binary payload of
/// the [module docs](self).
pub const SNAPSHOT_VERSION: u32 = 2;

/// The JSON payload version, still read but no longer written.
const SNAPSHOT_VERSION_JSON: u32 = 1;

/// Envelope header size: magic + version + payload length + checksum.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// Bytes per version-2 node record.
const RECORD_LEN: usize = 8 + 8 + 8 + 1 + 2 + 4;

/// The parent index a version-2 record stores for the root.
const NO_PARENT: u32 = u32::MAX;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`) over the
/// concatenation of `chunks`, table-driven eight bytes at a step. Public
/// so every durable byte format in the workspace (snapshot envelopes, the
/// serving layer's feedback journal and checkpoint metadata) shares one
/// checksum implementation.
#[must_use]
pub fn crc32_ieee(chunks: &[&[u8]]) -> u32 {
    crc32(chunks)
}

/// Slicing-by-8 tables, computed at compile time. `CRC_TABLES[0][b]` is
/// the bitwise register update for byte `b` (eight shift-and-xor steps);
/// `CRC_TABLES[k][b]` is that update followed by `k` zero bytes, so one
/// step folds eight input bytes with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB8_8320`), slicing by 8.
fn crc32(chunks: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let byte = |x: u32, shift: u32| ((x >> shift) & 0xFF) as usize;
    let mut crc: u32 = !0;
    for chunk in chunks {
        let mut words = chunk.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][byte(lo, 0)]
                ^ t[6][byte(lo, 8)]
                ^ t[5][byte(lo, 16)]
                ^ t[4][byte(lo, 24)]
                ^ t[3][byte(hi, 0)]
                ^ t[2][byte(hi, 8)]
                ^ t[1][byte(hi, 16)]
                ^ t[0][byte(hi, 24)];
        }
        for &b in words.remainder() {
            crc = t[0][byte(crc ^ u32::from(b), 0)] ^ (crc >> 8);
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
        /// Version this build writes ([`SNAPSHOT_VERSION`]); it also
        /// reads the JSON version 1.
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
    /// documented at the [module level](self), always in the current
    /// [`SNAPSHOT_VERSION`].
    #[must_use]
    pub fn to_envelope(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload_len());
        out.resize(HEADER_LEN, 0);
        self.write_payload(&mut out);
        debug_assert_eq!(out.len(), HEADER_LEN + self.payload_len());
        seal_in_place(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, out)
    }

    /// Byte length of the version-2 payload, field by field.
    fn payload_len(&self) -> usize {
        let dims = self.config.space.dims();
        let config = 1 + 16 * dims + 8 + 1 + 8 + 8 + 8 + 1;
        config + 1 + 4 + RECORD_LEN * self.nodes.len()
    }

    /// Appends the version-2 payload to `out`.
    fn write_payload(&self, out: &mut Vec<u8>) {
        let config = &self.config;
        let space = &config.space;
        let dims = u8::try_from(space.dims()).expect("dims bounded by MAX_DIMS");
        out.push(dims);
        for i in 0..space.dims() {
            out.extend_from_slice(&space.low(i).to_bits().to_le_bytes());
        }
        for i in 0..space.dims() {
            out.extend_from_slice(&space.high(i).to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(config.memory_budget as u64).to_le_bytes());
        let (tag, alpha) = match config.strategy {
            InsertionStrategy::Eager => (0u8, 0u64),
            InsertionStrategy::Lazy { alpha } => (1u8, alpha.to_bits()),
        };
        out.push(tag);
        out.extend_from_slice(&alpha.to_le_bytes());
        out.extend_from_slice(&config.beta.to_le_bytes());
        out.extend_from_slice(&config.gamma.to_bits().to_le_bytes());
        out.push(config.lambda);
        out.push(u8::from(self.had_compression));
        let count = u32::try_from(self.nodes.len()).expect("node count fits u32");
        out.extend_from_slice(&count.to_le_bytes());
        for node in &self.nodes {
            out.extend_from_slice(&node.summary.sum.to_bits().to_le_bytes());
            out.extend_from_slice(&node.summary.sum_sq.to_bits().to_le_bytes());
            out.extend_from_slice(&node.summary.count.to_le_bytes());
            out.push(node.depth);
            out.extend_from_slice(&node.slot_in_parent.to_le_bytes());
            out.extend_from_slice(&node.parent.unwrap_or(NO_PARENT).to_le_bytes());
        }
    }

    /// Parses a version-2 payload. Checks every count against the bytes
    /// that remain before reading or allocating; the configuration and
    /// the tree structure are validated later, by
    /// [`MemoryLimitedQuadtree::from_snapshot`], as for any snapshot.
    fn read_payload(payload: &[u8]) -> Result<Self, String> {
        let mut r = Reader(payload);
        let dims = usize::from(r.u8("dimension count")?);
        if dims == 0 || dims > MAX_DIMS {
            return Err(format!("dimension count {dims} outside 1..={MAX_DIMS}"));
        }
        let mut bound = || r.u64("space bounds").map(f64::from_bits);
        let lows = (0..dims).map(|_| bound()).collect::<Result<Vec<_>, _>>()?;
        let highs = (0..dims).map(|_| bound()).collect::<Result<Vec<_>, _>>()?;
        let space = Space::new(lows, highs).map_err(|e| format!("space: {e}"))?;
        let memory_budget = usize::try_from(r.u64("memory budget")?)
            .map_err(|_| "memory budget overflows usize".to_string())?;
        let tag = r.u8("strategy")?;
        let alpha = r.u64("alpha")?;
        let strategy = match (tag, alpha) {
            (0, 0) => InsertionStrategy::Eager,
            (0, _) => return Err("eager strategy with a non-zero alpha".to_string()),
            (1, bits) => InsertionStrategy::Lazy { alpha: f64::from_bits(bits) },
            (tag, _) => return Err(format!("unknown strategy tag {tag}")),
        };
        let beta = r.u64("beta")?;
        let gamma = f64::from_bits(r.u64("gamma")?);
        let lambda = r.u8("lambda")?;
        let had_compression = match r.u8("compression flag")? {
            0 => false,
            1 => true,
            flag => return Err(format!("compression flag {flag} is neither 0 nor 1")),
        };
        let count = r.u32("node count")?;
        let (records, partial) = r.0.as_chunks::<RECORD_LEN>();
        if !partial.is_empty() || records.len() as u64 != u64::from(count) {
            return Err(format!(
                "{count} nodes need {} record bytes, found {}",
                u64::from(count) * RECORD_LEN as u64,
                r.0.len()
            ));
        }
        let nodes = records.iter().map(read_record).collect();
        let config = MlqConfig { space, memory_budget, strategy, beta, gamma, lambda };
        Ok(TreeSnapshot { config, nodes, had_compression })
    }

    /// Decodes an envelope, verifying magic, version, length, and
    /// checksum before touching the payload. Reads version 2 and the
    /// JSON version 1. Never panics, whatever the bytes.
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
                    "unsupported snapshot version {found} (this build reads \
                     {SNAPSHOT_VERSION_JSON} and {SNAPSHOT_VERSION})"
                ),
            }),
        }
    }
}

/// Decodes one version-2 node record.
fn read_record(r: &[u8; RECORD_LEN]) -> SnapshotNode {
    let parent = u32::from_le_bytes(field(r, 27));
    SnapshotNode {
        summary: Summary {
            sum: f64::from_bits(u64::from_le_bytes(field(r, 0))),
            count: u64::from_le_bytes(field(r, 16)),
            sum_sq: f64::from_bits(u64::from_le_bytes(field(r, 8))),
        },
        depth: r[24],
        slot_in_parent: u16::from_le_bytes(field(r, 25)),
        parent: (parent != NO_PARENT).then_some(parent),
    }
}

/// The `N` bytes at a fixed offset `at` of a record; every call site's
/// `at + N` is within [`RECORD_LEN`].
fn field<const N: usize>(r: &[u8; RECORD_LEN], at: usize) -> [u8; N] {
    let mut out = [0u8; N];
    out.copy_from_slice(&r[at..at + N]);
    out
}

/// A little-endian cursor over a payload; every read is length-checked.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self, field: &str) -> Result<[u8; N], String> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or_else(|| format!("payload truncated at {field}"))?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self, field: &str) -> Result<u8, String> {
        self.take::<1>(field).map(|[b]| b)
    }

    fn u32(&mut self, field: &str) -> Result<u32, String> {
        self.take(field).map(u32::from_le_bytes)
    }

    fn u64(&mut self, field: &str) -> Result<u64, String> {
        self.take(field).map(u64::from_le_bytes)
    }
}

fn decode_envelope(bytes: &[u8]) -> Result<TreeSnapshot, DecodeFailure> {
    let (version, payload) = open_frame_any(SNAPSHOT_MAGIC, bytes)
        .map_err(|e| DecodeFailure::Corrupt(format!("envelope {e}")))?;
    // Checksum verified: a version difference is now a genuine format
    // difference, not a flipped bit.
    match version {
        SNAPSHOT_VERSION => TreeSnapshot::read_payload(payload)
            .map_err(|e| DecodeFailure::Corrupt(format!("payload {e}"))),
        SNAPSHOT_VERSION_JSON => {
            let text = std::str::from_utf8(payload)
                .map_err(|_| DecodeFailure::Corrupt("payload is not UTF-8".to_string()))?;
            serde_json::from_str(text)
                .map_err(|e| DecodeFailure::Corrupt(format!("payload does not parse: {e}")))
        }
        found => Err(DecodeFailure::Version { found }),
    }
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
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.resize(HEADER_LEN, 0);
    out.extend_from_slice(payload);
    seal_in_place(magic, version, out)
}

/// Fills in the header of `frame`, whose first [`HEADER_LEN`] bytes are
/// reserved for it and whose remainder is the payload, so encoders can
/// write a payload once, straight into its frame.
fn seal_in_place(magic: [u8; 4], version: u32, mut frame: Vec<u8>) -> Vec<u8> {
    let version_bytes = version.to_le_bytes();
    let len = ((frame.len() - HEADER_LEN) as u64).to_le_bytes();
    let crc = crc32(&[&version_bytes, &len, &frame[HEADER_LEN..]]).to_le_bytes();
    frame[0..4].copy_from_slice(&magic);
    frame[4..8].copy_from_slice(&version_bytes);
    frame[8..16].copy_from_slice(&len);
    frame[16..20].copy_from_slice(&crc);
    frame
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

    /// The bitwise reference the table is derived from: eight
    /// shift-and-xor steps per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_equals_the_bitwise_reference() {
        let bytes: Vec<u8> =
            (0..4096u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in [0, 1, 2, 3, 7, 8, 9, 255, 256, 257, 4096] {
            assert_eq!(crc32(&[&bytes[..len]]), crc32_bitwise(&bytes[..len]), "length {len}");
        }
        // Every byte value in every lane of an eight-byte step reaches
        // every entry of all eight tables.
        for b in 0..=255u8 {
            for lane in 0..8 {
                let mut word = [0x5Au8; 8];
                word[lane] = b;
                assert_eq!(crc32(&[&word]), crc32_bitwise(&word), "byte {b:#04x} lane {lane}");
            }
        }
        // Chunk boundaries that split eight-byte steps change nothing.
        let whole = crc32_bitwise(&bytes[..1000]);
        for cut in [1, 3, 8, 13, 500, 997] {
            let (a, rest) = bytes[..1000].split_at(cut);
            let (b, c) = rest.split_at(rest.len() / 3);
            assert_eq!(crc32(&[a, b, c]), whole, "split at {cut}");
        }
    }

    /// Golden bytes: the envelope of a fixed tree is pinned by length and
    /// CRC-32, so a change to the framing code cannot silently change
    /// what hibernation and checkpoints write.
    #[test]
    fn envelope_bytes_are_pinned() {
        let bytes = trained_model().snapshot().to_envelope();
        assert_eq!(bytes.len(), 1239);
        assert_eq!(crc32(&[&bytes]), 0xB66C_8C50);
        assert_eq!(
            open_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &bytes).unwrap(),
            &bytes[HEADER_LEN..]
        );
    }

    /// `trained_model()`'s envelope as the JSON (version 1) encoder wrote
    /// it, before the binary payload replaced it.
    const V1_ENVELOPE: &[u8] = include_bytes!("../testdata/trained_model_v1.mlqs");

    #[test]
    fn v1_envelopes_still_restore_and_reencode_as_v2() {
        // The fixture is the version 1 golden envelope, byte for byte.
        assert_eq!(V1_ENVELOPE.len(), 3584);
        assert_eq!(crc32(&[V1_ENVELOPE]), 0xD162_2A77);
        assert_eq!(V1_ENVELOPE[4..8], SNAPSHOT_VERSION_JSON.to_le_bytes());

        let original = trained_model();
        let restored = match MemoryLimitedQuadtree::restore(V1_ENVELOPE, fallback_config()) {
            Ok(RestoreOutcome::Restored(model)) => model,
            other => panic!("version 1 envelope did not restore: {other:?}"),
        };
        assert_eq!(restored.snapshot(), original.snapshot(), "summaries or structure differ");
        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.has_compressed(), original.has_compressed());
        for i in 0..100u32 {
            let p = [f64::from(i * 7 % 1000), f64::from(i * 13 % 1000)];
            assert_eq!(restored.predict(&p).unwrap(), original.predict(&p).unwrap());
        }
        // The encoder writes only the current version.
        let reencoded = restored.snapshot().to_envelope();
        assert_eq!(reencoded[4..8], SNAPSHOT_VERSION.to_le_bytes());
        assert_eq!(reencoded, original.snapshot().to_envelope());
    }

    /// Byte length of the version-2 payload ahead of the compression
    /// flag, for a `dims`-dimensional space.
    fn config_len(dims: usize) -> usize {
        1 + 16 * dims + 8 + 1 + 8 + 8 + 8 + 1
    }

    /// The version-2 payload of `trained_model()`, ready to edit.
    fn v2_payload() -> Vec<u8> {
        trained_model().snapshot().to_envelope()[HEADER_LEN..].to_vec()
    }

    /// Re-seals an edited payload so that only the payload decoder can
    /// reject it, and checks that both decode paths do.
    fn assert_payload_rejected(payload: &[u8], what: &str) {
        let bytes = seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, payload);
        match TreeSnapshot::from_envelope(&bytes) {
            Err(MlqError::SnapshotCorrupt { reason }) => {
                assert!(reason.starts_with("payload "), "{what}: {reason}");
            }
            other => panic!("{what}: expected SnapshotCorrupt, got {other:?}"),
        }
        assert!(
            matches!(
                MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap(),
                RestoreOutcome::CorruptFellBackToFresh { .. }
            ),
            "{what} restored"
        );
    }

    #[test]
    fn hostile_v2_payloads_are_corrupt_not_panics() {
        let good = v2_payload();
        let flag = config_len(2);
        let count_at = flag + 1;
        let records = count_at + 4;
        assert_eq!((good.len() - records) % RECORD_LEN, 0);

        let edit = |at: usize, value: &[u8]| {
            let mut p = good.clone();
            p[at..at + value.len()].copy_from_slice(value);
            p
        };
        assert_payload_rejected(&[], "empty payload");
        assert_payload_rejected(&edit(0, &[0]), "zero dimensions");
        assert_payload_rejected(&edit(0, &[MAX_DIMS as u8 + 1]), "too many dimensions");
        assert_payload_rejected(&edit(0, &[3]), "dimension count disagreeing with the bounds");
        assert_payload_rejected(&edit(1, &f64::NAN.to_bits().to_le_bytes()), "NaN bound");
        assert_payload_rejected(&edit(1 + 32 + 8, &[7]), "unknown strategy tag");
        let mut eager_with_alpha = edit(1 + 32 + 8, &[0]);
        eager_with_alpha[1 + 32 + 9] |= 1;
        assert_payload_rejected(&eager_with_alpha, "eager strategy carrying an alpha");
        assert_payload_rejected(&edit(flag, &[2]), "compression flag 2");
        // A node count near u32::MAX must fail the length check before
        // anything is allocated for it.
        for count in [u32::MAX, u32::MAX - 1, 0, 1] {
            assert_payload_rejected(&edit(count_at, &count.to_le_bytes()), "bad node count");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert_payload_rejected(&trailing, "trailing byte");
        assert_payload_rejected(&good[..good.len() - 1], "truncated record");
        for cut in [1, 9, flag, count_at + 2] {
            assert_payload_rejected(&good[..cut], "truncated header");
        }
    }

    #[test]
    fn v2_payload_with_empty_node_list_is_corrupt() {
        // Zero nodes decodes (the count matches the bytes) but cannot
        // restore: a tree has a root.
        let mut p = v2_payload();
        let count_at = config_len(2) + 1;
        p.truncate(count_at + 4);
        p[count_at..].copy_from_slice(&0u32.to_le_bytes());
        let bytes = seal_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &p);
        assert_eq!(TreeSnapshot::from_envelope(&bytes).unwrap().node_count(), 0);
        assert!(matches!(
            MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap(),
            RestoreOutcome::CorruptFellBackToFresh { .. }
        ));
    }

    #[test]
    fn eager_trees_roundtrip_bit_exactly() {
        let config =
            MlqConfig::builder(Space::new(vec![-1.5, 0.0, 1e-9], vec![2.5, 7.0, 1.0]).unwrap())
                .memory_budget(4096)
                .beta(3)
                .gamma(0.25)
                .lambda(5)
                .build()
                .unwrap();
        let mut m = MemoryLimitedQuadtree::new(config).unwrap();
        for i in 0..200u32 {
            let t = f64::from(i) / 200.0;
            m.insert(&[t * 4.0 - 1.5, t * 7.0, t], 0.1 * f64::from(i % 13) + 1e-12).unwrap();
        }
        let snapshot = m.snapshot();
        let back = TreeSnapshot::from_envelope(&snapshot.to_envelope()).unwrap();
        assert_eq!(back, snapshot);
        assert_eq!(back.to_envelope(), snapshot.to_envelope());
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
        // A binary payload stamped as the JSON version 1 is corrupt, not
        // a mismatch: version 1 is still read.
        bytes[4..8].copy_from_slice(&SNAPSHOT_VERSION_JSON.to_le_bytes());
        let crc = crc32(&[&bytes[4..8], &bytes[8..16], &bytes[HEADER_LEN..]]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            MemoryLimitedQuadtree::restore(&bytes, fallback_config()).unwrap(),
            RestoreOutcome::CorruptFellBackToFresh { .. }
        ));
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
}
