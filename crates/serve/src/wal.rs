//! The service-wide write-ahead feedback journal.
//!
//! Absorbed feedback is the serving tier's only irreplaceable state: the
//! published snapshots can always be refrozen from the live models, but
//! the models themselves exist only in memory. The journal makes the
//! feedback stream durable *before* it is applied, so a crash loses at
//! most the observations of the batch in flight — never anything the
//! journal has acknowledged.
//!
//! ## Record format
//!
//! One journal file per durability directory ([`JOURNAL_FILE`]) holds
//! every shard's feedback. It is a sequence of self-checking frames:
//!
//! ```text
//! offset  size   field
//! 0       4      payload length, little-endian u32
//! 4       4      CRC-32 (IEEE) over the payload
//! 8       n      payload
//! ```
//!
//! The first frame is the name table, rewritten at every truncation:
//!
//! ```text
//! 0       4      magic "MLQJ"
//! 4       4      journal format version, little-endian u32 (1)
//! 8       4      shard count n, little-endian u32
//! then n times:  name length (LE u32), UTF-8 name bytes
//! ```
//!
//! Every later frame is one observation:
//!
//! ```text
//! 0       4      shard index into the name table, little-endian u32
//! 4       8      sequence number, little-endian u64
//! 12      4      dimension count d, little-endian u32
//! 16      8·d    point coordinates, f64 bit patterns
//! 16+8d   8      cpu cost, f64 bit pattern
//! 24+8d   8      io cost, f64 bit pattern
//! 32+8d   8      result count, little-endian u64
//! ```
//!
//! A record names its shard through the table, not through registration
//! order, so a restart that registers shards in another order or adds
//! one still routes every record to the shard that wrote it. Sequence
//! numbers are per shard, start at 1, and never repeat — they survive
//! checkpoint truncation, so replay after recovery can tell exactly which
//! records a checkpoint already covers; the file order supplies the
//! order across shards. Recovery scans the file front to back and stops
//! at the first frame that fails its length or checksum — a torn tail
//! (the signature of a crash mid-write) is truncated, not an error.
//!
//! Directories written before the shared journal hold one `{stem}.wal`
//! file per shard: the same frames with no name table and no shard
//! field. [`read_legacy_wal`] still reads them, so startup replays them
//! once; they are deleted after the startup checkpoint publishes.
//!
//! ## Group commit
//!
//! [`Journal::append`] only encodes into an in-memory buffer;
//! [`Journal::commit`] writes the whole buffer and syncs once. The
//! maintainer commits once per batch, whatever the number of shards the
//! batch touched, and the read path never touches a file.
//!
//! ## Failure taxonomy
//!
//! Every disk operation is screened by a [`DurabilityIo`], which carries
//! a seeded [`FaultInjector`] (transient write/fsync/rename faults, torn
//! writes — retried with bounded backoff) and an optional [`CrashPoint`]
//! ("die here" hook). A fired crash point halts **all** further journal
//! and checkpoint I/O permanently, modeling a process death: anything
//! unsynced at that moment is deliberately rolled back so the on-disk
//! state is exactly what a real crash would leave.

use mlq_core::MlqError;
use mlq_storage::fault::WriteFault;
use mlq_storage::{FaultConfig, FaultInjector, MetaFault};
use mlq_udfs::ExecutionCost;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// File name of the service-wide journal inside a durability directory.
/// Shard stems never contain a `.`, so it cannot collide with a legacy
/// `{stem}.wal` journal or a checkpoint file.
pub(crate) const JOURNAL_FILE: &str = "feedback.journal";

/// Magic bytes opening the journal's name-table frame.
const JOURNAL_MAGIC: [u8; 4] = *b"MLQJ";

/// Journal format version written by this build.
const JOURNAL_VERSION: u32 = 1;

/// Largest frame a scan will believe. Points are at most
/// [`MAX_DIMS`](mlq_core::MAX_DIMS) coordinates, so real records are a few
/// hundred bytes; anything claiming more is corruption, not data.
const MAX_FRAME_LEN: u32 = 1 << 20;

/// Fixed record payload bytes besides the coordinates, in the legacy
/// layout: seq + dims + cpu + io + results.
const FIXED_PAYLOAD: usize = 8 + 4 + 8 + 8 + 8;

/// One durable feedback observation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WalRecord {
    /// Per-shard sequence number, starting at 1.
    pub seq: u64,
    /// Model-space coordinates of the execution.
    pub point: Vec<f64>,
    /// Observed execution cost.
    pub cost: ExecutionCost,
}

/// Appends one frame to `out`: reserves the 8-byte header, lets
/// `payload` write in place, then patches in the payload's length and
/// CRC — no intermediate payload buffer.
fn push_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    payload(out);
    let body = &out[start + 8..];
    let len = (body.len() as u32).to_le_bytes();
    let crc = mlq_core::crc32_ieee(&[body]).to_le_bytes();
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + 8].copy_from_slice(&crc);
}

fn encode_head(out: &mut Vec<u8>, names: &[String]) {
    push_frame(out, |out| {
        out.extend_from_slice(&JOURNAL_MAGIC);
        out.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        out.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for name in names {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
    });
}

fn encode_record(out: &mut Vec<u8>, shard: u32, seq: u64, point: &[f64], cost: ExecutionCost) {
    push_frame(out, |out| {
        out.extend_from_slice(&shard.to_le_bytes());
        put_observation(out, seq, point, cost);
    });
}

/// Writes a record payload in the legacy layout, which is the journal
/// record without its leading shard index.
fn put_observation(out: &mut Vec<u8>, seq: u64, point: &[f64], cost: ExecutionCost) {
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(point.len() as u32).to_le_bytes());
    for &c in point {
        out.extend_from_slice(&c.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&cost.cpu.to_bits().to_le_bytes());
    out.extend_from_slice(&cost.io.to_bits().to_le_bytes());
    out.extend_from_slice(&cost.results.to_le_bytes());
}

/// Appends one frame of a legacy per-shard journal, as builds before the
/// shared journal wrote it.
#[cfg(test)]
pub(crate) fn encode_legacy_record(
    out: &mut Vec<u8>,
    seq: u64,
    point: &[f64],
    cost: ExecutionCost,
) {
    push_frame(out, |out| put_observation(out, seq, point, cost));
}

/// A panic-free little-endian cursor over untrusted bytes: journal
/// name tables and checkpoint meta frames.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or_else(|| "length overflow".to_string())?;
        let slice =
            self.buf.get(self.pos..end).ok_or_else(|| format!("truncated at byte {}", self.pos))?;
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("length taken")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("length taken")))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_head(payload: &[u8]) -> Result<Vec<String>, String> {
    let mut r = ByteReader::new(payload);
    if r.take(4)? != JOURNAL_MAGIC {
        return Err("journal does not open with a name table".to_string());
    }
    let version = r.u32()?;
    if version != JOURNAL_VERSION {
        return Err(format!("journal format version {version}, expected {JOURNAL_VERSION}"));
    }
    let count = r.u32()? as usize;
    // Every name costs at least its 4-byte length: bound the count by
    // the payload before allocating for it.
    if count > payload.len() / 4 {
        return Err(format!("name table claims {count} shards"));
    }
    let mut names = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(len)?).map_err(|_| "shard name is not UTF-8")?;
        names.push(name.to_string());
    }
    if !r.done() {
        return Err("name table has trailing bytes".to_string());
    }
    Ok(names)
}

/// Decodes a record payload in the legacy layout.
fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    if payload.len() < FIXED_PAYLOAD {
        return Err(format!("record payload too short: {} bytes", payload.len()));
    }
    let seq = u64::from_le_bytes(payload[0..8].try_into().expect("length checked"));
    let dims = u32::from_le_bytes(payload[8..12].try_into().expect("length checked")) as usize;
    if dims > mlq_core::MAX_DIMS {
        return Err(format!("record claims {dims} dimensions"));
    }
    if payload.len() != FIXED_PAYLOAD + 8 * dims {
        return Err(format!(
            "record length mismatch: {} bytes for {dims} dimensions",
            payload.len()
        ));
    }
    let f64_at = |off: usize| {
        f64::from_bits(u64::from_le_bytes(payload[off..off + 8].try_into().expect("in bounds")))
    };
    let point: Vec<f64> = (0..dims).map(|i| f64_at(12 + 8 * i)).collect();
    let tail = 12 + 8 * dims;
    let cost = ExecutionCost {
        cpu: f64_at(tail),
        io: f64_at(tail + 8),
        results: u64::from_le_bytes(payload[tail + 16..tail + 24].try_into().expect("in bounds")),
    };
    Ok(WalRecord { seq, point, cost })
}

/// Result of scanning one journal file front to back.
#[derive(Debug)]
pub(crate) struct WalScan {
    /// The name table (empty for a legacy per-shard file).
    pub names: Vec<String>,
    /// Every record in the valid prefix, in file order, with its shard
    /// index into `names` (0 throughout a legacy file).
    pub records: Vec<(usize, WalRecord)>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Why the scan stopped early, if it did — a torn or corrupt tail.
    pub torn: Option<String>,
}

/// Walks the frames of the file at `path`, handing each checksummed
/// payload to `visit`, and stops at the first torn or corrupt frame or
/// the first payload `visit` rejects. A missing file reads as empty.
fn scan_file(
    path: &Path,
    mut visit: impl FnMut(&[u8]) -> Result<(), String>,
) -> Result<(u64, Option<String>), MlqError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((0, None)),
        Err(e) => {
            return Err(MlqError::IoFault {
                reason: format!("journal read {}: {e}", path.display()),
            });
        }
    };
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 8) else {
            return Ok((pos as u64, Some(format!("torn frame header at byte {pos}"))));
        };
        let len = u32::from_le_bytes(header[0..4].try_into().expect("length checked"));
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().expect("length checked"));
        if len > MAX_FRAME_LEN {
            return Ok((pos as u64, Some(format!("frame at byte {pos} claims {len} bytes"))));
        }
        let Some(payload) = bytes.get(pos + 8..pos + 8 + len as usize) else {
            return Ok((pos as u64, Some(format!("torn frame payload at byte {pos}"))));
        };
        if mlq_core::crc32_ieee(&[payload]) != stored_crc {
            return Ok((pos as u64, Some(format!("frame checksum mismatch at byte {pos}"))));
        }
        if let Err(reason) = visit(payload) {
            return Ok((pos as u64, Some(format!("frame at byte {pos}: {reason}"))));
        }
        pos += 8 + len as usize;
    }
    Ok((pos as u64, None))
}

/// Scans the service-wide journal at `path`: the name table, then every
/// record in the valid prefix. A missing file reads as an empty journal;
/// a torn or corrupt tail ends the scan at the last valid frame.
///
/// # Errors
///
/// [`MlqError::IoFault`] only when the file exists but cannot be read.
pub(crate) fn read_journal(path: &Path) -> Result<WalScan, MlqError> {
    let mut names: Option<Vec<String>> = None;
    let mut records = Vec::new();
    let (valid_len, torn) = scan_file(path, |payload| {
        if let Some(names) = &names {
            let shard = ByteReader::new(payload).u32()? as usize;
            if shard >= names.len() {
                return Err(format!("record names shard {shard} of {}", names.len()));
            }
            records.push((shard, decode_record(&payload[4..])?));
        } else {
            names = Some(decode_head(payload)?);
        }
        Ok(())
    })?;
    Ok(WalScan { names: names.unwrap_or_default(), records, valid_len, torn })
}

/// Scans a legacy per-shard `{stem}.wal` journal, which holds one
/// shard's records with no name table and no shard field.
///
/// # Errors
///
/// [`MlqError::IoFault`] only when the file exists but cannot be read.
pub(crate) fn read_legacy_wal(path: &Path) -> Result<WalScan, MlqError> {
    let mut records = Vec::new();
    let (valid_len, torn) = scan_file(path, |payload| {
        records.push((0, decode_record(payload)?));
        Ok(())
    })?;
    Ok(WalScan { names: Vec::new(), records, valid_len, torn })
}

/// A filesystem-safe stem for a shard name: ASCII alphanumerics and `-`
/// pass through, every other byte (including `_`, the escape character)
/// becomes `_xx` hex. The encoding is injective, so distinct UDF names
/// never collide on disk.
pub(crate) fn shard_stem(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'-' => out.push(b as char),
            _ => {
                out.push('_');
                out.push_str(&format!("{b:02x}"));
            }
        }
    }
    out
}

/// Which durable operation a [`CrashPoint`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOp {
    /// The group-commit write of buffered journal records.
    WalWrite,
    /// The fsync that makes a group commit durable.
    WalSync,
    /// Writing the CPU-component checkpoint file.
    CheckpointCpu,
    /// Writing the IO-component checkpoint file.
    CheckpointIo,
    /// The atomic rename that publishes the checkpoint metadata.
    CheckpointMeta,
    /// Truncating the journal once a checkpoint round covers every shard.
    WalTruncate,
}

/// Every crash operation, for harnesses that sweep them all.
pub const CRASH_OPS: [CrashOp; 6] = [
    CrashOp::WalWrite,
    CrashOp::WalSync,
    CrashOp::CheckpointCpu,
    CrashOp::CheckpointIo,
    CrashOp::CheckpointMeta,
    CrashOp::WalTruncate,
];

impl CrashOp {
    fn index(self) -> usize {
        match self {
            CrashOp::WalWrite => 0,
            CrashOp::WalSync => 1,
            CrashOp::CheckpointCpu => 2,
            CrashOp::CheckpointIo => 3,
            CrashOp::CheckpointMeta => 4,
            CrashOp::WalTruncate => 5,
        }
    }
}

/// A deterministic "die here" hook: the process is considered dead at the
/// `at`-th occurrence of `op`, after which every durable operation fails
/// permanently while in-memory serving continues. What a real crash
/// would leave on disk is modeled faithfully: a [`CrashOp::WalWrite`]
/// crash persists only `torn_bytes` of the buffered group, and a
/// [`CrashOp::WalSync`] crash loses the written-but-unsynced bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// The operation to die in.
    pub op: CrashOp,
    /// Which occurrence of `op` dies, 1-based.
    pub at: u32,
    /// For [`CrashOp::WalWrite`]: how many bytes of the group reach the
    /// disk before the cut (clamped to the group length).
    pub torn_bytes: usize,
}

/// Retry discipline for transient persistence faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure before the operation is abandoned.
    pub max_retries: u32,
    /// Sleep between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_retries: 3, backoff: Duration::from_micros(500) }
    }
}

/// Configuration of the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding journals and checkpoints, created if absent.
    pub dir: PathBuf,
    /// Maintainer batches between periodic checkpoints; `0` checkpoints
    /// only at startup and shutdown.
    pub checkpoint_every: u64,
    /// Retry discipline for transient persistence faults.
    pub retry: RetryPolicy,
    /// Consecutive failed group commits or checkpoints (each already
    /// retried per [`RetryPolicy`]) before the layer degrades to
    /// in-memory-only serving.
    pub degrade_after: u32,
    /// Seeded fault injection on journal and checkpoint I/O.
    pub fault: Option<FaultConfig>,
    /// Deterministic crash hook for the crash-point harness.
    pub crash: Option<CrashPoint>,
}

impl DurabilityConfig {
    /// Durability under `dir` with production defaults: checkpoint every
    /// 32 batches, 3 retries with 500 µs backoff, degrade after 3
    /// consecutive failures, no injected faults.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            checkpoint_every: 32,
            retry: RetryPolicy::default(),
            degrade_after: 3,
            fault: None,
            crash: None,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), MlqError> {
        if self.degrade_after == 0 {
            return Err(MlqError::InvalidConfig {
                reason: "durability degrade_after must be nonzero".into(),
            });
        }
        if let Some(fault) = &self.fault {
            fault.validate().map_err(|e| MlqError::InvalidConfig {
                reason: format!("durability fault config: {e}"),
            })?;
        }
        Ok(())
    }
}

/// Health of the durability layer, readable while serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityStatus {
    /// The service was built without durability.
    Disabled,
    /// Journaling and checkpointing normally.
    Active,
    /// The circuit breaker tripped after repeated persistence failures;
    /// serving continues in-memory-only.
    Degraded,
    /// A crash hook fired (harness only); all durable I/O has stopped.
    Crashed,
}

/// State shared between the estimator handle and the maintainer: layer
/// status and the highest durable sequence number per shard.
#[derive(Debug)]
pub(crate) struct DurabilityShared {
    status: std::sync::atomic::AtomicU8,
    synced: Vec<std::sync::atomic::AtomicU64>,
    /// The most recent persistence failure, for post-mortem inspection
    /// once the layer has degraded.
    error: parking_lot::Mutex<Option<String>>,
}

impl DurabilityShared {
    pub(crate) fn new(shards: usize) -> Self {
        DurabilityShared {
            status: std::sync::atomic::AtomicU8::new(1),
            synced: (0..shards).map(|_| std::sync::atomic::AtomicU64::new(0)).collect(),
            error: parking_lot::Mutex::new(None),
        }
    }

    pub(crate) fn status(&self) -> DurabilityStatus {
        match self.status.load(std::sync::atomic::Ordering::Acquire) {
            2 => DurabilityStatus::Degraded,
            3 => DurabilityStatus::Crashed,
            _ => DurabilityStatus::Active,
        }
    }

    pub(crate) fn set_status(&self, status: DurabilityStatus) {
        let code = match status {
            DurabilityStatus::Disabled | DurabilityStatus::Active => 1,
            DurabilityStatus::Degraded => 2,
            DurabilityStatus::Crashed => 3,
        };
        self.status.store(code, std::sync::atomic::Ordering::Release);
    }

    pub(crate) fn set_synced(&self, shard: usize, seq: u64) {
        self.synced[shard].store(seq, std::sync::atomic::Ordering::Release);
    }

    pub(crate) fn synced(&self, shard: usize) -> u64 {
        self.synced[shard].load(std::sync::atomic::Ordering::Acquire)
    }

    pub(crate) fn set_error(&self, reason: String) {
        *self.error.lock() = Some(reason);
    }

    pub(crate) fn error(&self) -> Option<String> {
        self.error.lock().clone()
    }
}

/// Error surface of durable operations, internal to the maintainer.
#[derive(Debug)]
pub(crate) enum WalError {
    /// A crash hook fired: all durable I/O is over, permanently.
    Crashed,
    /// A transient or permanent I/O failure after exhausting retries.
    /// Counts toward the degradation breaker.
    Io(MlqError),
}

/// The screened I/O layer every durable operation goes through: real
/// filesystem calls behind the seeded fault injector and the crash hook.
#[derive(Debug)]
pub(crate) struct DurabilityIo {
    fault: Option<FaultInjector>,
    crash: Option<CrashPoint>,
    counts: [u32; 6],
    crashed: bool,
    retry: RetryPolicy,
    /// Transient-fault retries performed, drained into metrics.
    retries: u64,
}

impl DurabilityIo {
    pub(crate) fn new(config: &DurabilityConfig) -> Result<Self, MlqError> {
        let fault = match &config.fault {
            Some(fc) => Some(FaultInjector::new(*fc).map_err(|e| MlqError::InvalidConfig {
                reason: format!("durability fault config: {e}"),
            })?),
            None => None,
        };
        Ok(DurabilityIo {
            fault,
            crash: config.crash,
            counts: [0; 6],
            crashed: false,
            retry: config.retry,
            retries: 0,
        })
    }

    pub(crate) fn crashed(&self) -> bool {
        self.crashed
    }

    pub(crate) fn take_retries(&mut self) -> u64 {
        std::mem::take(&mut self.retries)
    }

    /// Counts one occurrence of `op`; returns true when the configured
    /// crash point fires here, marking the process dead for all further
    /// durable I/O.
    fn arm(&mut self, op: CrashOp) -> bool {
        let Some(crash) = self.crash else { return false };
        if self.crashed {
            return true;
        }
        let idx = op.index();
        self.counts[idx] += 1;
        if crash.op == op && self.counts[idx] == crash.at {
            self.crashed = true;
            return true;
        }
        false
    }

    fn torn_bytes(&self) -> usize {
        self.crash.map_or(0, |c| c.torn_bytes)
    }

    fn write_fault(&mut self, len: usize) -> WriteFault {
        match &mut self.fault {
            Some(inj) => inj.on_write(len),
            None => WriteFault::None,
        }
    }

    fn sync_fault(&mut self) -> MetaFault {
        match &mut self.fault {
            Some(inj) => inj.on_sync(),
            None => MetaFault::None,
        }
    }

    fn rename_fault(&mut self) -> MetaFault {
        match &mut self.fault {
            Some(inj) => inj.on_rename(),
            None => MetaFault::None,
        }
    }

    fn backoff(&mut self, attempt: &mut u32) -> bool {
        if *attempt >= self.retry.max_retries {
            return false;
        }
        *attempt += 1;
        self.retries += 1;
        if !self.retry.backoff.is_zero() {
            std::thread::sleep(self.retry.backoff);
        }
        true
    }
}

/// The buffered writer of the service-wide journal.
///
/// `append` encodes into memory; `commit` costs one write and one sync
/// for everything appended since the last commit, whatever the number of
/// shards it covers. The writer tracks the durable byte length so
/// injected torn writes and failed syncs can be rolled back before a
/// retry, keeping the on-disk prefix always a clean frame boundary.
#[derive(Debug)]
pub(crate) struct Journal {
    path: PathBuf,
    file: File,
    /// Shard names in index order: the name table every truncation
    /// writes at the head of the file.
    names: Vec<String>,
    /// Frames appended since the last successful commit.
    buf: Vec<u8>,
    /// File length known to be durable (synced).
    durable_len: u64,
    /// Per shard: last sequence number handed out.
    appended: Vec<u64>,
    /// Per shard: highest sequence number known durable.
    synced: Vec<u64>,
}

impl Journal {
    /// Opens the journal at `path` without touching its contents,
    /// continuing shard `i`'s sequence after `last_seqs[i]`. Used at
    /// startup, where the on-disk journal must stay intact until the
    /// recovery checkpoint has published: the first successful
    /// [`Journal::truncate`] writes this service's name table, and only
    /// then may records be committed.
    pub(crate) fn open_preserving(
        path: PathBuf,
        names: Vec<String>,
        last_seqs: Vec<u64>,
    ) -> Result<Self, MlqError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| MlqError::IoFault {
                reason: format!("journal open {}: {e}", path.display()),
            })?;
        Ok(Journal {
            path,
            file,
            names,
            buf: Vec::new(),
            durable_len: 0,
            appended: last_seqs.clone(),
            synced: last_seqs,
        })
    }

    /// Buffers one observation for `shard`; no I/O. Returns its sequence
    /// number.
    pub(crate) fn append(&mut self, shard: usize, point: &[f64], cost: ExecutionCost) -> u64 {
        self.appended[shard] += 1;
        let seq = self.appended[shard];
        encode_record(&mut self.buf, shard as u32, seq, point, cost);
        seq
    }

    /// Highest sequence number of `shard` known durable.
    pub(crate) fn synced_seq(&self, shard: usize) -> u64 {
        self.synced[shard]
    }

    /// Bytes appended and not yet committed (including frames whose
    /// previous commit failed and rolled back).
    pub(crate) fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Rolls the file back to the durable prefix, dropping bytes from a
    /// torn or unsynced write so a retry starts clean.
    fn rollback(&mut self) -> std::io::Result<()> {
        self.file.set_len(self.durable_len)
    }

    /// Group commit: writes every buffered frame and syncs once. Every
    /// shard's synced sequence advances only after the sync returns.
    pub(crate) fn commit(&mut self, io: &mut DurabilityIo) -> Result<(), WalError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        if io.crashed {
            return Err(WalError::Crashed);
        }
        let io_err = |stage: &str, path: &Path, detail: String| {
            WalError::Io(MlqError::IoFault {
                reason: format!("journal {stage} {}: {detail}", path.display()),
            })
        };
        if io.arm(CrashOp::WalWrite) {
            // Power cut mid-write: a prefix of the group reaches the
            // platter, nothing is synced, the process is gone.
            let keep = io.torn_bytes().min(self.buf.len());
            let _ = self.file.seek(SeekFrom::Start(self.durable_len));
            let _ = self.file.write_all(&self.buf[..keep]);
            let _ = self.file.sync_all();
            return Err(WalError::Crashed);
        }
        let mut attempt = 0u32;
        loop {
            let outcome = match io.write_fault(self.buf.len()) {
                WriteFault::None => self
                    .file
                    .seek(SeekFrom::Start(self.durable_len))
                    .and_then(|_| self.file.write_all(&self.buf))
                    .map_err(|e| e.to_string()),
                WriteFault::Error => Err("injected write fault".to_string()),
                WriteFault::Torn { keep } => {
                    let keep = keep % self.buf.len().max(1);
                    let _ = self.file.seek(SeekFrom::Start(self.durable_len));
                    let _ = self.file.write_all(&self.buf[..keep]);
                    Err("injected torn write".to_string())
                }
            };
            match outcome {
                Ok(()) => break,
                Err(detail) => {
                    let _ = self.rollback();
                    if !io.backoff(&mut attempt) {
                        return Err(io_err("write", &self.path, detail));
                    }
                }
            }
        }
        if io.arm(CrashOp::WalSync) {
            // Power cut before the sync: the written-but-unsynced bytes
            // are lost. Model the loss by rolling them back.
            let _ = self.rollback();
            let _ = self.file.sync_all();
            return Err(WalError::Crashed);
        }
        let mut attempt = 0u32;
        loop {
            // `sync_data` suffices: the file only grows between
            // truncations, and it flushes the length change with the
            // data. It measured no slower than `sync_all` (DESIGN.md
            // §11.1).
            let outcome = match io.sync_fault() {
                MetaFault::None => self.file.sync_data().map_err(|e| e.to_string()),
                MetaFault::Error => Err("injected sync fault".to_string()),
            };
            match outcome {
                Ok(()) => break,
                Err(detail) => {
                    if !io.backoff(&mut attempt) {
                        // Durability of the written bytes is unknown; roll
                        // them back so the next commit rewrites the whole
                        // buffer from the durable prefix.
                        let _ = self.rollback();
                        return Err(io_err("sync", &self.path, detail));
                    }
                }
            }
        }
        self.durable_len += self.buf.len() as u64;
        self.synced.copy_from_slice(&self.appended);
        self.buf.clear();
        Ok(())
    }

    /// Empties the journal down to a fresh name table once a checkpoint
    /// round has made every record redundant. Sequence numbers keep
    /// counting.
    pub(crate) fn truncate(&mut self, io: &mut DurabilityIo) -> Result<(), WalError> {
        if io.crashed {
            return Err(WalError::Crashed);
        }
        if io.arm(CrashOp::WalTruncate) {
            return Err(WalError::Crashed);
        }
        let mut head = Vec::new();
        encode_head(&mut head, &self.names);
        // A cut after `set_len` leaves an empty or torn-headed file, which
        // recovery reads as an empty journal: the checkpoint covers it.
        self.file
            .set_len(0)
            .and_then(|_| self.file.seek(SeekFrom::Start(0)))
            .and_then(|_| self.file.write_all(&head))
            .and_then(|_| self.file.sync_all())
            .map_err(|e| {
                WalError::Io(MlqError::IoFault {
                    reason: format!("journal truncate {}: {e}", self.path.display()),
                })
            })?;
        self.durable_len = head.len() as u64;
        Ok(())
    }
}

/// Writes `bytes` to `path` through a sibling temporary and an atomic
/// rename, screened by the fault injector and the crash hooks:
/// `write_crash` fires before anything is written (the file never
/// appears), `rename_crash` fires after the temporary is durable but
/// before the rename (the target keeps its old content).
pub(crate) fn write_file_durable(
    io: &mut DurabilityIo,
    path: &Path,
    bytes: &[u8],
    write_crash: Option<CrashOp>,
    rename_crash: Option<CrashOp>,
) -> Result<(), WalError> {
    if io.crashed {
        return Err(WalError::Crashed);
    }
    if let Some(op) = write_crash {
        if io.arm(op) {
            return Err(WalError::Crashed);
        }
    }
    let io_err = |stage: &str, detail: String| {
        WalError::Io(MlqError::IoFault {
            reason: format!("checkpoint {stage} {}: {detail}", path.display()),
        })
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut attempt = 0u32;
    loop {
        let outcome = (|| -> Result<(), String> {
            let mut file = File::create(&tmp).map_err(|e| e.to_string())?;
            match io.write_fault(bytes.len()) {
                WriteFault::None => {
                    file.write_all(bytes).map_err(|e| e.to_string())?;
                }
                WriteFault::Error => {
                    return Err("injected write fault".to_string());
                }
                WriteFault::Torn { keep } => {
                    let _ = file.write_all(&bytes[..keep % bytes.len().max(1)]);
                    return Err("injected torn write".to_string());
                }
            }
            match io.sync_fault() {
                MetaFault::None => file.sync_all().map_err(|e| e.to_string()),
                MetaFault::Error => Err("injected sync fault".to_string()),
            }
        })();
        match outcome {
            Ok(()) => break,
            Err(detail) => {
                if !io.backoff(&mut attempt) {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(io_err("write", detail));
                }
            }
        }
    }
    if let Some(op) = rename_crash {
        if io.arm(op) {
            let _ = std::fs::remove_file(&tmp);
            return Err(WalError::Crashed);
        }
    }
    let mut attempt = 0u32;
    loop {
        let outcome = match io.rename_fault() {
            MetaFault::None => std::fs::rename(&tmp, path).map_err(|e| e.to_string()),
            MetaFault::Error => Err("injected rename fault".to_string()),
        };
        match outcome {
            Ok(()) => return Ok(()),
            Err(detail) => {
                if !io.backoff(&mut attempt) {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(io_err("rename", detail));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlq_wal_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn quiet_io() -> DurabilityIo {
        DurabilityIo::new(&DurabilityConfig::new("unused")).unwrap()
    }

    fn cost(cpu: f64, io: f64) -> ExecutionCost {
        ExecutionCost { cpu, io, results: 1 }
    }

    /// A fresh journal at `path` over shards `names`, its name table
    /// written, every sequence starting at 1.
    fn fresh_journal(path: &Path, names: &[&str]) -> Journal {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let seqs = vec![0; names.len()];
        let mut journal = Journal::open_preserving(path.to_path_buf(), names, seqs).unwrap();
        journal.truncate(&mut quiet_io()).unwrap();
        journal
    }

    /// Sequence numbers per record, for one shard.
    fn seqs_of(scan: &WalScan, shard: usize) -> Vec<u64> {
        scan.records.iter().filter(|(s, _)| *s == shard).map(|(_, r)| r.seq).collect()
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let dir = temp_dir("roundtrip");
        let path = dir.join(JOURNAL_FILE);
        let mut wal = fresh_journal(&path, &["A", "B"]);
        let mut io = quiet_io();
        let points = [vec![1.5, -0.25], vec![f64::MIN_POSITIVE, 1e300], vec![3.0, 4.0]];
        let shards = [1, 0, 1];
        for (i, p) in points.iter().enumerate() {
            let seq = wal.append(shards[i], p, cost(i as f64 + 0.125, 7.75));
            assert_eq!(seq, if i == 2 { 2 } else { 1 });
        }
        assert_eq!((wal.synced_seq(0), wal.synced_seq(1)), (0, 0));
        wal.commit(&mut io).unwrap();
        assert_eq!((wal.synced_seq(0), wal.synced_seq(1)), (1, 2));

        let scan = read_journal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.names, ["A", "B"]);
        assert_eq!(scan.records.len(), 3);
        for (i, (shard, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*shard, shards[i]);
            assert_eq!(rec.point, points[i]);
            assert_eq!(rec.cost.cpu.to_bits(), (i as f64 + 0.125).to_bits());
            assert_eq!(rec.cost.io.to_bits(), 7.75f64.to_bits());
        }
        assert_eq!(seqs_of(&scan, 1), [1, 2]);

        // Truncation keeps the name table and the sequence numbers.
        wal.truncate(&mut io).unwrap();
        assert_eq!(wal.append(0, &[9.0, 9.0], cost(1.0, 1.0)), 2);
        wal.commit(&mut io).unwrap();
        let scan = read_journal(&path).unwrap();
        assert_eq!(scan.names, ["A", "B"]);
        assert_eq!(seqs_of(&scan, 0), [2]);
        assert!(seqs_of(&scan, 1).is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One record frame, byte for byte: a format change must show here.
    #[test]
    fn record_frame_bytes_are_pinned() {
        let mut frame = Vec::new();
        encode_record(
            &mut frame,
            2,
            7,
            &[1.5, -0.25],
            ExecutionCost { cpu: 0.125, io: 7.75, results: 3 },
        );
        let mut payload = Vec::new();
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        for v in [1.5f64, -0.25, 0.125, 7.75] {
            payload.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        payload.extend_from_slice(&3u64.to_le_bytes());
        assert_eq!(payload.len(), 56);
        assert_eq!(frame.len(), 64);
        assert_eq!(frame[0..4], 56u32.to_le_bytes());
        assert_eq!(frame[4..8], 0x203A_6A67u32.to_le_bytes());
        assert_eq!(frame[8..], payload[..]);
    }

    #[test]
    fn legacy_per_shard_journals_still_read() {
        let dir = temp_dir("legacy");
        let path = dir.join("s.wal");
        let mut bytes = Vec::new();
        for seq in 1..=3u64 {
            encode_legacy_record(&mut bytes, seq, &[seq as f64], cost(2.0, 0.5));
        }
        std::fs::write(&path, &bytes).unwrap();
        let scan = read_legacy_wal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(seqs_of(&scan, 0), [1, 2, 3]);
        assert_eq!(scan.records[2].1.point, [3.0]);
        // The shared journal's reader refuses a file without a name table.
        assert!(read_journal(&path).unwrap().torn.is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_to_last_valid_frame() {
        let dir = temp_dir("torn");
        let path = dir.join(JOURNAL_FILE);
        let mut wal = fresh_journal(&path, &["A", "B"]);
        let mut io = quiet_io();
        for i in 0..5 {
            wal.append(i % 2, &[f64::from(i as u32)], cost(1.0, 1.0));
        }
        wal.commit(&mut io).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Chop the file at every byte boundary: the scan must recover a
        // clean prefix of whole records, never error, never panic.
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = read_journal(&path).unwrap();
            assert!(scan.valid_len <= cut as u64);
            for (i, (shard, _)) in scan.records.iter().enumerate() {
                assert_eq!(*shard, i % 2);
            }
            assert_eq!(seqs_of(&scan, 0), (1..=seqs_of(&scan, 0).len() as u64).collect::<Vec<_>>());
            if cut < full.len() {
                assert!(scan.records.len() < 5 || scan.torn.is_none());
            }
        }
        // Corrupt a middle byte: the scan stops there.
        let mut corrupt = full.clone();
        corrupt[full.len() / 2] ^= 0x10;
        std::fs::write(&path, &corrupt).unwrap();
        let scan = read_journal(&path).unwrap();
        assert!(scan.torn.is_some());
        assert!(scan.records.len() < 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_journal_reads_empty() {
        for scan in [
            read_journal(Path::new("/nonexistent/never/feedback.journal")).unwrap(),
            read_legacy_wal(Path::new("/nonexistent/never/s.wal")).unwrap(),
        ] {
            assert!(scan.names.is_empty());
            assert!(scan.records.is_empty());
            assert_eq!(scan.valid_len, 0);
            assert!(scan.torn.is_none());
        }
    }

    #[test]
    fn injected_write_faults_are_retried_and_leave_clean_frames() {
        let dir = temp_dir("faults");
        let path = dir.join(JOURNAL_FILE);
        let mut config = DurabilityConfig::new(&dir);
        config.fault = Some(FaultConfig {
            seed: 9,
            write_error_rate: 0.3,
            torn_write_rate: 0.2,
            sync_error_rate: 0.2,
            ..FaultConfig::none()
        });
        config.retry = RetryPolicy { max_retries: 50, backoff: Duration::ZERO };
        let mut io = DurabilityIo::new(&config).unwrap();
        let mut wal = fresh_journal(&path, &["A"]);
        for i in 0..200u32 {
            wal.append(0, &[f64::from(i)], cost(f64::from(i), 2.0));
            wal.commit(&mut io).unwrap();
        }
        assert_eq!(wal.synced_seq(0), 200);
        assert!(io.take_retries() > 0, "faults at 30% never triggered a retry");
        let scan = read_journal(&path).unwrap();
        assert!(scan.torn.is_none(), "retried commits left a torn frame: {:?}", scan.torn);
        assert_eq!(scan.records.len(), 200);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_retries_surface_io_error_and_file_stays_consistent() {
        let dir = temp_dir("exhaust");
        let path = dir.join(JOURNAL_FILE);
        let mut config = DurabilityConfig::new(&dir);
        config.fault = Some(FaultConfig { seed: 1, write_error_rate: 1.0, ..FaultConfig::none() });
        config.retry = RetryPolicy { max_retries: 2, backoff: Duration::ZERO };
        let mut io = DurabilityIo::new(&config).unwrap();
        let mut wal = fresh_journal(&path, &["A"]);
        wal.append(0, &[1.0], cost(1.0, 1.0));
        assert!(matches!(wal.commit(&mut io), Err(WalError::Io(_))));
        assert_eq!(wal.synced_seq(0), 0);
        assert!(wal.pending_bytes() > 0, "a failed commit must keep its frames");
        let scan = read_journal(&path).unwrap();
        assert!(scan.records.is_empty(), "failed commit left visible records");
        assert!(scan.torn.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_sync_crash_loses_unsynced_bytes_and_halts_io() {
        let dir = temp_dir("synccrash");
        let path = dir.join(JOURNAL_FILE);
        let mut config = DurabilityConfig::new(&dir);
        config.crash = Some(CrashPoint { op: CrashOp::WalSync, at: 2, torn_bytes: 0 });
        let mut io = DurabilityIo::new(&config).unwrap();
        let mut wal = fresh_journal(&path, &["A", "B"]);
        wal.append(0, &[1.0], cost(1.0, 1.0));
        wal.commit(&mut io).unwrap();
        wal.append(0, &[2.0], cost(2.0, 2.0));
        wal.append(1, &[2.0], cost(2.0, 2.0));
        assert!(matches!(wal.commit(&mut io), Err(WalError::Crashed)));
        assert!(io.crashed());
        assert_eq!((wal.synced_seq(0), wal.synced_seq(1)), (1, 0));
        // The first commit survived; the second is gone entirely.
        let scan = read_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn.is_none());
        // All further durable I/O is refused.
        wal.append(0, &[3.0], cost(3.0, 3.0));
        assert!(matches!(wal.commit(&mut io), Err(WalError::Crashed)));
        assert!(matches!(wal.truncate(&mut io), Err(WalError::Crashed)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_write_crash_leaves_a_torn_recoverable_prefix() {
        let dir = temp_dir("writecrash");
        let path = dir.join(JOURNAL_FILE);
        let mut config = DurabilityConfig::new(&dir);
        config.crash = Some(CrashPoint { op: CrashOp::WalWrite, at: 2, torn_bytes: 13 });
        let mut io = DurabilityIo::new(&config).unwrap();
        let mut wal = fresh_journal(&path, &["A"]);
        wal.append(0, &[1.0], cost(1.0, 1.0));
        wal.commit(&mut io).unwrap();
        wal.append(0, &[2.0], cost(2.0, 2.0));
        assert!(matches!(wal.commit(&mut io), Err(WalError::Crashed)));
        let scan = read_journal(&path).unwrap();
        assert_eq!(scan.records.len(), 1, "torn group leaked a whole record");
        assert!(scan.torn.is_some(), "13 torn bytes should scan as a torn tail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_file_writes_survive_faults_and_respect_rename_crash() {
        let dir = temp_dir("filewrite");
        let path = dir.join("ck.bin");
        let mut config = DurabilityConfig::new(&dir);
        config.fault = Some(FaultConfig {
            seed: 4,
            write_error_rate: 0.3,
            torn_write_rate: 0.2,
            sync_error_rate: 0.2,
            rename_error_rate: 0.3,
            ..FaultConfig::none()
        });
        config.retry = RetryPolicy { max_retries: 64, backoff: Duration::ZERO };
        let mut io = DurabilityIo::new(&config).unwrap();
        for round in 0..20u8 {
            let bytes = vec![round; 100];
            write_file_durable(&mut io, &path, &bytes, None, None).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), bytes);
        }

        // A rename crash leaves the previous content intact.
        let mut config = DurabilityConfig::new(&dir);
        config.crash = Some(CrashPoint { op: CrashOp::CheckpointMeta, at: 1, torn_bytes: 0 });
        let mut io = DurabilityIo::new(&config).unwrap();
        let before = std::fs::read(&path).unwrap();
        let err =
            write_file_durable(&mut io, &path, b"new content", None, Some(CrashOp::CheckpointMeta));
        assert!(matches!(err, Err(WalError::Crashed)));
        assert_eq!(std::fs::read(&path).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_stems_are_injective_and_filesystem_safe() {
        let names = ["WIN", "win", "a_b", "a_5fb", "π/υ", "..", "a-b", ""];
        let stems: Vec<String> = names.iter().map(|n| shard_stem(n)).collect();
        for (i, a) in stems.iter().enumerate() {
            assert!(a.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_'));
            for (j, b) in stems.iter().enumerate() {
                assert_eq!(i == j, a == b, "stem collision: {:?} vs {:?}", names[i], names[j]);
            }
        }
    }

    #[test]
    fn crash_occurrence_counting_is_per_op() {
        let mut config = DurabilityConfig::new("unused");
        config.crash = Some(CrashPoint { op: CrashOp::WalTruncate, at: 2, torn_bytes: 0 });
        let mut io = DurabilityIo::new(&config).unwrap();
        assert!(!io.arm(CrashOp::WalTruncate));
        assert!(!io.arm(CrashOp::WalSync));
        assert!(!io.arm(CrashOp::WalSync));
        assert!(io.arm(CrashOp::WalTruncate));
        assert!(io.crashed());
        assert!(io.arm(CrashOp::WalWrite), "post-crash ops must keep failing");
    }
}
