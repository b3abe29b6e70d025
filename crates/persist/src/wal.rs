//! The "DBWL" write-ahead log: a replayable journal of ingest batches.
//!
//! A streaming ingester cannot afford a full snapshot per batch, so
//! durability is split in two: an occasional `DBHS` snapshot (the
//! container in [`crate::container`]) plus this append-only tail of
//! every batch applied since. A crashed ingester recovers by loading
//! the last snapshot and replaying the tail through the same update
//! path — bit-identically, because the log records the exact row
//! stream and tuple updates are deterministic.
//!
//! Layout (all integers little-endian, mirroring the snapshot format):
//!
//! ```text
//! header   := "DBWL" version:u16 arity:u16 generation:u64 crc:u32
//!             (20 bytes; crc is CRC-32 over version..generation)
//! record   := len:u32 crc:u32 payload[len]
//! payload  := seq:u64 op_count:u32 op*
//! op       := tag:u8 value:u32 × arity      (tag 1 = insert, 2 = delete)
//! ```
//!
//! Rules, matching the snapshot container's:
//!
//! - **Every failure is typed.** A torn or corrupted log produces a
//!   [`PersistError`], never a panic and never a silently divergent
//!   replay: any byte prefix of a valid log either parses to a batch
//!   prefix (ends exactly on a record boundary) or errors.
//! - **Batch boundaries are durable.** [`WalWriter::append`] issues
//!   `sync_data` after every record, so an acknowledged batch survives
//!   power loss; a batch torn mid-write is discarded by
//!   [`recover`] as an uncommitted tail.
//! - **Truncation is atomic and generation-stamped.** After each
//!   snapshot the log restarts via a fresh-header temp file renamed
//!   over the old log with the header's `generation` incremented, then
//!   the parent directory is fsync'd ([`WalWriter::truncate`]) — so a
//!   crash between snapshot and truncation leaves a *longer* log of the
//!   **old** generation, never a torn one. The checkpointing caller
//!   records a [`WalPosition`] (this log's generation plus the batch
//!   count the snapshot absorbed) inside the snapshot itself, written
//!   atomically with it; recovery compares that position against the
//!   log's header and skips every batch the snapshot already contains
//!   instead of double-applying it.
//!
//! This module is the **only** sanctioned writer of `.wal` files; the
//! `wal-append-order` rule in `dbhist-analyze` fails the gate on
//! append-mode file I/O anywhere else in the workspace.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::bytes::{Reader, Writer};
use crate::crc::crc32;
use crate::error::PersistError;

/// Magic prefix of every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"DBWL";

/// WAL format version written and accepted by this build. Version 1
/// lacked the header generation and is rejected with
/// [`PersistError::VersionMismatch`].
pub const WAL_VERSION: u16 = 2;

/// Header length in bytes: magic + version + arity + generation + CRC.
/// The CRC covers the version, arity, and generation fields, so a
/// bit-flipped generation cannot silently misdirect recovery's
/// snapshot-position comparison.
pub const WAL_HEADER_LEN: usize = 20;

/// Per-record framing overhead: length + CRC-32.
pub const WAL_RECORD_OVERHEAD: usize = 8;

/// Upper bound on one record's payload (64 MiB): a corrupted length
/// field must not drive a multi-gigabyte allocation.
const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// One logged tuple operation. Values follow the schema's attribute
/// order, exactly as fed to the maintenance `insert`/`delete` path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// A tuple insert.
    Insert(Vec<u32>),
    /// A tuple delete.
    Delete(Vec<u32>),
}

impl WalOp {
    /// The operation's row values.
    #[must_use]
    pub fn row(&self) -> &[u32] {
        match self {
            WalOp::Insert(row) | WalOp::Delete(row) => row,
        }
    }

    fn tag(&self) -> u8 {
        match self {
            WalOp::Insert(_) => 1,
            WalOp::Delete(_) => 2,
        }
    }
}

/// The point in a WAL's history a snapshot absorbed: everything up to
/// (but excluding) batch `batches_covered` of log `generation` is
/// already inside the snapshot. A checkpoint stores this inside the
/// snapshot file itself — atomically with the synopsis state — so
/// recovery can prove which tail batches still need replaying instead
/// of double-applying ones the snapshot already contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    /// Header generation of the log the snapshot was cut against.
    pub generation: u64,
    /// Batches of that generation the snapshot absorbed (== the WAL's
    /// `next_seq` at snapshot time).
    pub batches_covered: u64,
}

impl WalPosition {
    /// Serialized length in bytes.
    pub const ENCODED_LEN: usize = 16;

    /// Serializes this position for the snapshot's WAL-position section.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.generation);
        w.put_u64(self.batches_covered);
        w.into_inner()
    }

    /// Deserializes a position written by [`WalPosition::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Truncated`] / [`PersistError::Corrupt`]
    /// if the payload is not exactly one encoded position.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes, "wal position");
        let generation = r.u64()?;
        let batches_covered = r.u64()?;
        r.expect_end()?;
        Ok(Self { generation, batches_covered })
    }
}

/// One committed batch, as replayed from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalBatch {
    /// Zero-based sequence number within the current log generation.
    pub seq: u64,
    /// The batch's operations, in applied order.
    pub ops: Vec<WalOp>,
}

/// A fully parsed log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalContents {
    /// Row arity recorded in the header.
    pub arity: u16,
    /// Log generation recorded in the header (bumped by truncation).
    pub generation: u64,
    /// Every committed batch, in sequence order.
    pub batches: Vec<WalBatch>,
}

/// Outcome of tolerant tail recovery: the committed prefix plus a
/// description of the discarded tail, if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecovery {
    /// Row arity recorded in the header.
    pub arity: u16,
    /// Log generation recorded in the header (bumped by truncation).
    pub generation: u64,
    /// Batches that were durably committed before the crash.
    pub batches: Vec<WalBatch>,
    /// Byte length of the valid prefix (header + committed records); a
    /// writer reopening the log truncates to this offset.
    pub valid_len: usize,
    /// The typed error the torn tail produced, if the file does not end
    /// exactly on a record boundary. `None` means a clean log.
    pub tail_error: Option<PersistError>,
}

fn encode_header(arity: u16, generation: u64) -> Vec<u8> {
    let mut body = Writer::new();
    body.put_u16(WAL_VERSION);
    body.put_u16(arity);
    body.put_u64(generation);
    let body = body.into_inner();
    let mut w = Writer::new();
    w.put_bytes(&WAL_MAGIC);
    w.put_bytes(&body);
    w.put_u32(crc32(&body));
    w.into_inner()
}

/// Encodes one record (framing + payload) for `seq` and `ops`.
///
/// # Errors
///
/// Returns [`PersistError::Corrupt`] if an op's arity disagrees with
/// the log's, or the batch exceeds the payload bound.
pub fn encode_record(seq: u64, arity: u16, ops: &[WalOp]) -> Result<Vec<u8>, PersistError> {
    let mut payload = Writer::new();
    payload.put_u64(seq);
    payload.put_len(ops.len())?;
    for op in ops {
        if op.row().len() != usize::from(arity) {
            return Err(PersistError::Corrupt {
                reason: format!("wal op arity {} does not match log arity {arity}", op.row().len()),
            });
        }
        payload.put_u8(op.tag());
        for &v in op.row() {
            payload.put_u32(v);
        }
    }
    let payload = payload.into_inner();
    let len = u32::try_from(payload.len()).ok().filter(|&l| l <= MAX_PAYLOAD).ok_or_else(|| {
        PersistError::Corrupt {
            reason: format!(
                "wal batch payload of {} bytes exceeds the record bound",
                payload.len()
            ),
        }
    })?;
    let mut framed = Writer::new();
    framed.put_u32(len);
    framed.put_u32(crc32(&payload));
    framed.put_bytes(&payload);
    Ok(framed.into_inner())
}

fn decode_payload(payload: &[u8], arity: u16, expected_seq: u64) -> Result<WalBatch, PersistError> {
    let mut r = Reader::new(payload, "wal record payload");
    let seq = r.u64()?;
    if seq != expected_seq {
        return Err(PersistError::Corrupt {
            reason: format!("wal record out of order: found seq {seq}, expected {expected_seq}"),
        });
    }
    let op_count = r.len(1 + usize::from(arity) * 4)?;
    let mut ops = Vec::with_capacity(op_count);
    for _ in 0..op_count {
        let tag = r.u8()?;
        let mut row = Vec::with_capacity(usize::from(arity));
        for _ in 0..usize::from(arity) {
            row.push(r.u32()?);
        }
        ops.push(match tag {
            1 => WalOp::Insert(row),
            2 => WalOp::Delete(row),
            other => {
                return Err(PersistError::Corrupt {
                    reason: format!("wal op tag {other} is not insert(1)/delete(2)"),
                })
            }
        });
    }
    r.expect_end()?;
    Ok(WalBatch { seq, ops })
}

/// Checks run in order of increasing assumption (as in the snapshot
/// container): magic and version need only the first 6 bytes, so a
/// version-1 log (whose header was 8 bytes) is reported as
/// [`PersistError::VersionMismatch`] rather than a truncation; the
/// header CRC is verified before the arity or generation is trusted.
fn parse_header(bytes: &[u8]) -> Result<(u16, u64), PersistError> {
    let mut r = Reader::new(bytes, "wal header");
    if r.take(4)? != WAL_MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u16()?;
    if version != WAL_VERSION {
        return Err(PersistError::VersionMismatch { found: version, expected: WAL_VERSION });
    }
    let arity = r.u16()?;
    let generation = r.u64()?;
    let crc = r.u32()?;
    // lint:allow-next-line(panic-surface): 4..16 is in bounds — the reader consumed 20 bytes above
    if crc32(&bytes[4..WAL_HEADER_LEN - 4]) != crc {
        return Err(PersistError::Corrupt { reason: "wal header crc mismatch".to_string() });
    }
    Ok((arity, generation))
}

/// Strictly parses a whole log: header, then records to end of input.
/// Any torn tail, bad CRC, or out-of-order record is an error — use
/// [`recover`] when a crash-torn tail is an expected, tolerable state.
///
/// # Errors
///
/// [`PersistError::BadMagic`] / [`PersistError::VersionMismatch`] for a
/// foreign file, [`PersistError::Truncated`] for a mid-record end,
/// [`PersistError::WalRecordCrc`] for a payload/CRC mismatch, and
/// [`PersistError::Corrupt`] for structural inconsistencies.
pub fn read(bytes: &[u8]) -> Result<WalContents, PersistError> {
    let recovery = scan(bytes)?;
    match recovery.tail_error {
        Some(err) => Err(err),
        None => Ok(WalContents {
            arity: recovery.arity,
            generation: recovery.generation,
            batches: recovery.batches,
        }),
    }
}

/// Parses the committed prefix of a possibly crash-torn log. Header
/// failures are still hard errors (the file is not a usable log at
/// all); a torn or corrupted *tail* is reported in
/// [`WalRecovery::tail_error`] alongside every batch committed before
/// it. Replay never silently diverges: the returned batches are always
/// an exact prefix of what [`WalWriter::append`] acknowledged.
///
/// # Errors
///
/// [`PersistError::BadMagic`], [`PersistError::VersionMismatch`], or
/// [`PersistError::Truncated`] when even the 8-byte header is absent.
pub fn recover(bytes: &[u8]) -> Result<WalRecovery, PersistError> {
    scan(bytes)
}

fn scan(bytes: &[u8]) -> Result<WalRecovery, PersistError> {
    let header = match bytes.get(..WAL_HEADER_LEN) {
        Some(header) => header,
        None => {
            // Short input: still grade magic/version before reporting
            // truncation, so a foreign or version-1 file is named as
            // such even when it is shorter than this format's header.
            if bytes.len() >= 6 {
                parse_header(bytes)?;
            }
            return Err(PersistError::Truncated { context: "wal header" });
        }
    };
    let (arity, generation) = parse_header(header)?;
    let mut batches = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let mut tail_error = None;
    while offset < bytes.len() {
        match next_record(bytes, offset, arity, batches.len() as u64) {
            Ok((batch, end)) => {
                batches.push(batch);
                offset = end;
            }
            Err(err) => {
                tail_error = Some(err);
                break;
            }
        }
    }
    Ok(WalRecovery { arity, generation, batches, valid_len: offset, tail_error })
}

fn next_record(
    bytes: &[u8],
    offset: usize,
    arity: u16,
    expected_seq: u64,
) -> Result<(WalBatch, usize), PersistError> {
    let mut frame = Reader::new(
        bytes.get(offset..).ok_or(PersistError::Truncated { context: "wal record frame" })?,
        "wal record frame",
    );
    let len = frame.u32()?;
    if len > MAX_PAYLOAD {
        return Err(PersistError::Corrupt {
            reason: format!("wal record declares a {len}-byte payload (bound {MAX_PAYLOAD})"),
        });
    }
    let crc = frame.u32()?;
    let payload = frame.take(len as usize)?;
    if crc32(payload) != crc {
        return Err(PersistError::WalRecordCrc { seq: expected_seq });
    }
    let batch = decode_payload(payload, arity, expected_seq)?;
    let end = offset + WAL_RECORD_OVERHEAD + len as usize;
    Ok((batch, end))
}

/// The append-side handle: owns the log file, assigns sequence numbers,
/// and makes every acknowledged batch durable before returning.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    arity: u16,
    generation: u64,
    next_seq: u64,
    appended_bytes: u64,
    /// Set when an append failed part-way: the file may hold a torn
    /// record at the cursor, so nothing more may be written through this
    /// handle.
    poisoned: bool,
}

impl WalWriter {
    fn io(path: &Path) -> impl Fn(std::io::Error) -> PersistError + '_ {
        move |e| PersistError::Io { path: path.display().to_string(), reason: e.to_string() }
    }

    /// Refuses to write through a poisoned handle.
    fn check_usable(&self) -> Result<(), PersistError> {
        if self.poisoned {
            return Err(PersistError::Io {
                path: self.path.display().to_string(),
                reason: "an earlier append failed part-way; reopen the log with WalWriter::open"
                    .into(),
            });
        }
        Ok(())
    }

    /// Creates (or truncates) the log at `path` with a fresh
    /// generation-zero header and syncs it (and its directory entry) to
    /// disk.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure.
    pub fn create(path: impl Into<PathBuf>, arity: u16) -> Result<Self, PersistError> {
        Self::create_at(path, arity, 0)
    }

    /// Creates (or truncates) the log at `path` with a fresh header
    /// carrying `generation`. Used by recovery when the log file is
    /// missing but the snapshot records a position: the replacement log
    /// starts at the generation *after* the snapshot's, which encodes
    /// "the snapshot absorbed everything; the tail is empty".
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure.
    pub fn create_at(
        path: impl Into<PathBuf>,
        arity: u16,
        generation: u64,
    ) -> Result<Self, PersistError> {
        let path = path.into();
        let mut file = File::create(&path).map_err(Self::io(&path))?;
        file.write_all(&encode_header(arity, generation)).map_err(Self::io(&path))?;
        file.sync_data().map_err(Self::io(&path))?;
        crate::sync_parent_dir(&path)?;
        Ok(Self { path, file, arity, generation, next_seq: 0, appended_bytes: 0, poisoned: false })
    }

    /// Opens an existing log for appending: replays its committed
    /// prefix's bookkeeping, truncates any crash-torn tail to the last
    /// committed boundary, and positions at the end. Creates a fresh
    /// log if `path` does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure, or the
    /// header's typed parse error if the file is not a WAL; a committed
    /// arity differing from `arity` is [`PersistError::Corrupt`].
    pub fn open(path: impl Into<PathBuf>, arity: u16) -> Result<Self, PersistError> {
        let path = path.into();
        if !path.exists() {
            return Self::create(path, arity);
        }
        let bytes = crate::read_file(&path)?;
        let recovery = scan(&bytes)?;
        if recovery.arity != arity {
            return Err(PersistError::Corrupt {
                reason: format!(
                    "wal arity {} does not match the schema arity {arity}",
                    recovery.arity
                ),
            });
        }
        let file = OpenOptions::new().write(true).open(&path).map_err(Self::io(&path))?;
        file.set_len(recovery.valid_len as u64).map_err(Self::io(&path))?;
        file.sync_data().map_err(Self::io(&path))?;
        let mut writer = Self {
            path,
            file,
            arity,
            generation: recovery.generation,
            next_seq: recovery.batches.len() as u64,
            appended_bytes: (recovery.valid_len - WAL_HEADER_LEN) as u64,
            poisoned: false,
        };
        use std::io::Seek as _;
        writer.file.seek(std::io::SeekFrom::End(0)).map_err(Self::io(&writer.path.clone()))?;
        Ok(writer)
    }

    /// Appends one batch and syncs it to disk (`sync_data`). Returns
    /// the batch's sequence number; once this returns, [`recover`]
    /// replays the batch even across a `SIGKILL` or power loss.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Corrupt`] on an arity mismatch or
    /// [`PersistError::Io`] on filesystem failure. A failed write or sync
    /// may leave part of the record after the committed prefix, so it
    /// poisons the writer: every later `append` and
    /// [`WalWriter::truncate`] returns [`PersistError::Io`] and writes
    /// nothing. [`WalWriter::open`] cuts the torn tail and resumes.
    pub fn append(&mut self, ops: &[WalOp]) -> Result<u64, PersistError> {
        self.check_usable()?;
        let seq = self.next_seq;
        let record = encode_record(seq, self.arity, ops)?;
        let written = self.file.write_all(&record).and_then(|()| self.file.sync_data());
        if let Err(e) = written {
            self.poisoned = true;
            return Err(Self::io(&self.path)(e));
        }
        self.next_seq += 1;
        self.appended_bytes += record.len() as u64;
        Ok(seq)
    }

    /// Atomically restarts the log after a snapshot: writes a fresh
    /// header carrying the **next generation** to a sibling temp file,
    /// syncs it, renames it over the log, and syncs the parent
    /// directory, so no observer ever sees a headerless or
    /// half-truncated file and the rename itself survives power loss.
    /// Sequence numbering restarts at zero.
    ///
    /// A crash before the rename leaves the old-generation log intact;
    /// recovery then matches it against the snapshot's recorded
    /// [`WalPosition`] and skips the batches the snapshot already
    /// absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] on filesystem failure, or if an
    /// earlier append poisoned the writer; the old log remains intact
    /// (and replayable) if any step fails.
    pub fn truncate(&mut self) -> Result<(), PersistError> {
        self.check_usable()?;
        let mut tmp = self.path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let next_generation = self.generation + 1;
        let mut fresh = File::create(&tmp).map_err(Self::io(&tmp))?;
        fresh.write_all(&encode_header(self.arity, next_generation)).map_err(Self::io(&tmp))?;
        fresh.sync_data().map_err(Self::io(&tmp))?;
        std::fs::rename(&tmp, &self.path).map_err(Self::io(&self.path))?;
        crate::sync_parent_dir(&self.path)?;
        self.file = fresh;
        self.generation = next_generation;
        self.next_seq = 0;
        self.appended_bytes = 0;
        Ok(())
    }

    /// Sequence number the next [`WalWriter::append`] will assign (also
    /// the number of batches committed this log generation).
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Header generation of the current log (starts at the created
    /// value, +1 per [`WalWriter::truncate`]).
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The position a snapshot cut right now would absorb: the current
    /// generation plus every batch committed so far this generation.
    #[must_use]
    pub fn position(&self) -> WalPosition {
        WalPosition { generation: self.generation, batches_covered: self.next_seq }
    }

    /// Record bytes committed in the current log generation (resets on
    /// [`WalWriter::truncate`]; reflects the on-disk committed prefix
    /// after [`WalWriter::open`]).
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Row arity this log accepts.
    #[must_use]
    pub fn arity(&self) -> u16 {
        self.arity
    }

    /// The log's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dbhist-wal-{}-{tag}.wal", std::process::id()))
    }

    fn sample_batches() -> Vec<Vec<WalOp>> {
        vec![
            vec![WalOp::Insert(vec![1, 2, 3]), WalOp::Insert(vec![4, 5, 6])],
            vec![WalOp::Delete(vec![1, 2, 3])],
            vec![
                WalOp::Insert(vec![7, 8, 9]),
                WalOp::Delete(vec![4, 5, 6]),
                WalOp::Insert(vec![0, 0, 0]),
            ],
        ]
    }

    #[test]
    fn append_read_round_trip() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::create(&path, 3).unwrap();
        for (i, ops) in sample_batches().iter().enumerate() {
            assert_eq!(w.append(ops).unwrap(), i as u64);
        }
        let bytes = crate::read_file(&path).unwrap();
        let contents = read(&bytes).unwrap();
        assert_eq!(contents.arity, 3);
        assert_eq!(contents.batches.len(), 3);
        for (i, batch) in contents.batches.iter().enumerate() {
            assert_eq!(batch.seq, i as u64);
            assert_eq!(batch.ops, sample_batches()[i]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_continues_sequence() {
        let path = temp_path("reopen");
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append(&sample_batches()[0]).unwrap();
        drop(w);
        let mut w = WalWriter::open(&path, 3).unwrap();
        assert_eq!(w.next_seq(), 1);
        assert_eq!(w.append(&sample_batches()[1]).unwrap(), 1);
        let contents = read(&crate::read_file(&path).unwrap()).unwrap();
        assert_eq!(contents.batches.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_truncates_torn_tail() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append(&sample_batches()[0]).unwrap();
        w.append(&sample_batches()[1]).unwrap();
        drop(w);
        // Tear the file mid-record (drop the last 3 bytes).
        let bytes = crate::read_file(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let recovery = recover(&crate::read_file(&path).unwrap()).unwrap();
        assert_eq!(recovery.batches.len(), 1, "torn second batch is discarded");
        assert!(recovery.tail_error.is_some());
        // Reopening truncates to the committed boundary and appends.
        let mut w = WalWriter::open(&path, 3).unwrap();
        assert_eq!(w.next_seq(), 1);
        w.append(&sample_batches()[2]).unwrap();
        let contents = read(&crate::read_file(&path).unwrap()).unwrap();
        assert_eq!(contents.batches.len(), 2);
        assert_eq!(contents.batches[1].ops, sample_batches()[2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_append_poisons_the_writer() {
        let path = temp_path("poison");
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append(&sample_batches()[0]).unwrap();
        let committed = crate::read_file(&path).unwrap();
        // A read-only handle makes the next write fail.
        let writable = std::mem::replace(&mut w.file, File::open(&path).unwrap());
        assert!(matches!(w.append(&sample_batches()[1]), Err(PersistError::Io { .. })));
        w.file = writable;
        // Even with a writable file back, the handle refuses to write.
        assert!(matches!(w.append(&sample_batches()[1]), Err(PersistError::Io { .. })));
        assert!(matches!(w.truncate(), Err(PersistError::Io { .. })));
        assert_eq!(
            crate::read_file(&path).unwrap(),
            committed,
            "nothing written after the failure"
        );
        assert_eq!(w.next_seq(), 1);
        // Reopening is the way out.
        let mut w = WalWriter::open(&path, 3).unwrap();
        assert_eq!(w.append(&sample_batches()[1]).unwrap(), 1);
        assert_eq!(read(&crate::read_file(&path).unwrap()).unwrap().batches.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_restarts_the_log() {
        let path = temp_path("truncate");
        let mut w = WalWriter::create(&path, 3).unwrap();
        assert_eq!(w.generation(), 0);
        w.append(&sample_batches()[0]).unwrap();
        assert!(w.appended_bytes() > 0);
        w.truncate().unwrap();
        assert_eq!(w.next_seq(), 0);
        assert_eq!(w.generation(), 1, "truncation bumps the header generation");
        assert_eq!(w.appended_bytes(), 0, "truncation resets the byte accounting");
        assert_eq!(w.append(&sample_batches()[1]).unwrap(), 0);
        let contents = read(&crate::read_file(&path).unwrap()).unwrap();
        assert_eq!(contents.generation, 1);
        assert_eq!(contents.batches.len(), 1);
        assert_eq!(contents.batches[0].ops, sample_batches()[1]);
        // No temp file lingers.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!Path::new(&tmp).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_preserves_generation_and_byte_accounting() {
        let path = temp_path("generation");
        let mut w = WalWriter::create(&path, 3).unwrap();
        w.append(&sample_batches()[0]).unwrap();
        w.truncate().unwrap();
        w.truncate().unwrap();
        w.append(&sample_batches()[1]).unwrap();
        let record_bytes = w.appended_bytes();
        drop(w);
        let w = WalWriter::open(&path, 3).unwrap();
        assert_eq!(w.generation(), 2);
        assert_eq!(w.next_seq(), 1);
        assert_eq!(w.appended_bytes(), record_bytes, "open reflects the committed prefix");
        assert_eq!(w.position(), WalPosition { generation: 2, batches_covered: 1 });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_at_seeds_the_generation() {
        let path = temp_path("create-at");
        let w = WalWriter::create_at(&path, 3, 7).unwrap();
        assert_eq!(w.generation(), 7);
        drop(w);
        let contents = read(&crate::read_file(&path).unwrap()).unwrap();
        assert_eq!(contents.generation, 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_generation_flips_are_detected() {
        let path = temp_path("header-crc");
        let mut w = WalWriter::create_at(&path, 3, 3).unwrap();
        w.append(&sample_batches()[0]).unwrap();
        let bytes = crate::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // Flip one generation byte (offsets 8..16): the header CRC must
        // reject it — a silently altered generation would misdirect the
        // recovery position comparison.
        for pos in 8..16 {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            assert!(
                matches!(read(&flipped), Err(PersistError::Corrupt { .. })),
                "generation byte {pos} flip must fail the header crc"
            );
        }
    }

    #[test]
    fn wal_position_round_trips() {
        let pos = WalPosition { generation: 42, batches_covered: 7 };
        let bytes = pos.encode();
        assert_eq!(bytes.len(), WalPosition::ENCODED_LEN);
        assert_eq!(WalPosition::decode(&bytes).unwrap(), pos);
        assert!(WalPosition::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut long = bytes;
        long.push(0);
        assert!(WalPosition::decode(&long).is_err());
    }

    #[test]
    fn corruption_is_typed_never_silent() {
        let path = temp_path("corrupt");
        let mut w = WalWriter::create(&path, 3).unwrap();
        for ops in sample_batches() {
            w.append(&ops).unwrap();
        }
        let bytes = crate::read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // Flip one payload byte inside the first record.
        let mut flipped = bytes.clone();
        flipped[WAL_HEADER_LEN + WAL_RECORD_OVERHEAD + 2] ^= 0x40;
        assert!(matches!(read(&flipped), Err(PersistError::WalRecordCrc { seq: 0 })));
        // Tolerant recovery surfaces the same typed error with no batches.
        let rec = recover(&flipped).unwrap();
        assert!(rec.batches.is_empty());
        assert!(matches!(rec.tail_error, Some(PersistError::WalRecordCrc { seq: 0 })));

        // Foreign magic and version skew are hard errors for both paths.
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        assert_eq!(read(&foreign).unwrap_err(), PersistError::BadMagic);
        assert_eq!(recover(&foreign).unwrap_err(), PersistError::BadMagic);
        let mut skewed = bytes;
        skewed[4] = 0xFF;
        assert!(matches!(read(&skewed), Err(PersistError::VersionMismatch { .. })));
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let path = temp_path("arity");
        let mut w = WalWriter::create(&path, 3).unwrap();
        assert!(matches!(
            w.append(&[WalOp::Insert(vec![1, 2])]),
            Err(PersistError::Corrupt { .. })
        ));
        drop(w);
        assert!(matches!(WalWriter::open(&path, 4), Err(PersistError::Corrupt { .. })));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_log_reads_empty() {
        let path = temp_path("empty");
        let w = WalWriter::create(&path, 2).unwrap();
        drop(w);
        let contents = read(&crate::read_file(&path).unwrap()).unwrap();
        assert_eq!(contents.arity, 2);
        assert!(contents.batches.is_empty());
        std::fs::remove_file(&path).ok();
    }
}
