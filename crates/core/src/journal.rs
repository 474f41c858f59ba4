//! Durable unlearning-request journal: the write-ahead log.
//!
//! A deployment checkpoint (`Checkpoint`) captures the system *between*
//! requests; it says nothing about a request that was in flight when the
//! process died. The journal closes that gap: an append-only log next to
//! the checkpoint file records every request's progress through the
//! state machine
//!
//! ```text
//! RECEIVED → UNLEARNED → RECOVERED → (RELEARNED)
//! ```
//!
//! with, at each transition, the global parameters and RNG state at that
//! boundary. This module is the log only — records, commit frames,
//! segments, torn-tail repair. It knows the *shape* of a record
//! ([`JournalRecord`], [`RequestState`]) and nothing about how a request
//! is executed; which records are written when, and how a killed run is
//! finished from them, is `crate::lifecycle`'s.
//!
//! The journal is stored as checksummed, length-framed commits in
//! append-only segment files next to a small marker file (see
//! [`JOURNAL_VERSION`]), all driven through the [`crate::vfs::Vfs`]
//! syscall layer; each record inside a commit is one [`crate::frame`]
//! (JSON skeleton + raw-`f32` body). A snapshot is stored one of three
//! ways. A record whose model is bit-identical to the last stored one in
//! the same segment — RECEIVED after the previous boundary, the members
//! of a coalesced RECEIVED or RECOVERED set — holds a back-reference. A
//! *derived* record ([`RequestState::is_derived`]: UNLEARNED) holds only
//! a CRC32 digest of its snapshot's bits: the unit engine is
//! deterministic, so the model is rebuilt by replaying the accepted
//! ascents from the unit's RECEIVED record, and the digest checks the
//! replay. Every other record holds its snapshot inline. An append costs
//! one `append` + one `fsync` regardless of journal length; a crash
//! mid-append tears at most the final commit, which the next open
//! repairs by truncating to the last valid record; and in-place
//! corruption is caught by a CRC32 per commit and surfaced as a typed
//! [`JournalError::CorruptRecord`].

use crate::frame::{self, read_u32};
use crate::vfs::{self, StdFs, StorageError, Vfs};
use qd_fed::Payload;
use qd_tensor::rng::RngState;
use qd_tensor::{Shape, Tensor};
use qd_unlearn::{GuardStats, UnlearnRequest};
use serde::{DeError, Deserialize, Serialize};
use std::ops::{Deref, Range};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Current journal format version.
///
/// The journal path itself holds only the [`JOURNAL_MAGIC`] marker
/// bytes; the records live in sibling `<name>.seg-NNNNNN` files (see
/// [`segment_path`]) as checksummed, length-framed commits:
///
/// ```text
/// len: u32le | crc32(body): u32le | body
/// body = count: u32le, then per record: rec_len: u32le | frame
/// ```
///
/// so an append is one framed write + one fsync, and every commit is
/// independently verifiable. Each record is a [`crate::frame`], and its
/// skeleton's `global` says how the snapshot is stored:
///
/// - `[...]`: inline, the parameters in the frame's body;
/// - `null`: a back-reference. The snapshot is bit-identical (same
///   shapes, same `to_bits`) to the last *stored* — inline or
///   referenced — record's in the same segment, and the reader resolves
///   it to those parameters;
/// - `{"crc32": n}`: derived, on every record whose state
///   [`RequestState::is_derived`] and on no other. `n` is the CRC32 of the
///   snapshot's bits (each tensor's rank and dims, then its scalars'
///   `to_bits`, all little-endian), and the record reads back with an
///   empty `global`. A derived record references nothing in the file, and
///   nothing references it.
///
/// Version 6 added derived records; version 5 stored UNLEARNED snapshots
/// inline or by reference. The first stored record of every segment is
/// inline, so each segment decodes on its own. No other version is read:
/// a version-1/2 JSON journal or a version-3/4/5 marker is refused with
/// [`JournalError::UnsupportedVersion`] and left untouched.
pub const JOURNAL_VERSION: u32 = 6;

/// Contents of a version-6 journal marker file.
pub const JOURNAL_MAGIC: &[u8; 5] = b"QDJ6\n";

/// The key of a derived record's `global`: `{"crc32": digest}`.
const DIGEST_KEY: &str = "crc32";

/// Appends rotate to a fresh segment file once the tail segment reaches
/// this many bytes, bounding the cost of a torn-tail repair (which
/// rewrites one segment) and of any future segment-level retention.
const SEGMENT_ROTATE_BYTES: usize = 256 * 1024;

/// The path of segment `index` of the journal at `journal`:
/// `<name>.seg-NNNNNN` next to the marker file.
pub fn segment_path(journal: &Path, index: u32) -> PathBuf {
    let mut name = journal
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("journal"), |n| n.to_os_string());
    name.push(format!(".seg-{index:06}"));
    journal.with_file_name(name)
}

/// Where a journaled request stands. States are strictly ordered; a
/// request only ever moves forward (relearning appends a new terminal
/// record rather than rewinding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RequestState {
    /// Accepted for serving; no model change yet.
    Received,
    /// Ascent stage done (and guard-accepted, when a guard is active).
    Unlearned,
    /// Recovery stage done — the request is fully served.
    Recovered,
    /// Erased knowledge restored on explicit relearn. Terminal.
    Relearned,
    /// Shed unserved by a tripped per-tenant circuit breaker. Terminal;
    /// the model never changed for this request. Carries a typed
    /// [`FailReason`] in the record.
    Failed,
    /// Isolated to the dead-letter set: the request could not be served
    /// under any rung of the retry ladder (alone or, for a coalesced
    /// batch, as the poison member bisection converged on). Terminal;
    /// the model never changed for this request. Carries a typed
    /// [`FailReason`] in the record.
    Quarantined,
}

/// What a record in some [`RequestState`] does to the forgotten-state
/// marks when the journal is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MarkEffect {
    /// The request's target counts as forgotten from here on.
    Mark,
    /// The request's target is known again.
    Unmark,
    /// The model never changed (or has not yet) for this request.
    None,
}

impl RequestState {
    /// True when no later record can follow for this request short of an
    /// explicit relearn: the request was served (RECOVERED), restored
    /// (RELEARNED), shed (FAILED) or dead-lettered (QUARANTINED). A unit
    /// is finished once every member holds a terminal record.
    pub fn is_terminal(self) -> bool {
        match self {
            RequestState::Received | RequestState::Unlearned => false,
            RequestState::Recovered
            | RequestState::Relearned
            | RequestState::Failed
            | RequestState::Quarantined => true,
        }
    }

    /// The one place that says which states count as "forgotten": every
    /// journal walker (resume, tail restore) applies this per record, in
    /// journal order. Marking is idempotent, so records the checkpoint
    /// already reflects apply harmlessly a second time; FAILED and
    /// QUARANTINED requests never touched the model.
    pub(crate) fn mark_effect(self) -> MarkEffect {
        match self {
            RequestState::Unlearned | RequestState::Recovered => MarkEffect::Mark,
            RequestState::Relearned => MarkEffect::Unmark,
            RequestState::Received | RequestState::Failed | RequestState::Quarantined => {
                MarkEffect::None
            }
        }
    }

    /// The one place that says which states' snapshots are *derived*:
    /// written as a digest, not a model, and rebuilt on resume by
    /// replaying the unit's accepted ascents from its RECEIVED record
    /// (see [`JOURNAL_VERSION`]). Only an ascent boundary is: an ascent
    /// on a few synthetic samples is cheap to re-run, and everything it
    /// reads is pinned by the RECEIVED record and the request.
    pub fn is_derived(self) -> bool {
        self == RequestState::Unlearned
    }
}

impl std::fmt::Display for RequestState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RequestState::Received => "RECEIVED",
            RequestState::Unlearned => "UNLEARNED",
            RequestState::Recovered => "RECOVERED",
            RequestState::Relearned => "RELEARNED",
            RequestState::Failed => "FAILED",
            RequestState::Quarantined => "QUARANTINED",
        };
        f.write_str(s)
    }
}

/// Identifier linking the journal records of one coalesced batch.
///
/// A batch serves several compatible requests through a single shared
/// recovery pass ([`crate::QuickDrop::serve_batch_journaled`]); every
/// member's records carry the same `BatchId` so
/// [`crate::QuickDrop::resume_requests`] can tell how far a partially-applied batch got and replay the rest
/// to a bit-for-bit identical end state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BatchId(pub u64);

impl std::fmt::Display for BatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch {}", self.0)
    }
}

/// Why a request reached a failure-terminal state
/// ([`RequestState::Failed`] or [`RequestState::Quarantined`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailReason {
    /// The guard rejected the unit and no retry ladder was configured.
    Diverged,
    /// Every rung of the retry ladder was exhausted.
    RetriesExhausted,
    /// Batch bisection isolated this member as the one poisoning an
    /// otherwise-servable coalesced unit.
    PoisonMember,
    /// Shed unserved by the owning tenant's tripped circuit breaker.
    Shed,
}

impl std::fmt::Display for FailReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FailReason::Diverged => "diverged",
            FailReason::RetriesExhausted => "retries-exhausted",
            FailReason::PoisonMember => "poison-member",
            FailReason::Shed => "shed",
        };
        f.write_str(s)
    }
}

/// One journal entry: a request reaching `state`, with everything needed
/// to continue from exactly this boundary. `G` holds the model: the
/// tensors in a record being appended, a [`Snapshot`] in one the journal
/// holds ([`RequestJournal::records`]).
#[derive(Debug, Clone)]
pub struct JournalRecord<G = Vec<Tensor>> {
    /// Request sequence number (shared by all records of one request).
    pub seq: u64,
    /// The request being served.
    pub request: UnlearnRequest,
    /// The state this record certifies.
    pub state: RequestState,
    /// RNG stream position at the boundary.
    pub rng: RngState,
    /// Global model parameters at the boundary. Empty on a *derived*
    /// record ([`RequestState::is_derived`]) once the journal holds it:
    /// only the snapshot's digest is durable ([`RequestJournal::digest`]),
    /// and the model is rebuilt by replay. On a record read from disk
    /// the tensors are decoded on first use (see [`Snapshot`]).
    pub global: G,
    /// Guard bookkeeping accumulated so far (`None` for unguarded
    /// serving and for RECEIVED records).
    pub guard: Option<GuardStats>,
    /// The coalesced batch this record belongs to (`None` for requests
    /// served alone).
    pub batch: Option<BatchId>,
    /// Why the request failed (`Some` only on [`RequestState::Failed`]
    /// and [`RequestState::Quarantined`] records).
    pub reason: Option<FailReason>,
}

impl<G> JournalRecord<G> {
    /// The record with `f` applied to its model: how a record changes
    /// the way it holds it (`|g| g.to_vec()` turns a held record's
    /// snapshot into tensors).
    pub fn map_global<H>(self, f: impl FnOnce(G) -> H) -> JournalRecord<H> {
        JournalRecord {
            seq: self.seq,
            request: self.request,
            state: self.state,
            rng: self.rng,
            global: f(self.global),
            guard: self.guard,
            batch: self.batch,
            reason: self.reason,
        }
    }
}

// By hand because the derive takes no generic type. The keys go in
// declaration order, as the derive wrote them: a stored skeleton's key
// order is part of the pinned format.
impl<G: Serialize> Serialize for JournalRecord<G> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("seq".to_string(), self.seq.to_value()),
            ("request".to_string(), self.request.to_value()),
            ("state".to_string(), self.state.to_value()),
            ("rng".to_string(), self.rng.to_value()),
            ("global".to_string(), self.global.to_value()),
            ("guard".to_string(), self.guard.to_value()),
            ("batch".to_string(), self.batch.to_value()),
            ("reason".to_string(), self.reason.to_value()),
        ])
    }
}

impl<G: Deserialize> Deserialize for JournalRecord<G> {
    fn from_value(v: &serde::Value) -> Result<Self, DeError> {
        let field = |name| v.field("JournalRecord", name);
        Ok(JournalRecord {
            seq: Deserialize::from_value(field("seq")?)?,
            request: Deserialize::from_value(field("request")?)?,
            state: Deserialize::from_value(field("state")?)?,
            rng: Deserialize::from_value(field("rng")?)?,
            global: Deserialize::from_value(field("global")?)?,
            guard: Deserialize::from_value(field("guard")?)?,
            batch: Deserialize::from_value(field("batch")?)?,
            reason: Deserialize::from_value(field("reason")?)?,
        })
    }
}

/// A record's model parameters, [`JournalRecord::global`]: tensors, or
/// on a record read from disk the CRC-verified segment bytes they are
/// stored in, decoded on first use and kept. Open checks each stored
/// snapshot's layout against its skeleton — rank, dims and scalar count
/// of every tensor — so the decode cannot fail, and a record whose model
/// is never read is never decoded. Clones share one snapshot: a
/// back-reference is the record it refers to's, decoded at most once for
/// both.
#[derive(Clone, Default)]
pub struct Snapshot(Arc<SnapshotCell>);

#[derive(Default)]
struct SnapshotCell {
    tensors: OnceLock<Vec<Tensor>>,
    stored: Option<Stored>,
}

/// Where a stored snapshot lies: its segment's bytes and, per tensor, its
/// shape and the byte range of its little-endian scalars.
struct Stored {
    segment: Arc<Vec<u8>>,
    tensors: Vec<(Shape, Range<usize>)>,
}

impl Snapshot {
    fn stored(segment: Arc<Vec<u8>>, tensors: Vec<(Shape, Range<usize>)>) -> Self {
        let stored = Some(Stored { segment, tensors });
        let tensors = OnceLock::new();
        Snapshot(Arc::new(SnapshotCell { tensors, stored }))
    }

    /// Whether the tensors have been decoded (always, unless the
    /// snapshot was read from disk and nothing has read it since).
    pub fn is_decoded(&self) -> bool {
        self.0.tensors.get().is_some()
    }
}

impl From<Vec<Tensor>> for Snapshot {
    fn from(tensors: Vec<Tensor>) -> Self {
        let tensors = OnceLock::from(tensors);
        Snapshot(Arc::new(SnapshotCell {
            tensors,
            stored: None,
        }))
    }
}

impl Deref for Snapshot {
    type Target = [Tensor];

    fn deref(&self) -> &[Tensor] {
        let SnapshotCell { tensors, stored } = &*self.0;
        tensors.get_or_init(|| {
            let Some(Stored { segment, tensors }) = stored else {
                return Vec::new();
            };
            (tensors.iter())
                .map(|(shape, span)| {
                    let raw = segment.get(span.clone()).unwrap_or_default();
                    Tensor::from_vec(Payload::scalars(raw), shape.dims())
                })
                .collect()
        })
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for Snapshot {
    fn to_value(&self) -> serde::Value {
        Tensor::seq_to_value(self)
    }
}

/// The tensors a stored `global` skeleton describes, with `arrays` its
/// body arrays in tree order: what `Vec<Tensor>::from_value` checks of
/// the decoded tree — a sequence of `{shape, data}` whose scalars fill
/// their shape — without copying a scalar. Each tensor's `data` must be
/// its one body array, the only layout a journal writes.
fn stored_tensors(
    global: &serde::Value,
    arrays: Vec<Range<usize>>,
) -> Result<Vec<(Shape, Range<usize>)>, DeError> {
    let serde::Value::Seq(items) = global else {
        return Err(DeError::new("a snapshot is not an array of tensors"));
    };
    let not_stored = || DeError::new("a snapshot tensor's data is not one body array");
    if items.len() != arrays.len() {
        return Err(not_stored());
    }
    (items.iter().zip(arrays))
        .map(|(item, span)| {
            let shape = Shape::from_value(item.field("Tensor", "shape")?)?;
            if !matches!(item.field("Tensor", "data")?, serde::Value::F32s(_)) {
                return Err(not_stored());
            }
            let len = span.len() / 4;
            let fits = (shape.dims().iter()).try_fold(1usize, |n, &d| n.checked_mul(d));
            if fits != Some(len) {
                return Err(DeError::new(format!(
                    "buffer of {len} elements does not fit shape {shape}"
                )));
            }
            Ok((shape, span))
        })
        .collect()
}

/// Why a journal file failed to load or replay.
///
/// Mirrors [`crate::CheckpointError`]: I/O failures pass through, shape
/// problems become [`JournalError::Format`] naming the file, and — the
/// forward-compatibility guard — a record whose `state` tag this build
/// does not know becomes [`JournalError::UnknownState`] instead of being
/// skipped or folded into a generic parse failure. Skipping such a
/// record would silently drop a state transition a newer build made
/// durable; refusing to open keeps the journal's write-ahead contract.
#[derive(Debug)]
pub enum JournalError {
    /// Reading or writing the journal file failed.
    Io(std::io::Error),
    /// The file is not a journal this build can make sense of.
    Format {
        /// The offending journal file.
        path: PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The file is a journal, but of a format version this build does
    /// not read (it reads exactly [`JOURNAL_VERSION`]; there is no
    /// migration). The file is left as it was.
    UnsupportedVersion {
        /// The refused journal file.
        path: PathBuf,
        /// The version it declares.
        version: u32,
    },
    /// A record carries a `state` tag this build does not know — the
    /// journal was written by a newer build whose state machine has
    /// states this one cannot replay.
    UnknownState {
        /// The offending journal file.
        path: PathBuf,
        /// Sequence number of the offending record.
        seq: u64,
        /// The unrecognized state tag, verbatim.
        tag: String,
    },
    /// A committed record failed its CRC or framing check somewhere
    /// other than the journal's tail: the file was corrupted in place
    /// (bit rot, a partial overwrite) rather than torn by a crash.
    /// Truncating past it would drop later, valid records, so the open
    /// refuses and leaves the file for the operator.
    CorruptRecord {
        /// The offending segment file.
        path: PathBuf,
        /// Byte offset of the corrupt frame within it.
        offset: usize,
        /// What failed to verify.
        detail: String,
    },
    /// The journal's final commit is incomplete — the torn tail a crash
    /// mid-append leaves behind. [`RequestJournal::open`] repairs this
    /// automatically by truncating to the last valid commit;
    /// [`RequestJournal::open_strict_on`] surfaces it as this error
    /// instead.
    TornTail {
        /// The offending segment file.
        path: PathBuf,
        /// End of the last valid commit (the repair truncation point).
        offset: usize,
        /// Torn bytes after it.
        trailing: usize,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O: {e}"),
            JournalError::Format { path, detail } => {
                write!(f, "journal {}: {detail}", path.display())
            }
            JournalError::UnsupportedVersion { path, version } => write!(
                f,
                "journal {}: format version {version} is not supported; this \
                 build reads only version {JOURNAL_VERSION} (finish or archive \
                 the journal with the build that wrote it)",
                path.display()
            ),
            JournalError::UnknownState { path, seq, tag } => write!(
                f,
                "journal {}: record {seq} is in unknown state {tag:?}; \
                 written by a newer build this one cannot replay",
                path.display()
            ),
            JournalError::CorruptRecord {
                path,
                offset,
                detail,
            } => write!(
                f,
                "journal {}: corrupt record at byte {offset}: {detail}",
                path.display()
            ),
            JournalError::TornTail {
                path,
                offset,
                trailing,
            } => write!(
                f,
                "journal {}: torn tail — {trailing} byte(s) after the last \
                 valid commit ending at byte {offset} (crash mid-append); \
                 a non-strict open truncates them",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

impl From<JournalError> for std::io::Error {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// One torn-tail truncation performed while opening a journal in
/// repair mode — the audit trail of what a crash cost (nothing that
/// was ever acknowledged: only the un-fsynced suffix of the last
/// commit is ever dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailRepair {
    /// The segment file that was truncated.
    pub segment: PathBuf,
    /// Its length after the repair (end of the last valid commit).
    pub valid_len: usize,
    /// Torn bytes dropped from it.
    pub dropped_bytes: usize,
}

/// What a segment scan found: the valid prefix and any torn suffix.
#[derive(Debug)]
struct SegmentScan {
    valid_len: usize,
    trailing: usize,
}

/// The append-only request journal, bound to one marker file (plus its
/// segment files) on a [`Vfs`].
#[derive(Debug)]
pub struct RequestJournal {
    path: PathBuf,
    vfs: Arc<dyn Vfs>,
    records: Vec<JournalRecord<Snapshot>>,
    /// Per record, the digest a derived one stores in place of its
    /// snapshot (`None` for a stored snapshot).
    digests: Vec<Option<u32>>,
    /// Segment index new commits append to.
    tail_seg: u32,
    /// Bytes currently in the tail segment.
    tail_len: usize,
    /// Index in `records` of the tail segment's first record: a commit
    /// may only back-reference a snapshot from `records[tail_start..]`.
    tail_start: usize,
    /// Whether the marker file exists at `path` yet (written
    /// before the first append so reopens recognize the format).
    marker_written: bool,
    /// Set when an append failed after possibly leaving a torn frame on
    /// disk; every later append refuses until the journal is reopened
    /// (which repairs the tail), so in-memory and durable state can
    /// never silently diverge.
    poisoned: Option<String>,
    /// Torn-tail truncations performed by this open.
    repairs: Vec<TailRepair>,
}

fn io_err(e: StorageError) -> JournalError {
    JournalError::Io(e.into())
}

/// True when two snapshots are the same bits: same shapes, same
/// `to_bits` per scalar. (`f32` equality would take `-0.0` for `0.0` and
/// a NaN for no NaN, so a back-reference could restore another model.)
pub(crate) fn same_snapshot(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// The CRC32 a derived record stores in place of `global`: over each
/// tensor's rank and dims (u64), then its scalars' `to_bits`, all
/// little-endian — so a replay matches only the same shapes and the
/// same 32 bits per scalar.
pub(crate) fn snapshot_digest(global: &[Tensor]) -> u32 {
    let mut bytes = Vec::new();
    for t in global {
        let dims = t.dims();
        for d in std::iter::once(dims.len()).chain(dims.iter().copied()) {
            bytes.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for x in t.data() {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    vfs::crc32(&bytes)
}

/// The `global` entry of a record's value tree: the snapshot a
/// back-reference replaces with `null`, and a derived record with its
/// digest.
fn global_mut(value: &mut serde::Value) -> Option<&mut serde::Value> {
    let serde::Value::Map(entries) = value else {
        return None;
    };
    entries
        .iter_mut()
        .find(|(key, _)| key == "global")
        .map(|(_, v)| v)
}

/// A record's value tree with `global` as the segment stores it:
/// `{"crc32": digest}` for a derived record, `null` for a
/// back-reference, the parameters otherwise.
fn stored_value(
    record: &JournalRecord<Snapshot>,
    digest: Option<u32>,
    reference: bool,
) -> serde::Value {
    let mut value = record.to_value();
    let stored = match digest {
        Some(digest) => serde::Value::Map(vec![(
            DIGEST_KEY.to_string(),
            serde::Value::U64(u64::from(digest)),
        )]),
        None if reference => serde::Value::Null,
        None => return value,
    };
    if let Some(global) = global_mut(&mut value) {
        *global = stored;
    }
    value
}

/// The digest a derived record's `global` holds, if it is one.
fn stored_digest(global: &serde::Value) -> Option<u32> {
    let serde::Value::Map(entries) = global else {
        return None;
    };
    match entries.as_slice() {
        [(key, serde::Value::U64(n))] if key == DIGEST_KEY => u32::try_from(*n).ok(),
        _ => None,
    }
}

/// The last record in `segment` whose snapshot is stored — what a
/// back-reference resolves to.
fn last_stored(segment: &[JournalRecord<Snapshot>]) -> Option<&JournalRecord<Snapshot>> {
    segment.iter().rev().find(|r| !r.state.is_derived())
}

/// Encodes one atomic commit frame holding `records`, with each one's
/// digest (`Some` for a derived record). `prev` is the last stored record
/// in the same segment (`None` when nothing stored precedes the commit
/// there); a record whose snapshot repeats it is written as a
/// back-reference. (A count or length past `u32` makes the body longer
/// than `seal` accepts, so the `as` casts cannot truncate silently.)
fn encode_commit<'a>(
    records: &'a [JournalRecord<Snapshot>],
    mut prev: Option<&'a JournalRecord<Snapshot>>,
) -> std::io::Result<(Vec<u8>, Vec<Option<u32>>)> {
    let mut body = (records.len() as u32).to_le_bytes().to_vec();
    let mut digests = Vec::with_capacity(records.len());
    for record in records {
        let digest = record
            .state
            .is_derived()
            .then(|| snapshot_digest(&record.global));
        let reference =
            digest.is_none() && prev.is_some_and(|p| same_snapshot(&p.global, &record.global));
        let rec = frame::encode(&stored_value(record, digest, reference));
        body.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        body.extend_from_slice(&rec);
        if digest.is_none() {
            prev = Some(record);
        }
        digests.push(digest);
    }
    Ok((frame::seal(&body)?, digests))
}

/// What a record frame holds in its snapshot's place (see
/// [`JOURNAL_VERSION`]).
enum Held {
    /// The snapshot itself, checked and not yet decoded.
    Inline(Snapshot),
    /// A back-reference to the segment's last stored snapshot.
    Reference,
    /// A derived record's digest.
    Digest(u32),
}

/// One CRC-verified commit frame of a segment: `body` is the frame's
/// payload, starting 8 bytes past `offset` in the segment's `bytes`.
struct Commit<'a> {
    seg: &'a Path,
    bytes: &'a Arc<Vec<u8>>,
    offset: usize,
    body: &'a [u8],
}

impl Commit<'_> {
    fn corrupt(&self, detail: String) -> JournalError {
        JournalError::CorruptRecord {
            path: self.seg.to_path_buf(),
            offset: self.offset,
            detail,
        }
    }

    /// Reads the commit's records, resolving a back-referenced snapshot
    /// to the last stored record's — which must belong to the same
    /// segment, the one starting at `seg_start` — and taking a derived
    /// record's digest out of its `global`.
    fn parse(
        &self,
        seg_start: usize,
        records: &mut Vec<JournalRecord<Snapshot>>,
        digests: &mut Vec<Option<u32>>,
    ) -> Result<(), JournalError> {
        let body = self.body;
        let count =
            read_u32(body, 0).ok_or_else(|| self.corrupt("commit body too short".into()))?;
        let mut pos = 4usize;
        for _ in 0..count {
            let rec_len = read_u32(body, pos)
                .ok_or_else(|| self.corrupt("record length overruns the commit".into()))?
                as usize;
            pos += 4;
            let rec = body
                .get(pos..pos + rec_len)
                .ok_or_else(|| self.corrupt("record payload overruns the commit".into()))?;
            let (record, held) = self.record(rec, self.offset + 8 + pos, records.len())?;
            pos += rec_len;
            let (global, digest) = match held {
                Held::Inline(snapshot) => (snapshot, None),
                Held::Reference => {
                    let prev = (records.get(seg_start..).and_then(last_stored))
                        .ok_or_else(|| self.corrupt("a back-reference opens its segment".into()))?;
                    (prev.global.clone(), None)
                }
                Held::Digest(digest) => (Snapshot::default(), Some(digest)),
            };
            records.push(record.map_global(|_| global));
            digests.push(digest);
        }
        if pos != body.len() {
            return Err(self.corrupt(format!(
                "{} stray byte(s) inside the commit body",
                body.len() - pos
            )));
        }
        Ok(())
    }

    /// The record frame `rec`, which starts at byte `at` of the segment:
    /// the record with an empty `global`, and what it holds in the
    /// snapshot's place. Everything but the snapshot's scalars is decoded
    /// and checked; they stay in the segment, their layout checked.
    fn record(
        &self,
        rec: &[u8],
        at: usize,
        index: usize,
    ) -> Result<(JournalRecord, Held), JournalError> {
        let frame::Parsed { mut value, arrays } =
            frame::parse(rec).map_err(|e| self.corrupt(e.to_string()))?;
        RequestJournal::check_record_state(self.seg, &value, index as u64)?;
        // The body arrays in tree order: `global`'s are set aside with
        // its skeleton, every other one is filled in.
        let mut arrays = (arrays.into_iter()).map(|span| at + span.start..at + span.end);
        let mut global = None;
        if let serde::Value::Map(entries) = &mut value {
            for (key, v) in entries {
                if key == "global" && global.is_none() {
                    let own: Vec<_> = arrays.by_ref().take(frame::arrays_in(v)).collect();
                    global = Some((std::mem::replace(v, serde::Value::Seq(Vec::new())), own));
                } else {
                    frame::fill(v, self.bytes, &mut arrays);
                }
            }
        }
        let malformed = |e: DeError| self.corrupt(format!("malformed record: {e}"));
        let record = JournalRecord::from_value(&value).map_err(malformed)?;
        // `from_value` has refused a record without one.
        let (global, own) = global.unwrap_or((serde::Value::Null, Vec::new()));
        let held = match (&global, stored_digest(&global)) {
            (serde::Value::Null, _) => Held::Reference,
            (_, Some(digest)) => Held::Digest(digest),
            (_, None) => {
                let tensors = stored_tensors(&global, own).map_err(malformed)?;
                Held::Inline(Snapshot::stored(Arc::clone(self.bytes), tensors))
            }
        };
        let derived = matches!(held, Held::Digest(_));
        if record.state.is_derived() != derived {
            let holds = if derived { "a digest" } else { "a model" };
            return Err(self.corrupt(format!(
                "{} record {} holds {holds}, which journal version {JOURNAL_VERSION} \
                 never writes",
                record.state, record.seq
            )));
        }
        Ok((record, held))
    }
}

impl RequestJournal {
    /// Opens the journal at `path` on the real filesystem, loading any
    /// existing records; a missing file starts an empty journal
    /// (created on first append). A torn tail — the leftovers of a
    /// crash mid-append — is repaired by truncating to the last valid
    /// commit (see [`RequestJournal::repairs`]).
    ///
    /// # Errors
    ///
    /// [`JournalError::UnsupportedVersion`] naming the file and version
    /// when it is a journal of any other format version (the file is
    /// left untouched); [`JournalError::Format`] when it is no journal;
    /// [`JournalError::CorruptRecord`] when a committed frame fails its
    /// CRC or framing check away from the tail (in-place corruption a
    /// truncation cannot safely repair); [`JournalError::UnknownState`]
    /// when a record carries a state tag from a newer build's state
    /// machine (replaying it would silently drop a durable transition);
    /// [`JournalError::Io`] for read errors.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        Self::open_on(Arc::new(StdFs), path)
    }

    /// [`RequestJournal::open`] on an explicit [`Vfs`] — the entry
    /// point the fault-injection harnesses use.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::open`].
    pub fn open_on(vfs: Arc<dyn Vfs>, path: impl Into<PathBuf>) -> Result<Self, JournalError> {
        Self::open_inner(vfs, path.into(), true)
    }

    /// Opens without touching anything, for callers that want to
    /// inspect a deployment as it lies: a torn tail is surfaced as
    /// [`JournalError::TornTail`] instead of being truncated, stale
    /// `<name>*.tmp` files stay where they are, and segments without a
    /// marker are reported instead of removed.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::open`], plus [`JournalError::TornTail`], and
    /// [`JournalError::Format`] naming the segment files when the marker
    /// is missing but segments exist.
    pub fn open_strict_on(
        vfs: Arc<dyn Vfs>,
        path: impl Into<PathBuf>,
    ) -> Result<Self, JournalError> {
        Self::open_inner(vfs, path.into(), false)
    }

    fn open_inner(vfs: Arc<dyn Vfs>, path: PathBuf, repair: bool) -> Result<Self, JournalError> {
        // A crash between create and rename leaves `<name>*.tmp`
        // droppings; clear them so aborted saves never accumulate.
        if repair {
            vfs::sweep_stale_tmps(&*vfs, &path);
        }
        if !vfs.exists(&path).map_err(io_err)? {
            // Segments without a marker are unreachable — either the
            // marker write of a brand-new journal never landed (no
            // record was ever acknowledged) or the marker was deleted
            // out from under us. A repairing open removes them rather
            // than resurrect half a journal; a strict one reports them.
            let segments = Self::segment_files(&*vfs, &path)?;
            if !repair && !segments.is_empty() {
                let names: Vec<String> = (segments.iter())
                    .map(|(_, seg)| seg.display().to_string())
                    .collect();
                return Err(JournalError::Format {
                    path,
                    detail: format!("no journal marker, but segments {}", names.join(", ")),
                });
            }
            for (_, seg) in segments {
                vfs.remove(&seg).map_err(io_err)?;
            }
            return Ok(RequestJournal {
                path,
                vfs,
                records: Vec::new(),
                digests: Vec::new(),
                tail_seg: 0,
                tail_len: 0,
                tail_start: 0,
                marker_written: false,
                poisoned: None,
                repairs: Vec::new(),
            });
        }
        let head = vfs.read(&path).map_err(io_err)?;
        if head.starts_with(JOURNAL_MAGIC) {
            return Self::open_segments(vfs, path, repair);
        }
        // Some other build's journal (a `QDJ<n>` marker, or the JSON
        // document of versions 1-2) or no journal: refuse it where it lies.
        Err(match frame::foreign_version(&head, b"QDJ") {
            Some(version) => JournalError::UnsupportedVersion { path, version },
            None => JournalError::Format {
                path,
                detail: "not a journal marker".to_string(),
            },
        })
    }

    /// The existing `<name>.seg-NNNNNN` files for the journal at
    /// `path`, sorted by index.
    fn segment_files(vfs: &dyn Vfs, path: &Path) -> Result<Vec<(u32, PathBuf)>, JournalError> {
        let Some(base) = path.file_name().and_then(|n| n.to_str()) else {
            return Ok(Vec::new());
        };
        let prefix = format!("{base}.seg-");
        let mut out = Vec::new();
        for entry in vfs.list(&vfs::dir_of(path)).map_err(io_err)? {
            let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(index) = name.strip_prefix(&prefix) else {
                continue;
            };
            if let Ok(index) = index.parse::<u32>() {
                out.push((index, entry));
            }
        }
        out.sort();
        Ok(out)
    }

    fn open_segments(vfs: Arc<dyn Vfs>, path: PathBuf, repair: bool) -> Result<Self, JournalError> {
        let segments = Self::segment_files(&*vfs, &path)?;
        for (expect, (index, seg)) in segments.iter().enumerate() {
            if *index as usize != expect {
                return Err(JournalError::Format {
                    path: seg.clone(),
                    detail: format!(
                        "segment files are not contiguous: expected segment \
                         {expect}, found {index}"
                    ),
                });
            }
        }
        let (mut records, mut digests) = (Vec::new(), Vec::new());
        let mut repairs = Vec::new();
        let mut tail_seg = 0u32;
        let mut tail_len = 0usize;
        let mut tail_start = 0usize;
        for (i, (index, seg)) in segments.iter().enumerate() {
            let bytes = Arc::new(vfs.read(seg).map_err(io_err)?);
            let is_last = i + 1 == segments.len();
            tail_start = records.len();
            let scan = Self::parse_segment(seg, &bytes, is_last, &mut records, &mut digests)?;
            tail_seg = *index;
            tail_len = scan.valid_len;
            if scan.trailing > 0 {
                if !repair {
                    return Err(JournalError::TornTail {
                        path: seg.clone(),
                        offset: scan.valid_len,
                        trailing: scan.trailing,
                    });
                }
                // Truncate to the last valid commit, atomically: a
                // crash mid-repair leaves either the torn segment
                // (repaired again next open) or the clean one.
                vfs::atomic_write(&*vfs, seg, &bytes[..scan.valid_len]).map_err(io_err)?;
                repairs.push(TailRepair {
                    segment: seg.clone(),
                    valid_len: scan.valid_len,
                    dropped_bytes: scan.trailing,
                });
            }
        }
        Ok(RequestJournal {
            path,
            vfs,
            records,
            digests,
            tail_seg,
            tail_len,
            tail_start,
            marker_written: true,
            poisoned: None,
            repairs,
        })
    }

    /// Walks one segment's commit frames, appending their records to
    /// `records` and each one's digest to `digests`. Returns the valid
    /// prefix length and, for the last segment, any torn trailing bytes;
    /// a torn shape anywhere else is in-place corruption
    /// ([`JournalError::CorruptRecord`]).
    fn parse_segment(
        seg: &Path,
        bytes: &Arc<Vec<u8>>,
        is_last: bool,
        records: &mut Vec<JournalRecord<Snapshot>>,
        digests: &mut Vec<Option<u32>>,
    ) -> Result<SegmentScan, JournalError> {
        let corrupt = |offset: usize, detail: String| JournalError::CorruptRecord {
            path: seg.to_path_buf(),
            offset,
            detail,
        };
        let seg_start = records.len();
        let mut offset = 0usize;
        while let Some(rest) = bytes.get(offset..).filter(|rest| !rest.is_empty()) {
            let body = match frame::unseal(rest) {
                Ok(body) => body,
                // Damage reaching the very end of the journal is the torn
                // tail a crash mid-append leaves: a frame that runs past
                // the end of the file, or a whole final frame with a bad
                // CRC (a torn body whose header landed first — give the
                // crash the benefit of the doubt there).
                Err(torn) if is_last && torn.span == rest.len() => {
                    return Ok(SegmentScan {
                        valid_len: offset,
                        trailing: rest.len(),
                    });
                }
                // Anywhere else valid frames follow, so it can only be
                // in-place corruption.
                Err(damage) => return Err(corrupt(offset, damage.detail)),
            };
            let commit = Commit {
                seg,
                bytes,
                offset,
                body,
            };
            commit.parse(seg_start, records, digests)?;
            offset += 8 + body.len();
        }
        Ok(SegmentScan {
            valid_len: offset,
            trailing: 0,
        })
    }

    /// Forward-compat guard for one record value: reject a `state` tag
    /// this build's [`RequestState`] cannot represent, *before* the
    /// full deserialize (which would fold the problem into a generic
    /// parse error, and an ignore-unknown deserializer would skip the
    /// record outright — both lose a durable transition).
    fn check_record_state(
        path: &Path,
        value: &serde::Value,
        fallback_seq: u64,
    ) -> Result<(), JournalError> {
        let Some(state @ serde::Value::Str(tag)) = value.get("state") else {
            // Shape problems are the full deserialize's to report.
            return Ok(());
        };
        if RequestState::from_value(state).is_err() {
            let seq = value
                .get("seq")
                .and_then(|s| u64::from_value(s).ok())
                .unwrap_or(fallback_seq);
            return Err(JournalError::UnknownState {
                path: path.to_path_buf(),
                seq,
                tag: tag.clone(),
            });
        }
        Ok(())
    }

    /// Torn-tail truncations this open performed (empty for a clean
    /// journal): which segment, where it was cut, and how many torn
    /// bytes were dropped.
    pub fn repairs(&self) -> &[TailRepair] {
        &self.repairs
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[JournalRecord<Snapshot>] {
        &self.records
    }

    /// The digest record `index` stores in place of its snapshot: `Some`
    /// exactly when the record is derived ([`RequestState::is_derived`]),
    /// whose `global` is then empty.
    pub fn digest(&self, index: usize) -> Option<u32> {
        self.digests.get(index).copied().flatten()
    }

    /// Every record as a value tree, oldest first — what
    /// `quickdrop-cli dump --journal` prints: a stored snapshot in full
    /// (back-references resolved), a derived one as the `{"crc32": n}`
    /// its segment holds in the model's place.
    pub fn rendered(&self) -> impl Iterator<Item = serde::Value> + '_ {
        (self.records.iter().zip(&self.digests)).map(|(r, &digest)| stored_value(r, digest, false))
    }

    /// The most recent record.
    pub fn last(&self) -> Option<&JournalRecord<Snapshot>> {
        self.records.last()
    }

    /// The sequence number the next request will get.
    ///
    /// The maximum over all records, not the last record's: a terminal
    /// FAILED or QUARANTINED record can be appended for an older
    /// sequence after newer sequences already exist, and `last.seq + 1`
    /// would then hand out a collision.
    pub fn next_seq(&self) -> u64 {
        self.records.iter().map(|r| r.seq + 1).max().unwrap_or(0)
    }

    /// Appends a record durably: one framed commit appended to the tail
    /// segment and fsynced — two [`Vfs`] operations regardless of how
    /// many records the journal already holds. The record may hold its
    /// model as tensors or as a [`Snapshot`] (one read back from a
    /// journal). A derived record is kept as a reopen reads it: digest,
    /// empty `global`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the commit; the in-memory record list
    /// is only extended once the frame is durable, and a failed append
    /// poisons the journal (the on-disk tail may be torn) so every
    /// later append fails until the journal is reopened and repaired.
    pub fn append<G: Into<Snapshot>>(&mut self, record: JournalRecord<G>) -> std::io::Result<()> {
        self.append_all(vec![record])
    }

    /// Appends several records as **one** commit frame: its CRC covers
    /// all of them, so a crash during the append leaves either none of
    /// `records` durable or all of them (a torn frame fails the check
    /// and is truncated whole on reopen). Batch serving relies on this
    /// — the RECEIVED (and later RECOVERED) records of all batch
    /// members land together, so resume never sees a batch whose
    /// membership is half-written.
    ///
    /// # Errors
    ///
    /// As [`RequestJournal::append`].
    pub fn append_all<G: Into<Snapshot>>(
        &mut self,
        records: Vec<JournalRecord<G>>,
    ) -> std::io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        let records: Vec<_> = (records.into_iter())
            .map(|record| record.map_global(Into::into))
            .collect();
        let digests = self.append_commit(&records)?;
        // Durable now: kept as a reopen reads them back, a derived one
        // with its digest and an empty `global`.
        for (mut record, digest) in records.into_iter().zip(digests) {
            if digest.is_some() {
                record.global = Snapshot::default();
            }
            self.records.push(record);
            self.digests.push(digest);
        }
        Ok(())
    }

    /// Lands `records` as one commit frame on the tail segment: writes
    /// the format marker ahead of the very first frame, rotates segments
    /// at the size threshold, then encodes against the tail segment's
    /// last stored record — so a commit that opens a segment starts
    /// inline. Returns each record's digest (`Some` when derived).
    fn append_commit(
        &mut self,
        records: &[JournalRecord<Snapshot>],
    ) -> std::io::Result<Vec<Option<u32>>> {
        if let Some(why) = &self.poisoned {
            return Err(std::io::Error::other(format!(
                "journal {} is poisoned by an earlier append failure ({why}); \
                 reopen it to repair the tail before appending",
                self.path.display()
            )));
        }
        if !self.marker_written {
            // Marker before data: a reopen must recognize the format
            // before any segment exists. atomic_write leaves nothing
            // torn on failure, so this needs no poisoning.
            vfs::atomic_write(&*self.vfs, &self.path, JOURNAL_MAGIC)?;
            self.marker_written = true;
        }
        if self.tail_len >= SEGMENT_ROTATE_BYTES {
            self.tail_seg += 1;
            self.tail_len = 0;
            self.tail_start = self.records.len();
        }
        let prev = self.records.get(self.tail_start..).and_then(last_stored);
        let (frame, digests) = encode_commit(records, prev)?;
        let seg = segment_path(&self.path, self.tail_seg);
        if let Err(e) = self
            .vfs
            .append(&seg, &frame)
            .and_then(|()| self.vfs.fsync(&seg))
        {
            // The frame may be partially on disk; nothing durable can
            // be appended after a possibly-torn tail.
            self.poisoned = Some(e.to_string());
            return Err(e.into());
        }
        self.tail_len += frame.len();
        Ok(digests)
    }

    /// The batch id the next coalesced batch will get.
    pub fn next_batch_id(&self) -> BatchId {
        BatchId(
            self.records
                .iter()
                .filter_map(|r| r.batch)
                .map(|b| b.0 + 1)
                .max()
                .unwrap_or(0),
        )
    }

    /// Conventional journal path next to a deployment checkpoint:
    /// `<checkpoint>.journal`.
    pub fn path_for_checkpoint(checkpoint: impl AsRef<Path>) -> PathBuf {
        let ckpt = checkpoint.as_ref();
        let mut name = ckpt.file_name().map_or_else(
            || std::ffi::OsString::from("deployment"),
            |n| n.to_os_string(),
        );
        name.push(".journal");
        ckpt.with_file_name(name)
    }
}

/// Every record's snapshot in the journal at `path` as a reader that
/// decodes everything up front would have it: each record frame decoded
/// whole ([`frame::decode`]), a back-reference resolved to a copy of the
/// last stored snapshot in its segment, a derived record's empty. It
/// checks nothing beyond what decoding needs and stops at the first frame
/// that does not unseal. The oracle lazily decoded [`Snapshot`]s are
/// tested against, record by record; [`check_lazy_snapshots`] runs it.
///
/// # Errors
///
/// A segment that does not read, or a record that does not decode.
#[doc(hidden)]
pub fn eager_snapshots(vfs: &dyn Vfs, path: &Path) -> Result<Vec<Vec<Tensor>>, String> {
    let mut out = Vec::new();
    for (_, seg) in RequestJournal::segment_files(vfs, path).map_err(|e| e.to_string())? {
        let bytes = vfs.read(&seg).map_err(|e| e.to_string())?;
        let mut last_stored = Vec::new();
        let mut at = 0;
        while let Some(Ok(body)) = bytes.get(at..).filter(|b| !b.is_empty()).map(frame::unseal) {
            at += 8 + body.len();
            let mut pos = 4;
            for _ in 0..read_u32(body, 0).unwrap_or(0) {
                let len = read_u32(body, pos).unwrap_or(0) as usize;
                let rec = body.get(pos + 4..pos + 4 + len).unwrap_or_default();
                pos += 4 + len;
                let value = frame::decode(rec).map_err(|e| e.to_string())?;
                let snapshot = match value.get("global") {
                    Some(serde::Value::Null) => last_stored.clone(),
                    Some(global) if stored_digest(global).is_some() => Vec::new(),
                    Some(global) => {
                        let stored =
                            Vec::<Tensor>::from_value(global).map_err(|e| e.to_string())?;
                        last_stored = stored.clone();
                        stored
                    }
                    None => return Err(format!("a record in {} has no global", seg.display())),
                };
                out.push(snapshot);
            }
        }
    }
    Ok(out)
}

/// Opens the journal at `path` as it lies ([`RequestJournal::open_strict_on`])
/// and checks that the open decoded no snapshot, and that each record's,
/// once read, is bit for bit the one [`eager_snapshots`] decodes from the
/// same bytes. Returns how many records it compared. What the test
/// suites run over every journal they write.
///
/// # Errors
///
/// The first record whose snapshot differs, or a journal that does not
/// open.
#[doc(hidden)]
pub fn check_lazy_snapshots(vfs: Arc<dyn Vfs>, path: &Path) -> Result<usize, String> {
    let eager = eager_snapshots(&*vfs, path)?;
    let journal = RequestJournal::open_strict_on(vfs, path).map_err(|e| e.to_string())?;
    let records = journal.records();
    if let Some(i) = records
        .iter()
        .position(|r| r.global.is_decoded() && !r.global.is_empty())
    {
        return Err(format!("record {i}'s snapshot was decoded at open"));
    }
    if records.len() != eager.len() {
        return Err(format!(
            "{} records open, {} decode eagerly",
            records.len(),
            eager.len()
        ));
    }
    match (records.iter().zip(&eager)).position(|(r, e)| !same_snapshot(&r.global, e)) {
        Some(i) => Err(format!(
            "record {i}'s snapshot differs from its eager decode"
        )),
        None => Ok(records.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_tensor::rng::Rng;

    #[test]
    fn commit_frames_round_trip_and_classify_tail_damage() {
        let rec = |seq| JournalRecord {
            seq,
            request: UnlearnRequest::Class(2),
            state: RequestState::Received,
            rng: Rng::seed_from(1).state(),
            global: Snapshot::default(),
            guard: None,
            batch: None,
            reason: None,
        };
        let seg = Path::new("j.seg-000000");
        let encode = |records: &[JournalRecord<Snapshot>]| {
            encode_commit(records, None).expect("encodable").0
        };
        let mut bytes = encode(&[rec(0), rec(1)]);
        let first_commit = bytes.len();
        bytes.extend(encode(&[rec(2)]));
        let parse = |bytes: &[u8], is_last| {
            let mut records = Vec::new();
            let bytes = Arc::new(bytes.to_vec());
            RequestJournal::parse_segment(seg, &bytes, is_last, &mut records, &mut Vec::new())
                .map(|scan| (scan, records))
        };

        let (scan, records) = parse(&bytes, true).expect("clean");
        assert_eq!((scan.valid_len, scan.trailing), (bytes.len(), 0));
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );

        // Tearing the final frame yields the torn-tail shape in the last
        // segment, and CorruptRecord anywhere else.
        let torn = &bytes[..bytes.len() - 3];
        let (scan, records) = parse(torn, true).expect("repairable");
        assert_eq!(scan.valid_len, first_commit);
        assert_eq!(scan.trailing, torn.len() - first_commit);
        assert_eq!(records.len(), 2, "the intact commit still loads");
        let err = parse(torn, false).expect_err("mid-journal tear is corruption");
        assert!(matches!(err, JournalError::CorruptRecord { .. }), "{err}");

        // Flipping a committed byte is corruption even at the tail...
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x40;
        let err = parse(&flipped, true).expect_err("bad CRC mid-file");
        assert!(matches!(err, JournalError::CorruptRecord { .. }), "{err}");
        // ...unless it hits the segment-final frame, where a torn body
        // behind a landed header is the innocent explanation.
        let last = bytes.len() - 1;
        let mut flipped = bytes;
        flipped[last] ^= 0x40;
        let (scan, _) = parse(&flipped, true).expect("tail-frame CRC failure repairs as torn");
        assert_eq!(scan.valid_len, first_commit);
    }

    #[test]
    fn batch_ids_round_trip_and_allocate_monotonically() {
        let v = BatchId(7).to_value();
        assert_eq!(BatchId::from_value(&v).unwrap(), BatchId(7));
        assert_eq!(BatchId(7).to_string(), "batch 7");
    }
}
