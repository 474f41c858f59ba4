//! Storage virtualization: the syscall surface under the durable stores.
//!
//! The checkpoint store and the request journal are the system of record
//! for every tenant's forget history, yet until this module existed they
//! trusted the filesystem completely — corruption detection was "the
//! JSON failed to parse" and no test could exercise a torn write, a
//! failed fsync, or a full disk. [`Vfs`] closes that gap: it abstracts
//! the five syscalls the stores actually use (read / write / append /
//! fsync / rename, plus remove / exists / list for hygiene) behind a
//! trait with two implementations:
//!
//! * [`StdFs`] — the production passthrough to `std::fs`;
//! * [`FaultFs`] — a deterministic in-memory filesystem that counts
//!   every operation, models the durable-vs-volatile split a real page
//!   cache has (bytes become crash-safe only at `fsync`), and injects
//!   faults — torn writes cut at byte *k*, fsync failures, `ENOSPC`,
//!   bit-flips, short reads, and outright kills — from an explicit or
//!   seeded schedule.
//!
//! The crash-point matrix tests in `crates/core/tests` use `FaultFs` to
//! kill a journaled serve run at *every single operation*, crash
//! (dropping all un-fsynced bytes), resume, and assert the terminal
//! state is bit-for-bit identical to the unfailed run — extending the
//! kill-and-resume contract from state boundaries down to syscalls.
//!
//! Every failure is a typed [`StorageError`] naming the operation and
//! the path, so "disk full while appending to the journal" reaches the
//! operator as exactly that instead of a bare `io::Error` chain.

use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The storage operation a [`StorageError`] failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfsOp {
    /// Reading a whole file.
    Read,
    /// Creating / truncating a file and writing its contents.
    Write,
    /// Appending bytes to the end of a file.
    Append,
    /// Flushing a file's bytes to stable storage.
    Fsync,
    /// Atomically renaming a file over another.
    Rename,
    /// Removing a file.
    Remove,
    /// Testing for a file's existence.
    Exists,
    /// Listing a directory.
    List,
}

impl VfsOp {
    /// Present-participle verb for error messages ("appending to ...").
    pub fn verb(self) -> &'static str {
        match self {
            VfsOp::Read => "reading",
            VfsOp::Write => "writing",
            VfsOp::Append => "appending to",
            VfsOp::Fsync => "fsyncing",
            VfsOp::Rename => "renaming",
            VfsOp::Remove => "removing",
            VfsOp::Exists => "checking",
            VfsOp::List => "listing",
        }
    }
}

/// A typed storage failure: which operation, on which path, and why.
///
/// Converts into [`std::io::Error`] (preserving the kind and carrying
/// itself as the payload), so existing `io::Result` plumbing keeps
/// working while callers that care — the CLI — can recover the full
/// context via [`storage_cause`] and render an actionable message.
#[derive(Debug)]
pub struct StorageError {
    /// The operation that failed.
    pub op: VfsOp,
    /// The file it failed on.
    pub path: PathBuf,
    /// Rename destination, for [`VfsOp::Rename`] failures.
    pub dest: Option<PathBuf>,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl StorageError {
    pub(crate) fn new(op: VfsOp, path: &Path, source: io::Error) -> Self {
        StorageError {
            op,
            path: path.to_path_buf(),
            dest: None,
            source,
        }
    }

    fn rename(from: &Path, to: &Path, source: io::Error) -> Self {
        StorageError {
            op: VfsOp::Rename,
            path: from.to_path_buf(),
            dest: Some(to.to_path_buf()),
            source,
        }
    }

    /// The error kind of the underlying failure.
    pub fn kind(&self) -> io::ErrorKind {
        self.source.kind()
    }

    /// An operator-facing message: what failed, where, and what to do
    /// about it. Disk-full and fsync failures get explicit advice
    /// because they are the two cases where "retry the same call" is
    /// the wrong move.
    pub fn actionable(&self) -> String {
        let mut msg = self.to_string();
        if self.kind() == io::ErrorKind::StorageFull {
            msg.push_str(
                "; the disk is full — free space and re-run \
                 (everything already fsynced is intact)",
            );
        } else if self.op == VfsOp::Fsync {
            msg.push_str(
                "; the write may not be durable — fix the device, \
                 then reopen to recover to the last checksummed record",
            );
        }
        msg
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.dest {
            Some(dest) => write!(
                f,
                "{} {} -> {}: {}",
                self.op.verb(),
                self.path.display(),
                dest.display(),
                self.source
            ),
            None => write!(
                f,
                "{} {}: {}",
                self.op.verb(),
                self.path.display(),
                self.source
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl From<StorageError> for io::Error {
    fn from(e: StorageError) -> Self {
        io::Error::new(e.kind(), e)
    }
}

/// Digs a [`StorageError`] out of an `io::Error` chain, if the error
/// originated in a [`Vfs`] operation. The CLI uses this to print the
/// operation and path instead of a bare OS error string.
pub fn storage_cause(e: &io::Error) -> Option<&StorageError> {
    e.get_ref()?.downcast_ref()
}

/// The syscall surface the durable stores run on.
///
/// Operations are path-addressed and whole-buffer (no handles): the
/// stores read and write entire files or append whole framed records,
/// which keeps the trait small, the fault schedule meaningful ("op 7 of
/// this run"), and implementations trivially thread-safe.
///
/// Durability contract: bytes from `write`/`append` are crash-safe only
/// after a subsequent `fsync` of the same path; `rename` is atomic with
/// respect to crashes (the destination holds either the old or the new
/// file, never a mix).
pub trait Vfs: fmt::Debug + Send + Sync {
    /// Reads the whole file at `path`.
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError>;
    /// Creates (or truncates) `path` and writes `bytes`.
    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError>;
    /// Appends `bytes` to `path`, creating it if missing.
    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError>;
    /// Flushes `path`'s bytes to stable storage.
    fn fsync(&self, path: &Path) -> Result<(), StorageError>;
    /// Atomically renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError>;
    /// Removes the file at `path`.
    fn remove(&self, path: &Path) -> Result<(), StorageError>;
    /// Whether a file exists at `path`.
    fn exists(&self, path: &Path) -> Result<bool, StorageError>;
    /// The files in `dir`, sorted; empty when `dir` does not exist.
    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError>;
}

/// The directory a file lives in, normalized so bare relative names
/// ("deployment.json") list the current directory instead of "".
pub(crate) fn dir_of(path: &Path) -> PathBuf {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    }
}

/// Writes `bytes` to `path` with the workspace's crash-safe discipline:
/// write to a sibling `<name>.tmp`, fsync it, rename it over `path`. A
/// crash at any byte leaves either the old file or the new one.
///
/// # Errors
///
/// Any [`StorageError`] from the three steps; a failed rename removes
/// the temporary file on a best-effort basis.
pub fn atomic_write(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = sibling(path, ".tmp");
    vfs.write(&tmp, bytes)?;
    vfs.fsync(&tmp)?;
    let renamed = vfs.rename(&tmp, path);
    if renamed.is_err() {
        vfs.remove(&tmp).ok();
    }
    renamed
}

/// `path` with `suffix` appended to its file name (`a/b.json` + `.tmp`
/// -> `a/b.json.tmp`). Falls back to the suffix alone for pathological
/// names with no final component.
pub(crate) fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(std::ffi::OsString::new, |n| n.to_os_string());
    name.push(suffix);
    path.with_file_name(name)
}

/// Removes stale `<name>*.tmp` files next to `path` — the droppings a
/// crash between create and rename leaves behind. Called on journal and
/// checkpoint open so aborted saves never accumulate on disk. Best
/// effort: sweep failures are ignored (the stores must still open on a
/// read-only filesystem).
///
/// Returns the paths it removed.
pub fn sweep_stale_tmps(vfs: &dyn Vfs, path: &Path) -> Vec<PathBuf> {
    let Some(base) = path.file_name().and_then(|n| n.to_str()) else {
        return Vec::new();
    };
    let Ok(entries) = vfs.list(&dir_of(path)) else {
        return Vec::new();
    };
    let mut swept = Vec::new();
    for entry in entries {
        let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with(base) && name.ends_with(".tmp") && vfs.remove(&entry).is_ok() {
            swept.push(entry);
        }
    }
    swept
}

// ---------------------------------------------------------------------
// CRC32 (IEEE): four interleaved slicing-by-8 streams, joined in GF(2).
// ---------------------------------------------------------------------

/// The IEEE polynomial, reflected: bit 31 is x⁰.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// `tables[k][b]` is byte `b`'s contribution to the CRC after `k` further
/// zero bytes have gone through the register (table 0 is the classic
/// bytewise table), so eight lookups retire eight input bytes per step.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 64 {
            c = if c & 1 != 0 {
                CRC32_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
            if bit % 8 == 0 {
                tables[bit / 8 - 1][i] = c;
            }
        }
        i += 1;
    }
    tables
}

const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// `a · b` modulo the polynomial, both in its reflected bit order.
const fn gf2_mul(a: u32, mut b: u32) -> u32 {
    let (mut product, mut bit) = (0, 1u32 << 31);
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 {
            (b >> 1) ^ CRC32_POLY
        } else {
            b >> 1
        };
        bit >>= 1;
    }
    product
}

/// `x^(8·2^k)` modulo the polynomial at `[k]`: what multiplies a CRC to
/// run it over `2^k` more zero bytes.
const fn crc32_byte_shifts() -> [u32; usize::BITS as usize] {
    // `x^8` at every index; squared up from index 1 on.
    let mut shifts = [1u32 << (31 - 8); usize::BITS as usize];
    let mut k = 1;
    while k < shifts.len() {
        shifts[k] = gf2_mul(shifts[k - 1], shifts[k - 1]);
        k += 1;
    }
    shifts
}

const CRC32_BYTE_SHIFTS: [u32; usize::BITS as usize] = crc32_byte_shifts();

/// Runs shorter than this many bytes (inputs under 2 KiB) take one
/// stream: at 1 KiB the join costs about what four streams save.
const CRC32_MIN_STREAM: usize = 512;

/// Runs the CRC register `c` over one 8-byte word.
fn crc32_word(c: u32, word: &[u8; 8]) -> u32 {
    let w = u64::from_le_bytes(*word) ^ u64::from(c);
    // Byte 0 of the word has seven more bytes to travel: table 7.
    (CRC32_TABLES.iter().enumerate()).fold(0, |c, (k, table)| {
        c ^ table[usize::from((w >> (56 - 8 * k)) as u8)]
    })
}

/// Runs the CRC register `c` over `bytes`, one stream.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        c = crc32_word(c, word);
    }
    let [bytewise, ..] = &CRC32_TABLES;
    for &b in tail {
        c = bytewise[usize::from(c as u8 ^ b)] ^ (c >> 8);
    }
    c
}

/// IEEE CRC32 of `bytes` — the checksum of every journal commit and
/// checkpoint file (see [`crate::frame::seal`]).
///
/// A long input is cut into four runs of whole words and a tail. The
/// runs' CRCs are computed in one loop, whose four independent register
/// chains the CPU overlaps, and joined as `crc(a ‖ b) = crc(a) ·
/// x^(8|b|) ⊕ crc(b)`; the tail continues from the join.
pub fn crc32(bytes: &[u8]) -> u32 {
    let run = bytes.len() / 32 * 8;
    if run < CRC32_MIN_STREAM {
        return !crc32_update(!0, bytes);
    }
    let (runs, tail) = bytes.split_at(4 * run);
    let (runs, _) = runs.as_chunks::<8>();
    let words = run / 8;
    let (r0, rest) = runs.split_at(words);
    let (r1, rest) = rest.split_at(words);
    let (r2, r3) = rest.split_at(words);
    let (mut c0, mut c1, mut c2, mut c3) = (!0u32, !0u32, !0u32, !0u32);
    for (((w0, w1), w2), w3) in r0.iter().zip(r1).zip(r2).zip(r3) {
        c0 = crc32_word(c0, w0);
        c1 = crc32_word(c1, w1);
        c2 = crc32_word(c2, w2);
        c3 = crc32_word(c3, w3);
    }
    let shift = (CRC32_BYTE_SHIFTS.iter().enumerate())
        .filter(|&(k, _)| run >> k & 1 != 0)
        .fold(1 << 31, |x, (_, &s)| gf2_mul(x, s));
    let joined = [c1, c2, c3]
        .iter()
        .fold(!c0, |crc, &next| gf2_mul(shift, crc) ^ !next);
    !crc32_update(!joined, tail)
}

// ---------------------------------------------------------------------
// Production implementation.
// ---------------------------------------------------------------------

/// The production [`Vfs`]: a direct passthrough to `std::fs`, the one place
/// the root `clippy.toml` lets call it; all other storage I/O uses the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

#[expect(clippy::disallowed_methods, reason = "the Vfs passthrough")]
#[expect(clippy::disallowed_types, reason = "the Vfs passthrough")]
impl Vfs for StdFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        std::fs::read(path).map_err(|e| StorageError::new(VfsOp::Read, path, e))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        std::fs::write(path, bytes).map_err(|e| StorageError::new(VfsOp::Write, path, e))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map_err(|e| StorageError::new(VfsOp::Append, path, e))?;
        f.write_all(bytes)
            .map_err(|e| StorageError::new(VfsOp::Append, path, e))
    }

    fn fsync(&self, path: &Path) -> Result<(), StorageError> {
        let wrap = |e| StorageError::new(VfsOp::Fsync, path, e);
        let f = std::fs::File::open(path).map_err(wrap)?;
        f.sync_all().map_err(wrap)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        std::fs::rename(from, to).map_err(|e| StorageError::rename(from, to, e))
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        std::fs::remove_file(path).map_err(|e| StorageError::new(VfsOp::Remove, path, e))
    }

    fn exists(&self, path: &Path) -> Result<bool, StorageError> {
        match std::fs::metadata(path) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StorageError::new(VfsOp::Exists, path, e)),
        }
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StorageError::new(VfsOp::List, dir, e)),
        };
        let mut out = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| StorageError::new(VfsOp::List, dir, e))?;
            out.push(entry.path());
        }
        out.sort();
        Ok(out)
    }
}

// ---------------------------------------------------------------------
// Deterministic fault injection.
// ---------------------------------------------------------------------

/// One injectable storage fault, applied when the operation counter
/// reaches the scheduled index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The process dies at this operation: the op does nothing, fails,
    /// and every later op fails too (until [`FaultFs::crash`]).
    Kill,
    /// A write/append applies only its first `n` bytes (volatile), then
    /// the process dies — the classic torn write. On non-write ops this
    /// degrades to [`Fault::Kill`].
    TornWrite(usize),
    /// The fsync fails without advancing durability; the process
    /// survives (callers must treat the file as unsynced).
    FsyncFail,
    /// The write/append fails with `ENOSPC` having applied nothing; the
    /// process survives.
    DiskFull,
    /// A read returns its buffer with bit `n % (len * 8)` flipped —
    /// transient read corruption. The file itself is untouched. At a
    /// read of a missing or empty file it does not fire.
    BitFlip(usize),
    /// A read returns only the first `n` bytes. At a read that returns
    /// `n` bytes or fewer anyway it does not fire.
    ShortRead(usize),
}

/// One process death, expressed in the single vocabulary every fault
/// layer routes through.
///
/// Before this type existed the workspace modeled "the process dies"
/// twice: [`FaultFs::kill_at`] (die at the *k*-th storage syscall) and
/// the serve crate's `ChaosKill` (die once a journal *boundary* of a
/// planned unit is durable). A composed chaos schedule could therefore
/// arm both for the same lifetime and mean two different deaths.
/// `CrashPoint` unifies them: a schedule carries at most one per
/// process lifetime, [`FaultFs::arm`] consumes the storage flavor, and
/// the serving executor consumes the boundary flavor — precedence is
/// documented in DESIGN.md §5k (storage kills fire first because the
/// syscall happens before the boundary becomes durable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die at the 0-based `op`-th [`Vfs`] operation ([`Fault::Kill`]
    /// semantics: the op fails and every later op fails too).
    VfsOp(u64),
    /// Die right after `boundary` of planned service unit `unit` is
    /// durable — the serve executor's semantic kill.
    Boundary {
        /// Index into the service plan's unit list.
        unit: usize,
        /// The journal boundary to die at.
        boundary: crate::BatchPreempt,
    },
}

impl serde::Serialize for CrashPoint {
    fn to_value(&self) -> serde::Value {
        match *self {
            CrashPoint::VfsOp(op) => serde::Value::Map(vec![(
                "vfs_op".to_string(),
                serde::Serialize::to_value(&op),
            )]),
            CrashPoint::Boundary { unit, boundary } => serde::Value::Map(vec![
                ("unit".to_string(), serde::Serialize::to_value(&unit)),
                (
                    "boundary".to_string(),
                    serde::Serialize::to_value(&boundary),
                ),
            ]),
        }
    }
}

impl serde::Deserialize for CrashPoint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if let Some(op) = v.get("vfs_op") {
            return Ok(CrashPoint::VfsOp(serde::Deserialize::from_value(op)?));
        }
        if v.get("unit").is_some() {
            return Ok(CrashPoint::Boundary {
                unit: serde::Deserialize::from_value(v.field("CrashPoint", "unit")?)?,
                boundary: serde::Deserialize::from_value(v.field("CrashPoint", "boundary")?)?,
            });
        }
        Err(serde::DeError::new(
            "expected object with `vfs_op` or `unit`+`boundary` for CrashPoint",
        ))
    }
}

#[derive(Debug, Clone, Default)]
struct FileEntry {
    bytes: Vec<u8>,
    /// Crash-safe prefix length: bytes beyond this vanish at
    /// [`FaultFs::crash`]. Advanced by `fsync`.
    durable: usize,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, FileEntry>,
    /// Every operation so far, in order: its kind and the bytes it
    /// moved ([`FaultFs::op_log`]).
    log: Vec<(VfsOp, usize)>,
    /// Every file a rename put in place, in order: its new path and a
    /// copy of its bytes ([`FaultFs::renamed_onto`]).
    renamed: Vec<(PathBuf, Vec<u8>)>,
    appended_bytes: u64,
    schedule: BTreeMap<u64, Fault>,
    killed: bool,
    capacity: Option<u64>,
}

impl FaultState {
    fn total_bytes(&self) -> u64 {
        self.files.values().map(|f| f.bytes.len() as u64).sum()
    }
}

/// A deterministic, fault-injecting, in-memory [`Vfs`].
///
/// Files live in a `BTreeMap`; every operation increments a counter and
/// consults the fault schedule. Each file tracks its durable prefix —
/// the bytes an `fsync` has made crash-safe — and [`FaultFs::crash`]
/// truncates every file to that prefix, exactly what a power cut does
/// to a page cache. Shared behind `Arc` it is `Sync` (a `Mutex` guards
/// all state), so the serve layer can run on it unchanged.
#[derive(Debug, Default)]
pub struct FaultFs {
    state: Mutex<FaultState>,
}

impl FaultFs {
    /// An empty filesystem with no faults scheduled.
    pub fn new() -> Self {
        FaultFs::default()
    }

    /// Schedules `fault` at 0-based operation index `op` (one-shot).
    pub fn schedule_fault(&self, op: u64, fault: Fault) {
        self.lock().schedule.insert(op, fault);
    }

    /// Schedules a [`Fault::Kill`] at operation `op`.
    pub fn kill_at(&self, op: u64) {
        self.schedule_fault(op, Fault::Kill);
    }

    /// Arms a unified [`CrashPoint`] on this filesystem. Storage-level
    /// points ([`CrashPoint::VfsOp`]) become a [`Fault::Kill`] at that
    /// operation index and the call returns `true`; semantic points
    /// ([`CrashPoint::Boundary`]) are the serving executor's to honor
    /// (it translates them to its own preemption type) and leave the
    /// schedule untouched, returning `false`. This is the single
    /// entry point chaos harnesses route every kill through, so one
    /// schedule cannot express two contradictory deaths for the same
    /// process lifetime. Training has no boundary: every death of a
    /// checkpointed training run is a [`CrashPoint::VfsOp`].
    pub fn arm(&self, point: &CrashPoint) -> bool {
        match *point {
            CrashPoint::VfsOp(op) => {
                self.kill_at(op);
                true
            }
            CrashPoint::Boundary { .. } => false,
        }
    }

    /// Number of scheduled faults that have not fired yet. Chaos
    /// harnesses subtract this from the number they armed to report how
    /// many faults a run actually hit before dying.
    pub fn pending_faults(&self) -> u64 {
        self.lock().schedule.len() as u64
    }

    /// Caps the filesystem at `bytes` total: writes and appends that
    /// would exceed it fail with `ENOSPC`.
    pub fn set_capacity(&self, bytes: u64) {
        self.lock().capacity = Some(bytes);
    }

    /// Clears all scheduled faults, the capacity cap, and the killed
    /// flag, without touching file contents.
    pub fn clear_faults(&self) {
        let mut guard = self.lock();
        guard.schedule.clear();
        guard.capacity = None;
        guard.killed = false;
    }

    /// Simulates the machine dying and restarting: every file is
    /// truncated to its durable (fsynced) prefix, un-synced bytes are
    /// gone, and the filesystem is usable again (faults cleared).
    pub fn crash(&self) {
        let mut guard = self.lock();
        for entry in guard.files.values_mut() {
            let durable = entry.durable;
            entry.bytes.truncate(durable);
        }
        guard.schedule.clear();
        guard.killed = false;
    }

    /// Operations executed so far (reads, writes, everything).
    pub fn op_count(&self) -> u64 {
        self.lock().log.len() as u64
    }

    /// Operations of kind `op` executed so far.
    pub fn op_count_of(&self, op: VfsOp) -> u64 {
        self.lock()
            .log
            .iter()
            .filter(|(kind, _)| *kind == op)
            .count() as u64
    }

    /// Every operation executed so far, in order: its kind, and the
    /// bytes it moved — the length of the file a read read (0 for a
    /// missing one; a short read returns fewer), the length a write or
    /// append was handed, 0 for the rest.
    /// Operation `n` of the log is the one [`FaultFs::schedule_fault`]
    /// index `n` strikes.
    pub fn op_log(&self) -> Vec<(VfsOp, usize)> {
        self.lock().log.clone()
    }

    /// The contents of every file a rename put in place at `path`, oldest
    /// first: each generation an atomic save of `path` installed.
    pub fn renamed_onto(&self, path: &Path) -> Vec<Vec<u8>> {
        let guard = self.lock();
        let onto = guard.renamed.iter().filter(|(to, _)| to == path);
        onto.map(|(_, bytes)| bytes.clone()).collect()
    }

    /// Total bytes handed to `write`/`append` so far — the I/O volume
    /// metric behind the O(1)-append assertion and the storage bench.
    pub fn bytes_written(&self) -> u64 {
        self.lock().appended_bytes
    }

    /// Full contents of every file (durable and volatile bytes alike),
    /// for bit-for-bit state comparisons.
    pub fn files(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        self.lock()
            .files
            .iter()
            .map(|(p, f)| (p.clone(), f.bytes.clone()))
            .collect()
    }

    /// Replaces all file contents (marking everything durable) and
    /// resets counters and faults — the matrix harness uses this to
    /// restart each iteration from an identical disk image.
    pub fn reset_to(&self, files: BTreeMap<PathBuf, Vec<u8>>) {
        let mut guard = self.lock();
        guard.files = files
            .into_iter()
            .map(|(p, bytes)| {
                let durable = bytes.len();
                (p, FileEntry { bytes, durable })
            })
            .collect();
        guard.log.clear();
        guard.renamed.clear();
        guard.appended_bytes = 0;
        guard.schedule.clear();
        guard.killed = false;
        guard.capacity = None;
    }

    /// The bytes of one file, if it exists.
    pub fn file(&self, path: &Path) -> Option<Vec<u8>> {
        self.lock().files.get(path).map(|f| f.bytes.clone())
    }

    /// XORs `mask` into the byte at `offset` of `path` (durably) —
    /// the corruption-corpus helper for bit-rot scenarios. Returns
    /// false when the file or offset does not exist.
    pub fn corrupt(&self, path: &Path, offset: usize, mask: u8) -> bool {
        let mut guard = self.lock();
        match guard
            .files
            .get_mut(path)
            .and_then(|f| f.bytes.get_mut(offset))
        {
            Some(byte) => {
                *byte ^= mask;
                true
            }
            None => false,
        }
    }

    /// Durably truncates `path` to `len` bytes — the corruption-corpus
    /// helper for torn-tail scenarios. Returns false if missing.
    pub fn truncate(&self, path: &Path, len: usize) -> bool {
        let mut guard = self.lock();
        match guard.files.get_mut(path) {
            Some(entry) => {
                entry.bytes.truncate(len);
                entry.durable = entry.durable.min(len);
                true
            }
            None => false,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Charges one operation moving `bytes`: fails if the process is
    /// already dead, otherwise logs it and takes any fault scheduled at
    /// it.
    fn begin(
        &self,
        guard: &mut FaultState,
        op: VfsOp,
        path: &Path,
        bytes: usize,
    ) -> Result<Option<Fault>, StorageError> {
        if guard.killed {
            return Err(dead(op, path));
        }
        let index = guard.log.len() as u64;
        guard.log.push((op, bytes));
        Ok(guard.schedule.remove(&index))
    }
}

fn dead(op: VfsOp, path: &Path) -> StorageError {
    StorageError::new(
        op,
        path,
        io::Error::other("process killed by fault injection"),
    )
}

fn enospc(op: VfsOp, path: &Path) -> StorageError {
    StorageError::new(
        op,
        path,
        io::Error::new(io::ErrorKind::StorageFull, "no space left on device"),
    )
}

fn not_found(op: VfsOp, path: &Path) -> StorageError {
    StorageError::new(
        op,
        path,
        io::Error::new(io::ErrorKind::NotFound, "no such file"),
    )
}

impl Vfs for FaultFs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StorageError> {
        let mut guard = self.lock();
        let len = guard.files.get(path).map_or(0, |f| f.bytes.len());
        let fault = self.begin(&mut guard, VfsOp::Read, path, len)?;
        // A death strikes whether or not the file is there.
        if fault.is_some_and(|f| !matches!(f, Fault::BitFlip(_) | Fault::ShortRead(_))) {
            guard.killed = true;
            return Err(dead(VfsOp::Read, path));
        }
        let mut read = guard.files.get(path).map(|entry| entry.bytes.clone());
        let fired = match (fault, read.as_mut()) {
            (Some(Fault::BitFlip(n)), Some(bytes)) if !bytes.is_empty() => {
                let bit = n % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
                true
            }
            (Some(Fault::ShortRead(n)), Some(bytes)) if n < bytes.len() => {
                bytes.truncate(n);
                true
            }
            _ => false,
        };
        // A read fault that returns the bytes unchanged (or none: the
        // file is missing) has not fired; it stays in the schedule.
        if let Some(fault) = fault.filter(|_| !fired) {
            let index = guard.log.len() as u64 - 1;
            guard.schedule.insert(index, fault);
        }
        read.ok_or_else(|| not_found(VfsOp::Read, path))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::Write, path, bytes.len())?;
        match fault {
            Some(Fault::DiskFull) => return Err(enospc(VfsOp::Write, path)),
            Some(Fault::TornWrite(keep)) => {
                let keep = keep.min(bytes.len());
                guard.appended_bytes += keep as u64;
                guard.files.insert(
                    path.to_path_buf(),
                    FileEntry {
                        bytes: bytes[..keep].to_vec(),
                        durable: 0,
                    },
                );
                guard.killed = true;
                return Err(dead(VfsOp::Write, path));
            }
            Some(_) => {
                guard.killed = true;
                return Err(dead(VfsOp::Write, path));
            }
            None => {}
        }
        let replaced = guard.files.get(path).map_or(0, |f| f.bytes.len() as u64);
        if let Some(cap) = guard.capacity {
            if guard.total_bytes() - replaced + bytes.len() as u64 > cap {
                return Err(enospc(VfsOp::Write, path));
            }
        }
        guard.appended_bytes += bytes.len() as u64;
        guard.files.insert(
            path.to_path_buf(),
            FileEntry {
                bytes: bytes.to_vec(),
                durable: 0,
            },
        );
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::Append, path, bytes.len())?;
        match fault {
            Some(Fault::DiskFull) => return Err(enospc(VfsOp::Append, path)),
            Some(Fault::TornWrite(keep)) => {
                let keep = keep.min(bytes.len());
                guard.appended_bytes += keep as u64;
                let entry = guard.files.entry(path.to_path_buf()).or_default();
                entry.bytes.extend_from_slice(&bytes[..keep]);
                guard.killed = true;
                return Err(dead(VfsOp::Append, path));
            }
            Some(_) => {
                guard.killed = true;
                return Err(dead(VfsOp::Append, path));
            }
            None => {}
        }
        if let Some(cap) = guard.capacity {
            if guard.total_bytes() + bytes.len() as u64 > cap {
                return Err(enospc(VfsOp::Append, path));
            }
        }
        guard.appended_bytes += bytes.len() as u64;
        let entry = guard.files.entry(path.to_path_buf()).or_default();
        entry.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn fsync(&self, path: &Path) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::Fsync, path, 0)?;
        match fault {
            Some(Fault::FsyncFail) => {
                return Err(StorageError::new(
                    VfsOp::Fsync,
                    path,
                    io::Error::other("fsync failed (injected)"),
                ));
            }
            Some(_) => {
                guard.killed = true;
                return Err(dead(VfsOp::Fsync, path));
            }
            None => {}
        }
        let entry = guard
            .files
            .get_mut(path)
            .ok_or_else(|| not_found(VfsOp::Fsync, path))?;
        entry.durable = entry.bytes.len();
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::Rename, from, 0)?;
        if fault.is_some() {
            guard.killed = true;
            return Err(dead(VfsOp::Rename, from));
        }
        let entry = guard.files.remove(from).ok_or_else(|| {
            StorageError::rename(
                from,
                to,
                io::Error::new(io::ErrorKind::NotFound, "no such file"),
            )
        })?;
        guard.renamed.push((to.to_path_buf(), entry.bytes.clone()));
        guard.files.insert(to.to_path_buf(), entry);
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<(), StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::Remove, path, 0)?;
        if fault.is_some() {
            guard.killed = true;
            return Err(dead(VfsOp::Remove, path));
        }
        guard
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(VfsOp::Remove, path))
    }

    fn exists(&self, path: &Path) -> Result<bool, StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::Exists, path, 0)?;
        if fault.is_some() {
            guard.killed = true;
            return Err(dead(VfsOp::Exists, path));
        }
        Ok(guard.files.contains_key(path))
    }

    fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StorageError> {
        let mut guard = self.lock();
        let fault = self.begin(&mut guard, VfsOp::List, dir, 0)?;
        if fault.is_some() {
            guard.killed = true;
            return Err(dead(VfsOp::List, dir));
        }
        Ok(guard
            .files
            .keys()
            .filter(|p| dir_of(p) == *dir || dir_of(p) == dir_of(&dir.join("x")))
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one-byte-per-step loop `crc32` replaced: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let table = &CRC32_TABLES[0];
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    proptest::proptest! {
        /// From empty inputs through single-stream ones to the four-stream
        /// path's runs of every length up to ≈ 300 KB, every tail length
        /// and every word alignment.
        #[test]
        fn crc32_equals_the_bytewise_oracle(
            len in 0usize..300_000,
            short in 0usize..4096,
            salt in 0u64..u64::MAX,
            skip in 0usize..8,
        ) {
            // Half the cases stay below the four-stream threshold.
            let len = if salt % 2 == 0 { short } else { len };
            let mut x = salt | 1;
            let bytes: Vec<u8> = (0..len + 8)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            // `skip` moves the 8-byte word boundaries across the input.
            let bytes = &bytes[skip..skip + len];
            proptest::prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
        }
    }

    #[test]
    fn crc32_joins_streams_at_every_run_length_near_the_threshold() {
        let bytes: Vec<u8> = (0..5_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in (4 * CRC32_MIN_STREAM - 40)..(4 * CRC32_MIN_STREAM + 40) {
            assert_eq!(crc32(&bytes[..len]), crc32_bytewise(&bytes[..len]), "{len}");
        }
    }

    #[test]
    fn faultfs_models_the_durable_volatile_split() {
        let fs = FaultFs::new();
        let p = Path::new("a.log");
        fs.append(p, b"one").unwrap();
        fs.fsync(p).unwrap();
        fs.append(p, b"two").unwrap();
        assert_eq!(fs.file(p).unwrap(), b"onetwo");
        fs.crash();
        assert_eq!(fs.file(p).unwrap(), b"one", "unsynced bytes must vanish");
    }

    #[test]
    fn a_kill_at_a_read_of_a_missing_file_still_kills() {
        let fs = FaultFs::new();
        let p = Path::new("absent.json");
        fs.kill_at(0);
        assert_eq!(fs.read(p).unwrap_err().source.kind(), io::ErrorKind::Other);
        assert!(fs.write(p, b"x").is_err(), "later ops stay dead");
        assert_eq!(fs.pending_faults(), 0);
    }

    #[test]
    fn kill_fault_stops_everything_until_crash_restart() {
        let fs = FaultFs::new();
        let p = Path::new("a.log");
        fs.append(p, b"x").unwrap(); // op 0
        fs.kill_at(1);
        assert!(fs.fsync(p).is_err(), "op 1 dies");
        assert!(fs.append(p, b"y").is_err(), "later ops stay dead");
        fs.crash();
        assert_eq!(fs.file(p).unwrap(), b"", "nothing was fsynced");
        fs.append(p, b"z").unwrap();
        assert_eq!(fs.file(p).unwrap(), b"z");
    }

    #[test]
    fn torn_write_applies_a_prefix_then_dies() {
        let fs = FaultFs::new();
        let p = Path::new("a.log");
        fs.schedule_fault(0, Fault::TornWrite(2));
        assert!(fs.append(p, b"hello").is_err());
        fs.crash();
        // The torn bytes were never fsynced, so the crash removes them.
        assert_eq!(fs.file(p).unwrap(), b"");
    }

    /// A torn write is never fsynced, so after the crash how many of its
    /// bytes landed makes no difference: one torn length per operation
    /// is every torn length there is.
    #[test]
    fn every_torn_length_leaves_the_same_files_after_the_crash() {
        let (p, bytes) = (Path::new("a.log"), b"hello world");
        let torn = |write: bool, keep: usize| {
            let fs = FaultFs::new();
            fs.append(p, b"durable").unwrap();
            fs.fsync(p).unwrap();
            fs.schedule_fault(2, Fault::TornWrite(keep));
            let died = if write {
                fs.write(p, bytes)
            } else {
                fs.append(p, bytes)
            };
            assert!(died.is_err(), "a torn write kills");
            fs.crash();
            fs.files()
        };
        for write in [false, true] {
            let lengths = [0, bytes.len() / 2, bytes.len() - 1];
            let after: Vec<_> = lengths.iter().map(|&keep| torn(write, keep)).collect();
            assert!(after.iter().all(|files| *files == after[0]), "{after:?}");
        }
        assert_eq!(torn(false, 5)[p], b"durable", "an append keeps its prefix");
    }

    #[test]
    fn disk_full_is_typed_and_survivable() {
        let fs = FaultFs::new();
        let p = Path::new("a.log");
        fs.set_capacity(4);
        fs.append(p, b"1234").unwrap();
        let err = fs.append(p, b"5").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(
            err.actionable().contains("disk is full"),
            "{}",
            err.actionable()
        );
        assert!(err.to_string().contains("a.log"));
        // The filesystem is still usable for reads.
        assert_eq!(fs.read(p).unwrap(), b"1234");
    }

    #[test]
    fn bit_flips_and_short_reads_corrupt_only_the_returned_copy() {
        let fs = FaultFs::new();
        let p = Path::new("a.log");
        fs.append(p, b"abcd").unwrap();
        fs.schedule_fault(1, Fault::BitFlip(0));
        assert_ne!(fs.read(p).unwrap(), b"abcd");
        assert_eq!(fs.read(p).unwrap(), b"abcd", "file itself untouched");
        fs.schedule_fault(3, Fault::ShortRead(2));
        assert_eq!(fs.read(p).unwrap(), b"ab");
        assert_eq!(fs.pending_faults(), 0, "both changed what they returned");
    }

    /// A bit flip or short read fires only where it changes the bytes a
    /// read returns: not at a missing or empty file, nor as a short read
    /// no shorter than the file.
    #[test]
    fn a_read_fault_that_changes_nothing_has_not_fired() {
        let fs = FaultFs::new();
        let (full, empty) = (Path::new("a.log"), Path::new("empty.log"));
        fs.append(full, b"abcd").unwrap();
        fs.append(empty, b"").unwrap();
        let cases: [(&Path, Fault); 5] = [
            (Path::new("absent.log"), Fault::BitFlip(0)),
            (Path::new("absent.log"), Fault::ShortRead(0)),
            (empty, Fault::BitFlip(0)),
            (empty, Fault::ShortRead(0)),
            (full, Fault::ShortRead(4)),
        ];
        for (path, fault) in cases {
            let before = fs.file(path);
            fs.schedule_fault(fs.op_count(), fault);
            assert_eq!(fs.read(path).ok(), before, "{path:?} {fault:?}");
            assert_eq!(fs.pending_faults(), 1, "{path:?} {fault:?} fired");
            fs.clear_faults();
        }
    }

    #[test]
    fn atomic_write_leaves_old_or_new_never_torn() {
        let fs = FaultFs::new();
        let p = Path::new("cfg.json");
        atomic_write(&fs, p, b"v1").unwrap();
        assert_eq!(fs.file(p).unwrap(), b"v1");
        // Kill at the rename of the second save: the fsynced tmp file
        // is stranded and the target is untouched.
        let ops = fs.op_count();
        fs.kill_at(ops + 2);
        assert!(atomic_write(&fs, p, b"v2").is_err());
        fs.crash();
        assert_eq!(fs.file(p).unwrap(), b"v1");
        // The stale tmp is swept on the next open-style pass.
        let swept = sweep_stale_tmps(&fs, p);
        assert_eq!(swept.len(), 1);
        assert!(fs.file(Path::new("cfg.json.tmp")).is_none());
        atomic_write(&fs, p, b"v2").unwrap();
        assert_eq!(fs.file(p).unwrap(), b"v2");
    }

    #[test]
    fn storage_errors_survive_the_io_error_round_trip() {
        let fs = FaultFs::new();
        fs.set_capacity(0);
        let storage = fs.append(Path::new("j.seg"), b"x").unwrap_err();
        let io: io::Error = storage.into();
        assert_eq!(io.kind(), io::ErrorKind::StorageFull);
        let back = storage_cause(&io).expect("payload preserved");
        assert_eq!(back.op, VfsOp::Append);
        assert_eq!(back.path, Path::new("j.seg"));
    }
}
