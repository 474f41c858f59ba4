//! Persistence: save and restore a trained QuickDrop deployment.
//!
//! A real deployment trains once and then serves unlearning requests over
//! weeks (the paper's cost amortization argument, Section 5). That only
//! works if the global model *and* every client's synthetic dataset
//! survive restarts. A [`Checkpoint`] bundles both plus the phase
//! configuration and the forgotten-state bookkeeping, stored as one
//! CRC-sealed [`crate::frame`] (see [`CHECKPOINT_VERSION`]); `quickdrop-cli
//! dump` prints the JSON rendering for inspection.
//!
//! In a production federation each client would persist its own synthetic
//! set locally — synthetic samples never leave devices. The single-file
//! checkpoint here reflects this crate's role as a *simulator* of the
//! whole federation.

use crate::frame;
use crate::journal::same_snapshot;
use crate::vfs::{self, StdFs, Vfs};
use crate::{QuickDrop, QuickDropConfig};
use qd_data::Dataset;
use qd_distill::SyntheticSet;
use qd_fed::{Phase, ResumeState};
use qd_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// Why a checkpoint operation failed — the typed error for every
/// fallible [`Checkpoint`] method. Serving loops match on the variant;
/// CLI-style callers can `?` it into an [`std::io::Error`] via the
/// provided `From` impl.
#[derive(Debug)]
pub enum CheckpointError {
    /// Reading, writing, syncing or renaming the file failed.
    Io(std::io::Error),
    /// The file exists but is not an intact checkpoint: no magic, a
    /// length or CRC that does not verify, a malformed payload. Carries
    /// the path and a human-readable detail.
    Format {
        /// The offending file.
        path: std::path::PathBuf,
        /// What was wrong with it.
        detail: String,
    },
    /// The file is a checkpoint of a format version this build does not
    /// read (it reads exactly [`CHECKPOINT_VERSION`]; there is no
    /// migration — re-capture the deployment).
    UnsupportedVersion {
        /// The refused file.
        path: std::path::PathBuf,
        /// The version it declares.
        version: u32,
    },
    /// [`Checkpoint::restore`] was called on a mid-training checkpoint,
    /// which holds no servable synthetic state — feed it to
    /// [`QuickDrop::resume_train`](crate::QuickDrop::resume_train)
    /// instead.
    MidTrainRestore,
    /// The deployment holds no synthetic sets, so there is nothing to
    /// serve from (see
    /// [`QuickDrop::serving_federation`](crate::QuickDrop::serving_federation)).
    NoSyntheticSets,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CheckpointError::Format { path, detail } => {
                write!(f, "checkpoint {}: {detail}", path.display())
            }
            CheckpointError::UnsupportedVersion { path, version } => write!(
                f,
                "checkpoint {}: format version {version} is not supported; this \
                 build reads only version {CHECKPOINT_VERSION} (re-capture the \
                 checkpoint)",
                path.display()
            ),
            CheckpointError::MidTrainRestore => f.write_str(
                "mid-training checkpoint: resume training with \
                 QuickDrop::resume_train instead of restoring a deployment",
            ),
            CheckpointError::NoSyntheticSets => {
                f.write_str("deployment checkpoint holds no synthetic sets to serve from")
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<CheckpointError> for std::io::Error {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

fn into_io(e: vfs::StorageError) -> CheckpointError {
    CheckpointError::Io(e.into())
}

/// A serializable snapshot of a trained QuickDrop deployment.
///
/// # Examples
///
/// ```no_run
/// # use qd_core::{Checkpoint, CheckpointError, QuickDrop, QuickDropConfig};
/// # fn demo(fed: &qd_fed::Federation, qd: &QuickDrop) -> Result<(), CheckpointError> {
/// let ckpt = Checkpoint::capture(fed.global(), qd);
/// ckpt.save("deployment.json")?;
/// let restored = Checkpoint::load("deployment.json")?;
/// let (params, qd) = restored.restore()?;
/// # let _ = (params, qd); Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Global model parameters.
    pub global: Vec<Tensor>,
    pub(crate) config: QuickDropConfig,
    pub(crate) synthetic: Vec<SyntheticSet>,
    /// The real half of each client's recovery set; the synthetic half
    /// is `synthetic`, stored once.
    pub(crate) recovery_real: Vec<Dataset>,
    pub(crate) unlearned_classes: BTreeSet<usize>,
    pub(crate) unlearned_clients: BTreeSet<usize>,
    /// `Some` while a training phase is still in flight: everything
    /// beyond `global` needed to resume it bit-for-bit. `None` in a
    /// post-training deployment snapshot.
    pub(crate) mid_phase: Option<MidPhase>,
}

/// Mid-phase training state carried by a [`Checkpoint`].
///
/// Written at a round boundary by [`QuickDrop::train_with_checkpoints`]
/// and consumed by [`QuickDrop::resume_train`]: together with
/// [`Checkpoint::global`] it pins down the phase remainder exactly — the
/// phase being run (including its aggregation rule), the round cursor
/// with RNG and quarantine state, and each client trainer's accumulated
/// distillation state.
///
/// [`QuickDrop::train_with_checkpoints`]: crate::QuickDrop::train_with_checkpoints
/// [`QuickDrop::resume_train`]: crate::QuickDrop::resume_train
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MidPhase {
    /// The phase that was executing (rounds, aggregator, quorum, ...).
    pub phase: Phase,
    /// Round-boundary cursor: next round, phase RNG, guard state.
    pub cursor: ResumeState,
    /// Per-client synthetic sets as distilled so far (`None` for clients
    /// that have not completed a round yet).
    pub trainer_synthetic: Vec<Option<SyntheticSet>>,
    /// Per-client round-robin matching cursors, aligned with
    /// [`MidPhase::trainer_synthetic`].
    pub trainer_round_robin: Vec<usize>,
}

/// Current checkpoint format version.
///
/// A version-4 file is
///
/// ```text
/// "QDC4\n" | len: u32le | crc32(frame): u32le | frame
/// ```
///
/// where `frame` is the [`crate::frame`] encoding of the [`Checkpoint`]
/// (JSON skeleton + raw-`f32` body). A flipped bit anywhere in the file
/// fails the magic, the length or the CRC check, so it can never load as
/// a different model. A frame that passes them still has to make sense:
/// every dataset, tensor and synthetic set is read back through its
/// constructor's checks, and each client has one recovery set of the
/// synthetic sets' geometry, or the load is a [`CheckpointError::Format`].
///
/// Each client's recovery set is its synthetic set followed by
/// `recovery_real`, the real samples mixed in, so every synthetic sample
/// is stored once. Version 3 (`"QDC3\n"`) stored the whole recovery set
/// beside the synthetic sets, and version 2 was that structure as bare
/// JSON text; they and every other version are refused with
/// [`CheckpointError::UnsupportedVersion`], the file left as it is.
pub const CHECKPOINT_VERSION: u32 = 4;

/// Leading bytes of a version-4 checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 5] = b"QDC4\n";

impl Checkpoint {
    /// Captures the current global parameters and QuickDrop state.
    pub fn capture(global: &[Tensor], qd: &QuickDrop) -> Self {
        let (config, synthetic, recovery_real, unlearned_classes, unlearned_clients) =
            qd.state_for_checkpoint();
        Checkpoint {
            version: CHECKPOINT_VERSION,
            global: global.to_vec(),
            config,
            synthetic,
            recovery_real,
            unlearned_classes,
            unlearned_clients,
            mid_phase: None,
        }
    }

    /// Captures an in-flight training run at a round boundary: the
    /// partial global model plus the [`MidPhase`] cursor that
    /// [`QuickDrop::resume_train`] needs to continue it.
    ///
    /// [`QuickDrop::resume_train`]: crate::QuickDrop::resume_train
    pub fn capture_mid_train(
        global: &[Tensor],
        config: &QuickDropConfig,
        mid_phase: MidPhase,
    ) -> Self {
        Checkpoint {
            version: CHECKPOINT_VERSION,
            global: global.to_vec(),
            config: config.clone(),
            synthetic: Vec::new(),
            recovery_real: Vec::new(),
            unlearned_classes: BTreeSet::new(),
            unlearned_clients: BTreeSet::new(),
            mid_phase: Some(mid_phase),
        }
    }

    /// The mid-phase cursor, `Some` for checkpoints written during
    /// training (see [`Checkpoint::capture_mid_train`]).
    pub fn mid_phase(&self) -> Option<&MidPhase> {
        self.mid_phase.as_ref()
    }

    /// Each client's synthetic set (empty in a mid-training checkpoint):
    /// their sample geometry and class count are the deployment's.
    pub fn synthetic_sets(&self) -> &[SyntheticSet] {
        &self.synthetic
    }

    /// Whether `other` is this checkpoint to the bit, so saving it would
    /// write this one's bytes again: compared in memory, as value trees
    /// with each scalar's bits, never by encoding either. The model is
    /// compared first; it is what a served request changes.
    pub fn same_bits(&self, other: &Checkpoint) -> bool {
        same_snapshot(&self.global, &other.global)
            && frame::same_bits(&self.to_value(), &other.to_value())
    }

    /// Rebuilds `(global parameters, QuickDrop)` from a deployment
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::MidTrainRestore`] on a mid-training
    /// checkpoint — those hold no servable synthetic state; feed them to
    /// [`QuickDrop::resume_train`] instead.
    ///
    /// [`QuickDrop::resume_train`]: crate::QuickDrop::resume_train
    pub fn restore(self) -> Result<(Vec<Tensor>, QuickDrop), CheckpointError> {
        if self.mid_phase.is_some() {
            return Err(CheckpointError::MidTrainRestore);
        }
        let qd = QuickDrop::from_checkpoint_state(
            self.config,
            self.synthetic,
            self.recovery_real,
            self.unlearned_classes,
            self.unlearned_clients,
        );
        Ok((self.global, qd))
    }

    /// The sibling path the previous checkpoint generation is rotated
    /// to on save: `<name>.prev`.
    pub fn prev_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().map_or_else(
            || std::ffi::OsString::from("checkpoint"),
            |n| n.to_os_string(),
        );
        name.push(".prev");
        path.with_file_name(name)
    }

    /// Writes the checkpoint to `path`, atomically.
    ///
    /// The bytes are written to a sibling `<name>.tmp` file, synced, and
    /// renamed over `path`, so a crash mid-save leaves either the old
    /// checkpoint or the new one — never a torn file. An existing
    /// checkpoint at `path` is first rotated to `<name>.prev` (see
    /// [`Checkpoint::prev_path`]), keeping one known-good generation
    /// for [`Checkpoint::load_with_fallback_on`] to fall back to if the
    /// primary is later corrupted in place.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the temporary file or renaming
    /// it (as [`CheckpointError::Io`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        self.save_on(&StdFs, path.as_ref())
    }

    /// [`Checkpoint::save`] on an explicit [`Vfs`].
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::save`].
    pub fn save_on(&self, fs: &dyn Vfs, path: &Path) -> Result<(), CheckpointError> {
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        bytes.extend(frame::seal(&frame::encode(&self.to_value()))?);
        let tmp = vfs::sibling(path, ".tmp");
        fs.write(&tmp, &bytes).map_err(into_io)?;
        fs.fsync(&tmp).map_err(into_io)?;
        // Rotate the previous generation aside rather than renaming
        // over it: bit rot in the primary then still has a fallback.
        if fs.exists(path).map_err(into_io)? {
            fs.rename(path, &Self::prev_path(path)).map_err(into_io)?;
        }
        if let Err(e) = fs.rename(&tmp, path) {
            fs.remove(&tmp).ok();
            return Err(into_io(e));
        }
        Ok(())
    }

    /// Loads a checkpoint from `path`. The CRC is verified before a byte
    /// of the payload is decoded, so corruption anywhere in the file is
    /// always detected.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError::Format`] naming the file and the
    /// problem when the contents are not an intact checkpoint (no magic,
    /// truncated, CRC mismatch, malformed payload),
    /// [`CheckpointError::UnsupportedVersion`] when they are a checkpoint
    /// of another format version — plus [`CheckpointError::Io`] for any
    /// error reading the file itself.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        Self::load_on(&StdFs, path.as_ref())
    }

    /// [`Checkpoint::load`] on an explicit [`Vfs`]. Stale `<name>*.tmp`
    /// droppings from a save that crashed between create and rename are
    /// swept on the way in.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`].
    pub fn load_on(fs: &dyn Vfs, path: &Path) -> Result<Self, CheckpointError> {
        vfs::sweep_stale_tmps(fs, path);
        Self::read_on(fs, path)
    }

    /// [`Checkpoint::load_on`] without the sweep: reads the file and
    /// touches nothing, for inspecting a deployment as it lies.
    ///
    /// # Errors
    ///
    /// As [`Checkpoint::load`].
    pub fn read_on(fs: &dyn Vfs, path: &Path) -> Result<Self, CheckpointError> {
        let bytes = fs.read(path).map_err(into_io)?;
        let invalid = |detail: String| CheckpointError::Format {
            path: path.to_path_buf(),
            detail,
        };
        let unsupported = |version: u32| CheckpointError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        };
        let Some(sealed) = bytes.strip_prefix(CHECKPOINT_MAGIC) else {
            return Err(match frame::foreign_version(&bytes, b"QDC") {
                Some(version) => unsupported(version),
                None => invalid("not a checkpoint file (no QDC4 magic)".to_string()),
            });
        };
        let payload = frame::unseal(sealed).map_err(|e| invalid(e.detail))?;
        if payload.len() + 8 != sealed.len() {
            return Err(invalid("stray bytes after the payload".to_string()));
        }
        let value = frame::decode(payload).map_err(|e| invalid(e.to_string()))?;
        // Check the version *before* decoding the payload, so a mismatch
        // is reported as such rather than as whatever field happens to
        // be missing from the other layout.
        let version: u32 = value
            .field("Checkpoint", "version")
            .and_then(serde::Deserialize::from_value)
            .map_err(|e| invalid(format!("no usable version: {e}")))?;
        if version != CHECKPOINT_VERSION {
            return Err(unsupported(version));
        }
        serde::Deserialize::from_value(&value)
            .map_err(|e| e.to_string())
            .and_then(|ckpt: Self| ckpt.check_recovery_sets().map(|()| ckpt))
            .map_err(|e| invalid(format!("malformed version-{version} payload: {e}")))
    }

    /// One recovery set per client, every synthetic and recovery set of
    /// one sample geometry and class count — what serving assumes of a
    /// deployment, checked where it comes in from disk.
    fn check_recovery_sets(&self) -> Result<(), String> {
        if self.recovery_real.len() != self.synthetic.len() {
            return Err(format!(
                "{} recovery sets for {} synthetic sets",
                self.recovery_real.len(),
                self.synthetic.len()
            ));
        }
        let Some(first) = self.synthetic.first() else {
            return Ok(());
        };
        let want = (first.sample_dims(), first.classes());
        for (i, (syn, real)) in self.synthetic.iter().zip(&self.recovery_real).enumerate() {
            for (what, got) in [
                ("synthetic set", (syn.sample_dims(), syn.classes())),
                ("recovery set", (real.sample_dims(), real.classes())),
            ] {
                if got != want {
                    return Err(format!(
                        "client {i}'s {what} has (C, H, W) and classes {got:?}, not {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Loads the checkpoint at `path`, falling back to the `.prev`
    /// generation when the primary is unreadable (missing, torn, or
    /// corrupted in place). On fallback the primary's error is returned
    /// alongside the recovered checkpoint so callers can report what
    /// was lost — the previous generation predates the primary, but
    /// the journal opened beside it rolls it forward again
    /// (`qd_serve::Deployment::open`). Journaled serving is the only caller: without a
    /// journal a fallback would silently un-serve the last request.
    ///
    /// # Errors
    ///
    /// The primary's [`CheckpointError`] when no `.prev` generation
    /// exists or it is unreadable too.
    pub fn load_with_fallback_on(
        fs: &dyn Vfs,
        path: &Path,
    ) -> Result<(Self, Option<CheckpointError>), CheckpointError> {
        let primary_err = match Self::load_on(fs, path) {
            Ok(ckpt) => return Ok((ckpt, None)),
            Err(e) => e,
        };
        match Self::load_on(fs, &Self::prev_path(path)) {
            Ok(ckpt) => Ok((ckpt, Some(primary_err))),
            // The fallback's own error is strictly less interesting
            // than the primary's; report the latter.
            Err(_) => Err(primary_err),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::{partition_iid, SyntheticDataset};
    use qd_fed::Federation;
    use qd_nn::{Mlp, Module};
    use qd_tensor::rng::Rng;
    use qd_unlearn::{UnlearnRequest, UnlearningMethod};
    use std::sync::Arc;

    fn trained() -> (Federation, QuickDrop, Rng) {
        let mut rng = Rng::seed_from(0);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let data = SyntheticDataset::Digits.generate(150, &mut rng);
        let parts = partition_iid(data.len(), 2, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model, clients, &mut rng);
        let (qd, _) = QuickDrop::train(&mut fed, QuickDropConfig::scaled_test(), &mut rng);
        (fed, qd, rng)
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let (fed, qd, _) = trained();
        let ckpt = Checkpoint::capture(fed.global(), &qd);
        let dir = std::env::temp_dir().join("qd_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("deployment.json");
        ckpt.save(&path).unwrap();
        let restored = Checkpoint::load(&path).unwrap();
        let (params, qd2) = restored.restore().unwrap();
        for (a, b) in params.iter().zip(fed.global()) {
            assert_eq!(a.data(), b.data());
        }
        assert_eq!(qd2.synthetic_sets().len(), qd.synthetic_sets().len());
        for (s1, s2) in qd2.synthetic_sets().iter().zip(qd.synthetic_sets()) {
            assert_eq!(s1, s2);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restored_system_serves_requests_identically() {
        let (mut fed_a, mut qd_a, _) = trained();
        let ckpt = Checkpoint::capture(fed_a.global(), &qd_a);
        let (params_b, mut qd_b) = ckpt.restore().unwrap();

        let mut rng_a = Rng::seed_from(99);
        qd_a.unlearn(&mut fed_a, UnlearnRequest::Class(2), &mut rng_a);

        let model = fed_a.model().clone();
        let clients: Vec<_> = (0..fed_a.n_clients())
            .map(|i| fed_a.client_data(i).clone())
            .collect();
        let mut fed_b = Federation::with_params(model, clients, params_b);
        let mut rng_b = Rng::seed_from(99);
        qd_b.unlearn(&mut fed_b, UnlearnRequest::Class(2), &mut rng_b);

        for (a, b) in fed_a.global().iter().zip(fed_b.global()) {
            assert_eq!(a.data(), b.data(), "restored system diverged");
        }
    }

    fn load_error(name: &str, contents: &[u8]) -> CheckpointError {
        let dir = std::env::temp_dir().join("qd_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        let err = Checkpoint::load(&path).expect_err("bad checkpoint must not load");
        std::fs::remove_file(&path).ok();
        err
    }

    /// The file image `save` writes for `ckpt`.
    fn image(ckpt: &Checkpoint) -> Vec<u8> {
        sealed(&ckpt.to_value())
    }

    /// A well-sealed file whose payload is the frame of `value` — what a
    /// build with a different idea of a checkpoint would write.
    fn sealed(value: &serde::Value) -> Vec<u8> {
        sealed_bytes(&frame::encode(value))
    }

    fn sealed_bytes(payload: &[u8]) -> Vec<u8> {
        let mut bytes = CHECKPOINT_MAGIC.to_vec();
        bytes.extend(frame::seal(payload).unwrap());
        bytes
    }

    #[test]
    fn corrupt_and_mismatched_files_give_descriptive_errors() {
        let (fed, qd, _) = trained();
        let good = image(&Checkpoint::capture(fed.global(), &qd));
        let version = |v| serde::Value::Map(vec![("version".into(), v)]);
        let mut bad_crc = good.clone();
        *bad_crc.last_mut().unwrap() ^= 1;
        let mut trailing = good.clone();
        trailing.push(0);
        let cases: [(&str, Vec<u8>, &str); 10] = [
            ("garbage.json", b"not json {{{".to_vec(), "no QDC4 magic"),
            ("empty.json", Vec::new(), "no QDC4 magic"),
            (
                "header.json",
                good[..9].to_vec(),
                "envelope cut short after 4 byte(s)",
            ),
            (
                "truncated.json",
                good[..good.len() / 2].to_vec(),
                "envelope cut short",
            ),
            ("trailing.json", trailing, "stray bytes after the payload"),
            ("bad_crc.json", bad_crc, "CRC mismatch"),
            ("not_a_frame.json", sealed_bytes(b"abc"), "malformed frame"),
            (
                "no_version.json",
                sealed(&serde::Value::Map(Vec::new())),
                "missing field `version`",
            ),
            (
                "bool_version.json",
                sealed(&version(serde::Value::Bool(true))),
                "no usable version: expected unsigned integer",
            ),
            (
                "hollow_v4.json",
                sealed(&version(serde::Value::U64(4))),
                "malformed version-4 payload",
            ),
        ];
        for (name, contents, needle) in cases {
            let err = load_error(name, &contents);
            assert!(
                matches!(err, CheckpointError::Format { .. }),
                "{name}: {err} should be a Format error"
            );
            // The io::Error conversion (used by `?` in io contexts)
            // keeps the InvalidData kind and the full message.
            let as_io: std::io::Error = load_error(name, &contents).into();
            assert_eq!(as_io.kind(), std::io::ErrorKind::InvalidData, "{name}");
            let msg = err.to_string();
            assert!(
                msg.contains(needle),
                "{name}: {msg:?} should mention {needle:?}"
            );
            assert!(msg.contains(name), "{name}: {msg:?} should name the file");
        }
    }

    #[test]
    fn other_format_versions_are_refused_by_number() {
        let (fed, qd, _) = trained();
        let mut future = Checkpoint::capture(fed.global(), &qd);
        future.version = 999;
        let v2_json = {
            let mut v2 = future.clone();
            v2.version = 2;
            serde_json::to_string(&v2).unwrap().into_bytes()
        };
        // A version-3 body sealed under today's magic is refused by its
        // number too: the body, not the magic, says what it holds.
        let mut v3 = future.clone();
        v3.version = 3;
        let cases = [
            ("future.json", image(&future), 999),
            ("v3_body.json", image(&v3), 3),
            ("v2.json", v2_json, 2),
            ("v1.json", b"{\"version\": 1}".to_vec(), 1),
        ];
        for (name, contents, expected) in cases {
            let err = load_error(name, &contents);
            let msg = err.to_string();
            let CheckpointError::UnsupportedVersion { path, version } = err else {
                panic!("{name}: {msg} should be UnsupportedVersion");
            };
            assert_eq!(version, expected, "{name}");
            assert!(path.ends_with(name) && msg.contains(name), "{msg}");
            assert!(msg.contains(&format!("version {expected} is not supported")));
        }
    }

    /// A bit flipped anywhere in a saved checkpoint must be *seen*: the
    /// primary refuses with a `Format` error and the `.prev` generation
    /// stands in. As JSON text (format version 2) a flip inside a digit
    /// loaded silently as a different model.
    #[test]
    fn a_bit_flip_at_any_byte_falls_back_to_the_previous_generation() {
        let (fed, qd, _) = trained();
        // Every field populated, trimmed to ~12 KB so stride 1 stays
        // cheap: the bias, one client's synthetic set, no real samples.
        let mut ckpt = Checkpoint::capture(fed.global(), &qd);
        ckpt.global.remove(0);
        ckpt.synthetic.truncate(1);
        ckpt.recovery_real = vec![ckpt.recovery_real[0].empty_like()];
        let fs = crate::FaultFs::new();
        let path = Path::new("deploy.json");
        ckpt.save_on(&fs, path).unwrap();
        // A second generation that differs from the first in one weight.
        let prev_bits = ckpt.global[0].data()[0].to_bits();
        ckpt.global[0].data_mut()[0] += 1.0;
        ckpt.save_on(&fs, path).unwrap();
        let (clean, lost) = Checkpoint::load_with_fallback_on(&fs, path).unwrap();
        assert!(lost.is_none());
        assert_ne!(clean.global[0].data()[0].to_bits(), prev_bits);

        let len = fs.file(path).expect("primary exists").len();
        for at in 0..len {
            let bit = 1u8 << (at % 8);
            assert!(fs.corrupt(path, at, bit));
            let (ckpt, lost) = Checkpoint::load_with_fallback_on(&fs, path)
                .unwrap_or_else(|e| panic!("flip at byte {at}: no fallback: {e}"));
            let lost = lost.unwrap_or_else(|| panic!("flip at byte {at} of {len} loaded silently"));
            assert!(
                matches!(&lost, CheckpointError::Format { path: p, .. } if p == path),
                "flip at byte {at}: {lost}"
            );
            assert_eq!(ckpt.global[0].data()[0].to_bits(), prev_bits, "byte {at}");
            assert!(fs.corrupt(path, at, bit), "flip back");
        }
    }

    #[test]
    fn save_is_atomic_and_leaves_no_temp_file() {
        let (fed, qd, _) = trained();
        let ckpt = Checkpoint::capture(fed.global(), &qd);
        let dir = std::env::temp_dir().join("qd_ckpt_atomic_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.json");
        // Overwriting an existing (stale) checkpoint must go through the
        // rename too.
        std::fs::write(&path, "stale").unwrap();
        ckpt.save(&path).unwrap();
        assert!(Checkpoint::load(&path).is_ok());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_train_checkpoint_round_trips_and_refuses_restore() {
        let (fed, qd, _) = trained();
        let mid = MidPhase {
            phase: qd.config().train_phase,
            cursor: ResumeState {
                next_round: 2,
                rng: Rng::seed_from(3).state(),
                guard: qd_fed::GuardState::default(),
                health: qd_fed::HealthState::default(),
            },
            trainer_synthetic: vec![None, Some(qd.synthetic_sets()[0].clone())],
            trainer_round_robin: vec![0, 4],
        };
        let ckpt = Checkpoint::capture_mid_train(fed.global(), qd.config(), mid);
        let dir = std::env::temp_dir().join("qd_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid_train.json");
        ckpt.save(&path).unwrap();
        let back = Checkpoint::load(&path).unwrap();
        let mid = back.mid_phase().expect("mid-phase cursor survives disk");
        assert_eq!(mid.cursor.next_round, 2);
        assert_eq!(mid.trainer_round_robin, vec![0, 4]);
        assert!(mid.trainer_synthetic[0].is_none());
        assert_eq!(
            mid.trainer_synthetic[1].as_ref(),
            Some(&qd.synthetic_sets()[0])
        );
        let refused = back.restore();
        assert!(
            matches!(refused, Err(CheckpointError::MidTrainRestore)),
            "restore() must reject mid-train state"
        );
        std::fs::remove_file(&path).ok();
    }
}
