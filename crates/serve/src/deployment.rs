//! A journaled deployment, opened and closed by one piece of code.
//!
//! `quickdrop-cli serve`, `unlearn`/`relearn --journal` and every
//! `qd-chaos` lifetime run the same sequence: [`Deployment::open`] loads
//! the checkpoint (the primary, else its `.prev` generation), refuses
//! samples of a geometry it was not trained on, restores it and opens
//! the request journal beside it; the caller serves through the public
//! fields ([`crate::run_service_isolated`],
//! [`QuickDrop::resume_requests`], `serve_journaled`,
//! `relearn_journaled`); [`Deployment::close`] saves what changed. A run
//! that changed nothing writes nothing: the capture is compared with the
//! primary as it was loaded, and the stats with the bytes the stats file
//! holds, read through the same [`Vfs`] — so a fault-injecting `Vfs`
//! drives the skip and the save alike.

use crate::{ServeStats, ServiceError};
use qd_core::{Checkpoint, CheckpointError, Module, QuickDrop, RequestJournal, ServeError, Vfs};
use qd_fed::Federation;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The samples a deployment's model reads: `(channels, side, classes)`
/// — planes of `side` × `side`, labelled in `classes` classes.
pub type Geometry = (usize, usize, usize);

/// Refuses `ckpt`, read from `path`, unless its synthetic sets (the
/// deployment's samples) are of `geometry`. A checkpoint without
/// synthetic sets passes: restoring it says what is wrong.
///
/// # Errors
///
/// `has <geometry>, but the deployment in <path> was trained on <the
/// checkpoint's>`.
pub fn check_geometry(geometry: Geometry, ckpt: &Checkpoint, path: &Path) -> Result<(), String> {
    let Some(set) = ckpt.synthetic_sets().first() else {
        return Ok(());
    };
    let describe = |(c, h, w): (usize, usize, usize), classes: usize| {
        format!("{c}×{h}×{w} samples in {classes} classes")
    };
    let (channels, side, classes) = geometry;
    let given = describe((channels, side, side), classes);
    let trained = describe(set.sample_dims(), set.classes());
    if given == trained {
        return Ok(());
    }
    let path = path.display();
    Err(format!(
        "has {given}, but the deployment in {path} was trained on {trained}"
    ))
}

/// An open journaled deployment: the restored system, its serving
/// federation and its request journal, on one [`Vfs`].
pub struct Deployment {
    /// The restored system; the journal's tail overrides its model, RNG
    /// stream and marks once a serving call or
    /// [`QuickDrop::restore_tail`] has read it.
    pub qd: QuickDrop,
    /// The serving federation over the checkpoint's model.
    pub fed: Federation,
    /// The request journal, opened (and its torn tail repaired).
    pub journal: RequestJournal,
    /// Why the primary checkpoint was unreadable, when the deployment
    /// opened its `.prev` generation instead.
    pub fell_back: Option<CheckpointError>,
    vfs: Arc<dyn Vfs>,
    ckpt: PathBuf,
    /// The primary checkpoint as loaded (`None` after a fallback): what
    /// [`Deployment::close`] leaves in place when nothing changed.
    primary: Option<Checkpoint>,
}

/// What [`Deployment::close`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed {
    /// The checkpoint was saved (else `out` already held its bits).
    pub ckpt_written: bool,
    /// The stats were written (else their file already held the bytes,
    /// or there were none to write).
    pub stats_written: bool,
}

impl Deployment {
    /// Opens the deployment checkpointed at `ckpt`, with its journal at
    /// `journal`, for samples of `geometry` read by `model`: the primary
    /// checkpoint, else its `.prev` generation
    /// ([`Checkpoint::load_with_fallback_on`]; the journal rolls it
    /// forward), then the restore, the serving federation and the
    /// journal open, in that `Vfs` order. Nothing is written but a torn
    /// journal tail's repair and the sweep of stale `.tmp` files.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Geometry`] for a checkpoint trained on samples of
    /// another geometry; [`ServiceError::Serve`] for a checkpoint neither
    /// generation of which loads, a mid-training or synthetic-set-less
    /// one, or a journal that does not open.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        ckpt: &Path,
        journal: &Path,
        geometry: Geometry,
        model: Arc<dyn Module>,
    ) -> Result<Deployment, ServiceError> {
        let loaded = Checkpoint::load_with_fallback_on(&*vfs, ckpt).map_err(ServeError::from);
        let (loaded, fell_back) = loaded?;
        check_geometry(geometry, &loaded, ckpt).map_err(ServiceError::Geometry)?;
        let primary = fell_back.is_none().then(|| loaded.clone());
        let (global, qd) = loaded.restore().map_err(ServeError::from)?;
        let fed = qd
            .serving_federation(model, global)
            .map_err(ServeError::from)?;
        let journal =
            RequestJournal::open_on(Arc::clone(&vfs), journal).map_err(ServeError::from)?;
        Ok(Deployment {
            qd,
            fed,
            journal,
            fell_back,
            vfs,
            ckpt: ckpt.to_path_buf(),
            primary,
        })
    }

    /// Saves the deployment to `out` and, with `stats`, writes the stats
    /// file — each only where its bytes change. The checkpoint is saved
    /// unless `out` is the primary this deployment opened and holds the
    /// capture to the bit; the stats are written unless their file, read
    /// through the deployment's `Vfs`, holds their bytes already.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the save or the stats write fails.
    pub fn close(
        &self,
        out: &Path,
        stats: Option<(&Path, &ServeStats)>,
    ) -> Result<Closed, ServeError> {
        let captured = Checkpoint::capture(self.fed.global(), &self.qd);
        let unchanged = out == self.ckpt
            && (self.primary.as_ref()).is_some_and(|loaded| loaded.same_bits(&captured));
        if !unchanged {
            captured.save_on(&*self.vfs, out)?;
        }
        let mut stats_written = false;
        if let Some((path, stats)) = stats {
            let bytes = stats.json_bytes()?;
            stats_written = self.vfs.read(path).map_or(true, |old| old != bytes);
            if stats_written {
                let written = qd_core::vfs::atomic_write(&*self.vfs, path, &bytes);
                written.map_err(std::io::Error::from)?;
            }
        }
        Ok(Closed {
            ckpt_written: !unchanged,
            stats_written,
        })
    }
}
