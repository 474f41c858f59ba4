//! Output checks: what the harness reads back from the files the CLI
//! wrote, to decide whether an operation succeeded. Nothing here parses
//! the CLI's stdout.

use qd_core::{Checkpoint, QuickDrop, RequestJournal, RequestState};
use qd_data::{Dataset, SyntheticDataset};
use qd_nn::{params_have_non_finite, ConvNet};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::UnlearnRequest;
use std::path::Path;

/// Operations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failed one is noted and yields `None`.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        result
            .map_err(|why| self.fail(1, format!("{what}: {why}")))
            .ok()
    }

    /// Marks `ops` already-counted operations failed for the reason `why`.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }
}

/// The dataset every workload trains and serves on.
pub const DATASET: SyntheticDataset = SyntheticDataset::Cifar;

/// The architecture the CLI deploys for [`DATASET`].
pub fn model() -> ConvNet {
    ConvNet::scaled_default(DATASET.channels(), DATASET.classes())
}

/// The test set a CLI request invoked with `--seed seed` evaluates on.
pub fn test_set(samples: usize, seed: u64) -> Dataset {
    DATASET.generate(samples, &mut Rng::seed_from(seed + 1))
}

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// Digest of the parameters' exact bits: equal digests mean the
/// arithmetic is untouched, unequal ones that float order changed.
pub fn params_digest(params: &[Tensor]) -> u64 {
    params.iter().fold(FNV_SEED, |h, t| {
        t.data()
            .iter()
            .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
    })
}

/// Loads the deployment at `ckpt` and checks it is servable: it parses,
/// restores, holds only finite parameters and one synthetic set per
/// client.
pub fn deployment(ckpt: &Path, clients: usize) -> Result<(Vec<Tensor>, QuickDrop), String> {
    let loaded = Checkpoint::load(ckpt).map_err(|e| e.to_string())?;
    let (params, qd) = loaded.restore().map_err(|e| e.to_string())?;
    if params_have_non_finite(&params) {
        return Err(format!("{}: non-finite parameters", ckpt.display()));
    }
    let sets = qd.synthetic_sets().len();
    if sets != clients {
        return Err(format!(
            "{}: {sets} synthetic sets for {clients} clients",
            ckpt.display()
        ));
    }
    Ok((params, qd))
}

/// Checks the journal next to `ckpt` ends with `request` in `state`.
pub fn journal_ends_with(
    ckpt: &Path,
    request: UnlearnRequest,
    state: RequestState,
) -> Result<(), String> {
    let path = RequestJournal::path_for_checkpoint(ckpt);
    let journal = RequestJournal::open(&path).map_err(|e| e.to_string())?;
    match journal.last() {
        Some(last) if last.request == request && last.state == state => Ok(()),
        Some(last) => Err(format!(
            "journal ends with {} {}, expected {request} {state}",
            last.request, last.state
        )),
        None => Err("journal is empty".to_string()),
    }
}

/// Digest of every journal file (marker and segments) next to `ckpt`:
/// names, lengths and bytes, in name order.
pub fn journal_digest(ckpt: &Path) -> Result<u64, String> {
    let journal = RequestJournal::path_for_checkpoint(ckpt);
    let prefix = journal
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("journal path has no file name")?
        .to_string();
    let dir = ckpt.parent().ok_or("checkpoint path has no directory")?;
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(&prefix))
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no journal files next to {}", ckpt.display()));
    }
    let mut h = FNV_SEED;
    for f in files {
        let bytes = std::fs::read(&f).map_err(|e| e.to_string())?;
        h = fnv1a(h, f.file_name().map_or(&[][..], |n| n.as_encoded_bytes()));
        h = fnv1a(h, &(bytes.len() as u64).to_le_bytes());
        h = fnv1a(h, &bytes);
    }
    Ok(h)
}

/// The unsigned integer stored under top-level `key` of the flat JSON
/// object in `text` (the `serve --stats-out` file).
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_bit_level_differences() {
        let a = vec![Tensor::from_vec(vec![0.0, 1.5], &[2])];
        let b = vec![Tensor::from_vec(vec![-0.0, 1.5], &[2])];
        assert_eq!(params_digest(&a), params_digest(&a.clone()));
        assert_ne!(
            params_digest(&a),
            params_digest(&b),
            "0.0 and -0.0 differ in bits"
        );
    }

    #[test]
    fn json_u64_reads_flat_stats() {
        let text = r#"{"tenants":2,"offered":32,"served": 31,"coalesce_ratio":1.1}"#;
        assert_eq!(json_u64(text, "offered"), Some(32));
        assert_eq!(json_u64(text, "served"), Some(31));
        assert_eq!(json_u64(text, "missing"), None);
        assert_eq!(json_u64(text, "coalesce_ratio"), Some(1), "integers only");
    }

    #[test]
    fn test_set_matches_the_cli_recipe() {
        let a = test_set(40, 7);
        let b = DATASET.generate(40, &mut Rng::seed_from(8));
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.image(3), b.image(3));
    }
}
