//! Per-class synthetic sample storage for one client.

use qd_data::Dataset;
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use serde::{Deserialize, Serialize, Value};

/// Leading (sample-count) dimension of a tensor, zero for rank-0.
pub(crate) fn rows(t: &Tensor) -> usize {
    t.dims().first().copied().unwrap_or(0)
}

/// One client's per-class synthetic dataset `Sᵢ = ∪_c Sᵢᶜ`.
///
/// Samples are held as one `(m_c, C, H, W)` tensor per class so the
/// matching step can treat a whole class as a single differentiable leaf.
/// Classes the client does not own have no synthetic samples — this is
/// what lets QuickDrop serve class-level requests with only the owning
/// clients participating.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SyntheticSet {
    per_class: Vec<Option<Tensor>>,
    channels: usize,
    height: usize,
    width: usize,
}

impl SyntheticSet {
    /// Initializes `⌈|Dᶜ| / scale⌉` synthetic samples per owned class by
    /// copying random real samples (the paper found real-sample init more
    /// effective than Gaussian noise; see the `ablation_init` bench).
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn init_from_real(data: &Dataset, scale: usize, rng: &mut Rng) -> Self {
        assert!(scale > 0, "scale parameter must be positive");
        let (c, h, w) = data.sample_dims();
        let mut per_class = vec![None; data.classes()];
        for (class, slot) in per_class.iter_mut().enumerate() {
            let members = data.indices_of_class(class);
            if members.is_empty() {
                continue;
            }
            let m = members.len().div_ceil(scale);
            let picks = rng.choose_indices(members.len(), m);
            let mut buf = Vec::with_capacity(m * c * h * w);
            for &p in &picks {
                buf.extend_from_slice(data.image(members[p]));
            }
            *slot = Some(Tensor::from_vec(buf, &[m, c, h, w]));
        }
        SyntheticSet {
            per_class,
            channels: c,
            height: h,
            width: w,
        }
    }

    /// Initializes from standard-normal noise with the same per-class
    /// counts as [`SyntheticSet::init_from_real`] (ablation baseline).
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn init_gaussian(data: &Dataset, scale: usize, rng: &mut Rng) -> Self {
        assert!(scale > 0, "scale parameter must be positive");
        let (c, h, w) = data.sample_dims();
        let mut per_class = vec![None; data.classes()];
        for (class, slot) in per_class.iter_mut().enumerate() {
            let members = data.indices_of_class(class);
            if members.is_empty() {
                continue;
            }
            let m = members.len().div_ceil(scale);
            *slot = Some(Tensor::randn(&[m, c, h, w], rng));
        }
        SyntheticSet {
            per_class,
            channels: c,
            height: h,
            width: w,
        }
    }

    /// `(channels, height, width)` of each synthetic sample.
    pub fn sample_dims(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Number of classes tracked (owned or not).
    pub fn classes(&self) -> usize {
        self.per_class.len()
    }

    /// Total number of synthetic samples across classes.
    pub fn len(&self) -> usize {
        self.per_class.iter().flatten().map(rows).sum()
    }

    /// Returns `true` if no class has synthetic samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Classes for which this set holds samples.
    pub fn owned_classes(&self) -> Vec<usize> {
        (0..self.per_class.len())
            .filter(|&c| self.per_class[c].is_some())
            .collect()
    }

    /// The synthetic samples of `class`, if any, as `(m, C, H, W)`.
    pub fn class_samples(&self, class: usize) -> Option<&Tensor> {
        self.per_class.get(class).and_then(Option::as_ref)
    }

    /// Replaces the samples of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range or the tensor geometry differs
    /// from the set's sample dims.
    pub fn set_class_samples(&mut self, class: usize, samples: Tensor) {
        assert!(class < self.per_class.len(), "class out of range");
        let problem = Self::misfit(&samples, self.sample_dims());
        assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        self.per_class[class] = Some(samples);
    }

    /// Why `samples` are not `(m, C, H, W)` samples at `(C, H, W)`, if
    /// they are not: [`SyntheticSet::set_class_samples`]'s check, shared
    /// with sets read back from disk.
    fn misfit(
        samples: &Tensor,
        (channels, height, width): (usize, usize, usize),
    ) -> Option<String> {
        (samples.dims().get(1..) != Some(&[channels, height, width][..])).then(|| {
            format!(
                "sample geometry mismatch: shape {}, not (m, {channels}, {height}, {width})",
                samples.shape()
            )
        })
    }

    /// Materializes the whole set as a labelled [`Dataset`].
    pub fn to_dataset(&self) -> Dataset {
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for (class, samples) in self.per_class.iter().enumerate() {
            if let Some(t) = samples {
                images.extend_from_slice(t.data());
                labels.extend(std::iter::repeat_n(class, rows(t)));
            }
        }
        Dataset::new(
            images,
            labels,
            self.per_class.len(),
            self.channels,
            self.height,
            self.width,
        )
    }

    /// Materializes only `class` as a labelled [`Dataset`] (empty if not
    /// owned).
    pub fn class_dataset(&self, class: usize) -> Dataset {
        match self.class_samples(class) {
            Some(t) => {
                let labels = vec![class; rows(t)];
                Dataset::new(
                    t.data().to_vec(),
                    labels,
                    self.per_class.len(),
                    self.channels,
                    self.height,
                    self.width,
                )
            }
            None => Dataset::new(
                Vec::new(),
                Vec::new(),
                self.per_class.len(),
                self.channels,
                self.height,
                self.width,
            ),
        }
    }
}

// Read back through the geometry `set_class_samples` asserts: every
// stored class tensor is `(m, C, H, W)` at the set's sample dims, or the
// file is malformed.
impl Deserialize for SyntheticSet {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Self::from_owned(v.clone())
    }

    fn from_owned(mut v: Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(v: &mut Value, name: &str) -> Result<T, serde::DeError> {
            T::from_owned(v.take_field("SyntheticSet", name)?)
        }
        let per_class: Vec<Option<Tensor>> = field(&mut v, "per_class")?;
        let (channels, height, width) = (
            field(&mut v, "channels")?,
            field(&mut v, "height")?,
            field(&mut v, "width")?,
        );
        for (class, t) in per_class.iter().enumerate() {
            let problem = t
                .as_ref()
                .and_then(|t| Self::misfit(t, (channels, height, width)));
            if let Some(problem) = problem {
                return Err(serde::DeError::new(format!("class {class}: {problem}")));
            }
        }
        Ok(SyntheticSet {
            per_class,
            channels,
            height,
            width,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;

    fn data() -> Dataset {
        SyntheticDataset::Digits.generate(250, &mut Rng::seed_from(0))
    }

    #[test]
    fn init_sizes_follow_ceil_rule() {
        let d = data();
        let syn = SyntheticSet::init_from_real(&d, 100, &mut Rng::seed_from(1));
        for class in 0..10 {
            let want = d.indices_of_class(class).len().div_ceil(100);
            let got = syn.class_samples(class).map_or(0, |t| t.dims()[0]);
            assert_eq!(got, want, "class {class}");
        }
    }

    #[test]
    fn scale_one_copies_everything() {
        let d = data();
        let syn = SyntheticSet::init_from_real(&d, 1, &mut Rng::seed_from(1));
        assert_eq!(syn.len(), d.len());
    }

    #[test]
    fn real_init_draws_actual_samples() {
        let d = data();
        let syn = SyntheticSet::init_from_real(&d, 50, &mut Rng::seed_from(2));
        let class = syn.owned_classes()[0];
        let t = syn.class_samples(class).unwrap();
        let first = &t.data()[..d.sample_len()];
        let found = d
            .indices_of_class(class)
            .iter()
            .any(|&i| d.image(i) == first);
        assert!(found, "synthetic sample should be a copied real sample");
    }

    #[test]
    fn to_dataset_round_trips_counts() {
        let d = data();
        let syn = SyntheticSet::init_from_real(&d, 100, &mut Rng::seed_from(3));
        let ds = syn.to_dataset();
        assert_eq!(ds.len(), syn.len());
        assert_eq!(ds.classes(), 10);
        for class in 0..10 {
            assert_eq!(
                ds.indices_of_class(class).len(),
                syn.class_samples(class).map_or(0, |t| t.dims()[0])
            );
        }
    }

    #[test]
    fn class_dataset_holds_exactly_that_class() {
        let d = data();
        let syn = SyntheticSet::init_from_real(&d, 50, &mut Rng::seed_from(4));
        let f = syn.class_dataset(3);
        assert_eq!(f.len(), syn.class_samples(3).map_or(0, |t| t.dims()[0]));
        assert!(f.labels().iter().all(|&y| y == 3));
    }

    #[test]
    fn stored_sets_refuse_a_class_tensor_of_another_geometry() {
        let syn = SyntheticSet::init_from_real(&data(), 50, &mut Rng::seed_from(5));
        let v = syn.to_value();
        assert_eq!(SyntheticSet::from_value(&v).unwrap(), syn);
        let Value::Map(mut entries) = v else {
            panic!("a synthetic set serializes as a map");
        };
        for (k, slot) in &mut entries {
            if k == "channels" {
                *slot = Value::U64(3);
            }
        }
        let err = SyntheticSet::from_value(&Value::Map(entries)).unwrap_err();
        assert!(err.to_string().contains("not (m, 3, 16, 16)"), "{err}");
    }

    #[test]
    fn gaussian_init_matches_counts_but_not_pixels() {
        let d = data();
        let real = SyntheticSet::init_from_real(&d, 100, &mut Rng::seed_from(6));
        let gauss = SyntheticSet::init_gaussian(&d, 100, &mut Rng::seed_from(6));
        assert_eq!(real.len(), gauss.len());
    }
}
