//! The labelled image dataset container.

use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use serde::{Deserialize, Serialize, Value};

/// An in-memory labelled image dataset with CHW samples.
///
/// Samples are stored contiguously in one buffer; a per-class index is
/// built lazily on construction so that class-level operations (the heart
/// of class-level unlearning and per-class distillation) are cheap.
///
/// # Examples
///
/// ```
/// use qd_data::Dataset;
///
/// let images = vec![0.0; 2 * 4]; // two 1x2x2 images
/// let ds = Dataset::new(images, vec![0, 1], 2, 1, 2, 2);
/// assert_eq!(ds.len(), 2);
/// assert_eq!(ds.indices_of_class(1), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    images: Vec<f32>,
    labels: Vec<usize>,
    channels: usize,
    height: usize,
    width: usize,
    classes: usize,
    by_class: Vec<Vec<usize>>,
}

impl Dataset {
    /// Builds a dataset from a flat image buffer (`n * c * h * w` floats,
    /// row-major per sample) and integer labels.
    ///
    /// # Panics
    ///
    /// Panics if the buffer size disagrees with `labels.len() * c * h * w`
    /// or any label is `>= classes`.
    pub fn new(
        images: Vec<f32>,
        labels: Vec<usize>,
        classes: usize,
        channels: usize,
        height: usize,
        width: usize,
    ) -> Self {
        let dims = (channels, height, width);
        let problem = Self::inconsistency(&images, &labels, classes, dims);
        assert!(problem.is_none(), "{}", problem.unwrap_or_default());
        Self::indexed(images, labels, classes, dims)
    }

    /// Why `images` and `labels` do not make a dataset of `classes`
    /// classes and `(C, H, W)` samples, if they do not: [`Dataset::new`]'s
    /// checks, shared with datasets read back from disk.
    fn inconsistency(
        images: &[f32],
        labels: &[usize],
        classes: usize,
        (channels, height, width): (usize, usize, usize),
    ) -> Option<String> {
        let sample = channels
            .checked_mul(height)
            .and_then(|n| n.checked_mul(width));
        if sample.and_then(|s| labels.len().checked_mul(s)) != Some(images.len()) {
            return Some(format!(
                "image buffer {} does not hold {} samples of {channels}x{height}x{width} floats",
                images.len(),
                labels.len(),
            ));
        }
        (labels.iter().find(|&&y| y >= classes))
            .map(|y| format!("label {y} out of range for {classes} classes"))
    }

    /// A dataset over parts [`Dataset::inconsistency`] passed, its class
    /// index built from the labels.
    fn indexed(
        images: Vec<f32>,
        labels: Vec<usize>,
        classes: usize,
        (channels, height, width): (usize, usize, usize),
    ) -> Self {
        let mut by_class = vec![Vec::new(); classes];
        for (i, &y) in labels.iter().enumerate() {
            by_class[y].push(i);
        }
        Dataset {
            images,
            labels,
            channels,
            height,
            width,
            classes,
            by_class,
        }
    }

    /// An empty dataset with the same sample geometry.
    pub fn empty_like(&self) -> Dataset {
        Dataset::new(
            Vec::new(),
            Vec::new(),
            self.classes,
            self.channels,
            self.height,
            self.width,
        )
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// `(channels, height, width)` of each sample.
    pub fn sample_dims(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Floats per sample.
    pub fn sample_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Number of label classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// All labels, in sample order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The pixels of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn image(&self, i: usize) -> &[f32] {
        let s = self.sample_len();
        &self.images[i * s..(i + 1) * s]
    }

    /// The label of sample `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Indices of all samples with label `class` (empty slice if none).
    pub fn indices_of_class(&self, class: usize) -> &[usize] {
        self.by_class.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        self.by_class.iter().map(Vec::len).collect()
    }

    /// Materializes the samples at `indices` into an `(n, c, h, w)` tensor
    /// plus their labels.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let s = self.sample_len();
        let mut data = Vec::with_capacity(indices.len() * s);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
        (
            Tensor::from_vec(
                data,
                &[indices.len(), self.channels, self.height, self.width],
            ),
            labels,
        )
    }

    /// The whole dataset as one `(n, c, h, w)` tensor plus labels.
    pub fn all(&self) -> (Tensor, Vec<usize>) {
        let idx: Vec<usize> = (0..self.len()).collect();
        self.batch(&idx)
    }

    /// A new dataset holding only the samples at `indices` (order
    /// preserved, duplicates allowed).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let s = self.sample_len();
        let mut images = Vec::with_capacity(indices.len() * s);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            images.extend_from_slice(self.image(i));
            labels.push(self.labels[i]);
        }
        Dataset::new(
            images,
            labels,
            self.classes,
            self.channels,
            self.height,
            self.width,
        )
    }

    /// A new dataset with all samples of `class` removed.
    pub fn without_class(&self, class: usize) -> Dataset {
        let keep: Vec<usize> = (0..self.len())
            .filter(|&i| self.labels[i] != class)
            .collect();
        self.subset(&keep)
    }

    /// A new dataset with only the samples of `class`.
    pub fn only_class(&self, class: usize) -> Dataset {
        self.subset(self.indices_of_class(class))
    }

    /// Appends every sample of `other`.
    ///
    /// # Panics
    ///
    /// Panics if sample geometry or class count differ.
    pub fn extend(&mut self, other: &Dataset) {
        assert_eq!(self.sample_dims(), other.sample_dims(), "geometry mismatch");
        assert_eq!(self.classes, other.classes, "class-count mismatch");
        let offset = self.len();
        self.images.extend_from_slice(&other.images);
        for (j, &y) in other.labels.iter().enumerate() {
            self.labels.push(y);
            self.by_class[y].push(offset + j);
        }
    }

    /// Adds one sample.
    ///
    /// # Panics
    ///
    /// Panics if the pixel count or label is out of range.
    pub fn push(&mut self, pixels: &[f32], label: usize) {
        assert_eq!(pixels.len(), self.sample_len(), "pixel count mismatch");
        assert!(label < self.classes, "label out of range");
        let next = self.len();
        self.by_class[label].push(next);
        self.images.extend_from_slice(pixels);
        self.labels.push(label);
    }

    /// Draws a random mini-batch of up to `size` distinct samples.
    ///
    /// If the dataset holds fewer than `size` samples the whole dataset is
    /// returned (shuffled).
    pub fn sample_batch(&self, size: usize, rng: &mut Rng) -> (Tensor, Vec<usize>) {
        let n = size.min(self.len());
        let idx = rng.choose_indices(self.len(), n);
        self.batch(&idx)
    }

    /// Splits into `(train, test)` with `test_fraction` of samples held
    /// out, after a seeded shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `test_fraction` is outside `(0, 1)`.
    pub fn split(&self, test_fraction: f32, rng: &mut Rng) -> (Dataset, Dataset) {
        assert!(
            test_fraction > 0.0 && test_fraction < 1.0,
            "test fraction must be in (0, 1)"
        );
        let mut idx: Vec<usize> = (0..self.len()).collect();
        rng.shuffle(&mut idx);
        let n_test = ((self.len() as f32) * test_fraction).round() as usize;
        let (test_idx, train_idx) = idx.split_at(n_test.min(self.len()));
        (self.subset(train_idx), self.subset(test_idx))
    }
}

// The class index is derived state: it is not stored, and a dataset is
// read back through `new`'s checks and rebuilt from the labels — so a
// stored label out of range, or a buffer the labels do not account for,
// is a malformed file rather than a panic at first use.
impl Serialize for Dataset {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("images".to_string(), self.images.to_value()),
            ("labels".to_string(), self.labels.to_value()),
            ("channels".to_string(), self.channels.to_value()),
            ("height".to_string(), self.height.to_value()),
            ("width".to_string(), self.width.to_value()),
            ("classes".to_string(), self.classes.to_value()),
        ])
    }
}

impl Deserialize for Dataset {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        Self::from_owned(v.clone())
    }

    fn from_owned(mut v: Value) -> Result<Self, serde::DeError> {
        fn field<T: Deserialize>(v: &mut Value, name: &str) -> Result<T, serde::DeError> {
            T::from_owned(v.take_field("Dataset", name)?)
        }
        let dims = (
            field(&mut v, "channels")?,
            field(&mut v, "height")?,
            field(&mut v, "width")?,
        );
        let (images, labels, classes): (Vec<f32>, Vec<usize>, usize) = (
            field(&mut v, "images")?,
            field(&mut v, "labels")?,
            field(&mut v, "classes")?,
        );
        match Self::inconsistency(&images, &labels, classes, dims) {
            Some(problem) => Err(serde::DeError::new(problem)),
            None => Ok(Self::indexed(images, labels, classes, dims)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        // Four 1x1x2 samples, labels 0,1,0,2.
        Dataset::new(
            vec![0.0, 0.1, 1.0, 1.1, 2.0, 2.1, 3.0, 3.1],
            vec![0, 1, 0, 2],
            3,
            1,
            1,
            2,
        )
    }

    #[test]
    fn class_index_is_built() {
        let ds = tiny();
        assert_eq!(ds.indices_of_class(0), &[0, 2]);
        assert_eq!(ds.indices_of_class(1), &[1]);
        assert_eq!(ds.indices_of_class(2), &[3]);
        assert_eq!(ds.class_counts(), vec![2, 1, 1]);
    }

    #[test]
    fn batch_materializes_in_order() {
        let ds = tiny();
        let (x, y) = ds.batch(&[3, 0]);
        assert_eq!(x.dims(), &[2, 1, 1, 2]);
        assert_eq!(x.data(), &[3.0, 3.1, 0.0, 0.1]);
        assert_eq!(y, vec![2, 0]);
    }

    #[test]
    fn subset_and_without_class() {
        let ds = tiny();
        let no0 = ds.without_class(0);
        assert_eq!(no0.len(), 2);
        assert_eq!(no0.labels(), &[1, 2]);
        let only0 = ds.only_class(0);
        assert_eq!(only0.len(), 2);
        assert!(only0.labels().iter().all(|&y| y == 0));
    }

    #[test]
    fn push_and_extend_keep_class_index_consistent() {
        let mut ds = tiny();
        ds.push(&[9.0, 9.1], 1);
        assert_eq!(ds.indices_of_class(1), &[1, 4]);
        let other = tiny();
        ds.extend(&other);
        assert_eq!(ds.len(), 9);
        assert_eq!(ds.indices_of_class(0), &[0, 2, 5, 7]);
    }

    #[test]
    fn split_partitions_all_samples() {
        let ds = tiny();
        let (train, test) = ds.split(0.25, &mut Rng::seed_from(0));
        assert_eq!(train.len() + test.len(), ds.len());
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn sample_batch_caps_at_dataset_size() {
        let ds = tiny();
        let (x, y) = ds.sample_batch(100, &mut Rng::seed_from(0));
        assert_eq!(x.dims()[0], 4);
        assert_eq!(y.len(), 4);
    }

    #[test]
    fn stored_datasets_rebuild_their_class_index_and_refuse_bad_parts() {
        let ds = tiny();
        let v = ds.to_value();
        assert!(v.get("by_class").is_none(), "the class index is derived");
        assert_eq!(Dataset::from_value(&v).unwrap(), ds);
        let with = |key: &str, value: Value| {
            let Value::Map(mut entries) = v.clone() else {
                panic!("a dataset serializes as a map");
            };
            for (k, slot) in &mut entries {
                if k == key {
                    *slot = value.clone();
                }
            }
            Dataset::from_value(&Value::Map(entries)).map_err(|e| e.to_string())
        };
        let labels = |ls: &[u64]| Value::Seq(ls.iter().map(|&l| Value::U64(l)).collect());
        let bad_label = with("labels", labels(&[0, 1, 0, 99])).unwrap_err();
        assert!(
            bad_label.contains("label 99 out of range for 3 classes"),
            "{bad_label}"
        );
        let short = with("labels", labels(&[0, 1, 0])).unwrap_err();
        assert!(short.contains("does not hold 3 samples"), "{short}");
        let huge = with("width", Value::U64(u64::MAX)).unwrap_err();
        assert!(huge.contains("does not hold"), "{huge}");
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn new_validates_buffer_size() {
        let _ = Dataset::new(vec![0.0; 3], vec![0], 1, 1, 1, 2);
    }
}
