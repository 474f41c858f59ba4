//! Recovery-time data augmentation: mixing real samples into the
//! synthetic set (Section 3.3.1).

use crate::SyntheticSet;
use qd_data::Dataset;
use qd_tensor::rng::Rng;

/// Draws the real half of a recovery set: randomly selected real samples
/// to mix into the synthetic set at a 1:1 ratio per class (the paper's
/// setting: the mixed set is ~2% of the original volume). The recovery
/// set is `syn.to_dataset()` followed by the returned samples; the
/// synthetic half is not copied here, so a deployment stores it once.
///
/// Classes without synthetic samples contribute nothing; classes with `m`
/// synthetic samples receive `min(m, |Dᶜ|)` random real samples.
///
/// # Examples
///
/// ```
/// use qd_data::SyntheticDataset;
/// use qd_distill::{augment_with_real, SyntheticSet};
/// use qd_tensor::rng::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let data = SyntheticDataset::Digits.generate(300, &mut rng);
/// let syn = SyntheticSet::init_from_real(&data, 100, &mut rng);
/// let real = augment_with_real(&syn, &data, &mut rng);
/// assert!(!real.is_empty() && real.len() <= syn.len());
/// ```
pub fn augment_with_real(syn: &SyntheticSet, real: &Dataset, rng: &mut Rng) -> Dataset {
    let mut picked = real.empty_like();
    for class in syn.owned_classes() {
        let m = syn.class_samples(class).map_or(0, crate::synset::rows);
        let members = real.indices_of_class(class);
        if members.is_empty() || m == 0 {
            continue;
        }
        let take = m.min(members.len());
        let picks = rng.choose_indices(members.len(), take);
        for p in picks {
            picked.push(real.image(members[p]), class);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;

    #[test]
    fn augmentation_draws_one_real_sample_per_synthetic_one() {
        let mut rng = Rng::seed_from(1);
        let data = SyntheticDataset::Digits.generate(400, &mut rng);
        let syn = SyntheticSet::init_from_real(&data, 50, &mut rng);
        let real = augment_with_real(&syn, &data, &mut rng);
        for class in syn.owned_classes() {
            let m = syn.class_samples(class).unwrap().dims()[0];
            assert_eq!(real.indices_of_class(class).len(), m);
        }
    }

    #[test]
    fn augmentation_keeps_volume_small() {
        let mut rng = Rng::seed_from(2);
        let data = SyntheticDataset::Cifar.generate(500, &mut rng);
        let syn = SyntheticSet::init_from_real(&data, 100, &mut rng);
        let real = augment_with_real(&syn, &data, &mut rng);
        // ~2% of the original volume, as claimed in Section 3.3.1.
        assert!(syn.len() + real.len() <= data.len() / 10);
    }
}
