//! Accuracy and loss metrics.
//!
//! Every metric is a function of the model's logits on the dataset, which
//! `logits` computes by streaming chunks of `EVAL_BATCH` samples through
//! forward-only tapes ([`qd_nn::forward_inference`]), the chunks fanned
//! over [`qd_nn::worker_count`] threads and concatenated in sample order.
//! A sample's logits do not depend on which other samples share its
//! batch, so the results are the same bits for any chunk size and any
//! worker count.

use qd_data::Dataset;
use qd_nn::{fan_out, forward_inference, worker_count, Module};
use qd_tensor::Tensor;

/// Samples per evaluation chunk. 32 is the batch the kernels and the
/// `qd-perf` ledger are tuned at, and a chunk's working set stays in
/// cache: with this constant alone changed from 256, a served request
/// (`op_ms_p50` @ request-stream) measured ≈ 14 % faster and its process
/// peaked at 48 MiB instead of 126 MiB (EXPERIMENTS.md, "PR 16 ledger").
const EVAL_BATCH: usize = 32;

/// The `(n, classes)` logits of `model(params)` on every sample of `data`,
/// in sample order.
pub(crate) fn logits(model: &dyn Module, params: &[Tensor], data: &Dataset) -> Tensor {
    logits_chunked(model, params, data, EVAL_BATCH, worker_count())
}

/// [`logits`] with the chunk size and worker count spelled out: `data` is
/// cut into consecutive chunks of `chunk` samples, fanned over `workers`
/// threads by [`fan_out`].
fn logits_chunked(
    model: &dyn Module,
    params: &[Tensor],
    data: &Dataset,
    chunk: usize,
    workers: usize,
) -> Tensor {
    let starts: Vec<usize> = (0..data.len()).step_by(chunk).collect();
    let chunks = fan_out(starts, workers, |start| {
        let idx: Vec<usize> = (start..(start + chunk).min(data.len())).collect();
        let (x, _) = data.batch(&idx);
        forward_inference(model, params, &x)
    });
    let mut rows = Vec::with_capacity(chunks.iter().map(Tensor::len).sum());
    for logits in &chunks {
        rows.extend_from_slice(logits.data());
    }
    let classes = rows.len().checked_div(data.len()).unwrap_or(0);
    Tensor::from_vec(rows, &[data.len(), classes])
}

/// Top-1 accuracy of `model(params)` on `data` (0 for an empty dataset).
pub fn accuracy(model: &dyn Module, params: &[Tensor], data: &Dataset) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let preds = logits(model, params, data).row_argmax();
    let correct = preds
        .iter()
        .zip(data.labels())
        .filter(|(p, t)| p == t)
        .count();
    correct as f32 / data.len() as f32
}

/// Top-1 hits of a model on some samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hits {
    /// Samples predicted right.
    pub correct: usize,
    /// Samples scored.
    pub total: usize,
}

impl Hits {
    /// `correct / total`, or 0 when no sample was scored (as [`accuracy`]
    /// reads an empty dataset).
    pub fn accuracy(self) -> f32 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f32 / self.total as f32
        }
    }
}

/// Per-class top-1 hits of `model(params)` on `data`, indexed by class:
/// the one fold behind [`per_class_accuracy`] and [`class_split`].
pub fn class_hits(model: &dyn Module, params: &[Tensor], data: &Dataset) -> Vec<Hits> {
    let mut hits = vec![Hits::default(); data.classes()];
    if !data.is_empty() {
        let preds = logits(model, params, data).row_argmax();
        for (p, &t) in preds.iter().zip(data.labels()) {
            hits[t].total += 1;
            hits[t].correct += usize::from(*p == t);
        }
    }
    hits
}

/// Per-class top-1 accuracy; classes absent from `data` report 0.
pub fn per_class_accuracy(model: &dyn Module, params: &[Tensor], data: &Dataset) -> Vec<f32> {
    (class_hits(model, params, data).into_iter())
        .map(Hits::accuracy)
        .collect()
}

/// A class request's forget and retain splits of `data`, scored in one
/// pass: the hits on `class`'s samples and on every other sample. Their
/// accuracies are [`split_accuracy`]'s over `data.only_class(class)` and
/// `data.without_class(class)`, bit for bit, without copying either.
pub fn class_split(
    model: &dyn Module,
    params: &[Tensor],
    data: &Dataset,
    class: usize,
) -> (Hits, Hits) {
    let (mut forget, mut retain) = (Hits::default(), Hits::default());
    for (c, hits) in class_hits(model, params, data).into_iter().enumerate() {
        let side = if c == class { &mut forget } else { &mut retain };
        side.correct += hits.correct;
        side.total += hits.total;
    }
    (forget, retain)
}

/// Accuracy on the forget set and retain set: `(f_set, r_set)`.
///
/// This is the paper's core unlearning metric: a method succeeds when its
/// pair matches the retraining oracle's.
pub fn split_accuracy(
    model: &dyn Module,
    params: &[Tensor],
    f_set: &Dataset,
    r_set: &Dataset,
) -> (f32, f32) {
    (
        accuracy(model, params, f_set),
        accuracy(model, params, r_set),
    )
}

/// Per-sample cross-entropy losses of `model(params)` on `data`, in sample
/// order. The raw material of the loss-threshold MIA.
pub fn sample_losses(model: &dyn Module, params: &[Tensor], data: &Dataset) -> Vec<f32> {
    if data.is_empty() {
        return Vec::new();
    }
    let ls = logits(model, params, data).log_softmax_rows();
    let classes = data.classes();
    data.labels()
        .iter()
        .enumerate()
        .map(|(i, &t)| -ls.data()[i * classes + t])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;
    use qd_tensor::rng::Rng;

    /// A "model" whose logits are constant: always predicts class 0.
    fn constant_class0() -> (Mlp, Vec<Tensor>) {
        let model = Mlp::new(&[256, 10]);
        let mut params = vec![Tensor::zeros(&[10, 256]), Tensor::zeros(&[10])];
        params[1].data_mut()[0] = 10.0; // bias favors class 0
        (model, params)
    }

    #[test]
    fn accuracy_of_constant_predictor_equals_class0_share() {
        let mut rng = Rng::seed_from(0);
        let data = SyntheticDataset::Digits.generate(200, &mut rng);
        let share = data.class_counts()[0] as f32 / data.len() as f32;
        let (model, params) = constant_class0();
        let acc = accuracy(&model, &params, &data);
        assert!((acc - share).abs() < 1e-6);
    }

    #[test]
    fn per_class_accuracy_of_constant_predictor() {
        let mut rng = Rng::seed_from(1);
        let data = SyntheticDataset::Digits.generate(100, &mut rng);
        let (model, params) = constant_class0();
        let pc = per_class_accuracy(&model, &params, &data);
        assert_eq!(pc[0], 1.0);
        assert!(pc[1..].iter().all(|&a| a == 0.0));
    }

    #[test]
    fn split_accuracy_separates_sets() {
        let mut rng = Rng::seed_from(2);
        let data = SyntheticDataset::Digits.generate(100, &mut rng);
        let f = data.only_class(0);
        let r = data.without_class(0);
        let (model, params) = constant_class0();
        let (fa, ra) = split_accuracy(&model, &params, &f, &r);
        assert_eq!(fa, 1.0);
        assert_eq!(ra, 0.0);
    }

    #[test]
    fn results_do_not_depend_on_chunk_size_or_worker_count() {
        let mut rng = Rng::seed_from(5);
        let model = qd_nn::ConvNet::new(1, 16, 2, 4, 10);
        let params = model.init(&mut rng);
        // 75 samples: ragged against every chunk size, fewer chunks than
        // workers at 256.
        let data = SyntheticDataset::Digits.generate(75, &mut rng);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // One batch on one thread is the reference; `accuracy`,
        // `per_class_accuracy` and `sample_losses` read nothing else.
        let (x, _) = data.all();
        let whole = forward_inference(&model, &params, &x);
        assert_eq!(whole.dims(), &[75, 10]);
        for chunk in [1, 7, 32, 256] {
            for workers in [1, 2, 5] {
                let got = logits_chunked(&model, &params, &data, chunk, workers);
                assert_eq!(got.dims(), whole.dims());
                assert_eq!(bits(&got), bits(&whole), "chunk {chunk}, {workers} workers");
            }
        }
        let preds = whole.row_argmax();
        let hits = preds.iter().zip(data.labels()).filter(|(p, t)| p == t);
        assert_eq!(accuracy(&model, &params, &data), hits.count() as f32 / 75.0);
        let per_class = per_class_accuracy(&model, &params, &data);
        for (class, &acc) in per_class.iter().enumerate() {
            let members = data.indices_of_class(class);
            let right = members.iter().filter(|&&i| preds[i] == class).count();
            assert_eq!(acc, right as f32 / members.len().max(1) as f32);
        }
        let ls = whole.log_softmax_rows();
        let losses = sample_losses(&model, &params, &data);
        assert_eq!(losses.len(), 75);
        for (i, loss) in losses.iter().enumerate() {
            assert_eq!(
                loss.to_bits(),
                (-ls.data()[i * 10 + data.label(i)]).to_bits()
            );
        }
    }

    #[test]
    fn a_one_pass_class_split_is_split_accuracy_over_copies() {
        let mut rng = Rng::seed_from(6);
        let model = qd_nn::ConvNet::new(1, 16, 2, 4, 10);
        let params = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(75, &mut rng);
        for class in 0..10 {
            let (f, r) = (data.only_class(class), data.without_class(class));
            let (fa, ra) = split_accuracy(&model, &params, &f, &r);
            let (forget, retain) = class_split(&model, &params, &data, class);
            assert_eq!(
                (forget.total, retain.total),
                (f.len(), r.len()),
                "class {class}"
            );
            let bits = |a: f32, b: f32| (a.to_bits(), b.to_bits());
            assert_eq!(
                bits(forget.accuracy(), retain.accuracy()),
                bits(fa, ra),
                "class {class}"
            );
        }
    }

    #[test]
    fn empty_dataset_accuracy_is_zero() {
        let mut rng = Rng::seed_from(3);
        let data = SyntheticDataset::Digits.generate(4, &mut rng);
        let empty = data.subset(&[]);
        let (model, params) = constant_class0();
        assert_eq!(accuracy(&model, &params, &empty), 0.0);
    }

    #[test]
    fn sample_losses_match_dataset_order_and_confidence() {
        let mut rng = Rng::seed_from(4);
        let data = SyntheticDataset::Digits.generate(20, &mut rng);
        let (model, params) = constant_class0();
        let losses = sample_losses(&model, &params, &data);
        assert_eq!(losses.len(), 20);
        for (i, &l) in losses.iter().enumerate() {
            if data.label(i) == 0 {
                assert!(l < 0.1, "confident correct sample should have low loss");
            } else {
                assert!(l > 1.0, "wrong-class sample should have high loss");
            }
        }
    }
}
