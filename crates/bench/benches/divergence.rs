//! Divergence chaos harness: QuickDrop unlearning under hostile
//! ascent-LR spikes, with and without the divergence guard the CLI
//! ships (`--drift-budget`, `--ascent-retries`).
//!
//! A fraction of clients magnifies its ascent learning rate 50x
//! ([`FaultKind::AscentSpike`]) — the failure QuickDrop-style serving is
//! most exposed to, because gradient ascent amplifies rather than damps
//! perturbations. Three runs serve the same request on clones of one
//! trained [`QuickDrop`], from one trained model and one RNG stream:
//!
//! 1. fault-free [`QuickDrop`] (`unlearn`, the reference),
//! 2. unguarded `unlearn` under the spike (expected to collapse),
//! 3. [`QuickDrop::unlearn_guarded`] under the same spike (drift budget
//!    + rollback + LR-halving backoff; expected to track the reference).
//!
//! Pass `--test` for a seconds-scale smoke run that asserts the
//! robustness contract instead of only printing it.

use qd_bench::{bench_config, print_paper_reference, Setup, Split};
use qd_core::QuickDrop;
use qd_data::SyntheticDataset;
use qd_eval::split_accuracy;
use qd_fed::{FaultKind, FaultPlan, Phase};
use qd_nn::params_have_non_finite;
use qd_tensor::rng::Rng;
use qd_unlearn::{fr_eval_sets, GuardPolicy, GuardStats, UnlearnRequest, UnlearningMethod};

/// Fraction of clients spiking their ascent LR.
const SPIKE_FRAC: f32 = 0.2;
/// Ascent-LR magnification on the spiking clients.
const SPIKE_SCALE: f32 = 50.0;

struct Row {
    label: &'static str,
    forget_acc: f32,
    retain_acc: f32,
    non_finite: bool,
    guard: Option<GuardStats>,
}

struct Harness {
    setup: Setup,
    trained: QuickDrop,
    reference: Vec<qd_tensor::Tensor>,
    rng_mark: qd_tensor::rng::RngState,
    request: UnlearnRequest,
}

impl Harness {
    fn build(smoke: bool) -> Harness {
        let (clients, train_n, test_n, rounds) = if smoke {
            (5, 300, 160, 2)
        } else {
            (8, 1200, 500, 8)
        };
        let mut setup = Setup::build(
            SyntheticDataset::Digits,
            clients,
            Split::Iid,
            train_n,
            test_n,
            42,
        );
        let mut cfg = bench_config(rounds);
        if smoke {
            cfg.train_phase = Phase::training(rounds, 2, 16, 0.08);
            cfg.distill.scale = 20;
        }
        let (trained, _) = QuickDrop::train(&mut setup.fed, cfg, &mut setup.rng);
        let reference = setup.fed.global().to_vec();
        let rng_mark = setup.rng.state();
        Harness {
            setup,
            trained,
            reference,
            rng_mark,
            request: UnlearnRequest::Class(4),
        }
    }

    fn spike_plan(&self) -> FaultPlan {
        FaultPlan::new(7, SPIKE_FRAC)
            .with_kinds(vec![FaultKind::AscentSpike])
            .with_ascent_spike(SPIKE_SCALE)
    }

    /// Rewinds the federation and RNG to the post-training snapshot and
    /// hands out a fresh clone of the trained system, so every variant
    /// serves the identical request stream.
    fn rewind(&mut self, plan: Option<FaultPlan>) -> QuickDrop {
        self.setup.fed.set_global(self.reference.clone());
        self.setup.rng = Rng::from_state(&self.rng_mark);
        self.setup.fed.set_fault_plan(plan);
        self.trained.clone()
    }

    fn measure(&self, label: &'static str, guard: Option<GuardStats>) -> Row {
        let (f_set, r_set) = fr_eval_sets(&self.setup.fed, self.request, &self.setup.test);
        let non_finite = params_have_non_finite(self.setup.fed.global());
        let (forget_acc, retain_acc) = if non_finite {
            (f32::NAN, f32::NAN)
        } else {
            split_accuracy(
                self.setup.model.as_ref(),
                self.setup.fed.global(),
                &f_set,
                &r_set,
            )
        };
        Row {
            label,
            forget_acc,
            retain_acc,
            non_finite,
            guard,
        }
    }

    fn run_unguarded(&mut self, label: &'static str, plan: Option<FaultPlan>) -> Row {
        let mut qd = self.rewind(plan);
        qd.unlearn(&mut self.setup.fed, self.request, &mut self.setup.rng);
        self.measure(label, None)
    }

    fn run_guarded(&mut self, label: &'static str, plan: Option<FaultPlan>) -> Row {
        let mut qd = self.rewind(plan);
        // Default drift budget; enough backoff headroom to out-halve a
        // 50x spike (2^6 > 50).
        let policy = GuardPolicy {
            ascent_retries: 8,
            ..GuardPolicy::default()
        };
        let outcome = qd
            .unlearn_guarded(
                &mut self.setup.fed,
                self.request,
                &policy,
                &mut self.setup.rng,
            )
            .expect("the guard must land an accepted attempt");
        self.measure(label, outcome.guard)
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    println!(
        "divergence: {:.0}% of clients spike their ascent LR {SPIKE_SCALE}x (QuickDrop){}",
        SPIKE_FRAC * 100.0,
        if smoke { " [smoke]" } else { "" },
    );
    let mut h = Harness::build(smoke);
    let rows = [
        h.run_unguarded("QuickDrop (fault-free)", None),
        h.run_unguarded("QuickDrop unguarded @ spike", Some(h.spike_plan())),
        h.run_guarded("QuickDrop guarded @ spike", Some(h.spike_plan())),
    ];

    println!(
        "  {:<28} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "engine", "F-Set", "R-Set", "rollbacks", "halvings", "drift"
    );
    for r in &rows {
        let (rb, hv, drift) = r.guard.map_or_else(
            || ("-".into(), "-".into(), "-".into()),
            |g| {
                (
                    g.rollbacks.to_string(),
                    g.lr_halvings.to_string(),
                    format!("{:.3}", g.final_drift),
                )
            },
        );
        let acc = |a: f32| {
            if r.non_finite {
                "  NaN".to_string()
            } else {
                format!("{:>4.1}%", a * 100.0)
            }
        };
        println!(
            "  {:<28} {:>8} {:>8} {:>10} {:>10} {:>9}",
            r.label,
            acc(r.forget_acc),
            acc(r.retain_acc),
            rb,
            hv,
            drift,
        );
    }

    let [fault_free, unguarded, guarded] = rows;
    if smoke {
        let stats = guarded.guard.expect("guarded run records stats");
        assert!(
            stats.rollbacks >= 1,
            "the spike must trip the guard at least once"
        );
        assert!(
            fault_free.retain_acc - guarded.retain_acc <= 0.010 + 1e-6,
            "guarded serving must stay within 1 R-Set point of fault-free \
             ({:.1}% vs {:.1}%)",
            guarded.retain_acc * 100.0,
            fault_free.retain_acc * 100.0,
        );
        assert!(
            unguarded.non_finite || fault_free.retain_acc - unguarded.retain_acc >= 0.10,
            "the unguarded engine must visibly collapse under the spike \
             ({:.1}% vs {:.1}%)",
            unguarded.retain_acc * 100.0,
            fault_free.retain_acc * 100.0,
        );
        println!("smoke assertions passed");
    }

    print_paper_reference(&[
        "no direct paper counterpart: the paper assumes well-behaved ascent;",
        "shape to reproduce: unguarded QuickDrop under a 50x ascent-LR spike",
        "loses >= 10 R-Set points or blows up to non-finite parameters, while",
        "the guarded engine rolls back, halves the ascent LR, and finishes",
        "within 1 R-Set point of the fault-free run.",
    ]);
}
