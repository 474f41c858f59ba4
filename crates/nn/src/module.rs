//! The object-safe [`Module`] trait and [`Sequential`] composition.

use qd_autograd::{Tape, Var};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

/// An architecture description whose parameters live outside the module.
///
/// A module never owns weights; callers hold them as a `Vec<Tensor>`
/// (created by [`Module::init`]) and insert them into a tape per forward
/// pass. See the crate-level docs for why this functional style fits
/// federated unlearning.
pub trait Module: Send + Sync {
    /// Runs the forward pass. `params` must contain exactly
    /// [`Module::param_count`] variables whose shapes match
    /// [`Module::param_shapes`].
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var;

    /// Shapes of the parameter tensors this module consumes, in order.
    fn param_shapes(&self) -> Vec<Vec<usize>>;

    /// Freshly initialized parameter tensors.
    fn init(&self, rng: &mut Rng) -> Vec<Tensor>;

    /// Number of parameter tensors ([`Module::param_shapes`]`.len()`).
    fn param_count(&self) -> usize {
        self.param_shapes().len()
    }

    /// Total number of scalar parameters.
    fn num_scalars(&self) -> usize {
        self.param_shapes()
            .iter()
            .map(|s| s.iter().product::<usize>())
            .sum()
    }
}

/// Runs `module` in inference mode on a batch, returning raw logits.
///
/// Builds a throwaway [`Tape::inference`] internally: nothing is
/// differentiable, and [`Sequential`] retires each child's working set as
/// it goes, so the call holds one layer's intermediates, not the
/// network's. The logits are bit-identical to a recording tape's.
///
/// # Examples
///
/// ```
/// use qd_nn::{forward_inference, Mlp, Module};
/// use qd_tensor::{rng::Rng, Tensor};
///
/// let model = Mlp::new(&[4, 8, 2]);
/// let params = model.init(&mut Rng::seed_from(1));
/// let x = Tensor::zeros(&[3, 4]);
/// let logits = forward_inference(&model, &params, &x);
/// assert_eq!(logits.dims(), &[3, 2]);
/// ```
pub fn forward_inference(module: &dyn Module, params: &[Tensor], x: &Tensor) -> Tensor {
    let mut tape = Tape::inference();
    let p: Vec<Var> = params.iter().map(|t| tape.constant(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let y = module.forward(&mut tape, &p, xv);
    tape.value(y).clone()
}

/// How many model evaluations run at once wherever this workspace fans
/// independent work over threads with [`fan_out`] (a round's clients, an
/// evaluation's chunks): the machine's hardware threads. It decides only
/// when results arrive, never what they are — every such caller reduces
/// in a fixed order — so it is not configurable.
pub fn worker_count() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// Runs `job` on every one of `jobs` over at most `workers` threads and
/// returns the results in job order: the one fan-out of this workspace.
///
/// The jobs are cut into at most `workers` contiguous runs of
/// `⌈jobs / workers⌉`; the first run works on the calling thread and each
/// other on one scoped thread, so a single run starts no thread at all,
/// and a process keeps one malloc arena per thread that computes, not one
/// more for a caller parked in `join`. A worker's panic reaches the
/// caller with its own payload.
///
/// # Examples
///
/// ```
/// let squares = qd_nn::fan_out((0..7).collect(), 3, |i: u32| i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36]);
/// ```
pub fn fan_out<J, R, F>(jobs: Vec<J>, workers: usize, job: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let per_run = jobs.len().div_ceil(workers.max(1)).max(1);
    let mut jobs = jobs.into_iter().peekable();
    let first: Vec<J> = jobs.by_ref().take(per_run).collect();
    let job = &job;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        while jobs.peek().is_some() {
            let run: Vec<J> = jobs.by_ref().take(per_run).collect();
            handles.push(scope.spawn(move || run.into_iter().map(job).collect::<Vec<R>>()));
        }
        let mut results: Vec<R> = first.into_iter().map(job).collect();
        for handle in handles {
            // A worker only fails to join by panicking: re-raise its payload.
            results.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        results
    })
}

/// Runs a chain of modules, splitting the parameter list among children.
///
/// # Examples
///
/// ```
/// use qd_nn::{Flatten, Linear, Module, Relu, Sequential};
///
/// let net = Sequential::new(vec![
///     Box::new(Linear::new(8, 16)),
///     Box::new(Relu),
///     Box::new(Linear::new(16, 4)),
/// ]);
/// assert_eq!(net.param_count(), 4); // two weights + two biases
/// ```
pub struct Sequential {
    children: Vec<Box<dyn Module>>,
}

impl Sequential {
    /// Composes `children` in order.
    pub fn new(children: Vec<Box<dyn Module>>) -> Self {
        Sequential { children }
    }

    /// The child modules.
    pub fn children(&self) -> &[Box<dyn Module>] {
        &self.children
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} children)", self.children.len())
    }
}

impl Module for Sequential {
    fn forward(&self, tape: &mut Tape, params: &[Var], x: Var) -> Var {
        assert_eq!(
            params.len(),
            self.param_count(),
            "Sequential given {} params, needs {}",
            params.len(),
            self.param_count()
        );
        let mut offset = 0;
        let mut h = x;
        // On an inference tape, a child's temporaries and the previous
        // child's output are released when the child returns; what the
        // caller recorded before this call (`x`, `params`) is never ours
        // to release. On a recording tape `retire` does nothing.
        let mut retire_from = tape.len();
        for child in &self.children {
            let child_from = tape.len();
            let n = child.param_count();
            h = child.forward(tape, &params[offset..offset + n], h);
            offset += n;
            tape.retire(retire_from, h);
            retire_from = child_from;
        }
        h
    }

    fn param_shapes(&self) -> Vec<Vec<usize>> {
        self.children
            .iter()
            .flat_map(|c| c.param_shapes())
            .collect()
    }

    fn init(&self, rng: &mut Rng) -> Vec<Tensor> {
        self.children.iter().flat_map(|c| c.init(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, Relu};

    #[test]
    fn sequential_splits_params_in_order() {
        let net = Sequential::new(vec![
            Box::new(Linear::new(3, 5)),
            Box::new(Relu),
            Box::new(Linear::new(5, 2)),
        ]);
        let shapes = net.param_shapes();
        assert_eq!(shapes, vec![vec![5, 3], vec![5], vec![2, 5], vec![2]]);
        let params = net.init(&mut Rng::seed_from(0));
        assert_eq!(params.len(), 4);
        let x = Tensor::zeros(&[2, 3]);
        let out = forward_inference(&net, &params, &x);
        assert_eq!(out.dims(), &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn sequential_rejects_wrong_param_count() {
        let net = Sequential::new(vec![Box::new(Linear::new(3, 5))]);
        let mut tape = Tape::new();
        let x = tape.constant(Tensor::zeros(&[1, 3]));
        let _ = net.forward(&mut tape, &[], x);
    }

    #[test]
    fn fan_out_returns_results_in_job_order() {
        for n in [0, 1, 2, 3, 7] {
            for workers in [1, 2, 3] {
                let jobs: Vec<usize> = (0..n).collect();
                let got = fan_out(jobs, workers, |i| (i, std::thread::current().id()));
                let order: Vec<usize> = got.iter().map(|&(i, _)| i).collect();
                assert_eq!(
                    order,
                    (0..n).collect::<Vec<_>>(),
                    "{n} jobs, {workers} workers"
                );
                // The first run is the caller's, and no run is empty.
                let per_run = n.div_ceil(workers).max(1);
                for (i, &(_, thread)) in got.iter().enumerate() {
                    let on_caller = thread == std::thread::current().id();
                    assert_eq!(
                        on_caller,
                        i < per_run,
                        "{n} jobs, {workers} workers, job {i}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn fan_out_re_raises_a_workers_own_panic() {
        fan_out((0..6).collect(), 3, |i: usize| {
            assert_ne!(i, 5, "job {i} failed")
        });
    }

    #[test]
    fn num_scalars_counts_everything() {
        let net = Sequential::new(vec![Box::new(Linear::new(3, 5))]);
        assert_eq!(net.num_scalars(), 15 + 5);
    }
}
