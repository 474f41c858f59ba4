//! The federation: global model, client datasets, round execution and
//! FedAvg aggregation.

use crate::aggregate::{
    ClientUpdate, GuardConfig, GuardState, ResilienceStats, UpdateGuard, Violation,
};
use crate::faults::FaultPlan;
use crate::health::{ClientHealth, HealthConfig, HealthState};
use crate::{ClientTrainer, Phase};
use qd_data::Dataset;
use qd_net::{LoopbackTransport, NetStats, Transport};
use qd_nn::Module;
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything retained about one training round when history recording is
/// on — the storage FedEraser later consumes.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Round index within the recorded phase.
    pub round_index: usize,
    /// Clients that participated, in aggregation order.
    pub participants: Vec<usize>,
    /// Global parameters at the start of the round.
    pub global_before: Vec<Tensor>,
    /// Per-participant parameter updates (`local - global_before`),
    /// aligned with `participants`.
    pub updates: Vec<Vec<Tensor>>,
    /// FedAvg weights used, aligned with `participants`.
    pub weights: Vec<f32>,
}

/// Cost accounting for one executed [`Phase`], feeding the paper's
/// time / rounds / data-size tables.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStats {
    /// Rounds executed.
    pub rounds: usize,
    /// Total gradient evaluations, counted in samples.
    pub samples_processed: usize,
    /// Distinct samples held by the participants of a round (the paper's
    /// "Data Size" column; last round's value).
    pub data_size: usize,
    /// Wall-clock time spent.
    pub wall: Duration,
    /// Scalars sent server → clients (each participant downloads the
    /// global model every round).
    pub download_scalars: usize,
    /// Scalars sent clients → server (each *surviving* participant
    /// uploads its parameters every round).
    pub upload_scalars: usize,
    /// Wire-level costs reported by the phase's [`Transport`] (zero under
    /// the loopback default).
    pub net: NetStats,
    /// Updates rejected, clients quarantined and quorum fallbacks taken
    /// by the resilience layer (all zero in a fault-free run).
    pub resilience: ResilienceStats,
}

impl PhaseStats {
    /// Accumulates another phase's costs (used to total unlearning +
    /// recovery).
    pub fn merge(&mut self, other: &PhaseStats) {
        self.rounds += other.rounds;
        self.samples_processed += other.samples_processed;
        self.data_size = self.data_size.max(other.data_size);
        self.wall += other.wall;
        self.download_scalars += other.download_scalars;
        self.upload_scalars += other.upload_scalars;
        self.net.merge(&other.net);
        self.resilience.merge(&other.resilience);
    }

    /// Total scalars exchanged in both directions.
    pub fn communication_scalars(&self) -> usize {
        self.download_scalars + self.upload_scalars
    }
}

/// A round-boundary cursor into a running phase: everything (beyond the
/// global model itself) needed to continue the phase bit-for-bit.
///
/// Produced for the observer of
/// [`Federation::run_phase_resumable`] after every completed round and
/// consumed by a later call's `resume` argument — the checkpoint layer in
/// `qd-core` persists it inside `Checkpoint` v2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResumeState {
    /// Index of the next round to execute (the cursor emitted after
    /// round `r` carries `r + 1`).
    pub next_round: usize,
    /// The phase RNG, captured at the round boundary.
    pub rng: RngState,
    /// Violation counts and quarantine decisions at the round boundary.
    pub guard: GuardState,
    /// Circuit-breaker failure counts and cooldowns at the round
    /// boundary, so a resumed phase re-samples (and re-excludes) exactly
    /// the clients the uninterrupted run would have.
    pub health: HealthState,
}

/// Round-boundary hook for [`Federation::run_phase_resumable`]: called
/// with the cursor describing the post-round state, the current global
/// model, and the trainers; returns `false` to stop the phase at that
/// boundary.
pub type PhaseObserver<'a, T> = &'a mut dyn FnMut(&ResumeState, &[Tensor], &[T]) -> bool;

/// A simulated FedAvg federation: `N` clients, their private datasets, and
/// the global model parameters.
///
/// See the crate-level docs for an end-to-end example.
pub struct Federation {
    model: Arc<dyn Module>,
    clients: Vec<Dataset>,
    global: Vec<Tensor>,
    record_history: bool,
    history: Vec<RoundRecord>,
    transport: Box<dyn Transport>,
    guard: UpdateGuard,
    health: ClientHealth,
    fault_plan: Option<FaultPlan>,
    /// Threads a round's local rounds fan out over, the calling thread
    /// among them ([`qd_nn::fan_out`] over the machine's hardware
    /// threads). It decides only when results arrive, never what they are:
    /// every client works from its own pre-forked RNG into its own slot.
    client_threads: usize,
}

impl std::fmt::Debug for Federation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Federation({} clients, {} param tensors, {} recorded rounds)",
            self.clients.len(),
            self.global.len(),
            self.history.len()
        )
    }
}

impl Federation {
    /// Creates a federation with freshly initialized global parameters.
    ///
    /// # Panics
    ///
    /// Panics if `clients` is empty.
    pub fn new(model: Arc<dyn Module>, clients: Vec<Dataset>, rng: &mut Rng) -> Self {
        let global = model.init(rng);
        Federation::with_params(model, clients, global)
    }

    /// Creates a federation with the given starting parameters (used by
    /// retraining baselines that must restart from a fixed init).
    pub fn with_params(model: Arc<dyn Module>, clients: Vec<Dataset>, global: Vec<Tensor>) -> Self {
        assert!(!clients.is_empty(), "federation needs at least one client");
        let guard = UpdateGuard::new(GuardConfig::default(), clients.len());
        let health = ClientHealth::new(HealthConfig::default(), clients.len());
        Federation {
            model,
            clients,
            global,
            record_history: false,
            history: Vec::new(),
            transport: Box::new(LoopbackTransport::new()),
            guard,
            health,
            fault_plan: None,
            client_threads: qd_nn::worker_count(),
        }
    }

    /// Replaces the transport carrying server ↔ client exchanges. The
    /// default is [`LoopbackTransport`]; install a [`qd_net::SimNet`] to
    /// price rounds over a simulated network.
    pub fn set_transport(&mut self, transport: Box<dyn Transport>) {
        self.transport = transport;
    }

    /// Replaces the ingestion-time validation policy. Resets violation
    /// counts and lifts existing quarantines.
    pub fn set_guard(&mut self, config: GuardConfig) {
        self.guard = UpdateGuard::new(config, self.clients.len());
    }

    /// The ingestion-time update guard (validation policy, violation
    /// counts, quarantine decisions).
    pub fn guard(&self) -> &UpdateGuard {
        &self.guard
    }

    /// Screens a client-attributed parameter set produced *outside* the
    /// round machinery — a method-local ascent result (PGA) or a replayed
    /// update — through the same ingestion guard `run_phase` applies to
    /// round uploads. A rejected delta counts toward `client`'s
    /// quarantine threshold exactly like a rejected round upload.
    ///
    /// Unlearning methods that install parameters via
    /// [`Federation::set_global`] bypass round ingestion entirely; this
    /// is their screening hook, closing the gap where a NaN produced
    /// during an unlearn or recover computation reached the global model
    /// unchecked.
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] that caused the rejection.
    pub fn screen_update(
        &mut self,
        client: usize,
        reference: &[Tensor],
        params: &[Tensor],
    ) -> Result<(), Violation> {
        self.guard.check(client, reference, params)
    }

    /// Replaces the transport-health circuit-breaker policy. Resets
    /// failure streaks and lifts any open cooldowns.
    pub fn set_health(&mut self, config: HealthConfig) {
        self.health = ClientHealth::new(config, self.clients.len());
    }

    /// The per-client transport health tracker (failure streaks, open
    /// breakers, half-open probes).
    pub fn health(&self) -> &ClientHealth {
        &self.health
    }

    /// Installs (or, with `None`, removes) a client-side fault-injection
    /// plan for chaos experiments.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// The architecture shared by all clients.
    pub fn model(&self) -> &Arc<dyn Module> {
        &self.model
    }

    /// Client `i`'s local dataset.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn client_data(&self, i: usize) -> &Dataset {
        &self.clients[i]
    }

    /// All client datasets.
    pub fn clients(&self) -> &[Dataset] {
        &self.clients
    }

    /// Current global parameters.
    pub fn global(&self) -> &[Tensor] {
        &self.global
    }

    /// Replaces the global parameters (e.g. restoring a checkpoint).
    pub fn set_global(&mut self, params: Vec<Tensor>) {
        assert_eq!(
            params.len(),
            self.global.len(),
            "parameter tensor count mismatch"
        );
        self.global = params;
    }

    /// Enables or disables per-round update recording.
    pub fn set_record_history(&mut self, on: bool) {
        self.record_history = on;
    }

    /// Rounds recorded while history recording was enabled.
    pub fn history(&self) -> &[RoundRecord] {
        &self.history
    }

    /// Number of `f32` scalars held by the recorded history — the storage
    /// FedEraser trades for unlearning speed, which grows linearly with
    /// rounds x participants (Table 1's "storage efficiency" column).
    pub fn history_storage_scalars(&self) -> usize {
        self.history
            .iter()
            .map(|r| {
                let per_model: usize = r.global_before.iter().map(Tensor::len).sum();
                per_model * (1 + r.updates.len())
            })
            .sum()
    }

    /// Runs a federated phase.
    ///
    /// * `trainers` — one stateful [`ClientTrainer`] per client.
    /// * `override_data` — optional per-client dataset replacing the
    ///   client's own (e.g. the synthetic forget set `Sf` during
    ///   unlearning, or the retain set during recovery). `None` entries
    ///   exclude the client from the phase entirely.
    /// * Clients are sampled per round according to
    ///   [`Phase::participation`]; aggregation is FedAvg weighted by local
    ///   dataset size (`|Zᵢ| / |Z|`, Algorithm 1).
    ///
    /// Returns cost statistics. If no client is eligible (all datasets
    /// empty), the phase is a no-op with zero rounds.
    ///
    /// # Panics
    ///
    /// Panics if `trainers.len() != self.n_clients()` or an override slice
    /// of the wrong length is given.
    pub fn run_phase<T: ClientTrainer>(
        &mut self,
        trainers: &mut [T],
        override_data: Option<&[Option<Dataset>]>,
        phase: &Phase,
        rng: &mut Rng,
    ) -> PhaseStats {
        self.run_phase_resumable(trainers, override_data, phase, rng, None, None)
    }

    /// Runs a federated phase with round-boundary observation and
    /// crash-consistent resume.
    ///
    /// Identical to [`Federation::run_phase`] — which delegates here —
    /// plus two hooks:
    ///
    /// * `resume` — a [`ResumeState`] cursor captured by a previous run of
    ///   the *same* phase (same config, seeds, datasets, faults). The
    ///   phase RNG and quarantine bookkeeping are restored from it and
    ///   execution continues at `cursor.next_round`, reproducing the
    ///   uninterrupted run bit-for-bit. `rng` is overwritten with the
    ///   cursor's stream so later consumers stay aligned too.
    /// * `observer` — called after every round with the cursor describing
    ///   the post-round state, the current global model, and the trainers.
    ///   The checkpoint layer uses it to persist mid-phase snapshots.
    ///   Returning `false` stops the phase at this round boundary (the
    ///   checkpoint layer does when a save fails); the returned stats
    ///   cover the rounds that ran, and a later call can resume from the
    ///   last cursor that was saved.
    ///
    /// # Panics
    ///
    /// Panics if the cursor points past the phase's last round, in
    /// addition to [`Federation::run_phase`]'s panics.
    pub fn run_phase_resumable<T: ClientTrainer>(
        &mut self,
        trainers: &mut [T],
        override_data: Option<&[Option<Dataset>]>,
        phase: &Phase,
        rng: &mut Rng,
        resume: Option<&ResumeState>,
        mut observer: Option<PhaseObserver<'_, T>>,
    ) -> PhaseStats {
        assert_eq!(
            trainers.len(),
            self.n_clients(),
            "one trainer per client required"
        );
        if let Some(o) = override_data {
            assert_eq!(o.len(), self.n_clients(), "override slice length mismatch");
        }
        let start_round = match resume {
            Some(cursor) => {
                assert!(
                    cursor.next_round <= phase.rounds,
                    "resume cursor at round {} is beyond the phase's {} rounds",
                    cursor.next_round,
                    phase.rounds
                );
                *rng = Rng::from_state(&cursor.rng);
                self.guard.restore(cursor.guard.clone());
                self.health.restore(cursor.health.clone());
                cursor.next_round
            }
            None => 0,
        };
        let dataset_of = |i: usize| -> Option<&Dataset> {
            match override_data {
                Some(o) => o[i].as_ref(),
                None => Some(&self.clients[i]),
            }
        };
        let eligible: Vec<usize> = (0..self.n_clients())
            .filter(|&i| dataset_of(i).is_some_and(|d| !d.is_empty()))
            .collect();
        let mut stats = PhaseStats::default();
        if eligible.is_empty() {
            return stats;
        }
        let mut aggregator = phase.aggregator.build();
        // Feeds PhaseStats.wall, never control flow.
        #[expect(clippy::disallowed_methods, reason = "wall-clock accounting only")]
        let start = Instant::now();
        for round in start_round..phase.rounds {
            'round: {
                // Open circuit breakers advance one round; the ones that
                // expire re-admit their client as a half-open probe.
                stats.resilience.half_open_probes += self.health.tick();
                // Quarantined clients are barred from this and all later
                // rounds (the set can only grow as the phase runs);
                // cooling clients sit out until their breaker half-opens.
                let round_eligible: Vec<usize> = eligible
                    .iter()
                    .copied()
                    .filter(|&i| !self.guard.is_quarantined(i) && !self.health.is_cooling(i))
                    .collect();
                if round_eligible.is_empty() {
                    stats.resilience.quorum_fallbacks += 1;
                    break 'round;
                }
                let participants: Vec<usize> = if phase.participation >= 1.0 {
                    round_eligible
                } else {
                    let k = ((round_eligible.len() as f32 * phase.participation).round() as usize)
                        .clamp(1, round_eligible.len());
                    let mut picks = rng.choose_indices(round_eligible.len(), k);
                    picks.sort_unstable();
                    picks.into_iter().map(|j| round_eligible[j]).collect()
                };
                let sizes: Vec<usize> = participants
                    .iter()
                    // qd-lint: allow(panic-safety) -- eligibility already
                    // filtered to clients with data; a None is a
                    // selection-logic bug
                    .map(|&i| dataset_of(i).expect("eligible client has data").len())
                    .collect();
                let total: usize = sizes.iter().sum();
                let weights: Vec<f32> = sizes.iter().map(|&s| s as f32 / total as f32).collect();
                stats.data_size = total;

                // Pre-fork one RNG per participant so results are independent
                // of execution interleaving.
                let seeds: Vec<Rng> = participants.iter().map(|&i| rng.fork(i as u64)).collect();

                // AscentSpike faults corrupt the computation itself: the
                // spiked client runs its local ascent at a magnified LR.
                // Drawn up-front (pure hash, no RNG stream) so the worker
                // threads stay free of `self` borrows.
                let lr_scales: Vec<f32> = participants
                    .iter()
                    .map(|&c| match &self.fault_plan {
                        Some(plan) if phase.direction == qd_nn::Direction::Ascent => {
                            plan.ascent_lr_scale(self.n_clients(), round, c)
                        }
                        _ => 1.0,
                    })
                    .collect();

                let global_before = self.global.clone();

                // Server → clients: every participant downloads the global
                // model through the transport. A failed download (the
                // client is unreachable for the round) means it never
                // sees this round and computes nothing.
                self.transport.begin_round(&participants);
                let mut start_params: Vec<Option<Vec<Tensor>>> = participants
                    .iter()
                    .map(|&c| self.transport.download(c, &global_before).tensors)
                    .collect();

                let mut outcomes: Vec<Option<crate::LocalOutcome>> = Vec::new();
                outcomes.resize_with(participants.len(), || None);

                // One job per reachable participating trainer, in client
                // order; the fan-out returns each outcome to its slot.
                let mut jobs = Vec::with_capacity(participants.len());
                for (client, trainer) in trainers.iter_mut().enumerate() {
                    let Some(slot) = participants.iter().position(|&p| p == client) else {
                        continue;
                    };
                    let Some(params) = start_params[slot].take() else {
                        continue; // unreachable this round
                    };
                    // qd-lint: allow(panic-safety) -- participants are
                    // drawn from clients with data
                    let data = dataset_of(client).expect("participant has data");
                    let mut phase = *phase;
                    if lr_scales[slot] != 1.0 {
                        phase.lr *= lr_scales[slot];
                    }
                    jobs.push((slot, trainer, params, data, phase, seeds[slot].clone()));
                }
                let results = qd_nn::fan_out(
                    jobs,
                    self.client_threads,
                    |(slot, trainer, params, data, phase, mut crng)| {
                        (slot, trainer.local_round(params, data, &phase, &mut crng))
                    },
                );
                for (slot, outcome) in results {
                    outcomes[slot] = Some(outcome);
                }

                // Clients → server: survivors upload their parameters through
                // the transport; a missing upload is indistinguishable from
                // a crashed client as far as aggregation is concerned. Fault
                // injection happens here — on the client, before the wire —
                // so a Byzantine payload still pays transport costs and
                // reaches the guard through the normal delivery path.
                let n_clients = self.n_clients();
                let mut delivered: Vec<Option<Vec<Tensor>>> = Vec::new();
                delivered.resize_with(participants.len(), || None);
                for (slot, outcome) in outcomes.iter().enumerate() {
                    let Some(outcome) = outcome.as_ref() else {
                        continue; // never reached: no compute, no upload
                    };
                    stats.samples_processed += outcome.samples_processed;
                    let client = participants[slot];
                    let mut upload = outcome.params.clone();
                    if let Some(plan) = &self.fault_plan {
                        if let Some(kind) = plan.fault_of(n_clients, client) {
                            if plan.fires(kind, round, client) {
                                match plan.corrupt(kind, &global_before, upload) {
                                    Some(corrupted) => upload = corrupted,
                                    None => continue, // injected mid-round crash
                                }
                            }
                        }
                    }
                    delivered[slot] = self.transport.upload(client, upload).tensors;
                }
                self.transport.end_round();

                let model_scalars: usize = self.global.iter().map(Tensor::len).sum();
                stats.download_scalars += participants.len() * model_scalars;
                stats.upload_scalars +=
                    delivered.iter().filter(|d| d.is_some()).count() * model_scalars;

                // Transport-level health: a completed round trip resets a
                // client's failure streak; anything else (failed download,
                // mid-round crash, failed upload) is a strike that can open
                // the circuit breaker.
                for (slot, d) in delivered.iter().enumerate() {
                    let client = participants[slot];
                    if d.is_some() {
                        self.health.on_success(client);
                    } else if self.health.on_failure(client, phase.cooldown_rounds) {
                        stats.resilience.cooled_down += 1;
                    }
                }

                // Ingestion-time validation: every decoded update passes
                // the guard; rejected ones are dropped before aggregation
                // and count toward their sender's quarantine threshold.
                let quarantined_before = self.guard.state().quarantined.len();
                for (slot, delivery) in delivered.iter_mut().enumerate() {
                    let Some(params) = delivery.as_ref() else {
                        continue;
                    };
                    if let Err(violation) =
                        self.guard.check(participants[slot], &global_before, params)
                    {
                        match violation {
                            Violation::NonFinite => stats.resilience.rejected_non_finite += 1,
                            Violation::NormExploded => stats.resilience.rejected_norm += 1,
                        }
                        *delivery = None;
                    }
                }
                stats.resilience.quarantined +=
                    self.guard.state().quarantined.len() - quarantined_before;

                // Aggregation over the validated survivors, weighted by
                // |Zi| / |Z| and renormalized for failures.
                let survivor_weight: f32 = weights
                    .iter()
                    .zip(&delivered)
                    .filter(|(_, d)| d.is_some())
                    .map(|(w, _)| w)
                    .sum();
                let mut updates = Vec::with_capacity(participants.len());
                let mut survivors = Vec::with_capacity(participants.len());
                let mut survivor_weights = Vec::with_capacity(participants.len());
                let mut inputs: Vec<ClientUpdate<'_>> = Vec::with_capacity(participants.len());
                for (slot, params) in delivered.iter().enumerate() {
                    let Some(params) = params.as_ref() else {
                        continue;
                    };
                    survivors.push(participants[slot]);
                    survivor_weights.push(weights[slot] / survivor_weight);
                    inputs.push(ClientUpdate {
                        client: participants[slot],
                        weight: weights[slot],
                        params,
                    });
                    if self.record_history {
                        updates.push(
                            params
                                .iter()
                                .zip(&global_before)
                                .map(|(p, g)| p.sub(g))
                                .collect(),
                        );
                    }
                }
                if inputs.len() < phase.min_quorum.max(1) {
                    // Too few valid updates: the round produces no
                    // aggregate and the previous global model stands.
                    stats.resilience.quorum_fallbacks += 1;
                    break 'round;
                }
                let new_global = aggregator.aggregate(&global_before, &inputs);
                drop(inputs);
                if self.record_history {
                    self.history.push(RoundRecord {
                        round_index: round,
                        participants: survivors,
                        global_before,
                        updates,
                        weights: survivor_weights,
                    });
                }
                self.global = new_global;
            }
            stats.rounds += 1;
            if let Some(obs) = observer.as_mut() {
                let cursor = ResumeState {
                    next_round: round + 1,
                    rng: rng.state(),
                    guard: self.guard.state().clone(),
                    health: self.health.state().clone(),
                };
                if !obs(&cursor, &self.global, trainers) {
                    break;
                }
            }
        }
        stats.wall = start.elapsed();
        stats.net = self.transport.take_stats();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sgd_trainers, SgdClientTrainer};
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;

    /// A plan whose `frac` of the clients crash mid-round, each in about
    /// half its rounds, and upload nothing.
    fn crash_plan(seed: u64, frac: f32) -> FaultPlan {
        FaultPlan::new(seed, frac).with_kinds(vec![crate::FaultKind::Crash])
    }

    fn setup(n_clients: usize, per_client: usize) -> (Arc<dyn Module>, Vec<Dataset>, Rng) {
        let mut rng = Rng::seed_from(0);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
        let clients: Vec<Dataset> = (0..n_clients)
            .map(|_| SyntheticDataset::Digits.generate(per_client, &mut rng))
            .collect();
        (model, clients, rng)
    }

    #[test]
    fn aggregation_with_identical_clients_is_stable() {
        // If every client computes the same update, FedAvg returns it.
        let mut rng = Rng::seed_from(1);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[4, 2]));
        let shared = SyntheticDataset::Digits.generate(8, &mut rng);
        // Use a trainer that does nothing (0 steps): global must not move.
        let clients = vec![shared.clone(), shared];
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let before = fed.global().to_vec();
        let mut trainers = sgd_trainers(model, 2);
        let phase = Phase::training(3, 0, 4, 0.1);
        fed.run_phase(&mut trainers, None, &phase, &mut rng);
        for (a, b) in fed.global().iter().zip(&before) {
            assert!(a.max_abs_diff(b) < 1e-6);
        }
    }

    #[test]
    fn global_parameters_do_not_depend_on_client_parallelism() {
        // The contract the kernels and the round loop share: how many
        // clients compute at once changes no bit of the result. A ConvNet,
        // so every register-tiled product and run-copy kernel is on the
        // path.
        let run = |client_threads: usize| {
            let mut rng = Rng::seed_from(3);
            let model: Arc<dyn Module> = Arc::new(qd_nn::ConvNet::new(1, 16, 2, 4, 10));
            let clients: Vec<Dataset> = (0..5)
                .map(|_| SyntheticDataset::Digits.generate(24, &mut rng))
                .collect();
            let mut fed = Federation::new(model.clone(), clients, &mut rng);
            fed.client_threads = client_threads;
            let mut trainers = sgd_trainers(model, 5);
            let phase = Phase::training(2, 3, 8, 0.1);
            fed.run_phase(&mut trainers, None, &phase, &mut rng);
            fed.global()
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        let serial = run(1);
        // Five clients: ragged runs on 2, 3 and 4 threads (3 + 2, 2 + 2 + 1),
        // one client per thread on 5, more threads than clients on 6.
        for client_threads in [2, 3, 4, 5, 6] {
            assert_eq!(serial, run(client_threads), "{client_threads} threads");
        }
    }

    /// Panics in its client's local round, whichever thread runs it.
    struct Exploding;

    impl ClientTrainer for Exploding {
        fn local_round(
            &mut self,
            _: Vec<Tensor>,
            _: &Dataset,
            _: &Phase,
            _: &mut Rng,
        ) -> crate::LocalOutcome {
            panic!("client trainer exploded");
        }
    }

    #[test]
    #[should_panic(expected = "client trainer exploded")]
    fn a_client_panic_reaches_the_caller_with_its_own_message() {
        let (model, clients, mut rng) = setup(2, 8);
        let mut fed = Federation::new(model, clients, &mut rng);
        // Client 1 runs on the fan-out's one spawned thread.
        fed.client_threads = 2;
        let mut trainers: Vec<Box<dyn ClientTrainer>> = vec![
            Box::new(SgdClientTrainer::new(fed.model().clone())),
            Box::new(Exploding),
        ];
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(1, 1, 4, 0.1),
            &mut rng,
        );
    }

    #[test]
    fn training_improves_global_accuracy() {
        let (model, clients, mut rng) = setup(4, 60);
        let test = SyntheticDataset::Digits.generate(100, &mut rng);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let acc_before = accuracy(model.as_ref(), fed.global(), &test);
        let mut trainers = sgd_trainers(model.clone(), 4);
        let phase = Phase::training(5, 8, 32, 0.1);
        let stats = fed.run_phase(&mut trainers, None, &phase, &mut rng);
        assert_eq!(stats.rounds, 5);
        assert!(stats.samples_processed > 0);
        let acc_after = accuracy(model.as_ref(), fed.global(), &test);
        assert!(
            acc_after > acc_before + 0.2,
            "accuracy {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn history_records_updates_that_recompose() {
        let (model, clients, mut rng) = setup(3, 20);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_record_history(true);
        let mut trainers = sgd_trainers(model, 3);
        let phase = Phase::training(2, 3, 8, 0.05);
        fed.run_phase(&mut trainers, None, &phase, &mut rng);
        assert_eq!(fed.history().len(), 2);
        // global_after == global_before + sum_i w_i * update_i
        let rec = &fed.history()[0];
        let next_before = &fed.history()[1].global_before;
        for (j, g) in rec.global_before.iter().enumerate() {
            let mut recomposed = g.clone();
            for (w, upd) in rec.weights.iter().zip(&rec.updates) {
                recomposed.axpy(*w, &upd[j]);
            }
            assert!(recomposed.max_abs_diff(&next_before[j]) < 1e-4);
        }
    }

    #[test]
    fn override_excludes_clients_with_none() {
        let (model, clients, mut rng) = setup(3, 10);
        let only_first = vec![Some(clients[0].clone()), None, None];
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let before = fed.global().to_vec();
        let mut trainers = sgd_trainers(model, 3);
        let phase = Phase::training(1, 2, 4, 0.05);
        let stats = fed.run_phase(&mut trainers, Some(&only_first), &phase, &mut rng);
        assert_eq!(stats.data_size, 10);
        // Global changed (client 0 trained).
        let moved = fed
            .global()
            .iter()
            .zip(&before)
            .any(|(a, b)| a.max_abs_diff(b) > 0.0);
        assert!(moved);
    }

    #[test]
    fn phase_with_no_eligible_clients_is_noop() {
        let (model, clients, mut rng) = setup(2, 10);
        let none: Vec<Option<Dataset>> = vec![None, None];
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let mut trainers = sgd_trainers(model, 2);
        let stats = fed.run_phase(
            &mut trainers,
            Some(&none),
            &Phase::training(3, 2, 4, 0.1),
            &mut rng,
        );
        assert_eq!(stats.rounds, 0);
    }

    #[test]
    fn partial_participation_samples_a_subset() {
        let (model, clients, mut rng) = setup(10, 10);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_record_history(true);
        let mut trainers = sgd_trainers(model, 10);
        let phase = Phase::training(4, 1, 4, 0.05).with_participation(0.3);
        fed.run_phase(&mut trainers, None, &phase, &mut rng);
        for rec in fed.history() {
            assert_eq!(rec.participants.len(), 3);
        }
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let run = || {
            let (model, clients, mut rng) = setup(3, 16);
            let mut fed = Federation::new(model.clone(), clients, &mut rng);
            let mut trainers = sgd_trainers(model, 3);
            fed.run_phase(
                &mut trainers,
                None,
                &Phase::training(2, 3, 8, 0.05),
                &mut rng,
            );
            fed.global().to_vec()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
        }
    }

    fn accuracy(model: &dyn Module, params: &[Tensor], test: &Dataset) -> f32 {
        let (x, y) = test.all();
        let logits = qd_nn::forward_inference(model, params, &x);
        let preds = logits.row_argmax();
        preds.iter().zip(&y).filter(|(a, b)| a == b).count() as f32 / y.len() as f32
    }

    #[test]
    fn communication_accounting_counts_both_directions() {
        let (model, clients, mut rng) = setup(3, 15);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let model_scalars: usize = fed.global().iter().map(Tensor::len).sum();
        let mut trainers = sgd_trainers(model, 3);
        let stats = fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(4, 1, 8, 0.05),
            &mut rng,
        );
        // 4 rounds x 3 participants, both directions, no failures.
        assert_eq!(stats.download_scalars, 4 * 3 * model_scalars);
        assert_eq!(stats.upload_scalars, 4 * 3 * model_scalars);
        assert_eq!(
            stats.communication_scalars(),
            stats.download_scalars + stats.upload_scalars
        );
    }

    #[test]
    fn failed_clients_download_but_never_upload() {
        let (model, clients, mut rng) = setup(4, 12);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_fault_plan(Some(crash_plan(1, 0.5)));
        let mut trainers = sgd_trainers(model, 4);
        let stats = fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(10, 1, 8, 0.05),
            &mut rng,
        );
        assert!(
            stats.upload_scalars < stats.download_scalars,
            "lost updates must show up as missing uploads"
        );
    }

    #[test]
    fn training_survives_client_failures() {
        // With 2 of 5 clients crashing mid-round in about half their
        // rounds, FedAvg still converges (slower); the global model must
        // keep improving and stay finite.
        let (model, clients, mut rng) = setup(5, 60);
        let test = SyntheticDataset::Digits.generate(100, &mut rng);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_fault_plan(Some(crash_plan(2, 0.4)));
        let acc_before = accuracy(model.as_ref(), fed.global(), &test);
        let mut trainers = sgd_trainers(model.clone(), 5);
        let phase = Phase::training(6, 8, 32, 0.1);
        let stats = fed.run_phase(&mut trainers, None, &phase, &mut rng);
        assert_eq!(stats.rounds, 6);
        assert!(fed.global().iter().all(|t| t.all_finite()));
        let acc_after = accuracy(model.as_ref(), fed.global(), &test);
        assert!(
            acc_after > acc_before + 0.15,
            "training should survive failures: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn history_weights_renormalize_over_survivors() {
        let (model, clients, mut rng) = setup(4, 20);
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        fed.set_record_history(true);
        fed.set_fault_plan(Some(crash_plan(3, 0.5)));
        let mut trainers = sgd_trainers(model, 4);
        let phase = Phase::training(6, 2, 8, 0.05);
        fed.run_phase(&mut trainers, None, &phase, &mut rng);
        for rec in fed.history() {
            let total: f32 = rec.weights.iter().sum();
            assert!((total - 1.0).abs() < 1e-4, "weights sum to {total}");
            assert_eq!(rec.participants.len(), rec.updates.len());
            assert!(!rec.participants.is_empty());
        }
    }

    #[test]
    fn aggregation_weights_follow_dataset_sizes() {
        // Two clients with dataset sizes 1 and 3: the aggregate must sit
        // at 0.25 * p1 + 0.75 * p2 after one round.
        let mut rng = Rng::seed_from(9);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
        let big = SyntheticDataset::Digits.generate(30, &mut rng);
        let small = big.subset(&[0]);
        let large = big.subset(&[1, 2, 3]);
        let mut fed = Federation::new(model.clone(), vec![small.clone(), large.clone()], &mut rng);
        let global = fed.global().to_vec();

        // Compute each client's expected local result independently.
        let phase = Phase::training(1, 2, 4, 0.1);
        let mut seeds_rng = rng.clone();
        let seeds: Vec<Rng> = vec![seeds_rng.fork(0), seeds_rng.fork(1)];
        let mut t0 = SgdClientTrainer::new(model.clone());
        let mut s0 = seeds[0].clone();
        let p0 = t0
            .local_round(global.clone(), &small, &phase, &mut s0)
            .params;
        let mut t1 = SgdClientTrainer::new(model.clone());
        let mut s1 = seeds[1].clone();
        let p1 = t1
            .local_round(global.clone(), &large, &phase, &mut s1)
            .params;

        let mut trainers = sgd_trainers(model, 2);
        fed.run_phase(&mut trainers, None, &phase, &mut rng);
        for (j, g) in fed.global().iter().enumerate() {
            let mut expected = Tensor::zeros(g.dims());
            expected.axpy(0.25, &p0[j]);
            expected.axpy(0.75, &p1[j]);
            assert!(
                g.max_abs_diff(&expected) < 1e-5,
                "weighted aggregation mismatch on tensor {j}"
            );
        }
    }

    #[test]
    fn trainer_debug_impls_are_nonempty() {
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[4, 2]));
        assert!(!format!("{:?}", SgdClientTrainer::new(model)).is_empty());
    }

    fn sample_stats(scale: u64) -> PhaseStats {
        let s = scale as usize;
        PhaseStats {
            rounds: 2 * s,
            samples_processed: 100 * s,
            data_size: 40 * s,
            wall: Duration::from_millis(10 * scale),
            download_scalars: 30 * s,
            upload_scalars: 20 * s,
            net: NetStats {
                bytes_down: 1000 * scale,
                bytes_up: 500 * scale,
                sim: Duration::from_millis(4 * scale),
                transfers: 11 * scale,
                delivered: 10 * scale,
                unreachable: scale,
            },
            resilience: ResilienceStats {
                rejected_non_finite: 2 * s,
                rejected_norm: s,
                quarantined: s,
                quorum_fallbacks: s,
                cooled_down: 3 * s,
                half_open_probes: 2 * s,
            },
        }
    }

    #[test]
    fn merge_accumulates_every_field_including_net() {
        let mut total = sample_stats(1);
        total.merge(&sample_stats(2));
        assert_eq!(total.rounds, 6);
        assert_eq!(total.samples_processed, 300);
        // data_size is a per-round snapshot, so merging keeps the max.
        assert_eq!(total.data_size, 80);
        assert_eq!(total.wall, Duration::from_millis(30));
        assert_eq!(total.communication_scalars(), 150);
        assert_eq!(total.net.bytes_down, 3000);
        assert_eq!(total.net.bytes_up, 1500);
        assert_eq!(total.net.sim, Duration::from_millis(12));
        assert_eq!(total.net.transfers, 33);
        assert_eq!(total.net.delivered, 30);
        assert_eq!(total.net.unreachable, 3);
        assert_eq!(total.resilience.rejected_non_finite, 6);
        assert_eq!(total.resilience.rejected_norm, 3);
        assert_eq!(total.resilience.rejected(), 9);
        assert_eq!(total.resilience.quarantined, 3);
        assert_eq!(total.resilience.quorum_fallbacks, 3);
        assert_eq!(total.resilience.cooled_down, 9);
        assert_eq!(total.resilience.half_open_probes, 6);
    }
}
