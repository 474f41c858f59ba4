//! Poison-request acceptance: a Byzantine client whose AscentSpike
//! fault diverges every ascent it participates in is mixed into the
//! multi-tenant service stream, and the isolated executor must
//!
//! 1. serve every non-poison request to RECOVERED,
//! 2. quarantine **exactly** the Byzantine client's request — isolated
//!    out of coalesced units by batch bisection, with typed reasons —
//!    into the dead-letter set, and
//! 3. with breakers on, shed the tripped tenant's queued members to
//!    typed FAILED records without growing the dead-letter set.
//!
//! Killing the degraded service at every isolation boundary and
//! resuming it bit-for-bit is tested in
//! `crates/chaos/tests/exhaustive.rs` (the spiked and breaker
//! workloads); the one kill here checks what the dying process itself
//! reports.
//!
//! A final test pins the inertness contract as a digest oracle: with
//! every isolation flag off, the one unit loop writes the journal
//! bytes, model bits and stats the pre-isolation plain service wrote —
//! unfailed, and killed at every in-unit boundary then resumed the way
//! the CLI does. The same table pins two isolation-active runs of the
//! poisoned mix (breaker; ladder + bisection).

#![allow(clippy::disallowed_methods, reason = "the test removes its own files")]

use qd_core::vfs::crc32;
use qd_core::{
    BatchPreempt, Checkpoint, FailReason, FaultFs, JournalRecord, QuickDrop, QuickDropConfig,
    RequestJournal, RequestState, Snapshot, StdFs, Vfs,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{FaultKind, FaultPlan, Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_serve::{
    build_plan, run_service_isolated, ChaosKill, IsolationConfig, Plan, ServeConfig, ServeStats,
    ServiceRun,
};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, UnlearnRequest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Clients in the federation and in the service's request universe —
/// must agree so every `Client(i)` request has an owner.
const CLIENTS: usize = 3;

fn fresh_fed() -> (Federation, Rng) {
    let mut rng = Rng::seed_from(42);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let data = SyntheticDataset::Digits.generate(240, &mut rng);
    let parts = partition_iid(data.len(), CLIENTS, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let fed = Federation::new(model, clients, &mut rng);
    (fed, rng)
}

fn config() -> QuickDropConfig {
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(6, 3, 16, 0.1);
    cfg
}

fn policy() -> GuardPolicy {
    // Generous enough that honest units pass the ladder's base rung
    // (rung 0) outright; the spike below overshoots any rung's budget.
    GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    }
}

/// One of the three clients is Byzantine: its ascents run at 10^6× the
/// configured LR, so any unit containing its request diverges at every
/// ladder rung (the per-rung halving cannot undo six orders of
/// magnitude) while honest subsets stay within budget.
fn spike_plan() -> FaultPlan {
    FaultPlan::new(5, 0.34)
        .with_kinds(vec![FaultKind::AscentSpike])
        .with_ascent_spike(1e6)
}

/// The Byzantine client index — stable in the fault plan's seed.
fn byzantine() -> usize {
    (0..CLIENTS)
        .find(|&c| spike_plan().fault_of(CLIENTS, c).is_some())
        .expect("the fault plan must pick exactly one Byzantine client")
}

/// All-client-request traffic (class_share 0) so poison is exactly the
/// Byzantine client's request and nothing else.
fn serve_config() -> ServeConfig {
    ServeConfig {
        tenants: 2,
        arrival_requests: 6,
        arrival_gap_us: 300,
        queue_cap: 8,
        coalesce: true,
        max_batch: 3,
        weights: vec![1],
        classes: 2,
        clients: CLIENTS,
        class_share: 0.0,
        ascent_cost_us: 400,
        recovery_cost_us: 900,
        seed: 42,
    }
}

/// Ladder + bisection, breakers off: every poison member is isolated
/// and quarantined, nothing is shed.
fn iso() -> IsolationConfig {
    IsolationConfig {
        unit_retries: 2,
        bisect: true,
        ..IsolationConfig::default()
    }
}

/// One ladder rung, bisection, and a breaker that trips on the first
/// quarantine and sheds for two units.
fn breaker_iso() -> IsolationConfig {
    IsolationConfig {
        unit_retries: 1,
        bisect: true,
        breaker_trip: 1,
        breaker_cooldown: 2,
    }
}

struct Paths {
    ckpt: PathBuf,
    journal: PathBuf,
}

fn paths(name: &str) -> Paths {
    let dir = std::env::temp_dir().join("qd_serve_poison_test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join(format!("{name}.json"));
    let journal = RequestJournal::path_for_checkpoint(&ckpt);
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&journal).ok();
    Paths { ckpt, journal }
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

/// The plan's shape, pre-verified to exercise every isolation path:
/// units with the poison request, at least one *coalesced* unit mixing
/// poison with honest members (bisection), and clean units.
struct Shape {
    plan: Plan,
    poison_units: Vec<usize>,
}

fn shape() -> Shape {
    let plan = build_plan(&serve_config()).unwrap();
    let poison = UnlearnRequest::Client(byzantine());
    let poison_units: Vec<usize> = plan
        .batches
        .iter()
        .enumerate()
        .filter(|(_, u)| u.members.contains(&poison))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !poison_units.is_empty(),
        "the mix must include the Byzantine client's request"
    );
    assert!(
        (plan.batches.iter())
            .any(|u| u.members.contains(&poison) && u.members.iter().any(|&m| m != poison)),
        "need a coalesced unit mixing poison and honest members"
    );
    assert!(
        plan.batches.iter().any(|u| !u.members.contains(&poison)),
        "need a clean unit"
    );
    Shape { plan, poison_units }
}

/// Train once (honestly — the spike only fires during ascent phases,
/// but keep the deployment snapshot clean on principle); every
/// scenario redeploys from this bit-exact snapshot.
struct PoisonSeed {
    ckpt: Checkpoint,
    rng: RngState,
}

fn poison_seed() -> PoisonSeed {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    PoisonSeed {
        ckpt: Checkpoint::capture(fed.global(), &qd),
        rng: rng.state(),
    }
}

/// A "process": fresh federation with the Byzantine fault plan armed,
/// model and engine from the snapshot.
fn deploy(seed: &PoisonSeed) -> (Federation, QuickDrop, Rng) {
    let (mut fed, _) = fresh_fed();
    fed.set_fault_plan(Some(spike_plan()));
    let (global, qd) = seed.ckpt.clone().restore().expect("snapshot restores");
    fed.set_global(global);
    (fed, qd, Rng::from_state(&seed.rng))
}

struct Terminal {
    records: Vec<JournalRecord<Snapshot>>,
    stats: ServeStats,
    dead_letter: Vec<UnlearnRequest>,
}

/// The unfailed degraded run: deploy, serve the whole poisoned plan
/// under `iso`, no kill.
fn unfailed(seed: &PoisonSeed, paths: &Paths, iso: &IsolationConfig) -> Terminal {
    let (mut fed, mut qd, mut rng) = deploy(seed);
    seed.ckpt.save_on(&StdFs, &paths.ckpt).unwrap();
    let mut journal = RequestJournal::open(&paths.journal).unwrap();
    let run = run_service_isolated(
        &mut qd,
        &mut fed,
        &mut journal,
        &serve_config(),
        Some(&policy()),
        iso,
        &mut rng,
        None,
    )
    .unwrap();
    assert!(!run.preempted);
    assert_eq!(run.resumed_units, 0);
    let compared = qd_core::check_lazy_snapshots(Arc::new(qd_core::StdFs), &paths.journal);
    assert_eq!(compared, Ok(journal.records().len()));
    Terminal {
        records: journal.records().to_vec(),
        stats: run.stats,
        dead_letter: run.dead_letter.requests(),
    }
}

/// Maps each RECEIVED sequence number to the plan unit that owns it
/// (RECEIVED frames land in plan order, member by member).
fn seq_units(plan: &Plan, records: &[JournalRecord<Snapshot>]) -> BTreeMap<u64, usize> {
    let mut map = BTreeMap::new();
    let (mut unit, mut member) = (0usize, 0usize);
    for r in records {
        if r.state == RequestState::Received {
            map.insert(r.seq, unit);
            member += 1;
            if member == plan.batches[unit].members.len() {
                unit += 1;
                member = 0;
            }
        }
    }
    map
}

#[test]
fn poisoned_mix_quarantines_exactly_the_byzantine_requests() {
    let shape = shape();
    let poison = UnlearnRequest::Client(byzantine());
    let seed = poison_seed();
    let t = unfailed(&seed, &paths("poison_unfailed"), &iso());

    // The dead-letter set is exactly the Byzantine client's request.
    assert_eq!(t.dead_letter, vec![poison]);

    // QUARANTINED records name only the poison request, once per unit
    // that contained it.
    let su = seq_units(&shape.plan, &t.records);
    let mut quarantined_units: Vec<usize> = t
        .records
        .iter()
        .filter(|r| r.state == RequestState::Quarantined)
        .map(|r| {
            assert_eq!(
                r.request, poison,
                "only the Byzantine request may be quarantined"
            );
            su[&r.seq]
        })
        .collect();
    quarantined_units.sort_unstable();
    quarantined_units.dedup();
    assert_eq!(quarantined_units, shape.poison_units);

    // Typed reasons: bisection blames the member inside coalesced
    // units; a whole-unit failure reports ladder exhaustion.
    for r in t
        .records
        .iter()
        .filter(|r| r.state == RequestState::Quarantined)
    {
        let unit = su[&r.seq];
        let expected = if shape.plan.batches[unit].members.len() > 1 {
            FailReason::PoisonMember
        } else {
            FailReason::RetriesExhausted
        };
        assert_eq!(r.reason, Some(expected), "reason at unit {unit}");
    }

    // Every non-poison member is served to RECOVERED.
    let recovered = t
        .records
        .iter()
        .filter(|r| r.state == RequestState::Recovered)
        .count();
    let total: usize = shape.plan.batches.iter().map(|u| u.members.len()).sum();
    assert_eq!(
        recovered,
        total - shape.poison_units.len(),
        "all survivors of bisection must be served"
    );
    assert!(
        !t.records.iter().any(|r| r.state == RequestState::Failed),
        "nothing is shed with breakers off"
    );

    // Stats fold: quarantined counts riders, served loses them, the
    // retried/bisected unit counters match the plan shape.
    let poison_riders: u64 = shape
        .poison_units
        .iter()
        .map(|&u| {
            let unit = &shape.plan.batches[u];
            let i = unit.members.iter().position(|&m| m == poison).unwrap();
            unit.riders[i].len() as u64
        })
        .sum();
    assert_eq!(t.stats.quarantined, poison_riders);
    assert_eq!(t.stats.shed, 0);
    assert_eq!(t.stats.served, t.stats.admitted - poison_riders);
    assert_eq!(t.stats.retried_units, shape.poison_units.len() as u64);
    assert!(
        t.stats.bisected_units >= 1,
        "the mixed unit must be bisected"
    );
    assert!(!t.stats.partial);
    assert!(t.stats.breaker.iter().all(|s| s == "closed"));

    // Quarantining never touches the model: every QUARANTINED record
    // re-certifies the state of the record preceding it.
    for (i, r) in t.records.iter().enumerate() {
        if r.state == RequestState::Quarantined && i > 0 {
            assert_bit_identical(&t.records[i - 1].global, &r.global);
        }
    }
}

#[test]
fn a_preempted_lifetime_reports_partial_stats_with_zeroed_slas() {
    let shape = shape();
    let seed = poison_seed();
    let paths = paths("poison_preempted");
    let (mut fed, mut qd, mut rng) = deploy(&seed);
    seed.ckpt.save_on(&StdFs, &paths.ckpt).unwrap();
    let mut journal = RequestJournal::open(&paths.journal).unwrap();
    // Die right after the first dead-letter write.
    let kill = ChaosKill {
        unit_index: shape.poison_units[0],
        boundary: BatchPreempt::Quarantined,
    };
    let run = run_service_isolated(
        &mut qd,
        &mut fed,
        &mut journal,
        &serve_config(),
        Some(&policy()),
        &iso(),
        &mut rng,
        Some(kill),
    )
    .unwrap();
    assert!(run.preempted, "the kill must fire");
    assert_eq!(run.executed_units as usize, kill.unit_index);
    assert!(run.stats.partial, "preempted stats must be partial");
    assert_eq!(run.stats.p50_latency_us, 0, "partial zeroes SLAs");
    assert_eq!(run.stats.makespan_us, 0, "partial zeroes SLAs");
    assert!(run.stats.pending > 0, "the rest of the plan is still owed");
    assert_eq!(
        run.dead_letter.requests(),
        vec![UnlearnRequest::Client(byzantine())],
        "the dead-letter set is journal-derived, so the dying process already reports it"
    );
}

#[test]
fn breaker_sheds_the_tripped_tenants_queue() {
    let poison = UnlearnRequest::Client(byzantine());
    let seed = poison_seed();
    let reference = unfailed(&seed, &paths("poison_breaker_ref"), &breaker_iso());

    // The first quarantine trips the owner's breaker; later units with
    // that tenant's members are shed to FAILED without burning probes.
    assert!(
        reference.stats.shed > 0,
        "the tripped tenant's queued members must be shed"
    );
    assert_eq!(
        reference.dead_letter,
        vec![poison],
        "shedding must not grow the dead-letter set"
    );
    for r in reference
        .records
        .iter()
        .filter(|r| r.state == RequestState::Failed)
    {
        assert_eq!(r.reason, Some(FailReason::Shed), "FAILED records are typed");
    }
}

/// The journal on `fs`, opened as it lies: the open decodes no snapshot,
/// and each one read afterwards is bit for bit the eager decode of the
/// same bytes. Every state the digest table pins goes through it.
fn assert_lazy_matches_eager(fs: &FaultFs) {
    let journal = PathBuf::from("svc.json.journal");
    let copy = Arc::new(FaultFs::new());
    copy.reset_to(fs.files());
    if copy.file(&journal).is_some() {
        qd_core::check_lazy_snapshots(copy, &journal).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// What one process of the plain service leaves behind, reduced to
/// CRC32s: every byte on the (fault-injectable) filesystem — checkpoint,
/// journal marker, every segment — the final model bits, and the
/// serialized [`ServeStats`].
fn files_digest(fs: &FaultFs) -> u32 {
    assert_lazy_matches_eager(fs);
    let mut bytes = Vec::new();
    for (path, data) in fs.files() {
        bytes.extend_from_slice(path.to_string_lossy().as_bytes());
        bytes.extend_from_slice(&(data.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&data);
    }
    crc32(&bytes)
}

fn model_digest(params: &[Tensor]) -> u32 {
    let bytes: Vec<u8> = params
        .iter()
        .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()))
        .collect();
    crc32(&bytes)
}

fn stats_digest(stats: &ServeStats) -> u32 {
    crc32(serde_json::to_string(stats).unwrap().as_bytes())
}

/// One "process" of the service on `fs`: deployment from the checkpoint
/// file, journal reopened, and the executor under `iso` — preceded, when
/// `resume`, by a caller-side `resume_requests` (redundant: the executor
/// finishes in-flight units itself; the oracle pins that it is harmless).
/// An active `iso` serves the poisoned mix: the Byzantine fault plan is
/// armed.
fn oracle_process(
    seed: &PoisonSeed,
    fs: &Arc<FaultFs>,
    cfg: &ServeConfig,
    policy: Option<&GuardPolicy>,
    iso: &IsolationConfig,
    kill: Option<ChaosKill>,
    resume: bool,
) -> (ServiceRun, Vec<Tensor>) {
    let ckpt_path = PathBuf::from("svc.json");
    let (mut fed, _) = fresh_fed();
    if iso.active() {
        fed.set_fault_plan(Some(spike_plan()));
    }
    let (global, mut qd) = Checkpoint::load_on(fs.as_ref(), &ckpt_path)
        .unwrap()
        .restore()
        .unwrap();
    fed.set_global(global);
    let mut rng = Rng::from_state(&seed.rng);
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let mut journal =
        RequestJournal::open_on(vfs, RequestJournal::path_for_checkpoint(&ckpt_path)).unwrap();
    if resume {
        qd.resume_requests(&mut fed, &mut journal, policy, &mut rng)
            .unwrap();
    }
    let run = run_service_isolated(
        &mut qd,
        &mut fed,
        &mut journal,
        cfg,
        policy,
        iso,
        &mut rng,
        kill,
    )
    .unwrap();
    assert_eq!(run.dead_letter.is_empty(), !iso.active());
    (run, fed.global().to_vec())
}

fn oracle_fs(seed: &PoisonSeed) -> Arc<FaultFs> {
    let fs = Arc::new(FaultFs::new());
    seed.ckpt
        .save_on(fs.as_ref(), &PathBuf::from("svc.json"))
        .unwrap();
    fs
}

/// Digests captured at the parent of the engine merge (PR 12), when the
/// plain service still had its own unit loop (`run_plain`) and
/// singletons their own state machine (`finish_from_received` /
/// `finish_from_unlearned`). The merged engine must reproduce every one
/// of them: zero re-pins. The `model` and `stats` rows are still those
/// captures; every row that hashes *files* (`*/files`, `*/kill-*`) moved
/// once when journal v4 / checkpoint v3 changed the bytes on disk, once
/// when journal v5 wrote repeated snapshots as back-references, once
/// when journal v6 wrote each UNLEARNED snapshot as a digest, once when
/// checkpoints stopped carrying the retired retry policy and sampling
/// slack, once when they stopped carrying the network config and each
/// phase's dropout, and once more when checkpoint v4 stored each
/// synthetic sample once — each time nothing else (DESIGN.md, "Durable
/// formats", re-pin policy).
/// The `breaker/*` and `ladder-bisect/*` rows pin two isolation-active
/// runs; they were captured while the executor still carried its own
/// tenant breaker type, before it drove qd-fed's `ClientHealth` (the
/// breaker run ends with one tenant OPEN and the other HALF-OPEN).
const ORACLE: &[(&str, u32)] = &[
    ("coalesced/files", 0x1ffa902b),
    ("coalesced/model", 0x03fb97af),
    ("coalesced/stats", 0xf9c166b2),
    ("singletons/files", 0xffacb6d2),
    ("singletons/model", 0x4291cba8),
    ("singletons/stats", 0x7d07faa3),
    ("unguarded/files", 0xb5dc4acf),
    ("unguarded/model", 0x03fb97af),
    ("unguarded/stats", 0xf9c166b2),
    ("serve-relearn/files", 0x14d89271),
    ("serve-relearn/model", 0xb30c90f7),
    ("coalesced/kill-single@received", 0x56d53d36),
    ("coalesced/kill-single@unlearned1", 0x8a1824e0),
    ("coalesced/kill-single@unlearned2", 0x8a1824e0),
    ("coalesced/kill-single@recovered", 0xa3043240),
    ("coalesced/kill-multi@received", 0x4df4558d),
    ("coalesced/kill-multi@unlearned1", 0x1c611b43),
    ("coalesced/kill-multi@unlearned2", 0x3bb7cb42),
    ("coalesced/kill-multi@recovered", 0x0694c2f4),
    ("singletons/kill-single@received", 0x77722d3e),
    ("singletons/kill-single@unlearned1", 0x69214eb3),
    ("singletons/kill-single@unlearned2", 0x69214eb3),
    ("singletons/kill-single@recovered", 0x94474c9e),
    ("breaker/files", 0x30c64e07),
    ("breaker/model", 0xb4b6263e),
    ("breaker/stats", 0x45393062),
    ("ladder-bisect/files", 0x25d68b45),
    ("ladder-bisect/model", 0x1f793fc2),
    ("ladder-bisect/stats", 0x62b07e7a),
];

#[test]
fn merged_engine_reproduces_the_parent_digests() {
    let seed = poison_seed();
    let mut actual: Vec<(String, u32)> = Vec::new();

    // (a) guarded coalesced mix, (b) singletons only, (c) unguarded.
    let coalesced = serve_config();
    let singletons = ServeConfig {
        coalesce: false,
        ..serve_config()
    };
    let guard = policy();
    let off = IsolationConfig::default();
    let scenarios: [(&str, &ServeConfig, Option<&GuardPolicy>); 3] = [
        ("coalesced", &coalesced, Some(&guard)),
        ("singletons", &singletons, Some(&guard)),
        ("unguarded", &coalesced, None),
    ];
    let mut unfailed = Vec::new();
    for (name, cfg, policy) in scenarios {
        let fs = oracle_fs(&seed);
        let (run, model) = oracle_process(&seed, &fs, cfg, policy, &off, None, false);
        assert!(!run.preempted);
        let digests = [
            files_digest(&fs),
            model_digest(&model),
            stats_digest(&run.stats),
        ];
        for (what, d) in ["files", "model", "stats"].iter().zip(digests) {
            actual.push((format!("{name}/{what}"), d));
        }
        unfailed.push(digests);
    }

    // (d) the request-at-a-time path: serve a class and a client request
    // through `serve_journaled`, then relearn the class.
    {
        let fs = oracle_fs(&seed);
        let (mut fed, _) = fresh_fed();
        let (global, mut qd) = seed.ckpt.clone().restore().unwrap();
        fed.set_global(global);
        let mut rng = Rng::from_state(&seed.rng);
        let vfs: Arc<dyn Vfs> = Arc::clone(&fs) as Arc<dyn Vfs>;
        let mut journal = RequestJournal::open_on(vfs, PathBuf::from("svc.json.journal")).unwrap();
        for request in [UnlearnRequest::Class(1), UnlearnRequest::Client(0)] {
            qd.serve_journaled(
                &mut fed,
                &mut journal,
                request,
                Some(&guard),
                &mut rng,
                None,
            )
            .unwrap()
            .into_complete()
            .expect("no preemption configured");
        }
        let phase = qd.config().relearn_phase;
        qd.relearn_journaled(
            &mut fed,
            &mut journal,
            UnlearnRequest::Class(1),
            &phase,
            &mut rng,
        )
        .unwrap();
        actual.push(("serve-relearn/files".to_string(), files_digest(&fs)));
        actual.push((
            "serve-relearn/model".to_string(),
            model_digest(fed.global()),
        ));
    }

    // (e) kill (a) and (b) at every in-unit boundary of a singleton unit
    // and of a multi-member unit; the bytes on disk at the kill are
    // pinned, and the CLI-style resume must land on the unfailed digests.
    let plan = build_plan(&coalesced).unwrap();
    let single_unit = plan
        .batches
        .iter()
        .position(|u| u.members.len() == 1)
        .expect("the coalesced plan needs a singleton unit");
    let multi_unit = plan
        .batches
        .iter()
        .position(|u| u.members.len() > 1)
        .expect("the coalesced plan needs a multi-member unit");
    let boundaries = [
        ("received", BatchPreempt::Received),
        ("unlearned1", BatchPreempt::Unlearned(1)),
        ("unlearned2", BatchPreempt::Unlearned(2)),
        ("recovered", BatchPreempt::Recovered),
    ];
    let kills = [
        (0usize, "single", single_unit),
        (0, "multi", multi_unit),
        (1, "single", 1),
    ];
    for (scenario, kind, unit_index) in kills {
        let (name, cfg, policy) = scenarios[scenario];
        for (label, boundary) in boundaries {
            let fs = oracle_fs(&seed);
            let kill = ChaosKill {
                unit_index,
                boundary,
            };
            let (run, _) = oracle_process(&seed, &fs, cfg, policy, &off, Some(kill), false);
            assert!(run.preempted, "{name}: {kind}@{label} must fire");
            actual.push((format!("{name}/kill-{kind}@{label}"), files_digest(&fs)));
            // Two ways back, one end state: `resume_requests` first (the
            // single-request CLI's resume — still legal here, and then a
            // no-op for the executor), or the executor alone.
            let killed = fs.files();
            for resume_first in [true, false] {
                fs.reset_to(killed.clone());
                let (run, model) =
                    oracle_process(&seed, &fs, cfg, policy, &off, None, resume_first);
                assert!(!run.preempted);
                assert_eq!(
                    [
                        files_digest(&fs),
                        model_digest(&model),
                        stats_digest(&run.stats)
                    ],
                    unfailed[scenario],
                    "{name}: resume after {kind}@{label} (resume_requests first: \
                     {resume_first}) must reach the unfailed digests"
                );
            }
        }
    }

    // (f) isolation active on the poisoned mix: the breaker's trip,
    // cooldown, shed and half-open decisions, and the ladder + bisection
    // quarantines, pinned by what they write.
    for (name, iso) in [("breaker", breaker_iso()), ("ladder-bisect", iso())] {
        let fs = oracle_fs(&seed);
        let (run, model) = oracle_process(&seed, &fs, &coalesced, Some(&guard), &iso, None, false);
        assert!(!run.preempted);
        let digests = [
            files_digest(&fs),
            model_digest(&model),
            stats_digest(&run.stats),
        ];
        for (what, d) in ["files", "model", "stats"].iter().zip(digests) {
            actual.push((format!("{name}/{what}"), d));
        }
    }

    let expected: Vec<(String, u32)> = ORACLE.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    if actual != expected {
        for (name, digest) in &actual {
            println!("    (\"{name}\", {digest:#010x}),");
        }
        panic!("digests moved from the parent-captured oracle (actual table printed above)");
    }
}
