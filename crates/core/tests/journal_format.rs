//! On-disk format acceptance for both durable artefacts: a pinned
//! version-6 journal segment and pinned version-4 checkpoints (mid-train
//! and deployment) that must parse bit-for-bit *and* be reproduced
//! byte-for-byte by today's writer, version-3 checkpoints read into their
//! version-4 form, typed refusals (file untouched) for every older format,
//! a corruption corpus (bad CRC, torn tail, unknown state tag, disk full,
//! a sealed checkpoint that is internally inconsistent) with the
//! documented recovery outcome for each, the O(1) append contract —
//! per-append Vfs ops and bytes must not grow with journal length — the
//! journal cost of an unlearn (one stored snapshot, at most 25 KB) and a
//! deployment checkpoint's (each synthetic sample once).
//!
//! The fixture files under `tests/fixtures/` are generated by the
//! `#[ignore]`d `regenerate_fixtures` test (`cargo test -p qd-core
//! --test journal_format regenerate -- --ignored`) and checked in; the
//! reading tests compare against independently constructed expected
//! values, so a reader regression cannot hide behind a regenerated
//! fixture.

use qd_core::{
    frame, storage_cause, BatchId, Checkpoint, CheckpointError, FailReason, FaultFs, JournalError,
    JournalRecord, MidPhase, QuickDrop, QuickDropConfig, RequestJournal, RequestState, Snapshot,
    Vfs, JOURNAL_MAGIC,
};
use qd_data::{partition_iid, Dataset, SyntheticDataset};
use qd_distill::SyntheticSet;
use qd_fed::{Federation, GuardState, HealthState, Phase, ResumeState};
use qd_nn::{ConvNet, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::{GuardStats, UnlearnRequest};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Scalars a decimal-text detour would mangle: a NaN with a payload, the
/// negative zero, an infinity, the smallest subnormal.
fn salt() -> [f32; 4] {
    [
        f32::from_bits(0x7fc0_0123),
        -0.0,
        f32::NEG_INFINITY,
        f32::from_bits(1),
    ]
}

/// A deterministic record whose every field is exactly representable,
/// so the pinned bytes and the in-memory reconstruction agree
/// bit-for-bit.
fn record(seq: u64, state: RequestState, batch: Option<BatchId>) -> JournalRecord {
    let request = if seq.is_multiple_of(2) {
        UnlearnRequest::Class(seq as usize % 10)
    } else {
        UnlearnRequest::Client(seq as usize % 3)
    };
    JournalRecord {
        seq,
        request,
        state,
        rng: Rng::seed_from(seq * 31 + 7).state(),
        global: vec![Tensor::from_vec(vec![seq as f32 * 0.5, -1.25, 3.0], &[3])],
        guard: (state != RequestState::Received).then_some(GuardStats {
            steps: 1,
            rollbacks: 0,
            lr_halvings: 0,
            final_drift: 0.25,
        }),
        batch,
        reason: None,
    }
}

/// The commits pinned in `journal_v6.bin` (the bytes of segment 0): a
/// served singleton, a coalesced batch whose two RECEIVED records share
/// one frame and one model, a dead-lettered member, a diverged unit full
/// of values only a raw-bits body keeps, and the next request's RECEIVED.
///
/// - Derived (a digest, no model): both UNLEARNED records.
/// - Back-references, each to the last *stored* record: the RECOVERED
///   after its RECEIVED (across commits), the second batch member (inside
///   a commit), and the QUARANTINED member, whose model is the RECEIVED
///   set's — across the derived UNLEARNED between them.
/// - Inline: the first three RECEIVED; the diverged RECOVERED, whose
///   model repeats the derived UNLEARNED's and differs from the last
///   stored one only in a NaN payload; the RELEARNED; and a NaN-free
///   RECEIVED that differs from the RELEARNED only in the sign of a zero
///   (which `f32 ==` calls equal).
fn expected_v6() -> Vec<Vec<JournalRecord>> {
    let batch = Some(BatchId(0));
    let diverged = |salt: [f32; 4]| {
        vec![
            Tensor::from_vec(salt.to_vec(), &[2, 2]),
            Tensor::scalar(f32::INFINITY),
            Tensor::zeros(&[0, 3]),
        ]
    };
    let [_, _, inf, tiny] = salt();
    let renan = [f32::from_bits(0x7fc0_0124), -0.0, inf, tiny];
    vec![
        vec![record(0, RequestState::Received, None)],
        vec![record(0, RequestState::Recovered, None)],
        vec![
            record(1, RequestState::Received, batch),
            JournalRecord {
                global: record(1, RequestState::Received, batch).global,
                ..record(2, RequestState::Received, batch)
            },
        ],
        vec![record(1, RequestState::Unlearned, batch)],
        vec![JournalRecord {
            global: record(1, RequestState::Received, batch).global,
            reason: Some(FailReason::PoisonMember),
            ..record(2, RequestState::Quarantined, batch)
        }],
        vec![JournalRecord {
            global: diverged(salt()),
            ..record(3, RequestState::Received, None)
        }],
        vec![JournalRecord {
            global: diverged(renan),
            ..record(3, RequestState::Unlearned, None)
        }],
        vec![JournalRecord {
            global: diverged(renan),
            ..record(3, RequestState::Recovered, None)
        }],
        vec![JournalRecord {
            global: diverged([1.0, -0.0, inf, tiny]),
            ..record(3, RequestState::Relearned, None)
        }],
        vec![JournalRecord {
            global: diverged([1.0, 0.0, inf, tiny]),
            ..record(4, RequestState::Received, None)
        }],
    ]
}

/// `records` as the journal reads them back: a derived record's `global`
/// is empty.
fn as_read(records: &[JournalRecord]) -> Vec<JournalRecord> {
    (records.iter())
        .map(|r| JournalRecord {
            global: if r.state.is_derived() {
                Vec::new()
            } else {
                r.global.clone()
            },
            ..r.clone()
        })
        .collect()
}

/// The digest journal v6 documents for a derived record, computed here
/// independently of the writer: CRC32 over each tensor's rank and dims
/// (u64) and then its scalars' bits, all little-endian.
fn documented_digest(global: &[Tensor]) -> u32 {
    let mut bytes = Vec::new();
    for t in global {
        bytes.extend((t.dims().len() as u64).to_le_bytes());
        for &d in t.dims() {
            bytes.extend((d as u64).to_le_bytes());
        }
        for x in t.data() {
            bytes.extend(x.to_bits().to_le_bytes());
        }
    }
    qd_core::vfs::crc32(&bytes)
}

/// How often `pattern` occurs in `bytes`.
fn occurrences(bytes: &[u8], pattern: &[u8]) -> usize {
    (bytes.windows(pattern.len()))
        .filter(|w| w == &pattern)
        .count()
}

/// How many records in the segment bytes are back-references.
fn references_in(segment: &[u8]) -> usize {
    occurrences(segment, b"\"global\":null")
}

/// How many records in the segment bytes are derived.
fn derived_in(segment: &[u8]) -> usize {
    occurrences(segment, b"\"global\":{\"crc32\":")
}

/// How many snapshots the segment bytes hold inline.
fn inline_in(segment: &[u8]) -> usize {
    occurrences(segment, b"\"global\":[")
}

/// The mid-training checkpoint pinned in `checkpoint_v4.bin`: every
/// field populated with exactly representable (or deliberately hostile)
/// values, built without running any training.
fn expected_checkpoint() -> Checkpoint {
    let data = Dataset::new(vec![0.5, -2.0, 0.25, 8.0], vec![0, 2], 3, 1, 1, 2);
    let mut set = SyntheticSet::init_from_real(&data, 1, &mut Rng::seed_from(1));
    set.set_class_samples(2, Tensor::from_vec(salt().to_vec(), &[2, 1, 1, 2]));
    let config = QuickDropConfig::scaled_test();
    let mid = MidPhase {
        phase: config.train_phase,
        cursor: ResumeState {
            next_round: 2,
            rng: Rng::seed_from(3).state(),
            guard: GuardState {
                violations: vec![0, 2],
                quarantined: [1].into_iter().collect(),
            },
            health: HealthState::default(),
        },
        trainer_synthetic: vec![None, Some(set)],
        trainer_round_robin: vec![0, 4],
    };
    let global = vec![
        Tensor::from_vec(vec![1.5, -0.75, 0.0, 1024.0, -3.0, 0.125], &[2, 3]),
        Tensor::from_vec(salt().to_vec(), &[4]),
    ];
    Checkpoint::capture_mid_train(&global, &config, mid)
}

/// The deployment pinned in `deployment_v4.bin`: the mid-training
/// fixture's model and config serving two clients — their synthetic sets
/// (hostile scalars included) and the real halves of their recovery
/// sets — with class 1 forgotten. Built as a value, without training.
fn expected_deployment() -> Checkpoint {
    let data = Dataset::new(
        vec![0.5, -2.0, 0.25, 8.0, 1.0, 3.5],
        vec![0, 2, 2],
        3,
        1,
        1,
        2,
    );
    let mut first = SyntheticSet::init_from_real(&data, 1, &mut Rng::seed_from(1));
    first.set_class_samples(2, Tensor::from_vec(salt().to_vec(), &[2, 1, 1, 2]));
    let second = SyntheticSet::init_from_real(&data, 2, &mut Rng::seed_from(2));
    let reals = vec![
        Dataset::new(
            vec![0.5, -2.0, 1.0, 3.5, 0.25, 8.0],
            vec![0, 2, 2],
            3,
            1,
            1,
            2,
        ),
        Dataset::new(vec![1.0, 3.5], vec![2], 3, 1, 1, 2),
    ];
    let mut value = expected_checkpoint().to_value();
    *entry(&mut value, "synthetic") = vec![first, second].to_value();
    *entry(&mut value, "recovery_real") = reals.to_value();
    *entry(&mut value, "unlearned_classes") = Value::Seq(vec![Value::U64(1)]);
    *entry(&mut value, "mid_phase") = Value::Null;
    Deserialize::from_value(&value).expect("a deployment value")
}

/// The value under `key` in the object `value`.
fn entry<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(entries) = value else {
        panic!("`{key}`: not an object");
    };
    let at = entries.iter().position(|(k, _)| k == key);
    &mut entries[at.unwrap_or_else(|| panic!("no `{key}`"))].1
}

/// Item `i` of the array `value`.
fn item(value: &mut Value, i: usize) -> &mut Value {
    let Value::Seq(items) = value else {
        panic!("item {i}: not an array");
    };
    &mut items[i]
}

/// A checkpoint file holding `value` under `magic`, sealed as the writer
/// seals one.
fn sealed_file(magic: &[u8], value: &Value) -> Vec<u8> {
    [magic, &frame::seal(&frame::encode(value)).unwrap()].concat()
}

/// Serializes `records` in the single-JSON-document layout of journal
/// versions 1 and 2, which this build must refuse by number. Version 1
/// predates the `batch` field, so its records have the key stripped,
/// exactly as old builds wrote them.
fn legacy_json(version: u32, records: &[JournalRecord]) -> String {
    let records = records
        .iter()
        .map(|r| {
            let Value::Map(mut entries) = r.to_value() else {
                panic!("record serializes as a map");
            };
            entries.retain(|(k, _)| k != "reason" && (version > 1 || k != "batch"));
            Value::Map(entries)
        })
        .collect();
    let file = Value::Map(vec![
        ("version".to_string(), Value::U64(u64::from(version))),
        ("records".to_string(), Value::Seq(records)),
    ]);
    serde_json::to_string(&file).expect("legacy journal serializes")
}

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn fixture(name: &str) -> Vec<u8> {
    std::fs::read(fixture_path(name))
        .unwrap_or_else(|e| panic!("pinned fixture {name} must be checked in: {e}"))
}

/// What today's writer puts in segment 0 for `commits`.
fn written_segment(commits: &[Vec<JournalRecord>]) -> Vec<u8> {
    let path = PathBuf::from("svc.journal");
    let fs = Arc::new(FaultFs::new());
    let mut journal = open(&fs, &path).expect("fresh journal opens");
    for commit in commits {
        journal.append_all(commit.clone()).expect("append");
    }
    assert_eq!(fs.file(&path).as_deref(), Some(&JOURNAL_MAGIC[..]));
    fs.file(&qd_core::segment_path(&path, 0))
        .expect("segment 0")
}

/// What today's writer puts on disk for `ckpt`.
fn written_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let fs = FaultFs::new();
    let path = Path::new("deploy.json");
    ckpt.save_on(&fs, path).expect("save");
    fs.file(path).expect("checkpoint file")
}

/// Regenerates the pinned fixtures. Ignored by default: the point of
/// pinning is that the checked-in bytes do NOT change under normal
/// development.
#[test]
#[ignore = "rewrites the pinned fixtures; run explicitly on an intentional format change"]
fn regenerate_fixtures() {
    std::fs::create_dir_all(fixture_path("")).unwrap();
    std::fs::write(
        fixture_path("journal_v6.bin"),
        written_segment(&expected_v6()),
    )
    .unwrap();
    std::fs::write(
        fixture_path("checkpoint_v4.bin"),
        written_checkpoint(&expected_checkpoint()),
    )
    .unwrap();
    std::fs::write(
        fixture_path("deployment_v4.bin"),
        written_checkpoint(&expected_deployment()),
    )
    .unwrap();
}

fn assert_same_tensors(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.shape(), y.shape());
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

fn assert_same_records<G, H>(expected: &[JournalRecord<G>], got: &[JournalRecord<H>])
where
    G: Deref<Target = [Tensor]>,
    H: Deref<Target = [Tensor]>,
{
    assert_eq!(expected.len(), got.len(), "record count diverged");
    for (a, b) in expected.iter().zip(got) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.request, b.request);
        assert_eq!(a.state, b.state);
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.reason, b.reason);
        assert_eq!(a.rng, b.rng, "RNG state diverged at {} {}", a.seq, a.state);
        assert_eq!(a.guard, b.guard);
        assert_same_tensors(&a.global, &b.global);
    }
}

/// Loads fixture bytes into a fresh in-memory filesystem at `path`.
fn fs_with(path: &Path, bytes: Vec<u8>) -> Arc<FaultFs> {
    let fs = Arc::new(FaultFs::new());
    fs.reset_to(BTreeMap::from([(path.to_path_buf(), bytes)]));
    fs
}

fn open(fs: &Arc<FaultFs>, path: &Path) -> Result<RequestJournal, JournalError> {
    RequestJournal::open_on(Arc::clone(fs) as Arc<dyn Vfs>, path)
}

/// The differential every journal this suite writes goes through: opened
/// as it lies, no snapshot is decoded, and each one read afterwards is
/// bit for bit the eager decode of the same bytes, record by record.
/// Returns how many records were compared.
fn assert_lazy_matches_eager(fs: &Arc<FaultFs>, path: &Path) -> usize {
    let vfs = Arc::clone(fs) as Arc<dyn Vfs>;
    qd_core::check_lazy_snapshots(vfs, path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn pinned_v6_journal_parses_bit_for_bit_and_the_writer_reproduces_it() {
    let pinned = fixture("journal_v6.bin");
    let expected = expected_v6();
    let path = PathBuf::from("svc.journal");
    let seg = qd_core::segment_path(&path, 0);
    let fs = Arc::new(FaultFs::new());
    fs.reset_to(BTreeMap::from([
        (path.clone(), JOURNAL_MAGIC.to_vec()),
        (seg.clone(), pinned.clone()),
    ]));

    let mut journal = open(&fs, &path).expect("pinned fixture parses");
    let flat: Vec<JournalRecord> = expected.iter().flatten().cloned().collect();
    assert_eq!(assert_lazy_matches_eager(&fs, &path), flat.len());
    assert_same_records(&as_read(&flat), journal.records());
    for (i, r) in flat.iter().enumerate() {
        let digest = r.state.is_derived().then(|| documented_digest(&r.global));
        assert_eq!(
            journal.digest(i),
            digest,
            "record {i}: {} {}",
            r.seq,
            r.state
        );
    }
    assert!(journal.repairs().is_empty(), "nothing to repair");
    assert_eq!(
        (
            references_in(&pinned),
            derived_in(&pinned),
            inline_in(&pinned)
        ),
        (3, 2, 6),
        "RECOVERED after RECEIVED, the second batch member and the QUARANTINED one repeat the \
         last stored model; a flipped zero sign or NaN payload does not; UNLEARNED is derived"
    );
    assert_eq!(
        fs.file(&seg).as_deref(),
        Some(&pinned[..]),
        "opening a healthy journal rewrites nothing"
    );

    // The writer is pinned too: the same commits encode to the same bytes.
    assert!(
        written_segment(&expected) == pinned,
        "today's writer no longer produces journal_v6.bin"
    );

    // And the pinned journal accepts appends.
    let extra = record(90, RequestState::Received, None);
    journal
        .append(extra.clone())
        .expect("append to the pinned journal");
    let reopened = open(&fs, &path).expect("reopen after append");
    assert_same_records(&as_read(&[flat, vec![extra]].concat()), reopened.records());
    assert_lazy_matches_eager(&fs, &path);
}

#[test]
fn pinned_v4_checkpoint_parses_bit_for_bit_and_the_writer_reproduces_it() {
    let pinned = fixture("checkpoint_v4.bin");
    let expected = expected_checkpoint();
    let path = PathBuf::from("deploy.json");
    let fs = fs_with(&path, pinned.clone());
    let loaded = Checkpoint::load_on(fs.as_ref(), &path).expect("pinned fixture parses");

    assert_eq!(loaded.version, 4);
    assert_same_tensors(&expected.global, &loaded.global);
    let (want, got) = (
        expected.mid_phase().expect("built mid-train"),
        loaded.mid_phase().expect("mid-phase cursor survives"),
    );
    assert_eq!(want.phase, got.phase);
    assert_eq!(want.cursor.next_round, got.cursor.next_round);
    assert_eq!(want.cursor.rng, got.cursor.rng);
    assert_eq!(want.cursor.guard, got.cursor.guard);
    assert_eq!(want.cursor.health, got.cursor.health);
    assert_eq!(want.trainer_round_robin, got.trainer_round_robin);
    assert!(got.trainer_synthetic[0].is_none());
    let (want, got) = (
        want.trainer_synthetic[1].as_ref().expect("built"),
        got.trainer_synthetic[1].as_ref().expect("set survives"),
    );
    assert_eq!(want.sample_dims(), got.sample_dims());
    assert_eq!(want.owned_classes(), got.owned_classes());
    for class in want.owned_classes() {
        assert_same_tensors(
            std::slice::from_ref(want.class_samples(class).expect("owned")),
            std::slice::from_ref(got.class_samples(class).expect("owned")),
        );
    }

    // Byte-stable both ways: what was read re-saves to the pinned bytes
    // (so every bit of the file was carried through), and so does the
    // independently built checkpoint (so the writer is pinned).
    assert!(
        written_checkpoint(&loaded) == pinned,
        "load → save changed bytes"
    );
    assert!(
        written_checkpoint(&expected) == pinned,
        "today's writer no longer produces checkpoint_v4.bin"
    );
    assert_eq!(
        fs.file(&path).as_deref(),
        Some(&pinned[..]),
        "loading rewrites nothing"
    );
}

/// The pinned deployment: it restores into a servable system that
/// captures back to the same bytes — synthetic sets, recovery reals and
/// marks to the bit — and today's writer reproduces the file.
#[test]
fn pinned_v4_deployment_parses_bit_for_bit_and_the_writer_reproduces_it() {
    let pinned = fixture("deployment_v4.bin");
    let expected = expected_deployment();
    let path = PathBuf::from("deploy.json");
    let fs = fs_with(&path, pinned.clone());
    let loaded = Checkpoint::load_on(fs.as_ref(), &path).expect("pinned fixture parses");
    assert_eq!(loaded.version, 4);
    assert!(
        written_checkpoint(&loaded) == pinned,
        "load → save changed bytes"
    );
    assert!(
        written_checkpoint(&expected) == pinned,
        "today's writer no longer produces deployment_v4.bin"
    );
    let (params, qd) = loaded.restore().expect("a deployment restores");
    assert_same_tensors(&expected.global, &params);
    assert_eq!(qd.synthetic_sets().len(), 2);
    assert_eq!(qd.unlearned_classes().collect::<Vec<_>>(), vec![1]);
    assert!(
        written_checkpoint(&Checkpoint::capture(&params, &qd)) == pinned,
        "restore → capture changed bytes"
    );
    assert_eq!(fs.file(&path), Some(pinned), "loading rewrites nothing");
}

/// A checkpoint whose CRC verifies but whose contents contradict
/// themselves is a typed `Format` error at load, with the file left as it
/// was — never a panic at first use, and never served. Before datasets,
/// tensors and synthetic sets were read through their constructors'
/// checks, a label past the class count panicked the first request, and
/// a label missing from the buffer served it. (A stored class index past
/// the buffer panicked too; the index is no longer stored, but rebuilt
/// from the labels.)
#[test]
fn a_sealed_but_inconsistent_checkpoint_is_a_typed_format_error() {
    type Damage = fn(&mut Value);
    let deployment = expected_deployment().to_value();
    let cases: [(&str, Damage, &str); 7] = [
        (
            "label past the class count",
            |v| *item(entry(item(entry(v, "recovery_real"), 0), "labels"), 0) = Value::U64(99),
            "label 99 out of range for 3 classes",
        ),
        (
            "one label fewer than the buffer holds",
            |v| {
                let Value::Seq(labels) = entry(item(entry(v, "recovery_real"), 0), "labels") else {
                    panic!("labels are an array");
                };
                labels.pop();
            },
            "image buffer 6 does not hold 2 samples",
        ),
        (
            "tensor shape and buffer length disagree",
            |v| *entry(item(entry(v, "global"), 0), "shape") = Value::Seq(vec![Value::U64(3); 2]),
            "buffer of 6 elements does not fit shape",
        ),
        (
            "synthetic class tensor of another geometry",
            |v| *entry(item(entry(v, "synthetic"), 1), "width") = Value::U64(3),
            "not (m, 1, 1, 3)",
        ),
        (
            "fewer recovery sets than synthetic sets",
            |v| {
                let Value::Seq(sets) = entry(v, "recovery_real") else {
                    panic!("recovery_real is an array");
                };
                sets.pop();
            },
            "1 recovery sets for 2 synthetic sets",
        ),
        (
            "recovery set of another class count",
            |v| *entry(item(entry(v, "recovery_real"), 1), "classes") = Value::U64(4),
            "client 1's recovery set has (C, H, W) and classes",
        ),
        (
            "synthetic set of another class count",
            |v| {
                let Value::Seq(per_class) = entry(item(entry(v, "synthetic"), 1), "per_class")
                else {
                    panic!("per_class is an array");
                };
                per_class.push(Value::Null);
            },
            "client 1's synthetic set has (C, H, W) and classes",
        ),
    ];
    for (what, damage, needle) in cases {
        let mut value = deployment.clone();
        damage(&mut value);
        let path = PathBuf::from("deploy.json");
        let fs = fs_with(&path, sealed_file(b"QDC4\n", &value));
        let before = fs.files();
        let err = Checkpoint::load_on(fs.as_ref(), &path).expect_err(what);
        let msg = err.to_string();
        assert!(
            matches!(err, CheckpointError::Format { .. }) && msg.contains(needle),
            "{what}: {msg}"
        );
        assert_eq!(fs.files(), before, "{what}: the refusal wrote something");
    }
}

/// The bytes the duplicate cost: a trained deployment's checkpoint body
/// holds exactly the global model, the synthetic sets and the real
/// halves of the recovery sets — every synthetic sample once — where
/// version 3 held the synthetic samples a second time.
#[test]
fn a_deployment_checkpoint_stores_each_synthetic_sample_once() {
    let mut rng = Rng::seed_from(5);
    let model: Arc<dyn Module> = Arc::new(ConvNet::scaled_default(3, 10));
    let data = SyntheticDataset::Cifar.generate(60, &mut rng);
    let parts = partition_iid(data.len(), 2, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let mut fed = Federation::new(model, clients, &mut rng);
    let mut config = QuickDropConfig::scaled_test();
    config.train_phase = Phase::training(1, 2, 16, 0.1);
    config.distill.scale = 5;
    let (qd, _) = QuickDrop::train(&mut fed, config, &mut rng);
    let file = written_checkpoint(&Checkpoint::capture(fed.global(), &qd));

    let floats = |v: &Value| -> usize {
        fn walk(v: &Value) -> usize {
            match v {
                Value::F32s(xs) => xs.len(),
                Value::Seq(items) => items.iter().map(walk).sum(),
                Value::Map(entries) => entries.iter().map(|(_, v)| walk(v)).sum(),
                _ => 0,
            }
        }
        walk(v)
    };
    let mut value = frame::decode(&file[5 + 8..]).expect("a frame");
    let global: usize = fed.global().iter().map(Tensor::len).sum();
    let sample = 3 * 16 * 16;
    let synthetic: usize = qd.synthetic_sets().iter().map(|s| s.len() * sample).sum();
    let real = floats(entry(&mut value, "recovery_real"));
    assert_eq!(floats(entry(&mut value, "synthetic")), synthetic);
    assert!(
        real > 0 && real <= synthetic,
        "the real half mixes in at most one real sample per synthetic one: {real} vs {synthetic}"
    );
    assert_eq!(
        floats(&value),
        global + synthetic + real,
        "the body stores a float array beyond global + synthetic + recovery_real"
    );
}

/// Every format this build does not read is refused *by number*, and
/// the refused files stay byte-for-byte where they were — there is no
/// migration to half-finish.
#[test]
fn older_formats_are_refused_by_version_and_left_untouched() {
    let path = PathBuf::from("svc.journal");
    let flat: Vec<JournalRecord> = expected_v6().into_iter().flatten().take(4).collect();

    // Journals: the v1/v2 JSON documents, and v3/v4/v5 markers with a segment.
    let seg = qd_core::segment_path(&path, 0);
    let journals = [
        (1, legacy_json(1, &flat).into_bytes(), None),
        (2, legacy_json(2, &flat).into_bytes(), None),
        (3, b"QDJ3\n".to_vec(), Some(b"v3 commits".to_vec())),
        (4, b"QDJ4\n".to_vec(), Some(b"v4 commits".to_vec())),
        (5, b"QDJ5\n".to_vec(), Some(b"v5 commits".to_vec())),
    ];
    for (expected, marker, segment) in journals {
        let fs = fs_with(&path, marker);
        if let Some(bytes) = segment {
            fs.append(&seg, &bytes).expect("plant the old segment");
            fs.fsync(&seg).expect("make it durable");
        }
        let before = fs.files();
        let err = open(&fs, &path).expect_err("an old journal must not open");
        let msg = err.to_string();
        let JournalError::UnsupportedVersion { path: p, version } = err else {
            panic!("v{expected}: expected UnsupportedVersion, got {msg}");
        };
        assert_eq!((p, version), (path.clone(), expected));
        assert!(
            msg.contains("svc.journal")
                && msg.contains(&format!("version {expected} is not supported")),
            "{msg}"
        );
        assert_eq!(
            fs.files(),
            before,
            "v{expected}: the refusal wrote something"
        );
    }

    // A file that is no journal at all is a Format error, not a version.
    let fs = fs_with(&path, b"{\"records\": []}".to_vec());
    let err = open(&fs, &path).expect_err("versionless JSON is not a journal");
    assert!(matches!(err, JournalError::Format { .. }), "{err}");

    // Checkpoints: the version-1 and version-2 JSON text of the very
    // same checkpoint, and its sealed version-3 file.
    let ckpt_path = PathBuf::from("deploy.json");
    for old in [1, 2, 3] {
        let mut value = expected_checkpoint().to_value();
        *entry(&mut value, "version") = Value::U64(old);
        let file = match old {
            3 => sealed_file(b"QDC3\n", &value),
            _ => serde_json::to_string(&value)
                .expect("serializes")
                .into_bytes(),
        };
        let fs = fs_with(&ckpt_path, file);
        let before = fs.files();
        let err = Checkpoint::load_on(fs.as_ref(), &ckpt_path).expect_err("an old checkpoint");
        let msg = err.to_string();
        let CheckpointError::UnsupportedVersion { path: p, version } = err else {
            panic!("expected UnsupportedVersion, got {msg}");
        };
        assert_eq!(
            (p, version),
            (ckpt_path.clone(), u32::try_from(old).unwrap())
        );
        assert!(
            msg.contains("deploy.json") && msg.contains("re-capture"),
            "{msg}"
        );
        // With no `.prev` generation the fallback loader reports the same.
        let err = Checkpoint::load_with_fallback_on(fs.as_ref(), &ckpt_path).expect_err("no prev");
        assert!(matches!(
            err,
            CheckpointError::UnsupportedVersion { version: v, .. } if u64::from(v) == old
        ));
        assert_eq!(fs.files(), before, "the refusal wrote something");
    }
}

/// Builds a five-record journal and returns the filesystem plus the
/// records it holds.
fn small_journal(path: &Path) -> (Arc<FaultFs>, Vec<JournalRecord>) {
    let fs = Arc::new(FaultFs::new());
    let mut journal = open(&fs, path).expect("fresh journal opens");
    let mut records = Vec::new();
    for seq in 0..5 {
        let rec = record(seq, RequestState::Received, None);
        journal.append(rec.clone()).expect("append");
        records.push(rec);
    }
    (fs, records)
}

#[test]
fn bad_crc_away_from_the_tail_is_a_typed_corrupt_record_error() {
    let path = PathBuf::from("svc.journal");
    let (fs, _) = small_journal(&path);
    let seg = qd_core::segment_path(&path, 0);
    // Flip a bit inside the FIRST frame's body: committed, not the tail.
    assert!(fs.corrupt(&seg, 12, 0x40), "segment byte exists");
    let err = open(&fs, &path).expect_err("in-place corruption must refuse to open");
    let JournalError::CorruptRecord {
        path: p, offset, ..
    } = err
    else {
        panic!("expected CorruptRecord, got {err:?}");
    };
    assert_eq!(p, seg, "error names the damaged segment");
    assert_eq!(offset, 0, "the corrupt frame starts the segment");
    let msg = JournalError::CorruptRecord {
        path: p,
        offset,
        detail: "CRC mismatch".into(),
    }
    .to_string();
    assert!(msg.contains("corrupt record"), "{msg}");
}

#[test]
fn torn_tail_is_strict_error_or_silent_repair_and_appends_resume() {
    let path = PathBuf::from("svc.journal");
    let (fs, records) = small_journal(&path);
    let seg = qd_core::segment_path(&path, 0);
    let full = fs.file(&seg).expect("segment exists").len();
    // Tear the last commit: drop 3 bytes off the tail, the shape a
    // crash mid-append leaves.
    assert!(fs.truncate(&seg, full - 3));

    // Strict open surfaces the typed error with the repair point.
    let err = RequestJournal::open_strict_on(Arc::clone(&fs) as Arc<dyn Vfs>, &path)
        .expect_err("strict open must surface the torn tail");
    let JournalError::TornTail {
        path: p,
        offset,
        trailing,
    } = err
    else {
        panic!("expected TornTail, got {err:?}");
    };
    assert_eq!(p, seg);
    assert!(offset < full - 3, "valid prefix ends before the tear");
    assert_eq!(trailing, (full - 3) - offset, "all torn bytes counted");

    // Repair-mode open truncates to the last valid commit and reports
    // the repair; exactly the final record is lost.
    let mut journal = open(&fs, &path).expect("repair-mode open succeeds");
    assert_same_records(&records[..4], journal.records());
    assert_eq!(journal.repairs().len(), 1);
    let repair = &journal.repairs()[0];
    assert_eq!(repair.segment, seg);
    assert_eq!(repair.valid_len, offset);
    assert_eq!(repair.dropped_bytes, trailing);
    assert_eq!(
        fs.file(&seg).expect("segment").len(),
        offset,
        "the torn bytes are physically gone"
    );

    // The journal is fully writable again: re-append the lost record.
    journal
        .append(records[4].clone())
        .expect("append after repair");
    let reopened = open(&fs, &path).expect("reopen after repair + append");
    assert_same_records(&records, reopened.records());
    assert_eq!(fs.file(&seg).expect("segment").len(), full);
}

#[test]
fn bad_crc_on_the_final_frame_gets_crash_benefit_of_the_doubt() {
    let path = PathBuf::from("svc.journal");
    let (fs, records) = small_journal(&path);
    let seg = qd_core::segment_path(&path, 0);
    let full = fs.file(&seg).expect("segment exists").len();
    // Corrupt the last byte of the file — inside the final frame's
    // body. Indistinguishable from a torn write of that frame, so the
    // open repairs rather than refuses.
    assert!(fs.corrupt(&seg, full - 1, 0x01));
    let journal = open(&fs, &path).expect("final-frame damage repairs");
    assert_same_records(&records[..4], journal.records());
    assert_eq!(journal.repairs().len(), 1);
}

#[test]
fn unknown_state_tags_in_commits_are_refused() {
    let path = PathBuf::from("svc.journal");
    let (fs, _) = small_journal(&path);
    let seg = qd_core::segment_path(&path, 0);

    // Hand-craft a valid frame whose record is in a state only a newer
    // build knows, and append it with correct length and CRC.
    let frame = crafted_commit(9, "state", Value::Str("Vaporized".to_string()));
    fs.append(&seg, &frame).expect("append crafted frame");
    fs.fsync(&seg).expect("fsync crafted frame");

    let err = open(&fs, &path).expect_err("unknown state tag must refuse to open");
    let JournalError::UnknownState { seq, ref tag, .. } = err else {
        panic!("expected UnknownState, got {err:?}");
    };
    assert_eq!(seq, 9);
    assert_eq!(tag, "Vaporized");
}

/// A one-record commit, sealed with a correct length and CRC, whose
/// record is `record(seq, RECEIVED)` with `key` set to `value`.
fn crafted_commit(seq: u64, key: &str, value: Value) -> Vec<u8> {
    let Value::Map(mut entries) = record(seq, RequestState::Received, None).to_value() else {
        panic!("record serializes as a map");
    };
    for (k, v) in &mut entries {
        if k == key {
            *v = value.clone();
        }
    }
    let rec = frame::encode(&Value::Map(entries));
    let mut body = Vec::new();
    body.extend_from_slice(&1u32.to_le_bytes());
    body.extend_from_slice(&u32::try_from(rec.len()).unwrap().to_le_bytes());
    body.extend_from_slice(&rec);
    frame::seal(&body).expect("small commit")
}

/// Version 6 stores a digest on exactly the derived records: a digest on
/// a RECEIVED record would lose its model, and a model on an UNLEARNED
/// one is what no writer of this version produces. Both are typed
/// corruption, found by a strict open too, and nothing is written.
#[test]
fn a_digest_on_a_stored_state_or_a_model_on_a_derived_one_is_corrupt() {
    let path = PathBuf::from("svc.journal");
    let digest = Value::Map(vec![("crc32".to_string(), Value::U64(7))]);
    for (frame, needle) in [
        (
            crafted_commit(9, "global", digest),
            "RECEIVED record 9 holds a digest",
        ),
        (
            crafted_commit(9, "state", Value::Str("Unlearned".to_string())),
            "UNLEARNED record 9 holds a model",
        ),
    ] {
        let fs = fs_with(&path, JOURNAL_MAGIC.to_vec());
        let seg = qd_core::segment_path(&path, 0);
        fs.write(&seg, &frame).expect("plant the commit");
        let before = fs.files();
        for strict in [false, true] {
            let vfs = Arc::clone(&fs) as Arc<dyn Vfs>;
            let err = if strict {
                RequestJournal::open_strict_on(vfs, &path)
            } else {
                RequestJournal::open_on(vfs, &path)
            }
            .expect_err("the record is not one version 6 writes");
            let JournalError::CorruptRecord { ref detail, .. } = err else {
                panic!("expected CorruptRecord, got {err:?}");
            };
            assert!(detail.contains(needle), "{detail}");
        }
        assert_eq!(fs.files(), before, "the refusal wrote nothing");
    }
}

/// A back-reference has nothing to refer to at the head of a segment —
/// the writer never puts one there, so one found there is corruption,
/// whichever segment it opens; never a panic, never an empty model.
#[test]
fn a_segment_opening_on_a_back_reference_is_a_typed_corrupt_record() {
    let path = PathBuf::from("svc.journal");
    let reference = crafted_commit(9, "global", Value::Null);
    let (healthy, _) = small_journal(&path);
    let seg0 = qd_core::segment_path(&path, 0);
    for opens in [0, 1] {
        let fs = fs_with(&path, JOURNAL_MAGIC.to_vec());
        if opens == 1 {
            fs.write(&seg0, &healthy.file(&seg0).expect("segment 0"))
                .expect("plant segment 0");
        }
        let seg = qd_core::segment_path(&path, opens);
        fs.write(&seg, &reference).expect("plant the reference");
        let before = fs.files();
        for strict in [false, true] {
            let vfs = Arc::clone(&fs) as Arc<dyn Vfs>;
            let err = if strict {
                RequestJournal::open_strict_on(vfs, &path)
            } else {
                RequestJournal::open_on(vfs, &path)
            }
            .expect_err("a segment cannot open on a back-reference");
            let JournalError::CorruptRecord {
                path: p,
                offset,
                ref detail,
            } = err
            else {
                panic!("expected CorruptRecord, got {err:?}");
            };
            assert_eq!((p, offset), (seg.clone(), 0));
            assert!(detail.contains("back-reference"), "{detail}");
        }
        assert_eq!(fs.files(), before, "the refusal wrote nothing");
    }
}

/// Open checks every stored snapshot's layout against its skeleton, so
/// that decoding it on first use cannot fail: a CRC-valid commit whose
/// snapshot's scalars do not fill the shape its skeleton gives, or whose
/// tensor keeps its scalars in the skeleton instead of the frame's body
/// (which no writer of version 6 does), is refused at open as typed
/// corruption, strict or not, and nothing is written.
#[test]
fn a_snapshot_whose_payload_disagrees_with_its_skeleton_is_refused_at_open() {
    let path = PathBuf::from("svc.journal");
    let tensor = |dims: &[u64], data: Value| {
        let shape = Value::Seq(dims.iter().map(|&d| Value::U64(d)).collect());
        Value::Map(vec![
            ("shape".to_string(), shape),
            ("data".to_string(), data),
        ])
    };
    let in_skeleton = Value::Seq(vec![Value::F64(1.0), Value::F64(2.0)]);
    for (global, needle) in [
        (
            tensor(&[3], Value::F32s(vec![1.0, 2.0])),
            "buffer of 2 elements does not fit shape [3]",
        ),
        (
            tensor(&[2, 2], Value::F32s(vec![1.0; 5])),
            "buffer of 5 elements does not fit shape [2, 2]",
        ),
        (tensor(&[2], in_skeleton), "not one body array"),
    ] {
        let commit = crafted_commit(9, "global", Value::Seq(vec![global]));
        let fs = fs_with(&path, JOURNAL_MAGIC.to_vec());
        fs.write(&qd_core::segment_path(&path, 0), &commit)
            .expect("plant the commit");
        let before = fs.files();
        for strict in [false, true] {
            let vfs = Arc::clone(&fs) as Arc<dyn Vfs>;
            let err = if strict {
                RequestJournal::open_strict_on(vfs, &path)
            } else {
                RequestJournal::open_on(vfs, &path)
            }
            .expect_err("the snapshot does not decode");
            let JournalError::CorruptRecord { ref detail, .. } = err else {
                panic!("expected CorruptRecord, got {err:?}");
            };
            assert!(detail.contains(needle), "{detail}");
        }
        assert_eq!(fs.files(), before, "the refusal wrote nothing");
    }
}

/// Journal v6's cost of an unlearn, on the lifecycle's own writes: after
/// a served history, a request served alone and a coalesced unit of three
/// each add exactly one inline snapshot — the RECOVERED model; the
/// RECEIVED set references the last stored one and every UNLEARNED is
/// derived — and at `ConvNet::scaled_default`'s 5 402 parameters an
/// unlearn appends at most 25 KB (ROADMAP item 7's target; 44.7 KB when
/// UNLEARNED was stored too).
#[test]
fn an_unlearn_stores_one_snapshot_in_at_most_25_kb() {
    use UnlearnRequest::{Class, Client};
    let mut rng = Rng::seed_from(5);
    let model: Arc<dyn Module> = Arc::new(ConvNet::scaled_default(3, 10));
    let data = SyntheticDataset::Cifar.generate(60, &mut rng);
    let parts = partition_iid(data.len(), 2, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let mut fed = Federation::new(model, clients, &mut rng);
    assert_eq!(fed.global().iter().map(Tensor::len).sum::<usize>(), 5402);
    let mut config = QuickDropConfig::scaled_test();
    config.train_phase = Phase::training(1, 2, 16, 0.1);
    let (mut qd, _) = QuickDrop::train(&mut fed, config, &mut rng);

    let path = PathBuf::from("svc.journal");
    let fs = Arc::new(FaultFs::new());
    let mut journal = open(&fs, &path).expect("fresh journal opens");
    let segment = || {
        fs.file(&qd_core::segment_path(&path, 0))
            .unwrap_or_default()
    };
    let mut serve = |unit: &[UnlearnRequest]| {
        let (fed, journal, rng) = (&mut fed, &mut journal, &mut rng);
        let run = match unit {
            [alone] => (qd.serve_journaled(fed, journal, *alone, None, rng, None)).map(|_| ()),
            members => {
                (qd.serve_batch_journaled(fed, journal, members, None, rng, None)).map(|_| ())
            }
        };
        run.expect("an unguarded unit is served");
    };
    // The history: the first RECEIVED opens the segment inline.
    serve(&[Class(0)]);
    for unit in [&[Class(1)][..], &[Class(2), Class(3), Client(1)]] {
        let before = segment().len();
        serve(unit);
        let added = &segment()[before..];
        let n = unit.len();
        assert_eq!(
            (inline_in(added), references_in(added), derived_in(added)),
            (1, 2 * n - 1, n),
            "{unit:?}: one inline RECOVERED; the RECEIVED set and the other RECOVERED members \
             reference; every UNLEARNED derived"
        );
        assert!(
            added.len() <= 25_000 * n,
            "{unit:?}: {} bytes for {n} unlearn(s)",
            added.len()
        );
    }
    assert_eq!(assert_lazy_matches_eager(&fs, &path), 15);
}

#[test]
fn appends_cost_constant_ops_and_bytes_regardless_of_journal_length() {
    let path = PathBuf::from("svc.journal");
    let fs = Arc::new(FaultFs::new());
    let mut journal = open(&fs, &path).expect("fresh journal opens");

    // Identical records except a two-digit seq and, in the first 20, a
    // model of the same shape that changes every time (each snapshot
    // inline), then 20 that repeat the last one (each a back-reference).
    // Every frame of a regime is the same length, so each append's byte
    // cost must be *identical*, not just similar.
    let base = record(10, RequestState::Received, None);
    let mut deltas = Vec::new();
    let mut prev_ops = fs.op_count();
    let mut prev_bytes = fs.bytes_written();
    for seq in 10..50 {
        let model = seq.min(29) as f32;
        journal
            .append(JournalRecord {
                seq,
                global: vec![Tensor::from_vec(vec![model; 64], &[64])],
                ..base.clone()
            })
            .expect("append");
        deltas.push((fs.op_count() - prev_ops, fs.bytes_written() - prev_bytes));
        prev_ops = fs.op_count();
        prev_bytes = fs.bytes_written();
    }
    // The first append also writes the marker file; every later one is
    // exactly one Vfs append + one fsync, moving only the frame bytes.
    let (inline, reference) = (deltas[1], deltas[20]);
    assert_eq!(inline.0, 2, "append is one Vfs append + one fsync");
    assert_eq!(reference.0, 2, "a back-reference costs the same ops");
    assert!(
        reference.1 + 64 * 4 <= inline.1,
        "a back-reference {reference:?} must not carry the snapshot {inline:?}"
    );
    for (i, delta) in deltas.iter().enumerate().skip(1) {
        let steady = if i < 20 { inline } else { reference };
        assert_eq!(
            *delta, steady,
            "append {i} cost {delta:?}, expected the constant {steady:?} — \
             appends must not rewrite the journal"
        );
    }
    // Total I/O is linear in what was appended: marker + 40 frames.
    assert!(
        fs.bytes_written() < (inline.1 + reference.1) * 20 + 64,
        "total bytes {} exceed linear cost",
        fs.bytes_written()
    );
}

#[test]
fn disk_full_poisons_the_journal_until_reopen() {
    let path = PathBuf::from("svc.journal");
    let (fs, records) = small_journal(&path);
    let mut journal = open(&fs, &path).expect("journal opens");
    fs.set_capacity(fs.files().values().map(|b| b.len() as u64).sum());

    let err = journal
        .append(record(80, RequestState::Received, None))
        .expect_err("append on a full disk fails");
    let storage = storage_cause(&err).expect("typed storage cause survives");
    assert_eq!(storage.kind(), std::io::ErrorKind::StorageFull);
    assert!(storage.actionable().contains("free space"), "{storage}");

    // The journal is poisoned: even with space back, appends refuse
    // until a reopen re-verifies the on-disk tail.
    fs.clear_faults();
    let err = journal
        .append(record(81, RequestState::Received, None))
        .expect_err("poisoned journal refuses appends");
    assert!(err.to_string().contains("reopen"), "{err}");

    // Reopen: nothing torn (the failed append wrote nothing), and
    // serving resumes.
    let mut journal = open(&fs, &path).expect("reopen after ENOSPC");
    assert_same_records(&records, journal.records());
    journal
        .append(record(82, RequestState::Received, None))
        .expect("append after reopen");
}

#[test]
fn fail_reasons_round_trip_through_the_journal() {
    // Terminal failure records carry the typed reason and round-trip
    // through the journal bit-for-bit.
    let path = PathBuf::from("svc.journal");
    let fs = Arc::new(FaultFs::new());
    let mut journal = open(&fs, &path).expect("fresh journal opens");
    let mut expected = Vec::new();
    for (seq, state, reason) in [
        (0, RequestState::Received, None),
        (0, RequestState::Quarantined, Some(FailReason::PoisonMember)),
        (1, RequestState::Received, None),
        (1, RequestState::Failed, Some(FailReason::Shed)),
        (2, RequestState::Received, None),
        (2, RequestState::Failed, Some(FailReason::RetriesExhausted)),
        (3, RequestState::Received, None),
        (3, RequestState::Quarantined, Some(FailReason::Diverged)),
    ] {
        let rec = JournalRecord {
            reason,
            ..record(seq, state, Some(BatchId(0)))
        };
        journal.append(rec.clone()).expect("append");
        expected.push(rec);
    }
    let reopened = open(&fs, &path).expect("reopen");
    assert_same_records(&expected, reopened.records());
}

#[test]
fn stale_tmps_are_swept_on_journal_open() {
    let path = PathBuf::from("svc.journal");
    let (fs, records) = small_journal(&path);
    let tmp = PathBuf::from("svc.journal.tmp");
    fs.write(&tmp, b"half-written marker")
        .expect("plant stale tmp");
    fs.fsync(&tmp).expect("make it durable");

    let journal = open(&fs, &path).expect("open sweeps and succeeds");
    assert_same_records(&records, journal.records());
    assert_eq!(fs.file(&tmp), None, "stale tmp swept on open");
}

/// A strict open is an inspection: it leaves stale tmps alone, and
/// reports segments whose marker is gone instead of removing them.
#[test]
fn strict_open_touches_nothing() {
    let path = PathBuf::from("svc.journal");
    let (fs, records) = small_journal(&path);
    fs.write(Path::new("svc.journal.tmp"), b"half-written marker")
        .expect("plant stale tmp");
    let before = fs.files();
    let strict =
        |fs: &Arc<FaultFs>| RequestJournal::open_strict_on(Arc::clone(fs) as Arc<dyn Vfs>, &path);
    let journal = strict(&fs).expect("strict open succeeds");
    assert_same_records(&records, journal.records());
    assert_eq!(fs.files(), before, "strict open swept something");

    assert!(fs.remove(&path).is_ok());
    let before = fs.files();
    let err = strict(&fs).expect_err("segments without a marker");
    let JournalError::Format { path: p, detail } = err else {
        panic!("expected Format, got {err:?}");
    };
    assert_eq!(p, path);
    let seg = qd_core::segment_path(&path, 0);
    assert!(
        detail.contains("no journal marker") && detail.contains(&seg.display().to_string()),
        "{detail}"
    );
    assert_eq!(fs.files(), before, "strict open removed something");
    // A repairing open still clears both.
    let journal = open(&fs, &path).expect("repairing open");
    assert!(journal.records().is_empty());
    assert_eq!(fs.files(), BTreeMap::new());
}

/// A record with a bulky global snapshot (96 KiB of raw `f32` bits), for
/// driving the tail segment toward the 256 KiB rotation threshold in a
/// handful of appends — and big enough that a three-member batch frame
/// alone exceeds a whole segment's threshold.
fn big_record(seq: u64, batch: Option<BatchId>) -> JournalRecord {
    const LEN: usize = 24 * 1024;
    let data: Vec<f32> = (0..LEN)
        .map(|i| (seq as f32) + (i as f32) * 0.125)
        .collect();
    JournalRecord {
        seq,
        request: UnlearnRequest::Class(seq as usize % 10),
        state: RequestState::Received,
        rng: Rng::seed_from(seq * 31 + 7).state(),
        global: vec![Tensor::from_vec(data, &[LEN])],
        guard: None,
        batch,
        reason: None,
    }
}

/// Satellite of the chaos PR: the segment-rotation boundary under
/// fault injection. An `append_all` batch frame that lands as the
/// *first* frame of a freshly rotated segment must keep the
/// whole-frame atomicity contract in both torn shapes a crash there
/// can leave: nothing durable (kill before the fsync) and a durable
/// partial frame (torn write that reached disk). Either way, reopen
/// sees none of the batch members, repairs any torn bytes, and appends
/// continue into the rotated segment.
#[test]
fn batch_frame_straddling_segment_rotation_stays_atomic_under_torn_writes() {
    const ROTATE: usize = 256 * 1024;
    let path = PathBuf::from("rotate.journal");
    let fs = Arc::new(FaultFs::new());
    let mut journal = open(&fs, &path).expect("fresh journal opens");
    let seg0 = qd_core::segment_path(&path, 0);
    let seg1 = qd_core::segment_path(&path, 1);

    // Fill segment 0 past the rotation threshold; the next frame must
    // be the first frame of segment 1.
    let mut seq = 0u64;
    while fs.file(&seg0).map_or(0, |b| b.len()) < ROTATE {
        journal
            .append(big_record(seq, None))
            .expect("filler append");
        seq += 1;
    }
    assert!(fs.file(&seg1).is_none(), "premature rotation");
    let prefix: Vec<JournalRecord> = (journal.records().iter())
        .map(|r| r.clone().map_global(|global| global.to_vec()))
        .collect();
    // Distinct models keep the batch frame bigger than a segment. The
    // first member repeats segment 0's last model, and still goes inline:
    // a segment never opens on a back-reference.
    let mut batch: Vec<JournalRecord> = (0..3)
        .map(|i| big_record(seq + i, Some(BatchId(7))))
        .collect();
    batch[0].global = prefix.last().expect("filled").global.clone();

    // Shape 1: the rotating append is torn mid-write and the process
    // dies before the fsync — nothing of the frame is durable.
    fs.schedule_fault(fs.op_count(), qd_core::Fault::TornWrite(64));
    journal
        .append_all(batch.clone())
        .expect_err("torn write at the rotation append must fail");
    journal
        .append(big_record(999, None))
        .expect_err("a failed append poisons the journal");
    fs.crash();
    let mut journal = open(&fs, &path).expect("reopen after crash");
    assert_same_records(&prefix, journal.records());
    assert!(
        fs.file(&seg1).map_or(0, |b| b.len()) == 0,
        "no un-fsynced byte of the torn frame survives the crash"
    );

    // The re-landed batch goes whole into the rotated segment.
    journal.append_all(batch.clone()).expect("batch re-append");
    let mut expected = prefix.clone();
    expected.extend(batch.clone());
    assert_same_records(&expected, journal.records());
    let seg1_bytes = fs.file(&seg1).expect("rotated segment exists");
    let seg1_full = seg1_bytes.len();
    assert!(
        seg1_full > ROTATE,
        "the whole batch frame landed on segment 1"
    );
    assert_eq!(references_in(&seg1_bytes), 0, "segment 1 opens inline");
    assert!(
        fs.file(&seg0).expect("segment 0").len() >= ROTATE,
        "rotation did not rewrite segment 0"
    );

    // Shape 2: a durable partial frame — the torn write reached disk
    // before the crash. Truncate the rotated segment mid-frame; repair
    // must drop the whole batch (its CRC covers all three members) and
    // leave the segment appendable.
    assert!(fs.truncate(&seg1, 64));
    let mut journal = open(&fs, &path).expect("repair-mode reopen");
    assert_same_records(&prefix, journal.records());
    let repair = journal
        .repairs()
        .last()
        .expect("the torn frame is repaired");
    assert_eq!(repair.segment, seg1);
    assert_eq!(
        repair.valid_len, 0,
        "the partial frame was segment 1's first"
    );
    assert_eq!(repair.dropped_bytes, 64);

    journal
        .append_all(batch.clone())
        .expect("re-append after repair");
    assert_same_records(&expected, journal.records());
    assert_eq!(
        fs.file(&seg1).expect("rotated segment").len(),
        seg1_full,
        "the repaired segment converges to the same bytes"
    );

    // The batch filled segment 1, so a record repeating its last model
    // opens segment 2 inline; the next repeat is a back-reference again.
    let seg2 = qd_core::segment_path(&path, 2);
    let repeat = JournalRecord {
        global: batch[2].global.clone(),
        ..big_record(seq + 3, None)
    };
    journal.append(repeat.clone()).expect("rotating repeat");
    let opened = fs.file(&seg2).expect("the repeat rotated").len();
    journal.append(repeat.clone()).expect("second repeat");
    expected.extend([repeat.clone(), repeat]);
    let seg2_bytes = fs.file(&seg2).expect("segment 2");
    assert!(opened > 4 * 24 * 1024, "segment 2 opens inline");
    assert_eq!(references_in(&seg2_bytes), 1);
    assert!(seg2_bytes.len() - opened < 1024, "a reference is small");
    let reopened = open(&fs, &path).expect("final reopen");
    assert_same_records(&expected, reopened.records());
}

/// Bit-identity of two snapshots, the oracle's own: same shapes, same
/// `to_bits` per scalar.
fn same_bits(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// What the next record of a drawn sequence holds, relative to the
/// model before it (see [`drawn_model`]).
#[derive(Debug, Clone)]
enum Step {
    /// The same snapshot again: a back-reference.
    Repeat,
    /// A new small model.
    Change(u8),
    /// The same bits but scalar 0's zero sign: must stay inline.
    FlipZero,
    /// The same bits but scalar 1's lowest bit — a NaN's payload, or a
    /// number's last place: must stay inline.
    NanPayload,
    /// The same scalars in another shape: must stay inline.
    Reshape,
    /// A new 96 KiB model, so that drawn commits straddle rotation.
    Big(u8),
    /// An UNLEARNED record of a new small model: derived, so the next
    /// step still starts from (and a repeat references) the model before
    /// it.
    Derive(u8),
}

/// Drawn commits: each code in `0..20` names a step, repeats weighted
/// up; codes below 16 never draw a big model.
fn steps(codes: &[Vec<u8>]) -> Vec<Vec<Step>> {
    let step = |code: u8| match code {
        0..=6 => Step::Repeat,
        7 => Step::Derive(code),
        8..=11 => Step::Change(code),
        12 | 13 => Step::FlipZero,
        14 => Step::NanPayload,
        15 => Step::Reshape,
        _ => Step::Big(code),
    };
    codes
        .iter()
        .map(|commit| commit.iter().map(|&c| step(c)).collect())
        .collect()
}

/// Model `k`: `len` scalars with a zero first and, for odd `k`, a NaN
/// second (a NaN-free model is what `f32 ==` would get wrong).
fn drawn_model(k: u8, len: usize) -> Vec<Tensor> {
    let mut data: Vec<f32> = (0..len).map(|i| f32::from(k) + i as f32 * 0.125).collect();
    data[0] = 0.0;
    if k % 2 == 1 {
        data[1] = f32::from_bits(0x7fc0_0000);
    }
    vec![Tensor::from_vec(data, &[len]), Tensor::scalar(f32::from(k))]
}

impl Step {
    fn apply(&self, model: &[Tensor]) -> Vec<Tensor> {
        let mut first = model[0].data().to_vec();
        let dims = model[0].dims().to_vec();
        let rest = model[1..].to_vec();
        let with = |data: Vec<f32>, dims: &[usize]| {
            [vec![Tensor::from_vec(data, dims)], rest.clone()].concat()
        };
        match *self {
            Step::Repeat | Step::Derive(_) => model.to_vec(),
            Step::Change(k) => drawn_model(k, 4),
            Step::Big(k) => drawn_model(k, 24 * 1024),
            Step::FlipZero => {
                first[0] = -first[0];
                with(first, &dims)
            }
            Step::NanPayload => {
                first[1] = f32::from_bits(first[1].to_bits() ^ 1);
                with(first, &dims)
            }
            Step::Reshape => {
                let n = first.len();
                let dims = if dims.len() == 1 {
                    vec![n / 2, 2]
                } else {
                    vec![n]
                };
                with(first, &dims)
            }
        }
    }
}

/// Appends `commits` of drawn steps to a fresh journal on `fs`, and
/// returns every record appended.
fn append_drawn(fs: &Arc<FaultFs>, path: &Path, commits: &[Vec<Step>]) -> Vec<JournalRecord> {
    let mut journal = open(fs, path).expect("fresh journal opens");
    let mut model = drawn_model(0, 4);
    let mut appended = Vec::new();
    for steps in commits {
        let commit: Vec<JournalRecord> = steps
            .iter()
            .map(|step| {
                model = step.apply(&model);
                let seq = appended.len() as u64;
                match *step {
                    Step::Derive(k) => JournalRecord {
                        global: drawn_model(k, 4),
                        ..record(seq, RequestState::Unlearned, None)
                    },
                    _ => JournalRecord {
                        global: model.clone(),
                        ..record(seq, RequestState::Received, None)
                    },
                }
            })
            .collect();
        journal.append_all(commit.clone()).expect("append");
        appended.extend(commit);
    }
    appended
}

mod oracle {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Journal v6's round-trip oracle: whatever mix of repeated,
        /// changed, nearly-repeated and derived models is appended, in
        /// whatever commits, a reopen restores every stored record to the
        /// bit and every derived one to its documented digest; every
        /// segment parses read alone; and a segment holds exactly one
        /// back-reference per stored record that repeats the last stored
        /// one before it in that segment, and one digest per derived
        /// record.
        #[test]
        fn v6_journals_round_trip_to_the_bit(codes in vec(vec(0u8..20, 1..4), 1..14)) {
            let path = PathBuf::from("svc.journal");
            let fs = Arc::new(FaultFs::new());
            let appended = append_drawn(&fs, &path, &steps(&codes));
            prop_assert_eq!(assert_lazy_matches_eager(&fs, &path), appended.len());
            let reopened = open(&fs, &path).expect("reopen");
            assert_same_records(&as_read(&appended), reopened.records());
            for (i, r) in appended.iter().enumerate() {
                let digest = r.state.is_derived().then(|| documented_digest(&r.global));
                prop_assert_eq!(reopened.digest(i), digest);
            }

            let mut alone = Vec::new();
            for index in 0.. {
                let Some(bytes) = fs.file(&qd_core::segment_path(&path, index)) else {
                    break;
                };
                let single = fs_with(&path, JOURNAL_MAGIC.to_vec());
                single
                    .write(&qd_core::segment_path(&path, 0), &bytes)
                    .expect("plant the segment");
                let journal = open(&single, &path).expect("a segment parses alone");
                let records = journal.records();
                let (derived, stored): (Vec<&JournalRecord<Snapshot>>, Vec<_>) =
                    records.iter().partition(|r| r.state.is_derived());
                let repeats = stored
                    .windows(2)
                    .filter(|w| same_bits(&w[0].global, &w[1].global))
                    .count();
                prop_assert_eq!(references_in(&bytes), repeats, "segment {}", index);
                prop_assert_eq!(derived_in(&bytes), derived.len(), "segment {}", index);
                alone.extend_from_slice(records);
            }
            assert_same_records(&as_read(&appended), &alone);
        }

        /// Tearing a final commit that holds back-references at every
        /// byte offset reopens to exactly the committed prefix, and the
        /// re-landed commit converges to the same bytes.
        #[test]
        fn torn_reference_commits_reopen_to_the_committed_prefix(
            prefix in vec(vec(0u8..16, 1..3), 0..4),
            last in vec(0u8..16, 0..2),
        ) {
            let path = PathBuf::from("svc.journal");
            let seg = qd_core::segment_path(&path, 0);
            // Small models only (one segment), and a final commit that
            // opens on a repeat (a reference across commits, unless it
            // opens the segment) and holds one inside it.
            let mut commits = steps(&prefix);
            let head = [Step::Repeat, Step::Change(8), Step::Repeat];
            commits.push([head.to_vec(), steps(&[last]).concat()].concat());
            let fs = Arc::new(FaultFs::new());
            let appended = append_drawn(&fs, &path, &commits);
            let full = fs.files();
            let end = full[&seg].len();
            let committed = appended.len() - commits.last().map_or(0, Vec::len);
            let start = {
                let fs = Arc::new(FaultFs::new());
                append_drawn(&fs, &path, &commits[..commits.len() - 1]);
                fs.file(&seg).map_or(0, |b| b.len())
            };
            prop_assert!(references_in(&full[&seg][start..]) >= 1);
            for cut in start..end {
                fs.reset_to(full.clone());
                prop_assert!(fs.truncate(&seg, cut));
                let journal = open(&fs, &path).expect("a torn tail repairs");
                assert_same_records(&as_read(&appended[..committed]), journal.records());
                prop_assert_eq!(assert_lazy_matches_eager(&fs, &path), committed);
                prop_assert_eq!(journal.repairs().len(), usize::from(cut > start));
                if cut == (start + end) / 2 {
                    let mut journal = journal;
                    journal
                        .append_all(appended[committed..].to_vec())
                        .expect("re-append");
                    prop_assert!(fs.file(&seg) == full.get(&seg).cloned());
                }
            }
        }
    }
}
