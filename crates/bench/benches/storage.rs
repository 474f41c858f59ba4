//! Storage harness: the cost of a journal append under the segment
//! format (version 4: one CRC-sealed commit of binary record frames per
//! append) versus the whole-file JSON rewrite of versions 1–2.
//!
//! Runs entirely on the in-memory fault-injecting [`FaultFs`], so the
//! numbers are Vfs-op and byte counts — deterministic, reproducible
//! bit-for-bit across machines — rather than wall time. For each
//! journal length the harness appends that many identical records,
//! reports the bytes/ops actually moved, and computes the exact byte
//! volume the legacy format would have rewritten for the same record
//! stream (the JSON rendering of the growing document at every append,
//! which is what `persist()` used to do — no build reads that format
//! any more; it survives here as the yardstick). Rows land in
//! `BENCH_storage.json`.
//!
//! Pass `--test` for a seconds-scale smoke run that additionally pins
//! the O(1) contract: after the first append (which also writes the
//! marker file), every append costs exactly one Vfs `append` + one
//! `fsync` and an identical number of bytes, while the legacy
//! equivalent grows quadratically.

use qd_bench::print_paper_reference;
use qd_core::{FaultFs, JournalRecord, RequestJournal, RequestState, Vfs};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::UnlearnRequest;
use serde::{Serialize, Value};
use std::path::PathBuf;
use std::sync::Arc;

/// One row: a journal length and what appending cost under each format.
#[derive(Serialize)]
struct StorageRow {
    appends: usize,
    /// Bytes handed to the Vfs by the v4 segment format.
    v4_bytes: u64,
    /// Vfs operations issued by the v4 segment format.
    v4_ops: u64,
    /// Bytes the v1/v2 whole-file rewrite would have moved for the
    /// same record stream.
    v2_equiv_bytes: u64,
    /// v2_equiv_bytes / v4_bytes — the write amplification the segment
    /// format removes.
    amplification: f32,
}

/// A deterministic record with a fixed-width seq so every append moves
/// the same number of bytes.
fn record(seq: u64) -> JournalRecord {
    JournalRecord {
        seq,
        request: UnlearnRequest::Class(seq as usize % 10),
        state: RequestState::Received,
        rng: Rng::seed_from(7).state(),
        global: vec![Tensor::from_vec(vec![1.5, -1.25, 3.0], &[3])],
        guard: None,
        batch: None,
        reason: None,
    }
}

/// The legacy on-disk document for `records`, exactly as versions 1–2
/// wrote it: one JSON object rewritten in full on every append.
fn legacy_document(records: &[JournalRecord]) -> String {
    let file = Value::Map(vec![
        ("version".to_string(), Value::U64(2)),
        (
            "records".to_string(),
            Value::Seq(records.iter().map(Serialize::to_value).collect()),
        ),
    ]);
    serde_json::to_string(&file).expect("legacy document serializes")
}

/// Appends `n` records through the journal on a fresh [`FaultFs`],
/// returning (bytes, ops, per-append byte deltas).
fn v4_cost(n: usize) -> (u64, u64, Vec<u64>) {
    let fs = Arc::new(FaultFs::new());
    let path = PathBuf::from("bench.journal");
    let mut journal = RequestJournal::open_on(Arc::clone(&fs) as Arc<dyn Vfs>, &path)
        .expect("fresh journal opens");
    let open_bytes = fs.bytes_written();
    let open_ops = fs.op_count();
    let mut deltas = Vec::with_capacity(n);
    let mut prev = fs.bytes_written();
    for seq in 0..n {
        journal
            .append(record(100 + seq as u64))
            .expect("append succeeds");
        deltas.push(fs.bytes_written() - prev);
        prev = fs.bytes_written();
    }
    (
        fs.bytes_written() - open_bytes,
        fs.op_count() - open_ops,
        deltas,
    )
}

/// The byte volume the legacy whole-file rewrite moves for the same
/// `n`-record stream: the full document at length 1, then 2, … then n.
fn v2_equiv_cost(n: usize) -> u64 {
    let records: Vec<JournalRecord> = (0..n).map(|seq| record(100 + seq as u64)).collect();
    (1..=n)
        .map(|len| legacy_document(&records[..len]).len() as u64)
        .sum()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    println!(
        "storage: v4 segment appends vs legacy whole-file rewrites{}",
        if smoke { " [smoke]" } else { "" }
    );

    let lengths: &[usize] = if smoke { &[8, 32] } else { &[8, 32, 128, 512] };
    let mut rows = Vec::new();
    println!(
        "  {:>8} {:>12} {:>8} {:>16} {:>14}",
        "appends", "v4 bytes", "v4 ops", "v2-equiv bytes", "amplification"
    );
    for &n in lengths {
        let (v4_bytes, v4_ops, _) = v4_cost(n);
        let v2_equiv_bytes = v2_equiv_cost(n);
        let amplification = v2_equiv_bytes as f32 / v4_bytes as f32;
        println!("  {n:>8} {v4_bytes:>12} {v4_ops:>8} {v2_equiv_bytes:>16} {amplification:>14.2}");
        rows.push(StorageRow {
            appends: n,
            v4_bytes,
            v4_ops,
            v2_equiv_bytes,
            amplification,
        });
    }

    let json = serde_json::to_string(&rows).expect("rows serialize");
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_storage.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_storage.json");
    println!("  wrote BENCH_storage.json ({} rows)", rows.len());

    if smoke {
        smoke_assertions(&rows);
        println!("smoke assertions passed");
    }

    print_paper_reference(&[
        "no direct paper counterpart: QuickDrop's serving speedup assumes the",
        "journal write path is cheap; shape to reproduce: v4 append cost is",
        "constant (one Vfs append + one fsync, identical bytes per record)",
        "while the legacy rewrite-equivalent grows quadratically, so the",
        "amplification column rises with journal length.",
    ]);
}

/// Smoke contract: O(1) appends, and amplification that grows with
/// journal length.
fn smoke_assertions(rows: &[StorageRow]) {
    let (_, _, deltas) = v4_cost(16);
    let steady = deltas[1];
    for (i, &d) in deltas.iter().enumerate().skip(1) {
        assert_eq!(
            d, steady,
            "append {i} moved {d} bytes, expected the constant {steady} — \
             appends must not rewrite the journal"
        );
    }
    let (_, ops, _) = v4_cost(16);
    let (_, ops_double, _) = v4_cost(32);
    assert_eq!(
        ops_double - ops,
        2 * 16,
        "each extra append must cost exactly 2 Vfs ops"
    );
    for pair in rows.windows(2) {
        assert!(
            pair[1].amplification > pair[0].amplification,
            "legacy write amplification must grow with journal length"
        );
    }
    assert!(
        rows.last().is_some_and(|r| r.amplification > 4.0),
        "the rewrite equivalent must dominate by journal length {}",
        rows.last().map_or(0, |r| r.appends)
    );
}
