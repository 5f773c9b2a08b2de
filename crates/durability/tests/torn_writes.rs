//! Crash-point recovery: simulated torn writes and disk corruption.
//!
//! The invariant under test is the one a deterministic-replay log lives or
//! dies by: **for any damage to the files, recovery either reconstructs a
//! prefix-consistent engine — bit-exact with an uninterrupted run over some
//! prefix of the event stream, at a whole-record boundary, no shorter than the
//! checkpoint watermark — or it fails loudly. It never silently diverges.**
//!
//! * `truncating_the_log_at_every_byte_offset_recovers_a_prefix` chops the
//!   final segment at *every* byte offset (torn-write simulation: a crash can
//!   leave any prefix of the last record) and requires a successful
//!   prefix-consistent recovery each time.
//! * `random_mid_log_corruption_never_silently_diverges` flips bytes at random
//!   offsets anywhere in the log (deterministic RNG) and accepts only the two
//!   legal outcomes above.

use dbtoaster_agca::{Expr, UpdateEvent};
use dbtoaster_compiler::{
    compile, Catalog, CompileOptions, QuerySpec, RelationMeta, TriggerProgram,
};
use dbtoaster_durability::{checkpoint, program_fingerprint, recover, wal, FsyncPolicy, WalWriter};
use dbtoaster_gmr::Value;
use dbtoaster_runtime::Engine;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fs;
use std::path::{Path, PathBuf};

const EVENTS: usize = 240;
const BATCH: usize = 3;
const CHECKPOINT_AT: usize = 120;

fn catalog() -> Catalog {
    [RelationMeta::stream("R", ["A", "V"])]
        .into_iter()
        .collect()
}

fn program() -> TriggerProgram {
    // Two aggregates so several maps must stay mutually consistent.
    let total = QuerySpec {
        name: "TOTAL".into(),
        out_vars: vec![],
        expr: Expr::agg_sum(
            Vec::<String>::new(),
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    let per_key = QuerySpec {
        name: "PER_KEY".into(),
        out_vars: vec!["a".into()],
        expr: Expr::agg_sum(
            ["a".to_string()],
            Expr::product_of([Expr::rel("R", ["a", "v"]), Expr::var("v")]),
        ),
    };
    compile(&[total, per_key], &catalog(), &CompileOptions::default()).unwrap()
}

/// Deterministic event stream with inserts and cancelling deletes.
fn events() -> Vec<UpdateEvent> {
    let mut rng = StdRng::seed_from_u64(0xC4A5);
    let mut out = Vec::with_capacity(EVENTS);
    let mut live: Vec<(i64, i64)> = Vec::new();
    for _ in 0..EVENTS {
        if !live.is_empty() && rng.random_bool(0.3) {
            let (a, v) = live.swap_remove(rng.random_range(0..live.len()));
            out.push(UpdateEvent::delete(
                "R",
                vec![Value::long(a), Value::long(v)],
            ));
        } else {
            let (a, v) = (rng.random_range(0..20i64), rng.random_range(1..50i64));
            live.push((a, v));
            out.push(UpdateEvent::insert(
                "R",
                vec![Value::long(a), Value::long(v)],
            ));
        }
    }
    out
}

/// Reference engine over the first `k` events.
fn reference(k: usize, stream: &[UpdateEvent]) -> Engine {
    let mut e = Engine::new(program(), &catalog());
    e.process_all(&stream[..k]).unwrap();
    e
}

/// Bit-exact comparison of every materialized map of two engines.
fn assert_engines_bit_equal(a: &Engine, b: &Engine, context: &str) {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    assert_eq!(sa.len(), sb.len(), "{context}: map sets differ");
    for (name, ga) in sa.iter() {
        let gb = sb
            .get(name)
            .unwrap_or_else(|| panic!("{context}: {name} missing"));
        assert_eq!(ga.len(), gb.len(), "{context}: {name} sizes differ");
        for (t, m) in ga.iter() {
            assert_eq!(
                gb.get(t).to_bits(),
                m.to_bits(),
                "{context}: {name}[{t:?}] differs"
            );
        }
    }
}

/// Populate `dir`: WAL of all events in batches of [`BATCH`], small segments
/// (so the log spans several files), one checkpoint at [`CHECKPOINT_AT`].
fn build_log(dir: &Path) {
    let prog = program();
    let fp = program_fingerprint(&prog);
    let stream = events();
    let mut engine = Engine::new(prog, &catalog());
    let mut w = WalWriter::open(dir, fp, 1, FsyncPolicy::Never, 2048).unwrap();
    for (i, chunk) in stream.chunks(BATCH).enumerate() {
        w.append(chunk).unwrap();
        engine.process_all(chunk).unwrap();
        if (i + 1) * BATCH == CHECKPOINT_AT {
            let snap = engine.snapshot();
            checkpoint::write_checkpoint(
                dir,
                fp,
                CHECKPOINT_AT as u64,
                snap.iter().map(|(n, g)| (n.as_str(), g)),
            )
            .unwrap();
        }
    }
    drop(w);
    assert!(
        wal::list_segments(dir).unwrap().len() >= 3,
        "test wants a multi-segment log"
    );
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbt-torn-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = fs::remove_dir_all(dst);
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The only two legal outcomes of recovering a damaged directory.
enum Outcome {
    /// Loud failure.
    Failed,
    /// Prefix-consistent success: `k` events, bit-exact with the reference.
    Prefix(usize),
}

fn check_recovery(dir: &Path, stream: &[UpdateEvent]) -> Outcome {
    let mut engine = Engine::new(program(), &catalog());
    match recover(dir, &mut engine) {
        Err(_) => Outcome::Failed,
        Ok(None) => Outcome::Prefix(0),
        Ok(Some(rec)) => {
            let k = engine.stats().events as usize;
            assert!(k <= stream.len(), "recovered more events than were written");
            assert!(
                k >= rec.checkpoint_watermark as usize,
                "recovery went below its own checkpoint"
            );
            assert_eq!(
                engine.stats().recovery_replayed_events,
                k as u64 - rec.checkpoint_watermark,
                "replay count must cover exactly watermark..k"
            );
            let reference = reference(k, stream);
            assert_engines_bit_equal(&engine, &reference, &format!("prefix {k}"));
            Outcome::Prefix(k)
        }
    }
}

#[test]
fn truncating_the_log_at_every_byte_offset_recovers_a_prefix() {
    let base = tmp_dir("trunc-base");
    build_log(&base);
    let stream = events();

    // Sanity: the undamaged directory recovers the full stream.
    match check_recovery(&base, &stream) {
        Outcome::Prefix(k) => assert_eq!(k, EVENTS),
        Outcome::Failed => panic!("undamaged log failed to recover"),
    }

    let (last_start, last_seg) = wal::list_segments(&base).unwrap().pop().unwrap();
    let last_len = fs::metadata(&last_seg).unwrap().len();
    let scratch = tmp_dir("trunc-scratch");
    let mut recovered_counts = Vec::new();
    for cut in 0..=last_len {
        copy_dir(&base, &scratch);
        let seg = scratch.join(last_seg.file_name().unwrap());
        fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();
        match check_recovery(&scratch, &stream) {
            Outcome::Prefix(k) => {
                // Truncation is exactly what a crash produces: recovery must
                // *succeed*, keeping at least everything before the final
                // segment and never inventing events past the cut.
                assert!(
                    k + 1 >= last_start as usize,
                    "cut {cut}: lost records before the damaged segment (k={k})"
                );
                recovered_counts.push(k);
            }
            Outcome::Failed => panic!("cut {cut}: pure truncation must recover, not fail"),
        }
    }
    // Longer surviving prefixes of the file never recover fewer events.
    for w in recovered_counts.windows(2) {
        assert!(w[1] >= w[0], "recovered prefix shrank as the cut grew");
    }
    assert_eq!(recovered_counts[recovered_counts.len() - 1], EVENTS);
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&scratch);
}

#[test]
fn random_mid_log_corruption_never_silently_diverges() {
    let base = tmp_dir("flip-base");
    build_log(&base);
    let stream = events();
    let segments = wal::list_segments(&base).unwrap();
    let scratch = tmp_dir("flip-scratch");
    let mut rng = StdRng::seed_from_u64(0xF1195);
    let mut failed = 0usize;
    for case in 0..60 {
        copy_dir(&base, &scratch);
        let (_, seg) = &segments[rng.random_range(0..segments.len())];
        let seg = scratch.join(seg.file_name().unwrap());
        let mut bytes = fs::read(&seg).unwrap();
        let off = rng.random_range(0..bytes.len());
        let bit: u32 = rng.random_range(0..8u32);
        bytes[off] ^= 1u8 << bit;
        fs::write(&seg, &bytes).unwrap();
        // Either outcome is legal; silent divergence (which
        // `check_recovery` asserts away) is not.
        if let Outcome::Failed = check_recovery(&scratch, &stream) {
            failed += 1;
        }
        let _ = case;
    }
    assert!(
        failed > 0,
        "corrupting 60 random bytes never produced a detected failure — CRC dead?"
    );
    let _ = fs::remove_dir_all(&base);
    let _ = fs::remove_dir_all(&scratch);
}
