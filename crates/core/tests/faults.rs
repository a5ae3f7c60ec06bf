//! Differential fault-schedule corpus: collective writes and read-backs
//! under seeded storage + communication fault injection must produce
//! byte-for-byte the same file as the naive fault-free reference, for
//! both engines, monolithic and pipelined, across rank counts — the
//! retry/backoff and short-I/O resumption layers must make injected
//! faults invisible to correct programs.
//!
//! Every assertion message carries the seed's repro command
//! ([`lio_testkit::repro_hint`]); setting `LIO_FAULT_SEED` narrows the
//! corpus to that one seed for replay.
//!
//! The pipelined variants also run with the fault decorator *beneath* a
//! one-worker submission queue ([`lio_pfs::OsFile`]), so the event
//! loop's direct submit/harvest path sees retried faults, blocking
//! submits and shuffled completions.
//!
//! The crash-consistency tests: a fail-stop torn write mid-collective
//! must surface as an error on at least one rank, and the file must
//! never contain a byte that no serial schedule of the old and new
//! contents could produce; behind the queue, a device lost from the
//! first write must fail every rank with a storage error, promptly.

mod common;

use common::{pattern, reference_write};
use lio_core::{File, Hints, IoError, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::decorate::{FaultPlan, FaultyFile};
use lio_pfs::{MemFile, OsConfig, OsFile, QueueConfig};
use lio_testkit as tk;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The cyclically interleaved filetype used throughout: `nblock` blocks
/// of `sblock` bytes, one block per stride of `slots` block slots.
fn interleaved_ft(sblock: u64, nblock: u64, slots: u64) -> Datatype {
    let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
    let v = Datatype::vector(nblock, 1, slots as i64, &block).unwrap();
    let extent = nblock * slots * sblock;
    Datatype::struct_type(vec![
        Field {
            disp: 0,
            count: 1,
            child: Datatype::lb_marker(),
        },
        Field {
            disp: 0,
            count: 1,
            child: v,
        },
        Field {
            disp: extent as i64,
            count: 1,
            child: Datatype::ub_marker(),
        },
    ])
    .unwrap()
}

/// A one-worker queue of `depth` that picks queued entries in a
/// seed-shuffled order: submits past `depth` block the submitting event
/// loop, and with `depth > 1` completions come back out of order.
fn tight_queue(seed: u64, depth: usize) -> OsConfig {
    OsConfig {
        queue: QueueConfig {
            workers: 1,
            depth,
            shuffle_seed: Some(seed),
        },
        ..OsConfig::default()
    }
}

/// One collective write + sync + full read-back with the seed's storage
/// and communication fault schedules armed; every rank asserts its
/// read-back in-world. `queue_depth` puts the faulty device behind a
/// [`tight_queue`]. Returns the injection-free file snapshot.
#[allow(clippy::too_many_arguments)]
fn run_faulty_case(
    hints: Hints,
    queue_depth: Option<usize>,
    seed: u64,
    nprocs: usize,
    sblock: u64,
    nblock: u64,
    holey: bool,
    steps: u64,
) -> Vec<u8> {
    let mem = Arc::new(MemFile::new());
    let faulty = FaultyFile::new(Arc::clone(&mem), tk::fault_plan(seed));
    let shared = match queue_depth {
        Some(d) => SharedFile::new(OsFile::over(faulty, tight_queue(seed, d))),
        None => SharedFile::new(faulty),
    };
    World::run(nprocs, move |comm| {
        comm.set_fault_plan(Some(tk::comm_fault_plan(seed, comm.rank())));
        let me = comm.rank() as u64;
        let slots = comm.size() as u64 + holey as u64;
        let ft = interleaved_ft(sblock, nblock, slots);
        let mut f = File::open(comm, shared.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let step = nblock * sblock;
        for s in 0..steps {
            let data = pattern(step as usize, me * 1000 + s);
            f.write_at_all(s * step, &data, step, &Datatype::byte())
                .unwrap_or_else(|e| {
                    panic!("write under faults failed: {e}; {}", tk::repro_hint(seed))
                });
        }
        f.sync()
            .unwrap_or_else(|e| panic!("sync under faults failed: {e}; {}", tk::repro_hint(seed)));
        let total = steps * step;
        let mut back = vec![0u8; total as usize];
        f.read_at_all(0, &mut back, total, &Datatype::byte())
            .unwrap_or_else(|e| panic!("read under faults failed: {e}; {}", tk::repro_hint(seed)));
        for s in 0..steps {
            assert_eq!(
                &back[(s * step) as usize..((s + 1) * step) as usize],
                &pattern(step as usize, me * 1000 + s)[..],
                "rank {me} read back wrong bytes in step {s}; {}",
                tk::repro_hint(seed)
            );
        }
    });
    mem.snapshot()
}

/// The file every variant must produce, per the naive reference.
fn reference_file(nprocs: usize, sblock: u64, nblock: u64, holey: bool, steps: u64) -> Vec<u8> {
    let slots = nprocs as u64 + holey as u64;
    let ft = interleaved_ft(sblock, nblock, slots);
    let step = (nblock * sblock) as usize;
    let mut want = Vec::new();
    for me in 0..nprocs as u64 {
        let mut stream = Vec::with_capacity(step * steps as usize);
        for s in 0..steps {
            stream.extend_from_slice(&pattern(step, me * 1000 + s));
        }
        reference_write(&mut want, me * sblock, &ft, 0, &stream);
    }
    want
}

#[test]
fn fault_corpus_matches_reference() {
    let seeds = tk::corpus_seeds();
    let mut case = 0u64;
    for &nprocs in &[1usize, 2, 4, 7] {
        for &seed in &seeds {
            // 64 B: windows smaller than one block (every window is a
            // read-modify-write under faults); 4096 B: a few blocks per
            // window.
            for &cb in &[64usize, 4096] {
                case += 1;
                let mut rng = tk::Rng::new(seed ^ (case << 16));
                let sblock = 1 + rng.below(95);
                let nblock = 1 + rng.below(11);
                let holey = rng.below(2) == 1;
                let steps = 1 + rng.below(2);

                let pipelined = |h: Hints| h.cb_buffer(cb).pipelined(true).pipeline_depth(2);
                let variants = [
                    (Hints::list_based().cb_buffer(cb), None),
                    (pipelined(Hints::list_based()), None),
                    (Hints::listless().cb_buffer(cb), None),
                    (pipelined(Hints::listless()), None),
                    // one-deep queue: every submit waits for the worker
                    (pipelined(Hints::list_based()), Some(1)),
                    (pipelined(Hints::listless()), Some(1)),
                    // deeper queue: shuffled, out-of-order completions
                    (pipelined(Hints::list_based()), Some(3)),
                    (pipelined(Hints::listless()), Some(3)),
                ];
                let mut want = reference_file(nprocs, sblock, nblock, holey, steps);
                for (i, &(h, q)) in variants.iter().enumerate() {
                    let mut got = run_faulty_case(h, q, seed, nprocs, sblock, nblock, holey, steps);
                    let n = want.len().max(got.len());
                    want.resize(n, 0);
                    got.resize(n, 0);
                    assert_eq!(
                        got,
                        want,
                        "case {case} (p={nprocs} cb={cb} sblock={sblock} nblock={nblock} \
                         holey={holey} steps={steps}): variant {i} differs from the fault-free \
                         reference; {}",
                        tk::repro_hint(seed)
                    );
                }
            }
        }
    }
}

/// Crash consistency: a fail-stop torn write mid-collective surfaces as
/// `IoError::Storage` on at least one rank, every rank still reaches the
/// closing synchronization (no deadlock, no stranded peer), and the file
/// holds only bytes from the old contents or the would-be-complete new
/// contents — never garbage from a schedule no serial execution allows.
#[test]
fn torn_write_leaves_serially_explainable_bytes() {
    let nprocs = 4usize;
    let (sblock, nblock, steps) = (32u64, 6u64, 2u64);
    let want = reference_file(nprocs, sblock, nblock, false, steps);
    let old: Vec<u8> = (0..want.len()).map(|i| 0xC0 | (i as u8 & 0x0F)).collect();

    for (v, &hints) in [
        Hints::list_based().cb_buffer(256),
        Hints::list_based()
            .cb_buffer(256)
            .pipelined(true)
            .pipeline_depth(2),
        Hints::listless().cb_buffer(256),
        Hints::listless()
            .cb_buffer(256)
            .pipelined(true)
            .pipeline_depth(2),
    ]
    .iter()
    .enumerate()
    {
        let mem = Arc::new(MemFile::with_data(old.clone()));
        // Pure fail-stop: no probabilistic faults, the device dies after
        // half the payload volume has been submitted for writing.
        let plan = FaultPlan {
            torn_after: Some(want.len() as u64 / 2),
            ..FaultPlan::disabled()
        };
        let shared = SharedFile::new(FaultyFile::new(Arc::clone(&mem), plan));
        let results = World::run(nprocs, move |comm| {
            let me = comm.rank() as u64;
            let ft = interleaved_ft(sblock, nblock, nprocs as u64);
            let mut f = File::open(comm, shared.clone(), hints).unwrap();
            f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
            let step = nblock * sblock;
            let mut out: Result<(), String> = Ok(());
            for s in 0..steps {
                let data = pattern(step as usize, me * 1000 + s);
                if let Err(e) = f.write_at_all(s * step, &data, step, &Datatype::byte()) {
                    out = Err(e.to_string());
                }
            }
            out
        });
        let errs = results.iter().filter(|r| r.is_err()).count();
        assert!(
            errs >= 1,
            "variant {v}: a torn write at half volume must fail at least one rank"
        );
        for e in results.iter().filter_map(|r| r.as_ref().err()) {
            assert!(
                e.contains("storage"),
                "variant {v}: torn write must surface as a storage error, got: {e}"
            );
        }
        let snap = mem.snapshot();
        for (i, &b) in snap.iter().enumerate() {
            let was = if i < old.len() { old[i] } else { 0 };
            let new = if i < want.len() { want[i] } else { 0 };
            assert!(
                b == was || b == new,
                "variant {v}: byte {i} is {b:#04x}, which is neither the old contents \
                 ({was:#04x}) nor the completed write ({new:#04x}) — no serial schedule \
                 produces it"
            );
        }
    }
}

/// A device that tears its first write and fails every later one, behind
/// a one-worker, one-deep queue: the pipelined write's direct
/// submit/harvest path must bring every rank back with `IoError::Storage`
/// (every rank is an IOP whose write-back fails), without hanging or
/// panicking.
#[test]
fn lost_device_behind_queue_fails_every_rank_promptly() {
    let nprocs = 4usize;
    let (sblock, nblock) = (32u64, 6u64);
    for hints in [Hints::list_based(), Hints::listless()] {
        let hints = hints.cb_buffer(64).pipelined(true).pipeline_depth(2);
        let plan = FaultPlan {
            torn_after: Some(1),
            ..FaultPlan::disabled()
        };
        let faulty = FaultyFile::new(Arc::new(MemFile::new()), plan);
        let shared = SharedFile::new(OsFile::over(faulty, tight_queue(0x5EED, 1)));
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let results = World::run(nprocs, move |comm| {
                let me = comm.rank() as u64;
                let ft = interleaved_ft(sblock, nblock, nprocs as u64);
                let mut f = File::open(comm, shared.clone(), hints).unwrap();
                f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
                let data = pattern((nblock * sblock) as usize, me);
                f.write_at_all(0, &data, nblock * sblock, &Datatype::byte())
                    .err()
                    .map(|e| matches!(e, IoError::Storage(_)))
            });
            let _ = tx.send(results);
        });
        let results = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("every rank must return (no hang, no panic) once the device is lost");
        assert_eq!(
            results,
            vec![Some(true); nprocs],
            "every rank must fail with IoError::Storage"
        );
    }
}
