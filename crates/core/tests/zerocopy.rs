//! Zero-copy audit: a *contiguous* memtype must never route through the
//! datatype pack machinery. Both the monolithic two-phase exchange and
//! the pipelined window pump lift the bytes straight out of the user
//! buffer via `contig_slice`, so `dt.pack.calls` / `dt.unpack.calls`
//! stay at zero for the whole collective — any regression that
//! reintroduces a pack on this path trips the counters.
//!
//! Runs as its own test binary so the process-global counters reflect
//! exactly the collectives issued here. The obs registry is shared by
//! every test in the binary, so each test holds [`OBS_LOCK`] from its
//! reset to its snapshot and the parallel test runner cannot interleave
//! one test's collectives with another's counters.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::pattern;
use lio_core::{File, Hints, SharedFile};
use lio_datatype::{Datatype, Field};
use lio_mpi::World;
use lio_pfs::MemFile;

const NPROCS: usize = 4;
const PER_RANK: u64 = 64 * 1024;

/// Serializes the tests that reset and read the process-global registry.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Take [`OBS_LOCK`]; a test that panicked while holding it leaves
/// nothing to clean up, since the next holder resets the registry.
fn obs_scope() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Interleaved noncontig *fileview* with a contiguous byte memtype: the
/// file side is gappy (so two-phase really exchanges data) but the
/// memory side is one run.
fn run_collective(hints: Hints) {
    let shared = SharedFile::new(MemFile::new());
    let sh = shared.clone();
    World::run(NPROCS, move |comm| {
        let me = comm.rank() as u64;
        let p = comm.size() as u64;
        let sblock = 512u64;
        let nblock = PER_RANK / sblock;
        let block = Datatype::contiguous(sblock, &Datatype::byte()).unwrap();
        let v = Datatype::vector(nblock, 1, p as i64, &block).unwrap();
        let extent = nblock * p * sblock;
        let ft = Datatype::struct_type(vec![
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
        .unwrap();
        let mut f = File::open(comm, sh.clone(), hints).unwrap();
        f.set_view(me * sblock, Datatype::byte(), ft).unwrap();
        let data = pattern(PER_RANK as usize, me + 1);
        f.write_at_all(0, &data, PER_RANK, &Datatype::byte())
            .unwrap();
        let mut back = vec![0u8; PER_RANK as usize];
        f.read_at_all(0, &mut back, PER_RANK, &Datatype::byte())
            .unwrap();
        assert_eq!(back, data, "rank {me} read back foreign bytes");
    });
    assert_eq!(shared.len(), NPROCS as u64 * PER_RANK);
}

#[test]
fn contiguous_memtype_never_packs() {
    let _obs = obs_scope();
    lio_obs::reset();
    lio_obs::set_enabled(true);
    for pipelined in [false, true] {
        run_collective(Hints::listless().cb_buffer(8192).pipelined(pipelined));
    }
    lio_obs::set_enabled(false);
    let snap = lio_obs::snapshot();
    assert_eq!(
        snap.counter("dt.pack.calls"),
        0,
        "contiguous memtype went through ff_pack instead of contig_slice"
    );
    assert_eq!(
        snap.counter("dt.unpack.calls"),
        0,
        "contiguous memtype went through ff_unpack instead of a direct copy"
    );
}

/// Sanity check the audit has teeth: a genuinely non-contiguous memtype
/// on the same collective *does* drive the pack counters.
#[test]
fn noncontig_memtype_does_pack() {
    let shared = SharedFile::new(MemFile::new());
    let sh = shared.clone();
    let _obs = obs_scope();
    lio_obs::reset();
    lio_obs::set_enabled(true);
    World::run(2, move |comm| {
        let me = comm.rank() as u64;
        let mem = Datatype::vector(64, 8, 16, &Datatype::byte()).unwrap();
        let span = mem.extent() as usize;
        let user = pattern(span, me + 1);
        let mut f = File::open(comm, sh.clone(), Hints::listless()).unwrap();
        f.set_view(0, Datatype::byte(), Datatype::byte()).unwrap();
        f.write_at_all(me * 512, &user, 1, &mem).unwrap();
    });
    lio_obs::set_enabled(false);
    let snap = lio_obs::snapshot();
    assert!(
        snap.counter("dt.pack.calls") > 0,
        "non-contiguous memtype should exercise the pack path"
    );
    drop(shared);
}
