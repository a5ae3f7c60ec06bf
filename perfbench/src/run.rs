//! One pass of a workload: set-up, warm-up, then a closed loop of
//! barrier-aligned write/read op pairs, each checked against the
//! reference.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lio_core::{File, Hints, SharedFile};
use lio_datatype::Datatype;
use lio_mpi::{Comm, World};
use lio_pfs::StorageFile;

use crate::reference::Reference;
use crate::stats::{fill, rng};
use crate::timed::{self, Kind, Recorder, Timed};
use crate::workload::{Access, Workload, NPROCS, NSLOTS, OP_BYTES};

/// Generator streams of a seed (all ranks draw the same plan).
const PLAN_STREAM: u64 = 1;
const DATA_STREAM: u64 = 1 << 32;

pub struct PassConfig {
    pub seed: u64,
    /// Measure op pairs for this long...
    pub seconds: f64,
    /// ...or until this many pairs, whichever comes first.
    pub max_pairs: u64,
    /// Unmeasured pairs first; the first `NSLOTS` write every slot once.
    pub warmup_pairs: u64,
    /// Set for the traced pass: storage goes through [`Timed`], lio-obs
    /// records, and ops are recorded as spans.
    pub rec: Option<Arc<Recorder>>,
    /// Stop after set-up (a set-up time sample only).
    pub setup_only: bool,
    /// Flip one stored byte that the last read op reads (tests only).
    pub corrupt_last: bool,
    pub os_dir: PathBuf,
}

impl PassConfig {
    pub fn new(seed: u64, seconds: f64, os_dir: PathBuf) -> PassConfig {
        PassConfig {
            seed,
            seconds,
            max_pairs: u64::MAX,
            warmup_pairs: NSLOTS + 8,
            rec: None,
            setup_only: false,
            corrupt_last: false,
            os_dir,
        }
    }

    #[cfg(test)]
    pub fn test(seed: u64, corrupt_last: bool) -> PassConfig {
        PassConfig {
            max_pairs: 6,
            warmup_pairs: NSLOTS,
            corrupt_last,
            ..PassConfig::new(seed, 60.0, std::env::temp_dir())
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct SetupSample {
    /// Storage creation, world spawn, open, set_view and preallocation,
    /// until the slowest rank is ready.
    pub total_ns: u64,
    /// `File::open`, slowest rank.
    pub open_ns: u64,
    /// `File::set_view`, slowest rank.
    pub set_view_ns: u64,
}

/// One measured op, merged over ranks.
#[derive(Clone, Copy, Debug)]
pub struct OpSample {
    pub write: bool,
    /// Slowest rank's time from its barrier exit to its op's return.
    pub ns: u64,
    /// Messages and bytes sent by all ranks during the op (traced pass).
    pub msgs: u64,
    pub bytes: u64,
}

pub struct PassResult {
    pub setup: SetupSample,
    /// Measured ops in op-id order: op id `i + 1` is `ops[i]`.
    pub ops: Vec<OpSample>,
    /// Rank-level ops issued (warm-up included) and how many of them
    /// returned an error or read back wrong bytes.
    pub attempted: u64,
    pub failed: u64,
    /// The final file equals the reference image.
    pub image_ok: bool,
    /// lio-obs registry around the measured loop (traced pass).
    pub obs: Option<(lio_obs::Snapshot, lio_obs::Snapshot)>,
}

impl PassResult {
    pub fn op_ns(&self, write: bool) -> Vec<u64> {
        self.ops
            .iter()
            .filter(|o| o.write == write)
            .map(|o| o.ns)
            .collect()
    }
}

struct RankOut {
    setup: SetupSample,
    ops: Vec<OpSample>,
    attempted: u64,
    failed: u64,
    obs: Option<(lio_obs::Snapshot, lio_obs::Snapshot)>,
}

fn hints_for(w: &Workload, observe: bool) -> Hints {
    w.hints
        .observability(observe)
        .tracing(false)
        .profiling(false)
        .health(false)
}

/// Run one pass. `Err` is a set-up failure (nothing was measured); op
/// failures are counted in the result.
pub fn run_pass(w: &Workload, cfg: &PassConfig) -> Result<PassResult, String> {
    // set-up-only passes verify nothing, so they build no reference
    let reference = (!cfg.setup_only).then(|| Mutex::new(Reference::new(w, NPROCS)));
    let t_start = Instant::now();
    let rec = cfg.rec.clone();
    let storage = w
        .storage(&cfg.os_dir, |dev| match &rec {
            Some(r) => Arc::new(Timed::new(dev, Arc::clone(r))) as Arc<dyn StorageFile>,
            None => dev,
        })
        .map_err(|e| format!("storage for {}: {e}", w.name))?;
    let shared = SharedFile::from_arc(Arc::clone(&storage));
    let stop = AtomicBool::new(false);
    let hints = hints_for(w, cfg.rec.is_some());

    let outs = World::run(NPROCS, |comm| -> Result<RankOut, String> {
        timed::set_thread_rank(comm.rank());
        let t = Instant::now();
        let mut f = File::open(comm, shared.clone(), hints).map_err(|e| format!("open: {e}"))?;
        let open_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        f.set_view(0, Datatype::byte(), w.filetype(comm.rank()))
            .map_err(|e| format!("set_view: {e}"))?;
        let set_view_ns = t.elapsed().as_nanos() as u64;
        f.preallocate(w.file_bytes())
            .map_err(|e| format!("preallocate: {e}"))?;
        let setup = SetupSample {
            total_ns: t_start.elapsed().as_nanos() as u64,
            open_ns,
            set_view_ns,
        };
        let Some(reference) = &reference else {
            return Ok(RankOut {
                setup,
                ops: Vec::new(),
                attempted: 0,
                failed: 0,
                obs: None,
            });
        };
        Ok(op_loop(w, cfg, comm, &f, &storage, reference, &stop, setup))
    });

    let mut ranks = Vec::with_capacity(NPROCS);
    for o in outs {
        ranks.push(o?);
    }
    let setup = SetupSample {
        total_ns: ranks.iter().map(|r| r.setup.total_ns).max().unwrap_or(0),
        open_ns: ranks.iter().map(|r| r.setup.open_ns).max().unwrap_or(0),
        set_view_ns: ranks.iter().map(|r| r.setup.set_view_ns).max().unwrap_or(0),
    };
    let ops: Vec<OpSample> = (0..ranks[0].ops.len())
        .map(|i| OpSample {
            write: ranks[0].ops[i].write,
            ns: ranks.iter().map(|r| r.ops[i].ns).max().unwrap_or(0),
            msgs: ranks.iter().map(|r| r.ops[i].msgs).sum(),
            bytes: ranks.iter().map(|r| r.ops[i].bytes).sum(),
        })
        .collect();
    let attempted = ranks.iter().map(|r| r.attempted).sum();
    let failed = ranks.iter().map(|r| r.failed).sum();
    let image_ok = reference
        .is_none_or(|r| image_matches(storage.as_ref(), &r.into_inner().expect("reference lock")));
    Ok(PassResult {
        setup,
        attempted,
        ops,
        failed,
        image_ok,
        obs: ranks.swap_remove(0).obs,
    })
}

/// Compare the stored file with the reference image 1 MiB at a time (a
/// copy of the whole file would show in the peak RSS metric).
fn image_matches(storage: &dyn StorageFile, r: &Reference) -> bool {
    const CHUNK: usize = 1 << 20;
    let mut got = vec![0u8; CHUNK];
    storage.len() == r.image.len() as u64
        && r.image.chunks(CHUNK).enumerate().all(|(i, want)| {
            let got = &mut got[..want.len()];
            matches!(storage.read_at((i * CHUNK) as u64, got), Ok(n) if n == want.len())
                && got == want
        })
}

#[allow(clippy::too_many_arguments)]
fn op_loop(
    w: &Workload,
    cfg: &PassConfig,
    comm: &Comm,
    f: &File<'_>,
    storage: &Arc<dyn StorageFile>,
    reference: &Mutex<Reference>,
    stop: &AtomicBool,
    setup: SetupSample,
) -> RankOut {
    let me = comm.rank();
    let rec = cfg.rec.as_deref();
    let mut plan = rng(cfg.seed, PLAN_STREAM);
    let mut wbuf = vec![0u8; w.buf_len()];
    let mut rbuf = vec![0u8; w.buf_len()];
    let mut want = vec![0u8; w.buf_len()];
    let mut ops = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut obs_before = None;
    let mut obs = None;
    let mut measure_start = Instant::now();

    for k in 0u64.. {
        let measured = k >= cfg.warmup_pairs;
        let pair = k.saturating_sub(cfg.warmup_pairs);
        if k == cfg.warmup_pairs {
            comm.barrier();
            if me == 0 && rec.is_some() {
                obs_before = Some(lio_obs::snapshot());
            }
            measure_start = Instant::now();
        }
        if me == 0
            && measured
            && (pair >= cfg.max_pairs || measure_start.elapsed().as_secs_f64() >= cfg.seconds)
        {
            stop.store(true, Ordering::SeqCst);
        }
        let slot_w = if k < NSLOTS { k } else { plan.below(NSLOTS) };
        let slot_r = plan.below(NSLOTS);
        let fill_byte = plan.next_u64() as u8;
        let last = measured && pair + 1 == cfg.max_pairs;
        let (id_w, id_r) = if measured {
            (2 * pair + 1, 2 * pair + 2)
        } else {
            (0, 0)
        };
        fill(
            &mut rng(cfg.seed, DATA_STREAM + 2 * k + me as u64),
            &mut wbuf,
        );

        // ---- write --------------------------------------------------
        if let Some(r) = rec {
            r.enter_op(id_w, me);
        }
        comm.barrier();
        if stop.load(Ordering::SeqCst) {
            break;
        }
        attempted += 2;
        let s0 = comm.stats();
        let t = Instant::now();
        let res = match w.access {
            Access::Collective => f.write_at_all(slot_w * OP_BYTES, &wbuf, w.count, &w.memtype),
            Access::Independent => f.write_at(slot_w * OP_BYTES, &wbuf, w.count, &w.memtype),
        };
        let ns = t.elapsed().as_nanos() as u64;
        let s1 = comm.stats();
        if let Some(r) = rec {
            r.record(id_w, Kind::OpWrite, t, OP_BYTES);
        }
        match res {
            Ok(n) if n == OP_BYTES => reference
                .lock()
                .expect("reference lock")
                .write(me, slot_w, &wbuf),
            _ => failed += 1,
        }
        if measured {
            ops.push(sample(true, ns, s0, s1));
        }

        // ---- read ---------------------------------------------------
        if let Some(r) = rec {
            r.enter_op(id_r, me);
        }
        if cfg.corrupt_last && last && me == 0 {
            let at = reference
                .lock()
                .expect("reference lock")
                .first_data_byte(me, slot_r);
            flip_byte(storage.as_ref(), at);
        }
        rbuf.fill(fill_byte);
        comm.barrier();
        let s0 = comm.stats();
        let t = Instant::now();
        let res = match w.access {
            Access::Collective => f.read_at_all(slot_r * OP_BYTES, &mut rbuf, w.count, &w.memtype),
            Access::Independent => f.read_at(slot_r * OP_BYTES, &mut rbuf, w.count, &w.memtype),
        };
        let ns = t.elapsed().as_nanos() as u64;
        let s1 = comm.stats();
        if let Some(r) = rec {
            r.record(id_r, Kind::OpRead, t, OP_BYTES);
        }
        reference
            .lock()
            .expect("reference lock")
            .expected_read(me, slot_r, fill_byte, &mut want);
        if !matches!(res, Ok(n) if n == OP_BYTES) || rbuf != want {
            failed += 1;
        }
        if measured {
            ops.push(sample(false, ns, s0, s1));
        }
    }
    if let Some(r) = rec {
        r.enter_op(0, me);
    }
    if me == 0 {
        obs = obs_before.map(|b| (b, lio_obs::snapshot()));
    }
    RankOut {
        setup,
        ops,
        attempted,
        failed,
        obs,
    }
}

fn sample(write: bool, ns: u64, s0: lio_mpi::CommStats, s1: lio_mpi::CommStats) -> OpSample {
    OpSample {
        write,
        ns,
        msgs: s1.msgs_sent - s0.msgs_sent,
        bytes: s1.bytes_sent - s0.bytes_sent,
    }
}

fn flip_byte(storage: &dyn StorageFile, at: u64) {
    let mut b = [0u8; 1];
    storage.read_at(at, &mut b).expect("read byte to corrupt");
    b[0] ^= 0xFF;
    storage.write_at(at, &b).expect("write corrupted byte");
}
