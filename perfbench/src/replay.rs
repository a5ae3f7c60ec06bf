//! Replays of single layers with a workload's own arguments: the
//! `lio-datatype` calls one op makes on its memtype and filetype, and
//! the `lio-mpi` traffic one op's traced run recorded.

use std::hint::black_box;
use std::time::{Duration, Instant};

use lio_datatype::{ff_offset, ff_pack, ff_size, ff_unpack, serialize};
use lio_mpi::World;

use crate::stats::{fill, median, rng};
use crate::workload::{Workload, NPROCS, OP_BYTES};

/// Median of per-rep times of `f`, over at least `min_reps` reps and at
/// least `budget` of wall time.
fn time_reps(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut ns = Vec::new();
    while ns.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        ns.push(t.elapsed().as_nanos() as f64);
    }
    median(&ns)
}

pub struct DtReplay {
    /// `ff_pack` of one op's memtype instances into a contiguous buffer.
    pub pack_ns: f64,
    /// `ff_unpack` of the same.
    pub unpack_ns: f64,
    /// One `ff_offset` plus one `ff_size` on the filetype.
    pub nav_ns: f64,
    /// The view message `set_view` allgathers: displacement plus the
    /// encoded filetype.
    pub view_bytes: u64,
    /// `serialize::encode` plus `decode` of the filetype.
    pub view_codec_ns: f64,
}

pub fn dt_replay(w: &Workload, seed: u64, budget: Duration) -> DtReplay {
    let mut rng = rng(seed, 7);
    let mut user = vec![0u8; w.buf_len()];
    fill(&mut rng, &mut user);
    let mut packed = vec![0u8; OP_BYTES as usize];
    let pack_ns = time_reps(20, budget, || {
        let n = ff_pack(black_box(&user), w.count, &w.memtype, 0, &mut packed);
        assert_eq!(n as u64, OP_BYTES, "pack moved a whole op");
    });
    let unpack_ns = time_reps(20, budget, || {
        let n = ff_unpack(black_box(&packed), &mut user, w.count, &w.memtype, 0);
        assert_eq!(n as u64, OP_BYTES, "unpack moved a whole op");
    });

    let ft = w.filetype(0);
    let data = ft.size() * w.ft_count;
    let probes: Vec<u64> = (0..1024).map(|_| rng.below(data)).collect();
    let window = w.hints.cb_buffer_size as u64;
    let nav_ns = time_reps(20, budget, || {
        for &x in &probes {
            black_box(ff_offset(&ft, black_box(x)));
            black_box(ff_size(&ft, black_box(x), window));
        }
    }) / probes.len() as f64;

    let view_bytes = 8 + serialize::encode(&ft).len() as u64;
    let view_codec_ns = time_reps(200, budget, || {
        let enc = serialize::encode(black_box(&ft));
        let back = serialize::decode(&enc).expect("a view decodes");
        black_box(back);
    });
    DtReplay {
        pack_ns,
        unpack_ns,
        nav_ns,
        view_bytes,
        view_codec_ns,
    }
}

/// Time one op's worth of point-to-point traffic between the workload's
/// ranks: `msgs` messages of the mean size, split evenly over the ranks,
/// each sent with `isend` to the peer and received with `irecv`/`wait`.
/// Returns the median over reps of the slowest rank's time.
pub fn mpi_replay(msgs: f64, bytes: f64, budget: Duration) -> f64 {
    let per_rank = (msgs / NPROCS as f64).round() as usize;
    let size = if msgs > 0.0 {
        (bytes / msgs).round() as usize
    } else {
        0
    };
    let per_rep = World::run(NPROCS, |comm| {
        let peer = (comm.rank() + 1) % NPROCS;
        let payload = vec![0x5Au8; size];
        let start = Instant::now();
        let mut ns = Vec::new();
        loop {
            // rank 0 decides when the budget is spent; all ranks agree
            let go = comm.bcast(
                0,
                Some(vec![u8::from(ns.len() < 20 || start.elapsed() < budget)]),
            );
            if go[0] == 0 {
                break;
            }
            comm.barrier();
            let t = Instant::now();
            let mut sends: Vec<_> = (0..per_rank)
                .map(|_| comm.isend(peer, 7, payload.clone()))
                .collect();
            let mut recvs: Vec<_> = (0..per_rank).map(|_| comm.irecv(peer, 7)).collect();
            for r in sends.iter_mut().chain(recvs.iter_mut()) {
                black_box(comm.wait(r));
            }
            ns.push(t.elapsed().as_nanos() as u64);
        }
        ns
    });
    let merged: Vec<f64> = (0..per_rep[0].len())
        .map(|i| per_rep.iter().map(|r| r[i]).max().unwrap_or(0) as f64)
        .collect();
    median(&merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_produce_positive_times() {
        let w = Workload::by_name("coll_nested8_mem").unwrap();
        let d = dt_replay(&w, 1, Duration::from_millis(5));
        assert!(d.pack_ns > 0.0 && d.unpack_ns > 0.0 && d.nav_ns > 0.0);
        assert!(d.view_bytes > 8 && d.view_codec_ns > 0.0);
        assert!(mpi_replay(12.0, 12.0 * 4096.0, Duration::from_millis(5)) > 0.0);
        assert!(mpi_replay(0.0, 0.0, Duration::from_millis(1)) >= 0.0);
    }
}
