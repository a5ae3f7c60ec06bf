//! The correctness gate: a naive reference of what every op must leave
//! in the file and in the user buffer, built from
//! [`lio_datatype::typemap::expand`] alone.
//!
//! A write op's user bytes, taken in memtype typemap order, land on the
//! rank's filetype runs in typemap order; a read op fills the memtype
//! runs from the filetype runs and leaves the memtype's holes alone.
//! The reference image applies exactly that to a plain `Vec<u8>`.

use lio_datatype::typemap::{expand, merge, Run};
use lio_datatype::Datatype;

use crate::workload::Workload;

/// The runs of `count` instances of `d`, adjacent runs merged (merging
/// keeps the typemap order, so the byte stream is unchanged).
pub fn runs(d: &Datatype, count: u64) -> Vec<Run> {
    merge(expand(d, count))
}

/// Copy the byte stream `src` holds at `src_runs` (shifted by
/// `src_base`) into `dst` at `dst_runs` (shifted by `dst_base`). Both run
/// lists must carry the same number of bytes.
pub fn copy_runs(
    src: &[u8],
    src_runs: &[Run],
    src_base: u64,
    dst: &mut [u8],
    dst_runs: &[Run],
    dst_base: u64,
) {
    let (mut si, mut so) = (0usize, 0u64);
    for d in dst_runs {
        let mut at = (dst_base as i64 + d.disp) as usize;
        let mut left = d.len;
        while left > 0 {
            let s = &src_runs[si];
            let n = (s.len - so).min(left);
            let from = (src_base as i64 + s.disp) as usize + so as usize;
            dst[at..at + n as usize].copy_from_slice(&src[from..from + n as usize]);
            at += n as usize;
            left -= n;
            so += n;
            if so == s.len {
                si += 1;
                so = 0;
            }
        }
    }
    debug_assert!(
        si == src_runs.len() && so == 0,
        "run lists carry different byte counts"
    );
}

/// The expected file image of one workload run, plus each rank's runs.
pub struct Reference {
    pub image: Vec<u8>,
    /// Per rank: the filetype runs of one op, relative to its slot.
    file_runs: Vec<Vec<Run>>,
    /// The memtype runs of one op's user buffer.
    mem_runs: Vec<Run>,
    slot_bytes: u64,
}

impl Reference {
    /// An all-zero image (the preallocated file) for `nprocs` ranks.
    pub fn new(w: &Workload, nprocs: usize) -> Reference {
        Reference {
            image: vec![0; w.file_bytes() as usize],
            file_runs: (0..nprocs)
                .map(|p| runs(&w.filetype(p), w.ft_count))
                .collect(),
            mem_runs: runs(&w.memtype, w.count),
            slot_bytes: w.slot_bytes(),
        }
    }

    /// Apply rank `rank`'s write of `buf` to slot `slot`.
    pub fn write(&mut self, rank: usize, slot: u64, buf: &[u8]) {
        let base = slot * self.slot_bytes;
        copy_runs(
            buf,
            &self.mem_runs,
            0,
            &mut self.image,
            &self.file_runs[rank],
            base,
        );
    }

    /// Fill `want` with what rank `rank`'s read of slot `slot` must leave
    /// in a user buffer that held `fill` everywhere.
    pub fn expected_read(&self, rank: usize, slot: u64, fill: u8, want: &mut [u8]) {
        want.fill(fill);
        let base = slot * self.slot_bytes;
        copy_runs(
            &self.image,
            &self.file_runs[rank],
            base,
            want,
            &self.mem_runs,
            0,
        );
    }

    /// File offset of rank `rank`'s first data byte in slot `slot`.
    pub fn first_data_byte(&self, rank: usize, slot: u64) -> u64 {
        slot * self.slot_bytes + self.file_runs[rank][0].disp as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run_pass, PassConfig};
    use crate::workload::{Workload, NPROCS};

    #[test]
    fn copy_runs_splits_across_run_boundaries() {
        let src = b"abcdefgh";
        let src_runs = [Run { disp: 0, len: 3 }, Run { disp: 5, len: 3 }];
        let mut dst = [b'.'; 8];
        let dst_runs = [Run { disp: 1, len: 2 }, Run { disp: 4, len: 4 }];
        copy_runs(src, &src_runs, 0, &mut dst, &dst_runs, 0);
        assert_eq!(&dst, b".ab.cfgh");
    }

    #[test]
    fn reference_round_trips_each_workload() {
        for name in crate::workload::NAMES {
            let w = Workload::by_name(name).unwrap();
            let mut r = Reference::new(&w, NPROCS);
            let buf: Vec<u8> = (0..w.buf_len()).map(|i| (i * 7 + 1) as u8).collect();
            r.write(1, 3, &buf);
            let mut got = vec![0u8; w.buf_len()];
            r.expected_read(1, 3, 0xEE, &mut got);
            let data = runs(&w.memtype, w.count);
            let mut a = vec![0u8; w.buf_len()];
            let mut b = vec![0u8; w.buf_len()];
            copy_runs(&buf, &data, 0, &mut a, &data, 0);
            copy_runs(&got, &data, 0, &mut b, &data, 0);
            assert_eq!(a, b, "{name}: data bytes round-trip");
            // the other rank's positions and every other slot stay zero
            let mut other = vec![0u8; w.buf_len()];
            r.expected_read(0, 3, 0xEE, &mut other);
            assert_eq!(other, {
                let mut z = vec![0xEE; w.buf_len()];
                copy_runs(&vec![0u8; w.buf_len()], &data, 0, &mut z, &data, 0);
                z
            });
        }
    }

    /// One corrupted byte in storage must be caught, both by the per-op
    /// read-back check and by the end-of-run image check.
    #[test]
    fn a_single_corrupted_byte_is_caught() {
        for name in ["coll_nested8_mem", "indep_vec8_mem"] {
            let w = Workload::by_name(name).unwrap();
            let clean = run_pass(&w, &PassConfig::test(11, false)).unwrap();
            assert_eq!(clean.failed, 0, "{name}: clean run must pass");
            assert!(clean.image_ok, "{name}: clean image must match");

            let bad = run_pass(&w, &PassConfig::test(11, true)).unwrap();
            assert!(
                bad.failed > 0,
                "{name}: corrupted byte not caught by read-back"
            );
            assert!(
                !bad.image_ok,
                "{name}: corrupted byte not caught by the image check"
            );
        }
    }
}
