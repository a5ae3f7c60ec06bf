//! The three workloads: access mode, types, hints and storage.
//!
//! Every workload runs `NPROCS` rank threads, moves `OP_BYTES` per rank
//! per op through the listless engine, and places op `i` at a seeded
//! slot of a file preallocated to `NSLOTS` slots. One slot is one op's
//! worth of filetype instances, so each slot holds both ranks' data for
//! one op and nothing else.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use lio_core::{BackendKind, Hints};
use lio_datatype::Datatype;
use lio_noncontig::{figure4_filetype, noncontig_memtype};
use lio_pfs::{MemFile, OsConfig, OsFile, StorageFile, UnixFile};

pub const NPROCS: usize = 2;
/// User bytes each rank moves per op.
pub const OP_BYTES: u64 = 256 * 1024;
/// Slots the file is preallocated to; each op's slot is drawn from the seed.
pub const NSLOTS: u64 = 16;

pub const NAMES: [&str; 3] = ["coll_nested8_mem", "indep_vec8_mem", "coll_pipelined_os"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    Collective,
    Independent,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub access: Access,
    pub hints: Hints,
    /// Block size of the interleaved filetype.
    sblock: u64,
    /// Blocks per filetype instance and rank.
    nblock: u64,
    /// Block slots per stride: `NPROCS`, plus one hole for read-modify-write.
    slots: u64,
    /// Filetype instances per op.
    pub ft_count: u64,
    pub memtype: Datatype,
    /// Memtype instances per op.
    pub count: u64,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            // BTIO-like: nested memtype through compiled programs and
            // fixed-width kernels, monolithic two-phase, memcpy storage.
            "coll_nested8_mem" => {
                let nblock = OP_BYTES / 8;
                let inner = noncontig_memtype(16, 8);
                let memtype = Datatype::vector(nblock / 16, 1, 2, &inner).expect("outer vector");
                Workload {
                    name: "coll_nested8_mem",
                    access: Access::Collective,
                    hints: Hints::listless(),
                    sblock: 8,
                    nblock,
                    slots: NPROCS as u64,
                    ft_count: 1,
                    memtype,
                    count: 1,
                }
            }
            // Paper Fig. 5: independent nc-nc, depth-1 vector memtype,
            // data sieving under range locks; no p2p messages at all.
            "indep_vec8_mem" => Workload {
                name: "indep_vec8_mem",
                access: Access::Independent,
                hints: Hints::listless(),
                sblock: 8,
                nblock: 4096,
                slots: NPROCS as u64,
                ft_count: OP_BYTES / (4096 * 8),
                memtype: noncontig_memtype(4096, 8),
                count: OP_BYTES / (4096 * 8),
            },
            // Pipelined two-phase on the real-file backend; one hole per
            // stride makes every window read-modify-write.
            "coll_pipelined_os" => Workload {
                name: "coll_pipelined_os",
                access: Access::Collective,
                hints: Hints::listless()
                    .pipelined(true)
                    .pipeline_depth(2)
                    .cb_buffer(32 * 1024)
                    .backend(BackendKind::Os),
                sblock: 4096,
                nblock: OP_BYTES / 4096,
                slots: NPROCS as u64 + 1,
                ft_count: 1,
                memtype: Datatype::contiguous(OP_BYTES, &Datatype::byte()).expect("contig memtype"),
                count: 1,
            },
            _ => return None,
        };
        let w = Workload {
            hints: w.hints.autotune(false).pack_threads(1),
            ..w
        };
        debug_assert_eq!(w.memtype.size() * w.count, OP_BYTES);
        debug_assert_eq!(w.filetype(0).size() * w.ft_count, OP_BYTES);
        Some(w)
    }

    /// The Figure-4 interleaved filetype of rank `p`, with `slots`
    /// block slots per stride (a slot beyond `NPROCS` is a hole).
    pub fn filetype(&self, p: usize) -> Datatype {
        figure4_filetype(p as u64, self.slots, self.nblock, self.sblock)
    }

    /// File bytes one slot spans (both ranks' data plus any holes).
    pub fn slot_bytes(&self) -> u64 {
        self.nblock * self.slots * self.sblock * self.ft_count
    }

    pub fn file_bytes(&self) -> u64 {
        self.slot_bytes() * NSLOTS
    }

    /// Bytes of user buffer one op's memtype instances span.
    pub fn buf_len(&self) -> usize {
        let m = &self.memtype;
        ((self.count as i64 - 1) * m.extent() as i64 + m.data_ub()) as usize
    }

    pub fn backend(&self) -> BackendKind {
        self.hints.backend
    }

    /// A fresh, empty storage device for this workload, optionally
    /// wrapped by `wrap` (the traced run's timing decorator). On the `os`
    /// backend the wrapper sits beneath the submission queue, so both
    /// the blocking facade and the pipelined lanes' direct submissions
    /// pass through it.
    pub fn storage(
        &self,
        os_dir: &Path,
        wrap: impl FnOnce(Arc<dyn StorageFile>) -> Arc<dyn StorageFile>,
    ) -> io::Result<Arc<dyn StorageFile>> {
        Ok(match self.backend() {
            BackendKind::Os => {
                let dev = wrap(Arc::new(temp_file(os_dir)?));
                Arc::new(OsFile::over_arc(dev, OsConfig::from_env()))
            }
            _ => wrap(Arc::new(MemFile::new())),
        })
    }
}

/// An anonymous file in `dir`: unlinked right after creation, so it
/// needs no cleanup.
fn temp_file(dir: &Path) -> io::Result<UnixFile> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir)?;
    let path: PathBuf = dir.join(format!(
        "perfbench-{}-{}.bin",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let f = UnixFile::create(&path)?;
    std::fs::remove_file(&path)?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_move_op_bytes_per_rank() {
        for name in NAMES {
            let w = Workload::by_name(name).expect("known workload");
            assert_eq!(w.memtype.size() * w.count, OP_BYTES, "{name} memtype");
            for p in 0..NPROCS {
                let ft = w.filetype(p);
                assert!(ft.is_monotone(), "{name} filetype");
                assert_eq!(ft.size() * w.ft_count, OP_BYTES, "{name} filetype");
                assert_eq!(ft.extent() * w.ft_count, w.slot_bytes(), "{name} extent");
            }
        }
        assert!(Workload::by_name("bogus").is_none());
    }

    #[test]
    fn nested_memtype_is_two_levels_of_8_byte_blocks() {
        let w = Workload::by_name("coll_nested8_mem").unwrap();
        assert_eq!(w.memtype.depth(), 2 + Datatype::basic(8).depth());
        assert_eq!(w.memtype.leaf_runs(), OP_BYTES / 8);
    }
}
