//! # lio-pfs — the storage substrate
//!
//! The paper's testbed is the local file system of NEC SX-6/SX-7 nodes
//! (6.5 GB/s writes, 8 GB/s reads). This crate provides the stand-in:
//!
//! * [`StorageFile`] — the positional-I/O trait the MPI-IO layer is
//!   written against;
//! * [`MemFile`] — a thread-safe in-memory file whose transfer rate is
//!   memcpy bandwidth (the "fast file system" regime where listless I/O
//!   matters most), plus [`UnixFile`] for real on-disk output;
//! * [`ThrottledFile`] — a calibrated bandwidth/latency model for
//!   emulating slower storage ([`Throttle::sx6_local_fs`],
//!   [`Throttle::commodity_nfs`]);
//! * [`CountingFile`] — access/byte counters for the overhead ablations;
//! * [`FaultyFile`] — seeded deterministic fault injection (short
//!   transfers, transient errors, torn writes, flush failures), with the
//!   bounded recovery loops in [`retry`];
//! * [`OsFile`] — the real-storage backend: an asynchronous
//!   [`SubmissionQueue`]/completion-queue pair (io_uring-shaped; see
//!   [`squeue`]) served by a worker threadpool over any device, with
//!   alignment-aware segment planning and staged buffers ([`aligned`]);
//! * [`RangeLock`] — the byte-range lock that data-sieving writes need for
//!   their read-modify-write cycle.

pub mod aligned;
pub mod decorate;
pub mod file;
pub mod lock;
pub mod os;
pub mod retry;
pub mod squeue;

pub use aligned::{AlignedBuf, AlignedPool};
pub use decorate::{
    take_spin_ns, CountingFile, FaultPlan, FaultyFile, IoStats, Throttle, ThrottledFile,
};
pub use file::{MemFile, StorageFile, UnixFile};
pub use lock::{RangeGuard, RangeLock};
pub use os::{OsConfig, OsFile};
pub use retry::{RetryExhausted, RetryPolicy};
pub use squeue::{Cqe, QueueConfig, SqBuf, Sqe, SubmissionQueue};
