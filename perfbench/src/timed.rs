//! The traced run's span recorder and the storage timing decorator.
//!
//! Spans are kept in memory, tagged with the op id the workload loop
//! publishes before each op, and written as JSON once the run ends.
//! Nothing here touches program code: the decorator is a
//! [`StorageFile`] like any other backend.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use lio_pfs::{StorageFile, SubmissionQueue};

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A user write op on one rank (`write_at_all` / `write_at`).
    OpWrite,
    /// A user read op on one rank.
    OpRead,
    /// One storage read call.
    PfsRead,
    /// One storage write call.
    PfsWrite,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpWrite => "core.write",
            Kind::OpRead => "core.read",
            Kind::PfsRead => "pfs.read",
            Kind::PfsWrite => "pfs.write",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The op this span belongs to (its cause); never 0.
    pub op: u64,
    pub kind: Kind,
    /// Rank thread that issued it; `None` for storage worker threads.
    pub rank: Option<usize>,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    pub dur_ns: u64,
    pub bytes: u64,
}

impl Span {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

thread_local! {
    static RANK: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Mark the calling thread as rank `r` for the spans it records.
pub fn set_thread_rank(r: usize) {
    RANK.with(|c| c.set(Some(r)));
}

pub struct Recorder {
    epoch: Instant,
    /// The op in flight for threads that are not rank threads (storage
    /// lanes and queue workers); 0 means "not inside a measured op", and
    /// spans are only kept inside one.
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// The op a rank thread is in. Independent ops end without a
    /// collective sync, so a rank still in its write must not see the
    /// read op its peer already published.
    static RANK_OP: std::cell::Cell<Option<u64>> = const { std::cell::Cell::new(None) };
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Enter op `op` on the calling rank thread. Rank 0 also publishes
    /// it to every other thread; every rank calls this before the
    /// barrier that starts the op, so all threads doing its I/O see it.
    pub fn enter_op(&self, op: u64, rank: usize) {
        RANK_OP.with(|c| c.set(Some(op)));
        if rank == 0 {
            self.op.store(op, Ordering::SeqCst);
        }
    }

    /// The op the calling thread's storage calls belong to.
    pub fn op(&self) -> u64 {
        RANK_OP
            .with(|c| c.get())
            .unwrap_or_else(|| self.op.load(Ordering::SeqCst))
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span of op `op` that ran from `start` until now.
    pub fn record(&self, op: u64, kind: Kind, start: Instant, bytes: u64) {
        if op == 0 {
            return;
        }
        let span = Span {
            op,
            kind,
            rank: RANK.with(|c| c.get()),
            start_ns: self.ns_since_epoch(start),
            dur_ns: start.elapsed().as_nanos() as u64,
            bytes,
        };
        self.spans.lock().expect("span lock poisoned").push(span);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

/// Times every call into the wrapped storage and records it as a span of
/// the current op. `submission()` is forwarded, so a queue-backed device
/// keeps its batch path when the decorator sits above it.
pub struct Timed {
    inner: Arc<dyn StorageFile>,
    rec: Arc<Recorder>,
}

impl Timed {
    pub fn new(inner: Arc<dyn StorageFile>, rec: Arc<Recorder>) -> Timed {
        Timed { inner, rec }
    }
}

impl StorageFile for Timed {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> io::Result<usize> {
        let op = self.rec.op();
        let t = Instant::now();
        let r = self.inner.read_at(offset, buf);
        let n = r.as_ref().map_or(0, |&n| n as u64);
        self.rec.record(op, Kind::PfsRead, t, n);
        r
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> io::Result<usize> {
        let op = self.rec.op();
        let t = Instant::now();
        let r = self.inner.write_at(offset, buf);
        let n = r.as_ref().map_or(0, |&n| n as u64);
        self.rec.record(op, Kind::PfsWrite, t, n);
        r
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }

    fn sync(&self) -> io::Result<()> {
        self.inner.sync()
    }

    fn submission(&self) -> Option<&SubmissionQueue> {
        self.inner.submission()
    }
}

/// Serialize spans as one JSON document: a header naming the span
/// kinds and row fields, then one row of numbers per span.
///
/// Rows hold numbers only because `lio_obs::json`'s string parsing
/// re-checks the rest of the document for every character it consumes,
/// so a document with a string per span takes quadratic time to
/// validate; numbers parse in linear time.
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write as _;
    const KINDS: [Kind; 4] = [Kind::OpWrite, Kind::OpRead, Kind::PfsRead, Kind::PfsWrite];
    let mut out = String::with_capacity(256 + spans.len() * 64);
    let kinds: Vec<String> = KINDS.iter().map(|k| format!("\"{}\"", k.name())).collect();
    let _ = write!(
        out,
        "{{\"schema\":\"perfbench-spans-v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
         \"kinds\":[{}],\"fields\":[\"op\",\"kind\",\"rank\",\"start_ns\",\"dur_ns\",\"bytes\"],\
         \"spans\":[",
        kinds.join(",")
    );
    for (i, s) in spans.iter().enumerate() {
        let kind = KINDS.iter().position(|&k| k == s.kind).unwrap_or(0);
        let rank = s.rank.map_or_else(|| "null".to_string(), |r| r.to_string());
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\n[{},{kind},{rank},{},{},{}]",
            s.op, s.start_ns, s.dur_ns, s.bytes
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Write the spans file and check that it parses back as JSON.
pub fn write_spans(path: &Path, workload: &str, seed: u64, spans: &[Span]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, spans_json(workload, seed, spans))?;
    let back = std::fs::read_to_string(path)?;
    lio_obs::json::validate(&back).map_err(|e| io::Error::other(format!("spans file: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lio_pfs::{MemFile, OsConfig, OsFile};

    #[test]
    fn records_only_inside_an_op_and_forwards_the_queue() {
        let rec = Recorder::new();
        let os: Arc<dyn StorageFile> = Arc::new(OsFile::over(MemFile::new(), OsConfig::default()));
        let t = Timed::new(os, Arc::clone(&rec));
        assert!(t.submission().is_some(), "queue seam must be forwarded");
        t.write_at(0, b"outside").unwrap();
        rec.enter_op(7, 0);
        t.write_at(0, b"inside").unwrap();
        let mut buf = [0u8; 6];
        t.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"inside");
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.op == 7 && s.bytes == 6));
        assert_eq!(spans[0].kind, Kind::PfsWrite);
        assert_eq!(spans[1].kind, Kind::PfsRead);
        let mem = Timed::new(Arc::new(MemFile::new()), Arc::clone(&rec));
        assert!(mem.submission().is_none());
        // another rank thread keeps its own op; other threads see rank 0's
        std::thread::scope(|s| {
            s.spawn(|| {
                rec.enter_op(8, 1);
                assert_eq!(rec.op(), 8);
            });
            s.spawn(|| assert_eq!(rec.op(), 7));
        });
        assert_eq!(rec.op(), 7);
    }

    #[test]
    fn spans_json_validates() {
        let spans = [Span {
            op: 1,
            kind: Kind::OpWrite,
            rank: Some(0),
            start_ns: 5,
            dur_ns: 10,
            bytes: 3,
        }];
        let s = spans_json("w", 3, &spans);
        let v = lio_obs::json::parse(&s).unwrap();
        let rows = v.get("spans").and_then(|a| a.as_arr()).unwrap();
        let row = rows[0].as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            row.iter().map(|x| x.as_f64().unwrap()).collect::<Vec<_>>(),
            [1.0, 0.0, 0.0, 5.0, 10.0, 3.0]
        );
        lio_obs::json::validate(&spans_json("w", 3, &[])).unwrap();
    }
}
