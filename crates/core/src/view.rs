//! Fileviews and the two navigation/copy engines that interpret them.
//!
//! A [`FileView`] is the MPI-IO triple `(disp, etype, filetype)`: the
//! filetype tiles the file from byte `disp` onwards, and the bytes covered
//! by its data form the view's *stream* — the sequence of data bytes a
//! process reads or writes. Offsets passed to the access routines are in
//! etype units and may land anywhere inside the filetype, which is why
//! navigation (stream position ↔ absolute file offset) is needed at all.
//!
//! The crate-internal `ViewNav` encapsulates the part the paper is
//! about: *how* that navigation and the associated copying is done.
//!
//! * `ListNav` — the list-based baseline: an explicitly flattened
//!   ol-list, searched **linearly from the start** on every navigation
//!   (the `O(Nblock/2)`-per-access cost of Section 2.2).
//! * `FfNav` — listless: flattening-on-the-fly navigation in
//!   `O(depth · log k)`, and window copies through the filetype's
//!   compiled run program, entered at any stream byte in `O(depth)`
//!   (Section 3).

use std::sync::Arc;

use lio_datatype::typemap::Run;
use lio_datatype::{bytes_below_tiled, ff_offset, Datatype, OlList, RunProgram};

use crate::error::{IoError, Result};

/// An MPI-IO fileview: displacement, elementary type, filetype.
#[derive(Debug, Clone)]
pub struct FileView {
    /// Absolute byte displacement where the tiled filetype begins
    /// (skips headers etc.).
    pub disp: u64,
    /// The elementary type; access offsets count in units of its size.
    pub etype: Datatype,
    /// The filetype tiling the file from `disp`.
    pub filetype: Datatype,
}

impl FileView {
    /// Validate and build a fileview. Enforces the MPI-IO restrictions:
    /// monotone non-negative filetype displacements, etype dividing the
    /// filetype size.
    pub fn new(disp: u64, etype: Datatype, filetype: Datatype) -> Result<FileView> {
        filetype.valid_as_filetype()?;
        if etype.size() == 0 {
            return Err(IoError::Usage("etype must have nonzero size".into()));
        }
        if filetype.size() == 0 {
            return Err(IoError::Usage("filetype must have nonzero size".into()));
        }
        if !filetype.size().is_multiple_of(etype.size()) {
            return Err(IoError::Usage(format!(
                "filetype size {} is not a multiple of etype size {}",
                filetype.size(),
                etype.size()
            )));
        }
        Ok(FileView {
            disp,
            etype,
            filetype,
        })
    }

    /// The default "flat" view: etype and filetype are bytes.
    pub fn bytes() -> FileView {
        FileView {
            disp: 0,
            etype: Datatype::byte(),
            filetype: Datatype::byte(),
        }
    }

    /// Whether the view exposes the file contiguously (no holes), so
    /// accesses can bypass sieving entirely.
    pub fn is_contiguous(&self) -> bool {
        self.filetype.size() == self.filetype.extent()
            && self.filetype.single_run() == Some(self.filetype.data_lb())
    }

    /// Convert an access offset in etype units to a stream byte position.
    #[inline]
    pub fn etype_offset_to_stream(&self, offset: u64) -> u64 {
        offset * self.etype.size()
    }
}

/// Engine-specific navigation over one rank's fileview.
pub(crate) enum ViewNav {
    List(ListNav),
    Ff(FfNav),
}

impl ViewNav {
    /// Absolute file offset of stream byte `stream`.
    pub fn stream_to_abs(&self, stream: u64) -> u64 {
        match self {
            ViewNav::List(n) => n.stream_to_abs(stream),
            ViewNav::Ff(n) => n.stream_to_abs(stream),
        }
    }

    /// Stream bytes with absolute offsets `< abs`.
    pub fn abs_to_stream(&self, abs: u64) -> u64 {
        match self {
            ViewNav::List(n) => n.abs_to_stream(abs),
            ViewNav::Ff(n) => n.abs_to_stream(abs),
        }
    }

    /// Stream bytes with absolute offsets in `[lo, hi)`.
    pub fn bytes_in(&self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return 0;
        }
        self.abs_to_stream(hi) - self.abs_to_stream(lo)
    }

    /// Copy stream-ordered `data` (starting at stream position `stream0`)
    /// into the window `filebuf` that mirrors file bytes
    /// `[win_start, win_start + filebuf.len())`. Returns bytes placed
    /// (stops at window end or data end).
    pub fn place_into_window(
        &self,
        data: &[u8],
        stream0: u64,
        filebuf: &mut [u8],
        win_start: u64,
    ) -> usize {
        match self {
            ViewNav::List(n) => {
                let runs = n.runs_from(stream0);
                place_runs(runs, data, filebuf, win_start)
            }
            ViewNav::Ff(n) => n.place_window(data, stream0, filebuf, win_start),
        }
    }

    /// Copy this view's bytes out of the window `filebuf` (mirroring
    /// `[win_start, win_start + filebuf.len())`) into `out`, starting at
    /// stream position `stream0`. Returns bytes extracted (stops at
    /// window end or `out` end).
    pub fn extract_from_window(
        &self,
        filebuf: &[u8],
        win_start: u64,
        stream0: u64,
        out: &mut [u8],
    ) -> usize {
        match self {
            ViewNav::List(n) => {
                let runs = n.runs_from(stream0);
                extract_runs(runs, filebuf, win_start, out)
            }
            ViewNav::Ff(n) => n.extract_window(filebuf, win_start, stream0, out),
        }
    }

    /// The underlying view.
    pub fn view(&self) -> &FileView {
        match self {
            ViewNav::List(n) => &n.view,
            ViewNav::Ff(n) => &n.view,
        }
    }
}

/// Shared placement loop: copy `data` into the window along `runs`
/// (absolute, monotone, starting at or after `win_start`).
pub(crate) fn place_runs(
    runs: impl Iterator<Item = Run>,
    data: &[u8],
    filebuf: &mut [u8],
    win_start: u64,
) -> usize {
    let win_end = win_start + filebuf.len() as u64;
    let mut consumed = 0usize;
    let profiling = lio_obs::profile::enabled();
    let mut prev_end = u64::MAX;
    for run in runs {
        if consumed >= data.len() {
            break;
        }
        let abs = run.disp as u64;
        if abs >= win_end {
            break;
        }
        debug_assert!(abs >= win_start, "run starts before the window");
        let take = (run.len as usize)
            .min(data.len() - consumed)
            .min((win_end - abs) as usize);
        let o = (abs - win_start) as usize;
        filebuf[o..o + take].copy_from_slice(&data[consumed..consumed + take]);
        consumed += take;
        if profiling {
            let gap = if prev_end == u64::MAX {
                0
            } else {
                abs - prev_end
            };
            lio_obs::profile::record_run(take as u64, gap, abs == prev_end);
            prev_end = abs + take as u64;
        }
        if take < run.len as usize {
            break; // window or data exhausted mid-run
        }
    }
    consumed
}

/// Shared extraction loop: copy window bytes into `out` along `runs`.
pub(crate) fn extract_runs(
    runs: impl Iterator<Item = Run>,
    filebuf: &[u8],
    win_start: u64,
    out: &mut [u8],
) -> usize {
    let win_end = win_start + filebuf.len() as u64;
    let mut produced = 0usize;
    let profiling = lio_obs::profile::enabled();
    let mut prev_end = u64::MAX;
    for run in runs {
        if produced >= out.len() {
            break;
        }
        let abs = run.disp as u64;
        if abs >= win_end {
            break;
        }
        debug_assert!(abs >= win_start, "run starts before the window");
        let take = (run.len as usize)
            .min(out.len() - produced)
            .min((win_end - abs) as usize);
        let o = (abs - win_start) as usize;
        out[produced..produced + take].copy_from_slice(&filebuf[o..o + take]);
        produced += take;
        if profiling {
            let gap = if prev_end == u64::MAX {
                0
            } else {
                abs - prev_end
            };
            lio_obs::profile::record_run(take as u64, gap, abs == prev_end);
            prev_end = abs + take as u64;
        }
        if take < run.len as usize {
            break;
        }
    }
    produced
}

// ---------------------------------------------------------------------
// List-based navigation
// ---------------------------------------------------------------------

/// List-based navigator: explicit ol-list, linear traversal per access.
pub(crate) struct ListNav {
    pub view: FileView,
    /// Flattened single filetype instance (offsets relative to `disp`).
    /// Created once when the view is established, as ROMIO does.
    pub list: Arc<OlList>,
}

impl ListNav {
    pub fn new(view: FileView) -> ListNav {
        // the paper's "explicit flattening" — O(Nblock) time and memory
        let list = Arc::new(OlList::flatten(&view.filetype, 1));
        ListNav { view, list }
    }

    fn fsize(&self) -> u64 {
        self.view.filetype.size()
    }

    fn fext(&self) -> u64 {
        self.view.filetype.extent()
    }

    pub fn stream_to_abs(&self, stream: u64) -> u64 {
        let inst = stream / self.fsize();
        let within = stream % self.fsize();
        // deliberate linear traversal from the start of the list — the
        // list-based navigation cost of paper Section 2.2
        let rel = self.list.offset_of(within).expect("within < filetype size");
        self.view.disp + inst * self.fext() + rel as u64
    }

    pub fn abs_to_stream(&self, abs: u64) -> u64 {
        if abs <= self.view.disp {
            return 0;
        }
        let rel = abs - self.view.disp;
        let inst = rel / self.fext();
        let within = rel % self.fext();
        // linear scan for the partial instance
        inst * self.fsize() + self.list.size_in_window(0, within as i64)
    }

    /// Iterator over absolute-offset runs from stream position `stream0`.
    /// Construction performs the linear locate.
    pub fn runs_from(&self, stream0: u64) -> ListRuns<'_> {
        let fsize = self.fsize();
        let inst = stream0 / fsize;
        let within = stream0 % fsize;
        // linear locate (the measured overhead)
        let pos = self.list.locate(within);
        let (seg, offset_in_seg) = match pos {
            Some(p) => (p.seg, p.within),
            None => (self.list.segs.len(), 0), // within == 0 of empty? fsize>0 so only when within rounds to len
        };
        ListRuns {
            nav: self,
            inst,
            seg,
            offset_in_seg,
        }
    }
}

/// Absolute-run iterator over a tiled ol-list.
pub(crate) struct ListRuns<'a> {
    nav: &'a ListNav,
    inst: u64,
    seg: usize,
    offset_in_seg: u64,
}

impl Iterator for ListRuns<'_> {
    type Item = Run;

    fn next(&mut self) -> Option<Run> {
        let list = &self.nav.list;
        if self.seg >= list.segs.len() {
            // wrap to the next filetype instance
            self.inst += 1;
            self.seg = 0;
            self.offset_in_seg = 0;
            if list.segs.is_empty() {
                return None;
            }
        }
        let s = list.segs[self.seg];
        let base = self.nav.view.disp + self.inst * self.nav.fext();
        let run = Run {
            disp: (base as i64) + s.offset + self.offset_in_seg as i64,
            len: s.len - self.offset_in_seg,
        };
        self.seg += 1;
        self.offset_in_seg = 0;
        Some(run)
    }
}

// ---------------------------------------------------------------------
// Listless (flattening-on-the-fly) navigation
// ---------------------------------------------------------------------

/// Listless navigator: no materialized representation beyond the
/// filetype's compiled run program (cached on the datatype node).
pub(crate) struct FfNav {
    pub view: FileView,
}

impl FfNav {
    pub fn new(view: FileView) -> FfNav {
        FfNav { view }
    }

    /// Stream bytes from `stream0` up to the end of the window ending at
    /// absolute offset `win_end`, capped at `want`: the `O(depth)` clamp
    /// that makes the program copy stop at the window end.
    fn window_bytes(&self, stream0: u64, win_end: u64, want: usize) -> usize {
        let avail = self.abs_to_stream(win_end).saturating_sub(stream0);
        (want as u64).min(avail) as usize
    }

    /// Typemap displacement of the window's first byte.
    fn buf_disp(&self, win_start: u64) -> i64 {
        win_start as i64 - self.view.disp as i64
    }

    /// Place stream data into a window through the filetype's run
    /// program.
    pub fn place_window(
        &self,
        data: &[u8],
        stream0: u64,
        filebuf: &mut [u8],
        win_start: u64,
    ) -> usize {
        let win_end = win_start + filebuf.len() as u64;
        let n = self.window_bytes(stream0, win_end, data.len());
        let prog = self.view.filetype.program();
        let (n, runs) = prog.unpack_into(
            &data[..n],
            filebuf,
            self.buf_disp(win_start),
            u64::MAX,
            stream0,
        );
        profile_window(prog, n, runs);
        n
    }

    /// Extract window bytes into `out` through the filetype's run
    /// program.
    pub fn extract_window(
        &self,
        filebuf: &[u8],
        win_start: u64,
        stream0: u64,
        out: &mut [u8],
    ) -> usize {
        let win_end = win_start + filebuf.len() as u64;
        let n = self.window_bytes(stream0, win_end, out.len());
        let prog = self.view.filetype.program();
        let (n, runs) = prog.pack_into(
            filebuf,
            self.buf_disp(win_start),
            u64::MAX,
            stream0,
            &mut out[..n],
        );
        profile_window(prog, n, runs);
        n
    }

    pub fn stream_to_abs(&self, stream: u64) -> u64 {
        self.view.disp + ff_offset(&self.view.filetype, stream) as u64
    }

    pub fn abs_to_stream(&self, abs: u64) -> u64 {
        if abs <= self.view.disp {
            return 0;
        }
        bytes_below_tiled(&self.view.filetype, (abs - self.view.disp) as i64)
    }
}

/// Feed the access-pattern profiler the file-run geometry of one window
/// copy of `n` bytes in `runs` runs. The program never materializes runs,
/// so its shape stands in: a single dense frame is one contiguous run, a
/// single strided frame a regular batch, anything else `runs` runs of
/// their mean length.
fn profile_window(prog: &RunProgram, n: usize, runs: u64) {
    if !lio_obs::profile::enabled() || n == 0 {
        return;
    }
    let n = n as u64;
    match prog.single_frame() {
        Some((block, stride)) if stride.unsigned_abs() == block => {
            lio_obs::profile::record_run(n, 0, true)
        }
        Some((block, stride)) => {
            lio_obs::profile::record_strided(block, stride.unsigned_abs(), n.div_ceil(block))
        }
        None => lio_obs::profile::record_runs(runs, n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lio_datatype::typemap::expand;
    use lio_datatype::Datatype;
    use lio_testkit::Rng;

    fn sample_view(disp: u64) -> FileView {
        // blocks of 8 bytes at 0, 16, 32 within a 40-byte extent
        let ft = Datatype::vector(3, 1, 2, &Datatype::double()).unwrap();
        FileView::new(disp, Datatype::double(), ft).unwrap()
    }

    /// Blocks of 12, 4 and 8 bytes at 0, 20 and 36 within a 44-byte
    /// extent, so the last block of one instance touches the first block
    /// of the next. A ragged hindexed does not reduce to one strided
    /// frame: its program is a literal tail.
    fn ragged_view(disp: u64) -> FileView {
        let ft = Datatype::indexed(&[3, 1, 2], &[0, 5, 9], &Datatype::int()).unwrap();
        assert!(ft.program().single_frame().is_none());
        FileView::new(disp, Datatype::int(), ft).unwrap()
    }

    /// The sample vector resized to a 48-byte extent: its blocks keep a
    /// 16-byte stride across instances (the Figure 4 shape), so the
    /// program tiles as one unbounded frame.
    fn tiled_view(disp: u64) -> FileView {
        let v = Datatype::vector(3, 1, 2, &Datatype::double()).unwrap();
        FileView::new(
            disp,
            Datatype::double(),
            Datatype::resized(&v, 0, 48).unwrap(),
        )
        .unwrap()
    }

    fn both_navs(view: FileView) -> (ListNav, FfNav) {
        (ListNav::new(view.clone()), FfNav::new(view))
    }

    #[test]
    fn view_validation() {
        assert!(FileView::new(0, Datatype::double(), Datatype::double()).is_ok());
        // non-monotone filetype rejected
        let bad = Datatype::indexed(&[1, 1], &[4, 0], &Datatype::int()).unwrap();
        assert!(FileView::new(0, Datatype::int(), bad).is_err());
        // etype not dividing filetype size
        let ft = Datatype::contiguous(3, &Datatype::byte()).unwrap();
        assert!(FileView::new(0, Datatype::int(), ft).is_err());
    }

    #[test]
    fn contiguous_detection() {
        assert!(FileView::bytes().is_contiguous());
        let dense = FileView::new(
            8,
            Datatype::double(),
            Datatype::contiguous(4, &Datatype::double()).unwrap(),
        )
        .unwrap();
        assert!(dense.is_contiguous());
        assert!(!sample_view(0).is_contiguous());
    }

    #[test]
    fn navs_agree_on_stream_to_abs() {
        let (ln, fn_) = both_navs(sample_view(100));
        for stream in 0..96 {
            assert_eq!(
                ln.stream_to_abs(stream),
                fn_.stream_to_abs(stream),
                "stream {stream}"
            );
        }
    }

    #[test]
    fn navs_agree_on_abs_to_stream() {
        let (ln, fn_) = both_navs(sample_view(100));
        for abs in 0..300 {
            assert_eq!(ln.abs_to_stream(abs), fn_.abs_to_stream(abs), "abs {abs}");
        }
    }

    #[test]
    fn stream_to_abs_values() {
        let (ln, _) = both_navs(sample_view(100));
        assert_eq!(ln.stream_to_abs(0), 100);
        assert_eq!(ln.stream_to_abs(8), 116);
        assert_eq!(ln.stream_to_abs(16), 132);
        assert_eq!(ln.stream_to_abs(24), 140); // next instance
    }

    #[test]
    fn place_and_extract_roundtrip() {
        let view = sample_view(0);
        let nav = ViewNav::Ff(FfNav::new(view));
        let data: Vec<u8> = (1..=24).collect();
        // window covering the whole first instance
        let mut filebuf = vec![0u8; 40];
        let placed = nav.place_into_window(&data, 0, &mut filebuf, 0);
        assert_eq!(placed, 24);
        assert_eq!(&filebuf[0..8], &data[0..8]);
        assert_eq!(&filebuf[16..24], &data[8..16]);
        assert_eq!(&filebuf[32..40], &data[16..24]);
        // gaps untouched
        assert_eq!(&filebuf[8..16], &[0; 8]);

        let mut out = vec![0u8; 24];
        let got = nav.extract_from_window(&filebuf, 0, 0, &mut out);
        assert_eq!(got, 24);
        assert_eq!(out, data);

        // the same on a filetype whose program is not one strided frame
        let view = ragged_view(0);
        let ft = view.filetype.clone();
        let nav = ViewNav::Ff(FfNav::new(view));
        // two instances, so the copy crosses the touching instance seam
        let size = 2 * ft.size() as usize;
        let data: Vec<u8> = (1..=size as u8).collect();
        let mut filebuf = vec![0u8; 2 * ft.extent() as usize];
        assert_eq!(nav.place_into_window(&data, 0, &mut filebuf, 0), size);
        // every data run holds its stream bytes in order; gaps untouched
        let mut expect = vec![0u8; filebuf.len()];
        let mut next = data.iter();
        for r in expand(&ft, 2) {
            for b in &mut expect[r.disp as usize..(r.disp as u64 + r.len) as usize] {
                *b = *next.next().unwrap();
            }
        }
        assert_eq!(filebuf, expect);

        let mut out = vec![0u8; size];
        assert_eq!(nav.extract_from_window(&filebuf, 0, 0, &mut out), size);
        assert_eq!(out, data);
    }

    #[test]
    fn place_clips_at_window_end() {
        let view = sample_view(0);
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            let data: Vec<u8> = (1..=24).collect();
            // window covers only the first 20 bytes of the file
            let mut filebuf = vec![0u8; 20];
            let placed = nav.place_into_window(&data, 0, &mut filebuf, 0);
            assert_eq!(placed, 12); // block 0 (8) + half of block 1 (4)
            assert_eq!(&filebuf[0..8], &data[0..8]);
            assert_eq!(&filebuf[16..20], &data[8..12]);
            // continue in the next window
            let mut filebuf2 = vec![0u8; 20];
            let placed2 = nav.place_into_window(&data[12..], 12, &mut filebuf2, 20);
            assert_eq!(placed2, 12);
            assert_eq!(&filebuf2[0..4], &data[12..16]); // rest of block 1
            assert_eq!(&filebuf2[12..20], &data[16..24]); // block 2
        }

        let view = ragged_view(0);
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            let data: Vec<u8> = (1..=24).collect();
            // window [0, 8) ends inside block 0 ([0, 12))
            let mut filebuf = vec![0u8; 8];
            assert_eq!(nav.place_into_window(&data, 0, &mut filebuf, 0), 8);
            assert_eq!(filebuf, &data[0..8]);
            // window [8, 40): rest of block 0, block 1, start of block 2
            let mut filebuf2 = vec![0u8; 32];
            assert_eq!(nav.place_into_window(&data[8..], 8, &mut filebuf2, 8), 12);
            assert_eq!(&filebuf2[0..4], &data[8..12]);
            assert_eq!(&filebuf2[12..16], &data[12..16]);
            assert_eq!(&filebuf2[28..32], &data[16..20]);
            assert_eq!(&filebuf2[4..12], &[0; 8]);
            assert_eq!(&filebuf2[16..28], &[0; 12]);
        }
    }

    #[test]
    fn windows_starting_inside_gaps() {
        let view = sample_view(0);
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            // window [10, 30): contains only block 1 (16..24)
            assert_eq!(nav.bytes_in(10, 30), 8);
            let mut filebuf = vec![9u8; 20];
            let stream0 = nav.abs_to_stream(10);
            assert_eq!(stream0, 8);
            let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
            let placed = nav.place_into_window(&data, stream0, &mut filebuf, 10);
            assert_eq!(placed, 8);
            assert_eq!(&filebuf[6..14], &data);
        }

        let view = ragged_view(0);
        for nav in [
            ViewNav::List(ListNav::new(view.clone())),
            ViewNav::Ff(FfNav::new(view.clone())),
        ] {
            // window [14, 34): gap, block 1 ([20, 24)), gap
            assert_eq!(nav.bytes_in(14, 34), 4);
            let stream0 = nav.abs_to_stream(14);
            assert_eq!(stream0, 12);
            let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
            let mut filebuf = vec![9u8; 20];
            assert_eq!(nav.place_into_window(&data, stream0, &mut filebuf, 14), 4);
            assert_eq!(&filebuf[6..10], &data[..4]);
            let mut out = [0u8; 8];
            assert_eq!(nav.extract_from_window(&filebuf, 14, stream0, &mut out), 4);
            assert_eq!(&out[..4], &data[..4]);
        }
    }

    /// Every window `[win_start, win_start + len)` of the first three
    /// instances of a strided, a ragged and a tiled filetype, entered at every stream position from the window's
    /// first data byte to one past its last: the program copy must match
    /// the ol-list copy byte for byte, in the count and in the bytes.
    /// Windows start and end mid-block and inside gaps; the buffer and
    /// data lengths are seeded, so some copies stop at the data end.
    #[test]
    fn ff_window_copies_match_list_sweep() {
        let mut rng = Rng::new(0x5C03);
        for view in [sample_view(3), ragged_view(5), tiled_view(2)] {
            let (ln, fnav) = both_navs(view.clone());
            let (ln, fnav) = (ViewNav::List(ln), ViewNav::Ff(fnav));
            let ext = view.filetype.extent();
            let span = view.disp + 3 * ext;
            for win_start in 0..span {
                for len in 0..=(span - win_start).min(ext + 7) {
                    let win_end = win_start + len;
                    let first = ln.abs_to_stream(win_start);
                    for stream0 in first..=ln.abs_to_stream(win_end) + 1 {
                        let want = rng.below(2 * view.filetype.size()) as usize;
                        let data: Vec<u8> = (0..want).map(|_| rng.below(256) as u8).collect();
                        let noise: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                        let ctx = format!("win [{win_start}, {win_end}) stream0 {stream0}");

                        let (mut a, mut b) = (noise.clone(), noise.clone());
                        let pa = ln.place_into_window(&data, stream0, &mut a, win_start);
                        let pb = fnav.place_into_window(&data, stream0, &mut b, win_start);
                        assert_eq!((pa, &a), (pb, &b), "place {ctx}");

                        let (mut a, mut b) = (vec![0u8; want], vec![0u8; want]);
                        let ea = ln.extract_from_window(&noise, win_start, stream0, &mut a);
                        let eb = fnav.extract_from_window(&noise, win_start, stream0, &mut b);
                        assert_eq!((ea, &a), (eb, &b), "extract {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn disp_offsets_everything() {
        let view = sample_view(1000);
        let nav = ViewNav::Ff(FfNav::new(view));
        assert_eq!(nav.stream_to_abs(0), 1000);
        assert_eq!(nav.abs_to_stream(999), 0);
        assert_eq!(nav.abs_to_stream(1008), 8);
        assert_eq!(nav.bytes_in(0, 1000), 0);
    }
}
