//! Tuning hints, modelled on ROMIO's `MPI_Info` keys.

/// Pack-kernel family selector, re-exported from
/// [`lio_datatype::kernels::Mode`] so hint-level callers need not depend
/// on the datatype crate directly.
pub use lio_datatype::kernels::Mode as PackKernel;

/// Which datatype-handling engine a file uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Explicit flattening into `⟨offset, length⟩` lists; linear-list
    /// navigation; ol-list exchange for collective access. The ROMIO-style
    /// baseline (paper Section 2).
    ListBased,
    /// Flattening-on-the-fly; `O(depth)` navigation; fileview caching and
    /// mergeview for collective access. The paper's contribution
    /// (Section 3).
    Listless,
}

/// How independent non-contiguous accesses touch the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SievingMode {
    /// Data sieving: read a large window, copy through it, write it back
    /// (ROMIO's default; the paper's Section 2.2).
    Sieve,
    /// One file access per contiguous block — the alternative the paper's
    /// outlook discusses as a trade-off against sieving.
    Direct,
    /// Decide per access: sieving pays when the view is dense inside its
    /// extent (most of each window is useful); direct access pays when
    /// blocks are large and sparse. This implements the "more general
    /// optimization ... the decision on the trade-off between data
    /// sieving and multiple file accesses" of the paper's outlook
    /// (Section 5). See [`crate::sieve::choose_mode`] for the heuristic.
    Auto,
}

/// Which storage substrate backs a file opened through the hint path.
///
/// The backends are byte-for-byte equivalent by construction (the
/// cross-backend differential corpus in `tests/backend.rs` pins this);
/// they differ only in where the bytes live and what the access costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// In-memory file (`lio_pfs::MemFile`) — memcpy-speed storage, the
    /// paper's "fast file system" regime. The default.
    #[default]
    Mem,
    /// In-memory file behind the calibrated SX-6 local-FS bandwidth model
    /// (`lio_pfs::ThrottledFile`).
    Throttled,
    /// Real OS file served through the asynchronous submission-queue
    /// backend (`lio_pfs::OsFile` over an unlinked temp file in
    /// `LIO_OS_DIR`).
    Os,
}

impl BackendKind {
    /// The canonical info-value / env-value name of this backend.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Mem => "mem",
            BackendKind::Throttled => "throttled",
            BackendKind::Os => "os",
        }
    }

    /// Parse a backend name (`mem`, `throttled`, `os`).
    pub fn parse(s: &str) -> Option<BackendKind> {
        match s.trim() {
            "mem" | "memory" => Some(BackendKind::Mem),
            "throttled" => Some(BackendKind::Throttled),
            "os" => Some(BackendKind::Os),
            _ => None,
        }
    }

    /// The backend selected by the `LIO_BACKEND` environment variable,
    /// or the default (`Mem`) when unset or unparseable.
    pub fn from_env() -> BackendKind {
        std::env::var("LIO_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(&v))
            .unwrap_or_default()
    }
}

/// A malformed `MPI_Info` value: the key is recognized, but the value
/// cannot be parsed. Carries enough structure for callers to report or
/// match on the failing pair instead of string-scraping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HintError {
    /// The recognized info key whose value failed to parse.
    pub key: String,
    /// The offending value, verbatim.
    pub value: String,
    /// What a valid value would have looked like.
    pub reason: String,
}

impl std::fmt::Display for HintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad hint {}={:?}: {}", self.key, self.value, self.reason)
    }
}

impl std::error::Error for HintError {}

impl HintError {
    fn new(key: &str, value: &str, reason: impl Into<String>) -> HintError {
        HintError {
            key: key.to_string(),
            value: value.to_string(),
            reason: reason.into(),
        }
    }
}

/// Per-file tuning knobs (ROMIO's `ind_rd_buffer_size`,
/// `cb_buffer_size`, `cb_nodes`, ... equivalents).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hints {
    /// Engine selection.
    pub engine: Engine,
    /// Buffer size for independent data sieving (ROMIO default: 512 KiB
    /// for writes / 4 MiB for reads; we use one knob).
    pub ind_buffer_size: usize,
    /// Buffer size for collective (two-phase) file access per IOP window
    /// (ROMIO default 4 MiB).
    pub cb_buffer_size: usize,
    /// Number of io-processes for collective access; `0` means every rank
    /// is an IOP (the common single-node configuration in the paper).
    pub cb_nodes: usize,
    /// Independent access strategy for non-contiguous fileviews.
    pub sieving: SievingMode,
    /// For collective writes: detect fully-covered windows and skip the
    /// read-modify-write (ROMIO's list-merge optimization; the listless
    /// engine uses the mergeview instead).
    pub detect_dense_writes: bool,
    /// Use the pipelined two-phase path: APs ship their contribution per
    /// file-domain window (bounding IOP memory) and each IOP
    /// double-buffers, overlapping storage I/O with the exchange. Off by
    /// default: on memcpy-speed storage the per-call worker threads cost
    /// more than they hide, so the paper-regime benches keep the
    /// monolithic path unless asked. The `LIO_PIPELINE` environment
    /// variable overrides this hint either way (see
    /// [`Hints::pipeline_enabled`]).
    pub two_phase_pipeline: bool,
    /// How many collective-buffer windows the pipelined path keeps in
    /// flight per IOP (and how far each AP may run ahead of the IOP's
    /// placement, enforced by credits). 2 = classic double buffering.
    pub pipeline_depth: usize,
    /// Worker threads for sharded datatype pack/unpack (listless engine):
    /// large copies are split at data-byte positions computed with the
    /// paper's `O(depth)` seek and copied by `std::thread::scope` workers
    /// into disjoint buffer slices. `1` (the default) keeps the copy
    /// single-threaded; `0` means auto (one worker per available core,
    /// capped at 8); `n > 1` uses up to `n` workers. Copies below a byte
    /// threshold stay single-threaded regardless. The `LIO_PACK_THREADS`
    /// environment variable overrides this hint (see
    /// [`Hints::effective_pack_threads`]).
    pub pack_threads: usize,
    /// Pack-kernel mode for the compiled run-program interpreter:
    /// `Some(mode)` forces the process-global kernel mode at open time
    /// (`auto` runs the fixed-width kernel of every eligible frame;
    /// `scalar` disables the fixed-block kernels; the retired family
    /// names `fixed`/`sse2`/`avx2` parse as `auto`). `None` (the default)
    /// leaves the process-global setting (and the `LIO_PACK_KERNEL`
    /// environment variable) in charge. See
    /// [`Hints::effective_pack_kernel`].
    pub pack_kernel: Option<PackKernel>,
    /// Observability: `Some(on)` forces `lio-obs` recording on or off when
    /// a file is opened with these hints; `None` leaves the process-global
    /// setting (and the `LIO_OBS` environment variable) in charge.
    pub obs: Option<bool>,
    /// Event tracing: `Some(on)` forces the `lio-trace` recorder on or off
    /// when a file is opened with these hints; `None` leaves the
    /// process-global setting (and the `LIO_TRACE` environment variable)
    /// in charge.
    pub trace: Option<bool>,
    /// Access-pattern profiling: `Some(on)` forces the `lio-profile`
    /// recorder on or off when a file is opened with these hints; `None`
    /// leaves the process-global setting (and the `LIO_PROFILE`
    /// environment variable) in charge.
    pub profile: Option<bool>,
    /// Runtime health layer (`lio_obs::health`): `Some(on)` forces
    /// progress heartbeats + the hang watchdog on or off when a file is
    /// opened with these hints; `None` leaves the process-global
    /// setting (and the `LIO_HEALTH` environment variable) in charge.
    pub health: Option<bool>,
    /// Which storage substrate backs files opened through the
    /// backend-aware open path ([`crate::SharedFile::for_backend`]).
    /// The `LIO_BACKEND` environment variable overrides this hint (see
    /// [`Hints::effective_backend`]).
    pub backend: BackendKind,
    /// Online knob adaptation: `Some(true)` arms the per-file tuner
    /// ([`crate::autotune`]), which retunes the *next* collective op's
    /// effective knobs from each op's critical-path breakdown; `Some(false)`
    /// forces it off; `None` (the default) defers to the `LIO_AUTOTUNE`
    /// environment variable (see [`Hints::autotune_enabled`]). The tuner
    /// changes *performance* knobs only — file bytes are identical with or
    /// without it (pinned by the differential corpus).
    pub autotune: Option<bool>,
}

impl Hints {
    /// Defaults with the given engine.
    pub fn with_engine(engine: Engine) -> Hints {
        Hints {
            engine,
            ind_buffer_size: 512 * 1024,
            cb_buffer_size: 4 * 1024 * 1024,
            cb_nodes: 0,
            sieving: SievingMode::Sieve,
            detect_dense_writes: true,
            two_phase_pipeline: false,
            pipeline_depth: 2,
            pack_threads: 1,
            pack_kernel: None,
            obs: None,
            trace: None,
            profile: None,
            health: None,
            backend: BackendKind::Mem,
            autotune: None,
        }
    }

    /// ROMIO-style list-based engine with default buffers.
    pub fn list_based() -> Hints {
        Hints::with_engine(Engine::ListBased)
    }

    /// Listless engine with default buffers.
    pub fn listless() -> Hints {
        Hints::with_engine(Engine::Listless)
    }

    /// Override the independent sieving buffer size (builder style).
    pub fn ind_buffer(mut self, bytes: usize) -> Hints {
        self.ind_buffer_size = bytes.max(1);
        self
    }

    /// Override the collective buffer size (builder style).
    pub fn cb_buffer(mut self, bytes: usize) -> Hints {
        self.cb_buffer_size = bytes.max(1);
        self
    }

    /// Override the number of io-processes (builder style).
    pub fn io_nodes(mut self, n: usize) -> Hints {
        self.cb_nodes = n;
        self
    }

    /// Override the independent access strategy (builder style).
    pub fn sieving_mode(mut self, mode: SievingMode) -> Hints {
        self.sieving = mode;
        self
    }

    /// Force `lio-obs` metrics recording on or off at open time
    /// (builder style). The default (`None`) defers to
    /// `lio_obs::set_enabled` / the `LIO_OBS` environment variable.
    pub fn observability(mut self, on: bool) -> Hints {
        self.obs = Some(on);
        self
    }

    /// Force `lio-trace` event recording on or off at open time
    /// (builder style). The default (`None`) defers to
    /// `lio_obs::trace::set_enabled` / the `LIO_TRACE` environment
    /// variable.
    pub fn tracing(mut self, on: bool) -> Hints {
        self.trace = Some(on);
        self
    }

    /// Force `lio-profile` access-pattern recording on or off at open
    /// time (builder style). The default (`None`) defers to
    /// `lio_obs::profile::set_enabled` / the `LIO_PROFILE` environment
    /// variable.
    pub fn profiling(mut self, on: bool) -> Hints {
        self.profile = Some(on);
        self
    }

    /// Force the runtime health layer (heartbeats + hang watchdog) on
    /// or off at open time (builder style). The default (`None`) defers
    /// to `lio_obs::health::set_enabled` / the `LIO_HEALTH` environment
    /// variable.
    pub fn health(mut self, on: bool) -> Hints {
        self.health = Some(on);
        self
    }

    /// Arm or disarm the online knob tuner at open time (builder style).
    /// The default (`None`) defers to the `LIO_AUTOTUNE` environment
    /// variable (see [`Hints::autotune_enabled`]).
    pub fn autotune(mut self, on: bool) -> Hints {
        self.autotune = Some(on);
        self
    }

    /// Whether opens with these hints arm the online knob tuner, honoring
    /// the `LIO_AUTOTUNE` environment override ([`lio_obs::env_flag`]):
    /// `1`/`on`/`true`/`enable` forces it on, `0`/`off`/`false`/`disable`
    /// forces it off, anything else (or unset) defers to the `autotune`
    /// hint (off when `None`).
    pub fn autotune_enabled(&self) -> bool {
        lio_obs::env_flag("LIO_AUTOTUNE").unwrap_or(self.autotune == Some(true))
    }

    /// Select the storage backend for backend-aware opens (builder
    /// style). The `LIO_BACKEND` environment variable overrides this
    /// either way (see [`Hints::effective_backend`]).
    pub fn backend(mut self, kind: BackendKind) -> Hints {
        self.backend = kind;
        self
    }

    /// The backend this open should use, honoring the `LIO_BACKEND`
    /// environment override (`mem`, `throttled`, `os`; anything
    /// unparseable or unset defers to the `backend` hint).
    pub fn effective_backend(&self) -> BackendKind {
        match std::env::var("LIO_BACKEND") {
            Ok(v) => BackendKind::parse(&v).unwrap_or(self.backend),
            Err(_) => self.backend,
        }
    }

    /// Enable or disable the pipelined two-phase path (builder style).
    pub fn pipelined(mut self, on: bool) -> Hints {
        self.two_phase_pipeline = on;
        self
    }

    /// Override the pipeline depth (builder style; clamped to ≥ 1).
    pub fn pipeline_depth(mut self, windows: usize) -> Hints {
        self.pipeline_depth = windows.max(1);
        self
    }

    /// Set the sharded pack/unpack worker count (builder style;
    /// `0` = auto, `1` = single-threaded).
    pub fn pack_threads(mut self, threads: usize) -> Hints {
        self.pack_threads = threads;
        self
    }

    /// Force the pack-kernel family at open time (builder style). The
    /// default (`None`) defers to the process-global mode and the
    /// `LIO_PACK_KERNEL` environment variable.
    pub fn pack_kernel(mut self, mode: PackKernel) -> Hints {
        self.pack_kernel = Some(mode);
        self
    }

    /// The pack-kernel mode this open should install, honoring the
    /// `LIO_PACK_KERNEL` environment override (`auto` or `scalar`;
    /// anything unparseable or unset defers to the
    /// `pack_kernel` hint). Returns `None` when neither the environment
    /// nor the hint asks for anything — the process-global default
    /// (`auto`) stays in charge.
    pub fn effective_pack_kernel(&self) -> Option<PackKernel> {
        match std::env::var("LIO_PACK_KERNEL") {
            Ok(v) => PackKernel::parse(&v).or(self.pack_kernel),
            Err(_) => self.pack_kernel,
        }
    }

    /// The worker-thread budget for sharded pack/unpack, honoring the
    /// `LIO_PACK_THREADS` environment override (a thread count; `0` for
    /// auto; anything unparseable defers to the `pack_threads` hint).
    /// Auto resolves to the number of available cores, capped at 8.
    pub fn effective_pack_threads(&self) -> usize {
        let requested = match std::env::var("LIO_PACK_THREADS") {
            Ok(v) => v.trim().parse::<usize>().unwrap_or(self.pack_threads),
            Err(_) => self.pack_threads,
        };
        if requested == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            requested
        }
    }

    /// Whether collective calls take the pipelined path, honoring the
    /// `LIO_PIPELINE` environment override ([`lio_obs::env_flag`]):
    /// `1`/`on`/`true`/`enable` forces it on, `0`/`off`/`false`/`disable`
    /// forces it off, anything else (or unset) defers to the
    /// `two_phase_pipeline` hint.
    pub fn pipeline_enabled(&self) -> bool {
        lio_obs::env_flag("LIO_PIPELINE").unwrap_or(self.two_phase_pipeline)
    }

    /// Pipeline depth with the ≥ 1 invariant enforced.
    pub fn effective_pipeline_depth(&self) -> usize {
        self.pipeline_depth.max(1)
    }

    /// Resolve `cb_nodes` against the world size.
    pub fn effective_io_nodes(&self, world: usize) -> usize {
        if self.cb_nodes == 0 {
            world
        } else {
            self.cb_nodes.min(world).max(1)
        }
    }
}

impl Default for Hints {
    fn default() -> Hints {
        Hints::listless()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let h = Hints::default();
        assert_eq!(h.engine, Engine::Listless);
        assert_eq!(h.ind_buffer_size, 512 * 1024);
        assert_eq!(h.cb_buffer_size, 4 * 1024 * 1024);
        assert_eq!(h.effective_io_nodes(8), 8);
    }

    #[test]
    fn builders() {
        let h = Hints::list_based()
            .ind_buffer(1024)
            .cb_buffer(2048)
            .io_nodes(2);
        assert_eq!(h.engine, Engine::ListBased);
        assert_eq!(h.ind_buffer_size, 1024);
        assert_eq!(h.cb_buffer_size, 2048);
        assert_eq!(h.effective_io_nodes(8), 2);
        assert_eq!(h.effective_io_nodes(1), 1);
    }

    #[test]
    fn zero_buffer_clamped() {
        let h = Hints::listless().ind_buffer(0);
        assert_eq!(h.ind_buffer_size, 1);
    }

    #[test]
    fn pipeline_builders() {
        let h = Hints::default();
        assert!(!h.two_phase_pipeline);
        assert_eq!(h.pipeline_depth, 2);
        let h = Hints::listless().pipelined(true).pipeline_depth(0);
        assert!(h.two_phase_pipeline);
        assert_eq!(h.effective_pipeline_depth(), 1);
    }
}

impl Hints {
    /// Parse ROMIO-style `MPI_Info` key/value pairs into hints, starting
    /// from `self`. Unknown keys are ignored (the `MPI_Info` contract);
    /// malformed values return a typed [`HintError`] naming the pair.
    ///
    /// Recognized keys: `engine` (`list_based`/`listless`),
    /// `ind_rd_buffer_size`, `ind_wr_buffer_size` (both map to the single
    /// independent buffer knob; the larger wins), `cb_buffer_size`,
    /// `cb_nodes`, `romio_ds_write` (`enable`/`disable`/`automatic` →
    /// sieve/direct/auto), `detect_dense_writes` (`true`/`false`),
    /// `two_phase_pipeline` (`enable`/`disable`), `pipeline_depth`
    /// (windows in flight, ≥ 1), `pack_threads` (sharded pack/unpack
    /// workers; 0 = auto), `pack_kernel` (`auto`/`scalar` — pack-kernel
    /// mode for compiled run programs; `fixed`/`sse2`/`avx2` parse as
    /// `auto`), `backend` (`mem`/`throttled`/`os` — storage substrate for
    /// backend-aware opens), `lio_obs` (`enable`/`disable` — force
    /// metrics recording at open), `lio_trace` (`enable`/`disable` —
    /// force event tracing at open), `lio_health` (`enable`/`disable`
    /// — force the runtime health layer at open).
    ///
    /// ```
    /// use lio_core::{Engine, Hints, SievingMode};
    /// let h = Hints::default()
    ///     .apply_info([("cb_buffer_size", "1048576"), ("romio_ds_write", "automatic")])
    ///     .unwrap();
    /// assert_eq!(h.cb_buffer_size, 1048576);
    /// assert_eq!(h.sieving, SievingMode::Auto);
    /// ```
    pub fn apply_info<'a>(
        mut self,
        pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    ) -> std::result::Result<Hints, HintError> {
        for (k, v) in pairs {
            match k {
                "engine" => {
                    self.engine = match v {
                        "list_based" | "list-based" => Engine::ListBased,
                        "listless" => Engine::Listless,
                        _ => return Err(HintError::new(k, v, "expected list_based or listless")),
                    }
                }
                "ind_rd_buffer_size" | "ind_wr_buffer_size" => {
                    let n: usize = v
                        .parse()
                        .map_err(|_| HintError::new(k, v, "expected a byte count"))?;
                    self.ind_buffer_size = self.ind_buffer_size.max(n.max(1));
                }
                "cb_buffer_size" => {
                    self.cb_buffer_size = v
                        .parse::<usize>()
                        .map_err(|_| HintError::new(k, v, "expected a byte count"))?
                        .max(1);
                }
                "cb_nodes" => {
                    self.cb_nodes = v
                        .parse()
                        .map_err(|_| HintError::new(k, v, "expected a process count"))?;
                }
                "romio_ds_write" | "romio_ds_read" => {
                    self.sieving = match v {
                        "enable" => SievingMode::Sieve,
                        "disable" => SievingMode::Direct,
                        "automatic" => SievingMode::Auto,
                        _ => {
                            return Err(HintError::new(
                                k,
                                v,
                                "expected enable, disable, or automatic",
                            ))
                        }
                    }
                }
                "detect_dense_writes" => {
                    self.detect_dense_writes = match v {
                        "true" => true,
                        "false" => false,
                        _ => return Err(HintError::new(k, v, "expected true or false")),
                    }
                }
                "two_phase_pipeline" => {
                    self.two_phase_pipeline = match v {
                        "enable" | "true" | "1" => true,
                        "disable" | "false" | "0" => false,
                        _ => return Err(HintError::new(k, v, "expected enable or disable")),
                    }
                }
                "pipeline_depth" => {
                    self.pipeline_depth = v
                        .parse::<usize>()
                        .map_err(|_| HintError::new(k, v, "expected a window count"))?
                        .max(1);
                }
                "pack_threads" => {
                    self.pack_threads = v
                        .parse::<usize>()
                        .map_err(|_| HintError::new(k, v, "expected a thread count (0 = auto)"))?;
                }
                "pack_kernel" => {
                    self.pack_kernel = Some(
                        PackKernel::parse(v)
                            .ok_or_else(|| HintError::new(k, v, "expected auto or scalar"))?,
                    );
                }
                "backend" => {
                    self.backend = BackendKind::parse(v)
                        .ok_or_else(|| HintError::new(k, v, "expected mem, throttled, or os"))?;
                }
                "lio_obs" => {
                    self.obs = match v {
                        "enable" | "true" | "1" => Some(true),
                        "disable" | "false" | "0" => Some(false),
                        _ => return Err(HintError::new(k, v, "expected enable or disable")),
                    }
                }
                "lio_trace" => {
                    self.trace = match v {
                        "enable" | "true" | "1" => Some(true),
                        "disable" | "false" | "0" => Some(false),
                        _ => return Err(HintError::new(k, v, "expected enable or disable")),
                    }
                }
                "lio_profile" => {
                    self.profile = match v {
                        "enable" | "true" | "1" => Some(true),
                        "disable" | "false" | "0" => Some(false),
                        _ => return Err(HintError::new(k, v, "expected enable or disable")),
                    }
                }
                "lio_health" => {
                    self.health = match v {
                        "enable" | "true" | "1" => Some(true),
                        "disable" | "false" | "0" => Some(false),
                        _ => return Err(HintError::new(k, v, "expected enable or disable")),
                    }
                }
                "lio_autotune" => {
                    self.autotune = match v {
                        "enable" | "true" | "1" => Some(true),
                        "disable" | "false" | "0" => Some(false),
                        _ => return Err(HintError::new(k, v, "expected enable or disable")),
                    }
                }
                _ => {} // unknown keys are ignored, like MPI_Info
            }
        }
        Ok(self)
    }

    /// Serialize these hints back to `MPI_Info` pairs. Every recognized
    /// key that [`Hints::apply_info`] parses is emitted (the read/write
    /// sieving aliases collapse to `romio_ds_write`; `lio_obs` only
    /// appears when the hint forces observability one way), so
    /// `base.apply_info(h.to_info_pairs())` reconstructs `h` for any base
    /// whose independent buffer does not exceed `h`'s (the
    /// `ind_*_buffer_size` keys are larger-wins by the ROMIO contract).
    pub fn to_info(&self) -> Vec<(String, String)> {
        let mut pairs = vec![
            (
                "engine".to_string(),
                match self.engine {
                    Engine::ListBased => "list_based".to_string(),
                    Engine::Listless => "listless".to_string(),
                },
            ),
            (
                "ind_rd_buffer_size".to_string(),
                self.ind_buffer_size.to_string(),
            ),
            (
                "ind_wr_buffer_size".to_string(),
                self.ind_buffer_size.to_string(),
            ),
            (
                "cb_buffer_size".to_string(),
                self.cb_buffer_size.to_string(),
            ),
            ("cb_nodes".to_string(), self.cb_nodes.to_string()),
            (
                "romio_ds_write".to_string(),
                match self.sieving {
                    SievingMode::Sieve => "enable".to_string(),
                    SievingMode::Direct => "disable".to_string(),
                    SievingMode::Auto => "automatic".to_string(),
                },
            ),
            (
                "detect_dense_writes".to_string(),
                self.detect_dense_writes.to_string(),
            ),
            (
                "two_phase_pipeline".to_string(),
                if self.two_phase_pipeline {
                    "enable".to_string()
                } else {
                    "disable".to_string()
                },
            ),
            (
                "pipeline_depth".to_string(),
                self.pipeline_depth.to_string(),
            ),
            ("pack_threads".to_string(), self.pack_threads.to_string()),
            ("backend".to_string(), self.backend.name().to_string()),
        ];
        if let Some(mode) = self.pack_kernel {
            pairs.push(("pack_kernel".to_string(), mode.name().to_string()));
        }
        if let Some(on) = self.obs {
            pairs.push((
                "lio_obs".to_string(),
                if on { "enable" } else { "disable" }.to_string(),
            ));
        }
        if let Some(on) = self.trace {
            pairs.push((
                "lio_trace".to_string(),
                if on { "enable" } else { "disable" }.to_string(),
            ));
        }
        if let Some(on) = self.profile {
            pairs.push((
                "lio_profile".to_string(),
                if on { "enable" } else { "disable" }.to_string(),
            ));
        }
        if let Some(on) = self.health {
            pairs.push((
                "lio_health".to_string(),
                if on { "enable" } else { "disable" }.to_string(),
            ));
        }
        if let Some(on) = self.autotune {
            pairs.push((
                "lio_autotune".to_string(),
                if on { "enable" } else { "disable" }.to_string(),
            ));
        }
        pairs
    }
}

#[cfg(test)]
mod info_tests {
    use super::*;

    #[test]
    fn info_pairs_parse() {
        let h = Hints::list_based()
            .apply_info([
                ("engine", "listless"),
                ("cb_buffer_size", "65536"),
                ("cb_nodes", "2"),
                ("ind_rd_buffer_size", "8192"),
                ("ind_wr_buffer_size", "4096"),
                ("romio_ds_write", "disable"),
                ("detect_dense_writes", "false"),
                ("totally_unknown_key", "whatever"),
            ])
            .unwrap();
        assert_eq!(h.engine, Engine::Listless);
        assert_eq!(h.cb_buffer_size, 65536);
        assert_eq!(h.cb_nodes, 2);
        assert_eq!(h.ind_buffer_size, 512 * 1024); // max of default and given
        assert_eq!(h.sieving, SievingMode::Direct);
        assert!(!h.detect_dense_writes);
    }

    #[test]
    fn info_errors_on_malformed_values() {
        assert!(Hints::default().apply_info([("engine", "magic")]).is_err());
        assert!(Hints::default()
            .apply_info([("cb_buffer_size", "lots")])
            .is_err());
        assert!(Hints::default()
            .apply_info([("detect_dense_writes", "maybe")])
            .is_err());
    }

    #[test]
    fn pipeline_info_keys() {
        let h = Hints::default()
            .apply_info([("two_phase_pipeline", "enable"), ("pipeline_depth", "3")])
            .unwrap();
        assert!(h.two_phase_pipeline);
        assert_eq!(h.pipeline_depth, 3);
        assert!(Hints::default()
            .apply_info([("two_phase_pipeline", "maybe")])
            .is_err());
        assert!(Hints::default()
            .apply_info([("pipeline_depth", "deep")])
            .is_err());
    }

    #[test]
    fn pack_threads_info_key() {
        let h = Hints::default()
            .apply_info([("pack_threads", "4")])
            .unwrap();
        assert_eq!(h.pack_threads, 4);
        let h = Hints::default()
            .apply_info([("pack_threads", "0")])
            .unwrap();
        assert_eq!(h.pack_threads, 0);
        assert!(Hints::default()
            .apply_info([("pack_threads", "many")])
            .is_err());
        // round-trips through to_info
        let h = Hints::default().pack_threads(3);
        let pairs = h.to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.pack_threads, 3);
    }

    #[test]
    fn pack_kernel_info_key() {
        assert_eq!(Hints::default().pack_kernel, None);
        let h = Hints::default()
            .apply_info([("pack_kernel", "scalar")])
            .unwrap();
        assert_eq!(h.pack_kernel, Some(PackKernel::Scalar));
        // a retired family name still parses, as `auto`
        let h = Hints::default()
            .apply_info([("pack_kernel", "avx2")])
            .unwrap();
        assert_eq!(h.pack_kernel, Some(PackKernel::Auto));
        assert!(Hints::default()
            .apply_info([("pack_kernel", "warp9")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when set
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "pack_kernel"));
        let pairs = Hints::default().pack_kernel(PackKernel::Scalar).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.pack_kernel, Some(PackKernel::Scalar));
    }

    #[test]
    fn pack_kernel_env_defers_to_hint() {
        if std::env::var("LIO_PACK_KERNEL").is_ok() {
            return; // the env override legitimately wins
        }
        assert_eq!(Hints::default().effective_pack_kernel(), None);
        assert_eq!(
            Hints::default()
                .pack_kernel(PackKernel::Scalar)
                .effective_pack_kernel(),
            Some(PackKernel::Scalar)
        );
    }

    #[test]
    fn trace_info_key() {
        let h = Hints::default()
            .apply_info([("lio_trace", "enable")])
            .unwrap();
        assert_eq!(h.trace, Some(true));
        let h = Hints::default().apply_info([("lio_trace", "0")]).unwrap();
        assert_eq!(h.trace, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_trace", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_trace"));
        let pairs = Hints::default().tracing(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.trace, Some(true));
    }

    #[test]
    fn profile_info_key() {
        let h = Hints::default()
            .apply_info([("lio_profile", "enable")])
            .unwrap();
        assert_eq!(h.profile, Some(true));
        let h = Hints::default().apply_info([("lio_profile", "0")]).unwrap();
        assert_eq!(h.profile, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_profile", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_profile"));
        let pairs = Hints::default().profiling(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.profile, Some(true));
    }

    #[test]
    fn health_info_key() {
        let h = Hints::default()
            .apply_info([("lio_health", "enable")])
            .unwrap();
        assert_eq!(h.health, Some(true));
        let h = Hints::default().apply_info([("lio_health", "0")]).unwrap();
        assert_eq!(h.health, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_health", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_health"));
        let pairs = Hints::default().health(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.health, Some(true));
    }

    #[test]
    fn autotune_info_key() {
        let h = Hints::default()
            .apply_info([("lio_autotune", "enable")])
            .unwrap();
        assert_eq!(h.autotune, Some(true));
        let h = Hints::default()
            .apply_info([("lio_autotune", "0")])
            .unwrap();
        assert_eq!(h.autotune, Some(false));
        assert!(Hints::default()
            .apply_info([("lio_autotune", "maybe")])
            .is_err());
        // absent by default, emitted (and round-tripped) only when forced
        assert!(Hints::default()
            .to_info()
            .iter()
            .all(|(k, _)| k != "lio_autotune"));
        let pairs = Hints::default().autotune(true).to_info();
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.autotune, Some(true));
    }

    #[test]
    fn autotune_env_defers_to_hint() {
        if std::env::var("LIO_AUTOTUNE").is_ok() {
            return; // the env override legitimately wins
        }
        assert!(!Hints::default().autotune_enabled());
        assert!(Hints::default().autotune(true).autotune_enabled());
        assert!(!Hints::default().autotune(false).autotune_enabled());
    }

    #[test]
    fn backend_info_key() {
        assert_eq!(Hints::default().backend, BackendKind::Mem);
        let h = Hints::default().apply_info([("backend", "os")]).unwrap();
        assert_eq!(h.backend, BackendKind::Os);
        let h = Hints::default()
            .apply_info([("backend", "throttled")])
            .unwrap();
        assert_eq!(h.backend, BackendKind::Throttled);
        assert!(Hints::default().apply_info([("backend", "cloud")]).is_err());
        // always emitted, round-trips
        let pairs = Hints::default().backend(BackendKind::Os).to_info();
        assert!(pairs.iter().any(|(k, v)| k == "backend" && v == "os"));
        let back = Hints::list_based()
            .apply_info(pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())))
            .unwrap();
        assert_eq!(back.backend, BackendKind::Os);
    }

    #[test]
    fn backend_env_defers_to_hint() {
        if std::env::var("LIO_BACKEND").is_ok() {
            return; // the env override legitimately wins
        }
        assert_eq!(Hints::default().effective_backend(), BackendKind::Mem);
        assert_eq!(
            Hints::default()
                .backend(BackendKind::Os)
                .effective_backend(),
            BackendKind::Os
        );
        assert_eq!(BackendKind::parse("memory"), Some(BackendKind::Mem));
        assert_eq!(BackendKind::parse("nvme"), None);
        assert_eq!(BackendKind::Os.name(), "os");
    }

    #[test]
    fn pack_threads_auto_resolves_to_cores() {
        if std::env::var("LIO_PACK_THREADS").is_ok() {
            return; // the env override legitimately wins
        }
        assert_eq!(Hints::default().effective_pack_threads(), 1);
        let auto = Hints::default().pack_threads(0).effective_pack_threads();
        assert!((1..=8).contains(&auto));
        assert_eq!(Hints::default().pack_threads(4).effective_pack_threads(), 4);
    }

    #[test]
    fn small_ind_buffer_respects_existing() {
        let h = Hints::default()
            .ind_buffer(64)
            .apply_info([("ind_rd_buffer_size", "128")])
            .unwrap();
        assert_eq!(h.ind_buffer_size, 128);
    }
}
