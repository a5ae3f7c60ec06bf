//! Fixed-block gather/scatter kernels under the run-program interpreter.
//!
//! The compiled interpreter ([`crate::program`]) reduces every datatype to
//! nested `{count, block, stride}` frames, but until this layer existed the
//! innermost loop still paid a dynamic-length `copy_from_slice` per block —
//! a full `memcpy` call to move 2 or 8 bytes. That is exactly the regime
//! where derived-datatype engines lose to manual packing (Hunold et al.,
//! PAPERS.md): the copy loop is bookkeeping-bound, not bandwidth-bound.
//!
//! This module provides one portable family of monomorphized kernels for
//! the small fixed block sizes (2/4/8/16/32 bytes) that dominate
//! non-contiguous scientific layouts. The per-block copy width is a
//! compile-time constant (`ptr::copy_nonoverlapping::<B>`), so the
//! compiler emits single loads/stores instead of `memcpy` calls and picks
//! the vector width the target allows. One class gets an explicit shape:
//! the 4-byte gather stores two blocks per 8-byte word.
//!
//! Selection happens **once at compile time per `Blocks` frame**
//! ([`Sel::select`] records the block-size class in the frame), so the
//! interpreter's hot loop performs a single direct dispatch per frame
//! region — no per-block branching. A bit-identical scalar path always
//! remains: the `LIO_PACK_KERNEL` environment variable (or the
//! `pack_kernel` hint / info key) can force `scalar`, and any frame the
//! kernels cannot prove in-bounds falls back to the per-block scalar loop
//! (`dt.kernel.fallbacks`).

use std::ptr;
use std::sync::atomic::{AtomicU8, Ordering};

use lio_obs::LazyCounter;

/// Frames whose block class has a fixed-width kernel.
pub(crate) static OBS_KERNEL_SELECTED: LazyCounter = LazyCounter::new("dt.kernel.selected");
/// Whole blocks copied through a fixed-width kernel.
pub(crate) static OBS_KERNEL_BLOCKS: LazyCounter = LazyCounter::new("dt.kernel.blocks");
/// Bytes copied through a fixed-width kernel.
pub(crate) static OBS_KERNEL_BYTES: LazyCounter = LazyCounter::new("dt.kernel.bytes");
/// Frame regions that fell back to the scalar loop at run time (bounds
/// not provable for the batch path).
pub(crate) static OBS_KERNEL_FALLBACKS: LazyCounter = LazyCounter::new("dt.kernel.fallbacks");

/// Kernel override mode: `auto` (the fixed-width kernel wherever a frame
/// selected one) or `scalar` (disable the kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Auto,
    Scalar,
}

impl Mode {
    /// Every mode, for exhaustive differential testing.
    pub const ALL: [Mode; 2] = [Mode::Auto, Mode::Scalar];

    /// Case-insensitive. `fixed`, `sse2` and `avx2` are accepted as
    /// aliases for `auto`: they named kernel families that are now one.
    pub fn parse(s: &str) -> Option<Mode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" | "fixed" | "sse2" | "avx2" => Some(Mode::Auto),
            "scalar" => Some(Mode::Scalar),
            _ => None,
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Mode::Auto => "auto",
            Mode::Scalar => "scalar",
        }
    }
}

const MODE_UNSET: u8 = u8::MAX;
static MODE: AtomicU8 = AtomicU8::new(MODE_UNSET);

/// The process-wide kernel mode. Initialized from `LIO_PACK_KERNEL` on
/// first use (unset or unparsable → `auto`); [`force`] overrides it.
/// Programs are cached per datatype node, so the override is applied at
/// interpretation time (one atomic load per pack/unpack call), never
/// baked into a cached program.
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        0 => Mode::Auto,
        1 => Mode::Scalar,
        _ => {
            let m = std::env::var("LIO_PACK_KERNEL")
                .ok()
                .and_then(|s| Mode::parse(&s))
                .unwrap_or(Mode::Auto);
            // racing initializers agree (env is fixed), so a plain store is fine
            force(m);
            m
        }
    }
}

/// Force the kernel mode for this process (the `pack_kernel` hint and the
/// differential tests use this; `LIO_PACK_KERNEL` seeds the default).
pub fn force(m: Mode) {
    MODE.store(m as u8, Ordering::Relaxed);
}

/// Per-frame kernel selection, recorded in the `Blocks` frame at program
/// compile time: the fixed block-size class (2/4/8/16/32), or 0 when the
/// frame is kernel-ineligible (other sizes, or non-positive stride).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sel {
    pub class: u8,
}

impl Sel {
    /// The kernel-ineligible selection (scalar loop).
    pub const NONE: Sel = Sel { class: 0 };

    pub fn select(block: u64, stride: i64) -> Sel {
        match block {
            2 | 4 | 8 | 16 | 32 if stride > 0 => Sel { class: block as u8 },
            _ => Sel::NONE,
        }
    }

    /// Whether a fixed-width kernel can engage for this frame.
    pub fn eligible(&self) -> bool {
        self.class != 0
    }
}

// ---------------------------------------------------------------------------
// Portable fixed-width kernels
// ---------------------------------------------------------------------------

/// Gather `count` blocks of `B` bytes, `stride` apart, into contiguous
/// `dst`. Every block address is computed from its index, not chained
/// from the previous block's: chained pointer bumps (a hand-unrolled
/// loop) measured up to 20% slower on 2- and 32-byte blocks (2-core
/// AVX-512 Xeon, 4 MiB packs).
///
/// # Safety
/// `src` must be readable for every block `[j*stride, j*stride + B)`,
/// `j < count`, and `dst` writable for `count * B` bytes.
unsafe fn gather_fixed<const B: usize>(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
    for j in 0..count {
        ptr::copy_nonoverlapping(src.offset(j as isize * stride), dst.add(j * B), B);
    }
}

/// Scatter `count` contiguous blocks of `B` bytes from `src` to `dst`,
/// `stride` apart. Safety mirrors [`gather_fixed`] with roles swapped.
unsafe fn scatter_fixed<const B: usize>(src: *const u8, dst: *mut u8, stride: isize, count: usize) {
    for j in 0..count {
        ptr::copy_nonoverlapping(src.add(j * B), dst.offset(j as isize * stride), B);
    }
}

/// 4-byte gather: two blocks per `u64` store, half the stores of
/// [`gather_fixed`]. The words are little-endian on every target, so the
/// bytes land in block order.
///
/// # Safety
/// Bounds as in [`gather_fixed`].
unsafe fn gather4(src: *const u8, stride: isize, count: usize, dst: *mut u8) {
    let rd = |j: usize| {
        let p = src.offset(j as isize * stride) as *const u32;
        u64::from(u32::from_le(ptr::read_unaligned(p)))
    };
    let pairs = count / 2;
    for k in 0..pairs {
        let w = rd(2 * k) | rd(2 * k + 1) << 32;
        ptr::write_unaligned(dst.add(8 * k) as *mut u64, w.to_le());
    }
    gather_fixed::<4>(
        src.offset(2 * pairs as isize * stride),
        stride,
        count % 2,
        dst.add(8 * pairs),
    );
}

/// Gather `count` whole blocks of `class` bytes, `stride` apart starting
/// at `src`, into contiguous `dst`. One dispatch per frame region.
///
/// # Safety
/// The caller proves bounds for the whole region: every block
/// `[j*stride, j*stride + class)` readable at `src`, `count * class`
/// bytes writable at `dst`.
pub(crate) unsafe fn gather(class: u8, src: *const u8, stride: isize, count: usize, dst: *mut u8) {
    match class {
        2 => gather_fixed::<2>(src, stride, count, dst),
        4 => gather4(src, stride, count, dst),
        8 => gather_fixed::<8>(src, stride, count, dst),
        16 => gather_fixed::<16>(src, stride, count, dst),
        32 => gather_fixed::<32>(src, stride, count, dst),
        _ => unreachable!("kernel call on ineligible frame"),
    }
}

/// Scatter `count` contiguous blocks of `class` bytes from `src` to
/// strided `dst`.
///
/// # Safety
/// Mirror of [`gather`] with roles swapped.
pub(crate) unsafe fn scatter(class: u8, src: *const u8, dst: *mut u8, stride: isize, count: usize) {
    match class {
        2 => scatter_fixed::<2>(src, dst, stride, count),
        4 => scatter_fixed::<4>(src, dst, stride, count),
        8 => scatter_fixed::<8>(src, dst, stride, count),
        16 => scatter_fixed::<16>(src, dst, stride, count),
        32 => scatter_fixed::<32>(src, dst, stride, count),
        _ => unreachable!("kernel call on ineligible frame"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every class × stride × count, each from a base pointer offset by
    /// 0, 1 and 3 bytes so the wide loads and stores see misaligned
    /// starts; odd and even counts (15–17) cover the 4-byte pair tail,
    /// and stride 1 overlaps the blocks.
    #[test]
    fn gather_matches_reference_for_every_class_and_kind() {
        for &class in &[2u8, 4, 8, 16, 32] {
            let b = class as usize;
            for stride in [1, b as isize, b as isize + 3, 2 * b as isize, 64] {
                for count in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64] {
                    for off in [0usize, 1, 3] {
                        let span = (count.max(1) - 1) as isize * stride + b as isize;
                        let src: Vec<u8> = (0..off + span as usize + 5)
                            .map(|i| (i % 251) as u8)
                            .collect();
                        let mut want = vec![0u8; off + count * b];
                        for j in 0..count {
                            let s = off + j * stride as usize;
                            want[off + j * b..off + (j + 1) * b].copy_from_slice(&src[s..s + b]);
                        }
                        let mut got = vec![0u8; off + count * b];
                        unsafe {
                            gather(
                                class,
                                src.as_ptr().add(off),
                                stride,
                                count,
                                got.as_mut_ptr().add(off),
                            );
                        }
                        assert_eq!(
                            got, want,
                            "gather class={class} stride={stride} count={count} off={off}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scatter_matches_reference_for_every_class_and_kind() {
        for &class in &[2u8, 4, 8, 16, 32] {
            let b = class as usize;
            for stride in [1, b as isize, b as isize + 3, 2 * b as isize, 64] {
                for count in [0usize, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64] {
                    for off in [0usize, 1, 3] {
                        let span = (count.max(1) - 1) as isize * stride + b as isize;
                        let src: Vec<u8> = (0..off + count * b).map(|i| (i % 249) as u8).collect();
                        let mut want = vec![0u8; off + span as usize + 5];
                        for j in 0..count {
                            let d = off + j * stride as usize;
                            want[d..d + b].copy_from_slice(&src[off + j * b..off + (j + 1) * b]);
                        }
                        let mut got = vec![0u8; off + span as usize + 5];
                        unsafe {
                            scatter(
                                class,
                                src.as_ptr().add(off),
                                got.as_mut_ptr().add(off),
                                stride,
                                count,
                            );
                        }
                        assert_eq!(
                            got, want,
                            "scatter class={class} stride={stride} count={count} off={off}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn selection_records_block_class() {
        let s = Sel::select(8, 64);
        assert_eq!(s.class, 8);
        assert!(s.eligible());
        // kernel-ineligible shapes
        assert_eq!(Sel::select(8192, 16384), Sel::NONE);
        assert_eq!(Sel::select(8, -16), Sel::NONE);
        assert_eq!(Sel::select(3, 7), Sel::NONE);
        // dense 32B blocks are eligible
        assert!(Sel::select(32, 32).eligible());
    }

    #[test]
    fn mode_parse_round_trips() {
        for m in Mode::ALL {
            assert_eq!(Mode::parse(m.name()), Some(m));
        }
        // the retired family names still parse, as `auto`
        for alias in ["fixed", "sse2", "AVX2"] {
            assert_eq!(Mode::parse(alias), Some(Mode::Auto));
        }
        assert_eq!(Mode::parse("bogus"), None);
    }
}
