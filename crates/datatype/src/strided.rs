//! Canonical strided decomposition — the compile-time folding rule of
//! flattening-on-the-fly.
//!
//! The defining trick of flattening-on-the-fly (paper Section 3.1) is to
//! "identify and copy large chunks of evenly spaced, non-contiguous data"
//! and perform the actual copying "in a non-recursive loop" *outside* the
//! datatype traversal. [`StridedSpec`] is that canonical form: a datatype
//! whose single instance is `count` dense blocks of `block` bytes, block
//! `j` starting at byte `base + j·stride`.
//!
//! Nothing copies through a `StridedSpec` directly. The run-program
//! compiler ([`crate::program`]) applies [`Datatype::as_strided`] at every
//! level of the tree, so each reducible subtree becomes one
//! `{count, block, stride}` frame, and a depth-1 type (vectors, subarray
//! rows, the Figure 4 struct) is simply a one-frame program.

use crate::types::{Datatype, TypeKind};

/// A datatype instance as evenly spaced dense blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StridedSpec {
    /// Byte offset of block 0 relative to the instance origin.
    pub base: i64,
    /// Byte distance between consecutive block starts.
    pub stride: i64,
    /// Bytes per block.
    pub block: u64,
    /// Number of blocks per instance.
    pub count: u64,
}

impl StridedSpec {
    /// Fold `n` repetitions of this spec placed `step` bytes apart into a
    /// single spec, when the placement keeps blocks evenly spaced.
    fn tile(self, n: u64, step: i64) -> Option<StridedSpec> {
        if n == 0 || self.count == 0 {
            return None;
        }
        if n == 1 {
            return Some(self);
        }
        if self.count == 1 {
            // single block per repetition: blocks land at base + i*step
            if step == self.block as i64 {
                // dense: merge into one big block
                return Some(StridedSpec {
                    base: self.base,
                    stride: self.block as i64 * n as i64,
                    block: self.block * n,
                    count: 1,
                });
            }
            return Some(StridedSpec {
                base: self.base,
                stride: step,
                block: self.block,
                count: n,
            });
        }
        // multi-block repetitions stay evenly spaced only if the next
        // repetition continues the same arithmetic progression
        if step == self.stride * self.count as i64 {
            return Some(StridedSpec {
                base: self.base,
                stride: self.stride,
                block: self.block,
                count: self.count * n,
            });
        }
        None
    }

    /// Shift the whole spec by `disp` bytes.
    fn shifted(self, disp: i64) -> StridedSpec {
        StridedSpec {
            base: self.base + disp,
            ..self
        }
    }
}

impl Datatype {
    /// The canonical strided decomposition of one instance's data, if the
    /// type reduces to evenly spaced dense blocks.
    pub fn as_strided(&self) -> Option<StridedSpec> {
        if self.size() == 0 {
            return None;
        }
        match self.kind() {
            TypeKind::Basic { size } => Some(StridedSpec {
                base: 0,
                stride: *size as i64,
                block: *size as u64,
                count: 1,
            }),
            TypeKind::LbMark | TypeKind::UbMark => None,
            TypeKind::Contiguous { count, child } => {
                child.as_strided()?.tile(*count, child.extent() as i64)
            }
            TypeKind::Hvector {
                count,
                blocklen,
                stride,
                child,
            } => {
                let inner = child.as_strided()?.tile(*blocklen, child.extent() as i64)?;
                inner.tile(*count, *stride)
            }
            TypeKind::Hindexed { blocks, child } => {
                // a single explicit block reduces directly; several blocks
                // reduce iff they are equal-length and evenly spaced (the
                // `indexed_block` shape with an arithmetic displacement
                // progression)
                let first = blocks.first()?;
                let inner = child
                    .as_strided()?
                    .tile(first.blocklen, child.extent() as i64)?
                    .shifted(first.disp);
                if blocks.len() == 1 {
                    return Some(inner);
                }
                let step = blocks.get(1)?.disp - first.disp;
                let even = blocks.iter().enumerate().all(|(i, b)| {
                    b.blocklen == first.blocklen && b.disp == first.disp + i as i64 * step
                });
                if !even {
                    return None;
                }
                inner.tile(blocks.len() as u64, step)
            }
            TypeKind::Struct { fields } => {
                // exactly one data-bearing field (markers are free)
                let mut data_field = None;
                for f in fields.iter() {
                    if f.child.size() > 0 && f.count > 0 {
                        if data_field.is_some() {
                            return None;
                        }
                        data_field = Some(f);
                    }
                }
                let f = data_field?;
                f.child
                    .as_strided()?
                    .tile(f.count, f.child.extent() as i64)
                    .map(|s| s.shifted(f.disp))
            }
            TypeKind::Resized { child, .. } => child.as_strided(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Field, Order};

    #[test]
    fn basic_is_one_block() {
        let s = Datatype::double().as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 8,
                block: 8,
                count: 1
            }
        );
    }

    #[test]
    fn contiguous_merges() {
        let d = Datatype::contiguous(10, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(s.block, 40);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn vector_is_strided() {
        let d = Datatype::vector(8, 1, 2, &Datatype::double()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 16,
                block: 8,
                count: 8
            }
        );
    }

    #[test]
    fn vector_with_blocklen_merges_blocks() {
        let d = Datatype::vector(4, 3, 5, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 20,
                block: 12,
                count: 4
            }
        );
    }

    #[test]
    fn figure4_struct_is_strided() {
        // LB / vector / UB, as the noncontig benchmark builds it
        let v = Datatype::vector(16, 1, 4, &Datatype::basic(8)).unwrap();
        let d = Datatype::struct_type(vec![
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
                disp: 512,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 32,
                block: 8,
                count: 16
            }
        );
    }

    #[test]
    fn subarray_2d_reduces_rows() {
        // a 2D subarray: rows of 3 ints, row stride 6 ints
        let d = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], Order::C, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 32,
                stride: 24,
                block: 12,
                count: 2
            }
        );
    }

    #[test]
    fn subarray_3d_does_not_reduce() {
        // two-level strides cannot be expressed
        let d = Datatype::subarray(
            &[4, 4, 4],
            &[2, 2, 2],
            &[0, 0, 0],
            Order::C,
            &Datatype::int(),
        )
        .unwrap();
        assert!(d.as_strided().is_none());
    }

    #[test]
    fn full_subarray_is_dense() {
        let d = Datatype::subarray(&[4, 4], &[4, 4], &[0, 0], Order::C, &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.block, 64);
    }

    #[test]
    fn indexed_strided_detection() {
        // evenly spaced equal blocks reduce (the indexed_block shape)
        let d = Datatype::indexed(&[2, 2, 2], &[0, 5, 10], &Datatype::int()).unwrap();
        let s = d.as_strided().unwrap();
        assert_eq!(
            s,
            StridedSpec {
                base: 0,
                stride: 20,
                block: 8,
                count: 3
            }
        );
        // unevenly spaced blocks do not
        let odd = Datatype::indexed(&[1, 1, 1], &[0, 3, 5], &Datatype::int()).unwrap();
        assert!(odd.as_strided().is_none());
        // unequal block lengths do not
        let ragged = Datatype::indexed(&[1, 2], &[0, 3], &Datatype::int()).unwrap();
        assert!(ragged.as_strided().is_none());
        // a single block always does
        let single = Datatype::indexed(&[3], &[2], &Datatype::int()).unwrap();
        let s = single.as_strided().unwrap();
        assert_eq!(s.base, 8);
        assert_eq!(s.block, 12);
    }

    #[test]
    fn multi_field_struct_does_not_reduce() {
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::int(),
            },
            Field {
                disp: 16,
                count: 1,
                child: Datatype::int(),
            },
        ])
        .unwrap();
        assert!(d.as_strided().is_none());
    }

    #[test]
    fn strided_matches_flatiter() {
        use crate::FlatIter;
        let cases = vec![
            Datatype::vector(8, 1, 2, &Datatype::double()).unwrap(),
            Datatype::vector(4, 3, 5, &Datatype::int()).unwrap(),
            Datatype::contiguous(7, &Datatype::basic(3)).unwrap(),
        ];
        for d in cases {
            let s = d.as_strided().unwrap();
            let runs: Vec<_> = FlatIter::new(&d, 2).collect();
            let mut expect = Vec::new();
            let ext = d.extent() as i64;
            for inst in 0..2i64 {
                for j in 0..s.count as i64 {
                    expect.push((inst * ext + s.base + j * s.stride, s.block));
                }
            }
            // FlatIter may merge adjacent blocks; compare total coverage
            let mut a: Vec<(i64, u64)> = runs.iter().map(|r| (r.disp, r.len)).collect();
            // normalize both to per-byte sets
            let bytes = |v: &[(i64, u64)]| {
                let mut out = Vec::new();
                for &(o, l) in v {
                    for k in 0..l as i64 {
                        out.push(o + k);
                    }
                }
                out
            };
            a.sort_unstable();
            expect.sort_unstable();
            assert_eq!(bytes(&a), bytes(&expect), "{d:?}");
        }
    }
}
