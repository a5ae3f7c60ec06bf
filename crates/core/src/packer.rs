//! Memory-datatype packing, per engine.
//!
//! Non-contiguous *user buffers* (memtypes) are handled differently by the
//! two engines, mirroring the paper:
//!
//! * list-based (Section 2.1): an ol-list is created for the memtype **on
//!   every access** and discarded afterwards ("these lists are not stored
//!   beyond the single access operation");
//! * listless (Section 3.1): `ff_pack`/`ff_unpack` stream the data with no
//!   materialized representation.

use lio_datatype::{ff_pack, ff_unpack, Datatype, OlList};

use crate::error::{IoError, Result};

/// Packs and unpacks the user buffer's data stream.
pub(crate) enum MemPacker {
    /// The memtype's data is a single run starting at this offset: the
    /// stream is a subslice of the user buffer.
    Contig { base: usize },
    /// List-based: flatten to an ol-list per access.
    List { list: OlList },
    /// Listless: flattening-on-the-fly.
    Ff { memtype: Datatype, count: u64 },
}

impl MemPacker {
    /// Build a packer for `count` instances of `memtype` over a user
    /// buffer of `buf_len` bytes, using the list-based engine when
    /// `list_based` is set. Validates that the buffer covers the data.
    pub fn new(
        memtype: &Datatype,
        count: u64,
        buf_len: usize,
        list_based: bool,
    ) -> Result<MemPacker> {
        if memtype.data_lb() < 0 {
            return Err(IoError::Usage(
                "memtypes with negative data displacements are not supported; \
                 shift the type or the buffer"
                    .into(),
            ));
        }
        let span = if count == 0 || memtype.size() == 0 {
            0
        } else {
            (count as i64 - 1) * memtype.extent() as i64 + memtype.data_ub()
        };
        if span > buf_len as i64 {
            return Err(IoError::Usage(format!(
                "user buffer of {buf_len} bytes does not cover the memtype span of {span} bytes"
            )));
        }
        if let Some(s) = memtype.single_run() {
            if memtype.size() == memtype.extent() || count == 1 {
                return Ok(MemPacker::Contig { base: s as usize });
            }
        }
        if list_based {
            // the per-access flattening cost of the list-based engine
            Ok(MemPacker::List {
                list: OlList::flatten(memtype, count),
            })
        } else {
            Ok(MemPacker::Ff {
                memtype: memtype.clone(),
                count,
            })
        }
    }

    /// Copy `out.len()` stream bytes starting at stream position `skip`
    /// out of the user buffer. Returns bytes copied.
    pub fn pack(&self, user: &[u8], skip: u64, out: &mut [u8]) -> usize {
        match self {
            MemPacker::Contig { base } => {
                let s = base + skip as usize;
                let n = out.len().min(user.len().saturating_sub(s));
                out[..n].copy_from_slice(&user[s..s + n]);
                n
            }
            MemPacker::List { list } => list.pack(user, skip, out),
            MemPacker::Ff { memtype, count } => ff_pack(user, *count, memtype, skip, out),
        }
    }

    /// Copy `data` into the user buffer at stream position `skip`.
    /// Returns bytes copied.
    pub fn unpack(&self, data: &[u8], user: &mut [u8], skip: u64) -> usize {
        match self {
            MemPacker::Contig { base } => {
                let s = base + skip as usize;
                let n = data.len().min(user.len().saturating_sub(s));
                user[s..s + n].copy_from_slice(&data[..n]);
                n
            }
            MemPacker::List { list } => list.unpack(data, user, skip),
            MemPacker::Ff { memtype, count } => ff_unpack(data, user, *count, memtype, skip),
        }
    }

    /// Whether the stream is a contiguous slice of the user buffer.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_contiguous(&self) -> bool {
        matches!(self, MemPacker::Contig { .. })
    }

    /// For contiguous packers, the stream as a borrowed subslice
    /// (zero-copy fast path).
    pub fn contig_slice<'a>(&self, user: &'a [u8], skip: u64, len: u64) -> Option<&'a [u8]> {
        match self {
            MemPacker::Contig { base } => {
                let s = base + skip as usize;
                Some(&user[s..s + len as usize])
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contig_passthrough() {
        let m = Datatype::contiguous(4, &Datatype::double()).unwrap();
        let p = MemPacker::new(&m, 1, 32, false).unwrap();
        assert!(p.is_contiguous());
        let user: Vec<u8> = (0..32).collect();
        let mut out = vec![0u8; 16];
        assert_eq!(p.pack(&user, 8, &mut out), 16);
        assert_eq!(&out[..], &user[8..24]);
    }

    #[test]
    fn engines_pack_identically() {
        let m = lio_datatype::Datatype::vector(5, 3, 5, &Datatype::int()).unwrap();
        let user: Vec<u8> = (0..m.extent() as usize * 2).map(|i| i as u8).collect();
        let a = MemPacker::new(&m, 2, user.len(), true).unwrap();
        let b = MemPacker::new(&m, 2, user.len(), false).unwrap();
        let total = (m.size() * 2) as usize;
        for skip in [0u64, 1, 7, 60] {
            let mut oa = vec![0u8; total - skip as usize];
            let mut ob = vec![0u8; total - skip as usize];
            assert_eq!(a.pack(&user, skip, &mut oa), oa.len());
            assert_eq!(b.pack(&user, skip, &mut ob), ob.len());
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn engines_unpack_identically() {
        let m = lio_datatype::Datatype::vector(4, 2, 3, &Datatype::int()).unwrap();
        let total = (m.size() * 2) as usize;
        let data: Vec<u8> = (0..total as u8).collect();
        let span = m.extent() as usize * 2;
        let mut ua = vec![0xAAu8; span];
        let mut ub = vec![0xAAu8; span];
        let a = MemPacker::new(&m, 2, span, true).unwrap();
        let b = MemPacker::new(&m, 2, span, false).unwrap();
        a.unpack(&data, &mut ua, 0);
        b.unpack(&data, &mut ub, 0);
        assert_eq!(ua, ub);
    }

    #[test]
    fn buffer_too_small_rejected() {
        let m = Datatype::contiguous(4, &Datatype::double()).unwrap();
        assert!(MemPacker::new(&m, 1, 31, false).is_err());
        assert!(MemPacker::new(&m, 1, 32, false).is_ok());
    }

    #[test]
    fn negative_lb_rejected() {
        let m = Datatype::resized(&Datatype::int(), -4, 8).unwrap();
        let shifted = Datatype::hindexed(&[1], &[-8], &Datatype::int()).unwrap();
        assert!(MemPacker::new(&shifted, 1, 64, false).is_err());
        // resized with negative lb but non-negative data is fine
        assert!(MemPacker::new(&m, 1, 64, false).is_ok());
    }

    #[test]
    fn single_instance_gappy_type_is_contig_when_single_run() {
        // a resized int: one data run but extent 12
        let m = Datatype::resized(&Datatype::int(), 0, 12).unwrap();
        let p = MemPacker::new(&m, 1, 12, false).unwrap();
        assert!(p.is_contiguous());
        // two instances: gaps between runs, not contiguous
        let p2 = MemPacker::new(&m, 2, 24, false).unwrap();
        assert!(!p2.is_contiguous());
    }
}
