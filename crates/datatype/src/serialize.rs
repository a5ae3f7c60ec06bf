//! Compact wire encoding of datatype trees.
//!
//! Fileview caching (Section 3.2.3 of the paper) exchanges "a compact
//! representation of each process' filetype" exactly once when a fileview
//! is established, instead of shipping `O(Nblock)` ol-lists on every
//! collective access. This module provides that representation: a
//! tag-prefixed preorder encoding whose size is proportional to the *tree*
//! size (a vector costs ~26 bytes regardless of its block count), standing
//! in for the ADI the MPI/SX implementation shares with its one-sided
//! communication layer.

use crate::types::{Datatype, Field, HBlock, TypeError, TypeKind};

const TAG_BASIC: u8 = 1;
const TAG_LB: u8 = 2;
const TAG_UB: u8 = 3;
const TAG_CONTIG: u8 = 4;
const TAG_HVECTOR: u8 = 5;
const TAG_HINDEXED: u8 = 6;
const TAG_STRUCT: u8 = 7;
const TAG_RESIZED: u8 = 8;

/// Deepest nesting [`decode`] accepts. Decoding recurses once per level,
/// so an unbounded depth lets a small hostile buffer overflow the stack;
/// real types (subarrays, darrays, nested vectors) stay far below this.
const MAX_DECODE_DEPTH: u32 = 128;

/// Encode a datatype tree into a compact byte vector.
pub fn encode(d: &Datatype) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    encode_into(d, &mut out);
    out
}

/// Encode a datatype tree, appending to `out`.
pub fn encode_into(d: &Datatype, out: &mut Vec<u8>) {
    match d.kind() {
        TypeKind::Basic { size } => {
            out.push(TAG_BASIC);
            put_u64(out, *size as u64);
        }
        TypeKind::LbMark => out.push(TAG_LB),
        TypeKind::UbMark => out.push(TAG_UB),
        TypeKind::Contiguous { count, child } => {
            out.push(TAG_CONTIG);
            put_u64(out, *count);
            encode_into(child, out);
        }
        TypeKind::Hvector {
            count,
            blocklen,
            stride,
            child,
        } => {
            out.push(TAG_HVECTOR);
            put_u64(out, *count);
            put_u64(out, *blocklen);
            put_i64(out, *stride);
            encode_into(child, out);
        }
        TypeKind::Hindexed { blocks, child } => {
            out.push(TAG_HINDEXED);
            put_u64(out, blocks.len() as u64);
            for b in blocks.iter() {
                put_i64(out, b.disp);
                put_u64(out, b.blocklen);
            }
            encode_into(child, out);
        }
        TypeKind::Struct { fields } => {
            out.push(TAG_STRUCT);
            put_u64(out, fields.len() as u64);
            for f in fields.iter() {
                put_i64(out, f.disp);
                put_u64(out, f.count);
                encode_into(&f.child, out);
            }
        }
        TypeKind::Resized { lb, extent, child } => {
            out.push(TAG_RESIZED);
            put_i64(out, *lb);
            put_u64(out, *extent);
            encode_into(child, out);
        }
    }
}

/// Decode a datatype tree previously produced by [`encode`].
pub fn decode(buf: &[u8]) -> Result<Datatype, TypeError> {
    let mut pos = 0usize;
    let d = decode_at(buf, &mut pos, 0)?;
    if pos != buf.len() {
        return Err(TypeError::Corrupt(format!(
            "{} trailing bytes after type encoding",
            buf.len() - pos
        )));
    }
    Ok(d)
}

fn decode_at(buf: &[u8], pos: &mut usize, depth: u32) -> Result<Datatype, TypeError> {
    if depth >= MAX_DECODE_DEPTH {
        return Err(TypeError::Corrupt(format!(
            "type nesting deeper than {MAX_DECODE_DEPTH} levels"
        )));
    }
    let tag = take(buf, pos, 1)?[0];
    match tag {
        TAG_BASIC => {
            let size = get_u64(buf, pos)?;
            if size > u32::MAX as u64 {
                return Err(TypeError::Corrupt("basic size too large".into()));
            }
            Ok(Datatype::basic(size as u32))
        }
        TAG_LB => Ok(Datatype::lb_marker()),
        TAG_UB => Ok(Datatype::ub_marker()),
        TAG_CONTIG => {
            let count = get_u64(buf, pos)?;
            let child = decode_at(buf, pos, depth + 1)?;
            Datatype::contiguous(count, &child)
        }
        TAG_HVECTOR => {
            let count = get_u64(buf, pos)?;
            let blocklen = get_u64(buf, pos)?;
            let stride = get_i64(buf, pos)?;
            let child = decode_at(buf, pos, depth + 1)?;
            Datatype::hvector(count, blocklen, stride, &child)
        }
        TAG_HINDEXED => {
            let n = get_u64(buf, pos)? as usize;
            if n > buf.len() / 16 + 1 {
                return Err(TypeError::Corrupt("hindexed block count too large".into()));
            }
            let mut lens = Vec::with_capacity(n);
            let mut disps = Vec::with_capacity(n);
            for _ in 0..n {
                disps.push(get_i64(buf, pos)?);
                lens.push(get_u64(buf, pos)?);
            }
            let child = decode_at(buf, pos, depth + 1)?;
            Datatype::hindexed(&lens, &disps, &child)
        }
        TAG_STRUCT => {
            let n = get_u64(buf, pos)? as usize;
            if n > buf.len() / 17 + 1 {
                return Err(TypeError::Corrupt("struct field count too large".into()));
            }
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let disp = get_i64(buf, pos)?;
                let count = get_u64(buf, pos)?;
                let child = decode_at(buf, pos, depth + 1)?;
                fields.push(Field { disp, count, child });
            }
            Datatype::struct_type(fields)
        }
        TAG_RESIZED => {
            let lb = get_i64(buf, pos)?;
            let extent = get_u64(buf, pos)?;
            let child = decode_at(buf, pos, depth + 1)?;
            Datatype::resized(&child, lb, extent)
        }
        other => Err(TypeError::Corrupt(format!("unknown type tag {other}"))),
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn take<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], TypeError> {
    if *pos + n > buf.len() {
        return Err(TypeError::Corrupt("truncated type encoding".into()));
    }
    let s = &buf[*pos..*pos + n];
    *pos += n;
    Ok(s)
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, TypeError> {
    let s = take(buf, pos, 8)?;
    Ok(u64::from_le_bytes(s.try_into().expect("eight bytes")))
}

fn get_i64(buf: &[u8], pos: &mut usize) -> Result<i64, TypeError> {
    let s = take(buf, pos, 8)?;
    Ok(i64::from_le_bytes(s.try_into().expect("eight bytes")))
}

/// A dummy `HBlock` use to keep the import meaningful for doc purposes.
#[allow(dead_code)]
fn _assert_types(b: HBlock) -> i64 {
    b.disp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Order;

    fn roundtrip(d: &Datatype) {
        let bytes = encode(d);
        let back = decode(&bytes).expect("decode");
        assert!(d.structurally_equal(&back), "{d:?} != {back:?}");
        assert_eq!(d.size(), back.size());
        assert_eq!(d.extent(), back.extent());
        assert_eq!(d.lb(), back.lb());
        assert_eq!(d.ub(), back.ub());
    }

    #[test]
    fn roundtrip_basics() {
        roundtrip(&Datatype::byte());
        roundtrip(&Datatype::double());
        roundtrip(&Datatype::lb_marker());
        roundtrip(&Datatype::ub_marker());
    }

    #[test]
    fn roundtrip_derived() {
        roundtrip(&Datatype::contiguous(12, &Datatype::int()).unwrap());
        roundtrip(&Datatype::vector(100, 3, 7, &Datatype::double()).unwrap());
        roundtrip(&Datatype::indexed(&[1, 2, 3], &[0, 5, 11], &Datatype::int()).unwrap());
        roundtrip(&Datatype::resized(&Datatype::int(), -4, 32).unwrap());
        roundtrip(
            &Datatype::subarray(
                &[8, 8, 8],
                &[4, 2, 3],
                &[1, 0, 5],
                Order::C,
                &Datatype::double(),
            )
            .unwrap(),
        );
    }

    #[test]
    fn roundtrip_struct_with_markers() {
        let v = Datatype::vector(16, 2, 4, &Datatype::double()).unwrap();
        let d = Datatype::struct_type(vec![
            Field {
                disp: 0,
                count: 1,
                child: Datatype::lb_marker(),
            },
            Field {
                disp: 24,
                count: 2,
                child: v,
            },
            Field {
                disp: 2048,
                count: 1,
                child: Datatype::ub_marker(),
            },
        ])
        .unwrap();
        roundtrip(&d);
    }

    #[test]
    fn encoding_size_independent_of_block_count() {
        // The point of fileview caching: a million-block vector encodes in
        // the same handful of bytes as a two-block one.
        let small = Datatype::vector(2, 1, 2, &Datatype::double()).unwrap();
        let huge = Datatype::vector(1_000_000, 1, 2, &Datatype::double()).unwrap();
        assert_eq!(encode(&small).len(), encode(&huge).len());
        // ...while the ol-list grows linearly (16 bytes per block)
        use crate::flatten::OlList;
        assert_eq!(OlList::flatten(&huge, 1).memory_bytes(), 16_000_000);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[99]).is_err());
        assert!(decode(&[TAG_CONTIG, 1, 2]).is_err()); // truncated count
                                                       // trailing bytes
        let mut ok = encode(&Datatype::int());
        ok.push(0);
        assert!(decode(&ok).is_err());
    }

    #[test]
    fn decode_rejects_absurd_counts() {
        // a claimed million-field struct in a ten-byte buffer
        let mut buf = vec![TAG_STRUCT];
        buf.extend_from_slice(&1_000_000u64.to_le_bytes());
        buf.push(0);
        assert!(decode(&buf).is_err());
    }

    fn resized_byte_wire(extent: u64) -> Vec<u8> {
        let mut buf = vec![TAG_RESIZED];
        buf.extend_from_slice(&0i64.to_le_bytes());
        buf.extend_from_slice(&extent.to_le_bytes());
        buf.push(TAG_BASIC);
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf
    }

    #[test]
    fn decode_rejects_contiguous_bound_overflow() {
        // 2^62 instances of a 16-byte extent: the upper bound is 2^66
        let mut buf = vec![TAG_CONTIG];
        buf.extend_from_slice(&(1u64 << 62).to_le_bytes());
        buf.extend_from_slice(&resized_byte_wire(16));
        assert!(matches!(decode(&buf), Err(TypeError::InvalidCount(_))));
    }

    #[test]
    fn decode_rejects_resized_extent_past_i64() {
        let buf = resized_byte_wire(u64::MAX);
        assert!(matches!(decode(&buf), Err(TypeError::InvalidCount(_))));
    }

    #[test]
    fn decode_rejects_deep_nesting_on_a_small_stack() {
        // 10 000 nested contiguous(1) records around one byte: ~90 KB of
        // input that would recurse once per record
        let mut buf = Vec::new();
        for _ in 0..10_000 {
            buf.push(TAG_CONTIG);
            buf.extend_from_slice(&1u64.to_le_bytes());
        }
        buf.push(TAG_BASIC);
        buf.extend_from_slice(&1u64.to_le_bytes());
        let r = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || decode(&buf))
            .expect("spawn decode thread")
            .join()
            .expect("decode thread panicked");
        assert!(matches!(r, Err(TypeError::Corrupt(_))));
    }
}
