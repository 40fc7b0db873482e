//! LEB128 varints, shared by the compressed trace encoding ([`crate::ctrace`])
//! and `stint-serve`: seven payload bits per byte, least significant group
//! first, the high bit set on every byte but the last.
//!
//! A `u64` needs at most [`MAX_LEN`] bytes, and the tenth carries bit 63
//! alone. Every decoder form rejects a tenth byte with a larger payload, and
//! an eleventh byte, as `varint overflow` — otherwise the excess bits would
//! be shifted out and distinct byte strings would decode to the same value.

use std::io::{self, Read};

/// Longest encoding of a `u64`.
pub const MAX_LEN: usize = 10;

fn bad(m: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m)
}

/// Append the encoding of `v` to `out`.
pub fn put(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The one decoder: `first` is the varint's first byte, `next` yields the
/// ones after it. Returns the value and the encoding's length in bytes.
#[inline]
fn decode(first: u8, mut next: impl FnMut() -> io::Result<u8>) -> io::Result<(u64, usize)> {
    let mut v = u64::from(first & 0x7f);
    let mut byte = first;
    let mut shift = 7u32;
    while byte & 0x80 != 0 {
        byte = next()?;
        if shift > 63 || (shift == 63 && byte & 0x7e != 0) {
            return Err(bad("varint overflow"));
        }
        v |= u64::from(byte & 0x7f) << shift;
        shift += 7;
    }
    Ok((v, (shift / 7) as usize))
}

/// Decode one varint from `buf` at `*pos`, advancing `*pos` past it.
#[inline]
pub fn get(buf: &[u8], pos: &mut usize) -> io::Result<u64> {
    let mut next = || {
        let b = *buf.get(*pos).ok_or_else(|| bad("truncated varint"))?;
        *pos += 1;
        Ok(b)
    };
    let first = next()?;
    decode(first, next).map(|(v, _)| v)
}

/// Read one varint from a stream, byte by byte (it never reads past the
/// varint's last byte). Returns the value and the number of bytes read.
pub fn read<R: Read>(r: &mut R) -> io::Result<(u64, usize)> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    read_cont(r, b[0])
}

/// [`read`] for a varint whose first byte is already in hand (a caller that
/// probes one byte to tell a clean end of stream from a torn frame). The
/// byte count includes `first`.
pub fn read_cont<R: Read>(r: &mut R, first: u8) -> io::Result<(u64, usize)> {
    decode(first, || {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        Ok(b[0])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every decoder form over the same bytes: the slice form (with the
    /// position it stopped at), the stream form, and the first-byte-in-hand
    /// form.
    fn all_forms(bytes: &[u8]) -> [io::Result<u64>; 3] {
        let mut pos = 0;
        let from_slice = get(bytes, &mut pos);
        if from_slice.is_ok() {
            assert_eq!(pos, bytes.len(), "slice form must consume the whole varint");
        }
        let counted = |(v, len): (u64, usize)| {
            assert_eq!(len, bytes.len(), "stream forms must count the whole varint");
            v
        };
        let from_stream = read(&mut &bytes[..]).map(counted);
        let cont = match bytes.split_first() {
            Some((&first, mut rest)) => read_cont(&mut rest, first).map(counted),
            None => Err(io::ErrorKind::UnexpectedEof.into()),
        };
        [from_slice, from_stream, cont]
    }

    fn assert_all_ok(bytes: &[u8], want: u64) {
        for got in all_forms(bytes) {
            assert_eq!(got.unwrap(), want, "{bytes:02x?}");
        }
    }

    fn assert_all_err(bytes: &[u8], want: Option<&str>) {
        for got in all_forms(bytes) {
            let e = got.expect_err("must be rejected");
            if let Some(msg) = want {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bytes:02x?}");
                assert_eq!(e.to_string(), msg, "{bytes:02x?}");
            }
        }
    }

    #[test]
    fn round_trips_at_every_length() {
        let mut values = vec![0, 1, u64::MAX];
        for bits in (7..64).step_by(7) {
            values.extend([(1u64 << bits) - 1, 1u64 << bits]);
        }
        for v in values {
            let mut enc = Vec::new();
            put(&mut enc, v);
            assert!(enc.len() <= MAX_LEN);
            assert_all_ok(&enc, v);
        }
    }

    #[test]
    fn u64_max_is_ten_bytes_ending_in_one() {
        let mut enc = Vec::new();
        put(&mut enc, u64::MAX);
        assert_eq!(enc, [&[0xff; 9][..], &[0x01]].concat());
        assert_all_ok(&enc, u64::MAX);
    }

    #[test]
    fn tenth_byte_above_one_is_overflow() {
        for tenth in [0x02u8, 0x03, 0x7f, 0x40] {
            let bytes = [&[0xff; 9][..], &[tenth]].concat();
            assert_all_err(&bytes, Some("varint overflow"));
        }
        // Used to decode to 0, the same as the one-byte `00`.
        assert_all_err(&[&[0x80; 9][..], &[0x02]].concat(), Some("varint overflow"));
    }

    #[test]
    fn eleven_byte_run_is_overflow() {
        assert_all_err(
            &[&[0x80; 10][..], &[0x00]].concat(),
            Some("varint overflow"),
        );
        assert_all_err(
            &[&[0xff; 9][..], &[0x81, 0x00]].concat(),
            Some("varint overflow"),
        );
        assert_all_err(&[0xff; 32], Some("varint overflow"));
    }

    #[test]
    fn truncation_is_an_error_in_every_form() {
        let mut enc = Vec::new();
        put(&mut enc, u64::MAX);
        for cut in 0..enc.len() {
            // The message differs by form (slice: `truncated varint`;
            // streams: the reader's own end-of-file error).
            assert_all_err(&enc[..cut], None);
        }
        let mut pos = 0;
        let e = get(&enc[..4], &mut pos).unwrap_err();
        assert_eq!(e.to_string(), "truncated varint");
        let e = read(&mut &enc[..4]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn slice_form_stops_after_the_varint() {
        let bytes = [0x85, 0x01, 0x7f];
        let mut pos = 0;
        assert_eq!(get(&bytes, &mut pos).unwrap(), 0x85);
        assert_eq!(pos, 2);
        assert_eq!(get(&bytes, &mut pos).unwrap(), 0x7f);
        assert_eq!(pos, 3);
        let mut r = &bytes[..];
        assert_eq!(read(&mut r).unwrap(), (0x85, 2));
        assert_eq!(r, [0x7f]);
    }
}
