//! The two rules every decoder of untrusted input shares (DESIGN.md §9).
//!
//! **One checked frame**, `[varint len][varint fnv1a(payload)][payload]`:
//! the v2 trace header and chunks ([`crate::ctrace`]) and the `stint-serve`
//! journal's records are written by [`put_frame`] and read by [`read_frame`].
//!
//! **One claim rule**: a length or count read from input is a claim, and no
//! decoder reserves more than [`FIRST_RESERVE`] bytes, or the bytes already
//! in hand, on one. [`capacity`] bounds a reservation for a count, and
//! [`read_payload`] grows a caller's buffer only as bytes arrive.

use std::io::{self, Read};

use crate::varint;

/// The most a decoder reserves on a claim before the bytes behind it arrive.
pub const FIRST_RESERVE: usize = 64 << 10;

/// FNV-1a 64, the checked frame's checksum.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// What to reserve for `claimed` items of `T`: at most [`FIRST_RESERVE`]
/// bytes of them.
pub fn capacity<T>(claimed: u64) -> usize {
    claimed.min((FIRST_RESERVE / size_of::<T>().max(1)) as u64) as usize
}

/// Read exactly `len` bytes into `buf` (cleared, its capacity kept), growing
/// it only as they arrive. Short input is `read_exact`'s error, word for word.
pub fn read_payload(r: &mut dyn Read, len: u64, buf: &mut Vec<u8>) -> io::Result<()> {
    buf.clear();
    buf.reserve(capacity::<u8>(len));
    if (r.take(len).read_to_end(buf)? as u64) < len {
        let short = "failed to fill whole buffer";
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, short));
    }
    Ok(())
}

/// The next byte, or `None` at a clean end of input: how a caller tells
/// the end of a stream from a frame cut short.
pub fn probe(r: &mut dyn Read) -> io::Result<Option<u8>> {
    let mut b = [0u8; 1];
    match r.read_exact(&mut b) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        read => read.map(|()| Some(b[0])),
    }
}

/// Append the checked frame of `payload` to `out`.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
    varint::put(out, payload.len() as u64);
    varint::put(out, fnv1a(payload));
    out.extend_from_slice(payload);
}

/// Why [`read_frame`] read no frame; each caller words it its own way.
#[derive(Debug)]
pub enum FrameError {
    /// The length varint is torn or overflows.
    Len(io::Error),
    /// The length is over the cap. `sum_torn`: the checksum varint after it
    /// is torn too (a v2 chunk reports that first).
    TooLong { len: u64, sum_torn: bool },
    /// The checksum varint is torn or overflows.
    Sum(io::Error),
    /// The payload ends early.
    Payload(io::Error),
    /// The payload does not match the checksum.
    Checksum,
}

/// Read one checked frame of at most `cap` payload bytes into `buf`
/// ([`read_payload`]). `first` is the length's first byte if the caller
/// probed it. Returns the frame's size in bytes, `first` included.
pub fn read_frame(
    mut r: &mut dyn Read,
    first: Option<u8>,
    cap: u64,
    buf: &mut Vec<u8>,
) -> Result<u64, FrameError> {
    let len = match first {
        Some(b) => varint::read_cont(&mut r, b),
        None => varint::read(&mut r),
    };
    let (len, len_bytes) = len.map_err(FrameError::Len)?;
    let sum = varint::read(&mut r);
    if len > cap {
        let sum_torn = sum.is_err();
        return Err(FrameError::TooLong { len, sum_torn });
    }
    let (sum, sum_bytes) = sum.map_err(FrameError::Sum)?;
    read_payload(r, len, buf).map_err(FrameError::Payload)?;
    if fnv1a(buf) != sum {
        return Err(FrameError::Checksum);
    }
    Ok((len_bytes + sum_bytes) as u64 + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_frame(&mut out, payload);
        out
    }

    #[test]
    fn frames_round_trip_back_to_back_and_count_their_bytes() {
        let payloads: [&[u8]; 3] = [b"alpha", b"", &[7u8; 300]];
        let bytes: Vec<u8> = payloads.iter().flat_map(|p| framed(p)).collect();
        let (mut r, mut buf) = (&bytes[..], Vec::new());
        let mut took = 0;
        for p in payloads {
            took += read_frame(&mut r, None, 1 << 10, &mut buf).expect("intact frame");
            assert_eq!(buf, p);
        }
        assert_eq!(took, bytes.len() as u64);
        assert!(r.is_empty());
        // The probed first byte counts as part of the frame.
        let one = framed(b"x");
        let (first, mut rest) = one.split_first().expect("nonempty");
        let n = read_frame(&mut rest, Some(*first), 8, &mut buf).expect("probed");
        assert_eq!((n, &buf[..]), (one.len() as u64, &b"x"[..]));
    }

    #[test]
    fn each_damage_has_its_kind() {
        let good = framed(b"payload");
        let read = |bytes: &[u8], cap| read_frame(&mut &bytes[..], None, cap, &mut Vec::new());
        assert!(matches!(read(&[], 64), Err(FrameError::Len(_))));
        assert!(matches!(read(&good[..1], 64), Err(FrameError::Sum(_))));
        assert!(matches!(
            read(&good[..good.len() - 1], 64),
            Err(FrameError::Payload(_))
        ));
        let mut flipped = good.clone();
        *flipped.last_mut().expect("nonempty") ^= 1;
        assert!(matches!(read(&flipped, 64), Err(FrameError::Checksum)));
        let too_long = |bytes: &[u8]| match read(bytes, 6) {
            Err(FrameError::TooLong { len: 7, sum_torn }) => sum_torn,
            other => panic!("{other:?}"),
        };
        assert!(!too_long(&good));
        assert!(too_long(&good[..1]));
        let e = match read(&good[..good.len() - 1], 64) {
            Err(FrameError::Payload(e)) => e,
            other => panic!("{other:?}"),
        };
        assert_eq!(e.to_string(), "failed to fill whole buffer");
    }

    #[test]
    fn a_claim_buys_at_most_the_first_reserve() {
        let mut claim = Vec::new();
        varint::put(&mut claim, 1 << 40);
        varint::put(&mut claim, 0);
        claim.extend_from_slice(b"only a few bytes");
        let mut buf = Vec::new();
        let got = read_frame(&mut &claim[..], None, u64::MAX, &mut buf);
        assert!(matches!(got, Err(FrameError::Payload(_))));
        assert!(buf.capacity() <= FIRST_RESERVE);
        assert_eq!(capacity::<u64>(u64::MAX), FIRST_RESERVE / 8);
        assert_eq!(capacity::<u64>(3), 3);
        assert_eq!(capacity::<()>(u64::MAX), FIRST_RESERVE);
    }

    #[test]
    fn the_buffer_keeps_its_capacity_across_payloads() {
        let mut buf = Vec::new();
        read_payload(&mut &[1u8; 100_000][..], 100_000, &mut buf).expect("whole");
        let cap = buf.capacity();
        read_payload(&mut &[2u8; 10][..], 10, &mut buf).expect("whole");
        assert_eq!((buf.as_slice(), buf.capacity()), (&[2u8; 10][..], cap));
    }
}
