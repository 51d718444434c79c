//! Little-endian cursor encoders/decoders for segment payloads.

use graphite_base::SimError;

/// An append-only little-endian encoder building one segment payload.
///
/// # Examples
///
/// ```
/// use graphite_ckpt::{Dec, Enc};
/// let mut e = Enc::new();
/// e.u32(7);
/// e.bytes(b"abc");
/// let buf = e.finish();
/// let mut d = Dec::new(&buf);
/// assert_eq!(d.u32().unwrap(), 7);
/// assert_eq!(d.bytes().unwrap(), b"abc");
/// assert!(d.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed byte string (`u64` length + data).
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a length-prefixed `u64` slice.
    pub fn words(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &w in v {
            self.u64(w);
        }
    }

    /// Appends a `u64` as an LEB128 varint (1 byte for values < 128,
    /// at most 10 bytes).
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Appends a `u64` slice as varint count + zigzag-delta varints.
    ///
    /// Replay-log streams (message arrival timestamps, partner picks) are
    /// mostly small or slowly growing, so consecutive differences fit one or
    /// two bytes where [`Enc::words`] spends eight. Decode with
    /// [`Dec::delta_words`].
    pub fn delta_words(&mut self, v: &[u64]) {
        self.varint(v.len() as u64);
        let mut prev = 0u64;
        for &w in v {
            self.varint(zigzag(w.wrapping_sub(prev) as i64));
            prev = w;
        }
    }

    /// The encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far, as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Maps signed deltas onto small unsigned varints: 0, −1, 1, −2, … →
/// 0, 1, 2, 3, … so near-zero differences of either sign stay one byte.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A little-endian decoding cursor over one segment payload. Every read is
/// bounds-checked and returns [`SimError::CkptTruncated`] instead of
/// panicking when the payload runs out.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Creates a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SimError> {
        let end = self.pos.checked_add(n).ok_or(SimError::CkptTruncated)?;
        if end > self.data.len() {
            return Err(SimError::CkptTruncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] past the end of the payload.
    pub fn u8(&mut self) -> Result<u8, SimError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] past the end of the payload.
    pub fn u32(&mut self) -> Result<u32, SimError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] past the end of the payload.
    pub fn u64(&mut self) -> Result<u64, SimError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] when the declared length exceeds
    /// the remaining payload.
    pub fn bytes(&mut self) -> Result<&'a [u8], SimError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SimError::CkptTruncated)?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] on exhaustion; invalid UTF-8 is
    /// reported as a corrupted "string" payload.
    pub fn str(&mut self) -> Result<&'a str, SimError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SimError::CkptCorrupted { segment: "string".to_string() })
    }

    /// Reads a length-prefixed `u64` slice.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] when the declared count exceeds
    /// the remaining payload.
    pub fn words(&mut self) -> Result<Vec<u64>, SimError> {
        let n = self.u64()?;
        let n = usize::try_from(n).map_err(|_| SimError::CkptTruncated)?;
        if n.checked_mul(8).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(SimError::CkptTruncated);
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] on exhaustion and
    /// [`SimError::CkptCorrupted`] when the encoding runs past 10 bytes or
    /// overflows a `u64`.
    pub fn varint(&mut self) -> Result<u64, SimError> {
        let corrupted = || SimError::CkptCorrupted { segment: "varint".to_string() };
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            let low = (b & 0x7F) as u64;
            if shift == 63 && low > 1 {
                return Err(corrupted());
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(corrupted())
    }

    /// Reads a slice written with [`Enc::delta_words`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptTruncated`] when the declared count exceeds
    /// the remaining payload (each element is at least one byte) and
    /// [`SimError::CkptCorrupted`] on malformed varints.
    pub fn delta_words(&mut self) -> Result<Vec<u64>, SimError> {
        let n = self.varint()?;
        let n = usize::try_from(n).map_err(|_| SimError::CkptTruncated)?;
        if n > self.remaining() {
            return Err(SimError::CkptTruncated);
        }
        let mut out = Vec::with_capacity(n);
        let mut prev = 0u64;
        for _ in 0..n {
            prev = prev.wrapping_add(unzigzag(self.varint()?) as u64);
            out.push(prev);
        }
        Ok(out)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the payload is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(0xAB);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.str("hello");
        e.words(&[1, 2, 3]);
        assert!(!e.is_empty());
        assert_eq!(e.len(), 1 + 4 + 8 + (8 + 5) + (8 + 24));
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.words().unwrap(), vec![1, 2, 3]);
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_is_typed_not_a_panic() {
        let mut e = Enc::new();
        e.u64(42);
        let buf = e.finish();
        let mut d = Dec::new(&buf[..5]);
        assert_eq!(d.u64().unwrap_err(), SimError::CkptTruncated);
    }

    #[test]
    fn oversized_declared_lengths_are_truncation() {
        // A byte string claiming more data than the payload holds.
        let mut e = Enc::new();
        e.u64(1 << 40);
        let buf = e.finish();
        assert_eq!(Dec::new(&buf).bytes().unwrap_err(), SimError::CkptTruncated);
        // A word list claiming a count that would overflow the payload.
        let mut e = Enc::new();
        e.u64(u64::MAX / 2);
        let buf = e.finish();
        assert_eq!(Dec::new(&buf).words().unwrap_err(), SimError::CkptTruncated);
        // A count whose byte size fits a usize but overruns the position.
        let mut e = Enc::new();
        e.u64(u64::MAX / 8);
        let buf = e.finish();
        assert_eq!(Dec::new(&buf).words().unwrap_err(), SimError::CkptTruncated);
    }

    proptest::proptest! {
        #[test]
        fn readers_never_panic_on_arbitrary_bytes(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
            reads in proptest::collection::vec(0u8..8, 1..12),
        ) {
            let mut d = Dec::new(&data);
            for read in reads {
                let _ = match read {
                    0 => d.u8().map(drop),
                    1 => d.u32().map(drop),
                    2 => d.u64().map(drop),
                    3 => d.bytes().map(drop),
                    4 => d.str().map(drop),
                    5 => d.words().map(drop),
                    6 => d.varint().map(drop),
                    _ => d.delta_words().map(drop),
                };
            }
        }
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut e = Enc::new();
            e.varint(v);
            let mut d = Dec::new(e.as_slice());
            assert_eq!(d.varint().unwrap(), v, "value {v}");
            assert!(d.is_empty());
        }
        // Small values are one byte; the worst case is ten.
        let mut e = Enc::new();
        e.varint(127);
        assert_eq!(e.len(), 1);
        let mut e = Enc::new();
        e.varint(u64::MAX);
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn overlong_varint_is_corruption() {
        // Eleven continuation bytes can never be a valid u64.
        let buf = [0x80u8; 11];
        assert!(matches!(
            Dec::new(&buf).varint().unwrap_err(),
            SimError::CkptCorrupted { segment } if segment == "varint"
        ));
        // A tenth byte carrying more than one bit overflows.
        let mut buf = [0x80u8; 10];
        buf[9] = 0x02;
        assert!(matches!(
            Dec::new(&buf).varint().unwrap_err(),
            SimError::CkptCorrupted { segment } if segment == "varint"
        ));
    }

    #[test]
    fn delta_words_roundtrips_arrival_order_stream() {
        // Monotone timestamps, the shape of a message arrival-order stream:
        // large absolute values, tiny deltas.
        let stream: Vec<u64> = (0..1000u64).map(|i| 5_000_000_000 + i * 37).collect();
        let mut e = Enc::new();
        e.delta_words(&stream);
        let compressed = e.len();
        let mut d = Dec::new(e.as_slice());
        assert_eq!(d.delta_words().unwrap(), stream);
        assert!(d.is_empty());
        // words() spends 8 bytes per entry; deltas of 37 fit in one.
        let mut plain = Enc::new();
        plain.words(&stream);
        assert!(compressed * 4 < plain.len(), "{compressed} bytes vs {} plain", plain.len());
    }

    #[test]
    fn delta_words_roundtrips_partner_pick_stream() {
        // Partner picks: small values jumping in both directions.
        let stream: Vec<u64> = (0..500u64).map(|i| (i * 2_654_435_761) % 64).collect();
        let mut e = Enc::new();
        e.delta_words(&stream);
        let mut d = Dec::new(e.as_slice());
        assert_eq!(d.delta_words().unwrap(), stream);
        // Extremes survive the zigzag wraparound.
        for extreme in [vec![], vec![u64::MAX], vec![u64::MAX, 0, u64::MAX, 1]] {
            let mut e = Enc::new();
            e.delta_words(&extreme);
            assert_eq!(Dec::new(e.as_slice()).delta_words().unwrap(), extreme);
        }
    }

    #[test]
    fn delta_words_declared_count_past_payload_is_truncation() {
        let mut e = Enc::new();
        e.varint(1 << 30); // count far beyond the remaining bytes
        let buf = e.finish();
        assert_eq!(Dec::new(&buf).delta_words().unwrap_err(), SimError::CkptTruncated);
    }

    #[test]
    fn invalid_utf8_is_corruption() {
        let mut e = Enc::new();
        e.bytes(&[0xFF, 0xFE]);
        let buf = e.finish();
        assert!(matches!(
            Dec::new(&buf).str().unwrap_err(),
            SimError::CkptCorrupted { segment } if segment == "string"
        ));
    }
}
