//! The `graphite.ckpt.v4` container: magic + version + checksummed segments.

use std::collections::BTreeMap;
use std::path::Path;

use graphite_base::SimError;

/// Leading magic bytes of every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"GRAPHCKP";

/// Format version this build reads and writes. v2 switched replay-log
/// streams to zigzag-delta varint encoding ([`crate::Enc::delta_words`]);
/// v4 made the memory directory a single shard-count-independent stream.
pub const CKPT_VERSION: u32 = 4;

/// FNV-1a 64-bit hash, the format's segment checksum. Not cryptographic —
/// it guards against torn writes and bit rot, not adversaries.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Collects named segments and writes one checkpoint file.
///
/// # Examples
///
/// ```no_run
/// use graphite_ckpt::CkptWriter;
/// let mut w = CkptWriter::new();
/// w.segment("clocks", vec![1, 2, 3]);
/// w.write_to("run.ckpt".as_ref()).unwrap();
/// ```
#[derive(Debug, Default)]
pub struct CkptWriter {
    segments: Vec<(String, Vec<u8>)>,
}

impl CkptWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a segment. Names must be unique; a duplicate replaces the
    /// earlier payload.
    pub fn segment(&mut self, name: &str, payload: Vec<u8>) {
        if let Some(existing) = self.segments.iter_mut().find(|(n, _)| n == name) {
            existing.1 = payload;
        } else {
            self.segments.push((name.to_string(), payload));
        }
    }

    /// Serializes the container to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&CKPT_MAGIC);
        out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for (name, payload) in &self.segments {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        }
        for (_, payload) in &self.segments {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Writes the container to `path`, atomically: the bytes go to a
    /// temporary sibling first and are renamed into place, so a crash
    /// mid-write never leaves a half-written checkpoint under the final name.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptIo`] on any filesystem failure.
    pub fn write_to(&self, path: &Path) -> Result<(), SimError> {
        let io = |e: std::io::Error| SimError::CkptIo(format!("{}: {e}", path.display()));
        let tmp = path.with_extension("ckpt.tmp");
        std::fs::write(&tmp, self.to_bytes()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }
}

struct SegmentMeta {
    offset: usize,
    len: usize,
}

/// Opens and validates a checkpoint file, exposing its segments.
///
/// Opening verifies the magic, the format version, that every declared
/// segment payload lies within the file, and every segment checksum — so any
/// `&[u8]` handed out by [`CkptReader::segment`] is already integrity-checked.
pub struct CkptReader {
    data: Vec<u8>,
    directory: BTreeMap<String, SegmentMeta>,
}

impl std::fmt::Debug for CkptReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CkptReader")
            .field("bytes", &self.data.len())
            .field("segments", &self.directory.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl CkptReader {
    /// Reads and validates the checkpoint at `path`.
    ///
    /// # Errors
    ///
    /// [`SimError::CkptIo`] when the file cannot be read,
    /// [`SimError::CkptCorrupted`] on bad magic or checksum,
    /// [`SimError::CkptVersionMismatch`] on a foreign version, and
    /// [`SimError::CkptTruncated`] when declared contents overrun the file.
    pub fn open(path: &Path) -> Result<Self, SimError> {
        let data = std::fs::read(path)
            .map_err(|e| SimError::CkptIo(format!("{}: {e}", path.display())))?;
        Self::from_bytes(data)
    }

    /// Validates an in-memory checkpoint image.
    ///
    /// # Errors
    ///
    /// As for [`CkptReader::open`], minus the I/O case.
    pub fn from_bytes(data: Vec<u8>) -> Result<Self, SimError> {
        let manifest = || SimError::CkptCorrupted { segment: "manifest".to_string() };
        if data.len() < CKPT_MAGIC.len() + 8 {
            return Err(SimError::CkptTruncated);
        }
        if data[..8] != CKPT_MAGIC {
            return Err(manifest());
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != CKPT_VERSION {
            return Err(SimError::CkptVersionMismatch { found: version, expected: CKPT_VERSION });
        }
        let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        let mut pos = 16usize;
        // Each manifest entry takes at least 20 bytes (name length, payload
        // length, checksum): a count the image cannot hold sizes nothing.
        let mut entries: Vec<(String, usize, u64)> =
            Vec::with_capacity(count.min((data.len() - pos) / 20));
        for _ in 0..count {
            if pos + 4 > data.len() {
                return Err(SimError::CkptTruncated);
            }
            let name_len =
                u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            pos += 4;
            if pos + name_len > data.len() {
                return Err(SimError::CkptTruncated);
            }
            let name = std::str::from_utf8(&data[pos..pos + name_len])
                .map_err(|_| manifest())?
                .to_string();
            pos += name_len;
            if pos + 16 > data.len() {
                return Err(SimError::CkptTruncated);
            }
            let payload_len = u64::from_le_bytes(data[pos..pos + 8].try_into().expect("8 bytes"));
            let checksum = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().expect("8 bytes"));
            pos += 16;
            let payload_len = usize::try_from(payload_len).map_err(|_| SimError::CkptTruncated)?;
            entries.push((name, payload_len, checksum));
        }
        let mut directory = BTreeMap::new();
        for (name, len, checksum) in entries {
            let end = pos.checked_add(len).ok_or(SimError::CkptTruncated)?;
            if end > data.len() {
                return Err(SimError::CkptTruncated);
            }
            if fnv1a64(&data[pos..end]) != checksum {
                return Err(SimError::CkptCorrupted { segment: name });
            }
            directory.insert(name, SegmentMeta { offset: pos, len });
            pos = end;
        }
        Ok(CkptReader { data, directory })
    }

    /// Names of all segments, sorted.
    pub fn segment_names(&self) -> Vec<&str> {
        self.directory.keys().map(String::as_str).collect()
    }

    /// True when a segment is present.
    pub fn has_segment(&self, name: &str) -> bool {
        self.directory.contains_key(name)
    }

    /// The (checksum-verified) payload of a segment.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CkptMissingSegment`] when absent.
    pub fn segment(&self, name: &str) -> Result<&[u8], SimError> {
        let meta = self
            .directory
            .get(name)
            .ok_or_else(|| SimError::CkptMissingSegment(name.to_string()))?;
        Ok(&self.data[meta.offset..meta.offset + meta.len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.segment("alpha", b"first payload".to_vec());
        w.segment("beta", vec![0u8; 256]);
        w.segment("empty", Vec::new());
        w.to_bytes()
    }

    #[test]
    fn roundtrip_preserves_segments() {
        let r = CkptReader::from_bytes(sample()).unwrap();
        assert_eq!(r.segment_names(), vec!["alpha", "beta", "empty"]);
        assert_eq!(r.segment("alpha").unwrap(), b"first payload");
        assert_eq!(r.segment("beta").unwrap().len(), 256);
        assert_eq!(r.segment("empty").unwrap().len(), 0);
        assert!(r.has_segment("beta"));
        assert!(!r.has_segment("gamma"));
    }

    #[test]
    fn duplicate_segment_replaces() {
        let mut w = CkptWriter::new();
        w.segment("s", b"old".to_vec());
        w.segment("s", b"new".to_vec());
        let r = CkptReader::from_bytes(w.to_bytes()).unwrap();
        assert_eq!(r.segment("s").unwrap(), b"new");
    }

    #[test]
    fn missing_segment_is_typed() {
        let r = CkptReader::from_bytes(sample()).unwrap();
        assert_eq!(
            r.segment("gamma").unwrap_err(),
            SimError::CkptMissingSegment("gamma".to_string())
        );
    }

    #[test]
    fn corrupted_payload_detected_by_name() {
        let mut bytes = sample();
        let n = bytes.len();
        // "empty" carries no bytes, so the file's last byte belongs to "beta".
        bytes[n - 1] ^= 0xFF;
        let err = CkptReader::from_bytes(bytes).unwrap_err();
        assert!(matches!(err, SimError::CkptCorrupted { segment } if segment == "beta"));
    }

    #[test]
    fn corrupted_magic_is_manifest_corruption() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert!(matches!(
            CkptReader::from_bytes(bytes).unwrap_err(),
            SimError::CkptCorrupted { segment } if segment == "manifest"
        ));
    }

    #[test]
    fn version_mismatch_is_typed() {
        let mut bytes = sample();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            CkptReader::from_bytes(bytes).unwrap_err(),
            SimError::CkptVersionMismatch { found: 99, expected: CKPT_VERSION }
        );
    }

    #[test]
    fn truncated_inputs_are_typed_never_panic() {
        let bytes = sample();
        // Every prefix must fail cleanly with a typed error, not panic.
        for cut in 0..bytes.len() {
            match CkptReader::from_bytes(bytes[..cut].to_vec()) {
                Err(
                    SimError::CkptTruncated
                    | SimError::CkptCorrupted { .. }
                    | SimError::CkptVersionMismatch { .. },
                ) => {}
                other => panic!("prefix of {cut} bytes: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn a_lying_segment_count_is_truncation_without_reserving() {
        let mut image = CKPT_MAGIC.to_vec();
        image.extend_from_slice(&CKPT_VERSION.to_le_bytes());
        image.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(CkptReader::from_bytes(image).unwrap_err(), SimError::CkptTruncated);
    }

    proptest::proptest! {
        #[test]
        fn arbitrary_images_never_panic(
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
            header in proptest::prelude::any::<bool>(),
        ) {
            // With a valid magic and version the manifest parser is reached.
            let mut image = if header { CKPT_MAGIC.to_vec() } else { Vec::new() };
            if header {
                image.extend_from_slice(&CKPT_VERSION.to_le_bytes());
            }
            image.extend_from_slice(&tail);
            let _ = CkptReader::from_bytes(image);
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("graphite-ckpt-format-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.ckpt");
        let mut w = CkptWriter::new();
        w.segment("x", b"data".to_vec());
        w.write_to(&path).unwrap();
        let r = CkptReader::open(&path).unwrap();
        assert_eq!(r.segment("x").unwrap(), b"data");
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(CkptReader::open(&path).unwrap_err(), SimError::CkptIo(_)));
    }

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
