//! The content-addressed result store.
//!
//! Grown out of `phi-tune`'s `TuneCache` (which is now a client of this
//! module): one file per content-addressed key, a deterministic text
//! serialization with `f64` values as exact hex bit patterns, and an
//! FNV-1a `end <fnv>` integrity trailer so truncations and bit flips
//! are detectably corrupt rather than silently parseable. Two stores of
//! the same record are byte-identical, and a loaded record is
//! bit-identical to the stored one.
//!
//! The store is generic over a [`Record`]: each record type names its
//! file-name namespace and header line and (de)serializes its own field
//! lines, while this module owns the framing — header, trailer, file
//! naming and the corrupt-entry recovery semantics every client
//! inherits (`Corrupt` means "recompute and overwrite", never a panic).

use crate::Fnv;
use std::fmt;
use std::io;
use std::path::PathBuf;

/// Why a stored record could not be read. `Io` is the environment's
/// fault (permissions, disk); `Corrupt` means the file exists but its
/// bytes are not a valid record — truncated write, bit flip, wrong
/// format. Callers treat `Corrupt` as "recompute and overwrite", never
/// as a panic.
#[derive(Debug)]
pub enum StoreReadError {
    /// The underlying read failed (other than not-found).
    Io(io::Error),
    /// The file exists but does not parse as a record.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What the parser tripped over.
        reason: &'static str,
    },
}

impl fmt::Display for StoreReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "store read failed: {e}"),
            Self::Corrupt { path, reason } => {
                write!(f, "corrupt store record {}: {reason}", path.display())
            }
        }
    }
}

impl std::error::Error for StoreReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for StoreReadError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// A record type the store can persist. The store frames every record
/// as `HEADER\n<fields>end <fnv>\n` in a file named
/// `<NAMESPACE>-<key:016x>.txt`; implementations serialize and parse
/// only the field lines in between.
///
/// The contract every implementation must keep:
///
/// * `write_fields` is **deterministic** — same record, same bytes —
///   and every `f64` is emitted as its exact bit pattern (`to_bits`
///   hex), so a parsed record re-serializes byte-identically;
/// * `parse_fields(body)` accepts exactly what `write_fields` emits
///   and returns `None` on anything else (it never panics on damaged
///   input — the framing layer has already verified the integrity
///   trailer, but the body may still be semantically stale).
pub trait Record: Sized {
    /// File-name prefix, e.g. `tune` for `tune-<key>.txt`.
    const NAMESPACE: &'static str;
    /// First line of every record; bump it whenever the field layout
    /// changes meaning so old entries can never be mistaken for
    /// current ones.
    const HEADER: &'static str;

    /// Appends the record's field lines (everything between the header
    /// and the trailer).
    fn write_fields(&self, out: &mut String);

    /// Parses the field lines back. `None` on any mismatch.
    fn parse_fields(fields: &str) -> Option<Self>;
}

/// The value of the `name=<value>` token among one field line's
/// space-separated tokens — the reading side of every record's
/// `key=value` lines.
pub fn field<'a>(tokens: &'a [&str], name: &str) -> Option<&'a str> {
    tokens
        .iter()
        .find_map(|t| t.strip_prefix(name)?.strip_prefix('='))
}

/// An `f64` back from its exact bit pattern in hex — the inverse of the
/// `{:016x}` of `to_bits` that `write_fields` emits.
pub fn hex_f64(s: &str) -> Option<f64> {
    Some(f64::from_bits(u64::from_str_radix(s, 16).ok()?))
}

/// The full byte serialization of a record: header, fields and the
/// `end <fnv>` trailer over every preceding byte.
pub fn serialize_record<R: Record>(r: &R) -> String {
    let mut s = String::with_capacity(256);
    s.push_str(R::HEADER);
    s.push('\n');
    r.write_fields(&mut s);
    let mut h = Fnv::new();
    h.write(s.as_bytes());
    s.push_str(&format!("end {:016x}\n", h.finish()));
    s
}

/// Splits off and verifies the `end <fnv>` trailer, returning the body
/// it covers. Any truncation or bit flip fails here.
fn verify_trailer(text: &str) -> Option<&str> {
    let (_, last) = text.strip_suffix('\n')?.rsplit_once('\n')?;
    let stored = u64::from_str_radix(last.strip_prefix("end ")?, 16).ok()?;
    let body = &text[..text.len() - last.len() - 1];
    let mut h = Fnv::new();
    h.write(body.as_bytes());
    (h.finish() == stored).then_some(body)
}

/// Parses a full serialized record: trailer first, then the header
/// line, then the record's own fields.
pub fn parse_record<R: Record>(text: &str) -> Option<R> {
    let body = verify_trailer(text)?;
    let fields = body.strip_prefix(R::HEADER)?.strip_prefix('\n')?;
    R::parse_fields(fields)
}

/// A human-readable first guess at what is wrong with an unparseable
/// record, for the `Corrupt` error message.
fn diagnose<R: Record>(text: &str) -> &'static str {
    if text.is_empty() {
        "empty file"
    } else if !text.starts_with(R::HEADER) {
        "unrecognized header (wrong format or stale version)"
    } else if verify_trailer(text).is_none() {
        "integrity trailer missing or mismatched (truncated or bit-flipped)"
    } else {
        "corrupted record body"
    }
}

/// A directory of content-addressed records, one file per key. Multiple
/// record types share one directory without collision — the namespace
/// prefixes the file name.
#[derive(Clone, Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Opens (creating if needed) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The file a key is stored under for record type `R`.
    pub fn record_path<R: Record>(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{}-{key:016x}.txt", R::NAMESPACE))
    }

    /// Loads the record stored under `key`, if any. A corrupt or
    /// truncated file counts as a miss, not an error — the caller
    /// simply recomputes and overwrites it.
    pub fn load<R: Record>(&self, key: u64) -> io::Result<Option<R>> {
        match self.load_checked(key) {
            Ok(out) => Ok(out),
            Err(StoreReadError::Corrupt { .. }) => Ok(None),
            Err(StoreReadError::Io(e)) => Err(e),
        }
    }

    /// Like [`load`](Self::load), but a damaged file surfaces as a
    /// typed [`StoreReadError::Corrupt`] instead of a silent miss, so
    /// callers can log or count the fallback. Never panics on
    /// truncated, bit-flipped or empty files.
    pub fn load_checked<R: Record>(&self, key: u64) -> Result<Option<R>, StoreReadError> {
        let path = self.record_path::<R>(key);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(StoreReadError::Io(e)),
        };
        match parse_record::<R>(&text) {
            Some(out) => Ok(Some(out)),
            None => Err(StoreReadError::Corrupt {
                path,
                reason: diagnose::<R>(&text),
            }),
        }
    }

    /// Stores a record under `key`, overwriting any previous entry.
    pub fn put<R: Record>(&self, key: u64, r: &R) -> io::Result<()> {
        std::fs::write(self.record_path::<R>(key), serialize_record(r))
    }

    /// Every key with a record of type `R` in the store, ascending.
    /// Files of other namespaces (or with mangled names) are ignored.
    pub fn keys<R: Record>(&self) -> io::Result<Vec<u64>> {
        let prefix = format!("{}-", R::NAMESPACE);
        let mut keys = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(hex) = name
                .strip_prefix(&prefix)
                .and_then(|s| s.strip_suffix(".txt"))
            else {
                continue;
            };
            if hex.len() == 16 {
                if let Ok(key) = u64::from_str_radix(hex, 16) {
                    keys.push(key);
                }
            }
        }
        keys.sort_unstable();
        Ok(keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal record exercising both integer and hex-bit f64 fields.
    #[derive(Clone, Debug, PartialEq)]
    struct Probe {
        id: u64,
        value: f64,
    }

    impl Record for Probe {
        const NAMESPACE: &'static str = "probe";
        const HEADER: &'static str = "phi-serve probe v1";

        fn write_fields(&self, out: &mut String) {
            out.push_str(&format!("id {:016x}\n", self.id));
            out.push_str(&format!("value {:016x}\n", self.value.to_bits()));
        }

        fn parse_fields(fields: &str) -> Option<Self> {
            let mut lines = fields.lines();
            let id = u64::from_str_radix(lines.next()?.strip_prefix("id ")?, 16).ok()?;
            let value = f64::from_bits(
                u64::from_str_radix(lines.next()?.strip_prefix("value ")?, 16).ok()?,
            );
            lines.next().is_none().then_some(Self { id, value })
        }
    }

    /// Second namespace sharing the directory.
    #[derive(Clone, Debug, PartialEq)]
    struct Other(u64);

    impl Record for Other {
        const NAMESPACE: &'static str = "other";
        const HEADER: &'static str = "phi-serve other v1";

        fn write_fields(&self, out: &mut String) {
            out.push_str(&format!("x {:016x}\n", self.0));
        }

        fn parse_fields(fields: &str) -> Option<Self> {
            let mut lines = fields.lines();
            let x = u64::from_str_radix(lines.next()?.strip_prefix("x ")?, 16).ok()?;
            lines.next().is_none().then_some(Self(x))
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("phi-serve-store-{}-{tag}", std::process::id()))
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let p = Probe {
            id: 0xDEAD_BEEF,
            value: -0.123_456_789_012_345_68,
        };
        let text = serialize_record(&p);
        let back: Probe = parse_record(&text).expect("own serialization parses");
        assert_eq!(back, p);
        assert_eq!(back.value.to_bits(), p.value.to_bits());
        assert_eq!(serialize_record(&back), text);
    }

    #[test]
    fn store_round_trips_and_lists_keys() {
        let dir = tmp_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        assert!(store.load::<Probe>(7).unwrap().is_none());
        let p = Probe {
            id: 7,
            value: 1.5e-300,
        };
        store.put(7, &p).unwrap();
        store.put(3, &Probe { id: 3, value: 0.0 }).unwrap();
        assert_eq!(store.load::<Probe>(7).unwrap().unwrap(), p);
        assert_eq!(store.keys::<Probe>().unwrap(), vec![3, 7]);
        // The bytes on disk are exactly the serialization.
        let bytes = std::fs::read(store.record_path::<Probe>(7)).unwrap();
        assert_eq!(bytes, serialize_record(&p).into_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespaces_share_a_directory_without_collision() {
        let dir = tmp_dir("ns");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        store.put(1, &Probe { id: 1, value: 2.0 }).unwrap();
        store.put(1, &Other(42)).unwrap();
        assert_eq!(store.load::<Probe>(1).unwrap().unwrap().id, 1);
        assert_eq!(store.load::<Other>(1).unwrap().unwrap(), Other(42));
        assert_eq!(store.keys::<Probe>().unwrap(), vec![1]);
        assert_eq!(store.keys::<Other>().unwrap(), vec![1]);
        assert_ne!(store.record_path::<Probe>(1), store.record_path::<Other>(1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damage_is_typed_corrupt_and_lenient_load_is_a_miss() {
        let dir = tmp_dir("damage");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let p = Probe { id: 9, value: 3.25 };
        let bytes = serialize_record(&p).into_bytes();

        // Empty file.
        std::fs::write(store.record_path::<Probe>(9), b"").unwrap();
        match store.load_checked::<Probe>(9) {
            Err(StoreReadError::Corrupt { reason, .. }) => assert_eq!(reason, "empty file"),
            other => panic!("expected Corrupt(empty), got {other:?}"),
        }

        // Wrong header.
        std::fs::write(store.record_path::<Probe>(9), b"something else\n").unwrap();
        match store.load_checked::<Probe>(9) {
            Err(StoreReadError::Corrupt { reason, .. }) => {
                assert!(reason.contains("header"), "{reason}")
            }
            other => panic!("expected Corrupt(header), got {other:?}"),
        }

        // Every truncation parse-fails (only the full record is valid).
        for cut in 0..bytes.len() {
            std::fs::write(store.record_path::<Probe>(9), &bytes[..cut]).unwrap();
            assert!(
                store.load::<Probe>(9).unwrap().is_none(),
                "truncation at {cut} produced a record"
            );
        }

        // A bit flip anywhere is caught by the trailer.
        for pos in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[pos] ^= 0x10;
            std::fs::write(store.record_path::<Probe>(9), &flipped).unwrap();
            match store.load_checked::<Probe>(9) {
                Err(StoreReadError::Corrupt { .. }) => {}
                Ok(Some(back)) => panic!("bit flip at {pos} parsed as {back:?}"),
                other => panic!("bit flip at {pos} not caught: {other:?}"),
            }
        }

        // Recovery: overwrite with a valid record, hits resume.
        store.put(9, &p).unwrap();
        assert_eq!(store.load::<Probe>(9).unwrap().unwrap(), p);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_ignore_foreign_and_mangled_files() {
        let dir = tmp_dir("foreign");
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        std::fs::write(dir.join("probe-zzzz.txt"), "junk").unwrap();
        std::fs::write(dir.join("probe-00ff.txt"), "short hex").unwrap();
        std::fs::write(dir.join("README"), "not a record").unwrap();
        store.put(5, &Probe { id: 5, value: 1.0 }).unwrap();
        assert_eq!(store.keys::<Probe>().unwrap(), vec![5]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
