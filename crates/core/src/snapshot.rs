//! Deterministic run snapshots: the on-disk artifact and its crash-safe
//! file protocol. The payload itself is produced and consumed by
//! [`System::snapshot`] / [`System::restore`]; this module only frames it
//! (via [`remap_snap`]) and handles atomic writes with a rolling fallback.
//!
//! [`System::snapshot`]: crate::System::snapshot
//! [`System::restore`]: crate::System::restore

use crate::report::RunError;
use remap_snap::SnapError;
use std::path::{Path, PathBuf};

/// A complete, self-validating snapshot of a [`System`](crate::System)'s
/// dynamic state: framed bytes (magic, format version, configuration
/// fingerprint, payload, checksum) ready to write to disk or apply to a
/// freshly built system of identical configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

/// `path` with `suffix` appended to its final component (`ckpt.snap` →
/// `ckpt.snap.tmp`), preserving the directory.
fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    PathBuf::from(name)
}

fn bad(reason: impl std::fmt::Display) -> RunError {
    RunError::BadSnapshot {
        reason: reason.to_string(),
    }
}

impl Snapshot {
    /// Frames a payload under a configuration fingerprint. Used by
    /// [`System::snapshot`](crate::System::snapshot).
    pub(crate) fn from_payload(fingerprint: u64, payload: &[u8]) -> Snapshot {
        Snapshot {
            bytes: remap_snap::encode_file(fingerprint, payload),
        }
    }

    /// The payload, read in place. Every `Snapshot` holds a validated
    /// frame: it is built either by framing a payload or by
    /// [`Snapshot::from_bytes`], which checks magic, version, length and
    /// checksum once, where the bytes come in.
    pub(crate) fn payload(&self) -> &[u8] {
        &self.bytes[remap_snap::HEADER_LEN..self.bytes.len() - remap_snap::TRAILER_LEN]
    }

    /// The snapshot's configuration fingerprint as recorded in its header.
    pub fn fingerprint(&self) -> Option<u64> {
        let off = remap_snap::MAGIC.len() + 4;
        let raw = self.bytes.get(off..off + 8)?;
        Some(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// The framed snapshot image.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopts a framed snapshot image, refusing anything that is not a
    /// structurally valid snapshot of the current format version (torn
    /// tails and foreign files are rejected here, before any state is
    /// touched). Fingerprint compatibility is checked later, at
    /// [`System::restore`](crate::System::restore).
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Snapshot, RunError> {
        let snap = Snapshot { bytes };
        let fp = snap
            .fingerprint()
            .ok_or_else(|| bad(SnapError::Truncated))?;
        remap_snap::decode_file(&snap.bytes, fp).map_err(bad)?;
        Ok(snap)
    }

    /// Reads and structurally validates a snapshot file.
    pub fn read_from(path: &Path) -> Result<Snapshot, RunError> {
        let bytes = std::fs::read(path).map_err(|e| bad(format!("{}: {e}", path.display())))?;
        Snapshot::from_bytes(bytes).map_err(|e| match e {
            RunError::BadSnapshot { reason } => bad(format!("{}: {reason}", path.display())),
            other => other,
        })
    }

    /// Reads `path`, falling back to the previous checkpoint generation
    /// (`<path>.prev`, kept by [`Snapshot::write_to`]) when the primary is
    /// missing or torn — the crash-restore path after a kill mid-write.
    pub fn read_with_fallback(path: &Path) -> Result<Snapshot, RunError> {
        match Snapshot::read_from(path) {
            Ok(s) => Ok(s),
            Err(primary) => match Snapshot::read_from(&sibling(path, ".prev")) {
                Ok(s) => Ok(s),
                Err(_) => Err(primary),
            },
        }
    }

    /// Writes the snapshot crash-safely: the image lands in `<path>.tmp`
    /// first, any existing `path` is hard-linked as `<path>.prev`, and the
    /// new file is renamed over `path`, so once written `path` never goes
    /// missing (rotating it away by rename would open a window without
    /// it). A kill at any point leaves at least one decodable snapshot
    /// behind ([`Snapshot::read_with_fallback`]).
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let tmp = sibling(path, ".tmp");
        std::fs::write(&tmp, &self.bytes)?;
        if path.exists() {
            let prev = sibling(path, ".prev");
            match std::fs::remove_file(&prev) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e),
                _ => {}
            }
            std::fs::hard_link(path, &prev)?;
        }
        std::fs::rename(&tmp, path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(fp: u64) -> Snapshot {
        Snapshot::from_payload(fp, b"state bytes")
    }

    #[test]
    fn bytes_round_trip() {
        let s = mk(0xFEED);
        let back = Snapshot::from_bytes(s.as_bytes().to_vec()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), Some(0xFEED));
    }

    #[test]
    fn torn_bytes_are_refused() {
        let s = mk(1);
        let cut = s.as_bytes().len() - 3;
        let e = Snapshot::from_bytes(s.as_bytes()[..cut].to_vec()).unwrap_err();
        assert!(matches!(e, RunError::BadSnapshot { .. }), "{e:?}");
    }

    #[test]
    fn rotation_keeps_a_previous_generation() {
        let dir = std::env::temp_dir().join(format!("remap-snap-rot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.snap");
        mk(10).write_to(&path).unwrap();
        mk(20).write_to(&path).unwrap();
        assert_eq!(Snapshot::read_from(&path).unwrap().fingerprint(), Some(20));
        assert_eq!(
            Snapshot::read_from(&sibling(&path, ".prev"))
                .unwrap()
                .fingerprint(),
            Some(10)
        );
        // Tear the primary: the fallback must surface the previous one.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert_eq!(
            Snapshot::read_with_fallback(&path).unwrap().fingerprint(),
            Some(10)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
