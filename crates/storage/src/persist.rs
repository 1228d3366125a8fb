//! Durable file writes for the checkpoint artifacts: segments and the
//! manifest are each published with [`write_atomic`] (unique tmp file,
//! fsync, rename, directory fsync), so a crash at any instant leaves
//! either the old file or the new one, never a torn or unpersisted one.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{DbError, DbResult};

/// A process-unique scratch name next to `path`: `<file>.tmp.<pid>.<n>`.
/// Two concurrent checkpoints of sibling files (or a retry racing a
/// stalled first attempt) each get their own tmp file, so neither can
/// clobber bytes the other is about to rename into place.
pub(crate) fn unique_tmp(path: &Path) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{}", std::process::id(), n));
    path.with_file_name(name)
}

/// `fsync` the directory holding a just-renamed file, so the rename itself
/// (the directory entry) survives power loss — without this the atomic
/// write-then-rename protocol persists the *bytes* but not the *name*.
pub(crate) fn fsync_dir(dir: &Path) -> DbResult<()> {
    odbis_chaos::check("snapshot.fsync").map_err(|e| DbError::Io(e.to_string()))?;
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Durably write `bytes` to `path` via write-then-rename: unique tmp file,
/// `sync_all` on the tmp, atomic rename, `fsync` on the parent directory.
/// On any failure the tmp file is removed, so aborted attempts leave no
/// debris behind. The `label` names the chaos failpoint family
/// (`<label>.write` / `snapshot.fsync` / `<label>.rename`).
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], label: &str) -> DbResult<()> {
    let tmp = unique_tmp(path);
    let result = (|| -> DbResult<()> {
        odbis_chaos::check(&format!("{label}.write")).map_err(|e| DbError::Io(e.to_string()))?;
        if odbis_chaos::triggered(&format!("{label}.write.short")) {
            // Short write: the tmp file is left truncated mid-stream. The
            // live file must be untouched (the rename below never runs).
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(DbError::Io(format!(
                "injected failpoint {label}.write.short"
            )));
        }
        let mut f = fs::File::create(&tmp)?;
        use std::io::Write as _;
        f.write_all(bytes)?;
        odbis_chaos::check("snapshot.fsync").map_err(|e| DbError::Io(e.to_string()))?;
        // The tmp bytes must be on disk *before* the rename publishes the
        // name, or a power cut could leave the live name pointing at a
        // hole where the data never arrived.
        f.sync_all()?;
        odbis_chaos::check(&format!("{label}.rename")).map_err(|e| DbError::Io(e.to_string()))?;
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
        return result;
    }
    if let Some(parent) = path.parent() {
        fsync_dir(parent)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_names_are_unique_and_cleaned_up() {
        let a = unique_tmp(Path::new("/x/manifest.json"));
        let b = unique_tmp(Path::new("/x/manifest.json"));
        assert_ne!(a, b, "concurrent checkpoints must not share a tmp file");
        assert!(a.to_string_lossy().contains("manifest.json.tmp."));
        // a failed atomic write leaves no tmp debris behind
        let mut dir = std::env::temp_dir();
        dir.push(format!("odbis-persist-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("probe.json");
        // a label no writer uses, so arming it cannot fail a checkpoint
        // that a concurrent test in this binary takes
        let _g = odbis_chaos::exclusive();
        odbis_chaos::apply_spec("probe.rename=return-err").unwrap();
        assert!(write_atomic(&target, b"{}", "probe").is_err());
        odbis_chaos::clear();
        assert!(!target.exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(leftovers.is_empty(), "tmp file must be removed on failure");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
