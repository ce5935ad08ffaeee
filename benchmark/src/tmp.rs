//! Where the benchmark writes: `benchmark/out/` for results and span
//! files, and a per-process temp root below it for journals, snapshots and
//! socket files, removed on normal exit and on panic.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The benchmark package's directory, relative to the working directory
/// when run from the repository root or from the package itself. Relative
/// paths keep Unix socket paths under the 108-byte `sun_path` limit however
/// deep the checkout lives.
pub fn package_dir() -> PathBuf {
    for rel in ["benchmark", "."] {
        if Path::new(rel).join("src/sut.rs").is_file() {
            return PathBuf::from(rel);
        }
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// `benchmark/out/`, created on demand. Ignored by git.
pub fn out_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A directory of this process's own, deleted when dropped — which
/// unwinding from a panic also does.
#[derive(Debug)]
pub struct TempRoot {
    path: PathBuf,
}

impl TempRoot {
    /// Create `benchmark/out/tmp-<pid>-<n>/`.
    pub fn new() -> std::io::Result<Self> {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir()?.join(format!("tmp-{}-{n}", std::process::id()));
        // A leftover from a killed process with a recycled pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The root itself.
    #[cfg(test)]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, empty subdirectory named `tag` (journal directories).
    pub fn dir(&self, tag: &str) -> std::io::Result<PathBuf> {
        let p = self.path.join(tag);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }

    /// A path for a file named `name` (socket files).
    pub fn file(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copy the regular files of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<u64> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            bytes += std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(bytes)
}

/// Total size of the regular files in `dir` whose name ends in `suffix`.
pub fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_root_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let root = TempRoot::new().unwrap();
            kept = root.path().to_path_buf();
            std::fs::write(root.dir("wal").unwrap().join("runtime.wal"), b"x").unwrap();
            assert!(kept.join("wal/runtime.wal").is_file());
        }
        assert!(!kept.exists(), "dropped root is gone");

        let panicked = std::panic::catch_unwind(|| {
            let root = TempRoot::new().unwrap();
            let p = root.path().to_path_buf();
            std::panic::resume_unwind(Box::new(p));
        });
        let p = *panicked.unwrap_err().downcast::<PathBuf>().unwrap();
        assert!(!p.exists(), "unwinding removes the root too");
    }

    #[test]
    fn copy_and_measure_directories() {
        let root = TempRoot::new().unwrap();
        let a = root.dir("a").unwrap();
        std::fs::write(a.join("runtime.wal"), vec![0u8; 100]).unwrap();
        std::fs::write(a.join("runtime.ckpt"), vec![0u8; 40]).unwrap();
        let b = root.file("b");
        assert_eq!(copy_dir(&a, &b).unwrap(), 140);
        assert_eq!(dir_bytes(&b, ".wal"), 100);
        assert_eq!(dir_bytes(&b, ".ckpt"), 40);
        assert_eq!(dir_bytes(&b, ""), 140);
    }
}
