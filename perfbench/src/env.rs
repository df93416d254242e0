//! What a result was measured on, and where the benchmark keeps its files.

use std::path::{Path, PathBuf};

/// The environment recorded with every result.
#[derive(Debug, Clone)]
pub struct Env {
    /// Hardware threads the OS offers (`nproc`).
    pub nproc: usize,
    /// The worker-pool size `spfe-math::par` resolved (`SPFE_THREADS` or
    /// the hardware default).
    pub threads: usize,
    /// The raw `SPFE_THREADS` value, if set.
    pub spfe_threads_env: Option<String>,
    /// Whether the instrumented allocator (`obs-alloc`) is compiled in.
    pub obs_alloc: bool,
    /// The git commit, when the checkout is a git repository.
    pub commit: Option<String>,
    /// A hash of every source file the build reads: the commit's identity
    /// when there is no git metadata.
    pub tree: String,
}

impl Env {
    /// Probes the running process.
    pub fn probe() -> Env {
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads: spfe_math::par::threads(),
            spfe_threads_env: std::env::var("SPFE_THREADS").ok(),
            obs_alloc: spfe_obs::alloc_enabled(),
            commit: git_head(Path::new(".")),
            tree: format!("{:016x}", tree_hash(Path::new("."))),
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory for trace files and determinism records: `perfbench-out`
/// in the cargo target directory the benchmark binary was built into.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("the binary lives in <target>/<profile>/");
    target.join("perfbench-out")
}

fn git_head(root: &Path) -> Option<String> {
    let head = std::fs::read_to_string(root.join(".git/HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// FNV-1a over the path and bytes of every build input under `root`:
/// the workspace manifests and lock file, `crates/` and the benchmark's
/// own sources, in sorted order.
pub fn tree_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "perfbench/Cargo.toml",
        "perfbench/src",
    ] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for f in files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n != "target") {
                collect(&p, out);
            }
        }
    }
}

/// Checks deterministic metrics against the record an earlier run of the
/// same source tree, workload, seed and trace mode left in `dir`, writing
/// the record if there is none. Returns the names whose values differ.
///
/// # Errors
///
/// Any I/O error reading or writing the record.
pub fn check_deterministic(
    dir: &Path,
    key: &str,
    values: &[(String, f64)],
) -> std::io::Result<Vec<String>> {
    let path = dir.join(format!("det-{key}.txt"));
    let now: String = values
        .iter()
        .map(|(name, v)| format!("{name} {v}\n"))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) => {
            let old: Vec<&str> = before.lines().collect();
            let new: Vec<&str> = now.lines().collect();
            Ok(new
                .iter()
                .filter(|line| !old.contains(line))
                .map(|line| line.split(' ').next().unwrap_or("").to_owned())
                .chain((old.len() != new.len()).then(|| "<metric set>".to_owned()))
                .collect())
        }
        Err(_) => {
            std::fs::create_dir_all(dir)?;
            std::fs::write(&path, now)?;
            Ok(Vec::new())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_record_matches_itself_and_flags_a_change() {
        let dir = out_dir().join(format!("test-det-{}", std::process::id()));
        let a = vec![("ops.modexp".to_owned(), 12.0), ("comm".to_owned(), 3.5)];
        assert!(check_deterministic(&dir, "k", &a).unwrap().is_empty());
        assert!(check_deterministic(&dir, "k", &a).unwrap().is_empty());
        let b = vec![("ops.modexp".to_owned(), 13.0), ("comm".to_owned(), 3.5)];
        assert_eq!(check_deterministic(&dir, "k", &b).unwrap(), ["ops.modexp"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
