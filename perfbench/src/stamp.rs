//! Machine and configuration stamp carried by every result record.

use muse_obs::Json;
use std::path::Path;

/// What a number was measured on and with.
pub struct Stamp {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd_level: &'static str,
    pub muse_threads: String,
    pub muse_jobs: String,
    /// Intra-op pool threads of the traced training probe.
    pub probe_threads: usize,
    pub daemon_flags: Vec<String>,
    pub commit: String,
    pub seed: u64,
}

impl Stamp {
    pub fn collect(root: &Path, seed: u64, daemon_flags: Vec<String>) -> Stamp {
        Stamp {
            nproc: nproc(),
            cpu_model: cpu_model(),
            simd_level: muse_tensor::simd::level_name(),
            muse_threads: std::env::var("MUSE_THREADS").unwrap_or_default(),
            muse_jobs: std::env::var("MUSE_JOBS").unwrap_or_default(),
            probe_threads: nproc(),
            daemon_flags,
            commit: git_commit(root),
            seed,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("cpu_model", Json::Str(self.cpu_model.clone())),
            ("simd_level", Json::Str(self.simd_level.to_string())),
            ("MUSE_THREADS", Json::Str(self.muse_threads.clone())),
            ("MUSE_JOBS", Json::Str(self.muse_jobs.clone())),
            ("probe_threads", Json::Num(self.probe_threads as f64)),
            ("daemon_flags", Json::Arr(self.daemon_flags.iter().map(|f| Json::Str(f.clone())).collect())),
            ("commit", Json::Str(self.commit.clone())),
            ("seed", Json::Num(self.seed as f64)),
        ])
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` directly (no `git` process, and
/// no walking up into an enclosing repository). Exported trees without
/// `.git` report `"unknown"`.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}
