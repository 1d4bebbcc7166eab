//! Facts about the machine and build a result was measured on.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// Worker threads every workload uses: the cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process in bytes (0 where `/proc` is unavailable).
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<u64>().ok()
        })
        .map_or(0, |kib| kib * 1024)
}

/// Where the durable workload keeps its store: inside the benchmark's own
/// directory, one sub-directory per process.
pub fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
}

/// The host block every artifact carries.
pub fn facts() -> Json {
    let scratch = scratch_root();
    let mounted = scratch
        .ancestors()
        .find(|p| p.exists())
        .unwrap_or(Path::new("/"));
    let or_unknown = |line: Option<String>| Json::from(line.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("threads", Json::from(nproc())),
        ("scratch_fs", Json::from(fs_type(mounted))),
        ("rustc", or_unknown(command_line("rustc", &["--version"]))),
        (
            "git_commit",
            or_unknown(command_line("git", &["rev-parse", "HEAD"])),
        ),
        // True when the measured tree differs from that commit.
        (
            "git_dirty",
            command_line("git", &["status", "--porcelain"])
                .map_or(Json::Null, |status| Json::from(!status.is_empty())),
        ),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
    ])
}
