//! Child processes of the `paper` binary: build it, run it, and reap it
//! with its peak resident set size.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads peak RSS through wait4 and supports 64-bit Linux only");

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen longs.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub success: bool,
    /// Peak resident set size in MB (2^20 bytes).
    pub peak_rss_mb: f64,
}

/// Wait for `child` to end and reap it, returning its exit and peak RSS.
/// The child must not have been waited for already.
pub fn reap(child: Child) -> std::io::Result<Exit> {
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kb: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel's `int` and 64-bit `struct rusage`; `pid` is our own
        // unreaped child, so the call reaps nothing else.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            break;
        }
        let error = std::io::Error::last_os_error();
        if error.kind() != std::io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
    let exited = status & 0x7f == 0;
    Ok(Exit {
        success: exited && (status >> 8) & 0xff == 0,
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    })
}

/// Run `cmd` to completion with its output discarded, timing it from
/// spawn to reap.
pub fn run_timed(cmd: &mut Command) -> std::io::Result<(Exit, f64)> {
    let started = Instant::now();
    let child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let exit = reap(child)?;
    Ok((exit, started.elapsed().as_secs_f64()))
}

/// The repository root: the parent of this package.
pub fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench lives inside the repository")
}

/// The cargo target directory this binary was built into.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Build the `paper` binary from the repository's sources, release
/// profile, into this binary's target directory; return its path.
pub fn build_paper(target: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "service",
            "--bin",
            "paper",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building paper failed: {status}"));
    }
    Ok(target.join("release").join("paper"))
}
