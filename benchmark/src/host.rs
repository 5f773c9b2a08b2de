//! Host fingerprint and process memory, read from inside the checkout and
//! `/proc/self` only.

use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The core the load thread runs on, and the core the server's threads run
/// on: a thread inherits the cores of the thread that spawns it, so the load
/// thread moves to [`SERVER_CPU`] while it sets a server up.
pub const LOAD_CPU: usize = 0;
pub const SERVER_CPU: usize = 1;

/// Bind the calling thread to core `cpu`. False when the host has no such
/// core or no such call; the thread then runs where the scheduler puts it.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    let Some(word) = mask.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    let ret: i64;
    // SAFETY: `sched_setaffinity(0, len, mask)` (system call 203) reads `len`
    // bytes at `mask`, which lives until the call returns, and writes no
    // memory; the `syscall` instruction clobbers rcx and r11 besides rax.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203i64 => ret,
            in("rdi") 0i64,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_cpu(_cpu: usize) -> bool {
    false
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug-assertions"
    } else {
        "release"
    }
}

fn status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak resident set of this process (`VmHWM`), in bytes.
pub fn rss_peak_bytes() -> Option<u64> {
    status_bytes("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in bytes.
pub fn rss_bytes() -> Option<u64> {
    status_bytes("VmRSS:")
}

/// The checked-out commit, when the benchmark runs inside a git work tree
/// (the driver's checkout is not one).
pub fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| head.to_string()),
        None => head.to_string(),
    }
}
