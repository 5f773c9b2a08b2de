//! A sampling profiler for the per-event path (`harness profile`).
//!
//! [`profile`] drives queries over the TPC-H stream the benchmark's
//! `tpch_durable` workload feeds, one `process` call per event, with the
//! process's CPU-time interval timer (`ITIMER_PROF`) armed: every `SIGPROF`
//! records the interrupted instruction's address. The host's `addr2line`
//! resolves the distinct addresses, with their inline chains, against the
//! executable; each sample counts for the outermost function of its chain —
//! the function the compiler emitted — and samples outside the executable
//! (the C library, the vDSO clock) count apart. The kernel's tick limits the
//! rate to a few hundred samples a second, so the stream runs several
//! passes.
//!
//! Sampling needs `sigaction` and `setitimer` (declared here by hand: the
//! workspace has no libc crate), the `ucontext` layout of x86_64 Linux, and
//! `/proc/self/maps`; on any other target [`profile`] says it is
//! unsupported. Folding `addr2line`'s output ([`fold`]) is plain text work
//! and runs everywhere.

use dbtoaster::prelude::*;
use dbtoaster::workloads;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one `harness profile` run measured.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Events per pass.
    pub events: usize,
    /// Passes over the stream.
    pub passes: usize,
    /// The fastest pass's wall time per event, in nanoseconds.
    pub best_ns_per_event: f64,
    /// Samples taken.
    pub samples: u64,
    /// Samples per outermost function, most first; samples outside the
    /// executable under `(outside the executable)`.
    pub shares: Vec<(String, u64)>,
}

/// The name samples outside the executable are counted under.
const OUTSIDE: &str = "(outside the executable)";

/// The smallest share [`render`] prints a line for; the functions below it
/// share one line.
const MIN_SHARE: f64 = 0.005;

/// Profile `queries` (workload query names) over `events` events of the
/// `tpch_durable` stream at `seed`, `passes` times, each pass on a fresh
/// engine. `Err` says why it cannot: an unknown query, an unsupported
/// target, or `addr2line` missing.
pub fn profile(
    queries: &[&str],
    events: usize,
    seed: u64,
    passes: usize,
) -> Result<ProfileReport, String> {
    let mut builder = QueryEngineBuilder::new(workloads::full_catalog());
    for name in queries {
        let q = workloads::query(name).ok_or_else(|| format!("no workload query named {name}"))?;
        builder = builder.add_query(q.name, q.sql);
    }
    let stream = workloads::tpch::ledger_events(events, seed);
    let mut best = f64::INFINITY;
    let sampler = sampler::Sampler::start()?;
    for _ in 0..passes {
        let mut engine = builder.clone().build().map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for event in &stream {
            engine.process(event).map_err(|e| e.to_string())?;
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / stream.len().max(1) as f64);
    }
    let (inside, outside) = sampler.stop()?;
    let mut shares = resolve(&inside)?;
    if outside > 0 {
        shares.push((OUTSIDE.to_string(), outside));
    }
    shares.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    let samples = shares.iter().map(|s| s.1).sum();
    Ok(ProfileReport {
        events: stream.len(),
        passes,
        best_ns_per_event: best,
        samples,
        shares,
    })
}

/// Resolve executable-relative addresses, with their sample counts, to
/// outermost functions through `addr2line`.
fn resolve(counts: &BTreeMap<u64, u64>) -> Result<Vec<(String, u64)>, String> {
    use std::io::Write;
    use std::process::{Command, Stdio};
    if counts.is_empty() {
        return Ok(Vec::new());
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e"])
        .arg(&exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot run addr2line: {e}"))?;
    let mut input = String::new();
    for addr in counts.keys() {
        input.push_str(&format!("{addr:#x}\n"));
    }
    child
        .stdin
        .take()
        .expect("piped")
        .write_all(input.as_bytes())
        .map_err(|e| e.to_string())?;
    let out = child.wait_with_output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(fold(&text, counts))
}

/// Fold `addr2line -a -f -i -C` output into samples per outermost
/// function: each address block (`0x…`, then a function and a location per
/// frame of its inline chain, innermost first) counts `counts[address]`
/// samples for its last function, in order of first appearance. An address
/// the output does not name counts for `??`.
pub fn fold(output: &str, counts: &BTreeMap<u64, u64>) -> Vec<(String, u64)> {
    let mut blocks: Vec<(u64, Vec<&str>)> = Vec::new();
    for line in output.lines() {
        match line.strip_prefix("0x") {
            Some(hex) => {
                blocks.push((u64::from_str_radix(hex, 16).unwrap_or(u64::MAX), Vec::new()))
            }
            None => {
                if let Some((_, lines)) = blocks.last_mut() {
                    lines.push(line);
                }
            }
        }
    }
    let mut folded: Vec<(String, u64)> = Vec::new();
    for (addr, lines) in blocks {
        // Function names sit at the even lines of a block, locations at the odd.
        let outermost = lines.iter().step_by(2).next_back().copied().unwrap_or("??");
        let n = counts.get(&addr).copied().unwrap_or(0);
        match folded.iter_mut().find(|(f, _)| f == outermost) {
            Some((_, total)) => *total += n,
            None => folded.push((outermost.to_string(), n)),
        }
    }
    folded
}

/// Render a report: one line per function down to half a percent of the
/// samples, then the rest in one line.
pub fn render(report: &ProfileReport, queries: &[&str]) -> String {
    let mut out = format!(
        "=== profile: {} over {} events x {} passes, best pass {:.0} ns/event, {} samples ===\n",
        queries.join(","),
        report.events,
        report.passes,
        report.best_ns_per_event,
        report.samples
    );
    let total = report.samples.max(1) as f64;
    let mut rest = 0;
    for (f, n) in &report.shares {
        let share = *n as f64 / total;
        if share >= MIN_SHARE {
            out.push_str(&format!("{:6.2}%  {f}\n", 100.0 * share));
        } else {
            rest += n;
        }
    }
    if rest > 0 {
        out.push_str(&format!(
            "{:6.2}%  (the rest)\n",
            100.0 * rest as f64 / total
        ));
    }
    out
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    //! `SIGPROF` sampling of the leaf instruction address.

    use std::collections::BTreeMap;
    use std::ffi::{c_int, c_void};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    /// `gregs[REG_RIP]` in a `ucontext_t`: after `uc_flags`, `uc_link` and
    /// the 24-byte `uc_stack`, register 16 of `mcontext_t.gregs`.
    const RIP_OFFSET: usize = 168;
    /// Sampling period: 1 ms of CPU time (the kernel's tick bounds it).
    const PERIOD_US: i64 = 1_000;
    const CAP: usize = 1 << 18;

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ItimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const ItimerVal, old: *mut ItimerVal) -> c_int;
    }

    static SAMPLES: [AtomicU64; CAP] = [const { AtomicU64::new(0) }; CAP];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    /// Record the interrupted instruction: async-signal-safe, two atomics.
    extern "C" fn on_prof(_sig: c_int, _info: *mut c_void, ctx: *mut c_void) {
        // SAFETY: the kernel hands a SA_SIGINFO handler a valid ucontext_t.
        let rip = unsafe { *(ctx.cast::<u8>().add(RIP_OFFSET).cast::<u64>()) };
        let i = TAKEN.fetch_add(1, Relaxed);
        if i < CAP {
            SAMPLES[i].store(rip, Relaxed);
        }
    }

    /// The armed timer; [`Sampler::stop`] disarms it.
    pub struct Sampler;

    fn arm(period_us: i64) -> Result<(), String> {
        let tv = TimeVal {
            sec: 0,
            usec: period_us,
        };
        let timer = ItimerVal {
            interval: tv,
            value: tv,
        };
        // SAFETY: plain C call with valid pointers.
        match unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) } {
            0 => Ok(()),
            _ => Err("setitimer failed".into()),
        }
    }

    impl Sampler {
        /// Install the handler and arm the timer.
        pub fn start() -> Result<Sampler, String> {
            TAKEN.store(0, Relaxed);
            let act = SigAction {
                handler: on_prof as extern "C" fn(c_int, *mut c_void, *mut c_void) as usize,
                mask: [0; 16],
                flags: SA_SIGINFO | SA_RESTART,
                restorer: 0,
            };
            // SAFETY: a valid sigaction for a handler that only stores atomics.
            if unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) } != 0 {
                return Err("sigaction failed".into());
            }
            arm(PERIOD_US)?;
            Ok(Sampler)
        }

        /// Disarm the timer; the samples inside the executable, by address
        /// relative to its load base, and the number outside it.
        pub fn stop(self) -> Result<(BTreeMap<u64, u64>, u64), String> {
            arm(0)?;
            let taken = TAKEN.load(Relaxed).min(CAP);
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
            let (base, ranges) = exe_mappings(&maps, &exe.to_string_lossy())
                .ok_or("the executable is not in /proc/self/maps")?;
            let (mut inside, mut outside) = (BTreeMap::new(), 0);
            for s in &SAMPLES[..taken] {
                let addr = s.load(Relaxed);
                match ranges.iter().any(|&(lo, hi)| lo <= addr && addr < hi) {
                    true => *inside.entry(addr - base).or_insert(0) += 1,
                    false => outside += 1,
                }
            }
            Ok((inside, outside))
        }
    }

    /// The load base of `exe` (the start of its mapping at file offset 0)
    /// and its executable ranges, from `/proc/self/maps` text.
    fn exe_mappings(maps: &str, exe: &str) -> Option<(u64, Vec<(u64, u64)>)> {
        let (mut base, mut ranges) = (None, Vec::new());
        for line in maps.lines().filter(|l| l.ends_with(exe)) {
            let mut fields = line.split_whitespace();
            let (range, perms, offset) = (fields.next()?, fields.next()?, fields.next()?);
            let (lo, hi) = range.split_once('-')?;
            let (lo, hi) = (
                u64::from_str_radix(lo, 16).ok()?,
                u64::from_str_radix(hi, 16).ok()?,
            );
            if u64::from_str_radix(offset, 16).ok()? == 0 {
                base = Some(base.map_or(lo, |b: u64| b.min(lo)));
            }
            if perms.contains('x') {
                ranges.push((lo, hi));
            }
        }
        Some((base?, ranges))
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sampler {
    use std::collections::BTreeMap;

    pub struct Sampler;

    impl Sampler {
        pub fn start() -> Result<Sampler, String> {
            Err("profiling is unsupported on this target (it needs x86_64 Linux)".into())
        }

        pub fn stop(self) -> Result<(BTreeMap<u64, u64>, u64), String> {
            unreachable!("never started")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `addr2line -a -f -i -C` prints each address, then a function and a
    /// location per frame of its inline chain, innermost first: a sample
    /// counts for the last function of its block, and blocks of one
    /// function sum.
    #[test]
    fn samples_fold_onto_their_outermost_function() {
        let output = "\
0x0000000000001000
dbtoaster_agca::plan::Exec::term
/src/plan.rs:10
dbtoaster_agca::plan::Exec::emit
/src/plan.rs:20
dbtoaster_agca::plan::Exec::exec
/src/plan.rs:30
0x0000000000002000
hashbrown::map::HashMap::get
/src/map.rs:1
0x0000000000003000
dbtoaster_agca::plan::Exec::exec
/src/plan.rs:31
0x0000000000004000
??
??:0
";
        let counts: BTreeMap<u64, u64> =
            [(0x1000, 500), (0x2000, 496), (0x3000, 2), (0x4000, 2)].into();
        assert_eq!(
            fold(output, &counts),
            [
                ("dbtoaster_agca::plan::Exec::exec".to_string(), 502),
                ("hashbrown::map::HashMap::get".to_string(), 496),
                ("??".to_string(), 2),
            ]
        );
        let report = ProfileReport {
            events: 10,
            passes: 2,
            best_ns_per_event: 1500.0,
            samples: 1000,
            shares: fold(output, &counts),
        };
        let text = render(&report, &["q1", "q6"]);
        assert!(
            text.starts_with("=== profile: q1,q6 over 10 events x 2 passes"),
            "{text}"
        );
        assert!(
            text.contains(" 50.20%  dbtoaster_agca::plan::Exec::exec\n"),
            "{text}"
        );
        assert!(
            text.contains(" 49.60%  hashbrown::map::HashMap::get\n"),
            "{text}"
        );
        assert!(text.ends_with("  0.20%  (the rest)\n"), "{text}");
    }
}
