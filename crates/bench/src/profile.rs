//! A sampling profiler for the engine's paths (`harness profile`).
//!
//! [`profile`] drives queries over the TPC-H stream the benchmark's
//! `tpch_durable` workload feeds, along one [`ProfilePath`] — one `process`
//! call per event, or through a served or a durable server in the
//! benchmark's served chunks — with the process's CPU-time interval timer
//! (`ITIMER_PROF`) armed: every `SIGPROF` records the address of the
//! instruction it interrupted, on whichever thread was running (the served
//! writer's, the WAL sync thread's, the client's). The host's `addr2line`
//! resolves the distinct addresses, with their inline chains, against the
//! executable. Each sample counts for the innermost engine phase of its chain
//! (`PHASES`, which inlining would fold into one opaque bucket), else for the
//! outermost function, the one the compiler emitted; a sample outside the
//! executable counts for the mapping of `/proc/self/maps` that holds it
//! (`libc.so.6`, `[vdso]`, …; see [`mapping_shares`]). The kernel's tick
//! limits the rate to a few hundred samples a second, so the stream runs
//! several passes.
//!
//! Sampling needs `sigaction` and `setitimer` (declared here by hand: the
//! workspace has no libc crate), the `ucontext` layout of x86_64 Linux, and
//! `/proc/self/maps`; on any other target [`profile`] says it is
//! unsupported. Folding `addr2line`'s output ([`fold`]) and crediting
//! mappings ([`mapping_shares`]) are plain text work and run everywhere.

use dbtoaster::prelude::*;
use dbtoaster::workloads;
use std::collections::BTreeMap;
use std::time::Instant;

/// The path [`profile`] drives the stream through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProfilePath {
    /// One `QueryEngine::process` call per event.
    Embedded,
    /// A served engine (`QueryEngine::serve`): [`SERVED_CHUNK`] events per
    /// `send_batch`, then `flush`.
    Served,
    /// A durable server (`QueryEngine::open_or_create_with`, the default
    /// `DurabilityConfig`) in a fresh directory per pass, fed as
    /// [`ProfilePath::Served`] is.
    Durable,
}

impl std::str::FromStr for ProfilePath {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "embedded" => Ok(ProfilePath::Embedded),
            "served" => Ok(ProfilePath::Served),
            "durable" => Ok(ProfilePath::Durable),
            _ => Err(()),
        }
    }
}

/// Events per `send_batch` on the served paths, as the benchmark's served
/// phase sends them.
pub const SERVED_CHUNK: usize = 1_024;

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
    /// Samples per phase or outermost function (see [`fold`]), most first;
    /// samples outside the executable under the mapping that holds them
    /// (see [`mapping_shares`]).
    pub shares: Vec<(String, u64)>,
}

/// The engine's phases, as function path suffixes (see [`fold`]).
const PHASES: &str = "collect_over live_pass apply_base_run fire_replace_tail \
                      process_run Executor::run Engine::process";

/// Samples per name, as [`fold`] and [`mapping_shares`] count them.
type Shares = Vec<(String, u64)>;

/// The smallest share [`render`] prints a line for; the functions below it
/// share one line.
const MIN_SHARE: f64 = 0.005;

/// Profile `queries` (workload query names) over `events` events of the
/// `tpch_durable` stream at `seed`, driven along `path`, `passes` times,
/// each pass on a fresh engine (and server, and directory). The served
/// paths take their events by value: every pass's copy is made before the
/// sampler starts, so no clone is sampled. `Err` says why it cannot: an
/// unknown query, an unsupported target, or `addr2line` missing.
pub fn profile(
    queries: &[&str],
    events: usize,
    seed: u64,
    passes: usize,
    path: ProfilePath,
) -> Result<ProfileReport, String> {
    let mut builder = QueryEngineBuilder::new(workloads::full_catalog());
    for name in queries {
        let q = workloads::query(name).ok_or_else(|| format!("no workload query named {name}"))?;
        builder = builder.add_query(q.name, q.sql);
    }
    let stream = workloads::tpch::ledger_events(events, seed);
    let mut copies: Vec<Vec<Vec<UpdateEvent>>> = match path {
        ProfilePath::Embedded => Vec::new(),
        ProfilePath::Served | ProfilePath::Durable => (0..passes)
            .map(|_| stream.chunks(SERVED_CHUNK).map(<[_]>::to_vec).collect())
            .collect(),
    };
    let dir = std::env::temp_dir().join(format!("dbtoaster-profile-{}", std::process::id()));
    let mut best = f64::INFINITY;
    let sampler = sampler::Sampler::start()?;
    for _ in 0..passes {
        let elapsed = match copies.pop() {
            None => {
                let mut engine = builder.clone().build().map_err(|e| e.to_string())?;
                let t0 = Instant::now();
                for event in &stream {
                    engine.process(event).map_err(|e| e.to_string())?;
                }
                t0.elapsed()
            }
            Some(chunks) => {
                let _ = std::fs::remove_dir_all(&dir);
                let server = match path {
                    ProfilePath::Durable => builder.clone().open_or_create_with(ServerConfig {
                        durability: Some(DurabilityConfig::new(&dir)),
                        ..ServerConfig::default()
                    }),
                    _ => builder.clone().serve(),
                };
                let served = serve_pass(server.map_err(|e| e.to_string())?, chunks);
                let _ = std::fs::remove_dir_all(&dir);
                served?
            }
        };
        best = best.min(elapsed.as_nanos() as f64 / stream.len().max(1) as f64);
    }
    let (inside, outside) = sampler.stop()?;
    let mut shares = resolve(&inside)?;
    shares.extend(outside);
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

/// Send `chunks` to `server`, each `send_batch` followed by a `flush`, and
/// shut it down: the time from the first send to the last flush, or `Err`
/// when the server did not admit every event.
fn serve_pass(
    server: ViewServer,
    chunks: Vec<Vec<UpdateEvent>>,
) -> Result<std::time::Duration, String> {
    let ingest = server.handle();
    let sent: usize = chunks.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    for chunk in chunks {
        ingest.send_batch(chunk).map_err(|e| e.to_string())?;
        server.flush().map_err(|e| e.to_string())?;
    }
    let elapsed = t0.elapsed();
    let admitted = server.shutdown().map_err(|e| e.to_string())?.stats().events;
    match admitted == sent as u64 {
        true => Ok(elapsed),
        false => Err(format!("the server admitted {admitted} of {sent} events")),
    }
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

/// Fold `addr2line -a -f -i -C` output into samples per phase or function:
/// each address block (`0x…`, then a function and a location per frame of
/// its inline chain, innermost first) counts `counts[address]` samples for
/// its first function whose path ends in `::` and a `PHASES` entry, else for
/// its last one, in order of first appearance. An address the output does
/// not name counts for `??`.
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
    let phase = |f: &&str| {
        let named = |p| f.strip_suffix(p).is_some_and(|s: &str| s.ends_with("::"));
        PHASES.split_whitespace().any(named)
    };
    let mut folded: Vec<(String, u64)> = Vec::new();
    for (addr, lines) in blocks {
        // Function names sit at the even lines of a block, locations at the odd.
        let mut frames = lines.iter().step_by(2).copied();
        let credited = match frames.clone().find(phase) {
            Some(f) => f,
            None => frames.next_back().unwrap_or("??"),
        };
        let n = counts.get(&addr).copied().unwrap_or(0);
        match folded.iter_mut().find(|(f, _)| f == credited) {
            Some((_, total)) => *total += n,
            None => folded.push((credited.to_string(), n)),
        }
    }
    folded
}

/// Credit each of `addrs` to the mapping of `maps` (`/proc/self/maps` text)
/// that holds it: the file name of its path (`libc.so.6`), a pseudo-path as
/// it stands (`[vdso]`, `[heap]`), `(anonymous)` for a mapping without one,
/// and `(unmapped)` when no mapping holds the address. Counts are in order
/// of first appearance.
pub fn mapping_shares(maps: &str, addrs: &[u64]) -> Vec<(String, u64)> {
    let all: Vec<Mapping> = mappings(maps).collect();
    let mut shares: Vec<(String, u64)> = Vec::new();
    for &addr in addrs {
        let name = match holding(&all, addr) {
            None => "(unmapped)",
            Some(m) if m.path.is_empty() => "(anonymous)",
            Some(m) => m.path.rsplit('/').next().unwrap_or(m.path),
        };
        match shares.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => *total += 1,
            None => shares.push((name.to_string(), 1)),
        }
    }
    shares
}

/// One line of `/proc/self/maps`: its address range, file offset and path
/// (empty for an anonymous mapping).
struct Mapping<'a> {
    lo: u64,
    hi: u64,
    offset: u64,
    path: &'a str,
}

/// The mapping that holds `addr`.
fn holding<'a>(all: &'a [Mapping<'a>], addr: u64) -> Option<&'a Mapping<'a>> {
    all.iter().find(|m| m.lo <= addr && addr < m.hi)
}

/// The mappings of `/proc/self/maps` text, lines that do not parse skipped.
fn mappings(maps: &str) -> impl Iterator<Item = Mapping<'_>> {
    maps.lines().filter_map(|line| {
        let hex = |s: &str| u64::from_str_radix(s, 16).ok();
        let mut fields = line.splitn(6, ' ');
        let (lo, hi) = fields.next()?.split_once('-')?;
        let (lo, hi) = (hex(lo)?, hex(hi)?);
        let offset = hex(fields.nth(1)?)?;
        let path = fields.nth(2).unwrap_or("").trim();
        Some(Mapping {
            lo,
            hi,
            offset,
            path,
        })
    })
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
        /// relative to its load base, and those outside it, by mapping.
        pub fn stop(self) -> Result<(BTreeMap<u64, u64>, super::Shares), String> {
            arm(0)?;
            let taken = TAKEN.load(Relaxed).min(CAP);
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
            let (all, exe): (Vec<_>, _) = (super::mappings(&maps).collect(), exe.to_string_lossy());
            // The load base: the start of the executable's mapping at file offset 0.
            let at_0 = all.iter().filter(|m| m.path == exe && m.offset == 0);
            let base = at_0.map(|m| m.lo).min();
            let base = base.ok_or("the executable is not in /proc/self/maps")?;
            let (mut inside, mut outside) = (BTreeMap::new(), Vec::new());
            for s in &SAMPLES[..taken] {
                let addr = s.load(Relaxed);
                match super::holding(&all, addr) {
                    Some(m) if m.path == exe => *inside.entry(addr - base).or_insert(0) += 1,
                    _ => outside.push(addr),
                }
            }
            Ok((inside, super::mapping_shares(&maps, &outside)))
        }
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

        pub fn stop(self) -> Result<(BTreeMap<u64, u64>, super::Shares), String> {
            unreachable!("never started")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `addr2line -a -f -i -C` prints each address, then a function and a
    /// location per frame of its inline chain, innermost first: a sample
    /// counts for the innermost phase of its block — a map probe inlined
    /// into the base apply, inlined in turn into the run, is the base
    /// apply's — or else for the last function of its block, and blocks of
    /// one function sum. `QueryEngine::process` is not `Engine::process`.
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
0x0000000000005000
hashbrown::map::HashMap::get_mut
/src/map.rs:2
dbtoaster_runtime::store::ViewMap::add_rows
/src/store.rs:40
dbtoaster_runtime::engine::Executor::apply_base_run
/src/engine.rs:50
dbtoaster_runtime::engine::Executor::process_run
/src/engine.rs:60
0x0000000000006000
dbtoaster::api::QueryEngine::process
/src/api.rs:7
";
        let counts: BTreeMap<u64, u64> = [
            (0x1000, 500),
            (0x2000, 496),
            (0x3000, 2),
            (0x4000, 2),
            (0x5000, 7),
            (0x6000, 1),
        ]
        .into();
        assert_eq!(
            fold(output, &counts),
            [
                ("dbtoaster_agca::plan::Exec::exec".to_string(), 502),
                ("hashbrown::map::HashMap::get".to_string(), 496),
                ("??".to_string(), 2),
                (
                    "dbtoaster_runtime::engine::Executor::apply_base_run".to_string(),
                    7
                ),
                ("dbtoaster::api::QueryEngine::process".to_string(), 1),
            ]
        );
        let report = ProfileReport {
            events: 10,
            passes: 2,
            best_ns_per_event: 1500.0,
            samples: 1000,
            shares: fold(output, &counts)[..3].to_vec(),
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

    /// A sample outside the executable counts for the mapping holding it,
    /// by the file name of its path or its pseudo-path, and for
    /// `(anonymous)` or `(unmapped)` when no file names it; the last
    /// address of a mapping is its end, exclusive.
    #[test]
    fn outside_samples_count_for_their_mapping() {
        let maps = "\
55d000000000-55d000001000 r--p 00000000 08:01 1234                       /opt/app/harness
55d000001000-55d000090000 r-xp 00001000 08:01 1234                       /opt/app/harness
7f2a00000000-7f2a00028000 r--p 00000000 08:01 77                         /usr/lib/x86_64-linux-gnu/libc.so.6
7f2a00028000-7f2a001bd000 r-xp 00028000 08:01 77                         /usr/lib/x86_64-linux-gnu/libc.so.6
7f2a00300000-7f2a00321000 rw-p 00000000 00:00 0 
7ffd1c5fe000-7ffd1c600000 r-xp 00000000 00:00 0                          [vdso]
";
        let addrs = [
            0x7ffd1c5fe010,
            0x7f2a00030000,
            0x7ffd1c5ff000,
            0x7f2a00300010,
            0x7f2a001bd000,
            0x7f2a00028000,
            0x10,
        ];
        assert_eq!(
            mapping_shares(maps, &addrs),
            [
                ("[vdso]".to_string(), 2),
                ("libc.so.6".to_string(), 2),
                ("(anonymous)".to_string(), 1),
                ("(unmapped)".to_string(), 2),
            ]
        );
        assert_eq!(mapping_shares(maps, &[]), []);
    }
}
