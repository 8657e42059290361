//! End-to-end and per-layer benchmark of the Rumpsteak workspace.
//!
//! ```text
//! perfbench run --workload W --seed N --seconds S --trace 0|1 --root DIR \
//!     [--spans-exe PATH --telemetry-exe PATH]
//! perfbench child --workload W --seed N --seconds S --root DIR
//! perfbench probes --seed N
//! ```
//!
//! `run` is the entry point (`perfbench/run.py` builds the binaries and
//! calls it). It runs each measurement in a child process of its own and
//! prints one JSON result as the last line of its output. `child` runs
//! one closed-loop workload; `probes` runs the per-layer probes.

mod net_rtt;
mod probes;
mod run;
mod sessions;
mod stats;
mod toolchain;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trace::Tracer;
use workload::Workload;

/// The workloads, in the order the traced run visits them.
pub const WORKLOADS: [&str; 3] = ["sessions", "net_rtt", "toolchain"];

/// Deadline of one op (the slowest op takes about 0.1 s).
const OP_DEADLINE: Duration = Duration::from_secs(10);
/// Deadline of set-up, warm-up included, and of teardown.
const SETUP_DEADLINE: Duration = Duration::from_secs(60);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&args) {
        Ok((mode, flags)) => match mode.as_str() {
            "run" => run::main(&flags),
            "child" => child_main(&flags),
            "probes" => probes_main(&flags),
            other => Err(format!("unknown mode `{other}`")),
        },
        Err(e) => Err(e),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Flags of one invocation, `--name value` each.
pub type Flags = BTreeMap<String, String>;

fn parse_args(args: &[String]) -> Result<(String, Flags), String> {
    let (mode, rest) = args
        .split_first()
        .ok_or("usage: perfbench run|child|probes --flag value ...")?;
    let mut flags = Flags::new();
    let mut words = rest.iter();
    while let Some(word) = words.next() {
        let name = word
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, got `{word}`"))?;
        let value = words
            .next()
            .ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok((mode.clone(), flags))
}

pub fn flag<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

pub fn flag_num<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<T, String> {
    flag(flags, name)?
        .parse()
        .map_err(|_| format!("--{name} is not a number"))
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Turns a hung phase into a counted failure: if the armed deadline
/// passes, prints the counts so far plus one failed op and exits.
struct Watchdog {
    epoch: Instant,
    /// Deadline in ns since `epoch`; `u64::MAX` when disarmed.
    deadline: AtomicU64,
    phase: Mutex<&'static str>,
    attempted: AtomicU64,
    failed: AtomicU64,
}

impl Watchdog {
    fn start() -> Arc<Self> {
        let dog = Arc::new(Self {
            epoch: Instant::now(),
            deadline: AtomicU64::new(u64::MAX),
            phase: Mutex::new("set-up"),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        });
        let watcher = dog.clone();
        // Detached on purpose: it ends with the process.
        std::thread::spawn(move || loop {
            std::thread::sleep(Duration::from_millis(50));
            let now = watcher.epoch.elapsed().as_nanos() as u64;
            if now > watcher.deadline.load(Ordering::SeqCst) {
                let phase = *watcher.phase.lock().expect("phase lock");
                let mut out = std::io::stdout().lock();
                let _ = writeln!(
                    out,
                    "attempted {}\nfailed {}\nerror {phase} missed its deadline",
                    watcher.attempted.load(Ordering::SeqCst) + 1,
                    watcher.failed.load(Ordering::SeqCst) + 1,
                );
                let _ = out.flush();
                std::process::exit(3);
            }
        });
        dog
    }

    fn arm(&self, phase: &'static str, within: Duration) {
        *self.phase.lock().expect("phase lock") = phase;
        let at = self.epoch.elapsed() + within;
        self.deadline.store(at.as_nanos() as u64, Ordering::SeqCst);
    }

    fn record(&self, ok: bool) {
        self.attempted.fetch_add(1, Ordering::SeqCst);
        if !ok {
            self.failed.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Runs one op, turning a panic into a failed check.
fn run_op(w: &mut dyn Workload, t: &mut Tracer, op: u64) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| t.op(op, |t| w.op(t, op)))) {
        Ok(result) => result,
        Err(panic) => Err(panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "op panicked".into())),
    }
}

/// Fixed warm-up ops per workload, part of set-up.
fn warm_up_ops(workload: &str) -> u64 {
    match workload {
        "toolchain" => 3,
        _ => 100,
    }
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Runs one workload for `--seconds` and prints its raw figures, one
/// `key value` line each.
fn child_main(flags: &Flags) -> Result<i32, String> {
    let start = Instant::now();
    let name = flag(flags, "workload")?.to_owned();
    let seed: u64 = flag_num(flags, "seed")?;
    let window = Duration::from_secs_f64(flag_num(flags, "seconds")?);
    let root = Path::new(flag(flags, "root")?);
    let dog = Watchdog::start();
    dog.arm("set-up", SETUP_DEADLINE);

    let mut out = Vec::<String>::new();
    let mut errors = Vec::<String>::new();
    let setup: Result<Box<dyn Workload>, String> = match name.as_str() {
        "sessions" => sessions::Sessions::setup(seed, threads()).map(|w| Box::new(w) as _),
        "net_rtt" => net_rtt::NetRtt::setup(seed, threads()).map(|w| Box::new(w) as _),
        "toolchain" => toolchain::Toolchain::setup(seed, root).map(|w| Box::new(w) as _),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let mut w = match setup {
        Ok(w) => w,
        Err(e) => {
            println!("attempted 1\nfailed 1\nerror set-up: {e}");
            return Ok(1);
        }
    };
    let mut tracer = Tracer::new();
    let mut op = 0;
    while op < warm_up_ops(&name) {
        let result = run_op(w.as_mut(), &mut tracer, op);
        dog.record(result.is_ok());
        if let Err(e) = result {
            errors.push(format!("warm-up op {op}: {e}"));
        }
        op += 1;
    }
    tracer.clear();
    w.start_window();
    let setup_s = start.elapsed().as_secs_f64();

    let cpu_before = stats::parse_stat_cpu_ticks(&read_proc("/proc/self/stat"));
    let steal_before = stats::parse_proc_stat_steal(&read_proc("/proc/stat"));
    let mut latencies = Vec::new();
    let window_start = Instant::now();
    while window_start.elapsed() < window {
        dog.arm("op", OP_DEADLINE);
        let begun = Instant::now();
        let result = run_op(w.as_mut(), &mut tracer, op);
        latencies.push(begun.elapsed().as_nanos() as u64);
        dog.record(result.is_ok());
        if let Err(e) = result {
            errors.push(format!("op {op}: {e}"));
        }
        op += 1;
    }
    let window_s = window_start.elapsed().as_secs_f64();
    let cpu_after = stats::parse_stat_cpu_ticks(&read_proc("/proc/self/stat"));
    let steal_after = stats::parse_proc_stat_steal(&read_proc("/proc/stat"));
    let timed = latencies.len() as u64;

    dog.arm("teardown", SETUP_DEADLINE);
    if trace::TRACED || rumpsteak::telemetry::ENABLED {
        let mut layers = w.layer_metrics(timed);
        for (span, us) in tracer.p50_us_by_name() {
            layers.push((format!("{span}_us"), us));
        }
        if let Some(share) = tracer.uncovered_share() {
            layers.push((format!("{name}.uncovered_share"), share));
        }
        for (metric, value) in layers {
            out.push(format!("layer {metric} {value}"));
        }
    }
    w.teardown();
    let rss_kib = stats::parse_vm_hwm_kib(&read_proc("/proc/self/status"));

    let cpu_ticks = cpu_before
        .zip(cpu_after)
        .map(|(before, after)| after - before)
        .ok_or("/proc/self/stat is unreadable")?;
    println!("setup_s {setup_s}");
    println!("window_s {window_s}");
    println!("attempted {}", dog.attempted.load(Ordering::SeqCst));
    println!("failed {}", dog.failed.load(Ordering::SeqCst));
    println!("cpu_ticks {cpu_ticks}");
    if let (Some((s0, t0)), Some((s1, t1))) = (steal_before, steal_after) {
        println!("steal_share {}", (s1 - s0) as f64 / (t1 - t0).max(1) as f64);
    }
    println!(
        "rss_kib {}",
        rss_kib.ok_or("/proc/self/status has no VmHWM")?
    );
    let latencies: Vec<String> = latencies.iter().map(u64::to_string).collect();
    println!("latencies_ns {}", latencies.join(","));
    for line in out {
        println!("{line}");
    }
    for e in errors.iter().take(20) {
        println!("error {e}");
    }
    Ok(if errors.is_empty() { 0 } else { 1 })
}

/// Runs the per-layer probes and prints `layer name value` lines.
fn probes_main(flags: &Flags) -> Result<i32, String> {
    let seed: u64 = flag_num(flags, "seed")?;
    match probes::run(threads(), seed) {
        Ok(metrics) => {
            for (metric, value) in metrics {
                println!("layer {metric} {value}");
            }
            Ok(0)
        }
        Err(e) => {
            println!("error probes: {e}");
            Ok(1)
        }
    }
}
