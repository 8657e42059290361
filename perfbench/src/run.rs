//! The `run` mode: runs a workload's measurements in child processes,
//! aggregates them and prints the result.
//!
//! Untraced (`--trace 0`), the workload runs in [`CHILDREN`] children
//! one after another, each timing `seconds / CHILDREN`. Every figure is
//! the median over the children of the child's own figure, except a p90
//! tail, which needs the children's ops pooled. Children measured while
//! the host stole CPU time are set aside (see [`counted_children`]).
//!
//! Traced (`--trace 1`), every workload runs once untraced and once
//! with spans (the named one first), `sessions` once more in the build
//! with the repository's `telemetry` feature for the scheduler counters,
//! then the probes run; together they give every per-layer metric.

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::stats::{median, quantile, tail_rule};
use crate::{flag, flag_num, threads, Flags, WORKLOADS};

/// Children of an untraced run.
const CHILDREN: usize = 10;
/// Steal share above which a child's figures are set aside: the host
/// was busy elsewhere, so they measure the host rather than the program.
const MAX_STEAL_SHARE: f64 = 0.01;
/// Clock ticks per second of `/proc/self/stat` (Linux `USER_HZ`).
const TICKS_PER_S: f64 = 100.0;
/// How long a child may overrun its timed window before it is killed
/// (its own watchdog fires well before).
const CHILD_GRACE: Duration = Duration::from_secs(90);

/// End-to-end metrics and their units, as BENCHMARK.json lists them.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and their units, as BENCHMARK.json lists them.
const PER_LAYER: [(&str, &str); 51] = [
    ("session.streaming_proj_us", "us"),
    ("session.streaming_amr_us", "us"),
    ("session.double_buffering_us", "us"),
    ("session.fft8_us", "us"),
    ("session.amr_speedup", "ratio"),
    ("executor.spawn_join_us", "us"),
    ("executor.runtime_new_us", "us"),
    ("executor.polls_per_op", "1/op"),
    ("executor.parks_per_op", "1/op"),
    ("executor.steals_per_op", "1/op"),
    ("channel.spsc_hop_ns", "ns"),
    ("channel.spsc_burst_ns", "ns"),
    ("channel.pooled_16k_ns", "ns"),
    ("channel.pooled_16k_floor_ratio", "ratio"),
    ("floor.memcpy_16k_ns", "ns"),
    ("net.rtt_tcp_8b_us", "us"),
    ("net.rtt_tcp_1k_us", "us"),
    ("net.rtt_tcp_16k_us", "us"),
    ("net.rtt_uds_8b_us", "us"),
    ("net.rtt_uds_1k_us", "us"),
    ("net.rtt_uds_16k_us", "us"),
    ("floor.tcp_rtt_8b_us", "us"),
    ("floor.uds_rtt_8b_us", "us"),
    ("net.tcp_floor_ratio", "ratio"),
    ("net.uds_floor_ratio", "ratio"),
    ("wire.encode_ns_per_byte", "ns/B"),
    ("wire.decode_ns_per_byte", "ns/B"),
    ("net.frame_encode_ns", "ns"),
    ("net.frame_decode_ns", "ns"),
    ("net.link_setup_ms", "ms"),
    ("net.threads_per_link", "count"),
    ("net.burst_64x1k_us", "us"),
    ("theory.parse_us", "us"),
    ("theory.project_us", "us"),
    ("kmc.bounds_us", "us"),
    ("kmc.configurations", "count"),
    ("optimiser.optimise_us", "us"),
    ("optimiser.generated", "count"),
    ("optimiser.verified", "count"),
    ("optimiser.verified_ratio", "ratio"),
    ("subtyping.check_us", "us"),
    ("subtyping.visited_pairs", "count"),
    ("subtyping.soundbinary_ratio", "ratio"),
    ("codegen.emit_us", "us"),
    ("codegen.emitted_bytes", "count"),
    ("sessions.trace_overhead", "ratio"),
    ("net_rtt.trace_overhead", "ratio"),
    ("toolchain.trace_overhead", "ratio"),
    ("sessions.uncovered_share", "ratio"),
    ("net_rtt.uncovered_share", "ratio"),
    ("toolchain.uncovered_share", "ratio"),
];

/// What one child process reported.
#[derive(Default)]
struct Child {
    setup_s: f64,
    window_s: f64,
    attempted: u64,
    failed: u64,
    cpu_ticks: u64,
    /// Share of the machine's CPU time the hypervisor took away during
    /// the timed window.
    steal_share: f64,
    rss_kib: u64,
    latencies_ns: Vec<u64>,
    layers: Vec<(String, f64)>,
    errors: Vec<String>,
}

impl Child {
    fn ops_per_s(&self) -> f64 {
        self.latencies_ns.len() as f64 / self.window_s
    }

    fn latencies_us(&self) -> Vec<f64> {
        self.latencies_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect()
    }
}

fn parse_child(stdout: &str) -> Child {
    let mut child = Child::default();
    for line in stdout.lines() {
        let (key, value) = line.split_once(' ').unwrap_or((line, ""));
        let num = || value.parse::<f64>().unwrap_or(f64::NAN);
        match key {
            "setup_s" => child.setup_s = num(),
            "window_s" => child.window_s = num(),
            "attempted" => child.attempted = num() as u64,
            "failed" => child.failed = num() as u64,
            "cpu_ticks" => child.cpu_ticks = num() as u64,
            "steal_share" => child.steal_share = num(),
            "rss_kib" => child.rss_kib = num() as u64,
            "latencies_ns" => {
                child.latencies_ns = value.split(',').filter_map(|v| v.parse().ok()).collect()
            }
            "layer" => {
                if let Some((name, v)) = value.split_once(' ') {
                    child
                        .layers
                        .push((name.to_owned(), v.parse().unwrap_or(f64::NAN)));
                }
            }
            "error" => child.errors.push(value.to_owned()),
            _ => child.errors.push(format!("unexpected output `{line}`")),
        }
    }
    child
}

/// Runs one child to completion (or kills it at its deadline) and
/// parses its report. A child that failed in any way counts at least one
/// failed op.
fn spawn_child(exe: &Path, args: &[String], deadline: Duration) -> Child {
    let started = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn();
    let mut process = match started {
        Ok(process) => process,
        Err(e) => {
            return Child {
                attempted: 1,
                failed: 1,
                errors: vec![format!("cannot start {}: {e}", exe.display())],
                ..Child::default()
            }
        }
    };
    let mut stdout = process.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let begun = Instant::now();
    let status = loop {
        match process.try_wait() {
            Ok(Some(status)) => break Some(status),
            Ok(None) if begun.elapsed() < deadline => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                let _ = process.kill();
                let _ = process.wait();
                break None;
            }
        }
    };
    let mut child = parse_child(&reader.join().unwrap_or_default());
    match status {
        Some(status) if status.success() => {}
        Some(status) => child.errors.push(format!("{args:?} exited with {status}")),
        None => child
            .errors
            .push(format!("{args:?} was killed at its deadline")),
    }
    if !child.errors.is_empty() {
        child.attempted = child.attempted.max(1);
        child.failed = child.failed.max(1);
    }
    child
}

fn child_args(workload: &str, seed: u64, seconds: f64, root: &str) -> Vec<String> {
    [
        "child",
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--root",
        root,
    ]
    .map(str::to_owned)
    .to_vec()
}

/// A distinct, reproducible seed for child `index` of a run.
fn child_seed(seed: u64, index: usize) -> u64 {
    let mut rng =
        crate::workload::Rng::new(seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    rng.next_u64()
}

/// Escapes a string for a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn main(flags: &Flags) -> Result<i32, String> {
    let workload = flag(flags, "workload")?;
    if !WORKLOADS.contains(&workload) && workload != "all" {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed: u64 = flag_num(flags, "seed")?;
    let seconds: f64 = flag_num(flags, "seconds")?;
    let traced = match flag(flags, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let root = flag(flags, "root")?;
    let plain = std::env::current_exe().map_err(|e| e.to_string())?;

    println!(
        "provenance {{\"workload\": {}, \"seed\": {seed}, \"traced\": {traced}, \
         \"available_parallelism\": {}, \"cpu_model\": {}, \"rustc\": {}, \
         \"git_revision\": {}}}",
        json_str(workload),
        threads(),
        json_str(&cpu_model()),
        json_str(bench::meta::rustc_version()),
        json_str(&bench::meta::git_revision()),
    );

    let (children, metrics) = if traced {
        let exes = Exes {
            plain,
            spans: flag(flags, "spans-exe")?.into(),
            telemetry: flag(flags, "telemetry-exe")?.into(),
        };
        let first = if workload == "all" {
            WORKLOADS[0]
        } else {
            workload
        };
        traced_run(first, seed, seconds, root, &exes)
    } else if workload == "all" {
        // Every workload in turn, its metrics prefixed with its name.
        let mut children = Vec::new();
        let mut metrics = Ok(Vec::new());
        for w in WORKLOADS {
            let (ran, measured) = untraced_run(w, seed, seconds, root, &plain);
            children.extend(ran);
            metrics = metrics.and_then(|mut all: Metrics| {
                all.extend(
                    measured?
                        .into_iter()
                        .map(|(name, unit, value)| (format!("{w}.{name}"), unit, value)),
                );
                Ok(all)
            });
        }
        (children, metrics)
    } else {
        untraced_run(workload, seed, seconds, root, &plain)
    };

    let attempted: u64 = children.iter().map(|c| c.attempted).sum();
    let failed: u64 = children.iter().map(|c| c.failed).sum();
    for error in children.iter().flat_map(|c| &c.errors) {
        println!("error {error}");
    }
    let correct = failed == 0 && children.iter().all(|c| c.errors.is_empty());
    let metrics = match metrics {
        Ok(metrics) => metrics,
        // Failed ops may leave too little to measure; the result still
        // reports them.
        Err(e) if !correct => {
            println!("error {e}");
            Vec::new()
        }
        Err(e) => return Err(e),
    };
    let mut fields = Vec::new();
    for (name, unit, value) in &metrics {
        println!("metric {name} = {value} {unit}");
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!("ops attempted {attempted}, failed {failed}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        fields.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

type Metrics = Vec<(String, &'static str, f64)>;

/// Checks that every listed metric was measured and is a finite number,
/// and returns them in list order with their units.
fn collect(
    list: &[(&'static str, &'static str)],
    values: &[(String, f64)],
) -> Result<Metrics, String> {
    list.iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if value.is_finite() {
                Ok((name.to_owned(), unit, value))
            } else {
                Err(format!("metric {name} is {value}"))
            }
        })
        .collect()
}

/// The run's tail latency and how it was taken. With 1000 ops in every
/// child it is each child's own p99, median over the children, so one
/// child's bad second cannot move it; otherwise the tail rule applies to
/// all ops pooled.
fn op_tail_us(children: &[&Child]) -> Result<(String, f64), String> {
    let mut pooled: Vec<f64> = children.iter().flat_map(|c| c.latencies_us()).collect();
    pooled.sort_by(f64::total_cmp);
    let child_p99s: Option<Vec<f64>> = children
        .iter()
        .map(|c| {
            let mut own = c.latencies_us();
            own.sort_by(f64::total_cmp);
            match tail_rule(own.len()) {
                Some(("p99", q)) => Some(quantile(&own, q)),
                _ => None,
            }
        })
        .collect();
    match (child_p99s, tail_rule(pooled.len())) {
        (Some(p99s), _) => Ok((
            format!("p99 of each child, median over {}", p99s.len()),
            median(&p99s),
        )),
        (None, Some((label, q))) => Ok((
            format!("{label} over {} pooled ops", pooled.len()),
            quantile(&pooled, q),
        )),
        (None, None) => Err(format!(
            "{} ops are too few for a tail percentile; raise --seconds",
            pooled.len()
        )),
    }
}

fn untraced_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    root: &str,
    exe: &Path,
) -> (Vec<Child>, Result<Metrics, String>) {
    let per_child = seconds / CHILDREN as f64;
    let children: Vec<Child> = (0..CHILDREN)
        .map(|i| {
            let args = child_args(workload, child_seed(seed, i), per_child, root);
            spawn_child(exe, &args, Duration::from_secs_f64(per_child) + CHILD_GRACE)
        })
        .collect();
    let counted = counted_children(&children);
    println!(
        "children counted: {} of {} (the others lost over {}% of the CPU to host steal)",
        counted.len(),
        children.len(),
        MAX_STEAL_SHARE * 100.0
    );
    let (label, tail) = match op_tail_us(&counted) {
        Ok(tail) => tail,
        Err(e) => return (children, Err(e)),
    };
    println!("tail percentile: {label}");
    let per_child =
        |f: &dyn Fn(&Child) -> f64| median(&counted.iter().map(|c| f(c)).collect::<Vec<_>>());
    let values = vec![
        ("setup_s".to_owned(), per_child(&|c| c.setup_s)),
        ("ops_per_s".to_owned(), per_child(&|c| c.ops_per_s())),
        (
            "op_p50_us".to_owned(),
            per_child(&|c| {
                let mut own = c.latencies_us();
                own.sort_by(f64::total_cmp);
                quantile(&own, 0.5)
            }),
        ),
        ("op_tail_us".to_owned(), tail),
        (
            "cpu_us_per_op".to_owned(),
            per_child(&|c| {
                c.cpu_ticks as f64 / TICKS_PER_S * 1e6 / c.latencies_ns.len().max(1) as f64
            }),
        ),
        (
            "peak_rss_mib".to_owned(),
            per_child(&|c| c.rss_kib as f64 / 1024.0),
        ),
    ];
    let metrics = collect(&END_TO_END, &values);
    (children, metrics)
}

/// The children whose figures the run reports: those the host left
/// alone (steal share at most [`MAX_STEAL_SHARE`]), or all of them when
/// that leaves fewer than half.
fn counted_children(children: &[Child]) -> Vec<&Child> {
    let calm: Vec<&Child> = children
        .iter()
        .filter(|c| c.steal_share <= MAX_STEAL_SHARE)
        .collect();
    if calm.len() * 2 >= children.len() {
        calm
    } else {
        children.iter().collect()
    }
}

/// The three builds of the benchmark.
struct Exes {
    plain: PathBuf,
    /// With spans around every layer call.
    spans: PathBuf,
    /// With the repository's `telemetry` feature.
    telemetry: PathBuf,
}

fn traced_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    root: &str,
    exes: &Exes,
) -> (Vec<Child>, Result<Metrics, String>) {
    let order =
        std::iter::once(workload).chain(WORKLOADS.iter().copied().filter(|&w| w != workload));
    // An untraced and a traced child per workload, plus the counted one.
    let per_child = seconds / (2 * WORKLOADS.len() + 1) as f64;
    let deadline = Duration::from_secs_f64(per_child) + CHILD_GRACE;
    let mut children = Vec::new();
    let mut values: Vec<(String, f64)> = Vec::new();
    for (i, w) in order.enumerate() {
        let args = child_args(w, child_seed(seed, i), per_child, root);
        let untraced = spawn_child(&exes.plain, &args, deadline);
        let traced = spawn_child(&exes.spans, &args, deadline);
        values.push((
            format!("{w}.trace_overhead"),
            traced.ops_per_s() / untraced.ops_per_s(),
        ));
        values.extend(traced.layers.iter().cloned());
        children.push(untraced);
        children.push(traced);
        if w == "sessions" {
            let counted = spawn_child(&exes.telemetry, &args, deadline);
            values.extend(counted.layers.iter().cloned());
            children.push(counted);
        }
    }
    let args = ["probes", "--seed", &seed.to_string()].map(str::to_owned);
    let probes = spawn_child(&exes.plain, &args, CHILD_GRACE);
    values.extend(probes.layers.iter().cloned());
    children.push(probes);

    let get = |name: &str| {
        values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let derived = [
        (
            "session.amr_speedup",
            get("session.streaming_proj_us") / get("session.streaming_amr_us"),
        ),
        (
            "net.tcp_floor_ratio",
            get("net.rtt_tcp_8b_us") / get("floor.tcp_rtt_8b_us"),
        ),
        (
            "net.uds_floor_ratio",
            get("net.rtt_uds_8b_us") / get("floor.uds_rtt_8b_us"),
        ),
    ];
    values.extend(derived.map(|(n, v)| (n.to_owned(), v)));
    let metrics = collect(&PER_LAYER, &values);
    (children, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(text.contains(&format!("{{\"name\": \"{workload}\", \"why\":")));
        }
        let listed = text.matches("{\"name\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }

    #[test]
    fn child_reports_parse() {
        let child = parse_child(
            "setup_s 0.5\nwindow_s 2\nattempted 4\nfailed 1\ncpu_ticks 150\nrss_kib 2048\n\
             latencies_ns 10,20,30\nlayer kmc.configurations 7\nerror op 2: bad echo\n",
        );
        assert_eq!((child.setup_s, child.window_s), (0.5, 2.0));
        assert_eq!((child.attempted, child.failed), (4, 1));
        assert_eq!((child.cpu_ticks, child.rss_kib), (150, 2048));
        assert_eq!(child.latencies_ns, [10, 20, 30]);
        assert_eq!(child.ops_per_s(), 1.5);
        assert_eq!(child.layers, [("kmc.configurations".to_owned(), 7.0)]);
        assert_eq!(child.errors, ["op 2: bad echo"]);
        assert_eq!(parse_child("surprise\n").errors.len(), 1);
    }

    fn child_with(latencies_ns: impl IntoIterator<Item = u64>) -> Child {
        Child {
            latencies_ns: latencies_ns.into_iter().collect(),
            ..Child::default()
        }
    }

    #[test]
    fn tail_is_the_median_child_p99_when_every_child_has_1000_ops() {
        // Child i's p99 is (990 + i) µs; the slow child's is far out.
        let mut children: Vec<Child> = (0..4)
            .map(|i| child_with((1..=1000).map(move |v| (v + i) * 1000)))
            .collect();
        children.push(child_with((1..=1000).map(|v| v * 1_000_000)));
        let refs: Vec<&Child> = children.iter().collect();
        let (label, tail) = op_tail_us(&refs).unwrap();
        assert_eq!(tail, 992.0);
        assert!(label.starts_with("p99 of each child"));
    }

    #[test]
    fn tail_pools_children_with_fewer_ops() {
        let children: Vec<Child> = (0..10)
            .map(|i| child_with((1..=30).map(move |v| (v * 10 + i) * 1000)))
            .collect();
        let refs: Vec<&Child> = children.iter().collect();
        let (label, tail) = op_tail_us(&refs).unwrap();
        assert_eq!(label, "p90 over 300 pooled ops");
        // Nearest rank 270 of 300: value 27 of child 9.
        assert_eq!(tail, 279.0);
        let few = [child_with((1..=99).map(|v| v * 1000))];
        assert!(op_tail_us(&[&few[0]]).is_err());
    }

    #[test]
    fn children_the_host_stole_from_are_set_aside_while_half_remain() {
        let with_steal = |share| Child {
            steal_share: share,
            ..Child::default()
        };
        let mixed: Vec<Child> = [0.0, 0.02, 0.005, 0.3].map(with_steal).into();
        let counted = counted_children(&mixed);
        assert_eq!(counted.len(), 2);
        assert!(counted.iter().all(|c| c.steal_share <= MAX_STEAL_SHARE));
        let stormy: Vec<Child> = [0.02, 0.05, 0.0].map(with_steal).into();
        assert_eq!(counted_children(&stormy).len(), 3);
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let list = [("a", "s"), ("b", "us")];
        let values = [("b".to_owned(), 2.0), ("a".to_owned(), 1.0)];
        assert_eq!(
            collect(&list, &values).unwrap(),
            [("a".to_owned(), "s", 1.0), ("b".to_owned(), "us", 2.0)]
        );
        assert!(collect(&list, &values[..1]).is_err());
        assert!(collect(&list, &[("a".into(), 1.0), ("b".into(), f64::NAN)]).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
