//! `toolchain`: one op is a full pass through the compile-time plane.
//!
//! 1. Every protocol of the codegen corpus is compiled as its
//!    `// rumpsteak-gen:` directive says — parse, project, optionally
//!    optimise, emit — and the output compared to its committed golden.
//! 2. The Fig 7 subtyping set is checked with `is_subtype`, every verdict
//!    against its known answer (two of them are rejections).

use std::path::Path;
use std::time::Instant;

use bench::verification::{k_buffering, nested_choice, ring, streaming, to_fsm};
use codegen::Analysis;
use theory::scribble::{self, Bindings};
use theory::{fsm, projection, Fsm, LocalType, Name};

use crate::stats;
use crate::trace::Tracer;
use crate::workload::{ensure, shuffled, Rng, Workload};

/// The corpus, relative to the repository root.
const CORPUS: &str = "crates/codegen/tests/protocols";
/// The goldens, relative to the repository root.
const GOLDENS: &str = "crates/codegen/tests/goldens";

/// Nesting depth of the nested-choice pair.
const NESTED_LEVELS: usize = 4;
/// Unrolled values of the streaming pair.
const STREAMING_UNROLLS: usize = 100;
/// Participants of the ring.
const RING_ROLES: usize = 30;
/// Anticipated readys of the k-buffering pair.
const K_BUFFERS: usize = 100;

/// Generation flags of one protocol, from its `// rumpsteak-gen:` line.
#[derive(Default)]
struct Directive {
    bindings: Bindings,
    skeleton: bool,
    distributed: bool,
    optimise: bool,
    bound: Option<usize>,
}

fn directive(source: &str) -> Result<Directive, String> {
    let mut directive = Directive::default();
    let Some(line) = source
        .lines()
        .find_map(|l| l.strip_prefix("// rumpsteak-gen:"))
    else {
        return Ok(directive);
    };
    let mut words = line.split_whitespace();
    while let Some(word) = words.next() {
        match word {
            "--skeleton" => directive.skeleton = true,
            "--distributed" => directive.distributed = true,
            "--optimise" => directive.optimise = true,
            "--bound" => {
                let value = words.next().and_then(|v| v.parse().ok());
                directive.bound = Some(value.ok_or("--bound needs an integer")?);
            }
            "--param" => {
                let (name, value) = words
                    .next()
                    .and_then(|v| v.split_once('='))
                    .and_then(|(n, v)| Some((n, v.parse::<i64>().ok()?)))
                    .ok_or("--param needs NAME=INTEGER")?;
                directive.bindings.insert(Name::from(name), value);
            }
            other => return Err(format!("unsupported directive flag `{other}`")),
        }
    }
    Ok(directive)
}

/// One protocol of the corpus with its golden output.
struct Job {
    name: String,
    source: String,
    golden: String,
    directive: Directive,
    config: optimiser::Config,
}

/// One Fig 7 subtyping question with its known answer.
struct Pair {
    name: String,
    sub: Fsm,
    sup: Fsm,
    bound: usize,
    expected: bool,
}

/// What the last op compiled, kept for the traced run's counts and
/// probes.
#[derive(Default)]
struct Pass {
    analyses: Vec<Analysis>,
    generated: usize,
    verified: usize,
    emitted_bytes: usize,
}

pub struct Toolchain {
    jobs: Vec<Job>,
    pairs: Vec<Pair>,
    rng: Rng,
    last: Pass,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Loads the corpus with its goldens, sorted by name.
fn load_jobs(root: &Path) -> Result<Vec<Job>, String> {
    let corpus = root.join(CORPUS);
    let entries = std::fs::read_dir(&corpus).map_err(|e| format!("{}: {e}", corpus.display()))?;
    let mut jobs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("scr") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or("protocol name is not UTF-8")?
            .to_owned();
        let source = read(&path)?;
        let golden = read(&root.join(GOLDENS).join(format!("{name}.rs")))?;
        let directive = directive(&source).map_err(|e| format!("{name}: {e}"))?;
        // The CLI's `--optimise` ranks with the default cost table when
        // no measured profile is given, and the goldens pin that.
        let config = optimiser::Config::with_depth(directive.bound.unwrap_or(1))
            .with_cost(optimiser::CostModel::default_table());
        jobs.push(Job {
            name,
            source,
            golden,
            directive,
            config,
        });
    }
    ensure(!jobs.is_empty(), || {
        format!("no protocols in {}", corpus.display())
    })?;
    jobs.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(jobs)
}

/// The Fig 7 set. Binary pairs are cross-checked against SoundBinary
/// here, so a verdict that disagrees with the independent checker
/// fails the set-up.
fn fig7_pairs() -> Result<Vec<Pair>, String> {
    // (name, role, sub, sup, bound, expected, binary)
    let mut specs: Vec<(String, &str, LocalType, LocalType, usize, bool, bool)> = vec![
        (
            format!("nested_choice_{NESTED_LEVELS}"),
            "a",
            nested_choice::subtype(NESTED_LEVELS),
            nested_choice::supertype(NESTED_LEVELS),
            NESTED_LEVELS + 2,
            true,
            true,
        ),
        (
            format!("streaming_{STREAMING_UNROLLS}"),
            "s",
            streaming::optimised(STREAMING_UNROLLS),
            streaming::projected(),
            STREAMING_UNROLLS + 4,
            true,
            true,
        ),
        (
            format!("k_buffering_{K_BUFFERS}"),
            "k",
            k_buffering::optimised(K_BUFFERS),
            k_buffering::projected(),
            K_BUFFERS + 4,
            true,
            false,
        ),
        // Rejected: the source delays a send the projection makes first.
        (
            "streaming_delayed_send".into(),
            "s",
            streaming::projected(),
            streaming::optimised(1),
            5,
            false,
            true,
        ),
        // Rejected: p0 receiving before it sends deadlocks the ring.
        (
            "ring_receive_first".into(),
            "p0",
            theory::local::parse("rec x . p2?v . p1!v . x").map_err(|e| e.to_string())?,
            ring::projected(0, 3),
            4,
            false,
            false,
        ),
    ];
    let ring_roles: Vec<String> = (0..RING_ROLES).map(|i| format!("p{i}")).collect();
    for (i, role) in ring_roles.iter().enumerate() {
        specs.push((
            format!("ring_{RING_ROLES}_{role}"),
            role,
            ring::optimised(i, RING_ROLES),
            ring::projected(i, RING_ROLES),
            4,
            true,
            false,
        ));
    }
    specs
        .into_iter()
        .map(|(name, role, sub, sup, bound, expected, binary)| {
            if binary {
                let verdict = soundbinary::is_subtype(&sub, &sup, soundbinary::Limits::default())
                    .map_err(|e| format!("{name}: SoundBinary: {e:?}"))?;
                ensure(verdict == expected, || {
                    format!("{name}: SoundBinary says {verdict}, known answer {expected}")
                })?;
            }
            Ok(Pair {
                sub: to_fsm(role, &sub),
                sup: to_fsm(role, &sup),
                name,
                bound,
                expected,
            })
        })
        .collect()
}

impl Toolchain {
    pub fn setup(seed: u64, root: &Path) -> Result<Self, String> {
        let jobs = load_jobs(root)?;
        let pairs = fig7_pairs()?;
        ensure(pairs.iter().any(|p| !p.expected), || {
            "the subtyping set needs a rejected pair".into()
        })?;
        Ok(Self {
            jobs,
            pairs,
            rng: Rng::new(seed),
            last: Pass::default(),
        })
    }
}

/// Compiles one protocol as its directive says, returning the analysis
/// that was emitted, the optimiser's reports and the emitted text. It
/// runs the steps of `codegen::analyse_with` one by one, so that parse
/// and projection get spans of their own.
fn compile(
    job: &Job,
    t: &mut Tracer,
) -> Result<(Analysis, Vec<optimiser::Report>, String), String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", job.name);
    let protocol = t
        .span("theory.parse", |_| {
            scribble::parse_template(&job.source)?.instantiate(&job.directive.bindings)
        })
        .map_err(|e| fail(&e))?;
    let (locals, fsms) = t.span("theory.project", |_| {
        let mut locals = Vec::with_capacity(protocol.roles.len());
        let mut fsms = Vec::with_capacity(protocol.roles.len());
        for role in &protocol.roles {
            let local = projection::project(&protocol.body, role).map_err(|e| fail(&e))?;
            fsms.push(fsm::from_local(role, &local).map_err(|e| fail(&e))?);
            locals.push((role.clone(), local));
        }
        Ok::<_, String>((locals, fsms))
    })?;
    let mut analysis = Analysis {
        protocol,
        locals,
        fsms,
    };
    let reports = if job.directive.optimise {
        t.span("optimiser.optimise", |_| {
            codegen::optimise(&mut analysis, &job.config)
        })
        .map_err(|e| fail(&e))?
    } else {
        Vec::new()
    };
    let directive = &job.directive;
    let output = t
        .span("codegen.emit", |_| {
            if directive.distributed {
                codegen::rust_distributed_program(&analysis)
            } else if directive.skeleton {
                codegen::rust_program(&analysis)
            } else {
                codegen::rust_module(&analysis)
            }
        })
        .map_err(|e| fail(&e))?;
    Ok((analysis, reports, output))
}

/// Median microseconds of `runs` calls of `f`.
fn time_us(runs: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

impl Workload for Toolchain {
    fn op(&mut self, t: &mut Tracer, _op: u64) -> Result<(), String> {
        let mut pass = Pass::default();
        for j in shuffled(&mut self.rng, self.jobs.len()) {
            let job = &self.jobs[j];
            let (analysis, reports, output) = compile(job, t)?;
            ensure(output == job.golden, || {
                format!("{}: output differs from its golden", job.name)
            })?;
            pass.generated += reports.iter().map(|r| r.generated).sum::<usize>();
            pass.verified += reports.iter().map(|r| r.verified).sum::<usize>();
            pass.emitted_bytes += output.len();
            pass.analyses.push(analysis);
        }
        for p in shuffled(&mut self.rng, self.pairs.len()) {
            let pair = &self.pairs[p];
            let verdict = t.span("subtyping.check", |_| {
                subtyping::is_subtype(&pair.sub, &pair.sup, pair.bound)
            });
            ensure(verdict == pair.expected, || {
                format!(
                    "{}: verdict {verdict}, known answer {}",
                    pair.name, pair.expected
                )
            })?;
        }
        self.last = pass;
        Ok(())
    }

    fn layer_metrics(&mut self, _ops: u64) -> Vec<(String, f64)> {
        let pass = &self.last;
        let bounds_us = time_us(5, || {
            for analysis in &pass.analyses {
                std::hint::black_box(codegen::verified_channel_bounds(analysis));
            }
        });
        let configurations: usize = pass.analyses.iter().map(settled_configurations).sum();
        let visited_pairs: usize = self
            .pairs
            .iter()
            .map(|p| subtyping::check_with_stats(&p.sub, &p.sup, p.bound).visited_pairs)
            .sum();
        let (sub, sup) = (
            nested_choice::subtype(NESTED_LEVELS),
            nested_choice::supertype(NESTED_LEVELS),
        );
        let (sub_fsm, sup_fsm) = (to_fsm("a", &sub), to_fsm("a", &sup));
        let ours_us = time_us(5, || {
            std::hint::black_box(subtyping::is_subtype(&sub_fsm, &sup_fsm, NESTED_LEVELS + 2));
        });
        let soundbinary_us = time_us(5, || {
            let _ = std::hint::black_box(soundbinary::is_subtype(
                &sub,
                &sup,
                soundbinary::Limits::default(),
            ));
        });
        vec![
            ("kmc.bounds_us".into(), bounds_us),
            ("kmc.configurations".into(), configurations as f64),
            ("optimiser.generated".into(), pass.generated as f64),
            ("optimiser.verified".into(), pass.verified as f64),
            (
                "optimiser.verified_ratio".into(),
                pass.verified as f64 / pass.generated.max(1) as f64,
            ),
            ("subtyping.visited_pairs".into(), visited_pairs as f64),
            (
                "subtyping.soundbinary_ratio".into(),
                ours_us / soundbinary_us,
            ),
            ("codegen.emitted_bytes".into(), pass.emitted_bytes as f64),
        ]
    }
}

/// Configurations k-MC explores at the smallest exhaustive bound (the
/// bound `verified_channel_bounds` settles on), 0 if there is none.
fn settled_configurations(analysis: &Analysis) -> usize {
    let Ok(system) = kmc::System::new(analysis.fsms.clone()) else {
        return 0;
    };
    (1..=codegen::MAX_BOUND_SEARCH)
        .find_map(|k| match kmc::check(&system, k) {
            Ok(report) if report.exhaustive => Some(Some(report.configurations)),
            Ok(_) => None,
            Err(_) => Some(None),
        })
        .flatten()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directives_parse_like_the_cli() {
        let d = directive("// rumpsteak-gen: --param n=4 --skeleton --optimise --bound 2\n")
            .expect("valid directive");
        assert_eq!(d.bindings.get(&Name::from("n")), Some(&4));
        assert!(d.skeleton && d.optimise && !d.distributed);
        assert_eq!(d.bound, Some(2));
        assert!(directive("// rumpsteak-gen: --frobnicate\n").is_err());
        assert!(directive("// rumpsteak-gen: --param n\n").is_err());
        let plain = directive("global protocol P(role a, role b) {}").expect("no directive");
        assert!(plain.bindings.is_empty() && !plain.skeleton);
    }
}
