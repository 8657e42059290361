//! `sessions`: the paper's Fig 6 protocols run in process, in seeded
//! order. The op stays in `executor` and its SPSC rings: streaming is
//! alternating (at most one message in flight), double buffering and
//! FFT8 are pipelined (pooled payloads, an 8-role fan-out).

use bench::protocols::{double_buffering, fft8, streaming};
use executor::Runtime;
use rumpsteak::telemetry::scheduler::CountersSnapshot;

use crate::trace::Tracer;
use crate::workload::{ensure, shuffled, Rng, Workload};

/// Values streamed per streaming session.
const STREAM_VALUES: u32 = 1000;
/// Elements per double-buffering buffer.
const BUFFER_ELEMENTS: usize = 4096;
/// Rows transformed per FFT8 session.
const FFT_ROWS: usize = 256;

const STREAMING_PROJ: &str = "session.streaming_proj";
const STREAMING_AMR: &str = "session.streaming_amr";
const DOUBLE_BUFFERING: &str = "session.double_buffering";
const FFT8: &str = "session.fft8";

pub struct Sessions {
    rt: Runtime,
    rng: Rng,
    /// FFT8 checksum of the independent sequential reference.
    fft_reference: f64,
    /// Scheduler counters at the start of the timed window (all zero
    /// unless built with the `telemetry` feature).
    counters_at_start: CountersSnapshot,
}

impl Sessions {
    pub fn setup(seed: u64, threads: usize) -> Result<Self, String> {
        Ok(Self {
            rt: Runtime::new(threads),
            rng: Rng::new(seed),
            fft_reference: fft8::checksum(&fft8::run_sequential(FFT_ROWS)),
            counters_at_start: Default::default(),
        })
    }
}

/// [`fft8::checksum`] (the sum of the values' norms) without its
/// `hypot`, which costs enough per value to show in the op's self time;
/// the two agree far inside the 1e-9 tolerance.
fn checksum(columns: &[Vec<fft::Complex>]) -> f64 {
    columns
        .iter()
        .flatten()
        .map(|z| (z.re * z.re + z.im * z.im).sqrt())
        .sum()
}

impl Workload for Sessions {
    fn op(&mut self, t: &mut Tracer, _op: u64) -> Result<(), String> {
        let rt = &self.rt;
        for session in shuffled(&mut self.rng, 4) {
            match session {
                0 | 1 => {
                    let (name, optimised) = if session == 0 {
                        (STREAMING_PROJ, false)
                    } else {
                        (STREAMING_AMR, true)
                    };
                    let sum = t.span(name, |_| {
                        streaming::run_rumpsteak(rt, STREAM_VALUES, optimised)
                    });
                    let expected = streaming::expected(STREAM_VALUES);
                    ensure(sum == expected, || {
                        format!("{name}: sum {sum}, expected {expected}")
                    })?;
                }
                2 => {
                    let digest = t.span(DOUBLE_BUFFERING, |_| {
                        double_buffering::run_rumpsteak(rt, BUFFER_ELEMENTS, true)
                    });
                    let expected = double_buffering::expected(BUFFER_ELEMENTS);
                    ensure(digest == expected, || {
                        format!("{DOUBLE_BUFFERING}: digest {digest}, expected {expected}")
                    })?;
                }
                _ => {
                    let columns = t.span(FFT8, |_| fft8::run_rumpsteak(rt, FFT_ROWS));
                    let sum = checksum(&columns);
                    let reference = self.fft_reference;
                    ensure((sum - reference).abs() <= 1e-9 * reference.abs(), || {
                        format!("{FFT8}: checksum {sum}, sequential reference {reference}")
                    })?;
                }
            }
        }
        Ok(())
    }

    fn start_window(&mut self) {
        self.counters_at_start = self.rt.telemetry().total();
    }

    fn layer_metrics(&mut self, ops: u64) -> Vec<(String, f64)> {
        if !rumpsteak::telemetry::ENABLED {
            return Vec::new();
        }
        let now = self.rt.telemetry().total();
        let start = self.counters_at_start;
        let per_op = |later: u64, earlier: u64| (later - earlier) as f64 / ops.max(1) as f64;
        vec![
            (
                "executor.polls_per_op".into(),
                per_op(now.polls, start.polls),
            ),
            (
                "executor.parks_per_op".into(),
                per_op(now.parks, start.parks),
            ),
            (
                "executor.steals_per_op".into(),
                per_op(now.sibling_steals, start.sibling_steals),
            ),
        ]
    }
}
