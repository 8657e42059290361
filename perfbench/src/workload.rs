//! What every workload provides, and the seeded generator that drives
//! its inputs.

use crate::trace::Tracer;

/// One closed-loop workload: set up once, then run the same fixed
/// bundle of work per op, checking its output every time.
pub trait Workload {
    /// Runs op number `op`, recording its layer spans in `tracer`.
    /// `Err` carries the failed check.
    fn op(&mut self, tracer: &mut Tracer, op: u64) -> Result<(), String>;

    /// Called once the warm-up is done, right before the timed window.
    fn start_window(&mut self) {}

    /// Per-layer figures this workload measures after the timed window
    /// of a traced run, given the number of timed ops.
    fn layer_metrics(&mut self, _ops: u64) -> Vec<(String, f64)> {
        Vec::new()
    }

    /// Releases the workload's links, tasks and threads.
    fn teardown(self: Box<Self>) {}
}

/// SplitMix64: a tiny seeded generator, so equal seeds give equal
/// inputs on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// A shuffled `0..n`.
pub fn shuffled(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

/// Turns a check into the op's result.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_inputs() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.bytes(64), b.bytes(64));
        assert_eq!(shuffled(&mut a, 9), shuffled(&mut b, 9));
        assert_ne!(Rng::new(7).bytes(64), Rng::new(8).bytes(64));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut order = shuffled(&mut Rng::new(3), 50);
        order.sort_unstable();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }
}
