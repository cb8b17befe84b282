//! The contention probe. The benchmark shares its host's cores, caches
//! and memory with other tenants, and a busy neighbour slows the
//! simulator by up to 3x, switching between slow and fast spells every
//! few seconds to minutes. So the benchmark times a fixed piece of work
//! between reps and scales each timing by how much slower than quiet
//! that work ran around it.
//!
//! The simulator's code is branchy and pointer-chasing, and what slows
//! it is what slows code of that kind, far more than it slows a memory
//! latency loop or plain arithmetic (README.md gives the measurements).
//! So the probe is two standard-library kernels of that kind: an ordered
//! map under random inserts and removes, and unstable sorts of random
//! keys. A reading is the geometric mean of their slowdowns.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Keys the map draws from; it settles near half of them, a few MB.
const MAP_KEYS: u64 = 100_000;
/// Unit tests, built without optimization, take a token reading.
const MAP_OPS: usize = if cfg!(test) { 1_500 } else { 150_000 };
/// Keys per sort, 1.6 MB: within a core's L2.
const SORT_LEN: usize = if cfg!(test) { 2_000 } else { 200_000 };
const SORTS: usize = 2;
/// Each kernel's time at the 5th percentile of 400 readings on a
/// 2-vCPU Xeon (Sapphire Rapids, model 143) shared with other tenants.
/// Scaled timings are host seconds at that speed.
pub const QUIET_MAP_S: f64 = 0.0325;
pub const QUIET_SORT_S: f64 = 0.0085;

pub struct Probe {
    keys: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 3;
        Probe { keys: (0..SORT_LEN).map(|_| xorshift(&mut x)).collect() }
    }

    /// How many times slower than quiet the probe runs now.
    pub fn slowdown(&self) -> f64 {
        let map = time(|| self.map()) / QUIET_MAP_S;
        let sort = time(|| self.sort()) / QUIET_SORT_S;
        (map * sort).sqrt()
    }

    fn map(&self) -> usize {
        let mut map = BTreeMap::new();
        let mut x = 7;
        for _ in 0..MAP_OPS {
            let key = xorshift(&mut x) % MAP_KEYS;
            if map.remove(&key).is_none() {
                map.insert(key, x);
            }
        }
        map.len()
    }

    fn sort(&self) {
        for _ in 0..SORTS {
            let mut keys = self.keys.clone();
            keys.sort_unstable();
            black_box(&keys);
        }
    }
}

/// Seconds `f` takes, its result kept alive so the work is not elided.
fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64()
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}
