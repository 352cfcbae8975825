//! Host-speed calibration.
//!
//! On a shared virtual machine the same single-threaded loop can run 30%
//! faster or slower from one half-minute to the next, as other guests
//! load the host's cores and memory. A fixed reference kernel, which no
//! change to the library can affect, is timed throughout a run; its
//! median against [`REFERENCE_NS`] is the run's host-speed factor, and
//! the end-to-end times are reported divided by it (raw times are
//! printed beside them).

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The reference host's kernel time: about the median on an Intel Xeon
/// (AVX-512, 2 vCPUs) guest in a quiet period. It only sets the unit:
/// every normalized figure is "as on a host where the kernel takes 1 ms".
pub const REFERENCE_NS: f64 = 1_000_000.0;
/// Least wall time between two kernel samples.
const TICK_EVERY: Duration = Duration::from_millis(200);
const LEN: usize = 16_384;

struct State {
    a: Vec<u32>,
    b: Vec<u32>,
    last: Option<Instant>,
    samples: Vec<f64>,
}

static STATE: Mutex<Option<State>> = Mutex::new(None);

fn sorted_list(seed: u64) -> Vec<u32> {
    let mut rng = fesia_datagen::SplitMix64::new(seed);
    let mut v: Vec<u32> = (0..LEN).map(|_| rng.below(1 << 20) as u32).collect();
    v.sort_unstable();
    v
}

/// The reference kernel: a branchy merge count of two fixed sorted
/// lists (128 KiB together, L2-resident), the shape of work the
/// library's baselines do.
fn kernel(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

fn sample(s: &mut State) {
    let t = Instant::now();
    for _ in 0..4 {
        std::hint::black_box(kernel(
            std::hint::black_box(&s.a),
            std::hint::black_box(&s.b),
        ));
    }
    s.samples.push(t.elapsed().as_nanos() as f64);
    s.last = Some(Instant::now());
}

fn with_state<T>(f: impl FnOnce(&mut State) -> T) -> T {
    let mut guard = STATE.lock().expect("calibration lock");
    f(guard.get_or_insert_with(|| State {
        a: sorted_list(1),
        b: sorted_list(2),
        last: None,
        samples: Vec::new(),
    }))
}

/// Time the kernel if at least [`TICK_EVERY`] passed since the last
/// sample. Cheap to call often: measurement loops call it between
/// operations.
pub fn tick() {
    with_state(|s| {
        if s.last.is_none_or(|t| t.elapsed() >= TICK_EVERY) {
            sample(s);
        }
    });
}

/// The run's host-speed factor so far: median kernel time over
/// [`REFERENCE_NS`] (above 1 means the host ran slower than the
/// reference), with the sample count.
pub fn factor() -> (f64, usize) {
    let guard = STATE.lock().expect("calibration lock");
    match guard.as_ref() {
        Some(s) if !s.samples.is_empty() => (
            crate::stats::median(&s.samples) / REFERENCE_NS,
            s.samples.len(),
        ),
        _ => (1.0, 0),
    }
}
