//! CPU-time clocks and the reference work the timings are scaled by.
//!
//! The benchmark host is a virtual machine on shared hardware. Wall-clock
//! time there includes time the hypervisor gives to other guests
//! ("steal"); CPU time excludes it. CPU time still moves with the other
//! guests' load, because they share the cores and caches: over 45
//! minutes the CPU time of one `build` pass drifted by 23% and of one
//! `serve_eval` request by 14%. A fixed piece of reference work, timed
//! just before each measurement, slows down with it, and the timings are
//! divided by it.
//!
//! The reference work is single-threaded computation only. Work that
//! hands messages between threads was tried too and rejected: its CPU
//! cost jumped by 60% between two host states while no workload's did.

use std::sync::{Mutex, OnceLock};

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU milliseconds the reference work takes on the host the scaled
/// timings are quoted for (typical of the two-vCPU benchmark host).
pub const REFERENCE_MS: f64 = 20.0;
/// Iterations of the integer loop.
const LOOP_STEPS: u64 = 5_000_000;
/// Values sorted (twice), a quarter of a megabyte: cache-resident,
/// branchy work.
const SORT_VALUES: usize = 1 << 16;
/// Dependent loads through a random cycle over four megabytes, which
/// leaves the private caches: memory latency.
const CHASE_SLOTS: usize = 1 << 20;
const CHASE_STEPS: usize = 100_000;

fn cpu_clock_s(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and `clock` is one of
    // the kernel's constants for the calling process's or thread's
    // CPU-time clock.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks are always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used so far, every thread included.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// A fixed pseudo-random sequence (xorshift64).
fn xorshift(seed: u64) -> impl Iterator<Item = u64> {
    std::iter::successors(Some(seed), |&x| {
        let x = x ^ (x << 13);
        let x = x ^ (x >> 7);
        Some(x ^ (x << 17))
    })
    .skip(1)
}

/// The reference work's buffers, made once per process and never freed:
/// freeing a block this large would raise the allocator's threshold for
/// serving allocations from fresh pages, and so change how the workloads
/// allocate.
struct Inputs {
    unsorted: Vec<u32>,
    /// Where each sort works.
    scratch: Mutex<Vec<u32>>,
    /// `next[i]` is the slot after `i` on one random cycle through every
    /// slot.
    next: Vec<u32>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let mut unsorted = Vec::with_capacity(SORT_VALUES);
        unsorted.extend(
            xorshift(0x9e37_79b9_7f4a_7c15)
                .take(SORT_VALUES)
                .map(|x| x as u32),
        );
        // Sattolo's shuffle: a uniformly random single cycle.
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for (i, r) in (1..CHASE_SLOTS).rev().zip(xorshift(12_345)) {
            next.swap(i, (r % i as u64) as usize);
        }
        Inputs {
            scratch: Mutex::new(unsorted.clone()),
            unsorted,
            next,
        }
    })
}

/// CPU milliseconds of the reference work on this thread: an integer
/// loop (the speed of the core), two sorts (cache-resident, branchy) and
/// a pointer chase (memory latency). The workloads are made of all
/// three. Only this thread is clocked, so nothing else the process runs
/// meanwhile (an idle server, say) counts.
pub fn reference_ms() -> f64 {
    let inputs = inputs();
    let t0 = cpu_clock_s(CLOCK_THREAD_CPUTIME_ID);
    let mut acc = 0u64;
    for i in 0..std::hint::black_box(LOOP_STEPS) {
        acc = acc.wrapping_add(i.wrapping_mul(i) % 7);
    }
    {
        let mut values = inputs.scratch.lock().expect("no sort panics");
        for _ in 0..2 {
            values.copy_from_slice(&inputs.unsorted);
            values.sort_unstable();
            acc = acc.wrapping_add(u64::from(values[SORT_VALUES / 2]));
        }
    }
    let mut slot = 0u32;
    for _ in 0..CHASE_STEPS {
        slot = inputs.next[slot as usize];
    }
    std::hint::black_box(acc.wrapping_add(u64::from(slot)));
    (cpu_clock_s(CLOCK_THREAD_CPUTIME_ID) - t0) * 1e3
}

/// `cpu_s` scaled to the reference host: multiplied by how much faster
/// the reference work ran there than it did in `reference_ms`.
pub fn scaled(cpu_s: f64, reference_ms: f64) -> f64 {
    cpu_s * REFERENCE_MS / reference_ms
}
