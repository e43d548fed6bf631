//! Fused multi-kernel batch evaluation — the one batch loop.
//!
//! The SoA engine evaluates a kernel breadth-first: one ascending
//! gather sweep computes every state's 256-lane mask row from its
//! predecessors (see [`crate::soa`]). [`eval_fused`] runs *N
//! independent kernels'* sweeps interleaved over a shared trace window
//! — round `s` gathers kernel 0's next level range, then kernel 1's, …
//! — so the load/store streams of unrelated programs overlap instead
//! of draining one kernel's working set before the next warms up, and
//! every kernel's masks stay resident across its whole sweep.
//!
//! This is the execution shape behind the sequential composition story
//! (one trace drives many macros, `charfree-seq`) and the server's
//! cross-connection micro-batching (`charfree-serve`): both hand every
//! macro's packed block for a flush window to one [`eval_fused`] call
//! instead of looping kernels one at a time. It is also the only batch
//! loop: [`Kernel::eval_batch_into`] is a one-job call, and the
//! [`TraceEngine`](crate::TraceEngine) workers run one-job calls on
//! 256-lane sub-blocks, holding their gather and walk scratch across
//! them.
//!
//! Only kernels whose batch evaluator is the gather take part in the
//! rounds. Kernels that run the stride walk (large ones, see
//! [`Kernel::eval_batch_into`]) and constant kernels are evaluated
//! before the rounds and hold no mask or selector scratch.
//!
//! Fusion changes scheduling only — every lane still flows through its
//! own kernel's evaluator into the same terminal slot — so results are
//! f64 bit-identical to per-kernel [`Kernel::eval_batch_into`] calls
//! (the kernel-equivalence suites enforce it).

use crate::block::PatternBlock;
use crate::kernel::{Batch, Kernel};
use crate::soa::{MaskRow, SoaProgram, CHUNK_GROUPS, GROUP_LANES, ZERO_ROW};

/// One kernel's share of a fused evaluation: its packed block and the
/// output slice to fill (`out.len()` must equal `block.len()`).
#[derive(Debug)]
pub struct FusedJob<'a> {
    /// The compiled kernel to evaluate.
    pub kernel: &'a Kernel,
    /// The kernel's packed transition lanes for this window.
    pub block: &'a PatternBlock,
    /// Per-transition output values, `block.len()` long.
    pub out: &'a mut [f64],
}

impl<'a> FusedJob<'a> {
    /// The gather program of a job whose kernel gathers.
    fn soa(&self) -> &'a SoaProgram {
        match &self.kernel.batch {
            Batch::Gather(soa) => soa,
            _ => unreachable!("only gathering kernels take part in the rounds"),
        }
    }
}

/// A gathering job's scratch and next gather round. Rounds
/// `0 .. num_levels` gather that level's state range; the final round
/// gathers the terminal rows.
struct Gather {
    /// The job's index in the current call's job list.
    job: usize,
    /// One mask row per state (zeroed once — unwritten rows must stay
    /// zero) and one per-chunk selector table.
    masks: Vec<MaskRow>,
    sels: Vec<MaskRow>,
    round: usize,
}

/// Evaluates every job's block in one fused pass: per chunk of four
/// 64-lane groups, all gathering jobs with lanes there advance together,
/// one level-range gather per kernel per round (see module docs).
/// Constant kernels and those that stride-walk are evaluated up front,
/// outside the rounds, and get no gather scratch.
///
/// # Panics
///
/// Panics if any job's `out.len() != block.len()` or its block is
/// narrower than its kernel's variable count.
pub fn eval_fused(jobs: &mut [FusedJob<'_>]) {
    eval_fused_with(jobs, &mut Scratch::default());
}

/// Scratch one [`eval_fused_with`] caller holds across calls.
#[derive(Default)]
pub(crate) struct Scratch {
    /// One per gathering job.
    gathers: Vec<Gather>,
    /// The stride walk's lane words ([`crate::stride::StrideProgram::walk`]).
    lanes: Vec<u64>,
}

/// [`eval_fused`] with caller-held scratch: `scratch` is new or was
/// used by an earlier call whose gathering jobs had the same kernels in
/// the same order. Each kernel's mask rows are zeroed once, when its
/// gather scratch is made, so a worker evaluating one kernel over many
/// small blocks neither allocates nor re-zeroes per block; rows no
/// gather round writes stay zero across calls.
pub(crate) fn eval_fused_with(jobs: &mut [FusedJob<'_>], scratch: &mut Scratch) {
    let Scratch { gathers, lanes } = scratch;
    let mut used = 0usize;
    let mut max_groups = 0usize;
    for (j, job) in jobs.iter_mut().enumerate() {
        assert_eq!(job.out.len(), job.block.len(), "output length mismatch");
        assert!(
            job.block.num_vars() >= job.kernel.num_vars() as usize,
            "pattern block is narrower than the kernel"
        );
        let kernel: &Kernel = job.kernel;
        match &kernel.batch {
            Batch::Constant(value) => job.out.fill(*value),
            Batch::Walk(stride) => stride.walk(job.block, &kernel.terminals, job.out, lanes),
            Batch::Gather(soa) => {
                max_groups = max_groups.max(job.block.len().div_ceil(GROUP_LANES));
                if used == gathers.len() {
                    gathers.push(Gather {
                        job: j,
                        masks: vec![ZERO_ROW; soa.num_states()],
                        sels: vec![ZERO_ROW; soa.num_sels()],
                        round: 0,
                    });
                }
                gathers[used].job = j;
                used += 1;
            }
        }
    }
    let gathers = &mut gathers[..used];
    let mut g0 = 0usize;
    while g0 < max_groups {
        let lo = g0 * GROUP_LANES;
        // Seed each job with lanes in this chunk and build its selector
        // table for the chunk's groups; jobs without lanes sit it out.
        for gather in gathers.iter_mut() {
            let job = &jobs[gather.job];
            let soa = job.soa();
            if lo >= job.out.len() {
                gather.round = soa.num_rounds();
                continue;
            }
            gather.round = 0;
            for g in 0..CHUNK_GROUPS {
                let n = job
                    .out
                    .len()
                    .saturating_sub(lo + g * GROUP_LANES)
                    .min(GROUP_LANES);
                let live = if n == GROUP_LANES {
                    !0u64
                } else {
                    (1u64 << n) - 1
                };
                soa.seed_root(&mut gather.masks, g, live);
            }
            soa.build_sels(job.block, g0, job.out.len(), &mut gather.sels);
        }
        // Lockstep rounds: one level-range gather per kernel per round,
        // so the N kernels' mask streams interleave. Round 0 has no
        // gather targets; the round past the last level gathers the
        // terminal rows.
        loop {
            let mut running = false;
            for gather in gathers.iter_mut() {
                let soa = jobs[gather.job].soa();
                if gather.round >= soa.num_rounds() {
                    continue;
                }
                soa.gather_round(&mut gather.masks, &gather.sels, gather.round);
                gather.round += 1;
                running |= gather.round < soa.num_rounds();
            }
            if !running {
                break;
            }
        }
        // Scatter this chunk's terminal masks into each job's output.
        for gather in gathers.iter() {
            let job = &mut jobs[gather.job];
            if lo >= job.out.len() {
                continue;
            }
            let hi = (lo + CHUNK_GROUPS * GROUP_LANES).min(job.out.len());
            job.soa()
                .scatter(&gather.masks, &job.kernel.terminals, &mut job.out[lo..hi]);
        }
        g0 += CHUNK_GROUPS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ApproxStrategy, ModelBuilder};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    fn block_for(kernel: &Kernel, transitions: usize, seed: u64) -> PatternBlock {
        let mut src = MarkovSource::new(kernel.num_inputs(), 0.5, 0.4, seed).expect("valid stats");
        PatternBlock::from_patterns(kernel, &src.sequence(transitions + 1))
    }

    #[test]
    fn fused_matches_per_kernel_eval_bit_exactly() {
        let library = Library::test_library();
        let kernels: Vec<Kernel> = [
            ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name"))
                .build(),
            ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
                .build(),
            ModelBuilder::new(&benchmarks::by_name("mux", &library).expect("Table 1 name")).build(),
            // A constant kernel rides along in the same fused call.
            ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name"))
                .build()
                .shrink(1, ApproxStrategy::Average),
        ]
        .iter()
        .map(Kernel::compile)
        .collect();
        // Ragged lengths: different group counts per job, one empty.
        let lens = [130usize, 77, 0, 200];
        let blocks: Vec<PatternBlock> = kernels
            .iter()
            .zip(lens)
            .enumerate()
            .map(|(i, (k, len))| block_for(k, len, 0xF00D + i as u64))
            .collect();
        let mut fused_out: Vec<Vec<f64>> = lens.iter().map(|&l| vec![0.0; l]).collect();
        {
            let mut jobs: Vec<FusedJob> = kernels
                .iter()
                .zip(&blocks)
                .zip(fused_out.iter_mut())
                .map(|((kernel, block), out)| FusedJob { kernel, block, out })
                .collect();
            eval_fused(&mut jobs);
        }
        for ((kernel, block), fused) in kernels.iter().zip(&blocks).zip(&fused_out) {
            let solo = kernel.eval_batch(block);
            assert_eq!(solo.len(), fused.len());
            for (a, b) in solo.iter().zip(fused) {
                assert_eq!(a.to_bits(), b.to_bits(), "kernel {}", kernel.name());
            }
        }
    }

    #[test]
    fn empty_job_list_is_a_no_op() {
        let mut jobs: Vec<FusedJob> = Vec::new();
        eval_fused(&mut jobs);
    }
}
