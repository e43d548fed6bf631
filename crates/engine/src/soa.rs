//! Level-packed structure-of-arrays kernel programs.
//!
//! A per-lane walk loads an instruction and reads a pattern word *per
//! lane per step* — a serial dependent-load chain per lane. The
//! [`SoaProgram`] here restructures the diagram around the hardware
//! instead:
//!
//! * **Level packing** — internal nodes are renumbered contiguously by
//!   *pair level* `p = var / 2` (the interleaved `(xⁱ, xᶠ)` pair of one
//!   macro input), so each level is one contiguous index range
//!   ([`SoaStep`]), and terminals are appended after every internal
//!   node at `term_base..`.
//! * **Mask data flow instead of walking** — evaluation runs
//!   breadth-first: each state holds a [`MaskRow`] (one 64-bit *lane
//!   mask* per pattern group: which of that group's 64 transitions
//!   reach this state). A chunk pass first combines each level's two
//!   pattern words into a dense table of *selector rows* (one per
//!   `(level, quadbits)` pair some edge actually references: the lanes
//!   whose two bits at that level match any quadrant in `quadbits`),
//!   then computes every state's row in one ascending sweep as the OR
//!   of `pred_row & selector` over its in-edges
//!   ([`SoaProgram::gather_round`]).
//! * **Gather, not scatter** — the in-edges are a compile-time
//!   schedule ([`SoaProgram::edges`]) grouped by target state, with
//!   quadrants deduplicated (a node that skips its pair's even
//!   variable feeds its two children through *two* merged edges, not
//!   four) and each level's targets bucketed by in-degree so the hot
//!   loops carry no data-dependent branch. Each state row is written
//!   exactly once per pass — there are no read-modify-write chains on
//!   shared successors to serialize against, no per-lane branches, and
//!   no terminal tests: terminal rows gather exactly like internal
//!   ones, and the final masks *are* the terminal handling.
//!   [`CHUNK_GROUPS`] groups (256 lanes) advance per pass, so every
//!   row op is a fixed-shape `[u64; 4]` chunk the autovectorizer (or
//!   the AVX2 path) turns into full-width vector ops.
//!
//! This module holds one pass's steps — seed the root
//! ([`SoaProgram::seed_root`]), build the selector table
//! ([`SoaProgram::build_sels`]), gather round by round, scatter the
//! terminal rows ([`SoaProgram::scatter`]). The chunk loop that runs
//! them, and owns the mask and selector scratch, is
//! [`eval_fused`](crate::eval_fused), the crate's one batch loop.
//!
//! Total work per 256 lanes is `O(edges)` — independent of path
//! lengths, but proportional to the *whole* diagram. That beats the
//! per-lane walk (about `depth` steps per lane) only while the kernel
//! is small next to its depth; large kernels touch every edge for
//! every 256 lanes and run several times slower than the walk. So a
//! kernel builds this program only when its batches gather (see
//! `Kernel::derive_batch`). Because every pred's selectors partition
//! its mask, each lane ends in exactly one terminal row: results are
//! f64 bit-identical to the scalar walk by construction, and the
//! kernel-equivalence suites enforce it.

use crate::block::PatternBlock;
use crate::kernel::{Instr, TERMINAL_BIT};

/// Lanes per pattern group — one bit per `u64` pattern word.
pub(crate) const GROUP_LANES: usize = 64;

/// Pattern groups advanced per propagation pass (4 × 64 = 256 lanes):
/// every per-state mask op becomes a fixed `[u64; 4]` chunk. Blocks
/// shorter than a full chunk leave the trailing groups inert (zero
/// live masks), so there is no scalar tail path.
pub(crate) const CHUNK_GROUPS: usize = 4;

/// One mask word per chunk-local group — the unit every state row and
/// selector row is made of.
pub(crate) type MaskRow = [u64; CHUNK_GROUPS];

/// The all-zero row.
pub(crate) const ZERO_ROW: MaskRow = [0u64; CHUNK_GROUPS];

/// One pair level: its contiguous state range `[start, end)` and the
/// two diagram variables (pattern words) it tests.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SoaStep {
    pub(crate) v1: u32,
    pub(crate) v2: u32,
    pub(crate) start: u32,
    pub(crate) end: u32,
}

/// One gather round's slice of the degree-bucketed schedule: cursor
/// starts into [`SoaProgram::targets`] / [`SoaProgram::edges`] /
/// [`SoaProgram::gen_counts`], and how many targets sit in each degree
/// bucket (`n1` single-edge, `n2` two-edge, `ng` generic).
#[derive(Debug, Clone, Copy, Default)]
struct GatherRound {
    t0: u32,
    e0: u32,
    c0: u32,
    n1: u32,
    n2: u32,
    ng: u32,
}

/// A level-packed SoA evaluation program (see module docs). Derived
/// from the portable instruction vec at compile/load time — never
/// persisted.
#[derive(Debug, Clone)]
pub(crate) struct SoaProgram {
    /// First terminal state index (== number of internal nodes).
    pub(crate) term_base: u32,
    /// Renumbered root state (a terminal index for constant kernels).
    pub(crate) root: u32,
    /// One step per non-empty pair level, ascending.
    pub(crate) steps: Vec<SoaStep>,
    /// Gather schedule: one round per pair level (round `r` computes
    /// step `r`'s states; round 0 is always empty — level-0 states have
    /// no in-edges) plus a final terminal round. Within a round,
    /// targets are bucketed by in-degree (1, 2, generic) so the hot
    /// loops are fixed-shape — no data-dependent inner-loop branch to
    /// mispredict on mixed degrees.
    rounds: Vec<GatherRound>,
    /// Target mask-row *byte* offsets in schedule order (pre-scaled by
    /// the row size so the hot loop does no shifts).
    targets: Vec<u32>,
    /// In-edges in schedule order, each packed as
    /// `(sel_byte << 32) | pred_byte` — *byte* offsets of the selector
    /// row (in the dense per-chunk table, see [`SoaProgram::sel_plan`])
    /// and the pred state's mask row, pre-scaled like `targets`.
    edges: Vec<u64>,
    /// Per generic-bucket target (in-degree ≥ 3): its in-edge count.
    gen_counts: Vec<u32>,
    /// One entry per dense selector slot, packed `(level << 4) |
    /// quadbits` — only `(level, quadbits)` pairs some edge references
    /// get a slot, ascending by level.
    sel_plan: Vec<u32>,
    /// Total states (internal nodes + terminal rows).
    num_states: usize,
}

impl SoaProgram {
    /// Builds the SoA program from a validated instruction vec
    /// (children strictly before parents, vars in range).
    pub(crate) fn build(
        instrs: &[Instr],
        num_terminals: usize,
        root: u32,
        num_vars: u32,
    ) -> SoaProgram {
        let n = instrs.len();
        let num_states = n + num_terminals;
        // Byte offsets of mask rows must fit the edge words' 32-bit
        // halves (a kernel this size would be ~4 GiB of masks anyway).
        assert!(
            num_states < (1 << 27),
            "kernel too large for the SoA engine"
        );
        let term_base = n as u32;
        // Renumber nodes contiguous by pair level (stable within one).
        let mut order: Vec<u32> = (0..term_base).collect();
        order.sort_by_key(|&i| instrs[i as usize].var >> 1);
        let mut new_of = vec![0u32; n];
        for (new, &old) in order.iter().enumerate() {
            new_of[old as usize] = new as u32;
        }
        let enc = |r: u32| -> u32 {
            if r & TERMINAL_BIT != 0 {
                term_base + (r & !TERMINAL_BIT)
            } else {
                new_of[r as usize]
            }
        };
        // Child reference `c` advanced through variable `v` with bit
        // `b` iff `c` actually tests `v` (old reference space).
        let hop = |c: u32, v: u32, b: usize| -> u32 {
            if c & TERMINAL_BIT == 0 {
                let child = &instrs[c as usize];
                if child.var == v {
                    return if b == 1 { child.hi } else { child.lo };
                }
            }
            c
        };
        // One step per contiguous run of equal pair levels, and each
        // state's step index (the selector-table row its out-edges
        // use). The odd word index is clamped so a malformed
        // (odd-width) kernel indexes in range; validated kernels always
        // have 2n vars.
        let mut steps: Vec<SoaStep> = Vec::new();
        let mut step_of = vec![0u32; n];
        let mut i = 0usize;
        while i < n {
            let p = instrs[order[i] as usize].var >> 1;
            let mut j = i;
            while j < n && instrs[order[j] as usize].var >> 1 == p {
                step_of[j] = steps.len() as u32;
                j += 1;
            }
            steps.push(SoaStep {
                v1: 2 * p,
                v2: (2 * p + 1).min(num_vars.saturating_sub(1)),
                start: i as u32,
                end: j as u32,
            });
            i = j;
        }
        let new_root = enc(root);
        // Per-pred grandchild targets with quadrants merged: quadrant
        // `b₁·2 + b₂` of pred `new` reaches `target`. A pred has at
        // most four distinct targets; merging turns e.g. an odd-var
        // node's four entries into two 2-quadrant edges.
        let mut pred_targets: Vec<[(u32, u32); 4]> = Vec::with_capacity(n);
        for (new, &old) in order.iter().enumerate() {
            let ins = &instrs[old as usize];
            let pair_even = ins.var & !1;
            let mut merged = [(u32::MAX, 0u32); 4]; // (target, quadbits)
            for quad in 0..4usize {
                let (b1, b2) = (quad >> 1, quad & 1);
                let grandchild = if ins.var == pair_even {
                    let c = if b1 == 1 { ins.hi } else { ins.lo };
                    hop(c, pair_even + 1, b2)
                } else {
                    // Odd node (entered by skipping the even var): b1
                    // is a don't-care.
                    if b2 == 1 {
                        ins.hi
                    } else {
                        ins.lo
                    }
                };
                let t = enc(grandchild);
                for slot in merged.iter_mut() {
                    if slot.0 == t {
                        slot.1 |= 1 << quad;
                        break;
                    }
                    if slot.0 == u32::MAX {
                        *slot = (t, 1 << quad);
                        break;
                    }
                }
            }
            pred_targets.push(merged);
            let _ = new;
        }
        // Dense selector slots: a `(level, quadbits)` pair gets one the
        // first time an edge references it. Preds are visited in
        // ascending state (= level) order, so the plan is level-sorted.
        // Edges into the root would come from unreachable nodes only;
        // dropping them keeps the root's seeded row authoritative for
        // the whole pass.
        let row = std::mem::size_of::<MaskRow>() as u64;
        let mut slot_of = vec![u32::MAX; 16 * steps.len()];
        let mut sel_plan: Vec<u32> = Vec::new();
        let mut in_edges: Vec<Vec<u64>> = vec![Vec::new(); num_states];
        for (new, merged) in pred_targets.iter().enumerate() {
            for &(t, quadbits) in merged.iter().filter(|s| s.0 != u32::MAX) {
                if t == new_root {
                    continue;
                }
                let key = 16 * step_of[new] as usize + quadbits as usize;
                if slot_of[key] == u32::MAX {
                    slot_of[key] = sel_plan.len() as u32;
                    sel_plan.push((step_of[new] << 4) | quadbits);
                }
                in_edges[t as usize].push(((slot_of[key] as u64 * row) << 32) | (new as u64 * row));
            }
        }
        // Emit the degree-bucketed schedule: per round (one per level,
        // then the terminals), all in-degree-1 targets, then the
        // in-degree-2 ones, then the rest. Any order within a round is
        // sound — every pred sits at an earlier level.
        let mut rounds: Vec<GatherRound> = Vec::with_capacity(steps.len() + 1);
        let mut targets: Vec<u32> = Vec::new();
        let mut edges: Vec<u64> = Vec::new();
        let mut gen_counts: Vec<u32> = Vec::new();
        for r in 0..=steps.len() {
            let (lo, hi) = if r < steps.len() {
                (steps[r].start, steps[r].end)
            } else {
                (term_base, num_states as u32)
            };
            let mut rd = GatherRound {
                t0: targets.len() as u32,
                e0: edges.len() as u32,
                c0: gen_counts.len() as u32,
                ..GatherRound::default()
            };
            for s in lo..hi {
                if in_edges[s as usize].len() == 1 {
                    rd.n1 += 1;
                    targets.push(s * row as u32);
                    edges.extend_from_slice(&in_edges[s as usize]);
                }
            }
            for s in lo..hi {
                if in_edges[s as usize].len() == 2 {
                    rd.n2 += 1;
                    targets.push(s * row as u32);
                    edges.extend_from_slice(&in_edges[s as usize]);
                }
            }
            for s in lo..hi {
                if in_edges[s as usize].len() >= 3 {
                    rd.ng += 1;
                    targets.push(s * row as u32);
                    gen_counts.push(in_edges[s as usize].len() as u32);
                    edges.extend_from_slice(&in_edges[s as usize]);
                }
            }
            rounds.push(rd);
        }
        // The hot gather loops index masks/selectors unchecked on the
        // strength of these bounds (checked once, at compile/load
        // time).
        assert!(
            edges.iter().all(|&e| {
                (e & u32::MAX as u64) < num_states as u64 * row
                    && (e >> 32) < sel_plan.len() as u64 * row
                    && (e & u32::MAX as u64).is_multiple_of(row)
                    && (e >> 32).is_multiple_of(row)
            }),
            "gather edge out of range"
        );
        assert!(
            targets
                .iter()
                .all(|&t| (t as u64) < num_states as u64 * row && (t as u64).is_multiple_of(row)),
            "gather target out of range"
        );
        SoaProgram {
            term_base,
            root: new_root,
            steps,
            rounds,
            targets,
            edges,
            gen_counts,
            sel_plan,
            num_states,
        }
    }

    /// Total states (internal nodes + terminal rows) — the mask
    /// scratch holds one [`MaskRow`] per state.
    pub(crate) fn num_states(&self) -> usize {
        self.num_states
    }

    /// Selector rows needed per chunk (one per referenced
    /// `(level, quadbits)` pair).
    pub(crate) fn num_sels(&self) -> usize {
        self.sel_plan.len()
    }

    /// Seeds the root mask of chunk-local group `g`: `live` names the
    /// lanes that actually hold transitions (the final group of a block
    /// may be ragged; absent groups seed 0 and stay inert). Overwrites
    /// last chunk's seed — the root has no in-edges, so the row is
    /// never gather-written.
    #[inline]
    pub(crate) fn seed_root(&self, masks: &mut [MaskRow], g: usize, live: u64) {
        masks[self.root as usize][g] = live;
    }

    /// Fills the dense per-chunk selector table: slot `i` holds the
    /// lanes of each group whose two pattern bits at `sel_plan[i]`'s
    /// level match any quadrant in its `quadbits` (`⋃ q[i], i ∈ qb`).
    /// The plan is level-sorted, so each level's four quadrant rows are
    /// computed once and reused across its slots. Groups past the
    /// block's end contribute zero words — their masks are zero, so
    /// selection never matters.
    pub(crate) fn build_sels(
        &self,
        block: &PatternBlock,
        g0: usize,
        lanes: usize,
        sels: &mut [MaskRow],
    ) {
        assert_eq!(sels.len(), self.num_sels(), "selector table size");
        let mut q = [ZERO_ROW; 4];
        let mut cur_level = u32::MAX;
        for (slot, &entry) in self.sel_plan.iter().enumerate() {
            let level = entry >> 4;
            if level != cur_level {
                cur_level = level;
                let step = &self.steps[level as usize];
                let mut w1 = ZERO_ROW;
                let mut w2 = ZERO_ROW;
                for g in 0..CHUNK_GROUPS {
                    if (g0 + g) * GROUP_LANES < lanes {
                        let words = block.block_words(g0 + g);
                        w1[g] = words[step.v1 as usize];
                        w2[g] = words[step.v2 as usize];
                    }
                }
                for g in 0..CHUNK_GROUPS {
                    q[0][g] = !w1[g] & !w2[g];
                    q[1][g] = !w1[g] & w2[g];
                    q[2][g] = w1[g] & !w2[g];
                    q[3][g] = w1[g] & w2[g];
                }
            }
            let mut row = ZERO_ROW;
            let mut qb = entry & 0xF;
            while qb != 0 {
                let qi = &q[qb.trailing_zeros() as usize];
                for g in 0..CHUNK_GROUPS {
                    row[g] |= qi[g];
                }
                qb &= qb - 1;
            }
            sels[slot] = row;
        }
    }

    /// Number of gather rounds: one per pair level plus the terminal
    /// round (round 0 is always empty — level-0 states have no
    /// in-edges).
    pub(crate) fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Computes the mask rows of gather round `round`'s target states
    /// (every pred is at an earlier level, so its row is already final)
    /// as the OR of `pred_row & selector` over their in-edges. Each row
    /// is written exactly once; states with no in-edges appear in no
    /// round and keep their zero row. Targets run degree-bucketed —
    /// all in-degree-1 states, then in-degree-2, then the rest — so the
    /// two hot loops have no data-dependent branch. Dispatches to an
    /// AVX2-compiled body when the host supports it (one cached feature
    /// probe per call).
    #[inline]
    pub(crate) fn gather_round(&self, masks: &mut [MaskRow], sels: &[MaskRow], round: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just verified at runtime.
                unsafe { self.gather_round_avx2(masks, sels, round) };
                return;
            }
        }
        self.gather_round_body(masks, sels, round);
    }

    /// [`SoaProgram::gather_round`] monomorphized with AVX2 enabled, so
    /// the `[u64; 4]` row operations compile to full-width vector ops.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn gather_round_avx2(&self, masks: &mut [MaskRow], sels: &[MaskRow], round: usize) {
        self.gather_round_body(masks, sels, round);
    }

    #[inline(always)]
    fn gather_round_body(&self, masks: &mut [MaskRow], sels: &[MaskRow], round: usize) {
        assert_eq!(masks.len(), self.num_states, "mask row count mismatch");
        assert_eq!(sels.len(), self.num_sels(), "selector table size");
        let rd = self.rounds[round];
        let mptr = masks.as_mut_ptr().cast::<u8>();
        let sptr = sels.as_ptr().cast::<u8>();
        let mut ti = rd.t0 as usize;
        let mut ei = rd.e0 as usize;
        // SAFETY: every target/pred/selector byte offset in the
        // schedule is an in-bounds, row-aligned offset (asserted in
        // `build`), round cursors stay inside the arrays by
        // construction, and every pred is at an earlier level than its
        // target, so no read aliases this round's writes.
        unsafe {
            for _ in 0..rd.n1 {
                let e = *self.edges.get_unchecked(ei);
                let t = *self.targets.get_unchecked(ti) as usize;
                let prow = &*mptr.add((e & u32::MAX as u64) as usize).cast::<MaskRow>();
                let srow = &*sptr.add((e >> 32) as usize).cast::<MaskRow>();
                let mut acc = ZERO_ROW;
                for g in 0..CHUNK_GROUPS {
                    acc[g] = prow[g] & srow[g];
                }
                *mptr.add(t).cast::<MaskRow>() = acc;
                ti += 1;
                ei += 1;
            }
            for _ in 0..rd.n2 {
                let ea = *self.edges.get_unchecked(ei);
                let eb = *self.edges.get_unchecked(ei + 1);
                let t = *self.targets.get_unchecked(ti) as usize;
                let pa = &*mptr.add((ea & u32::MAX as u64) as usize).cast::<MaskRow>();
                let sa = &*sptr.add((ea >> 32) as usize).cast::<MaskRow>();
                let pb = &*mptr.add((eb & u32::MAX as u64) as usize).cast::<MaskRow>();
                let sb = &*sptr.add((eb >> 32) as usize).cast::<MaskRow>();
                let mut acc = ZERO_ROW;
                for g in 0..CHUNK_GROUPS {
                    acc[g] = (pa[g] & sa[g]) | (pb[g] & sb[g]);
                }
                *mptr.add(t).cast::<MaskRow>() = acc;
                ti += 1;
                ei += 2;
            }
            let c0 = rd.c0 as usize;
            for ci in c0..c0 + rd.ng as usize {
                let c = *self.gen_counts.get_unchecked(ci) as usize;
                let t = *self.targets.get_unchecked(ti) as usize;
                let mut acc = ZERO_ROW;
                for e in self.edges.get_unchecked(ei..ei + c) {
                    let prow = &*mptr.add((*e & u32::MAX as u64) as usize).cast::<MaskRow>();
                    let srow = &*sptr.add((*e >> 32) as usize).cast::<MaskRow>();
                    for g in 0..CHUNK_GROUPS {
                        acc[g] |= prow[g] & srow[g];
                    }
                }
                *mptr.add(t).cast::<MaskRow>() = acc;
                ti += 1;
                ei += c;
            }
        }
    }

    /// Scatters one whole chunk's terminal masks into `out` (that
    /// chunk's up-to-256 values, chunk-local lane `g·64 + bit`). Must
    /// run after the gather sweep: the live lanes then sit exactly in
    /// the terminal rows, and every lane `< out.len()` is set in
    /// exactly one of them. One all-zero test skips a whole terminal
    /// row — with many terminals most rows hold no lanes of a given
    /// chunk.
    #[inline]
    pub(crate) fn scatter(&self, masks: &[MaskRow], terminals: &[f64], out: &mut [f64]) {
        let base = self.term_base as usize;
        for (k, &value) in terminals.iter().enumerate() {
            let row = &masks[base + k];
            if row == &ZERO_ROW {
                continue;
            }
            for (g, &word) in row.iter().enumerate() {
                let mut mask = word;
                while mask != 0 {
                    out[GROUP_LANES * g + mask.trailing_zeros() as usize] = value;
                    mask &= mask - 1;
                }
            }
        }
    }
}
