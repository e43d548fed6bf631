//! Packed bit-matrix pattern blocks.
//!
//! A [`PatternBlock`] stores a stream of `2n`-variable transition
//! assignments column-packed: one `u64` word per diagram variable per 64
//! transitions ("lanes"). Lane `t mod 64` of word `words[(t / 64) ·
//! num_vars + var]` is the value of `var` at transition `t`. The layout
//! keeps the whole working set of one 64-transition group inside a few
//! cache lines regardless of stream length, which is what lets
//! [`Kernel::eval_batch_into`](crate::Kernel::eval_batch_into) stay
//! memory-bound-friendly.

use crate::kernel::Kernel;

/// A packed block of transition assignments (see module docs).
#[derive(Debug, Clone)]
pub struct PatternBlock {
    num_vars: usize,
    len: usize,
    words: Vec<u64>,
    /// Reused per-group accumulator of `extend_from_patterns` (one
    /// word per kernel input) — kept so the chunked worker loops'
    /// frequent small refills don't allocate.
    acc: Vec<u64>,
}

impl PatternBlock {
    /// An empty block over `num_vars` diagram variables.
    pub fn new(num_vars: usize) -> PatternBlock {
        PatternBlock {
            num_vars,
            len: 0,
            words: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// Number of transitions stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of diagram variables per transition.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Drops all stored transitions, keeping the allocation (the chunked
    /// trace paths reuse one block per worker).
    pub fn clear(&mut self) {
        self.len = 0;
        self.words.clear();
    }

    /// The `num_vars` packed words of 64-lane group `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is past the last group.
    #[inline]
    pub(crate) fn block_words(&self, b: usize) -> &[u64] {
        &self.words[b * self.num_vars..(b + 1) * self.num_vars]
    }

    /// Appends the `(xi, xf)` transition using `kernel`'s input-to-
    /// variable maps.
    ///
    /// # Panics
    ///
    /// Panics if the block is narrower than the kernel's variable count or
    /// the patterns are not `kernel.num_inputs()` wide.
    pub fn push_transition(&mut self, kernel: &Kernel, xi: &[bool], xf: &[bool]) {
        assert!(
            self.num_vars >= kernel.num_vars() as usize,
            "block narrower than the kernel"
        );
        assert_eq!(xi.len(), kernel.num_inputs(), "pattern width mismatch");
        assert_eq!(xf.len(), kernel.num_inputs(), "pattern width mismatch");
        let lane = self.len % 64;
        if lane == 0 {
            self.words.resize(self.words.len() + self.num_vars, 0);
        }
        let base = self.words.len() - self.num_vars;
        // Branchless: the input bits are data (often random), so an `if`
        // per bit would mispredict half the time.
        for i in 0..kernel.num_inputs() {
            let (vi, vf) = kernel.input_vars(i);
            self.words[base + vi] |= (xi[i] as u64) << lane;
            self.words[base + vf] |= (xf[i] as u64) << lane;
        }
        self.len += 1;
    }

    /// Packs the `patterns.len() − 1` consecutive transitions of a pattern
    /// window (empty for fewer than two patterns).
    pub fn from_patterns(kernel: &Kernel, patterns: &[Vec<bool>]) -> PatternBlock {
        let mut block = PatternBlock::new(kernel.num_vars() as usize);
        block.extend_from_patterns(kernel, patterns);
        block
    }

    /// Appends every consecutive transition of a pattern window.
    ///
    /// Whole 64-transition groups take a transposed fast path built on
    /// 8×8 byte tiles: eight patterns' bool rows are read eight
    /// variables at a time as single unaligned `u64` loads (a bool *is*
    /// a 0/1 byte), shift-merged into one word whose byte `v` holds the
    /// eight rows' bits of variable `v`, and the bytes accumulated into
    /// each variable's 64-lane word. The final-state word is the
    /// initial-state gather shifted down one lane (transition `t`'s
    /// final state is transition `t + 1`'s initial state) with the
    /// window's next pattern filling the top bit. That replaces per-bit
    /// read-modify-writes of memory with a handful of word ops per 64
    /// packed bits and no data-dependent branches.
    pub fn extend_from_patterns(&mut self, kernel: &Kernel, patterns: &[Vec<bool>]) {
        // A `&[bool]` reinterpreted as bytes: every bool is a 0/1 byte
        // with the same size and alignment.
        #[inline(always)]
        fn as_bytes(row: &[bool]) -> &[u8] {
            // SAFETY: `bool` and `u8` have identical size, alignment,
            // and every bool's byte is a valid u8.
            unsafe { std::slice::from_raw_parts(row.as_ptr().cast::<u8>(), row.len()) }
        }
        /// Eight consecutive 0/1 bytes at `j` as one little-endian word
        /// (byte `v` = variable `j + v`).
        #[inline(always)]
        fn load8(bytes: &[u8], j: usize) -> u64 {
            assert!(j + 8 <= bytes.len(), "tile past the row");
            // SAFETY: the 8-byte window is in bounds (just asserted);
            // unaligned reads are explicit.
            u64::from_le(unsafe { bytes.as_ptr().add(j).cast::<u64>().read_unaligned() })
        }
        /// Requests an upcoming pattern row into cache. Rows are
        /// separate heap allocations reached through the window's
        /// pointer array — an indirection the hardware prefetcher
        /// cannot follow, so long traces otherwise stall on every row.
        #[inline(always)]
        fn prefetch_row(row: &[bool]) {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: prefetches have no memory effects at any address.
            unsafe {
                core::arch::x86_64::_mm_prefetch(
                    row.as_ptr().cast::<i8>(),
                    core::arch::x86_64::_MM_HINT_T0,
                );
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = row;
        }
        /// Pattern rows to run ahead of the pack loop.
        const PREFETCH_ROWS: usize = 16;
        let total = patterns.len().saturating_sub(1);
        let mut t = 0usize;
        // Fast path only from a group boundary (the worker loops clear
        // and refill, so this is the common case).
        if self.len.is_multiple_of(64) && self.num_vars == kernel.num_vars() as usize {
            let n = kernel.num_inputs();
            let mut acc = std::mem::take(&mut self.acc);
            acc.clear();
            acc.resize(n, 0);
            while total - t >= 64 {
                acc.fill(0);
                let rows = &patterns[t..t + 65];
                if n < 8 {
                    // Too narrow for byte tiles: plain row-major
                    // accumulation, four rows per pass over `acc`.
                    for (q, quad) in rows[..64].chunks_exact(4).enumerate() {
                        let lane = 4 * q;
                        for r in 0..4 {
                            if let Some(row) = patterns.get(t + lane + PREFETCH_ROWS + r) {
                                prefetch_row(row);
                            }
                        }
                        let (r0, r1, r2, r3) =
                            (&quad[0][..n], &quad[1][..n], &quad[2][..n], &quad[3][..n]);
                        for (i, a) in acc.iter_mut().enumerate() {
                            *a |= ((r0[i] as u64)
                                | (r1[i] as u64) << 1
                                | (r2[i] as u64) << 2
                                | (r3[i] as u64) << 3)
                                << lane;
                        }
                    }
                    self.pack_group(kernel, &acc, &rows[64][..n]);
                    t += 64;
                    continue;
                }
                for (p, oct) in rows[..64].chunks_exact(8).enumerate() {
                    let lane = 8 * p;
                    for r in 0..8 {
                        if let Some(row) = patterns.get(t + lane + PREFETCH_ROWS + r) {
                            prefetch_row(row);
                        }
                    }
                    let rs: [&[u8]; 8] = std::array::from_fn(|r| {
                        let row = oct[r].as_slice();
                        assert!(row.len() >= n, "pattern width mismatch");
                        as_bytes(row)
                    });
                    // Full 8-variable tiles: bit `8v + r` of the merged
                    // word is row `r`'s value of variable `j + v` (the
                    // per-row shifts can't carry across byte slots).
                    let mut j = 0usize;
                    while j + 8 <= n {
                        let mut y = 0u64;
                        for (r, row) in rs.iter().enumerate() {
                            y |= load8(row, j) << r;
                        }
                        for (v, a) in acc[j..j + 8].iter_mut().enumerate() {
                            *a |= ((y >> (8 * v)) & 0xFF) << lane;
                        }
                        j += 8;
                    }
                    if j < n {
                        // Ragged tail: re-read the row's final 8 bytes
                        // (overlapping the previous tile, `n ≥ 8` here)
                        // and extract only the not-yet-packed variables.
                        let jj = n - 8;
                        let mut y = 0u64;
                        for (r, row) in rs.iter().enumerate() {
                            y |= load8(row, jj) << r;
                        }
                        for (v, a) in acc[j..n].iter_mut().enumerate() {
                            *a |= ((y >> (8 * (j + v - jj))) & 0xFF) << lane;
                        }
                    }
                }
                self.pack_group(kernel, &acc, &rows[64][..n]);
                t += 64;
            }
            self.acc = acc;
        }
        while t < total {
            self.push_transition(kernel, &patterns[t], &patterns[t + 1]);
            t += 1;
        }
    }

    /// Appends one full 64-lane group of consecutive transitions from
    /// its input-major initial-state words: lane `k` of `initial[i]` is
    /// input `i` in the group's pattern `k`, and `last` is the pattern
    /// after the group's 64th (it completes the 64th transition). Packed
    /// exactly as [`extend_from_patterns`](Self::extend_from_patterns)
    /// packs a whole group.
    ///
    /// # Panics
    ///
    /// Panics unless the block is at a group boundary, is exactly as wide
    /// as the kernel's variables, and `initial` and `last` are
    /// `kernel.num_inputs()` long.
    pub fn push_group(&mut self, kernel: &Kernel, initial: &[u64], last: &[bool]) {
        assert!(
            self.len.is_multiple_of(64),
            "group push off a group boundary"
        );
        assert_eq!(
            self.num_vars,
            kernel.num_vars() as usize,
            "block width differs from the kernel"
        );
        assert_eq!(initial.len(), kernel.num_inputs(), "pattern width mismatch");
        assert_eq!(last.len(), kernel.num_inputs(), "pattern width mismatch");
        self.pack_group(kernel, initial, last);
    }

    /// Appends one full 64-lane group from its accumulated initial-state
    /// words: the final-state word is the initial word shifted down one
    /// lane with `last` (the window's 65th pattern) filling the top bit.
    fn pack_group(&mut self, kernel: &Kernel, acc: &[u64], last: &[bool]) {
        self.words.resize(self.words.len() + self.num_vars, 0);
        let base = self.words.len() - self.num_vars;
        for (i, &wi) in acc.iter().enumerate() {
            let wf = (wi >> 1) | ((last[i] as u64) << 63);
            let (vi, vf) = kernel.input_vars(i);
            self.words[base + vi] = wi;
            self.words[base + vf] = wf;
        }
        self.len += 64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charfree_core::{ModelBuilder, PowerModel};
    use charfree_netlist::{benchmarks, Library};
    use charfree_sim::MarkovSource;

    #[test]
    fn packing_round_trips_through_batch_eval() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
                .build();
        let kernel = Kernel::compile(&model);
        let mut source = MarkovSource::new(11, 0.5, 0.4, 3).expect("feasible");
        let patterns = source.sequence(130); // crosses two 64-lane groups
        let block = PatternBlock::from_patterns(&kernel, &patterns);
        assert_eq!(block.len(), 129);
        let got = kernel.eval_batch(&block);
        for (t, &c) in got.iter().enumerate() {
            assert_eq!(
                c.to_bits(),
                model
                    .capacitance(&patterns[t], &patterns[t + 1])
                    .femtofarads()
                    .to_bits(),
                "transition {t}"
            );
        }
    }

    #[test]
    fn push_group_packs_as_extend_from_patterns_does() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("cm85", &library).expect("Table 1 name"))
                .build();
        let kernel = Kernel::compile(&model);
        let patterns = MarkovSource::new(11, 0.5, 0.4, 5)
            .expect("feasible")
            .sequence(129);
        let mut block = PatternBlock::new(kernel.num_vars() as usize);
        for group in patterns.windows(65).step_by(64) {
            let initial: Vec<u64> = (0..11)
                .map(|i| (0..64).map(|k| u64::from(group[k][i]) << k).sum())
                .collect();
            block.push_group(&kernel, &initial, &group[64]);
        }
        let want = PatternBlock::from_patterns(&kernel, &patterns);
        assert_eq!(block.len(), want.len());
        assert_eq!(block.words, want.words);
    }

    #[test]
    #[should_panic(expected = "group push off a group boundary")]
    fn push_group_off_a_group_boundary_panics() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name"))
                .build();
        let kernel = Kernel::compile(&model);
        let mut block = PatternBlock::new(kernel.num_vars() as usize);
        block.push_transition(&kernel, &[false; 5], &[true; 5]);
        block.push_group(&kernel, &[0; 5], &[false; 5]);
    }

    #[test]
    fn clear_reuses_allocation() {
        let library = Library::test_library();
        let model =
            ModelBuilder::new(&benchmarks::by_name("decod", &library).expect("Table 1 name"))
                .build();
        let kernel = Kernel::compile(&model);
        let mut block = PatternBlock::new(kernel.num_vars() as usize);
        let xi = vec![true; 5];
        let xf = vec![false; 5];
        block.push_transition(&kernel, &xi, &xf);
        assert_eq!(block.len(), 1);
        block.clear();
        assert!(block.is_empty());
        block.push_transition(&kernel, &xi, &xf);
        assert_eq!(
            kernel.eval_batch(&block)[0],
            kernel.eval_transition(&xi, &xf)
        );
    }
}
