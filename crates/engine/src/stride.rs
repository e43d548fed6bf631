//! Stride-table programs: the batch evaluator of large kernels.
//!
//! A per-lane walk down `instrs` pays one dependent load per diagram
//! variable it tests. The [`StrideProgram`] here consumes [`STRIDE`]
//! variables per dependent load instead:
//!
//! * **Windows** — the diagram variables are cut into windows of
//!   [`STRIDE`] consecutive indices; window `w` holds variables
//!   `[STRIDE·w, STRIDE·w + STRIDE)`. Variables strictly increase along
//!   every edge, so a root-to-terminal path visits each window at most
//!   once, as one contiguous run of instructions.
//! * **Entry nodes** — the root, and every instruction reached across a
//!   window boundary (its parent tests an earlier window). Each entry
//!   gets one `2^STRIDE`-word table: word `bits` is where the path
//!   leaves the entry's window when its variables take the values
//!   `bits` (bit `j` = variable `STRIDE·w + j`) — the next entry node,
//!   or a terminal reference.
//! * **Entry words** — an entry is named by one `u32`: its table index
//!   shifted past [`StrideProgram::window_bits`], or'ed with its window.
//!   The window bits cover the last window the kernel tests, however
//!   wide it is; a terminal reference keeps [`TERMINAL_BIT`]. A kernel
//!   with more entries than the remaining bits can name is refused when
//!   the program is built.
//!
//! The walk bit-transposes each 64-lane group's variable-major pattern
//! words once, per 64-variable slab, into lane-major assignment words.
//! One step of one lane is then a shift, a mask and one table load. The
//! walk advances [`WALK_LANES`] lanes of a group side by side,
//! branch-free, until all of them have landed; results are f64
//! bit-identical to the scalar walk, since both read the same terminal
//! slot, and the kernel-equivalence suites enforce it.

use crate::block::PatternBlock;
use crate::kernel::{Instr, TERMINAL_BIT};

/// Diagram variables one walk step consumes.
const STRIDE: u32 = 4;

/// Words per entry table: one per value of a window's variables.
const FANOUT: usize = 1 << STRIDE;

/// Windows per 64-variable slab of a lane's assignment words.
const WINDOWS_PER_SLAB: usize = 64 / STRIDE as usize;

/// Lanes one walk advances side by side — independent load chains the
/// core overlaps.
const WALK_LANES: usize = 8;

/// A stride-table program (see module docs). Derived from the portable
/// instruction vec at compile/load time — never persisted.
#[derive(Debug, Clone)]
pub(crate) struct StrideProgram {
    /// [`FANOUT`] successor words per entry node, entry 0 (the root)
    /// first.
    tables: Vec<u32>,
    /// Low bits of an entry word that hold its window.
    window_bits: u32,
    /// The root's entry word.
    root: u32,
    /// Diagram variables the walk transposes (the kernel's `2n`).
    num_vars: usize,
}

impl StrideProgram {
    /// Builds the program from a kernel's instruction vec (children
    /// strictly before parents, variables strictly increasing along
    /// every edge, as [`charfree_dd::io::dump`] and
    /// [`charfree_dd::io::parse_diagram`] make them) whose `root` is
    /// internal.
    ///
    /// # Errors
    ///
    /// Fails when the kernel has more entry nodes than an entry word
    /// can name next to the window bits it needs.
    pub(crate) fn build(instrs: &[Instr], root: u32, num_vars: u32) -> Result<Self, String> {
        let window = |i: u32| instrs[i as usize].var / STRIDE;
        let last = instrs.iter().map(|ins| ins.var / STRIDE).max().unwrap_or(0);
        // `var < 2^32`, so `last < 2^30` and at least one index bit is
        // left below the terminal bit.
        let window_bits = u32::BITS - last.leading_zeros();
        let max_entries = 1usize << (31 - window_bits);
        // Dense per-instruction index: the entry id of each instruction
        // reached across a window boundary, `u32::MAX` until it is.
        let mut entry_of = vec![u32::MAX; instrs.len()];
        entry_of[root as usize] = 0;
        let mut entries = vec![root];
        let mut tables = Vec::new();
        let mut next = 0;
        while let Some(&entry) = entries.get(next) {
            next += 1;
            let w = window(entry);
            for bits in 0..FANOUT as u32 {
                let mut r = entry;
                while r & TERMINAL_BIT == 0 && window(r) == w {
                    let ins = &instrs[r as usize];
                    r = if bits >> (ins.var % STRIDE) & 1 != 0 {
                        ins.hi
                    } else {
                        ins.lo
                    };
                }
                if r & TERMINAL_BIT == 0 {
                    if entry_of[r as usize] == u32::MAX {
                        if entries.len() == max_entries {
                            return Err(format!(
                                "kernel too large for the stride walk: more than \
                                 {max_entries} entry nodes over {} windows",
                                u64::from(last) + 1
                            ));
                        }
                        entry_of[r as usize] = entries.len() as u32;
                        entries.push(r);
                    }
                    r = (entry_of[r as usize] << window_bits) | window(r);
                }
                tables.push(r);
            }
        }
        Ok(StrideProgram {
            tables,
            window_bits,
            root: window(root),
            num_vars: num_vars as usize,
        })
    }

    /// Bytes of the entry tables.
    pub(crate) fn bytes(&self) -> usize {
        self.tables.len() * std::mem::size_of::<u32>()
    }

    /// Walks every lane of `block` from the root to its terminal and
    /// writes the terminal values into `out` (`block.len()` long). A
    /// ragged last batch also walks the lanes past the block's end
    /// (their zero bits lead to some terminal) and discards them.
    /// `lanes` is caller-held scratch, resized here.
    pub(crate) fn walk(
        &self,
        block: &PatternBlock,
        terminals: &[f64],
        out: &mut [f64],
        lanes: &mut Vec<u64>,
    ) {
        // The group's assignment words, slab-major: `lanes[64·s + k]`
        // holds lane `k`'s variables `[64·s, 64·s + 64)`.
        lanes.resize(64 * self.num_vars.div_ceil(64), 0);
        for (g, group) in out.chunks_mut(64).enumerate() {
            let words = &block.block_words(g)[..self.num_vars];
            for (slab, tile) in words.chunks(64).zip(lanes.chunks_exact_mut(64)) {
                let tile: &mut [u64; 64] = tile.try_into().expect("64-word tile");
                tile.fill(0);
                tile[..slab.len()].copy_from_slice(slab);
                transpose64(tile);
            }
            for (c, values) in group.chunks_mut(WALK_LANES).enumerate() {
                let r = self.walk_batch(lanes, c * WALK_LANES);
                for (value, rk) in values.iter_mut().zip(r) {
                    *value = terminals[(rk & !TERMINAL_BIT) as usize];
                }
            }
        }
    }

    /// Walks the [`WALK_LANES`] lanes from lane `first` of a group's
    /// slab-major assignment words `lanes` until all have landed, and
    /// returns their terminal references.
    #[inline(always)]
    fn walk_batch(&self, lanes: &[u64], first: usize) -> [u32; WALK_LANES] {
        let tables = &self.tables[..];
        let window_mask = (1u32 << self.window_bits) - 1;
        let mut r = [self.root; WALK_LANES];
        loop {
            let mut landed = TERMINAL_BIT;
            for (k, rk) in r.iter_mut().enumerate() {
                // One step, branch-free: the branch bits are data and
                // would mispredict half the time. A landed lane keeps its
                // terminal reference (it reads entry 0's table and
                // discards the word); `select_unpredictable` keeps both
                // selects conditional moves, where a blend of masks was
                // compiled into a branch around the load.
                let landed_here = *rk & TERMINAL_BIT != 0;
                let live = std::hint::select_unpredictable(landed_here, 0, *rk);
                let w = (live & window_mask) as usize;
                let word = lanes[(w / WINDOWS_PER_SLAB) * 64 + first + k];
                let bits =
                    (word >> ((w % WINDOWS_PER_SLAB) * STRIDE as usize)) as usize & (FANOUT - 1);
                let next = tables[((live >> self.window_bits) as usize) << STRIDE | bits];
                *rk = std::hint::select_unpredictable(landed_here, *rk, next);
                landed &= *rk;
            }
            if landed != 0 {
                return r;
            }
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of row `r` moves to
/// bit `r` of row `c`. Six rounds of block swaps, halving the block
/// size each round.
fn transpose64(rows: &mut [u64; 64]) {
    let mut j = 32;
    let mut mask: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0;
        while k < 64 {
            // Swap the high-`j` bits of row `k` with the low-`j` bits of
            // row `k + j`, within every `2j`-bit block.
            let t = ((rows[k] >> j) ^ rows[k + j]) & mask;
            rows[k] ^= t << j;
            rows[k + j] ^= t;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        mask ^= mask << j;
    }
}
