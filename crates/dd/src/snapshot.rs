//! Dense, canonically ordered snapshots of one diagram, and the
//! per-round work of node collapsing done on them.
//!
//! An approximation round (paper, Section 3) needs three things of the
//! diagram it shrinks: measure-weighted statistics of every node, a
//! ranking, and the smallest prefix of that ranking whose collapse meets
//! the size bound. None of these needs the [`Manager`]'s hash-consed
//! arena, so [`Manager::snapshot`] copies the diagram once into flat
//! `Vec`s and everything else runs on dense indices:
//!
//! * [`Snapshot::profile`] computes the statistics under `K` measures,
//!   measure by measure: a bottom-up pass fills one `n`-long buffer of
//!   moments, and the top-down pass for the same measure reads it at
//!   once, so the working memory is O(n) whatever `K` is;
//! * [`Snapshot::means`] is the bottom-up half alone (the root average);
//! * [`CollapseSizer::collapsed_size`] counts the size a collapse *would*
//!   reach, in a reusable scratch hash-cons, without interning anything.
//!
//! **Canonical order.** Internal nodes are numbered in DFS post-order from
//! the root, `lo` before `hi`; terminals sit in a side table in ascending
//! value order. Both orders depend only on the function the diagram
//! represents, never on arena indices, so every sum taken in dense order
//! — and with it every approximated model — is independent of the arena's
//! allocation and compaction history.

use crate::hash::{canonical_f64_bits, FxHashMap};
use crate::manager::{Add, Manager};
use crate::marks::Marks;
use crate::node::NodeId;
use crate::stats::{ChainMeasure, MeasuredNode, NodeStats};

/// High bit of a dense reference: set for terminals (index into the
/// terminal table), clear for internal nodes (index into the node table).
const TERM: u32 = 1 << 31;

/// A dense copy of the diagram rooted at one node (see the module docs).
///
/// # Examples
///
/// ```
/// use charfree_dd::{Manager, Var};
///
/// let mut m = Manager::new(2);
/// let x0 = m.bdd_var(Var(0));
/// let x1 = m.bdd_var(Var(1));
/// let c10 = m.constant(10.0);
/// let zero = m.add_zero();
/// let inner = m.add_ite(x1, c10, zero);
/// let f = m.add_ite(x0, c10, inner);
///
/// let snap = m.snapshot(f);
/// assert_eq!(snap.len(), 2);                 // internal nodes
/// assert_eq!(snap.size(), m.size(f.node())); // terminals included
/// assert_eq!(snap.terminal_values(), &[0.0, 10.0]);
/// assert_eq!(snap.node_id(1), f.node());      // the root comes last
/// ```
#[derive(Debug, Clone)]
pub struct Snapshot {
    num_vars: u32,
    ids: Vec<NodeId>,
    var: Vec<u32>,
    lo: Vec<u32>,
    hi: Vec<u32>,
    terminals: Vec<f64>,
    root: u32,
}

impl Manager {
    /// Copies the diagram rooted at `f` into a dense [`Snapshot`]: internal
    /// nodes in DFS post-order from the root (`lo` before `hi`, so children
    /// precede parents and the root is last), terminals by ascending value.
    pub fn snapshot(&self, f: Add) -> Snapshot {
        let root = f.node();
        let mut snap = Snapshot {
            num_vars: self.num_vars(),
            ids: Vec::new(),
            var: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            terminals: Vec::new(),
            root: 0,
        };
        // Each visited node memoizes its dense reference; `u32::MAX`
        // marks a node whose children are still being visited.
        Marks::with(self.arena_counts(), |index| {
            let dense = |index: &Marks, id: NodeId| index.memo(id).expect("child visited first");
            let mut stack = vec![(root, false)];
            while let Some((id, children_done)) = stack.pop() {
                if children_done {
                    let (lo, hi) = self.children(id);
                    let i = snap.ids.len() as u32;
                    index.remember(id, i);
                    snap.ids.push(id);
                    snap.var.push(self.node_var(id).index());
                    snap.lo.push(dense(index, lo));
                    snap.hi.push(dense(index, hi));
                    continue;
                }
                if index.memo(id).is_some() {
                    continue;
                }
                if id.is_terminal() {
                    index.remember(id, TERM | snap.terminals.len() as u32);
                    snap.terminals.push(self.terminal_value(id));
                    continue;
                }
                // A DAG never revisits a node whose children are in
                // progress, so this marker is overwritten before anyone
                // reads it.
                index.remember(id, u32::MAX);
                let (lo, hi) = self.children(id);
                stack.push((id, true));
                stack.push((hi, false));
                stack.push((lo, false));
            }
            snap.root = dense(index, root);
        });

        // Re-number terminals by ascending value (interned terminals have
        // distinct values, so the order is total).
        let mut by_value: Vec<u32> = (0..snap.terminals.len() as u32).collect();
        by_value.sort_by(|&a, &b| {
            snap.terminals[a as usize]
                .partial_cmp(&snap.terminals[b as usize])
                .expect("terminals are not NaN")
        });
        let mut new_pos = vec![0u32; by_value.len()];
        for (pos, &old) in by_value.iter().enumerate() {
            new_pos[old as usize] = pos as u32;
        }
        snap.terminals = by_value
            .iter()
            .map(|&old| snap.terminals[old as usize])
            .collect();
        for r in snap
            .lo
            .iter_mut()
            .chain(snap.hi.iter_mut())
            .chain(std::iter::once(&mut snap.root))
        {
            if *r & TERM != 0 {
                *r = TERM | new_pos[(*r & !TERM) as usize];
            }
        }
        snap
    }
}

/// Branching probabilities of one [`ChainMeasure`], tabulated per variable:
/// `p[v][ctx] = P(v = 1 | ctx)` with the contexts of
/// [`ChainMeasure::prob_one`].
struct MeasureTable {
    p: Vec<[f64; 3]>,
    correlated: Vec<bool>,
}

impl MeasureTable {
    fn new(measure: &ChainMeasure, num_vars: u32) -> Self {
        assert_eq!(
            measure.len(),
            num_vars as usize,
            "measure must cover every variable"
        );
        MeasureTable {
            p: (0..measure.len())
                .map(|v| [0u8, 1, 2].map(|ctx| measure.prob_one(v, ctx)))
                .collect(),
            correlated: (0..num_vars).map(|v| measure.is_correlated(v)).collect(),
        }
    }
}

/// Bottom-up average and variance of one node's sub-function under one
/// measure, per context.
#[derive(Clone, Copy, Default)]
struct Moments {
    avg: [f64; 3],
    var: [f64; 3],
}

impl Snapshot {
    /// Number of internal (decision) nodes.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the diagram is a single terminal.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Number of nodes, terminals included — equal to [`Manager::size`] of
    /// the snapshot's root.
    pub fn size(&self) -> usize {
        self.ids.len() + self.terminals.len()
    }

    /// The arena handle of internal node `i`.
    pub fn node_id(&self, i: usize) -> NodeId {
        self.ids[i]
    }

    /// The distinct terminal values, ascending.
    pub fn terminal_values(&self) -> &[f64] {
        &self.terminals
    }

    /// The context a child sees after branching `branch` at variable `v`:
    /// `branch + 1` if it tests `v + 1` and that variable is correlated
    /// with its predecessor, else 0 (see [`ChainMeasure::prob_one`]).
    #[inline]
    fn child_context(&self, child: u32, v: u32, branch: u8, table: &MeasureTable) -> usize {
        if child & TERM == 0
            && self.var[child as usize] == v + 1
            && table.correlated[v as usize + 1]
        {
            usize::from(branch) + 1
        } else {
            0
        }
    }

    /// `(avg, var)` of the child `r` of a node testing `v`, as seen after
    /// taking `branch` under the measure `moments` were computed for.
    #[inline]
    fn child_moments(
        &self,
        moments: &[Moments],
        r: u32,
        v: u32,
        branch: u8,
        table: &MeasureTable,
    ) -> (f64, f64) {
        if r & TERM != 0 {
            return (self.terminals[(r & !TERM) as usize], 0.0);
        }
        let ctx = self.child_context(r, v, branch, table);
        let mo = &moments[r as usize];
        (mo.avg[ctx], mo.var[ctx])
    }

    /// The bottom-up pass under one measure: for every node and context
    /// in which the node can be reached, the average and variance of its
    /// sub-function (Eq. 7 under the measure), into `moments[i]`.
    /// Uncorrelated variables are reached in context 0 only; the other
    /// two contexts of their nodes keep whatever an earlier measure left,
    /// and nothing reads them (a child is seen in context 1 or 2 only if
    /// its variable is correlated).
    fn bottom_up(&self, table: &MeasureTable, moments: &mut [Moments]) {
        for i in 0..self.len() {
            let v = self.var[i];
            let (al, vl) = self.child_moments(moments, self.lo[i], v, 0, table);
            let (ah, vh) = self.child_moments(moments, self.hi[i], v, 1, table);
            let contexts = if table.correlated[v as usize] { 3 } else { 1 };
            let mo = &mut moments[i];
            for ctx in 0..contexts {
                let p1 = table.p[v as usize][ctx];
                let avg = (1.0 - p1) * al + p1 * ah;
                let var = (1.0 - p1) * (vl + (al - avg) * (al - avg))
                    + p1 * (vh + (ah - avg) * (ah - avg));
                mo.avg[ctx] = avg;
                mo.var[ctx] = var;
            }
        }
    }

    /// The average of the whole function under each measure: the
    /// bottom-up pass of [`Snapshot::profile`] alone, read at the root.
    ///
    /// # Panics
    ///
    /// Panics if a measure does not cover the manager's variables.
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_dd::{ChainMeasure, Manager, Var};
    ///
    /// let mut m = Manager::new(2);
    /// let x0 = m.bdd_var(Var(0));
    /// let x1 = m.bdd_var(Var(1));
    /// let both = m.bdd_and(x0, x1);
    /// let uniform = ChainMeasure::uniform(2);
    /// let skewed = ChainMeasure::new(vec![
    ///     charfree_dd::VarMeasure::Independent(0.5),
    ///     charfree_dd::VarMeasure::Independent(1.0),
    /// ]);
    /// let means = m.snapshot(both.as_add()).means(&[&uniform, &skewed]);
    /// assert_eq!(means, vec![0.25, 0.5]);
    /// ```
    pub fn means(&self, measures: &[&ChainMeasure]) -> Vec<f64> {
        let tables = self.tables(measures);
        if self.root & TERM != 0 {
            return vec![self.terminals[(self.root & !TERM) as usize]; tables.len()];
        }
        let mut moments = vec![Moments::default(); self.len()];
        tables
            .iter()
            .map(|table| {
                self.bottom_up(table, &mut moments);
                moments[self.root as usize].avg[0]
            })
            .collect()
    }

    fn tables(&self, measures: &[&ChainMeasure]) -> Vec<MeasureTable> {
        measures
            .iter()
            .map(|m| MeasureTable::new(m, self.num_vars))
            .collect()
    }

    /// Per-node statistics and reach probabilities under each of `measures`
    /// (see [`ChainMeasure`]), in one bottom-up and one top-down pass per
    /// measure.
    ///
    /// For every internal node and measure the profile holds the
    /// measure-weighted average and variance of the node's sub-function,
    /// mixed over the contexts in which the node is reached (summed in
    /// ascending context order), and the probability that a random path
    /// under the measure passes through it; min and max are
    /// measure-independent. A node the measure never reaches falls back to
    /// its unconditioned statistics, with reach 0. With
    /// [`ChainMeasure::uniform`] these are the paper's plain statistics
    /// (Eqs. 5–7) and reach probabilities.
    ///
    /// # Panics
    ///
    /// Panics if a measure does not cover the manager's variables.
    ///
    /// # Examples
    ///
    /// The paper's Example 4: a node whose cofactors have averages 10 and 5
    /// (variances 0 and 25) gets `avg = 7.5`, `var = 18.75`.
    ///
    /// ```
    /// use charfree_dd::{ChainMeasure, Manager, Var};
    ///
    /// let mut m = Manager::new(2);
    /// let x0 = m.bdd_var(Var(0));
    /// let x1 = m.bdd_var(Var(1));
    /// let c0 = m.constant(0.0);
    /// let c10 = m.constant(10.0);
    /// let lo = m.add_ite(x1, c10, c0); // avg 5, var 25
    /// let f = m.add_ite(x0, c10, lo); // avg 7.5, var 18.75
    /// let snap = m.snapshot(f);
    /// let profile = snap.profile(&[&ChainMeasure::uniform(2)]);
    /// let root = profile.node(snap.len() - 1, 0);
    /// assert_eq!((root.stats.avg, root.stats.var), (7.5, 18.75));
    /// assert_eq!((root.stats.max, root.reach), (10.0, 1.0));
    /// ```
    pub fn profile(&self, measures: &[&ChainMeasure]) -> DenseProfile {
        let tables = self.tables(measures);
        let k = tables.len();
        let n = self.len();

        let mut term_reach = vec![0.0f64; self.terminals.len() * k];
        if self.root & TERM != 0 {
            term_reach.fill(1.0);
        }
        let mut reach = vec![0.0f64; n * k];
        let mut avg = vec![0.0f64; n * k];
        let mut var = vec![0.0f64; n * k];
        // Per measure: its bottom-up moments, then its top-down reach mass
        // per (node, context); terminals are always reached in context 0.
        let mut moments = vec![Moments::default(); n];
        let mut mass = vec![[0.0f64; 3]; n];
        for (t, table) in tables.iter().enumerate() {
            self.bottom_up(table, &mut moments);
            if n > 0 {
                mass.fill([0.0; 3]);
                mass[self.root as usize][0] = 1.0;
            }
            // Reverse post-order visits every parent before its children,
            // so a node's mass is final when the node comes up.
            for i in (0..n).rev() {
                let v = self.var[i];
                let e = i * k + t;
                let w3 = mass[i];

                // Mix the node's contexts, from raw moments.
                let mo = &moments[i];
                let (mut w_sum, mut m1, mut m2) = (0.0f64, 0.0f64, 0.0f64);
                for (ctx, &w) in w3.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    let (a, vv) = (mo.avg[ctx], mo.var[ctx]);
                    w_sum += w;
                    m1 += w * a;
                    m2 += w * (vv + a * a);
                }
                reach[e] = w_sum;
                if w_sum > 0.0 {
                    avg[e] = m1 / w_sum;
                    var[e] = (m2 / w_sum - avg[e] * avg[e]).max(0.0);
                } else {
                    avg[e] = mo.avg[0];
                    var[e] = mo.var[0];
                }

                // Hand the mass on to the children.
                for (ctx, &w) in w3.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    let p1 = table.p[v as usize][ctx];
                    for (child, branch, share) in [(self.lo[i], 0u8, 1.0 - p1), (self.hi[i], 1, p1)]
                    {
                        if share == 0.0 {
                            continue;
                        }
                        if child & TERM != 0 {
                            term_reach[(child & !TERM) as usize * k + t] += w * share;
                        } else {
                            let cctx = self.child_context(child, v, branch, table);
                            mass[child as usize][cctx] += w * share;
                        }
                    }
                }
            }
        }

        // Min/max, bottom-up.
        let mut min = vec![0.0f64; n];
        let mut max = vec![0.0f64; n];
        for i in 0..n {
            let bounds = |r: u32| {
                if r & TERM != 0 {
                    let x = self.terminals[(r & !TERM) as usize];
                    (x, x)
                } else {
                    (min[r as usize], max[r as usize])
                }
            };
            let (lmin, lmax) = bounds(self.lo[i]);
            let (hmin, hmax) = bounds(self.hi[i]);
            min[i] = lmin.min(hmin);
            max[i] = lmax.max(hmax);
        }

        DenseProfile {
            k,
            reach,
            avg,
            var,
            min,
            max,
            term_reach,
        }
    }

    /// A dry-run sizer for collapses of the prefixes of `order`: collapsing
    /// "the `k` lowest-ranked nodes" replaces each `order[..k]` node `i` by
    /// the terminal `leaves[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` does not have one value per internal node or if
    /// `order` names a node out of range.
    pub fn collapse_sizer(&self, order: &[u32], leaves: &[f64]) -> CollapseSizer<'_> {
        assert_eq!(leaves.len(), self.len(), "one leaf per internal node");
        let mut rank = vec![u32::MAX; self.len()];
        for (pos, &i) in order.iter().enumerate() {
            rank[i as usize] = pos as u32;
        }
        CollapseSizer {
            snap: self,
            rank,
            leaf_bits: leaves.iter().map(|&x| canonical_f64_bits(x)).collect(),
            live: vec![false; self.len()],
            image: vec![0; self.len()],
            unique: FxHashMap::default(),
            leaves: FxHashMap::default(),
        }
    }
}

/// Statistics of every node of a [`Snapshot`] under `K` measures (see
/// [`Snapshot::profile`]).
#[derive(Debug, Clone)]
pub struct DenseProfile {
    k: usize,
    reach: Vec<f64>,
    avg: Vec<f64>,
    var: Vec<f64>,
    min: Vec<f64>,
    max: Vec<f64>,
    term_reach: Vec<f64>,
}

impl DenseProfile {
    /// Statistics and reach of internal node `i` under measure `t`.
    #[inline]
    pub fn node(&self, i: usize, t: usize) -> MeasuredNode {
        let e = i * self.k + t;
        MeasuredNode {
            stats: NodeStats {
                avg: self.avg[e],
                var: self.var[e],
                min: self.min[i],
                max: self.max[i],
            },
            reach: self.reach[e],
        }
    }

    /// Reach probability of terminal `j` (in [`Snapshot::terminal_values`]
    /// order) under measure `t`.
    #[inline]
    pub fn terminal_reach(&self, j: usize, t: usize) -> f64 {
        self.term_reach[j * self.k + t]
    }
}

/// Reusable scratch for [`CollapseSizer::collapsed_size`], made by
/// [`Snapshot::collapse_sizer`].
#[derive(Debug)]
pub struct CollapseSizer<'s> {
    snap: &'s Snapshot,
    /// Position of each node in the collapse order (`u32::MAX`: never).
    rank: Vec<u32>,
    leaf_bits: Vec<u64>,
    live: Vec<bool>,
    /// Reference of each live node's image in the scratch hash-cons.
    image: Vec<u32>,
    unique: FxHashMap<(u32, u32, u32), u32>,
    leaves: FxHashMap<u64, u32>,
}

impl CollapseSizer<'_> {
    /// The size [`Manager::size`] would report for [`Manager::collapse`]
    /// of the snapshot's root with the `k` lowest-ranked nodes replaced,
    /// computed without touching the manager.
    ///
    /// It reduces exactly as the manager does: terminals are keyed by
    /// canonical bits (`-0.0` folds into `0.0`), a node whose children
    /// coincide disappears, equal `(var, lo, hi)` triples share one node,
    /// and a replaced ancestor hides its whole subtree.
    pub fn collapsed_size(&mut self, k: usize) -> usize {
        let s = self.snap;
        let n = s.len();
        if n == 0 {
            return 1;
        }
        let k = k.min(u32::MAX as usize) as u32;
        self.unique.clear();
        self.leaves.clear();
        // Live nodes: reachable from the root without entering a replaced
        // node.
        self.live.fill(false);
        self.live[s.root as usize] = true;
        for i in (0..n).rev() {
            if !self.live[i] || self.rank[i] < k {
                continue;
            }
            for c in [s.lo[i], s.hi[i]] {
                if c & TERM == 0 {
                    self.live[c as usize] = true;
                }
            }
        }
        for i in 0..n {
            if !self.live[i] {
                continue;
            }
            self.image[i] = if self.rank[i] < k {
                intern_leaf(&mut self.leaves, self.leaf_bits[i])
            } else {
                let lo = self.image_of(s.lo[i]);
                let hi = self.image_of(s.hi[i]);
                if lo == hi {
                    lo
                } else {
                    let next = self.unique.len() as u32;
                    *self.unique.entry((s.var[i], lo, hi)).or_insert(next)
                }
            };
        }
        self.unique.len() + self.leaves.len()
    }

    /// The image of a child reference: an original terminal interns its
    /// value, an internal node was imaged earlier in post-order.
    #[inline]
    fn image_of(&mut self, r: u32) -> u32 {
        if r & TERM != 0 {
            let value = self.snap.terminals[(r & !TERM) as usize];
            intern_leaf(&mut self.leaves, canonical_f64_bits(value))
        } else {
            self.image[r as usize]
        }
    }
}

#[inline]
fn intern_leaf(leaves: &mut FxHashMap<u64, u32>, bits: u64) -> u32 {
    let next = leaves.len() as u32;
    TERM | *leaves.entry(bits).or_insert(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Var;
    use crate::stats::VarMeasure;
    use charfree_netlist::testutil::{check, Gen};

    /// The node-major bottom-up pass `profile` and `means` ran before they
    /// went measure by measure: entry `i * k + t` holds node `i` under
    /// measure `t`.
    fn reference_bottom_up(snap: &Snapshot, tables: &[MeasureTable]) -> Vec<Moments> {
        let k = tables.len();
        let n = snap.len();
        let mut moments = vec![Moments::default(); n * k];
        let child = |moments: &[Moments], t: usize, r: u32, v: u32, branch: u8, table| {
            if r & TERM != 0 {
                return (snap.terminals[(r & !TERM) as usize], 0.0);
            }
            let ctx = snap.child_context(r, v, branch, table);
            let mo: &Moments = &moments[r as usize * k + t];
            (mo.avg[ctx], mo.var[ctx])
        };
        for i in 0..n {
            let v = snap.var[i];
            for (t, table) in tables.iter().enumerate() {
                let (al, vl) = child(&moments, t, snap.lo[i], v, 0, table);
                let (ah, vh) = child(&moments, t, snap.hi[i], v, 1, table);
                let contexts = if table.correlated[v as usize] { 3 } else { 1 };
                for ctx in 0..contexts {
                    let p1 = table.p[v as usize][ctx];
                    let avg = (1.0 - p1) * al + p1 * ah;
                    let var = (1.0 - p1) * (vl + (al - avg) * (al - avg))
                        + p1 * (vh + (ah - avg) * (ah - avg));
                    let mo = &mut moments[i * k + t];
                    mo.avg[ctx] = avg;
                    mo.var[ctx] = var;
                }
            }
        }
        moments
    }

    /// The node-major `means`: the oracle for the streaming one.
    fn reference_means(snap: &Snapshot, measures: &[&ChainMeasure]) -> Vec<f64> {
        let tables = snap.tables(measures);
        if snap.root & TERM != 0 {
            return vec![snap.terminals[(snap.root & !TERM) as usize]; tables.len()];
        }
        let k = tables.len();
        let moments = reference_bottom_up(snap, &tables);
        (0..k)
            .map(|t| moments[snap.root as usize * k + t].avg[0])
            .collect()
    }

    /// The node-major `profile` (one `n·k` moments array, one top-down
    /// pass over every node and measure): the oracle for the streaming one.
    fn reference_profile(snap: &Snapshot, measures: &[&ChainMeasure]) -> DenseProfile {
        let tables = snap.tables(measures);
        let k = tables.len();
        let n = snap.len();
        let moments = reference_bottom_up(snap, &tables);
        let mut mass = vec![[0.0f64; 3]; n * k];
        let mut term_reach = vec![0.0f64; snap.terminals.len() * k];
        if snap.root & TERM != 0 {
            term_reach.fill(1.0);
        } else {
            for t in 0..k {
                mass[snap.root as usize * k + t][0] = 1.0;
            }
        }
        let mut reach = vec![0.0f64; n * k];
        let mut avg = vec![0.0f64; n * k];
        let mut var = vec![0.0f64; n * k];
        for i in (0..n).rev() {
            let v = snap.var[i];
            for (t, table) in tables.iter().enumerate() {
                let e = i * k + t;
                let w3 = mass[e];
                let mo = &moments[e];
                let (mut w_sum, mut m1, mut m2) = (0.0f64, 0.0f64, 0.0f64);
                for (ctx, &w) in w3.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    let (a, vv) = (mo.avg[ctx], mo.var[ctx]);
                    w_sum += w;
                    m1 += w * a;
                    m2 += w * (vv + a * a);
                }
                reach[e] = w_sum;
                if w_sum > 0.0 {
                    avg[e] = m1 / w_sum;
                    var[e] = (m2 / w_sum - avg[e] * avg[e]).max(0.0);
                } else {
                    avg[e] = mo.avg[0];
                    var[e] = mo.var[0];
                }
                for (ctx, &w) in w3.iter().enumerate() {
                    if w <= 0.0 {
                        continue;
                    }
                    let p1 = table.p[v as usize][ctx];
                    for (child, branch, share) in [(snap.lo[i], 0u8, 1.0 - p1), (snap.hi[i], 1, p1)]
                    {
                        if share == 0.0 {
                            continue;
                        }
                        if child & TERM != 0 {
                            term_reach[(child & !TERM) as usize * k + t] += w * share;
                        } else {
                            let cctx = snap.child_context(child, v, branch, table);
                            mass[child as usize * k + t][cctx] += w * share;
                        }
                    }
                }
            }
        }
        let mut min = vec![0.0f64; n];
        let mut max = vec![0.0f64; n];
        for i in 0..n {
            let bounds = |r: u32| {
                if r & TERM != 0 {
                    let x = snap.terminals[(r & !TERM) as usize];
                    (x, x)
                } else {
                    (min[r as usize], max[r as usize])
                }
            };
            let (lmin, lmax) = bounds(snap.lo[i]);
            let (hmin, hmax) = bounds(snap.hi[i]);
            min[i] = lmin.min(hmin);
            max[i] = lmax.max(hmax);
        }
        DenseProfile {
            k,
            reach,
            avg,
            var,
            min,
            max,
            term_reach,
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// Six variables, three interleaved transition pairs.
    const PAIRS: u32 = 3;

    /// A sum of weighted conjunctions of literals: value-rich, with
    /// shared sub-diagrams and skipped levels.
    fn random_terms(g: &mut Gen) -> Vec<(Vec<(u32, bool)>, f64)> {
        g.vec(1..7, |g| {
            let literals = g.vec(1..4, |g| (g.range(0..2 * PAIRS), g.below(2) == 1));
            (literals, g.float(-4.0..12.0))
        })
    }

    fn build_terms(m: &mut Manager, terms: &[(Vec<(u32, bool)>, f64)]) -> Add {
        let mut f = m.add_zero();
        for (literals, weight) in terms {
            let mut product = m.bdd_true();
            for &(v, positive) in literals {
                let x = m.bdd_var(Var(v));
                let literal = if positive { x } else { m.bdd_not(x) };
                product = m.bdd_and(product, literal);
            }
            let term = m.add_scale(product.as_add(), *weight);
            f = m.add_plus(f, term);
        }
        f
    }

    #[test]
    fn streaming_profile_and_means_match_the_node_major_passes_bit_for_bit() {
        let uniform = ChainMeasure::uniform(2 * PAIRS);
        let transitions: Vec<ChainMeasure> = [0.05, 0.15, 0.3, 0.5, 0.8]
            .iter()
            .map(|&t| ChainMeasure::interleaved_transitions(PAIRS, 0.5, t))
            .collect();
        let skewed = ChainMeasure::new(
            [0.9, 0.2, 0.02, 0.7, 0.5, 0.98]
                .map(VarMeasure::Independent)
                .to_vec(),
        );
        let mut measures: Vec<&ChainMeasure> = vec![&uniform];
        measures.extend(&transitions);
        measures.push(&skewed);
        let generate = |g: &mut Gen| (random_terms(g), g.below(3) as usize);
        check(
            "streaming_profile_and_means_match_the_node_major_passes_bit_for_bit",
            64,
            generate,
            |(terms, which)| {
                let mut m = Manager::new(2 * PAIRS);
                let f = build_terms(&mut m, terms);
                let snap = m.snapshot(f);
                // The whole family at once, and one measure alone.
                let sets = [measures.clone(), vec![measures[*which * 3]]];
                for set in &sets {
                    let (got, want) = (snap.profile(set), reference_profile(&snap, set));
                    assert_eq!(got.k, want.k);
                    assert_eq!(bits(&got.reach), bits(&want.reach), "reach");
                    assert_eq!(bits(&got.avg), bits(&want.avg), "avg");
                    assert_eq!(bits(&got.var), bits(&want.var), "var");
                    assert_eq!(bits(&got.min), bits(&want.min), "min");
                    assert_eq!(bits(&got.max), bits(&want.max), "max");
                    assert_eq!(bits(&got.term_reach), bits(&want.term_reach), "term_reach");
                    assert_eq!(
                        bits(&snap.means(set)),
                        bits(&reference_means(&snap, set)),
                        "means"
                    );
                }
            },
        );
    }

    /// Σ (v+1)·x_v over `n` variables: value-rich, every node distinct.
    fn weighted_sum(m: &mut Manager, n: u32) -> Add {
        let mut f = m.add_zero();
        for v in 0..n {
            let x = m.bdd_var(Var(v));
            let d = m.add_scale(x.as_add(), 1.0 + v as f64);
            f = m.add_plus(f, d);
        }
        f
    }

    #[test]
    fn post_order_puts_children_first_and_root_last() {
        let mut m = Manager::new(4);
        let f = weighted_sum(&mut m, 4);
        let snap = m.snapshot(f);
        assert_eq!(snap.size(), m.size(f.node()));
        assert_eq!(snap.node_id(snap.len() - 1), f.node());
        for i in 0..snap.len() {
            for c in [snap.lo[i], snap.hi[i]] {
                assert!(c & TERM != 0 || (c as usize) < i, "child after parent");
            }
        }
        let values = snap.terminal_values();
        assert!(values.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn snapshot_is_independent_of_arena_layout() {
        // The same function built in two arenas with different histories
        // snapshots identically.
        let mut a = Manager::new(5);
        let fa = weighted_sum(&mut a, 5);
        let mut b = Manager::new(5);
        let _noise = weighted_sum(&mut b, 3);
        let x4 = b.bdd_var(Var(4));
        let _more = b.bdd_not(x4);
        let fb = weighted_sum(&mut b, 5);
        let (sa, sb) = (a.snapshot(fa), b.snapshot(fb));
        assert_eq!(sa.var, sb.var);
        assert_eq!(sa.lo, sb.lo);
        assert_eq!(sa.hi, sb.hi);
        assert_eq!(sa.terminals, sb.terminals);
    }

    #[test]
    fn terminal_root() {
        let mut m = Manager::new(2);
        let f = m.constant(3.5);
        let snap = m.snapshot(f);
        assert!(snap.is_empty());
        assert_eq!(snap.size(), 1);
        assert_eq!(snap.means(&[&ChainMeasure::uniform(2)]), vec![3.5]);
        let profile = snap.profile(&[&ChainMeasure::uniform(2)]);
        assert_eq!(profile.terminal_reach(0, 0), 1.0);
        assert_eq!(snap.collapse_sizer(&[], &[]).collapsed_size(0), 1);
    }

    #[test]
    fn uniform_statistics_ignore_skipped_levels() {
        // f tests only x1; its statistics must not change because x0 and
        // x2 exist.
        let mut m = Manager::new(3);
        let x1 = m.bdd_var(Var(1));
        let c2 = m.constant(2.0);
        let c6 = m.constant(6.0);
        let f = m.add_ite(x1, c6, c2);
        let snap = m.snapshot(f);
        let root = snap.profile(&[&ChainMeasure::uniform(3)]).node(0, 0);
        assert_eq!((root.stats.avg, root.stats.var), (4.0, 4.0));
        assert_eq!((root.stats.min, root.stats.max), (2.0, 6.0));
    }

    #[test]
    fn collapsed_size_matches_materialized_collapse() {
        let mut m = Manager::new(6);
        let f = weighted_sum(&mut m, 6);
        let snap = m.snapshot(f);
        let order: Vec<u32> = (0..snap.len() as u32).collect();
        // Leaves that coincide with existing terminals and with each other.
        let leaves: Vec<f64> = (0..snap.len()).map(|i| (i % 4) as f64).collect();
        let mut sizer = snap.collapse_sizer(&order, &leaves);
        for k in 0..=snap.len() {
            let repl: Vec<(NodeId, f64)> = order[..k]
                .iter()
                .map(|&i| (snap.node_id(i as usize), leaves[i as usize]))
                .collect();
            let g = m.collapse(f, &repl);
            assert_eq!(sizer.collapsed_size(k), m.size(g.node()), "k = {k}");
        }
    }
}
