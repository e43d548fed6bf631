//! The decision-diagram manager: arenas, unique tables, computed tables and
//! the core `mk` constructor that keeps diagrams reduced and canonical.

use crate::budget::{Budget, DdError};
use crate::hash::{mix64, FxHashMap, FxHashSet};
use crate::marks::Marks;
use crate::node::{Node, NodeId, Var};

/// A reduced ordered *binary* decision diagram rooted in a manager.
///
/// A `Bdd` is represented internally as an ADD whose terminals are exactly
/// `0.0` and `1.0`; the newtype keeps Boolean and arithmetic diagrams from
/// being mixed up at the API level ([C-NEWTYPE]).
///
/// # Examples
///
/// ```
/// use charfree_dd::{Manager, Var};
///
/// let mut m = Manager::new(2);
/// let x0 = m.bdd_var(Var(0));
/// let x1 = m.bdd_var(Var(1));
/// let f = m.bdd_and(x0, x1);
/// assert!(m.bdd_eval(f, &[true, true]));
/// assert!(!m.bdd_eval(f, &[true, false]));
/// ```
///
/// [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) NodeId);

/// A reduced ordered *algebraic* decision diagram (ADD): a map from Boolean
/// input vectors to `f64` values, rooted in a manager.
///
/// # Examples
///
/// ```
/// use charfree_dd::{Manager, Var};
///
/// let mut m = Manager::new(1);
/// let x = m.bdd_var(Var(0));
/// let heavy = m.constant(40.0);
/// let light = m.constant(10.0);
/// let f = m.add_ite(x, heavy, light);
/// assert_eq!(m.add_eval(f, &[true]), 40.0);
/// assert_eq!(m.add_eval(f, &[false]), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Add(pub(crate) NodeId);

impl Bdd {
    /// The underlying node handle (shared with the ADD view of the diagram).
    #[inline]
    pub fn node(self) -> NodeId {
        self.0
    }

    /// Reinterpret this Boolean diagram as a 0/1-valued ADD (free).
    #[inline]
    pub fn as_add(self) -> Add {
        Add(self.0)
    }

    /// Wrap a raw node handle obtained from [`Bdd::node`].
    ///
    /// The handle must originate from the same manager and designate a
    /// diagram with 0/1 terminals; this is not re-checked.
    #[inline]
    pub fn from_node(id: NodeId) -> Bdd {
        Bdd(id)
    }
}

impl Add {
    /// The underlying node handle.
    #[inline]
    pub fn node(self) -> NodeId {
        self.0
    }

    /// Wrap a raw node handle obtained from [`Add::node`].
    ///
    /// The handle must originate from the same manager and designate a
    /// diagram with numeric terminals; this is not re-checked.
    #[inline]
    pub fn from_node(id: NodeId) -> Add {
        Add(id)
    }
}

/// Binary operations understood by [`Manager::add_apply`].
///
/// Boolean operations interpret terminals `0.0`/`1.0`; arithmetic operations
/// work on arbitrary finite terminals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Boolean conjunction (terminals must be 0/1).
    And,
    /// Boolean disjunction (terminals must be 0/1).
    Or,
    /// Boolean exclusive or (terminals must be 0/1).
    Xor,
    /// Pointwise addition.
    Plus,
    /// Pointwise subtraction.
    Minus,
    /// Pointwise multiplication.
    Times,
    /// Pointwise minimum.
    Min,
    /// Pointwise maximum.
    Max,
}

impl BinOp {
    #[inline]
    fn eval(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::And => {
                debug_assert!(is_bool(a) && is_bool(b));
                if a != 0.0 && b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            BinOp::Or => {
                debug_assert!(is_bool(a) && is_bool(b));
                if a != 0.0 || b != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            BinOp::Xor => {
                debug_assert!(is_bool(a) && is_bool(b));
                if (a != 0.0) != (b != 0.0) {
                    1.0
                } else {
                    0.0
                }
            }
            BinOp::Plus => a + b,
            BinOp::Minus => a - b,
            BinOp::Times => a * b,
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    #[inline]
    fn opcode(self) -> u8 {
        match self {
            BinOp::And => 0,
            BinOp::Or => 1,
            BinOp::Xor => 2,
            BinOp::Plus => 3,
            BinOp::Minus => 4,
            BinOp::Times => 5,
            BinOp::Min => 6,
            BinOp::Max => 7,
        }
    }

    #[inline]
    fn is_commutative(self) -> bool {
        !matches!(self, BinOp::Minus)
    }
}

#[inline]
fn is_bool(v: f64) -> bool {
    v == 0.0 || v == 1.0
}

/// The direction in which [`Manager::try_add_plus_quantized`] snaps a sum
/// onto its grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rounding {
    /// To the nearest multiple of the quantum (`f64::round`).
    Nearest,
    /// Up to the next multiple of the quantum (`f64::ceil`), so the snapped
    /// value never falls below the exact one.
    Up,
}

/// What an apply recursion does beyond its [`BinOp`]: the computed-table
/// opcode it caches under and what its terminal case makes of the
/// operation's value. Each implementation gets its own compiled copy of
/// the one recursion, so the plain operations pay nothing for the
/// quantized sum.
trait Leaf: Copy {
    /// Whether [`Leaf::leaf`] is the identity, so that the operation's
    /// short-circuits may return an operand as it is.
    const IDENTITY: bool;
    fn code(self, op: BinOp) -> u8;
    fn leaf(self, v: f64) -> f64;
}

/// The plain operation: cached under the [`BinOp`]'s opcode, terminals as
/// computed.
#[derive(Debug, Clone, Copy)]
struct Exact;

impl Leaf for Exact {
    const IDENTITY: bool = true;
    #[inline]
    fn code(self, op: BinOp) -> u8 {
        op.opcode()
    }
    #[inline]
    fn leaf(self, v: f64) -> f64 {
        v
    }
}

/// A grid terminal values snap onto, with the opcode its quantized sums
/// are cached under: `q(0) = 0`, otherwise `v / quantum` rounded by
/// `rounding`, times `quantum`.
#[derive(Debug, Clone, Copy)]
struct Grid {
    quantum: f64,
    rounding: Rounding,
    code: u8,
}

impl Leaf for Grid {
    const IDENTITY: bool = false;
    #[inline]
    fn code(self, _: BinOp) -> u8 {
        self.code
    }
    #[inline]
    fn leaf(self, v: f64) -> f64 {
        if v == 0.0 {
            0.0
        } else {
            match self.rounding {
                Rounding::Nearest => (v / self.quantum).round() * self.quantum,
                Rounding::Up => (v / self.quantum).ceil() * self.quantum,
            }
        }
    }
}

/// The first computed-table opcode of the quantized sums ([`BinOp`]s use
/// the ones below); the one of grid `i` is `FIRST_GRID_CODE + i`.
const FIRST_GRID_CODE: u8 = 8;

/// Owner of all decision-diagram nodes.
///
/// All diagrams created by one manager share nodes (maximal sharing), which
/// is what makes equality checks O(1) and symbolic operations polynomial in
/// diagram size. Handles ([`Bdd`], [`Add`]) must never be mixed across
/// managers.
///
/// The variable order is the creation order: variable `Var(0)` is tested
/// first. Use [`Manager::permute`] to move a diagram to a different order.
///
/// # Examples
///
/// ```
/// use charfree_dd::{Manager, Var};
///
/// let mut m = Manager::new(3);
/// let x = m.bdd_var(Var(0));
/// let y = m.bdd_var(Var(1));
/// let same = m.bdd_and(x, y);
/// let again = m.bdd_and(x, y);
/// assert_eq!(same, again); // canonicity: equal functions, equal handles
/// ```
#[derive(Debug, Clone)]
pub struct Manager {
    nodes: Vec<Node>,
    terminals: Vec<f64>,
    unique: FxHashMap<Node, NodeId>,
    /// Terminals by the [`mix64`] of their bits.
    term_unique: FxHashMap<u64, NodeId>,
    cache2: FxHashMap<(u8, NodeId, NodeId), NodeId>,
    cache3: FxHashMap<(NodeId, NodeId, NodeId), NodeId>,
    /// The `(quantum bits, rounding)` of each quantized sum's opcode, in
    /// opcode order from [`FIRST_GRID_CODE`].
    grids: Vec<(u64, Rounding)>,
    num_vars: u32,
    zero: NodeId,
    one: NodeId,
}

// Managers move to and are shared across worker threads; the pass
// scratch is thread-local (see `marks`) so that stays true.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Manager>()
};

impl Manager {
    /// Creates a manager with `num_vars` decision variables.
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_dd::Manager;
    /// let m = Manager::new(4);
    /// assert_eq!(m.num_vars(), 4);
    /// ```
    pub fn new(num_vars: u32) -> Self {
        let mut m = Manager {
            nodes: Vec::new(),
            terminals: Vec::new(),
            unique: FxHashMap::default(),
            term_unique: FxHashMap::default(),
            cache2: FxHashMap::default(),
            cache3: FxHashMap::default(),
            grids: Vec::new(),
            num_vars,
            zero: NodeId::terminal(0),
            one: NodeId::terminal(0),
        };
        m.zero = m.terminal(0.0);
        m.one = m.terminal(1.0);
        m
    }

    /// Number of decision variables.
    #[inline]
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of live nodes in the arena (internal + terminal),
    /// across *all* diagrams; see [`Manager::size`] for a single diagram.
    pub fn arena_len(&self) -> usize {
        self.nodes.len() + self.terminals.len()
    }

    /// Approximate arena memory in bytes: node and terminal storage only
    /// (unique/computed hash tables are not counted). Budget checkpoints
    /// feed it to [`ApplyStats`](crate::ApplyStats) as the peak-arena
    /// figure.
    pub fn arena_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.terminals.len() * std::mem::size_of::<f64>()
    }

    /// Internal and terminal node counts, the shape [`Marks::with`]
    /// lays its slots out by.
    pub(crate) fn arena_counts(&self) -> (usize, usize) {
        (self.nodes.len(), self.terminals.len())
    }

    // ----- terminals -------------------------------------------------------

    /// Interns the terminal node for `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN (terminals must be totally ordered).
    pub fn terminal(&mut self, value: f64) -> NodeId {
        assert!(!value.is_nan(), "decision-diagram terminals cannot be NaN");
        // Fold -0.0 into +0.0 so that bit-level interning stays canonical.
        let value = if value == 0.0 { 0.0 } else { value };
        let key = mix64(value.to_bits());
        if let Some(&id) = self.term_unique.get(&key) {
            return id;
        }
        let id = NodeId::terminal(self.terminals.len() as u32);
        self.terminals.push(value);
        self.term_unique.insert(key, id);
        id
    }

    /// The constant ADD with value `value` everywhere.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn constant(&mut self, value: f64) -> Add {
        Add(self.terminal(value))
    }

    /// Value of a terminal node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a terminal of this manager.
    #[inline]
    pub fn terminal_value(&self, id: NodeId) -> f64 {
        assert!(id.is_terminal(), "terminal_value on internal node");
        self.terminals[id.arena_index()]
    }

    /// The constant-false BDD.
    #[inline]
    pub fn bdd_false(&self) -> Bdd {
        Bdd(self.zero)
    }

    /// The constant-true BDD.
    #[inline]
    pub fn bdd_true(&self) -> Bdd {
        Bdd(self.one)
    }

    /// The all-zero ADD.
    #[inline]
    pub fn add_zero(&self) -> Add {
        Add(self.zero)
    }

    // ----- structural accessors -------------------------------------------

    /// The decision variable tested at node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    #[inline]
    pub fn node_var(&self, id: NodeId) -> Var {
        assert!(!id.is_terminal(), "node_var on terminal");
        Var(self.nodes[id.arena_index()].var)
    }

    /// The `(lo, hi)` children of internal node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a terminal.
    #[inline]
    pub fn children(&self, id: NodeId) -> (NodeId, NodeId) {
        assert!(!id.is_terminal(), "children of terminal");
        let n = &self.nodes[id.arena_index()];
        (n.lo, n.hi)
    }

    #[inline]
    fn level(&self, id: NodeId) -> u32 {
        if id.is_terminal() {
            u32::MAX
        } else {
            self.nodes[id.arena_index()].var
        }
    }

    /// Cofactors of `f` with respect to the variable at `level`; identity if
    /// `f` does not test that level at its root.
    #[inline]
    fn expand(&self, f: NodeId, level: u32) -> (NodeId, NodeId) {
        if self.level(f) == level {
            let n = &self.nodes[f.arena_index()];
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// The reduced, canonical node testing `var` with children `lo`/`hi`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range or if either child tests a variable
    /// at or above `var` (order violation).
    pub(crate) fn mk(&mut self, var: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        assert!(var < self.num_vars, "variable out of range");
        debug_assert!(
            self.level(lo) > var && self.level(hi) > var,
            "order violation"
        );
        let key = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&key) {
            return id;
        }
        let id = NodeId::internal(self.nodes.len() as u32);
        self.nodes.push(key);
        self.unique.insert(key, id);
        id
    }

    // ----- BDD construction -------------------------------------------------

    /// The BDD of the single variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn bdd_var(&mut self, var: Var) -> Bdd {
        let (zero, one) = (self.zero, self.one);
        Bdd(self.mk(var.0, zero, one))
    }

    /// Boolean complement.
    pub fn bdd_not(&mut self, f: Bdd) -> Bdd {
        // XOR with true keeps the cache shared with other operations.
        let one = Bdd(self.one);
        self.bdd_xor(f, one)
    }

    /// Boolean conjunction.
    pub fn bdd_and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(BinOp::And, f.0, g.0))
    }

    /// Boolean disjunction.
    pub fn bdd_or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(BinOp::Or, f.0, g.0))
    }

    /// Boolean exclusive or.
    pub fn bdd_xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        Bdd(self.apply(BinOp::Xor, f.0, g.0))
    }

    /// Boolean difference (`f ∧ ¬g`).
    pub fn bdd_diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.bdd_not(g);
        self.bdd_and(f, ng)
    }

    /// If-then-else: `(f ∧ g) ∨ (¬f ∧ h)`.
    pub fn bdd_ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        Bdd(self.ite_rec(f.0, g.0, h.0))
    }

    // ----- ADD construction -------------------------------------------------

    /// Applies a pointwise binary operation to two ADDs.
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_dd::{BinOp, Manager, Var};
    ///
    /// let mut m = Manager::new(1);
    /// let x = m.bdd_var(Var(0));
    /// let two = m.constant(2.0);
    /// let five = m.constant(5.0);
    /// let f = m.add_ite(x, two, five); // x ? 2 : 5
    /// let g = m.add_apply(BinOp::Plus, f, f);
    /// assert_eq!(m.add_eval(g, &[false]), 10.0);
    /// ```
    pub fn add_apply(&mut self, op: BinOp, f: Add, g: Add) -> Add {
        Add(self.apply(op, f.0, g.0))
    }

    /// Pointwise sum (`add_sum` in the paper's pseudo-code, Fig. 6).
    pub fn add_plus(&mut self, f: Add, g: Add) -> Add {
        self.add_apply(BinOp::Plus, f, g)
    }

    /// Pointwise product.
    pub fn add_times(&mut self, f: Add, g: Add) -> Add {
        self.add_apply(BinOp::Times, f, g)
    }

    /// Multiplies every terminal by the constant `c`
    /// (`add_times(deltaC, C_i)` in the paper's pseudo-code).
    ///
    /// # Panics
    ///
    /// Panics if `c` is NaN.
    pub fn add_scale(&mut self, f: Add, c: f64) -> Add {
        let k = self.constant(c);
        self.add_times(f, k)
    }

    /// Selects between two ADDs with a Boolean condition: `b ? g : h`
    /// pointwise.
    pub fn add_ite(&mut self, b: Bdd, g: Add, h: Add) -> Add {
        Add(self.ite_rec(b.0, g.0, h.0))
    }

    /// Remaps every terminal through `f64 -> f64` function `op`.
    ///
    /// The result is reduced (merged equal terminals collapse structure).
    /// Not cached across calls.
    ///
    /// # Panics
    ///
    /// Panics if `op` produces NaN.
    pub fn add_map_terminals(&mut self, f: Add, op: impl Fn(f64) -> f64) -> Add {
        Marks::with(self.arena_counts(), |memo| {
            Add(self.map_terminals_rec(f.0, &op, memo))
        })
    }

    fn map_terminals_rec(
        &mut self,
        f: NodeId,
        op: &impl Fn(f64) -> f64,
        memo: &mut Marks,
    ) -> NodeId {
        if let Some(r) = memo.memo(f) {
            return NodeId::from_bits(r);
        }
        let r = if f.is_terminal() {
            let v = op(self.terminal_value(f));
            self.terminal(v)
        } else {
            let (lo, hi) = self.children(f);
            let var = self.level(f);
            let lo2 = self.map_terminals_rec(lo, op, memo);
            let hi2 = self.map_terminals_rec(hi, op, memo);
            // `mk` would find `f` itself in the unique table.
            if (lo2, hi2) == (lo, hi) {
                f
            } else {
                self.mk(var, lo2, hi2)
            }
        };
        memo.remember(f, r.to_bits());
        r
    }

    /// The BDD of input vectors whose ADD value satisfies `pred`.
    ///
    /// Useful to enumerate, e.g., all transitions whose switching
    /// capacitance reaches the maximum.
    pub fn add_threshold(&mut self, f: Add, pred: impl Fn(f64) -> bool) -> Bdd {
        let g = self.add_map_terminals(f, |v| if pred(v) { 1.0 } else { 0.0 });
        Bdd(g.0)
    }

    // ----- budgeted (fallible) operations -----------------------------------
    //
    // The operations the model builder runs under a budget have `try_*`
    // twins taking a `&Budget`; their infallible counterparts above run
    // the same recursions with `Budget::unlimited()`. On `Err`, partially
    // built nodes stay in the arena as garbage until the next `compact`.

    /// Budgeted [`Manager::bdd_not`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_bdd_not(&mut self, f: Bdd, budget: &Budget) -> Result<Bdd, DdError> {
        let one = Bdd(self.one);
        self.try_bdd_xor(f, one, budget)
    }

    /// Budgeted [`Manager::bdd_and`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_bdd_and(&mut self, f: Bdd, g: Bdd, budget: &Budget) -> Result<Bdd, DdError> {
        Ok(Bdd(self.apply_op(BinOp::And, Exact, f.0, g.0, budget)?))
    }

    /// Budgeted [`Manager::bdd_or`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_bdd_or(&mut self, f: Bdd, g: Bdd, budget: &Budget) -> Result<Bdd, DdError> {
        Ok(Bdd(self.apply_op(BinOp::Or, Exact, f.0, g.0, budget)?))
    }

    /// Budgeted [`Manager::bdd_xor`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_bdd_xor(&mut self, f: Bdd, g: Bdd, budget: &Budget) -> Result<Bdd, DdError> {
        Ok(Bdd(self.apply_op(BinOp::Xor, Exact, f.0, g.0, budget)?))
    }

    /// Budgeted Boolean equivalence (`f ↔ g`).
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_bdd_xnor(&mut self, f: Bdd, g: Bdd, budget: &Budget) -> Result<Bdd, DdError> {
        let x = self.try_bdd_xor(f, g, budget)?;
        self.try_bdd_not(x, budget)
    }

    /// Budgeted [`Manager::bdd_ite`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_bdd_ite(&mut self, f: Bdd, g: Bdd, h: Bdd, budget: &Budget) -> Result<Bdd, DdError> {
        Ok(Bdd(self.ite_op(f.0, g.0, h.0, budget)?))
    }

    /// Budgeted [`Manager::add_apply`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    fn try_add_apply(
        &mut self,
        op: BinOp,
        f: Add,
        g: Add,
        budget: &Budget,
    ) -> Result<Add, DdError> {
        Ok(Add(self.apply_op(op, Exact, f.0, g.0, budget)?))
    }

    /// Budgeted [`Manager::add_plus`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_add_plus(&mut self, f: Add, g: Add, budget: &Budget) -> Result<Add, DdError> {
        self.try_add_apply(BinOp::Plus, f, g, budget)
    }

    /// Budgeted pointwise sum snapped onto a grid: `q(f + g)`, where
    /// `q(0) = 0` and otherwise `q(v) = (v / quantum).round() * quantum`
    /// ([`Rounding::Nearest`]) or `(v / quantum).ceil() * quantum`
    /// ([`Rounding::Up`]).
    ///
    /// The result is the diagram `add_map_terminals(add_plus(f, g), q)`
    /// builds, made in one apply pass whose terminal case is `q(a + b)`:
    /// the unquantized sum is never built. Results are cached in the
    /// computed table per `(quantum, rounding)`, so no result is reused
    /// under another grid.
    ///
    /// # Examples
    ///
    /// ```
    /// use charfree_dd::{Budget, Manager, Rounding, Var};
    ///
    /// let mut m = Manager::new(1);
    /// let x = m.bdd_var(Var(0));
    /// let (a, b) = (m.constant(1.2), m.constant(0.7));
    /// let f = m.add_ite(x, a, b); // x ? 1.2 : 0.7
    /// let g = m.constant(0.2);
    /// let up = m.try_add_plus_quantized(f, g, 0.5, Rounding::Up, &Budget::unlimited())?;
    /// assert_eq!(m.add_eval(up, &[true]), 1.5);
    /// assert_eq!(m.add_eval(up, &[false]), 1.0);
    /// # Ok::<(), charfree_dd::DdError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is not finite and positive.
    pub fn try_add_plus_quantized(
        &mut self,
        f: Add,
        g: Add,
        quantum: f64,
        rounding: Rounding,
        budget: &Budget,
    ) -> Result<Add, DdError> {
        assert!(
            quantum.is_finite() && quantum > 0.0,
            "quantum must be finite and positive"
        );
        let grid = Grid {
            quantum,
            rounding,
            code: self.grid_code(quantum, rounding),
        };
        Ok(Add(self.apply_op(BinOp::Plus, grid, f.0, g.0, budget)?))
    }

    /// The computed-table opcode of the quantized sum on the grid of
    /// `quantum` and `rounding`. When every opcode is taken, the quantized
    /// sums' entries are dropped and the numbering starts over.
    fn grid_code(&mut self, quantum: f64, rounding: Rounding) -> u8 {
        let key = (quantum.to_bits(), rounding);
        let i = match self.grids.iter().position(|&k| k == key) {
            Some(i) => i,
            None => {
                if self.grids.len() == usize::from(u8::MAX - FIRST_GRID_CODE) + 1 {
                    self.cache2.retain(|k, _| k.0 < FIRST_GRID_CODE);
                    self.grids.clear();
                }
                self.grids.push(key);
                self.grids.len() - 1
            }
        };
        FIRST_GRID_CODE + i as u8
    }

    /// Budgeted [`Manager::add_times`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    pub fn try_add_times(&mut self, f: Add, g: Add, budget: &Budget) -> Result<Add, DdError> {
        self.try_add_apply(BinOp::Times, f, g, budget)
    }

    /// Budgeted [`Manager::add_scale`].
    ///
    /// # Errors
    ///
    /// Returns [`DdError::BudgetExceeded`] when `budget` runs out.
    ///
    /// # Panics
    ///
    /// Panics if `c` is NaN.
    pub fn try_add_scale(&mut self, f: Add, c: f64, budget: &Budget) -> Result<Add, DdError> {
        let k = self.constant(c);
        self.try_add_times(f, k, budget)
    }

    // ----- core recursions --------------------------------------------------

    /// Infallible apply: delegates to the budgeted recursion with an
    /// unlimited budget, which cannot fail.
    fn apply(&mut self, op: BinOp, f: NodeId, g: NodeId) -> NodeId {
        self.apply_op(op, Exact, f, g, &Budget::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// One top-level apply: the recursion counts its steps in `budget`,
    /// which publishes them to its stats sink once, here.
    fn apply_op<L: Leaf>(
        &mut self,
        op: BinOp,
        leaf: L,
        f: NodeId,
        g: NodeId,
        budget: &Budget,
    ) -> Result<NodeId, DdError> {
        let result = self.apply_in(op, leaf, f, g, budget);
        budget.publish();
        result
    }

    fn apply_in<L: Leaf>(
        &mut self,
        op: BinOp,
        leaf: L,
        f: NodeId,
        g: NodeId,
        budget: &Budget,
    ) -> Result<NodeId, DdError> {
        // Terminal short-circuits.
        if f.is_terminal() && g.is_terminal() {
            let v = leaf.leaf(op.eval(self.terminal_value(f), self.terminal_value(g)));
            return Ok(self.terminal(v));
        }
        match op {
            // A leaf that snaps values must reach every terminal, so it
            // returns no operand as it is.
            _ if !L::IDENTITY => {}
            BinOp::And => {
                if f == self.zero || g == self.zero {
                    return Ok(self.zero);
                }
                if f == self.one {
                    return Ok(g);
                }
                if g == self.one {
                    return Ok(f);
                }
                if f == g {
                    return Ok(f);
                }
            }
            BinOp::Or => {
                if f == self.one || g == self.one {
                    return Ok(self.one);
                }
                if f == self.zero {
                    return Ok(g);
                }
                if g == self.zero {
                    return Ok(f);
                }
                if f == g {
                    return Ok(f);
                }
            }
            BinOp::Xor => {
                if f == g {
                    return Ok(self.zero);
                }
                if f == self.zero {
                    return Ok(g);
                }
                if g == self.zero {
                    return Ok(f);
                }
            }
            BinOp::Plus => {
                if f == self.zero {
                    return Ok(g);
                }
                if g == self.zero {
                    return Ok(f);
                }
            }
            BinOp::Minus => {
                if g == self.zero {
                    return Ok(f);
                }
            }
            BinOp::Times => {
                if f == self.zero || g == self.zero {
                    return Ok(self.zero);
                }
                if f == self.one {
                    return Ok(g);
                }
                if g == self.one {
                    return Ok(f);
                }
            }
            BinOp::Min | BinOp::Max => {
                if f == g {
                    return Ok(f);
                }
            }
        }

        let (a, b) = if op.is_commutative() && g < f {
            (g, f)
        } else {
            (f, g)
        };
        let key = (leaf.code(op), a, b);
        if let Some(&r) = self.cache2.get(&key) {
            return Ok(r);
        }

        // Recursion checkpoint: this is a cache miss, so real work — and
        // up to one fresh node — happens past this point.
        budget.step(self.arena_len(), self.arena_bytes())?;

        let level = self.level(a).min(self.level(b));
        let (a0, a1) = self.expand(a, level);
        let (b0, b1) = self.expand(b, level);
        let lo = self.apply_in(op, leaf, a0, b0, budget)?;
        let hi = self.apply_in(op, leaf, a1, b1, budget)?;
        let r = self.mk(level, lo, hi);
        self.cache2.insert(key, r);
        Ok(r)
    }

    /// Infallible ITE: delegates to the budgeted recursion with an
    /// unlimited budget, which cannot fail.
    fn ite_rec(&mut self, f: NodeId, g: NodeId, h: NodeId) -> NodeId {
        self.ite_op(f, g, h, &Budget::unlimited())
            .expect("unlimited budget cannot be exceeded")
    }

    /// One top-level ITE (see [`Manager::apply_op`]).
    fn ite_op(
        &mut self,
        f: NodeId,
        g: NodeId,
        h: NodeId,
        budget: &Budget,
    ) -> Result<NodeId, DdError> {
        let result = self.ite_in(f, g, h, budget);
        budget.publish();
        result
    }

    fn ite_in(
        &mut self,
        f: NodeId,
        g: NodeId,
        h: NodeId,
        budget: &Budget,
    ) -> Result<NodeId, DdError> {
        if f == self.one {
            return Ok(g);
        }
        if f == self.zero {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == self.one && h == self.zero {
            return Ok(f);
        }
        let key = (f, g, h);
        if let Some(&r) = self.cache3.get(&key) {
            return Ok(r);
        }

        // Recursion checkpoint (cache miss — see `apply_in`).
        budget.step(self.arena_len(), self.arena_bytes())?;

        let level = self.level(f).min(self.level(g)).min(self.level(h));
        let (f0, f1) = self.expand(f, level);
        let (g0, g1) = self.expand(g, level);
        let (h0, h1) = self.expand(h, level);
        let lo = self.ite_in(f0, g0, h0, budget)?;
        let hi = self.ite_in(f1, g1, h1, budget)?;
        let r = self.mk(level, lo, hi);
        self.cache3.insert(key, r);
        Ok(r)
    }

    // ----- evaluation & inspection ------------------------------------------

    /// Evaluates a BDD under a complete input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` is smaller than the largest variable
    /// index tested by `f`.
    pub fn bdd_eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        self.eval_node(f.0, assignment) != 0.0
    }

    /// Evaluates an ADD under a complete input assignment.
    ///
    /// Runs in time linear in the number of variables — this is the paper's
    /// "negligible run-time model evaluation".
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` is smaller than the largest variable
    /// index tested by `f`.
    pub fn add_eval(&self, f: Add, assignment: &[bool]) -> f64 {
        self.eval_node(f.0, assignment)
    }

    fn eval_node(&self, mut f: NodeId, assignment: &[bool]) -> f64 {
        while !f.is_terminal() {
            let n = &self.nodes[f.arena_index()];
            f = if assignment[n.var as usize] {
                n.hi
            } else {
                n.lo
            };
        }
        self.terminal_value(f)
    }

    /// Number of distinct nodes reachable from `root`, terminals included
    /// (CUDD's `Cudd_DagSize` convention, which is also how the paper counts
    /// "ADD nodes" against `MAX`).
    pub fn size(&self, root: NodeId) -> usize {
        let mut size = 0;
        self.visit_reachable(root, |_| size += 1);
        size
    }

    /// All internal nodes reachable from `root`, children before parents.
    pub fn topological_nodes(&self, root: NodeId) -> Vec<NodeId> {
        let mut order = Vec::new();
        self.visit_reachable(root, |id| {
            if !id.is_terminal() {
                order.push(id);
            }
        });
        // The arena is naturally topological (children are interned before
        // parents), so a reachability pass plus an index sort suffices.
        order.sort_unstable_by_key(|id| id.arena_index());
        order
    }

    /// The set of distinct terminal values reachable from `root`
    /// (ascending).
    pub fn terminal_values(&self, root: NodeId) -> Vec<f64> {
        let mut values = Vec::new();
        self.visit_reachable(root, |id| {
            if id.is_terminal() {
                values.push(self.terminal_value(id));
            }
        });
        values.sort_by(|a, b| a.partial_cmp(b).expect("terminals are not NaN"));
        values
    }

    /// Calls `visit` once on every node reachable from `root`, terminals
    /// included, in depth-first order.
    fn visit_reachable(&self, root: NodeId, mut visit: impl FnMut(NodeId)) {
        Marks::with(self.arena_counts(), |marks| {
            let mut stack = vec![root];
            while let Some(id) = stack.pop() {
                if !marks.visit(id) {
                    continue;
                }
                visit(id);
                if !id.is_terminal() {
                    let (lo, hi) = self.children(id);
                    stack.push(lo);
                    stack.push(hi);
                }
            }
        });
    }

    /// The variables actually tested anywhere in `root` (ascending).
    pub fn support(&self, root: NodeId) -> Vec<Var> {
        let mut vars: FxHashSet<u32> = FxHashSet::default();
        for id in self.topological_nodes(root) {
            vars.insert(self.nodes[id.arena_index()].var);
        }
        let mut vars: Vec<Var> = vars.into_iter().map(Var).collect();
        vars.sort();
        vars
    }

    // ----- permutation and counting -----------------------------------------

    /// Rewrites `f` replacing every test of variable `v` by a test of
    /// `perm[v]`. `perm` must be a permutation of `0..num_vars`.
    ///
    /// This is how node functions built over `n` circuit inputs are moved
    /// onto the `xⁱ` or `xᶠ` variable block of the `2n`-variable transition
    /// space.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != num_vars as usize` or `perm` maps a tested
    /// variable out of range.
    pub fn permute(&mut self, f: NodeId, perm: &[Var]) -> NodeId {
        assert_eq!(
            perm.len(),
            self.num_vars as usize,
            "permutation size mismatch"
        );
        let mut memo: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        self.permute_rec(f, perm, &mut memo)
    }

    fn permute_rec(
        &mut self,
        f: NodeId,
        perm: &[Var],
        memo: &mut FxHashMap<NodeId, NodeId>,
    ) -> NodeId {
        if f.is_terminal() {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (lo, hi) = self.children(f);
        let v = self.level(f);
        let lo2 = self.permute_rec(lo, perm, memo);
        let hi2 = self.permute_rec(hi, perm, memo);
        let sel = self.bdd_var(perm[v as usize]);
        let r = self.ite_rec(sel.0, hi2, lo2);
        memo.insert(f, r);
        r
    }

    /// Number of satisfying assignments of a BDD over `num_vars` variables.
    pub fn sat_count(&self, f: Bdd) -> f64 {
        let mut memo: FxHashMap<NodeId, f64> = FxHashMap::default();
        let frac = self.sat_frac(f.0, &mut memo);
        frac * 2f64.powi(self.num_vars as i32)
    }

    fn sat_frac(&self, f: NodeId, memo: &mut FxHashMap<NodeId, f64>) -> f64 {
        if f.is_terminal() {
            return if self.terminal_value(f) != 0.0 {
                1.0
            } else {
                0.0
            };
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let (lo, hi) = self.children(f);
        let r = 0.5 * (self.sat_frac(lo, memo) + self.sat_frac(hi, memo));
        memo.insert(f, r);
        r
    }

    /// One satisfying assignment of `f`, or `None` if unsatisfiable.
    /// Variables outside the support of `f` are returned as `false`.
    pub fn pick_sat(&self, f: Bdd) -> Option<Vec<bool>> {
        if f.0 == self.zero {
            return None;
        }
        let mut assignment = vec![false; self.num_vars as usize];
        let mut cur = f.0;
        while !cur.is_terminal() {
            let n = &self.nodes[cur.arena_index()];
            // Prefer whichever child is not constant-false.
            if n.hi != self.zero {
                assignment[n.var as usize] = true;
                cur = n.hi;
            } else {
                cur = n.lo;
            }
        }
        debug_assert_ne!(self.terminal_value(cur), 0.0);
        Some(assignment)
    }

    // ----- housekeeping -------------------------------------------------------

    /// Drops all computed-table entries (unique tables are kept — diagrams
    /// stay valid). Useful to bound memory between large model builds.
    pub fn clear_caches(&mut self) {
        self.cache2.clear();
        self.cache3.clear();
        self.grids.clear();
    }

    /// Garbage-collects the arena, keeping only nodes reachable from
    /// `roots`. Returns the remapped handles for `roots`, in order.
    ///
    /// **Every** handle not passed through `roots` is invalidated.
    pub fn compact(&mut self, roots: &[NodeId]) -> Vec<NodeId> {
        let (new_nodes, new_terms, remapped) = Marks::with(self.arena_counts(), |marks| {
            // Reachability: kept nodes are seen.
            let mut stack: Vec<NodeId> = roots.to_vec();
            while let Some(id) = stack.pop() {
                if !marks.visit(id) || id.is_terminal() {
                    continue;
                }
                let (lo, hi) = self.children(id);
                stack.push(lo);
                stack.push(hi);
            }

            // Rebuild arenas in (topological) index order; each kept
            // node's memo is its new handle.
            let remap = |marks: &Marks, old: NodeId| {
                NodeId::from_bits(marks.memo(old).expect("kept nodes are remapped in order"))
            };
            let mut new_terms: Vec<f64> = Vec::new();
            for (i, &v) in self.terminals.iter().enumerate() {
                let old = NodeId::terminal(i as u32);
                // Always keep 0/1 so `zero`/`one` handles stay valid.
                if marks.seen(old) || v == 0.0 || v == 1.0 {
                    let id = NodeId::terminal(new_terms.len() as u32);
                    new_terms.push(v);
                    marks.remember(old, id.to_bits());
                }
            }
            let mut new_nodes: Vec<Node> = Vec::new();
            for (i, n) in self.nodes.iter().enumerate() {
                let old = NodeId::internal(i as u32);
                if !marks.seen(old) {
                    continue;
                }
                let key = Node {
                    var: n.var,
                    lo: remap(marks, n.lo),
                    hi: remap(marks, n.hi),
                };
                let id = NodeId::internal(new_nodes.len() as u32);
                new_nodes.push(key);
                marks.remember(old, id.to_bits());
            }
            let remapped: Vec<NodeId> = [self.zero, self.one]
                .iter()
                .chain(roots)
                .map(|&r| remap(marks, r))
                .collect();
            (new_nodes, new_terms, remapped)
        });

        self.unique = new_nodes
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, NodeId::internal(i as u32)))
            .collect();
        self.term_unique = new_terms
            .iter()
            .enumerate()
            .map(|(i, v)| (mix64(v.to_bits()), NodeId::terminal(i as u32)))
            .collect();
        self.nodes = new_nodes;
        self.terminals = new_terms;
        self.clear_caches();
        self.zero = remapped[0];
        self.one = remapped[1];
        remapped[2..].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io;
    use charfree_netlist::testutil::{check, Gen};

    /// `add_map_terminals` as it was before the pass scratch: a fresh
    /// hash-map memo, and every internal node rebuilt through `mk`.
    fn map_terminals_reference(m: &mut Manager, f: NodeId, op: &impl Fn(f64) -> f64) -> NodeId {
        fn rec(
            m: &mut Manager,
            f: NodeId,
            op: &impl Fn(f64) -> f64,
            memo: &mut FxHashMap<NodeId, NodeId>,
        ) -> NodeId {
            if let Some(&r) = memo.get(&f) {
                return r;
            }
            let r = if f.is_terminal() {
                let v = op(m.terminal_value(f));
                m.terminal(v)
            } else {
                let (lo, hi) = m.children(f);
                let var = m.level(f);
                let lo2 = rec(m, lo, op, memo);
                let hi2 = rec(m, hi, op, memo);
                m.mk(var, lo2, hi2)
            };
            memo.insert(f, r);
            r
        }
        rec(m, f, op, &mut FxHashMap::default())
    }

    /// `collapse` as it was before the pass scratch: replacements and
    /// memo in hash maps, every internal node rebuilt through `mk`.
    fn collapse_reference(m: &mut Manager, f: NodeId, replacements: &[(NodeId, f64)]) -> NodeId {
        fn rec(
            m: &mut Manager,
            f: NodeId,
            replacements: &FxHashMap<NodeId, f64>,
            memo: &mut FxHashMap<NodeId, NodeId>,
        ) -> NodeId {
            if let Some(&v) = replacements.get(&f) {
                return m.terminal(v);
            }
            if f.is_terminal() {
                return f;
            }
            if let Some(&r) = memo.get(&f) {
                return r;
            }
            let (lo, hi) = m.children(f);
            let var = m.level(f);
            let lo2 = rec(m, lo, replacements, memo);
            let hi2 = rec(m, hi, replacements, memo);
            let r = m.mk(var, lo2, hi2);
            memo.insert(f, r);
            r
        }
        let replacements = replacements.iter().copied().collect();
        rec(m, f, &replacements, &mut FxHashMap::default())
    }

    /// Weighted conjunctions of literals over five variables.
    type Terms = Vec<(Vec<(u32, bool)>, u32)>;

    fn random_terms(g: &mut Gen) -> Terms {
        g.vec(1..7, |g| {
            let literals = g.vec(1..4, |g| (g.range(0..5), g.below(2) == 1));
            (literals, g.range(1..5))
        })
    }

    /// The sum of `terms`, in an arena that also holds the partial sums
    /// and products built on the way.
    fn build_terms(terms: &Terms) -> (Manager, Add) {
        let mut m = Manager::new(5);
        let mut f = m.add_zero();
        for (literals, weight) in terms {
            let mut product = m.bdd_true();
            for &(v, positive) in literals {
                let x = m.bdd_var(Var(v));
                let literal = if positive { x } else { m.bdd_not(x) };
                product = m.bdd_and(product, literal);
            }
            let term = m.add_scale(product.as_add(), f64::from(*weight));
            f = m.add_plus(f, term);
        }
        (m, f)
    }

    /// Both managers hold the same arena, and `a`/`b` dump alike.
    fn assert_same(x: &Manager, a: NodeId, y: &Manager, b: NodeId) {
        assert_eq!(a, b, "root");
        assert_eq!(x.arena_len(), y.arena_len(), "arena_len");
        assert_eq!(x.nodes, y.nodes, "nodes");
        assert_eq!(io::dump(x, a), io::dump(y, b), "dump");
    }

    #[test]
    fn map_terminals_and_collapse_match_the_hash_map_passes() {
        let generate = |g: &mut Gen| {
            (
                random_terms(g),
                g.range(0u32..4),
                g.vec(0..6, |g| (g.range(0usize..64), g.range(0u32..4))),
            )
        };
        check(
            "map_terminals_and_collapse_match_the_hash_map_passes",
            64,
            generate,
            |(terms, cut, picks)| {
                let (m, f) = build_terms(terms);
                // Terminals at or below `cut` go to zero: some sub-diagrams
                // change and some do not.
                let cut = f64::from(*cut);
                let op = |v: f64| if v <= cut { 0.0 } else { v };
                let (mut a, mut b) = (m.clone(), m.clone());
                let ga = a.add_map_terminals(f, op).node();
                let gb = map_terminals_reference(&mut b, f.node(), &op);
                assert_same(&a, ga, &b, gb);

                let nodes = m.topological_nodes(f.node());
                let replacements: Vec<(NodeId, f64)> = if nodes.is_empty() {
                    Vec::new()
                } else {
                    picks
                        .iter()
                        .map(|&(i, leaf)| (nodes[i % nodes.len()], f64::from(leaf) + 0.5))
                        .collect()
                };
                let (mut a, mut b) = (m.clone(), m.clone());
                let ga = a.collapse(f, &replacements).node();
                let gb = collapse_reference(&mut b, f.node(), &replacements);
                assert_same(&a, ga, &b, gb);
            },
        );
    }

    fn setup3() -> (Manager, Bdd, Bdd, Bdd) {
        let mut m = Manager::new(3);
        let a = m.bdd_var(Var(0));
        let b = m.bdd_var(Var(1));
        let c = m.bdd_var(Var(2));
        (m, a, b, c)
    }

    #[test]
    fn constants_are_interned() {
        let mut m = Manager::new(0);
        assert_eq!(m.constant(2.5), m.constant(2.5));
        assert_eq!(m.constant(0.0), m.constant(-0.0));
        assert_ne!(m.constant(1.0), m.constant(2.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_terminal_panics() {
        let mut m = Manager::new(0);
        let _ = m.constant(f64::NAN);
    }

    #[test]
    fn canonicity_of_boolean_ops() {
        let (mut m, a, b, _) = setup3();
        let ab = m.bdd_and(a, b);
        let ba = m.bdd_and(b, a);
        assert_eq!(ab, ba);

        // De Morgan.
        let na = m.bdd_not(a);
        let nb = m.bdd_not(b);
        let lhs = m.bdd_not(ab);
        let rhs = m.bdd_or(na, nb);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn double_negation() {
        let (mut m, a, b, c) = setup3();
        let f = m.bdd_xor(a, b);
        let f = m.bdd_or(f, c);
        let nf = m.bdd_not(f);
        let nnf = m.bdd_not(nf);
        assert_eq!(f, nnf);
    }

    #[test]
    fn eval_matches_semantics() {
        let (mut m, a, b, c) = setup3();
        let ab = m.bdd_and(a, b);
        let f = m.bdd_or(ab, c);
        for bits in 0..8u32 {
            let assignment = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let expected = (assignment[0] && assignment[1]) || assignment[2];
            assert_eq!(m.bdd_eval(f, &assignment), expected, "bits={bits:03b}");
        }
    }

    #[test]
    fn ite_agrees_with_and_or_form() {
        let (mut m, a, b, c) = setup3();
        let ite = m.bdd_ite(a, b, c);
        let t1 = m.bdd_and(a, b);
        let na = m.bdd_not(a);
        let t2 = m.bdd_and(na, c);
        let or = m.bdd_or(t1, t2);
        assert_eq!(ite, or);
    }

    #[test]
    fn add_arithmetic() {
        let mut m = Manager::new(2);
        let x = m.bdd_var(Var(0));
        let y = m.bdd_var(Var(1));
        let c40 = m.constant(40.0);
        let c50 = m.constant(50.0);
        let zero = m.add_zero();
        let fx = m.add_ite(x, c40, zero); // 40*x
        let fy = m.add_ite(y, c50, zero); // 50*y
        let sum = m.add_plus(fx, fy);
        assert_eq!(m.add_eval(sum, &[false, false]), 0.0);
        assert_eq!(m.add_eval(sum, &[true, false]), 40.0);
        assert_eq!(m.add_eval(sum, &[false, true]), 50.0);
        assert_eq!(m.add_eval(sum, &[true, true]), 90.0);

        let doubled = m.add_scale(sum, 2.0);
        assert_eq!(m.add_eval(doubled, &[true, true]), 180.0);

        let diff = m.add_apply(BinOp::Minus, sum, fx);
        assert_eq!(m.add_eval(diff, &[true, true]), 50.0);

        let mx = m.add_apply(BinOp::Max, fx, fy);
        assert_eq!(m.add_eval(mx, &[true, true]), 50.0);
        let mn = m.add_apply(BinOp::Min, fx, fy);
        assert_eq!(m.add_eval(mn, &[true, true]), 40.0);
    }

    #[test]
    fn grid_terminals_intern_once_and_survive_compaction() {
        // Multiples of a power-of-two quantum end in long runs of zero
        // bits, the keys `mix64` mixes.
        let mut m = Manager::new(1);
        let values: Vec<f64> = (-2000..2000).map(|k| f64::from(k) * 0.125).collect();
        let ids: Vec<NodeId> = values.iter().map(|&v| m.terminal(v)).collect();
        for (&v, &id) in values.iter().zip(&ids) {
            assert_eq!(m.terminal(v), id);
            assert_eq!(m.terminal_value(id).to_bits(), v.to_bits());
        }
        let kept = m.compact(&ids);
        for (&v, &id) in values.iter().zip(&kept) {
            assert_eq!(m.terminal(v), id);
        }
    }

    #[test]
    fn quantized_sums_outlive_their_opcodes() {
        // Twice as many grids as opcodes, two rounds, no `clear_caches`:
        // every call still snaps onto its own grid.
        let mut m = Manager::new(2);
        let x = m.bdd_var(Var(0));
        let y = m.bdd_var(Var(1));
        let (c3, c5) = (m.constant(3.0), m.constant(5.0));
        let zero = m.add_zero();
        let f = m.add_ite(x, c3, zero);
        let g = m.add_ite(y, c5, zero);
        let budget = Budget::unlimited();
        for _ in 0..2 {
            for k in 1..=500u32 {
                let quantum = f64::from(k) / 64.0;
                let q = m
                    .try_add_plus_quantized(f, g, quantum, Rounding::Up, &budget)
                    .expect("unlimited");
                let want = (8.0 / quantum).ceil() * quantum;
                assert_eq!(m.add_eval(q, &[true, true]), want);
            }
        }
        assert!(m.grids.len() <= usize::from(u8::MAX - FIRST_GRID_CODE) + 1);
    }

    #[test]
    fn terminal_values_are_sorted_and_deduped() {
        let mut m = Manager::new(2);
        let x = m.bdd_var(Var(0));
        let y = m.bdd_var(Var(1));
        let c40 = m.constant(40.0);
        let c50 = m.constant(50.0);
        let zero = m.add_zero();
        let fx = m.add_ite(x, c40, zero);
        let fy = m.add_ite(y, c50, zero);
        let sum = m.add_plus(fx, fy);
        assert_eq!(m.terminal_values(sum.node()), vec![0.0, 40.0, 50.0, 90.0]);
    }

    #[test]
    fn sat_count_and_pick() {
        let (mut m, a, b, _) = setup3();
        let f = m.bdd_xor(a, b);
        // xor over 3 vars: 4 satisfying assignments (free third var).
        assert_eq!(m.sat_count(f), 4.0);
        let sat = m.pick_sat(f).expect("satisfiable");
        assert!(m.bdd_eval(f, &sat));
        assert_eq!(m.pick_sat(m.bdd_false()), None);
    }

    #[test]
    fn permute_swaps_variables() {
        let (mut m, a, b, c) = setup3();
        let f = m.bdd_and(a, b);
        let f = m.bdd_or(f, c);
        // Swap variables 0 and 1 — function is symmetric in them.
        let g = m.permute(f.0, &[Var(1), Var(0), Var(2)]);
        assert_eq!(g, f.0);
        // Map everything up by rotation and check semantics: permute
        // replaces a test of v by a test of perm[v], so
        // g(a) = f(a[perm[0]], a[perm[1]], a[perm[2]]).
        let perm = [Var(2), Var(0), Var(1)];
        let g = Bdd(m.permute(f.0, &perm));
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let pulled = [
                asg[perm[0].index() as usize],
                asg[perm[1].index() as usize],
                asg[perm[2].index() as usize],
            ];
            assert_eq!(m.bdd_eval(g, &asg), m.bdd_eval(f, &pulled));
        }
    }

    #[test]
    fn size_counts_terminals_like_cudd() {
        let (mut m, a, b, _) = setup3();
        let f = m.bdd_and(a, b);
        // nodes: a-node, b-node, 0, 1
        assert_eq!(m.size(f.0), 4);
    }

    #[test]
    fn support_reports_tested_vars() {
        let (mut m, a, _, c) = setup3();
        let f = m.bdd_and(a, c);
        assert_eq!(m.support(f.0), vec![Var(0), Var(2)]);
    }

    #[test]
    fn compact_preserves_semantics() {
        let (mut m, a, b, c) = setup3();
        let keep = m.bdd_ite(a, b, c);
        // Build garbage.
        for _ in 0..10 {
            let g = m.bdd_xor(keep, a);
            let _ = m.bdd_and(g, b);
        }
        let before = m.arena_len();
        let roots = m.compact(&[keep.0]);
        let keep2 = Bdd(roots[0]);
        assert!(m.arena_len() < before);
        for bits in 0..8u32 {
            let asg = [bits & 1 != 0, bits & 2 != 0, bits & 4 != 0];
            let expected = if asg[0] { asg[1] } else { asg[2] };
            assert_eq!(m.bdd_eval(keep2, &asg), expected);
        }
        // Manager still works after compaction.
        let x = m.bdd_var(Var(0));
        let nx = m.bdd_not(x);
        let t = m.bdd_or(x, nx);
        assert_eq!(t, m.bdd_true());
    }

    #[test]
    fn threshold_extracts_level_sets() {
        let mut m = Manager::new(2);
        let x = m.bdd_var(Var(0));
        let y = m.bdd_var(Var(1));
        let c40 = m.constant(40.0);
        let c50 = m.constant(50.0);
        let zero = m.add_zero();
        let fx = m.add_ite(x, c40, zero);
        let fy = m.add_ite(y, c50, zero);
        let sum = m.add_plus(fx, fy);
        let heavy = m.add_threshold(sum, |v| v >= 50.0);
        assert_eq!(m.sat_count(heavy), 2.0); // {01, 11}
        assert!(m.bdd_eval(heavy, &[true, true]));
        assert!(!m.bdd_eval(heavy, &[true, false]));
    }

    #[test]
    fn map_terminals_reduces() {
        let mut m = Manager::new(1);
        let x = m.bdd_var(Var(0));
        let c2 = m.constant(2.0);
        let c3 = m.constant(3.0);
        let f = m.add_ite(x, c2, c3);
        // Collapsing both terminals to the same value must reduce to a leaf.
        let g = m.add_map_terminals(f, |_| 7.0);
        assert!(g.node().is_terminal());
        assert_eq!(m.terminal_value(g.node()), 7.0);
    }
}
