//! Node identifiers and the in-arena node representation.

use std::fmt;

/// Index of a decision variable (equivalently, of a level: variable `0` is
/// tested first on every root-to-leaf path).
///
/// # Examples
///
/// ```
/// use charfree_dd::Var;
///
/// let v = Var(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The position of this variable in the global order, `0` = topmost.
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Handle to a node owned by a [`Manager`](crate::Manager).
///
/// The high bit distinguishes terminal (leaf) nodes from internal decision
/// nodes; the remaining 31 bits index the manager's arenas. Handles are only
/// meaningful together with the manager that created them.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

const TERMINAL_BIT: u32 = 1 << 31;

impl NodeId {
    #[inline]
    pub(crate) fn internal(index: u32) -> Self {
        debug_assert!(index & TERMINAL_BIT == 0, "internal arena overflow");
        NodeId(index)
    }

    #[inline]
    pub(crate) fn terminal(index: u32) -> Self {
        debug_assert!(index & TERMINAL_BIT == 0, "terminal arena overflow");
        NodeId(index | TERMINAL_BIT)
    }

    /// `true` if this handle designates a terminal (leaf) node.
    #[inline]
    pub fn is_terminal(self) -> bool {
        self.0 & TERMINAL_BIT != 0
    }

    #[inline]
    pub(crate) fn arena_index(self) -> usize {
        (self.0 & !TERMINAL_BIT) as usize
    }

    /// Raw 32-bit representation, useful as a compact map key.
    #[inline]
    pub fn to_bits(self) -> u32 {
        self.0
    }

    /// The handle whose [`NodeId::to_bits`] is `bits`.
    #[inline]
    pub(crate) fn from_bits(bits: u32) -> Self {
        NodeId(bits)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_terminal() {
            write!(f, "T{}", self.arena_index())
        } else {
            write!(f, "N{}", self.arena_index())
        }
    }
}

/// An internal decision node: tests `var`, follows `lo` on `0` and `hi` on
/// `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Node {
    pub var: u32,
    pub lo: NodeId,
    pub hi: NodeId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_flag_roundtrip() {
        let t = NodeId::terminal(5);
        assert!(t.is_terminal());
        assert_eq!(t.arena_index(), 5);

        let n = NodeId::internal(5);
        assert!(!n.is_terminal());
        assert_eq!(n.arena_index(), 5);
        assert_ne!(t, n);
    }

    #[test]
    fn var_display() {
        assert_eq!(Var(7).to_string(), "x7");
    }

    #[test]
    fn node_id_is_small() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<Node>(), 12);
    }
}
