//! Per-thread scratch for whole-diagram passes: one epoch-stamped mark
//! and memo slot per arena node.
//!
//! Passes over a whole diagram (`size`, `snapshot`, `collapse`,
//! `compact`, …) need to know which nodes they have met and what each
//! one became. A hash map keyed by [`NodeId`] per pass costs a hash and a
//! probe per visit, plus the map's growth. Arena slots are dense, so a
//! flat array indexed by slot does the same job; stamping each slot with
//! the pass's epoch makes starting a pass O(1) instead of a clear.
//!
//! The array lives in a thread-local, so a [`Manager`](crate::Manager)
//! stays `Send + Sync` and a `&Manager` pass needs no `&mut`. A pass
//! borrows it for its duration and never starts another; were one to
//! nest, the inner pass would run on a fresh array (correct, just not
//! reused).

use crate::node::NodeId;
use std::cell::Cell;

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    stamp: u32,
    value: u32,
}

/// The mark and memo slots of one pass (see the module docs).
///
/// A slot is *unseen*, *seen* (marked, optionally with a tag value) or
/// *memoized* (with a value). Internal node `i` uses slot `i`; terminal
/// `j` uses slot `internal + j`, where `internal` is the arena's node
/// count when the pass began, so nodes a pass creates must not be looked
/// up in it.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    slots: Vec<Slot>,
    /// Even; a slot stamped `epoch` is memoized, `epoch + 1` seen, and
    /// anything lower belongs to an earlier pass.
    epoch: u32,
    term_base: usize,
}

thread_local! {
    static SCRATCH: Cell<Marks> = Cell::new(Marks::default());
}

impl Marks {
    /// Runs `pass` over this thread's scratch with every slot unseen,
    /// for an arena of `internal` nodes and `terminals` terminals.
    pub(crate) fn with<R>(
        (internal, terminals): (usize, usize),
        pass: impl FnOnce(&mut Marks) -> R,
    ) -> R {
        let mut marks = SCRATCH.take();
        marks.begin(internal, terminals);
        let result = pass(&mut marks);
        SCRATCH.set(marks);
        result
    }

    fn begin(&mut self, internal: usize, terminals: usize) {
        let len = internal + terminals;
        if self.slots.len() < len {
            self.slots.resize(len, Slot::default());
        }
        if self.epoch > u32::MAX - 4 {
            self.slots.fill(Slot::default());
            self.epoch = 0;
        }
        self.epoch += 2;
        self.term_base = internal;
    }

    #[inline]
    fn slot(&self, id: NodeId) -> usize {
        if id.is_terminal() {
            self.term_base + id.arena_index()
        } else {
            id.arena_index()
        }
    }

    /// Marks `id` seen; `true` the first time (like `HashSet::insert`).
    #[inline]
    pub(crate) fn visit(&mut self, id: NodeId) -> bool {
        let epoch = self.epoch;
        let slot = self.slot(id);
        let s = &mut self.slots[slot];
        if s.stamp >= epoch {
            return false;
        }
        s.stamp = epoch + 1;
        true
    }

    /// `true` if `id` is seen (and not memoized since).
    #[inline]
    pub(crate) fn seen(&self, id: NodeId) -> bool {
        self.slots[self.slot(id)].stamp == self.epoch + 1
    }

    /// Marks `id` seen with a tag value (a later tag replaces it).
    #[inline]
    pub(crate) fn tag(&mut self, id: NodeId, value: u32) {
        let epoch = self.epoch;
        let slot = self.slot(id);
        self.slots[slot] = Slot {
            stamp: epoch + 1,
            value,
        };
    }

    /// The tag value of a seen `id`.
    #[inline]
    pub(crate) fn tag_of(&self, id: NodeId) -> Option<u32> {
        let s = self.slots[self.slot(id)];
        (s.stamp == self.epoch + 1).then_some(s.value)
    }

    /// Memoizes `value` for `id`.
    #[inline]
    pub(crate) fn remember(&mut self, id: NodeId, value: u32) {
        let epoch = self.epoch;
        let slot = self.slot(id);
        self.slots[slot] = Slot {
            stamp: epoch,
            value,
        };
    }

    /// The value memoized for `id`, if any.
    #[inline]
    pub(crate) fn memo(&self, id: NodeId) -> Option<u32> {
        let s = self.slots[self.slot(id)];
        (s.stamp == self.epoch).then_some(s.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_start_unseen_and_keep_states_apart() {
        let (n3, t1) = (NodeId::internal(3), NodeId::terminal(1));
        Marks::with((4, 2), |m| {
            assert!(m.visit(n3));
            assert!(!m.visit(n3));
            assert!(m.seen(n3) && !m.seen(t1));
            m.remember(t1, 7);
            assert_eq!((m.memo(t1), m.tag_of(t1)), (Some(7), None));
            assert!(!m.visit(t1), "a memoized slot is not new");
            m.tag(n3, 9);
            assert_eq!((m.tag_of(n3), m.memo(n3)), (Some(9), None));
        });
        Marks::with((4, 2), |m| {
            assert!(!m.seen(n3) && m.memo(t1).is_none(), "a new pass forgets");
            // Terminal slots follow the arena's internal nodes, so a node
            // made during the pass shares a terminal's slot.
            m.remember(NodeId::internal(4), 1);
            assert!(m.memo(NodeId::terminal(0)).is_some());
        });
    }

    #[test]
    fn epoch_wrap_clears_old_stamps() {
        let id = NodeId::internal(0);
        Marks::with((1, 0), |m| m.remember(id, 1));
        // The last epoch before the wrap, and a slot memoized long ago
        // under the epoch the wrap starts again from.
        let mut marks = SCRATCH.take();
        marks.epoch = u32::MAX - 3;
        marks.slots[0].stamp = 2;
        SCRATCH.set(marks);
        Marks::with((1, 0), |m| assert!(m.memo(id).is_none()));
        Marks::with((1, 0), |m| assert!(m.visit(id)));
    }

    #[test]
    fn nested_passes_get_their_own_slots() {
        let id = NodeId::internal(0);
        Marks::with((1, 0), |outer| {
            outer.remember(id, 1);
            Marks::with((1, 0), |inner| assert!(inner.memo(id).is_none()));
            assert_eq!(outer.memo(id), Some(1));
        });
    }
}
