//! Dependence edges of the data-dependence graph.

use crate::op::OpId;
use std::fmt;

/// Kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Flow of a register value from producer to consumer. When producer and
    /// consumer end up in different clusters, the value must travel over a
    /// register bus.
    Data,
    /// Ordering constraint through memory (store→load, load→store or
    /// store→store on possibly-aliasing references). No register value moves,
    /// so no register-bus transfer is ever needed.
    Memory,
}

impl fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeKind::Data => f.write_str("data"),
            EdgeKind::Memory => f.write_str("memory"),
        }
    }
}

/// A dependence edge `src → dst` with an iteration distance.
///
/// A distance of 0 is an intra-iteration dependence; a distance of `d > 0`
/// means the value produced in iteration `i` is consumed in iteration
/// `i + d` (a loop-carried dependence, the source of recurrences).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DepEdge {
    /// Producing operation.
    pub src: OpId,
    /// Consuming operation.
    pub dst: OpId,
    /// Iteration distance (0 = same iteration).
    pub distance: u32,
    /// Kind of the dependence.
    pub kind: EdgeKind,
}

impl DepEdge {
    /// Creates a register-value (data) dependence.
    #[must_use]
    pub fn data(src: OpId, dst: OpId, distance: u32) -> Self {
        Self {
            src,
            dst,
            distance,
            kind: EdgeKind::Data,
        }
    }

    /// Creates a memory-ordering dependence.
    #[must_use]
    pub fn memory(src: OpId, dst: OpId, distance: u32) -> Self {
        Self {
            src,
            dst,
            distance,
            kind: EdgeKind::Memory,
        }
    }

    /// The dependence delay: the fewest cycles from the start of `src` to
    /// the start of `dst` (before the iteration distance and any register-bus
    /// hop). A data edge waits for the value, so it costs the source's
    /// `src_latency`; a memory-ordering edge only orders the two accesses,
    /// so it costs 1 cycle.
    #[must_use]
    pub fn delay(&self, src_latency: u32) -> u32 {
        match self.kind {
            EdgeKind::Data => src_latency,
            EdgeKind::Memory => 1,
        }
    }
}

impl fmt::Display for DepEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} -> {} [{}, d={}]",
            self.src, self.dst, self.kind, self.distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        let a = OpId::from_index(0);
        let b = OpId::from_index(1);
        let d = DepEdge::data(a, b, 0);
        assert_eq!(d.kind, EdgeKind::Data);
        let m = DepEdge::memory(b, a, 2);
        assert_eq!(m.kind, EdgeKind::Memory);
    }

    #[test]
    fn data_edges_wait_for_the_value_and_memory_edges_for_one_cycle() {
        let (a, b) = (OpId::from_index(0), OpId::from_index(1));
        assert_eq!(DepEdge::data(a, b, 0).delay(13), 13);
        assert_eq!(DepEdge::memory(a, b, 1).delay(13), 1);
    }

    #[test]
    fn display_is_readable() {
        let e = DepEdge::data(OpId::from_index(3), OpId::from_index(5), 1);
        assert_eq!(e.to_string(), "op3 -> op5 [data, d=1]");
    }
}
