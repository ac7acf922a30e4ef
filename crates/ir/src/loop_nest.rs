//! Loop nests: the iteration space that memory references are affine in.
//!
//! The modulo schedulers of the paper pipeline the *innermost* loop of a
//! nest; the outer dimensions only matter for the locality analysis (they
//! determine how often the innermost loop is re-entered and with which base
//! offsets) and for the cycle model
//! `NCYCLE_compute = NTIMES * ((NITER + SC - 1) * II)`.

use std::fmt;

/// Identifier of a loop dimension within a [`LoopNest`]. Dimension 0 is the
/// outermost loop; the highest index is the innermost (pipelined) loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DimId(pub(crate) u32);

impl DimId {
    /// Index of the dimension (0 = outermost).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an identifier from a raw index.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }
}

impl fmt::Display for DimId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dim{}", self.0)
    }
}

/// One dimension (induction variable) of a loop nest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopDim {
    /// Name of the induction variable (e.g. `"I"`).
    pub name: String,
    /// Number of iterations of this dimension.
    pub trip_count: u64,
}

/// A perfect loop nest. The innermost dimension is the pipelined loop.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct LoopNest {
    dims: Vec<LoopDim>,
}

impl LoopNest {
    /// Creates an empty nest (no dimensions yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a dimension inside the current innermost one and returns its
    /// identifier.
    pub fn push_dimension(&mut self, name: impl Into<String>, trip_count: u64) -> DimId {
        let id = DimId(self.dims.len() as u32);
        self.dims.push(LoopDim {
            name: name.into(),
            trip_count,
        });
        id
    }

    /// Number of dimensions.
    #[must_use]
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Whether the nest has no dimensions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty()
    }

    /// The dimensions, outermost first.
    #[must_use]
    pub fn dims(&self) -> &[LoopDim] {
        &self.dims
    }

    /// The dimension with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this nest.
    #[must_use]
    pub fn dim(&self, id: DimId) -> &LoopDim {
        &self.dims[id.index()]
    }

    /// Identifier of the innermost (pipelined) dimension, if any.
    #[must_use]
    pub fn innermost(&self) -> Option<DimId> {
        if self.dims.is_empty() {
            None
        } else {
            Some(DimId((self.dims.len() - 1) as u32))
        }
    }

    /// Trip count of the innermost dimension (`NITER` in the paper's cycle
    /// model); 1 when the nest is empty.
    #[must_use]
    pub fn inner_trip_count(&self) -> u64 {
        self.dims.last().map_or(1, |d| d.trip_count)
    }

    /// Product of the trip counts of all *outer* dimensions (`NTIMES` in the
    /// paper's cycle model); 1 when there is at most one dimension.
    #[must_use]
    pub fn outer_trip_count(&self) -> u64 {
        if self.dims.len() <= 1 {
            1
        } else {
            self.dims[..self.dims.len() - 1]
                .iter()
                .map(|d| d.trip_count)
                .product()
        }
    }

    /// Iterates over the iteration space in lexicographic order (outermost
    /// dimension slowest), yielding the full iteration vector.
    ///
    /// The iterator visits the product of the trip counts; callers that only
    /// need a window should `take(..)` it.
    #[must_use]
    pub fn iteration_vectors(&self) -> IterationVectors {
        IterationVectors {
            trip_counts: self.dims.iter().map(|d| d.trip_count).collect(),
            current: vec![0; self.dims.len()],
            done: self.dims.iter().any(|d| d.trip_count == 0),
            started: false,
        }
    }
}

/// Iterator over the iteration vectors of a [`LoopNest`], produced by
/// [`LoopNest::iteration_vectors`].
#[derive(Debug, Clone)]
pub struct IterationVectors {
    trip_counts: Vec<u64>,
    current: Vec<u64>,
    done: bool,
    started: bool,
}

impl Iterator for IterationVectors {
    type Item = Vec<u64>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if !self.started {
            self.started = true;
            return Some(self.current.clone());
        }
        // Advance like an odometer, innermost dimension fastest.
        let mut level = self.current.len();
        loop {
            if level == 0 {
                self.done = true;
                return None;
            }
            level -= 1;
            self.current[level] += 1;
            if self.current[level] < self.trip_counts[level] {
                break;
            }
            self.current[level] = 0;
        }
        Some(self.current.clone())
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dims.is_empty() {
            return f.write_str("<no loops>");
        }
        let parts: Vec<String> = self
            .dims
            .iter()
            .map(|d| format!("{}[0..{})", d.name, d.trip_count))
            .collect();
        f.write_str(&parts.join(" / "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query_dimensions() {
        let mut nest = LoopNest::new();
        assert!(nest.is_empty());
        assert_eq!(nest.innermost(), None);
        assert_eq!(nest.inner_trip_count(), 1);
        assert_eq!(nest.outer_trip_count(), 1);

        let j = nest.push_dimension("J", 10);
        let i = nest.push_dimension("I", 20);
        assert_eq!(nest.num_dims(), 2);
        assert_eq!(nest.dim(j).name, "J");
        assert_eq!(nest.dim(i).trip_count, 20);
        assert_eq!(nest.innermost(), Some(i));
        assert_eq!(nest.inner_trip_count(), 20);
        assert_eq!(nest.outer_trip_count(), 10);
        assert_eq!(nest.iteration_vectors().count(), 200);
    }

    #[test]
    fn iteration_vectors_are_lexicographic() {
        let mut nest = LoopNest::new();
        nest.push_dimension("J", 2);
        nest.push_dimension("I", 3);
        let points: Vec<Vec<u64>> = nest.iteration_vectors().collect();
        assert_eq!(
            points,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
    }

    #[test]
    fn empty_nest_yields_one_empty_vector() {
        let nest = LoopNest::new();
        let points: Vec<Vec<u64>> = nest.iteration_vectors().collect();
        assert_eq!(points, vec![Vec::<u64>::new()]);
    }

    #[test]
    fn zero_trip_dimension_yields_nothing() {
        let mut nest = LoopNest::new();
        nest.push_dimension("I", 0);
        assert_eq!(nest.iteration_vectors().count(), 0);
    }

    #[test]
    fn display_shows_all_dimensions() {
        let mut nest = LoopNest::new();
        nest.push_dimension("J", 4);
        nest.push_dimension("I", 8);
        assert_eq!(nest.to_string(), "J[0..4) / I[0..8)");
        assert_eq!(LoopNest::new().to_string(), "<no loops>");
    }
}
