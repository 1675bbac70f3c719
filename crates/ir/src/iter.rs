//! Loop iterators: identity, extent, semantic kind and scheduling annotations.

use std::fmt;

/// Stable identity of a loop iterator within a [`crate::LoopNest`].
///
/// Transformations create fresh ids (e.g. `split` makes two new iterators), so
/// ids are never reused within a nest's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IterId(pub u32);

impl fmt::Display for IterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Semantic role of an iterator in the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IterKind {
    /// A data-parallel (output-indexing) dimension: each iteration writes a
    /// distinct output element; freely reorderable.
    DataParallel,
    /// A reduction dimension: iterations accumulate into the same output
    /// element. Reorderable only under the floating-point-associativity
    /// relaxation (paper §4.1 / TVM semantics).
    Reduction,
    /// A group dimension introduced by the grouping transformation (paper
    /// §5.1): data-parallel, but also *slices* the tensors it indexes.
    Group,
}

/// GPU hardware axes that an iterator can be bound to (paper Table 1,
/// "Mapping to GPU").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuAxis {
    /// Block-wise parallelism (`blockIdx.{x,y,z}`).
    Block(u8),
    /// Threads within a block (`threadIdx.{x,y,z}`).
    Thread(u8),
    /// Striding virtual thread (TVM `vthread`).
    VThread,
}

impl fmt::Display for GpuAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const XYZ: [char; 3] = ['x', 'y', 'z'];
        match self {
            GpuAxis::Block(d) => write!(f, "blockIdx.{}", XYZ[*d as usize % 3]),
            GpuAxis::Thread(d) => write!(f, "threadIdx.{}", XYZ[*d as usize % 3]),
            GpuAxis::VThread => write!(f, "vthread"),
        }
    }
}

/// Scheduling annotation attached to a loop (paper Table 1 primitives that do
/// not change the loop structure).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum IterAnnotation {
    /// Ordinary sequential loop.
    #[default]
    None,
    /// Fully unrolled.
    Unroll,
    /// Mapped to SIMD lanes.
    Vectorize,
    /// Mapped to CPU threads.
    Parallel,
    /// Bound to a GPU hardware axis.
    Gpu(GpuAxis),
}

impl fmt::Display for IterAnnotation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IterAnnotation::None => Ok(()),
            IterAnnotation::Unroll => write!(f, "unroll"),
            IterAnnotation::Vectorize => write!(f, "vectorize"),
            IterAnnotation::Parallel => write!(f, "parallel"),
            IterAnnotation::Gpu(axis) => write!(f, "{axis}"),
        }
    }
}

/// One loop of a nest: a named iterator with a constant extent.
///
/// Extents are compile-time constants throughout `pte` — exactly the
/// restriction that makes tensor convolutions "static, convex and affine"
/// (paper §4) and keeps every transformation's legality decidable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IterVar {
    id: IterId,
    name: String,
    extent: i64,
    kind: IterKind,
    annotation: IterAnnotation,
}

impl IterVar {
    /// Creates a new iterator.
    pub fn new(id: IterId, name: impl Into<String>, extent: i64, kind: IterKind) -> Self {
        IterVar { id, name: name.into(), extent, kind, annotation: IterAnnotation::None }
    }

    /// The iterator's stable id.
    pub fn id(&self) -> IterId {
        self.id
    }

    /// The iterator's source-level name (e.g. `co`, `ci.o`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Trip count of the loop.
    pub fn extent(&self) -> i64 {
        self.extent
    }

    /// Semantic kind.
    pub fn kind(&self) -> IterKind {
        self.kind
    }

    /// Scheduling annotation.
    pub fn annotation(&self) -> IterAnnotation {
        self.annotation
    }

    /// Replaces the extent (used by domain-shrinking transformations).
    pub fn set_extent(&mut self, extent: i64) {
        self.extent = extent;
    }

    /// Replaces the annotation.
    pub fn set_annotation(&mut self, annotation: IterAnnotation) {
        self.annotation = annotation;
    }
}

impl fmt::Display for IterVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[0..{})", self.name, self.extent)?;
        if self.annotation != IterAnnotation::None {
            write!(f, "@{}", self.annotation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_extent_and_annotation() {
        let mut v = IterVar::new(IterId(0), "co", 64, IterKind::DataParallel);
        assert_eq!(v.to_string(), "co[0..64)");
        v.set_annotation(IterAnnotation::Vectorize);
        assert_eq!(v.to_string(), "co[0..64)@vectorize");
    }

    #[test]
    fn gpu_axis_names() {
        assert_eq!(GpuAxis::Block(0).to_string(), "blockIdx.x");
        assert_eq!(GpuAxis::Thread(1).to_string(), "threadIdx.y");
        assert_eq!(GpuAxis::VThread.to_string(), "vthread");
    }
}
