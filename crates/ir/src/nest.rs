//! Loop nests: the domain + schedule + statements of one tensor operation.

use std::collections::BTreeMap;
use std::fmt;

use crate::access::{Access, AccessKind};
use crate::expr::AffineExpr;
use crate::iter::{IterId, IterKind, IterVar};
use crate::{IrError, Result};

/// Stable identity of a statement within a nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(pub u32);

/// A statement in a nest body.
///
/// `pte` statements are multiply–accumulate operations (`out += lhs * rhs`),
/// which is the body of every convolution variant the paper manipulates
/// (Eq. 1–3, Algorithms 1–3). Generic read/write statements can be expressed
/// for testing the dependence machinery by using arbitrary accesses.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    id: StmtId,
    name: String,
    accesses: Vec<Access>,
}

impl Stmt {
    /// Creates a multiply–accumulate statement `out += lhs * rhs`.
    pub fn mul_acc(id: StmtId, out: Access, lhs: Access, rhs: Access) -> Self {
        debug_assert!(out.kind().writes());
        Stmt { id, name: format!("S{}", id.0), accesses: vec![out, lhs, rhs] }
    }

    /// Creates a statement from raw accesses (first access is the result).
    pub fn from_accesses(id: StmtId, accesses: Vec<Access>) -> Self {
        Stmt { id, name: format!("S{}", id.0), accesses }
    }

    /// The statement's id.
    pub fn id(&self) -> StmtId {
        self.id
    }

    /// The statement's display name (`S0`, `S1`, ...).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All accesses (output first for `mul_acc` statements).
    pub fn accesses(&self) -> &[Access] {
        &self.accesses
    }

    /// Mutable accesses (for transformations).
    pub fn accesses_mut(&mut self) -> &mut [Access] {
        &mut self.accesses
    }

    /// The accumulation output access, if this is a `mul_acc` statement.
    pub fn output(&self) -> Option<&Access> {
        self.accesses.first().filter(|a| a.kind().writes())
    }
}

/// Declaration of a tensor operated on by a nest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TensorDecl {
    /// Tensor name as used in accesses (`I`, `W`, `O`).
    pub name: String,
    /// Dimension extents.
    pub dims: Vec<i64>,
}

impl TensorDecl {
    /// Number of elements.
    pub fn len(&self) -> i64 {
        self.dims.iter().product()
    }

    /// Whether the tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Semantic shape of a convolution, tracked as nest metadata.
///
/// Neural-architecture transformations (bottleneck, group, depthwise — paper
/// §5.1) update this alongside the loop structure so that downstream
/// components can map the nest back to a convolution variant: `pte-fisher`
/// builds the corresponding layer, `pte-nn` accounts parameters, and
/// `pte-exec` compares against the reference ops.
///
/// The IR operates on *explicitly padded* inputs: `h`/`w` here are the padded
/// input extents, so all accesses stay non-negative affine expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Output channels `C_o` (after any bottlenecking).
    pub c_out: i64,
    /// Input channels `C_i`.
    pub c_in: i64,
    /// Padded input height.
    pub h: i64,
    /// Padded input width.
    pub w: i64,
    /// Kernel height `K_h`.
    pub k_h: i64,
    /// Kernel width `K_w`.
    pub k_w: i64,
    /// Spatial stride.
    pub stride: i64,
    /// Channel groups `G`.
    pub groups: i64,
    /// Output-channel bottleneck factor already applied (`B`; 1 = none).
    pub bottleneck: i64,
    /// Input-channel bottleneck factor already applied (1 = none) — the
    /// §2.3 interchange-unlocked variant.
    pub in_bottleneck: i64,
    /// Output-domain split factor: this nest computes `1/domain_split` of
    /// the original layer's output channels (1 = whole layer). Set by
    /// `split_output_domain` (§7.3 Sequence 3).
    pub domain_split: i64,
    /// Spatial bottleneck factor applied to the output height (1 = none).
    pub sb_h: i64,
    /// Spatial bottleneck factor applied to the output width (1 = none).
    pub sb_w: i64,
}

impl ConvShape {
    /// A standard `k×k` convolution over a padded `h×w` input.
    pub fn standard(c_in: i64, c_out: i64, k: i64, h: i64, w: i64) -> Self {
        ConvShape {
            c_out,
            c_in,
            h,
            w,
            k_h: k,
            k_w: k,
            stride: 1,
            groups: 1,
            bottleneck: 1,
            in_bottleneck: 1,
            domain_split: 1,
            sb_h: 1,
            sb_w: 1,
        }
    }

    /// A `1×1` (pointwise) convolution, as in the paper's Algorithm 1.
    pub fn pointwise(c_in: i64, c_out: i64, h: i64, w: i64) -> Self {
        ConvShape::standard(c_in, c_out, 1, h, w)
    }

    /// Sets the stride.
    pub fn with_stride(mut self, stride: i64) -> Self {
        self.stride = stride;
        self
    }

    /// Output spatial extent `(oh, ow)`.
    pub fn output_hw(&self) -> (i64, i64) {
        (
            ((self.h - self.k_h) / self.stride + 1) / self.sb_h,
            ((self.w - self.k_w) / self.stride + 1) / self.sb_w,
        )
    }

    /// Multiply–accumulate count.
    pub fn macs(&self) -> i64 {
        let (oh, ow) = self.output_hw();
        oh * ow * self.c_out * (self.c_in / self.groups) * self.k_h * self.k_w
    }

    /// Weight parameter count.
    pub fn params(&self) -> i64 {
        self.c_out * (self.c_in / self.groups) * self.k_h * self.k_w
    }
}

/// Semantic roles of the convolution iterators, so transformations can find
/// "the output-channel loop" etc. after arbitrary restructuring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConvRoles {
    /// Output-channel loop `c_o`.
    pub co: Option<IterId>,
    /// Input-channel (reduction) loop `c_i`.
    pub ci: Option<IterId>,
    /// Output height loop.
    pub oh: Option<IterId>,
    /// Output width loop.
    pub ow: Option<IterId>,
    /// Kernel height loop.
    pub kh: Option<IterId>,
    /// Kernel width loop.
    pub kw: Option<IterId>,
    /// Group loop introduced by grouping.
    pub g: Option<IterId>,
}

impl ConvRoles {
    /// Clears any role held by `iter` (called when a loop is destroyed).
    pub fn clear(&mut self, iter: IterId) {
        for slot in [
            &mut self.co,
            &mut self.ci,
            &mut self.oh,
            &mut self.ow,
            &mut self.kh,
            &mut self.kw,
            &mut self.g,
        ] {
            if *slot == Some(iter) {
                *slot = None;
            }
        }
    }
}

/// A loop nest: ordered loops (outer → inner), statements, tensor
/// declarations, and optional convolution metadata.
///
/// The loop order *is* the schedule: transformations rewrite this structure
/// and `pte_ir::legality` decides whether a rewrite preserves dependences.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    name: String,
    loops: Vec<IterVar>,
    stmts: Vec<Stmt>,
    tensors: Vec<TensorDecl>,
    conv: Option<ConvShape>,
    roles: ConvRoles,
    next_iter: u32,
    next_stmt: u32,
}

impl LoopNest {
    /// Creates an empty nest (used by tests and generic examples).
    pub fn empty(name: impl Into<String>) -> Self {
        LoopNest {
            name: name.into(),
            loops: Vec::new(),
            stmts: Vec::new(),
            tensors: Vec::new(),
            conv: None,
            roles: ConvRoles::default(),
            next_iter: 0,
            next_stmt: 0,
        }
    }

    /// Builds the canonical tensor-convolution nest of the paper's Figure 1
    /// (row 2) / Algorithm 1: loops `[co, oh, ow, ci, kh, kw]` around
    /// `O[co][oh][ow] += W[co][ci][kh][kw] * I[ci][oh·s+kh][ow·s+kw]`.
    ///
    /// Unit-extent kernel loops are kept (they print as in Algorithm 1 for
    /// `1×1` convolutions and are removed by `simplify` if desired).
    pub fn conv2d(shape: &ConvShape) -> Self {
        let mut nest = LoopNest::empty("conv2d");
        nest.conv = Some(*shape);
        let (oh_e, ow_e) = shape.output_hw();

        let co = nest.push_loop("co", shape.c_out, IterKind::DataParallel);
        let oh = nest.push_loop("oh", oh_e, IterKind::DataParallel);
        let ow = nest.push_loop("ow", ow_e, IterKind::DataParallel);
        let ci = nest.push_loop("ci", shape.c_in, IterKind::Reduction);
        let kh = nest.push_loop("kh", shape.k_h, IterKind::Reduction);
        let kw = nest.push_loop("kw", shape.k_w, IterKind::Reduction);
        nest.roles = ConvRoles {
            co: Some(co),
            ci: Some(ci),
            oh: Some(oh),
            ow: Some(ow),
            kh: Some(kh),
            kw: Some(kw),
            g: None,
        };

        let out = Access::new(
            "O",
            vec![AffineExpr::var(co), AffineExpr::var(oh), AffineExpr::var(ow)],
            AccessKind::ReadWrite,
        );
        let weight = Access::new(
            "W",
            vec![
                AffineExpr::var(co),
                AffineExpr::var(ci),
                AffineExpr::var(kh),
                AffineExpr::var(kw),
            ],
            AccessKind::Read,
        );
        let input = Access::new(
            "I",
            vec![
                AffineExpr::var(ci),
                AffineExpr::term(oh, shape.stride).plus(&AffineExpr::var(kh)),
                AffineExpr::term(ow, shape.stride).plus(&AffineExpr::var(kw)),
            ],
            AccessKind::Read,
        );
        let sid = nest.fresh_stmt_id();
        nest.stmts.push(Stmt::mul_acc(sid, out, weight, input));
        nest.refresh_tensor_decls();
        nest
    }

    /// The nest's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Loops in schedule order (outer → inner).
    pub fn loops(&self) -> &[IterVar] {
        &self.loops
    }

    /// Mutable loops (transformations only; keep accesses consistent).
    pub fn loops_mut(&mut self) -> &mut Vec<IterVar> {
        &mut self.loops
    }

    /// Statements in body order.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Tensor declarations.
    pub fn tensors(&self) -> &[TensorDecl] {
        &self.tensors
    }

    /// Looks up a tensor declaration by name.
    pub fn tensor(&self, name: &str) -> Option<&TensorDecl> {
        self.tensors.iter().find(|t| t.name == name)
    }

    /// Convolution metadata, if this nest implements a convolution.
    pub fn conv(&self) -> Option<&ConvShape> {
        self.conv.as_ref()
    }

    /// Mutable convolution metadata (neural transformations only).
    pub fn conv_mut(&mut self) -> Option<&mut ConvShape> {
        self.conv.as_mut()
    }

    /// Iterator roles for convolution nests.
    pub fn roles(&self) -> &ConvRoles {
        &self.roles
    }

    /// Mutable iterator roles (neural transformations only).
    pub fn roles_mut(&mut self) -> &mut ConvRoles {
        &mut self.roles
    }

    /// Allocates a fresh iterator id.
    pub fn fresh_iter_id(&mut self) -> IterId {
        let id = IterId(self.next_iter);
        self.next_iter += 1;
        id
    }

    /// Allocates a fresh statement id.
    pub fn fresh_stmt_id(&mut self) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        id
    }

    /// Appends a new innermost loop and returns its id.
    pub fn push_loop(&mut self, name: &str, extent: i64, kind: IterKind) -> IterId {
        let id = self.fresh_iter_id();
        self.loops.push(IterVar::new(id, name, extent, kind));
        id
    }

    /// Appends a statement built from raw accesses.
    pub fn push_stmt(&mut self, accesses: Vec<Access>) -> StmtId {
        let id = self.fresh_stmt_id();
        self.stmts.push(Stmt::from_accesses(id, accesses));
        id
    }

    /// Position of a loop in the schedule order.
    ///
    /// # Errors
    /// Returns [`IrError::UnknownIter`] if the loop does not exist.
    pub fn position(&self, iter: IterId) -> Result<usize> {
        self.loops
            .iter()
            .position(|l| l.id() == iter)
            .ok_or(IrError::UnknownIter { name: iter.to_string() })
    }

    /// Looks up a loop by id.
    ///
    /// # Errors
    /// Returns [`IrError::UnknownIter`] if the loop does not exist.
    pub fn iter_var(&self, iter: IterId) -> Result<&IterVar> {
        self.loops
            .iter()
            .find(|l| l.id() == iter)
            .ok_or(IrError::UnknownIter { name: iter.to_string() })
    }

    /// Mutable loop lookup.
    ///
    /// # Errors
    /// Returns [`IrError::UnknownIter`] if the loop does not exist.
    pub fn iter_var_mut(&mut self, iter: IterId) -> Result<&mut IterVar> {
        self.loops
            .iter_mut()
            .find(|l| l.id() == iter)
            .ok_or(IrError::UnknownIter { name: iter.to_string() })
    }

    /// Looks up a loop by display name (first match).
    pub fn find_loop(&self, name: &str) -> Option<&IterVar> {
        self.loops.iter().find(|l| l.name() == name)
    }

    /// Human-readable schedule signature, e.g. `[co, oh, ow, ci, kh, kw]`.
    pub fn schedule_signature(&self) -> String {
        let names: Vec<&str> = self.loops.iter().map(|l| l.name()).collect();
        format!("[{}]", names.join(", "))
    }

    /// Substitutes `iter ↦ replacement` in every access of every statement.
    pub fn substitute_everywhere(&mut self, iter: IterId, replacement: &AffineExpr) {
        for stmt in &mut self.stmts {
            for access in stmt.accesses_mut() {
                access.substitute(iter, replacement);
            }
        }
    }

    /// Substitutes `iter ↦ replacement` only in accesses to `tensor`.
    pub fn substitute_in_tensor(&mut self, tensor: &str, iter: IterId, replacement: &AffineExpr) {
        for stmt in &mut self.stmts {
            for access in stmt.accesses_mut() {
                if access.tensor() == tensor {
                    access.substitute(iter, replacement);
                }
            }
        }
    }

    /// Compacts group strides after a channel loop shrinks by `factor`.
    ///
    /// Grouped accesses index channels as `per_group · g + c` with
    /// `per_group` baked in as `g`'s coefficient. When a later transformation
    /// shrinks the within-group loop `c` (input/output bottlenecking after
    /// grouping), the slices each group reads must stay **contiguous** for
    /// the nest to still compute the operator its [`ConvShape`] metadata
    /// claims — so every [`IterKind::Group`] coefficient in an index
    /// expression that uses `around` is divided by `factor`.
    ///
    /// # Errors
    /// Returns [`IrError::Precondition`] if any affected group coefficient is
    /// not divisible by `factor` (the composition would leave holes).
    pub fn compact_group_strides(&mut self, around: IterId, factor: i64) -> Result<()> {
        let group_ids: Vec<IterId> =
            self.loops.iter().filter(|l| l.kind() == IterKind::Group).map(|l| l.id()).collect();
        if group_ids.is_empty() || factor <= 1 {
            return Ok(());
        }
        // Validate divisibility everywhere before mutating anything.
        for stmt in &self.stmts {
            for access in stmt.accesses() {
                for expr in access.indices().iter().filter(|e| e.uses(around)) {
                    for &g in &group_ids {
                        let coef = expr.coefficient(g);
                        if coef % factor != 0 {
                            return Err(IrError::Precondition {
                                op: "compact_group_strides",
                                reason: format!(
                                    "group stride {coef} in `{}` is not divisible by {factor}",
                                    access.tensor()
                                ),
                            });
                        }
                    }
                }
            }
        }
        for stmt in &mut self.stmts {
            for access in stmt.accesses_mut() {
                for expr in access.indices_mut().iter_mut().filter(|e| e.uses(around)) {
                    for &g in &group_ids {
                        let coef = expr.coefficient(g);
                        if coef != 0 {
                            expr.add_term(g, coef / factor - coef);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Removes loops of extent 1 with no annotation, substituting 0 for their
    /// iterator (the paper's "trivially simplified" step for depthwise nests).
    pub fn remove_unit_loops(&mut self) {
        let unit: Vec<IterId> = self
            .loops
            .iter()
            .filter(|l| l.extent() == 1 && l.annotation() == crate::IterAnnotation::None)
            .map(|l| l.id())
            .collect();
        for id in unit {
            self.substitute_everywhere(id, &AffineExpr::zero());
            self.loops.retain(|l| l.id() != id);
            self.roles.clear(id);
        }
        self.refresh_tensor_decls();
    }

    /// Recomputes every tensor declaration as the bounding box of its
    /// accesses over the current iteration domain.
    ///
    /// Keeping declarations derived (rather than hand-maintained) means every
    /// structural transformation automatically keeps footprint accounting —
    /// used by the cost models — consistent.
    pub fn refresh_tensor_decls(&mut self) {
        let mut maxima: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        let extent_of = |loops: &[IterVar], id: IterId| -> i64 {
            loops.iter().find(|l| l.id() == id).map(|l| l.extent()).unwrap_or(1)
        };
        for stmt in &self.stmts {
            for access in stmt.accesses() {
                let dims: Vec<i64> = access
                    .indices()
                    .iter()
                    .map(|e| {
                        let mut hi = e.constant_term();
                        for (iter, coef) in e.iter_terms() {
                            let max_iter = extent_of(&self.loops, iter) - 1;
                            if coef > 0 {
                                hi += coef * max_iter;
                            }
                        }
                        hi + 1
                    })
                    .collect();
                maxima
                    .entry(access.tensor().to_string())
                    .and_modify(|cur| {
                        for (c, d) in cur.iter_mut().zip(&dims) {
                            *c = (*c).max(*d);
                        }
                    })
                    .or_insert(dims);
            }
        }
        self.tensors = maxima.into_iter().map(|(name, dims)| TensorDecl { name, dims }).collect();
    }

    /// Checks the nest's structural invariants:
    ///
    /// * every loop extent is positive and every iterator id unique;
    /// * every access mentions only live iterators;
    /// * every access stays within its tensor's declared bounds over the
    ///   whole iteration domain;
    /// * every conv role (if set) names a live loop.
    ///
    /// Transformations maintain these invariants by construction; `validate`
    /// exists so integration layers (and fuzzers) can assert them after
    /// arbitrary rewrite sequences.
    ///
    /// # Errors
    /// Returns [`IrError::Precondition`] describing the first violation.
    pub fn validate(&self) -> Result<()> {
        let fail = |reason: String| Err(IrError::Precondition { op: "validate", reason });
        let mut seen = std::collections::BTreeSet::new();
        for l in &self.loops {
            if l.extent() <= 0 {
                return fail(format!("loop {} has non-positive extent {}", l.name(), l.extent()));
            }
            if !seen.insert(l.id()) {
                return fail(format!("duplicate iterator id {}", l.id()));
            }
        }
        let extent_of = |id: IterId| -> Option<i64> {
            self.loops.iter().find(|l| l.id() == id).map(|l| l.extent())
        };
        for stmt in &self.stmts {
            for access in stmt.accesses() {
                let Some(decl) = self.tensor(access.tensor()) else {
                    return fail(format!("access to undeclared tensor {}", access.tensor()));
                };
                if access.indices().len() != decl.dims.len() {
                    return fail(format!(
                        "access to {} has {} dims, declaration has {}",
                        access.tensor(),
                        access.indices().len(),
                        decl.dims.len()
                    ));
                }
                for (dim, (expr, &bound)) in access.indices().iter().zip(&decl.dims).enumerate() {
                    let mut lo = expr.constant_term();
                    let mut hi = expr.constant_term();
                    for (iter, coef) in expr.iter_terms() {
                        let Some(extent) = extent_of(iter) else {
                            return fail(format!(
                                "access to {} uses dead iterator {iter}",
                                access.tensor()
                            ));
                        };
                        if coef > 0 {
                            hi += coef * (extent - 1);
                        } else {
                            lo += coef * (extent - 1);
                        }
                    }
                    if lo < 0 || hi >= bound {
                        return fail(format!(
                            "access {}[dim {dim}] ranges {lo}..={hi} outside 0..{bound}",
                            access.tensor()
                        ));
                    }
                }
            }
        }
        for (name, slot) in [
            ("co", self.roles.co),
            ("ci", self.roles.ci),
            ("oh", self.roles.oh),
            ("ow", self.roles.ow),
            ("kh", self.roles.kh),
            ("kw", self.roles.kw),
            ("g", self.roles.g),
        ] {
            if let Some(id) = slot {
                if extent_of(id).is_none() {
                    return fail(format!("role {name} points at dead iterator {id}"));
                }
            }
        }
        Ok(())
    }

    /// Renders the nest as C-like pseudocode (see [`crate::pretty`]).
    pub fn render(&self) -> String {
        crate::pretty::render(self)
    }

    /// Total number of dynamic statement instances (product of extents).
    pub fn instance_count(&self) -> i64 {
        self.loops.iter().map(|l| l.extent()).product::<i64>() * self.stmts.len().max(1) as i64
    }
}

impl fmt::Display for LoopNest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.name, self.schedule_signature())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_nest_matches_algorithm_1_structure() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(64, 32, 56, 56));
        assert_eq!(nest.schedule_signature(), "[co, oh, ow, ci, kh, kw]");
        assert_eq!(nest.loops()[0].extent(), 32); // co
        assert_eq!(nest.loops()[3].extent(), 64); // ci
        assert_eq!(nest.stmts().len(), 1);
    }

    #[test]
    fn tensor_decls_inferred_from_accesses() {
        let shape = ConvShape::standard(16, 8, 3, 10, 10);
        let nest = LoopNest::conv2d(&shape);
        assert_eq!(nest.tensor("O").unwrap().dims, vec![8, 8, 8]);
        assert_eq!(nest.tensor("W").unwrap().dims, vec![8, 16, 3, 3]);
        assert_eq!(nest.tensor("I").unwrap().dims, vec![16, 10, 10]);
    }

    #[test]
    fn strided_conv_shrinks_output() {
        let shape = ConvShape::standard(4, 4, 3, 9, 9).with_stride(2);
        assert_eq!(shape.output_hw(), (4, 4));
        let nest = LoopNest::conv2d(&shape);
        assert_eq!(nest.tensor("O").unwrap().dims, vec![4, 4, 4]);
        // Input bounding box still covers the full padded input.
        assert_eq!(nest.tensor("I").unwrap().dims, vec![4, 9, 9]);
    }

    #[test]
    fn macs_match_formula() {
        let shape = ConvShape::standard(16, 32, 3, 10, 10);
        assert_eq!(shape.macs(), 8 * 8 * 32 * 16 * 9);
        assert_eq!(shape.params(), 32 * 16 * 9);
    }

    #[test]
    fn remove_unit_loops_simplifies_pointwise() {
        let mut nest = LoopNest::conv2d(&ConvShape::pointwise(8, 8, 6, 6));
        nest.remove_unit_loops();
        assert_eq!(nest.schedule_signature(), "[co, oh, ow, ci]");
        // Accesses no longer mention the removed kernel loops.
        assert_eq!(nest.tensor("W").unwrap().dims, vec![8, 8, 1, 1]);
    }

    #[test]
    fn position_reports_unknown_iter() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(4, 4, 4, 4));
        assert!(nest.position(IterId(99)).is_err());
    }

    #[test]
    fn instance_count_is_domain_size() {
        let nest = LoopNest::conv2d(&ConvShape::pointwise(4, 8, 6, 6));
        assert_eq!(nest.instance_count(), 8 * 6 * 6 * 4);
    }

    #[test]
    fn fresh_conv_nests_validate() {
        for shape in [
            ConvShape::pointwise(4, 8, 6, 6),
            ConvShape::standard(16, 8, 3, 10, 10),
            ConvShape::standard(4, 4, 3, 9, 9).with_stride(2),
        ] {
            LoopNest::conv2d(&shape).validate().expect("fresh nest is valid");
        }
    }

    #[test]
    fn validate_catches_out_of_bounds_access() {
        let mut nest = LoopNest::conv2d(&ConvShape::pointwise(4, 4, 4, 4));
        // Grow a loop beyond what the tensor declarations cover.
        let co = nest.find_loop("co").unwrap().id();
        nest.iter_var_mut(co).unwrap().set_extent(99);
        assert!(nest.validate().is_err());
    }

    #[test]
    fn validate_catches_dead_iterators() {
        let mut nest = LoopNest::conv2d(&ConvShape::pointwise(4, 4, 4, 4));
        // Remove a loop without fixing accesses.
        let ci = nest.find_loop("ci").unwrap().id();
        nest.loops_mut().retain(|l| l.id() != ci);
        assert!(nest.validate().is_err());
    }
}
