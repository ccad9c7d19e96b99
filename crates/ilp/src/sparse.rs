//! Shared sparse storage for the constraint matrix.
//!
//! The solver kernels all consume the same linear rows: the propagator
//! tightens bounds over them, the simplex builds its tableau from them, the
//! branching rules count variable occurrences in them. The seed kept one
//! `Vec<(usize, f64)>` per row, which made row iteration allocate-heavy and
//! left no way to answer "which rows mention variable `j`?" without a full
//! scan — the question bound propagation asks constantly.
//!
//! [`SparseModel`] compiles the model once into a compressed sparse row
//! (CSR) image for row-wise access *and* a compressed sparse column (CSC)
//! index for column-wise access. Both live in flat arrays, so cloning a
//! compiled model (which the layered synthesis engine does per k-test
//! session) is three `memcpy`s instead of thousands of small allocations.

use crate::model::{CmpOp, Model};

/// FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a folding step, with an extra shift-XOR diffusion: plain
/// XOR-multiply never propagates a difference in the *top* bit downwards
/// (`2⁶³·odd ≡ 2⁶³ mod 2⁶⁴`), so without it two sign-bit-only input
/// differences — e.g. negating an even number of coefficients — cancel
/// exactly.
#[inline]
pub(crate) fn fnv_fold(h: &mut u64, bits: u64) {
    *h ^= bits;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    *h ^= *h >> 29;
}

/// A borrowed view of one constraint row `Σ aᵢ·xᵢ  op  rhs`.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// Column (variable) indices of the non-zero coefficients.
    pub cols: &'a [u32],
    /// Coefficient values, parallel to `cols`.
    pub vals: &'a [f64],
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand side.
    pub rhs: f64,
}

impl RowRef<'_> {
    /// Iterates over `(variable index, coefficient)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cols
            .iter()
            .zip(self.vals)
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Number of non-zero coefficients in the row.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the row has no variable terms.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

/// The constraint matrix of a model in combined CSR + CSC form.
#[derive(Debug, Clone, Default)]
pub struct SparseModel {
    num_vars: usize,
    // CSR: rows in constraint order.
    row_start: Vec<usize>,
    row_cols: Vec<u32>,
    row_vals: Vec<f64>,
    ops: Vec<CmpOp>,
    rhs: Vec<f64>,
    // CSC: for every variable, the rows that mention it and the matching
    // coefficients (parallel arrays).
    col_start: Vec<usize>,
    col_rows: Vec<u32>,
    col_vals: Vec<f64>,
    /// FNV-1a content hash of the rows (senses, right-hand sides, column
    /// indices, coefficients), computed once at construction. The simplex
    /// uses it to guard warm-basis reuse without re-scanning the matrix.
    fingerprint: u64,
}

impl SparseModel {
    /// Compiles the constraint rows of a model.
    pub fn from_model(model: &Model) -> Self {
        Self::from_rows(
            model.num_vars(),
            model
                .constraints()
                .iter()
                .map(|c| (c.expr.iter().map(|(v, a)| (v.index(), a)), c.op, c.rhs)),
        )
    }

    /// Builds the matrix from an iterator of `(terms, op, rhs)` rows.
    ///
    /// Terms with a zero coefficient are dropped; duplicate column entries
    /// within one row are *not* merged (the model layer already merges them).
    ///
    /// # Panics
    ///
    /// Panics if a term references a variable index `>= num_vars`.
    pub fn from_rows<R, T>(num_vars: usize, rows: R) -> Self
    where
        R: IntoIterator<Item = (T, CmpOp, f64)>,
        T: IntoIterator<Item = (usize, f64)>,
    {
        let mut this = Self {
            num_vars,
            row_start: vec![0],
            ..Self::default()
        };
        for (terms, op, rhs) in rows {
            for (j, a) in terms {
                assert!(j < num_vars, "variable index {j} out of range ({num_vars})");
                if a != 0.0 {
                    this.row_cols.push(j as u32);
                    this.row_vals.push(a);
                }
            }
            this.row_start.push(this.row_cols.len());
            this.ops.push(op);
            this.rhs.push(rhs);
        }
        this.build_csc();
        this.fingerprint = this.compute_fingerprint();
        this
    }

    fn compute_fingerprint(&self) -> u64 {
        self.prefix_fingerprint(self.num_rows())
    }

    /// The fingerprint of the matrix made of the first `rows` rows: a
    /// matrix that only ever grows by appended rows can tell whether it
    /// still begins with the rows an earlier fingerprint was taken of.
    pub(crate) fn prefix_fingerprint(&self, rows: usize) -> u64 {
        let mut h = FNV_OFFSET;
        fnv_fold(&mut h, rows as u64);
        fnv_fold(&mut h, self.num_vars() as u64);
        for row in self.rows().take(rows) {
            fnv_fold(
                &mut h,
                match row.op {
                    CmpOp::Le => 1,
                    CmpOp::Ge => 2,
                    CmpOp::Eq => 3,
                },
            );
            fnv_fold(&mut h, row.rhs.to_bits());
            for (j, a) in row.terms() {
                fnv_fold(&mut h, j as u64);
                fnv_fold(&mut h, a.to_bits());
            }
        }
        h
    }

    /// Content hash of the rows (see the field docs); two matrices with
    /// equal fingerprints are, modulo hash collisions, structurally and
    /// numerically identical row sets.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn build_csc(&mut self) {
        let mut counts = vec![0usize; self.num_vars + 1];
        for &c in &self.row_cols {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.num_vars {
            counts[j + 1] += counts[j];
        }
        let mut cursor = counts.clone();
        let mut col_rows = vec![0u32; self.row_cols.len()];
        let mut col_vals = vec![0.0f64; self.row_cols.len()];
        for i in 0..self.num_rows() {
            let span = self.row_start[i]..self.row_start[i + 1];
            for (&c, &a) in self.row_cols[span.clone()].iter().zip(&self.row_vals[span]) {
                col_rows[cursor[c as usize]] = i as u32;
                col_vals[cursor[c as usize]] = a;
                cursor[c as usize] += 1;
            }
        }
        self.col_start = counts;
        self.col_rows = col_rows;
        self.col_vals = col_vals;
    }

    /// Number of constraint rows.
    pub fn num_rows(&self) -> usize {
        self.ops.len()
    }

    /// Number of variables (columns), including ones no row mentions.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of stored non-zero coefficients.
    pub fn num_nonzeros(&self) -> usize {
        self.row_cols.len()
    }

    /// A borrowed view of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_rows()`.
    pub fn row(&self, i: usize) -> RowRef<'_> {
        let span = self.row_start[i]..self.row_start[i + 1];
        RowRef {
            cols: &self.row_cols[span.clone()],
            vals: &self.row_vals[span],
            op: self.ops[i],
            rhs: self.rhs[i],
        }
    }

    /// Iterates over all rows in constraint order.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> + '_ {
        (0..self.num_rows()).map(|i| self.row(i))
    }

    /// The rows that mention variable `j` (CSC column), in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `j >= num_vars()`.
    pub fn rows_of_var(&self, j: usize) -> &[u32] {
        &self.col_rows[self.col_start[j]..self.col_start[j + 1]]
    }

    /// The CSC column of variable `j`: the rows that mention it (ascending)
    /// and the matching coefficients, as parallel slices. This is the
    /// column view the revised simplex prices and FTRANs from.
    ///
    /// # Panics
    ///
    /// Panics if `j >= num_vars()`.
    pub fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let span = self.col_start[j]..self.col_start[j + 1];
        (&self.col_rows[span.clone()], &self.col_vals[span])
    }

    /// Number of rows mentioning variable `j`.
    pub fn occurrences(&self, j: usize) -> usize {
        self.col_start[j + 1] - self.col_start[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    fn sample() -> (Model, SparseModel) {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_leq([(x, 1.0), (y, 2.0)], 3.0, "a");
        m.add_geq([(y, -1.0), (z, 4.0)], 1.0, "b");
        m.add_eq([(x, 1.0)], 1.0, "c");
        let s = SparseModel::from_model(&m);
        (m, s)
    }

    #[test]
    fn csr_reflects_constraints() {
        let (m, s) = sample();
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.num_nonzeros(), 5);
        let row = s.row(0);
        assert_eq!(row.op, CmpOp::Le);
        assert_eq!(row.rhs, 3.0);
        let terms: Vec<_> = row.terms().collect();
        assert_eq!(terms, vec![(0, 1.0), (1, 2.0)]);
        assert_eq!(s.rows().count(), m.num_constraints());
    }

    #[test]
    fn csc_answers_rows_of_var() {
        let (_m, s) = sample();
        assert_eq!(s.rows_of_var(0), &[0, 2]); // x in rows a and c
        assert_eq!(s.rows_of_var(1), &[0, 1]); // y in rows a and b
        assert_eq!(s.rows_of_var(2), &[1]); // z in row b
        assert_eq!(s.occurrences(0), 2);
        assert_eq!(s.occurrences(2), 1);
    }

    #[test]
    fn csc_columns_carry_coefficients() {
        let (_m, s) = sample();
        let (rows, vals) = s.col(1); // y: 2.0 in row a, -1.0 in row b
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[2.0, -1.0]);
        let (rows, vals) = s.col(2); // z: 4.0 in row b
        assert_eq!(rows, &[1]);
        assert_eq!(vals, &[4.0]);
    }

    #[test]
    fn zero_coefficients_are_dropped() {
        let s = SparseModel::from_rows(2, [(vec![(0usize, 0.0), (1, 1.0)], CmpOp::Le, 1.0)]);
        assert_eq!(s.num_nonzeros(), 1);
        assert_eq!(s.rows_of_var(0), &[] as &[u32]);
    }

    #[test]
    fn empty_rows_and_unused_columns() {
        let s = SparseModel::from_rows(3, [(Vec::<(usize, f64)>::new(), CmpOp::Ge, -1.0)]);
        assert_eq!(s.num_rows(), 1);
        assert!(s.row(0).is_empty());
        assert_eq!(s.occurrences(2), 0);
    }
}
