//! The selection vector: which rows of a batch are still alive.
//!
//! One type carries a filter's verdict from the predicate kernels to
//! whoever consumes the batch next. It is a sorted row-id vector (the
//! shape that lets a later conjunct touch only the survivors of an
//! earlier one), with "every row" stored as no vector at all so an
//! unfiltered batch costs nothing.
//!
//! ## Contract
//!
//! A `(batch, Selection)` pair stands for the batch with the unselected
//! rows deleted, in row order. Operators that only *read* rows — a
//! further filter, a join's build and probe, an exchange, partial
//! aggregation, the row interpreter's fallback, the final row copy —
//! must use the pair as it is. Operators that need dense columns (sort,
//! limit) call [`Selection::gather`] exactly once, at their input;
//! projection gathers each column it produces, a join the columns it
//! emits.

use redsim_common::{Bitmap, ColumnData};

/// Selected rows of a batch of `rows` rows.
///
/// Invariant: `ids`, when present, is strictly ascending, every id is
/// below `rows`, and it is shorter than `rows` — the full selection is
/// always `None`, so two equal selections compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    rows: usize,
    ids: Option<Vec<u32>>,
}

impl Selection {
    /// Every row of a `rows`-row batch.
    pub fn all(rows: usize) -> Self {
        Selection { rows, ids: None }
    }

    /// No row of a `rows`-row batch.
    pub fn none(rows: usize) -> Self {
        Selection::from_ids(rows, Vec::new())
    }

    /// From strictly ascending row ids, all below `rows`.
    pub fn from_ids(rows: usize, ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "selection ids must ascend"
        );
        debug_assert!(
            ids.last().is_none_or(|&i| (i as usize) < rows),
            "selection id out of range"
        );
        Selection {
            rows,
            ids: (ids.len() != rows).then_some(ids),
        }
    }

    /// Rows in the underlying batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Selected rows.
    pub fn len(&self) -> usize {
        self.ids.as_ref().map_or(self.rows, |v| v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when nothing was filtered out.
    pub fn is_all(&self) -> bool {
        self.ids.is_none()
    }

    /// The selected row ids, or `None` when every row is selected.
    pub fn ids(&self) -> Option<&[u32]> {
        self.ids.as_deref()
    }

    /// Selected row ids in order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |j| self.ids.as_ref().map_or(j, |v| v[j] as usize))
    }

    /// Call `f(position, row)` for every selected row, in order. The
    /// two loop shapes are split here so typed consumers get a plain
    /// counted loop over an unfiltered batch.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize, usize)) {
        match &self.ids {
            None => (0..self.rows).for_each(|i| f(i, i)),
            Some(ids) => ids.iter().enumerate().for_each(|(j, &i)| f(j, i as usize)),
        }
    }

    /// The selected rows that `keep` accepts. Branch-free on the output
    /// side: every candidate is written, the cursor advances only for
    /// kept ones.
    #[inline]
    pub fn select(&self, mut keep: impl FnMut(usize) -> bool) -> Selection {
        let mut out = vec![0u32; self.len()];
        let mut n = 0;
        self.for_each(|_, i| {
            out[n] = i as u32;
            n += keep(i) as usize;
        });
        out.truncate(n);
        // A selective filter would otherwise pin a candidate-sized
        // buffer for as long as the batch lives.
        if n < out.capacity() / 2 {
            out.shrink_to_fit();
        }
        Selection::from_ids(self.rows, out)
    }

    /// The selected rows that are valid in every given bitmap and pass
    /// `test`. Bitmaps without a NULL drop out of the per-row work.
    #[inline]
    pub fn select_valid(
        &self,
        a: Option<&Bitmap>,
        b: Option<&Bitmap>,
        test: impl Fn(usize) -> bool,
    ) -> Selection {
        match (a.filter(|n| !n.all_set()), b.filter(|n| !n.all_set())) {
            (None, None) => self.select(test),
            (Some(n), None) | (None, Some(n)) => self.select(|i| n.get(i) && test(i)),
            (Some(x), Some(y)) => self.select(|i| x.get(i) && y.get(i) && test(i)),
        }
    }

    /// Rows in `self` or `other` (same batch).
    pub fn union(&self, other: &Selection) -> Selection {
        debug_assert_eq!(self.rows, other.rows);
        let (Some(a), Some(b)) = (self.ids(), other.ids()) else {
            return Selection::all(self.rows);
        };
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            out.push(x.min(y));
            i += (x <= y) as usize;
            j += (y <= x) as usize;
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Selection::from_ids(self.rows, out)
    }

    /// Rows in `self` but not in `other`, a subset of `self`.
    pub fn difference(&self, other: &Selection) -> Selection {
        debug_assert_eq!(self.rows, other.rows);
        let Some(b) = other.ids() else {
            return Selection::none(self.rows);
        };
        let mut j = 0;
        self.select(|i| {
            while j < b.len() && (b[j] as usize) < i {
                j += 1;
            }
            !(j < b.len() && b[j] as usize == i)
        })
    }

    /// Dense copies of `cols` holding only the selected rows.
    pub fn gather(&self, cols: &[ColumnData]) -> Vec<ColumnData> {
        match &self.ids {
            None => cols.to_vec(),
            Some(ids) => cols.iter().map(|c| c.gather(ids)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(rows: usize, ids: &[u32]) -> Selection {
        Selection::from_ids(rows, ids.to_vec())
    }

    #[test]
    fn full_selection_is_canonical() {
        assert_eq!(sel(3, &[0, 1, 2]), Selection::all(3));
        assert_eq!(Selection::none(0), Selection::all(0));
        assert!(sel(3, &[0, 1, 2]).is_all());
        assert_eq!(sel(3, &[1]).len(), 1);
        assert_eq!(
            Selection::all(4).iter().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(sel(4, &[1, 3]).iter().collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn select_narrows_in_order() {
        let evens = Selection::all(6).select(|i| i % 2 == 0);
        assert_eq!(evens, sel(6, &[0, 2, 4]));
        assert_eq!(evens.select(|i| i > 0), sel(6, &[2, 4]));
        assert_eq!(evens.select(|_| true), evens);
        assert!(evens.select(|_| false).is_empty());
    }

    #[test]
    fn set_operations() {
        let a = sel(8, &[0, 2, 4, 6]);
        let b = sel(8, &[1, 2, 3, 6]);
        assert_eq!(a.union(&b), sel(8, &[0, 1, 2, 3, 4, 6]));
        assert_eq!(a.difference(&b), sel(8, &[0, 4]));
        assert_eq!(a.union(&Selection::all(8)), Selection::all(8));
        assert_eq!(Selection::all(8).difference(&a), sel(8, &[1, 3, 5, 7]));
        assert!(a.difference(&Selection::all(8)).is_empty());
        assert_eq!(a.difference(&Selection::none(8)), a);
    }

    #[test]
    fn gather_densifies() {
        use redsim_common::{DataType, Value};
        let mut c = ColumnData::new(DataType::Int8);
        for v in [10, 20, 30] {
            c.push_value(&Value::Int8(v)).unwrap();
        }
        let dense = sel(3, &[0, 2]).gather(std::slice::from_ref(&c));
        assert_eq!(dense[0].len(), 2);
        assert_eq!(dense[0].get_i64(1), Some(30));
    }
}
