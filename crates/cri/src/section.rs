//! Regular-section descriptors (RSDs).
//!
//! A regular section describes the set of array elements a loop nest
//! touches as a small product of strided dimensions — the representation
//! parallelizing compilers (Forge SPF, the Rice compiler of Dwarkadas et
//! al.) derive from subscript analysis of DO loops. The descriptor is
//! pure data: evaluating it enumerates element ranges without running
//! the loop, which is what lets the runtime fetch or push everything a
//! phase needs ahead of the accesses.

use std::ops::Range;

/// One dimension of a regular section: indices `lo..hi`, each scaled by
/// `stride` words. The innermost dimension of a dense access has
/// `stride == 1` and contributes a contiguous run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dim {
    /// First index (inclusive).
    pub lo: usize,
    /// Last index (exclusive).
    pub hi: usize,
    /// Words between consecutive indices.
    pub stride: usize,
}

/// A regular section over a flat (column-major) shared array: the set of
/// word indices `Σ_k i_k · stride_k` for `i_k ∈ lo_k..hi_k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Section {
    /// Dimensions, outermost first.
    pub dims: Vec<Dim>,
}

impl Section {
    /// A contiguous 1-D section.
    pub fn range(r: Range<usize>) -> Section {
        Section {
            dims: vec![Dim {
                lo: r.start,
                hi: r.end,
                stride: 1,
            }],
        }
    }

    /// A column block of a column-major 2-D array with `rows` words per
    /// column: all of columns `cols`.
    pub fn cols(cols: Range<usize>, rows: usize) -> Section {
        Section {
            dims: vec![
                Dim {
                    lo: cols.start,
                    hi: cols.end,
                    stride: rows,
                },
                Dim {
                    lo: 0,
                    hi: rows,
                    stride: 1,
                },
            ],
        }
    }

    /// An `outer`-strided section of contiguous `inner` runs: for each
    /// `i ∈ outer`, words `i·stride + inner.start .. i·stride + inner.end`.
    pub fn strided(outer: Range<usize>, stride: usize, inner: Range<usize>) -> Section {
        Section {
            dims: vec![
                Dim {
                    lo: outer.start,
                    hi: outer.end,
                    stride,
                },
                Dim {
                    lo: inner.start,
                    hi: inner.end,
                    stride: 1,
                },
            ],
        }
    }

    /// True when any dimension is empty.
    pub fn is_empty(&self) -> bool {
        self.dims.is_empty() || self.dims.iter().any(|d| d.lo >= d.hi)
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        self.dims.iter().map(|d| d.hi - d.lo).product()
    }

    /// Enumerate the section as maximal contiguous word ranges (sorted,
    /// merged). This is what the hint engine hands to
    /// [`treadmarks::Tmk::validate`] and the page-overlap computation.
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        if self.is_empty() {
            return Vec::new();
        }
        let (outer, last) = self.dims.split_at(self.dims.len() - 1);
        let last = &last[0];
        let mut bases = vec![0usize];
        for d in outer {
            let mut next = Vec::with_capacity(bases.len() * (d.hi - d.lo));
            for b in &bases {
                for i in d.lo..d.hi {
                    next.push(b + i * d.stride);
                }
            }
            bases = next;
        }
        let mut runs: Vec<Range<usize>> = Vec::new();
        for b in bases {
            if last.stride == 1 {
                runs.push(b + last.lo..b + last.hi);
            } else {
                for i in last.lo..last.hi {
                    let w = b + i * last.stride;
                    runs.push(w..w + 1);
                }
            }
        }
        merge_ranges(runs)
    }
}

/// An affine bound `base + coef * i` over an outer index `i`, clamped at
/// zero. The building block of triangular sections: a compiler derives
/// these from loop bounds like `DO J = I+1, N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AffineBound {
    /// Constant term (words).
    pub base: i64,
    /// Per-outer-index slope (words per index).
    pub coef: i64,
}

impl AffineBound {
    /// A constant bound (slope zero).
    pub const fn constant(base: i64) -> AffineBound {
        AffineBound { base, coef: 0 }
    }

    /// An affine bound `base + coef * i`.
    pub const fn affine(base: i64, coef: i64) -> AffineBound {
        AffineBound { base, coef }
    }

    /// Evaluate at outer index `i`, clamped at zero.
    pub fn eval(&self, i: usize) -> usize {
        (self.base + self.coef * i as i64).max(0) as usize
    }
}

/// A triangular section: for each outer index `i ∈ outer`, the contiguous
/// words `i·stride + lo(i) .. i·stride + hi(i)` with `lo`/`hi` affine in
/// `i`. This is the shape [`Section`] cannot express: the inner extent
/// varies with the outer index (MGS's `DO J = I+1, N` nests, triangular
/// solves), and the affine base also gives plain strided runs an origin
/// offset (a cyclic column set `j0, j0+np, …` of a padded matrix).
///
/// An empty inner range (`hi(i) <= lo(i)`) contributes nothing for that
/// `i`, so descriptors may over-approximate the outer range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TriSection {
    /// Outer index range.
    pub outer: Range<usize>,
    /// Words between consecutive outer indices.
    pub stride: usize,
    /// Inner lower bound (inclusive), affine in the outer index.
    pub lo: AffineBound,
    /// Inner upper bound (exclusive), affine in the outer index.
    pub hi: AffineBound,
}

impl TriSection {
    /// The cyclic column set `{j ∈ cols : j ≡ me (mod np)}` of a matrix
    /// with `stride` words per column, each column contributing words
    /// `inner` — the per-node section of a cyclically scheduled loop.
    pub fn cyclic_cols(
        cols: Range<usize>,
        me: usize,
        np: usize,
        stride: usize,
        inner: Range<usize>,
    ) -> TriSection {
        // First owned column at or after cols.start.
        let j0 = cols.start + (me + np - cols.start % np) % np;
        let count = if j0 >= cols.end {
            0
        } else {
            (cols.end - j0).div_ceil(np)
        };
        TriSection {
            outer: 0..count,
            stride: np * stride,
            lo: AffineBound::constant((j0 * stride + inner.start) as i64),
            hi: AffineBound::constant((j0 * stride + inner.end) as i64),
        }
    }

    /// True when no outer index contributes any words.
    pub fn is_empty(&self) -> bool {
        self.words() == 0
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        self.outer
            .clone()
            .map(|i| self.hi.eval(i).saturating_sub(self.lo.eval(i)))
            .sum()
    }

    /// Enumerate as maximal contiguous word ranges (sorted, merged).
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        let runs = self
            .outer
            .clone()
            .map(|i| {
                let b = i * self.stride;
                b + self.lo.eval(i)..b + self.hi.eval(i).max(self.lo.eval(i))
            })
            .collect();
        merge_ranges(runs)
    }
}

/// Sort and merge overlapping or adjacent ranges. Merges in place and
/// returns an exact-size `Vec`, so a short merged list kept around (a
/// cached schedule) does not pin its input's allocation.
pub fn merge_ranges(mut runs: Vec<Range<usize>>) -> Vec<Range<usize>> {
    runs.retain(|r| r.start < r.end);
    // Equal starts merge into one run whatever their order.
    runs.sort_unstable_by_key(|r| r.start);
    let mut len = 0;
    for k in 0..runs.len() {
        if len > 0 && runs[k].start <= runs[len - 1].end {
            runs[len - 1].end = runs[len - 1].end.max(runs[k].end);
        } else {
            runs.swap(len, k);
            len += 1;
        }
    }
    runs.truncate(len);
    runs.shrink_to_fit();
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_range_is_one_run() {
        assert_eq!(Section::range(5..12).word_ranges(), vec![5..12]);
        assert_eq!(Section::range(5..12).words(), 7);
        assert!(Section::range(5..5).is_empty());
        assert!(Section::range(5..5).word_ranges().is_empty());
    }

    #[test]
    fn full_columns_coalesce_into_one_run() {
        // Columns 2..5 of a 10-row array are contiguous in column-major
        // layout: the enumeration must merge them.
        assert_eq!(Section::cols(2..5, 10).word_ranges(), vec![20..50]);
    }

    #[test]
    fn strided_interior_stays_fragmented() {
        // Rows 1..4 of columns 0..3 (10 rows): three runs of three.
        let s = Section {
            dims: vec![
                Dim {
                    lo: 0,
                    hi: 3,
                    stride: 10,
                },
                Dim {
                    lo: 1,
                    hi: 4,
                    stride: 1,
                },
            ],
        };
        assert_eq!(s.word_ranges(), vec![1..4, 11..14, 21..24]);
        assert_eq!(s.words(), 9);
    }

    #[test]
    fn strided_helper_matches_manual_dims() {
        let s = Section::strided(2..4, 100, 10..20);
        assert_eq!(s.word_ranges(), vec![210..220, 310..320]);
    }

    #[test]
    fn non_unit_innermost_stride_enumerates_single_words() {
        let s = Section {
            dims: vec![Dim {
                lo: 0,
                hi: 3,
                stride: 4,
            }],
        };
        assert_eq!(s.word_ranges(), vec![0..1, 4..5, 8..9]);
    }

    #[test]
    fn merge_handles_overlap_and_adjacency() {
        assert_eq!(
            merge_ranges(vec![8..10, 0..4, 4..6, 5..9, 20..20]),
            vec![0..10]
        );
    }

    #[test]
    fn triangular_shrinking_upper_bound() {
        // For i in 0..3: words i*10 + (0 .. 6 - 2i): a lower-left triangle.
        let t = TriSection {
            outer: 0..3,
            stride: 10,
            lo: AffineBound::constant(0),
            hi: AffineBound::affine(6, -2),
        };
        assert_eq!(t.word_ranges(), vec![0..6, 10..14, 20..22]);
        assert_eq!(t.words(), 12);
        assert!(!t.is_empty());
    }

    #[test]
    fn triangular_growing_lower_bound() {
        // For i in 0..4: words i*4 + (i .. 4): the strict upper triangle of
        // a 4x4 column-major matrix, column i rows i..4.
        let t = TriSection {
            outer: 0..4,
            stride: 4,
            lo: AffineBound::affine(0, 1),
            hi: AffineBound::constant(4),
        };
        assert_eq!(t.word_ranges(), vec![0..4, 5..8, 10..12, 15..16]);
        assert_eq!(t.words(), 10);
    }

    #[test]
    fn triangular_empty_inner_ranges_drop_out() {
        let t = TriSection {
            outer: 0..5,
            stride: 8,
            lo: AffineBound::constant(0),
            hi: AffineBound::affine(2, -1), // empty from i = 2 on
        };
        assert_eq!(t.word_ranges(), vec![0..2, 8..9]);
        let empty = TriSection {
            outer: 3..3,
            stride: 8,
            lo: AffineBound::constant(0),
            hi: AffineBound::constant(4),
        };
        assert!(empty.is_empty());
        assert!(empty.word_ranges().is_empty());
    }

    #[test]
    fn cyclic_cols_partition_exactly() {
        // Columns 3..17 over 4 nodes, 10-word columns of which words 2..7
        // are touched: every column owned exactly once, by j % 4.
        let (stride, inner) = (10usize, 2..7);
        let mut seen = vec![0u32; 17 * stride];
        for me in 0..4 {
            let t = TriSection::cyclic_cols(3..17, me, 4, stride, inner.clone());
            for r in t.word_ranges() {
                for w in r {
                    seen[w] += 1;
                }
            }
        }
        for j in 3..17 {
            for i in 0..stride {
                let expect = u32::from(inner.contains(&i));
                assert_eq!(seen[j * stride + i], expect, "col {j} word {i}");
            }
        }
        // A node with no column in range contributes nothing.
        assert!(TriSection::cyclic_cols(5..6, 2, 4, 10, 0..10).is_empty());
    }
}
