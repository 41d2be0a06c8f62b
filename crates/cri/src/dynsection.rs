//! Dynamic section descriptors (the inspector/executor data format).
//!
//! A [`DynSection`] is what an inspector loop produces when it walks a
//! run-time indirection map: the set of touched word indices, compacted
//! into sorted run-length ranges. Unlike a [`Section`] it has no
//! algebraic structure — it is the *materialized* access set — but it
//! enumerates through the same `word_ranges` interface, so the hint
//! engine's validate/push/home-placement machinery consumes both
//! uniformly through [`SectionSet`].

use std::ops::Range;

use crate::section::{merge_ranges, Section, TriSection};

/// A dynamic section: sorted, merged word-index runs — the run-length
/// compacted image of an indirection map walk.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct DynSection {
    runs: Vec<Range<usize>>,
}

impl DynSection {
    /// Compact an unordered stream of touched word indices. Duplicates
    /// collapse; adjacent indices merge into runs.
    ///
    /// Host cost is O(indices + span/64): the stream sets bits in a
    /// growable word bitmap (nothing is collected first), and one
    /// `trailing_zeros` scan over the words emits the sorted, merged
    /// runs. A stream too sparse for that — its bitmap would need more
    /// than 8 KiB and more words than the indices seen so far — spills
    /// to a sort-merge of what it holds plus the rest of the stream, so
    /// past 8 KiB the bitmap never outweighs the 16-byte ranges the
    /// sort-merge would build. Either way the run list is the same.
    pub fn from_indices(indices: impl IntoIterator<Item = usize>) -> DynSection {
        let mut bits = WordBitmap::default();
        let mut indices = indices.into_iter();
        let mut seen = 0usize;
        while let Some(i) = indices.next() {
            seen += 1;
            if !bits.insert(i, seen.max(BITMAP_MIN_WORDS)) {
                let mut runs = bits.runs();
                runs.push(i..i + 1);
                runs.extend(indices.map(|i| i..i + 1));
                return DynSection {
                    runs: merge_ranges(runs),
                };
            }
        }
        DynSection { runs: bits.runs() }
    }

    /// Compact a set of (possibly overlapping, unordered) runs.
    pub fn from_runs(runs: Vec<Range<usize>>) -> DynSection {
        DynSection {
            runs: merge_ranges(runs),
        }
    }

    /// The sorted maximal runs.
    pub fn runs(&self) -> &[Range<usize>] {
        &self.runs
    }

    /// True when no words are described.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        self.runs.iter().map(|r| r.end - r.start).sum()
    }

    /// Enumerate as maximal contiguous word ranges (already canonical).
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        self.runs.clone()
    }

    /// Merge another section's words into this one — dynamic and
    /// rectangular descriptors compose (an inspector result unioned with
    /// the regular part the compiler *could* describe).
    pub fn union(&mut self, other: &SectionSet) {
        let mut runs = std::mem::take(&mut self.runs);
        runs.extend(other.word_ranges());
        self.runs = merge_ranges(runs);
    }
}

/// Words a [`DynSection::from_indices`] bitmap may always span (8 KiB),
/// however few indices it has seen.
const BITMAP_MIN_WORDS: usize = 1024;

/// A set of word indices as a dense bitmap over `base * 64 ..`.
#[derive(Default)]
struct WordBitmap {
    /// Index of the first bitmap word (bit `i` lives in word `i / 64`).
    base: usize,
    words: Vec<u64>,
}

impl WordBitmap {
    /// Set bit `i`, growing the bitmap to cover it. Returns false, and
    /// changes nothing, when covering `i` would span more than
    /// `max_words` words.
    fn insert(&mut self, i: usize, max_words: usize) -> bool {
        let w = i / 64;
        // Hot path: the word is already covered (`w < base` wraps high).
        if let Some(word) = self.words.get_mut(w.wrapping_sub(self.base)) {
            *word |= 1 << (i % 64);
            return true;
        }
        if self.words.is_empty() {
            self.base = w;
            self.words.push(0);
        } else if w < self.base {
            let len = self.words.len();
            if self.base + len - w > max_words {
                return false;
            }
            // Grow downwards by at least the current length, so a
            // descending stream shifts the words O(log span) times.
            let base = w.saturating_sub(len);
            self.words
                .splice(0..0, std::iter::repeat_n(0, self.base - base));
            self.base = base;
        } else {
            if w - self.base >= max_words {
                return false;
            }
            self.words.resize(w - self.base + 1, 0);
        }
        self.words[w - self.base] |= 1 << (i % 64);
        true
    }

    /// The set bits as sorted maximal runs, in an exact-size `Vec`.
    fn runs(&self) -> Vec<Range<usize>> {
        let mut runs = Vec::new();
        let mut start = None;
        for (k, &w) in self.words.iter().enumerate() {
            let at = (self.base + k) * 64;
            // Fast path: an all-zero word outside a run, an all-ones one
            // inside a run.
            if w == if start.is_none() { 0 } else { u64::MAX } {
                continue;
            }
            // Alternate between the next set bit (a run start) and the
            // next clear bit (a run end) at or above `bit`.
            let mut bit = 0;
            loop {
                let pending = match start {
                    None => w & (u64::MAX << bit),
                    Some(_) => !w & (u64::MAX << bit),
                };
                if pending == 0 {
                    break;
                }
                bit = pending.trailing_zeros();
                match start.take() {
                    None => start = Some(at + bit as usize),
                    Some(s) => runs.push(s..at + bit as usize),
                }
            }
        }
        if let Some(s) = start {
            runs.push(s..(self.base + self.words.len()) * 64);
        }
        runs.shrink_to_fit();
        runs
    }
}

impl From<&Section> for DynSection {
    fn from(s: &Section) -> DynSection {
        DynSection {
            runs: s.word_ranges(),
        }
    }
}

/// Any of the three descriptor shapes a loop access can carry: the
/// compiler's rectangular [`Section`], its triangular extension
/// [`TriSection`], or an inspector-materialized [`DynSection`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SectionSet {
    /// Regular (rectangular strided) section.
    Regular(Section),
    /// Triangular section (inner bounds affine in the outer index).
    Tri(TriSection),
    /// Dynamic section (inspector-materialized run list).
    Dyn(DynSection),
}

impl SectionSet {
    /// True when no words are described.
    pub fn is_empty(&self) -> bool {
        match self {
            SectionSet::Regular(s) => s.is_empty(),
            SectionSet::Tri(s) => s.is_empty(),
            SectionSet::Dyn(s) => s.is_empty(),
        }
    }

    /// Number of words described.
    pub fn words(&self) -> usize {
        match self {
            SectionSet::Regular(s) => s.words(),
            SectionSet::Tri(s) => s.words(),
            SectionSet::Dyn(s) => s.words(),
        }
    }

    /// Enumerate as maximal contiguous word ranges (sorted, merged).
    pub fn word_ranges(&self) -> Vec<Range<usize>> {
        match self {
            SectionSet::Regular(s) => s.word_ranges(),
            SectionSet::Tri(s) => s.word_ranges(),
            SectionSet::Dyn(s) => s.word_ranges(),
        }
    }
}

impl From<Section> for SectionSet {
    fn from(s: Section) -> SectionSet {
        SectionSet::Regular(s)
    }
}

impl From<TriSection> for SectionSet {
    fn from(s: TriSection) -> SectionSet {
        SectionSet::Tri(s)
    }
}

impl From<DynSection> for SectionSet {
    fn from(s: DynSection) -> SectionSet {
        SectionSet::Dyn(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_compact_into_runs() {
        let d = DynSection::from_indices([9, 3, 4, 5, 4, 10, 100]);
        assert_eq!(d.runs(), &[3..6, 9..11, 100..101]);
        assert_eq!(d.words(), 6);
        assert!(!d.is_empty());
        assert!(DynSection::from_indices([]).is_empty());
    }

    #[test]
    fn union_merges_with_regular_sections() {
        let mut d = DynSection::from_indices([0, 1, 2]);
        d.union(&Section::range(3..10).into());
        assert_eq!(d.runs(), std::slice::from_ref(&(0..10)));
    }

    #[test]
    fn section_set_dispatches_enumeration() {
        let reg: SectionSet = Section::range(5..8).into();
        assert_eq!(reg.word_ranges(), vec![5..8]);
        assert_eq!(reg.words(), 3);
        let dy: SectionSet = DynSection::from_indices([1, 7]).into();
        assert_eq!(dy.word_ranges(), vec![1..2, 7..8]);
        let tri: SectionSet = TriSection::cyclic_cols(0..4, 1, 2, 10, 0..10).into();
        assert_eq!(tri.word_ranges(), vec![10..20, 30..40]);
        assert!(!tri.is_empty());
    }

    /// The sort-merge `from_indices` used before the bitmap: every index
    /// a one-word range, stable-sorted by start, merged in order. The
    /// oracle the bitmap compaction must reproduce exactly.
    fn sort_merge_oracle(indices: &[usize]) -> Vec<Range<usize>> {
        let mut runs: Vec<Range<usize>> = indices.iter().map(|&i| i..i + 1).collect();
        runs.sort_by_key(|r| r.start);
        let mut out: Vec<Range<usize>> = Vec::new();
        for r in runs {
            match out.last_mut() {
                Some(last) if r.start <= last.end => last.end = last.end.max(r.end),
                _ => out.push(r),
            }
        }
        out
    }

    /// SplitMix64: a seeded stream for reproducible random inputs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    fn assert_matches_oracle(indices: &[usize], ctx: &str) {
        let got = DynSection::from_indices(indices.iter().copied());
        assert_eq!(got.runs(), sort_merge_oracle(indices), "{ctx}: {indices:?}");
    }

    #[test]
    fn bitmap_compaction_matches_sort_merge_on_edge_cases() {
        let base = 1 << 33;
        let cases: Vec<(&str, Vec<usize>)> = vec![
            ("empty", vec![]),
            ("single", vec![17]),
            ("index zero", vec![0]),
            ("zero and neighbours", vec![1, 0, 2, 0]),
            ("run ends at bit 63", (10..64).rev().collect()),
            ("run ends at bit 64", (10..65).collect()),
            ("run ends at bit 65", (10..66).collect()),
            ("run ends at bit 128", (60..129).collect()),
            ("run spans words", (63..193).collect()),
            ("all-ones words", (64..320).chain([0, 400]).collect()),
            ("all-ones then mixed", (0..128).chain([129, 131]).collect()),
            ("isolated word bits", vec![63, 64, 127, 128, 191]),
            (
                "descending words",
                (0..40).rev().map(|k| k * 64 + 5).collect(),
            ),
            (
                "large base offset",
                (0..300).map(|k| base + 3 * k / 2).collect(),
            ),
            (
                "large base descending",
                (0..300).rev().map(|k| base + k).collect(),
            ),
        ];
        for (ctx, indices) in &cases {
            assert_matches_oracle(indices, ctx);
        }
    }

    #[test]
    fn bitmap_compaction_matches_sort_merge_on_seeded_streams() {
        for seed in 0..200u64 {
            let mut rng = Rng(seed);
            let base = match seed % 4 {
                0 => 0,
                1 => rng.below(1000),
                2 => 1 << 40,
                _ => rng.below(1 << 20) * 64,
            };
            // Spans from a few words to far sparser than the bitmap
            // allows (those streams spill to the sort-merge).
            let bits = 4 + rng.below(20);
            let span = 1 + rng.below(1 << bits);
            let n = rng.below(3000);
            let mut indices: Vec<usize> = Vec::with_capacity(n);
            while indices.len() < n {
                match rng.below(4) {
                    // A scattered single index.
                    0 => indices.push(base + rng.below(span)),
                    // A duplicate of an index already produced.
                    1 if !indices.is_empty() => {
                        let k = rng.below(indices.len());
                        indices.push(indices[k]);
                    }
                    // A short contiguous run, in either direction.
                    2 => {
                        let lo = base + rng.below(span);
                        let run = lo..lo + rng.below(150);
                        if rng.below(2) == 0 {
                            indices.extend(run);
                        } else {
                            indices.extend(run.rev());
                        }
                    }
                    // A 9-point stencil around a random centre.
                    _ => {
                        let c = base + 65 + rng.below(span);
                        for s in 0..9 {
                            indices.push(c + (s / 3) * 64 + s % 3 - 65);
                        }
                    }
                }
            }
            assert_matches_oracle(&indices, &format!("seed {seed}"));
        }
    }

    #[test]
    fn sparse_stream_spills_without_proportional_allocation() {
        // A bitmap over 0..=2^40 would be 2^34 words (128 GiB): the
        // stream must spill to the sort-merge instead.
        let d = DynSection::from_indices([3, 1 << 40, 4]);
        assert_eq!(d.runs(), &[3..5, (1 << 40)..(1 << 40) + 1]);
        // Spilling late, with a dense prefix already in the bitmap.
        let late: Vec<usize> = (0..5000).chain([1 << 40, 1 << 41, 7, 5000]).collect();
        assert_matches_oracle(&late, "late spill");
        // Spilling downwards, below a high first index.
        assert_matches_oracle(&[1 << 40, 3, (1 << 40) + 1], "downward spill");
    }

    #[test]
    fn run_lists_are_exact_size() {
        // ~100k overlapping runs merging into a few dozen: the kept list
        // must not hold on to the input's allocation.
        let runs: Vec<Range<usize>> = (0..100_000)
            .map(|k| {
                let lo = (k * 7919) % 100_000 / 2000 * 4000 + k % 50;
                lo..lo + 10
            })
            .collect();
        let d = DynSection::from_runs(runs);
        assert!(d.runs.len() <= 50, "{} runs", d.runs.len());
        assert!(
            d.runs.capacity() <= 2 * d.runs.len(),
            "capacity {} for {} runs",
            d.runs.capacity(),
            d.runs.len()
        );
        let walk = (0..200_000).map(|k| (k * 7919) % 100_000 / 2000 * 4000 + k % 50);
        let d = DynSection::from_indices(walk);
        assert!(d.runs.capacity() <= 2 * d.runs.len());
    }

    #[test]
    fn dyn_from_section_matches_its_ranges() {
        let s = Section::strided(0..3, 10, 2..5);
        let d = DynSection::from(&s);
        assert_eq!(d.word_ranges(), s.word_ranges());
    }
}
