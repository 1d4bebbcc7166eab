//! Feature sets: subsets of the eight weighting schemes.
//!
//! The feature-selection experiment of the paper (Tables 3 and 4) evaluates
//! every one of the `2^8 − 1 = 255` non-empty scheme combinations.  A feature
//! set is represented as a bit mask over [`Scheme::ALL`]; the mask value is
//! the set's identifier in experiment reports.

use crate::schemes::Scheme;

/// A non-empty subset of weighting schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureSet {
    bits: u8,
}

impl FeatureSet {
    /// The optimal feature set of the original Supervised Meta-blocking paper:
    /// {CF-IBF, RACCB, JS, LCP}.
    pub fn original() -> Self {
        FeatureSet::from_schemes([Scheme::CfIbf, Scheme::Raccb, Scheme::Js, Scheme::Lcp])
    }

    /// The feature set selected for BLAST in this paper (Formula 1):
    /// {CF-IBF, RACCB, RS, NRS}.
    pub fn blast_optimal() -> Self {
        FeatureSet::from_schemes([Scheme::CfIbf, Scheme::Raccb, Scheme::Rs, Scheme::Nrs])
    }

    /// The feature set selected for RCNP in this paper (Formula 2):
    /// {CF-IBF, RACCB, JS, LCP, WJS}.
    pub fn rcnp_optimal() -> Self {
        FeatureSet::from_schemes([
            Scheme::CfIbf,
            Scheme::Raccb,
            Scheme::Js,
            Scheme::Lcp,
            Scheme::Wjs,
        ])
    }

    /// The full set of all eight schemes.
    pub fn all_schemes() -> Self {
        FeatureSet { bits: 0xFF }
    }

    /// Builds a feature set from a collection of schemes.
    ///
    /// # Panics
    /// Panics if the collection is empty.
    pub fn from_schemes(schemes: impl IntoIterator<Item = Scheme>) -> Self {
        let mut bits = 0u8;
        for scheme in schemes {
            bits |= 1 << scheme.index();
        }
        assert!(bits != 0, "a feature set must contain at least one scheme");
        FeatureSet { bits }
    }

    /// Builds a feature set from its bit-mask identifier (1..=255).
    pub fn from_id(id: u8) -> Option<Self> {
        if id == 0 {
            None
        } else {
            Some(FeatureSet { bits: id })
        }
    }

    /// The bit-mask identifier of the set.
    pub fn id(self) -> u8 {
        self.bits
    }

    /// True if the set contains the scheme.
    pub fn contains(self, scheme: Scheme) -> bool {
        self.bits & (1 << scheme.index()) != 0
    }

    /// The schemes in the set, in canonical order.
    pub fn schemes(self) -> Vec<Scheme> {
        Scheme::ALL
            .into_iter()
            .filter(|s| self.contains(*s))
            .collect()
    }

    /// Number of schemes in the set.
    pub fn num_schemes(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Length of the feature vectors this set produces (LCP counts twice).
    pub fn vector_len(self) -> usize {
        // Allocation-free: the fused pass's debug assertions call this once
        // per scored pair.
        Scheme::ALL
            .into_iter()
            .filter(|s| self.contains(*s))
            .map(|s| s.arity())
            .sum()
    }

    /// Enumerates all 255 non-empty feature sets in increasing id order.
    pub fn all_combinations() -> impl Iterator<Item = FeatureSet> {
        (1u8..=255).map(|bits| FeatureSet { bits })
    }

    /// True if the set includes the expensive LCP feature (the paper's
    /// explanation for the run-time gap between the BLAST and RCNP sets).
    pub fn uses_lcp(self) -> bool {
        self.contains(Scheme::Lcp)
    }
}

impl std::fmt::Display for FeatureSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.schemes().iter().map(|s| s.name()).collect();
        write!(f, "{{{}}}", names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_sets_match_the_paper() {
        assert_eq!(
            FeatureSet::original().schemes(),
            vec![Scheme::CfIbf, Scheme::Raccb, Scheme::Js, Scheme::Lcp]
        );
        assert_eq!(
            FeatureSet::blast_optimal().schemes(),
            vec![Scheme::CfIbf, Scheme::Raccb, Scheme::Rs, Scheme::Nrs]
        );
        assert_eq!(
            FeatureSet::rcnp_optimal().schemes(),
            vec![
                Scheme::CfIbf,
                Scheme::Raccb,
                Scheme::Js,
                Scheme::Lcp,
                Scheme::Wjs
            ]
        );
    }

    #[test]
    fn vector_length_counts_lcp_twice() {
        assert_eq!(FeatureSet::original().vector_len(), 5);
        assert_eq!(FeatureSet::blast_optimal().vector_len(), 4);
        assert_eq!(FeatureSet::rcnp_optimal().vector_len(), 6);
        assert_eq!(FeatureSet::all_schemes().vector_len(), 9);
    }

    #[test]
    fn there_are_255_combinations() {
        let sets: Vec<_> = FeatureSet::all_combinations().collect();
        assert_eq!(sets.len(), 255);
        let ids: std::collections::HashSet<u8> = sets.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), 255);
    }

    #[test]
    fn id_roundtrip() {
        let set = FeatureSet::rcnp_optimal();
        assert_eq!(FeatureSet::from_id(set.id()), Some(set));
        assert_eq!(FeatureSet::from_id(0), None);
    }

    #[test]
    fn display_lists_scheme_names() {
        let set = FeatureSet::blast_optimal();
        assert_eq!(set.to_string(), "{CF-IBF, RACCB, RS, NRS}");
    }

    #[test]
    #[should_panic(expected = "at least one scheme")]
    fn empty_set_is_rejected() {
        let _ = FeatureSet::from_schemes(std::iter::empty());
    }

    #[test]
    fn uses_lcp_flag() {
        assert!(FeatureSet::original().uses_lcp());
        assert!(!FeatureSet::blast_optimal().uses_lcp());
    }
}
