//! The eight weighting schemes.

/// A schema-agnostic weighting scheme.
///
/// The first four are the optimal feature set of the original Supervised
/// Meta-blocking paper; the last four are the new schemes introduced by the
/// Generalized Supervised Meta-blocking paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Co-occurrence Frequency – Inverse Block Frequency:
    /// `|B_i ∩ B_j| · log(|B|/|B_i|) · log(|B|/|B_j|)`.
    CfIbf,
    /// Reciprocal Aggregate Cardinality of Common Blocks:
    /// `Σ_{b ∈ B_i ∩ B_j} 1 / ||b||`.
    Raccb,
    /// Jaccard Scheme: `|B_i ∩ B_j| / (|B_i| + |B_j| − |B_i ∩ B_j|)`.
    Js,
    /// Local Candidate Pairs: the number of distinct candidates of an entity.
    /// Applies per entity, so it contributes two features to a vector
    /// (LCP(e_i) and LCP(e_j)).
    Lcp,
    /// Enhanced Jaccard Scheme: `JS · log(||B||/||e_i||) · log(||B||/||e_j||)`.
    Ejs,
    /// Weighted Jaccard Scheme: RACCB normalised by the per-entity sums of
    /// reciprocal block comparison cardinalities.
    Wjs,
    /// Reciprocal Sizes Scheme: `Σ_{b ∈ B_i ∩ B_j} 1 / |b|`.
    Rs,
    /// Normalized Reciprocal Sizes Scheme: RS normalised by the per-entity
    /// sums of reciprocal block sizes.
    Nrs,
}

impl Scheme {
    /// All schemes in canonical order (the order used for feature-set bit
    /// masks and feature-vector layout).
    pub const ALL: [Scheme; 8] = [
        Scheme::CfIbf,
        Scheme::Raccb,
        Scheme::Js,
        Scheme::Lcp,
        Scheme::Ejs,
        Scheme::Wjs,
        Scheme::Rs,
        Scheme::Nrs,
    ];

    /// The canonical index of the scheme (its bit position in a
    /// [`crate::FeatureSet`]).
    pub fn index(self) -> usize {
        match self {
            Scheme::CfIbf => 0,
            Scheme::Raccb => 1,
            Scheme::Js => 2,
            Scheme::Lcp => 3,
            Scheme::Ejs => 4,
            Scheme::Wjs => 5,
            Scheme::Rs => 6,
            Scheme::Nrs => 7,
        }
    }

    /// Number of feature-vector entries the scheme contributes (2 for LCP,
    /// 1 for everything else).
    pub(crate) fn arity(self) -> usize {
        if self == Scheme::Lcp {
            2
        } else {
            1
        }
    }

    /// Short display name used in experiment reports.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::CfIbf => "CF-IBF",
            Scheme::Raccb => "RACCB",
            Scheme::Js => "JS",
            Scheme::Lcp => "LCP",
            Scheme::Ejs => "EJS",
            Scheme::Wjs => "WJS",
            Scheme::Rs => "RS",
            Scheme::Nrs => "NRS",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_matches_indices() {
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            assert_eq!(scheme.index(), i);
        }
    }

    #[test]
    fn lcp_contributes_two_features() {
        assert_eq!(Scheme::Lcp.arity(), 2);
        assert_eq!(Scheme::Js.arity(), 1);
    }

    #[test]
    fn names_are_unique() {
        let names: std::collections::HashSet<_> = Scheme::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), 8);
        assert_eq!(Scheme::CfIbf.to_string(), "CF-IBF");
    }
}
