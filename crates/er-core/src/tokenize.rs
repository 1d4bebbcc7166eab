//! Schema-agnostic tokenisation.
//!
//! Token Blocking creates one block per distinct attribute-value token, so the
//! tokenizer defines the blocking keys.  Following the paper (and SparkER),
//! values are lower-cased and split on any non-alphanumeric character; empty
//! tokens are dropped.

/// Splits an attribute value into lowercase alphanumeric tokens.
pub fn tokenize(value: &str) -> Vec<String> {
    value
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

/// Tokenizes a value and appends the tokens into `out` without allocating a
/// fresh vector; used on the hot blocking path.
pub(crate) fn tokenize_into(value: &str, out: &mut Vec<String>) {
    for t in value.split(|c: char| !c.is_alphanumeric()) {
        if !t.is_empty() {
            out.push(t.to_lowercase());
        }
    }
}

/// Calls `f` with every lowercase token of `value`, in order, without
/// allocating per token: tokens that are already lowercase are passed as
/// borrowed slices of `value`, and tokens needing case folding are folded
/// into the reused `scratch` buffer (ASCII folding is done in place; only
/// non-ASCII tokens fall back to an allocating `str::to_lowercase`, whose
/// Unicode special cases — e.g. final sigma — must match [`tokenize`]
/// exactly).
///
/// Emits exactly the tokens of [`tokenize`], so the two drivers are
/// interchangeable; this one backs the parallel blocking engine.
pub fn for_each_token(value: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    for raw in value.split(|c: char| !c.is_alphanumeric()) {
        if raw.is_empty() {
            continue;
        }
        if raw.is_ascii() {
            if raw.bytes().any(|b| b.is_ascii_uppercase()) {
                scratch.clear();
                scratch.push_str(raw);
                scratch.make_ascii_lowercase();
                f(scratch);
            } else {
                f(raw);
            }
        } else {
            // `str::to_lowercase` (not per-char folding) so Unicode special
            // cases like final sigma match `tokenize` exactly; the one
            // allocation it makes is passed through without a scratch copy.
            f(&raw.to_lowercase());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_non_alphanumeric() {
        assert_eq!(
            tokenize("Apple iPhone-X (2018)"),
            vec!["apple", "iphone", "x", "2018"]
        );
    }

    #[test]
    fn lowercases() {
        assert_eq!(tokenize("Samsung S20"), vec!["samsung", "s20"]);
    }

    #[test]
    fn empty_and_punctuation_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("--- ,,, !!!").is_empty());
    }

    #[test]
    fn tokenize_into_appends() {
        let mut out = vec!["seed".to_string()];
        tokenize_into("Huawei Mate 20", &mut out);
        assert_eq!(out, vec!["seed", "huawei", "mate", "20"]);
    }

    #[test]
    fn unicode_alphanumerics_are_kept() {
        assert_eq!(tokenize("café 42"), vec!["café", "42"]);
    }

    #[test]
    fn for_each_token_matches_tokenize() {
        for value in [
            "Apple iPhone-X (2018)",
            "Samsung S20",
            "",
            "--- ,,, !!!",
            "café 42 CAFÉ Straße ΣΟΦΟΣ",
            "already lowercase tokens",
        ] {
            let mut scratch = String::new();
            let mut streamed = Vec::new();
            for_each_token(value, &mut scratch, |t| streamed.push(t.to_string()));
            assert_eq!(streamed, tokenize(value), "value {value:?}");
        }
    }
}
