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
/// allocating per token.
///
/// An all-ASCII value (every value of the generated corpora) is split on
/// its non-alphanumeric bytes; if it has an uppercase letter it is first
/// folded as a whole into the reused `scratch` buffer.  For ASCII,
/// `char::is_alphanumeric` is `u8::is_ascii_alphanumeric` and
/// `str::to_lowercase` is `make_ascii_lowercase`, so the tokens are exactly
/// those of [`tokenize`].  Any other value keeps the per-token path:
/// already-lowercase tokens are passed as borrowed slices, ASCII ones are
/// folded in `scratch`, and non-ASCII ones go through an allocating
/// `str::to_lowercase`, whose Unicode special cases — e.g. final sigma —
/// must match [`tokenize`] exactly.
///
/// Emits exactly the tokens of [`tokenize`], so the two drivers are
/// interchangeable; this one backs the parallel blocking engine.
pub fn for_each_token(value: &str, scratch: &mut String, mut f: impl FnMut(&str)) {
    if value.is_ascii() {
        let text: &str = if value.bytes().any(|b| b.is_ascii_uppercase()) {
            scratch.clear();
            scratch.push_str(value);
            scratch.make_ascii_lowercase();
            scratch
        } else {
            value
        };
        let mut start = 0;
        for (at, byte) in text.bytes().enumerate() {
            if !byte.is_ascii_alphanumeric() {
                if at > start {
                    f(&text[start..at]);
                }
                start = at + 1;
            }
        }
        if text.len() > start {
            f(&text[start..]);
        }
        return;
    }
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

    fn assert_streams_like_tokenize(value: &str, scratch: &mut String) {
        let mut streamed = Vec::new();
        for_each_token(value, scratch, |t| streamed.push(t.to_string()));
        assert_eq!(streamed, tokenize(value), "value {value:?}");
    }

    #[test]
    fn for_each_token_matches_tokenize() {
        let mut scratch = String::new();
        for value in [
            "Apple iPhone-X (2018)",
            "Samsung S20",
            "",
            "--- ,,, !!!",
            "café 42 CAFÉ Straße ΣΟΦΟΣ",
            "already lowercase tokens",
            "tok1 tok22 tok333",
            "  leading and trailing  ",
            "x",
            "ÀB-cd",
        ] {
            assert_streams_like_tokenize(value, &mut scratch);
        }

        // Seeded random strings: all-ASCII ones (every byte class, so the
        // fast path sees empty runs, edge separators and mixed case) and
        // mixed-script ones (the per-token path).
        let ascii: Vec<char> = (0u8..128).map(char::from).collect();
        let mixed: Vec<char> = "aZ9 -_.,/\\tÉéßΣσςİıǅ٣漢字😀\u{0301}"
            .chars()
            .chain("AbcXYZ019 ".chars())
            .collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for alphabet in [&ascii, &mixed] {
            for _ in 0..2000 {
                let len = next(24);
                let value: String = (0..len).map(|_| alphabet[next(alphabet.len())]).collect();
                assert_streams_like_tokenize(&value, &mut scratch);
            }
        }
    }
}
