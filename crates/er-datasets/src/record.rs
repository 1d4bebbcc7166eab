//! The record engine: the one copy of the steps every generator shares.
//!
//! A profile starts as a token-index list — a *base record* mixing
//! distinctive tail tokens with Zipfian head tokens, a *confusable* variant
//! of an earlier one, or a noised duplicate copy — and is rendered as
//! `tok<index>` words spread over three attributes.  All three generators
//! call these methods, so each consumes its random stream in one order.
//! Rendering writes the digits straight into one exact-capacity `String`
//! per value and per external id (no per-token `String`, no `join`), on the
//! calling thread, so a corpus's allocations come from the main arena.
//! Attribute names are shared `Arc<str>`s and each attribute list is
//! allocated at its exact length, so a profile is five heap blocks: its
//! external id, its attribute list and up to three values.

use std::sync::Arc;

use er_core::{Attribute, EntityProfile};
use rand::Rng;

use crate::config::NoiseConfig;
use crate::noise::apply_noise;
use crate::vocab::{decimal_len, push_decimal, push_token, Vocabulary};

/// A generator's vocabulary, record shape and naming.  Attribute names are
/// irrelevant to schema-agnostic blocking, so every profile shares the
/// engine's three; the dataset name prefixes every external id.
pub(crate) struct RecordEngine<'a> {
    vocab: Vocabulary,
    name: &'a str,
    attribute_names: [Arc<str>; 3],
    min_tokens: usize,
    max_tokens: usize,
    distinctive_fraction: f64,
    noise: NoiseConfig,
}

impl<'a> RecordEngine<'a> {
    /// Builds the engine's vocabulary; the caller validated its
    /// configuration (`crate::config::validate_records`).
    pub(crate) fn new(
        name: &'a str,
        attribute_names: &'static [&'static str; 3],
        vocab_size: usize,
        zipf_exponent: f64,
        (min_tokens, max_tokens): (usize, usize),
        distinctive_fraction: f64,
        noise: NoiseConfig,
    ) -> Self {
        RecordEngine {
            vocab: Vocabulary::new(vocab_size, zipf_exponent),
            name,
            attribute_names: attribute_names.map(Arc::from),
            min_tokens,
            max_tokens,
            distinctive_fraction,
            noise,
        }
    }

    /// A base record: `min_tokens..=max_tokens` tokens, the distinctive
    /// fraction of them from the vocabulary tail, the rest Zipfian.
    pub(crate) fn base(&self, rng: &mut impl Rng) -> Vec<usize> {
        let len = rng.gen_range(self.min_tokens..=self.max_tokens);
        let distinctive = ((len as f64) * self.distinctive_fraction).round() as usize;
        let mut tokens = Vec::with_capacity(len);
        for _ in 0..distinctive {
            tokens.push(self.vocab.sample_tail(rng, 0.5));
        }
        for _ in distinctive..len {
            tokens.push(self.vocab.sample(rng));
        }
        tokens
    }

    /// A *confusable* record: a hard negative that keeps about 70 % of
    /// `source`'s tokens (products of one family, papers by one author).
    pub(crate) fn confusable(&self, source: &[usize], rng: &mut impl Rng) -> Vec<usize> {
        source
            .iter()
            .map(|&token| {
                if rng.gen::<f64>() < 0.7 {
                    token
                } else if rng.gen::<f64>() < self.distinctive_fraction {
                    self.vocab.sample_tail(rng, 0.5)
                } else {
                    self.vocab.sample(rng)
                }
            })
            .collect()
    }

    /// A noised duplicate copy of `base`.
    pub(crate) fn noised(&self, base: &[usize], rng: &mut impl Rng) -> Vec<usize> {
        apply_noise(base, &self.noise, &self.vocab, rng)
    }

    /// Renders `tokens` as the profile `<name>-<infix><index>`, its tokens
    /// split into up to three attributes of `⌈len / 3⌉` words each (so
    /// there are never more chunks than names).
    pub(crate) fn render(&self, infix: &str, index: usize, tokens: &[usize]) -> EntityProfile {
        let mut external_id =
            String::with_capacity(self.name.len() + 1 + infix.len() + decimal_len(index));
        external_id.push_str(self.name);
        external_id.push('-');
        external_id.push_str(infix);
        push_decimal(&mut external_id, index);

        let per_attr = tokens.len().div_ceil(self.attribute_names.len()).max(1);
        let chunks = tokens.chunks(per_attr);
        let mut attributes = Vec::with_capacity(chunks.len());
        for (chunk, name) in chunks.zip(&self.attribute_names) {
            // `tok`, the digits and one separator per word, less one.
            let len = chunk.iter().map(|&t| 4 + decimal_len(t)).sum::<usize>() - 1;
            let mut value = String::with_capacity(len);
            for (i, &token) in chunk.iter().enumerate() {
                if i > 0 {
                    value.push(' ');
                }
                push_token(&mut value, token);
            }
            attributes.push(Attribute::new(Arc::clone(name), value));
        }
        EntityProfile {
            external_id,
            attributes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::seeded_rng;

    fn engine() -> RecordEngine<'static> {
        RecordEngine::new(
            "set",
            &["a", "b", "c"],
            5000,
            1.0,
            (1, 12),
            0.5,
            NoiseConfig::heavy(),
        )
    }

    /// The rendering the generators used to do: one `format!` per token,
    /// joined with spaces.
    fn naive_render(name: &str, index: usize, tokens: &[usize]) -> EntityProfile {
        let mut profile = EntityProfile::new(format!("{name}-x{index}"));
        let per_attr = tokens.len().div_ceil(3).max(1);
        for (i, chunk) in tokens.chunks(per_attr).enumerate() {
            let words: Vec<String> = chunk.iter().map(|t| format!("tok{t}")).collect();
            profile.push_attribute(["a", "b", "c"][i % 3], words.join(" "));
        }
        profile
    }

    #[test]
    fn rendering_equals_the_formatted_join() {
        let engine = engine();
        let mut rng = seeded_rng(11);
        for index in [0usize, 7, 10, 999, 1_000_000] {
            for _ in 0..50 {
                let tokens = engine.base(&mut rng);
                let profile = engine.render("x", index, &tokens);
                assert_eq!(profile, naive_render("set", index, &tokens));
                assert_eq!(profile.attributes.capacity(), profile.attributes.len());
                for (attribute, name) in profile.attributes.iter().zip(&engine.attribute_names) {
                    assert_eq!(attribute.value.capacity(), attribute.value.len());
                    assert!(Arc::ptr_eq(&attribute.name, name), "a name was copied");
                }
                assert_eq!(profile.external_id.capacity(), profile.external_id.len());
            }
        }
        assert!(engine.render("x", 3, &[]).attributes.is_empty());
    }
}
