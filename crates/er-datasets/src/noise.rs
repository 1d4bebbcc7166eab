//! Token-level noise applied to duplicate copies.

use rand::Rng;

use crate::config::NoiseConfig;
use crate::vocab::Vocabulary;

/// Applies the configured noise to a base token-index list, producing the
/// token list of the duplicate copy.
///
/// Guarantees that the result is never empty: if every token would be dropped,
/// the first base token is kept so the copy still has a blocking signature.
pub(crate) fn apply_noise(
    base: &[usize],
    noise: &NoiseConfig,
    vocab: &Vocabulary,
    rng: &mut impl Rng,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(base.len() + noise.extra_tokens);
    for &token in base {
        if rng.gen::<f64>() < noise.drop_probability {
            continue;
        }
        if rng.gen::<f64>() < noise.replace_probability {
            out.push(vocab.sample(rng));
        } else {
            out.push(token);
        }
    }
    if out.is_empty() && !base.is_empty() {
        out.push(base[0]);
    }
    for _ in 0..noise.extra_tokens {
        out.push(vocab.sample(rng));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::seeded_rng;

    #[test]
    fn zero_noise_preserves_tokens() {
        let vocab = Vocabulary::new(100, 1.0);
        let noise = NoiseConfig {
            drop_probability: 0.0,
            replace_probability: 0.0,
            extra_tokens: 0,
        };
        let mut rng = seeded_rng(1);
        let base = vec![1, 2, 3];
        assert_eq!(apply_noise(&base, &noise, &vocab, &mut rng), base);
    }

    #[test]
    fn full_drop_still_keeps_one_token() {
        let vocab = Vocabulary::new(100, 1.0);
        let noise = NoiseConfig {
            drop_probability: 1.0,
            replace_probability: 0.0,
            extra_tokens: 0,
        };
        let mut rng = seeded_rng(2);
        let out = apply_noise(&[7, 8, 9], &noise, &vocab, &mut rng);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn extra_tokens_are_appended() {
        let vocab = Vocabulary::new(100, 1.0);
        let noise = NoiseConfig {
            drop_probability: 0.0,
            replace_probability: 0.0,
            extra_tokens: 3,
        };
        let mut rng = seeded_rng(3);
        let out = apply_noise(&[1], &noise, &vocab, &mut rng);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], 1);
    }

    #[test]
    fn heavier_noise_preserves_fewer_original_tokens() {
        let vocab = Vocabulary::new(1000, 1.0);
        let mut rng = seeded_rng(4);
        let base: Vec<usize> = (100..150).collect();
        let count_preserved = |noise: &NoiseConfig, rng: &mut rand::rngs::StdRng| {
            let mut preserved = 0usize;
            for _ in 0..200 {
                let out = apply_noise(&base, noise, &vocab, rng);
                preserved += out.iter().filter(|t| base.contains(t)).count();
            }
            preserved
        };
        let light = count_preserved(&NoiseConfig::light(), &mut rng);
        let heavy = count_preserved(&NoiseConfig::heavy(), &mut rng);
        assert!(
            light > heavy,
            "light {light} should preserve more than heavy {heavy}"
        );
    }

    #[test]
    fn empty_base_stays_empty_except_extras() {
        let vocab = Vocabulary::new(10, 1.0);
        let noise = NoiseConfig {
            drop_probability: 0.5,
            replace_probability: 0.5,
            extra_tokens: 2,
        };
        let mut rng = seeded_rng(5);
        let out = apply_noise(&[], &noise, &vocab, &mut rng);
        assert_eq!(out.len(), 2);
    }
}
