//! Similarity metrics for imprecise policy migration (paper §4.3, \[13\]).
//!
//! Migrating a policy between middleware systems is "not a simple
//! one-to-one mapping": role and domain names drift (`Manager` vs
//! `Managers` vs `SalesManager`). Following Foley's imprecise-delegation
//! work \[13\], names are matched by string similarity; three standard
//! metrics are provided plus a combined scorer and a best-match resolver.

use std::collections::BTreeSet;

/// Levenshtein edit distance.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Normalised Levenshtein similarity in `[0, 1]`.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max = a.chars().count().max(b.chars().count());
    if max == 0 {
        return 1.0;
    }
    1.0 - levenshtein(a, b) as f64 / max as f64
}

/// Jaro similarity in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = (a.len().max(b.len()) / 2).saturating_sub(1);
    let mut b_taken = vec![false; b.len()];
    let mut matches_a: Vec<char> = Vec::new();
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_taken[j] && b[j] == ca {
                b_taken[j] = true;
                matches_a.push(ca);
                break;
            }
        }
    }
    let m = matches_a.len();
    if m == 0 {
        return 0.0;
    }
    let matches_b: Vec<char> = b
        .iter()
        .zip(b_taken.iter())
        .filter(|(_, &t)| t)
        .map(|(&c, _)| c)
        .collect();
    let transpositions = matches_a
        .iter()
        .zip(matches_b.iter())
        .filter(|(x, y)| x != y)
        .count()
        / 2;
    let m = m as f64;
    (m / a.len() as f64 + m / b.len() as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro-Winkler similarity (prefix-boosted Jaro), `p = 0.1`, max prefix 4.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    let j = jaro(a, b);
    let prefix = a
        .chars()
        .zip(b.chars())
        .take(4)
        .take_while(|(x, y)| x == y)
        .count();
    j + prefix as f64 * 0.1 * (1.0 - j)
}

/// Sørensen-Dice coefficient over character bigrams.
pub fn dice_bigram(a: &str, b: &str) -> f64 {
    fn bigrams(s: &str) -> BTreeSet<(char, char)> {
        let chars: Vec<char> = s.chars().collect();
        chars.windows(2).map(|w| (w[0], w[1])).collect()
    }
    if a == b {
        return 1.0;
    }
    let ba = bigrams(a);
    let bb = bigrams(b);
    if ba.is_empty() || bb.is_empty() {
        return 0.0;
    }
    let shared = ba.intersection(&bb).count();
    2.0 * shared as f64 / (ba.len() + bb.len()) as f64
}

/// The combined scorer used by migration: mean of the three metrics over
/// case-folded names. Exact case-insensitive matches score 1.
pub fn combined_similarity(a: &str, b: &str) -> f64 {
    let a = a.to_lowercase();
    let b = b.to_lowercase();
    if a == b {
        return 1.0;
    }
    (levenshtein_similarity(&a, &b) + jaro_winkler(&a, &b) + dice_bigram(&a, &b)) / 3.0
}

/// The best candidate for `name` among `candidates`, if its combined
/// score reaches `threshold`. Ties resolve to the lexicographically
/// smallest candidate for determinism.
pub fn best_match<'a>(
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
    threshold: f64,
) -> Option<(&'a str, f64)> {
    let mut best: Option<(&'a str, f64)> = None;
    for c in candidates {
        let score = combined_similarity(name, c);
        let better = match best {
            None => true,
            Some((bc, bs)) => score > bs + 1e-12 || ((score - bs).abs() <= 1e-12 && c < bc),
        };
        if better {
            best = Some((c, score));
        }
    }
    best.filter(|(_, s)| *s >= threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("", ""), 0);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("", "ab"), 2);
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("manager", "manager"), 0);
        assert_eq!(levenshtein("manager", "managers"), 1);
    }

    #[test]
    fn levenshtein_similarity_range() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert_eq!(levenshtein_similarity("abc", "xyz"), 0.0);
        let s = levenshtein_similarity("manager", "managers");
        assert!(s > 0.8 && s < 1.0);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert!((jaro("martha", "marhta") - 0.944444).abs() < 1e-4);
        assert!((jaro_winkler("martha", "marhta") - 0.961111).abs() < 1e-4);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("a", ""), 0.0);
        assert_eq!(jaro("abc", "abc"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
    }

    #[test]
    fn dice_basics() {
        assert_eq!(dice_bigram("night", "night"), 1.0);
        assert!(dice_bigram("night", "nacht") > 0.2);
        assert_eq!(dice_bigram("a", "b"), 0.0); // no bigrams
        assert_eq!(dice_bigram("ab", "cd"), 0.0);
    }

    #[test]
    fn combined_is_case_insensitive() {
        assert_eq!(combined_similarity("Manager", "manager"), 1.0);
        let close = combined_similarity("Manager", "Managers");
        let far = combined_similarity("Manager", "Assistant");
        assert!(close > 0.85, "close={close}");
        assert!(far < 0.55, "far={far}");
        assert!(close > far);
    }

    #[test]
    fn best_match_selects_and_thresholds() {
        let candidates = ["Manager", "Clerk", "Assistant"];
        let (m, s) = best_match("Managers", candidates, 0.8).unwrap();
        assert_eq!(m, "Manager");
        assert!(s > 0.8);
        assert!(best_match("Wizard", candidates, 0.8).is_none());
        assert!(best_match("anything", [], 0.0).is_none());
    }

    #[test]
    fn best_match_tie_break_is_deterministic() {
        // Two identical candidates (after folding) tie; smallest wins.
        let r = best_match("role", ["roleB", "roleA"], 0.0).unwrap();
        assert_eq!(r.0, "roleA");
    }

    #[test]
    fn matching_accuracy_on_typo_perturbations() {
        // abl1's accuracy claim: drifted role names (typos, plurals,
        // camel-case splits) match back to their canonical vocabulary.
        let vocab: Vec<String> = [
            "Manager", "Clerk", "Assistant", "Auditor", "Director", "Analyst",
            "Operator", "Administrator", "Supervisor", "Engineer", "Consultant",
            "Treasurer",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let perturb = |name: &str, kind: usize| -> String {
            let mut chars: Vec<char> = name.chars().collect();
            match kind {
                0 => format!("{name}s"),                         // plural
                1 => name.to_lowercase(),                        // case drift
                2 => {
                    chars.remove(name.len() / 2);                // dropped char
                    chars.into_iter().collect()
                }
                3 => {
                    chars.swap(1, 2);                            // transposition
                    chars.into_iter().collect()
                }
                _ => format!("Sr{name}"),                        // prefix
            }
        };
        let mut correct = 0usize;
        let mut total = 0usize;
        for name in &vocab {
            for kind in 0..5 {
                let drifted = perturb(name, kind);
                total += 1;
                if let Some((m, _)) = best_match(&drifted, vocab.iter().map(String::as_str), 0.7)
                {
                    if m == name {
                        correct += 1;
                    }
                }
            }
        }
        let accuracy = correct as f64 / total as f64;
        assert!(accuracy >= 0.9, "accuracy {accuracy} below 0.9 ({correct}/{total})");
    }

    #[test]
    fn metrics_are_symmetric() {
        for (a, b) in [("Manager", "Managers"), ("Clerk", "Clerks"), ("x", "yx")] {
            assert_eq!(levenshtein(a, b), levenshtein(b, a));
            assert!((jaro(a, b) - jaro(b, a)).abs() < 1e-12);
            assert!((dice_bigram(a, b) - dice_bigram(b, a)).abs() < 1e-12);
        }
    }
}
