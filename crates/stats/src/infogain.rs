//! Information-gain-ratio feature ranking (Section VI-D of the paper).
//!
//! The paper ranks five job features — user, project, execution time, size,
//! location — by how much each tells us about whether a job gets interrupted.
//! Features and labels are categorical; continuous features (execution time)
//! are discretized by the caller into the paper's bins.
//!
//! Gain ratio = information gain / split information, the C4.5 normalization
//! \[26\] that stops high-cardinality features (like user id) from winning by
//! sheer fragmentation — which is exactly the effect behind Observation 12.

use crate::StatsError;

/// Shannon entropy (base 2) of a discrete label sample given as class counts.
pub fn entropy_from_counts(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Shannon entropy (base 2) of a label vector.
pub fn entropy(labels: &[usize], num_classes: usize) -> f64 {
    let mut counts = vec![0usize; num_classes];
    for &l in labels {
        counts[l] += 1;
    }
    entropy_from_counts(&counts)
}

/// The result of evaluating one feature against the labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureScore {
    /// Information gain `H(labels) − H(labels | feature)` in bits.
    pub gain: f64,
    /// Split information `H(feature)` in bits.
    pub split_info: f64,
    /// Gain ratio `gain / split_info`; 0 when the split info is 0
    /// (a constant feature carries no information).
    pub gain_ratio: f64,
}

/// Evaluate a categorical feature against categorical labels.
///
/// `feature[i]` is the feature value (0-based category id) of observation
/// `i`, `labels[i]` its class. Errors on length mismatch or empty input.
pub fn evaluate_feature(
    feature: &[usize],
    num_feature_values: usize,
    labels: &[usize],
    num_classes: usize,
) -> Result<FeatureScore, StatsError> {
    if feature.len() != labels.len() {
        return Err(StatsError::NotEnoughData {
            needed: feature.len(),
            got: labels.len(),
        });
    }
    // Joint counts: per feature value, per class (flattened row-major).
    let mut joint = vec![0usize; num_feature_values * num_classes];
    for (&f, &l) in feature.iter().zip(labels) {
        assert!(f < num_feature_values, "feature value {f} out of range");
        assert!(l < num_classes, "label {l} out of range");
        joint[f * num_classes + l] += 1;
    }
    score_joint_counts(&joint, num_classes)
}

/// Score a feature from its contingency table: `joint[v * num_classes +
/// l]` observations have feature value `v` and class `l`. A caller that
/// counts several features in one pass over its rows scores each table
/// here, with the same result as [`evaluate_feature`] on the columns.
/// Errors when the table counts no observation.
pub fn score_joint_counts(joint: &[usize], num_classes: usize) -> Result<FeatureScore, StatsError> {
    let per_value: Vec<usize> = joint
        .chunks(num_classes.max(1))
        .map(|counts| counts.iter().sum())
        .collect();
    let mut label_counts = vec![0usize; num_classes];
    for counts in joint.chunks(num_classes.max(1)) {
        for (total, &c) in label_counts.iter_mut().zip(counts) {
            *total += c;
        }
    }
    let total: usize = per_value.iter().sum();
    if total == 0 {
        return Err(StatsError::NotEnoughData { needed: 1, got: 0 });
    }
    let n = total as f64;

    let h_labels = entropy_from_counts(&label_counts);
    let mut h_cond = 0.0;
    for (counts, &in_value) in joint.chunks(num_classes.max(1)).zip(&per_value) {
        if in_value == 0 {
            continue;
        }
        let w = in_value as f64 / n;
        h_cond += w * entropy_from_counts(counts);
    }
    let gain = (h_labels - h_cond).max(0.0);
    let split_info = entropy_from_counts(&per_value);
    let gain_ratio = if split_info > 0.0 {
        gain / split_info
    } else {
        0.0
    };
    Ok(FeatureScore {
        gain,
        split_info,
        gain_ratio,
    })
}

/// A named feature column for [`rank_features`].
#[derive(Debug, Clone)]
pub struct FeatureColumn {
    /// Human-readable feature name (e.g. `"job size"`).
    pub name: String,
    /// Per-observation category ids.
    pub values: Vec<usize>,
    /// Number of categories.
    pub cardinality: usize,
}

/// Rank features by gain ratio, descending. Ties broken by name for
/// determinism.
pub fn rank_features(
    features: &[FeatureColumn],
    labels: &[usize],
    num_classes: usize,
) -> Result<Vec<(String, FeatureScore)>, StatsError> {
    let mut out = Vec::with_capacity(features.len());
    for f in features {
        let score = evaluate_feature(&f.values, f.cardinality, labels, num_classes)?;
        out.push((f.name.clone(), score));
    }
    out.sort_by(|a, b| {
        b.1.gain_ratio
            .total_cmp(&a.1.gain_ratio)
            .then_with(|| a.0.cmp(&b.0))
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_basics() {
        assert_eq!(entropy_from_counts(&[]), 0.0);
        assert_eq!(entropy_from_counts(&[10]), 0.0);
        assert!((entropy_from_counts(&[5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy_from_counts(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        // Skewed is less than uniform.
        assert!(entropy_from_counts(&[9, 1]) < 1.0);
        assert!((entropy(&[0, 1, 0, 1], 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn perfectly_predictive_feature() {
        // feature == label: gain = H(labels) = 1 bit, gain ratio = 1.
        let labels = [0, 0, 1, 1];
        let feature = [0, 0, 1, 1];
        let s = evaluate_feature(&feature, 2, &labels, 2).unwrap();
        assert!((s.gain - 1.0).abs() < 1e-12);
        assert!((s.gain_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn useless_feature() {
        // Constant feature: no gain, zero split info → ratio 0 (not NaN).
        let labels = [0, 1, 0, 1];
        let feature = [0, 0, 0, 0];
        let s = evaluate_feature(&feature, 1, &labels, 2).unwrap();
        assert_eq!(s.gain, 0.0);
        assert_eq!(s.gain_ratio, 0.0);

        // Independent feature: ~no gain.
        let feature = [0, 0, 1, 1];
        let labels = [0, 1, 0, 1];
        let s = evaluate_feature(&feature, 2, &labels, 2).unwrap();
        assert!(s.gain < 1e-12);
    }

    #[test]
    fn gain_ratio_penalizes_fragmentation() {
        // A unique-id feature perfectly "predicts" but fragments completely;
        // its gain ratio must be below that of a clean two-way split.
        let labels = [0, 0, 0, 0, 1, 1, 1, 1];
        let id_feature = [0, 1, 2, 3, 4, 5, 6, 7];
        let clean = [0, 0, 0, 0, 1, 1, 1, 1];
        let s_id = evaluate_feature(&id_feature, 8, &labels, 2).unwrap();
        let s_clean = evaluate_feature(&clean, 2, &labels, 2).unwrap();
        assert!((s_id.gain - s_clean.gain).abs() < 1e-12); // both gain 1 bit
        assert!(s_id.gain_ratio < s_clean.gain_ratio);
    }

    #[test]
    fn ranking() {
        let labels = vec![0, 0, 0, 1, 1, 1];
        let features = vec![
            FeatureColumn {
                name: "noise".into(),
                values: vec![0, 1, 0, 1, 0, 1],
                cardinality: 2,
            },
            FeatureColumn {
                name: "signal".into(),
                values: vec![0, 0, 0, 1, 1, 1],
                cardinality: 2,
            },
        ];
        let ranked = rank_features(&features, &labels, 2).unwrap();
        assert_eq!(ranked[0].0, "signal");
        assert!(ranked[0].1.gain_ratio > ranked[1].1.gain_ratio);
    }

    #[test]
    fn joint_counts_score_like_the_columns() {
        let labels = [0, 1, 0, 1, 1, 0, 0, 1, 1];
        let feats: [(&[usize], usize); 3] = [
            (&[0, 0, 1, 1, 2, 2, 0, 1, 2], 3),
            (&[0, 1, 0, 1, 1, 0, 0, 1, 1], 2),
            (&[4, 3, 2, 1, 0, 1, 2, 3, 4], 5),
        ];
        for (f, card) in feats {
            let mut joint = vec![0; card * 2];
            for (&v, &l) in f.iter().zip(&labels) {
                joint[v * 2 + l] += 1;
            }
            let columns = evaluate_feature(f, card, &labels, 2).unwrap();
            assert_eq!(score_joint_counts(&joint, 2).unwrap(), columns);
        }
        assert!(score_joint_counts(&[0, 0, 0, 0], 2).is_err());
    }

    #[test]
    fn errors() {
        assert!(evaluate_feature(&[0], 1, &[], 2).is_err());
        assert!(evaluate_feature(&[], 1, &[], 2).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_feature_panics() {
        let _ = evaluate_feature(&[5], 2, &[0], 2);
    }
}
