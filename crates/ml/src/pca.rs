//! Principal component analysis.

use qns_tensor::sym_eigen;

/// A fitted PCA transform.
///
/// The paper projects the 10 vowel formant features onto their 10 most
/// significant principal components before encoding; this is that
/// preprocessing step.
///
/// # Examples
///
/// ```
/// use qns_ml::Pca;
/// // Points on a line in 2D: one component explains everything.
/// let data: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, 2.0 * i as f64]).collect();
/// let pca = Pca::fit(&data, 1);
/// let z = pca.transform(&data[3]);
/// assert_eq!(z.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Pca {
    mean: Vec<f64>,
    components: Vec<Vec<f64>>,
    explained: Vec<f64>,
}

impl Pca {
    /// Fits `n_components` principal components to `data` (rows = samples).
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty, rows have inconsistent lengths, or
    /// `n_components` exceeds the feature dimension.
    pub fn fit(data: &[Vec<f64>], n_components: usize) -> Self {
        assert!(!data.is_empty(), "PCA needs samples");
        let d = data[0].len();
        assert!(data.iter().all(|r| r.len() == d), "ragged data");
        assert!(
            n_components <= d,
            "cannot extract {n_components} components from {d} features"
        );
        let n = data.len() as f64;
        let mean: Vec<f64> = (0..d)
            .map(|j| data.iter().map(|r| r[j]).sum::<f64>() / n)
            .collect();
        // Covariance matrix.
        let mut cov = vec![0.0; d * d];
        for r in data {
            for i in 0..d {
                let xi = r[i] - mean[i];
                for j in i..d {
                    cov[i * d + j] += xi * (r[j] - mean[j]);
                }
            }
        }
        for i in 0..d {
            for j in i..d {
                cov[i * d + j] /= n;
                cov[j * d + i] = cov[i * d + j];
            }
        }
        let eig = sym_eigen(&cov, d);
        Pca {
            mean,
            components: eig.vectors.into_iter().take(n_components).collect(),
            explained: eig.values.into_iter().take(n_components).collect(),
        }
    }

    /// Projects one sample onto the fitted components.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong dimension.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        self.components
            .iter()
            .map(|c| {
                c.iter()
                    .zip(x.iter().zip(self.mean.iter()))
                    .map(|(ci, (xi, mi))| ci * (xi - mi))
                    .sum()
            })
            .collect()
    }

    /// Projects a batch of samples.
    pub fn transform_batch(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter().map(|x| self.transform(x)).collect()
    }

    /// Variance explained by each kept component, descending.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_dominant_direction() {
        // Data spread along (1, 1)/√2 with tiny orthogonal noise.
        let data: Vec<Vec<f64>> = (0..100)
            .map(|i| {
                let t = (i as f64 - 50.0) / 10.0;
                let noise = ((i * 7919) % 13) as f64 / 1000.0;
                vec![t + noise, t - noise]
            })
            .collect();
        let pca = Pca::fit(&data, 2);
        let v = &pca.explained_variance();
        assert!(v[0] > 100.0 * v[1], "first component dominates: {v:?}");
    }

    #[test]
    fn transform_centers_data() {
        let data = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let pca = Pca::fit(&data, 2);
        // The mean sample projects to ~0.
        let z = pca.transform(&[3.0, 4.0]);
        assert!(z.iter().all(|x| x.abs() < 1e-9));
    }

    #[test]
    fn explained_variance_is_descending() {
        let data: Vec<Vec<f64>> = (0..50)
            .map(|i| {
                let x = i as f64;
                vec![x, 0.5 * x + (i % 5) as f64, (i % 3) as f64]
            })
            .collect();
        let pca = Pca::fit(&data, 3);
        let v = pca.explained_variance();
        assert!(v[0] >= v[1] && v[1] >= v[2]);
    }

    #[test]
    fn batch_matches_single() {
        let data = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let pca = Pca::fit(&data, 2);
        let batch = pca.transform_batch(&data);
        for (row, x) in batch.iter().zip(data.iter()) {
            assert_eq!(row, &pca.transform(x));
        }
    }

    #[test]
    #[should_panic(expected = "components")]
    fn too_many_components_panics() {
        let data = vec![vec![1.0, 2.0]];
        let _ = Pca::fit(&data, 3);
    }
}
