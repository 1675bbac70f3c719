//! Synthetic, class-structured image datasets.
//!
//! The paper evaluates on CIFAR-10 and ImageNet; neither is available offline,
//! and — crucially — the only thing the *search* needs from a dataset is a
//! single labelled random minibatch to compute Fisher Potential at
//! initialization (paper §5.2: "a single random minibatch of training data").
//!
//! [`SyntheticDataset`] generates images whose pixels are per-class Gaussian
//! modes plus noise, so that class labels carry real signal through the loss
//! gradient — exercising exactly the code path the paper's measure uses. The
//! CIFAR/ImageNet presets reproduce the paper's shape parameters; the proxy
//! presets are scaled-down versions used inside the search loop for speed (the
//! paper likewise evaluates Fisher on small proxies).

use rand::Rng;

use crate::rng::{derive_seed, normal, seeded};
use crate::{Result, Tensor, TensorError};

/// A deterministic synthetic stand-in for a labelled image dataset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SyntheticDataset {
    name: &'static str,
    classes: usize,
    channels: usize,
    resolution: usize,
    seed: u64,
}

/// One labelled minibatch: NCHW images plus integer class labels.
#[derive(Debug, Clone)]
pub struct Minibatch {
    /// Images, `[n, channels, resolution, resolution]`.
    pub images: Tensor,
    /// Class labels, one per image.
    pub labels: Vec<usize>,
}

impl SyntheticDataset {
    /// CIFAR-10-shaped dataset: 10 classes, 3×32×32 images.
    pub fn cifar10(seed: u64) -> Self {
        SyntheticDataset {
            name: "cifar10-synthetic",
            classes: 10,
            channels: 3,
            resolution: 32,
            seed,
        }
    }

    /// ImageNet-shaped dataset: 1000 classes, 3×224×224 images.
    pub fn imagenet(seed: u64) -> Self {
        SyntheticDataset {
            name: "imagenet-synthetic",
            classes: 1000,
            channels: 3,
            resolution: 224,
            seed,
        }
    }

    /// Scaled-down CIFAR proxy (3×8×8, 10 classes) used inside search loops.
    pub fn cifar10_proxy(seed: u64) -> Self {
        SyntheticDataset { name: "cifar10-proxy", classes: 10, channels: 3, resolution: 8, seed }
    }

    /// A fully custom dataset.
    ///
    /// # Errors
    /// Returns an error if any extent is zero.
    pub fn custom(classes: usize, channels: usize, resolution: usize, seed: u64) -> Result<Self> {
        if classes == 0 || channels == 0 || resolution == 0 {
            return Err(TensorError::InvalidShape {
                op: "SyntheticDataset::custom",
                reason: "classes, channels and resolution must be non-zero".into(),
            });
        }
        Ok(SyntheticDataset { name: "custom-synthetic", classes, channels, resolution, seed })
    }

    /// Dataset name (for reports).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Image channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Square image resolution.
    pub fn resolution(&self) -> usize {
        self.resolution
    }

    /// Class-mode pixel value: a smooth, class-dependent spatial pattern.
    ///
    /// Each class gets a distinct low-frequency plane-wave pattern so that
    /// nearby pixels correlate (like natural images) and different classes are
    /// separable — the property Fisher Potential's gradients depend on.
    ///
    /// This is the per-pixel *reference* formula; [`Self::minibatch`] inlines
    /// it with the per-plane constants hoisted, and a test pins the two
    /// together. Kept test-only so the hot path stays the single production
    /// implementation.
    #[cfg(test)]
    fn class_mode(&self, class: usize, channel: usize, y: usize, x: usize) -> f32 {
        let phase = derive_seed(self.seed, class as u64 * 131 + channel as u64) % 628;
        let phase = phase as f32 / 100.0;
        let freq = 1.0 + (class % 4) as f32;
        let fy = y as f32 / self.resolution as f32;
        let fx = x as f32 / self.resolution as f32;
        ((fy * freq + phase).sin() + (fx * freq * 1.3 + phase * 0.7).cos()) * 0.5
    }

    /// Samples a labelled minibatch of `n` images (deterministic in
    /// `(dataset seed, batch_seed)`).
    ///
    /// Pixels are written in one row-major sweep with the pattern hoisted
    /// out of the pixel loop: the sine once per row and the cosine once per
    /// column of each `(class, channel)` plane, so the per-pixel work is one
    /// add and one noise draw, which matters because Fisher probing builds
    /// these batches inside the search hot path.
    pub fn minibatch(&self, n: usize, batch_seed: u64) -> Minibatch {
        let mut rng = seeded(derive_seed(self.seed, batch_seed));
        let mut labels = Vec::with_capacity(n);
        let mut images = Tensor::zeros(&[n, self.channels, self.resolution, self.resolution]);
        let res = self.resolution;
        let inv_res = 1.0 / res as f32;
        let buf = images.as_mut_slice();
        let mut col_terms = vec![0.0f32; res];
        let mut at = 0usize;
        for _ in 0..n {
            let class = rng.random_range(0..self.classes);
            labels.push(class);
            let freq = 1.0 + (class % 4) as f32;
            for c in 0..self.channels {
                // Identical values to `class_mode`, with the per-(class,
                // channel) phase and column terms derived once instead of
                // once per pixel.
                let phase = derive_seed(self.seed, class as u64 * 131 + c as u64) % 628;
                let phase = phase as f32 / 100.0;
                for (x, term) in col_terms.iter_mut().enumerate() {
                    let fx = x as f32 * inv_res;
                    *term = (fx * freq * 1.3 + phase * 0.7).cos();
                }
                for y in 0..res {
                    let fy = y as f32 * inv_res;
                    let row_term = (fy * freq + phase).sin();
                    for col_term in &col_terms {
                        buf[at] = (row_term + col_term) * 0.5 + 0.3 * normal(&mut rng);
                        at += 1;
                    }
                }
            }
        }
        Minibatch { images, labels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_paper_shapes() {
        let cifar = SyntheticDataset::cifar10(0);
        assert_eq!((cifar.classes(), cifar.channels(), cifar.resolution()), (10, 3, 32));
        let inet = SyntheticDataset::imagenet(0);
        assert_eq!((inet.classes(), inet.channels(), inet.resolution()), (1000, 3, 224));
    }

    #[test]
    fn minibatch_shapes_and_labels() {
        let ds = SyntheticDataset::cifar10_proxy(7);
        let mb = ds.minibatch(4, 0);
        assert_eq!(mb.images.shape().dims(), &[4, 3, 8, 8]);
        assert_eq!(mb.labels.len(), 4);
        assert!(mb.labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn deterministic_per_seed() {
        let ds = SyntheticDataset::cifar10_proxy(7);
        let a = ds.minibatch(2, 5);
        let b = ds.minibatch(2, 5);
        let c = ds.minibatch(2, 6);
        assert_eq!(a.images, b.images);
        assert_eq!(a.labels, b.labels);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn classes_are_separable_in_pixel_space() {
        // Images of the same class should on average be closer to each other
        // than to images of a different class — the signal Fisher needs.
        let ds = SyntheticDataset::custom(2, 1, 8, 3).unwrap();
        let mode =
            |class: usize| Tensor::from_fn(&[8, 8], |ix| ds.class_mode(class, 0, ix[0], ix[1]));
        let m0 = mode(0);
        let m1 = mode(1);
        let dist = m0.max_abs_diff(&m1).unwrap();
        assert!(dist > 0.1, "class modes should differ, got {dist}");
    }

    #[test]
    fn custom_rejects_zero_extents() {
        assert!(SyntheticDataset::custom(0, 3, 8, 1).is_err());
        assert!(SyntheticDataset::custom(10, 0, 8, 1).is_err());
    }

    #[test]
    fn minibatch_mode_matches_reference_formula() {
        // The hoisted hot loop must reproduce `class_mode` exactly: strip the
        // (deterministic) noise from one minibatch and compare each pixel.
        let ds = SyntheticDataset::custom(4, 2, 6, 17).unwrap();
        let mb = ds.minibatch(3, 9);
        // Replay the same RNG stream to recover the injected noise.
        let mut rng = seeded(derive_seed(17, 9));
        for (i, &class) in mb.labels.iter().enumerate() {
            let drawn: usize = rng.random_range(0..4);
            assert_eq!(drawn, class);
            for c in 0..2 {
                for y in 0..6 {
                    for x in 0..6 {
                        let noise = 0.3 * normal(&mut rng);
                        let got = mb.images.at(&[i, c, y, x]) - noise;
                        let want = ds.class_mode(class, c, y, x);
                        assert!(
                            (got - want).abs() < 1e-5,
                            "pixel ({i},{c},{y},{x}): {got} vs {want}"
                        );
                    }
                }
            }
        }
    }
}
