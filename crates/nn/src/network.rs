//! Networks: ordered convolution layers plus a classifier.

use std::collections::BTreeSet;
use std::fmt;

use crate::ConvLayer;

/// Dataset a network is built for (shapes + the paper's base accuracies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// CIFAR-10: 3×32×32 inputs, 10 classes.
    Cifar10,
    /// ImageNet: 3×224×224 inputs, 1000 classes.
    ImageNet,
}

impl DatasetKind {
    /// Input spatial resolution.
    pub fn resolution(&self) -> usize {
        match self {
            DatasetKind::Cifar10 => 32,
            DatasetKind::ImageNet => 224,
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        match self {
            DatasetKind::Cifar10 => 10,
            DatasetKind::ImageNet => 1000,
        }
    }
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetKind::Cifar10 => write!(f, "CIFAR-10"),
            DatasetKind::ImageNet => write!(f, "ImageNet"),
        }
    }
}

/// A convolutional network, as the list of its convolution layers.
///
/// Batch-norm and activation layers are implicit (they follow every
/// convolution and cost negligible parameters/time relative to the
/// convolutions the paper transforms); pooling is implicit in the layers'
/// recorded input extents.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    dataset: DatasetKind,
    convs: Vec<ConvLayer>,
    classifier_in: usize,
    /// Top-1 test error (%) of the trained original network — the paper's
    /// reported numbers, used as the anchor of the accuracy surrogate.
    base_error: f64,
}

impl Network {
    /// Assembles a network.
    pub fn new(
        name: impl Into<String>,
        dataset: DatasetKind,
        convs: Vec<ConvLayer>,
        classifier_in: usize,
        base_error: f64,
    ) -> Self {
        Network { name: name.into(), dataset, convs, classifier_in, base_error }
    }

    /// Network name (e.g. `resnet34-cifar10`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Dataset the network targets.
    pub fn dataset(&self) -> DatasetKind {
        self.dataset
    }

    /// The convolution layers in execution order.
    pub fn convs(&self) -> &[ConvLayer] {
        &self.convs
    }

    /// Classifier input features (output of global average pooling).
    pub fn classifier_in(&self) -> usize {
        self.classifier_in
    }

    /// Anchored top-1 error (%) of the trained original.
    pub fn base_error(&self) -> f64 {
        self.base_error
    }

    /// Total parameters: convolutions plus the final linear classifier.
    pub fn params(&self) -> u64 {
        let conv: u64 = self.convs.iter().map(ConvLayer::params).sum();
        conv + (self.classifier_in * self.dataset.classes() + self.dataset.classes()) as u64
    }

    /// Total multiply–accumulates for one inference.
    pub fn macs(&self) -> u64 {
        let conv: u64 = self.convs.iter().map(ConvLayer::macs).sum();
        conv + (self.classifier_in * self.dataset.classes()) as u64
    }

    /// The distinct convolution configurations, in first-appearance order —
    /// the per-layer units of the paper's Figure 6 (11 distinct layers for
    /// ImageNet ResNet-34).
    pub fn distinct_configs(&self) -> Vec<&ConvLayer> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for layer in &self.convs {
            if seen.insert(layer.signature()) {
                out.push(layer);
            }
        }
        out
    }

    /// How many times each distinct configuration occurs.
    pub fn config_multiplicity(&self, layer: &ConvLayer) -> usize {
        self.convs.iter().filter(|l| l.signature() == layer.signature()).count()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}]: {} convs, {:.1}M params, {:.1}M MACs",
            self.name,
            self.dataset,
            self.convs.len(),
            self.params() as f64 / 1e6,
            self.macs() as f64 / 1e6
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Network {
        let convs = vec![
            ConvLayer::new("a", 3, 8, 3, 1, 1, 8, 8),
            ConvLayer::new("b", 8, 8, 3, 1, 1, 8, 8),
            ConvLayer::new("c", 8, 8, 3, 1, 1, 8, 8),
        ];
        Network::new("tiny", DatasetKind::Cifar10, convs, 8, 7.0)
    }

    #[test]
    fn params_include_classifier() {
        let n = tiny();
        let conv_params: u64 = n.convs().iter().map(|l| l.params()).sum();
        assert_eq!(n.params(), conv_params + 8 * 10 + 10);
    }

    #[test]
    fn distinct_configs_dedupe() {
        let n = tiny();
        // b and c share a signature.
        assert_eq!(n.distinct_configs().len(), 2);
        let b = &n.convs()[1];
        assert_eq!(n.config_multiplicity(b), 2);
    }

    #[test]
    fn dataset_shapes() {
        assert_eq!(DatasetKind::Cifar10.resolution(), 32);
        assert_eq!(DatasetKind::ImageNet.classes(), 1000);
    }
}
