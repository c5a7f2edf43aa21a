//! Scaffolding: the seeded model image and input set each workload runs.
//! None of this is timed; the program under test sees only the `.sia`
//! bytes and the input tensors.

use sia_accel::{write_image, SiaConfig};
use sia_dataset::{LabelledSet, SynthConfig, SynthDataset};
use sia_nn::resnet::ResNet;
use sia_nn::vgg::Vgg;
use sia_nn::Model;
use sia_snn::{convert, ConvertOptions};
use sia_tensor::Tensor;

/// Network topology of a workload's model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arch {
    /// CIFAR-style ResNet-18.
    ResNet18,
    /// VGG-11 (no residual path).
    Vgg11,
}

/// A workload's model: topology, base width and square input size.
#[derive(Clone, Copy, Debug)]
pub struct ModelSpec {
    /// Topology.
    pub arch: Arch,
    /// Stage-1 channel width.
    pub width: usize,
    /// Input side in pixels.
    pub size: usize,
}

impl ModelSpec {
    /// `resnet18-w4-16x16` style label.
    #[must_use]
    pub fn label(&self) -> String {
        let arch = match self.arch {
            Arch::ResNet18 => "resnet18",
            Arch::Vgg11 => "vgg11",
        };
        format!("{arch}-w{}-{}x{}", self.width, self.size, self.size)
    }
}

/// Derives an independent stream seed from the workload seed.
#[must_use]
pub fn derive(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finaliser over the pair
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of every workload's model weights. Spike density and the
/// early-exit distribution follow the weights, and they set execution
/// cost: with weights drawn per run seed, `serve-burst` throughput moved
/// threefold between seeds. The run seed draws the inputs and the arrival
/// schedule; the weights stay fixed so runs on different seeds compare.
pub const MODEL_SEED: u64 = 1;

/// Builds the untrained, quantized, converted network for `spec` with
/// weights drawn from [`MODEL_SEED`], and returns its deployment image
/// bytes.
#[must_use]
pub fn image_bytes(spec: ModelSpec) -> Vec<u8> {
    let weights = derive(MODEL_SEED, 1);
    let mut model: Box<dyn Model> = match spec.arch {
        Arch::ResNet18 => Box::new(ResNet::resnet18(spec.width, spec.size, 10, weights)),
        Arch::Vgg11 => Box::new(Vgg::vgg11(spec.width, spec.size, 10, weights)),
    };
    model.visit_activations(&mut |a| a.make_quantized(8));
    let net = convert(&model.to_spec(), &ConvertOptions::default());
    write_image(&net, &SiaConfig::pynq_z2())
}

/// `n` labelled synthetic test images of side `size`, generated from `seed`.
#[must_use]
pub fn inputs(size: usize, n: usize, seed: u64) -> LabelledSet {
    SynthDataset::generate(
        &SynthConfig {
            image_size: size,
            noise_std: 0.08,
            seed: derive(seed, 2),
        },
        0,
        n,
    )
    .test
}

/// The images of a labelled set, in order.
#[must_use]
pub fn images(set: &LabelledSet) -> Vec<Tensor> {
    (0..set.len()).map(|i| set.get(i).0.clone()).collect()
}
