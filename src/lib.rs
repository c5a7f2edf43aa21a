//! # sia-repro — facade crate
//!
//! Re-exports the whole reproduction pipeline. See the member crates for
//! details: `sia-tensor`/`sia-nn` (training substrate), `sia-quant`
//! (quantisation), `sia-snn` (conversion, the unified [`snn::Engine`] /
//! [`snn::drive_policy`] inference layer and the multi-threaded
//! [`snn::BatchEvaluator`]), `sia-accel` (the cycle-level Spiking Inference
//! Accelerator, itself an `Engine` backend), `sia-hwmodel` (FPGA
//! resource/power models and prior-art baselines), `sia-check` (static
//! verification: fixed-point interval analysis and hardware budget lints)
//! and `sia-serve` (the persistent serving layer: model registry, dynamic
//! batching and the `sia serve` HTTP front end).

#![forbid(unsafe_code)]

pub use sia_accel as accel;
pub use sia_check as check;
pub use sia_dataset as dataset;
pub use sia_fixed as fixed;
pub use sia_hwmodel as hwmodel;
pub use sia_nn as nn;
pub use sia_quant as quant;
pub use sia_serve as serve;
pub use sia_snn as snn;
pub use sia_tensor as tensor;
