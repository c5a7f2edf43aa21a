//! Cycle-level simulator of the reconfigurable Spiking Inference
//! Accelerator (SIA) — the paper's primary hardware contribution (§III–IV).
//!
//! The model follows the block diagram of Fig. 2 component by component:
//!
//! * [`pe`] — one processing element: **3 multiplexers + one 8-bit adder**,
//!   accumulating a kernel row (up to 3 taps) per clock cycle into a 16-bit
//!   partial-sum register;
//! * [`spiking_core`] — the **8×8 PE array**. Each PE holds one of up to 64
//!   kernels (the 8 kB weight memory stores "up to 64 kernels"); the array
//!   walks output pixels, broadcasting the input spike window to all PEs.
//!   Rows whose spike taps are all zero are **skipped in zero cycles** —
//!   the event-driven behaviour that gives spiking inference its speed;
//! * [`aggregation`] — the aggregation core: fixed-point batch norm
//!   (`y·G + H` in Q8.8, paper Eq. 2) and the IF/LIF activation unit with
//!   reset-by-subtraction, selected by the mode bit;
//! * [`memory`] — per-layer footprints against the on-chip memory map of
//!   §III-D (128 B spike input, 8 kB weights, 64 kB membrane potentials in
//!   **U1/U2 ping-pong** banks, 128 kB residual parameters, 56 kB outputs),
//!   with capacity checking and membrane-spill pricing;
//! * [`axi`] — the PS↔PL transfer model: a DMA-style streaming path for
//!   bulk data and the software-driven AXI4-Lite MMIO path whose per-word
//!   cost dominates the fully-connected layer (Table I's ≈ 59 ms FC row);
//! * [`compiler`] — maps a converted [`sia_snn::SnnNetwork`] onto the
//!   accelerator: kernel-group tiling (> 64 output channels ⇒ multiple
//!   passes), weight-chunk streaming when a layer exceeds the weight
//!   memory, and the residual partial-sum path of §IV;
//! * [`machine`] — the top-level executor: `sia-snn`'s integer datapath
//!   (so its spike trains are **bit-exact** with the integer runner by
//!   construction) plus per-layer cycle and transfer counts, the basis of
//!   Tables I, II and IV.
//!
//! # Examples
//!
//! ```no_run
//! use sia_accel::{compile, SiaConfig, SiaMachine};
//! # let snn: sia_snn::SnnNetwork = unimplemented!();
//! let program = compile(&snn, &SiaConfig::pynq_z2()).unwrap();
//! let mut machine = SiaMachine::new(program, SiaConfig::pynq_z2());
//! # let image: sia_tensor::Tensor = unimplemented!();
//! let run = machine.run(&image, 8);
//! println!("latency: {:.3} ms", run.report.total_ms());
//! ```

#![forbid(unsafe_code)]

pub mod aggregation;
pub mod axi;
pub mod compiler;
pub mod config;
pub mod controller;
pub mod image;
pub mod machine;
pub mod memory;
pub mod pe;
pub mod report;
pub mod spiking_core;

pub use compiler::{compile, compile_for, plan_conv, CompileError, LayerProgram, Program};
pub use config::SiaConfig;
pub use controller::{ConfigError, Controller, Reg};
pub use image::{read_image, write_image, ImageError};
pub use machine::{MachineRun, SiaEngineFactory, SiaMachine};
pub use report::{CycleReport, LayerCycles};
