//! The on-chip memory unit (paper §III-D): per-layer footprints checked
//! against the memory map.
//!
//! The U1/U2 ping-pong membrane pair (Fig. 3) holds `membrane_mem_bytes / 4`
//! 16-bit membranes per bank; [`LayerFootprint::membrane_spill_bytes`]
//! prices a layer that overflows it. The membranes themselves live in the
//! integer datapath the machine shares with the functional runner.

use crate::config::SiaConfig;
use std::fmt;

/// Static footprint check of one layer against the memory map. Returned by
/// the compiler for every layer so callers can see *why* a network fits (or
/// how it is chunked).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LayerFootprint {
    /// Weight bytes needed by one kernel-group pass (one chunk).
    pub weight_chunk_bytes: usize,
    /// Total weight bytes of the layer.
    pub weight_total_bytes: usize,
    /// Weight chunks streamed per pass (1 = fits the 8 kB weight memory).
    pub weight_chunks: usize,
    /// Neurons whose membranes live in a U-state bank (or spill to DDR).
    pub neurons: usize,
    /// Input spike bitmap bytes per timestep.
    pub spike_in_bytes: usize,
    /// Output spike bitmap bytes per timestep.
    pub spike_out_bytes: usize,
    /// Residual (skip) current bytes per timestep, if any.
    pub residual_bytes: usize,
}

impl fmt::Display for LayerFootprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "weights {}B ({} chunks), {} neurons, in {}B out {}B res {}B",
            self.weight_total_bytes,
            self.weight_chunks,
            self.neurons,
            self.spike_in_bytes,
            self.spike_out_bytes,
            self.residual_bytes
        )
    }
}

impl LayerFootprint {
    /// Membrane bytes per timestep that do not fit the on-chip U-state
    /// banks and must round-trip to DDR (read + write, 4 bytes per spilled
    /// neuron). Zero when the layer fits — the common case the ping-pong
    /// protocol is designed for.
    #[must_use]
    pub fn membrane_spill_bytes(&self, config: &SiaConfig) -> usize {
        let bank_neurons = config.membrane_mem_bytes / 4;
        self.neurons.saturating_sub(bank_neurons) * 4
    }

    /// Validates the footprint against a configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the overflowing memory when the layer
    /// cannot be scheduled even with chunking.
    pub fn check(&self, config: &SiaConfig) -> Result<(), String> {
        if self.weight_chunk_bytes > config.weight_mem_bytes {
            return Err(format!(
                "weight chunk of {}B exceeds the {}B weight memory",
                self.weight_chunk_bytes, config.weight_mem_bytes
            ));
        }
        if self.spike_out_bytes > config.output_mem_bytes {
            return Err(format!(
                "{}B of output spikes exceed the {}B output memory",
                self.spike_out_bytes, config.output_mem_bytes
            ));
        }
        if self.residual_bytes > config.residual_mem_bytes {
            return Err(format!(
                "{}B of residual currents exceed the {}B residual memory",
                self.residual_bytes, config.residual_mem_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_check_flags_each_overflow() {
        let cfg = SiaConfig::pynq_z2();
        let ok = LayerFootprint {
            weight_chunk_bytes: 4096,
            weight_total_bytes: 36864,
            weight_chunks: 9,
            neurons: 8192,
            spike_in_bytes: 8192,
            spike_out_bytes: 8192,
            residual_bytes: 0,
        };
        assert!(ok.check(&cfg).is_ok());
        let mut bad = ok;
        bad.weight_chunk_bytes = 9000;
        assert!(bad.check(&cfg).unwrap_err().contains("weight chunk"));
        let mut big = ok;
        big.neurons = 17_000;
        assert!(big.check(&cfg).is_ok()); // spills, not an error
        assert_eq!(big.membrane_spill_bytes(&cfg), (17_000 - 16_384) * 4);
        assert_eq!(ok.membrane_spill_bytes(&cfg), 0);
        let mut bad = ok;
        bad.spike_out_bytes = 60_000;
        assert!(bad.check(&cfg).unwrap_err().contains("output memory"));
        let mut bad = ok;
        bad.residual_bytes = 200_000;
        assert!(bad.check(&cfg).unwrap_err().contains("residual memory"));
    }
}
