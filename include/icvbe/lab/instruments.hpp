#pragma once
// Instrument models: the pt100 temperature sensor (HP34970A front end) and
// the SMU channels of an HP4156-class parameter analyser.
//
// Every instrument instance draws its *systematic* errors (gain, offset)
// once at construction from a seeded Rng, then adds fresh noise per
// reading -- matching how a real bench behaves within one calibration
// cycle.

#include <cstdint>

#include "icvbe/common/rng.hpp"

namespace icvbe::lab {

/// pt100 4-wire sensor, "precision less than 1 degC" (paper section 5).
class Pt100Sensor {
 public:
  struct Spec {
    double offset_sigma = 0.4;   ///< systematic offset spread [K]
    double gain_sigma = 1.5e-3;  ///< relative gain error spread
    double noise_sigma = 0.05;   ///< per-reading noise [K]
  };

  explicit Pt100Sensor(Rng rng);
  Pt100Sensor(Rng rng, const Spec& spec);

  /// Reading [K] for a true contact temperature [K].
  [[nodiscard]] double read(double true_kelvin);

  [[nodiscard]] double systematic_offset() const noexcept { return offset_; }

 private:
  Rng rng_;
  Spec spec_;
  double offset_;
  double gain_;
};

/// One SMU channel: force voltage / measure current, or force current /
/// measure voltage. Numbers follow HP4156-class specs (uV offsets, ppm-level
/// gain, fA-range noise floor at the sensitive ranges used here).
class SmuChannel {
 public:
  struct Spec {
    double v_offset_sigma = 20e-6;   ///< systematic voltage offset [V]
    double v_gain_sigma = 50e-6;     ///< relative voltage gain error
    double v_noise_sigma = 8e-6;     ///< per-reading voltage noise [V]
    double i_gain_sigma = 100e-6;    ///< relative current gain error
    double i_noise_floor = 2e-14;    ///< additive current noise [A]
    double i_noise_rel = 2e-5;       ///< relative current noise
  };

  explicit SmuChannel(Rng rng);
  SmuChannel(Rng rng, const Spec& spec);

  /// Measured value [V] of a true node voltage.
  [[nodiscard]] double measure_voltage(double true_volts);

  /// Measured value [A] of a true branch current.
  [[nodiscard]] double measure_current(double true_amps);

  /// The value actually forced when the operator programs `setpoint` volts
  /// (source errors mirror the measure errors).
  [[nodiscard]] double force_voltage(double setpoint_volts);

  /// The current actually forced for a programmed setpoint.
  [[nodiscard]] double force_current(double setpoint_amps);

 private:
  Rng rng_;
  Spec spec_;
  double v_offset_;
  double v_gain_;
  double i_gain_;
};

/// One die's bench: the pt100 and three SMU channels, each drawn from its
/// own child stream of the die's seed (one calibration cycle per die).
struct DieInstruments {
  Pt100Sensor sensor;
  SmuChannel smu_vbe;  ///< channel on the DUT / pad P4
  SmuChannel smu_pad;  ///< channel on pad P5
  SmuChannel smu_aux;  ///< channel for VREF and currents

  DieInstruments(std::uint64_t seed, const Pt100Sensor::Spec& sensor_spec,
                 const SmuChannel::Spec& smu_spec);
};

}  // namespace icvbe::lab
