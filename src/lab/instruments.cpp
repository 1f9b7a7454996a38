#include "icvbe/lab/instruments.hpp"

#include <cmath>

namespace icvbe::lab {

Pt100Sensor::Pt100Sensor(Rng rng) : Pt100Sensor(rng, Spec{}) {}

Pt100Sensor::Pt100Sensor(Rng rng, const Spec& spec)
    : rng_(rng),
      spec_(spec),
      offset_(rng_.gaussian(0.0, spec.offset_sigma)),
      gain_(1.0 + rng_.gaussian(0.0, spec.gain_sigma)) {}

double Pt100Sensor::read(double true_kelvin) {
  // Gain error acts on the Celsius-scale span the instrument linearises.
  const double celsius = true_kelvin - 273.15;
  return 273.15 + celsius * gain_ + offset_ +
         rng_.gaussian(0.0, spec_.noise_sigma);
}

SmuChannel::SmuChannel(Rng rng) : SmuChannel(rng, Spec{}) {}

SmuChannel::SmuChannel(Rng rng, const Spec& spec)
    : rng_(rng),
      spec_(spec),
      v_offset_(rng_.gaussian(0.0, spec.v_offset_sigma)),
      v_gain_(1.0 + rng_.gaussian(0.0, spec.v_gain_sigma)),
      i_gain_(1.0 + rng_.gaussian(0.0, spec.i_gain_sigma)) {}

double SmuChannel::measure_voltage(double true_volts) {
  return true_volts * v_gain_ + v_offset_ +
         rng_.gaussian(0.0, spec_.v_noise_sigma);
}

double SmuChannel::measure_current(double true_amps) {
  const double noise = rng_.gaussian(
      0.0, spec_.i_noise_floor + spec_.i_noise_rel * std::abs(true_amps));
  return true_amps * i_gain_ + noise;
}

double SmuChannel::force_voltage(double setpoint_volts) {
  return setpoint_volts * v_gain_ + v_offset_;
}

double SmuChannel::force_current(double setpoint_amps) {
  return setpoint_amps * i_gain_;
}

DieInstruments::DieInstruments(std::uint64_t seed,
                               const Pt100Sensor::Spec& sensor_spec,
                               const SmuChannel::Spec& smu_spec)
    : sensor(Rng::child(seed, 1), sensor_spec),
      smu_vbe(Rng::child(seed, 2), smu_spec),
      smu_pad(Rng::child(seed, 3), smu_spec),
      smu_aux(Rng::child(seed, 4), smu_spec) {}

}  // namespace icvbe::lab
