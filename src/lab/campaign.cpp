#include "icvbe/lab/campaign.hpp"

#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/common/table.hpp"
#include "icvbe/spice/analysis.hpp"
#include "icvbe/spice/dc_solver.hpp"
#include "icvbe/spice/plan.hpp"
#include "icvbe/thermal/electrothermal.hpp"

namespace icvbe::lab {

DieProcedure::DieProcedure(DieSample sample, CampaignConfig config)
    : sample_(std::move(sample)),
      config_(std::move(config)),
      instruments_(config_.seed, config_.sensor_spec, config_.smu_spec) {}

spice::NodeId DieProcedure::build_forced_current_dut(
    spice::Circuit& circuit) const {
  const spice::NodeId emitter = circuit.node("e");
  circuit.add_isource("IE", spice::kGround, emitter, 1e-6);
  circuit.add_bjt("DUT", spice::kGround, spice::kGround, emitter, sample_.qin,
                  1.0, spice::kGround);
  return emitter;
}

bandgap::TestCellParams DieProcedure::cell_params(double radja_ohms) const {
  bandgap::TestCellParams p = config_.cell;
  p.qa_model = sample_.qa;
  p.qb_model = sample_.qb;
  p.opamp_offset = sample_.opamp_offset;
  p.radja = radja_ohms;
  p.rx1 *= sample_.resistor_scale;
  p.rx2 *= sample_.resistor_scale;
  p.rb *= sample_.resistor_scale;
  return p;
}

double DieProcedure::die_temperature(double chamber_kelvin,
                                     double power_watts) const {
  if (config_.ideal_thermal) return chamber_kelvin;
  return sample_.fixture.die_temperature(chamber_kelvin, power_watts);
}

double DieProcedure::sensor_reading(double chamber_kelvin) {
  return config_.ideal_instruments ? chamber_kelvin
                                   : instruments_.sensor.read(chamber_kelvin);
}

double DieProcedure::volts(SmuChannel& channel, double true_volts) {
  return config_.ideal_instruments ? true_volts
                                   : channel.measure_voltage(true_volts);
}

double DieProcedure::force_current(double setpoint_amps) {
  return config_.ideal_instruments
             ? setpoint_amps
             : instruments_.smu_aux.force_current(setpoint_amps);
}

double DieProcedure::force_voltage(double setpoint_volts) {
  return config_.ideal_instruments
             ? setpoint_volts
             : instruments_.smu_vbe.force_voltage(setpoint_volts);
}

double DieProcedure::measure_current(double true_amps) {
  return config_.ideal_instruments
             ? true_amps
             : instruments_.smu_aux.measure_current(true_amps);
}

double DieProcedure::measure_vref(double true_volts) {
  return volts(instruments_.smu_aux, true_volts);
}

VbePoint DieProcedure::record_vbe(double chamber_kelvin, double t_die,
                                  double vbe_true, double ic_true) {
  VbePoint p;
  p.t_die_true = t_die;
  p.t_sensor = sensor_reading(chamber_kelvin);
  p.vbe = volts(instruments_.smu_vbe, vbe_true);
  p.ic = measure_current(ic_true);
  return p;
}

CellPoint DieProcedure::record_cell(double chamber_kelvin,
                                    const bandgap::CellObservation& obs) {
  CellPoint p;
  p.t_die_true = obs.t_die;
  p.t_sensor = sensor_reading(chamber_kelvin);
  p.vbe_qa = volts(instruments_.smu_vbe, obs.vbe_qa);
  p.vbe_qb = volts(instruments_.smu_pad, obs.vbe_qb);
  p.vref = measure_vref(obs.vref);
  p.ic_qa = measure_current(obs.ic_qa);
  p.ic_qb = measure_current(obs.ic_qb);
  p.delta_vbe = p.vbe_qa - p.vbe_qb;
  return p;
}

ThermalFixedPoint::ThermalFixedPoint(const DieProcedure& die,
                                     double chamber_kelvin)
    : die_(&die),
      chamber_kelvin_(chamber_kelvin),
      t_die_(die.die_temperature(chamber_kelvin, 0.0)) {}

void ThermalFixedPoint::update(double power_watts) {
  const double t_new = die_->die_temperature(chamber_kelvin_, power_watts);
  converged_ = std::abs(t_new - t_die_) < kTolKelvin;
  t_die_ = t_new;
  ++passes_;
}

Laboratory::Laboratory(DieSample sample, CampaignConfig config)
    : die_(std::move(sample), std::move(config)) {}

Laboratory::CellRig& Laboratory::cell_rig(double radja_ohms) {
  constexpr double kMinTrim = 1e-6;  // matches the build_test_cell clamp
  if (!cell_) {
    cell_ = std::make_unique<CellRig>();
    cell_->handles = bandgap::build_test_cell(cell_->circuit,
                                              die_.cell_params(radja_ohms));
    cell_->session.emplace(cell_->circuit, die_.config().newton);
  } else {
    cell_->circuit.get<spice::Resistor>(cell_->handles.radja)
        .set_nominal_resistance(std::max(radja_ohms, kMinTrim));
  }
  return *cell_;
}

Laboratory::DutRig& Laboratory::vbias_rig() {
  if (!vbias_) {
    vbias_ = std::make_unique<DutRig>();
    spice::Circuit& c = vbias_->circuit;
    vbias_->emitter = c.node("e");
    c.add_vsource("VE", vbias_->emitter, spice::kGround, 0.6);
    c.add_bjt("DUT", spice::kGround, spice::kGround, vbias_->emitter,
              die_.sample().qin, 1.0, spice::kGround);
    vbias_->session.emplace(c, die_.config().newton);
  }
  return *vbias_;
}

Laboratory::DutRig& Laboratory::ibias_rig() {
  if (!ibias_) {
    ibias_ = std::make_unique<DutRig>();
    ibias_->emitter = die_.build_forced_current_dut(ibias_->circuit);
    ibias_->session.emplace(ibias_->circuit, die_.config().newton);
  }
  return *ibias_;
}

std::vector<Series> Laboratory::icvbe_family(
    const std::vector<double>& chamber_celsius, double vbe_min,
    double vbe_max, int points) {
  ICVBE_REQUIRE(points >= 2, "icvbe_family: need >= 2 sweep points");
  std::vector<Series> out;
  out.reserve(chamber_celsius.size());

  // Common-base bias with VCB = 0: emitter driven, base and collector
  // grounded -- the same junction configuration as the diode-connected
  // cell devices. The rig (circuit + solver session) is built once per
  // laboratory session and re-biased point to point.
  DutRig& rig = vbias_rig();

  // Each chamber setting is one declarative 1-axis plan: sweep VE over the
  // *forced* voltages (the SMU applies its systematic source error to the
  // programmed setpoints; forcing draws no per-reading noise) and probe
  // the DUT collector current. The rig session carries warm-start
  // continuation across points and chambers exactly as before.
  const std::vector<double> setpoints =
      spice::linspace(vbe_min, vbe_max, points);
  spice::AnalysisPlan plan;
  plan.name = "icvbe_family";
  plan.probes = {spice::Probe::bjt_current(
      "DUT", spice::Probe::BjtTerminal::kCollector)};

  for (double tc : chamber_celsius) {
    // The DUT dissipates microwatts at the currents of interest, so the
    // die temperature is the fixture value at zero chip power (the rest of
    // the chip is unpowered during single-device characterisation).
    rig.circuit.set_temperature(die_.die_temperature(to_kelvin(tc), 0.0));

    std::vector<double> forced = setpoints;
    for (double& v : forced) v = die_.force_voltage(v);
    plan.axes = {spice::SweepAxis::vsource(
        "VE", spice::SweepGrid::list(std::move(forced)))};

    spice::SweepResult biased;
    try {
      biased = rig.session->run(plan);
    } catch (const NumericalError&) {
      throw MeasurementError("icvbe_family: bias point failed to solve");
    }

    Series family("IC(VBE) at " + format_fixed(tc, 1) + " C");
    family.reserve(static_cast<std::size_t>(points));
    for (std::size_t i = 0; i < setpoints.size(); ++i) {
      const double ic_meas =
          die_.measure_current(std::abs(biased.value(0, i)));
      // Record the *programmed* VBE on x (that is how a real analyser
      // reports a forced sweep) and the measured current on y.
      family.push_back(setpoints[i], std::max(ic_meas, 1e-16));
    }
    out.push_back(std::move(family));
  }
  return out;
}

std::vector<VbePoint> Laboratory::vbe_vs_temperature(
    double ic_amps, const std::vector<double>& chamber_celsius) {
  ICVBE_REQUIRE(ic_amps > 0.0, "vbe_vs_temperature: current must be > 0");
  std::vector<VbePoint> out;
  out.reserve(chamber_celsius.size());

  // Forced emitter current into the diode-connected DUT; VBE read at the
  // emitter (VCB = 0). One rig for the whole temperature list.
  DutRig& rig = ibias_rig();
  auto& ie = rig.circuit.get<spice::CurrentSource>("IE");
  const auto& dut = rig.circuit.get<spice::Bjt>("DUT");

  for (double tc : chamber_celsius) {
    const double chamber_k = to_kelvin(tc);
    const double t_die = die_.die_temperature(chamber_k, 0.0);
    ie.set_current(die_.force_current(ic_amps));
    rig.circuit.set_temperature(t_die);
    const spice::Unknowns& x = rig.session->solve_or_throw();
    out.push_back(die_.record_vbe(chamber_k, t_die,
                                  x.node_voltage(rig.emitter),
                                  std::abs(dut.currents(x).ic)));
  }
  return out;
}

double Laboratory::settle_die_temperature(CellRig& rig,
                                          double chamber_kelvin) {
  // Electro-thermal: the cell's own power plus the chip's auxiliary
  // circuitry heat the die above the fixture-leak-adjusted ambient.
  ThermalFixedPoint thermal(die_, chamber_kelvin);
  while (!thermal.settled()) {
    thermal.update(
        bandgap::solve_cell_at(*rig.session, rig.handles, thermal.t_die())
            .power);
  }
  return thermal.t_die();
}

std::vector<CellPoint> Laboratory::test_cell_sweep(
    const std::vector<double>& chamber_celsius, double radja_ohms) {
  std::vector<CellPoint> out;
  out.reserve(chamber_celsius.size());

  // One persistent cell rig: circuit assembled once, RADJA re-programmed,
  // every solve of the electro-thermal loop warm-started in the session.
  CellRig& rig = cell_rig(radja_ohms);

  for (double tc : chamber_celsius) {
    const double chamber_k = to_kelvin(tc);
    const double t_die = settle_die_temperature(rig, chamber_k);
    out.push_back(die_.record_cell(
        chamber_k, bandgap::solve_cell_at(*rig.session, rig.handles, t_die)));
  }
  return out;
}

Series Laboratory::vref_curve(const std::vector<double>& chamber_celsius,
                              double radja_ohms) {
  if (chamber_celsius.empty()) {
    return Series("VREF(T), RadjA=" + format_fixed(radja_ohms / 1e3, 2) +
                  "k");
  }

  // One persistent cell rig; RADJA re-programmed between calls.
  CellRig& rig = cell_rig(radja_ohms);

  // Resolve the electro-thermal operating temperature of every chamber
  // point first -- the fixed point needs intermediate solves and the cell
  // power, so it cannot be a sweep axis...
  std::vector<double> die_temps;
  die_temps.reserve(chamber_celsius.size());
  for (double tc : chamber_celsius) {
    die_temps.push_back(settle_die_temperature(rig, to_kelvin(tc)));
  }

  // ...the curve itself then is a declarative plan: sweep the resolved die
  // temperatures, probe V(vref). Seed the first point with the cell's
  // analytic startup guess at its own temperature (the last fixed-point
  // iterate may sit at the far end of the grid).
  spice::AnalysisPlan plan;
  plan.name = "vref_curve";
  plan.axes = {spice::SweepAxis::temperature_kelvin(
      spice::SweepGrid::list(die_temps))};
  plan.probes = {spice::Probe::node_voltage(
      rig.circuit.node_name(rig.handles.vref))};
  rig.circuit.set_temperature(die_temps.front());  // the guess reads
                                                   // temperature state
  rig.session->seed_warm_start(bandgap::cell_initial_guess(
      rig.circuit, rig.handles, die_temps.front()));

  std::vector<double> vrefs(chamber_celsius.size());
  try {
    const spice::SweepResult curve = rig.session->run(plan);
    for (std::size_t i = 0; i < vrefs.size(); ++i) {
      vrefs[i] = curve.value(0, i);
    }
  } catch (const NumericalError&) {
    // Sparse grids can put adjacent points hundreds of kelvin apart,
    // where one shared seed cannot rescue the continuation. Fall back to
    // the per-point path, which re-seeds every solve from the cell's
    // analytic startup guess at its own temperature.
    for (std::size_t i = 0; i < vrefs.size(); ++i) {
      vrefs[i] =
          bandgap::solve_cell_at(*rig.session, rig.handles, die_temps[i])
              .vref;
    }
  }

  Series s("VREF(T), RadjA=" + format_fixed(radja_ohms / 1e3, 2) + "k");
  s.reserve(chamber_celsius.size());
  for (std::size_t i = 0; i < chamber_celsius.size(); ++i) {
    s.push_back(chamber_celsius[i], die_.measure_vref(vrefs[i]));
  }
  return s;
}

}  // namespace icvbe::lab
