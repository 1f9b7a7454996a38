// LotCampaign::run_batched -- the K-lane batched lot driver.
//
// The per-die path (run_die) builds a fresh Laboratory per die: fresh
// circuits, fresh solver sessions (pattern discovery + symbolic analysis
// per die), fresh instrument streams. This driver keeps ONE set of K lane
// circuits per rig per worker, re-programs the per-die parameter values
// between dies (ParamDeltaSet + begin_variant -- value changes never touch
// the frozen pattern), and carries all K dies through every LU
// refactor/solve together (BatchDcSession).
//
// Results equal run_die's for any thread count and any lane count:
//  * every per-die step is the per-die path's own code, called per die in
//    the Laboratory's order: cell parameters, die temperature, forcing and
//    recording (DieProcedure), the electro-thermal fixed point
//    (ThermalFixedPoint), the cell observation (bandgap::observe_cell) and
//    the extraction (fit_classical, fit_meijer). Instrument streams are
//    per die, so interleaving dies is free. What lives here is only the
//    batching: the lane rigs, the lane masks, the lockstep solves and the
//    fallback;
//  * each worker's batch sessions are primed from the campaign-fixed
//    reference die (first_index) at a deterministic state, so the shared
//    pivot sequence is independent of which worker solves which group;
//  * any lane that leaves the lockstep (pivot rejection, plain-Newton
//    non-convergence, any exception) discards its batch-side work and the
//    die is recomputed with run_die -- same bits by definition.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "icvbe/bandgap/test_cell.hpp"
#include "icvbe/common/constants.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/lab/lot_campaign.hpp"
#include "icvbe/spice/batch_session.hpp"

namespace icvbe::lab {

namespace {

/// One worker's lane rigs: K ibias circuits + K cell circuits, each pair
/// of batches sharing one pattern and one pinned symbolic analysis.
struct WorkerRigs {
  std::size_t k = 0;

  // Classical-method rig (forced-current diode-connected DUT, n = 1).
  std::vector<std::unique_ptr<spice::Circuit>> ibias_circuit;
  std::vector<spice::NodeId> ibias_emitter;
  std::vector<spice::CurrentSource*> ibias_ie;
  std::vector<const spice::Bjt*> ibias_dut;
  std::optional<spice::BatchDcSession> ibias;

  // Meijer-method rig (the full test cell).
  std::vector<std::unique_ptr<spice::Circuit>> cell_circuit;
  std::vector<bandgap::TestCellHandles> cell_handles;
  std::vector<spice::ParamDeltaSet> cell_delta;
  std::size_t slot_qa = 0, slot_qb = 0, slot_u1 = 0;
  std::size_t slot_rx1 = 0, slot_rx2 = 0, slot_rb = 0;
  std::optional<spice::BatchDcSession> cell;

  WorkerRigs(std::size_t lanes, const SiliconLot& lot,
             const LotCampaignConfig& cfg) {
    k = lanes;
    // The campaign-fixed reference die every worker primes from.
    const DieProcedure ref(lot.sample(cfg.first_index), cfg.lab);

    if (cfg.run_classical && !cfg.classical_celsius.empty()) {
      std::vector<spice::Circuit*> ptrs;
      for (std::size_t l = 0; l < k; ++l) {
        auto c = std::make_unique<spice::Circuit>();
        ibias_emitter.push_back(ref.build_forced_current_dut(*c));
        ibias_circuit.push_back(std::move(c));
        ptrs.push_back(ibias_circuit.back().get());
      }
      ibias.emplace(std::move(ptrs), cfg.lab.newton);
      for (std::size_t l = 0; l < k; ++l) {
        ibias_ie.push_back(
            &ibias_circuit[l]->get<spice::CurrentSource>("IE"));
        ibias_dut.push_back(&ibias_circuit[l]->get<spice::Bjt>("DUT"));
      }
      // Deterministic prime: the reference die at the first chamber
      // setting and the nominal forced current, cold start -- a pure
      // function of (lot, config), so every worker pins identical pivots.
      const double t_ref =
          ref.die_temperature(to_kelvin(cfg.classical_celsius.front()), 0.0);
      ibias_ie[0]->set_current(cfg.classical_ic);
      ibias_circuit[0]->set_temperature(t_ref);
      ibias->prime(0);
    }

    if (cfg.run_meijer && !cfg.cell_celsius.empty()) {
      const bandgap::TestCellParams ref_params = ref.cell_params(0.0);
      std::vector<spice::Circuit*> ptrs;
      for (std::size_t l = 0; l < k; ++l) {
        auto c = std::make_unique<spice::Circuit>();
        cell_handles.push_back(bandgap::build_test_cell(*c, ref_params));
        cell_circuit.push_back(std::move(c));
        ptrs.push_back(cell_circuit.back().get());
      }
      cell.emplace(std::move(ptrs), cfg.lab.newton);
      for (std::size_t l = 0; l < k; ++l) {
        spice::ParamDeltaSet d(*cell_circuit[l]);
        slot_qa = d.bind_bjt(cell_handles[l].qa);
        slot_qb = d.bind_bjt(cell_handles[l].qb);
        slot_u1 = d.bind_opamp("U1");
        slot_rx1 = d.bind_resistor("RX1");
        slot_rx2 = d.bind_resistor("RX2");
        slot_rb = d.bind_resistor("RB");
        cell_delta.push_back(std::move(d));
      }
      // Deterministic prime: reference die, first cell chamber setting,
      // warm-seeded from the cell's analytic startup guess -- the same
      // state the per-die session analyses at its first Newton iterate.
      const double t_ref =
          ref.die_temperature(to_kelvin(cfg.cell_celsius.front()), 0.0);
      cell_circuit[0]->set_temperature(t_ref);
      cell->seed_warm_start(
          0, bandgap::cell_initial_guess(*cell_circuit[0], cell_handles[0],
                                         t_ref));
      cell->prime(0);
      cell->begin_variant(0);  // wipe the priming seed before real dies
    }
  }

  /// Re-program lane `l` to `die` and reset it to fresh-rig state.
  void program_die(std::size_t l, const DieProcedure& die) {
    if (ibias) {
      ibias_circuit[l]->get<spice::Bjt>("DUT").set_model(die.sample().qin);
      ibias->begin_variant(l);
      ibias->set_lane_active(l, true);
    }
    if (cell) {
      // RADJA stays at the untrimmed value every lane was built with.
      const bandgap::TestCellParams p = die.cell_params(0.0);
      auto& d = cell_delta[l];
      d.set_bjt_model(slot_qa, p.qa_model);
      d.set_bjt_model(slot_qb, p.qb_model);
      d.set_opamp_offset(slot_u1, p.opamp_offset);
      d.set_resistance(slot_rx1, p.rx1);
      d.set_resistance(slot_rx2, p.rx2);
      d.set_resistance(slot_rb, p.rb);
      cell->begin_variant(l);
      cell->set_lane_active(l, true);
    }
  }

  void drop_lane(std::size_t l) {
    if (ibias) ibias->set_lane_active(l, false);
    if (cell) cell->set_lane_active(l, false);
  }
};

}  // namespace

std::vector<DieCharacterisation> LotCampaign::run_batched() const {
  const auto n = static_cast<std::size_t>(config_.samples);
  // K = 1 is the smallest batch; more lanes than dies would only build
  // idle lane rigs.
  const std::size_t k = std::clamp<std::size_t>(config_.lanes, 1, n);
  std::vector<DieCharacterisation> results(n);

  const std::size_t groups = (n + k - 1) / k;
  unsigned threads = common::resolve_thread_count(config_.threads);
  threads = std::min<unsigned>(threads, static_cast<unsigned>(groups));

  // Workers pull whole lane groups from a shared counter; every die writes
  // only its own slot, and each worker's rigs are primed from the same
  // campaign-fixed reference, so the output is bit-identical for any
  // thread count and any lane count.
  std::atomic<std::size_t> next{0};
  common::fan_out(threads, [&]() {
    std::optional<WorkerRigs> rigs;
    std::vector<std::optional<DieProcedure>> die(k);
    std::vector<unsigned char> good(k);
    std::vector<unsigned char> iterating(k);
    std::vector<double> t_die(k);
    std::vector<ThermalFixedPoint> thermal(k);
    std::vector<std::vector<VbePoint>> vbe_pts(k);
    std::vector<std::vector<CellPoint>> cell_pts(k);

    for (;;) {
      const std::size_t g = next.fetch_add(1, std::memory_order_relaxed);
      if (g >= groups) break;
      if (!rigs) rigs.emplace(k, lot_, config_);

      const std::size_t first_offset = g * k;
      const std::size_t group_size = std::min(k, n - first_offset);

      // A failure of the shared machinery (not of one lane) falls back to
      // the per-die path for the whole group.
      bool group_failed = false;
      try {
        for (std::size_t l = 0; l < k; ++l) {
          if (l >= group_size) {
            rigs->drop_lane(l);
            good[l] = 0;
            continue;
          }
          const int index =
              config_.first_index + static_cast<int>(first_offset + l);
          die[l].emplace(lot_.sample(index), die_config(index));
          rigs->program_die(l, *die[l]);
          good[l] = 1;
          vbe_pts[l].clear();
          cell_pts[l].clear();
        }

        // ---- Classical method: VBE(T) of the single DUT ----
        if (config_.run_classical) {
          if (!(config_.classical_ic > 0.0)) {
            // vbe_vs_temperature rejects this current for every die; let
            // run_die record that error.
            throw MeasurementError("vbe_vs_temperature: current must be > 0");
          }
          for (double tc : config_.classical_celsius) {
            const double chamber_k = to_kelvin(tc);
            for (std::size_t l = 0; l < group_size; ++l) {
              if (!good[l]) continue;
              t_die[l] = die[l]->die_temperature(chamber_k, 0.0);
              rigs->ibias_ie[l]->set_current(
                  die[l]->force_current(config_.classical_ic));
              rigs->ibias_circuit[l]->set_temperature(t_die[l]);
            }
            rigs->ibias->solve_active();
            for (std::size_t l = 0; l < group_size; ++l) {
              if (!good[l]) continue;
              if (!rigs->ibias->status(l).converged) {
                good[l] = 0;
                rigs->drop_lane(l);
                continue;
              }
              const spice::Unknowns& x = rigs->ibias->solution(l);
              vbe_pts[l].push_back(die[l]->record_vbe(
                  chamber_k, t_die[l], x.node_voltage(rigs->ibias_emitter[l]),
                  std::abs(rigs->ibias_dut[l]->currents(x).ic)));
            }
          }
        }

        // ---- Meijer method: the test-cell sweep ----
        if (config_.run_meijer) {
          for (double tc : config_.cell_celsius) {
            const double chamber_k = to_kelvin(tc);
            for (std::size_t l = 0; l < group_size; ++l) {
              if (good[l]) thermal[l] = ThermalFixedPoint(*die[l], chamber_k);
            }
            // Electro-thermal fixed point, masked per lane: each lane runs
            // exactly the passes its own Laboratory loop would, sitting
            // out once settled.
            for (;;) {
              bool any_iterating = false;
              for (std::size_t l = 0; l < group_size; ++l) {
                iterating[l] = good[l] && !thermal[l].settled();
                rigs->cell->set_lane_active(l, iterating[l] != 0);
                if (!iterating[l]) continue;
                any_iterating = true;
                rigs->cell_circuit[l]->set_temperature(thermal[l].t_die());
                if (!rigs->cell->has_warm_start(l)) {
                  rigs->cell->seed_warm_start(
                      l, bandgap::cell_initial_guess(*rigs->cell_circuit[l],
                                                     rigs->cell_handles[l],
                                                     thermal[l].t_die()));
                }
              }
              if (!any_iterating) break;
              rigs->cell->solve_active();
              for (std::size_t l = 0; l < group_size; ++l) {
                if (!iterating[l]) continue;
                if (!rigs->cell->status(l).converged) {
                  good[l] = 0;
                  rigs->drop_lane(l);
                  continue;
                }
                thermal[l].update(
                    bandgap::observe_cell(*rigs->cell_circuit[l],
                                          rigs->cell_handles[l],
                                          rigs->cell->solution(l),
                                          thermal[l].t_die())
                        .power);
              }
            }
            // The committed observation at the settled die temperature.
            for (std::size_t l = 0; l < group_size; ++l) {
              rigs->cell->set_lane_active(l, good[l] != 0);
              if (!good[l]) continue;
              rigs->cell_circuit[l]->set_temperature(thermal[l].t_die());
            }
            rigs->cell->solve_active();
            for (std::size_t l = 0; l < group_size; ++l) {
              if (!good[l]) continue;
              if (!rigs->cell->status(l).converged) {
                good[l] = 0;
                rigs->drop_lane(l);
                continue;
              }
              cell_pts[l].push_back(die[l]->record_cell(
                  chamber_k,
                  bandgap::observe_cell(*rigs->cell_circuit[l],
                                        rigs->cell_handles[l],
                                        rigs->cell->solution(l),
                                        thermal[l].t_die())));
            }
          }
        }
      } catch (const std::exception&) {
        group_failed = true;
      }

      // ---- Extraction + assembly: run_die's, on the lanes' points ----
      for (std::size_t l = 0; l < group_size; ++l) {
        const auto offset = static_cast<int>(first_offset + l);
        if (group_failed || !good[l]) {
          results[first_offset + l] = run_die(offset);
          continue;
        }
        DieCharacterisation out;
        out.index = config_.first_index + offset;
        try {
          if (config_.run_classical) fit_classical(out, vbe_pts[l]);
          if (config_.run_meijer) fit_meijer(out, cell_pts[l]);
          out.ok = true;
          results[first_offset + l] = std::move(out);
        } catch (const std::exception&) {
          // The scalar path may record this as a failed die or rescue it
          // with its deeper fallback ladder; either way run_die IS that
          // path, so its result is the result.
          results[first_offset + l] = run_die(offset);
        }
      }
    }
  });
  return results;
}

}  // namespace icvbe::lab
