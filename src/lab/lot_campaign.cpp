#include "icvbe/lab/lot_campaign.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "icvbe/common/constants.hpp"
#include "icvbe/common/thread_pool.hpp"
#include "icvbe/common/error.hpp"
#include "icvbe/extract/best_fit.hpp"
#include "icvbe/extract/dataset.hpp"
#include "icvbe/extract/meijer.hpp"

namespace icvbe::lab {

LotStatistic LotStatistic::of(std::vector<double> values) {
  LotStatistic s;
  s.count = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  double sum = 0.0;
  for (double v : values) sum += v;
  s.mean = sum / static_cast<double>(values.size());
  // Sample (Bessel-corrected) standard deviation: the lot is a sample of
  // the process, not the whole population of dies it will ever produce.
  double var = 0.0;
  for (double v : values) var += (v - s.mean) * (v - s.mean);
  s.stddev = values.size() > 1
                 ? std::sqrt(var / static_cast<double>(values.size() - 1))
                 : 0.0;
  auto quantile = [&](double q) {
    const double idx = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(idx);
    const double frac = idx - static_cast<double>(lo);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + frac * (values[hi] - values[lo]);
  };
  s.q10 = quantile(0.10);
  s.q50 = quantile(0.50);
  s.q90 = quantile(0.90);
  return s;
}

LotCampaign::LotCampaign(SiliconLot lot, LotCampaignConfig config)
    : lot_(std::move(lot)), config_(std::move(config)) {
  ICVBE_REQUIRE(config_.samples > 0, "LotCampaign: need >= 1 sample");
  if (config_.run_meijer) {
    ICVBE_REQUIRE(config_.cell_celsius.size() == 3,
                  "LotCampaign: the Meijer method needs exactly three "
                  "chamber temperatures");
  }
}

CampaignConfig LotCampaign::die_config(int index) const {
  CampaignConfig cfg = config_.lab;
  cfg.seed = config_.seed_base + static_cast<std::uint64_t>(index);
  return cfg;
}

void LotCampaign::fit_classical(DieCharacterisation& out,
                                const std::vector<VbePoint>& vbe) const {
  extract::BestFitOptions opt;
  opt.t0 = to_kelvin(25.0);
  out.eg_classical =
      extract::best_fit_eg_xti(extract::samples_from_lab(vbe), opt).eg;
  out.has_classical = true;
}

void LotCampaign::fit_meijer(DieCharacterisation& out,
                             std::vector<CellPoint> cell) const {
  out.cell = std::move(cell);
  const auto m = extract::meijer_from_cell(
      out.cell, config_.cell_celsius[0], config_.cell_celsius[1],
      config_.cell_celsius[2]);
  out.eg_meijer = m.with_computed_t.eg;
  out.xti_meijer = m.with_computed_t.xti;
  out.eg_measured_t = m.with_measured_t.eg;
  out.xti_measured_t = m.with_measured_t.xti;
  const auto cmp = extract::compare_temperatures(m);
  out.delta_t1 = cmp.delta_t1();
  out.delta_t3 = cmp.delta_t3();
  out.has_meijer = true;
}

DieCharacterisation LotCampaign::run_die(int die_offset) const {
  DieCharacterisation out;
  out.index = config_.first_index + die_offset;
  try {
    Laboratory laboratory(lot_.sample(out.index), die_config(out.index));
    if (config_.run_classical) {
      fit_classical(out, laboratory.vbe_vs_temperature(
                             config_.classical_ic, config_.classical_celsius));
    }
    if (config_.run_meijer) {
      fit_meijer(out, laboratory.test_cell_sweep(config_.cell_celsius));
    }
    out.ok = true;
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

std::vector<DieCharacterisation> LotCampaign::run() const {
  if (config_.lanes > 1) return run_batched();
  const auto n = static_cast<std::size_t>(config_.samples);
  std::vector<DieCharacterisation> results(n);

  unsigned threads = common::resolve_thread_count(config_.threads);
  threads = std::min<unsigned>(threads, static_cast<unsigned>(n));

  // Workers pull die offsets from a shared counter; every die writes only
  // its own preallocated slot, so the result is identical for any thread
  // count -- scheduling decides who computes a die, never what it yields.
  std::atomic<int> next{0};
  common::fan_out(threads, [&]() {
    for (;;) {
      const int i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= config_.samples) break;
      results[static_cast<std::size_t>(i)] = run_die(i);
    }
  });
  return results;
}

LotSummary LotCampaign::summarise(
    const std::vector<DieCharacterisation>& dies) {
  LotSummary s;
  std::vector<double> eg_c, eg_m, xti_m, d1, d3;
  for (const auto& die : dies) {
    if (!die.ok) {
      ++s.dies_failed;
      continue;
    }
    ++s.dies_ok;
    if (die.has_classical) eg_c.push_back(die.eg_classical);
    if (die.has_meijer) {
      eg_m.push_back(die.eg_meijer);
      xti_m.push_back(die.xti_meijer);
      d1.push_back(die.delta_t1);
      d3.push_back(die.delta_t3);
    }
  }
  s.eg_classical = LotStatistic::of(std::move(eg_c));
  s.eg_meijer = LotStatistic::of(std::move(eg_m));
  s.xti_meijer = LotStatistic::of(std::move(xti_m));
  s.delta_t1 = LotStatistic::of(std::move(d1));
  s.delta_t3 = LotStatistic::of(std::move(d3));
  return s;
}

}  // namespace icvbe::lab
