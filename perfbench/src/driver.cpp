// perfbench_driver: runs one workload and prints its raw measurements as
// one JSON object on stdout. run.py builds and invokes it, checks its
// outputs, and turns the raw samples into the benchmark's metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --workdir <dir> --decks <dir>
//   perfbench_driver --workload <name> --seed <n> --decks <dir> --inputs 1
//
// The second form prints only a digest of the generated inputs.
//
// With --trace 1 the timed loop runs twice, for half the time each: once
// with tracing off (the overhead baseline) and once recording spans. The
// per-layer replays run after it, then the reference replays for the
// layers the workload does not exercise.

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "provenance.hpp"

namespace perfbench {

namespace {

const Clock::time_point kStart = Clock::now();
thread_local std::vector<int> t_open;  // spans open on this thread
std::atomic<int> g_next_tid{0};
thread_local int t_tid = g_next_tid.fetch_add(1);

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

int Tracer::open(std::string name, long id) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.t0_us = now_s() * 1e6;
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.id = id;
  s.tid = t_tid;
  int index = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  const double t1 = now_s() * 1e6;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(index)].t1_us = t1;
  }
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

template <typename Map, typename F>
std::string object(const Map& m, F&& value) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    if (!first) out += ',';
    out += quote(k);
    out += ':';
    out += value(v);
    first = false;
  }
  return out + "}";
}

std::string provenance() {
#ifdef ICVBE_SIMD
  const char* simd = "ON";
#else
  const char* simd = "OFF";
#endif
  const std::string flags = PERFBENCH_FLAGS;
  std::string march = "none";
  if (const auto at = flags.find("-march="); at != std::string::npos) {
    march = flags.substr(at + 7, flags.find(' ', at) - at - 7);
  }
  return "{\"build_type\":" + quote(PERFBENCH_BUILD_TYPE) +
         ",\"compiler\":" + quote(PERFBENCH_COMPILER) +
         ",\"flags\":" + quote(flags) + ",\"icvbe_simd\":" + quote(simd) +
         ",\"march\":" + quote(march) + "}";
}

std::string to_json(const Options& opt, const Result& r, const Tracer& t) {
  std::ostringstream o;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  o << "{\"workload\":" << quote(opt.workload) << ",\"seed\":" << opt.seed
    << ",\"seconds\":" << num(opt.seconds) << ",\"trace\":" << opt.trace
    << ",\"build\":" << provenance()
    << ",\"config\":" << object(r.config, num)
    << ",\"setup_s\":" << list(r.setup_s) << ",\"iter_ms\":" << list(r.iter_ms)
    << ",\"iters_failed\":" << r.iters_failed
    << ",\"elapsed_s\":" << num(r.elapsed_s)
    << ",\"untraced_iter_ms\":" << list(r.untraced_iter_ms)
    << ",\"untraced_iters_failed\":" << r.untraced_iters_failed
    << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
    << ",\"peak_rss_kb\":" << usage.ru_maxrss
    << ",\"quality\":" << object(r.quality, num)
    << ",\"layers\":" << object(r.layers, num)
    << ",\"reference\":[";
  for (std::size_t i = 0; i < r.reference.size(); ++i) {
    o << (i ? "," : "") << quote(r.reference[i]);
  }
  o << "]"
    << ",\"files\":" << object(r.files, quote) << ",\"checks\":[";
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    const Check& c = r.checks[i];
    o << (i ? "," : "") << "{\"name\":" << quote(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << quote(c.detail) << "}";
  }
  o << "],\"spans\":[";
  const auto& spans = t.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    o << (i ? "," : "") << "[" << quote(s.name) << "," << num(s.t0_us) << ","
      << num(s.t1_us) << "," << s.parent << "," << s.id << "," << s.tid
      << "]";
  }
  o << "]}\n";
  return o.str();
}

using WorkloadFn = std::function<void(const Options&, Tracer&, Result&)>;

WorkloadFn find_workload(const std::string& name) {
  if (name == "lot_eg_xti") return run_lot;
  if (name == "deck_cold_tree100k") return run_deck_cold;
  if (name == "serve_warm_grid10k") return run_serve_grid;
  throw std::runtime_error("unknown workload '" + name + "'");
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--workdir") {
      opt.workdir = value;
    } else if (key == "--decks") {
      opt.decks_dir = value;
    } else if (key == "--inputs") {
      opt.inputs_only = value == "1";
    } else {
      throw std::runtime_error("unknown option '" + key + "'");
    }
  }
  if (opt.workload.empty() || opt.decks_dir.empty() ||
      (opt.workdir.empty() && !opt.inputs_only)) {
    throw std::runtime_error(
        "usage: perfbench_driver --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --workdir <dir> --decks <dir> [--inputs 1]");
  }
  return opt;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    Options opt = parse_args(argc, argv);
    const WorkloadFn run = find_workload(opt.workload);
    if (opt.inputs_only) {
      std::cout << "{\"workload\":" << quote(opt.workload)
                << ",\"seed\":" << opt.seed << ",\"inputs\":"
                << quote(input_digest(opt)) << "}\n";
      return 0;
    }
    Tracer tracer;
    Result result;
    if (opt.trace) {
      Options half = opt;
      half.seconds = opt.seconds / 2;
      half.trace = false;
      Result untraced;
      run(half, tracer, untraced);
      half.trace = true;
      tracer.set_enabled(true);
      run(half, tracer, result);
      tracer.set_enabled(false);
      reference_layers(half, result);
      // Every operation of the untraced half counts with the traced ones.
      result.untraced_iter_ms = untraced.iter_ms;
      result.untraced_iters_failed = untraced.iters_failed;
      result.attempted += untraced.attempted;
      result.failed += untraced.failed;
      for (Check& c : untraced.checks) {
        c.name = "untraced." + c.name;
        result.checks.push_back(std::move(c));
      }
    } else {
      run(opt, tracer, result);
    }
    std::cout << to_json(opt, result, tracer);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
