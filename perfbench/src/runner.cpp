// qdt_perfbench: runs one workload in this process as a closed loop with a
// single client (one job at a time, the next started when the previous one
// returns) and prints one JSON line of raw measurements. perfbench/run.py
// builds this program, starts it, and turns the raw lines into metrics.
//
//   qdt_perfbench --workload W --seed N --seconds S --trace 0|1
//
// A run is one cold pass (every distinct job once, in a fresh process:
// what each `qdt` CLI invocation pays) followed by warm passes until the
// time budget is spent. The cold pass runs the jobs in the order of their
// last run in a warm pass, so it ends on the warm pass's last job: state a
// job leaves behind (the DD package pool) is then the same at the start of
// every warm pass. With --trace 1 the warm passes alternate between
// recording spans and not, so the recorder's overhead is measured against
// untraced passes of the same process.
//
// Jobs are timed in process CPU time: each job runs on this one thread and
// does no I/O, so its CPU time is what it costs, and unlike wall time it
// does not grow while a shared host lets other tenants run. Before the
// first job of a pass and after every job the runner also times fixed
// reference loops that run no library code; run.py scales the pass's job
// times by the pass's fastest reference, which removes much of the
// slowdown other tenants cause on a shared core. Wall times are printed
// beside them.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/obs.hpp"
#include "par/pool.hpp"

namespace perfbench {

namespace obs = qdt::obs;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds this process has used (all threads).
double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// Keeps the reference loops from being optimized away.
volatile double g_reference_sum = 0;

/// CPU milliseconds of eight independent xorshift chains in registers: no
/// memory traffic, so the core can issue several integer operations per
/// cycle. A tenant sharing the physical core takes issue slots from it as
/// it does from the jobs.
double alu_loop_ms() {
  std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
  const double t0 = cpu_now();
  for (int i = 0; i < 800000; ++i) {
    a ^= a << 13;
    b ^= b >> 7;
    c ^= c << 17;
    d += d >> 3;
    e ^= e << 5;
    f += f << 1;
    g ^= g >> 11;
    h += h ^ (h >> 9);
  }
  const double ms = (cpu_now() - t0) * 1e3;
  g_reference_sum = static_cast<double>(a + b + c + d + e + f + g + h);
  return ms;
}

/// CPU milliseconds of 40 complex-scaling sweeps over 256 KiB: a private
/// L2 working set, as array gate sweeps and the tableau have, which a
/// tenant sharing the physical core contends for. One untimed sweep first
/// brings the buffer back into the caches, so the time does not depend on
/// what the job before it touched.
double sweep_loop_ms() {
  static std::vector<std::complex<double>> buf(std::size_t{1} << 14,
                                               {1.0, 0.0});
  const std::complex<double> turn(0.6, 0.8);  // |turn| = 1
  for (auto& x : buf) {
    x *= turn;
  }
  const double t0 = cpu_now();
  for (int rep = 0; rep < 40; ++rep) {
    for (auto& x : buf) {
      x *= turn;
    }
  }
  const double ms = (cpu_now() - t0) * 1e3;
  g_reference_sum = buf[7].real();
  return ms;
}

/// The reference: geometric mean of the two loops' times.
double reference_ms() { return std::sqrt(alu_loop_ms() * sweep_loop_ms()); }

const char* const kCounterNames[kCounters] = {
    "qdt.arrays.svsim.gates_applied",
    "qdt.dd.compute_table.hits",
    "qdt.dd.compute_table.misses",
    "qdt.dd.unique_table.hits",
    "qdt.dd.unique_table.misses",
    "qdt.dd.package.node_allocs",
    "qdt.dd.gc.runs",
    "qdt.flow.opt.removed_gates",
    "qdt.transpile.route.swaps_inserted",
    "qdt.transpile.peephole.cancelled_pairs",
    "qdt.transpile.peephole.merged_rotations",
    "qdt.transpile.peephole.dropped_identities",
    "qdt.stab.tableau.gates_applied",
    "qdt.tn.contraction.flops",
    "",  // ZxRewrites: summed from kZxRules
};

const char* const kZxRules[] = {
    "qdt.zx.rule.boundary_pivot", "qdt.zx.rule.color_change",
    "qdt.zx.rule.fusion",         "qdt.zx.rule.id_removal",
    "qdt.zx.rule.local_complementation", "qdt.zx.rule.pivot",
};

}  // namespace

const char* layer_name(Layer l) {
  static const char* const kNames[kLayers] = {
      "ir", "lint", "flow", "transpile", "arrays", "dd", "zx", "stab", "tn"};
  return kNames[static_cast<std::size_t>(l)];
}

Counts read_counters() {
  // References into the registry stay valid for the process lifetime.
  static const auto refs = [] {
    std::array<obs::Counter*, kCounters> r{};
    for (std::size_t i = 0; i + 1 < kCounters; ++i) {
      r[i] = &obs::counter(kCounterNames[i]);
    }
    return r;
  }();
  static const auto zx = [] {
    std::vector<obs::Counter*> r;
    for (const char* name : kZxRules) {
      r.push_back(&obs::counter(name));
    }
    return r;
  }();
  Counts c{};
  for (std::size_t i = 0; i + 1 < kCounters; ++i) {
    c[i] = refs[i]->value();
  }
  for (const obs::Counter* z : zx) {
    c[static_cast<std::size_t>(Ctr::ZxRewrites)] += z->value();
  }
  return c;
}

// ---------------------------------------------------------------------------
// Recorder and call scopes
// ---------------------------------------------------------------------------

std::int32_t Recorder::open(const std::string& name, std::int32_t parent) {
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return -1;
  }
  auto [it, fresh] =
      ids_.try_emplace(name, static_cast<std::int32_t>(names_.size()));
  if (fresh) {
    names_.push_back(name);
  }
  spans_.push_back({it->second, parent, cpu_now(), 0.0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Recorder::close(std::int32_t span) {
  if (span >= 0) {
    spans_[static_cast<std::size_t>(span)].end = cpu_now();
  }
}

Calls::Scope::Scope(Calls& calls, Layer layer, const char* call)
    : calls_(calls),
      layer_(layer),
      before_(read_counters()),
      uncaught_(std::uncaught_exceptions()) {
  if (calls_.recorder != nullptr) {
    span_ = calls_.recorder->open(call, calls_.job_span);
  }
}

Calls::Scope::~Scope() {
  if (calls_.recorder != nullptr) {
    calls_.recorder->close(span_);
  }
  const Counts after = read_counters();
  LayerStats& s = calls_.layers[static_cast<std::size_t>(layer_)];
  ++s.calls;
  if (std::uncaught_exceptions() > uncaught_) {
    ++s.errors;
  }
  for (std::size_t i = 0; i < kCounters; ++i) {
    calls_.last_delta_[i] = after[i] - before_[i];
    s.counts[i] += calls_.last_delta_[i];
  }
}

namespace {

// ---------------------------------------------------------------------------
// JSON output (numbers with all their digits)
// ---------------------------------------------------------------------------

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct JobSample {
  std::size_t job = 0;
  double ms = 0.0;       // CPU time
  double wall_ms = 0.0;
  bool ok = true;
  bool undecided = false;
};

struct PassRecord {
  bool traced = false;
  bool cold = false;
  double seconds = 0.0;  // CPU time
  double wall_seconds = 0.0;
  /// Fastest reference (reference_ms()) before or after any job.
  double ref_ms = 0.0;
  std::size_t out_gates = 0;
  std::size_t out_2q_gates = 0;
  Calls calls;
  std::vector<JobSample> samples;
};

/// Runs one job: the timed region covers the parse and every layer call;
/// the output check runs after it and never counts toward the time.
JobSample run_job(const Workload& w, std::size_t index, PassRecord& pass,
                  Recorder* recorder, std::vector<std::string>& failures) {
  const Job& job = w.jobs[index];
  JobSample sample;
  sample.job = index;
  pass.calls.recorder = recorder;
  pass.calls.job_span = recorder != nullptr ? recorder->open(job.name, -1) : -1;
  Outcome out;
  std::string error;
  const double wall0 = now();
  const double t0 = cpu_now();
  try {
    out = job.run(pass.calls, job);
  } catch (const std::exception& e) {
    error = std::string("threw: ") + e.what();
  }
  sample.ms = (cpu_now() - t0) * 1e3;
  sample.wall_ms = (now() - wall0) * 1e3;
  if (recorder != nullptr) {
    recorder->close(pass.calls.job_span);
  }
  if (error.empty()) {
    try {
      error = job.check(out);
    } catch (const std::exception& e) {
      error = std::string("check threw: ") + e.what();
    }
  }
  if (out.circuit) {
    const auto stats = out.circuit->stats();
    pass.out_gates += out.gates_applied.value_or(stats.total_gates);
    pass.out_2q_gates += stats.two_qubit;
  }
  sample.undecided = out.undecided;
  sample.ok = error.empty();
  if (!sample.ok) {
    failures.push_back(job.name + ": " + error);
  }
  return sample;
}

std::string counts_json(const PassRecord& p) {
  Counts total{};
  for (const LayerStats& l : p.calls.layers) {
    for (std::size_t i = 0; i < kCounters; ++i) {
      total[i] += l.counts[i];
    }
  }
  const auto at = [&](Ctr c) { return total[static_cast<std::size_t>(c)]; };
  const auto& arrays = p.calls.layers[static_cast<std::size_t>(Layer::Arrays)];
  const auto& stab = p.calls.layers[static_cast<std::size_t>(Layer::Stab)];
  std::ostringstream os;
  os << "{\"dd.table_ops\":"
     << at(Ctr::DdComputeHits) + at(Ctr::DdComputeMisses) +
            at(Ctr::DdUniqueHits) + at(Ctr::DdUniqueMisses)
     << ",\"dd.node_allocs\":" << at(Ctr::DdNodeAllocs)
     << ",\"arrays.gates_applied\":"
     << arrays.counts[static_cast<std::size_t>(Ctr::ArraysGates)]
     << ",\"stab.gates_applied\":"
     << stab.counts[static_cast<std::size_t>(Ctr::StabGates)]
     << ",\"tn.flops\":" << at(Ctr::TnFlops)
     << ",\"flow.removed_gates\":" << at(Ctr::FlowRemoved)
     << ",\"transpile.swaps\":" << at(Ctr::TranspileSwaps)
     << ",\"out_gates\":" << p.out_gates
     << ",\"out_2q_gates\":" << p.out_2q_gates << "}";
  return os.str();
}

std::string layers_json(const Calls& calls) {
  std::ostringstream os;
  os << "{";
  for (std::size_t l = 0; l < kLayers; ++l) {
    const LayerStats& s = calls.layers[l];
    os << (l ? "," : "") << quoted(layer_name(static_cast<Layer>(l)))
       << ":{\"calls\":" << s.calls
       << ",\"errors\":" << s.errors << ",\"work\":" << num(s.work)
       << ",\"counts\":{";
    for (std::size_t i = 0; i < kCounters; ++i) {
      os << (i ? "," : "") << "\"" << i << "\":" << s.counts[i];
    }
    os << "}}";
  }
  return os.str() + "}";
}

/// Self time per span name: duration minus the part its children cover.
/// Children of one span never overlap (one thread, calls in sequence), so
/// the covered part is the sum of their durations.
std::string self_times_json(const Recorder& rec) {
  const auto& spans = rec.spans();
  std::vector<double> child(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  double job_self = 0.0;
  std::size_t unclosed = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    unclosed += s.end < s.start ? 1 : 0;
    const double t = (s.end - s.start) - child[i];
    if (s.parent < 0) {
      job_self += t;
    } else {
      self[rec.names()[static_cast<std::size_t>(s.name)]] += t;
    }
  }
  std::ostringstream os;
  os << "{\"spans\":" << spans.size() << ",\"dropped\":" << rec.dropped()
     << ",\"unclosed\":" << unclosed << ",\"job_self_s\":" << num(job_self)
     << ",\"self_s\":{";
  bool first = true;
  for (const auto& [name, t] : self) {
    os << (first ? "" : ",") << quoted(name) << ":" << num(t);
    first = false;
  }
  return os.str() + "}}";
}

double gauge(const char* name) {
  return static_cast<double>(obs::gauge(name).value());
}

int run(const std::string& workload, std::uint64_t seed, double seconds,
        bool trace) {
  qdt::par::set_max_threads(1);  // the CLI default
  const Workload w = make_workload(workload, seed);
  // References are built; count only what the jobs do from here on.
  obs::reset();
  Recorder recorder(1 << 18);
  std::vector<std::string> failures;
  std::vector<PassRecord> passes;
  std::vector<std::size_t> cold_order;
  for (auto j = w.pass.rbegin(); j != w.pass.rend(); ++j) {
    if (std::find(cold_order.begin(), cold_order.end(), *j) ==
        cold_order.end()) {
      cold_order.insert(cold_order.begin(), *j);
    }
  }

  const auto run_pass = [&](bool cold, bool traced) {
    PassRecord& p = passes.emplace_back();
    p.cold = cold;
    p.traced = traced;
    const double wall0 = now();
    const double t0 = cpu_now();
    p.ref_ms = reference_ms();
    for (const std::size_t j : cold ? cold_order : w.pass) {
      p.samples.push_back(
          run_job(w, j, p, traced ? &recorder : nullptr, failures));
      p.ref_ms = std::min(p.ref_ms, reference_ms());
    }
    p.seconds = cpu_now() - t0;
    p.wall_seconds = now() - wall0;
  };

  run_pass(/*cold=*/true, false);
  const double t0 = now();
  double last = 0.0;
  std::size_t warm = 0;
  // Whole passes only, so every pass does identical work; at least one,
  // and one of each kind in a traced run.
  while (warm < (trace ? 2u : 1u) || now() - t0 + last <= seconds) {
    run_pass(false, trace && warm % 2 == 0);
    last = passes.back().wall_seconds;
    ++warm;
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const double rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  std::ostringstream os;
  os << "{\"workload\":" << quoted(w.name) << ",\"seed\":" << seed
     << ",\"peak_rss_mb\":" << num(rss_mb)
     << ",\"jobs\":[";
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    os << (j ? "," : "") << "{\"name\":" << quoted(w.jobs[j].name)
       << ",\"verifies\":" << (w.jobs[j].verifies ? "true" : "false") << "}";
  }
  os << "],\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassRecord& p = passes[i];
    os << (i ? "," : "") << "{\"cold\":" << (p.cold ? "true" : "false")
       << ",\"traced\":" << (p.traced ? "true" : "false")
       << ",\"seconds\":" << num(p.seconds)
       << ",\"wall_seconds\":" << num(p.wall_seconds)
       << ",\"ref_ms\":" << num(p.ref_ms)
       << ",\"counts\":" << counts_json(p)
       << ",\"layers\":" << layers_json(p.calls) << ",\"samples\":[";
    for (std::size_t s = 0; s < p.samples.size(); ++s) {
      const JobSample& js = p.samples[s];
      os << (s ? "," : "") << "[" << js.job << "," << num(js.ms) << ","
         << (js.ok ? 1 : 0) << "," << (js.undecided ? 1 : 0) << ","
         << num(js.wall_ms) << "]";
    }
    os << "]}";
  }
  os << "],\"gauges\":{\"arrays.bytes_peak\":"
     << num(gauge("qdt.arrays.svsim.bytes_peak"))
     << ",\"dd.bytes_peak\":" << num(gauge("qdt.dd.package.bytes_peak"))
     << ",\"tn.peak_size\":" << num(gauge("qdt.tn.contraction.peak_size"))
     << ",\"tn.mps_bytes_peak\":" << num(gauge("qdt.tn.mps.bytes_peak"))
     << "},\"trace\":" << self_times_json(recorder) << ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    os << (i ? "," : "") << quoted(failures[i]);
  }
  os << "]}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string val = argv[i + 1];
      if (key == "--workload") {
        workload = val;
      } else if (key == "--seed") {
        seed = std::stoull(val);
      } else if (key == "--seconds") {
        seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = val == "1";
      } else {
        throw std::invalid_argument("unknown flag " + key);
      }
    }
    if (workload.empty() || argc % 2 == 0) {
      throw std::invalid_argument("usage: qdt_perfbench --workload W "
                                  "[--seed N] [--seconds S] [--trace 0|1]");
    }
    return perfbench::run(workload, seed, seconds, trace);
  } catch (const std::exception& e) {
    std::cerr << "qdt_perfbench: " << e.what() << "\n";
    return 2;
  }
}
