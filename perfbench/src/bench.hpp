// Shared types of the QDT benchmark runner: the layers it measures from
// outside, the per-call accounting (obs counter deltas, spans), and the job
// records the workload catalogue hands to the runner.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/tasks.hpp"
#include "ir/circuit.hpp"

namespace perfbench {

namespace core = qdt::core;
namespace ir = qdt::ir;
using qdt::Complex;

// ---------------------------------------------------------------------------
// Layers and the obs counters read around every call into one
// ---------------------------------------------------------------------------

/// The library modules the benchmark times. Each call into one is a child
/// span of its job.
enum class Layer { Ir, Lint, Flow, Transpile, Arrays, Dd, Zx, Stab, Tn };
inline constexpr std::size_t kLayers = 9;
const char* layer_name(Layer l);

/// qdt::obs counters whose deltas are attributed to the layer call that
/// moved them.
enum class Ctr {
  ArraysGates,
  DdComputeHits,
  DdComputeMisses,
  DdUniqueHits,
  DdUniqueMisses,
  DdNodeAllocs,
  DdGcRuns,
  FlowRemoved,
  TranspileSwaps,
  PeepholeCancelled,
  PeepholeMerged,
  PeepholeDropped,
  StabGates,
  TnFlops,
  ZxRewrites,  // sum of the qdt.zx.rule.* counters
};
inline constexpr std::size_t kCounters = 15;
using Counts = std::array<std::uint64_t, kCounters>;

/// Current value of every tracked counter.
Counts read_counters();

// ---------------------------------------------------------------------------
// Span recorder (the traced run only)
// ---------------------------------------------------------------------------

/// In-memory span store, independent of qdt::trace so changes to the
/// program's own tracing cannot move the benchmark. Spans past the
/// capacity are counted as dropped, never silently lost.
class Recorder {
 public:
  struct Span {
    std::int32_t name = 0;    // index into names()
    std::int32_t parent = -1; // index of the parent span, -1 for a root
    double start = 0.0;
    double end = 0.0;
  };

  explicit Recorder(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span; returns its index, or -1 when it was dropped.
  std::int32_t open(const std::string& name, std::int32_t parent);
  void close(std::int32_t span);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::int32_t> ids_;
  std::uint64_t dropped_ = 0;
};

// ---------------------------------------------------------------------------
// Per-call accounting
// ---------------------------------------------------------------------------

struct LayerStats {
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  /// Counter deltas observed during this layer's calls.
  Counts counts{};
  /// Backend-specific unit of work: amplitude-gates for arrays, row-gates
  /// for the tableau, bytes parsed for ir. Filled by the caller.
  double work = 0.0;
};

/// Wraps every call from a job into a library layer: counts the call and
/// whether it threw, charges the obs counter deltas to the layer, and
/// (when a recorder is attached) records the call as a child span of the
/// current job span.
class Calls {
 public:
  std::array<LayerStats, kLayers> layers{};
  Recorder* recorder = nullptr;
  std::int32_t job_span = -1;

  template <class F>
  decltype(auto) in(Layer layer, const char* call, F&& f) {
    Scope s(*this, layer, call);
    return std::forward<F>(f)();
  }

  /// Adds backend work units to a layer (see LayerStats::work).
  void add_work(Layer layer, double units) {
    layers[static_cast<std::size_t>(layer)].work += units;
  }
  /// Delta of one counter across the most recent call.
  std::uint64_t last_delta(Ctr c) const {
    return last_delta_[static_cast<std::size_t>(c)];
  }

 private:
  class Scope {
   public:
    Scope(Calls& calls, Layer layer, const char* call);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Calls& calls_;
    Layer layer_;
    Counts before_;
    std::int32_t span_ = -1;
    int uncaught_;
  };

  Counts last_delta_{};
};

// ---------------------------------------------------------------------------
// Jobs
// ---------------------------------------------------------------------------

/// What a job handed back to its caller. Checked after the timed region.
struct Outcome {
  /// The job's output circuit: the compiled circuit for compile jobs, the
  /// circuit ir::parse_qasm handed to the backend otherwise. out_gates
  /// counts its gates and out_2q_gates its two-qubit gates.
  std::optional<ir::Circuit> circuit;
  /// Gates the backend counted as applied (arrays, stab). When set, it
  /// stands in for the circuit's gate count in out_gates.
  std::optional<std::uint64_t> gates_applied;
  std::size_t lint_qubits = 0;
  std::optional<core::SimulateResult> sim;
  Complex amplitude{};
  std::vector<std::pair<ir::Qubit, bool>> record;  // tableau measurements
  std::optional<core::VerifyResult> verdict;
  bool undecided = false;  // inconclusive verdict or per-job deadline hit
};

struct Job {
  std::string name;  // report row, e.g. "qft20/array"
  std::vector<std::string> inputs;  // QASM text, parsed inside the job
  std::vector<ir::Circuit> prebuilt;  // inputs with no OpenQASM 2 spelling
  bool verifies = false;            // counts toward decided_frac
  std::function<Outcome(Calls&, const Job&)> run;
  /// Empty when the outcome is correct, else what is wrong. Never timed.
  std::function<std::string(const Outcome&)> check;
};

struct Workload {
  std::string name;
  /// One warm pass: indices into jobs, in run order (repeats allowed;
  /// every job at least once).
  std::vector<Job> jobs;
  std::vector<std::size_t> pass;
};

/// The four workloads; circuit seeds derive from `seed`. Throws on an
/// unknown name. Builds every input and reference (untimed).
Workload make_workload(const std::string& name, std::uint64_t seed);
const std::vector<std::string>& workload_names();

}  // namespace perfbench
