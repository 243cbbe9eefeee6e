// The benchmark's four workloads. Every job mirrors one user-level task of
// the `qdt` CLI (simulate / lint + compile [--verify] / verify --method zx)
// on one generated circuit, handed over as OpenQASM text and parsed inside
// the job. Inputs and reference answers are built here, before any timing;
// the checks compare each job's outcome against them after its timed
// region. perfbench/README.md records why each workload and job is here.
#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "flow/opt.hpp"
#include "guard/error.hpp"
#include "ir/library.hpp"
#include "ir/qasm.hpp"
#include "lint/lint.hpp"
#include "stab/reference.hpp"
#include "transpile/transpiler.hpp"

namespace perfbench {

using core::SimBackend;
namespace stab = qdt::stab;
namespace transpile = qdt::transpile;

namespace {

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Circuit seed number `i` of a workload seed (splitmix64 finalizer).
std::uint64_t derive(std::uint64_t seed, std::uint64_t i) {
  std::uint64_t z =
      seed * 0x9E3779B97F4A7C15ULL + (i + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// A random n-bit word with exactly n/2 bits set. Oracle gate counts
/// depend on the popcount of a secret or marked state, so fixing it keeps
/// every seed's pass the same size.
std::uint64_t half_weight(std::size_t n, std::uint64_t seed) {
  qdt::Rng rng(seed);
  std::uint64_t w = 0;
  while (static_cast<std::size_t>(std::popcount(w)) < n / 2) {
    w |= std::uint64_t{1} << rng.index(n);
  }
  return w;
}

/// Nearest-neighbour brickwork: a random U on every qubit, then CX on
/// alternating even/odd pairs, `depth` times. Exact MPS cost grows with
/// depth because each layer can double the bond dimension.
ir::Circuit brickwork(std::size_t n, std::size_t depth, std::uint64_t seed) {
  qdt::Rng rng(seed);
  ir::Circuit c(n, "brickwork");
  const auto angle = [&] {
    return qdt::Phase::from_radians(rng.uniform(0.0, 2.0 * M_PI));
  };
  for (std::size_t d = 0; d < depth; ++d) {
    for (ir::Qubit q = 0; q < n; ++q) {
      c.u(angle(), angle(), angle(), q);
    }
    for (ir::Qubit q = d % 2; q + 1 < n; q += 2) {
      c.cx(q, q + 1);
    }
  }
  return c;
}

/// Inputs as the CLI would receive them, and the parsed circuit every
/// reference is computed from (so the references see exactly the angles
/// the jobs see).
struct Input {
  std::string qasm;
  ir::Circuit parsed;
};

Input input_of(const ir::Circuit& c) {
  Input in{ir::to_qasm(c), {}};
  in.parsed = ir::parse_qasm(in.qasm);
  return in;
}

// ---------------------------------------------------------------------------
// Checks (run after the timed region)
// ---------------------------------------------------------------------------

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(6);
  os << v;
  return os.str();
}

/// Every |amplitude|^2 equals 2^-n (QFT of |0>, H layer + diagonal gates).
std::string uniform_magnitudes(const std::vector<Complex>& state) {
  const double dim = static_cast<double>(state.size());
  double worst = 0.0;
  for (const Complex& a : state) {
    worst = std::max(worst, std::abs(std::norm(a) * dim - 1.0));
  }
  return worst <= 1e-6 ? "" : "non-uniform magnitudes (max rel. dev. " +
                                    fmt(worst) + ")";
}

/// |<ref|got>|^2 == 1 for two normalized states.
std::string same_state(const std::vector<Complex>& got,
                       const std::vector<Complex>& ref) {
  if (got.size() != ref.size()) {
    return "state has " + std::to_string(got.size()) + " amplitudes, want " +
           std::to_string(ref.size());
  }
  Complex overlap{0.0, 0.0};
  for (std::size_t i = 0; i < got.size(); ++i) {
    overlap += std::conj(ref[i]) * got[i];
  }
  const double fidelity = std::norm(overlap);
  return std::abs(fidelity - 1.0) <= 1e-8
             ? ""
             : "fidelity with the reference state is " + fmt(fidelity);
}

std::string same_amplitude(Complex got, Complex ref) {
  if (std::abs(got - ref) <= 1e-7 * std::max(std::abs(ref), 1e-6)) {
    return "";
  }
  return "amplitude " + fmt(got.real()) + "+" + fmt(got.imag()) +
         "i, reference " + fmt(ref.real()) + "+" + fmt(ref.imag()) + "i";
}

/// Every sample lands on an allowed outcome, and the counts add up.
std::string counts_within(const std::map<std::uint64_t, std::size_t>& counts,
                          std::size_t shots,
                          const std::function<bool(std::uint64_t)>& allowed) {
  std::size_t total = 0;
  for (const auto& [word, n] : counts) {
    if (!allowed(word)) {
      return "sampled forbidden outcome " + std::to_string(word);
    }
    total += n;
  }
  return total == shots ? "" : "counts add up to " + std::to_string(total);
}

/// Compiled output respects the target: no gate on more than two qubits,
/// and every two-qubit gate sits on a coupling edge.
std::string respects_target(const ir::Circuit& c,
                            const transpile::Target& target) {
  for (const auto& op : c.ops()) {
    const auto q = op.qubits();
    if (q.size() > 2) {
      return "compiled circuit keeps a " + std::to_string(q.size()) +
             "-qubit gate";
    }
    if (q.size() == 2 && !target.coupling.connected(q[0], q[1])) {
      return "two-qubit gate on uncoupled qubits " + std::to_string(q[0]) +
             "," + std::to_string(q[1]);
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Job shapes
// ---------------------------------------------------------------------------

Layer layer_of(SimBackend b) {
  switch (b) {
    case SimBackend::Array:
      return Layer::Arrays;
    case SimBackend::DecisionDiagram:
      return Layer::Dd;
    case SimBackend::Stabilizer:
      return Layer::Stab;
    case SimBackend::TensorNetwork:
    case SimBackend::Mps:
      return Layer::Tn;
  }
  return Layer::Tn;
}

/// Parses job input `i` (ir layer), or copies the prebuilt circuit when
/// the job's circuit has no OpenQASM 2 spelling.
ir::Circuit load(Calls& calls, const Job& job, std::size_t i) {
  if (i < job.inputs.size()) {
    const std::string& text = job.inputs[i];
    ir::Circuit c =
        calls.in(Layer::Ir, "ir.parse", [&] { return ir::parse_qasm(text); });
    calls.add_work(Layer::Ir, static_cast<double>(text.size()));
    return c;
  }
  return job.prebuilt.at(i - job.inputs.size());
}

/// `qdt simulate --backend <b> [--shots N] [--state]`.
Job simulate_job(std::string name, const Input& in,
                 SimBackend backend, core::SimulateOptions opts,
                 std::function<std::string(const Outcome&)> check) {
  Job job;
  job.name = std::move(name);
  job.inputs = {in.qasm};
  job.run = [backend, opts](Calls& calls, const Job& j) {
    Outcome out;
    out.circuit = load(calls, j, 0);
    const ir::Circuit& c = *out.circuit;
    const Layer layer = layer_of(backend);
    const std::string call = std::string(layer_name(layer)) + ".simulate";
    out.sim = calls.in(layer, call.c_str(),
                       [&] { return core::simulate(c, backend, opts); });
    if (layer == Layer::Arrays) {
      out.gates_applied = calls.last_delta(Ctr::ArraysGates);
      const double dim = std::ldexp(1.0, static_cast<int>(c.num_qubits()));
      calls.add_work(layer, static_cast<double>(*out.gates_applied) * dim);
    }
    return out;
  };
  job.check = std::move(check);
  return job;
}

/// Grover's multi-controlled oracle has no OpenQASM 2 spelling in this
/// repository (at most two controls), so these jobs take the generated
/// circuit directly and skip the parse.
Job simulate_prebuilt(std::string name, ir::Circuit c,
                      SimBackend backend, core::SimulateOptions opts,
                      std::function<std::string(const Outcome&)> check) {
  Job job = simulate_job(std::move(name), Input{}, backend,
                         opts, std::move(check));
  job.inputs.clear();
  job.prebuilt = {std::move(c)};
  return job;
}

/// `qdt simulate --backend tn|mps` read out as a single amplitude: the
/// query tensor networks answer without a 2^n state. The reference is the
/// same amplitude from `ref_backend`.
Job amplitude_job(std::string name, const Input& in, SimBackend backend,
                  std::uint64_t basis, SimBackend ref_backend) {
  Job job;
  job.name = std::move(name);
  job.inputs = {in.qasm};
  const char* call =
      backend == SimBackend::Mps ? "tn.mps_simulate" : "tn.amplitude";
  job.run = [backend, basis, call](Calls& calls, const Job& j) {
    Outcome out;
    out.circuit = load(calls, j, 0);
    out.amplitude = calls.in(Layer::Tn, call, [&] {
      return core::amplitude(*out.circuit, basis, backend);
    });
    return out;
  };
  const Complex ref = core::amplitude(in.parsed, basis, ref_backend);
  job.check = [ref](const Outcome& o) {
    return same_amplitude(o.amplitude, ref);
  };
  return job;
}

/// Wide Clifford simulation on the packed tableau with every qubit
/// measured. Drives stab::StabilizerSimulator, the object
/// `qdt simulate --backend stab` runs, because core::simulate keeps no
/// per-qubit record beyond 64 qubits.
Job tableau_job(std::string name, const Input& in,
                std::uint64_t seed,
                std::function<std::string(const Outcome&)> check) {
  Job job;
  job.name = std::move(name);
  job.inputs = {in.qasm};
  job.run = [seed](Calls& calls, const Job& j) {
    Outcome out;
    out.circuit = load(calls, j, 0);
    const std::size_t n = out.circuit->num_qubits();
    stab::StabilizerSimulator sim(n, seed);
    out.record = calls.in(Layer::Stab, "stab.simulate",
                          [&] { return sim.run(*out.circuit); });
    out.gates_applied = calls.last_delta(Ctr::StabGates);
    calls.add_work(Layer::Stab, static_cast<double>(*out.gates_applied) *
                                    static_cast<double>(2 * n));
    return out;
  };
  job.check = std::move(check);
  return job;
}

/// One planted single-gate change: an X on the target of the middle gate.
/// X is never the identity, so the result is never equivalent.
ir::Circuit plant_mutation(const ir::Circuit& c) {
  ir::Circuit m(c.num_qubits(), c.name());
  const std::size_t mid = c.size() / 2;
  for (std::size_t i = 0; i < c.size(); ++i) {
    if (i == mid) {
      m.x(c[i].targets().front());
    }
    m.append(c[i]);
  }
  return m;
}

enum class Verify { None, Dd, DdMutant };

/// `qdt lint f.qasm` then `qdt compile f.qasm --target t [--verify]`: lint,
/// the certified flow pre-pass (compact_wires off), the lookahead router
/// with peephole optimization, and the alternating DD miter.
Job compile_job(std::string name, const Input& in,
                transpile::Target target, Verify verify) {
  Job job;
  job.name = std::move(name);
  job.inputs = {in.qasm};
  job.verifies = verify != Verify::None;
  job.run = [target, verify](Calls& calls, const Job& j) {
    Outcome out;
    const ir::Circuit c = load(calls, j, 0);
    out.lint_qubits = calls.in(Layer::Lint, "lint.run", [&] {
      return qdt::lint::run(c).facts.num_qubits;
    });
    ir::Circuit input = c.unitary_part();
    qdt::flow::OptOptions oo;
    oo.compact_wires = false;
    input = calls.in(Layer::Flow, "flow.optimize", [&] {
      return qdt::flow::optimize(input, oo).circuit;
    });
    auto res = calls.in(Layer::Transpile, "transpile.transpile",
                        [&] { return transpile::transpile(input, target); });
    if (verify != Verify::None) {
      auto [a, b] = calls.in(Layer::Transpile, "transpile.restore", [&] {
        return std::pair{transpile::padded_original(input, target),
                         transpile::restored_for_verification(res)};
      });
      if (verify == Verify::DdMutant) {
        b = plant_mutation(b);
      }
      out.verdict = calls.in(Layer::Dd, "dd.verify", [&] {
        return core::verify(a, b, core::EcMethod::DdAlternating);
      });
    }
    out.circuit = std::move(res.circuit);
    return out;
  };
  const std::size_t want_qubits = in.parsed.num_qubits();
  job.check = [target, verify, want_qubits](const Outcome& o) -> std::string {
    if (o.lint_qubits != want_qubits) {
      return "lint saw " + std::to_string(o.lint_qubits) + " qubits";
    }
    if (std::string e = respects_target(*o.circuit, target); !e.empty()) {
      return e;
    }
    if (verify == Verify::None) {
      return "";
    }
    const bool want = verify == Verify::Dd;
    if (!o.verdict->conclusive || o.verdict->equivalent != want) {
      return std::string("verdict ") +
             (o.verdict->equivalent ? "equivalent" : "not equivalent") +
             (o.verdict->conclusive ? "" : " (inconclusive)") + ", want " +
             (want ? "equivalent" : "not equivalent");
    }
    return "";
  };
  return job;
}

/// `qdt verify a.qasm b.qasm --method zx --timeout-ms T` on a circuit and
/// its compiled, layout-restored form. A deadline hit is an undecided
/// verification, not a failure.
Job zx_job(std::string name, const ir::Circuit& c,
           const transpile::Target& target, double deadline_s,
           bool must_decide) {
  const auto compiled = transpile::transpile(c, target);
  Job job;
  job.name = std::move(name);
  job.inputs = {ir::to_qasm(transpile::padded_original(c, target)),
                ir::to_qasm(transpile::restored_for_verification(compiled))};
  job.verifies = true;
  job.run = [deadline_s](Calls& calls, const Job& j) {
    Outcome out;
    const ir::Circuit a = load(calls, j, 0);
    const ir::Circuit b = load(calls, j, 1);
    qdt::guard::Budget budget;
    budget.deadline_seconds = deadline_s;
    try {
      out.verdict = calls.in(Layer::Zx, "zx.verify", [&] {
        return core::verify(a.unitary_part(), b.unitary_part(),
                            core::EcMethod::Zx, budget);
      });
      out.undecided = !out.verdict->conclusive;
    } catch (const qdt::Error& e) {
      if (e.code() != qdt::ErrorCode::ResourceExhausted) {
        throw;
      }
      out.undecided = true;
    }
    return out;
  };
  job.check = [must_decide](const Outcome& o) -> std::string {
    if (o.verdict && o.verdict->conclusive && !o.verdict->equivalent) {
      return "ZX refuted a correct compilation";
    }
    if (must_decide && o.undecided) {
      return "ZX left a decidable pair undecided";
    }
    return "";
  };
  return job;
}

// ---------------------------------------------------------------------------
// Reference answers
// ---------------------------------------------------------------------------

std::vector<Complex> array_state(const ir::Circuit& c) {
  core::SimulateOptions o;
  o.want_state = true;
  return *core::simulate(c, SimBackend::Array, o).state;
}

/// Plain statevector product, independent of the arrays backend's kernels:
/// each (possibly controlled) one-qubit gate updates the amplitude pairs
/// whose controls are all 1.
std::vector<Complex> naive_state(const ir::Circuit& c) {
  std::vector<Complex> psi(std::size_t{1} << c.num_qubits());
  psi[0] = 1.0;
  for (const auto& op : c.ops()) {
    if (op.targets().size() != 1) {
      throw std::invalid_argument("naive_state: one-target gates only");
    }
    const auto m = op.matrix2();
    const std::size_t t = std::size_t{1} << op.targets()[0];
    std::size_t ctrl = 0;
    for (const auto q : op.controls()) {
      ctrl |= std::size_t{1} << q;
    }
    for (std::size_t i = 0; i < psi.size(); ++i) {
      if ((i & t) == 0 && (i & ctrl) == ctrl) {
        const Complex a = psi[i];
        const Complex b = psi[i | t];
        psi[i] = m(0, 0) * a + m(0, 1) * b;
        psi[i | t] = m(1, 0) * a + m(1, 1) * b;
      }
    }
  }
  return psi;
}

core::SimulateOptions state_opts() {
  core::SimulateOptions o;
  o.want_state = true;
  return o;
}

core::SimulateOptions shot_opts(std::uint64_t seed) {
  core::SimulateOptions o;
  o.want_state = false;
  o.shots = 1024;  // the `qdt simulate` default
  o.seed = seed;
  return o;
}

std::function<std::string(const Outcome&)> ghz_check(std::size_t n) {
  const std::uint64_t ones = n >= 64 ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << n) - 1;
  return [ones](const Outcome& o) -> std::string {
    const auto& counts = o.sim->counts;
    if (!counts.contains(0) || !counts.contains(ones)) {
      return "GHZ sampled only one of |0...0>, |1...1>";
    }
    return counts_within(counts, 1024, [ones](std::uint64_t w) {
      return w == 0 || w == ones;
    });
  };
}

std::function<std::string(const Outcome&)> single_outcome_check(
    std::uint64_t want, std::size_t min_count) {
  return [want, min_count](const Outcome& o) -> std::string {
    const auto& counts = o.sim->counts;
    const auto it = counts.find(want);
    const std::size_t got = it == counts.end() ? 0 : it->second;
    if (got < min_count) {
      return "outcome " + std::to_string(want) + " sampled " +
             std::to_string(got) + " times, want >= " +
             std::to_string(min_count);
    }
    return counts_within(counts, 1024, [](std::uint64_t) { return true; });
  };
}

std::function<std::string(const Outcome&)> state_check(
    std::vector<Complex> ref) {
  return [ref = std::move(ref)](const Outcome& o) -> std::string {
    if (std::string e = same_state(*o.sim->state, ref); !e.empty()) {
      return e;
    }
    return "";
  };
}

std::function<std::string(const Outcome&)> uniform_check() {
  return [](const Outcome& o) { return uniform_magnitudes(*o.sim->state); };
}

/// Cuccaro adder on prepared inputs: X gates load a and b, so the output
/// is the single basis state holding a, (a + b) mod 2^k and the carry.
Input adder_input(std::size_t k, std::uint64_t a, std::uint64_t b,
                  std::uint64_t* expect) {
  const ir::Circuit adder = ir::ripple_carry_adder(k);
  ir::Circuit c(adder.num_qubits(), "adder");
  for (std::size_t i = 0; i < k; ++i) {
    if ((a >> i) & 1) {
      c.x(static_cast<ir::Qubit>(1 + i));
    }
    if ((b >> i) & 1) {
      c.x(static_cast<ir::Qubit>(1 + k + i));
    }
  }
  for (const auto& op : adder.ops()) {
    c.append(op);
  }
  const std::uint64_t sum = a + b;
  const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
  *expect = (a << 1) | ((sum & mask) << (1 + k)) | ((sum >> k) << (1 + 2 * k));
  return input_of(c);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Workload sim_dense(std::uint64_t seed) {
  Workload w;
  w.name = "sim-dense";
  // 18 qubits: a 4 MiB state, larger than a core's 2 MiB L2 and far
  // smaller than L3, as a 20-qubit state is, at a quarter of the cost, so a
  // run gets twice the samples of each job. Memory-bound sweeps vary with
  // other tenants' load more than the reference loop tracks, and only more
  // samples steady their best time.
  const Input qft = input_of(ir::qft(18));
  // Fixed circuit: the CP/T/RZ mix is drawn per circuit seed, and over
  // seeds 21-25 the drawn CP count moved out_2q_gates by 0.045 (IQR over
  // median), next to its 0.05 bound. The array cost hardly depends on it.
  const Input phase = input_of(ir::random_phase_circuit(18, 400, 1));
  const Input rnd = input_of(ir::random_circuit(18, 20, derive(seed, 2)));
  const std::uint64_t marked = half_weight(12, derive(seed, 3));
  w.jobs = {
      simulate_job("qft18/array", qft, SimBackend::Array, state_opts(),
                   uniform_check()),
      simulate_job("phase18x400/array", phase, SimBackend::Array,
                   state_opts(), uniform_check()),
      simulate_job("random18x20/array", rnd, SimBackend::Array, state_opts(),
                   [ref = naive_state(rnd.parsed)](const Outcome& o) {
                     return same_state(*o.sim->state, ref);
                   }),
      simulate_job("ghz20/array", input_of(ir::ghz(20)), SimBackend::Array,
                   shot_opts(derive(seed, 5)), ghz_check(20)),
      simulate_prebuilt("grover12/array", ir::grover(12, marked),
                        SimBackend::Array, shot_opts(derive(seed, 6)),
                        single_outcome_check(marked, 1000)),
  };
  // Ranked, a pass is 10 light jobs and 6 heavy ones (each heavy job
  // twice). grover12 fills eight of the ten light ranks, so p50 (rank 8)
  // is grover12 whether it is faster or slower than ghz20; p90 (rank 15)
  // is the slowest heavy job.
  w.pass = {4, 0, 4, 3, 1, 4, 2, 4, 4, 0, 4, 3, 1, 4, 2, 4};
  return w;
}

Workload sim_dd(std::uint64_t seed) {
  Workload w;
  w.name = "sim-dd";
  // The table-heavy circuits are fixed. Their DD cost swings 2x across
  // circuit seeds for random_circuit(10|11, 8, s), and 9x (92-832 ms) for
  // random_phase_circuit(16, 200, s), so drawn circuits would move every
  // timing with the seed. The seed still draws their shots and every
  // table-light input.
  const auto random_job = [seed](std::string name, std::size_t n,
                                 std::uint64_t circuit_seed,
                                 std::uint64_t shot_index) {
    const Input in = input_of(ir::random_circuit(n, 8, circuit_seed));
    core::SimulateOptions o = shot_opts(derive(seed, shot_index));
    o.want_state = true;
    return simulate_job(std::move(name), in, SimBackend::DecisionDiagram, o,
                        state_check(array_state(in.parsed)));
  };
  // bernstein_vazirani(64, s) rejects every s != 0 (it tests s >> 64).
  const std::uint64_t secret = half_weight(63, derive(seed, 11));
  const std::uint64_t marked = half_weight(10, derive(seed, 12));
  std::uint64_t adder_out = 0;
  const Input adder = adder_input(8, half_weight(8, derive(seed, 13)),
                                  half_weight(8, derive(seed, 14)),
                                  &adder_out);
  const Input phase = input_of(ir::random_phase_circuit(16, 200, 2));
  constexpr SimBackend kDd = SimBackend::DecisionDiagram;
  w.jobs = {
      random_job("random10-s7/dd", 10, 7, 15),
      random_job("random10-s8/dd", 10, 8, 16),
      random_job("random10-s9/dd", 10, 9, 17),
      random_job("random11-s7/dd", 11, 7, 18),
      simulate_job("phase16x200/dd", phase, kDd, state_opts(),
                   uniform_check()),
      simulate_job("qft20/dd", input_of(ir::qft(20)), kDd,
                   shot_opts(derive(seed, 21)),
                   [](const Outcome& o) -> std::string {
                     // QFT|0> = |+>^20: one node per qubit, and 1024 shots
                     // over 2^20 equally likely outcomes collide about once.
                     if (o.sim->representation_size != 20) {
                       return std::to_string(o.sim->representation_size) +
                              " DD nodes for |+>^20, want 20";
                     }
                     if (o.sim->counts.size() < 1000) {
                       return "only " + std::to_string(o.sim->counts.size()) +
                              " distinct outcomes in 1024 shots";
                     }
                     return counts_within(o.sim->counts, 1024,
                                          [](std::uint64_t) { return true; });
                   }),
      simulate_job("ghz64/dd", input_of(ir::ghz(64)), kDd,
                   shot_opts(derive(seed, 22)), ghz_check(64)),
      simulate_job("adder8/dd", adder, kDd, shot_opts(derive(seed, 23)),
                   single_outcome_check(adder_out, 1024)),
      simulate_prebuilt("grover10/dd", ir::grover(10, marked), kDd,
                        shot_opts(derive(seed, 24)),
                        single_outcome_check(marked, 1000)),
      simulate_job("bv63/dd", input_of(ir::bernstein_vazirani(63, secret)),
                   kDd, shot_opts(derive(seed, 25)),
                   single_outcome_check(secret, 1024)),
  };
  // The pass runs its sequence twice, so every table-heavy job has two
  // samples per pass even when a slow host fits only one pass in a
  // process; their DD time varies more from run to run than any other
  // job's. Ranked, a pass is 30 table-light entries and 10 table-heavy
  // ones. bv63 runs eight times and grover10 four, so p50 (rank 20) is
  // bv63 whether or not grover10 is faster; p90 (rank 36) is the middle
  // one of the five table-heavy jobs.
  const std::vector<std::vector<std::size_t>> light = {
      {5, 6, 7, 8, 9}, {5, 6, 7, 9, 9}, {5, 6, 7, 8, 9}};
  for (int twice = 0; twice < 2; ++twice) {
    for (std::size_t heavy = 0; heavy < 5; ++heavy) {
      if (heavy < light.size()) {
        w.pass.insert(w.pass.end(), light[heavy].begin(), light[heavy].end());
      }
      w.pass.push_back(heavy);
    }
  }
  return w;
}

transpile::Target grid_target(std::size_t rows, std::size_t cols) {
  return {transpile::CouplingMap::grid(rows, cols),
          transpile::NativeGateSet::CxRzSxX, "grid"};
}

Workload compile_verify(std::uint64_t seed) {
  Workload w;
  w.name = "compile-verify";
  const transpile::Target line12{transpile::CouplingMap::line(12),
                                 transpile::NativeGateSet::CxRzSxX, "line"};
  const transpile::Target hex{transpile::CouplingMap::heavy_hex_falcon(),
                              transpile::NativeGateSet::CxRzSxX, "heavyhex"};
  const Input qft12 = input_of(ir::qft(12));
  // The unstructured narrow miters are routed on grids: on heavy-hex the
  // DD check refutes correct compilations of most such circuits (the
  // program defect recorded in README.md). Their circuits are fixed
  // because the miter's cost swings 5-10x across circuit seeds.
  w.jobs = {
      compile_job("qft12-line/verify-dd", qft12, line12, Verify::Dd),
      compile_job("random10-grid/verify-dd",
                  input_of(ir::random_circuit(10, 8, 1)),
                  grid_target(2, 5), Verify::Dd),
      compile_job("cliffordt12-grid/verify-dd",
                  input_of(ir::random_clifford_t(12, 400, 0.1, 1)),
                  grid_target(3, 4), Verify::Dd),
      compile_job("adder6-hex/verify-dd",
                  input_of(ir::ripple_carry_adder(6)), hex, Verify::Dd),
      compile_job("qft12-line/mutant-dd", qft12, line12, Verify::DdMutant),
      zx_job("qft12-line/verify-zx", ir::qft(12), line12, 10.0, true),
      // Ends inconclusive on its own after ~0.6 s of rewriting and tensor
      // fallback; the deadline only guards against a run-away. 1000 gates,
      // not 3000: the ZX cost grows with the gate count (3000 gates take
      // ~2.7 s) and the verdict stays inconclusive, and the job runs in
      // every pass of every process.
      zx_job("clifford27x1000-hex/verify-zx",
             ir::random_clifford(27, 1000, derive(seed, 33)), hex, 10.0,
             false),
      compile_job("clifford27x3000-hex/compile",
                  input_of(ir::random_clifford(27, 3000, derive(seed, 34))),
                  hex, Verify::None),
      compile_job("clifford27x6000-hex/compile",
                  input_of(ir::random_clifford(27, 6000, derive(seed, 35))),
                  hex, Verify::None),
      compile_job("cliffordt27-hex/compile",
                  input_of(ir::random_clifford_t(27, 3000, 0.1,
                                                  derive(seed, 36))),
                  hex, Verify::None),
  };
  // Ranked, a pass is five jobs of 1-20 ms, thirteen wide compiles of
  // 0.13-0.2 s and the two slow jobs (cliffordt12-grid ~0.3 s, the wide ZX
  // job ~0.6 s). The 3000-gate Clifford compile runs six times, so p50
  // (rank 10) is that job whether or not cliffordt27 (twice) is faster;
  // p90 (rank 18) is the 6000-gate compile, whose five copies are the
  // slowest compiles.
  w.pass = {0, 7, 8, 9, 7, 1, 8, 7, 3, 8, 7, 9, 2, 8, 4, 7, 8, 5, 7, 6};
  return w;
}

Workload sim_wide(std::uint64_t seed) {
  Workload w;
  w.name = "sim-wide";
  ir::Circuit cl = ir::random_clifford(1024, 20000, derive(seed, 41));
  cl.measure_all();
  const Input clifford = input_of(cl);
  const std::uint64_t stab_seed = derive(seed, 42);
  // The unpacked reference measures in O(n^2) per qubit (~20 s for all
  // 1024), so it replays the gates and the first kRefMeasured measurements;
  // with the same seed it draws the same outcomes in the same order.
  constexpr std::size_t kRefMeasured = 32;
  ir::Circuit prefix = clifford.parsed.unitary_part();
  for (ir::Qubit q = 0; q < kRefMeasured; ++q) {
    prefix.measure(q);
  }
  const auto ref_record =
      stab::ReferenceSimulator(1024, stab_seed).run(prefix);
  // Echo: c then c^dagger returns every qubit to |0>.
  const ir::Circuit half = ir::random_clifford(2048, 10000, derive(seed, 43));
  ir::Circuit echo = half.composed_with(half.adjoint());
  echo.measure_all();
  // Fixed circuit: greedy contraction of random_circuit(16, 8, s) costs
  // anywhere from 25 ms to 900 ms depending on s; seed 5 costs ~0.12 s.
  const Input rnd16 = input_of(ir::random_circuit(16, 8, 5));
  w.jobs = {
      tableau_job("clifford1024/stab", clifford, stab_seed,
                  [ref_record](const Outcome& o) -> std::string {
                    if (o.record.size() != 1024 ||
                        !std::equal(ref_record.begin(), ref_record.end(),
                                    o.record.begin())) {
                      return "measurement record differs from the reference";
                    }
                    return "";
                  }),
      tableau_job("echo2048/stab", input_of(echo), derive(seed, 50),
                  [](const Outcome& o) -> std::string {
                    if (o.record.size() != 2048) {
                      return "measured " + std::to_string(o.record.size()) +
                             " qubits";
                    }
                    for (const auto& [q, bit] : o.record) {
                      if (bit) {
                        return "qubit " + std::to_string(q) + " measured 1";
                      }
                    }
                    return "";
                  }),
      amplitude_job("brickwork32d8/mps",
                    input_of(brickwork(32, 8, derive(seed, 44))),
                    SimBackend::Mps, derive(seed, 47) & 0xFFFFFFFF,
                    SimBackend::TensorNetwork),
      amplitude_job("random16/tn-amp", rnd16, SimBackend::TensorNetwork,
                    derive(seed, 48) & 0xFFFF, SimBackend::Array),
      amplitude_job("brickwork40d10/tn-amp",
                    input_of(brickwork(40, 10, derive(seed, 46))),
                    SimBackend::TensorNetwork, derive(seed, 49) & 0xFFFFFFFFFF,
                    SimBackend::Mps),
  };
  // Ranked, a pass is the 16-qubit TN amplitude, two MPS and three 40-qubit
  // TN jobs, then four tableau jobs: p50 (rank 5) is brickwork40d10, the
  // middle of its three copies, and p90 (rank 9) is clifford1024, whose
  // three copies hold rank 9 whether echo2048 is faster or slower.
  w.pass = {2, 4, 0, 1, 4, 0, 3, 2, 4, 0};
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim-dense", "sim-dd",
                                                 "compile-verify", "sim-wide"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "sim-dense") {
    w = sim_dense(seed);
  } else if (name == "sim-dd") {
    w = sim_dd(seed);
  } else if (name == "compile-verify") {
    w = compile_verify(seed);
  } else if (name == "sim-wide") {
    w = sim_wide(seed);
  } else {
    throw std::invalid_argument("unknown workload " + name);
  }
  for (std::size_t i = 0; i < w.jobs.size(); ++i) {
    if (std::find(w.pass.begin(), w.pass.end(), i) == w.pass.end()) {
      throw std::logic_error("job " + w.jobs[i].name + " is not in the pass");
    }
  }
  return w;
}

}  // namespace perfbench
