#include "probes.hpp"

#include <cstring>

#include "mcp/allpairs.hpp"
#include "mcp/verify.hpp"
#include "ppc/primitives.hpp"
#include "sim/machine.hpp"
#include "sim/plane_kernels.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace ppa;
using sim::Direction;
using sim::PlaneWord;

constexpr int kPlanes = 16;          // h = 16: one register's planes per bus cycle
constexpr double kProbeBudget = 0.12;  // seconds of timing per probe

/// Keeps the compiler from dropping writes to `p` as dead stores.
inline void clobber(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

sim::MachineConfig machine_config(std::size_t n, sim::ExecBackend backend) {
  sim::MachineConfig config;
  config.n = n;
  config.bits = kPlanes;
  config.backend = backend;
  return config;
}

/// `planes` random planes with canonical zero pad bits.
std::vector<PlaneWord> random_planes(const sim::PlaneGeometry& g, int planes, util::Rng& rng) {
  std::vector<PlaneWord> out(static_cast<std::size_t>(planes) * g.plane_words());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = rng.next() & g.word_mask(i % g.row_words);
  }
  return out;
}

/// One open switch per column, all in `row`: a column broadcast from one row.
std::vector<PlaneWord> row_open(const sim::PlaneGeometry& g, std::size_t row) {
  std::vector<PlaneWord> open(g.plane_words(), 0);
  for (std::size_t w = 0; w < g.row_words; ++w) open[row * g.row_words + w] = g.word_mask(w);
  return open;
}

/// One open switch per column, each in a random row.
std::vector<PlaneWord> scattered_open(const sim::PlaneGeometry& g, util::Rng& rng) {
  std::vector<PlaneWord> open(g.plane_words(), 0);
  for (std::size_t c = 0; c < g.n; ++c) sim::plane_set(g, open.data(), rng.below(g.n), c, true);
  return open;
}

/// Seconds per memcpy of `words` plane words.
double memcpy_seconds(std::size_t words) {
  std::vector<PlaneWord> from(words, 0x5555), to(words);
  return time_per_call(
      [&] {
        std::memcpy(to.data(), from.data(), words * sizeof(PlaneWord));
        clobber(to.data());
      },
      64, kProbeBudget);
}

struct BroadcastTiming {
  double plane_s = 0;   // bit-plane backend, seconds per cycle
  double word_s = 0;    // word backend, same configurations
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

/// Times column broadcasts (South) over the given switch configurations,
/// cycled in order, on both backends; checks the bit-plane cycle against the
/// word-backend cycle on every configuration first.
BroadcastTiming time_broadcast(std::size_t n, const std::vector<std::vector<PlaneWord>>& opens,
                               util::Rng& rng, const char* what,
                               std::vector<std::string>& mismatches) {
  sim::Machine plane(machine_config(n, sim::ExecBackend::BitPlane));
  sim::Machine word(machine_config(n, sim::ExecBackend::Words));
  const sim::PlaneGeometry& g = plane.plane_geometry();
  const std::size_t pw = g.plane_words();
  const std::vector<PlaneWord> src = random_planes(g, kPlanes, rng);
  std::vector<PlaneWord> out(src.size()), driven(pw);

  std::vector<sim::Word> word_src(n * n), word_values(n * n), unpacked(n * n);
  std::vector<sim::Flag> word_open(n * n), word_driven(n * n), unpacked_driven(n * n);
  sim::unpack_words(g, src.data(), kPlanes, word_src);
  std::vector<std::vector<sim::Flag>> word_opens;
  for (const auto& open : opens) {
    sim::unpack_flags(g, open.data(), word_open);
    word_opens.push_back(word_open);
    plane.broadcast_planes_into(src.data(), kPlanes, Direction::South, open.data(), out.data(),
                                driven.data());
    word.broadcast_into(std::span<const sim::Word>(word_src), Direction::South, word_open,
                        word_values, word_driven);
    sim::unpack_words(g, out.data(), kPlanes, unpacked);
    sim::unpack_flags(g, driven.data(), unpacked_driven);
    if (unpacked != word_values || unpacked_driven != word_driven) {
      mismatches.push_back(std::string("probe ") + what +
                           ": bit-plane broadcast differs from the word backend");
      break;
    }
  }

  BroadcastTiming t;
  const auto before = plane.plan_cache_stats();
  std::size_t k = 0;
  t.plane_s = time_per_call(
      [&] {
        plane.broadcast_planes_into(src.data(), kPlanes, Direction::South, opens[k].data(),
                                    out.data(), driven.data());
        k = (k + 1) % opens.size();
        clobber(out.data());
      },
      16, kProbeBudget);
  t.hits = plane.plan_cache_stats().hits - before.hits;
  t.misses = plane.plan_cache_stats().misses - before.misses;
  k = 0;
  t.word_s = time_per_call(
      [&] {
        word.broadcast_into(std::span<const sim::Word>(word_src), Direction::South,
                            word_opens[k], word_values, word_driven);
        k = (k + 1) % word_opens.size();
        clobber(word_values.data());
      },
      16, kProbeBudget);
  return t;
}

void bus_probes(Tracer* tracer, Metrics& m, std::vector<std::string>& mismatches) {
  util::Rng rng(0xB05);
  const auto words_of = [](std::size_t n) {
    return static_cast<double>(kPlanes) * static_cast<double>(sim::PlaneGeometry(n).plane_words());
  };
  {
    // The full-array kernel's carrier broadcast: 128 x 128, whole row open.
    const auto span = Tracer::open(tracer, "probe.sim.bcast.full_row", -1);
    const sim::PlaneGeometry g(128);
    const BroadcastTiming t = time_broadcast(128, {row_open(g, 5)}, rng, "full_row", mismatches);
    m["sim.bcast.full_row.ns_per_cycle"] = {t.plane_s * 1e9, "ns"};
    m["sim.bcast.full_row.ns_per_word"] = {t.plane_s * 1e9 / words_of(128), "ns"};
    m["sim.bcast.full_row.word_ratio"] = {t.plane_s / t.word_s, "ratio"};
  }
  double carrier_s = 0;
  {
    // The tiled sweep's carrier row on a 32 x 32 array, repeated: the plan
    // cache serves every cycle after the first two.
    const auto span = Tracer::open(tracer, "probe.sim.bcast.carrier_row", -1);
    const sim::PlaneGeometry g(32);
    const BroadcastTiming t =
        time_broadcast(32, {row_open(g, 0), row_open(g, 31)}, rng, "carrier_row", mismatches);
    if (t.hits == 0) mismatches.push_back("probe carrier_row: the plan cache never hit");
    carrier_s = t.plane_s;
    m["sim.bcast.carrier_row.ns_per_cycle"] = {t.plane_s * 1e9, "ns"};
    m["sim.bcast.carrier_row.ns_per_word"] = {t.plane_s * 1e9 / words_of(32), "ns"};
    m["sim.bcast.word_ratio"] = {t.plane_s / t.word_s, "ratio"};
  }
  {
    // A fresh configuration every cycle: 64 scattered configurations cycle
    // through the 16-entry second-chance filter, so none is ever planned
    // and the general resolver runs every time.
    const auto span = Tracer::open(tracer, "probe.sim.bcast.miss", -1);
    const sim::PlaneGeometry g(32);
    std::vector<std::vector<PlaneWord>> opens;
    for (int i = 0; i < 64; ++i) opens.push_back(scattered_open(g, rng));
    const BroadcastTiming t = time_broadcast(32, opens, rng, "miss", mismatches);
    if (t.hits != 0) mismatches.push_back("probe miss: the plan cache hit");
    m["sim.bcast.miss.ns_per_cycle"] = {t.plane_s * 1e9, "ns"};
    m["sim.bcast.miss.ns_per_word"] = {t.plane_s * 1e9 / words_of(32), "ns"};
    m["sim.bcast.miss.word_ratio"] = {t.plane_s / t.word_s, "ratio"};
  }
  {
    const auto span = Tracer::open(tracer, "probe.memcpy", -1);
    const double copy_s = memcpy_seconds(static_cast<std::size_t>(words_of(32)));
    m["sim.bcast.memcpy.ns_per_word"] = {copy_s * 1e9 / words_of(32), "ns"};
    m["sim.bcast.memcpy_ratio"] = {carrier_s / copy_s, "ratio"};
  }
  {
    // pmin's row segmentation: one open switch per row at the last column,
    // wired-OR flowing West, one plane.
    const auto span = Tracer::open(tracer, "probe.sim.wired_or", -1);
    const std::size_t n = 128;
    sim::Machine plane(machine_config(n, sim::ExecBackend::BitPlane));
    sim::Machine word(machine_config(n, sim::ExecBackend::Words));
    const sim::PlaneGeometry& g = plane.plane_geometry();
    const std::vector<PlaneWord> src = random_planes(g, 1, rng);
    std::vector<PlaneWord> open(g.plane_words(), 0), out(g.plane_words());
    for (std::size_t r = 0; r < n; ++r) sim::plane_set(g, open.data(), r, n - 1, true);
    plane.wired_or_plane_into(src.data(), Direction::West, open.data(), out.data());
    std::vector<sim::Flag> word_src(n * n), word_open(n * n), word_out(n * n), unpacked(n * n);
    sim::unpack_flags(g, src.data(), word_src);
    sim::unpack_flags(g, open.data(), word_open);
    sim::unpack_flags(g, out.data(), unpacked);
    word.wired_or_into(word_src, Direction::West, word_open, word_out);
    if (unpacked != word_out) {
      mismatches.push_back("probe wired_or: bit-plane cycle differs from the word backend");
    }
    const double s = time_per_call(
        [&] {
          plane.wired_or_plane_into(src.data(), Direction::West, open.data(), out.data());
          clobber(out.data());
        },
        32, kProbeBudget);
    m["sim.wired_or.ns_per_cycle"] = {s * 1e9, "ns"};
    m["sim.wired_or.ns_per_word"] = {s * 1e9 / static_cast<double>(g.plane_words()), "ns"};
  }
}

void alu_probes(Tracer* tracer, Metrics& m, std::vector<std::string>& mismatches) {
  const auto span = Tracer::open(tracer, "probe.sim.alu", -1);
  namespace pk = sim::plane_kernels;
  util::Rng rng(0xA1B);
  const sim::PlaneGeometry g(128);
  const std::size_t pw = g.plane_words();
  const std::vector<PlaneWord> a = random_planes(g, kPlanes, rng);
  const std::vector<PlaneWord> b = random_planes(g, kPlanes, rng);
  std::vector<PlaneWord> full(pw);
  sim::plane_fill_full(g, full.data());
  // One "word" is one plane word of one operand plane: a saturating add and
  // a compare each sweep kPlanes * pw of them.
  const double words = 2.0 * kPlanes * static_cast<double>(pw);

  const auto run = [&](const pk::PlaneKernels& k, std::vector<PlaneWord>& sum,
                       std::vector<PlaneWord>& lt, std::vector<PlaneWord>& eq) {
    k.add_sat(a.data(), b.data(), kPlanes, pw, full.data(), sum.data(), 0, pw);
    k.compare_lt(a.data(), b.data(), kPlanes, pw, full.data(), lt.data(), eq.data(), 0, pw);
  };
  std::vector<PlaneWord> ref_sum(a.size()), ref_lt(pw), ref_eq(pw);
  run(pk::scalar_kernels(), ref_sum, ref_lt, ref_eq);

  const struct {
    const char* name;
    const pk::PlaneKernels* kernels;
  } arms[] = {{"scalar", &pk::scalar_kernels()},
              {"avx2", pk::avx2_kernels()},
              {"avx512", pk::avx512_kernels()}};
  double active_s = 0;
  for (const auto& arm : arms) {
    const std::string key = std::string("sim.alu.") + arm.name + ".words_per_s";
    if (arm.kernels == nullptr) {
      m[key] = {0, "1/s"};  // the host or the build lacks this arm
      continue;
    }
    std::vector<PlaneWord> sum(a.size()), lt(pw), eq(pw);
    run(*arm.kernels, sum, lt, eq);
    if (sum != ref_sum || lt != ref_lt || eq != ref_eq) {
      mismatches.push_back(std::string("probe alu: arm ") + arm.name + " differs from scalar");
    }
    const double s = time_per_call(
        [&] {
          run(*arm.kernels, sum, lt, eq);
          clobber(sum.data());
          clobber(lt.data());
        },
        16, kProbeBudget);
    m[key] = {words / s, "1/s"};
    if (arm.kernels->variant == pk::active_variant()) active_s = s;
  }
  const double copy_s = memcpy_seconds(static_cast<std::size_t>(words));
  m["sim.alu.memcpy_ratio"] = {active_s / copy_s, "ratio"};
}

void ppc_probes(Tracer* tracer, Metrics& m, std::vector<std::string>& mismatches) {
  const std::size_t n = 128;
  util::Rng rng(0x99C);
  sim::Machine machine(machine_config(n, sim::ExecBackend::BitPlane));
  ppc::Context ctx(machine);
  std::vector<sim::Word> values(n * n);
  for (auto& v : values) v = static_cast<sim::Word>(rng.below(1000));
  const ppc::Pint src(ctx, values);
  const ppc::Pint ROW = ppc::row_of(ctx);
  const ppc::Pint COL = ppc::col_of(ctx);
  const ppc::Pbool row_end = (COL == static_cast<sim::Word>(n - 1));
  const ppc::Pbool carrier = (ROW == sim::Word{5});

  // Host reference: each row's minimum and the smallest column holding it.
  std::vector<sim::Word> row_min(n, 0xFFFF), row_argmin(n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (values[r * n + c] < row_min[r]) {
        row_min[r] = values[r * n + c];
        row_argmin[r] = static_cast<sim::Word>(c);
      }
    }
  }
  const ppc::Pint mins = ppc::pmin(src, Direction::West, row_end);
  const ppc::Pbool is_min = (src == mins);
  const ppc::Pint argmins = ppc::selected_min(COL, Direction::West, row_end, is_min);
  const ppc::Pint spread = ppc::broadcast(src, Direction::South, carrier);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (mins.at(r, c) != row_min[r] || argmins.at(r, c) != row_argmin[r] ||
          spread.at(r, c) != values[5 * n + c]) {
        mismatches.push_back("probe ppc: pmin / selected_min / broadcast differ from the host");
        r = n;
        break;
      }
    }
  }

  {
    const auto span = Tracer::open(tracer, "probe.ppc.pmin", -1);
    const double s = time_per_call(
        [&] { clobber(ppc::pmin(src, Direction::West, row_end).planes_view().data()); }, 4,
        kProbeBudget);
    m["ppc.pmin.us_per_call"] = {s * 1e6, "us"};
  }
  {
    const auto span = Tracer::open(tracer, "probe.ppc.selected_min", -1);
    const double s = time_per_call(
        [&] {
          clobber(ppc::selected_min(COL, Direction::West, row_end, is_min).planes_view().data());
        },
        4, kProbeBudget);
    m["ppc.selected_min.us_per_call"] = {s * 1e6, "us"};
  }
  {
    const auto span = Tracer::open(tracer, "probe.ppc.broadcast", -1);
    const double s = time_per_call(
        [&] { clobber(ppc::broadcast(src, Direction::South, carrier).planes_view().data()); },
        16, kProbeBudget);
    m["ppc.broadcast.us_per_call"] = {s * 1e6, "us"};
  }
}

}  // namespace

void run_probes(const Workload& w, const Instance& inst, Tracer* tracer, Metrics& m,
                std::vector<std::string>& mismatches) {
  bus_probes(tracer, m, mismatches);
  alu_probes(tracer, m, mismatches);
  ppc_probes(tracer, m, mismatches);
  {
    // solve() and the reachability request build one machine per call.
    const auto span = Tracer::open(tracer, "probe.sim.machine_ctor", -1);
    const std::size_t side = w.array_side == 0 ? w.n : w.array_side;
    const double s = time_per_call(
        [&] {
          sim::Machine machine(machine_config(side, sim::ExecBackend::BitPlane));
          clobber(&machine);
        },
        4, kProbeBudget);
    m["sim.machine_ctor_ms"] = {s * 1e3, "ms"};
  }
  {
    const auto span = Tracer::open(tracer, "probe.mcp.check_certificate", -1);
    // Request 0's graph and oracle row (all-pairs: graph 0, toward the
    // differential check's first destination).
    const graph::WeightMatrix& g = inst.graphs[inst.graph_of.front()];
    const graph::McpSolution solution = inst.oracle.empty()
                                            ? inst.floyd.front().toward(inst.destinations.front())
                                            : inst.oracle.front();
    if (!mcp::check_certificate(g, solution)) {
      mismatches.push_back("probe certificate: the Dijkstra row was rejected");
    }
    const double s = time_per_call(
        [&] {
          const mcp::CertificateReport report = mcp::check_certificate(g, solution);
          clobber(&report);
        },
        4, kProbeBudget);
    m["mcp.certificate_us"] = {s * 1e6, "us"};
  }
}

void run_scaling(std::uint64_t seed, Tracer* tracer, Metrics& m,
                 std::vector<std::string>& mismatches) {
  const graph::WeightMatrix g = e6_graph(128, seed);
  const auto wall = [&](std::size_t workers, std::size_t batch_width, const char* name) {
    mcp::AllPairsOptions options;
    options.mcp.backend = sim::ExecBackend::BitPlane;
    options.mcp.batch_width = batch_width;
    options.workers = workers;
    std::vector<double> walls;
    std::vector<graph::Weight> first;
    for (int rep = 0; rep < 3; ++rep) {
      const auto span = Tracer::open(tracer, name, -1);
      const Clock::time_point start = Clock::now();
      const mcp::AllPairsResult result = mcp::all_pairs(g, options);
      walls.push_back(seconds_since(start));
      if (rep == 0) first = result.dist;
      if (result.dist != first || result.failed_destinations() != 0) {
        mismatches.push_back(std::string("scaling ") + name + ": rows changed between runs");
      }
    }
    return median(walls);
  };
  const double w1_k16 = wall(1, 16, "scaling.all_pairs.w1.k16");
  const double w2_k16 = wall(2, 16, "scaling.all_pairs.w2.k16");
  const double w2_k1 = wall(2, 1, "scaling.all_pairs.w2.k1");
  m["mcp.allpairs.worker_speedup"] = {w1_k16 / w2_k16, "ratio"};
  m["mcp.batch.speedup_k16"] = {w2_k1 / w2_k16, "ratio"};
}

}  // namespace perfbench
