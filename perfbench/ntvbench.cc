// ntvbench — the benchmark's own program.
//
// The benchmark (run.py) drives ntvsim from outside: ntvsim_repro for
// the paper tables, the `ntvsim serve` daemon for the service mix. This
// program is the daemon's load generator (a C++ client, so the load
// loop does not contend for the interpreter lock), covers what no
// shipped binary exposes as a timed loop — the circuit/SODA
// hardware-simulation path — and runs the traced twins of the other two
// workloads. It calls only public library functions, and when
// tracing it records one span around each call it makes into a layer.
// Spans stay in memory and are written as Chrome trace-event JSON when
// the command ends; run.py turns them into per-layer self times.
//
// Subcommands (each prints one JSON object on stdout):
//   ntvbench hw      --seed S --seconds T [--jobs N] [--trace FILE]
//   ntvbench tables  --experiment fig4|table1|table2|table4 [--trace FILE]
//   ntvbench service --plan FILE --warm FILE --spill-dir DIR
//                    --envelopes FILE --probe TEXT [--trace FILE]
//   ntvbench load    --port P --plan FILE --clients C --envelopes FILE
//
// The worker pool is sized from $NTV_THREADS, and `service` runs one
// client thread per worker.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/simd_timing.h"
#include "circuit/gates.h"
#include "core/mitigation.h"
#include "device/dist_cache.h"
#include "device/tech_node.h"
#include "device/variation.h"
#include "exec/thread_pool.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "service/artifact_cache.h"
#include "service/client.h"
#include "service/coalescer.h"
#include "service/engine.h"
#include "service/request.h"
#include "service/scheduler.h"
#include "service/service.h"
#include "soda/kernels.h"
#include "soda/system.h"
#include "stats/descriptive.h"
#include "stats/rng.h"

namespace {

using namespace ntv;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------- tracing

/// In-memory span recorder. Disabled tracers record nothing, so the
/// untraced runs pay one branch per call site.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int tid = 0;
  };

  /// The constructing thread becomes trace tid 0.
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
    (void)thread_index();
  }

  bool enabled() const noexcept { return enabled_; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }

  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back({std::move(name), start_ns, end_ns, thread_index()});
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string to_json() const {
    std::lock_guard<std::mutex> lock(mu_);
    obs::JsonWriter w;
    w.begin_object();
    w.key("traceEvents").begin_array();
    for (const Record& r : records_) {
      w.begin_object();
      w.key("name").value(r.name);
      w.key("ph").value("X");
      w.key("pid").value(1);
      w.key("tid").value(r.tid);
      w.key("ts").value(static_cast<double>(r.start_ns) / 1e3);
      w.key("dur").value(static_cast<double>(r.end_ns - r.start_ns) / 1e3);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span on the calling thread.
class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name), start_(tracer.now_ns()) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { tracer_.add(name_, start_, tracer_.now_ns()); }

  std::int64_t start_ns() const noexcept { return start_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::int64_t start_;
};

/// Records child spans for phases an opaque call timed with an obs
/// Timer: the deltas are laid end to end from the parent's start, in the
/// order the call runs them. Only valid when nothing else bumped the
/// timers meanwhile (the caller serializes the call).
void add_timer_children(
    Tracer& tracer, std::int64_t parent_start, std::int64_t parent_end,
    const std::vector<std::pair<const char*, std::int64_t>>& phases) {
  std::int64_t at = parent_start;
  for (const auto& [name, ns] : phases) {
    const std::int64_t end = std::min(parent_end, at + std::max<std::int64_t>(ns, 0));
    tracer.add(name, at, end);
    at = end;
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over a combined word: decorrelates seeds that
  // differ in one low bit.
  std::uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void write_counters(obs::JsonWriter& w, const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after) {
  w.key("counters").begin_object();
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    w.key(name).value(value - (it == before.counters.end() ? 0 : it->second));
  }
  w.end_object();
  w.key("timers_ns").begin_object();
  for (const auto& [name, stat] : after.timers) {
    const auto it = before.timers.find(name);
    w.key(name).value(stat.total_ns -
                      (it == before.timers.end() ? 0 : it->second.total_ns));
  }
  w.end_object();
}

struct Args {
  std::map<std::string, std::string> values;

  static std::optional<Args> parse(int argc, char** argv) {
    Args args;
    for (int i = 0; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
        std::fprintf(stderr, "ntvbench: bad argument '%s'\n", argv[i]);
        return std::nullopt;
      }
      args.values[argv[i] + 2] = argv[i + 1];
      ++i;
    }
    return args;
  }
  std::string str(const std::string& name, const std::string& fallback = "") const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : it->second;
  }
  long num(const std::string& name, long fallback) const {
    const auto it = values.find(name);
    return it == values.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }
};

// ------------------------------------------------------------- hw_sim

std::vector<std::int16_t> seeded_i16(stats::Xoshiro256pp& rng, std::size_t n,
                                     int span) {
  std::vector<std::int16_t> out(n);
  for (auto& v : out) {
    v = static_cast<std::int16_t>(static_cast<int>(rng.next() % (2 * span + 1)) - span);
  }
  return out;
}

void write_row(soda::ProcessingElement& pe, int row,
               std::span<const std::int16_t> data) {
  std::vector<std::uint16_t> raw(data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    raw[i] = static_cast<std::uint16_t>(data[i]);
  pe.simd_memory().write_row(row, raw);
}

std::vector<std::int16_t> read_row(soda::ProcessingElement& pe, int row) {
  std::vector<std::uint16_t> raw(static_cast<std::size_t>(pe.config().width));
  pe.simd_memory().read_row(row, raw);
  return {raw.begin(), raw.end()};
}

bool rows_match(soda::ProcessingElement& pe, int row0,
                const std::vector<std::int16_t>& want, int rows) {
  const int width = pe.config().width;
  for (int r = 0; r < rows; ++r) {
    const auto got = read_row(pe, row0 + r);
    if (!std::equal(got.begin(), got.end(), want.begin() + r * width))
      return false;
  }
  return true;
}

constexpr int kWidth = 128;
constexpr int kSpares = 8;
constexpr int kPes = 4;
constexpr double kSodaVdd = 0.55;
const double kSpiceVdds[] = {1.0, 0.6, 0.5};

/// Everything a hw_sim round reuses: the 0.55 V lane sampler (one device
/// distribution build) and the eight kernel programs.
struct HwSetup {
  device::VariationModel model{device::tech_90nm()};
  std::optional<arch::ChipDelaySampler> sampler;
  double t_clk = 0.0;
  soda::FirKernel fir;
  soda::FftKernel fft;
  soda::Conv2dKernel conv;
  soda::MatVecKernel matvec;
  soda::GemmKernel gemm;
  soda::StencilKernel stencil;
  soda::BitonicSortKernel sort;
  soda::DotKernel dot;
  /// Programs per round: round 0 = FIR, FFT, Conv2d, MatVec on PEs 0-3;
  /// round 1 = GEMM, stencil, sort, dot.
  std::vector<soda::Program> programs[2];

  HwSetup() {
    arch::TimingConfig timing;
    timing.correlation = arch::DieCorrelation::kSharedDie;  // One real die.
    sampler.emplace(model, kSodaVdd, timing);
    // Clock 9% above the nominal path delay, as in
    // examples/variation_aware_dsp.cpp: a few lanes per die miss it.
    t_clk = sampler->nominal_path_delay() * (54.5 / 50.0);
    fir.taps = 8;
    soda::PeConfig config;
    config.width = kWidth;
    config.spare_fus = kSpares;
    soda::ProcessingElement pe(config);
    programs[0] = {fir.build(), fft.build(pe), conv.build(), matvec.build()};
    programs[1] = {gemm.build(), stencil.build(), sort.build(pe), dot.build()};
  }
};

struct DieResult {
  int kernels = 0;
  int mismatches = 0;
  long cycles = 0;      ///< Simulated PE cycles (sum of PE finish ticks).
  long events = 0;
  long stall_cycles = 0;
  long bypasses = 0;
  int faulty_lanes = 0;
};

/// One die: sample its four PEs' lanes, mark lanes slower than the clock,
/// then run both kernel rounds concurrently on the 4-PE fabric and check
/// every output against its reference.
DieResult run_die(const HwSetup& hw, std::uint64_t die_seed, Tracer& tracer) {
  DieResult out;
  soda::SystemConfig config;
  config.num_pes = kPes;
  config.pe.width = kWidth;
  config.pe.spare_fus = kSpares;
  stats::Xoshiro256pp rng(die_seed);

  std::vector<soda::LaneTimingConfig> lane_timing(kPes);
  {
    Span span(tracer, "arch.sample_lanes");
    std::vector<double> lanes(kWidth + kSpares);
    for (int p = 0; p < kPes; ++p) {
      hw.sampler->sample_lanes(rng, lanes);
      auto& lt = lane_timing[static_cast<std::size_t>(p)];
      lt.fu_slowdown.resize(lanes.size());
      lt.detect_after = 8;
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        const int slow = static_cast<int>(std::ceil(lanes[i] / hw.t_clk));
        lt.fu_slowdown[i] = std::clamp(slow, 1, 8);
        out.faulty_lanes += slow > 1;
      }
    }
  }

  for (int round = 0; round < 2; ++round) {
    soda::SodaSystem system(config);
    for (int p = 0; p < kPes; ++p) {
      system.pe(p).set_lane_timing(lane_timing[static_cast<std::size_t>(p)]);
    }
    // Inputs are drawn per die from its seed; references computed here.
    std::vector<std::function<bool()>> checks;
    {
      Span span(tracer, "soda.prepare");
      const std::size_t w = kWidth;
      if (round == 0) {
        auto& pe0 = system.pe(0);
        const auto x = seeded_i16(rng, w, 1000);
        const auto h = seeded_i16(rng, static_cast<std::size_t>(hw.fir.taps), 60);
        hw.fir.prepare(pe0, h);
        write_row(pe0, hw.fir.input_row, x);
        checks.push_back([&pe0, &hw, x, h] {
          return read_row(pe0, hw.fir.output_row) == soda::FirKernel::reference(x, h);
        });

        auto& pe1 = system.pe(1);
        hw.fft.prepare(pe1);
        auto re = seeded_i16(rng, w, 2000);
        auto im = seeded_i16(rng, w, 2000);
        write_row(pe1, hw.fft.re_row, re);
        write_row(pe1, hw.fft.im_row, im);
        soda::FftKernel::reference_fixed(re, im);
        checks.push_back([&pe1, &hw, re, im] {
          return read_row(pe1, hw.fft.out_re_row) == re &&
                 read_row(pe1, hw.fft.out_im_row) == im;
        });

        auto& pe2 = system.pe(2);
        std::vector<std::int16_t> image;
        for (int r = 0; r < hw.conv.height; ++r) {
          const auto row = seeded_i16(rng, w, 200);
          write_row(pe2, hw.conv.image_row0 + r, row);
          image.insert(image.end(), row.begin(), row.end());
        }
        const auto coef = seeded_i16(rng, 9, 8);
        hw.conv.prepare(pe2, coef);
        const auto conv_want = soda::Conv2dKernel::reference(image, hw.conv.height, kWidth, coef);
        checks.push_back([&pe2, &hw, conv_want] {
          return rows_match(pe2, hw.conv.output_row0, conv_want, hw.conv.height);
        });

        auto& pe3 = system.pe(3);
        std::vector<std::int16_t> matrix;
        for (int r = 0; r < hw.matvec.rows; ++r) {
          const auto row = seeded_i16(rng, w, 300);
          write_row(pe3, hw.matvec.matrix_row0 + r, row);
          matrix.insert(matrix.end(), row.begin(), row.end());
        }
        const auto xv = seeded_i16(rng, w, 300);
        write_row(pe3, hw.matvec.x_row, xv);
        const auto mv_want = soda::MatVecKernel::reference(matrix, hw.matvec.rows, kWidth, xv);
        checks.push_back([&pe3, &hw, mv_want] {
          for (int r = 0; r < hw.matvec.rows; ++r) {
            if (static_cast<std::int16_t>(pe3.scalar_memory().read(hw.matvec.result_addr + r)) !=
                mv_want[static_cast<std::size_t>(r)])
              return false;
          }
          return true;
        });
      } else {
        auto& pe0 = system.pe(0);
        const auto a = seeded_i16(rng, static_cast<std::size_t>(hw.gemm.m * hw.gemm.k), 200);
        const auto b = seeded_i16(rng, static_cast<std::size_t>(hw.gemm.k) * w, 200);
        hw.gemm.prepare(pe0, a, b);
        const auto gemm_want = soda::GemmKernel::reference(a, b, hw.gemm.m, hw.gemm.k, kWidth);
        checks.push_back([&pe0, &hw, gemm_want] {
          return rows_match(pe0, hw.gemm.c_row0, gemm_want, hw.gemm.m);
        });

        auto& pe1 = system.pe(1);
        std::vector<std::int16_t> image;
        for (int r = 0; r < hw.stencil.height; ++r) {
          const auto row = seeded_i16(rng, w, 200);
          write_row(pe1, hw.stencil.image_row0 + r, row);
          image.insert(image.end(), row.begin(), row.end());
        }
        const auto coef = seeded_i16(rng, 5, 8);
        hw.stencil.prepare(pe1, coef);
        const auto st_want = soda::StencilKernel::reference(image, hw.stencil.height, kWidth, coef);
        checks.push_back([&pe1, &hw, st_want] {
          return rows_match(pe1, hw.stencil.output_row0, st_want, hw.stencil.height);
        });

        auto& pe2 = system.pe(2);
        const auto values = seeded_i16(rng, w, 30000);
        hw.sort.prepare(pe2);
        write_row(pe2, hw.sort.input_row, values);
        checks.push_back([&pe2, &hw, values] {
          return read_row(pe2, hw.sort.output_row) == soda::BitonicSortKernel::reference(values);
        });

        auto& pe3 = system.pe(3);
        const auto da = seeded_i16(rng, w, 3000);
        const auto db = seeded_i16(rng, w, 3000);
        write_row(pe3, hw.dot.a_row, da);
        write_row(pe3, hw.dot.b_row, db);
        const std::int32_t dot_want = soda::DotKernel::reference(da, db);
        checks.push_back([&pe3, &hw, dot_want] {
          const std::uint32_t lo = pe3.scalar_memory().read(hw.dot.result_addr);
          const std::uint32_t hi = pe3.scalar_memory().read(hw.dot.result_addr + 1);
          return static_cast<std::int32_t>((hi << 16) | (lo & 0xFFFFu)) == dot_want;
        });
      }
    }

    std::vector<std::vector<soda::Program>> queues(kPes);
    for (int p = 0; p < kPes; ++p) {
      queues[static_cast<std::size_t>(p)].push_back(
          hw.programs[round][static_cast<std::size_t>(p)]);
    }
    soda::FabricOutcome outcome;
    {
      Span span(tracer, "soda.fabric");
      outcome = system.run_concurrent(queues);
    }
    {
      Span span(tracer, "soda.verify");
      for (std::size_t p = 0; p < checks.size(); ++p) {
        ++out.kernels;
        const bool ok = outcome.pes[p].stats.halted && checks[p]();
        out.mismatches += ok ? 0 : 1;
      }
    }
    out.events += outcome.events;
    for (const auto& pe : outcome.pes) {
      out.cycles += static_cast<long>(pe.counters.ticks);
      out.stall_cycles += pe.counters.lane_stall_cycles + pe.counters.mem_stall_cycles;
      out.bypasses += pe.counters.bypass_activations;
    }
  }
  return out;
}

/// One SPICE sample: a 5-stage FO4 chain with per-device variation.
double spice_sample(const HwSetup& hw, double vdd, std::uint64_t seed,
                    Tracer& tracer) {
  stats::Xoshiro256pp rng(seed);
  circuit::ChainConfig config;
  config.stages = 5;
  config.vdd = vdd;
  config.variation.resize(5);
  for (auto& var : config.variation) {
    var.nmos = hw.model.sample_gate(rng);
    var.pmos = hw.model.sample_gate(rng);
  }
  Span span(tracer, "circuit.transient");
  const circuit::ChainTiming timing = circuit::measure_chain(hw.model.node(), config);
  return timing.ok ? timing.total_delay : std::nan("");
}

/// Set-ups per hw run (their median is reported) and rounds per unit
/// job: a round takes tens of milliseconds, so a job of several rounds
/// keeps one job_s sample from riding a momentary change in core speed.
constexpr int kHwSetups = 15;
constexpr int kRoundsPerJob = 8;

int cmd_hw(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.num("seed", 1));
  const double seconds = static_cast<double>(args.num("seconds", 10));
  const long max_jobs = args.num("jobs", 0);  // 0 = until --seconds.
  const std::string trace_file = args.str("trace");
  Tracer tracer(!trace_file.empty());
  auto& pool = exec::ThreadPool::global();

  // Set-up, repeated from a cold distribution cache so every repeat does
  // the same work; the last one is kept.
  std::vector<double> setup_s;
  std::unique_ptr<HwSetup> hw;
  for (int i = 0; i < kHwSetups; ++i) {
    device::clear_distribution_cache();
    const auto t0 = Clock::now();
    hw = std::make_unique<HwSetup>();
    setup_s.push_back(seconds_since(t0));
  }

  constexpr std::size_t kSpicePerVdd = 24;
  constexpr std::size_t kDiesPerRound = 8;
  std::vector<double> spice_rate, soda_rate, job_s;
  std::vector<std::vector<double>> delays(std::size(kSpiceVdds));
  long attempted = 0, failed = 0, failed_spice = 0;
  long soda_cycles = 0, soda_events = 0, soda_stalls = 0, bypasses = 0, faulty = 0;
  // One round: SPICE transient MC at every supply, then one batch of
  // dies on the SODA fabric. Adds the round's SPICE and SODA seconds.
  double spice_s = 0.0, soda_s = 0.0;
  long cycles = 0;
  auto round = [&](std::uint64_t round_seed) {
    // SPICE transient MC: samples are independent, seeded by index.
    const auto t_spice = Clock::now();
    for (std::size_t v = 0; v < std::size(kSpiceVdds); ++v) {
      std::vector<double> got(kSpicePerVdd);
      pool.parallel_for(0, kSpicePerVdd, [&](std::size_t s) {
        got[s] = spice_sample(*hw, kSpiceVdds[v], mix(round_seed, v * 1000 + s), tracer);
      }, /*grain=*/1);
      for (double d : got) {
        ++attempted;
        if (std::isnan(d)) {
          ++failed;
          ++failed_spice;
        } else {
          delays[v].push_back(d);
        }
      }
    }
    spice_s += seconds_since(t_spice);

    const auto t_soda = Clock::now();
    std::vector<DieResult> dies(kDiesPerRound);
    pool.parallel_for(0, kDiesPerRound, [&](std::size_t d) {
      dies[d] = run_die(*hw, mix(round_seed ^ 0xD1E, d), tracer);
    }, /*grain=*/1);
    soda_s += seconds_since(t_soda);
    for (const auto& die : dies) {
      attempted += die.kernels;
      failed += die.mismatches;
      cycles += die.cycles;
      soda_events += die.events;
      soda_stalls += die.stall_cycles;
      bypasses += die.bypasses;
      faulty += die.faulty_lanes;
    }
  };

  const auto before = obs::Registry::global().snapshot();
  const std::int64_t wall0 = tracer.now_ns();
  const auto start = Clock::now();
  for (long job = 0;; ++job) {
    if (max_jobs > 0 ? job >= max_jobs
                     : (job > 0 && seconds_since(start) >= seconds))
      break;
    const auto t_job = Clock::now();
    spice_s = soda_s = 0.0;
    cycles = 0;
    for (long r = 0; r < kRoundsPerJob; ++r) {
      round(mix(seed, static_cast<std::uint64_t>(job * kRoundsPerJob + r)));
    }
    job_s.push_back(seconds_since(t_job));
    soda_cycles += cycles;
    spice_rate.push_back(static_cast<double>(kRoundsPerJob * kSpicePerVdd *
                                             std::size(kSpiceVdds)) / spice_s);
    soda_rate.push_back(static_cast<double>(cycles) / soda_s / 1e6);
  }
  const std::int64_t wall1 = tracer.now_ns();
  const auto after = obs::Registry::global().snapshot();

  obs::JsonWriter w;
  w.begin_object();
  w.key("setup_s").begin_array();
  for (double s : setup_s) w.value(s);
  w.end_array();
  w.key("spice_samples_per_s").begin_array();
  for (double r : spice_rate) w.value(r);
  w.end_array();
  w.key("soda_mcycles_per_s").begin_array();
  for (double r : soda_rate) w.value(r);
  w.end_array();
  w.key("job_s").begin_array();
  for (double j : job_s) w.value(j);
  w.end_array();
  w.key("spice_3smu_pct").begin_object();
  for (std::size_t v = 0; v < std::size(kSpiceVdds); ++v) {
    stats::Summary s;
    for (double d : delays[v]) s.add(d);
    char name[16];
    std::snprintf(name, sizeof name, "%.2f", kSpiceVdds[v]);
    w.key(name).value(s.three_sigma_over_mu_pct());
  }
  w.end_object();
  w.key("attempted").value(static_cast<std::int64_t>(attempted));
  w.key("failed").value(static_cast<std::int64_t>(failed));
  w.key("failed_spice").value(static_cast<std::int64_t>(failed_spice));
  w.key("soda_cycles").value(static_cast<std::int64_t>(soda_cycles));
  w.key("soda_events").value(static_cast<std::int64_t>(soda_events));
  w.key("soda_stall_cycles").value(static_cast<std::int64_t>(soda_stalls));
  w.key("bypass_activations").value(static_cast<std::int64_t>(bypasses));
  w.key("faulty_lanes").value(static_cast<std::int64_t>(faulty));
  w.key("jobs").value(static_cast<std::int64_t>(job_s.size()));
  w.key("wall_s").value(static_cast<double>(wall1 - wall0) / 1e9);
  w.key("wall_start_ns").value(static_cast<std::int64_t>(wall0));
  w.key("wall_end_ns").value(static_cast<std::int64_t>(wall1));
  w.key("workers").value(exec::ThreadPool::global_thread_count());
  write_counters(w, before, after);
  w.end_object();
  if (tracer.enabled() && !write_file(trace_file, tracer.to_json())) return 1;
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ------------------------------------------------------- tables (traced)

/// Runs one MitigationStudy call under a core.search span. The calls of
/// a replay run one at a time (the product's *_sweep methods fan grid
/// points out on the pool), so the obs timer deltas read around a call
/// belong to it alone; they become its stats.fill (Monte Carlo engine)
/// and arch.curves child spans. What is left of the call — the sign-off
/// search and the samplers it builds at probe supplies — stays
/// core.search self time.
template <class Call>
auto study_call(Tracer& tracer, Call&& call) {
  static obs::Timer& mc_timer = obs::timer("mc.wall");
  static obs::Timer& curves_timer = obs::timer("mitigation.curves.wall");
  const std::int64_t mc0 = mc_timer.total_ns();
  const std::int64_t curves0 = curves_timer.total_ns();
  const std::int64_t start = tracer.now_ns();
  auto result = call();
  const std::int64_t end = tracer.now_ns();
  tracer.add("core.search", start, end);
  add_timer_children(tracer, start, end,
                     {{"stats.fill", mc_timer.total_ns() - mc0},
                      {"arch.curves", curves_timer.total_ns() - curves0}});
  return result;
}

/// In-process replay of one paper experiment through the product's
/// single-point MitigationStudy calls (the ones its *_sweep methods run
/// per grid point; the results are byte-identical), with a span around
/// every call. Each experiment runs in its own process from a cold
/// distribution cache, as under ntvsim_repro, and run.py checks the
/// values against the reference.
int cmd_tables(const Args& args) {
  const std::string id = args.str("experiment");
  const std::string trace_file = args.str("trace");
  Tracer tracer(!trace_file.empty());

  std::vector<double> vdds;
  if (id == "fig4") {
    for (double v = 0.50; v <= 0.751; v += 0.05) vdds.push_back(v);
  } else if (id == "table1" || id == "table2" || id == "table4") {
    vdds = {0.50, 0.55, 0.60, 0.65, 0.70};
  } else {
    std::fprintf(stderr, "ntvbench tables: unknown experiment '%s'\n", id.c_str());
    return 2;
  }
  const char* tags[] = {"90nm", "45nm", "32nm", "22nm"};

  const auto before = obs::Registry::global().snapshot();
  const std::int64_t wall0 = tracer.now_ns();
  std::vector<core::MitigationStudy> studies;
  for (const device::TechNode* node : device::all_nodes()) {
    studies.emplace_back(*node, core::MitigationConfig{});
  }

  // The grid's own samplers, built up front so their distribution
  // builds get a span; the margin search builds more at probe supplies.
  {
    Span span(tracer, "device.build");
    std::vector<std::pair<std::size_t, double>> cells;
    for (std::size_t s = 0; s < studies.size(); ++s) {
      cells.emplace_back(s, studies[s].node().nominal_vdd);
      for (double v : vdds) cells.emplace_back(s, v);
    }
    exec::ThreadPool::global().parallel_for(0, cells.size(), [&](std::size_t i) {
      (void)studies[cells[i].first].sampler(cells[i].second);
    }, /*grain=*/1);
  }

  obs::JsonWriter values;
  values.begin_object();
  double worst_drop = 0.0;
  for (std::size_t s = 0; s < studies.size(); ++s) {
    const auto& study = studies[s];
    // The nominal baseline every sweep primes first.
    (void)study_call(tracer, [&] {
      return study.fo4_chip_delay_p99(study.node().nominal_vdd);
    });
    for (double v : vdds) {
      char key[64];
      if (id == "fig4") {
        std::snprintf(key, sizeof key, "drop_pct_%s_%.2fV", tags[s], v);
        values.key(key).value(
            study_call(tracer, [&] { return study.performance_drop_pct(v); }));
      } else if (id == "table4") {
        const auto fm = study_call(tracer, [&] { return study.frequency_margin(v); });
        worst_drop = std::max(worst_drop, fm.drop_pct);
        if (v == 0.50) {
          std::snprintf(key, sizeof key, "tclk_ns_%s_0.50V", tags[s]);
          values.key(key).value(fm.t_clk * 1e9);
          std::snprintf(key, sizeof key, "tva_ns_%s_0.50V", tags[s]);
          values.key(key).value(fm.t_va_clk * 1e9);
          std::snprintf(key, sizeof key, "fdrop_pct_%s_0.50V", tags[s]);
          values.key(key).value(fm.drop_pct);
        }
      } else if (id == "table1") {
        const auto r = study_call(tracer, [&] { return study.required_spares(v); });
        std::snprintf(key, sizeof key, "spares_%s_%.2fV", tags[s], v);
        values.key(key).value(static_cast<double>(r.spares));
        std::snprintf(key, sizeof key, "ess_%s_%.2fV", tags[s], v);
        values.key(key).value(r.ess);
        std::snprintf(key, sizeof key, "p99_rel_ci_halfwidth_%s_%.2fV", tags[s], v);
        values.key(key).value(r.p99_rel_ci_halfwidth);
      } else {
        const auto r = study_call(tracer, [&] { return study.required_voltage_margin(v); });
        std::snprintf(key, sizeof key, "margin_mV_%s_%.2fV", tags[s], v);
        values.key(key).value(r.margin * 1e3);
      }
    }
  }
  if (id == "table4") values.key("worst_drop_pct").value(worst_drop);
  values.end_object();
  const std::int64_t wall1 = tracer.now_ns();
  const auto after = obs::Registry::global().snapshot();

  obs::JsonWriter w;
  w.begin_object();
  w.key("experiment").value(id);
  w.key("values").raw(values.str());
  w.key("wall_start_ns").value(static_cast<std::int64_t>(wall0));
  w.key("wall_end_ns").value(static_cast<std::int64_t>(wall1));
  w.key("workers").value(exec::ThreadPool::global_thread_count());
  write_counters(w, before, after);
  w.end_object();
  if (tracer.enabled() && !write_file(trace_file, tracer.to_json())) return 1;
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ------------------------------------------------------ service (traced)

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// Success envelope, spliced exactly as the service does
/// (service.cc ok_payload); run.py compares every envelope this
/// pipeline produces with the daemon's reference bytes, so a drift
/// between the two shows up as a failed operation.
std::string ok_envelope(const service::RequestKey& key, const std::string& results) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(1);
  w.key("status").value("ok");
  w.key("key").value(key.hex);
  w.key("request").raw(key.canonical);
  w.key("results").raw(results);
  w.end_object();
  return w.str();
}

/// The service pipeline composed from its public parts in the order
/// Service::handle_request_text runs them, with a span around each
/// stage. The evaluation span runs on the pool worker that executes the
/// job; its name says which engine layer answered.
class TracedPipeline {
 public:
  struct Outcome {
    std::string envelope;
    bool ok = false;
    bool hit = false;
    bool leader = false;
    bool interactive = false;
    double parse_ns = 0.0;
    double eval_ns = 0.0;  ///< This request's own evaluation (leaders).
    double total_ns = 0.0;
  };

  TracedPipeline(Tracer& tracer, const std::string& spill_dir)
      : tracer_(tracer),
        cache_(cache_options(spill_dir)),
        scheduler_(exec::ThreadPool::global(), {}, service::error_payload) {}

  Outcome handle(const std::string& text, const std::string& client) {
    Outcome out;
    Span request(tracer_, "service.request");
    service::ParseResult parsed;
    {
      const std::int64_t t0 = tracer_.now_ns();
      parsed = service::parse_request(text);
      const std::int64_t t1 = tracer_.now_ns();
      tracer_.add("service.parse", t0, t1);
      out.parse_ns = static_cast<double>(t1 - t0);
    }
    if (!parsed.ok) {
      out.envelope = service::error_payload(parsed.error_code, parsed.message);
      out.total_ns = static_cast<double>(tracer_.now_ns() - request.start_ns());
      return out;
    }
    out.interactive = parsed.request.interactive();
    std::optional<std::string> cached;
    {
      Span span(tracer_, "service.cache");
      cached = cache_.get(parsed.key);
    }
    if (cached) {
      out.ok = true;
      out.hit = true;
      out.envelope = std::move(*cached);
    } else {
      const service::Coalescer::Ticket ticket = coalescer_.join(parsed.key.canonical);
      auto eval_ns = std::make_shared<std::atomic<std::int64_t>>(0);
      if (ticket.leader) {
        out.leader = true;
        const char* layer = layer_of(parsed.request);
        scheduler_.submit(
            client, out.interactive,
            [this, request = parsed.request, key = parsed.key, layer, eval_ns]() {
              const std::int64_t t0 = tracer_.now_ns();
              const service::EngineResult r = service::evaluate(request);
              const std::int64_t t1 = tracer_.now_ns();
              tracer_.add(layer, t0, t1);
              eval_ns->store(t1 - t0);
              if (!r.ok) {
                return service::JobResult{false, service::error_payload("internal", r.error)};
              }
              Span span(tracer_, "service.serialize");
              return service::JobResult{true, ok_envelope(key, r.results)};
            },
            [this, key = parsed.key](service::JobResult result) {
              if (result.ok) cache_.put(key, result.payload);
              coalescer_.complete(key.canonical, std::move(result));
            });
      }
      service::JobResult result;
      {
        Span span(tracer_, "service.wait");
        result = ticket.result.get();
      }
      out.ok = result.ok;
      out.envelope = std::move(result.payload);
      out.eval_ns = static_cast<double>(eval_ns->load());
    }
    out.total_ns = static_cast<double>(tracer_.now_ns() - request.start_ns());
    return out;
  }

  void drain() { scheduler_.drain(); }

 private:
  static service::ArtifactCache::Options cache_options(const std::string& spill_dir) {
    service::ArtifactCache::Options options;
    options.spill_dir = spill_dir;
    return options;
  }
  static const char* layer_of(const service::AnalysisRequest& request) {
    if (request.command == service::Command::kEnergy) return "energy.sweep";
    if (request.backend == ssta::Backend::kAnalytic) return "ssta.analytic";
    return "core.mc_eval";
  }

  Tracer& tracer_;
  service::ArtifactCache cache_;
  service::Coalescer coalescer_;
  service::Scheduler scheduler_;
};

int cmd_service(const Args& args) {
  const auto plan = read_lines(args.str("plan"));
  const auto warm = read_lines(args.str("warm"));
  const std::size_t count = plan.size();
  const int clients = exec::ThreadPool::global_thread_count();
  const std::string probe = args.str("probe");
  const std::string trace_file = args.str("trace");
  const std::string envelope_file = args.str("envelopes");
  Tracer tracer(!trace_file.empty());

  TracedPipeline pipeline(tracer, args.str("spill-dir"));
  // Warm-up mirrors the daemon run's set-up: it builds every
  // distribution cell the timed requests use.
  {
    std::vector<std::thread> threads;
    std::atomic<std::size_t> next{0};
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t i; (i = next.fetch_add(1)) < warm.size();)
          (void)pipeline.handle(warm[i], "warm" + std::to_string(c));
      });
    }
    for (auto& t : threads) t.join();
  }

  std::vector<TracedPipeline::Outcome> outcomes(count);
  std::atomic<std::size_t> next{0};
  const auto before = obs::Registry::global().snapshot();
  const std::int64_t wall0 = tracer.now_ns();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        const std::string client = "conn" + std::to_string(c);
        for (std::size_t i; (i = next.fetch_add(1)) < count;) {
          outcomes[i] = pipeline.handle(plan[i], client);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const std::int64_t wall1 = tracer.now_ns();
  const auto after = obs::Registry::global().snapshot();

  // Cache-hit handling time of one warm key, for the wire-cost probe.
  std::vector<double> probe_ns;
  if (!probe.empty()) {
    (void)pipeline.handle(probe, "probe");
    for (int i = 0; i < 200; ++i) {
      const auto t0 = Clock::now();
      (void)pipeline.handle(probe, "probe");
      probe_ns.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count());
    }
  }
  pipeline.drain();

  // Every envelope of one canonical key must be byte-identical; the
  // first one per key goes to run.py for the reference comparison.
  std::map<std::string, std::string> first;
  long mismatched = 0, errors = 0;
  for (const auto& o : outcomes) {
    if (!o.ok) {
      ++errors;
      continue;
    }
    const auto k0 = o.envelope.find("\"request\":");
    const auto k1 = o.envelope.find(",\"results\":");
    const std::string canonical = o.envelope.substr(k0, k1 - k0);
    auto [it, inserted] = first.emplace(canonical, o.envelope);
    if (!inserted && it->second != o.envelope) ++mismatched;
  }
  {
    std::string lines;
    for (const auto& [canonical, envelope] : first) lines += envelope + "\n";
    if (!envelope_file.empty() && !write_file(envelope_file, lines)) return 1;
  }

  obs::JsonWriter w;
  w.begin_object();
  w.key("attempted").value(static_cast<std::int64_t>(count));
  w.key("errors").value(static_cast<std::int64_t>(errors));
  w.key("mismatched").value(static_cast<std::int64_t>(mismatched));
  w.key("wall_start_ns").value(static_cast<std::int64_t>(wall0));
  w.key("wall_end_ns").value(static_cast<std::int64_t>(wall1));
  w.key("workers").value(exec::ThreadPool::global_thread_count());
  // Per request: [interactive, hit, leader, parse_ns, eval_ns, total_ns].
  w.key("requests").begin_array();
  for (const auto& o : outcomes) {
    w.begin_array();
    w.value(o.interactive).value(o.hit).value(o.leader);
    w.value(o.parse_ns).value(o.eval_ns).value(o.total_ns);
    w.end_array();
  }
  w.end_array();
  w.key("probe_ns").begin_array();
  for (double ns : probe_ns) w.value(ns);
  w.end_array();
  write_counters(w, before, after);
  w.end_object();
  if (tracer.enabled() && !write_file(trace_file, tracer.to_json())) return 1;
  std::printf("%s\n", w.str().c_str());
  return 0;
}

// ------------------------------------------------------- wire load

/// Closed-loop load on a live daemon: `clients` connections each take
/// the next unsent plan request, send it and wait for the reply, until
/// the plan is answered. Records every request's latency and completion
/// time; keeps the first response per request text and counts later
/// responses that differ from it.
int cmd_load(const Args& args) {
  const auto plan = read_lines(args.str("plan"));
  const int port = static_cast<int>(args.num("port", 0));
  const int clients = static_cast<int>(args.num("clients", 1));
  const std::string envelope_file = args.str("envelopes");

  struct Record {
    std::size_t index;
    std::int64_t latency_ns;
    std::int64_t done_ns;
  };
  std::vector<std::vector<Record>> records(static_cast<std::size_t>(clients));
  std::mutex mu;
  std::map<std::string, std::pair<std::size_t, std::string>> first;  // By text.
  std::atomic<long> mismatched{0}, transport_errors{0};
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        service::BlockingClient client;
        if (!client.connect(port)) {
          ++transport_errors;
          return;
        }
        auto& mine = records[static_cast<std::size_t>(c)];
        for (std::size_t i; (i = next.fetch_add(1)) < plan.size();) {
          const auto t0 = Clock::now();
          const auto response = client.call(plan[i]);
          const auto t1 = Clock::now();
          if (!response) {
            ++transport_errors;
            break;
          }
          mine.push_back({i, (t1 - t0).count(), (t1 - start).count()});
          std::lock_guard<std::mutex> lock(mu);
          auto [it, inserted] = first.try_emplace(plan[i], i, *response);
          if (!inserted && it->second.second != *response) ++mismatched;
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double wall = seconds_since(start);

  std::string lines;
  for (const auto& [text, kept] : first) {
    obs::JsonWriter line;
    line.begin_object();
    line.key("index").value(static_cast<std::uint64_t>(kept.first));
    line.key("response").value(kept.second);
    line.end_object();
    lines += line.str() + "\n";
  }
  if (!envelope_file.empty() && !write_file(envelope_file, lines)) return 1;

  obs::JsonWriter w;
  w.begin_object();
  w.key("wall_s").value(wall);
  w.key("mismatched").value(static_cast<std::int64_t>(mismatched.load()));
  w.key("transport_errors").value(static_cast<std::int64_t>(transport_errors.load()));
  // Per request: [plan index, latency ns, completion ns since start].
  w.key("records").begin_array();
  for (const auto& per_client : records) {
    for (const Record& r : per_client) {
      w.begin_array();
      w.value(static_cast<std::uint64_t>(r.index)).value(r.latency_ns).value(r.done_ns);
      w.end_array();
    }
  }
  w.end_array();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return transport_errors.load() == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: ntvbench hw|tables|service [--name value ...]\n"
               "  (see the header of perfbench/ntvbench.cc)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto args = Args::parse(argc - 2, argv + 2);
  if (!args) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "hw") return cmd_hw(*args);
    if (cmd == "tables") return cmd_tables(*args);
    if (cmd == "service") return cmd_service(*args);
    if (cmd == "load") return cmd_load(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntvbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
