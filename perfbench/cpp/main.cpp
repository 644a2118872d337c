// perfbench: host cost per simulated MPI message, end to end and by layer.
//
//   perfbench --workload posted_walk|alpu_rate|chaos_a2a --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//             [--inject-silent-flip]
//
// Untraced (--trace 0): repeats the workload on fresh machines for S
// seconds after a warm-up and reports the end-to-end metrics.  Host
// times are medians over the repetitions; simulated metrics are exact
// and must be bit-identical on every repetition.
//
// Traced (--trace 1): an untraced set of repetitions, then a traced set
// with spans around each call the benchmark makes into a layer, isolated
// per-layer timings at the workload's shape, and one repetition at 1 and
// 2 engine shards.  Reports the per-layer metrics.
//
// Every repetition verifies every message.  The last stdout line is one
// JSON object {correct, attempted, failed, metrics}; the exit code is 0
// only when every check passed.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "alpu/array.hpp"
#include "isolated.hpp"
#include "reference.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  Workload workload = Workload::kPostedWalk;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
  bool inject_silent_flip = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "posted_walk|alpu_rate|chaos_a2a --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--inject-silent-flip]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--inject-silent-flip") {
      a.inject_silent_flip = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing flag value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!parse_workload(value, &a.workload)) usage("unknown workload");
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && a.seconds > 0.0 &&
                     a.seconds <= 600.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (0 < S <= 600) and --trace are required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process image (VmHWM), MB.  Not
/// getrusage's ru_maxrss, which keeps the peak of the pre-exec image (the
/// Python launcher) when that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// A set of repetitions run back to back.  Host times of the timed reps
/// are kept at reference speed (reference.hpp); `raw_us_per_msg` as
/// measured.
struct Campaign {
  RepResult first;
  std::vector<double> us_per_msg;
  std::vector<double> raw_us_per_msg;
  std::vector<double> setup_ns;
  std::vector<double> build_ns;
  std::vector<double> prepost_ns;
  std::vector<double> reference_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched_reps = 0;  ///< exact outputs differing from rep 1
  std::size_t reps() const { return us_per_msg.size(); }
};

/// Warm-up repetitions (verified, not timed), then timed repetitions
/// until `seconds` have passed and at least `min_reps` ran.
Campaign run_campaign(const Shape& shape, RepOptions options, double seconds,
                      int warmup, std::size_t min_reps,
                      Tracer* reset_after_warmup) {
  Campaign c;
  bool have_first = false;
  const auto account = [&](const RepResult& r) {
    c.attempted += r.messages;
    if (!have_first) {
      c.first = r;
      have_first = true;
    } else if (!r.same_outputs(c.first, options.shards == 1)) {
      // Bit-identical outputs are part of the contract: a difference is
      // a failure of the whole repetition, not noise.
      ++c.mismatched_reps;
      c.failed += r.messages;
      return;
    }
    c.failed += r.failed;
  };
  options.reference = false;
  for (int i = 0; i < warmup; ++i) account(run_rep(shape, options));
  if (reset_after_warmup != nullptr) reset_after_warmup->reset_totals();
  options.reference = true;
  const Clock::time_point start = Clock::now();
  while (c.reps() < min_reps || elapsed_ns(start, Clock::now()) < seconds * 1e9) {
    const RepResult r = run_rep(shape, options);
    account(r);
    const double msgs = static_cast<double>(r.messages);
    const double setup_scale = r.ref_setup_ns / r.setup_ns();
    c.raw_us_per_msg.push_back(r.simulate_ns / 1e3 / msgs);
    c.us_per_msg.push_back(r.ref_simulate_ns / 1e3 / msgs);
    c.setup_ns.push_back(r.ref_setup_ns);
    c.build_ns.push_back(r.build_ns * setup_scale);
    c.prepost_ns.push_back(r.prepost_ns * setup_scale);
    c.reference_ns.push_back(r.reference_ns);
  }
  return c;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count / percentile, for the report
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %20.6f %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string samples(std::size_t n) { return "samples=" + std::to_string(n); }

/// Stream workloads must reproduce the repository's own message-rate
/// runner exactly.  Returns false on a mismatch.
bool cross_check(const Shape& shape, const RepResult& rep) {
  if (!shape.stream()) return true;
  alpu::workload::MessageRateParams p;
  p.mode = shape.mode;
  p.queue_length = shape.standing;
  p.burst = shape.burst;
  p.message_bytes = 0;
  const TimePs ref = alpu::workload::run_message_rate(p);
  std::printf("cross-check: run_message_rate gap %llu ps, benchmark gap %llu ps: %s\n",
              static_cast<unsigned long long>(ref),
              static_cast<unsigned long long>(rep.gap_ps),
              ref == rep.gap_ps ? "equal" : "MISMATCH");
  return ref == rep.gap_ps;
}

std::vector<Metric> end_to_end(const Shape& shape, const Campaign& c) {
  const RepResult& f = c.first;
  const double verified =
      ratio(static_cast<double>(c.attempted - c.failed),
            static_cast<double>(c.attempted));
  char tail_note[96];
  std::snprintf(tail_note, sizeof tail_note,
                "exact; p%.0f of %zu latencies (%zu beyond)", f.tail_percentile,
                f.latency_samples,
                static_cast<std::size_t>(static_cast<double>(f.latency_samples) *
                                         (100.0 - f.tail_percentile) / 100.0));
  const std::string exact =
      c.mismatched_reps == 0
          ? "exact; identical over " + std::to_string(c.reps()) + " timed reps"
          : "exact; DIFFERED in " + std::to_string(c.mismatched_reps) + " reps";
  char host_note[160];
  std::snprintf(host_note, sizeof host_note,
                "median at reference speed; samples=%zu reps x %llu msgs; "
                "as measured: median %.4f us, reference %.1f ns",
                c.reps(), static_cast<unsigned long long>(f.messages),
                median(c.raw_us_per_msg), median(c.reference_ns));
  return {
      {"host_us_per_msg", median(c.us_per_msg), "us", host_note},
      {"setup_s", median(c.setup_ns) / 1e9, "s",
       "median at reference speed; " + samples(c.reps()) + "; " +
           std::to_string(shape.prepost_entries()) + " receives pre-posted"},
      {"peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of this process"},
      {"sim_ns_per_msg", static_cast<double>(f.gap_ps) / 1e3, "ns", exact},
      {"sim_latency_ns_p50", static_cast<double>(f.latency_p50_ps) / 1e3, "ns",
       "exact; " + samples(f.latency_samples)},
      {"sim_latency_ns_tail", static_cast<double>(f.latency_tail_ps) / 1e3, "ns",
       tail_note},
      {"verified_frac", verified, "ratio",
       "messages passing every check / attempted; failed=" +
           std::to_string(c.failed) + " of " + std::to_string(c.attempted)},
  };
}

struct Isolated {
  double ns_per_event = 0.0;
  double ns_per_entry = 0.0;
  double ns_per_probe = 0.0;
  double ns_per_access = 0.0;
  std::uint64_t heap_depth = 0;
  std::size_t list_depth = 0;
  std::size_t alpu_occupancy = 0;
  std::size_t footprint_lines = 0;
};

/// The isolated timings at this workload's shape: the heap depth seen at
/// the traced mpi calls; the posted-queue depth a message walks (streams:
/// the standing queue; chaos: half of the receives a rank posts); the
/// ALPU occupancy (streams: standing + burst receives); and the NIC
/// memory footprint in 64-byte lines (streams: the match lines of the
/// walked queue; chaos: match + state line of every receive a rank
/// posts, which overflows the L1 as the chaos run's hit ratio shows).
Isolated time_isolated(const Shape& shape, std::uint64_t heap_depth,
                       double seconds) {
  Isolated iso;
  iso.heap_depth = heap_depth;
  const auto posted_per_rank =
      static_cast<std::size_t>((shape.ranks - 1) * shape.per_pair);
  iso.list_depth = shape.stream() ? shape.standing : posted_per_rank / 2;
  iso.alpu_occupancy =
      std::min<std::size_t>(shape.stream() ? shape.prepost_entries() : 256, 256);
  iso.footprint_lines = shape.stream() ? shape.standing + 1 : 2 * posted_per_rank;
  iso.ns_per_event = time_engine_event(heap_depth, seconds);
  iso.ns_per_entry = time_list_entry(iso.list_depth, seconds);
  iso.ns_per_probe = time_alpu_probe(iso.alpu_occupancy, seconds);
  iso.ns_per_access = time_memory_access(iso.footprint_lines, seconds);
  return iso;
}

std::vector<Metric> per_layer(const Shape& shape, const Campaign& untraced,
                              const Campaign& traced, const Tracer& tracer,
                              const Isolated& iso, double speedup,
                              std::size_t divergent) {
  const RepResult& f = untraced.first;
  const LayerCounts& k = f.phase;
  const double msgs = static_cast<double>(f.messages);
  const auto per_msg = [&](std::uint64_t v) {
    return static_cast<double>(v) / msgs;
  };
  const double host_ns = median(untraced.us_per_msg) * 1e3;
  const double traced_ns = median(traced.us_per_msg) * 1e3;
  const SpanTotals& isend = tracer.totals_under(SpanName::kSimulate, SpanName::kIsend);
  const SpanTotals& irecv = tracer.totals_under(SpanName::kSimulate, SpanName::kIrecv);
  const SpanTotals& sim = tracer.totals(SpanName::kSimulate);
  const double sim_ns =
      sim.total_ns -
      tracer.totals_under(SpanName::kSimulate, SpanName::kReference).total_ns;
  const double call_count = static_cast<double>(isend.count + irecv.count);
  const double call_total = isend.total_ns + irecv.total_ns;
  const std::string exact = "exact count";
  const std::string traced_note = "traced; " + samples(traced.reps()) + " reps";
  char shape_note[160];
  std::snprintf(shape_note, sizeof shape_note,
                "isolated; heap depth %llu, list depth %zu, ALPU occupancy %zu, "
                "footprint %zu lines",
                static_cast<unsigned long long>(iso.heap_depth), iso.list_depth,
                iso.alpu_occupancy, iso.footprint_lines);
  const double events_pm = per_msg(k.events);
  const double walked_pm = per_msg(k.entries_walked);
  const double probes_pm = per_msg(k.alpu_probes);
  const double l1_pm = per_msg(k.l1_accesses);
  return {
      {"sim.events_per_msg", events_pm, "count", exact},
      {"sim.ns_per_event", iso.ns_per_event, "ns", shape_note},
      {"sim.est_share", ratio(events_pm * iso.ns_per_event, host_ns), "ratio",
       "count x isolated ns / host ns per msg"},
      {"mpi.machine_build_us_per_node",
       median(traced.build_ns) / 1e3 / shape.ranks, "us", traced_note},
      {"mpi.prepost_us_per_entry",
       ratio(median(traced.prepost_ns) / 1e3,
             static_cast<double>(shape.prepost_entries())),
       "us", traced_note + "; 0 when nothing is pre-posted"},
      {"mpi.call_ns", ratio(call_total, call_count), "ns",
       traced_note + "; isend/irecv in the simulate phase"},
      {"mpi.call_frac", ratio(call_total, sim_ns), "ratio",
       traced_note + "; of the simulate phase's host time"},
      {"match.entries_walked_per_msg", walked_pm, "count", exact},
      {"match.cells_scanned_per_msg", per_msg(k.cells_scanned), "count", exact},
      {"match.ns_per_entry", iso.ns_per_entry, "ns", shape_note},
      {"match.est_share", ratio(walked_pm * iso.ns_per_entry, host_ns), "ratio",
       "count x isolated ns / host ns per msg"},
      {"match.compaction_moves_per_msg", per_msg(k.compaction_moves), "count",
       exact},
      {"alpu.probes_per_msg", probes_pm, "count", exact},
      {"alpu.hit_ratio",
       ratio(static_cast<double>(k.alpu_hits), static_cast<double>(k.alpu_probes)),
       "ratio", "hits / probes; 0 without probes"},
      {"alpu.insert_sessions_per_msg", per_msg(k.insert_sessions), "count", exact},
      {"alpu.probe_retries_per_msg", per_msg(k.probe_retries), "count", exact},
      {"alpu.ns_per_probe", iso.ns_per_probe, "ns", shape_note},
      {"alpu.est_share", ratio(probes_pm * iso.ns_per_probe, host_ns), "ratio",
       "count x isolated ns / host ns per msg"},
      {"alpu.fallback_searches_per_msg", per_msg(k.fallback_searches), "count",
       exact},
      {"mem.l1_accesses_per_msg", l1_pm, "count", exact},
      {"mem.l1_hit_ratio",
       ratio(static_cast<double>(k.l1_hits), static_cast<double>(k.l1_accesses)),
       "ratio", exact},
      {"mem.ns_per_access", iso.ns_per_access, "ns", shape_note},
      {"mem.est_share", ratio(l1_pm * iso.ns_per_access, host_ns), "ratio",
       "count x isolated ns / host ns per msg"},
      {"nic.fw_busy_ns_per_msg", per_msg(k.fw_busy_ps) / 1e3, "ns",
       "exact; simulated"},
      {"nic.packets_per_msg", per_msg(k.nic_packets_tx), "count", exact},
      {"nic.control_allocs", static_cast<double>(k.control_allocs), "count",
       "exact; growth during the simulate phase"},
      {"nic.retransmit_ratio",
       ratio(static_cast<double>(k.retransmits), static_cast<double>(k.data_tx)),
       "ratio", "retransmits / first transmissions"},
      {"net.packets_per_msg", per_msg(k.net_packets), "count", exact},
      {"net.faults_per_msg", per_msg(k.net_faults), "count", exact},
      {"parallel.speedup_2shards", speedup, "ratio",
       "one rep: engine run host time at 1 shard / at 2 shards"},
      {"parallel.divergent_outputs", static_cast<double>(divergent), "count",
       "exact outputs of the 2-shard rep that differ from the 1-shard rep"},
      {"trace.overhead_frac", ratio(traced_ns, host_ns) - 1.0, "ratio",
       "traced / untraced host_us_per_msg - 1"},
  };
}

void print_shape(const Shape& s, std::uint64_t seed) {
  if (s.stream()) {
    std::printf("workload %s seed %llu: %s NIC, 2 ranks, %zu standing posted "
                "receives, burst of %d 0-byte eager messages released together "
                "(open loop in simulated time)\n",
                to_string(s.workload), static_cast<unsigned long long>(seed),
                s.mode == alpu::workload::NicMode::kBaseline ? "baseline" : "ALPU-256",
                s.standing, s.burst);
  } else {
    std::printf("workload %s seed %llu: ALPU-256 NIC, %d ranks, all-to-all %d "
                "msgs per ordered pair, %.0f%% packet drop, reliability on\n",
                to_string(s.workload), static_cast<unsigned long long>(seed),
                s.ranks, s.per_pair, s.drop_rate * 100.0);
  }
}

int run(const Args& args) {
  const Shape shape = make_shape(args.workload, args.seed);
  print_shape(shape, args.seed);
  if (args.inject_silent_flip) {
    // Self-test hook: the next ALPU insert corrupts cell 0 behind the
    // parity layer, so delivery checks must fail.
    alpu::hw::testing::inject_silent_flip.store(true, std::memory_order_relaxed);
  }
  const int warmup = shape.stream() ? 20 : 1;
  const std::size_t min_reps = shape.stream() ? 20 : 3;

  if (!args.trace) {
    Campaign c = run_campaign(shape, RepOptions{}, args.seconds, warmup,
                              min_reps, nullptr);
    if (!cross_check(shape, c.first)) {
      c.failed = std::min(c.attempted, c.failed + c.first.messages);
    }
    std::printf("reps: %zu timed + %d warm-up; mismatched reps: %llu\n",
                c.reps(), warmup,
                static_cast<unsigned long long>(c.mismatched_reps));
    const bool correct = c.failed == 0;
    print_result(correct, c.attempted, c.failed, end_to_end(shape, c));
    return correct ? 0 : 1;
  }

  // Traced run: untraced and traced sets in the same process.
  const Campaign untraced = run_campaign(shape, RepOptions{}, 0.35 * args.seconds,
                                         warmup, min_reps, nullptr);
  Tracer tracer;
  RepOptions traced_opts;
  traced_opts.tracer = &tracer;
  const Campaign traced = run_campaign(shape, traced_opts, 0.35 * args.seconds,
                                       1, min_reps, &tracer);
  const bool same_as_runner = cross_check(shape, untraced.first);
  const bool traced_counts_equal =
      traced.first.same_outputs(untraced.first, true);
  std::printf("traced counts equal untraced: %s\n",
              traced_counts_equal ? "yes" : "NO");

  const Isolated iso =
      time_isolated(shape, traced.first.heap_depth, 0.05 * args.seconds);

  // One repetition at 1 and at 2 shards (2 threads), timed at reference
  // speed.  Both must deliver every message.  The sharded engine is meant
  // to reproduce every exact output too; the outputs it does not are
  // printed and counted in parallel.divergent_outputs instead of failing
  // the run, because the divergence is the simulator's (the repository's
  // own `alpusim chaos --ranks 64 --shards 2` shows it) and this count is
  // where a fix will show.
  RepOptions two;
  two.shards = 2;
  const double ref0 = reference_ns();
  const RepResult one_rep = run_rep(shape, RepOptions{});
  const double ref1 = reference_ns();
  const RepResult two_rep = run_rep(shape, two);
  const double ref2 = reference_ns();
  const std::vector<std::string> divergent = two_rep.differences(one_rep, false);
  for (const std::string& d : divergent) {
    std::printf("1 vs 2 shards differ: %s\n", d.c_str());
  }
  std::printf("1 vs 2 shards: %zu exact outputs differ\n", divergent.size());
  const double speedup =
      ratio((one_rep.prepost_ns + one_rep.simulate_ns) / (ref0 + ref1),
            (two_rep.prepost_ns + two_rep.simulate_ns) / (ref1 + ref2));

  std::printf("spans (traced reps): name count total_ms self_ms\n");
  for (std::size_t i = 0; i < static_cast<std::size_t>(SpanName::kCount); ++i) {
    const auto name = static_cast<SpanName>(i);
    const SpanTotals& t = tracer.totals(name);
    std::printf("span %-22s %10llu %12.3f %12.3f\n", to_string(name),
                static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
                t.self_ns / 1e6);
  }
  if (!args.trace_out.empty()) {
    if (!tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("trace of the last traced rep written to %s\n",
                args.trace_out.c_str());
  }

  const std::uint64_t attempted = untraced.attempted + traced.attempted +
                                  one_rep.messages + two_rep.messages;
  // A mismatch with the repository's runner or between traced and
  // untraced counts fails the repetition it was seen on.
  const std::uint64_t failed = std::min(
      attempted, untraced.failed + traced.failed + one_rep.failed +
                     two_rep.failed +
                     (same_as_runner ? 0 : untraced.first.messages) +
                     (traced_counts_equal ? 0 : traced.first.messages));
  const bool correct = failed == 0;
  print_result(correct, attempted, failed,
               per_layer(shape, untraced, traced, tracer, iso, speedup,
                         divergent.size()));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Every rep builds and frees a whole machine.  Keep freed memory in the
  // heap instead of returning it to the kernel, so set-up times the
  // simulator's own work rather than page faults whose cost depends on
  // the host's memory pressure.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  return perfbench::run(perfbench::parse_args(argc, argv));
}
